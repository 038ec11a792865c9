"""Closed-form certificate calculators for the clipped ReLU hypothesis class.

Everything here is a pure formula: the Lipschitz constant of the
parameters-to-realization map, covering-number bounds, the Hoeffding-based
generalization failure probability, the sample-complexity function, and the
dimension-scaling certificate assembled from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import Architecture

__all__ = [
    "ClassSpec",
    "ApproximationFamily",
    "Certificate",
    "lipschitz_bound",
    "ball_covering_log",
    "network_covering_log",
    "generalization_failure_log",
    "sample_complexity_h",
    "required_samples",
    "kolmogorov_certificate",
    "scaling_audit",
    "put_family",
]


@dataclass(frozen=True)
class ClassSpec:
    """Hypothesis class of clipped networks: architecture, bound R, clip D, domain."""

    architecture: Architecture
    R: float
    D: float
    u: float
    v: float

    def __post_init__(self):
        if not 1 <= self.R < math.inf:
            raise ValueError("parameter bound R must be finite and >= 1")
        if not 1 <= self.D < math.inf:
            raise ValueError("clip amplitude D must be finite and >= 1")
        if not -math.inf < self.u < self.v < math.inf:
            raise ValueError("require finite u < v")

    @property
    def domain_scale(self) -> float:
        return max(1.0, abs(self.u), abs(self.v))


def lipschitz_bound(spec: ClassSpec) -> float:
    """Lipschitz constant of theta -> realization on [u,v]^d, sup norms both sides.

    Value: 2 * max{1,|u|,|v|} * L^2 * R^(L-1) * ||a||_inf^L.
    """
    L = spec.architecture.depth
    w = spec.architecture.max_width
    return 2.0 * spec.domain_scale * L**2 * spec.R ** (L - 1) * float(w) ** L


def ball_covering_log(n: int, R: float, r: float) -> float:
    """log covering number of the sup-norm ball of radius R in R^n: n*ln(ceil(R/r))."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if R < 1:
        raise ValueError("R must be >= 1")
    if not 0 < r < 1:
        raise ValueError("radius r must be in (0, 1)")
    return n * math.log(math.ceil(R / r))


def network_covering_log(spec: ClassSpec, r: float) -> float:
    """log covering number bound for the (clipped) network class at radius r.

    P(a) * [ ln(4 L^2 max{1,|u|,|v|} / r) + L ln(R ||a||_inf) ].  Clipping is
    non-expansive, so the clipped class satisfies the same bound.
    """
    if not 0 < r < 1:
        raise ValueError("radius r must be in (0, 1)")
    a = spec.architecture
    L = a.depth
    return a.param_count * (
        math.log(4.0 * L**2 * spec.domain_scale / r)
        + L * math.log(spec.R * a.max_width)
    )


def generalization_failure_log(ln_cov: float, m: int, eps: float, D: float) -> float:
    """log of the uniform-deviation failure bound: ln 2 + ln_cov - m eps^2 / (128 D^4).

    The caller exponentiates and clamps at 1 to obtain the probability bound.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if D < 1:
        raise ValueError("D must be >= 1")
    return math.log(2.0) + ln_cov - m * eps**2 / (128.0 * D**4)


def sample_complexity_h(x1, x2, x3, x4, x5, D, u, v) -> float:
    """Sample-count formula.

    h(x) = 128 D^4 x1^2 [ ln 2 + x2 + x3 x4 x5
                          + x4 ln(128 D max{1,|u|,|v|} x1 x5^2) ].
    """
    if min(x1, x2, x3, x4, x5) < 0 or x1 <= 0 or x5 <= 0 or not all(
            map(math.isfinite, (x1, x2, x3, x4, x5, D, u, v))):
        raise ValueError("arguments must be finite and positive (x2, x3, x4 may be zero)")
    scale = max(1.0, abs(u), abs(v))
    return (
        128.0
        * D**4
        * x1**2
        * (math.log(2.0) + x2 + x3 * x4 * x5 + x4 * math.log(128.0 * D * scale * x1 * x5**2))
    )


def _samples(eps, rho, R_width, P, L, D, u, v) -> int:
    """ceil(h(1/eps, ln 1/rho, ln R_width, P, L, D, u, v)) as an int; OverflowError beyond int64."""
    h = sample_complexity_h(1.0 / eps, math.log(1.0 / rho), math.log(R_width), P, L, D, u, v)
    m = math.ceil(h)
    if m > np.iinfo(np.int64).max:
        raise OverflowError(f"sample count {h:.3e} exceeds 64-bit range")
    return int(m)


def required_samples(eps: float, rho: float, spec: ClassSpec) -> int:
    """Smallest integer m certified by the sample-complexity formula.

    Where an eps/2 approximator is known, call it at eps/2 (h's first
    argument is then 2/eps).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    a = spec.architecture
    return _samples(eps, rho, spec.R * a.max_width, a.param_count, a.depth, spec.D, spec.u, spec.v)


@dataclass(frozen=True)
class ApproximationFamily:
    """Rates at which payoff networks approximate the initial values.

    Exponents (nu, alpha, beta, gamma, kappa, lmbda) with nu >= 1/2;
    tau = nu + 2*alpha is derived.
    """

    nu: float
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    kappa: float = 0.0
    lmbda: float = 0.0

    def __post_init__(self):
        if self.nu < 0.5:
            raise ValueError("nu must be >= 1/2")
        exps = (self.alpha, self.beta, self.gamma, self.kappa, self.lmbda)
        if min(exps) < 0 or not all(map(math.isfinite, (self.nu, *exps))):
            raise ValueError("exponents must be finite and nonnegative")

    @property
    def tau(self) -> float:
        return self.nu + 2.0 * self.alpha


def put_family() -> ApproximationFamily:
    """Exact-representation family of the capped basket put payoff."""
    return ApproximationFamily(nu=0.5, alpha=0.0, beta=0.0, gamma=1.0, kappa=0.0, lmbda=0.0)


@dataclass(frozen=True)
class Certificate:
    """Numeric caps certified for a requested (eps, rho, d), with provenance."""

    samples: int
    param_cap: float
    R_cap: float
    depth: int
    width_cap: float
    provenance: dict  # quantity -> formula string

    def rows(self):
        return [
            ("m", self.samples, self.provenance["m"]),
            ("P(a)", self.param_cap, self.provenance["P(a)"]),
            ("R", self.R_cap, self.provenance["R"]),
            ("depth", self.depth, self.provenance["depth"]),
            ("max_width", self.width_cap, self.provenance["max_width"]),
        ]


def kolmogorov_certificate(problem, eps: float, rho: float, fam: ApproximationFamily,
                           C: float) -> Certificate:
    """Size/sample certificate for ``problem``, a ``kolnet.sde.KolmogorovProblem``.

    d, the payoff architecture b, the clip D and the domain [u, v]^d are read
    from the problem.  The scale constant C is user-supplied (the underlying
    results only assert its existence); exponents in d and 1/eps are recorded
    in the provenance so scaling audits are constant-free.  The companion
    accuracy is delta = (4C)^-1 d^(-tau/2) eps^(1/2).
    """
    if C is None or not 0 < C < math.inf:
        raise ValueError("scale constant C must be supplied, positive and finite")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    d, b_arch = problem.dim, problem.payoff.architecture
    tau = fam.tau
    delta = min(1.0 - 1e-12, (1.0 / (4.0 * C)) * d ** (-tau / 2.0) * eps**0.5)
    p_exp_d = tau * (fam.lmbda / 2.0 + 2.0) + fam.gamma
    p_exp_e = fam.lmbda / 2.0 + 2.0
    r_exp_d = tau * (fam.kappa / 2.0 + 1.0) + fam.beta + 1.5
    r_exp_e = fam.kappa / 2.0 + 1.0
    param_cap = C * d**p_exp_d * eps ** (-p_exp_e)
    R_cap = max(1.0, C * d**r_exp_d * eps ** (-r_exp_e))
    depth = b_arch.depth
    width_cap = C * d**tau * eps ** (-1.0) * b_arch.max_width
    m = _samples(eps / 2.0, rho, max(R_cap * width_cap, 1.0), param_cap, depth,
                 problem.clip_amplitude, problem.u, problem.v)
    provenance = {
        "P(a)": f"C*d^{p_exp_d:g}*eps^-{p_exp_e:g}",
        "R": f"C*d^{r_exp_d:g}*eps^-{r_exp_e:g}",
        "depth": f"depth of payoff architecture at delta={delta:g}",
        "max_width": f"C*d^{tau:g}*eps^-1*max_width(b)",
        "m": "ceil(h(2/eps, ln(1/rho), ln(R*width), P(a), depth))",
    }
    return Certificate(
        samples=m,
        param_cap=param_cap,
        R_cap=R_cap,
        depth=depth,
        width_cap=width_cap,
        provenance=provenance,
    )


@dataclass(frozen=True)
class ScalingAudit:
    slope: float
    r_squared: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.slope <= self.threshold


def scaling_audit(results, threshold: float = 3.0) -> ScalingAudit:
    """OLS fit of ln(quantity) against ln(d); PASS when slope <= threshold.

    ``results`` is a sequence of (d, quantity) pairs at fixed accuracy.
    Polynomial growth of degree k shows slope ~ k; exponential growth shows
    a slope increasing with the d-range and fails a polynomial threshold.
    """
    results = list(results)
    ds = np.array([float(r[0]) for r in results])
    qs = np.array([float(r[1]) for r in results])
    if len(set(ds.tolist())) < 3:
        raise ValueError("scaling audit needs at least 3 distinct d values")
    if np.any(qs <= 0) or np.any(ds <= 0):
        raise ValueError("quantities and dimensions must be positive")
    x = np.log(ds)
    y = np.log(qs)
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingAudit(slope=float(coef[0]), r_squared=r2, threshold=threshold)
