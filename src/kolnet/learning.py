"""Dataset generation, empirical risk, ERM training, and L2 evaluation."""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .nets import Architecture, ClippedNetwork, Parametrization, evaluate
from .sde import KolmogorovProblem, _terminal_batch

__all__ = [
    "Dataset",
    "TrainConfig",
    "FitReport",
    "BiasVarianceReport",
    "generate_dataset",
    "empirical_risk",
    "train_erm",
    "l2_error",
    "noise_floor",
    "bias_variance_report",
]

_MAGIC = b"KOLD"
_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Training pairs (X_i, Y_i) with X_i uniform on [u,v]^d, Y_i in [-D, D]."""

    inputs: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)
    problem_hash: str
    seed: int

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=np.float64)
        Y = np.asarray(self.labels, dtype=np.float64)
        if X.ndim != 2 or Y.shape != (X.shape[0],):
            raise ValueError("inputs must be (m, d) and labels (m,)")
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "labels", Y)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    def save(self, path, u: float, v: float, D: float) -> None:
        header = _MAGIC + struct.pack(
            "<IIQdddQ", _VERSION, self.d, self.m, u, v, D, self.seed & 0xFFFFFFFFFFFFFFFF
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(bytes(self.problem_hash[:16].ljust(16), "ascii"))
            fh.write(np.ascontiguousarray(self.inputs).tobytes())
            fh.write(np.ascontiguousarray(self.labels).tobytes())

    @staticmethod
    def load(path) -> "Dataset":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ValueError(f"{path}: not a dataset file")
            version, d, m, u, v, D, seed = struct.unpack(
                "<IIQdddQ", fh.read(struct.calcsize("<IIQdddQ"))
            )
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            problem_hash = fh.read(16).decode("ascii").strip()
            X = np.frombuffer(fh.read(8 * m * d), dtype=np.float64).reshape(m, d)
            Y = np.frombuffer(fh.read(8 * m), dtype=np.float64)
        return Dataset(X, Y, problem_hash, seed)

    def to_csv(self, path) -> None:
        header = ",".join(f"x_{i + 1}" for i in range(self.d)) + ",y"
        data = np.column_stack([self.inputs, self.labels])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def generate_dataset(problem: KolmogorovProblem, m: int, seed: int) -> Dataset:
    """i.i.d. pairs: X uniform on the hypercube, Y the clipped payoff at S_T^X."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d = problem.dim
    x_key = rng.stream_key(rng.child_seeds(seed, 0))
    U = rng.uniforms(x_key, np.arange(m * d)).reshape(m, d)
    X = problem.u + (problem.v - problem.u) * U
    path_seeds = rng.child_seeds(rng.child_seeds(seed, 1), np.arange(m))
    keys = rng.stream_key(path_seeds)
    S = _terminal_batch(problem, X, keys)
    Y = problem.clipped_payoff(S)
    return Dataset(X, Y, problem.content_hash(), seed)


def empirical_risk(f: ClippedNetwork, data: Dataset) -> float:
    """Mean squared residual (1/m) sum (f(X_i) - Y_i)^2."""
    if f.params.architecture.input_width != data.d:
        raise ValueError("network input width does not match dataset dimension")
    res = f(data.inputs) - data.labels
    return float(np.mean(res**2))


@dataclass(frozen=True)
class TrainConfig:
    architecture: Architecture
    clip_amplitude: float
    parameter_bound: float | None = None  # None = unconstrained
    batch_size: int = 256
    step_size: float = 1e-3
    iterations: int = 100_000
    eval_every: int = 1000
    seed: int = 0
    project: bool = False
    constant_only: bool = False  # train biases only (constant-function class probe)

    def __post_init__(self):
        if self.architecture.output_width != 1:
            raise ValueError("training requires output width 1")
        if self.project and self.parameter_bound is None:
            raise ValueError("projection requires a parameter bound R")


@dataclass
class FitReport:
    final_risk: float
    trace: list  # (iteration, batch_risk, full_risk)
    wall_clock: float
    trained: Parametrization
    clip_amplitude: float

    @property
    def network(self) -> ClippedNetwork:
        return ClippedNetwork(self.trained, self.clip_amplitude)

    def save_trace(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,batch_risk,full_risk\n")
            for it, br, fr in self.trace:
                fh.write(f"{it},{br:.17g},{fr:.17g}\n")


def _init_params(arch: Architecture, gen: np.random.Generator, constant_only: bool):
    Ws, Bs = [], []
    w = arch.widths
    for l in range(1, len(w)):
        bound = np.sqrt(6.0 / (w[l - 1] + w[l]))
        if constant_only:
            Ws.append(np.zeros((w[l], w[l - 1])))
        else:
            Ws.append(gen.uniform(-bound, bound, size=(w[l], w[l - 1])))
        Bs.append(np.zeros(w[l]))
    return Ws, Bs


def _forward_backward(Ws, Bs, X, Y, D):
    """Quadratic loss on clipped output; returns (batch risk, grads).

    The clip passes gradient 1 strictly inside (-D, D) and 0 outside
    (subgradient 0 at the kink).
    """
    acts = [X]
    pre = []
    h = X
    last = len(Ws) - 1
    for l, (W, B) in enumerate(zip(Ws, Bs)):
        z = h @ W.T + B
        pre.append(z)
        h = np.maximum(z, 0.0) if l != last else z
        acts.append(h)
    raw = pre[-1][:, 0]
    out = np.clip(raw, -D, D)
    res = out - Y
    risk = float(np.mean(res**2))
    m = X.shape[0]
    dz = np.where(np.abs(raw) < D, 2.0 * res / m, 0.0)[:, None]
    gWs, gBs = [None] * len(Ws), [None] * len(Ws)
    for l in range(last, -1, -1):
        inp = np.maximum(pre[l - 1], 0.0) if l > 0 else X
        gWs[l] = dz.T @ inp
        gBs[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ Ws[l]) * (pre[l - 1] > 0)
    return risk, gWs, gBs


def train_erm(data: Dataset, config: TrainConfig) -> FitReport:
    """Approximate empirical risk minimization by minibatch Adam.

    Deterministic given the config seed.  The returned network is the
    best full-data-risk parameter vector seen along the trajectory
    (evaluated every ``eval_every`` steps and at the end), so extending the
    iteration budget can never worsen the reported risk.
    """
    if data.m == 0:
        raise ValueError("empty dataset")
    if config.architecture.input_width != data.d:
        raise ValueError("architecture input width does not match dataset")
    D = config.clip_amplitude
    start = time.perf_counter()
    gen = np.random.default_rng(np.random.PCG64(config.seed))
    Ws, Bs = _init_params(config.architecture, gen, config.constant_only)
    mWs = [np.zeros_like(W) for W in Ws]
    vWs = [np.zeros_like(W) for W in Ws]
    mBs = [np.zeros_like(B) for B in Bs]
    vBs = [np.zeros_like(B) for B in Bs]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    R = config.parameter_bound

    def full_risk():
        net = ClippedNetwork(Parametrization(tuple(zip(Ws, Bs))), D)
        return empirical_risk(net, data)

    divergence_cap = 4.0 * D * D + 1.0
    trace = []
    best_risk = full_risk()
    best = ([W.copy() for W in Ws], [B.copy() for B in Bs])
    trace.append((0, best_risk, best_risk))
    for it in range(1, config.iterations + 1):
        idx = gen.integers(0, data.m, size=min(config.batch_size, data.m))
        risk, gWs, gBs = _forward_backward(Ws, Bs, data.inputs[idx], data.labels[idx], D)
        if not np.isfinite(risk) or risk > divergence_cap:
            raise RuntimeError(
                f"training diverged at iteration {it} (batch risk {risk}); trace: {trace}"
            )
        t = it
        corr1 = 1.0 - beta1**t
        corr2 = 1.0 - beta2**t
        for l in range(len(Ws)):
            if not config.constant_only:
                mWs[l] = beta1 * mWs[l] + (1 - beta1) * gWs[l]
                vWs[l] = beta2 * vWs[l] + (1 - beta2) * gWs[l] ** 2
                Ws[l] -= config.step_size * (mWs[l] / corr1) / (
                    np.sqrt(vWs[l] / corr2) + eps
                )
            mBs[l] = beta1 * mBs[l] + (1 - beta1) * gBs[l]
            vBs[l] = beta2 * vBs[l] + (1 - beta2) * gBs[l] ** 2
            Bs[l] -= config.step_size * (mBs[l] / corr1) / (np.sqrt(vBs[l] / corr2) + eps)
            if config.project:
                np.clip(Ws[l], -R, R, out=Ws[l])
                np.clip(Bs[l], -R, R, out=Bs[l])
        if it % config.eval_every == 0 or it == config.iterations:
            fr = full_risk()
            trace.append((it, risk, fr))
            if fr < best_risk:
                best_risk = fr
                best = ([W.copy() for W in Ws], [B.copy() for B in Bs])
    trained = Parametrization(tuple(zip(*best)))
    final = empirical_risk(ClippedNetwork(trained, D), data)
    return FitReport(
        final_risk=final,
        trace=trace,
        wall_clock=time.perf_counter() - start,
        trained=trained,
        clip_amplitude=D,
    )


def l2_error(f: ClippedNetwork, reference) -> float:
    """Mean over reference points of (f(x) - value)^2.

    ``reference`` is a sequence of (point, value, std_error).  The Monte
    Carlo noise floor of the reference itself is mean(std_error^2); see
    ``noise_floor``.
    """
    ref = list(reference)
    if not ref:
        raise ValueError("reference must be nonempty")
    X = np.vstack([np.atleast_1d(np.asarray(p, dtype=np.float64)) for p, _, _ in ref])
    vals = np.array([v for _, v, _ in ref])
    return float(np.mean((f(X) - vals) ** 2))


def noise_floor(reference) -> float:
    """Mean squared standard error of the reference values."""
    ses = np.array([se for _, _, se in reference])
    return float(np.mean(ses**2))


@dataclass(frozen=True)
class BiasVarianceReport:
    generalization: float
    approximation: float
    total: float
    holdout_se: float  # standard error of the held-out risk estimates


def bias_variance_report(
    problem: KolmogorovProblem,
    config: TrainConfig,
    m: int,
    trials: int,
    seed: int,
    holdout_m: int = 100_000,
) -> BiasVarianceReport:
    """Estimate the error split total = generalization + approximation.

    The trained predictor's risk and the class-minimum proxy (best of
    ``trials`` independent restarts) are both estimated on one held-out
    Monte-Carlo set.  ``total`` approximates the squared L2 distance of the
    trained predictor to the regression function; for a noiseless problem
    (zero diffusion) it equals the held-out risk of the trained net, making
    the decomposition an identity up to shared sampling noise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    data = generate_dataset(problem, m, seed)
    holdout = generate_dataset(problem, holdout_m, rng.child_seed(seed, 0xBEEF))
    fit = train_erm(data, config)
    f_hat = ClippedNetwork(fit.trained, config.clip_amplitude)
    risk_hat = empirical_risk(f_hat, holdout)

    best_class_risk = np.inf
    for t in range(trials):
        cfg_t = TrainConfig(
            architecture=config.architecture,
            clip_amplitude=config.clip_amplitude,
            parameter_bound=config.parameter_bound,
            batch_size=config.batch_size,
            step_size=config.step_size,
            iterations=config.iterations,
            eval_every=config.eval_every,
            seed=rng.child_seed(seed, 0xF17 + t),
            project=config.project,
            constant_only=config.constant_only,
        )
        fit_t = train_erm(data, cfg_t)
        r = empirical_risk(ClippedNetwork(fit_t.trained, config.clip_amplitude), holdout)
        best_class_risk = min(best_class_risk, r)
    best_class_risk = min(best_class_risk, risk_hat)

    # Risk of the regression function on the held-out set.  Zero for a
    # noiseless (zero diffusion) problem where labels are exact.
    deterministic = all(np.all(Ci == 0) for Ci in problem.coeffs.C)
    if deterministic:
        risk_star = 0.0
    else:
        # Residual label variance estimated via per-point repeated sampling
        # is out of scope here; callers use the deterministic case for the
        # identity check.
        risk_star = np.nan
    generalization = risk_hat - best_class_risk
    approximation = best_class_risk - risk_star

    # The squared distance to the regression function is estimated on a
    # second, independent held-out set so that checking
    # total = generalization + approximation is a genuine statistical test
    # rather than an arithmetic tautology.
    holdout2 = generate_dataset(problem, holdout_m, rng.child_seed(seed, 0xD00D))
    total = empirical_risk(f_hat, holdout2) - risk_star
    res1 = (f_hat(holdout.inputs) - holdout.labels) ** 2
    res2 = (f_hat(holdout2.inputs) - holdout2.labels) ** 2
    se1 = float(np.std(res1, ddof=1) / np.sqrt(holdout_m))
    se2 = float(np.std(res2, ddof=1) / np.sqrt(holdout_m))
    return BiasVarianceReport(
        generalization=generalization,
        approximation=approximation,
        total=total,
        holdout_se=float(np.hypot(se1, se2)),
    )
