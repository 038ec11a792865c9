"""Dataset generation, empirical risk, ERM training, and L2 evaluation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .analytic import lognormal_capped_put
from .nets import Architecture, ClippedNetwork, Parametrization, _forward, put_payoff_network
from .sde import KolmogorovProblem, mc_reference_grid, payoff_samples

__all__ = [
    "Dataset",
    "TrainConfig",
    "FitReport",
    "BiasVarianceReport",
    "generate_dataset",
    "empirical_risk",
    "train_erm",
    "grid_points",
    "reference",
    "l2_error",
    "noise_floor",
    "bias_variance_report",
]

@dataclass(frozen=True)
class Dataset:
    """Training pairs (X_i, Y_i) with X_i uniform on [u,v]^d, Y_i in [-D, D]."""

    inputs: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)

    def __post_init__(self):
        # Views, so that freezing them leaves the caller's arrays writeable.
        X = np.asarray(self.inputs, dtype=np.float64).view()
        Y = np.asarray(self.labels, dtype=np.float64).view()
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


def generate_dataset(problem: KolmogorovProblem, m: int, seed: int) -> Dataset:
    """i.i.d. pairs: X uniform on the hypercube, Y the clipped payoff at S_T^X,
    sampled by ``sde.payoff_samples`` on the seed child_seeds(seed, 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x_key = rng.stream_key(rng.child_seeds(seed, 0))
    X = rng.hypercube(x_key, m, problem.dim, problem.u, problem.v)
    return Dataset(X, payoff_samples(problem, X, rng.child_seeds(seed, 1)))


def _squared_residuals(f: ClippedNetwork, points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(f(x_i) - y_i)^2 at each row x_i of ``points``; every squared error is formed here."""
    if len(values) == 0:
        raise ValueError("reference must be nonempty")
    if len(values) != len(points):
        raise ValueError(f"{len(points)} points but {len(values)} reference values")
    r = f(points)  # a fresh array, squared in place
    r -= values
    r *= r
    return r


def empirical_risk(f: ClippedNetwork, data: Dataset) -> float:
    """Mean squared residual (1/m) sum (f(X_i) - Y_i)^2."""
    if f.params.architecture.input_width != data.d:
        raise ValueError("network input width does not match dataset dimension")
    return l2_error(f, data.inputs, data.labels)


@dataclass(frozen=True)
class TrainConfig:
    architecture: Architecture
    clip_amplitude: float
    parameter_bound: float | None = None  # R: project into [-R, R]; None = unconstrained
    batch_size: int = 256
    step_size: float = 1e-3
    iterations: int = 100_000
    eval_every: int = 1000
    seed: int = 0
    constant_only: bool = False  # train biases only (constant-function class probe)

    def __post_init__(self):
        R = self.parameter_bound
        for holds, message in (
            (self.architecture.output_width == 1, "training requires output width 1"),
            (self.batch_size >= 1, "batch_size must be at least 1"),
            (self.iterations >= 0, "iterations must be at least 0"),
            (self.eval_every >= 1, "eval_every must be at least 1"),
            (0 < self.step_size < np.inf, "step_size must be positive and finite"),
            (R is None or 0 < R < np.inf, "parameter_bound must be None or positive and finite"),
        ):
            if not holds:
                raise ValueError(message)


@dataclass
class FitReport:
    final_risk: float
    trace: list  # (iteration, batch_risk, full_risk)
    trained: Parametrization
    clip_amplitude: float

    @property
    def network(self) -> ClippedNetwork:
        return ClippedNetwork(self.trained, self.clip_amplitude)


def _layer_views(flat: np.ndarray, widths: tuple):
    """Per-layer (W, B) views into a flat buffer: all weights first, then all biases."""
    Ws, Bs, off = [], [], 0
    for l in range(1, len(widths)):
        size = widths[l] * widths[l - 1]
        Ws.append(flat[off:off + size].reshape(widths[l], widths[l - 1]))
        off += size
    for w in widths[1:]:
        Bs.append(flat[off:off + w])
        off += w
    return Ws, Bs


def _init_params(arch: Architecture, gen: np.random.Generator, constant_only: bool):
    """Flat parameter buffer: Glorot-uniform weights (layer by layer), zero biases."""
    w = arch.widths
    theta = np.zeros(arch.param_count)
    if not constant_only:
        for l, W in enumerate(_layer_views(theta, w)[0], start=1):
            bound = np.sqrt(6.0 / (w[l - 1] + w[l]))
            W[...] = gen.uniform(-bound, bound, size=W.shape)
    return theta


def _forward_backward(layers, gWs, gBs, X, Y, D, acts):
    """Quadratic loss on the clipped output of the (W, B) ``layers``: returns
    the batch risk, writes the gradients into gWs, gBs.

    acts[l] is a (batch, a_{l+1}) work buffer that holds layer l+1's
    activation (the pre-activation for the output layer) on the forward
    pass and, once layer l+1's weight gradient is formed, its
    back-propagated residual.  The clip passes gradient 1 strictly inside
    (-D, D) and 0 outside (subgradient 0 at the kink).
    """
    last = len(layers) - 1
    raw = _forward(layers, X, acts)[:, 0]
    res = np.clip(raw, -D, D) - Y
    risk = float(np.mean(res**2))
    acts[last][:, 0] = np.where(np.abs(raw) < D, 2.0 * res / X.shape[0], 0.0)
    for l in range(last, -1, -1):
        dz = acts[l]
        np.matmul(dz.T, acts[l - 1] if l > 0 else X, out=gWs[l])
        np.sum(dz, axis=0, out=gBs[l])
        if l > 0:
            active = acts[l - 1] > 0
            if l == last:  # output width 1: dz @ W is an outer product
                np.multiply(dz, layers[l][0], out=acts[l - 1])
            else:
                np.matmul(dz, layers[l][0], out=acts[l - 1])
            acts[l - 1] *= active
    return risk


@np.errstate(over="ignore", invalid="ignore")  # a diverging run raises RuntimeError below
def train_erm(data: Dataset, config: TrainConfig) -> FitReport:
    """Approximate empirical risk minimization by minibatch Adam.

    Deterministic given the config seed.  The returned network is the
    best full-data-risk parameter vector seen along the trajectory
    (evaluated every ``eval_every`` steps and at the end), and ``final_risk``
    is its risk, so extending the iteration budget can never worsen it.

    Parameters, gradients and both Adam moments are flat buffers (weights
    first, then biases) with per-layer views, so an Adam step is one
    vectorised update; with ``constant_only`` it covers the bias tail only.
    One batch-sized buffer per layer is allocated once per run.
    """
    if data.m == 0:
        raise ValueError("empty dataset")
    arch = config.architecture
    if arch.input_width != data.d:
        raise ValueError("architecture input width does not match dataset")
    D = config.clip_amplitude
    gen = np.random.default_rng(np.random.PCG64(config.seed))
    theta = _init_params(arch, gen, config.constant_only)
    R = config.parameter_bound
    if R is not None:  # the initial point is a candidate best too
        np.clip(theta, -R, R, out=theta)
    grad = np.empty_like(theta)
    layers = tuple(zip(*_layer_views(theta, arch.widths)))
    gWs, gBs = _layer_views(grad, arch.widths)
    batch = min(config.batch_size, data.m)
    X = np.empty((batch, data.d))
    Y = np.empty(batch)
    acts = [np.empty((batch, w)) for w in arch.widths[1:]]
    n_trained = sum(arch.widths[1:]) if config.constant_only else theta.size  # bias tail
    p, g = theta[-n_trained:], grad[-n_trained:]
    m1, m2 = np.zeros_like(p), np.zeros_like(p)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def full_risk():
        net = ClippedNetwork(Parametrization(layers), D)
        return empirical_risk(net, data)

    divergence_cap = 4.0 * D * D + 1.0
    trace = []
    best_risk = full_risk()
    best = theta.copy()
    trace.append((0, best_risk, best_risk))
    for it in range(1, config.iterations + 1):
        idx = gen.integers(0, data.m, size=batch)
        np.take(data.inputs, idx, axis=0, out=X)
        np.take(data.labels, idx, out=Y)
        risk = _forward_backward(layers, gWs, gBs, X, Y, D, acts)
        if not np.isfinite(risk) or risk > divergence_cap:
            raise RuntimeError(
                f"training diverged at iteration {it} (batch risk {risk}); trace: {trace}"
            )
        corr1 = 1.0 - beta1**it
        corr2 = 1.0 - beta2**it
        m1 = beta1 * m1 + (1 - beta1) * g
        m2 = beta2 * m2 + (1 - beta2) * g**2
        p -= config.step_size * (m1 / corr1) / (np.sqrt(m2 / corr2) + eps)
        if R is not None:
            np.clip(theta, -R, R, out=theta)
        if it % config.eval_every == 0 or it == config.iterations:
            fr = full_risk()
            trace.append((it, risk, fr))
            if fr < best_risk:
                best_risk = fr
                best = theta.copy()
    trained = Parametrization(tuple(zip(*_layer_views(best, arch.widths))))
    return FitReport(
        final_risk=best_risk,
        trace=trace,
        trained=trained,
        clip_amplitude=D,
    )


def grid_points(problem: KolmogorovProblem, size: int, seed) -> np.ndarray:
    """Evaluation grid: equispaced on [u, v] at d = 1, else uniform on the
    hypercube from the stream key of ``seed``."""
    if problem.dim == 1:
        return np.linspace(problem.u, problem.v, size)[:, None]
    return rng.hypercube(rng.stream_key(seed), size, problem.dim, problem.u, problem.v)


def reference(problem: KolmogorovProblem, points: np.ndarray, paths: int, seed: int):
    """F(T, .) at the rows of a (k, d) array: ``(values, std_errors, kind)``.

    The closed form with zero standard errors ("closed_form") for the d = 1
    GBM capped put on positive prices (u > 0): a (1, 1, 1, 1) payoff every
    layer of which equals that of ``put_payoff_network(c, D)`` for the c > 0
    and the clip amplitude D its first layer holds.  Else
    ``sde.mc_reference_grid`` at ``paths`` paths per point on ``seed``
    ("monte_carlo").
    """
    layers = problem.payoff.layers
    if problem.gbm_flag and problem.u > 0 and problem.payoff.architecture.widths == (1, 1, 1, 1):
        c, cap = -float(layers[0][0][0, 0]), float(layers[0][1][0])
        if c > 0 and cap == problem.clip_amplitude and all(
                np.array_equal(W, V) and np.array_equal(B, A)
                for (W, B), (V, A) in zip(layers, put_payoff_network([c], cap).layers)):
            mu, sig = float(problem.coeffs.A[0, 0]), float(problem.coeffs.C[1, 0, 0])
            values = lognormal_capped_put(points[:, 0], c, cap, mu, sig, problem.horizon)
            return values, np.zeros(len(points)), "closed_form"
    values, std_errors = mc_reference_grid(problem, points, paths, seed)
    return values, std_errors, "monte_carlo"


def l2_error(f: ClippedNetwork, points: np.ndarray, values: np.ndarray) -> float:
    """Mean over the rows x_i of a (k, d) array of (f(x_i) - values[i])^2.

    ``values`` is a (k,) reference, such as the estimates of
    ``sde.mc_reference_grid``; the Monte-Carlo noise floor of such a
    reference is ``noise_floor`` of its standard errors.
    """
    return float(np.mean(_squared_residuals(f, points, values)))


def noise_floor(std_errors: np.ndarray) -> float:
    """Mean squared standard error of a reference: mean(std_errors^2)."""
    if np.size(std_errors) == 0:
        raise ValueError("standard errors must be nonempty")
    return float(np.mean(np.square(std_errors)))


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
    f_hat = fit.network
    res1 = _squared_residuals(f_hat, holdout.inputs, holdout.labels)
    risk_hat = float(np.mean(res1))

    best_class_risk = risk_hat
    for t in range(trials):
        fit_t = train_erm(data, replace(config, seed=rng.child_seed(seed, 0xF17 + t)))
        best_class_risk = min(best_class_risk, empirical_risk(fit_t.network, holdout))

    # Risk of the regression function on the held-out set: zero for a noiseless
    # (zero diffusion) problem, whose labels are exact.  Estimating the residual
    # label variance otherwise is out of scope; the identity check uses the
    # noiseless case.
    risk_star = 0.0 if np.all(problem.coeffs.C == 0) else np.nan
    generalization = risk_hat - best_class_risk
    approximation = best_class_risk - risk_star

    # The squared distance to the regression function is estimated on a
    # second, independent held-out set so that checking
    # total = generalization + approximation is a genuine statistical test
    # rather than an arithmetic tautology.
    holdout2 = generate_dataset(problem, holdout_m, rng.child_seed(seed, 0xD00D))
    res2 = _squared_residuals(f_hat, holdout2.inputs, holdout2.labels)
    total = float(np.mean(res2)) - risk_star
    se1 = float(np.std(res1, ddof=1) / np.sqrt(holdout_m))
    se2 = float(np.std(res2, ddof=1) / np.sqrt(holdout_m))
    return BiasVarianceReport(
        generalization=generalization,
        approximation=approximation,
        total=total,
        holdout_se=float(np.hypot(se1, se2)),
    )
