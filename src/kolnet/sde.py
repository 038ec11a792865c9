"""Affine-coefficient SDE simulation and the Feynman-Kac Monte-Carlo oracle.

Drift mu(x) = A x + b and matrix diffusion sigma(x) = C_0 + sum_i x_i C_i
are affine in the state, which makes every Euler step (and the exact
geometric-Brownian terminal map) affine in the initial value.  The terminal
value therefore has a pathwise representation S_T^x = M x + N, and
``extract_affine_batch`` runs [N | M] as one path carrying d tangent columns.
``terminal_values`` is the one sampling kernel every caller goes through, and
``payoff_samples`` the one Monte-Carlo batch of payoffs.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import rng
from .nets import ClippedNetwork, Parametrization, _freeze, _row_blocks, load_network, put_payoff_network

__all__ = [
    "AffineCoefficients",
    "KolmogorovProblem",
    "gbm_coefficients",
    "terminal_values",
    "extract_affine_batch",
    "payoff_samples",
    "mc_feynman_kac",
    "mc_reference_grid",
    "load_problem",
    "problem_from_text",
    "SimulationError",
]


# State columns per Euler chunk (d + 1 per map).  It bounds the working set and
# never changes the result; 4096 sat at the flat bottom of a 512-16384 path sweep.
_EULER_CHUNK = 4096

# Normals a reference point must draw to get a pool thread of its own: on 2
# vCPUs a 64-point d = 5 GBM grid gained nothing at 20,000, ~30% from 40,000.
_POINT_DRAWS = 1 << 15

# Rows per payoff_samples block, a multiple of nets._CHUNK_ROWS (see
# nets._row_blocks).
_BLOCK_ROWS = 1 << 14

# Largest dimension a problem file may declare: a 'gbm' line expands into
# d+1 dense d x d diffusion matrices, (d+1) d^2 floats (135 MB at d = 256).
_MAX_FILE_DIM = 256

# Largest Euler step count a problem file may declare.  Every step of every
# path draws d Gaussians; at 2^20 steps a single d = 1 path already costs
# about a million draws, so a larger count is a typo, not a finer grid.
_MAX_FILE_STEPS = 1 << 20


class SimulationError(RuntimeError):
    """Non-finite state encountered during path simulation."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


@dataclass(frozen=True)
class AffineCoefficients:
    """Affine drift (A, b) and affine matrix diffusion (C_0, C_1..C_d)."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray  # (d+1, d, d): C_0, C_1, ..., C_d; a sequence of matrices is stacked

    def __post_init__(self):
        # Read-only copies: a write into the caller's arrays cannot change the
        # dynamics behind KolmogorovProblem.gbm_flag.  Ragged matrices raise ValueError.
        A, b, C = (_freeze(x) for x in (self.A, self.b, self.C))
        d = A.shape[0]
        if A.shape != (d, d) or b.shape != (d,):
            raise ValueError("drift shapes inconsistent")
        if C.shape != (d + 1, d, d):
            raise ValueError(f"need d+1 = {d + 1} diffusion matrices of shape ({d},{d})")
        if not all(np.isfinite(x).all() for x in (A, b, C)):
            raise ValueError("drift and diffusion coefficients must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", C)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def linear_growth_L(self) -> float:
        """L with ||sigma(x)||_F + ||mu(x)|| <= L (1 + ||x||) for every x.

        ||C_0 + sum_i x_i C_i||_F <= ||C_0||_F + ||K||_2 ||x|| for
        K = [vec C_1 ... vec C_d], and ||A x + b|| <= ||A||_2 ||x|| + ||b||.
        """
        K = self.C[1:].reshape(self.dim, -1).T
        L = max(
            np.linalg.norm(self.C[0]) + np.linalg.norm(self.b),
            np.linalg.norm(K, 2) + np.linalg.norm(self.A, 2),
        )
        return float(L) if L > 0 else 1.0

    def is_diagonal_gbm(self) -> bool:
        """True when the dynamics are exactly simulable geometric Brownian motion:
        b = 0, and the only nonzeros are on A's diagonal and at C_i's (i, i) entry
        (1-based), counted in place with no second (d+1, d, d) array."""
        i = np.arange(self.dim)
        return (np.count_nonzero(self.A) == np.count_nonzero(self.A[i, i]) and not self.b.any()
                and np.count_nonzero(self.C) == np.count_nonzero(self.C[i + 1, i, i]))


def gbm_coefficients(d: int, mu_rate, sigma_rate) -> AffineCoefficients:
    """Diagonal geometric Brownian motion: dS_i = mu_i S_i dt + s_i S_i dB_i."""
    mu = np.broadcast_to(np.asarray(mu_rate, dtype=np.float64), (d,))
    sig = np.broadcast_to(np.asarray(sigma_rate, dtype=np.float64), (d,))
    C = np.zeros((d + 1, d, d))
    i = np.arange(d)
    C[i + 1, i, i] = sig
    return AffineCoefficients(np.diag(mu), np.zeros(d), C)


class _RuleError(ValueError):
    """A KolmogorovProblem value that breaks its rule; ``key`` is the problem-file
    key that sets it, so that problem_from_text can name its line."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class KolmogorovProblem:
    """Terminal-value problem on the hypercube [u, v]^d."""

    coeffs: AffineCoefficients
    horizon: float
    payoff: Parametrization
    clip_amplitude: float
    u: float
    v: float
    steps: int = 128
    gbm_flag: bool = field(init=False)  # diagonal GBM coefficients: exact sampling

    def __post_init__(self):
        for key, holds, message in (
            ("T", 0 < self.horizon < np.inf, "horizon T must be positive and finite"),
            ("steps", isinstance(self.steps, (int, np.integer)) and self.steps >= 1,
             "steps must be an integer >= 1"),
            ("v", -np.inf < self.u < self.v < np.inf, "require finite u < v"),
            ("D", 1 <= self.clip_amplitude < np.inf, "clip amplitude D must be finite and >= 1"),
            ("payoff", self.payoff.architecture.input_width == self.dim,
             "payoff input width must equal problem dimension"),
        ):
            if not holds:
                raise _RuleError(key, message)
        object.__setattr__(self, "gbm_flag", self.coeffs.is_diagonal_gbm())

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    @cached_property
    def clipped_payoff(self) -> ClippedNetwork:
        return ClippedNetwork(self.payoff, self.clip_amplitude)


# cgroup v2's "<quota> <period>" file, then cgroup v1's quota and period.
_CPU_QUOTA_FILES = (
    "/sys/fs/cgroup/cpu.max",
    "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
    "/sys/fs/cgroup/cpu/cpu.cfs_period_us",
)


def _cpu_quota() -> int | None:
    """CPUs a cgroup CPU quota allows, rounded up; None when there is no quota.

    cgroup v2's quota "max" and v1's -1 mean no limit, as does a file that
    cannot be read or parsed.
    """
    v2, v1_quota, v1_period = _CPU_QUOTA_FILES
    try:
        try:
            quota, period = Path(v2).read_text().split()
        except OSError:
            quota, period = Path(v1_quota).read_text(), Path(v1_period).read_text()
        quota, period = int(quota), int(period)
    except (OSError, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


_POOL_THREAD = "kolnet-pool"  # name prefix of _pool_map's threads


def _usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask (taskset, cgroup
    cpusets), bounded by a cgroup CPU quota; 1 on a _pool_map thread, so a
    call made from one runs inline instead of nesting a second pool."""
    if threading.current_thread().name.startswith(_POOL_THREAD):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _pool_map(fn, items, workers: int) -> list:
    """``list(map(fn, items))`` on ``workers`` threads of a pool made for this
    call and joined before it returns, so no thread outlives it; inline for
    one worker.  Results keep the order of ``items``, and the first failing
    item's exception is raised."""
    if workers <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(workers, thread_name_prefix=_POOL_THREAD) as pool:
        return list(pool.map(fn, items))


@np.errstate(over="ignore", invalid="ignore")
def terminal_values(problem: KolmogorovProblem, X0, keys) -> np.ndarray:
    """Terminal values S_T for a batch of paths; path i starts at X0[i] on stream keys[i].

    X0 is a finite (n, d) array, or an (n, d, c) stack of affine states
    [x | V] whose tangent columns V each step moves by its linear part only,
    so with S_T^x = M x + N the state ends at [S_T^x | M V]; keys is (n,)
    uint64; the result has X0's shape.  Exact log-normal draws for diagonal
    GBM, Euler-Maruyama with ``problem.steps`` steps otherwise.  Step k of
    path i draws its d normals at counters (keys[i], k*d + j), so its value
    depends neither on its batch (a lone Euler path runs twice: alone, it
    would multiply by gemv, see nets._row_blocks) nor on its Euler chunk.
    Chunks run on _pool_map, one thread per usable CPU and at most one per
    _EULER_CHUNK // 2 state columns.  Overflow raises no numpy warning: the
    isfinite checks raise SimulationError at the earliest non-finite step.
    """
    co = problem.coeffs
    d, T = problem.dim, problem.horizon
    keys = np.asarray(keys, dtype=np.uint64)
    X0 = np.asarray(X0, dtype=np.float64)
    n = len(keys)
    # A start broadcast over the paths (stride 0, as mc_feynman_kac passes x) is one row.
    if (X0.ndim not in (2, 3) or X0.shape[:2] != (n, d)
            or not np.isfinite(X0[:1] if X0.strides[0] == 0 else X0).all()):
        raise ValueError(f"X0 must be a finite ({n}, {d}) array or ({n}, {d}, c) stack, got {X0.shape}")
    if problem.gbm_flag:
        i = np.arange(d)
        mu, sig = co.A[i, i], co.C[i + 1, i, i]
        # g = exp((mu - sig^2/2) T + sig sqrt(T) Z), in place on the draws Z:
        # every step only reorders operands of a commutative op, so bits match.
        g = rng.gaussians(keys[:, None], np.arange(d)[None, :])
        g *= sig * np.sqrt(T)
        g += (mu - 0.5 * sig**2) * T
        np.exp(g, out=g)
        S = np.multiply(g, X0, out=g) if X0.ndim == 2 else g[:, :, None] * X0  # diag(g) X0
        if not np.all(np.isfinite(S)):
            raise SimulationError(0, "non-finite terminal value (exact GBM)")
        return S
    if n == 1:
        return terminal_values(problem, np.repeat(X0, 2, axis=0), np.repeat(keys, 2))[:1]
    # Euler-Maruyama, state-major: chunk states are (d, c, paths), rows of paths contiguous.
    Y0 = X0[:, :, None] if X0.ndim == 2 else X0
    c = Y0.shape[2]
    steps = problem.steps
    dt = T / steps
    sqdt = np.sqrt(dt)
    coords = np.arange(d)[:, None]  # step k draws at counters k*d + coords
    C = co.C.reshape(-1, d)  # ((d+1)*d, d): all diffusion products in one matmul
    b = co.b[:, None]
    out = np.empty((n, d, c))

    # errstate is thread-local: pool threads need their own.
    @np.errstate(over="ignore", invalid="ignore")
    def chunk(bounds):
        """Run paths lo:hi into out[lo:hi]; return their first non-finite
        step, or ``steps`` if they stay finite."""
        lo, hi = bounds
        X = np.array(Y0[lo:hi].transpose(1, 2, 0), order="C")
        drift, diff, finite = np.empty_like(X), np.empty_like(X), np.empty(X.shape, bool)
        # Q[0] = [C_0 dB | 0], Q[i] = (C_i dB) X[i-1], P their column 0.  Views are
        # made once: pooled chunks pay each step's Python work in turn, under the GIL.
        Q = np.zeros((d + 1, d, c, hi - lo))
        P = Q[:, :, 0].reshape((d + 1) * d, hi - lo)
        X2, drift2, drift0 = X.reshape(d, -1), drift.reshape(d, -1), drift[:, 0]
        Qx, Xq, tangent, column0 = Q[1:], X[:, None], Q[1:, :, 1:], Q[1:, :, :1]
        for k in range(steps):
            dB = rng.gaussians(keys[None, lo:hi], k * d + coords)
            dB *= sqdt
            np.matmul(co.A, X2, out=drift2)
            drift0 += b
            drift *= dt
            np.matmul(C, dB, out=P)
            tangent[...] = column0
            Qx *= Xq
            np.add.reduce(Q, axis=0, out=diff)  # Q[0] + Q[1] + ..., in that order
            X += drift
            X += diff
            if not np.isfinite(X, out=finite).all():
                return k
        out[lo:hi] = X.transpose(2, 0, 1)
        return steps

    # One thread per usable CPU, but no more than one per _EULER_CHUNK // 2
    # state columns: every thread runs the Python loop of each step under the
    # GIL and holds its own BLAS buffer, so a small batch gains nothing from more.
    workers = max(1, min(_usable_cpus(), -(-n * c // (_EULER_CHUNK // 2))))
    # Chunks of n // count paths (<= _EULER_CHUNK columns), count a multiple of ``workers``.
    count = workers * max(1, -(-n * c // (workers * _EULER_CHUNK)))
    bad_step = min(_pool_map(chunk, _row_blocks(n, max(2, n // count)), workers))
    if bad_step < steps:
        raise SimulationError(bad_step, f"non-finite state at Euler step {bad_step}")
    return out.reshape(X0.shape)


def extract_affine_batch(problem: KolmogorovProblem, seeds: np.ndarray):
    """Pathwise terminal affine maps, one per seed: S_T^x = M[j] x + N[j].

    Map j is one path on stream stream_key(seeds[j]) from the affine state
    [0 | I] to [N[j] | M[j]] (see terminal_values); shapes (n, d, d), (n, d).
    """
    keys = rng.stream_key(seeds)
    start = np.eye(problem.dim, problem.dim + 1, 1)  # [0 | I]
    Y = terminal_values(problem, np.broadcast_to(start, (len(keys), *start.shape)), keys)
    return np.ascontiguousarray(Y[:, :, 1:]), np.ascontiguousarray(Y[:, :, 0])


def payoff_samples(problem: KolmogorovProblem, X0, seed) -> np.ndarray:
    """Clipped payoffs phi(S_T), (n,): path i starts at X0[i] on stream
    stream_key(child_seeds(seed, i)).

    Paths run in blocks of _BLOCK_ROWS (see nets._row_blocks), so working
    memory is the result plus one block; every value is as in one pass.
    """
    Y = np.empty(len(X0))
    payoff = problem.clipped_payoff
    for lo, hi in _row_blocks(len(X0), _BLOCK_ROWS):
        keys = rng.stream_key(rng.child_seeds(seed, np.arange(lo, hi)))
        Y[lo:hi] = payoff(terminal_values(problem, X0[lo:hi], keys))
    return Y


def mc_feynman_kac(problem: KolmogorovProblem, x, n_paths: int, seed: int):
    """Monte-Carlo estimate of E[payoff(S_T^x)] with its standard error.

    The paths are ``payoff_samples`` from x on ``seed``; the mean is reduced
    with numpy's pairwise summation, so the result is reproducible
    regardless of how path work would be distributed.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    Y = payoff_samples(problem, np.broadcast_to(x, (n_paths, len(x))), seed)
    return float(np.mean(Y)), float(np.std(Y, ddof=1) / np.sqrt(n_paths))


def mc_reference_grid(problem: KolmogorovProblem, points, n_paths: int, seed: int):
    """Monte-Carlo reference at the rows of a (k, d) array: ``(estimates, std_errors)``,
    two (k,) arrays, row i from mc_feynman_kac with seed child_seed(seed, i).

    Points of at least _POINT_DRAWS normals run in whole rounds, one per
    usable CPU, on one pool, each point's paths inline on its thread; the
    rest run in turn, each with its own Euler chunk pool, so a grid of fewer
    points than CPUs keeps its per-point parallelism.  A point's value does
    not depend on its thread, so neither does the result."""

    def point(i):
        return mc_feynman_kac(problem, points[i], n_paths, rng.child_seed(seed, i))

    draws = n_paths * problem.dim * (1 if problem.gbm_flag else problem.steps)
    workers = _usable_cpus() if draws >= _POINT_DRAWS else 1
    pooled = len(points) - len(points) % workers
    pairs = _pool_map(point, range(pooled), min(workers, pooled))
    pairs += [point(i) for i in range(pooled, len(points))]
    return np.array([e for e, _ in pairs]), np.array([s for _, s in pairs])


def problem_from_text(text: str, base_dir=".", source="<problem>") -> KolmogorovProblem:
    """Parse the flat key-value problem definition format.

    Keys: dim, u, v, T, D, steps, and either ``gbm: mu_rate sigma_rate`` or
    ``drift_matrix``/``drift_vector``/``diffusion<i>`` blocks (one row per
    continuation line).  Payoff: ``payoff: put c_1 ... c_d D`` or
    ``payoff_file: path``; dim is at most 256 and steps an integer from 1
    to 2^20.  Malformed input, a non-finite number, an unreadable payoff
    file or a value that breaks a KolmogorovProblem rule included, raises
    ValueError naming ``source`` and the offending line (both lines of a
    repeated key), or the missing key.
    """
    entries = {}  # key -> (line number, text after the colon, continuation lines)
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        if line[0] in " \t":
            if current is None:
                raise ValueError(f"{source}:{no}: continuation line without a key")
            entries[current][2].append((no, line.strip()))
            continue
        key, colon, val = line.partition(":")
        if not colon:
            raise ValueError(f"{source}:{no}: expected 'key: value'")
        current = key.strip()
        if current in entries:
            raise ValueError(f"{source}:{no}: '{current}' repeats the key of line {entries[current][0]}")
        entries[current] = (no, val.strip(), [])

    def entry(key):
        if key not in entries:
            raise ValueError(f"{source}: missing key '{key}'")
        return entries[key]

    def numbers(key, no, tokens, counts, cast=float):
        if len(tokens) not in counts:
            want = " or ".join(str(c) for c in sorted(set(counts)))
            raise ValueError(f"{source}:{no}: '{key}' needs {want} values, got {len(tokens)}")
        try:
            vals = [cast(t) for t in tokens]
        except ValueError:
            raise ValueError(f"{source}:{no}: '{key}' holds a value that is not a number") from None
        if cast is float and not np.all(np.isfinite(vals)):
            raise ValueError(f"{source}:{no}: '{key}' holds a value that is not finite")
        return vals

    def scalar(key, cast=float, default=None):
        if key not in entries and default is not None:
            return default
        no, line, _ = entry(key)
        return numbers(key, no, line.split(), (1,), cast)[0]

    def vector(key, counts):
        no, line, _ = entry(key)
        return numbers(key, no, line.split(), counts)

    def matrix(key):
        no, line, rows = entry(key)
        if line or len(rows) != d:
            raise ValueError(f"{source}:{no}: '{key}' needs {d} rows, one per line below it")
        return np.array([numbers(key, r_no, row.split(), (d,)) for r_no, row in rows])

    d = scalar("dim", int)
    if not 1 <= d <= _MAX_FILE_DIM:
        bound = "at least 1" if d < 1 else f"at most {_MAX_FILE_DIM}"
        raise ValueError(f"{source}:{entries['dim'][0]}: 'dim' must be {bound}")
    u, v, T, D = scalar("u"), scalar("v"), scalar("T"), scalar("D")
    steps = scalar("steps", float, 128)  # KolmogorovProblem's rule holds it to >= 1
    if steps != int(steps) or steps > _MAX_FILE_STEPS:
        raise ValueError(
            f"{source}:{entries['steps'][0]}: 'steps' must be an integer of at most {_MAX_FILE_STEPS}"
        )
    steps = int(steps)
    if "gbm" in entries:
        vals = vector("gbm", (2, 2 * d))
        coeffs = gbm_coefficients(d, vals[: len(vals) // 2], vals[len(vals) // 2 :])
    elif "drift_matrix" in entries:
        A = matrix("drift_matrix")
        b = np.array(vector("drift_vector", (d,)))
        C = [matrix(f"diffusion{i}") for i in range(d + 1)]
        coeffs = AffineCoefficients(A, b, C)
    else:
        raise ValueError(f"{source}: needs 'gbm' or 'drift_matrix'")
    if "payoff" in entries:
        no, line, _ = entries["payoff"]
        kind, *tokens = line.split() or [""]
        if kind != "put":
            raise ValueError(f"{source}:{no}: unknown payoff spec '{kind}'")
        vals = numbers("payoff", no, tokens, (d + 1,))
        try:
            payoff = put_payoff_network(vals[:d], vals[d])
        except ValueError as exc:
            raise ValueError(f"{source}:{no}: {exc}") from None
    elif "payoff_file" in entries:
        no, name, _ = entries["payoff_file"]
        if not name:
            raise ValueError(f"{source}:{no}: 'payoff_file' needs a file name")
        try:
            payoff = load_network(Path(base_dir) / name)
        except OSError as exc:
            raise ValueError(f"{source}:{no}: {exc}") from None
    else:
        raise ValueError(f"{source}: needs 'payoff' or 'payoff_file'")
    try:
        return KolmogorovProblem(
            coeffs=coeffs,
            horizon=T,
            payoff=payoff,
            clip_amplitude=D,
            u=u,
            v=v,
            steps=steps,
        )
    except _RuleError as exc:  # named at the line of the key that sets the value
        key = "payoff_file" if exc.key == "payoff" and "payoff" not in entries else exc.key
        raise ValueError(f"{source}:{entries[key][0]}: {exc}") from None


def load_problem(path) -> KolmogorovProblem:
    p = Path(path)
    return problem_from_text(p.read_text(), base_dir=p.parent, source=str(p))
