"""Affine-coefficient SDE simulation and the Feynman-Kac Monte-Carlo oracle.

Drift mu(x) = A x + b and matrix diffusion sigma(x) = C_0 + sum_i x_i C_i
are affine in the state, which makes every Euler step (and the exact
geometric-Brownian terminal map) affine in the initial value.  The terminal
value therefore has a pathwise representation S_T^x = M x + N that
``extract_affine_batch`` recovers by coupling d+1 paths on the same stream.
``terminal_values`` is the one sampling kernel every caller goes through.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .nets import ClippedNetwork, Parametrization, load_network, put_payoff_network

__all__ = [
    "AffineCoefficients",
    "KolmogorovProblem",
    "gbm_coefficients",
    "terminal_values",
    "extract_affine_batch",
    "mc_feynman_kac",
    "mc_reference_grid",
    "load_problem",
    "problem_from_text",
    "SimulationError",
]


# Paths per Euler chunk.  It bounds the working set and never changes the
# result; 4096 sat at the flat bottom of a timing sweep over 512-16384 paths.
_EULER_CHUNK = 4096

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
    C: tuple  # (C_0, C_1, ..., C_d), each d x d

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        d = A.shape[0]
        b = np.asarray(self.b, dtype=np.float64)
        C = tuple(np.asarray(Ci, dtype=np.float64) for Ci in self.C)
        if A.shape != (d, d) or b.shape != (d,):
            raise ValueError("drift shapes inconsistent")
        if len(C) != d + 1 or any(Ci.shape != (d, d) for Ci in C):
            raise ValueError(f"need d+1 = {d + 1} diffusion matrices of shape ({d},{d})")
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
        K = np.stack([Ci.ravel() for Ci in self.C[1:]], axis=1)
        L = max(
            np.linalg.norm(self.C[0]) + np.linalg.norm(self.b),
            np.linalg.norm(K, 2) + np.linalg.norm(self.A, 2),
        )
        return float(L) if L > 0 else 1.0

    def is_diagonal_gbm(self) -> bool:
        """True when the dynamics are exactly simulable geometric Brownian motion:
        the coefficients equal the gbm_coefficients of their own diagonals."""
        i = np.arange(self.dim)
        gbm = gbm_coefficients(self.dim, self.A[i, i], np.array(self.C[1:])[i, i, i])
        pairs = zip((self.A, self.b, *self.C), (gbm.A, gbm.b, *gbm.C))
        return all(np.array_equal(x, y) for x, y in pairs)


def gbm_coefficients(d: int, mu_rate, sigma_rate) -> AffineCoefficients:
    """Diagonal geometric Brownian motion: dS_i = mu_i S_i dt + s_i S_i dB_i."""
    mu = np.broadcast_to(np.asarray(mu_rate, dtype=np.float64), (d,)).copy()
    sig = np.broadcast_to(np.asarray(sigma_rate, dtype=np.float64), (d,))
    C = np.zeros((d + 1, d, d))
    i = np.arange(d)
    C[i + 1, i, i] = sig
    return AffineCoefficients(np.diag(mu), np.zeros(d), tuple(C))


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
        if self.horizon <= 0:
            raise ValueError("horizon T must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.u < self.v:
            raise ValueError("require u < v")
        if self.clip_amplitude < 1:
            raise ValueError("clip amplitude D must be >= 1")
        if self.payoff.architecture.input_width != self.dim:
            raise ValueError("payoff input width must equal problem dimension")
        object.__setattr__(self, "gbm_flag", self.coeffs.is_diagonal_gbm())

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    @property
    def clipped_payoff(self) -> ClippedNetwork:
        return ClippedNetwork(self.payoff, self.clip_amplitude)


def _usable_cpus() -> int:
    """CPUs this process may run on; taskset and cgroup cpusets narrow it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


_pool = None  # ((pid, cpus), ThreadPoolExecutor) of the last pooled Euler call


def _executor(cpus: int) -> ThreadPoolExecutor:
    """The Euler thread pool of up to ``cpus`` threads, created on first use.

    It starts a thread only when a submitted chunk finds none idle, so a
    call of w chunks never runs more than w threads.  It is keyed on the
    pid: a forked child inherits the executor but not its threads, so it
    builds its own instead of queueing work that nothing would run.  A
    replaced executor's idle threads exit once it is garbage collected."""
    global _pool
    key = (os.getpid(), cpus)
    if _pool is None or _pool[0] != key:
        _pool = (key, ThreadPoolExecutor(cpus, thread_name_prefix="kolnet-euler"))
    return _pool[1]


def _euler_chunks(n: int, workers: int) -> list:
    """(lo, hi) path ranges: a multiple of ``workers`` chunks of at most
    _EULER_CHUNK paths whose sizes differ by at most one.

    No chunk holds a single path unless n is 1, so below 2 * workers paths
    there are fewer chunks: numpy multiplies by a one-column state with
    gemv, whose last bits differ from gemm's.
    """
    count = workers * max(1, -(-n // (workers * _EULER_CHUNK)))
    count = min(count, max(1, n // 2))
    edges = [n * i // count for i in range(count + 1)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


@np.errstate(over="ignore", invalid="ignore")
def terminal_values(problem: KolmogorovProblem, X0, keys) -> np.ndarray:
    """Terminal values S_T for a batch of paths; path i starts at X0[i] on stream keys[i].

    X0 must be a finite (n, d) array and keys (n,) uint64.  Exact
    log-normal draws for diagonal GBM, Euler-Maruyama with ``problem.steps``
    steps otherwise.  Step k of path i draws its d normals at counters
    (keys[i], k*d + j), so a path's value does not depend on the batch it
    is in, unless the batch is that path alone (see _euler_chunks).  Euler
    chunks of paths run on one thread per usable CPU, at most one per
    _EULER_CHUNK // 2 paths; since a path's bits do not depend on its
    chunk, neither does the result.
    Overflow raises no numpy warning: the isfinite checks turn it into
    SimulationError, at the earliest non-finite step over all paths.
    """
    co = problem.coeffs
    d, T = problem.dim, problem.horizon
    keys = np.asarray(keys, dtype=np.uint64)
    X0 = np.asarray(X0, dtype=np.float64)
    n = len(keys)
    if X0.shape != (n, d) or not np.all(np.isfinite(X0)):
        raise ValueError(f"X0 must be a finite ({n}, {d}) array, got shape {X0.shape}")
    if problem.gbm_flag:
        mu = np.diag(co.A)
        sig = np.array([co.C[i + 1][i, i] for i in range(d)])
        Z = rng.gaussians(keys[:, None], np.arange(d)[None, :])
        S = X0 * np.exp((mu - 0.5 * sig**2) * T + sig * np.sqrt(T) * Z)
        if not np.all(np.isfinite(S)):
            raise SimulationError(0, "non-finite terminal value (exact GBM)")
        return S
    # Euler-Maruyama, state-major: a chunk's state and increments are (d, paths),
    # so every elementwise op runs over contiguous rows of paths.
    steps = problem.steps
    dt = T / steps
    sqdt = np.sqrt(dt)
    coords = np.arange(d)[:, None]  # step k draws at counters k*d + coords
    C = np.vstack(co.C)  # ((d+1)*d, d): all diffusion products in one matmul
    b = co.b[:, None]
    out = np.empty((n, d))
    earliest = [steps]  # earliest non-finite step any chunk has recorded
    lock = threading.Lock()

    # errstate is thread-local: pool threads need their own.
    @np.errstate(over="ignore", invalid="ignore")
    def chunk(bounds):
        """Run paths lo:hi into out[lo:hi], stopping at their first non-finite
        step or at an earlier one another chunk already recorded."""
        lo, hi = bounds
        X = np.array(X0[lo:hi].T, dtype=np.float64, order="C")
        for k in range(steps):
            if k >= earliest[0]:
                return
            dB = rng.gaussians(keys[None, lo:hi], k * d + coords)
            dB *= sqdt
            drift = co.A @ X
            drift += b
            drift *= dt
            P = (C @ dB).reshape(d + 1, d, -1)  # P[i] = C_i dB
            P[1:] *= X[:, None, :]
            diff = P[0]
            for i in range(1, d + 1):
                diff += P[i]
            X += drift
            X += diff
            if not np.all(np.isfinite(X)):
                with lock:
                    earliest[0] = min(earliest[0], k)
                return
        out[lo:hi] = X.T

    # One thread per usable CPU, but no more than one per _EULER_CHUNK // 2
    # paths: every thread runs the Python loop of each step under the GIL and
    # holds its own BLAS buffer, so a small batch gains nothing from more.
    cpus = _usable_cpus()
    workers = max(1, min(cpus, -(-n // (_EULER_CHUNK // 2))))
    chunks = _euler_chunks(n, workers)
    run = _executor(cpus).map if workers > 1 else map
    list(run(chunk, chunks))  # reading every result re-raises a chunk's exception
    bad_step = earliest[0]
    if bad_step < steps:
        raise SimulationError(bad_step, f"non-finite state at Euler step {bad_step}")
    return out


def extract_affine_batch(problem: KolmogorovProblem, seeds: np.ndarray):
    """Pathwise terminal affine maps, one per seed: S_T^x = M[j] x + N[j].

    Map j couples d+1 paths (from 0 and each basis vector) on the stream
    stream_key(seeds[j]); N[j] = S_T^0 and column i of M[j] is
    S_T^{e_i} - S_T^0.  Returns arrays of shapes (n, d, d) and (n, d).
    """
    d = problem.dim
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = seeds.shape[0]
    keys = np.repeat(rng.stream_key(seeds), d + 1)
    X0 = np.tile(np.vstack([np.zeros(d), np.eye(d)]), (n, 1))
    S = terminal_values(problem, X0, keys).reshape(n, d + 1, d)
    N = S[:, 0, :]
    M = np.swapaxes(S[:, 1:, :] - N[:, None, :], 1, 2)
    return M, N


def mc_feynman_kac(problem: KolmogorovProblem, x, n_paths: int, seed: int):
    """Monte-Carlo estimate of E[payoff(S_T^x)] with its standard error.

    Paths use independent substreams derived from the master seed; the mean
    is reduced with numpy's pairwise summation, so the result is
    reproducible regardless of how path work would be distributed.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    path_seeds = rng.child_seeds(seed, np.arange(n_paths))
    keys = rng.stream_key(path_seeds)
    S = terminal_values(problem, np.tile(x, (n_paths, 1)), keys)
    Y = problem.clipped_payoff(S)
    est = float(np.mean(Y))
    se = float(np.std(Y, ddof=1) / np.sqrt(n_paths))
    return est, se


def mc_reference_grid(problem: KolmogorovProblem, points, n_paths: int, seed: int):
    """Monte-Carlo reference at the rows of a (k, d) array: ``(estimates, std_errors)``,
    two (k,) arrays, row i from mc_feynman_kac with seed child_seed(seed, i)."""
    estimates, std_errors = np.empty(len(points)), np.empty(len(points))
    for i, x in enumerate(points):
        estimates[i], std_errors[i] = mc_feynman_kac(problem, x, n_paths, rng.child_seed(seed, i))
    return estimates, std_errors


def problem_from_text(text: str, base_dir=".", source="<problem>") -> KolmogorovProblem:
    """Parse the flat key-value problem definition format.

    Keys: dim, u, v, T, D, steps, and either ``gbm: mu_rate sigma_rate`` or
    ``drift_matrix``/``drift_vector``/``diffusion<i>`` blocks (one row per
    continuation line).  Payoff: ``payoff: put c_1 ... c_d D`` or
    ``payoff_file: path``; dim is at most 256 and steps an integer from 1
    to 2^20.  Malformed input, a non-finite number included, raises
    ValueError naming ``source`` and the offending line, or the missing key.
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
    steps = scalar("steps", float, 128)
    if steps < 1:
        raise ValueError(f"{source}:{entries['steps'][0]}: 'steps' must be at least 1")
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
        coeffs = AffineCoefficients(A, b, tuple(C))
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
        payoff = load_network(Path(base_dir) / name)
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
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_problem(path) -> KolmogorovProblem:
    p = Path(path)
    return problem_from_text(p.read_text(), base_dir=p.parent, source=str(p))
