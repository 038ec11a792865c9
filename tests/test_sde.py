"""Tests for affine SDE simulation, affine terminal representation, and the
Monte-Carlo expectation oracle."""

import multiprocessing
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kolnet import rng, sde
from kolnet.analytic import lognormal_capped_put
from kolnet.nets import Parametrization, evaluate, put_payoff_network, save_network
from kolnet.sde import (
    AffineCoefficients,
    KolmogorovProblem,
    SimulationError,
    extract_affine_batch,
    gbm_coefficients,
    load_problem,
    mc_feynman_kac,
    mc_reference_grid,
    problem_from_text,
    terminal_values,
)

from helpers import put_problem, zero_coeffs


def brownian_coeffs(d):
    """mu = 0, sigma = identity (additive noise)."""
    Z = np.zeros((d, d))
    C = [np.eye(d)] + [Z.copy() for _ in range(d)]
    return AffineCoefficients(Z, np.zeros(d), tuple(C))


def random_affine_coeffs(d, seed, scale=0.3):
    rs = np.random.RandomState(seed)
    A = scale * rs.randn(d, d)
    b = scale * rs.randn(d)
    C = tuple(scale * rs.randn(d, d) for _ in range(d + 1))
    return AffineCoefficients(A, b, C)


def generic_problem(coeffs, d, T=1.0, D=2.0, u=-1.0, v=1.0, steps=64):
    payoff = put_payoff_network(np.full(d, 1.0 / d), D)
    return KolmogorovProblem(
        coeffs=coeffs, horizon=T, payoff=payoff, clip_amplitude=D,
        u=u, v=v, steps=steps,
    )


def terminal(problem, x0, seed):
    """S_T^{x0} on the stream of ``seed``: a one-row terminal_values call."""
    key = rng.stream_key(np.array([seed], dtype=np.uint64))
    return terminal_values(problem, np.atleast_2d(x0), key)[0]


def normals(seed, steps, d):
    """The (steps, d) standard normals an Euler path on the stream of ``seed`` draws."""
    return rng.gaussians(rng.stream_key(np.uint64(seed)), np.arange(steps * d)).reshape(steps, d)


def diffusion(coeffs, x):
    """sigma(x) = C_0 + sum_i x_i C_i at a single state."""
    S = coeffs.C[0].copy()
    for i in range(coeffs.dim):
        S += x[i] * coeffs.C[i + 1]
    return S


def satisfies_growth_bound(coeffs, points):
    """||sigma(x)||_F + ||mu(x)|| <= L (1 + ||x||) at every point."""
    L = coeffs.linear_growth_L
    return all(
        np.linalg.norm(diffusion(coeffs, x)) + np.linalg.norm(coeffs.A @ x + coeffs.b)
        <= L * (1.0 + np.linalg.norm(x)) + 1e-12
        for x in points
    )


# ---------------------------------------------------------------------------
# Coefficient types


def test_affine_coefficients_growth_bound_autofit():
    coeffs = random_affine_coeffs(3, seed=0)
    assert coeffs.linear_growth_L > 0
    pts = np.random.RandomState(1).uniform(-2, 2, size=(1000, 3))
    assert satisfies_growth_bound(coeffs, pts)


@pytest.mark.parametrize("seed", range(5))
def test_growth_constant_bounds_far_field_points(seed):
    # Along the top right singular vectors of K = [vec C_1 ... vec C_d] and of
    # A, far out, the growth ratio is near its supremum: a sampled constant
    # falls short there, the closed form does not.
    g = np.random.default_rng(seed)
    d = 20
    A, b = g.normal(0.0, 0.1, (d, d)), g.normal(0.0, 0.1, d)
    C = tuple(g.normal(0.0, 0.1, (d, d)) for _ in range(d + 1))
    coeffs = AffineCoefficients(A, b, C)
    K = np.stack([Ci.ravel() for Ci in C[1:]], axis=1)
    tops = [np.linalg.svd(K)[2][0], np.linalg.svd(A)[2][0]]
    pts = np.array([sign * 1e6 * v for v in tops for sign in (1.0, -1.0)])
    assert satisfies_growth_bound(coeffs, pts)


def test_gbm_growth_constant_closed_form():
    # sigma + mu: ||K||_2 = 0.2 and ||A||_2 = 0.05, with C_0 = 0 and b = 0.
    assert gbm_coefficients(5, 0.05, 0.2).linear_growth_L == pytest.approx(0.25)


def test_gbm_coefficients_shape_and_flag():
    coeffs = gbm_coefficients(2, 0.05, 0.2)
    assert coeffs.is_diagonal_gbm()
    x = np.array([[1.0, 2.0]])
    assert np.allclose(x @ coeffs.A.T + coeffs.b, 0.05 * x)
    sig = diffusion(coeffs, np.array([1.0, 2.0]))
    assert np.allclose(sig, np.diag([0.2, 0.4]))


def test_diagonal_gbm_is_exactly_the_gbm_pattern():
    # One nonzero anywhere but A[i, i] or C_{i+1}[i, i] makes the dynamics Euler;
    # the zero mu_1 and s_1 check that a zero diagonal counts alike.
    base = gbm_coefficients(3, [0.05, 0.0, -0.1], [0.2, 0.0, 0.3])
    arrays = {"A": base.A, "b": base.b, "C": base.C}
    pattern = {"A": {(j, j) for j in range(3)}, "b": set(), "C": {(j + 1, j, j) for j in range(3)}}
    for name, x in arrays.items():
        for idx in np.ndindex(x.shape):
            y = x.copy()
            y[idx] += 0.5
            coeffs = AffineCoefficients(**{**arrays, name: y})
            assert coeffs.is_diagonal_gbm() == (idx in pattern[name]), (name, idx)


def test_diffusion_matrices_are_one_array():
    g = np.random.default_rng(3)
    mats = [g.normal(size=(2, 2)) for _ in range(3)]
    stored = [AffineCoefficients(np.eye(2), np.zeros(2), C).C
              for C in (tuple(mats), mats, np.array(mats))]
    for C in stored:
        assert C.shape == (3, 2, 2) and C.dtype == np.float64
        assert np.array_equal(C, np.array(mats))
    with pytest.raises(ValueError):
        AffineCoefficients(np.eye(2), np.zeros(2), [mats[0], mats[1], np.eye(3)])
    with pytest.raises(ValueError, match="diffusion matrices"):
        AffineCoefficients(np.eye(2), np.zeros(2), mats[:2])


def test_coefficients_are_frozen_copies():
    # The coefficients used to alias the caller's arrays, so a write into C
    # gave a GBM problem a nonzero C_0 while gbm_flag, computed once, stayed
    # True and the exact-GBM branch went on ignoring C_0.
    A, b, C = np.diag([0.05]), np.zeros(1), np.array([[[0.0]], [[0.2]]])
    prob = generic_problem(AffineCoefficients(A, b, C), d=1)
    X0, keys = np.full((64, 1), 1.0), rng.stream_key(np.arange(64, dtype=np.uint64))
    before = terminal_values(prob, X0, keys)
    for x in (A, b, C):
        x[...] = 0.5
    assert prob.gbm_flag and prob.coeffs.is_diagonal_gbm()
    assert terminal_values(prob, X0, keys).tobytes() == before.tobytes()
    for x in (prob.coeffs.A, prob.coeffs.b, prob.coeffs.C):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.5


def test_non_finite_coefficients_and_scalars_rejected():
    # gbm_coefficients(2, nan, 0.2) used to give a problem with gbm_flag False
    # (nan != nan) that ran Euler and failed at step 0; a nan horizon and an
    # infinite D or v used to be accepted.
    for mu, sigma in ((np.nan, 0.2), (0.0, np.inf), ([0.0, -np.inf], 0.2)):
        with pytest.raises(ValueError, match="finite"):
            gbm_coefficients(2, mu, sigma)
    Z = np.zeros((1, 1))
    for A, b, C in ((Z + np.nan, [0.0], [Z, Z]), (Z, [np.inf], [Z, Z]), (Z, [0.0], [Z, Z - np.inf])):
        with pytest.raises(ValueError, match="finite"):
            AffineCoefficients(A, b, C)
    payoff = put_payoff_network([1.0], 1.0)
    co = gbm_coefficients(1, 0.0, 0.2)
    for T, D, u, v in ((np.nan, 1.0, 0.5, 1.5), (np.inf, 1.0, 0.5, 1.5), (1.0, np.inf, 0.5, 1.5),
                       (1.0, np.nan, 0.5, 1.5), (1.0, 1.0, 0.5, np.inf), (1.0, 1.0, -np.inf, 1.5),
                       (1.0, 1.0, np.nan, 1.5)):
        with pytest.raises(ValueError):
            KolmogorovProblem(co, T, payoff, D, u, v)
    # An infinite or fractional step count used to fail in range() as a TypeError.
    for steps in (np.inf, 2.5):
        with pytest.raises(ValueError, match="steps"):
            KolmogorovProblem(co, 1.0, payoff, 1.0, 0.5, 1.5, steps=steps)


def test_problem_validation():
    payoff = put_payoff_network([1.0], 1.0)
    with pytest.raises(ValueError):
        KolmogorovProblem(gbm_coefficients(1, 0.0, 0.2), 1.0, payoff, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        KolmogorovProblem(gbm_coefficients(1, 0.0, 0.2), 1.0, payoff, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        KolmogorovProblem(gbm_coefficients(2, 0.0, 0.2), 1.0, payoff, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# terminal_values


def test_degenerate_sde_returns_x0():
    prob = generic_problem(zero_coeffs(3), d=3)
    x0 = np.array([0.3, -0.2, 0.9])
    for seed in (0, 1, 2):
        out = terminal(prob, x0, seed)
        assert np.array_equal(out, x0)


def test_single_step_brownian_motion_exact():
    # Constant coefficients: one Euler step is exact, S_T = x0 + sqrt(T) Z.
    prob = generic_problem(brownian_coeffs(1), d=1, T=0.25, steps=1)
    z = normals(5, 1, 1)[0, 0]
    out = terminal(prob, np.array([0.1]), 5)
    assert out[0] == pytest.approx(0.1 + 0.5 * z, abs=1e-15)


@pytest.mark.parametrize(
    "X0", [np.ones((3, 1)), np.ones((2, 2)), np.ones(2), np.array([[1.0], [np.nan]]),
           np.ones((3, 1, 2)), np.ones((2, 1, 1, 1)), np.broadcast_to(np.array([np.inf]), (2, 1))]
)
def test_terminal_values_rejects_bad_start_points(X0):
    keys = rng.stream_key(np.arange(2, dtype=np.uint64))
    with pytest.raises(ValueError, match=r"X0 must be a finite \(2, 1\) array"):
        terminal_values(put_problem(), X0, keys)


def test_gbm_terminal_mean():
    # E[S_T] = x0 * exp(mu T) for GBM; check with 10^5 exact draws.
    prob = put_problem(mu=0.05, sigma=0.2, T=1.0)
    n = 100000
    keys = rng.stream_key(rng.child_seeds(31, np.arange(n)))
    S = terminal_values(prob, np.ones((n, 1)), keys)[:, 0]
    se = S.std(ddof=1) / np.sqrt(n)
    assert abs(S.mean() - np.exp(0.05)) < 4 * se


def test_gbm_exact_matches_lognormal_distribution():
    prob = put_problem(mu=0.0, sigma=0.3, T=0.5)
    out = terminal(prob, np.array([1.2]), 1)
    # Exact simulation consumes the first Gaussian of the path's stream.
    z = normals(1, prob.steps, 1)[0, 0]
    want = 1.2 * np.exp((0.0 - 0.045) * 0.5 + 0.3 * np.sqrt(0.5) * z)
    assert out[0] == pytest.approx(want, rel=1e-12)


def test_exact_gbm_overflow_raises_at_step_zero_without_warning():
    prob = put_problem(mu=1e3, sigma=0.2)
    keys = rng.stream_key(rng.child_seeds(6, np.arange(4)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SimulationError, match=r"non-finite terminal value \(exact GBM\)") as err:
            terminal_values(prob, np.ones((4, 1)), keys)
    assert err.value.step == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_exact_gbm_matches_one_shot_formula_across_blocks():
    # The in-place exact-GBM branch against the one-line formula it replaced,
    # for n * d on both sides of one block of draws and across several.
    mu, sig = np.linspace(-0.1, 0.1, 5), np.linspace(0.1, 0.5, 5)
    prob = put_problem(d=5, mu=mu, sigma=sig, T=0.7)
    for n in (rng._BLOCK // 5, rng._BLOCK // 5 + 1, 3 * rng._BLOCK // 5 + 2):
        keys = rng.stream_key(rng.child_seeds(8, np.arange(n)))
        X0 = 0.5 + np.random.default_rng(n).random((n, 5))
        Z = rng.gaussians(keys[:, None], np.arange(5)[None, :])
        want = X0 * np.exp((mu - 0.5 * sig**2) * 0.7 + sig * np.sqrt(0.7) * Z)
        got = terminal_values(prob, X0, keys)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_seed_determinism_bit_identical():
    prob = generic_problem(random_affine_coeffs(2, seed=3), d=2)
    x0 = np.array([0.5, -0.5])
    a = terminal(prob, x0, 42)
    b = terminal(prob, x0, 42)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Euler kernel: bit-identity with the path-major loop and error reporting


def path_major_euler(problem, X0, keys):
    """Reference: the path-major Euler loop, one (n, d) step at a time."""
    co = problem.coeffs
    d = problem.dim
    dt = problem.horizon / problem.steps
    sqdt = np.sqrt(dt)
    X = X0.astype(np.float64).copy()
    for k in range(problem.steps):
        counters = np.arange(k * d, (k + 1) * d)
        dB = sqdt * rng.gaussians(keys[:, None], counters[None, :])
        drift = X @ co.A.T + co.b
        diff = dB @ co.C[0].T
        for i in range(d):
            diff += X[:, i : i + 1] * (dB @ co.C[i + 1].T)
        X = X + drift * dt + diff
        if not np.all(np.isfinite(X)):
            raise SimulationError(k, f"non-finite state at Euler step {k}")
    return X


@pytest.mark.parametrize(
    "files, quota",
    [
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "100000 100000\n"}, 1),
        ({"cfs_quota_us": "-1\n", "cfs_period_us": "100000\n"}, None),
        ({"cfs_quota_us": "250000\n", "cfs_period_us": "100000\n"}, 3),
        ({"cfs_quota_us": "250000\n"}, None),  # the period file is missing
        ({}, None),
    ],
    ids=["v2_max", "v2_150000", "v2_one", "v1_minus_one", "v1_250000", "v1_no_period", "none"],
)
def test_cpu_quota_files(tmp_path, monkeypatch, files, quota):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = tuple(str(tmp_path / n) for n in ("cpu.max", "cfs_quota_us", "cfs_period_us"))
    monkeypatch.setattr(sde, "_CPU_QUOTA_FILES", paths)
    monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert sde._cpu_quota() == quota
    assert sde._usable_cpus() == (8 if quota is None else quota)


@pytest.fixture
def workers(request, monkeypatch):
    """Run as on a machine with ``request.param`` usable CPUs.  The affinity
    mask is patched, not _usable_cpus, so a pool thread still counts one."""
    monkeypatch.setattr(sde.os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    monkeypatch.setattr(sde, "_cpu_quota", lambda: None)
    return request.param


# n = 1 runs as two paths, so it is checked against row 0 of the doubled
# batch; 3 and 5 take at most two chunks of at least two paths, 4097 split
# chunks of unequal size and 2 * 4096 + 123 three or more.
@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("n", [1, 3, 5, sde._EULER_CHUNK, sde._EULER_CHUNK + 1,
                               2 * sde._EULER_CHUNK + 123])
def test_euler_kernel_bit_identical_to_path_major_loop(workers, n):
    d = 3
    prob = generic_problem(random_affine_coeffs(d, seed=4), d=d, steps=16)
    assert not prob.coeffs.is_diagonal_gbm()
    X0 = np.random.RandomState(5).uniform(-1, 1, size=(n, d))
    keys = rng.stream_key(rng.child_seeds(17, np.arange(n)))
    got = terminal_values(prob, X0, keys)
    assert got.shape == (n, d)
    batch = (X0, keys) if n > 1 else (np.repeat(X0, 2, axis=0), np.repeat(keys, 2))
    assert np.array_equal(got, path_major_euler(prob, *batch)[:n])


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_lone_euler_path_gets_its_batch_bits(d):
    # Alone, a path's diffusion products would go through gemv and differ
    # from its batch in the last bits.
    n = 300
    prob = generic_problem(random_affine_coeffs(d, seed=d), d=d, steps=8)
    X0 = np.random.RandomState(d).uniform(-1, 1, size=(n, d))
    keys = rng.stream_key(rng.child_seeds(19, np.arange(n)))
    batch = terminal_values(prob, X0, keys)
    for i in (0, n // 2, n - 1):
        assert np.array_equal(terminal_values(prob, X0[i : i + 1], keys[i : i + 1]), batch[i : i + 1]), i


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", ["bench/problems/euler_basket_d5.txt", "problems/basket_put_d5.txt"])
def test_empty_batch(path):
    prob = load_problem(REPO / path)
    assert prob.gbm_flag == path.startswith("problems/")
    X0 = np.empty((0, prob.dim))
    assert terminal_values(prob, X0, np.empty(0, dtype=np.uint64)).shape == (0, prob.dim)
    assert sde.payoff_samples(prob, X0, 3).shape == (0,)


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_extract_affine_batch_across_chunk_boundary(workers, monkeypatch):
    # d=2 gives 3 state columns per map, so 1,367 maps are 4,101 columns:
    # two chunks, split at map 683, on 1 and 2 workers; three on 3, split at
    # maps 455 and 910.  The maps on both sides of each edge match one-map calls.
    d = 2
    prob = generic_problem(random_affine_coeffs(d, seed=6), d=d, steps=16)
    blocks, row_blocks = [], sde._row_blocks

    def recorded(n, rows):
        ranges = list(row_blocks(n, rows))
        blocks.extend(ranges)
        return ranges

    monkeypatch.setattr(sde, "_row_blocks", recorded)
    seeds = np.arange(1367)
    Ms, Ns = extract_affine_batch(prob, seeds)
    edges = [lo for lo, _ in blocks if lo]
    assert edges == ([455, 910] if workers == 3 else [683])
    for j in [0, len(seeds) - 1] + [k + s for k in edges for s in (-1, 0)]:
        M, N = extract_affine_batch(prob, seeds[j : j + 1])
        assert np.array_equal(Ms[j], M[0]), j
        assert np.array_equal(Ns[j], N[0]), j


def exploding_problem(steps=64):
    """d=1, dX = 1e10 X dt + 1e-300 dB: a path from x0 overflows after about
    (308 - log10|x0|) / 8.2 steps, and a path from 0, driven only by the
    1e-300 noise, stays finite for about 75 steps, more than the 64 it takes.

    The 1e-300 of C_0 keeps the coefficients off diagonal GBM, so the
    problem takes the Euler path; it moves no path's overflow step."""
    coeffs = AffineCoefficients(
        np.array([[1e10]]), np.zeros(1), (np.array([[1e-300]]), np.zeros((1, 1)))
    )
    return generic_problem(coeffs, d=1, steps=steps)


@pytest.mark.parametrize("workers", [1, 3], indirect=True)
def test_simulation_error_names_earliest_step_over_all_chunks(workers):
    prob = exploding_problem()
    n = 2 * sde._EULER_CHUNK + 10
    X0 = np.zeros((n, 1))
    early, late = 2 * sde._EULER_CHUNK + 7, 5  # late path sits in the first chunk
    X0[late], X0[early] = 1.0, 1e300
    keys = rng.stream_key(rng.child_seeds(2, np.arange(n)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as first_chunk_only:
            terminal_values(prob, X0[: late + 1], keys[: late + 1])
        with pytest.raises(SimulationError) as reference:
            path_major_euler(prob, X0, keys)
        with pytest.raises(SimulationError) as got:
            terminal_values(prob, X0, keys)
    assert reference.value.step < first_chunk_only.value.step
    assert got.value.step == reference.value.step
    assert f"step {reference.value.step}" in str(got.value)


def test_diffusion_sum_order_past_add_unroll(monkeypatch):
    # d + 1 = 10 diffusion terms, past numpy's 8-wide add unroll: the
    # reduction must still add them in order, as the path-major loop does.
    d, n = 9, 40
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
    prob = generic_problem(random_affine_coeffs(d, seed=13, scale=0.1), d=d, steps=16)
    X0 = np.random.RandomState(14).uniform(-1, 1, size=(n, d))
    keys = rng.stream_key(rng.child_seeds(18, np.arange(n)))
    assert np.array_equal(terminal_values(prob, X0, keys), path_major_euler(prob, X0, keys))


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_pooled_divergence_raises_no_runtime_warning(workers):
    # np.errstate is thread-local, so the pool threads set their own.
    n = 4 * sde._EULER_CHUNK
    X0 = np.zeros((n, 1))
    X0[-1] = 1e300
    keys = rng.stream_key(rng.child_seeds(3, np.arange(n)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SimulationError):
            terminal_values(exploding_problem(), X0, keys)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_one_cpu_runs_every_chunk_inline(monkeypatch):
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
    d, n = 2, 2 * sde._EULER_CHUNK + 123  # three chunks
    prob = generic_problem(random_affine_coeffs(d, seed=10), d=d, steps=4)
    X0 = np.zeros((n, d))
    keys = rng.stream_key(rng.child_seeds(6, np.arange(n)))
    want = path_major_euler(prob, X0, keys)

    def no_pool(*args, **kwargs):
        raise AssertionError("one CPU made a thread pool")

    monkeypatch.setattr(sde, "ThreadPoolExecutor", no_pool)
    assert np.array_equal(terminal_values(prob, X0, keys), want)


@pytest.mark.parametrize("workers", [8], indirect=True)
def test_small_batch_runs_on_few_threads(workers, monkeypatch):
    # One thread per _EULER_CHUNK // 2 paths at most, however many CPUs.
    threads, draw = set(), rng.gaussians

    def gaussians(keys, counters):
        threads.add(threading.get_ident())
        return draw(keys, counters)

    monkeypatch.setattr(rng, "gaussians", gaussians)
    d, n = 2, sde._EULER_CHUNK
    prob = generic_problem(random_affine_coeffs(d, seed=11), d=d, steps=4)
    X0 = np.zeros((n, d))
    keys = rng.stream_key(rng.child_seeds(7, np.arange(n)))
    terminal_values(prob, X0, keys)
    assert 1 <= len(threads) <= 2
    assert threading.get_ident() not in threads


def pool_threads_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith(sde._POOL_THREAD)]


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_pooled_call_leaves_no_thread_alive(workers, monkeypatch):
    # Euler chunks, then grid points: every draw of either call runs on a
    # pool thread that carries the prefix the check looks for.
    during, draw = [], rng.gaussians

    def gaussians(keys, counters):
        during.append(threading.current_thread().name)
        return draw(keys, counters)

    monkeypatch.setattr(rng, "gaussians", gaussians)
    prob = generic_problem(random_affine_coeffs(2, seed=12), d=2, steps=4)
    n = sde._EULER_CHUNK  # two chunks of _EULER_CHUNK // 2 paths, two threads
    keys = rng.stream_key(rng.child_seeds(8, np.arange(n)))
    terminal_values(prob, np.zeros((n, 2)), keys)
    assert pool_threads_alive() == []
    mc_reference_grid(prob, np.zeros((4, 2)), n, seed=1)  # two rounds of the pool
    assert pool_threads_alive() == []
    assert during and all(name.startswith(sde._POOL_THREAD) for name in during)


def _euler_in_child(prob, X0, keys, want):
    if not np.array_equal(terminal_values(prob, X0, keys), want):
        raise AssertionError("child result differs")


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_forked_child_after_pooled_call_gets_same_bits(workers):
    prob = generic_problem(random_affine_coeffs(2, seed=8), d=2, steps=8)
    n = sde._EULER_CHUNK  # two chunks of _EULER_CHUNK // 2 paths
    X0 = np.random.RandomState(9).uniform(-1, 1, size=(n, 2))
    keys = rng.stream_key(rng.child_seeds(5, np.arange(n)))
    want = terminal_values(prob, X0, keys)  # a pooled call in this process
    child = multiprocessing.get_context("fork").Process(
        target=_euler_in_child, args=(prob, X0, keys, want)
    )
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive, "forked child hung"
    assert child.exitcode == 0


# ---------------------------------------------------------------------------
# extract_affine_batch


def test_affine_rep_degenerate():
    prob = generic_problem(zero_coeffs(2), d=2)
    M, N = extract_affine_batch(prob, [0])
    assert np.array_equal(M[0], np.eye(2))
    assert np.array_equal(N[0], np.zeros(2))


def test_affine_rep_additive_noise():
    prob = generic_problem(brownian_coeffs(1), d=1, T=1.0, steps=8)
    M, N = extract_affine_batch(prob, [11])
    b_T = np.sqrt(1.0 / 8) * normals(11, 8, 1).sum()
    assert M[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert N[0, 0] == pytest.approx(b_T, abs=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_affine_rep_exact_euler(d):
    prob = generic_problem(random_affine_coeffs(d, seed=d), d=d, steps=64)
    M, N = extract_affine_batch(prob, [100 + d])
    rs = np.random.RandomState(d)
    worst = 0.0
    for _ in range(50):
        x = rs.uniform(-1, 1, size=d)
        direct = terminal(prob, x, 100 + d)
        worst = max(worst, np.max(np.abs(direct - (M[0] @ x + N[0]))))
    assert worst <= 1e-9


def test_affine_rep_exact_gbm():
    prob = put_problem(mu=0.02, sigma=0.25)
    M, N = extract_affine_batch(prob, [7])
    rs = np.random.RandomState(0)
    for _ in range(50):
        x = rs.uniform(0.5, 1.5, size=1)
        direct = terminal(prob, x, 7)
        assert np.max(np.abs(direct - (M[0] @ x + N[0]))) <= 1e-12


def test_gbm_maps_are_diagonal_exponentials_of_one_draw():
    d, n, T = 3, 64, 0.7
    mu, sig = np.array([0.02, -0.01, 0.05]), np.array([0.1, 0.25, 0.4])
    prob = put_problem(d=d, mu=mu, sigma=sig, T=T)
    seeds = np.arange(n, dtype=np.uint64)
    Z = rng.gaussians(rng.stream_key(seeds)[:, None], np.arange(d)[None, :])
    g = np.exp(Z * (sig * np.sqrt(T)) + (mu - 0.5 * sig**2) * T)
    M, N = extract_affine_batch(prob, seeds)
    assert np.array_equal(M, np.array([np.diag(row) for row in g]))
    assert np.array_equal(N, np.zeros((n, d)))
    assert not np.signbit(M).any() and not np.signbit(N).any()


@pytest.mark.parametrize("path", ["bench/problems/euler_basket_d5.txt", "problems/basket_put_d5.txt"])
def test_maps_draw_each_normal_once(path, monkeypatch):
    # n maps draw the normals of n paths: d per step on the Euler branch, d on GBM.
    prob = load_problem(REPO / path)
    drawn, draw = [], rng.gaussians

    def gaussians(keys, counters):
        z = draw(keys, counters)
        drawn.append(z.size)
        return z

    monkeypatch.setattr(rng, "gaussians", gaussians)
    n = 40
    extract_affine_batch(prob, np.arange(n))
    assert sum(drawn) == n * prob.dim * (1 if prob.gbm_flag else prob.steps)


@pytest.mark.parametrize("path", ["bench/problems/euler_basket_d5.txt", "problems/basket_put_d5.txt"])
def test_affine_state_ends_at_path_and_tangent_map(path):
    # A state [x | V] ends at [S_T^x | M V].
    prob = load_problem(REPO / path)
    d, n = prob.dim, 30
    rs = np.random.RandomState(2)
    x, V = rs.uniform(0.5, 1.5, size=(n, d)), rs.uniform(-1, 1, size=(n, d, 2))
    seeds = np.arange(n, dtype=np.uint64)
    Y = terminal_values(prob, np.concatenate([x[:, :, None], V], axis=2), rng.stream_key(seeds))
    M, _ = extract_affine_batch(prob, seeds)
    assert Y.shape == (n, d, 3)
    assert np.allclose(Y[:, :, 0], terminal_values(prob, x, rng.stream_key(seeds)), rtol=1e-13, atol=0)
    assert np.allclose(Y[:, :, 1:], M @ V, rtol=1e-12, atol=1e-14)


def test_extract_affine_batch_matches_single():
    prob = generic_problem(random_affine_coeffs(2, seed=9), d=2, steps=32)
    seeds = np.arange(5)
    Ms, Ns = extract_affine_batch(prob, seeds)
    for i, s in enumerate(seeds):
        M, N = extract_affine_batch(prob, [s])
        assert np.array_equal(Ms[i], M[0])
        assert np.array_equal(Ns[i], N[0])


def test_affine_rep_moment_bound():
    # Mean of ||M||_F + ||N||_2 over many drivers is controlled by the
    # linear-growth constant of the coefficients.
    d, T = 2, 1.0
    prob = generic_problem(random_affine_coeffs(d, seed=21, scale=0.2), d=d, steps=32)
    L = prob.coeffs.linear_growth_L
    Ms, Ns = extract_affine_batch(prob, np.arange(1000))
    emp = np.mean(
        np.sqrt((Ms**2).sum(axis=(1, 2))) + np.sqrt((Ns**2).sum(axis=1))
    )
    cap = (
        3.0 * np.sqrt(2.0) * d * (1.0 + L * T + 2.0 * L * np.sqrt(T))
        * np.exp((L * np.sqrt(T) + 2.0 * L) ** 2 * T)
    )
    assert emp <= cap


# ---------------------------------------------------------------------------
# mc_feynman_kac / mc_reference_grid


def test_mc_deterministic_sde_zero_se():
    prob = generic_problem(zero_coeffs(2), d=2, D=1.0)
    x = np.array([0.25, 0.25])
    est, se = mc_feynman_kac(prob, x, 100, seed=0)
    assert se == 0.0
    assert est == pytest.approx(evaluate(prob.payoff, [x])[0][0], abs=1e-12)


def test_mc_symmetric_noise_near_zero():
    # Payoff C_D(x) is odd; centred Brownian noise gives mean ~ 0.
    from kolnet.nets import clip_network

    d = 1
    payoff = clip_network(10.0)
    prob = KolmogorovProblem(
        coeffs=brownian_coeffs(d), horizon=0.1, payoff=payoff,
        clip_amplitude=10.0, u=-1.0, v=1.0, steps=16,
    )
    est, se = mc_feynman_kac(prob, np.array([0.0]), 20000, seed=3)
    assert abs(est) <= 4 * se


def test_mc_matches_lognormal_closed_form():
    prob = put_problem(mu=0.0, sigma=0.2, T=1.0)
    want = lognormal_capped_put(1.0, 1.0, 1.0, 0.0, 0.2, 1.0)
    est, se = mc_feynman_kac(prob, np.array([1.0]), 100000, seed=12)
    assert abs(est - want) <= 4 * se
    assert abs(est) <= prob.clip_amplitude


@pytest.mark.parametrize("x", [0.6, 0.9, 1.2])
def test_lognormal_capped_put_without_volatility_is_the_deterministic_price(x):
    # Every path is x e^(mu T); the mean of two equal values is exact.
    prob = put_problem(mu=0.05, sigma=0.0)
    est, se = mc_feynman_kac(prob, np.array([x]), 2, seed=4)
    assert se == 0.0
    assert lognormal_capped_put(x, 1.0, 1.0, 0.05, 0.0, 1.0) == est


def test_mc_estimate_within_clip_range():
    prob = put_problem()
    est, se = mc_feynman_kac(prob, np.array([0.6]), 500, seed=8)
    assert -1.0 <= est <= 1.0


def test_mc_requires_two_paths():
    prob = put_problem()
    with pytest.raises(ValueError):
        mc_feynman_kac(prob, np.array([1.0]), 1, seed=0)


def test_clipped_payoff_is_built_once_and_keeps_its_bits():
    prob = put_problem(d=3, D=2.0)
    X = np.random.RandomState(4).uniform(-3, 3, size=(300, 3))
    assert prob.clipped_payoff is prob.clipped_payoff
    want = np.clip(evaluate(prob.payoff, X)[:, 0], -2.0, 2.0)
    assert np.array_equal(prob.clipped_payoff(X), want)
    assert np.array_equal(prob.clipped_payoff(X), want)
    # A replaced problem gets its own clipped payoff, not the cached one.
    assert replace(prob, clip_amplitude=1.5).clipped_payoff.clip_amplitude == 1.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["gbm", "euler"])
def test_mc_rejects_a_non_finite_start(kind, bad):
    # x is broadcast over the paths, and terminal_values checks it as the one row it is.
    prob = put_problem(d=2) if kind == "gbm" else generic_problem(random_affine_coeffs(2, 3), d=2)
    with pytest.raises(ValueError, match=r"X0 must be a finite \(100, 2\) array"):
        mc_feynman_kac(prob, np.array([1.0, bad]), 100, seed=0)


def test_mc_reproducible():
    prob = put_problem()
    a = mc_feynman_kac(prob, np.array([0.9]), 5000, seed=77)
    b = mc_feynman_kac(prob, np.array([0.9]), 5000, seed=77)
    assert a == b


def test_mc_reference_grid_empty_and_singleton():
    prob = put_problem()
    est, se = mc_reference_grid(prob, np.empty((0, 1)), 100, seed=0)
    assert est.shape == se.shape == (0,)
    pts = np.array([[1.1]])
    est, se = mc_reference_grid(prob, pts, 1000, seed=5)
    assert est.shape == se.shape == (1,)
    assert abs(est[0]) <= 1.0 and se[0] > 0


GRID_PROBLEMS = ["bench/problems/euler_basket_d5.txt", "problems/basket_put_d5.txt"]


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("path", GRID_PROBLEMS)
def test_pooled_grid_matches_serial_loop(workers, path):
    # At 7,000 paths a GBM point draws 35,000 normals, enough for a grid
    # thread; Euler paths run as pooled chunks in the serial loop on 2 or 3
    # CPUs, and as inline chunks on a grid thread.
    prob = load_problem(REPO / path)
    points = rng.hypercube(rng.stream_key(3), 5, prob.dim, prob.u, prob.v)
    est, se = mc_reference_grid(prob, points, 7000, seed=9)
    for i, x in enumerate(points):
        e, s = mc_feynman_kac(prob, x, 7000, rng.child_seed(9, i))
        assert (est[i], se[i]) == (e, s), i


# (CPUs, problem, paths, points, points on the grid pool, thread counts of
# the pools made in order).  3,000 Euler paths make a chunk pool of two
# threads off the grid's pool: whole rounds of points share one grid pool,
# the k mod CPUs left over each make their own chunk pool, and fewer points
# than CPUs make no grid pool at all.  GBM paths make no chunk pool, and a
# GBM point of 4,000 paths draws 20,000 normals, too few for a grid thread.
@pytest.mark.parametrize(
    "workers, path, n_paths, k, pooled, pools",
    [(1, GRID_PROBLEMS[0], 3000, 5, 0, []),
     (2, GRID_PROBLEMS[0], 3000, 4, 4, [2]),
     (2, GRID_PROBLEMS[0], 3000, 5, 4, [2, 2]),
     (3, GRID_PROBLEMS[0], 3000, 5, 3, [3, 2, 2]),
     (3, GRID_PROBLEMS[0], 3000, 2, 0, [2, 2]),
     (2, GRID_PROBLEMS[1], 4000, 4, 0, []),
     (2, GRID_PROBLEMS[1], 7000, 5, 4, [2])],
    indirect=["workers"],
)
def test_grid_pools_whole_rounds_and_never_nests(workers, path, n_paths, k, pooled, pools,
                                                 monkeypatch):
    made, on_points, fk = [], [], sde.mc_feynman_kac

    class Counted(sde.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            assert not threading.current_thread().name.startswith(sde._POOL_THREAD)
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def point(*args):
        on_points.append((threading.current_thread().name, sde._usable_cpus()))
        return fk(*args)

    monkeypatch.setattr(sde, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(sde, "mc_feynman_kac", point)
    prob = load_problem(REPO / path)
    mc_reference_grid(prob, np.ones((k, prob.dim)), n_paths, seed=2)
    assert made == pools
    assert len(on_points) == k
    assert all(name.startswith(sde._POOL_THREAD) and cpus == 1 for name, cpus in on_points[:pooled])
    assert all(cpus == workers for _, cpus in on_points[pooled:])


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_grid_divergence_raises_that_points_earliest_step(workers):
    prob = exploding_problem()
    points = np.zeros((5, 1))
    points[3] = 1.0  # the one point whose paths overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as reference:
            mc_feynman_kac(prob, points[3], 600, rng.child_seed(6, 3))
    with pytest.raises(SimulationError) as got:  # 600 * 64 normals a point, pooled
        mc_reference_grid(prob, points, 600, seed=6)
    assert got.value.step == reference.value.step


def test_mc_reference_grid_matches_closed_form():
    prob = put_problem(mu=0.0, sigma=0.2)
    pts = np.linspace(0.6, 1.4, 16)[:, None]
    for est, se, p in zip(*mc_reference_grid(prob, pts, 20000, seed=100), pts):
        want = lognormal_capped_put(p[0], 1.0, 1.0, 0.0, 0.2, 1.0)
        assert abs(est - want) <= 4 * se


def test_mc_convergence_rate():
    prob = put_problem(mu=0.0, sigma=0.2)
    want = lognormal_capped_put(1.0, 1.0, 1.0, 0.0, 0.2, 1.0)
    sizes = np.array([100, 1000, 10000, 100000])
    errs = []
    for n in sizes:
        per_seed = [
            abs(mc_feynman_kac(prob, np.array([1.0]), int(n), seed=s)[0] - want)
            for s in range(5)
        ]
        errs.append(np.mean(per_seed))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.75 <= slope <= -0.25


# ---------------------------------------------------------------------------
# problem files


PROBLEM_TEXT = """
# d=1 geometric Brownian motion, capped put payoff
dim: 1
u: 0.5
v: 1.5
T: 1.0
D: 1.0
steps: 128
gbm: 0.0 0.2
payoff: put 1.0 1.0
"""


def test_problem_from_text_gbm():
    prob = problem_from_text(PROBLEM_TEXT)
    assert prob.dim == 1
    assert prob.gbm_flag
    assert prob.horizon == 1.0
    assert prob.clip_amplitude == 1.0
    assert evaluate(prob.payoff, [[0.5]])[0][0] == pytest.approx(0.5)


def test_problem_from_text_explicit_matrices():
    text = """
dim: 2
u: -1
v: 1
T: 0.5
D: 2.0
steps: 16
drift_matrix:
  0.1 0.0
  0.0 0.1
drift_vector: 0.0 0.0
diffusion0:
  0.2 0.0
  0.0 0.2
diffusion1:
  0.0 0.0
  0.0 0.0
diffusion2:
  0.0 0.0
  0.0 0.0
payoff: put 0.5 0.5 2.0
"""
    prob = problem_from_text(text)
    assert prob.dim == 2
    assert not prob.gbm_flag
    assert np.allclose(prob.coeffs.A, 0.1 * np.eye(2))


def test_problem_text_missing_payoff_rejected():
    with pytest.raises(ValueError):
        problem_from_text("dim: 1\nu: 0\nv: 1\nT: 1\nD: 1\ngbm: 0.0 0.2\n")


def test_problem_requires_positive_steps():
    payoff = put_payoff_network([1.0], 1.0)
    with pytest.raises(ValueError, match="steps"):
        KolmogorovProblem(gbm_coefficients(1, 0.0, 0.2), 1.0, payoff, 1.0, 0.0, 1.0, steps=0)


@pytest.mark.parametrize(
    "edit, message",
    [
        (("gbm: 0.0 0.2\n", ""), "t.txt: needs 'gbm' or 'drift_matrix'"),
        (("payoff: put 1.0 1.0", "payoff: put 1.0"), "t.txt:10: 'payoff' needs 2 values, got 1"),
        (("steps: 128", "steps: 0"), "t.txt:8: steps must be an integer >= 1"),
        (("u: 0.5", "u: half"), "t.txt:4: 'u' holds a value that is not a number"),
        (("dim: 1", "dim: 0"), "t.txt:3: 'dim' must be at least 1"),
        (("T: 1.0\n", ""), "t.txt: missing key 'T'"),
        (("gbm: 0.0 0.2", "gbm: 0.0 0.2 0.3"), "t.txt:9: 'gbm' needs 2 values, got 3"),
        (("payoff: put", "payoff: call"), "t.txt:10: unknown payoff spec 'call'"),
        (("dim: 1", "  dim: 1"), "t.txt:3: continuation line without a key"),
        (("dim: 1", "dim: 257"), "t.txt:3: 'dim' must be at most 256"),
        (("steps: 128", "steps: inf"), "t.txt:8: 'steps' holds a value that is not finite"),
        (("steps: 128", "steps: nan"), "t.txt:8: 'steps' holds a value that is not finite"),
        (("T: 1.0", "T: nan"), "t.txt:6: 'T' holds a value that is not finite"),
        (("T: 1.0", "T: inf"), "t.txt:6: 'T' holds a value that is not finite"),
        (("D: 1.0", "D: nan"), "t.txt:7: 'D' holds a value that is not finite"),
        (("D: 1.0", "D: inf"), "t.txt:7: 'D' holds a value that is not finite"),
        (("u: 0.5", "u: -inf"), "t.txt:4: 'u' holds a value that is not finite"),
        (("v: 1.5", "v: 1e400"), "t.txt:5: 'v' holds a value that is not finite"),
        (("gbm: 0.0 0.2", "gbm: nan 0.2"), "t.txt:9: 'gbm' holds a value that is not finite"),
        (("put 1.0 1.0", "put 1.0 inf"), "t.txt:10: 'payoff' holds a value that is not finite"),
        (("put 1.0 1.0", "put 1.0 -1.0"), "t.txt:10: cap D must be positive"),
        (("steps: 128", "steps: 64.7"), "t.txt:8: 'steps' must be an integer of at most 1048576"),
        (("steps: 128", "steps: 1e9"), "t.txt:8: 'steps' must be an integer of at most 1048576"),
        (("steps: 128", "steps: 1e300"), "t.txt:8: 'steps' must be an integer of at most 1048576"),
        (("steps: 128", "steps: 1048577"), "t.txt:8: 'steps' must be an integer of at most 1048576"),
        # A broken KolmogorovProblem rule used to name the file only; u >= v
        # names the v line.
        (("u: 0.5", "u: 2.0"), "t.txt:5: require finite u < v"),
        (("T: 1.0", "T: -1"), "t.txt:6: horizon T must be positive and finite"),
        (("D: 1.0", "D: 0.5"), "t.txt:7: clip amplitude D must be finite and >= 1"),
        (("payoff: put 1.0 1.0", "payoff_file: wide.txt"),
         "t.txt:10: payoff input width must equal problem dimension"),
        # A repeated key used to be accepted, the last one winning.
        (("v: 1.5\n", "v: 1.5\nu: 0.7\n"), "t.txt:6: 'u' repeats the key of line 4"),
        (("payoff: put", "dim: 2\npayoff: put"), "t.txt:10: 'dim' repeats the key of line 3"),
        # A payoff of two outputs used to load, then fail in the pipelines
        # without naming the file.
        (("payoff: put 1.0 1.0", "payoff_file: two_out.txt"),
         "t.txt:10: payoff output width must be 1"),
    ],
)
def test_problem_text_errors_name_file_and_line(tmp_path, edit, message):
    save_network(put_payoff_network([0.5, 0.5], 1.0), tmp_path / "wide.txt")
    save_network(Parametrization(((np.ones((3, 1)), np.zeros(3)), (np.ones((2, 3)), np.zeros(2)))),
                 tmp_path / "two_out.txt")
    text = PROBLEM_TEXT.replace(*edit)
    assert text != PROBLEM_TEXT
    with pytest.raises(ValueError) as exc:
        problem_from_text(text, base_dir=tmp_path, source="t.txt")
    assert str(exc.value) == message


def test_problem_text_steps_cap_is_inclusive():
    assert problem_from_text(PROBLEM_TEXT.replace("steps: 128", "steps: 1048576")).steps == 1 << 20
    assert problem_from_text(PROBLEM_TEXT.replace("steps: 128", "steps: 64.0")).steps == 64


def test_problem_text_matrix_rows_checked():
    text = """dim: 2
u: -1
v: 1
T: 1
D: 2
drift_matrix:
  0.1 0.0
  0.0
drift_vector: 0 0
"""
    with pytest.raises(ValueError, match="^t.txt:8: 'drift_matrix' needs 2 values, got 1$"):
        problem_from_text(text, source="t.txt")
    with pytest.raises(ValueError, match="^t.txt:6: 'drift_matrix' needs 2 rows"):
        problem_from_text(text.replace("  0.0\n", ""), source="t.txt")
    with pytest.raises(ValueError, match="^t.txt:8: 'drift_matrix' holds a value that is not finite$"):
        problem_from_text(text.replace("  0.0\n", "  nan 0.0\n"), source="t.txt")
