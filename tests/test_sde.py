"""Tests for affine SDE simulation, affine terminal representation, and the
Monte-Carlo expectation oracle."""

import multiprocessing
import threading
import warnings

import numpy as np
import pytest

from kolnet import rng, sde
from kolnet.analytic import lognormal_capped_put
from kolnet.nets import Parametrization, put_payoff_network, realize
from kolnet.sde import (
    AffineCoefficients,
    KolmogorovProblem,
    SimulationError,
    extract_affine_batch,
    gbm_coefficients,
    mc_feynman_kac,
    mc_reference_grid,
    problem_from_text,
    terminal_values,
)


def zero_coeffs(d):
    Z = np.zeros((d, d))
    return AffineCoefficients(Z, np.zeros(d), tuple(Z.copy() for _ in range(d + 1)))


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


def put_problem(d=1, mu=0.0, sigma=0.2, T=1.0, D=1.0, u=0.5, v=1.5, steps=128, c=None):
    if c is None:
        c = np.full(d, 1.0 / d)
    payoff = put_payoff_network(np.asarray(c, dtype=float), D)
    return KolmogorovProblem(
        coeffs=gbm_coefficients(d, mu, sigma),
        horizon=T,
        payoff=payoff,
        clip_amplitude=D,
        u=u,
        v=v,
        steps=steps,
    )


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
    "X0", [np.ones((3, 1)), np.ones((2, 2)), np.ones(2), np.array([[1.0], [np.nan]])]
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


@pytest.fixture
def workers(request, monkeypatch):
    """Run the Euler kernel as on a machine with ``request.param`` usable CPUs."""
    monkeypatch.setattr(sde, "_usable_cpus", lambda: request.param)
    return request.param


# n = 1 takes a one-path chunk, 3 and 5 at most two chunks of at least two
# paths, 4097 split chunks of unequal size and 2 * 4096 + 123 three or more.
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
    assert np.array_equal(got, path_major_euler(prob, X0, keys))


def test_extract_affine_batch_across_chunk_boundary():
    # d=2 gives 3 rows per map, so the map at the first chunk boundary has
    # its rows split between two chunks.
    d = 2
    prob = generic_problem(random_affine_coeffs(d, seed=6), d=d, steps=16)
    boundary = sde._EULER_CHUNK // (d + 1)
    seeds = np.arange(boundary + 3)
    Ms, Ns = extract_affine_batch(prob, seeds)
    for j in (0, boundary - 1, boundary, boundary + 1, len(seeds) - 1):
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
    monkeypatch.setattr(sde, "_pool", None)
    d, n = 2, 2 * sde._EULER_CHUNK + 123  # three chunks
    prob = generic_problem(random_affine_coeffs(d, seed=10), d=d, steps=4)
    X0 = np.zeros((n, d))
    keys = rng.stream_key(rng.child_seeds(6, np.arange(n)))
    terminal_values(prob, X0, keys)
    assert sde._pool is None


@pytest.mark.parametrize("workers", [8], indirect=True)
def test_small_batch_runs_on_few_threads(workers, monkeypatch):
    # One thread per _EULER_CHUNK // 2 paths at most, however many CPUs.
    monkeypatch.setattr(sde, "_pool", None)
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


def _euler_in_child(prob, X0, keys, want):
    if not np.array_equal(terminal_values(prob, X0, keys), want):
        raise AssertionError("child result differs")


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_forked_child_builds_its_own_pool(workers):
    # The child inherits the parent's executor but none of its threads.
    prob = generic_problem(random_affine_coeffs(2, seed=8), d=2, steps=8)
    n = sde._EULER_CHUNK  # two chunks of _EULER_CHUNK // 2 paths
    X0 = np.random.RandomState(9).uniform(-1, 1, size=(n, 2))
    keys = rng.stream_key(rng.child_seeds(5, np.arange(n)))
    want = terminal_values(prob, X0, keys)  # creates the pool in this process
    # Occupy both pool threads at once, so that both exist: a child that
    # reused the inherited executor would then never start a thread of its own.
    both = threading.Barrier(2)
    list(sde._executor(workers).map(lambda _: both.wait(timeout=30), range(2)))
    child = multiprocessing.get_context("fork").Process(
        target=_euler_in_child, args=(prob, X0, keys, want)
    )
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive, "forked child hung on the inherited pool"
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
    assert est == pytest.approx(realize(prob.payoff, x)[0], abs=1e-12)


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


def test_mc_estimate_within_clip_range():
    prob = put_problem()
    est, se = mc_feynman_kac(prob, np.array([0.6]), 500, seed=8)
    assert -1.0 <= est <= 1.0


def test_mc_requires_two_paths():
    prob = put_problem()
    with pytest.raises(ValueError):
        mc_feynman_kac(prob, np.array([1.0]), 1, seed=0)


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
    assert realize(prob.payoff, [0.5])[0] == pytest.approx(0.5)


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
        (("steps: 128", "steps: 0"), "t.txt:8: 'steps' must be at least 1"),
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
    ],
)
def test_problem_text_errors_name_file_and_line(edit, message):
    text = PROBLEM_TEXT.replace(*edit)
    assert text != PROBLEM_TEXT
    with pytest.raises(ValueError) as exc:
        problem_from_text(text, source="t.txt")
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
