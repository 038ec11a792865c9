"""Tests for dataset generation, empirical risk, ERM training, and the
error-decomposition report."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kolnet import rng, sde
from kolnet.analytic import capped_put_variance_uniform, lognormal_capped_put
from kolnet.cli import main
from kolnet.learning import (
    Dataset,
    TrainConfig,
    bias_variance_report,
    empirical_risk,
    generate_dataset,
    l2_error,
    noise_floor,
    train_erm,
)
from kolnet.nets import (
    Architecture,
    ClippedNetwork,
    Parametrization,
    evaluate,
    put_payoff_network,
)
from kolnet.sde import (
    KolmogorovProblem,
    load_problem,
    terminal_values,
)

from helpers import PROBLEMS, put_problem, zero_coeffs


def noiseless_put_problem(d=1, D=1.0, u=0.5, v=1.5):
    payoff = put_payoff_network(np.full(d, 1.0 / d), D)
    return KolmogorovProblem(
        coeffs=zero_coeffs(d), horizon=1.0, payoff=payoff,
        clip_amplitude=D, u=u, v=v, steps=1,
    )


def identity_clipped(D=3.0):
    p = Parametrization(((np.array([[1.0]]), np.array([0.0])),))
    return ClippedNetwork(p, D)


# ---------------------------------------------------------------------------
# generate_dataset


def test_dataset_bounds():
    prob = put_problem(d=2, u=0.25, v=1.75)
    data = generate_dataset(prob, 500, seed=0)
    assert data.inputs.shape == (500, 2)
    assert np.all(data.inputs >= 0.25) and np.all(data.inputs <= 1.75)
    assert np.all(np.abs(data.labels) <= 1.0)


def test_dataset_noiseless_labels_equal_payoff():
    prob = noiseless_put_problem(d=2)
    data = generate_dataset(prob, 200, seed=1)
    for x, y in zip(data.inputs, data.labels):
        assert y == pytest.approx(evaluate(prob.payoff, [x])[0][0], abs=1e-12)


def test_dataset_uniform_law():
    prob = put_problem(d=2, u=0.0, v=1.0)
    data = generate_dataset(prob, 100000, seed=2)
    means = data.inputs.mean(axis=0)
    assert np.all(np.abs(means - 0.5) < 0.005)


def test_dataset_regeneration_identical():
    prob = put_problem()
    a = generate_dataset(prob, 1000, seed=3)
    b = generate_dataset(prob, 1000, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = generate_dataset(prob, 1000, seed=4)
    assert not np.array_equal(a.labels, c.labels)


BLOCK = sde._BLOCK_ROWS


def block_edge_problems():
    basket = load_problem(PROBLEMS / "basket_put_d5.txt")
    euler = replace(load_problem(PROBLEMS.parent / "bench" / "problems" / "euler_basket_d5.txt"),
                    steps=4)
    gen = np.random.default_rng(0)
    hidden = Parametrization((
        (gen.normal(size=(64, 5)), gen.normal(size=64)),
        (gen.normal(size=(1, 64)) / 8, np.zeros(1)),
    ))
    return {"gbm_basket": basket, "euler": euler, "hidden_64_payoff": replace(basket, payoff=hidden)}


@pytest.mark.parametrize("m", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 123])
@pytest.mark.parametrize("name", ["gbm_basket", "euler", "hidden_64_payoff"])
def test_dataset_blocks_match_one_shot_labels(name, m):
    # Labels come in blocks of BLOCK rows, the last taking the remainder; each
    # must equal the unblocked formula: one terminal_values and one payoff call.
    prob = block_edge_problems()[name]
    assert prob.coeffs.is_diagonal_gbm() == (name != "euler")
    data = generate_dataset(prob, m, seed=21)
    keys = rng.stream_key(rng.child_seeds(rng.child_seeds(21, 1), np.arange(m)))
    want = prob.clipped_payoff(terminal_values(prob, data.inputs, keys))
    x_key = rng.stream_key(rng.child_seeds(21, 0))
    assert np.array_equal(data.inputs, rng.hypercube(x_key, m, prob.dim, prob.u, prob.v))
    assert np.array_equal(data.labels, want)


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 123])
@pytest.mark.parametrize("name", ["gbm_basket", "euler", "hidden_64_payoff"])
def test_mc_feynman_kac_blocks_match_one_shot(name, n):
    # The reference shares the label sampler's blocks; (est, se) must equal
    # the one-shot formula on n copies of x.
    prob = block_edge_problems()[name]
    x = prob.u + (prob.v - prob.u) * np.linspace(0.1, 0.6, prob.dim)
    keys = rng.stream_key(rng.child_seeds(33, np.arange(n)))
    Y = prob.clipped_payoff(terminal_values(prob, np.tile(x, (n, 1)), keys))
    assert sde.mc_feynman_kac(prob, x, n, 33) == (np.mean(Y), np.std(Y, ddof=1) / np.sqrt(n))


def test_mc_feynman_kac_memory_is_bounded():
    # 200,000 paths on the d = 5 basket hold the payoffs (1.5 MiB) and one
    # block; the (n, d) copy of x and all n terminal values took 19.3 MiB.
    prob = load_problem(PROBLEMS / "basket_put_d5.txt")
    sde.mc_feynman_kac(prob, np.ones(5), 10, seed=0)
    tracemalloc.start()
    try:
        sde.mc_feynman_kac(prob, np.ones(5), 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_dataset_memory_is_bounded():
    # m = 2e5 on the d = 5 basket: beyond the 9.2 MiB dataset, generation holds
    # one block of labels (1.5 MiB); computing every label at once took 12.2 MiB.
    prob = load_problem(PROBLEMS / "basket_put_d5.txt")
    generate_dataset(prob, 10, seed=0)
    tracemalloc.start()
    try:
        data = generate_dataset(prob, 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.m == 200_000
    assert peak - data.inputs.nbytes - data.labels.nbytes <= 4 * 2**20


def test_train_memory_is_one_buffer_per_layer():
    # At the bench shapes each layer's batch buffer holds its activation and
    # then its residual: 3.24 MiB traced, against 3.75 MiB with a second
    # buffer per layer for the residuals.
    prob = load_problem(PROBLEMS / "basket_put_d5.txt")
    data = generate_dataset(prob, 100_000, seed=0)
    cfg = TrainConfig(
        architecture=Architecture((5, 64, 64, 1)), clip_amplitude=prob.clip_amplitude,
        batch_size=512, step_size=3e-3, iterations=20, eval_every=500, seed=0,
    )
    tracemalloc.start()
    try:
        train_erm(data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_dataset_freezes_its_own_views_not_the_callers_arrays():
    X, Y = np.zeros((4, 2)), np.ones(4)
    data = Dataset(X, Y)
    assert X.flags.writeable and Y.flags.writeable
    assert not data.inputs.flags.writeable and not data.labels.flags.writeable
    X[0, 0], Y[0] = 2.0, 3.0  # the dataset shares the caller's memory
    assert data.inputs[0, 0] == 2.0 and data.labels[0] == 3.0


def test_dataset_rejects_empty():
    prob = put_problem()
    with pytest.raises(ValueError):
        generate_dataset(prob, 0, seed=0)


# ---------------------------------------------------------------------------
# empirical_risk


def test_empirical_risk_zero_net():
    p = Parametrization(((np.array([[0.0]]), np.array([0.0])),))
    f = ClippedNetwork(p, 2.0)
    data = Dataset(np.zeros((5, 1)), np.ones(5))
    assert empirical_risk(f, data) == 1.0


def test_empirical_risk_hand_case():
    f = identity_clipped(D=3.0)
    data = Dataset(np.array([[0.0], [1.0], [2.0]]), np.zeros(3))
    assert empirical_risk(f, data) == pytest.approx(5.0 / 3.0)


def test_empirical_risk_noiseless_realizable_zero():
    prob = noiseless_put_problem()
    data = generate_dataset(prob, 100, seed=7)
    f = ClippedNetwork(prob.payoff, 1.0)
    assert empirical_risk(f, data) <= 1e-28


def test_empirical_risk_range():
    prob = put_problem()
    data = generate_dataset(prob, 100, seed=8)
    f = identity_clipped(D=1.0)
    r = empirical_risk(f, data)
    assert 0.0 <= r <= 4.0


def test_empirical_risk_dimension_mismatch():
    f = identity_clipped()
    data = Dataset(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError):
        empirical_risk(f, data)


# ---------------------------------------------------------------------------
# train_erm


def test_train_constant_target():
    prob = noiseless_put_problem()
    data = generate_dataset(prob, 2000, seed=9)
    data = Dataset(data.inputs, np.full(data.m, 0.4))
    cfg = TrainConfig(
        architecture=Architecture((1, 8, 1)), clip_amplitude=1.0,
        iterations=4000, seed=0,
    )
    report = train_erm(data, cfg)
    assert report.final_risk <= 1e-4


def test_train_realizable_payoff_architecture():
    prob = noiseless_put_problem()
    data = generate_dataset(prob, 5000, seed=10)
    cfg = TrainConfig(
        architecture=Architecture((1, 1, 1, 1)), clip_amplitude=1.0,
        iterations=20000, step_size=3e-3, seed=4,
    )
    report = train_erm(data, cfg)
    assert report.final_risk <= 1e-3


@pytest.mark.parametrize("field, value", [
    # A zero eval_every used to raise ZeroDivisionError mid-training, a zero
    # batch to warn "Mean of empty slice", negative iterations to run no
    # steps, and a negative step size to train uphill.
    ("eval_every", 0), ("batch_size", 0), ("iterations", -1),
    ("step_size", -1.0), ("step_size", 0.0), ("step_size", np.nan), ("step_size", np.inf),
    ("parameter_bound", 0.0), ("parameter_bound", -1.0), ("parameter_bound", np.nan),
    ("parameter_bound", np.inf),
])
def test_train_config_checks_its_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        TrainConfig(architecture=Architecture((1, 2, 1)), clip_amplitude=1.0, **{field: value})


def test_train_empty_dataset_rejected():
    cfg = TrainConfig(architecture=Architecture((1, 2, 1)), clip_amplitude=1.0)
    with pytest.raises(ValueError):
        train_erm(Dataset(np.zeros((0, 1)), np.zeros(0)), cfg)


def test_train_divergence_raises_without_runtime_warning():
    data = generate_dataset(put_problem(), 500, seed=11)
    cfg = TrainConfig(
        architecture=Architecture((1, 16, 16, 1)), clip_amplitude=1.0,
        step_size=1e200, iterations=300, seed=1,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match=r"training diverged at iteration \d+ "):
            train_erm(data, cfg)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_train_seed_determinism():
    prob = put_problem()
    data = generate_dataset(prob, 1000, seed=11)
    cfg = TrainConfig(
        architecture=Architecture((1, 4, 1)), clip_amplitude=1.0,
        iterations=500, seed=5,
    )
    r1 = train_erm(data, cfg)
    r2 = train_erm(data, cfg)
    assert r1.final_risk == r2.final_risk
    for (Wa, Ba), (Wb, Bb) in zip(r1.trained.layers, r2.trained.layers):
        assert np.array_equal(Wa, Wb)
        assert np.array_equal(Ba, Bb)


def test_train_final_risk_matches_recomputation():
    prob = put_problem()
    data = generate_dataset(prob, 1000, seed=12)
    cfg = TrainConfig(
        architecture=Architecture((1, 4, 1)), clip_amplitude=1.0,
        iterations=500, seed=6,
    )
    report = train_erm(data, cfg)
    f = ClippedNetwork(report.trained, 1.0)
    assert report.final_risk == pytest.approx(empirical_risk(f, data), abs=1e-12)


def test_train_trace_structure(tmp_path):
    prob = put_problem()
    data = generate_dataset(prob, 500, seed=13)
    cfg = TrainConfig(
        architecture=Architecture((1, 4, 1)), clip_amplitude=1.0,
        iterations=300, eval_every=100, seed=7,
    )
    report = train_erm(data, cfg)
    iters = [row[0] for row in report.trace]
    assert iters == sorted(iters)
    # `kolnet train` writes the trace with no comment line: one row per
    # evaluation, "%.17g" risks.
    argv = ["train", str(PROBLEMS / "put_d1_gbm.txt"), "--m", "500", "--arch", "1,4,1",
            "--iters", "300", "--eval-every", "100", "--grid", "16", "--seed", "13",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,batch_risk,full_risk"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(it) for it, _, _ in rows] == [0, 100, 200, 300]
    assert all(f"{float(x):.17g}" == x for _, *risks in rows for x in risks)


def test_train_monotone_budget():
    prob = put_problem()
    data = generate_dataset(prob, 1000, seed=14)
    base = dict(
        architecture=Architecture((1, 8, 1)), clip_amplitude=1.0,
        eval_every=200, seed=8,
    )
    short = train_erm(data, TrainConfig(iterations=1000, **base))
    long = train_erm(data, TrainConfig(iterations=2000, **base))
    assert long.final_risk <= short.final_risk + 1e-9


def test_train_projection_bounds_parameters():
    prob = put_problem()
    data = generate_dataset(prob, 1000, seed=15)
    cfg = TrainConfig(
        architecture=Architecture((1, 8, 1)), clip_amplitude=1.0,
        parameter_bound=0.25, iterations=500, seed=9,
    )
    report = train_erm(data, cfg)
    assert report.trained.max_norm() <= 0.25 + 1e-15


def test_trained_outputs_clipped():
    prob = put_problem(D=1.0)
    data = generate_dataset(prob, 1000, seed=16)
    cfg = TrainConfig(
        architecture=Architecture((1, 8, 1)), clip_amplitude=1.0,
        iterations=500, seed=10,
    )
    report = train_erm(data, cfg)
    f = report.network
    X = np.random.RandomState(0).uniform(-5, 5, size=(1000, 1))
    assert np.all(np.abs(f(X)) <= 1.0)


def _reference_train(data, cfg):
    """Per-layer forward/backward and Adam, one fresh array per operation.

    An independent copy of the straightforward training loop (unchunked
    full-data risk, separate weight and bias lists); ``train_erm`` must
    follow the same trajectory bit for bit.
    """
    D, R = cfg.clip_amplitude, cfg.parameter_bound
    gen = np.random.default_rng(np.random.PCG64(cfg.seed))
    w = cfg.architecture.widths
    Ws, Bs = [], []
    for l in range(1, len(w)):
        bound = np.sqrt(6.0 / (w[l - 1] + w[l]))
        if cfg.constant_only:
            Ws.append(np.zeros((w[l], w[l - 1])))
        else:
            Ws.append(gen.uniform(-bound, bound, size=(w[l], w[l - 1])))
        Bs.append(np.zeros(w[l]))

    def forward(X):
        pre, h = [], X
        for l, (W, B) in enumerate(zip(Ws, Bs)):
            z = h @ W.T + B
            pre.append(z)
            h = np.maximum(z, 0.0) if l != len(Ws) - 1 else z
        return pre

    def full_risk():
        out = np.clip(forward(data.inputs)[-1][:, 0], -D, D)
        return float(np.mean((out - data.labels) ** 2))

    mWs, vWs = [np.zeros_like(W) for W in Ws], [np.zeros_like(W) for W in Ws]
    mBs, vBs = [np.zeros_like(B) for B in Bs], [np.zeros_like(B) for B in Bs]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_risk = full_risk()
    best = ([W.copy() for W in Ws], [B.copy() for B in Bs])
    trace = [(0, best_risk, best_risk)]
    for it in range(1, cfg.iterations + 1):
        idx = gen.integers(0, data.m, size=min(cfg.batch_size, data.m))
        X, Y = data.inputs[idx], data.labels[idx]
        pre = forward(X)
        raw = pre[-1][:, 0]
        res = np.clip(raw, -D, D) - Y
        risk = float(np.mean(res**2))
        dz = np.where(np.abs(raw) < D, 2.0 * res / X.shape[0], 0.0)[:, None]
        gWs, gBs = [None] * len(Ws), [None] * len(Ws)
        for l in range(len(Ws) - 1, -1, -1):
            gWs[l] = dz.T @ (np.maximum(pre[l - 1], 0.0) if l > 0 else X)
            gBs[l] = dz.sum(axis=0)
            if l > 0:
                dz = (dz @ Ws[l]) * (pre[l - 1] > 0)
        corr1, corr2 = 1.0 - beta1**it, 1.0 - beta2**it
        for l in range(len(Ws)):
            if not cfg.constant_only:
                mWs[l] = beta1 * mWs[l] + (1 - beta1) * gWs[l]
                vWs[l] = beta2 * vWs[l] + (1 - beta2) * gWs[l] ** 2
                Ws[l] -= cfg.step_size * (mWs[l] / corr1) / (np.sqrt(vWs[l] / corr2) + eps)
            mBs[l] = beta1 * mBs[l] + (1 - beta1) * gBs[l]
            vBs[l] = beta2 * vBs[l] + (1 - beta2) * gBs[l] ** 2
            Bs[l] -= cfg.step_size * (mBs[l] / corr1) / (np.sqrt(vBs[l] / corr2) + eps)
            if cfg.parameter_bound is not None:
                np.clip(Ws[l], -R, R, out=Ws[l])
                np.clip(Bs[l], -R, R, out=Bs[l])
        if it % cfg.eval_every == 0 or it == cfg.iterations:
            fr = full_risk()
            trace.append((it, risk, fr))
            if fr < best_risk:
                best_risk = fr
                best = ([W.copy() for W in Ws], [B.copy() for B in Bs])
    return trace, list(zip(*best))


@pytest.mark.parametrize(
    "m, extra",
    [
        (600, dict(batch_size=64)),
        (100, dict(batch_size=256)),  # batch larger than the dataset
        (600, dict(batch_size=64, parameter_bound=0.3)),
        (600, dict(batch_size=64, constant_only=True)),
    ],
    ids=["plain", "batch_gt_m", "projected", "constant_only"],
)
def test_train_erm_matches_per_layer_reference(m, extra):
    data = generate_dataset(put_problem(d=2), m, seed=17)
    cfg = TrainConfig(
        architecture=Architecture((2, 8, 6, 1)), clip_amplitude=1.0,
        step_size=1e-2, iterations=300, eval_every=70, seed=3, **extra,
    )
    report = train_erm(data, cfg)
    trace, layers = _reference_train(data, cfg)
    assert np.array_equal(np.array(report.trace), np.array(trace))
    assert len(report.trained.layers) == len(layers)
    for (W, B), (W_ref, B_ref) in zip(report.trained.layers, layers):
        assert np.array_equal(W, W_ref)
        assert np.array_equal(B, B_ref)


# ---------------------------------------------------------------------------
# l2_error / noise_floor


def test_l2_error_exact_match_zero():
    f = identity_clipped(D=3.0)
    xs = np.array([0.1, 0.5, 0.9])
    assert l2_error(f, xs[:, None], xs) == 0.0


def test_l2_error_constant_offset():
    p = Parametrization(((np.array([[0.0]]), np.array([0.0])),))
    f = ClippedNetwork(p, 2.0)
    assert l2_error(f, np.array([[0.1], [0.5]]), np.ones(2)) == 1.0


def test_l2_error_matches_recomputation():
    f = identity_clipped(D=2.0)
    rs = np.random.RandomState(17)
    ref = [(rs.uniform(0, 1, size=1), rs.uniform(0, 1)) for _ in range(50)]
    got = l2_error(f, np.array([p for p, _ in ref]), np.array([val for _, val in ref]))
    want = np.mean([(min(max(p[0], -2), 2) - val) ** 2 for p, val in ref])
    assert got == pytest.approx(want, abs=1e-12)


def test_noise_floor():
    assert noise_floor(np.array([0.1, 0.3])) == pytest.approx((0.01 + 0.09) / 2)


def test_noise_floor_rejects_empty():
    # It used to return nan with a "Mean of empty slice" RuntimeWarning.
    with pytest.raises(ValueError, match="nonempty"):
        noise_floor(np.empty(0))


def test_l2_error_rejects_empty():
    with pytest.raises(ValueError):
        l2_error(identity_clipped(), np.empty((0, 1)), np.empty(0))
    with pytest.raises(ValueError, match="3 points but 1 reference values"):
        l2_error(identity_clipped(), np.zeros((3, 1)), np.zeros(1))


# ---------------------------------------------------------------------------
# risk identity: E(f) - E(f*) = ||f - f*||^2 for the put problem


def test_risk_identity_with_label_noise():
    prob = put_problem(mu=0.0, sigma=0.2)
    data = generate_dataset(prob, 200000, seed=18)
    f_star = np.array(
        [lognormal_capped_put(x, 1.0, 1.0, 0.0, 0.2, 1.0) for x in data.inputs[:, 0]]
    )
    rs = np.random.RandomState(19)
    for trial in range(5):
        W1 = rs.uniform(-1, 1, size=(3, 1))
        B1 = rs.uniform(-0.5, 0.5, size=3)
        W2 = rs.uniform(-1, 1, size=(1, 3))
        B2 = rs.uniform(-0.5, 0.5, size=1)
        f = ClippedNetwork(Parametrization(((W1, B1), (W2, B2))), 1.0)
        pred = f(data.inputs)
        # Pointwise identity residual: (f-Y)^2 - (f*-Y)^2 - (f-f*)^2 has
        # zero mean because the cross term E[(f-f*)(f*-Y)|X] vanishes.
        delta = (pred - data.labels) ** 2 - (f_star - data.labels) ** 2 \
            - (pred - f_star) ** 2
        se = delta.std(ddof=1) / np.sqrt(delta.size)
        assert abs(delta.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# bias_variance_report


def test_bias_variance_realizable_noiseless():
    prob = noiseless_put_problem()
    cfg = TrainConfig(
        architecture=Architecture((1, 32, 1)), clip_amplitude=1.0,
        iterations=10000, step_size=3e-3, seed=11,
    )
    rep = bias_variance_report(prob, cfg, m=5000, trials=2, seed=20, holdout_m=20000)
    assert rep.approximation >= 0.0
    assert rep.generalization >= 0.0
    assert abs(rep.total - (rep.generalization + rep.approximation)) <= 3 * rep.holdout_se
    # Realizable noiseless target: every component should be small.
    assert rep.total <= 1e-3


def test_bias_variance_constants_only_class():
    # Restricting the class to constants makes the approximation error equal
    # the variance of the payoff under the uniform input law.
    prob = noiseless_put_problem(u=0.5, v=1.5)
    cfg = TrainConfig(
        architecture=Architecture((1, 1, 1)), clip_amplitude=1.0,
        iterations=4000, step_size=1e-2, seed=12, constant_only=True,
    )
    rep = bias_variance_report(prob, cfg, m=20000, trials=1, seed=21, holdout_m=50000)
    want = capped_put_variance_uniform(np.array([1.0]), 1.0, 0.5, 1.5)
    assert rep.approximation == pytest.approx(want, rel=0.05)


def test_bias_variance_rejects_zero_trials():
    prob = noiseless_put_problem()
    cfg = TrainConfig(architecture=Architecture((1, 2, 1)), clip_amplitude=1.0)
    with pytest.raises(ValueError):
        bias_variance_report(prob, cfg, m=10, trials=0, seed=0)
