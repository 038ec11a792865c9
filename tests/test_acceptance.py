"""End-to-end acceptance suite.

Each test covers one acceptance criterion at desk scale and prints a single
PASS/FAIL line (run with ``pytest -s`` to see them live).  Reference values
are computed by independent oracles coded inside this file (closed-form
lognormal pricing, naive brute-force checks) rather than by the library
under test.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from kolnet import rng
from kolnet.bounds import (
    ClassSpec,
    lipschitz_bound,
    sample_complexity_h,
    scaling_audit,
)
from kolnet.constructive import build_mc_network
from kolnet.learning import (
    TrainConfig,
    bias_variance_report,
    generate_dataset,
    l2_error,
    noise_floor,
    train_erm,
)
from kolnet.nets import (
    Architecture,
    ClippedNetwork,
    Parametrization,
    clip_network,
    clipped_as_standard,
    compose_average,
    evaluate,
    put_payoff_network,
)
from kolnet.sde import (
    AffineCoefficients,
    KolmogorovProblem,
    extract_affine_batch,
    gbm_coefficients,
    mc_feynman_kac,
    mc_reference_grid,
    terminal_values,
)


def _report(idx, name, ok, detail):
    line = f"[{idx}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# independent oracles


def capped_put_closed_form(x0, c, D, mu_rate, sigma_rate, T):
    """E[min(max(D - c*S_T, 0), D)] for one-dimensional geometric Brownian
    motion, via the lognormal distribution function.  Independent of the
    library's analytic module.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    K = D / c  # strike of the uncapped put; the cap binds only at S_T <= 0
    s = sigma_rate * math.sqrt(T)
    fwd = x0 * math.exp(mu_rate * T)
    d1 = (np.log(x0 / K) + (mu_rate + 0.5 * sigma_rate**2) * T) / s
    d2 = d1 - s
    return c * (K * norm.cdf(-d2) - fwd * norm.cdf(-d1))


def put_problem_1d(mu_rate=0.0, sigma_rate=0.2):
    return KolmogorovProblem(
        coeffs=gbm_coefficients(1, mu_rate, sigma_rate),
        horizon=1.0,
        payoff=put_payoff_network(np.array([1.0]), 1.0),
        clip_amplitude=1.0,
        u=0.5,
        v=1.5,
    )


def basket_problem(d, sigma_rate=0.2):
    return KolmogorovProblem(
        coeffs=gbm_coefficients(d, 0.0, sigma_rate),
        horizon=1.0,
        payoff=put_payoff_network(np.full(d, 1.0 / d), 1.0),
        clip_amplitude=1.0,
        u=0.5,
        v=1.5,
    )


def closed_form_grid(problem, n_points, seed):
    """(points, values) from the independent closed form."""
    pts = problem.u + (problem.v - problem.u) * rng.uniforms(
        np.uint64(rng.child_seed(seed, 0x60D)), np.arange(n_points)
    ).reshape(n_points, 1)
    mu = float(problem.coeffs.A[0, 0])
    sig = float(problem.coeffs.C[1][0, 0])
    vals = capped_put_closed_form(
        pts[:, 0], 1.0, problem.clip_amplitude, mu, sig, problem.horizon
    )
    return pts, vals


def mc_grid(problem, n_points, n_paths, seed):
    """(points, estimates, std_errors) of a seeded Monte-Carlo reference."""
    d = problem.dim
    pts = problem.u + (problem.v - problem.u) * rng.uniforms(
        np.uint64(rng.child_seed(seed, 0x6B1D)), np.arange(n_points * d)
    ).reshape(n_points, d)
    return (pts, *mc_reference_grid(problem, pts, n_paths, rng.child_seed(seed, 0xFEED)))


# ---------------------------------------------------------------------------
# 1. exact constructions


def test_exact_constructions():
    t0 = time.perf_counter()
    rs = np.random.RandomState(0)
    worst = 0.0

    # clip: min{|x|, D} * sgn(x)
    for D in (1.0, 2.5, 7.0):
        x = rs.uniform(-3 * D, 3 * D, size=(10_000, 1))
        out = evaluate(clip_network(D), x)[:, 0]
        worst = max(worst, np.abs(out - np.clip(x[:, 0], -D, D)).max())

    # capped put payoff: min(max(D - c.x, 0), D)
    for d in (1, 3, 7):
        c = rs.uniform(0.1, 2.0, size=d)
        D = rs.uniform(1.0, 4.0)
        x = rs.uniform(-2.0, 2.0, size=(10_000, d))
        out = evaluate(put_payoff_network(c, D), x)[:, 0]
        want = np.minimum(np.maximum(D - x @ c, 0.0), D)
        worst = max(worst, np.abs(out - want).max())

    # clipped network rewritten as a standard network
    for _ in range(3):
        widths = (2, rs.randint(1, 5), rs.randint(1, 5), 1)
        layers = tuple(
            (
                rs.uniform(-1, 1, size=(widths[l + 1], widths[l])),
                rs.uniform(-1, 1, size=widths[l + 1]),
            )
            for l in range(3)
        )
        p = Parametrization(layers)
        D = 1.0 + rs.uniform(0, 2)
        x = rs.uniform(-3, 3, size=(10_000, 2))
        fused = evaluate(clipped_as_standard(p, D), x)[:, 0]
        want = np.clip(evaluate(p, x)[:, 0], -D, D)
        worst = max(worst, np.abs(fused - want).max())

    # averaged composition with affine maps
    d, n = 2, 8
    eta = put_payoff_network(rs.uniform(0.1, 1.0, size=d), 2.0)
    maps = [(rs.uniform(-1, 1, size=(d, d)), rs.uniform(-1, 1, size=d)) for _ in range(n)]
    avg = compose_average(eta, np.array([M for M, _ in maps]), np.array([N for _, N in maps]))
    x = rs.uniform(-2, 2, size=(10_000, d))
    want = np.mean([evaluate(eta, x @ M.T + N)[:, 0] for M, N in maps], axis=0)
    worst = max(worst, np.abs(evaluate(avg, x)[:, 0] - want).max())

    dt = time.perf_counter() - t0
    _report(
        1,
        "exact network constructions",
        worst <= 1e-10 and dt < 10.0,
        f"max abs error {worst:.2e}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Lipschitz conformance of the realization map


def test_lipschitz_conformance():
    t0 = time.perf_counter()
    rs = np.random.RandomState(7)
    R = 1.0
    violations = 0
    worst_ratio = 0.0
    for _ in range(50):
        L = rs.randint(1, 4)
        d = rs.randint(1, 4)
        widths = (d,) + tuple(int(w) for w in rs.randint(1, 7, size=L - 1)) + (1,)
        arch = Architecture(widths)
        bound = lipschitz_bound(ClassSpec(arch, R=R, D=1.0, u=0.0, v=1.0))
        grid = rs.uniform(0.0, 1.0, size=(128, d))

        def draw():
            return Parametrization(
                tuple(
                    (
                        rs.uniform(-R, R, size=(widths[l + 1], widths[l])),
                        rs.uniform(-R, R, size=widths[l + 1]),
                    )
                    for l in range(L)
                )
            )

        for _ in range(1000):
            p, q = draw(), draw()
            dist = max(
                max(np.abs(Wp - Wq).max(), np.abs(Bp - Bq).max())
                for (Wp, Bp), (Wq, Bq) in zip(p.layers, q.layers)
            )
            gap = float(np.abs(evaluate(p, grid) - evaluate(q, grid)).max())
            if gap > bound * dist + 1e-12:
                violations += 1
            if dist > 0:
                worst_ratio = max(worst_ratio, gap / (bound * dist))
    dt = time.perf_counter() - t0
    _report(
        2,
        "parameter-Lipschitz bound conformance",
        violations == 0 and dt < 60.0,
        f"0 violations in 50x1000x128, worst gap/bound {worst_ratio:.3f}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. pathwise affine representation exactness


def _random_affine_coeffs(d, rs):
    A = rs.uniform(-0.3, 0.3, size=(d, d))
    b = rs.uniform(-0.2, 0.2, size=d)
    C = [rs.uniform(-0.2, 0.2, size=(d, d))]
    for _ in range(d):
        C.append(rs.uniform(-0.15, 0.15, size=(d, d)))
    return AffineCoefficients(A, b, tuple(C))


def test_affine_representation_exactness():
    t0 = time.perf_counter()
    rs = np.random.RandomState(3)
    worst = 0.0
    payoff_cache = {}
    for d in (1, 3, 10):
        payoff = payoff_cache.setdefault(d, put_payoff_network(np.full(d, 1.0 / d), 1.0))
        problems = [
            KolmogorovProblem(
                coeffs=gbm_coefficients(d, 0.05, 0.2),
                horizon=1.0,
                payoff=payoff,
                clip_amplitude=1.0,
                u=0.5,
                v=1.5,
            ),
            KolmogorovProblem(
                coeffs=_random_affine_coeffs(d, rs),
                horizon=1.0,
                payoff=payoff,
                clip_amplitude=1.0,
                u=0.5,
                v=1.5,
                steps=64,
            ),
        ]
        for prob in problems:
            seed = np.array([rs.randint(1 << 30)], dtype=np.uint64)
            M, N = extract_affine_batch(prob, seed)
            for _ in range(100):
                x = rs.uniform(-1.0, 2.0, size=d)
                direct = terminal_values(prob, x[None, :], rng.stream_key(seed))[0]
                worst = max(worst, float(np.abs(direct - (M[0] @ x + N[0])).max()))
    dt = time.perf_counter() - t0
    _report(
        3,
        "shared-driver affine terminal map",
        worst <= 1e-9 and dt < 30.0,
        f"max abs error {worst:.2e} over d in (1,3,10), GBM+Euler, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Monte-Carlo expectation oracle


def test_monte_carlo_oracle():
    t0 = time.perf_counter()
    prob = put_problem_1d()
    worst_z = 0.0
    for x0 in (0.8, 1.0, 1.2):
        est, se = mc_feynman_kac(prob, np.array([x0]), 100_000, seed=11)
        truth = float(capped_put_closed_form(x0, 1.0, 1.0, 0.0, 0.2, 1.0))
        worst_z = max(worst_z, abs(est - truth) / se)

    truth = float(capped_put_closed_form(1.0, 1.0, 1.0, 0.0, 0.2, 1.0))
    ns = [100, 1_000, 10_000, 100_000]
    mean_abs = []
    for n in ns:
        errs = [
            abs(mc_feynman_kac(prob, np.array([1.0]), n, seed=1000 + s)[0] - truth)
            for s in range(20)
        ]
        mean_abs.append(np.mean(errs))
    slope = np.polyfit(np.log(ns), np.log(mean_abs), 1)[0]

    dt = time.perf_counter() - t0
    _report(
        4,
        "expectation estimates vs lognormal closed form",
        worst_z <= 4.0 and -0.65 <= slope <= -0.35 and dt < 120.0,
        f"worst |z| {worst_z:.2f} (<=4), convergence slope {slope:.3f}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. constructive Monte-Carlo builder


def test_constructive_builder_error_decreases():
    t0 = time.perf_counter()
    prob = put_problem_1d()
    reference = closed_form_grid(prob, 128, seed=5)
    medians = []
    for n in (256, 1024, 4096):
        errs = []
        for seed in range(5):
            net, report = build_mc_network(
                prob, n=n, retries=1, grid_size=64, ref_paths=2000, seed=seed
            )
            assert report.bounds.all_ok
            errs.append(l2_error(ClippedNetwork(net, prob.clip_amplitude), *reference))
        medians.append(float(np.median(errs)))
    decreasing = medians[0] > medians[1] > medians[2]
    dt = time.perf_counter() - t0
    _report(
        5,
        "builder error decreases with averaging width",
        decreasing and dt < 120.0,
        f"median L2 {medians[0]:.2e} > {medians[1]:.2e} > {medians[2]:.2e}, "
        f"size caps hold, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. trained-network accuracy (d=1 closed form, d=5 Monte-Carlo reference)


def test_erm_one_dimensional():
    t0 = time.perf_counter()
    prob = put_problem_1d()
    data = generate_dataset(prob, 100_000, seed=0)
    cfg = TrainConfig(
        architecture=Architecture((1, 32, 32, 1)),
        clip_amplitude=1.0,
        step_size=3e-3,
        iterations=20_000,
        seed=0,
    )
    fit = train_erm(data, cfg)
    err = l2_error(fit.network, *closed_form_grid(prob, 256, seed=6))
    dt = time.perf_counter() - t0
    _report(
        6,
        "trained network, one-dimensional case",
        err <= 1e-3 and dt < 300.0,
        f"L2 error {err:.2e} (<= 1e-3) vs closed-form grid, {dt:.1f}s",
    )


def test_erm_five_dimensional_basket():
    t0 = time.perf_counter()
    prob = basket_problem(5)
    data = generate_dataset(prob, 100_000, seed=0)
    pts, est, se = mc_grid(prob, 256, 100_000, seed=60)
    floor = noise_floor(se)
    cfg = TrainConfig(
        architecture=Architecture((5, 64, 64, 1)),
        clip_amplitude=1.0,
        batch_size=512,
        step_size=3e-3,
        iterations=20_000,
        seed=0,
    )
    fit = train_erm(data, cfg)
    err = l2_error(fit.network, pts, est)
    dt = time.perf_counter() - t0
    _report(
        6,
        "trained network, five-dimensional basket",
        err <= 5e-3 and dt < 900.0,
        f"L2 error {err:.2e} (<= 5e-3), reference noise floor {floor:.1e}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. sample-size scaling across dimension


def test_scaling_across_dimension():
    t0 = time.perf_counter()
    target = 5e-3
    m_base = 20_000
    results = []
    all_hit = True
    details = []
    for d in (1, 2, 4, 8):
        m = m_base * d * d
        prob = basket_problem(d)
        data = generate_dataset(prob, m, seed=2026)
        pts, est, _ = mc_grid(prob, 128, 50_000, seed=700 + d)
        cfg = TrainConfig(
            architecture=Architecture((d, 32, 32, 1)),
            clip_amplitude=1.0,
            batch_size=512,
            step_size=3e-3,
            iterations=15_000,
            seed=2026,
        )
        fit = train_erm(data, cfg)
        err = l2_error(fit.network, pts, est)
        all_hit = all_hit and err <= target
        details.append(f"d={d}: m={m}, L2={err:.1e}")
        results.append((d, m))
    audit = scaling_audit(results, threshold=3.0)
    dt = time.perf_counter() - t0
    _report(
        7,
        "sample budget grows polynomially with dimension",
        all_hit and audit.passed and audit.r_squared >= 0.8 and dt < 2700.0,
        f"{'; '.join(details)}; slope {audit.slope:.2f} (<=3), "
        f"R^2 {audit.r_squared:.3f}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. certificate formulas: hand value and soundness


# 50-digit evaluation of the sample-size formula at the documented example
# input (x=(10, ln 100, 0, 10, 2), D=1, domain [0,1]), frozen here as the
# independent oracle.
H_ORACLE = 1161054.9062001097


def test_certificate_hand_value_and_soundness():
    t0 = time.perf_counter()
    val = sample_complexity_h(10.0, math.log(100.0), 0.0, 10.0, 2.0, D=1.0, u=0.0, v=1.0)
    hand_ok = abs(val / H_ORACLE - 1.0) <= 1e-6

    # Soundness of the deviation bound: 8 affine predictors on U[0,1] with
    # exact polynomial risks; the empirical sup-deviation exceedance
    # frequency must sit below the union Hoeffding bound.
    slopes_biases = [(a, b) for a in (-1.0, -0.5, 0.5, 1.0) for b in (0.0, 0.5)]

    def affine_risk(a, b):
        # E[((a-1)X + b)^2] for X ~ U[0,1]
        g = a - 1.0
        return g * g / 3.0 + g * b + b * b

    m, eps, reps = 1500, 0.8, 2000
    true = np.array([affine_risk(a, b) for a, b in slopes_biases])
    rs = np.random.RandomState(8)
    exceed = 0
    for start in range(0, reps, 500):
        k = min(500, reps - start)
        X = rs.uniform(0.0, 1.0, size=(k, m))
        sup_dev = np.zeros(k)
        for j, (a, b) in enumerate(slopes_biases):
            emp = ((a * X + b - X) ** 2).mean(axis=1)
            sup_dev = np.maximum(sup_dev, np.abs(emp - true[j]))
        exceed += int((sup_dev >= eps / 4.0).sum())
    freq = exceed / reps
    bound = min(1.0, len(slopes_biases) * 2 * math.exp(-m * eps**2 / 128.0))
    sound = freq <= bound
    looseness = "empirical 0" if freq == 0 else f"bound/empirical {bound / freq:.1e}"

    dt = time.perf_counter() - t0
    _report(
        8,
        "sample-size formula hand value and deviation-bound soundness",
        hand_ok and sound and dt < 300.0,
        f"h={val:.10g} vs oracle {H_ORACLE:.10g}; exceedance {freq:.4f} <= "
        f"bound {bound:.2e} (loose as expected: {looseness}), {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. error decomposition identity


def test_bias_variance_identity():
    t0 = time.perf_counter()
    prob = KolmogorovProblem(
        coeffs=AffineCoefficients(
            np.zeros((1, 1)), np.zeros(1), (np.zeros((1, 1)), np.zeros((1, 1)))
        ),
        horizon=1.0,
        payoff=put_payoff_network(np.array([1.0]), 1.0),
        clip_amplitude=1.0,
        u=0.5,
        v=1.5,
        steps=1,
    )
    cfg = TrainConfig(
        architecture=Architecture((1, 32, 1)),
        clip_amplitude=1.0,
        iterations=10_000,
        step_size=3e-3,
        seed=11,
    )
    rep = bias_variance_report(prob, cfg, m=5_000, trials=2, seed=20, holdout_m=50_000)
    gap = abs(rep.total - (rep.generalization + rep.approximation))
    ok = gap <= 3.0 * rep.holdout_se and rep.generalization >= 0.0 and rep.approximation >= 0.0
    dt = time.perf_counter() - t0
    _report(
        9,
        "total error = variance + bias on a noiseless realizable target",
        ok and dt < 300.0,
        f"|total-(gen+app)| = {gap:.2e} <= 3*SE = {3 * rep.holdout_se:.2e}, {dt:.1f}s",
    )
