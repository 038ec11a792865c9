"""Tests for the certificate calculators: Lipschitz constants, covering
numbers, concentration bounds, sample complexity, and scaling audits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolnet.bounds import (
    ApproximationFamily,
    ClassSpec,
    ball_covering_log,
    generalization_failure_log,
    kolmogorov_certificate,
    lipschitz_bound,
    network_covering_log,
    put_family,
    required_samples,
    sample_complexity_h,
    scaling_audit,
)
from kolnet.nets import Architecture, Parametrization, evaluate


# ---------------------------------------------------------------------------
# lipschitz_bound


def test_lipschitz_bound_hand_values():
    spec = ClassSpec(Architecture((2, 1)), R=1.0, D=1.0, u=0.0, v=1.0)
    assert lipschitz_bound(spec) == pytest.approx(4.0)
    spec2 = ClassSpec(Architecture((1, 1)), R=1.0, D=1.0, u=-1.0, v=1.0)
    assert lipschitz_bound(spec2) == pytest.approx(2.0)


def test_lipschitz_bound_formula():
    # 2 * max(1,|u|,|v|) * L^2 * R^(L-1) * max_width^L
    spec = ClassSpec(Architecture((2, 3, 1)), R=1.5, D=1.0, u=-2.0, v=1.0)
    want = 2.0 * 2.0 * 4.0 * 1.5 * 3.0**2
    assert lipschitz_bound(spec) == pytest.approx(want)


def test_lipschitz_bound_monotone_in_R():
    a = Architecture((2, 4, 1))
    vals = [
        lipschitz_bound(ClassSpec(a, R=r, D=1.0, u=0.0, v=1.0))
        for r in (1.0, 1.5, 2.0, 5.0)
    ]
    assert vals == sorted(vals)


def test_lipschitz_bound_rejects_small_R():
    with pytest.raises(ValueError):
        ClassSpec(Architecture((1, 1)), R=0.5, D=1.0, u=0.0, v=1.0)


def test_lipschitz_empirical_conformance_small():
    # A scaled-down version of the full conformance sweep: realization maps
    # must be Lipschitz in the parameters with the advertised constant.
    rs = np.random.RandomState(1)
    R = 1.0
    for trial in range(10):
        L = rs.randint(1, 4)
        widths = (1,) + tuple(int(w) for w in rs.randint(1, 6, size=L - 1)) + (1,)
        arch = Architecture(widths)
        spec = ClassSpec(arch, R=R, D=1.0, u=0.0, v=1.0)
        bound = lipschitz_bound(spec)
        grid = np.linspace(0.0, 1.0, 64)[:, None]
        for _ in range(50):
            def draw():
                return Parametrization(tuple(
                    (rs.uniform(-R, R, size=(widths[l + 1], widths[l])),
                     rs.uniform(-R, R, size=widths[l + 1]))
                    for l in range(L)
                ))
            p, q = draw(), draw()
            dist = max(
                max(np.abs(Wp - Wq).max(), np.abs(Bp - Bq).max())
                for (Wp, Bp), (Wq, Bq) in zip(p.layers, q.layers)
            )
            gap = np.abs(evaluate(p, grid) - evaluate(q, grid)).max()
            assert gap <= bound * dist + 1e-12


# ---------------------------------------------------------------------------
# covering numbers


def test_ball_covering_log_hand_values():
    assert ball_covering_log(1, 1.0, 0.5) == pytest.approx(math.log(2))
    assert ball_covering_log(10, 1.0, 0.9) == pytest.approx(10 * math.log(2))


def test_ball_covering_log_never_zero_for_R_at_least_one():
    # ceil(R/r) >= 2 whenever R/r > 1, so the log never vanishes.
    for r in (0.999, 0.5, 0.01):
        assert ball_covering_log(3, 1.0, r) >= 3 * math.log(2)


def test_ball_covering_log_rejects_bad_radius():
    with pytest.raises(ValueError):
        ball_covering_log(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ball_covering_log(1, 1.0, 0.0)


def test_network_covering_log_hand_value():
    spec = ClassSpec(Architecture((1, 1)), R=1.0, D=1.0, u=-1.0, v=1.0)
    assert network_covering_log(spec, 0.5) == pytest.approx(2 * math.log(8))


def test_network_covering_log_monotone_in_r():
    spec = ClassSpec(Architecture((2, 3, 1)), R=2.0, D=1.0, u=0.0, v=1.0)
    vals = [network_covering_log(spec, r) for r in (0.1, 0.3, 0.5, 0.9)]
    assert vals == sorted(vals, reverse=True)


def test_network_covering_brute_force_conformance():
    # Snap every parameter to a grid of spacing r/Lip: the snapped networks
    # form an explicit cover of the realization set with log-cardinality
    # P(a) * ln(ceil(Lip * R / r)), which must not exceed the bound.
    arch = Architecture((1, 2, 1))
    R, r = 1.0, 0.5
    spec = ClassSpec(arch, R=R, D=1.0, u=0.0, v=1.0)
    lip = lipschitz_bound(spec)
    delta = r / lip
    log_cover = arch.param_count * math.log(math.ceil(R / delta))
    assert log_cover <= network_covering_log(spec, r) + 1e-9
    # Spot-check that snapping really is an r-cover of the realizations.
    rs = np.random.RandomState(2)
    grid = np.linspace(0.0, 1.0, 64)[:, None]
    for _ in range(50):
        layers = tuple(
            (rs.uniform(-R, R, size=(arch.widths[l + 1], arch.widths[l])),
             rs.uniform(-R, R, size=arch.widths[l + 1]))
            for l in range(arch.depth)
        )
        snapped = tuple(
            (np.round(W / (2 * delta)) * 2 * delta, np.round(B / (2 * delta)) * 2 * delta)
            for W, B in layers
        )
        gap = np.abs(
            evaluate(Parametrization(layers), grid)
            - evaluate(Parametrization(snapped), grid)
        ).max()
        assert gap <= r + 1e-12


# ---------------------------------------------------------------------------
# generalization_failure_log


def test_failure_log_formula():
    ln_cov, m, eps, D = 3.0, 1000, 0.5, 1.0
    want = math.log(2) + ln_cov - m * eps**2 / (128 * D**4)
    assert generalization_failure_log(ln_cov, m, eps, D) == pytest.approx(want)


def test_failure_log_dominated_by_m():
    small = generalization_failure_log(5.0, 10**4, 0.5, 1.0)
    big = generalization_failure_log(5.0, 10**9, 0.5, 1.0)
    assert big < small
    assert big < -1000


def test_failure_log_monotone_in_eps():
    a = generalization_failure_log(1.0, 1000, 0.2, 1.0)
    b = generalization_failure_log(1.0, 1000, 0.4, 1.0)
    assert b < a


# ---------------------------------------------------------------------------
# sample_complexity_h / required_samples


# Frozen oracle (mpmath, 50 digits):
# 128 * 10^2 * (ln 2 + ln 100 + 0 + 10 * ln(128*10*4)) = 1161054.9062001097...
H_ORACLE = 1161054.9062001097


def test_h_documented_example():
    got = sample_complexity_h(10.0, math.log(100), 0.0, 10.0, 2.0, 1.0, 0.0, 1.0)
    assert got == pytest.approx(H_ORACLE, rel=1e-12)


def test_h_doubling_ratio():
    h1 = sample_complexity_h(10.0, math.log(100), 0.0, 10.0, 2.0, 1.0, 0.0, 1.0)
    h2 = sample_complexity_h(20.0, math.log(100), 0.0, 10.0, 2.0, 1.0, 0.0, 1.0)
    # The bracket grows with x1, so doubling x1 more than quadruples h.
    assert h2 > 4.0 * h1
    assert h2 / h1 == pytest.approx(4.305663, rel=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=0.0, max_value=5),
    st.floats(min_value=1, max_value=100),
    st.floats(min_value=1, max_value=10),
)
def test_h_positive_and_monotone(x1, x2, x3, x4, x5):
    base = sample_complexity_h(x1, x2, x3, x4, x5, 1.0, 0.0, 1.0)
    assert base > 0
    assert sample_complexity_h(x1 * 2, x2, x3, x4, x5, 1.0, 0.0, 1.0) > base
    assert sample_complexity_h(x1, x2 + 1, x3, x4, x5, 1.0, 0.0, 1.0) > base


def test_required_samples_is_integer_ceiling():
    spec = ClassSpec(Architecture((1, 4, 1)), R=2.0, D=1.0, u=0.0, v=1.0)
    m = required_samples(0.1, 0.05, spec)
    a = spec.architecture
    want = sample_complexity_h(
        10.0, math.log(20.0), math.log(2.0 * a.max_width),
        a.param_count, a.depth, 1.0, 0.0, 1.0,
    )
    assert m == math.ceil(want)


def test_required_samples_approximation_form_doubles_x1():
    # With an eps/2 approximator known, the count is taken at eps/2: x1 = 2/eps.
    spec = ClassSpec(Architecture((1, 4, 1)), R=2.0, D=1.0, u=0.0, v=1.0)
    m_gen = required_samples(0.1, 0.05, spec)
    m_app = required_samples(0.1 / 2, 0.05, spec)
    assert m_app > m_gen
    a = spec.architecture
    want = sample_complexity_h(
        20.0, math.log(20.0), math.log(2.0 * a.max_width),
        a.param_count, a.depth, 1.0, 0.0, 1.0,
    )
    assert m_app == math.ceil(want)


@pytest.mark.parametrize("widths", [(1, 4, 1), (5, 64, 64, 1), (3, 8, 8, 8, 1), (2, 1)])
def test_required_samples_is_least_m_the_lemmas_certify(widths):
    # Covering the class at radius eps/(32 D) and a union bound over the
    # cover fail with log-probability at most ln rho from m samples on; m is
    # the first count where they do.
    for R, D, (u, v), eps, rho in itertools.product(
            (1.0, 2.5), (1.0, 2.0), ((0.0, 1.0), (0.5, 1.5), (-3.0, 2.0)), (0.5, 0.1, 0.01), (0.1, 0.01)):
        spec = ClassSpec(Architecture(widths), R=R, D=D, u=u, v=v)
        m = required_samples(eps, rho, spec)
        ln_cov = network_covering_log(spec, eps / (32.0 * D))
        case, ln_rho = (R, D, u, v, eps, rho), math.log(rho)
        assert generalization_failure_log(ln_cov, m, eps, D) <= ln_rho + 1e-9 * abs(ln_rho), case
        assert generalization_failure_log(ln_cov, m - 1, eps, D) > ln_rho, case


# ---------------------------------------------------------------------------
# families / certificates


def test_put_family_constants():
    fam = put_family()
    assert fam.nu == 0.5
    assert fam.gamma == 1.0
    assert fam.alpha == fam.beta == fam.kappa == fam.lmbda == 0.0
    assert fam.tau == 0.5


def test_tau_recomputed():
    fam = ApproximationFamily(nu=0.5, alpha=0.25)
    assert fam.tau == 1.0


def test_family_validation():
    with pytest.raises(ValueError):
        ApproximationFamily(nu=0.25)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ApproximationFamily(nu=bad)
        with pytest.raises(ValueError, match="finite"):
            ApproximationFamily(nu=0.5, gamma=bad)


def put_arch_of_delta(d):
    """Put payoff architecture (d,1,1,1).

    The representation is exact, so the architecture does not depend on the
    requested accuracy delta.
    """
    return Architecture((d, 1, 1, 1))


def test_certificate_put_family_exponents():
    fam = put_family()
    eps, rho, C = 0.1, 0.05, 1.0
    for d in (1, 2, 5):
        cert = kolmogorov_certificate(d, eps, rho, fam, put_arch_of_delta(d), C)
        # tau = 1/2, lambda = kappa = 0, gamma = 1, beta = 0:
        # P cap: C d^(tau*2+1) eps^-2 = C d^2 eps^-2
        assert cert.param_cap == pytest.approx(C * d**2 * eps**-2)
        # R cap: C d^(tau/2*... ) -> C d^2 eps^-1
        assert cert.R_cap == pytest.approx(C * d**2 * eps**-1)
        # width cap: C d^tau eps^-1 * max_width(b); b = (d,1,1,1)
        assert cert.width_cap == pytest.approx(C * d**0.5 * eps**-1 * max(d, 1))
        assert cert.depth == 3
        assert cert.samples >= 1
        assert isinstance(cert.samples, int)


@pytest.mark.parametrize(
    "fam", [put_family(), ApproximationFamily(nu=1.0, alpha=0.2, kappa=0.5, lmbda=1.0)], ids=["put", "general"]
)
def test_certificate_samples_are_h_at_its_own_caps(fam):
    grid = itertools.product((1, 5, 20), (0.5, 0.1, 0.01), (0.1, 0.01), (1.0, 3.0), (1.0, 2.0))
    for d, eps, rho, C, D in grid:
        try:
            cert = kolmogorov_certificate(d, eps, rho, fam, put_arch_of_delta(d), C, D=D)
        except OverflowError:  # the general family at d = 20, eps = 0.01, D = 2 counts past int64
            continue
        want = sample_complexity_h(
            2.0 / eps, math.log(1.0 / rho), math.log(max(cert.R_cap * cert.width_cap, 1.0)),
            cert.param_cap, cert.depth, D, 0.0, 1.0,
        )
        assert cert.samples == math.ceil(want), (d, eps, rho, C, D)


def test_certificate_rows_have_formulas():
    cert = kolmogorov_certificate(2, 0.2, 0.1, put_family(), put_arch_of_delta(2), 1.0)
    rows = cert.rows()
    names = [r[0] for r in rows]
    assert "m" in names and "P(a)" in names and "R" in names
    for _, value, formula in rows:
        assert formula  # every output carries its formula string
        assert np.isfinite(float(value))


def test_certificate_requires_positive_C():
    with pytest.raises(ValueError):
        kolmogorov_certificate(1, 0.1, 0.05, put_family(), put_arch_of_delta(1), 0.0)


@pytest.mark.parametrize("C, D", [(np.nan, 1.0), (np.inf, 1.0), (1.0, 0.5), (1.0, 0.0),
                                  (1.0, np.nan), (1.0, np.inf)])
def test_certificate_rejects_bad_scale_or_clip(C, D):
    with pytest.raises(ValueError):
        kolmogorov_certificate(2, 0.1, 0.1, put_family(), put_arch_of_delta(2), C, D=D)


def test_certificate_rejects_bad_eps():
    with pytest.raises(ValueError):
        kolmogorov_certificate(1, 1.5, 0.05, put_family(), put_arch_of_delta(1), 1.0)


# ---------------------------------------------------------------------------
# scaling_audit


def test_scaling_audit_exact_square_law():
    results = [(d, float(d**2), 0.01) for d in (1, 2, 4, 8)]
    audit = scaling_audit(results, threshold=3.0)
    assert audit.slope == pytest.approx(2.0, abs=1e-9)
    assert audit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert audit.passed


def test_scaling_audit_exponential_fails():
    # Exponential growth masquerades as a steep power law on a log-log fit;
    # with a wide enough d-range the fitted slope exceeds any cubic threshold.
    results = [(d, float(2**d), 0.01) for d in (2, 4, 8, 16)]
    audit = scaling_audit(results, threshold=3.0)
    assert audit.slope > 3.0
    assert not audit.passed


def test_scaling_audit_slope_grows_with_range():
    narrow = scaling_audit([(d, float(2**d), 0.01) for d in (2, 4, 8)])
    wide = scaling_audit([(d, float(2**d), 0.01) for d in (2, 4, 8, 16)])
    assert wide.slope > narrow.slope


def test_scaling_audit_constant_slope_zero():
    results = [(d, 7.0, 0.01) for d in (1, 2, 4)]
    audit = scaling_audit(results, threshold=3.0)
    assert audit.slope == pytest.approx(0.0, abs=1e-12)
    assert audit.passed


def test_scaling_audit_needs_three_dimensions():
    with pytest.raises(ValueError):
        scaling_audit([(2, 4.0, 0.01), (2, 4.0, 0.01)])
    with pytest.raises(ValueError):
        scaling_audit([(1, 1.0, 0.01), (2, 4.0, 0.01)])


# ---------------------------------------------------------------------------
# Hoeffding conformance (scaled-down; the full sweep runs in acceptance)


def linear_test_functions():
    """Eight affine predictors with values in [-1, 1] on [0, 1]."""
    return [(a, b) for a, b in [
        (0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (-1.0, 1.0),
        (0.5, 0.25), (-0.5, 0.75), (1.0, -0.5), (0.25, 0.0),
    ]]


def affine_risk(a, b):
    # E[(a X + b - X)^2] for X uniform on [0, 1]: exact polynomial integral.
    g = a - 1.0
    return g * g / 3.0 + g * b + b * b


def hoeffding_conformance(m, eps, reps, seed):
    funcs = linear_test_functions()
    true = np.array([affine_risk(a, b) for a, b in funcs])
    rs = np.random.RandomState(seed)
    exceed = 0
    for start in range(0, reps, 1000):
        k = min(1000, reps - start)
        X = rs.uniform(0.0, 1.0, size=(k, m))
        sup_dev = np.zeros(k)
        for j, (a, b) in enumerate(funcs):
            emp = ((a * X + b - X) ** 2).mean(axis=1)
            sup_dev = np.maximum(sup_dev, np.abs(emp - true[j]))
        exceed += int((sup_dev >= eps / 4.0).sum())
    freq = exceed / reps
    bound = min(1.0, 8 * 2 * math.exp(-m * eps**2 / 128.0))
    return freq, bound


def test_hoeffding_union_bound_sound():
    freq, bound = hoeffding_conformance(m=1500, eps=0.8, reps=2000, seed=3)
    assert freq <= bound
    # The bound is expected to be loose (documented, not penalized): the
    # observed frequency is typically orders of magnitude below it.
    assert bound < 0.01
