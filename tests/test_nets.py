"""Tests for the network data model and the explicit constructions."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolnet import nets
from kolnet.nets import (
    Architecture,
    ClippedNetwork,
    Parametrization,
    clip_network,
    clipped_as_standard,
    compose_average,
    evaluate,
    load_network,
    put_payoff_network,
    save_network,
)
from kolnet.sde import extract_affine_batch, load_problem

from helpers import PROBLEMS, random_maps


def naive_forward(layers, x):
    """Independent reference evaluator: plain loops, no shared code paths."""
    h = [float(v) for v in x]
    n_layers = len(layers)
    for idx, (W, B) in enumerate(layers):
        out = []
        for i in range(len(B)):
            s = B[i]
            for j in range(len(h)):
                s += W[i][j] * h[j]
            out.append(s)
        if idx < n_layers - 1:
            out = [max(0.0, v) for v in out]
        h = out
    return np.array(h)


def random_params(widths, seed, scale=1.0):
    rs = np.random.RandomState(seed)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        W = rs.uniform(-scale, scale, size=(fan_out, fan_in))
        B = rs.uniform(-scale, scale, size=fan_out)
        layers.append((W, B))
    return Parametrization(tuple(layers))


# ---------------------------------------------------------------------------
# Layering


def test_nets_and_bounds_load_without_sampling_or_scipy():
    # The package namespace used to re-export every module's names, so
    # importing any module ran kolnet.sde and kolnet.rng and loaded scipy.
    probe = ("import sys, kolnet.nets, kolnet.bounds; print(' '.join(m for m in sys.modules"
             " if m.startswith('scipy') or m in ('kolnet.sde', 'kolnet.rng')))")
    env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == []


# ---------------------------------------------------------------------------
# Architecture / Parametrization data model


def test_architecture_derived_quantities():
    a = Architecture((3, 5, 2, 1))
    assert a.depth == 3
    assert a.max_width == 5
    assert a.input_width == 3
    assert a.output_width == 1
    # P(a) = sum over layers of (a_l * a_{l-1} + a_l)
    assert a.param_count == (5 * 3 + 5) + (2 * 5 + 2) + (1 * 2 + 1)


def test_architecture_is_built_once_and_evaluate_keeps_its_bits():
    p = random_params((4, 7, 5, 1), seed=0)
    X = np.random.RandomState(3).uniform(-2, 2, size=(50, 4))
    fresh = evaluate(random_params((4, 7, 5, 1), seed=0), X)
    assert p.architecture is p.architecture
    assert np.array_equal(evaluate(p, X), fresh)
    assert np.array_equal(evaluate(p, X), fresh)


def test_architecture_rejects_bad_widths():
    with pytest.raises(ValueError):
        Architecture((3,))
    with pytest.raises(ValueError):
        Architecture((3, 0, 1))


def test_parametrization_max_norm_and_bound():
    W1 = np.array([[0.5], [-2.5]])
    B1 = np.array([0.25, 0.0])
    W2 = np.array([[1.0, 1.0]])
    B2 = np.array([-0.75])
    p = Parametrization(((W1, B1), (W2, B2)))
    assert p.architecture.widths == (1, 2, 1)
    assert p.max_norm() == 2.5


def test_parametrization_shape_mismatch_rejected():
    W1 = np.array([[1.0, 2.0]])
    B1 = np.array([0.0, 0.0])  # bias length 2 vs weight rows 1
    with pytest.raises(ValueError):
        Parametrization(((W1, B1),))


# ---------------------------------------------------------------------------
# realization: evaluate, one row or a batch


def test_realize_single_affine_layer():
    p = Parametrization(((np.array([[2.0]]), np.array([1.0])),))
    assert evaluate(p, [[3.0]])[0] == pytest.approx([7.0])


def test_realize_absolute_value_network():
    # ReLU(x) + ReLU(-x) = |x|
    W1 = np.array([[1.0], [-1.0]])
    B1 = np.zeros(2)
    W2 = np.array([[1.0, 1.0]])
    B2 = np.zeros(1)
    p = Parametrization(((W1, B1), (W2, B2)))
    assert evaluate(p, [[-3.0]])[0] == pytest.approx([3.0])
    assert evaluate(p, [[2.5]])[0] == pytest.approx([2.5])


def test_realize_matches_naive_oracle():
    p = random_params((4, 7, 5, 1), seed=0)
    rs = np.random.RandomState(1)
    layer_lists = [([list(r) for r in W], list(B)) for W, B in p.layers]
    for _ in range(10):
        x = rs.uniform(-2, 2, size=4)
        got = evaluate(p, [x])[0]
        want = naive_forward(layer_lists, x)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_evaluate_batch_matches_single_rows():
    p = random_params((3, 6, 1), seed=2)
    X = np.random.RandomState(3).uniform(-1, 1, size=(20, 3))
    Y = evaluate(p, X)
    for i in range(20):
        assert Y[i] == pytest.approx(evaluate(p, [X[i]])[0], abs=1e-14)


def test_realize_dimension_mismatch():
    p = random_params((3, 2, 1), seed=4)
    with pytest.raises(ValueError, match=r"expected \(n, 3\)"):
        evaluate(p, [[1.0, 2.0]])


def test_realize_piecewise_affine_continuity():
    p = random_params((2, 5, 5, 1), seed=5)
    rs = np.random.RandomState(6)
    X = rs.uniform(-2, 2, size=(1000, 2))
    h = 1e-7
    base = evaluate(p, X)
    bumped = evaluate(p, X + h)
    # Continuity: an O(h) input perturbation moves the output by O(h).
    assert np.max(np.abs(bumped - base)) < 1e-4


# ---------------------------------------------------------------------------
# clip_network


def test_clip_network_exact_weights():
    p = clip_network(1.5)
    (W1, B1), (W2, B2), (W3, B3) = p.layers
    assert np.array_equal(W1, [[1.0], [-1.0]])
    assert np.array_equal(B1, [0.0, 0.0])
    assert np.array_equal(W2, [[-1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(B2, [1.5, 1.5])
    assert np.array_equal(W3, [[-1.0, 1.0]])
    assert np.array_equal(B3, [0.0])
    assert p.architecture.widths == (1, 2, 2, 1)


def test_clip_network_pointwise_values():
    p = clip_network(1.0)
    assert evaluate(p, [[0.0]])[0] == pytest.approx([0.0])
    assert evaluate(p, [[2.0]])[0] == pytest.approx([1.0])
    assert evaluate(p, [[-0.5]])[0] == pytest.approx([-0.5])


def test_clip_network_zero_error_on_grid():
    D = 0.7
    p = clip_network(D)
    x = np.linspace(-3 * D, 3 * D, 10000)
    got = evaluate(p, x[:, None])[:, 0]
    want = np.minimum(np.abs(x), D) * np.sign(x)
    assert np.max(np.abs(got - want)) == 0.0


def test_clip_network_max_norm():
    assert clip_network(1.0).max_norm() == 1.0
    assert clip_network(3.0).max_norm() == 3.0


def test_clip_network_rejects_nonpositive():
    with pytest.raises(ValueError):
        clip_network(0.0)
    with pytest.raises(ValueError):
        clip_network(-1.0)


# ---------------------------------------------------------------------------
# put_payoff_network


def test_put_payoff_values():
    c = np.array([0.5, 0.5])
    p = put_payoff_network(c, 1.0)
    assert p.architecture.widths == (2, 1, 1, 1)
    assert evaluate(p, [[0.0, 0.0]])[0] == pytest.approx([1.0])
    assert evaluate(p, [[2.0, 2.0]])[0] == pytest.approx([0.0])
    assert evaluate(p, [[0.5, 0.5]])[0] == pytest.approx([0.5])


def test_put_payoff_exact_weights():
    c = np.array([0.3, 0.7])
    D = 2.0
    p = put_payoff_network(c, D)
    (W1, B1), (W2, B2), (W3, B3) = p.layers
    assert np.array_equal(W1, [[-0.3, -0.7]])
    assert np.array_equal(B1, [D])
    assert np.array_equal(W2, [[-1.0]])
    assert np.array_equal(B2, [D])
    assert np.array_equal(W3, [[-1.0]])
    assert np.array_equal(B3, [D])


def test_put_payoff_closed_form_zero_error():
    rs = np.random.RandomState(7)
    c = rs.uniform(0.1, 1.0, size=3)
    D = 1.25
    p = put_payoff_network(c, D)
    X = rs.uniform(-4, 4, size=(10000, 3))
    got = evaluate(p, X)[:, 0]
    want = np.minimum(np.maximum(D - X @ c, 0.0), D)
    assert np.max(np.abs(got - want)) == 0.0
    assert got.min() >= 0.0 and got.max() <= D


def test_put_payoff_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        put_payoff_network([1.0], 0.0)


# ---------------------------------------------------------------------------
# clipped_as_standard / ClippedNetwork


def test_clipped_as_standard_identity_net():
    p = Parametrization(((np.array([[1.0]]), np.array([0.0])),))
    q = clipped_as_standard(p, 1.0)
    assert evaluate(q, [[5.0]])[0] == pytest.approx([1.0])
    assert evaluate(q, [[-5.0]])[0] == pytest.approx([-1.0])
    assert evaluate(q, [[0.25]])[0] == pytest.approx([0.25])


def test_clipped_as_standard_matches_direct_composition():
    p = random_params((3, 8, 4, 1), seed=8, scale=1.5)
    D = 0.6
    q = clipped_as_standard(p, D)
    rs = np.random.RandomState(9)
    X = rs.uniform(-2, 2, size=(100, 3))
    raw = evaluate(p, X)[:, 0]
    want = np.clip(raw, -D, D)
    got = evaluate(q, X)[:, 0]
    # Inside the clip band the tail computes D - (D - raw), which can differ
    # from raw by one ulp; anything beyond rounding would be a real bug.
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.all(np.abs(got) <= D)


def test_clipped_as_standard_max_norm():
    # The clip tail carries unit-magnitude weights, so the identity
    # max_norm = max(old max_norm, D) is meaningful for D >= 1 (the regime
    # every bound in this package assumes).
    p = random_params((2, 4, 1), seed=10, scale=0.5)
    q = clipped_as_standard(p, 2.0)
    assert q.max_norm() == max(p.max_norm(), 2.0)
    big = random_params((2, 4, 1), seed=10, scale=3.0)
    q2 = clipped_as_standard(big, 1.0)
    assert q2.max_norm() == max(big.max_norm(), 1.0)


def test_clipped_as_standard_appends_clip_tail():
    p = random_params((2, 5, 3, 1), seed=11)
    q = clipped_as_standard(p, 1.0)
    assert q.architecture.widths[-3:] == (2, 2, 1)
    assert q.architecture.input_width == 2


def test_clipped_as_standard_requires_scalar_output():
    p = random_params((2, 3, 2), seed=12)
    with pytest.raises(ValueError):
        clipped_as_standard(p, 1.0)


def test_clipped_network_callable():
    p = random_params((2, 6, 1), seed=13, scale=2.0)
    f = ClippedNetwork(p, 0.5)
    X = np.random.RandomState(14).uniform(-3, 3, size=(50, 2))
    out = f(X)
    assert np.all(np.abs(out) <= 0.5)
    raw = evaluate(p, X)[:, 0]
    inside = np.abs(raw) < 0.5
    assert np.array_equal(out[inside], raw[inside])


# ---------------------------------------------------------------------------
# compose_average


def test_compose_average_identity_single_map():
    eta = random_params((3, 5, 1), seed=15)
    theta = compose_average(eta, np.eye(3)[None], np.zeros((1, 3)))
    X = np.random.RandomState(16).uniform(-1, 1, size=(50, 3))
    assert np.max(np.abs(evaluate(theta, X) - evaluate(eta, X))) <= 1e-12


def test_compose_average_param_count_small_case():
    # b = (1,1,1), n = 2: the block construction yields arch (1,2,1), P = 7.
    eta = random_params((1, 1, 1), seed=17)
    rs = np.random.RandomState(18)
    theta = compose_average(eta, *random_maps(rs, 2, 1))
    assert theta.architecture.widths == (1, 2, 1)
    assert theta.architecture.param_count == 7
    assert theta.architecture.param_count <= 4 * eta.architecture.param_count


def test_compose_average_matches_direct_average():
    eta = random_params((2, 3, 1), seed=19)
    rs = np.random.RandomState(20)
    Ms, Ns = random_maps(rs, 4, 2)
    theta = compose_average(eta, Ms, Ns)
    X = rs.uniform(-2, 2, size=(200, 2))
    want = np.zeros((200, 1))
    for M, N in zip(Ms, Ns):
        want += evaluate(eta, X @ M.T + N)
    want /= len(Ms)
    assert np.max(np.abs(evaluate(theta, X) - want)) <= 1e-10


def test_compose_average_depth_and_width():
    eta = random_params((2, 4, 3, 1), seed=21)
    rs = np.random.RandomState(22)
    n = 5
    theta = compose_average(eta, *random_maps(rs, n, 2))
    a = theta.architecture
    b = eta.architecture
    assert a.depth == b.depth
    # Hidden widths of b dominate here, so the max width scales exactly by n.
    assert a.max_width == n * b.max_width
    assert a.param_count <= n * n * b.param_count


def test_compose_average_theta_norm_cap():
    rs = np.random.RandomState(23)
    for trial in range(20):
        d = rs.randint(1, 4)
        eta = random_params((d, rs.randint(2, 5), 1), seed=100 + trial)
        n = rs.randint(1, 6)
        Ms, Ns = random_maps(rs, n, d)
        theta = compose_average(eta, Ms, Ns)
        cap = (
            np.sqrt(d)
            * eta.max_norm()
            * max(
                np.linalg.norm(M, "fro") + np.linalg.norm(N) + 1.0
                for M, N in zip(Ms, Ns)
            )
        )
        assert theta.max_norm() <= cap + 1e-12


def test_compose_average_single_affine_layer_degenerate():
    # A depth-1 eta has no hidden layer to stack; the average of affine maps
    # is itself a single affine layer.
    eta = random_params((2, 1), seed=24)
    rs = np.random.RandomState(25)
    Ms, Ns = random_maps(rs, 3, 2)
    theta = compose_average(eta, Ms, Ns)
    assert theta.architecture.depth == 1
    X = rs.uniform(-1, 1, size=(100, 2))
    want = np.mean(
        [evaluate(eta, X @ M.T + N) for M, N in zip(Ms, Ns)], axis=0
    )
    assert np.max(np.abs(evaluate(theta, X) - want)) <= 1e-12


def test_compose_average_rejects_empty_and_mismatched():
    eta = random_params((2, 3, 1), seed=26)
    bad = [
        ([], []),
        (np.zeros((0, 2, 2)), np.zeros((0, 2))),  # n = 0
        (np.eye(3)[None], np.zeros((1, 3))),  # d does not match eta
        (np.eye(2), np.zeros((1, 2))),  # M not a stack
        (np.zeros((2, 2, 3)), np.zeros((2, 2))),  # M not (n, d, d)
        (np.zeros((2, 2, 2)), np.zeros((3, 2))),  # N holds another n
        (np.zeros((2, 2, 2)), np.zeros(2)),  # N not a stack
    ]
    for M, N in bad:
        with pytest.raises(ValueError):
            compose_average(eta, M, N)


def per_map_composition(eta, Ms, Ns):
    """compose_average's layers assembled one affine map at a time."""
    n = len(Ms)
    V1, A1 = eta.layers[0]
    firsts = [(V1 @ M, V1 @ N + A1) for M, N in zip(Ms, Ns)]
    if eta.architecture.depth == 1:
        W, B = 0, 0
        for V1M, V1N in firsts:
            W, B = W + V1M, B + V1N
        return [(W / n, B / n)]
    layers = [(np.vstack([W for W, _ in firsts]), np.concatenate([B for _, B in firsts]))]
    for V, A in eta.layers[1:-1]:
        layers.append((np.array([V] * n), np.concatenate([A] * n)))
    V_L, A_L = eta.layers[-1]
    layers.append((np.hstack([V_L / n] * n), A_L))
    return layers


@pytest.mark.parametrize("case", ["shipped_put_n2048", "random_3_4_5_3_1", "depth_1"])
def test_compose_average_equals_per_map_construction(case):
    rs = np.random.RandomState(38)
    if case == "shipped_put_n2048":
        prob = load_problem(PROBLEMS / "basket_put_d5.txt")
        eta, (Ms, Ns) = prob.payoff, extract_affine_batch(prob, np.arange(2048))
    elif case == "random_3_4_5_3_1":
        eta, (Ms, Ns) = random_params((3, 4, 5, 3, 1), seed=39), random_maps(rs, 16, 3)
    else:
        eta, (Ms, Ns) = random_params((3, 2), seed=40), random_maps(rs, 50, 3)
    theta = compose_average(eta, Ms, Ns)
    want = per_map_composition(eta, Ms, Ns)
    assert len(theta.layers) == len(want)
    for (W, B), (Wp, Bp) in zip(theta.layers, want):
        assert np.array_equal(W, Wp) and np.array_equal(B, Bp)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
def test_compose_average_bounds_property(d, hidden, n, seed):
    rs = np.random.RandomState(seed)
    eta = random_params((d, hidden, hidden, 1), seed=seed)
    Ms, Ns = random_maps(rs, n, d)
    theta = compose_average(eta, Ms, Ns)
    a, b = theta.architecture, eta.architecture
    assert a.param_count <= n * n * b.param_count
    assert a.depth == b.depth
    # Only hidden widths are stacked n times; input/output widths are fixed.
    assert a.max_width == max(d, 1, n * max(b.widths[1:-1]))
    assert a.max_width <= n * b.max_width
    if max(b.widths[1:-1]) == b.max_width:
        assert a.max_width == n * b.max_width
    cap = (
        np.sqrt(d)
        * eta.max_norm()
        * max(np.linalg.norm(M, "fro") + np.linalg.norm(N) + 1.0 for M, N in zip(Ms, Ns))
    )
    assert theta.max_norm() <= cap + 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    p = random_params((3, 7, 2, 1), seed=27, scale=3.0)
    path = tmp_path / "net.txt"
    save_network(p, path)
    q = load_network(path)
    assert q.architecture.widths == p.architecture.widths
    for (Wp, Bp), (Wq, Bq) in zip(p.layers, q.layers):
        assert np.array_equal(Wp, Wq)
        assert np.array_equal(Bp, Bq)


def test_dense_network_file_matches_the_dense_writer(tmp_path):
    # Every weight goes through the block-row writer as a one-block stack; a
    # dense network must come out as the old dense writer, one "%.17g" token
    # per entry, wrote it (exact zeros of either sign included).
    p = random_params((3, 5, 4, 1), seed=29, scale=3.0)
    layers = [(W.copy(), B.copy()) for W, B in p.layers]
    layers[0][0][1, 2], layers[0][0][2, 0], layers[1][1][1] = 0.0, -0.0, 0.0
    p = Parametrization(tuple(layers))
    path = tmp_path / "net.txt"
    save_network(p, path)
    row = lambda r: " ".join(f"{x:.17g}" for x in r) + "\n"
    expected = "arch: 3 5 4 1\n" + "".join(
        f"W{l}\n" + "".join(map(row, W)) + f"B{l}\n" + row(B)
        for l, (W, B) in enumerate(p.layers, start=1)
    )
    assert path.read_text() == expected
    assert "-0 " in expected


def test_saved_file_has_header(tmp_path):
    p = random_params((2, 3, 1), seed=28)
    path = tmp_path / "net.txt"
    save_network(p, path)
    first = path.read_text().splitlines()[0]
    assert first == "arch: 2 3 1"


def dense_layers(params):
    """Layers with every (n, b_l, b_{l-1}) block stack expanded to its dense matrix."""
    layers = []
    for W, B in params.layers:
        if W.ndim == 3:
            n, out_w, in_w = W.shape
            dense = np.zeros((n * out_w, n * in_w))
            for j in range(n):
                dense[j * out_w : (j + 1) * out_w, j * in_w : (j + 1) * in_w] = W[j]
            W = dense
        layers.append((W, B))
    return layers


def oracle_text(params):
    """The file format written entry by entry from the dense layers."""
    lines = ["arch: " + " ".join(str(w) for w in params.architecture.widths)]
    for l, (W, B) in enumerate(dense_layers(params), start=1):
        lines.append(f"W{l}")
        lines.extend(" ".join(f"{x:.17g}" for x in row) for row in W)
        lines.append(f"B{l}")
        lines.append(" ".join(f"{x:.17g}" for x in B))
    return "\n".join(lines) + "\n"


def test_save_composed_network_matches_dense_oracle(tmp_path):
    rs = np.random.RandomState(29)
    eta = put_payoff_network(rs.uniform(0.1, 1.0, size=2), 1.0)
    theta = compose_average(eta, *random_maps(rs, 8, 2))
    assert [W.ndim for W, _ in theta.layers] == [2, 3, 2]
    path = tmp_path / "net.txt"
    save_network(theta, path)
    assert path.read_text() == oracle_text(theta)
    X = rs.uniform(-2, 2, size=(100, 2))
    assert np.array_equal(evaluate(load_network(path), X), evaluate(theta, X))


def test_save_special_values_match_dense_oracle(tmp_path):
    # Signed zeros, the smallest subnormal, huge and inexact values, in a
    # dense layer, a block stack and the biases.
    special = [0.0, -0.0, 5e-324, 1e300, 0.1, -0.0]
    W1 = np.array(special).reshape(6, 1)
    blocks = np.array(special[::-1] + special).reshape(3, 2, 2)
    W3 = np.array([special])
    p = Parametrization(((W1, np.array(special)), (blocks, np.array(special)), (W3, [-0.0])))
    path = tmp_path / "net.txt"
    save_network(p, path)
    text = path.read_text()
    assert text == oracle_text(p)
    assert "\n0 -0 4.9406564584124654e-324 1.0000000000000001e+300 0.10000000000000001 -0\n" in text
    q = load_network(path)
    for (Wq, Bq), (Wd, Bd) in zip(dense_layers(q), dense_layers(p)):
        assert np.array_equal(Wq, Wd) and np.array_equal(np.signbit(Wq), np.signbit(Wd))
        assert np.array_equal(Bq, Bd) and np.array_equal(np.signbit(Bq), np.signbit(Bd))


def test_save_composition_memory_is_a_small_share_of_the_file(tmp_path):
    # The dense middle layer is 4096 x 4096 tokens (about 34 MB of text);
    # the writer holds one row and the formatted blocks, not the file.
    rs = np.random.RandomState(41)
    n, d = 4096, 5
    theta = compose_average(
        put_payoff_network(np.full(d, 0.2), 1.0), 1.0 + 0.1 * rs.randn(n, d, d), 0.1 * rs.randn(n, d)
    )
    path = tmp_path / "net.txt"
    tracemalloc.start()
    try:
        save_network(theta, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 32e6
    assert peak < 0.1 * size, (peak, size)


@pytest.mark.parametrize("eta_case", ["put", "random_3_4_5_3_1"])
def test_load_returns_the_block_stacks_of_a_composition(tmp_path, eta_case):
    rs = np.random.RandomState(42)
    if eta_case == "put":
        eta = put_payoff_network(rs.uniform(0.1, 1.0, size=3), 1.0)
    else:
        eta = random_params((3, 4, 5, 3, 1), seed=43)
    theta = compose_average(eta, *random_maps(rs, 16, 3))
    path = tmp_path / "net.txt"
    save_network(theta, path)
    q = load_network(path)
    assert [W.shape for W, _ in q.layers] == [W.shape for W, _ in theta.layers]
    for (Wq, Bq), (Wp, Bp) in zip(q.layers, theta.layers):
        assert np.array_equal(Wq, Wp) and np.array_equal(Bq, Bp)
    X = rs.uniform(-2, 2, size=(300, 3))
    assert np.array_equal(evaluate(q, X), evaluate(theta, X))


def test_load_steps_over_doubled_separators(tmp_path):
    # Doubled spaces defeat the bisection over the writer's "0 " runs, so the
    # reader steps over the zeros token by token and still finds the blocks.
    rs = np.random.RandomState(47)
    theta = compose_average(random_params((3, 4, 5, 3, 1), seed=48), *random_maps(rs, 8, 3))
    path = tmp_path / "net.txt"
    save_network(theta, path)
    path.write_text(path.read_text().replace(" ", "  "))
    q = load_network(path)
    assert [W.shape for W, _ in q.layers] == [W.shape for W, _ in theta.layers]
    for (Wq, Bq), (Wp, Bp) in zip(q.layers, theta.layers):
        assert np.array_equal(Wq, Wp) and np.array_equal(Bq, Bp)


def test_load_keeps_a_trained_shape_network_dense(tmp_path):
    p = random_params((5, 64, 64, 1), seed=44)
    path = tmp_path / "net.txt"
    save_network(p, path)
    q = load_network(path)
    for (Wq, Bq), (Wp, Bp) in zip(q.layers, p.layers):
        assert Wq.ndim == 2
        assert np.array_equal(Wq, Wp) and np.array_equal(Bq, Bp)


def test_load_reads_off_block_entries_densely(tmp_path):
    # A nonzero or a "-0" outside the diagonal blocks makes the layer dense;
    # any other spelling of zero there counts as an entry too.
    rs = np.random.RandomState(45)
    theta = compose_average(random_params((2, 2, 2, 1), seed=46), *random_maps(rs, 3, 2))
    path = tmp_path / "net.txt"
    save_network(theta, path)
    lines = path.read_text().splitlines()
    at = lines.index("W2") + 1
    for token, want in [("0", 3), ("1.5", 2), ("-0", 2), ("0.0", 2)]:
        row = lines[at].split()
        row[-1] = token
        path.write_text("\n".join(lines[:at] + [" ".join(row)] + lines[at + 1 :]) + "\n")
        W = load_network(path).layers[1][0]
        assert W.ndim == want
        dense = dense_layers(theta)[1][0].copy()
        dense[0, -1] = float(token)
        assert np.array_equal(dense_layers(load_network(path))[1][0], dense)


def test_block_layers_evaluate_like_dense_expansion():
    rs = np.random.RandomState(30)
    X = rs.uniform(-2, 2, size=(500, 3))
    # 1x1 blocks (every shipped payoff): products over exact zeros change nothing.
    eta = put_payoff_network(rs.uniform(0.1, 1.0, size=3), 1.5)
    maps = random_maps(rs, 16, 3)
    theta = compose_average(eta, *maps)
    dense = Parametrization(tuple(dense_layers(theta)))
    assert dense.architecture == theta.architecture
    assert np.array_equal(evaluate(theta, X), evaluate(dense, X))
    # Larger blocks sum in another order: equal to rounding.
    eta = random_params((3, 4, 5, 3, 2), seed=31)
    theta = compose_average(eta, *maps)
    assert [W.shape for W, _ in theta.layers[1:-1]] == [(16, 5, 4), (16, 3, 5)]
    dense = Parametrization(tuple(dense_layers(theta)))
    got, want = evaluate(theta, X), evaluate(dense, X)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert theta.max_norm() == dense.max_norm()


def unchunked_forward(params, X):
    """All rows at once, one fresh array per layer."""
    h, last = X, len(params.layers) - 1
    for l, (W, B) in enumerate(params.layers):
        if W.ndim == 3:
            n, out_w, in_w = W.shape
            h = np.einsum("rji,joi->rjo", h.reshape(len(h), n, in_w), W)
            h = h.reshape(len(h), n * out_w) + B
        else:
            h = h @ W.T + B
        if l != last:
            h = np.maximum(h, 0.0)
    return h


def chunked_cases():
    rs = np.random.RandomState(34)
    maps = random_maps(rs, 16, 3)
    return {
        "dense": random_params((3, 40, 70, 2), seed=35),
        "block": compose_average(random_params((3, 4, 5, 3, 1), seed=36), *maps),
        "narrow": put_payoff_network([0.2, 0.3, 0.5], 1.0),  # widths (3, 1, 1, 1)
    }


@pytest.mark.parametrize("case", ["dense", "block", "narrow"])
def test_evaluate_chunks_match_unchunked_forward(case):
    params = chunked_cases()[case]
    rows = nets._CHUNK_ROWS
    X = np.random.RandomState(37).uniform(-2, 2, size=(2 * rows + 3, 3))
    got = evaluate(params, X)
    assert got.shape == (2 * rows + 3, params.architecture.output_width)
    assert np.array_equal(got, unchunked_forward(params, X))


@pytest.mark.parametrize("case", ["dense", "block", "narrow"])
def test_evaluate_zero_rows(case):
    params = chunked_cases()[case]
    assert evaluate(params, np.zeros((0, 3))).shape == (0, params.architecture.output_width)


def test_parametrization_rejects_bad_block_stack():
    with pytest.raises(ValueError):
        Parametrization(((np.ones((2, 1)), np.zeros(2)), (np.ones((2, 1, 1)), np.zeros(3))))
    with pytest.raises(ValueError):
        Parametrization(((np.ones((2, 1)), np.zeros(2)), (np.ones((3, 1, 1)), np.zeros(3))))
    with pytest.raises(ValueError):
        Parametrization(((np.ones((1, 1, 1, 1)), np.zeros(1)),))


def test_compose_average_huge_n_stays_linear():
    # The dense middle layer would hold n^2 = 1e10 entries (80 GB); the block
    # stack holds n.
    n, d, D = 100_000, 2, 1.0
    rs = np.random.RandomState(32)
    c = np.array([0.4, 0.6])
    Ms, Ns = 1.0 + 0.1 * rs.randn(n, d, d), 0.1 * rs.randn(n, d)
    theta = compose_average(put_payoff_network(c, D), Ms, Ns)
    assert theta.architecture.widths == (d, n, n, 1)
    assert sum(W.size + B.size for W, B in theta.layers) == n * (d + 1) + 2 * n + n + 1
    X = rs.uniform(0.5, 1.5, size=(64, d))
    z = X @ (Ms.transpose(0, 2, 1) @ c).T + Ns @ c
    want = np.mean(np.minimum(np.maximum(D - z, 0.0), D), axis=1)
    assert np.max(np.abs(evaluate(theta, X)[:, 0] - want)) <= 1e-12


def test_load_truncated_file_names_file_and_line(tmp_path):
    p = random_params((3, 4, 1), seed=33)
    path = tmp_path / "net.txt"
    save_network(p, path)
    lines = path.read_text().splitlines()
    for keep in range(1, len(lines)):
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(ValueError, match=f"{path}: file ends before"):
            load_network(path)


def test_load_malformed_rows_name_file_and_line(tmp_path):
    p = random_params((3, 4, 1), seed=34)
    path = tmp_path / "net.txt"
    save_network(p, path)
    lines = path.read_text().splitlines()
    cases = {
        3: " ".join(lines[3].split()[:-1]),  # W1 row 2 one entry short
        7: lines[7] + " 1.0",  # B1 one entry long
        9: lines[9].replace(lines[9].split()[0], "x1"),  # W2 token not a number
        0: "arch: 3 0 1",
        4: lines[4].replace(lines[4].split()[0], "nan"),  # W1 row 3 not finite
        5: lines[5].replace(lines[5].split()[1], "1e400"),  # W1 row 4 overflows
        11: "-inf",  # B2 not finite
    }
    for at, bad in cases.items():
        path.write_text("\n".join(lines[:at] + [bad] + lines[at + 1 :]) + "\n")
        with pytest.raises(ValueError, match=f"{path}:{at + 1}: "):
            load_network(path)
    path.write_text("\n".join(lines + ["W3"]) + "\n")
    with pytest.raises(ValueError, match=f"{path}:{len(lines) + 1}: unexpected"):
        load_network(path)
