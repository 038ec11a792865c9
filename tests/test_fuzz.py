"""Fuzz tests for the two text parsers (problem files and network files) and
the network writer's row formatter.

One value token of a valid file is replaced by drawn text.  The result must
either parse into an object whose every number is finite, or raise
ValueError whose message starts with the file's name.  The row formatter
must write every finite float64 as its per-token ``%.17g`` format.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kolnet.nets import Parametrization, _format_rows, compose_average, load_network, save_network
from kolnet.sde import problem_from_text

PROBLEM = Path(__file__).resolve().parent.parent / "problems" / "put_d1_gbm.txt"

VALUE_TEXT = st.one_of(
    st.sampled_from([
        "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e400", "-1e400",
        "5e-324", "-5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
        "-0.0", "0", "-1", "-0.5", "1_0", "",
    ]),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=12),
)

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def value_slots(lines, is_value):
    """(line index, token index) of every token that ``is_value`` accepts."""
    return [
        (i, j)
        for i, line in enumerate(lines)
        for j, token in enumerate(line.split())
        if is_value(line, j, token)
    ]


def replace_token(lines, slot, text):
    i, j = slot
    tokens = lines[i].split()
    tokens[j] = text
    return lines[:i] + [" ".join(tokens)] + lines[i + 1 :]


def all_finite(arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


def layer_arrays(params: Parametrization):
    return [a for W, B in params.layers for a in (W, B)]


PROBLEM_LINES = PROBLEM.read_text().splitlines()
PROBLEM_SLOTS = value_slots(
    PROBLEM_LINES, lambda line, j, token: not line.startswith("#") and j > 0
)


@FUZZ
@given(slot=st.sampled_from(PROBLEM_SLOTS), text=VALUE_TEXT)
def test_problem_parser_parses_finite_or_names_file(slot, text):
    source = str(PROBLEM)
    lines = replace_token(PROBLEM_LINES, slot, text)
    try:
        p = problem_from_text("\n".join(lines) + "\n", base_dir=PROBLEM.parent, source=source)
    except ValueError as exc:
        assert str(exc).startswith(source), str(exc)
        return
    co = p.coeffs
    scalars = [p.horizon, p.clip_amplitude, p.u, p.v, float(p.steps)]
    assert all_finite([co.A, co.b, *co.C, scalars, *layer_arrays(p.payoff)])


def _network_lines(params: Parametrization):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        save_network(params, path)
        return path.read_text().splitlines()


def _network_slots(lines):
    return value_slots(
        lines,
        lambda line, j, token: token != "arch:" and not (token[0] in "WB" and token[1:].isdigit()),
    )


_RS = np.random.RandomState(0)
NETWORK_LINES = _network_lines(Parametrization(tuple(
    (_RS.randn(b, a), _RS.randn(b)) for a, b in [(2, 3), (3, 1)]
)))
NETWORK_SLOTS = _network_slots(NETWORK_LINES)

# An averaged composition of eta (2,3,2,1) with 3 maps: its middle layer is
# read as a block stack, and its slots include the off-block "0" tokens, so
# a drawn nonzero there makes the reader fall back to a dense layer.
BLOCK_LINES = _network_lines(compose_average(
    Parametrization(tuple((_RS.randn(b, a), _RS.randn(b)) for a, b in [(2, 3), (3, 2), (2, 1)])),
    _RS.randn(3, 2, 2),
    _RS.randn(3, 2),
))
BLOCK_SLOTS = _network_slots(BLOCK_LINES)


def _parse_network_or_name_file(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            params = load_network(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), str(exc)
            return
    assert all_finite(layer_arrays(params))


@FUZZ
@given(slot=st.sampled_from(NETWORK_SLOTS), text=VALUE_TEXT)
def test_network_parser_parses_finite_or_names_file(slot, text):
    _parse_network_or_name_file(replace_token(NETWORK_LINES, slot, text))


@FUZZ
@given(slot=st.sampled_from(BLOCK_SLOTS), text=VALUE_TEXT)
def test_block_network_parser_parses_finite_or_names_file(slot, text):
    _parse_network_or_name_file(replace_token(BLOCK_LINES, slot, text))


# Signed zeros, the smallest and largest subnormals, the smallest normal and
# the largest finite values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def per_token_rows(W):
    return [" ".join(f"{x:.17g}" for x in row) for row in W.tolist()]


@FUZZ
@given(rows=st.integers(1, 64).flatmap(
    lambda w: st.lists(st.lists(FINITE_FLOATS, min_size=w, max_size=w), min_size=1, max_size=2)))
def test_row_formatter_matches_per_token_format(rows):
    W = np.array(rows, dtype=np.float64)
    assert _format_rows(W) == per_token_rows(W)


@settings(FUZZ, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_formatter_matches_per_token_format_on_a_2048_wide_row(seed):
    # The width of W3 and B2 in a build at n = 2048.  Uniform bit patterns
    # spread the exponent over its whole range, subnormals included.
    gen = np.random.default_rng(seed)
    row = gen.integers(0, 2**64, size=2048, dtype=np.uint64, endpoint=False).view(np.float64)
    row[~np.isfinite(row)] = 1.0
    row[gen.choice(2048, len(EDGE_FLOATS), replace=False)] = EDGE_FLOATS
    assert _format_rows(row[None, :]) == per_token_rows(row[None, :])
