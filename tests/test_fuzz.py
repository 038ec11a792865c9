"""Fuzz tests for the two text parsers: problem files and network files.

One value token of a valid file is replaced by drawn text.  The result must
either parse into an object whose every number is finite, or raise
ValueError whose message starts with the file's name.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kolnet.nets import Parametrization, load_network, save_network
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


def _small_network_lines():
    rs = np.random.RandomState(0)
    params = Parametrization(tuple(
        (rs.randn(b, a), rs.randn(b)) for a, b in [(2, 3), (3, 1)]
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        save_network(params, path)
        return path.read_text().splitlines()


NETWORK_LINES = _small_network_lines()
NETWORK_SLOTS = value_slots(
    NETWORK_LINES,
    lambda line, j, token: token != "arch:" and not (token[0] in "WB" and token[1:].isdigit()),
)


@FUZZ
@given(slot=st.sampled_from(NETWORK_SLOTS), text=VALUE_TEXT)
def test_network_parser_parses_finite_or_names_file(slot, text):
    lines = replace_token(NETWORK_LINES, slot, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            params = load_network(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), str(exc)
            return
    assert all_finite(layer_arrays(params))
