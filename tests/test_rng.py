"""Tests for the counter-based random number generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from kolnet import rng

from helpers import fresh_process


def test_mix64_scalar_and_array_agree():
    xs = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    vec = rng.mix64(xs)
    for i, x in enumerate(xs):
        assert rng.mix64(x) == vec[i]


def test_mix64_known_nonfixed_points():
    # The finalizer must not be the identity and must be deterministic.
    a = int(rng.mix64(np.uint64(1)))
    b = int(rng.mix64(np.uint64(1)))
    assert a == b
    assert a != 1
    assert 0 <= a < 2**64


def test_stream_key_deterministic_and_distinct():
    k1 = rng.stream_key(42)
    k2 = rng.stream_key(42)
    k3 = rng.stream_key(43)
    assert k1 == k2
    assert k1 != k3


def test_child_seeds_order_independent():
    full = rng.child_seeds(7, np.arange(100))
    # Requesting children in any order or subset yields the same values.
    subset = rng.child_seeds(7, np.array([17, 3, 99]))
    assert subset[0] == full[17]
    assert subset[1] == full[3]
    assert subset[2] == full[99]


def test_child_seeds_distinct():
    kids = rng.child_seeds(123, np.arange(10000))
    assert len(np.unique(kids)) == 10000


def test_child_seed_scalar_matches_vector():
    assert rng.child_seed(5, 9) == int(rng.child_seeds(5, np.array([9]))[0])


def test_uniforms_in_open_unit_interval():
    keys = rng.stream_key(np.arange(100))
    u = rng.uniforms(keys[:, None], np.arange(1000)[None, :])
    assert u.shape == (100, 1000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_uniform_moments():
    key = rng.stream_key(2024)
    u = rng.uniforms(key, np.arange(200000))
    # Mean 1/2 with SE = 1/sqrt(12 n); allow 4 sigma.
    se = 1.0 / np.sqrt(12.0 * u.size)
    assert abs(u.mean() - 0.5) < 4 * se
    assert abs(u.var() - 1.0 / 12.0) < 1e-3


def test_gaussian_moments():
    key = rng.stream_key(77)
    z = rng.gaussians(key, np.arange(200000))
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # Skewness of a symmetric sampler should vanish.
    assert abs((z**3).mean()) < 4.0 * np.sqrt(15.0 / n)


def test_counter_streams_uncorrelated_across_keys():
    keys = rng.stream_key(np.array([1, 2]))
    z1 = rng.gaussians(keys[0], np.arange(50000))
    z2 = rng.gaussians(keys[1], np.arange(50000))
    corr = np.corrcoef(z1, z2)[0, 1]
    assert abs(corr) < 0.02


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=2**20))
def test_reproducibility_property(seed, counter):
    key = rng.stream_key(seed)
    a = rng.uniforms(key, np.uint64(counter))
    b = rng.uniforms(rng.stream_key(seed), np.uint64(counter))
    assert float(a) == float(b)


def test_bit_identical_across_invocations():
    # Frozen values guard against accidental algorithm changes that would
    # silently re-randomize every seeded experiment in the package.  Counter
    # 2 is above 1/2, where (k + 0.5) 2**-53 rounds half to even, and
    # counter 0 gives |z| > 2, where ndtri takes its log branch.
    key = rng.stream_key(0)
    u = rng.uniforms(key, np.arange(5))
    z = rng.gaussians(key, np.arange(5))
    assert [x.hex() for x in u] == [
        "0x1.0000000000000p-54",
        "0x1.ff0dc8cf7f285p-2",
        "0x1.580ad4d6a777ap-1",
        "0x1.74c8809f3d735p-2",
        "0x1.26f42e0603a0cp-1",
    ]
    assert [x.hex() for x in z] == [
        "-0x1.095b059d67c4dp+3",
        "-0x1.2f928e80c3426p-9",
        "0x1.c803575dae4adp-2",
        "-0x1.64022503ae9b2p-2",
        "0x1.88f81bb3afb5ep-3",
    ]
    assert u[2] >= 0.5 and abs(z[0]) > 2
    again = rng.uniforms(rng.stream_key(0), np.arange(5))
    assert np.array_equal(u, again)


@pytest.mark.parametrize("c", [0, 1, 7, 2**20, 2**63 + 5])
def test_key_hash_equals_counter_hash(c):
    # stream_key(s) = mix64(s + golden) is the counter hash mix64((c + 1) golden)
    # at s = c golden, so the key cancels the counter and the word is 0.
    s = (c * int(rng._GOLDEN)) % 2**64
    assert rng.uniforms(rng.stream_key(np.uint64(s)), np.uint64(c)) == 2.0**-54


def one_shot_uniforms(keys, counters):
    """The unblocked expression uniforms computes, over the whole broadcast at once."""
    k = np.asarray(keys, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        w = rng.mix64(k ^ rng.mix64((c + np.uint64(1)) * rng._GOLDEN))
    u = np.asarray(w >> np.uint64(11), dtype=np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return u if u.ndim else u[()]


def one_shot_gaussians(keys, counters):
    return ndtri(one_shot_uniforms(keys, counters))


B = rng._BLOCK
KEYS = rng.stream_key(np.arange(3 * B + 7))


@pytest.mark.parametrize(
    "keys, counters",
    [(rng.stream_key(11), np.arange(n)) for n in (B - 1, B, B + 1, 3 * B + 7)]
    + [
        # (n, 1) x (1, d) with n*d on either side of B and across several blocks
        (KEYS[:n, None], np.arange(d)[None, :])
        for n, d in ((B // 5, 5), (B // 5 + 1, 5), (B // 3 + 2, 3), (2 * B // 7 + 5, 7))
    ]
    + [
        # the Euler layout: keys (1, n), counters (d, 1), in one block or several
        (KEYS[None, :n], 5 * 7 + np.arange(5)[:, None])
        for n in (2500, 4096, B // 2 + 1, 2 * B + 1)
    ]
    + [
        (KEYS[:, None], np.arange(3 * (3 * B + 7)).reshape(-1, 3)),  # both sliced per block
        (KEYS[: B + 1], np.arange(B + 1)),  # elementwise pairs
        (KEYS[:3, None, None], np.arange(24).reshape(1, 4, 6)),  # rank 3
        (KEYS[:4], 2**64 - 1),  # the largest counter wraps like the one-shot sum
        (rng.stream_key(7), []),  # empty
        (KEYS[:0, None], np.arange(5)[None, :]),  # empty leading axis
    ],
)
def test_blocked_draws_match_one_shot(keys, counters):
    for blocked, one_shot in ((rng.uniforms, one_shot_uniforms), (rng.gaussians, one_shot_gaussians)):
        got, want = blocked(keys, counters), one_shot(keys, counters)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("keys, counters", [(rng.stream_key(3), 9), (np.uint64(5), np.uint64(0))])
def test_zero_dim_draws_are_scalars(keys, counters):
    for blocked, one_shot in ((rng.uniforms, one_shot_uniforms), (rng.gaussians, one_shot_gaussians)):
        got = blocked(keys, counters)
        assert type(got) is np.float64 and got.hex() == one_shot(keys, counters).hex()


def test_gaussians_memory_is_output_plus_counters():
    # Hash temporaries are block-sized: beyond the float64 output and a
    # uint64 copy of the counters, a million draws need at most 2 MB.
    key, counters = rng.stream_key(1), np.arange(2**20)
    tracemalloc.start()
    try:
        z = rng.gaussians(key, counters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes + counters.nbytes + 2 * 2**20


def test_hypercube_scales_the_draws():
    key = rng.stream_key(4)
    X = rng.hypercube(key, 7, 3, 0.5, 1.5)
    U = one_shot_uniforms(key, np.arange(21)).reshape(7, 3)
    assert np.array_equal(X, 0.5 + (1.5 - 0.5) * U)


HYPER_ROWS = B // 7  # rows per hypercube block at d = 7


@pytest.mark.parametrize("n", [1, HYPER_ROWS - 1, HYPER_ROWS, HYPER_ROWS + 1, 2 * HYPER_ROWS + 123])
def test_hypercube_blocks_match_one_uniforms_call(n):
    key = rng.stream_key(9)
    X = rng.hypercube(key, n, 7, -1.0, 3.0)
    U = rng.uniforms(key, np.arange(n * 7)).reshape(n, 7)
    U *= 4.0
    U += -1.0
    assert np.array_equal(X, U)


def inv_mix64(z: int) -> int:
    """Inverse of the SplitMix64 finalizer, on Python ints."""
    mask = 2**64 - 1

    def unxorshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unxorshift(z, 31)
    z = (z * pow(int(rng._MIX2), -1, 2**64)) & mask
    z = unxorshift(z, 27)
    z = (z * pow(int(rng._MIX1), -1, 2**64)) & mask
    return unxorshift(z, 30)


def test_top_word_stays_below_one():
    # Solve for keys whose word at counter 0 is given.  Words whose 53 high
    # bits are all ones, plus one half, round up to 2**53 unless clamped.
    def key_for(word):
        assert int(rng.mix64(np.uint64(inv_mix64(word)))) == word
        return np.uint64(inv_mix64(word) ^ int(rng.mix64(rng._GOLDEN)))

    for word in (2**64 - 1, 2**64 - 2**11):
        u = rng.uniforms(key_for(word), np.arange(3))
        assert u[0] == np.nextafter(1.0, 0.0)
        assert np.all((u > 0.0) & (u < 1.0))
        assert rng.uniforms(key_for(word), np.uint64(0)) == u[0]
        assert np.all(np.isfinite(rng.gaussians(key_for(word), np.arange(3))))
    # The next word down keeps its bits: only the top one is clamped.
    assert rng.uniforms(key_for(2**64 - 2**12), np.uint64(0)) == (2.0**53 - 2 + 0.5) * 2.0**-53


# ---------------------------------------------------------------------------
# Where ndtri and ndtr come from


def test_cli_import_skips_the_scipy_special_package():
    # scipy.special's __init__ clones numpy for its array-API shim; the CLI
    # needs two ufuncs and loads only their extension.
    probe = ("import sys, kolnet.cli; print(' '.join(m for m in sys.modules if m in"
             " ('scipy.special', 'scipy._lib._array_api', 'numpy.f2py', 'numpy.testing')))")
    assert fresh_process(probe) == []


def test_a_later_scipy_import_hands_out_the_same_ufuncs():
    probe = """
import numpy as np, kolnet.cli, kolnet.analytic
import scipy.special, scipy.stats
assert kolnet.rng.ndtri is scipy.special.ndtri and kolnet.analytic.ndtr is scipy.special.ndtr
u = kolnet.rng.uniforms(kolnet.rng.stream_key(3), np.arange(10_000))
assert np.array_equal(kolnet.rng.gaussians(kolnet.rng.stream_key(3), np.arange(10_000)),
                      scipy.stats.norm.ppf(u))
print(scipy.special.__file__ is not None)
"""
    assert fresh_process(probe) == ["True"]


def test_an_imported_scipy_special_is_used_as_it_is():
    probe = """
import sys, scipy.special
package = sys.modules["scipy.special"]
import kolnet._special as s
assert s.ndtri is scipy.special.ndtri and s.ndtr is scipy.special.ndtr
print(sys.modules["scipy.special"] is package)
"""
    assert fresh_process(probe) == ["True"]


def test_a_failed_bare_load_falls_back_to_the_package():
    # A finder that refuses _ufuncs under the stand-in parent, which has no
    # __file__, as a scipy whose extension needs its package would.
    probe = """
import sys

class NeedsPackage:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not hasattr(sys.modules["scipy.special"], "__file__"):
            raise ImportError("needs its package")

sys.meta_path.insert(0, NeedsPackage())
import kolnet._special as s
package = sys.modules["scipy.special"]
assert s.ndtri is package.ndtri and s.ndtr is package.ndtr
print(package.__file__ is not None, "numpy.f2py" in sys.modules)
"""
    assert fresh_process(probe) == ["True", "True"]
