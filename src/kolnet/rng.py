"""Counter-based random number generation with reproducible substreams.

All randomness in this package flows through a stateless keyed generator:
a value is a pure function of (key, counter).  Substreams for path i are
derived as a hash of (master seed, i), so parallel generation is
order-independent and a given seed reproduces identical bits across runs
and thread counts.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53
_BELOW_ONE = 1.0 - _INV53  # largest double below 1


def mix64(z):
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping arithmetic)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def stream_key(seed):
    """Map a 64-bit seed (or array of seeds) to a stream key."""
    s = np.asarray(seed, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(s + _GOLDEN)


def child_seeds(seed, indices):
    """Derive independent child seeds from a master seed.

    Deterministic, order-independent: child i depends only on (seed, i).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(stream_key(seed) + (idx + np.uint64(1)) * _GOLDEN)


def child_seed(seed, index):
    return int(child_seeds(seed, np.uint64(index)))


def uniforms(keys, counters):
    """Uniform variates in (0, 1) indexed by (key, counter).

    ``keys`` and ``counters`` broadcast against each other.  The output is
    strictly inside (0, 1) so the Gaussian inverse CDF is always finite.
    A 53-bit word k maps to (k + 0.5) 2**-53; for k >= 2**52 that midpoint
    is not a double and rounds half to even, so the upper half of (0, 1)
    holds half as many distinct values as the lower half.  The seeded
    artifacts pin these bits.
    """
    k = np.asarray(keys, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        w = mix64(k ^ mix64((c + np.uint64(1)) * _GOLDEN))
    u = np.asarray(w >> np.uint64(11), dtype=np.float64)
    u += 0.5
    u *= _INV53
    # The top word, 2**53 - 1, rounds up to 1.0: clamp it below 1.
    np.minimum(u, _BELOW_ONE, out=u)
    return u if u.ndim else u[()]


def gaussians(keys, counters):
    """Standard normal variates via inverse CDF of the counter stream."""
    return ndtri(uniforms(keys, counters))
