"""Counter-based random number generation with reproducible substreams.

All randomness in this package flows through a stateless keyed generator:
a value is a pure function of (key, counter).  Substreams for path i are
derived as a hash of (master seed, i), so parallel generation is
order-independent and a given seed reproduces identical bits across runs
and thread counts.

The key hash stream_key(s) = mix64(s + golden) and the counter hash
mix64((c + 1) golden) are the same function, so a key meets a counter
whenever s = c golden (mod 2**64): its word there is 0, the uniform is
2**-54 and the Gaussian -8.29.  Package streams key on hashed child seeds
and hit this only by chance; a caller keying on small seeds directly
(stream_key(0) at counter 0) hits it at once.

Gaussians are scipy's ndtri of the uniforms, loaded by kolnet._special.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_INV53 = 1.0 / 9007199254740992.0  # 2**-53
_BELOW_ONE = 1.0 - _INV53  # largest double below 1

# Output elements per block of ``uniforms``.  It bounds the hash temporaries
# and never changes a bit; it sat at the flat bottom of a timing sweep over
# 2**12-2**17 elements.
_BLOCK = 1 << 15


def _mix64_into(z):
    """mix64 of the uint64 array z, in place."""
    t = np.empty_like(z)
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult  # array products wrap silently
    np.right_shift(z, _S31, out=t)
    z ^= t


def mix64(z):
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping arithmetic)."""
    z = np.array(z, dtype=np.uint64)
    _mix64_into(z)
    return z if z.ndim else z[()]


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


def _hash_counters(c):
    """The counter half of a draw, mix64((c + 1) * golden), at c's own shape."""
    z = c + np.uint64(1)
    z *= _GOLDEN
    _mix64_into(z)
    return z


def uniforms(keys, counters):
    """Uniform variates in (0, 1) indexed by (key, counter).

    ``keys`` and ``counters`` broadcast against each other.  The output is
    strictly inside (0, 1) so the Gaussian inverse CDF is always finite.
    A 53-bit word k maps to (k + 0.5) 2**-53; for k >= 2**52 that midpoint
    is not a double and rounds half to even, so the upper half of (0, 1)
    holds half as many distinct values as the lower half.  The seeded
    artifacts pin these bits.

    The output is filled in blocks of leading-axis rows, at most _BLOCK
    elements each (but at least one row), so every hash temporary is
    block-sized.  A value depends only on its (key, counter), so the
    blocking never changes a bit.
    """
    k = np.asarray(keys, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    out = np.empty(np.broadcast(k, c).shape)
    rows = out.reshape(out.shape or (1,))  # a 0-d draw is one row
    # Give both inputs the output's rank, so that a row slice lines up.
    k = k.reshape((1,) * (rows.ndim - k.ndim) + k.shape)
    c = c.reshape((1,) * (rows.ndim - c.ndim) + c.shape)
    once = _hash_counters(c) if len(c) == 1 else None  # broadcast over rows: hash once
    step = max(1, _BLOCK // max(1, math.prod(rows.shape[1:])))
    for lo in range(0, len(rows), step):
        u = rows[lo : lo + step]
        h = once if once is not None else _hash_counters(c[lo : lo + step])
        w = (k if len(k) == 1 else k[lo : lo + step]) ^ h
        _mix64_into(w)
        w >>= _S11
        np.add(w, 0.5, out=u)  # exact: a 53-bit word converts without rounding
        u *= _INV53
        # The top word, 2**53 - 1, rounds up to 1.0: clamp it below 1.
        np.minimum(u, _BELOW_ONE, out=u)
    return out if out.ndim else out[()]


def gaussians(keys, counters):
    """Standard normal variates via inverse CDF of the counter stream, in place
    on the uniforms; the inverse CDF is scipy's ndtri (see kolnet._special)."""
    z = uniforms(keys, counters)
    return ndtri(z, out=z) if isinstance(z, np.ndarray) else ndtri(z)


def hypercube(key, n: int, d: int, lo, hi) -> np.ndarray:
    """n points uniform on [lo, hi]^d: row i holds the draws at counters
    i*d .. i*d + d - 1 of ``key``, scaled in place.

    Rows are drawn in blocks of at most _BLOCK counters (but at least one
    row), so no counter array of the whole output is built.
    """
    X = np.empty((n, d))
    rows = max(1, _BLOCK // max(1, d))
    for r in range(0, n, rows):
        block = X[r : r + rows]
        counters = np.arange(r * d, r * d + block.size, dtype=np.uint64)
        block[...] = uniforms(key, counters).reshape(block.shape)
    X *= hi - lo
    X += lo
    return X
