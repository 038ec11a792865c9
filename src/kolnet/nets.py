"""ReLU network data model, forward evaluation, and explicit constructions.

Networks are plain feed-forward ReLU nets: affine layers with ReLU applied
between them (never on the output layer).  Three exact constructions are
provided: the clipping network, the capped put payoff network, and the
averaged composition of a network with a family of affine maps.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Architecture",
    "Parametrization",
    "ClippedNetwork",
    "evaluate",
    "clip_network",
    "clipped_as_standard",
    "put_payoff_network",
    "compose_average",
    "save_network",
    "load_network",
]


@dataclass(frozen=True)
class Architecture:
    """Layer-width vector (a_0, a_1, ..., a_L)."""

    widths: tuple

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2:
            raise ValueError("architecture needs at least one layer (two widths)")
        if any(w < 1 for w in widths):
            raise ValueError(f"all widths must be >= 1, got {widths}")
        object.__setattr__(self, "widths", widths)

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    @property
    def param_count(self) -> int:
        w = self.widths
        return sum(w[l] * w[l - 1] + w[l] for l in range(1, len(w)))

    @property
    def max_width(self) -> int:
        return max(self.widths)

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def output_width(self) -> int:
        return self.widths[-1]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _dense_shape(W: np.ndarray) -> tuple:
    """(rows, columns) of a weight matrix, or of the block-diagonal matrix it stands for."""
    if W.ndim == 3:
        n, out_w, in_w = W.shape
        return n * out_w, n * in_w
    return W.shape


@dataclass(frozen=True)
class Parametrization:
    """Per-layer weight matrices and bias vectors of a ReLU network.

    A weight is either a dense (a_l, a_{l-1}) matrix or a block-diagonal one
    stored as its n diagonal blocks, an (n, b_l, b_{l-1}) array standing for
    the (n*b_l, n*b_{l-1}) matrix whose off-diagonal entries are exact zeros.
    Widths, parameter counts and serialised files are those of the dense
    matrix; only storage and evaluation cost differ.
    """

    layers: tuple  # tuple of (W: (a_l, a_{l-1}) or (n, b_l, b_{l-1}), B: (a_l,)) pairs

    def __post_init__(self):
        frozen = []
        for l, (W, B) in enumerate(self.layers, start=1):
            W = _freeze(np.atleast_2d(W))
            B = _freeze(np.atleast_1d(B))
            if W.ndim > 3:
                raise ValueError(f"layer {l}: weight must be a matrix or a block stack, got {W.shape}")
            if B.ndim != 1 or _dense_shape(W)[0] != B.shape[0]:
                raise ValueError(f"layer {l}: weight/bias shape mismatch {W.shape} vs {B.shape}")
            frozen.append((W, B))
        for l in range(1, len(frozen)):
            in_w, out_w = _dense_shape(frozen[l][0])[1], _dense_shape(frozen[l - 1][0])[0]
            if in_w != out_w:
                raise ValueError(
                    f"layer {l + 1} input width {in_w} does not match layer {l} output width {out_w}"
                )
        object.__setattr__(self, "layers", tuple(frozen))

    @cached_property
    def architecture(self) -> Architecture:
        shapes = [_dense_shape(W) for W, _ in self.layers]
        return Architecture((shapes[0][1],) + tuple(rows for rows, _ in shapes))

    def max_norm(self) -> float:
        return max(
            max(np.abs(W).max(), np.abs(B).max() if B.size else 0.0) for W, B in self.layers
        )


# Rows per evaluate chunk; a multiple of it starts on BLAS's row blocking.
_CHUNK_ROWS = 1024


def _row_blocks(n: int, rows: int):
    """(lo, hi) ranges of ``rows`` rows covering range(n); the last takes the remainder.

    This is the one rule that batches rows for BLAS: no block is shorter
    than ``rows`` unless the whole batch is.  BLAS may round a small batch
    differently from a large one (a single row goes through gemv, a few
    through small-matrix kernels), so a ``rows`` of 2 keeps gemv out and
    one of _CHUNK_ROWS keeps every block on the large-batch kernels: a
    row's value then does not depend on where the blocks fall.
    """
    blocks = max(1, n // rows)
    for b in range(blocks):
        yield b * rows, n if b == blocks - 1 else (b + 1) * rows


def _forward(layers, X: np.ndarray, bufs) -> np.ndarray:
    """ReLU forward pass of X through (W, B) ``layers``, layer l into ``bufs[l]``;
    returns the last buffer, the output layer's pre-activation."""
    h, last = X, len(layers) - 1
    for l, (W, B) in enumerate(layers):
        z = bufs[l]
        if W.ndim == 3:
            blocks, out_w, in_w = W.shape
            np.einsum("rji,joi->rjo", h.reshape(len(h), blocks, in_w), W,
                      out=z.reshape(len(h), blocks, out_w))
        else:
            np.matmul(h, W.T, out=z)
        z += B
        if l != last:
            np.maximum(z, 0.0, out=z)
        h = z
    return h


def evaluate(params: Parametrization, X: np.ndarray) -> np.ndarray:
    """Batch forward pass: X is (n, a_0), result is (n, a_L).

    Rows go through in chunks of _CHUNK_ROWS (see _row_blocks); each hidden
    layer's chunk buffer is allocated once and reused, so working memory is
    O(chunk * width), not O(n * width).  Every row comes out as in an
    unchunked pass.  A batch of one row goes through BLAS's vector-matrix
    product, so its last bits can differ from the same point's row in a
    larger batch.
    """
    X = np.asarray(X, dtype=np.float64)
    widths = params.architecture.widths
    if X.ndim != 2 or X.shape[1] != widths[0]:
        raise ValueError(f"input has shape {X.shape}, expected (n, {widths[0]})")
    chunks = list(_row_blocks(X.shape[0], _CHUNK_ROWS))
    longest = chunks[-1][1] - chunks[-1][0]
    out = np.empty((X.shape[0], widths[-1]))
    hidden = [np.empty((longest, w)) for w in widths[1:-1]]
    for lo, hi in chunks:
        _forward(params.layers, X[lo:hi], [z[: hi - lo] for z in hidden] + [out[lo:hi]])
    return out


@dataclass(frozen=True)
class ClippedNetwork:
    """A scalar-output network whose output is clipped to [-D, D]."""

    params: Parametrization
    clip_amplitude: float

    def __post_init__(self):
        if self.clip_amplitude <= 0:
            raise ValueError("clip amplitude must be positive")
        if self.params.architecture.output_width != 1:
            raise ValueError("clipped networks require output width 1")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Clipped scalar outputs for a batch X of shape (n, d)."""
        D = self.clip_amplitude
        values = evaluate(self.params, X)[:, 0]
        return np.clip(values, -D, D, out=values)


def clip_network(D: float) -> Parametrization:
    """Exact (1,2,2,1) network computing C_D(x) = min{|x|, D} * sgn(x)."""
    if D <= 0:
        raise ValueError("clip amplitude D must be positive")
    return Parametrization(
        (
            (np.array([[1.0], [-1.0]]), np.array([0.0, 0.0])),
            (np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([D, D])),
            (np.array([[-1.0, 1.0]]), np.array([0.0])),
        )
    )


def clipped_as_standard(params: Parametrization, D: float) -> Parametrization:
    """Standard ReLU network computing C_D applied to a scalar-output network.

    The clipping tail is fused with the final affine layer of ``params`` so
    the result's realization equals the clipped realization exactly and the
    parameter magnitude is max(max_norm(params), D): the fused layer only
    sign-flips existing entries.  The resulting architecture is
    (a_0, ..., a_{L-1}, 2, 2, 1).
    """
    if params.architecture.output_width != 1:
        raise ValueError("clipped_as_standard requires output width 1")
    if D <= 0:
        raise ValueError("clip amplitude D must be positive")
    W_L, B_L = params.layers[-1]
    fused_W = np.vstack([W_L, -W_L])
    fused_B = np.concatenate([B_L, -B_L])
    tail = clip_network(D)
    return Parametrization(
        params.layers[:-1] + ((fused_W, fused_B),) + tail.layers[1:]
    )


def put_payoff_network(c: Sequence[float], D: float) -> Parametrization:
    """Exact (d,1,1,1) network for the capped put payoff.

    Realization is min{max{D - c.x, 0}, D}, built from the identity
    min{z, D} = D - ReLU(D - z).
    """
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if c.ndim != 1 or c.size < 1:
        raise ValueError("c must be a vector of length d >= 1")
    if D <= 0:
        raise ValueError("cap D must be positive")
    return Parametrization(
        (
            (-c[None, :], np.array([D])),
            (np.array([[-1.0]]), np.array([D])),
            (np.array([[-1.0]]), np.array([D])),
        )
    )


def compose_average(eta: Parametrization, M: np.ndarray, N: np.ndarray) -> Parametrization:
    """Single network computing (1/n) * sum_j eta(M_j x + N_j).

    M is an (n, d, d) stack and N an (n, d) stack of the n affine maps.
    Block construction: the first layer stacks V_1 M_j rows, middle layers
    are block-diagonal copies of eta's layers, and the last layer averages
    the n branches with weight 1/n.  Resulting architecture is
    (b_0, n*b_1, ..., n*b_{L-1}, b_L) for eta of architecture b.  Each
    middle layer is stored as its n diagonal blocks, an (n, b_l, b_{l-1})
    array (see ``Parametrization``), so storage and evaluation cost
    O(n * P(b)) instead of the O(n^2 * P(b)) of the dense matrix.  For a
    single affine layer (L(b) = 1) the construction degenerates to the
    exact averaged affine map, summed over the maps in order.
    """
    M = np.asarray(M, dtype=np.float64)
    N = np.asarray(N, dtype=np.float64)
    d = eta.architecture.input_width
    if M.ndim != 3 or M.shape[1:] != (d, d) or N.shape != (len(M), d):
        raise ValueError(f"affine map stacks {M.shape}, {N.shape} are not (n, {d}, {d}), (n, {d})")
    n = len(M)
    if n == 0:
        raise ValueError("need at least one affine map")
    V1, A1 = eta.layers[0]
    # Batched products round as the per-map V_1 M_j and V_1 N_j do; the
    # single GEMM N @ V_1^T would not.
    W1 = np.matmul(V1, M)  # (n, b_1, d)
    B1 = np.matmul(V1, N[:, :, None])[:, :, 0] + A1  # (n, b_1)
    if eta.architecture.depth == 1:
        return Parametrization(((sum(W1) / n, sum(B1) / n),))
    layers = [(W1.reshape(n * len(V1), d), B1.ravel())]
    for V_l, A_l in eta.layers[1:-1]:
        layers.append((np.tile(V_l, (n, 1, 1)), np.tile(A_l, n)))
    V_L, A_L = eta.layers[-1]
    layers.append((np.tile(V_L / n, (1, n)), A_L))
    return Parametrization(tuple(layers))


def _format_rows(W: np.ndarray) -> list:
    """Rows of a 2-D array as space-separated ``%.17g`` tokens ("0" and "-0" for zeros)."""
    fmt = " ".join(["%.17g"] * W.shape[1])
    return [fmt % tuple(row) for row in W.tolist()]


def save_network(params: Parametrization, path) -> None:
    """Write a network in the flat text format (17 significant digits).

    Every weight is written as its dense matrix, one row per line, by one
    row writer for block stacks (a dense matrix is the stack of one block).
    Rows go to the file as they are formatted: a row is three writes, a
    slice of one shared run of "0 " tokens, its block's tokens and a slice
    of one shared run of " 0" tokens ending in the newline, so working
    memory is one row plus the formatted blocks, never the file.
    """
    with open(path, "w", buffering=1 << 20) as fh:
        fh.write("arch: " + " ".join(str(w) for w in params.architecture.widths) + "\n")
        for l, (W, B) in enumerate(params.layers, start=1):
            fh.write(f"W{l}\n")
            n, out_w, in_w = W.reshape(-1, *W.shape[-2:]).shape
            zeros, tail = "0 " * (n * in_w), " 0" * (n * in_w) + "\n"
            for k, row in enumerate(_format_rows(W.reshape(n * out_w, in_w))):
                block = k // out_w
                fh.writelines((zeros[: 2 * block * in_w], row, tail[2 * (block + 1) * in_w :]))
            fh.write(f"B{l}\n{_format_rows(B[None, :])[0]}\n")


def _zero_run(found, most: int) -> int:
    """Largest k <= most with found(k), for found monotone and found(0) true."""
    return bisect.bisect_left(range(most + 1), True, key=lambda k: not found(k)) - 1


def load_network(path) -> Parametrization:
    """Read a network written by save_network.

    Rows are read one at a time, keeping only the span from a row's first
    to its last token other than "0" (so "-0" counts).  A hidden-to-hidden
    weight whose row spans fit n >= 2 equal diagonal blocks is returned as
    the (n, b_l, b_{l-1}) block stack of the largest such n, as
    ``compose_average`` builds it, so a built network reloads in one row
    plus its blocks of memory; other weights are dense.  A file that is
    cut short, has a row with the wrong number of entries or a token that
    is not a finite number raises ValueError naming the file and line.
    """
    with open(path) as fh:
        lines = ((no, text) for no, line in enumerate(fh, start=1) if (text := line.strip()))

        def next_line(what: str):
            line = next(lines, None)
            if line is None:
                raise ValueError(f"{path}: file ends before {what}")
            return line

        def tag(name: str) -> None:
            no, text = next_line(f"'{name}'")
            if text != name:
                raise ValueError(f"{path}:{no}: expected '{name}'")

        def span(what: str, length: int):
            """(first, values) of a row's tokens from its first to its last non-"0"."""
            no, text = next_line(what)
            tokens = text.split()
            if len(tokens) != length:
                raise ValueError(f"{path}:{no}: {what} has {len(tokens)} entries, expected {length}")
            # Bisect the writer's runs of "0 " in the text, then step over any rest.
            zeros = "0 " * length
            first = _zero_run(lambda k: text.startswith(zeros[: 2 * k]), length)
            while first < length and tokens[first] == "0":
                first += 1
            end = length - _zero_run(lambda k: text.endswith(zeros[1 : 2 * k + 1]), length - first)
            while end > first and tokens[end - 1] == "0":
                end -= 1
            try:
                vals = np.array([float(x) for x in tokens[first:end]])
            except ValueError:
                raise ValueError(f"{path}:{no}: {what} holds a token that is not a number") from None
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{path}:{no}: {what} holds a value that is not finite")
            return first, vals

        def matrix(rows: int, cols: int, spans: list, most_blocks: int) -> np.ndarray:
            first = np.array([f for f, _ in spans])
            last = first + np.array([len(v) for _, v in spans]) - 1

            def blocks_fit(n: int) -> bool:
                lo = np.arange(rows) // (rows // n) * (cols // n)
                return bool(np.all((first >= lo) & (last < lo + cols // n) | (last < first)))

            n = next((k for k in range(most_blocks, 1, -1)
                      if rows % k == cols % k == 0 and blocks_fit(k)), 1)
            W = np.zeros((rows, cols // n))
            for r, (f, vals) in enumerate(spans):
                f -= r // (rows // n) * (cols // n)
                W[r, f : f + len(vals)] = vals
            return W.reshape(n, rows // n, cols // n) if n > 1 else W

        no, text = next_line("the 'arch:' header")
        try:
            if not text.startswith("arch:"):
                raise ValueError("missing 'arch:' header")
            widths = Architecture(tuple(int(w) for w in text[len("arch:"):].split())).widths
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: {exc}") from None
        layers = []
        for l in range(1, len(widths)):
            tag(f"W{l}")
            spans = [span(f"row {r + 1} of W{l}", widths[l - 1]) for r in range(widths[l])]
            most = math.gcd(widths[l - 1], widths[l]) if 1 < l < len(widths) - 1 else 1
            W = matrix(widths[l], widths[l - 1], spans, most)
            tag(f"B{l}")
            layers.append((W, matrix(1, widths[l], [span(f"B{l}", widths[l])], 1)[0]))
        extra = next(lines, None)
    if extra is not None:
        raise ValueError(f"{path}:{extra[0]}: unexpected text after the last layer")
    return Parametrization(tuple(layers))
