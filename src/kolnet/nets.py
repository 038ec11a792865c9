"""ReLU network data model, forward evaluation, and explicit constructions.

Networks are plain feed-forward ReLU nets: affine layers with ReLU applied
between them (never on the output layer).  Three exact constructions are
provided: the clipping network, the capped put payoff network, and the
averaged composition of a network with a family of affine maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Architecture",
    "Parametrization",
    "ClippedNetwork",
    "realize",
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

    @property
    def architecture(self) -> Architecture:
        shapes = [_dense_shape(W) for W, _ in self.layers]
        return Architecture((shapes[0][1],) + tuple(rows for rows, _ in shapes))

    def max_norm(self) -> float:
        return max(
            max(np.abs(W).max(), np.abs(B).max() if B.size else 0.0) for W, B in self.layers
        )

    def is_bounded_by(self, R: float) -> bool:
        return self.max_norm() <= R


# A chunk is a multiple of _CHUNK_ROWS rows, so chunks start on BLAS's row
# blocking, widened for narrow nets up to _CHUNK_ENTRIES entries per layer
# buffer.  The last chunk takes the remainder because BLAS rounds differently
# for small row counts: no matmul sees fewer rows than a chunk unless X does.
_CHUNK_ROWS = 1024
_CHUNK_ENTRIES = 1 << 16


def _chunk_rows(widths: tuple) -> int:
    return _CHUNK_ROWS * max(1, _CHUNK_ENTRIES // (_CHUNK_ROWS * max(widths[1:])))


def evaluate(params: Parametrization, X: np.ndarray) -> np.ndarray:
    """Batch forward pass: X is (n, a_0), result is (n, a_L).

    Rows go through in fixed chunks (the last one up to twice as long); each
    hidden layer's chunk buffer is allocated once and reused, so working
    memory is O(chunk * width), not O(n * width).  Every row comes out as in
    an unchunked pass.
    """
    X = np.asarray(X, dtype=np.float64)
    widths = params.architecture.widths
    if X.ndim != 2 or X.shape[1] != widths[0]:
        raise ValueError(f"input has shape {X.shape}, expected (n, {widths[0]})")
    n, rows = X.shape[0], _chunk_rows(widths)
    chunks = max(1, n // rows)
    tail_lo = (chunks - 1) * rows
    out = np.empty((n, widths[-1]))
    hidden = [np.empty((n - tail_lo, w)) for w in widths[1:-1]]
    last = len(params.layers) - 1
    for c in range(chunks):
        lo = c * rows
        hi = n if c == chunks - 1 else lo + rows
        h = X[lo:hi]
        for l, (W, B) in enumerate(params.layers):
            z = out[lo:hi] if l == last else hidden[l][: hi - lo]
            if W.ndim == 3:
                blocks, out_w, in_w = W.shape
                np.einsum("rji,joi->rjo", h.reshape(hi - lo, blocks, in_w), W,
                          out=z.reshape(hi - lo, blocks, out_w))
            else:
                np.matmul(h, W.T, out=z)
            z += B
            if l != last:
                np.maximum(z, 0.0, out=z)
            h = z
    return out


def realize(params: Parametrization, x: Sequence[float]) -> np.ndarray:
    """Network realization at a single input vector.

    One row goes through BLAS's vector-matrix product, so the last bits can
    differ from the same point's row in a batch ``evaluate``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (params.architecture.input_width,):
        raise ValueError(f"input has length {x.shape[0]}, expected {params.architecture.input_width}")
    return evaluate(params, x[None, :])[0]


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
        return np.clip(evaluate(self.params, X)[:, 0], -D, D)


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
    """Single network computing (1/n) * sum_j realize(eta)(M_j x + N_j).

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
    """Rows of a 2-D array as space-separated ``%.17g`` tokens.

    Only entries other than +0.0 go through the formatter; each +0.0 is
    written as its token "0" directly, which keeps sparse rows cheap.
    """
    keep = (W != 0) | np.signbit(W)
    tokens = np.full(W.shape, "0", dtype=object)
    tokens[keep] = [f"{x:.17g}" for x in W[keep].tolist()]
    return [" ".join(row) for row in tokens.tolist()]


def _weight_lines(W: np.ndarray) -> list:
    """Text rows of a weight; a block stack is written as its dense matrix."""
    if W.ndim == 2:
        return _format_rows(W)
    n, out_w, in_w = W.shape
    rows = _format_rows(W.reshape(n * out_w, in_w))
    return [
        "0 " * (k // out_w * in_w) + row + " 0" * ((n - 1 - k // out_w) * in_w)
        for k, row in enumerate(rows)
    ]


def save_network(params: Parametrization, path) -> None:
    """Write a network in the flat text format (17 significant digits)."""
    lines = ["arch: " + " ".join(str(w) for w in params.architecture.widths)]
    for l, (W, B) in enumerate(params.layers, start=1):
        lines.append(f"W{l}")
        lines.extend(_weight_lines(W))
        lines.append(f"B{l}")
        lines.extend(_format_rows(B[None, :]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> Parametrization:
    """Read a network written by save_network.

    A file that is cut short, has a row with the wrong number of entries or
    a token that is not a finite number raises ValueError naming the file
    and line.
    """
    with open(path) as fh:
        lines = iter([(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()])

    def next_line(what: str):
        line = next(lines, None)
        if line is None:
            raise ValueError(f"{path}: file ends before {what}")
        return line

    def tag(name: str) -> None:
        no, text = next_line(f"'{name}'")
        if text != name:
            raise ValueError(f"{path}:{no}: expected '{name}'")

    def numbers(what: str, length: int) -> list:
        no, text = next_line(what)
        tokens = text.split()
        if len(tokens) != length:
            raise ValueError(f"{path}:{no}: {what} has {len(tokens)} entries, expected {length}")
        try:
            vals = [float(x) for x in tokens]
        except ValueError:
            raise ValueError(f"{path}:{no}: {what} holds a token that is not a number") from None
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{path}:{no}: {what} holds a value that is not finite")
        return vals

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
        W = [numbers(f"row {r + 1} of W{l}", widths[l - 1]) for r in range(widths[l])]
        tag(f"B{l}")
        layers.append((np.array(W), np.array(numbers(f"B{l}", widths[l]))))
    extra = next(lines, None)
    if extra is not None:
        raise ValueError(f"{path}:{extra[0]}: unexpected text after the last layer")
    return Parametrization(tuple(layers))
