"""float64 tensors with an explicit reverse-mode gradient tape.

Storage is flat row-major numpy with explicit shapes. The op set is exactly
what the sequence models downstream need: matmul (optionally batched over a
leading axis), suffix-broadcast add, elementwise mul, relu, softmax and
log-softmax, layer norm, embedding gather, reshape / transpose, scalar
reduction, dropout, and four fused ops: ``linear`` (x @ w + b),
scaled-dot-product ``attention`` over a leading head axis, and the two
transformer sublayers, ``multi_head_attention`` (projections, heads,
attention and output projection) and ``feed_forward`` (linear, relu,
linear). Each fused op is one tape record that computes, bit for bit, what
its unfused composition computes. The sublayer ops add the layer scope
they were given to a ``NumericError``. Gradients are produced by replaying
a GradTape in reverse recording order.

Log-domain code represents probability zero as -inf. That sentinel is legal
for ``log_sum_exp``, which is a plain float utility, not a taped op. Taped
forward ops on finite inputs must produce finite outputs; a NaN or Inf there
raises NumericError. Finiteness is checked by one sum, which is finite
whenever every element is; only a non-finite sum is confirmed element by
element, because finite elements can still overflow it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """A forward operation produced NaN or Inf from finite inputs."""


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.ascontiguousarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


BackwardRule = Callable[[np.ndarray], None]

_TAPES: list["GradTape"] = []


class GradTape:
    """Recorded forward operations, replayed in reverse for backprop.

    One tape is single-threaded; run independent tapes for parallel work.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, BackwardRule]] = []

    def __enter__(self) -> "GradTape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)=1 and accumulate grads into every reachable tensor."""
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, rule in reversed(self._records):
            if out.grad is None:
                continue
            rule(out.grad)


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t`` (no-op unless it requires grad)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # A fresh C-ordered copy: -0.0 becomes +0.0 as it would in zeros + g,
        # and a transposed ``g`` does not leave its strides to later matmuls.
        t.grad = np.add(g, 0.0, order="C")
    else:
        t.grad += g


def custom_op(values, inputs: Sequence[Tensor], rule: BackwardRule) -> Tensor:
    """Wrap externally computed forward values as a taped operation.

    ``rule`` receives the output gradient and must call ``accumulate_grad``
    on the inputs itself. Values are not checked and may be +inf, e.g. an
    infeasible lattice loss.
    """
    return _emit(np.ascontiguousarray(values, dtype=np.float64), inputs, rule)


def _emit(arr: np.ndarray, inputs: Sequence[Tensor], rule: BackwardRule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            break
    if _TAPES and out.requires_grad:
        _TAPES[-1]._records.append((out, rule))
    return out


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    # np.add.reduce is what arr.sum() calls, without its Python wrapper.
    if not math.isfinite(np.add.reduce(arr, None)) and not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    return arr


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; ``b`` may be a suffix shape of ``a`` (bias, mask)."""
    lead = a.data.ndim - b.data.ndim
    if lead < 0 or a.data.shape[lead:] != b.data.shape:
        raise ShapeError(f"add: shape {b.shape} is not a suffix of {a.shape}")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g)
        accumulate_grad(b, g.sum(axis=tuple(range(lead))) if lead else g)

    return _emit(_finite(a.data + b.data, "add"), (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return _emit(_finite(a.data * b.data, "mul"), (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g * c)

    return _emit(_finite(a.data * c, "scale"), (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 3-D operands batch over the leading axis."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {sa} and {sb}")
    if sa[-1] != sb[-2] or sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul: shapes {sa} and {sb} do not conform")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g @ b.data.swapaxes(-1, -2))
        accumulate_grad(b, a.data.swapaxes(-1, -2) @ g)

    return _emit(_finite(a.data @ b.data, "matmul"), (a, b), rule)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward of ``linear``: ``x @ w``, then ``b`` added in place."""
    out = x @ w
    out += b
    return _finite(out, "linear")


def _affine_grad(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray) -> np.ndarray:
    """Accumulate the gradients of ``b`` and ``w`` in ``x @ w + b``; return x's."""
    accumulate_grad(b, g.sum(axis=0))
    gx = g @ w.data.swapaxes(-1, -2)
    accumulate_grad(w, x.swapaxes(-1, -2) @ g)
    return gx


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D ``x``, a (d_in, d_out) ``w`` and a (d_out,) ``b``."""
    sx, sw = x.data.shape, w.data.shape
    if len(sx) != 2 or len(sw) != 2 or sx[1] != sw[0] or b.data.shape != sw[1:]:
        raise ShapeError(f"linear: shapes {sx}, {sw} and {b.shape} do not conform")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(x, _affine_grad(x.data, w, b, g))

    return _emit(_affine(x.data, w.data, b.data), (x, w, b), rule)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, c: float,
            mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The forward of ``attention``: the probabilities and the output."""
    p = q @ k.swapaxes(-1, -2)
    p *= c
    if mask is not None:
        if mask.ndim > 3 or p.shape[3 - mask.ndim:] != mask.shape:
            raise ShapeError(f"attention: mask shape {mask.shape} is not a suffix of {p.shape}")
        p += mask
    # A finite score row has a finite softmax, so the scores are checked here.
    _finite(p, "attention")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p, _finite(p @ v, "attention")


def _score_grad(p: np.ndarray, g: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """The gradient of the scaled scores, given the output gradient ``g``."""
    gp = g @ v.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gs *= c
    return gs


def attention(q: Tensor, k: Tensor, v: Tensor, c: float, mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q @ kᵀ · c + mask) @ v`` per head, for (heads, t, d) operands.

    ``mask`` is an additive array whose shape is a suffix of the scores'
    (heads, t_q, t_k). The scores are scaled, masked and normalized in one
    buffer; the tape keeps only the probabilities.
    """
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if len(sq) != 3 or len(sk) != 3 or len(sv) != 3 or sk[::2] != sq[::2] or sv[:2] != sk[:2]:
        raise ShapeError(f"attention: shapes {sq}, {sk} and {sv} do not conform")
    p, out = _attend(q.data, k.data, v.data, c, mask)

    def rule(g: np.ndarray) -> None:
        accumulate_grad(v, p.swapaxes(-1, -2) @ g)
        gs = _score_grad(p, g, v.data, c)
        accumulate_grad(q, gs @ k.data)
        accumulate_grad(k, (q.data.swapaxes(-1, -2) @ gs).transpose(0, 2, 1))

    return _emit(out, (q, k, v), rule)


KV = tuple[np.ndarray, np.ndarray]  # head-split keys and values, each (heads, positions, d / heads)


def multi_head_attention(x_q: Tensor, x_kv: Tensor | None, weights: Sequence[Tensor], heads: int,
                         mask: np.ndarray | None = None, past: KV | None = None,
                         scope: str = "multi_head_attention") -> tuple[Tensor, KV]:
    """One attention sublayer: the q/k/v projections, the head split,
    ``attention``, the head merge and the output projection.

    ``weights`` are (wq, bq, wk, bk, wv, bv, wo, bo). The queries of the
    (t_q, d) ``x_q`` attend over the positions of ``past`` followed by those
    of ``x_kv``. ``past`` is constant to the tape, so only inference may
    pass it. Returns the output and the keys and values of every attended
    position. A ``NumericError`` names ``scope``.
    """
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    t_q, d = x_q.data.shape
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    try:
        qh = _affine(x_q.data, wq.data, bq.data).reshape(t_q, heads, dh).transpose(1, 0, 2)
        if x_kv is None:
            kh, vh = past
        else:
            t_k = x_kv.data.shape[0]
            kh = _affine(x_kv.data, wk.data, bk.data).reshape(t_k, heads, dh).transpose(1, 0, 2)
            vh = _affine(x_kv.data, wv.data, bv.data).reshape(t_k, heads, dh).transpose(1, 0, 2)
            if past is not None:
                kh = np.ascontiguousarray(np.concatenate((past[0], kh), axis=1))
                vh = np.ascontiguousarray(np.concatenate((past[1], vh), axis=1))
        p, ctx = _attend(qh, kh, vh, c, mask)
        merged = ctx.transpose(1, 0, 2).reshape(t_q, d)
        out = _affine(merged, wo.data, bo.data)
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None

    def rule(g: np.ndarray) -> None:
        # The head gradients are C-ordered where a matmul reads them, as the
        # unfused chain left them, and x_kv receives v's part before k's.
        gctx = _affine_grad(merged, wo, bo, g).reshape(t_q, heads, dh).transpose(1, 0, 2).copy()
        gs = _score_grad(p, gctx, vh, c)
        if x_kv is not None and past is None:
            gv = (p.swapaxes(-1, -2) @ gctx).transpose(1, 0, 2).reshape(t_k, d)
            accumulate_grad(x_kv, _affine_grad(x_kv.data, wv, bv, gv))
            gk = np.ascontiguousarray((qh.swapaxes(-1, -2) @ gs).transpose(2, 0, 1)).reshape(t_k, d)
            accumulate_grad(x_kv, _affine_grad(x_kv.data, wk, bk, gk))
        gq = (gs @ kh).transpose(1, 0, 2).reshape(t_q, d)
        accumulate_grad(x_q, _affine_grad(x_q.data, wq, bq, gq))

    inputs = (x_q, *weights) if x_kv is None else (x_q, x_kv, *weights)
    return _emit(out, inputs, rule), (kh, vh)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 scope: str = "feed_forward") -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2``; a ``NumericError`` names ``scope``."""
    try:
        r = _affine(x.data, w1.data, b1.data)
        np.maximum(r, 0.0, out=r)
        out = _affine(r, w2.data, b2.data)
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None

    def rule(g: np.ndarray) -> None:
        gr = _affine_grad(r, w2, b2, g)
        gr *= r > 0.0  # where the pre-activation is positive
        accumulate_grad(x, _affine_grad(x.data, w1, b1, gr))

    return _emit(out, (x, w1, b1, w2, b2), rule)


def relu(a: Tensor) -> Tensor:
    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g * (a.data > 0.0))

    return _emit(np.maximum(a.data, 0.0), (a,), rule)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax; every slice along ``axis`` sums to 1."""
    # In place: attention scores are the largest arrays a forward makes.
    p = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return _emit(_finite(p, "softmax"), (a,), rule)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return _emit(_finite(out, "log_softmax"), (a,), rule)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-vector normalization over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    # sum / d is what mean() computes, bit for bit, without its overhead.
    mu = x.data.sum(axis=-1, keepdims=True) / d
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def rule(g: np.ndarray) -> None:
        dxhat = g * gain.data
        accumulate_grad(
            x,
            inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                   - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)),
        )
        lead = tuple(range(g.ndim - 1))
        accumulate_grad(gain, (g * xhat).sum(axis=lead) if lead else g * xhat)
        accumulate_grad(bias, g.sum(axis=lead) if lead else g)

    return _emit(_finite(out, "layer_norm"), (x, gain, bias), rule)


def embed(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embed: ids must be 1-D, got shape {idx.shape}")

    def rule(g: np.ndarray) -> None:
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _emit(np.ascontiguousarray(table.data[idx]), (table,), rule)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g.reshape(a.shape))

    return _emit(a.data.reshape(shape), (a,), rule)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = [0] * len(axes)
    for i, axis in enumerate(axes):
        inv[axis] = i

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g.transpose(inv))

    return _emit(a.data.transpose(axes), (a,), rule)


def take_per_row(a: Tensor, cols: Sequence[int]) -> Tensor:
    """out[i] = a[i, cols[i]] for a 2-D tensor."""
    idx = np.asarray(cols, dtype=np.int64)
    if a.data.ndim != 2 or idx.shape != (a.shape[0],):
        raise ShapeError(f"take_per_row: need 2-D input and one column per row, got {a.shape} and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"take_per_row: column ids outside 0..{a.shape[1] - 1}")
    rows = np.arange(a.shape[0])

    def rule(g: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, (rows, idx), g)

    return _emit(np.ascontiguousarray(a.data[rows, idx]), (a,), rule)


def sum_all(a: Tensor) -> Tensor:
    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, np.broadcast_to(g, a.shape))

    return _emit(np.asarray(a.data.sum()), (a,), rule)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate <= 0."""
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ShapeError(f"dropout: rate must be < 1, got {rate}")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g * mask)

    return _emit(a.data * mask, (a,), rule)


def log_sum_exp(xs: Iterable[float] | np.ndarray) -> float:
    """log(sum(exp(xs))) with max shift; empty input yields -inf.

    -inf entries are absorbing-zero sentinels and drop out exactly.
    """
    arr = xs if isinstance(xs, np.ndarray) else np.asarray(list(xs), dtype=np.float64)
    if arr.size == 0:
        return NEG_INF
    m = float(arr.max())
    if m == NEG_INF:
        return NEG_INF
    if math.isinf(m):
        raise NumericError("log_sum_exp: +inf input")
    return m + math.log(float(np.exp(arr - m).sum()))
