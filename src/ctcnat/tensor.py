"""float64 tensors with an explicit reverse-mode gradient tape.

Storage is flat row-major numpy with explicit shapes. The op set is exactly
what the sequence models downstream need: suffix-broadcast add, layer norm,
reshape, dropout, ``custom_op`` for values and gradients computed outside
the tape (the training loss), and five fused ops, each one tape record that
computes, bit for bit, what its unfused chain computes (the tests keep the
chains as the reference): a stack's input ``embed``, ``dropout(table[ids] ·
√d + positions)``; ``linear``, ``x @ w + b``; the output layer
``log_softmax``, the log-probabilities of ``x @ w + b``; and the pre-norm
residual sublayers ``x + dropout(f(layer_norm(x)))``,
``multi_head_attention`` (f: projections, heads, scaled-dot-product
attention and output projection, optionally over cached keys and values
extended in place) and ``feed_forward`` (f: linear, relu, linear).
Gradients are produced by replaying a GradTape once, in reverse recording
order. The replay frees each record, with the arrays its rule saved, and
each intermediate gradient as soon as it has used them, so the memory the
forward took falls as the backward proceeds; afterwards only leaves
(parameters, and any tensor made with ``requires_grad=True``) keep a
gradient.

Log-domain code represents probability zero as ``NEG_INF``. The CTC lattice
and the beam searches use that sentinel outside the tape. Taped forward ops
on finite inputs must produce finite outputs; a NaN or Inf there raises
NumericError, by one rule. ``_finite`` tests an array by one sum, which is
finite whenever every element is; only a non-finite sum is confirmed
element by element, because finite elements can still overflow it. When a
test fails, ``_raise_non_finite`` re-checks the op's intermediates in the
order its unfused chain checked them and raises that chain's first error,
with the caller's scope appended (``layer_norm produced non-finite values
in enc.0.self_attn``). So exactly the inputs that made the chain raise make
the op raise.

The fused ops check only where a NaN or Inf can hide: the attention scores
(softmax turns -inf into 0), the feed-forward pre-activation (relu does the
same) and their output. Under IEEE arithmetic any other intermediate's NaN
or Inf reaches the output, since even 0 * inf is NaN.

Inference reuses the two largest temporaries. While no tape is open in a
thread, ``multi_head_attention`` writes its scores ``q @ kᵀ``, and
``feed_forward`` its hidden layer ``layer_norm(x) @ w1``, into one
grow-only float64 buffer that the thread owns. Every later step on them
runs in place and neither leaves its op, so the two are never live at once,
every output equals, bit for bit, what fresh arrays give, and a long NAR
decode stops paying the page faults of allocating and freeing them in every
sublayer. A thread keeps its largest table so far, up to heads · (k ·
max_len)² · 8 bytes of scores or k · max_len · ff_dim · 8 bytes of hidden
layer, whichever is larger, and one view per shape served. Under an open
tape the ops allocate afresh, since the backward rules keep the arrays they
read. The tape stack is per thread as well: an op records onto the
innermost tape open in its own thread.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable, NoReturn, Sequence

import numpy as np

NEG_INF = float("-inf")
LAYER_NORM_EPS = 1e-6
_MASK_OFF = -1e9  # large enough that exp underflows to exactly 0.0 in float64


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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


BackwardRule = Callable[[np.ndarray], None]


class _Scratch:
    """A grow-only float64 buffer and the C-ordered views of it made so far,
    by shape; growing drops the views of the old buffer. The views are kept
    because slicing and reshaping a new one in every sublayer cost about
    1.5% of a NAR forward at source length 4."""

    __slots__ = ("buffer", "views")

    def __init__(self) -> None:
        self.buffer = np.empty(0)
        self.views: dict[tuple[int, ...], np.ndarray] = {}

    def view(self, shape: tuple[int, ...]) -> np.ndarray:
        view = self.views.get(shape)
        if view is None:
            size = math.prod(shape)
            if self.buffer.size < size:
                self.buffer = np.empty(size)
                self.views.clear()
            view = self.views[shape] = self.buffer[:size].reshape(shape)
        return view


class _ThreadState(threading.local):
    """What the ops of one thread share: its stack of open tapes and its
    scratch buffer for the attention scores and the feed-forward hidden layer."""

    def __init__(self) -> None:
        self.tapes: list[GradTape] = []
        self.scratch = _Scratch()


_THREAD = _ThreadState()


def _open_tape() -> "GradTape | None":
    """The innermost tape open in the current thread, or None."""
    tapes = _THREAD.tapes
    return tapes[-1] if tapes else None


def _scratch(shape: tuple[int, ...]) -> np.ndarray | None:
    """A view of the current thread's scratch buffer as ``shape``, or None
    while a tape is open in the thread, since its backward rules keep the
    arrays they read."""
    state = _THREAD
    return None if state.tapes else state.scratch.view(shape)


class GradTape:
    """Recorded forward operations, replayed in reverse for backprop.

    Each thread has its own stack of open tapes, and an op records onto the
    innermost tape open in the thread that runs it. So one tape serves one
    thread, and threads that train in parallel each open their own. While a
    tape is open in a thread, that thread's ops allocate every temporary
    afresh: the scratch buffer serves inference only.

    ``backward`` replays a tape once and empties it as it goes: each record
    and each op output's gradient is released once its rule has run, and
    only leaves keep a gradient. Record a new tape for the next backward.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, BackwardRule]] = []
        self._replayed = False

    def __enter__(self) -> "GradTape":
        _THREAD.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _THREAD.tapes.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)=1 and accumulate grads into every reachable tensor.

        Each record is popped before its rule runs, and its output hands the
        rule its gradient and keeps none. A second call raises RuntimeError."""
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._replayed:
            raise RuntimeError("backward: this tape was already replayed; record the forward again")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            out, rule = records.pop()
            g, out.grad = out.grad, None
            if g is not None:
                rule(g)


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
    on the inputs itself. Values are not checked; the caller checks them,
    as ``training.batch_loss`` does.
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
    if out.requires_grad:
        tape = _open_tape()
        if tape is not None:
            tape._records.append((out, rule))
    return out


def _finite(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is finite."""
    # np.add.reduce is what arr.sum() calls, without its Python wrapper.
    return math.isfinite(np.add.reduce(arr, None)) or bool(np.isfinite(arr).all())


def _raise_non_finite(scope: str | None, *checked: tuple[str, np.ndarray]) -> NoReturn:
    """Raise the error the unfused chain raises: ``checked`` lists its checks
    in order, the last one failed, and the first that fails names the op.
    The message ends with `` in <scope>`` when a scope is given."""
    op = next(op for op, arr in checked if not np.isfinite(arr).all())
    raise NumericError(f"{op} produced non-finite values" + (f" in {scope}" if scope else ""))


def add(a: Tensor, b: Tensor, scope: str | None = None) -> Tensor:
    """Elementwise add; ``b`` may be a suffix shape of ``a`` (bias, mask)."""
    lead = a.data.ndim - b.data.ndim
    if lead < 0 or a.data.shape[lead:] != b.data.shape:
        raise ShapeError(f"add: shape {b.shape} is not a suffix of {a.shape}")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g)
        accumulate_grad(b, g.sum(axis=tuple(range(lead))) if lead else g)

    out = a.data + b.data
    if not _finite(out):
        _raise_non_finite(scope, ("add", out))
    return _emit(out, (a, b), rule)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The forward of ``linear``: ``x @ w``, then ``b`` added in place."""
    out = x @ w
    out += b
    return out


def _affine_grad(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray) -> np.ndarray:
    """Accumulate the gradients of ``b`` and ``w`` in ``x @ w + b``; return x's."""
    accumulate_grad(b, g.sum(axis=0))
    gx = g @ w.data.swapaxes(-1, -2)
    accumulate_grad(w, x.swapaxes(-1, -2) @ g)
    return gx


def _check_affine(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    sx, sw = x.data.shape, w.data.shape
    if len(sx) != 2 or len(sw) != 2 or sx[1] != sw[0] or b.data.shape != sw[1:]:
        raise ShapeError(f"{op}: shapes {sx}, {sw} and {b.shape} do not conform")


def linear(x: Tensor, w: Tensor, b: Tensor, scope: str | None = None) -> Tensor:
    """``x @ w + b`` for a 2-D ``x``, a (d_in, d_out) ``w`` and a (d_out,) ``b``."""
    _check_affine("linear", x, w, b)

    def rule(g: np.ndarray) -> None:
        accumulate_grad(x, _affine_grad(x.data, w, b, g))

    out = _affine(x.data, w.data, b.data)
    if not _finite(out):
        _raise_non_finite(scope, ("linear", out))
    return _emit(out, (x, w, b), rule)


@lru_cache(maxsize=256)
def _causal_mask(n: int) -> np.ndarray:
    """The (n, n) causal mask: ``_MASK_OFF`` above the diagonal, 0 elsewhere."""
    mask = np.triu(np.full((n, n), _MASK_OFF), k=1)
    mask.setflags(write=False)
    return mask


def _scores(q: np.ndarray, k: np.ndarray, c: float, causal: bool) -> np.ndarray:
    """The scaled scores ``q @ kᵀ · c``, causally masked when ``causal``, in
    the thread's scratch buffer when no tape is open, else in a new array."""
    p = np.matmul(q, k.swapaxes(-1, -2), out=_scratch((q.shape[0], q.shape[1], k.shape[1])))
    p *= c
    if causal:
        p += _causal_mask(p.shape[1])
    return p


def _normalize_rows(p: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, in place."""
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _score_grad(p: np.ndarray, g: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """The gradient of the scaled scores, given the output gradient ``g``."""
    gp = g @ v.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gs *= c
    return gs


def _normalize(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward of ``layer_norm``: the output, the normalized input and
    the inverse standard deviation."""
    d = x.shape[-1]
    # sum / d is what mean() computes, bit for bit, without its overhead.
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def _normalize_grad(g: np.ndarray, gain: Tensor, bias: Tensor, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Accumulate the gradients of ``gain`` and ``bias`` in ``layer_norm``; return x's."""
    d = g.shape[-1]
    dxhat = g * gain.data
    gx = inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d))
    lead = tuple(range(g.ndim - 1))
    accumulate_grad(gain, (g * xhat).sum(axis=lead) if lead else g * xhat)
    accumulate_grad(bias, g.sum(axis=lead) if lead else g)
    return gx


def _dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    if rate >= 1.0:
        raise ShapeError(f"dropout: rate must be < 1, got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _residual(x: np.ndarray, sub: np.ndarray, rate: float,
              rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray | None]:
    """``x + dropout(sub)`` and the dropout mask, None without dropout. The
    mask is drawn after the sublayer ran, as the unfused chain drew it."""
    if rng is None or rate <= 0.0:
        return x + sub, None
    drop = _dropout_mask(sub.shape, rate, rng)
    return x + sub * drop, drop


KV = tuple[np.ndarray, np.ndarray]  # head-split keys and values, each (heads, positions, d / heads)
Past = tuple[np.ndarray, np.ndarray, int]  # key and value buffers (heads, capacity, d / heads), positions filled


def _project_keys_values(source: np.ndarray, wk: Tensor, wv: Tensor, bv: Tensor,
                         heads: int) -> tuple[tuple[tuple[str, np.ndarray], ...], np.ndarray, np.ndarray]:
    """The keys ``source @ wk`` and values ``source @ wv + bv`` of the (t, d)
    ``source``, each named by the op of the unfused chain that checks it,
    and both split into heads. Keys have no bias: it would add the same
    q · b to every score of a row, which the softmax cancels."""
    t, d = source.shape
    k = source @ wk.data
    v = _affine(source, wv.data, bv.data)
    kh, vh = (a.reshape(t, heads, d // heads).transpose(1, 0, 2) for a in (k, v))
    return (("matmul", k), ("linear", v)), kh, vh


def keys_values(memory: Tensor, params: Sequence[Tensor], heads: int, scope: str) -> KV:
    """The head-split keys and values that ``multi_head_attention`` with
    these ``params`` projects from a tensor ``memory``, to pass to it as a
    KV ``memory``; constant to the tape. Both projections are checked, and
    an error names ``scope`` as the sublayer's own does."""
    wk, wv, bv = params[4:7]  # after gain, bias, wq and bq
    projected, kh, vh = _project_keys_values(memory.data, wk, wv, bv, heads)
    for op, arr in projected:
        if not _finite(arr):
            _raise_non_finite(scope, (op, arr))
    return kh, vh


def multi_head_attention(x: Tensor, params: Sequence[Tensor], heads: int, memory: Tensor | KV | None = None,
                         past: Past | None = None, *, causal: bool = False, rate: float,
                         rng: np.random.Generator | None, scope: str) -> Tensor:
    """One pre-norm attention sublayer, ``x + dropout(attend(layer_norm(x)))``.

    ``params`` are (gain, bias, wq, bq, wk, wv, bv, wo, bo). The normed
    (t, d) ``x`` gives the queries. With ``memory`` None, it also gives the
    keys and values, and ``causal`` hides from each position the ones after
    it. With ``past``, whose buffers hold n positions, ``x`` is one position:
    the op writes its key and value at position n in place and attends over
    all n + 1. A tensor ``memory`` gives the keys and values instead; a KV
    ``memory`` is head-split keys and values; neither takes ``causal`` or
    ``past``. ``past`` and a KV ``memory`` are constant to the tape, so only
    inference may pass them. Dropout runs when ``rng`` is given and ``rate`` > 0.

    Only the scores, whose -inf the softmax would hide, and the output are
    checked for non-finite values: any other intermediate's NaN or Inf
    reaches the output. A failed check raises the first error the unfused
    chain (layer norm, projections, attention, projection, dropout, add)
    would raise, naming ``scope``.
    """
    if memory is not None and (causal or past is not None):
        raise ShapeError(f"attention: {'causal' if causal else 'past'} applies to self-attention, not to a memory")
    gain, bias, wq, bq, wk, wv, bv, wo, bo = params
    t_q, d = x.data.shape
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    normed, xhat, inv = _normalize(x.data, gain.data, bias.data)
    q = _affine(normed, wq.data, bq.data)
    qh = q.reshape(t_q, heads, dh).transpose(1, 0, 2)
    if memory is None or isinstance(memory, Tensor):
        source = normed if memory is None else memory.data
        t_k = source.shape[0]
        projected, kh, vh = _project_keys_values(source, wk, wv, bv, heads)
        if past is not None:
            if t_k != 1:
                raise ShapeError("attention: past takes one new position")
            keys, values, n = past
            keys[:, n:n + 1] = kh
            values[:, n:n + 1] = vh
            kh, vh = keys[:, :n + 1], values[:, :n + 1]
    else:
        source, projected = None, ()
        kh, vh = memory
    p = _scores(qh, kh, c, causal and past is None)
    if not _finite(p):
        _raise_non_finite(scope, ("layer_norm", normed), ("linear", q), *projected, ("attention", p))
    ctx = _normalize_rows(p) @ vh
    merged = ctx.transpose(1, 0, 2).reshape(t_q, d)
    sub = _affine(merged, wo.data, bo.data)
    out, drop = _residual(x.data, sub, rate, rng)
    if not _finite(out):
        _raise_non_finite(scope, ("layer_norm", normed), ("linear", q), *projected, ("attention", ctx),
                          ("linear", sub), ("add", out))

    def rule(g: np.ndarray) -> None:
        # x receives the residual before the norm's gradient. The head
        # gradients are C-ordered where a matmul reads them, as the unfused
        # chain left them.
        accumulate_grad(x, g)
        gctx = _affine_grad(merged, wo, bo, g if drop is None else g * drop)
        gctx = gctx.reshape(t_q, heads, dh).transpose(1, 0, 2).copy()
        gs = _score_grad(p, gctx, vh, c)
        gn = _affine_grad(normed, wq, bq, (gs @ kh).transpose(1, 0, 2).reshape(t_q, d))
        if source is not None and past is None:
            gv = _affine_grad(source, wv, bv, (p.swapaxes(-1, -2) @ gctx).transpose(1, 0, 2).reshape(t_k, d))
            gk = np.ascontiguousarray((qh.swapaxes(-1, -2) @ gs).transpose(2, 0, 1)).reshape(t_k, d)
            accumulate_grad(wk, source.swapaxes(-1, -2) @ gk)
            gk = gk @ wk.data.swapaxes(-1, -2)
            if memory is None:  # the sum runs in the unfused chain's order: v's part, k's, q's
                gv += gk
                gv += gn
                gn = gv
            else:
                accumulate_grad(memory, gv)
                accumulate_grad(memory, gk)
        accumulate_grad(x, _normalize_grad(gn, gain, bias, xhat, inv))

    return _emit(out, (x, memory, *params) if isinstance(memory, Tensor) else (x, *params), rule)


def feed_forward(x: Tensor, params: Sequence[Tensor], rate: float, rng: np.random.Generator | None,
                 scope: str) -> Tensor:
    """One pre-norm feed-forward sublayer, ``x + dropout(relu(n @ w1 + b1) @ w2 + b2)``
    with ``n = layer_norm(x)``.

    ``params`` are (gain, bias, w1, b1, w2, b2). Dropout runs when ``rng``
    is given and ``rate`` > 0. Only the pre-activation, whose -inf the relu
    would hide, and the output are checked for non-finite values. A failed
    check raises the first error the unfused chain (layer norm, linear,
    relu, linear, dropout, add) would raise, naming ``scope``.
    """
    gain, bias, w1, b1, w2, b2 = params
    normed, xhat, inv = _normalize(x.data, gain.data, bias.data)
    r = np.matmul(normed, w1.data, out=_scratch(normed.shape[:-1] + w1.data.shape[1:]))
    r += b1.data
    if not _finite(r):
        _raise_non_finite(scope, ("layer_norm", normed), ("linear", r))
    np.maximum(r, 0.0, out=r)
    sub = _affine(r, w2.data, b2.data)
    out, drop = _residual(x.data, sub, rate, rng)
    if not _finite(out):
        _raise_non_finite(scope, ("layer_norm", normed), ("linear", sub), ("add", out))

    def rule(g: np.ndarray) -> None:
        accumulate_grad(x, g)
        gr = _affine_grad(r, w2, b2, g if drop is None else g * drop)
        gr *= r > 0.0  # where the pre-activation is positive
        accumulate_grad(x, _normalize_grad(_affine_grad(normed, w1, b1, gr), gain, bias, xhat, inv))

    return _emit(out, (x, *params), rule)


def log_softmax(x: Tensor, w: Tensor, b: Tensor, scope: str) -> Tensor:
    """The output layer: log-probabilities over the last axis of ``x @ w + b``, shaped as for
    ``linear``. A failed check raises the first error of the chain (linear, log-softmax), naming ``scope``."""
    _check_affine("log_softmax", x, w, b)
    z = _affine(x.data, w.data, b.data)
    shifted = z - z.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    if not _finite(out):
        _raise_non_finite(scope, ("linear", z), ("log_softmax", out))

    def rule(g: np.ndarray) -> None:
        accumulate_grad(x, _affine_grad(x.data, w, b, g - np.exp(out) * g.sum(axis=-1, keepdims=True)))

    return _emit(out, (x, w, b), rule)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, scope: str | None = None) -> Tensor:
    """Per-vector normalization over the last axis, with ``LAYER_NORM_EPS``
    added to the variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    out, xhat, inv = _normalize(x.data, gain.data, bias.data)

    def rule(g: np.ndarray) -> None:
        accumulate_grad(x, _normalize_grad(g, gain, bias, xhat, inv))

    if not _finite(out):
        _raise_non_finite(scope, ("layer_norm", out))
    return _emit(out, (x, gain, bias), rule)


def embed(table: Tensor, ids: Sequence[int], positions: np.ndarray, rate: float,
          rng: np.random.Generator | None, scope: str) -> Tensor:
    """A stack's input, ``dropout(table[ids] · √d + positions)`` with d the table's width; dropout
    runs when ``rng`` is given and ``rate`` > 0. A failed check raises the first error of the
    chain (scale, position add), naming ``scope``. Backward scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or positions.shape != (idx.size, table.data.shape[1]):
        raise ShapeError(f"embed: ids {idx.shape} and positions {positions.shape} do not fit {table.shape}")
    c = math.sqrt(table.data.shape[1])
    scaled = table.data[idx] * c
    out = scaled + positions
    if not _finite(out):
        _raise_non_finite(scope, ("scale", scaled), ("add", out))
    drop = None if rng is None or rate <= 0.0 else _dropout_mask(out.shape, rate, rng)
    if drop is not None:
        out *= drop

    def rule(g: np.ndarray) -> None:  # recorded only when the table requires grad
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, (g if drop is None else g * drop) * c)

    return _emit(out, (table,), rule)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g.reshape(a.shape))

    return _emit(a.data.reshape(shape), (a,), rule)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate <= 0."""
    if rate <= 0.0:
        return a
    mask = _dropout_mask(a.shape, rate, rng)

    def rule(g: np.ndarray) -> None:
        accumulate_grad(a, g * mask)

    return _emit(a.data * mask, (a,), rule)
