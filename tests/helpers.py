"""Shared test utilities: finite differences, random probability tables, an
autoregressive step walk, the reference prefix beam search, the reference
tape ops, the reference CTC lattice and the names a source file uses."""

from __future__ import annotations

import ast
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ctcnat import ctc, model, tensor, training
from ctcnat.ctc import CtcLattice, LabelSequence, _extended, _skip_allowed
from ctcnat.decoding import DecodeOptions, Hypothesis, _as_table, _lse2
from ctcnat.tensor import _TAPES, NEG_INF, BackwardRule, NumericError, ShapeError, Tensor


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f() w.r.t. array x,
    perturbing x in place."""
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f()
        flat_x[i] = orig - h
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference normalized by the larger magnitude scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-10)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def random_log_probs(rng: np.random.Generator, T: int, cols: int) -> np.ndarray:
    """A random normalized (T, cols) log-probability table."""
    x = rng.normal(size=(T, cols))
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


def peaked_log_probs(col_per_frame, cols: int, peak: float = 0.999) -> np.ndarray:
    """Rows nearly one-hot on the given column per frame."""
    T = len(col_per_frame)
    rest = (1.0 - peak) / (cols - 1)
    table = np.full((T, cols), np.log(rest))
    for t, c in enumerate(col_per_frame):
        table[t, c] = np.log(peak)
    return table


def stepped_row(config: model.ModelConfig, params: model.ModelParams, enc: model.EncoderStates,
                prefix) -> Tensor:
    """The autoregressive step's row after ``prefix``, from a fresh buffer
    that every shorter prefix of it stepped first."""
    src, kv = model.source_keys_values(config, params, enc), model.self_attention_buffer(config)
    return [model.decode_autoregressive_step(config, params, src, list(prefix[:n]), kv)
            for n in range(len(prefix) + 1)][-1]


def reference_ctc_beam_search(log_probs, opts: DecodeOptions | None = None) -> list[Hypothesis]:
    """The per-symbol loop over every extension, kept as the reference of
    ``decoding.ctc_beam_search``: the result must be equal, float for float.

    Left-to-right prefix beam search with recombination.

    Returns the surviving hypotheses ranked best-first by CTC mass
    (Hypothesis.score), ties toward the lexicographically smaller prefix.
    """
    opts = opts or DecodeOptions()
    lp = _as_table(log_probs)
    T, C = lp.shape
    beams: dict[LabelSequence, list[float]] = {(): [0.0, NEG_INF]}
    for t in range(T):
        row = lp[t]
        nxt: dict[LabelSequence, list[float]] = {}
        for prefix, (pb, pnb) in beams.items():
            total = _lse2(pb, pnb)
            last = prefix[-1] if prefix else None
            for c in range(C):
                p = row[c]
                if c == 0:
                    entry = nxt.setdefault(prefix, [NEG_INF, NEG_INF])
                    entry[0] = _lse2(entry[0], total + p)
                elif c == last:
                    entry = nxt.setdefault(prefix, [NEG_INF, NEG_INF])
                    entry[1] = _lse2(entry[1], pnb + p)
                    grown = nxt.setdefault(prefix + (c,), [NEG_INF, NEG_INF])
                    grown[1] = _lse2(grown[1], pb + p)
                else:
                    grown = nxt.setdefault(prefix + (c,), [NEG_INF, NEG_INF])
                    grown[1] = _lse2(grown[1], total + p)
        ranked = sorted(nxt.items(), key=lambda kv: (-_lse2(*kv[1]), kv[0]))
        beams = dict(ranked[: opts.beam_width])

    result = [Hypothesis(prefix, pb, pnb) for prefix, (pb, pnb) in beams.items()]
    result.sort(key=lambda h: (-h.score, h.prefix))
    return result


# The tape ops that ``ctcnat.tensor`` makes cheaper, kept as their reference:
# with these patched in, every loss, gradient and decode must be equal, bit
# for bit. Verbatim apart from their names, except the fused ops, which are
# given as the compositions they replace. ``gather``, ``scale``,
# ``log_probs`` (the one-argument log-softmax), ``matmul``, ``mul``,
# ``relu``, ``softmax`` and ``transpose`` live only here, as parts of those
# compositions, and ``sum`` as the loss of the tests' gradient probes.

def reference_accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t`` (no-op unless it requires grad)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def reference_emit(arr: np.ndarray, inputs: Sequence[Tensor], rule: BackwardRule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _TAPES and out.requires_grad:
        _TAPES[-1]._records.append((out, rule))
    return out


def reference_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    return arr


def reference_gather(table: Tensor, ids: Sequence[int]) -> Tensor:
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

    return reference_emit(np.ascontiguousarray(table.data[idx]), (table,), rule)


def reference_scale(a: Tensor, c: float) -> Tensor:
    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g * c)

    return reference_emit(reference_finite(a.data * c, "scale"), (a,), rule)


def reference_log_probs(a: Tensor) -> Tensor:
    """Log-probabilities over the last axis: the one-argument log-softmax."""
    m = a.data.max(axis=-1, keepdims=True)
    shifted = a.data - m
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g - np.exp(out) * g.sum(axis=-1, keepdims=True))

    return reference_emit(reference_finite(out, "log_softmax"), (a,), rule)


def reference_mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")

    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g * b.data)
        reference_accumulate_grad(b, g * a.data)

    return reference_emit(reference_finite(a.data * b.data, "mul"), (a, b), rule)


def reference_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 3-D operands batch over the leading axis."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {sa} and {sb}")
    if sa[-1] != sb[-2] or sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul: shapes {sa} and {sb} do not conform")

    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g @ b.data.swapaxes(-1, -2))
        reference_accumulate_grad(b, a.data.swapaxes(-1, -2) @ g)

    return reference_emit(reference_finite(a.data @ b.data, "matmul"), (a, b), rule)


def reference_sum(a: Tensor) -> Tensor:
    """The sum of every element: the scalar loss of a gradient probe."""
    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, np.broadcast_to(g, a.shape))

    return reference_emit(np.asarray(a.data.sum()), (a,), rule)


def reference_relu(a: Tensor) -> Tensor:
    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g * (a.data > 0.0))

    return reference_emit(np.maximum(a.data, 0.0), (a,), rule)


def reference_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax; every slice along ``axis`` sums to 1."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return reference_emit(reference_finite(p, "softmax"), (a,), rule)


def reference_layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-vector normalization over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gain.data + bias.data

    def rule(g: np.ndarray) -> None:
        dxhat = g * gain.data
        reference_accumulate_grad(
            x,
            inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)),
        )
        lead = tuple(range(g.ndim - 1))
        reference_accumulate_grad(gain, (g * xhat).sum(axis=lead) if lead else g * xhat)
        reference_accumulate_grad(bias, g.sum(axis=lead) if lead else g)

    return reference_emit(reference_finite(out, "layer_norm"), (x, gain, bias), rule)


def reference_reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")

    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g.reshape(a.shape))

    return reference_emit(a.data.reshape(shape), (a,), rule)


def reference_transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = tuple(np.argsort(axes))

    def rule(g: np.ndarray) -> None:
        reference_accumulate_grad(a, g.transpose(inv))

    return reference_emit(a.data.transpose(axes), (a,), rule)


def reference_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The matmul and add that ``tensor.linear`` fuses."""
    return tensor.add(reference_matmul(x, w), b)


def reference_embed(table: Tensor, ids: Sequence[int], positions: np.ndarray, rate: float,
                    rng: np.random.Generator | None, scope: str) -> Tensor:
    """The gather, ``scale`` by √d, position ``add`` and ``dropout`` that ``tensor.embed`` fuses."""
    try:
        x = tensor.add(reference_scale(reference_gather(table, ids), math.sqrt(table.shape[1])), Tensor(positions))
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None
    return x if rng is None else tensor.dropout(x, rate, rng)


def reference_log_softmax(x: Tensor, w: Tensor, b: Tensor, scope: str) -> Tensor:
    """The ``linear`` and one-argument log-softmax that ``tensor.log_softmax`` fuses."""
    try:
        return reference_log_probs(tensor.linear(x, w, b))
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None


def reference_attention(q: Tensor, k: Tensor, v: Tensor, c: float, mask: np.ndarray | None = None) -> Tensor:
    """The five-op chain of scaled-dot-product attention over a leading head
    axis that ``tensor.multi_head_attention`` fuses."""
    scores = reference_scale(reference_matmul(q, reference_transpose(k, (0, 2, 1))), c)
    if mask is not None:
        scores = tensor.add(scores, Tensor(mask))
    return reference_matmul(reference_softmax(scores, axis=-1), v)


def _constant(arr: np.ndarray) -> Tensor:
    """Wrap ``arr`` as it is, strides included, in a Tensor without a gradient."""
    t = Tensor.__new__(Tensor)
    t.data, t.requires_grad, t.grad = arr, False, None
    return t


def _split_heads(h: Tensor, heads: int) -> Tensor:
    return reference_transpose(tensor.reshape(h, (h.shape[0], heads, h.shape[1] // heads)), (1, 0, 2))


def _reference_keys_values(source: Tensor, wk: Tensor, wv: Tensor, bv: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """Keys ``source @ wk``, with no bias, and values ``source @ wv + bv``, split into heads."""
    return _split_heads(reference_matmul(source, wk), heads), _split_heads(tensor.linear(source, wv, bv), heads)


def reference_keys_values(memory: Tensor, params: Sequence[Tensor], heads: int, scope: str) -> tensor.KV:
    """The projections that ``tensor.keys_values`` fuses, as the attention chain runs them."""
    try:
        return tuple(h.data for h in _reference_keys_values(memory, *params[4:7], heads))
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None


def reference_multi_head_attention(x: Tensor, params: Sequence[Tensor], heads: int,
                                   memory: Tensor | tensor.KV | None = None, mask: np.ndarray | None = None,
                                   past: tensor.Past | None = None, *, rate: float,
                                   rng: np.random.Generator | None, scope: str) -> Tensor:
    """The chain of ``layer_norm``, projections (a ``matmul`` for the keys,
    ``linear`` for the queries and values), head split, attention, head
    merge, ``linear``, ``dropout`` and ``add`` that
    ``tensor.multi_head_attention`` fuses. It attends over the cached keys
    and values joined by ``np.concatenate`` and writes the new positions
    into ``past``'s buffers, as the fused op does. An error of any op inside
    the attention names ``attention``, as the fused op's score and output
    checks do."""
    gain, bias, wq, bq, wk, wv, bv, wo, bo = params
    t_q, d = x.shape
    try:
        normed = tensor.layer_norm(x, gain, bias)
        qh = _split_heads(tensor.linear(normed, wq, bq), heads)
        if memory is None or isinstance(memory, Tensor):
            kv = _reference_keys_values(normed if memory is None else memory, wk, wv, bv, heads)
            if past is not None:
                *buffers, n = past
                for buf, new in zip(buffers, kv):
                    buf[:, n:n + new.shape[1]] = new.data
                kv = tuple(Tensor(np.concatenate((buf[:, :n], new.data), axis=1)) for buf, new in zip(buffers, kv))
        else:
            kv = tuple(_constant(a) for a in memory)
        try:
            ctx = reference_attention(qh, *kv, 1.0 / math.sqrt(d // heads), mask)
        except NumericError:
            raise NumericError("attention produced non-finite values") from None
        merged = tensor.reshape(reference_transpose(ctx, (1, 0, 2)), (t_q, d))
        sub = tensor.linear(merged, wo, bo)
        return tensor.add(x, sub if rng is None else tensor.dropout(sub, rate, rng))
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None


def reference_feed_forward(x: Tensor, params: Sequence[Tensor], rate: float,
                           rng: np.random.Generator | None, scope: str) -> Tensor:
    """The ``layer_norm``, ``linear``, ``relu``, ``linear``, ``dropout`` and
    ``add`` that ``tensor.feed_forward`` fuses."""
    gain, bias, w1, b1, w2, b2 = params
    try:
        sub = tensor.linear(reference_relu(tensor.linear(tensor.layer_norm(x, gain, bias), w1, b1)), w2, b2)
        return tensor.add(x, sub if rng is None else tensor.dropout(sub, rate, rng))
    except NumericError as exc:
        raise NumericError(f"{exc} in {scope}") from None


def reference_sweep(emit: np.ndarray, skip: np.ndarray, plus=np.logaddexp, times=np.add, zero=NEG_INF) -> np.ndarray:
    """The single-table sweep that ``ctc._sweep`` stacks: prefix table of a (T, S) lattice."""
    T, S = emit.shape
    alpha = np.full((T, S), zero, dtype=emit.dtype)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, T):
        prev = alpha[t - 1]
        m = prev.copy()
        m[1:] = plus(m[1:], prev[:-1])
        m[2:] = np.where(skip[2:], plus(m[2:], prev[:-2]), m[2:])
        alpha[t] = times(m, emit[t])
    return alpha


def reference_lattice(lp: np.ndarray, labels: LabelSequence) -> CtcLattice:
    """Two sweeps, one per table, in place of ``ctc._lattice``'s one stacked sweep."""
    ext = _extended(labels)
    emit = lp[:, ext]
    alpha = reference_sweep(emit, _skip_allowed(ext))
    beta = reference_sweep(emit[::-1, ::-1], _skip_allowed(ext[::-1]))[::-1, ::-1]
    ll = float(np.logaddexp.reduce(alpha[-1, ::-1][:2]))
    return CtcLattice(alpha=alpha, beta=beta, extended_labels=tuple(int(x) for x in ext), log_likelihood=ll)


REFERENCES = {
    tensor: {
        "accumulate_grad": reference_accumulate_grad,
        "_emit": reference_emit,
        "_finite": reference_finite,
        "layer_norm": reference_layer_norm,
        "reshape": reference_reshape,
        "linear": reference_linear,
        "embed": reference_embed,
        "log_softmax": reference_log_softmax,
        "multi_head_attention": reference_multi_head_attention,
        "keys_values": reference_keys_values,
        "feed_forward": reference_feed_forward,
    },
    ctc: {"_lattice": reference_lattice},
}


def use_reference_tape_ops(monkeypatch) -> None:
    """Patch the reference tape ops and lattice in wherever the package binds the fast ones."""
    for home, pairs in REFERENCES.items():
        for name, reference in pairs.items():
            fast = getattr(home, name)
            for module in (tensor, model, training, ctc):
                if getattr(module, name, None) is fast:
                    monkeypatch.setattr(module, name, reference)


def names_in(paths: Iterable[Path]) -> set[str]:
    """Every name that the code in ``paths`` uses: each variable, attribute
    and imported name. A definition alone is not a use."""
    return {node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
