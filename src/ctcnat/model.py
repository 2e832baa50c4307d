"""Transformer blocks and the four model variants.

Three parallel-labeling variants share one encoder: a deep encoder that
labels the split states directly, an encoder-decoder whose decoder runs
unmasked self-attention plus encoder attention over the split states, and
the same with sinusoidal positions added to the decoder input. The fourth
variant is a conventional autoregressive baseline whose decoder self-
attention is causally masked.

State splitting projects each encoder state to k model-width vectors,
s[c*k + b] = (h[c] @ W + bias)[b*d : (b+1)*d], so the frame sequence is k
times longer than the source and the labeler can emit targets longer than
the source.

Blocks are pre-norm (norm before each sublayer, final norm after the
stack), which is the stabler choice at desk scale. Each sublayer, with its
norm, dropout and residual add, is one tape op, and so is each end of a
stack (``embed`` in, ``log_softmax`` out). Forward passes are pure given
immutable params; dropout only runs when a generator is supplied. The
baseline's incremental decoder gives each hypothesis its own self-attention
key and value buffer, preallocated to max_len; each step runs one position
and writes its keys and values in place (``decode_autoregressive_step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .data import EOS_ID, token_ids
from .tensor import (
    KV,
    Past,
    ShapeError,
    Tensor,
    add,
    dropout,
    embed,
    feed_forward,
    keys_values,
    layer_norm,
    linear,
    log_softmax,
    multi_head_attention,
    reshape,
)

VARIANTS = ("deep-encoder", "encoder-decoder", "encoder-decoder-posenc", "autoregressive-baseline")
NAR_VARIANTS = VARIANTS[:3]

MASK_OFF = -1e9  # large enough that exp underflows to exactly 0.0 in float64


class ConfigError(ValueError):
    """Model configuration violates its invariants."""


class LengthError(ValueError):
    """Sequence longer than the configured maximum (or empty)."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    vocab_size counts the non-blank ids (pad, eos, unk and real tokens);
    the parallel labeler adds one blank column, so it emits vocab_size + 1
    log-probabilities per frame. The autoregressive head emits vocab_size
    columns for ids 1..vocab_size.
    """

    vocab_size: int
    d_model: int = 64
    ff_dim: int = 256
    heads: int = 4
    enc_layers: int = 2
    dec_layers: int = 2
    k: int = 3
    variant: str = "encoder-decoder"
    max_len: int = 128
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        for name in ("vocab_size", "d_model", "ff_dim", "heads", "enc_layers", "k", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dec_layers < 0:
            raise ConfigError(f"dec_layers must be >= 0, got {self.dec_layers}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        if self.variant == "deep-encoder" and self.dec_layers != 0:
            raise ConfigError("deep-encoder variant requires dec_layers=0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def is_autoregressive(self) -> bool:
        return self.variant == "autoregressive-baseline"


ModelParams = dict[str, Tensor]


@dataclass
class EncoderStates:
    """Final encoder states, one row per source position."""

    states: Tensor


@dataclass
class SplitStates:
    """Decoder input states, exactly k rows per source position."""

    states: Tensor


@lru_cache(maxsize=256)
def _sublayers(prefix: str, cross: bool) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The scope and parameter names of each sublayer of block ``prefix``,
    in the order the sublayer ops take them: norm gain and bias, then weights."""
    def sublayer(norm: str, scope: str, weights: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        return f"{prefix}.{scope}", (f"{prefix}.{norm}.gain", f"{prefix}.{norm}.bias",
                                     *(f"{prefix}.{scope}.{w}" for w in weights))

    attn = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
    cross_attn = (sublayer("ln2", "src_attn", attn),) if cross else ()
    return (sublayer("ln1", "self_attn", attn), *cross_attn,
            sublayer("ln3" if cross else "ln2", "ff", ("w1", "b1", "w2", "b2")))


def _block_shapes(prefix: str, d: int, ff: int, cross: bool) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter that ``_sublayers`` names for block ``prefix``."""
    ff_shapes = {f"{prefix}.ff.w1": (d, ff), f"{prefix}.ff.b1": (ff,), f"{prefix}.ff.w2": (ff, d)}
    return {name: ff_shapes.get(name, (d, d) if name.rsplit(".", 1)[1].startswith("w") else (d,))
            for _, names in _sublayers(prefix, cross) for name in names}


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The exact named-parameter contract implied by a config."""
    d, ff, v = config.d_model, config.ff_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"src_embed": (v + 1, d)}
    for i in range(config.enc_layers):
        shapes.update(_block_shapes(f"enc.{i}", d, ff, cross=False))
    shapes["enc.ln_out.gain"] = (d,)
    shapes["enc.ln_out.bias"] = (d,)
    if config.is_autoregressive:
        shapes["tgt_embed"] = (v + 1, d)
    else:
        shapes["split.w"] = (d, config.k * d)
        shapes["split.b"] = (config.k * d,)
    if config.variant != "deep-encoder":
        for i in range(config.dec_layers):
            shapes.update(_block_shapes(f"dec.{i}", d, ff, cross=True))
        shapes["dec.ln_out.gain"] = (d,)
        shapes["dec.ln_out.bias"] = (d,)
    out = v if config.is_autoregressive else v + 1  # the parallel labeler adds the blank column
    shapes["out.w"] = (d, out)
    shapes["out.b"] = (out,)
    return shapes


def init_params(config: ModelConfig, seed: int | np.random.Generator = 0) -> ModelParams:
    """Xavier-uniform weights, unit gains, zero biases; deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    params: ModelParams = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("embed"):
            values = rng.normal(0.0, 1.0 / math.sqrt(config.d_model), size=shape)
        elif name.endswith(".gain"):
            values = np.ones(shape)
        elif len(shape) == 1:
            values = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            values = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(values, requires_grad=True)
    return params


@lru_cache(maxsize=32)
def sinusoid_table(length: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table; even columns sine, odd columns cosine."""
    pos = np.arange(length)[:, None]
    dim = np.arange(d // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * dim / d)
    table = np.zeros((length, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=256)
def _causal_mask(n: int) -> np.ndarray:
    mask = np.triu(np.full((n, n), MASK_OFF), k=1)
    mask.setflags(write=False)
    return mask


def _ln(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"], prefix)


def _block(params: ModelParams, prefix: str, x: Tensor, config: ModelConfig,
           memory: Tensor | KV | None = None, mask: np.ndarray | None = None,
           rng: np.random.Generator | None = None, past: Past | None = None) -> Tensor:
    """One pre-norm block over the positions in x.

    ``memory``, the encoder states or their encoder-attention keys and
    values, adds the encoder-attention sublayer. ``past`` holds the key and
    value buffers of the self-attention, filled up to the positions of x.
    """
    rate = config.dropout_rate
    sublayers = _sublayers(prefix, memory is not None)
    scope, names = sublayers[0]
    x = multi_head_attention(x, [params[n] for n in names], config.heads, mask=mask, past=past, rate=rate,
                             rng=rng, scope=scope)
    if memory is not None:
        scope, names = sublayers[1]
        x = multi_head_attention(x, [params[n] for n in names], config.heads, memory, rate=rate, rng=rng,
                                 scope=scope)
    scope, names = sublayers[-1]
    return feed_forward(x, [params[n] for n in names], rate, rng, scope)


def check_source_length(config: ModelConfig, length: int) -> None:
    """The encoder's limit: a source is non-empty and at most max_len ids long."""
    if length == 0:
        raise LengthError("empty source sequence")
    if length > config.max_len:
        raise LengthError(f"source length {length} exceeds max_len {config.max_len}")


def check_decoder_input_length(config: ModelConfig, length: int) -> None:
    """The autoregressive decoder's limit: its input, [EOS] + target, is at
    most max_len ids long."""
    if length > config.max_len:
        raise LengthError(f"decoder input length {length} exceeds max_len {config.max_len}")


def encode(config: ModelConfig, params: ModelParams, source_ids,
           *, dropout_rng: np.random.Generator | None = None) -> EncoderStates:
    """Run the shared encoder stack over a source id sequence that
    ``check_source_length`` admits."""
    ids = token_ids(source_ids, 0, config.vocab_size)
    check_source_length(config, len(ids))
    positions = sinusoid_table(config.max_len, config.d_model)[: len(ids)]
    x = embed(params["src_embed"], ids, positions, config.dropout_rate, dropout_rng, "src_embed")
    for i in range(config.enc_layers):
        x = _block(params, f"enc.{i}", x, config, rng=dropout_rng)
    return EncoderStates(states=_ln(params, "enc.ln_out", x))


def split_states(params: ModelParams, enc: EncoderStates, k: int) -> SplitStates:
    """Project each encoder state to k consecutive decoder-input states."""
    t_x, d = enc.states.shape
    w = params["split.w"]
    if w.shape != (d, k * d):
        raise ShapeError(f"split projection has shape {w.shape}, need {(d, k * d)}")
    return SplitStates(states=reshape(linear(enc.states, w, params["split.b"], "split"), (k * t_x, d)))


def decode_parallel(config: ModelConfig, params: ModelParams, split: SplitStates,
                    enc: EncoderStates, *, dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Per-frame log-probabilities over vocabulary plus blank, all frames at once.

    The decoder self-attention carries no temporal mask; every frame sees
    every other frame.
    """
    if config.is_autoregressive:
        raise ConfigError("decode_parallel requires a parallel-labeling variant")
    x = split.states
    if config.variant != "deep-encoder":
        if config.variant == "encoder-decoder-posenc":
            x = add(x, Tensor(sinusoid_table(config.k * config.max_len, config.d_model)[: x.shape[0]]), "split")
        if dropout_rng is not None:
            x = dropout(x, config.dropout_rate, dropout_rng)
        for i in range(config.dec_layers):
            x = _block(params, f"dec.{i}", x, config, enc.states, rng=dropout_rng)
        x = _ln(params, "dec.ln_out", x)
    return log_softmax(x, params["out.w"], params["out.b"], "out")


def parallel_log_probs(config: ModelConfig, params: ModelParams, source_ids) -> Tensor:
    """Inference forward of a parallel labeler: encode, split, label every frame."""
    enc = encode(config, params, source_ids)
    return decode_parallel(config, params, split_states(params, enc, config.k), enc)


def _require_autoregressive(config: ModelConfig) -> None:
    if not config.is_autoregressive:
        raise ConfigError("autoregressive decoding requires the autoregressive-baseline variant")


def _decoder_input(config: ModelConfig, target_ids) -> list[int]:
    """[EOS] + target ids; EOS doubles as the start-of-sequence marker."""
    _require_autoregressive(config)
    ids = [EOS_ID] + token_ids(target_ids, 1, config.vocab_size)
    check_decoder_input_length(config, len(ids))
    return ids


def _ar_decoder(config: ModelConfig, params: ModelParams, ids: list[int],
                memory: Sequence[Tensor | KV], past: np.ndarray | None = None,
                rng: np.random.Generator | None = None) -> Tensor:
    """The causal decoder over the decoder-input ``ids``.

    ``memory`` gives each layer the encoder states or their encoder-attention
    keys and values. With no ``past`` it runs every position under the
    causal mask. ``past`` holds each layer's self-attention keys and values
    of every position but the last; the decoder then runs only the last
    position and writes its keys and values after them. Returns the
    log-probability rows of the positions run.
    """
    start = 0 if past is None else len(ids) - 1
    positions = sinusoid_table(config.max_len, config.d_model)[start:len(ids)]
    x = embed(params["tgt_embed"], ids[start:], positions, config.dropout_rate, rng, "tgt_embed")
    mask = _causal_mask(len(ids)) if past is None and len(ids) > 1 else None
    for i in range(config.dec_layers):
        x = _block(params, f"dec.{i}", x, config, memory[i], mask, rng,
                   None if past is None else (past[i, 0], past[i, 1], start))
    return log_softmax(_ln(params, "dec.ln_out", x), params["out.w"], params["out.b"], "out")


def decode_autoregressive_full(config: ModelConfig, params: ModelParams, enc: EncoderStates,
                               target_ids, *, dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Teacher-forced pass: row t is the next-token log-distribution after
    consuming ``target_ids[:t]`` (row 0 conditions only on start-of-sequence).

    Output columns are the vocab_size non-blank ids; column j scores id j+1.
    """
    ids = _decoder_input(config, target_ids)
    return _ar_decoder(config, params, ids, [enc.states] * config.dec_layers, rng=dropout_rng)


def source_keys_values(config: ModelConfig, params: ModelParams, enc: EncoderStates) -> list[KV]:
    """Each decoder layer's encoder-attention keys and values of ``enc``,
    which every autoregressive step over that source reads."""
    _require_autoregressive(config)
    src_attn = (_sublayers(f"dec.{i}", True)[1] for i in range(config.dec_layers))  # (scope, names) per layer
    return [keys_values(enc.states, [params[n] for n in names], config.heads, scope) for scope, names in src_attn]


def self_attention_buffer(config: ModelConfig) -> np.ndarray:
    """Room for every decoder layer's self-attention keys and values at
    max_len positions: an uninitialized (dec_layers, 2, heads, max_len,
    d / heads) array, one per hypothesis."""
    return np.empty((config.dec_layers, 2, config.heads, config.max_len, config.d_model // config.heads))


def decode_autoregressive_step(config: ModelConfig, params: ModelParams, src: Sequence[KV],
                               prefix_ids, kv: np.ndarray) -> Tensor:
    """Next-token log-distribution after a decoded prefix (inference only).

    ``src`` is ``source_keys_values`` of the source. ``kv``, a
    ``self_attention_buffer``, holds the self-attention keys and values of
    the decoder-input positions [EOS] + prefix_ids[:-1]. The step runs only
    position len(prefix_ids) and writes its keys and values into ``kv`` in
    place, so the buffer then holds [EOS] + prefix_ids.
    """
    ids = _decoder_input(config, prefix_ids)
    return Tensor(_ar_decoder(config, params, ids, src, kv).data[0])
