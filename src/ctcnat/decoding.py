"""Parallel greedy labeling, prefix beam search, the baseline decoders, and
``translate``, the one source-to-output decode for either model family.

The CTC beam tracks collapsed prefixes, each with separate masses for paths
ending in blank and paths ending in the prefix's last symbol; copies of the
same prefix recombine by log-sum-exp before pruning. An optional external
scorer (a pure prefix -> log-score function, e.g. a language model) can be
mixed into the ranking; none ships here.

Tie-breaking is total everywhere so identical inputs decode identically:
frame argmax prefers the lowest id, equal-score hypotheses rank the
lexicographically smaller prefix first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ctc import LabelSequence, collapse
from .data import EOS_ID
from .model import (
    ConfigError,
    DecoderCache,
    ModelConfig,
    ModelParams,
    decode_autoregressive_step,
    encode,
    parallel_log_probs,
)
from .tensor import NEG_INF


class OptionError(ValueError):
    """Invalid decoding options."""


PrefixScorer = Callable[[LabelSequence], float]


@dataclass(frozen=True)
class DecodeOptions:
    """Beam settings.

    beam_width defaults to 4, matching the baseline's beam; there is no
    canonical width for the parallel models, so treat it as a knob.
    max_candidates bounds how many symbols each frame may extend a
    hypothesis with (None = all). external_scorer_weight of 0 disables the
    scorer hook even when a scorer is passed.
    """

    beam_width: int = 4
    max_candidates: int | None = None
    external_scorer_weight: float = 0.0

    def __post_init__(self):
        if self.beam_width < 1:
            raise OptionError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise OptionError(f"max_candidates must be >= 1, got {self.max_candidates}")
        if self.external_scorer_weight < 0:
            raise OptionError(f"external_scorer_weight must be >= 0, got {self.external_scorer_weight}")


@dataclass(frozen=True)
class Hypothesis:
    """A collapsed output prefix with its terminal path masses."""

    prefix: LabelSequence
    logp_blank: float
    logp_nonblank: float

    @property
    def score(self) -> float:
        return _lse2(self.logp_blank, self.logp_nonblank)


def _lse2(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _as_table(log_probs) -> np.ndarray:
    lp = np.asarray(getattr(log_probs, "data", log_probs), dtype=np.float64)
    if lp.ndim != 2:
        raise OptionError(f"log_probs must be 2-D, got shape {lp.shape}")
    return lp


def greedy_ctc_frames(log_probs) -> list[int]:
    """Per-frame argmax ids, blanks included (ties go to the lowest id)."""
    lp = _as_table(log_probs)
    return [int(i) for i in lp.argmax(axis=1)]


def greedy_ctc_decode(log_probs) -> LabelSequence:
    """Collapse of the per-frame argmax labeling; fully parallel decoding."""
    return collapse(greedy_ctc_frames(log_probs))


def ctc_beam_search(log_probs, opts: DecodeOptions | None = None,
                    scorer: PrefixScorer | None = None) -> list[Hypothesis]:
    """Left-to-right prefix beam search with recombination.

    Returns the surviving hypotheses ranked best-first. Ranking uses the
    pure CTC mass unless a scorer is supplied with a positive weight, in
    which case it uses mass + weight * scorer(prefix); Hypothesis.score is
    always the pure CTC mass.
    """
    opts = opts or DecodeOptions()
    if opts.beam_width < 1:
        raise OptionError(f"beam_width must be >= 1, got {opts.beam_width}")
    lp = _as_table(log_probs)
    T, C = lp.shape

    use_scorer = scorer is not None and opts.external_scorer_weight > 0.0
    scorer_cache: dict[LabelSequence, float] = {}

    def rank_score(prefix: LabelSequence, mass: float) -> float:
        if not use_scorer:
            return mass
        if prefix not in scorer_cache:
            scorer_cache[prefix] = float(scorer(prefix))
        return mass + opts.external_scorer_weight * scorer_cache[prefix]

    beams: dict[LabelSequence, list[float]] = {(): [0.0, NEG_INF]}
    for t in range(T):
        row = lp[t]
        if opts.max_candidates is not None and opts.max_candidates < C:
            symbols = sorted(np.argsort(-row, kind="stable")[: opts.max_candidates].tolist())
        else:
            symbols = range(C)
        nxt: dict[LabelSequence, list[float]] = {}
        for prefix, (pb, pnb) in beams.items():
            total = _lse2(pb, pnb)
            last = prefix[-1] if prefix else None
            for c in symbols:
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
        ranked = sorted(nxt.items(), key=lambda kv: (-rank_score(kv[0], _lse2(*kv[1])), kv[0]))
        beams = dict(ranked[: opts.beam_width])

    result = [Hypothesis(prefix, pb, pnb) for prefix, (pb, pnb) in beams.items()]
    result.sort(key=lambda h: (-rank_score(h.prefix, h.score), h.prefix))
    return result


def ar_greedy_decode(config: ModelConfig, params: ModelParams, source_ids,
                     max_steps: int) -> LabelSequence:
    """Argmax one token at a time until end-of-sequence or max_steps."""
    if not config.is_autoregressive:
        raise ConfigError("ar_greedy_decode requires the autoregressive-baseline variant")
    enc = encode(config, params, source_ids)
    cache = DecoderCache.build(config, params, enc)
    out: list[int] = []
    while len(out) < max_steps:
        row = decode_autoregressive_step(config, params, enc, out, cache).data
        token = int(row.argmax()) + 1  # column j scores id j+1
        if token == EOS_ID:
            break
        out.append(token)
    return tuple(out)


def ar_beam_decode(config: ModelConfig, params: ModelParams, source_ids,
                   opts: DecodeOptions, max_steps: int) -> LabelSequence:
    """Length-normalized beam search over token sequences.

    A hypothesis finishes by emitting end-of-sequence or by reaching
    max_steps; the final choice maximizes cumulative log-probability
    divided by the number of emitted tokens (the terminator counts).
    """
    if not config.is_autoregressive:
        raise ConfigError("ar_beam_decode requires the autoregressive-baseline variant")
    if opts.beam_width < 1:
        raise OptionError(f"beam_width must be >= 1, got {opts.beam_width}")
    enc = encode(config, params, source_ids)
    cache = DecoderCache.build(config, params, enc)
    alive: list[tuple[float, LabelSequence]] = [(0.0, ())]
    finished: list[tuple[float, LabelSequence]] = []  # (normalized score, tokens)
    for step in range(max_steps):
        pool: list[tuple[float, LabelSequence, int]] = []
        for cum, tokens in alive:
            row = decode_autoregressive_step(config, params, enc, tokens, cache).data
            for j in range(config.vocab_size):
                pool.append((cum + float(row[j]), tokens, j + 1))
        pool.sort(key=lambda e: (-e[0], e[1] + (e[2],)))
        alive = []
        for cum, tokens, token in pool[: opts.beam_width]:
            if token == EOS_ID:
                finished.append((cum / (len(tokens) + 1), tokens))
            else:
                alive.append((cum, tokens + (token,)))
        if not alive:
            break
    for cum, tokens in alive:
        finished.append((cum / max(len(tokens), 1), tokens))
    finished.sort(key=lambda e: (-e[0], e[1]))
    return finished[0][1]


def translate(config: ModelConfig, params: ModelParams, source_ids,
              beam: DecodeOptions | None = None, max_steps: int | None = None) -> LabelSequence:
    """Decode one source with either model family; ``beam=None`` is greedy.

    ``max_steps`` bounds the autoregressive output and defaults to
    min(2 * source length + 8, max_len - 1); the parallel models ignore it,
    their output length being bounded by k times the source length.
    """
    if config.is_autoregressive:
        if max_steps is None:
            max_steps = min(2 * len(source_ids) + 8, config.max_len - 1)
        if beam is None:
            return ar_greedy_decode(config, params, source_ids, max_steps)
        return ar_beam_decode(config, params, source_ids, beam, max_steps)
    log_probs = parallel_log_probs(config, params, source_ids)
    if beam is None:
        return greedy_ctc_decode(log_probs)
    return ctc_beam_search(log_probs, beam)[0].prefix
