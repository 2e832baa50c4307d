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
from typing import Callable

import numpy as np

from .ctc import LabelSequence, collapse
from .data import EOS_ID
from .model import (
    ConfigError,
    ModelConfig,
    ModelParams,
    decode_autoregressive_step,
    encode,
    parallel_log_probs,
    self_attention_buffer,
    source_keys_values,
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
    if not (lp < np.inf).all():
        raise OptionError("log_probs must not hold NaN or +inf")
    return lp


def _best(scores: np.ndarray, width: int) -> list[int]:
    """Flat indices of the ``width`` highest scores and of every score tied
    with the lowest of them. Sorting just these by a key that starts with
    the score picks the same first ``width`` as sorting every entry."""
    flat = scores.ravel()
    cut = flat.size - width
    if cut <= 0:
        return list(range(flat.size))
    return np.flatnonzero(flat >= np.partition(flat, cut)[cut]).tolist()


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

    Each frame is one step over beams x symbols. One numpy add gives the
    mass of every extension; Python floats remain only for the per-beam
    terms: each beam's total, its own prefix (blank and repeat) and the
    extension, at most one, that recombines into it. A fresh extension has
    no blank mass, so its mass is its rank without a log-sum-exp. The
    result equals, float for float, the per-symbol loop that the tests keep
    as the reference.
    """
    opts = opts or DecodeOptions()
    lp = _as_table(log_probs)
    T, C = lp.shape

    use_scorer = scorer is not None and opts.external_scorer_weight > 0.0
    priors: dict[LabelSequence, float] = {}

    def prior(prefix: LabelSequence) -> float:
        """What ranking adds to the mass of ``prefix``."""
        if prefix not in priors:
            value = float(scorer(prefix))
            if not value < math.inf:
                raise OptionError(f"scorer returned {value} for prefix {prefix}")
            priors[prefix] = opts.external_scorer_weight * value
        return priors[prefix]

    every = list(range(1, C))
    every_column = {c: c - 1 for c in every}
    # (prefix, logp_blank, logp_nonblank), best first
    beams: list[tuple[LabelSequence, float, float]] = [((), 0.0, NEG_INF)]
    for t in range(T):
        row = lp[t]
        p = row.tolist()
        totals = [_lse2(pb, pnb) for _, pb, pnb in beams]
        if opts.max_candidates is not None and opts.max_candidates < C:
            symbols = sorted(np.argsort(-row, kind="stable")[: opts.max_candidates].tolist())
            blank = symbols[0] == 0
            grow = symbols[1:] if blank else symbols
            column = {c: j for j, c in enumerate(grow)}
            mass = np.add.outer(totals, row[grow])
        else:
            blank, grow, column = True, every, every_column
            mass = np.add.outer(totals, row[1:])
        # mass[b, j]: beam b extended by grow[j]; a repeat of the beam's last
        # symbol extends only the paths that end in blank.
        repeat = [column.get(prefix[-1]) if prefix else None for prefix, _, _ in beams]
        for b, (prefix, pb, _) in enumerate(beams):
            if repeat[b] is not None:
                mass[b, repeat[b]] = pb + p[prefix[-1]]

        cols = len(grow)
        index = {prefix: b for b, (prefix, _, _) in enumerate(beams)}
        stays: list[tuple[LabelSequence, float, float]] = []  # beams that keep their prefix
        merged: list[int] = []  # flat slots of extensions that are a live beam's prefix
        for b, (prefix, pb, pnb) in enumerate(beams):
            j = repeat[b]
            if j is None and not blank:
                continue
            nonblank = NEG_INF
            if j is not None:
                nonblank = pnb + p[prefix[-1]]
                parent = index.get(prefix[:-1])
                if parent is not None:
                    merged.append(parent * cols + j)
                    nonblank = _lse2(nonblank, float(mass[parent, j]))
            stays.append((prefix, totals[b] + p[0] if blank else NEG_INF, nonblank))

        rank = mass
        stay_rank = [_lse2(pb, pnb) for _, pb, pnb in stays]
        if use_scorer:
            rank = mass + np.array([[prior(prefix + (c,)) for c in grow] for prefix, _, _ in beams]
                                   ).reshape(mass.shape)
            stay_rank = [r + prior(prefix) for r, (prefix, _, _) in zip(stay_rank, stays)]
        pool = np.concatenate((rank.ravel(), stay_rank))
        # A merged extension is ranked once, as the beam it recombined into.
        # At -inf it keeps its flat index and cannot raise the cut of _best.
        pool[merged] = NEG_INF
        keep = _best(pool, opts.beam_width)
        ranked = []
        for f, r in zip(keep, pool[keep].tolist()):
            if f >= mass.size:
                ranked.append((-r, *stays[f - mass.size]))
            elif f not in merged:
                b, j = divmod(f, cols)
                ranked.append((-r, beams[b][0] + (grow[j],), NEG_INF, float(mass.flat[f])))
        ranked.sort()  # by (-rank, prefix); prefixes are unique
        beams = [(prefix, pb, pnb) for _, prefix, pb, pnb in ranked[: opts.beam_width]]

    return [Hypothesis(prefix, pb, pnb) for prefix, pb, pnb in beams]


def check_max_steps(config: ModelConfig, max_steps: int) -> None:
    """Reject an autoregressive step budget the decoder cannot run: step t
    feeds t + 1 decoder positions, at most max_len."""
    if not 0 <= max_steps <= config.max_len:
        raise OptionError(f"max_steps must be in 0..{config.max_len} (the model's max_len), got {max_steps}")


def ar_greedy_decode(config: ModelConfig, params: ModelParams, source_ids,
                     max_steps: int) -> LabelSequence:
    """Argmax one token at a time until end-of-sequence or max_steps."""
    if not config.is_autoregressive:
        raise ConfigError("ar_greedy_decode requires the autoregressive-baseline variant")
    check_max_steps(config, max_steps)
    src = source_keys_values(config, params, encode(config, params, source_ids))
    kv = self_attention_buffer(config)
    out: list[int] = []
    while len(out) < max_steps:
        row = decode_autoregressive_step(config, params, src, out, kv).data
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
    check_max_steps(config, max_steps)
    src = source_keys_values(config, params, encode(config, params, source_ids))
    # (cum, tokens, the buffer its parent stepped in, shared by its siblings)
    alive: list[tuple[float, LabelSequence, np.ndarray]] = [(0.0, (), self_attention_buffer(config))]
    finished: list[tuple[float, LabelSequence]] = []  # (normalized score, tokens)
    for step in range(max_steps):
        rows, buffers = [], []
        for _, tokens, kv in alive:
            if any(kv is b for b in buffers):
                # A sibling extended the parent's buffer in place first: copy
                # the parent's positions, [EOS] + tokens[:-1], to a new one.
                kv, shared = np.empty_like(kv), kv
                kv[..., :len(tokens), :] = shared[..., :len(tokens), :]
            buffers.append(kv)
            rows.append(decode_autoregressive_step(config, params, src, tokens, kv).data)
        scores = np.array([cum for cum, _, _ in alive])[:, None] + np.array(rows)
        keep = _best(scores, opts.beam_width)
        # (-score, tokens + (token,), parent); column j scores id j+1
        pool = sorted((-s, alive[f // config.vocab_size][1] + (f % config.vocab_size + 1,), f // config.vocab_size)
                      for f, s in zip(keep, scores.ravel()[keep].tolist()))
        alive = []
        for neg, tokens, parent in pool[: opts.beam_width]:
            if tokens[-1] == EOS_ID:
                finished.append((-neg / len(tokens), tokens[:-1]))
            else:
                alive.append((-neg, tokens, buffers[parent]))
        if not alive:
            break
    for cum, tokens, _ in alive:
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
