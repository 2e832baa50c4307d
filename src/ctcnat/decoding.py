"""Parallel greedy labeling, prefix beam search, the baseline decoders, and
``translate``, the one source-to-output decode for either model family.

The CTC beam tracks collapsed prefixes, each with separate masses for paths
ending in blank and paths ending in the prefix's last symbol; copies of the
same prefix recombine by log-sum-exp before pruning. Hypotheses rank by
their CTC mass alone, with no language model, as in the paper.

Tie-breaking is total everywhere so identical inputs decode identically:
frame argmax prefers the lowest id, equal-score hypotheses rank the
lexicographically smaller prefix first.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .ctc import LabelSequence, _as_table, collapse
from .data import EOS_ID, check_integer
from .model import (
    ModelConfig,
    ModelParams,
    check_family,
    decode_autoregressive_step,
    encode,
    parallel_log_probs,
    self_attention_buffer,
    source_keys_values,
)
from .tensor import NEG_INF


class OptionError(ValueError):
    """Invalid decoding options."""


@dataclass(frozen=True)
class DecodeOptions:
    """Beam settings.

    beam_width, an integer >= 1, defaults to 4, matching the baseline's
    beam; there is no canonical width for the parallel models, so treat it
    as a knob. The CTC search extends each beam with every symbol, but
    offers at most beam_width fresh extensions per beam and frame, plus
    ties, since no more can survive the cut.
    """

    beam_width: int = 4

    def __post_init__(self):
        check_integer("beam_width", self.beam_width, 1, error=OptionError)


@dataclass(frozen=True)
class Hypothesis:
    """A collapsed output prefix with its terminal path masses."""

    prefix: LabelSequence
    logp_blank: float
    logp_nonblank: float

    @property
    def score(self) -> float:
        """The prefix's CTC mass, by which the beam search ranks it."""
        return _lse2(self.logp_blank, self.logp_nonblank)


def _lse2(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


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


def ctc_beam_search(log_probs, opts: DecodeOptions | None = None) -> list[Hypothesis]:
    """Left-to-right prefix beam search with recombination.

    Returns the surviving hypotheses ranked best-first by CTC mass
    (Hypothesis.score), ties toward the lexicographically smaller prefix.

    Each frame's symbols are ranked once per search, by descending mass,
    ties toward the lower id. At each frame every beam offers its stay (the
    blank, its own repeat and the extension of its live parent that
    recombines into it), its repeat extension unless that prefix is a live
    beam, and its fresh extensions in ranked order, live children skipped:
    beam_width of them and every further one of the same mass. This is
    exact: within one beam, the masses of the fresh extensions, its total
    plus each symbol's, do not increase along the ranked order, so a fresh
    extension the cut keeps is among the first beam_width offered or ties
    the last of them.

    Prefixes are nodes of a trie local to the call, each the prefix of its
    parent node plus one symbol, so an offer copies no prefix. Only the
    offers that survive the cut become nodes, and a prefix that was a node
    before, a parent cut and extended again, gets its node back, so a
    beam's live parent is the beam at its parent node. The pool is sorted
    by mass alone and cut to beam_width. Only a run of equal masses that
    straddles the cut is ordered by its spelled-out prefixes, which gives
    the cut of a sort by (-mass, prefix). The result equals, float for
    float, the per-symbol loop over every extension that the tests keep as
    the reference.
    """
    opts = opts or DecodeOptions()
    lp = _as_table(log_probs)
    width = opts.beam_width
    # Node n is the prefix of node up[n] followed by sym[n]. Node 0 is the
    # empty prefix: it has no parent, and its symbol, the blank, is no label.
    up, sym = [-1], [0]
    nodes: dict[tuple[int, int], int] = {}  # (parent node, symbol) -> node

    def spell(node: int, c: int = -1) -> LabelSequence:
        labels = [c] if c >= 0 else []
        while node:
            labels.append(sym[node])
            node = up[node]
        return tuple(reversed(labels))

    # (-mass, node, logp_blank, logp_nonblank)
    beams: list[tuple[float, int, float, float]] = [(0.0, 0, 0.0, NEG_INF)]
    for p, symbols in zip(lp.tolist(), np.argsort(-lp, axis=1, kind="stable").tolist()):
        live = {node: b for b, (_, node, _, _) in enumerate(beams)}
        parents = [live.get(up[node]) for _, node, _, _ in beams]
        children: list[set[int]] = [set() for _ in beams]  # the last symbol of each live child
        for (_, node, _, _), parent in zip(beams, parents):
            if parent is not None:
                children[parent].add(sym[node])
        pool = []  # (-mass, beam node, symbol or -1 for a stay, logp_blank, logp_nonblank)
        for (_, node, pb, pnb), parent, kids in zip(beams, parents, children):
            total = _lse2(pb, pnb)
            last = sym[node]
            nonblank = NEG_INF
            if node:
                nonblank = pnb + p[last]
                if parent is not None:  # the live parent's extension recombines into this beam
                    _, parent_node, parent_pb, parent_pnb = beams[parent]
                    into = parent_pb if sym[parent_node] == last else _lse2(parent_pb, parent_pnb)
                    nonblank = _lse2(nonblank, into + p[last])
                if last not in kids:
                    # a repeat of the last symbol extends only the paths that end in blank
                    mass = pb + p[last]
                    pool.append((-mass, node, last, NEG_INF, mass))
            blank = total + p[0]
            pool.append((-_lse2(blank, nonblank), node, -1, blank, nonblank))
            taken, floor = 0, NEG_INF
            for c in symbols:
                mass = total + p[c]
                if taken >= width and mass < floor:
                    break
                if c != 0 and c != last and c not in kids:
                    pool.append((-mass, node, c, NEG_INF, mass))
                    taken, floor = taken + 1, mass
        pool.sort(key=itemgetter(0))
        if len(pool) > width and pool[width - 1][0] == pool[width][0]:
            # equal masses straddle the cut: the smaller prefixes survive
            lo = bisect_left(pool, pool[width][0], key=itemgetter(0))
            hi = bisect_right(pool, pool[width][0], key=itemgetter(0))
            pool[lo:hi] = sorted(pool[lo:hi], key=lambda e: spell(e[1], e[2]))
        beams = []
        for neg, node, c, pb, pnb in pool[:width]:
            if c >= 0:
                child = nodes.get((node, c))
                if child is None:
                    child = nodes[node, c] = len(up)
                    up.append(node)
                    sym.append(c)
                node = child
            beams.append((neg, node, pb, pnb))

    ranked = sorted((neg, spell(node), pb, pnb) for neg, node, pb, pnb in beams)
    return [Hypothesis(prefix, pb, pnb) for _, prefix, pb, pnb in ranked]


def check_max_steps(config: ModelConfig, max_steps: int) -> None:
    """Reject an autoregressive step budget the decoder cannot run: step t
    feeds t + 1 decoder positions, at most max_len."""
    check_integer("max_steps", max_steps, 0, config.max_len, error=OptionError)


def ar_greedy_decode(config: ModelConfig, params: ModelParams, source_ids,
                     max_steps: int) -> LabelSequence:
    """Argmax one token at a time until end-of-sequence or max_steps."""
    check_family(config, True, "ar_greedy_decode")
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
    check_family(config, True, "ar_beam_decode")
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
