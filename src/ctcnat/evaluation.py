"""BLEU scoring, Pearson correlation, and per-sentence quality analysis.

corpus_bleu is 4-gram BLEU with pooled clipped counts, geometric mean and
the exp(1 - r/c) brevity penalty. sentence_bleu add-one smooths the n >= 2
precisions only (unigram stays unsmoothed, so zero word overlap still
scores 0). Both operate on token sequences; callers tokenize, conventionally
by whitespace on detokenized text so scores are comparable across
vocabulary modes.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ctc import collapse
from .data import BLANK_ID, SentencePair, Vocabulary
from .decoding import DecodeOptions, ctc_beam_search, greedy_ctc_frames, translate
from .model import ModelConfig, ModelParams, parallel_log_probs

BLEU_ORDER = 4


class InputError(ValueError):
    """Unusable evaluation input."""


class UndefinedCorrelationError(ValueError):
    """Pearson correlation of a zero-variance sequence."""


Tokens = Sequence[str]


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(hyp: Tokens, ref: Tokens, n: int) -> tuple[int, int]:
    counts = _ngrams(hyp, n)
    if not counts:
        return 0, 0
    ref_counts = _ngrams(ref, n)
    clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
    return clipped, sum(counts.values())


def modified_precisions(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> list[float]:
    """Corpus-pooled clipped n-gram precisions for n = 1..4."""
    precisions = []
    for n in range(1, BLEU_ORDER + 1):
        clipped = total = 0
        for hyp, ref in zip(hypotheses, references):
            c, t = _clipped_matches(hyp, ref, n)
            clipped += c
            total += t
        precisions.append(clipped / total if total else 0.0)
    return precisions


def _brevity_penalty(c: int, r: int) -> float:
    if c == 0:
        return 0.0
    if c >= r:
        return 1.0
    return math.exp(1.0 - r / c)


def corpus_bleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Corpus BLEU-4 in [0, 100]; identity corpora score exactly 100."""
    if len(hypotheses) != len(references):
        raise InputError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise InputError("empty corpus")
    precisions = modified_precisions(hypotheses, references)
    if any(p == 0.0 for p in precisions):
        return 0.0
    c = sum(len(h) for h in hypotheses)
    r = sum(len(ref) for ref in references)
    log_mean = sum(math.log(p) for p in precisions) / BLEU_ORDER
    return 100.0 * _brevity_penalty(c, r) * math.exp(log_mean)


def sentence_bleu(hypothesis: Tokens, reference: Tokens) -> float:
    """Smoothed sentence BLEU-4; add-one on the n >= 2 precisions."""
    if not reference:
        raise InputError("empty reference")
    if not hypothesis:
        return 0.0
    logs = []
    for n in range(1, BLEU_ORDER + 1):
        clipped, total = _clipped_matches(hypothesis, reference, n)
        if n == 1:
            if clipped == 0:
                return 0.0
            p = clipped / total
        else:
            p = (clipped + 1.0) / (total + 1.0)
        logs.append(math.log(p))
    return 100.0 * _brevity_penalty(len(hypothesis), len(reference)) * math.exp(sum(logs) / BLEU_ORDER)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise InputError(f"need two equal-length sequences of >= 2 points, got {len(xs)} and {len(ys)}")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in one of the sequences")
    return float(xc @ yc) / (sx * sy)


def exact_match_rate(hypotheses: Sequence, references: Sequence) -> float:
    if len(hypotheses) != len(references):
        raise InputError("hypothesis/reference count mismatch")
    if not hypotheses:
        raise InputError("empty corpus")
    hits = sum(1 for h, r in zip(hypotheses, references) if tuple(h) == tuple(r))
    return hits / len(hypotheses)


@dataclass(frozen=True)
class SentenceRecord:
    sentence_id: int
    src_len: int
    out_len: int
    null_count: int | None
    sent_bleu: float


@dataclass
class EvalReport:
    """Per-sentence quality records plus corpus-level aggregates.

    Correlations are None when undefined (constant or unknown column), as
    for the null counts of an autoregressive model, which are all zero.
    """

    records: list[SentenceRecord]
    corpus_bleu: float
    r_bleu_src_len: float | None
    r_bleu_null_count: float | None

    @classmethod
    def build(cls, hypotheses: Sequence[Tokens], references: Sequence[Tokens],
              src_lens: Sequence[int], null_counts: Sequence[int] | None = None) -> "EvalReport":
        """Score aligned hypothesis and reference token lists; the
        per-sentence sequences must be equally long. Without null counts
        (a report from text files) they read None."""
        score = corpus_bleu(hypotheses, references)
        nulls = [None] * len(hypotheses) if null_counts is None else null_counts
        rows = zip(hypotheses, references, src_lens, nulls, strict=True)
        records = [SentenceRecord(i, src_len, len(hyp), n, sentence_bleu(hyp, ref))
                   for i, (hyp, ref, src_len, n) in enumerate(rows)]
        bleus = [rec.sent_bleu for rec in records]
        return cls(records, score, _guarded_pearson(src_lens, bleus),
                   None if null_counts is None else _guarded_pearson(null_counts, bleus))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sentence_id,src_len,out_len,null_count,sent_bleu\n")
        for rec in self.records:
            nulls = "na" if rec.null_count is None else rec.null_count
            buf.write(f"{rec.sentence_id},{rec.src_len},{rec.out_len},{nulls},{rec.sent_bleu:.4f}\n")
        buf.write(f"corpus_bleu,{self.corpus_bleu:.4f}\n")
        r1 = "na" if self.r_bleu_src_len is None else f"{self.r_bleu_src_len:.6f}"
        r2 = "na" if self.r_bleu_null_count is None else f"{self.r_bleu_null_count:.6f}"
        buf.write(f"pearson_bleu_vs_src_len,{r1}\n")
        buf.write(f"pearson_bleu_vs_null_count,{r2}\n")
        return buf.getvalue()


def _guarded_pearson(xs, ys) -> float | None:
    try:
        return pearson(xs, ys)
    except (InputError, UndefinedCorrelationError):
        return None


def analyze(config: ModelConfig, params: ModelParams, vocab: Vocabulary,
            pairs: Sequence[SentencePair], beam: DecodeOptions | None = None,
            max_steps: int | None = None) -> EvalReport:
    """Decode a corpus, greedily or with ``beam``, and correlate sentence
    BLEU with source length and, for the parallel models, with the
    null-symbol count of the greedy frame labeling (the only place nulls
    exist)."""
    hyps, nulls = [], []
    for pair in pairs:
        if config.is_autoregressive:
            hyp_ids = translate(config, params, pair.source_ids, beam, max_steps)
            nulls.append(0)
        else:
            log_probs = parallel_log_probs(config, params, pair.source_ids)
            frames = greedy_ctc_frames(log_probs)
            nulls.append(frames.count(BLANK_ID))
            hyp_ids = collapse(frames) if beam is None else ctc_beam_search(log_probs, beam)[0].prefix
        hyps.append(vocab.decode_ids(hyp_ids))
    return EvalReport.build(hyps, [vocab.decode_ids(p.target_ids) for p in pairs],
                            [len(p.source_ids) for p in pairs], nulls)
