"""BLEU scoring, Pearson correlation, and the per-sentence report.

corpus_bleu is 4-gram BLEU with pooled clipped counts, geometric mean and
the exp(1 - r/c) brevity penalty. sentence_bleu add-one smooths the n >= 2
precisions only (unigram stays unsmoothed, so zero word overlap still
scores 0). Both operate on token sequences; callers tokenize, conventionally
by whitespace on detokenized text so scores are comparable across
vocabulary modes. EvalReport adds each sentence's BLEU and its Pearson
correlation with source length. The module scores text and decodes nothing.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    sent_bleu: float


@dataclass
class EvalReport:
    """Per-sentence quality records plus corpus-level aggregates.

    The correlation is None when undefined: fewer than two sentences, or a
    constant column.
    """

    records: list[SentenceRecord]
    corpus_bleu: float
    r_bleu_src_len: float | None

    @classmethod
    def build(cls, hypotheses: Sequence[Tokens], references: Sequence[Tokens],
              src_lens: Sequence[int]) -> "EvalReport":
        """Score aligned hypothesis and reference token lists; the
        per-sentence sequences must be equally long."""
        score = corpus_bleu(hypotheses, references)
        rows = zip(hypotheses, references, src_lens, strict=True)
        records = [SentenceRecord(i, src_len, len(hyp), sentence_bleu(hyp, ref))
                   for i, (hyp, ref, src_len) in enumerate(rows)]
        return cls(records, score, _guarded_pearson(src_lens, [rec.sent_bleu for rec in records]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sentence_id,src_len,out_len,sent_bleu\n")
        for rec in self.records:
            buf.write(f"{rec.sentence_id},{rec.src_len},{rec.out_len},{rec.sent_bleu:.4f}\n")
        buf.write(f"corpus_bleu,{self.corpus_bleu:.4f}\n")
        r = "na" if self.r_bleu_src_len is None else f"{self.r_bleu_src_len:.6f}"
        buf.write(f"pearson_bleu_vs_src_len,{r}\n")
        return buf.getvalue()


def _guarded_pearson(xs, ys) -> float | None:
    try:
        return pearson(xs, ys)
    except (InputError, UndefinedCorrelationError):
        return None
