"""Corpus ingestion, vocabularies, batching, synthetic desk-scale tasks.

Id space convention used everywhere in this package: id 0 is the blank
(null) symbol of the frame labeler and is never produced by tokenization.
Ids 1..3 are pad / end-of-sequence / unknown, real tokens start at 4. A
model's ``vocab_size`` counts the non-blank ids, so the parallel labeler
emits ``vocab_size + 1`` columns indexed directly by these ids.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

BLANK_ID = 0
PAD_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<blank>", "<pad>", "</s>", "<unk>")

SYNTHETIC_TASKS = ("copy", "reverse", "duplicate-each-token")


class VocabularyError(ValueError):
    """Token or id outside the vocabulary contract."""


class CorpusError(ValueError):
    """Parallel corpus files disagree or are unusable."""


def _as_int(value) -> int:
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise VocabularyError(f"token id {value!r} is not an integer")


def check_integer(name: str, value, lowest: int, highest: float = math.inf, *, error: type[Exception]) -> None:
    """The one integer-setting check: ``value`` is a Python or numpy integer,
    not a bool, in ``lowest..highest``; else the caller's ``error`` names ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if not lowest <= value <= highest:
        bound = f">= {lowest}" if highest == math.inf else f"in {lowest}..{highest}"
        raise error(f"{name} must be {bound}, got {value}")


def token_ids(values: Iterable, lowest: int, highest: float = math.inf) -> list[int]:
    """``values`` as Python int ids, each in ``lowest..highest``; the one id
    check of the package. An id is a Python or numpy integer: a float or a
    bool is not one, even when it equals one. Sources and ``decode_ids``
    admit 0..V; AR targets and CTC labels 1..V, since the blank is a label
    only of the frames."""
    ids = [_as_int(v) for v in values]
    for i in ids:
        if not lowest <= i <= highest:
            raise VocabularyError(f"token id {i} outside {lowest}..{highest}")
    return ids


def _splitter(mode: str) -> Callable[[str], list[str]]:
    """The tokenization rule of ``mode``: whitespace-separated words, or characters."""
    if mode == "word":
        return str.split
    if mode == "char":
        return list
    raise VocabularyError(f"unknown tokenization mode {mode!r}")


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, split on "\\n" only: ``str.splitlines`` would also
    break at form feeds, "\\x85", "\\u2028" and more, which can sit inside a
    line. A final newline ends the last line; it does not start an empty one."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_lines(path: str | Path) -> list[str]:
    """The ``split_lines`` of a UTF-8 text file (read with universal newlines)."""
    return split_lines(Path(path).read_text(encoding="utf-8"))


@dataclass
class Vocabulary:
    """Bidirectional token/id map with the four reserved ids up front.

    ``token_to_id`` covers only real tokens, so text that happens to spell a
    reserved marker like ``<pad>`` tokenizes to unk instead of a reserved id.
    An unknown ``mode`` is rejected when the vocabulary is made.
    """

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(repr=False)
    mode: str = "word"

    def __post_init__(self):
        _splitter(self.mode)

    @property
    def size(self) -> int:
        """Total id count, blank included."""
        return len(self.id_to_token)

    @property
    def vocab_size(self) -> int:
        """Non-blank id count; the labeler adds one blank column on top."""
        return len(self.id_to_token) - 1

    def tokenize(self, line: str) -> list[str]:
        return _splitter(self.mode)(line)

    def encode_tokens(self, tokens: Iterable[str]) -> tuple[int, ...]:
        get = self.token_to_id.get
        return tuple(get(tok, UNK_ID) for tok in tokens)

    def encode_line(self, line: str) -> tuple[int, ...]:
        return self.encode_tokens(self.tokenize(line))

    def decode_ids(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in token_ids(ids, 0, self.vocab_size)]

    def detokenize(self, tokens: Iterable[str]) -> str:
        sep = " " if self.mode == "word" else ""
        return sep.join(tokens)

    def save(self, path: str | Path) -> None:
        """One non-reserved token per line; line number = id - 4."""
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.id_to_token[len(RESERVED_TOKENS):]:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path: str | Path, mode: str = "word") -> "Vocabulary":
        return cls.from_tokens(read_lines(path), mode=mode)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], mode: str = "word") -> "Vocabulary":
        overlap = set(tokens) & set(RESERVED_TOKENS)
        if overlap:
            raise VocabularyError(f"tokens collide with reserved markers: {sorted(overlap)}")
        id_to_token = list(RESERVED_TOKENS) + list(tokens)
        token_to_id = {tok: i + len(RESERVED_TOKENS) for i, tok in enumerate(tokens)}
        if len(token_to_id) != len(tokens):
            raise VocabularyError("duplicate tokens in vocabulary")
        return cls(id_to_token=id_to_token, token_to_id=token_to_id, mode=mode)


def build_vocab(lines: Iterable[str], mode: str = "word", min_freq: int = 1) -> Vocabulary:
    """Count tokens and keep those with frequency >= min_freq.

    Kept tokens are id-ordered by (frequency desc, token asc) so identical
    corpora always produce identical vocabularies.
    """
    check_integer("min_freq", min_freq, 1, error=VocabularyError)
    split = _splitter(mode)
    counts: Counter[str] = Counter()
    n_lines = 0
    for line in lines:
        n_lines += 1
        counts.update(split(line))
    if n_lines == 0:
        raise CorpusError("empty corpus: no lines to build a vocabulary from")
    kept = sorted((tok for tok, c in counts.items()
                   if c >= min_freq and tok not in RESERVED_TOKENS),
                  key=lambda tok: (-counts[tok], tok))
    return Vocabulary.from_tokens(kept, mode=mode)


@dataclass(frozen=True)
class SentencePair:
    """One aligned sentence pair, token ids plus the raw text."""

    source_ids: tuple[int, ...]
    target_ids: tuple[int, ...]
    source_text: str
    target_text: str


def load_parallel(source_path: str | Path, target_path: str | Path, vocab: Vocabulary) -> list[SentencePair]:
    """Pair up two line-aligned UTF-8 files.

    Pairs that tokenize to nothing on either side are dropped, and their
    count is logged. Lengths are the model's business: ``train`` admits
    pairs by ``training.feasible_pairs``.
    """
    src_lines, tgt_lines = read_lines(source_path), read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {source_path} has {len(src_lines)} lines, "
            f"{target_path} has {len(tgt_lines)}")
    pairs = []
    dropped_empty = 0
    for src, tgt in zip(src_lines, tgt_lines):
        s_ids = vocab.encode_line(src)
        t_ids = vocab.encode_line(tgt)
        if not s_ids or not t_ids:
            dropped_empty += 1
            continue
        pairs.append(SentencePair(s_ids, t_ids, src, tgt))
    if dropped_empty:
        log.info("dropped %d empty-after-tokenization pairs", dropped_empty)
    return pairs


@dataclass(frozen=True)
class Batch:
    """The unpadded source and target id sequences of a batch, in pair order."""

    sources: tuple[tuple[int, ...], ...]
    targets: tuple[tuple[int, ...], ...]


def batch_pairs(pairs: Sequence[SentencePair]) -> Batch:
    if not pairs:
        raise CorpusError("cannot batch zero pairs")
    return Batch(sources=tuple(p.source_ids for p in pairs), targets=tuple(p.target_ids for p in pairs))


def synthetic_vocab(vocab_size: int) -> Vocabulary:
    """Word vocabulary of ``vocab_size`` symbolic tokens w00, w01, ..."""
    check_integer("vocab_size", vocab_size, 2, error=VocabularyError)
    width = len(str(vocab_size - 1))
    return Vocabulary.from_tokens([f"w{i:0{width}d}" for i in range(vocab_size)], mode="word")


def gen_synthetic(task: str, vocab_size: int, n: int, len_range: tuple[int, int],
                  seed: int, vocab: Vocabulary | None = None) -> list[SentencePair]:
    """Deterministic toy corpora for the copy / reverse / duplicate tasks.

    duplicate-each-token emits every source token twice, so the target is
    exactly twice as long as the source and exercises split factors k >= 2.
    """
    if task not in SYNTHETIC_TASKS:
        raise CorpusError(f"unknown synthetic task {task!r}; pick one of {SYNTHETIC_TASKS}")
    lo, hi = len_range
    check_integer("len_range[0]", lo, 1, error=CorpusError)
    check_integer("len_range[1]", hi, lo, error=CorpusError)
    if vocab is None:
        vocab = synthetic_vocab(vocab_size)
    tokens = vocab.id_to_token[len(RESERVED_TOKENS):]
    if len(tokens) < vocab_size:
        raise VocabularyError(f"vocabulary holds {len(tokens)} tokens, need {vocab_size}")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        length = int(rng.integers(lo, hi + 1))
        src_toks = [tokens[int(j)] for j in rng.integers(0, vocab_size, size=length)]
        if task == "copy":
            tgt_toks = list(src_toks)
        elif task == "reverse":
            tgt_toks = src_toks[::-1]
        else:
            tgt_toks = [t for tok in src_toks for t in (tok, tok)]
        src_text = " ".join(src_toks)
        tgt_text = " ".join(tgt_toks)
        pairs.append(SentencePair(vocab.encode_tokens(src_toks), vocab.encode_tokens(tgt_toks),
                                  src_text, tgt_text))
    return pairs
