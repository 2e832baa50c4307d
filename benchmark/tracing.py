"""Span tracing around ctcnat's public functions, from outside the package.

A ``Tracer`` replaces module and class attributes at the binding site each
caller uses (``ctcnat.training.encode`` for the training loss and
validation, ``ctcnat.decoding.encode`` for the autoregressive decoders,
``ctcnat.model.encode`` for the benchmark's own NAR beam pipeline, ...) with
wrappers that record one span per call: name, start, end, parent, root and
an optional count. Spans stay in memory until ``write``. Leaving the
``with`` block restores every original attribute, so untraced code runs
the package's own functions with nothing in between.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import ctcnat.decoding
import ctcnat.model
import ctcnat.tensor
import ctcnat.training


def _tape_records(tape, *_args, **_kw) -> int:
    return len(tape)


def _lattice_cells(log_probs, labels, *_args, **_kw) -> int:
    return len(log_probs) * (2 * len(labels) + 1)


def _prefix_tokens(_config, _params, _enc, prefix_ids, *_args, **_kw) -> int:
    return len(prefix_ids) + 1  # the start-of-sequence position is recomputed too


# (owner, attribute, span name, count function). Every caller that binds a
# name through ``from .model import encode`` gets its own entry, because
# patching ctcnat.model.encode alone would leave those bindings untraced.
WRAPPED = (
    (ctcnat.training, "train", "training.train", None),
    (ctcnat.training, "batch_pairs", "data.batch_pairs", None),
    (ctcnat.training, "batch_loss", "training.batch_loss", None),
    (ctcnat.training, "encode", "model.encode", None),
    (ctcnat.training, "split_states", "model.split_states", None),
    (ctcnat.training, "decode_parallel", "model.decode_parallel", None),
    (ctcnat.training, "ctc_loss", "ctc.loss", _lattice_cells),
    (ctcnat.tensor.GradTape, "backward", "tensor.backward", _tape_records),
    (ctcnat.training.Adam, "step", "training.adam", None),
    (ctcnat.training, "validation_bleu", "training.validation", None),
    (ctcnat.training, "corpus_bleu", "evaluation.corpus_bleu", None),
    (ctcnat.training, "save_checkpoint", "training.checkpoint", None),
    (ctcnat.model, "encode", "model.encode", None),
    (ctcnat.model, "split_states", "model.split_states", None),
    (ctcnat.model, "decode_parallel", "model.decode_parallel", None),
    (ctcnat.decoding, "ctc_beam_search", "decoding.ctc_beam_search", None),
    (ctcnat.decoding, "encode", "model.encode", None),
    (ctcnat.decoding, "ar_greedy_decode", "decoding.ar_greedy_decode", None),
    (ctcnat.decoding, "ar_beam_decode", "decoding.ar_beam_decode", None),
    (ctcnat.decoding, "decode_autoregressive_step", "model.ar_step", _prefix_tokens),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "root", "count")


class Tracer:
    """Records nested spans while active; single-threaded, like the package."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        """A span opened by the benchmark itself."""
        index = self._open(name, count)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str, count: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, count])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, counter(*args, **kwargs) if counter else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counter in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, f)


class SpanTotals:
    """Per-name call count, inclusive time, self time and count sum, over the
    spans whose root span has a given name."""

    def __init__(self, spans: list[list], root_name: str):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        child_ms = [0.0] * len(spans)
        for name, start, end, parent, _root, _count in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        for i, (name, start, end, _parent, root, count) in enumerate(spans):
            if spans[root][0] != root_name:
                continue
            ms = (end - start) * 1e3
            self.calls[name] += 1
            self.total_ms[name] += ms
            self.self_ms[name] += ms - child_ms[i]
            self.counts[name] += count
