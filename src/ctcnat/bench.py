"""Per-sentence decoding-latency measurement, CPU wall clock.

Each sentence is decoded end to end (encoder included) in each requested
mode; the recorded value is the median over at least three repetitions of
a monotonic-clock timing, after one untimed warm-up pass per mode. Each
repetition is one pass over the corpus in which the requested modes run
back to back on each sentence. A slowdown of the machine therefore hits
the modes of a sentence alike instead of skewing the ratio between
per-mode passes timed seconds apart, and since the repetitions of a
sentence are spread over the run, the median rejects a short stall rather
than recording it for every repetition.

The warm-up and the timed region run with the BLAS that numpy loaded pinned
to one thread, so the two decoder families compare algorithmic work rather
than BLAS threading (which on some shapes stalls a call for tens of
milliseconds); the previous thread count is restored afterwards, also when
a decode raises. Where no thread control is found in numpy's bundled
OpenBLAS, a ``RuntimeWarning`` says the timings may include BLAS threading
and the run goes on. The summary states the thread count used.
Every mode decodes through ``decoding.translate``.
"""

from __future__ import annotations

import ctypes
import functools
import io
import statistics
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import SentencePair
from .decoding import DecodeOptions, translate
from .model import ConfigError, ModelConfig, ModelParams

MODES = ("AR-greedy", "AR-beam", "NAR-greedy", "NAR-beam")
MIN_REPS = 3  # the median of fewer repetitions cannot reject one stalled run

# (get, set) thread-count entry points under the names OpenBLAS builds export
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class TimingRecord:
    sentence_id: int
    src_len: int
    out_len: int
    mode: str
    ms: float


def _make_runner(mode: str, ar_model, nar_model, beam: DecodeOptions,
                 ar_max_steps: int | None) -> Callable[[SentencePair], tuple]:
    autoregressive = mode.startswith("AR")
    model, family = (ar_model, "autoregressive-baseline") if autoregressive else (nar_model, "parallel-labeling")
    if model is None:
        raise ConfigError(f"mode {mode} requested but no {family} model given")
    config, params = model
    if config.is_autoregressive != autoregressive:
        raise ConfigError(f"mode {mode} needs a {family} model, got {config.variant}")
    opts = beam if mode.endswith("beam") else None
    return lambda p: translate(config, params, p.source_ids, opts,
                               len(p.source_ids) if ar_max_steps is None else ar_max_steps)


@functools.lru_cache(maxsize=None)
def blas_thread_control() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Getter and setter of the thread count of numpy's bundled OpenBLAS.

    Looks in the directories where numpy wheels ship their BLAS
    (``numpy.libs`` beside the package, ``numpy/.dylibs`` on macOS); numpy
    has already loaded that library, so this binds the same copy. Returns
    None when no library there exports a known pair of entry points.
    """
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def single_blas_thread() -> Iterator[int | None]:
    """Run the body with BLAS on one thread; yields the thread count before.

    The earlier count is restored on exit, whether or not the body raises.
    Without a thread control this warns, yields None and changes nothing.
    """
    control = blas_thread_control()
    if control is None:
        warnings.warn("no BLAS thread control found; bench timings may include BLAS threading",
                      RuntimeWarning, stacklevel=3)
        yield None
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield before
    finally:
        set_(before)


def _time_round(runners: Sequence[Callable], pair: SentencePair) -> list[tuple[float, tuple]]:
    """One timed call of every runner on one sentence, back to back: (ms, output) each."""
    timed = []
    for runner in runners:
        start = time.perf_counter()
        out = runner(pair)
        timed.append(((time.perf_counter() - start) * 1000.0, out))
    return timed


def bench_decode(pairs: Sequence[SentencePair], modes: Sequence[str] = MODES,
                 ar_model: tuple[ModelConfig, ModelParams] | None = None,
                 nar_model: tuple[ModelConfig, ModelParams] | None = None,
                 reps: int = 3, beam: DecodeOptions | None = None,
                 ar_max_steps: int | None = None) -> tuple[list[TimingRecord], str]:
    """Time every sentence in every mode; returns records plus a summary.

    When ``ar_max_steps`` is None the autoregressive budget is the source
    length, which keeps output lengths comparable across sentences.
    """
    if reps < MIN_REPS:
        raise ConfigError(f"reps must be >= {MIN_REPS}, got {reps}")
    if not pairs:
        raise ConfigError("empty benchmark corpus")
    if not modes:
        raise ConfigError(f"no mode to time; pick from {MODES}")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; pick from {MODES}")
    beam = beam or DecodeOptions()
    runners = [_make_runner(mode, ar_model, nar_model, beam, ar_max_steps) for mode in modes]
    with single_blas_thread() as blas_before:
        for runner in runners:
            runner(pairs[0])  # warm-up, untimed
        # rounds[rep][sentence][mode] = (ms, output)
        rounds = [[_time_round(runners, p) for p in pairs] for _ in range(reps)]
    records: list[TimingRecord] = []
    for j, mode in enumerate(modes):  # mode-major, as the CSV lists them
        for i, pair in enumerate(pairs):
            ms = statistics.median(per_rep[i][j][0] for per_rep in rounds)
            records.append(TimingRecord(sentence_id=i, src_len=len(pair.source_ids),
                                        out_len=len(rounds[-1][i][j][1]), mode=mode, ms=ms))
    return records, summarize(records, blas_before)


def records_to_csv(records: Sequence[TimingRecord]) -> str:
    buf = io.StringIO()
    buf.write("sentence_id,src_len,out_len,mode,ms\n")
    for rec in records:
        buf.write(f"{rec.sentence_id},{rec.src_len},{rec.out_len},{rec.mode},{rec.ms:.4f}\n")
    return buf.getvalue()


def summarize(records: Sequence[TimingRecord], blas_before: int | None) -> str:
    """Per-mode means, AR/NAR ratios and the BLAS threads of the timed region.

    ``blas_before`` is the thread count that was pinned to one for the
    timed region, or None when it could not be pinned.
    """
    by_mode: dict[str, list[float]] = {}
    for rec in records:
        by_mode.setdefault(rec.mode, []).append(rec.ms)
    lines = ["decoding time per sentence (ms, median of repetitions)"]
    means = {}
    for mode in MODES:
        if mode in by_mode:
            means[mode] = statistics.fmean(by_mode[mode])
            lines.append(f"  {mode:<11} mean {means[mode]:9.3f} over {len(by_mode[mode])} sentences")
    if "AR-greedy" in means and "NAR-greedy" in means and means["NAR-greedy"] > 0:
        lines.append(f"  AR-greedy / NAR-greedy ratio: {means['AR-greedy'] / means['NAR-greedy']:.2f}")
    if "AR-beam" in means and "NAR-beam" in means and means["NAR-beam"] > 0:
        lines.append(f"  AR-beam / NAR-beam ratio: {means['AR-beam'] / means['NAR-beam']:.2f}")
    if blas_before is None:
        lines.append("  BLAS threads in timed region: not pinned (no BLAS thread control found)")
    else:
        lines.append(f"  BLAS threads in timed region: 1 (pinned, was {blas_before})")
    return "\n".join(lines) + "\n"
