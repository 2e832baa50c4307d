"""Adam training loop, validation, checkpointing, and weight averaging.

Parallel-labeling variants train on the lattice loss over the split-state
frame labeling; the autoregressive baseline trains on teacher-forced
per-token cross-entropy. Batch loss is the mean over sentences of the raw
per-sentence negative log-likelihood, one taped op over the sentences'
log-probability tables. Validation score is greedy-decode corpus BLEU over
the words of the detokenized text, and the keep_top best-scoring
checkpoints are retained on disk; averaging their parameters elementwise
gives the final model.

Checkpoint files: magic ``CTCNAT01`` (the trailing two bytes are the
format version), then little-endian throughout: a block of length-prefixed
UTF-8 ``key=value`` lines, one per ``ModelConfig`` field plus step and
validation score, then per-parameter records of length-prefixed name, rank,
dims as unsigned 32-bit, and values as raw 64-bit floats. Round trips are
bit-exact.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .ctc import ctc_loss, min_frames
from .data import EOS_ID, Batch, SentencePair, Vocabulary, batch_pairs
from .decoding import translate
from .evaluation import corpus_bleu
from .model import (
    ConfigError,
    LengthError,
    ModelConfig,
    ModelParams,
    check_decoder_input_length,
    check_source_length,
    decode_autoregressive_full,
    decode_parallel,
    encode,
    init_params,
    parameter_shapes,
    split_states,
)
from .tensor import GradTape, NumericError, Tensor, accumulate_grad, custom_op

_log = logging.getLogger(__name__)

MAGIC = b"CTCNAT"
FORMAT_VERSION = "01"


class CheckpointError(ValueError):
    """Checkpoint contents disagree with the expected model."""


class FormatError(ValueError):
    """Unreadable checkpoint file."""


# The Transformer's Adam settings, which the paper trains with.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; learning rate ramps linearly over ``warmup``
    steps then decays as 1/sqrt(step). Adam runs with the fixed
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``."""

    learning_rate: float = 3e-3
    warmup: int = 200
    batch_size: int = 16
    max_steps: int = 1000
    validation_interval: int = 200
    checkpoint_dir: str = "checkpoints"
    seed: int = 0
    keep_top: int = 5

    def __post_init__(self):
        if self.warmup < 1:
            raise ConfigError(f"warmup must be >= 1, got {self.warmup}")
        if self.keep_top < 1:
            raise ConfigError(f"keep_top must be >= 1, got {self.keep_top}")
        for name in ("batch_size", "max_steps", "validation_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: ModelParams
    step: int
    valid_score: float


@dataclass(frozen=True)
class LogRow:
    step: int
    train_loss: float
    valid_bleu: float | None


def lr_at(step: int, base: float, warmup: int) -> float:
    return base * min(step / warmup, math.sqrt(warmup / step))


class Adam:
    """Standard Adam with bias correction over a named parameter set, with
    betas ``ADAM_BETA1``, ``ADAM_BETA2`` and epsilon ``ADAM_EPS``."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def _sentence_nll(config: ModelConfig, params: ModelParams, source_ids, target_ids,
                  dropout_rng: np.random.Generator | None) -> tuple[Tensor, float, np.ndarray]:
    """One sentence's log-probability table, its raw negative log-likelihood
    and the NLL's gradient with respect to the table."""
    enc = encode(config, params, source_ids, dropout_rng=dropout_rng)
    if config.is_autoregressive:
        rows = decode_autoregressive_full(config, params, enc, target_ids, dropout_rng=dropout_rng)
        cells = (np.arange(rows.shape[0]), [t - 1 for t in [*target_ids, EOS_ID]])  # column j scores id j+1
        grad = np.zeros_like(rows.data)
        grad[cells] = -1.0
        return rows, -rows.data[cells].sum(), grad
    log_probs = decode_parallel(config, params, split_states(params, enc, config.k), enc, dropout_rng=dropout_rng)
    return (log_probs, *ctc_loss(log_probs.data, target_ids))


def batch_loss(config: ModelConfig, params: ModelParams, batch: Batch,
               *, dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Mean per-sentence loss, one tape record after the sentences' forward
    records: the raw NLLs added in batch order, times 1/B. Its backward adds
    (g / B) times each sentence's gradient to that sentence's table. Raises
    NumericError when the mean is not finite."""
    tables, values, grads = zip(*(_sentence_nll(config, params, source_ids, target_ids, dropout_rng)
                                  for source_ids, target_ids in zip(batch.sources, batch.targets)))
    share = 1.0 / len(values)
    mean = sum(values[1:], values[0]) * share
    if not math.isfinite(mean):
        raise NumericError("loss produced non-finite values")

    def rule(g: np.ndarray) -> None:
        c = g.item() * share
        for table, grad in zip(tables, grads):
            accumulate_grad(table, c * grad)

    return custom_op(np.float64(mean), tables, rule)


def sentence_loss(config: ModelConfig, params: ModelParams, source_ids, target_ids,
                  *, dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Raw negative log-likelihood of one sentence pair: ``batch_loss`` of a batch of one."""
    return batch_loss(config, params, Batch((source_ids,), (target_ids,)), dropout_rng=dropout_rng)


def _passes(rule: Callable[[ModelConfig, int], None], config: ModelConfig, length: int) -> bool:
    """Whether ``rule``, one of the model's length limits, admits ``length``."""
    try:
        rule(config, length)
    except LengthError:
        return False
    return True


def feasible_pairs(config: ModelConfig, pairs: Sequence[SentencePair]) -> tuple[list[SentencePair], int]:
    """Drop pairs the model cannot take: a source that
    ``check_source_length`` rejects (empty, or longer than max_len); for the
    AR baseline, a decoder input ([EOS] + target) that
    ``check_decoder_input_length`` rejects (longer than max_len); otherwise
    a target that cannot fit in k * T_x frames (label count plus repeat
    separators). Returns (kept, skipped_count)."""
    def fits(p: SentencePair) -> bool:
        if not _passes(check_source_length, config, len(p.source_ids)):
            return False
        if config.is_autoregressive:
            return _passes(check_decoder_input_length, config, len(p.target_ids) + 1)
        return config.k * len(p.source_ids) >= min_frames(p.target_ids)

    kept = [p for p in pairs if fits(p)]
    return kept, len(pairs) - len(kept)


def greedy_translate(config: ModelConfig, params: ModelParams, source_ids) -> tuple[int, ...]:
    """Greedy decode for either model family; the shared validation path."""
    return translate(config, params, source_ids)


def validation_bleu(config: ModelConfig, params: ModelParams, vocab: Vocabulary,
                    pairs: Sequence[SentencePair]) -> float:
    """Greedy-decode corpus BLEU over the words of the detokenized text, as ``ctcnat evaluate`` scores."""
    def words(ids) -> list[str]:
        return vocab.detokenize(vocab.decode_ids(ids)).split()

    hyps = [words(greedy_translate(config, params, p.source_ids)) for p in pairs]
    refs = [words(p.target_ids) for p in pairs]
    return corpus_bleu(hyps, refs)


class _Retention:
    """Keeps at most keep_top checkpoint files, the best scores seen.

    The new file is written before the evicted one is unlinked, so a crash
    in between leaves one file too many rather than losing both; each
    write is atomic (see ``save_checkpoint``).
    """

    def __init__(self, directory: Path, keep_top: int):
        self.directory = directory
        self.keep_top = keep_top
        self.entries: list[tuple[float, int, Path]] = []

    def add(self, ckpt: "Checkpoint") -> Path | None:
        """Write ``ckpt`` if its score ranks among the keep_top best; return
        the path. Only the path is kept, so ``ckpt``'s parameters may change."""
        worst = None
        if len(self.entries) >= self.keep_top:
            worst = min(self.entries, key=lambda e: (e[0], e[1]))
            if (ckpt.valid_score, ckpt.step) <= (worst[0], worst[1]):
                return None
        path = self.directory / f"ckpt-{ckpt.step:06d}.bin"
        save_checkpoint(ckpt, path)
        self.entries.append((ckpt.valid_score, ckpt.step, path))
        if worst is not None:
            self.entries.remove(worst)
            worst[2].unlink(missing_ok=True)
        return path


def train(model_config: ModelConfig, train_pairs: Sequence[SentencePair],
          valid_pairs: Sequence[SentencePair], train_config: TrainConfig,
          vocab: Vocabulary) -> tuple[Checkpoint, list[LogRow]]:
    """Run the full optimization loop; returns the final checkpoint and the
    (step, train loss, validation BLEU) log. ``feasible_pairs`` admits the
    training pairs; before step 1, ``check_source_length`` alone admits the
    validation pairs."""
    if not train_pairs or not valid_pairs:
        raise ConfigError("training and validation corpora must be non-empty")
    usable, skipped = feasible_pairs(model_config, train_pairs)
    if not usable:
        raise ConfigError(
            f"all {len(train_pairs)} training pairs are infeasible for k={model_config.k}, "
            f"max_len={model_config.max_len}; increase the split factor k or max_len")
    valid = [p for p in valid_pairs if _passes(check_source_length, model_config, len(p.source_ids))]
    if not valid:
        raise ConfigError(f"all {len(valid_pairs)} validation sources are empty or longer than max_len")

    rng = np.random.default_rng(train_config.seed)
    params = init_params(model_config, rng)
    optimizer = Adam(params)
    ckpt_dir = Path(train_config.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    retention = _Retention(ckpt_dir, train_config.keep_top)
    dropout_rng = rng if model_config.dropout_rate > 0.0 else None

    if skipped:
        _log.info("skipped %d infeasible pairs (longer than max_len, or target needs more than k*T_x frames)",
                  skipped)
    if len(valid) < len(valid_pairs):
        _log.info("dropped %d validation pairs whose source is empty or longer than max_len",
                  len(valid_pairs) - len(valid))

    log: list[LogRow] = []
    order: list[int] = []
    cursor = 0
    last_bleu = math.nan
    for step in range(1, train_config.max_steps + 1):
        chunk: list[SentencePair] = []
        while len(chunk) < min(train_config.batch_size, len(usable)):
            if cursor >= len(order):
                order = list(rng.permutation(len(usable)))
                cursor = 0
            chunk.append(usable[order[cursor]])
            cursor += 1
        batch = batch_pairs(chunk)
        with GradTape() as tape:
            loss = batch_loss(model_config, params, batch, dropout_rng=dropout_rng)
        optimizer.zero_grad()
        tape.backward(loss)
        optimizer.step(lr_at(step, train_config.learning_rate, train_config.warmup))

        bleu = None
        if step % train_config.validation_interval == 0 or step == train_config.max_steps:
            bleu = validation_bleu(model_config, params, vocab, valid)
            last_bleu = bleu
            retention.add(Checkpoint(model_config, params, step, bleu))
        log.append(LogRow(step, loss.item(), bleu))

    final = Checkpoint(model_config, params, train_config.max_steps, last_bleu)
    return final, log


def write_log_csv(log: Sequence[LogRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,train_loss,valid_bleu\n")
        for row in log:
            bleu = "" if row.valid_bleu is None else f"{row.valid_bleu:.4f}"
            f.write(f"{row.step},{row.train_loss:.6f},{bleu}\n")


def average_checkpoints(checkpoints: Sequence[Checkpoint]) -> ModelParams:
    """Elementwise arithmetic mean of every named parameter.

    Computed as first + mean(others - first), accumulated in the given list
    order; identical checkpoints therefore average to themselves bit-exactly.
    """
    if not checkpoints:
        raise CheckpointError("no checkpoints to average")
    first = checkpoints[0].config
    for ckpt in checkpoints[1:]:
        if ckpt.config != first:
            raise CheckpointError(f"config mismatch: {ckpt.config} vs {first}")
    out: ModelParams = {}
    for name in checkpoints[0].params:
        base = checkpoints[0].params[name].data
        acc = np.zeros_like(base)
        for ckpt in checkpoints[1:]:
            acc += ckpt.params[name].data - base
        out[name] = Tensor(base + acc / len(checkpoints), requires_grad=True)
    return out


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write ``ckpt`` to a temp file beside ``path``, then rename it over
    ``path``: a save that fails midway leaves any earlier file at ``path``
    intact and no partial file behind. The header has one line per
    ``ModelConfig`` field, in declaration order; ``str`` of a float round-trips."""
    path = Path(path)
    lines = [f"{f.name}={getattr(ckpt.config, f.name)}" for f in fields(ModelConfig)]
    lines.append(f"step={ckpt.step}")
    lines.append(f"valid_score={ckpt.valid_score}")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + FORMAT_VERSION.encode("ascii"))
            f.write(struct.pack("<I", len(lines)))
            for line in lines:
                raw = line.encode("utf-8")
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
            names = sorted(ckpt.params)
            f.write(struct.pack("<I", len(names)))
            for name in names:
                raw = name.encode("utf-8")
                arr = ckpt.params[name].data
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                f.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<I", dim))
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise FormatError(f"truncated checkpoint: needed {n} bytes at offset {self.offset}")
        out = self.blob[self.offset: self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Read and validate a checkpoint; never returns a partial model."""
    with open(path, "rb") as f:
        reader = _Reader(f.read())
    header = reader.take(8)
    if header[:6] != MAGIC:
        raise FormatError(f"bad magic {header[:6]!r} at offset 0")
    version = header[6:].decode("ascii", errors="replace")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version!r}")

    values: dict[str, str] = {}
    for _ in range(reader.u32()):
        line = reader.take(reader.u32()).decode("utf-8")
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"malformed config line {line!r} before offset {reader.offset}")
        if key in values:
            raise FormatError(f"repeated config key {key!r} before offset {reader.offset}")
        values[key] = value
    try:
        types = get_type_hints(ModelConfig)
        config = ModelConfig(**{f.name: types[f.name](values[f.name]) for f in fields(ModelConfig)})
        step = int(values["step"])
        valid_score = float(values["valid_score"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad config block: {exc}") from exc

    params: ModelParams = {}
    for _ in range(reader.u32()):
        name = reader.take(reader.u32()).decode("utf-8")
        if name in params:
            raise FormatError(f"repeated parameter {name!r} before offset {reader.offset}")
        rank = reader.u32()
        shape = tuple(reader.u32() for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        values = np.frombuffer(reader.take(8 * count), dtype="<f8").reshape(shape)
        params[name] = Tensor(values.copy(), requires_grad=True)
    if reader.offset != len(reader.blob):
        raise FormatError(f"{len(reader.blob) - reader.offset} trailing bytes at offset {reader.offset}")

    expected_shapes = parameter_shapes(config)
    if set(params) != set(expected_shapes):
        missing = sorted(set(expected_shapes) - set(params))
        extra = sorted(set(params) - set(expected_shapes))
        raise CheckpointError(f"parameter names do not match config (missing {missing}, extra {extra})")
    for name, shape in expected_shapes.items():
        if params[name].shape != shape:
            raise CheckpointError(f"parameter {name} has shape {params[name].shape}, config implies {shape}")
    if expected_config is not None and config != expected_config:
        raise CheckpointError(f"checkpoint config {config} does not match expected {expected_config}")
    return Checkpoint(config=config, params=params, step=step, valid_score=valid_score)
