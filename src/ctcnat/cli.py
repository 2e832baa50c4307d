"""Command-line surface: train, translate, evaluate, bench, average, synth.

Training is configured by a flat key=value text file (one key per line,
``#`` comments allowed); every key is a field of RunConfig, and unknown or
repeated keys are rejected by name. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import bench as bench_mod
from .data import (
    SYNTHETIC_TASKS,
    CorpusError,
    SentencePair,
    Vocabulary,
    VocabularyError,
    build_vocab,
    gen_synthetic,
    load_parallel,
    read_lines,
    split_lines,
    synthetic_vocab,
)
from .decoding import DecodeOptions, OptionError, check_max_steps, translate
from .evaluation import EvalReport, corpus_bleu
from .model import ConfigError, LengthError, ModelConfig, check_source_length
from .training import (
    Checkpoint,
    TrainConfig,
    average_checkpoints,
    load_checkpoint,
    save_checkpoint,
    train,
    write_log_csv,
)


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Every key accepted in a training config file; shared defaults come from the library."""

    variant: str = ModelConfig.variant
    d_model: int = ModelConfig.d_model
    ff_dim: int = ModelConfig.ff_dim
    heads: int = ModelConfig.heads
    enc_layers: int = ModelConfig.enc_layers
    dec_layers: int = ModelConfig.dec_layers
    k: int = ModelConfig.k
    max_len: int = ModelConfig.max_len
    dropout: float = ModelConfig.dropout_rate
    vocab_mode: str = "word"
    min_freq: int = 1
    lr: float = TrainConfig.learning_rate
    warmup: int = TrainConfig.warmup
    batch_size: int = TrainConfig.batch_size
    max_steps: int = TrainConfig.max_steps
    valid_interval: int = TrainConfig.validation_interval
    keep_top: int = TrainConfig.keep_top
    seed: int = TrainConfig.seed
    train_src: str = ""
    train_tgt: str = ""
    valid_src: str = ""
    valid_tgt: str = ""
    checkpoint_dir: str = TrainConfig.checkpoint_dir


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# Config keys whose ModelConfig or TrainConfig field has another name.
_FIELD_OF_KEY = {"dropout": "dropout_rate", "lr": "learning_rate", "valid_interval": "validation_interval"}


def _keys_named(message: str) -> str:
    """The config keys whose settings ``message`` names, in the order it names them."""
    found = sorted((m.start(), key) for key in _FIELD_TYPES
                   if (m := re.search(rf"\b{_FIELD_OF_KEY.get(key, key)}\b", message)))
    keys = ", ".join(repr(key) for _, key in found)
    return f"config key{'s' if len(found) > 1 else ''} {keys}: " if found else ""


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; unknown or repeated keys and bad values are usage errors."""
    values = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise UsageError(f"line {lineno}: expected key=value, got {raw!r}")
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        if key in values:
            raise UsageError(f"line {lineno}: repeated config key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind == "int":
                values[key] = int(value)
            elif kind == "float":
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise UsageError(f"config key {key!r}: cannot parse {value!r} as {kind}") from None
    return RunConfig(**values)


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    return "".join(f"{f.name}={getattr(config, f.name)}\n" for f in fields(RunConfig))


def cmd_train(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        raise UsageError(f"config file not found: {config_path}")
    run = parse_config(config_path.read_text(encoding="utf-8"))
    for key in ("train_src", "train_tgt", "valid_src", "valid_tgt"):
        if not getattr(run, key):
            raise UsageError(f"config key {key!r} is required for training")
        if not Path(getattr(run, key)).is_file():
            raise UsageError(f"config key {key!r}: file not found: {getattr(run, key)}")

    lines = read_lines(run.train_src) + read_lines(run.train_tgt)
    try:
        vocab = build_vocab(lines, mode=run.vocab_mode, min_freq=run.min_freq)
    except VocabularyError as exc:  # build_vocab checks min_freq, then the mode
        raise UsageError(f"config key {'min_freq' if run.min_freq < 1 else 'vocab_mode'!r}: {exc}") from exc
    try:
        model_config = ModelConfig(
            vocab_size=vocab.vocab_size, d_model=run.d_model, ff_dim=run.ff_dim,
            heads=run.heads, enc_layers=run.enc_layers, dec_layers=run.dec_layers,
            k=run.k, variant=run.variant, max_len=run.max_len, dropout_rate=run.dropout)
        train_config = TrainConfig(
            learning_rate=run.lr, warmup=run.warmup, batch_size=run.batch_size,
            max_steps=run.max_steps, validation_interval=run.valid_interval,
            checkpoint_dir=run.checkpoint_dir, seed=run.seed, keep_top=run.keep_top)
    except ConfigError as exc:
        raise UsageError(f"{_keys_named(str(exc))}{exc}") from exc

    train_pairs = load_parallel(run.train_src, run.train_tgt, vocab)
    valid_pairs = load_parallel(run.valid_src, run.valid_tgt, vocab)
    final, log = train(model_config, train_pairs, valid_pairs, train_config, vocab)

    ckpt_dir = Path(run.checkpoint_dir)
    vocab.save(ckpt_dir / "vocab.txt")
    write_log_csv(log, ckpt_dir / "log.csv")
    (ckpt_dir / "run.cfg").write_text(serialize_config(run), encoding="utf-8")
    print(f"finished {final.step} steps, final validation BLEU {final.valid_score:.2f}")
    print(f"checkpoints and log in {ckpt_dir}")
    return 0


def _load_vocab_for_model(model_path: str, model_config: ModelConfig, vocab_arg: str | None,
                          mode: str) -> Vocabulary:
    path = Path(vocab_arg) if vocab_arg else Path(model_path).parent / "vocab.txt"
    if not path.is_file():
        raise UsageError(f"vocabulary file not found: {path} (pass --vocab)")
    vocab = Vocabulary.load(path, mode=mode)
    if vocab.vocab_size != model_config.vocab_size:
        raise UsageError(f"vocabulary {path} has vocab_size={vocab.vocab_size} but model {model_path} "
                         f"has vocab_size={model_config.vocab_size}")
    return vocab


def _beam_options(width: int) -> DecodeOptions:
    try:
        return DecodeOptions(beam_width=width)
    except OptionError as exc:
        raise UsageError(f"--beam: {exc}") from None


def _check_ar_budget(flag: str, config: ModelConfig, max_steps: int | None) -> None:
    if max_steps is not None and config.is_autoregressive:
        try:
            check_max_steps(config, max_steps)
        except OptionError as exc:
            raise UsageError(f"{flag}: {exc}") from None


def _encode_input(path: str, vocab: Vocabulary,
                  models: list[tuple[str, ModelConfig]]) -> list[tuple[str, list[int]]]:
    """Each line of ``path`` with its ids. Every non-empty line must pass the
    source rule of each (flag, config) in ``models``; the first that fails
    is a usage error naming its 1-based line number, so nothing decodes."""
    encoded = []
    for lineno, line in enumerate(read_lines(path), start=1):
        ids = vocab.encode_line(line)
        if ids:
            for flag, config in models:
                try:
                    check_source_length(config, len(ids))
                except LengthError as exc:
                    raise UsageError(f"--input line {lineno}: {exc} ({flag})") from None
        encoded.append((line, ids))
    return encoded


def cmd_translate(args) -> int:
    beam = _beam_options(args.beam) if args.mode == "beam" else None
    ckpt = load_checkpoint(args.model)
    _check_ar_budget("--max-steps", ckpt.config, args.max_steps)
    vocab = _load_vocab_for_model(args.model, ckpt.config, args.vocab, args.vocab_mode)
    out_lines = []
    for _, ids in _encode_input(args.input, vocab, [("--model", ckpt.config)]):
        hyp = translate(ckpt.config, ckpt.params, ids, beam, args.max_steps) if ids else ()
        out_lines.append(vocab.detokenize(vocab.decode_ids(hyp)))
    with open(args.output, "w", encoding="utf-8") as f:
        for line in out_lines:
            f.write(line + "\n")
    return 0


def cmd_evaluate(args) -> int:
    hyps = [line.split() for line in read_lines(args.hyp)]
    refs = [line.split() for line in read_lines(args.ref)]
    if len(hyps) != len(refs):
        raise UsageError(f"--hyp has {len(hyps)} lines but --ref has {len(refs)}")
    if not args.report:
        print(f"corpus_bleu = {corpus_bleu(hyps, refs):.4f}")
        return 0
    if not args.src:
        raise UsageError("--report needs --src for source lengths")
    src_lens = [len(line.split()) for line in read_lines(args.src)]
    if len(src_lens) != len(hyps):
        raise UsageError(f"--src has {len(src_lens)} lines but --hyp has {len(hyps)}")
    report = EvalReport.build(hyps, refs, src_lens)
    print(f"corpus_bleu = {report.corpus_bleu:.4f}")
    Path(args.report).write_text(report.to_csv(), encoding="utf-8")
    return 0


def _load_family(flag: str, path: str, autoregressive: bool) -> Checkpoint:
    """The checkpoint at ``path``; a model of the other family is a usage error naming ``flag``."""
    ckpt = load_checkpoint(path)
    if ckpt.config.is_autoregressive != autoregressive:
        family = "an autoregressive-baseline" if autoregressive else "a parallel-labeling"
        raise UsageError(f"{flag} needs {family} checkpoint, got {ckpt.config.variant}")
    return ckpt


def cmd_bench(args) -> int:
    if not args.ar_model and not args.nar_model:
        raise UsageError("pass --ar-model and/or --nar-model")
    if args.reps < bench_mod.MIN_REPS:
        raise UsageError(f"--reps must be >= {bench_mod.MIN_REPS}, got {args.reps}")
    beam = _beam_options(args.beam)
    if args.modes is not None:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        if not modes:
            raise UsageError(f"--modes names no mode; pick from {','.join(bench_mod.MODES)}")
    else:
        modes = tuple(m for m in bench_mod.MODES
                      if (m.startswith("AR") and args.ar_model) or (m.startswith("NAR") and args.nar_model))
    for mode in modes:
        if mode not in bench_mod.MODES:
            raise UsageError(f"unknown mode {mode!r} in --modes; pick from {','.join(bench_mod.MODES)}")
        if not (args.ar_model if mode.startswith("AR") else args.nar_model):
            raise UsageError(f"mode {mode} needs --{mode.split('-')[0].lower()}-model")
    ar = nar = None
    vocabs = []
    if args.ar_model:
        ckpt = _load_family("--ar-model", args.ar_model, True)
        _check_ar_budget("--ar-max-steps", ckpt.config, args.ar_max_steps)
        ar = (ckpt.config, ckpt.params)
        vocabs.append(_load_vocab_for_model(args.ar_model, ckpt.config, args.vocab, args.vocab_mode))
    if args.nar_model:
        ckpt = _load_family("--nar-model", args.nar_model, False)
        nar = (ckpt.config, ckpt.params)
        vocabs.append(_load_vocab_for_model(args.nar_model, ckpt.config, args.vocab, args.vocab_mode))
    if vocabs[0] != vocabs[-1]:
        raise UsageError("--ar-model and --nar-model have different vocabularies; pass one with --vocab")
    limits = [(flag, model[0]) for flag, model in (("--ar-model", ar), ("--nar-model", nar)) if model]
    pairs = [SentencePair(ids, ids, line, line)
             for line, ids in _encode_input(args.input, vocabs[0], limits) if ids]
    records, summary = bench_mod.bench_decode(
        pairs, modes=modes, ar_model=ar, nar_model=nar, reps=args.reps,
        beam=beam, ar_max_steps=args.ar_max_steps)
    if args.out:
        Path(args.out).write_text(bench_mod.records_to_csv(records), encoding="utf-8")
    print(summary, end="")
    return 0


def cmd_average(args) -> int:
    checkpoints = [load_checkpoint(p) for p in args.checkpoints]
    params = average_checkpoints(checkpoints)
    step = max(c.step for c in checkpoints)
    score = sum(c.valid_score for c in checkpoints) / len(checkpoints)
    save_checkpoint(Checkpoint(checkpoints[0].config, params, step, score), args.output)
    print(f"averaged {len(checkpoints)} checkpoints into {args.output}")
    return 0


def cmd_synth(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    try:
        vocab = synthetic_vocab(args.vocab_size)
    except VocabularyError as exc:
        raise UsageError(f"--vocab-size: {exc}") from None
    try:
        pairs = gen_synthetic(args.task, args.vocab_size, args.n,
                              (args.min_len, args.max_len), args.seed, vocab)
    except CorpusError as exc:
        raise UsageError(f"--min-len {args.min_len}, --max-len {args.max_len}: {exc}") from None
    with open(args.src, "w", encoding="utf-8") as f:
        for p in pairs:
            f.write(p.source_text + "\n")
    with open(args.tgt, "w", encoding="utf-8") as f:
        for p in pairs:
            f.write(p.target_text + "\n")
    if args.vocab_out:
        vocab.save(args.vocab_out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctcnat",
                                     description="CTC-based parallel sequence transduction toolkit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("--config", required=True, help="path to the key=value config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="decode an input file line by line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--mode", choices=("greedy", "beam"), default="greedy")
    p.add_argument("--vocab", default=None, help="vocabulary file (default: vocab.txt beside the model)")
    p.add_argument("--vocab-mode", choices=("word", "char"), default="word")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("evaluate", help="corpus BLEU of hypothesis vs reference files")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--src", default=None)
    p.add_argument("--report", default=None, help="write a per-sentence CSV report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="per-sentence decoding latency")
    p.add_argument("--input", required=True, help="source sentences, one per line")
    p.add_argument("--ar-model", default=None)
    p.add_argument("--nar-model", default=None)
    p.add_argument("--modes", default=None, help="comma-separated subset of " + ",".join(bench_mod.MODES))
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--ar-max-steps", type=int, default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--vocab-mode", choices=("word", "char"), default="word")
    p.add_argument("--out", default=None, help="write the timing CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("average", help="elementwise-average checkpoints")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("synth", help="generate a synthetic parallel corpus")
    p.add_argument("--task", choices=SYNTHETIC_TASKS, required=True)
    p.add_argument("--vocab-size", type=int, default=20)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--vocab-out", default=None)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    # Dropped and skipped pair counts are logged at INFO by data and training.
    log = logging.getLogger("ctcnat")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
