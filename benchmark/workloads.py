"""The three benchmark workloads: inputs, timed units, output checks, metrics.

Each workload is a closed loop with one caller in one thread. ``setup``
builds the inputs and the model from the workload seed; ``run_unit`` runs
one unit of work (a ``train()`` call or one decode pass), times it from
outside through ctcnat's public functions and checks every output. The
program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctcnat import decoding, model, training
from ctcnat.data import EOS_ID, gen_synthetic, synthetic_vocab
from ctcnat.evaluation import corpus_bleu

import tracing
from calibration import Calibration

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
EXPECTED_SEEDS = range(64)  # the seeds whose outputs expected/ stores

VOCAB_TOKENS = 20
BEAM = decoding.DecodeOptions(beam_width=4)

# train: the development loop; a toy task the model learns in one short run.
TRAIN_TASK = "duplicate-each-token"
TRAIN_PAIRS, VALID_PAIRS = 2400, 200
TRAIN_LENGTHS = (3, 16)
TRAIN_STEPS = 150
BATCH = 16
BLEU_FLOOR = 90.0  # every seed tried reaches about 97 after TRAIN_STEPS steps

# nar-decode / ar-decode: one pass decodes one source of every length, so
# each pass, and each seed, holds the same length mix and only the tokens
# differ. The weights are fixed: output lengths, and with them beam-search
# work, depend far more on the weights than on the tokens.
DECODE_LENGTHS = tuple(range(4, 49))
BUCKETS = ((4, 16), (17, 32), (33, 48))
DECODE_REPS = 3  # the fewest decode passes a run makes: 135 timed decodes per mode, enough for a p90
EOS_BIAS = -1e4  # keeps the AR baseline from ending early: it decodes its whole budget
MODEL_SEED = 0

MODES = {"greedy": None, "beam": BEAM}  # mode -> beam options
END_TO_END = {  # name -> unit
    "setup_s": "s", "peak_rss_mb": "MB", "sent_per_s": "1/s",
    "greedy.ms_p50": "ms", "greedy.ms_p90": "ms", "beam.ms_p50": "ms", "beam.ms_p90": "ms",
    "decode.out_tok_per_s": "1/s",
}
PER_LAYER = {
    "tensor.backward_ms_per_step": "ms", "tensor.tape_records_per_step": "count",
    "training.forward_ms_per_step": "ms", "training.adam_ms_per_step": "ms",
    "training.validation_ms": "ms", "training.checkpoint_ms": "ms",
    "data.batch_ms_per_step": "ms", "evaluation.bleu_ms": "ms",
    "ctc.loss_ms_per_step": "ms", "ctc.loss_calls_per_step": "count",
    "ctc.lattice_cells_per_step": "count",
    "model.encode.self_ms": "ms", "model.split_states.self_ms": "ms",
    "model.decode_parallel.self_ms": "ms", "decoding.ctc_beam_search.self_ms": "ms",
    "model.ar_step.self_ms": "ms", "model.ar_step.calls_per_sentence": "count",
    "model.ar_step.prefix_tokens": "count", "decoding.ar_beam_decode.self_ms": "ms",
    "trace.overhead_ratio": "x",
}


def digest(tokens) -> str:
    return hashlib.sha1(" ".join(map(str, tokens)).encode()).hexdigest()[:12]


def nar_translate(config, params, source_ids, beam):
    if beam is None:
        return training.greedy_translate(config, params, source_ids)
    enc = model.encode(config, params, source_ids)
    log_probs = model.decode_parallel(config, params, model.split_states(params, enc, config.k), enc)
    return decoding.ctc_beam_search(log_probs, beam)[0].prefix


def ar_translate(config, params, source_ids, beam):
    if beam is None:
        return decoding.ar_greedy_decode(config, params, source_ids, len(source_ids))
    return decoding.ar_beam_decode(config, params, source_ids, beam, len(source_ids))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


@dataclass
class Results:
    """What the timed units measured, with the start time of each timing so
    that it can be scaled to reference milliseconds (see calibration.py)."""

    timed: dict[str, list[tuple[int, float, float]]] = field(
        default_factory=lambda: {m: [] for m in MODES})  # mode -> (source length, start, ms)
    out_tokens: int = 0
    train_s: list[tuple[float, float, float]] = field(default_factory=list)  # per train() call:
    # (start, end, seconds), the seconds without the kernel samples taken during the call
    calibration: Calibration = field(default_factory=Calibration)
    losses: list[float] = field(default_factory=list)
    bleus: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)


def _decode_sentence(tally: Tally, results: Results, tracer, source_ids,
                     translate) -> dict[str, tuple[int, ...] | None]:
    """Decode one source greedy and with beam 4, timing each; a raised
    exception is a failed operation and gives None for that mode."""
    outs = {}
    results.calibration.sample()
    with tracer.span("bench.sentence") if tracer else contextlib.nullcontext():
        for mode, beam in MODES.items():
            tally.attempted += 1
            start = time.perf_counter()
            try:
                out = translate(source_ids, beam)
            except Exception as exc:  # counted, never fatal
                tally.fail(f"{mode} decode of a length-{len(source_ids)} source raised {exc!r}")
                outs[mode] = None
                continue
            results.timed[mode].append((len(source_ids), start, (time.perf_counter() - start) * 1e3))
            results.out_tokens += len(out)
            outs[mode] = out
    return outs


def pass_digests(outs: list[dict]) -> dict[str, str]:
    """One digest per mode over a whole pass of decodes, in source order."""
    return {mode: digest(digest(out[mode]) for out in outs) for mode in MODES}


class TrainWorkload:
    """Unit 0 of a run is one ``training.train`` call on the duplicate task;
    every later unit is one pass in which the trained model decodes the
    validation sources greedy and with beam 4. The first pass is compared
    with the digests ``expected/train.json`` stores, so a change in training
    numerics that alters any decode of the trained model is a failure."""

    name = "train"
    root_span = "training.train"
    min_units = 1 + DECODE_REPS

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.reference_losses: list[float] | None = None
        self.params = None
        self.first_outputs = None

    def setup(self) -> None:
        self.vocab = synthetic_vocab(VOCAB_TOKENS)
        self.train_pairs = gen_synthetic(TRAIN_TASK, VOCAB_TOKENS, TRAIN_PAIRS, TRAIN_LENGTHS,
                                         2 * self.seed, self.vocab)
        self.valid_pairs = gen_synthetic(TRAIN_TASK, VOCAB_TOKENS, VALID_PAIRS, TRAIN_LENGTHS,
                                         2 * self.seed + 1, self.vocab)
        self.config = model.ModelConfig(vocab_size=self.vocab.vocab_size, d_model=64, ff_dim=256,
                                        heads=4, enc_layers=2, dec_layers=2, k=3,
                                        variant="encoder-decoder", max_len=32, dropout_rate=0.0)
        self.train_config = training.TrainConfig(
            learning_rate=3e-3, warmup=200, batch_size=BATCH, max_steps=TRAIN_STEPS,
            validation_interval=TRAIN_STEPS, checkpoint_dir=str(self.work_dir), seed=self.seed,
            keep_top=1)
        stored = load_expected(self.name).get(str(self.seed))
        self.expected_source = "stored" if stored else None
        self.expected = stored

    def run_unit(self, index: int, tally: Tally, results: Results, tracer) -> bool:
        if index == 0:
            return self._train(tally, results)
        outs = [_decode_sentence(tally, results, tracer, pair.source_ids, self.translate)
                for pair in self.valid_pairs]
        if self.first_outputs is None:
            self.first_outputs = outs
            hyps = [self.vocab.decode_ids(out["greedy"] or ()) for out in outs]
            refs = [self.vocab.decode_ids(p.target_ids) for p in self.valid_pairs]
            if corpus_bleu(hyps, refs) != results.bleus[-1]:
                tally.fail("greedy decodes of the trained model disagree with train()'s validation BLEU")
            if self.expected and all(None not in out.values() for out in outs):
                for mode, got in pass_digests(outs).items():
                    if got != self.expected[mode]:
                        tally.fail(f"the trained model's {mode} decodes of the validation sources "
                                   f"have digest {got}, expected {self.expected[mode]}")
        elif outs != self.first_outputs:
            tally.fail("the trained model decoded the validation sources differently on a repeat")
        return True

    def translate(self, source_ids, beam):
        return nar_translate(self.config, self.params, source_ids, beam)

    def decode_all(self) -> dict[str, str]:
        """Train, then digest one pass over the validation sources, as
        ``expected/`` stores it."""
        ckpt, _ = training.train(self.config, self.train_pairs, self.valid_pairs,
                                 self.train_config, self.vocab)
        self.params = ckpt.params
        return pass_digests([{mode: self.translate(p.source_ids, beam) for mode, beam in MODES.items()}
                             for p in self.valid_pairs])

    def _train(self, tally: Tally, results: Results) -> bool:
        tally.attempted += self.train_config.max_steps + 1  # the steps and the final validation
        calibration = results.calibration
        samples = len(calibration.ms)
        start = time.perf_counter()
        try:
            with calibration.sampling():
                ckpt, log = training.train(self.config, self.train_pairs, self.valid_pairs,
                                           self.train_config, self.vocab)
        except Exception as exc:
            tally.fail(f"train() raised {exc!r}")
            return False
        end = time.perf_counter()
        results.train_s.append((start, end, end - start - sum(calibration.ms[samples:]) / 1e3))
        self.params = ckpt.params

        losses = [row.train_loss for row in log]
        for step, loss in enumerate(losses, 1):
            if not math.isfinite(loss):
                tally.fail(f"training step {step} has loss {loss}")
        if self.reference_losses is None:
            self.reference_losses = losses
        elif losses != self.reference_losses:
            tally.fail("per-step losses differ from the first train() call with the same inputs")
        results.losses.append(statistics.fmean(losses[-10:]))
        bleu = log[-1].valid_bleu
        results.bleus.append(bleu)
        if not bleu >= BLEU_FLOOR:
            tally.fail(f"validation BLEU {bleu} is below {BLEU_FLOOR}")
        return True


class DecodeWorkload:
    """A random-weight model decodes one source of every length per pass."""

    root_span = "bench.sentence"
    min_units = DECODE_REPS

    def __init__(self, name: str, variant: str, translate, seed: int):
        self.name = name
        self.variant = variant
        self._translate = translate
        self.seed = seed

    def translate(self, source_ids, beam):
        return self._translate(self.config, self.params, source_ids, beam)

    def setup(self) -> None:
        vocab = synthetic_vocab(VOCAB_TOKENS)
        self.config = model.ModelConfig(vocab_size=vocab.vocab_size, k=3, variant=self.variant,
                                        max_len=64, dropout_rate=0.0)
        self.params = model.init_params(self.config, MODEL_SEED)
        if self.config.is_autoregressive:
            self.params["out.b"].data[EOS_ID - 1] = EOS_BIAS  # column j scores id j+1
        rng = np.random.default_rng([self.seed, 0])  # the sources
        self.sources = [tuple(int(t) for t in rng.integers(4, vocab.size, size=n))
                        for n in DECODE_LENGTHS]
        stored = load_expected(self.name).get(str(self.seed))
        self.expected_source = "stored" if stored else "first pass"
        self.expected = {m: stored[m].split() for m in MODES} if stored else None
        for beam in MODES.values():  # warm-up, untimed
            self.translate(self.sources[0], beam)

    def run_unit(self, index: int, tally: Tally, results: Results, tracer) -> bool:
        order = np.random.default_rng([self.seed, 2, index]).permutation(len(self.sources))
        outputs = {m: [None] * len(self.sources) for m in MODES}
        for i in order.tolist():
            src = self.sources[i]
            for mode, out in _decode_sentence(tally, results, tracer, src, self.translate).items():
                if out is None:
                    continue
                outputs[mode][i] = digest(out)
                if self.config.is_autoregressive and len(out) != len(src):
                    tally.fail(f"AR {mode} output has {len(out)} tokens, budget {len(src)}")
        if self.expected is None:
            self.expected = outputs
        for mode in MODES:
            for i, (got, want) in enumerate(zip(outputs[mode], self.expected[mode])):
                if got is not None and got != want:
                    tally.fail(f"{mode} output for source {i} (length {len(self.sources[i])}) "
                               f"has digest {got}, expected {want}")
        return True

    def decode_all(self) -> dict[str, str]:
        """Digests of one pass in source order, as ``expected/`` stores them."""
        return {mode: " ".join(digest(self.translate(s, beam)) for s in self.sources)
                for mode, beam in MODES.items()}


def load_expected(name: str) -> dict:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)["seeds"]


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "train":
        return TrainWorkload(seed, work_dir)
    if name == "nar-decode":
        return DecodeWorkload(name, "encoder-decoder", nar_translate, seed)
    if name == "ar-decode":
        return DecodeWorkload(name, "autoregressive-baseline", ar_translate, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "nar-decode", "ar-decode")


def end_to_end(results: Results, setup: list[tuple[float, float]], peak_rss_mb: float,
               calibrated: bool) -> dict[str, float]:
    """Every gated metric; each applies to every workload (see README.md).

    ``setup`` holds (start, seconds) per set-up. Times are in reference
    milliseconds if ``calibrated``, else as measured: each timing is scaled
    by the kernel samples nearest its start, and a ``train()`` call by the
    samples taken during it.
    """
    cal = results.calibration
    scale = cal.scale if calibrated else (lambda t: 1.0)
    timed = {m: [ms * scale(t) for _, t, ms in results.timed[m]] for m in MODES}
    decode_s = sum(map(sum, timed.values())) / 1e3
    out = {"setup_s": statistics.median(s * scale(t) for t, s in setup),
           "peak_rss_mb": peak_rss_mb}
    if results.train_s:
        train_s = sum(s * (cal.scale_over(a, b) if calibrated else 1.0) for a, b, s in results.train_s)
        out["sent_per_s"] = len(results.train_s) * TRAIN_STEPS * BATCH / train_s
    else:
        out["sent_per_s"] = len(timed["greedy"]) / decode_s
    for mode in MODES:
        out[f"{mode}.ms_p50"] = statistics.median(timed[mode])
        out[f"{mode}.ms_p90"] = float(np.percentile(timed[mode], 90))
    out["decode.out_tok_per_s"] = results.out_tokens / decode_s
    return out


def buckets(results: Results) -> dict[str, dict[str, float]]:
    """Median latency in reference ms per source-length bucket; printed, not gated."""
    scale = results.calibration.scale
    out = {}
    for mode in MODES:
        for lo, hi in BUCKETS:
            ms = [v * scale(t) for n, t, v in results.timed[mode] if lo <= n <= hi]
            if ms:
                out.setdefault(mode, {})[f"{lo}-{hi}"] = statistics.median(ms)
    return out


def per_layer(spans: list[list], root_span: str, overhead: float) -> dict[str, float]:
    """Per-layer metrics from the traced units' spans, in unscaled ms.

    On ``train`` only spans inside ``training.train`` count and times are per
    training step (validation, checkpoint and BLEU per ``train()`` call);
    on the decode workloads times and counts are per source sentence, which
    is decoded once greedy and once with beam 4.
    """
    t = tracing.SpanTotals(spans, root_span)
    calls = t.calls["training.train"]
    steps = calls * TRAIN_STEPS
    sentences = t.calls["bench.sentence"]
    per_op = steps or sentences

    def div(x, n):
        return x / n if n else 0.0

    return {
        "tensor.backward_ms_per_step": div(t.total_ms["tensor.backward"], steps),
        "tensor.tape_records_per_step": div(t.counts["tensor.backward"], steps),
        "training.forward_ms_per_step": div(t.self_ms["training.batch_loss"], steps),
        "training.adam_ms_per_step": div(t.total_ms["training.adam"], steps),
        "training.validation_ms": div(t.total_ms["training.validation"], calls),
        "training.checkpoint_ms": div(t.total_ms["training.checkpoint"], calls),
        "data.batch_ms_per_step": div(t.total_ms["data.batch_pairs"], steps),
        "evaluation.bleu_ms": div(t.total_ms["evaluation.corpus_bleu"], calls),
        "ctc.loss_ms_per_step": div(t.total_ms["ctc.loss"], steps),
        "ctc.loss_calls_per_step": div(t.calls["ctc.loss"], steps),
        "ctc.lattice_cells_per_step": div(t.counts["ctc.loss"], steps),
        "model.encode.self_ms": div(t.self_ms["model.encode"], per_op),
        "model.split_states.self_ms": div(t.self_ms["model.split_states"], per_op),
        "model.decode_parallel.self_ms": div(t.self_ms["model.decode_parallel"], per_op),
        "decoding.ctc_beam_search.self_ms": div(t.self_ms["decoding.ctc_beam_search"], per_op),
        "model.ar_step.self_ms": div(t.self_ms["model.ar_step"], per_op),
        "model.ar_step.calls_per_sentence": div(t.calls["model.ar_step"], sentences),
        "model.ar_step.prefix_tokens": div(t.counts["model.ar_step"], sentences),
        "decoding.ar_beam_decode.self_ms": div(t.self_ms["decoding.ar_beam_decode"], per_op),
        "trace.overhead_ratio": overhead,
    }
