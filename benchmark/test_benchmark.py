"""The benchmark's own tests: output schema, and tracing that changes nothing.

    PYTHONPATH=src python -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ctcnat.model
import ctcnat.training
from ctcnat.data import gen_synthetic, synthetic_vocab

import calibration
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
UNITS = {**workloads.END_TO_END, **workloads.PER_LAYER}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert spec["paths"] == ["benchmark"]
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert tuple(m["name"] for m in spec["end_to_end"]) == tuple(workloads.END_TO_END)
    assert tuple(m["name"] for m in spec["per_layer"]) == tuple(workloads.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == UNITS[metric["name"]]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace, names", [(0, workloads.END_TO_END), (1, workloads.PER_LAYER)])
def test_result_line_schema(trace, names):
    proc = _bench("--workload", "nar-decode", "--seed", "0", "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert tuple(result["metrics"]) == tuple(names)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == UNITS[name]
        assert isinstance(metric["value"], float)
    report = json.loads(lines[-2])["report"]
    assert set(report["env"]) == {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"}
    assert set(report["env"]["blas_threads"].values()) == {"1"}
    assert report["succeeded"] == result["attempted"]
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert min(report["timed_per_mode"].values()) >= 100  # enough for a p90
        assert set(report["bucket_ms_p50"]["beam"]) == {"4-16", "17-32", "33-48"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "nar-decode", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_when_numpy_was_imported_unpinned(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with pytest.raises(SystemExit, match="fresh interpreter"):
        run.pin_blas_threads()  # numpy is already imported in this process


def _originals():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.WRAPPED}


def test_tracing_leaves_training_bit_for_bit_and_counts_every_call(tmp_path):
    vocab = synthetic_vocab(8)
    train_pairs = gen_synthetic("duplicate-each-token", 8, 24, (2, 5), 0, vocab)
    valid_pairs = gen_synthetic("duplicate-each-token", 8, 6, (2, 5), 1, vocab)
    config = ctcnat.model.ModelConfig(vocab_size=vocab.vocab_size, d_model=16, ff_dim=32, heads=2,
                                      enc_layers=1, dec_layers=1, k=3, max_len=16, dropout_rate=0.0)
    steps, batch = 3, 4
    train_config = ctcnat.training.TrainConfig(batch_size=batch, max_steps=steps, warmup=2,
                                               validation_interval=steps,
                                               checkpoint_dir=str(tmp_path), keep_top=1)
    originals = _originals()
    _, plain = ctcnat.training.train(config, train_pairs, valid_pairs, train_config, vocab)
    with tracing.Tracer() as tracer:
        _, traced = ctcnat.training.train(config, train_pairs, valid_pairs, train_config, vocab)
    assert _originals() == originals
    assert [r.train_loss for r in traced] == [r.train_loss for r in plain]
    assert traced[-1].valid_bleu == plain[-1].valid_bleu

    totals = tracing.SpanTotals(tracer.spans, "training.train")
    assert totals.calls["training.train"] == 1
    for name in ("tensor.backward", "training.adam", "data.batch_pairs", "training.batch_loss"):
        assert totals.calls[name] == steps, name
    assert totals.calls["ctc.loss"] == steps * batch
    for name in ("training.validation", "training.checkpoint", "evaluation.corpus_bleu"):
        assert totals.calls[name] == 1, name
    for name in ("model.encode", "model.split_states", "model.decode_parallel"):
        assert totals.calls[name] == steps * batch + len(valid_pairs), name
    assert totals.counts["tensor.backward"] > 0 and totals.counts["ctc.loss"] > 0


@pytest.mark.parametrize("name", ["nar-decode", "ar-decode"])
def test_tracing_leaves_decode_outputs_unchanged_and_counts_every_call(name):
    workload = workloads.make_workload(name, 0, None)
    workload.setup()
    sources = workload.sources[:4]  # lengths 4..7
    modes = tuple(workloads.MODES.items())

    def decode_all(tracer):
        outs = []
        for src in sources:
            with tracer.span("bench.sentence") if tracer else contextlib.nullcontext():
                outs.append([workload.translate(src, beam) for _, beam in modes])
        return outs

    originals = _originals()
    plain = decode_all(None)
    with tracing.Tracer() as tracer:
        traced = decode_all(tracer)
    assert _originals() == originals
    assert traced == plain
    expected = workloads.load_expected(name).get("0")
    if expected:
        for mode_index, (mode, _) in enumerate(modes):
            assert [workloads.digest(o[mode_index]) for o in plain] == expected[mode].split()[:4]

    totals = tracing.SpanTotals(tracer.spans, "bench.sentence")
    assert totals.calls["bench.sentence"] == len(sources)
    assert totals.calls["model.encode"] == 2 * len(sources)
    if name == "nar-decode":
        assert totals.calls["model.decode_parallel"] == 2 * len(sources)
        assert totals.calls["decoding.ctc_beam_search"] == len(sources)
        assert totals.calls["model.ar_step"] == 0
    else:
        # EOS is suppressed, so greedy takes L steps and beam 1 + 4 (L - 1).
        lengths = [len(s) for s in sources]
        assert totals.calls["model.ar_step"] == sum(L + 1 + 4 * (L - 1) for L in lengths)
        greedy_prefixes = sum(L * (L + 1) // 2 for L in lengths)
        beam_prefixes = sum(1 + 4 * sum(s + 1 for s in range(1, L)) for L in lengths)
        assert totals.counts["model.ar_step"] == greedy_prefixes + beam_prefixes
        assert totals.calls["decoding.ar_beam_decode"] == len(sources)


def test_self_time_subtracts_direct_children():
    spans = [["root", 0.0, 0.010, -1, 0, 0],
             ["child", 0.001, 0.005, 0, 0, 7],
             ["grandchild", 0.002, 0.003, 1, 0, 0],
             ["other", 0.020, 0.030, -1, 3, 0]]
    totals = tracing.SpanTotals(spans, "root")
    assert totals.self_ms["root"] == pytest.approx(6.0)
    assert totals.self_ms["child"] == pytest.approx(3.0)
    assert totals.total_ms["child"] == pytest.approx(4.0)
    assert totals.counts["child"] == 7
    assert "other" not in totals.calls


def test_calibration_scales_by_the_nearest_kernel_samples():
    cal = calibration.Calibration()
    cal.times = [float(i) for i in range(10)]
    cal.ms = [1.0] * 5 + [2.0] * 5
    assert cal.scale(0.5) == calibration.REFERENCE_MS / 1.0
    assert cal.scale(8.5) == calibration.REFERENCE_MS / 2.0
    assert cal.scale_over(4.5, 9.0) == calibration.REFERENCE_MS / 2.0
    cal.sample()
    assert len(cal.ms) == 11 and cal.ms[-1] > 0
    with cal.sampling():
        time.sleep(3.5 * calibration.SAMPLE_INTERVAL_S)
    assert len(cal.ms) >= 13 and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
