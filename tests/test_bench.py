import numpy as np
import pytest

from ctcnat import bench
from ctcnat.bench import MODES, bench_decode, blas_thread_control, records_to_csv, summarize
from ctcnat.data import SentencePair, gen_synthetic, synthetic_vocab
from ctcnat.model import ConfigError, ModelConfig, init_params


def models(vocab_size=9):
    nar_cfg = ModelConfig(vocab_size=vocab_size, d_model=16, ff_dim=32, heads=2,
                          enc_layers=1, dec_layers=1, k=2, max_len=64, dropout_rate=0.0)
    ar_cfg = ModelConfig(vocab_size=vocab_size, d_model=16, ff_dim=32, heads=2,
                         enc_layers=1, dec_layers=1, variant="autoregressive-baseline",
                         max_len=64, dropout_rate=0.0)
    ar_params = init_params(ar_cfg, 0)
    # steer the baseline away from end-of-sequence so runs use the full budget
    ar_params["out.w"].data[:] = 0.0
    ar_params["out.b"].data[:] = 0.0
    ar_params["out.b"].data[4 - 1] = 8.0
    return (ar_cfg, ar_params), (nar_cfg, init_params(nar_cfg, 1))


def corpus(lengths):
    vocab = synthetic_vocab(5)
    rng = np.random.default_rng(0)
    pairs = []
    for n in lengths:
        ids = tuple(int(x) for x in rng.integers(4, 9, size=n))
        pairs.append(SentencePair(ids, ids, "", ""))
    return pairs


class TestBenchDecode:
    def test_records_cover_modes_and_sentences(self):
        ar, nar = models()
        pairs = corpus([2, 3, 4])
        records, summary = bench_decode(pairs, modes=("AR-greedy", "NAR-greedy"),
                                        ar_model=ar, nar_model=nar, reps=3)
        assert len(records) == 6
        assert all(rec.ms > 0 for rec in records)
        assert "AR-greedy / NAR-greedy ratio" in summary

    def test_rigged_baseline_uses_full_budget(self):
        ar, nar = models()
        pairs = corpus([5])
        records, _ = bench_decode(pairs, modes=("AR-greedy",), ar_model=ar, reps=3)
        assert records[0].out_len == 5  # max_steps defaults to the source length

    def test_zero_ar_budget_is_a_budget(self):
        ar, _ = models()
        records, _ = bench_decode(corpus([5]), modes=("AR-greedy",), ar_model=ar, reps=3, ar_max_steps=0)
        assert records[0].out_len == 0

    def test_reps_minimum(self):
        ar, nar = models()
        with pytest.raises(ConfigError):
            bench_decode(corpus([2]), modes=("NAR-greedy",), nar_model=nar, reps=2)

    def test_unknown_mode(self):
        _, nar = models()
        with pytest.raises(ConfigError):
            bench_decode(corpus([2]), modes=("NAR-flash",), nar_model=nar)

    def test_no_mode(self):
        _, nar = models()
        with pytest.raises(ConfigError, match="^no mode to time"):
            bench_decode(corpus([2]), modes=(), nar_model=nar)

    def test_missing_model(self):
        with pytest.raises(ConfigError):
            bench_decode(corpus([2]), modes=("AR-greedy",), nar_model=models()[1])

    def test_wrong_family(self):
        ar, nar = models()
        with pytest.raises(ConfigError):
            bench_decode(corpus([2]), modes=("AR-greedy",), ar_model=nar)

    def test_csv_layout(self):
        _, nar = models()
        records, _ = bench_decode(corpus([2, 3]), modes=("NAR-greedy",), nar_model=nar, reps=3)
        lines = records_to_csv(records).splitlines()
        assert lines[0] == "sentence_id,src_len,out_len,mode,ms"
        assert len(lines) == 3

    def test_nar_time_is_content_insensitive(self, monkeypatch):
        """Equal-length sentences decode in near-equal time in parallel mode.
        Each sentence's time is the median of 15 repetitions spread over the
        run, so a stall of a loaded machine must hit most of them to move it.
        A failure lists every sentence's 15 times in run order."""
        _, nar = models()
        pairs = corpus([6] * 8)
        sentence_of = {id(p): i for i, p in enumerate(pairs)}
        runs = [[] for _ in pairs]
        time_round = bench._time_round

        def recorded(runners, pair):
            timed = time_round(runners, pair)
            runs[sentence_of[id(pair)]].append(timed[0][0])
            return timed

        monkeypatch.setattr(bench, "_time_round", recorded)
        records, _ = bench_decode(pairs, modes=("NAR-greedy",), nar_model=nar, reps=15)
        times = sorted(rec.ms for rec in records)
        median = times[len(times) // 2]
        spread = (times[-1] - times[0]) / median
        detail = "\n".join(f"sentence {i}: median {rec.ms:.3f} ms, runs " + " ".join(f"{t:.3f}" for t in run)
                           for i, (rec, run) in enumerate(zip(records, runs)))
        assert spread < 0.5, f"spread {spread:.3f} of the per-sentence medians:\n{detail}"

    def test_ar_time_grows_with_output_length(self):
        ar, _ = models()
        lengths = list(range(2, 41, 6))
        records, _ = bench_decode(corpus(lengths), modes=("AR-greedy",), ar_model=ar, reps=3)
        xs = np.array([rec.out_len for rec in records], dtype=float)
        ys = np.array([rec.ms for rec in records])
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope > 0.0


def record_calls(monkeypatch, on_call=lambda mode, pair: None):
    """Swap the decode runners for stubs that log (mode, source length) per call."""
    calls = []

    def make_runner(mode, *_):
        def runner(pair):
            calls.append((mode, len(pair.source_ids)))
            on_call(mode, pair)
            return pair.source_ids
        return runner

    monkeypatch.setattr(bench, "_make_runner", make_runner)
    return calls


class TestTimingDiscipline:
    @pytest.mark.skipif(blas_thread_control() is None, reason="no BLAS thread control found")
    def test_blas_pinned_during_runs_and_restored(self, monkeypatch):
        get, set_ = blas_thread_control()
        before = get()
        seen = []
        record_calls(monkeypatch, lambda mode, pair: seen.append(get()))
        try:
            set_(2)
            records, summary = bench_decode(corpus([2, 3]), modes=("AR-greedy", "NAR-greedy"), reps=3)
            assert seen and set(seen) == {1}
            assert get() == 2
            assert "BLAS threads in timed region: 1 (pinned, was 2)" in summary

            def fail(mode, pair):
                raise RuntimeError("decode failed")

            record_calls(monkeypatch, fail)
            with pytest.raises(RuntimeError):
                bench_decode(corpus([2]), modes=("NAR-greedy",), reps=3)
            assert get() == 2
        finally:
            set_(before)

    def test_without_thread_control_warns_and_runs(self, monkeypatch):
        record_calls(monkeypatch)
        monkeypatch.setattr(bench, "blas_thread_control", lambda: None)
        with pytest.warns(RuntimeWarning, match="BLAS threading"):
            records, summary = bench_decode(corpus([2]), modes=("NAR-greedy",), reps=3)
        assert len(records) == 1
        assert "BLAS threads in timed region: not pinned" in summary

    def test_modes_interleaved_per_sentence_in_each_repetition(self, monkeypatch):
        calls = record_calls(monkeypatch)
        modes = ("AR-greedy", "NAR-greedy", "NAR-beam")
        records, _ = bench_decode(corpus([2, 5]), modes=modes, reps=3)
        warm_up = [(m, 2) for m in modes]
        timed = [(m, n) for _ in range(3) for n in (2, 5) for m in modes]
        assert calls == warm_up + timed
        # records stay mode-major, as before the modes were interleaved
        assert [(r.mode, r.sentence_id) for r in records] == [(m, i) for m in modes for i in (0, 1)]
