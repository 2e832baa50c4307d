import logging
import math
import struct
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from ctcnat import model, training
from ctcnat.ctc import count_alignments
from ctcnat.data import SentencePair, Vocabulary, batch_pairs, gen_synthetic, synthetic_vocab
from ctcnat.evaluation import corpus_bleu
from ctcnat.model import ConfigError, LengthError, ModelConfig, init_params
from ctcnat.tensor import GradTape, NumericError, Tensor
from ctcnat.training import (
    Adam,
    Checkpoint,
    CheckpointError,
    FormatError,
    TrainConfig,
    average_checkpoints,
    batch_loss,
    feasible_pairs,
    greedy_translate,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sentence_loss,
    train,
    write_log_csv,
)

from helpers import central_diff, rel_err


def small_config(**kw):
    base = dict(vocab_size=9, d_model=16, ff_dim=32, heads=2, enc_layers=1,
                dec_layers=1, k=2, variant="encoder-decoder", max_len=32, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


def small_corpus(n=24, seed=0, vocab_size=6, task="copy", len_range=(2, 4)):
    vocab = synthetic_vocab(vocab_size)
    return vocab, gen_synthetic(task, vocab_size, n, len_range, seed=seed, vocab=vocab)


class TestSchedule:
    def test_ramp_peak_decay(self):
        base, warmup = 1e-3, 100
        assert lr_at(1, base, warmup) == pytest.approx(base / warmup)
        assert lr_at(warmup, base, warmup) == pytest.approx(base)
        assert lr_at(4 * warmup, base, warmup) == pytest.approx(base / 2)
        assert lr_at(50, base, warmup) < base


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", math.nan),
        ("learning_rate", math.inf),
    ])
    def test_bad_optimizer_setting_is_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["warmup", "keep_top", "batch_size", "max_steps",
                                       "validation_interval"])
    def test_count_below_one_is_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got {value}$"):
            TrainConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        TrainConfig(learning_rate=1e-300)


class TestAdam:
    def test_two_steps_match_the_transformer_settings(self):
        """Two bias-corrected steps, worked out with beta1 0.9, beta2 0.98 and
        epsilon 1e-9; the second coordinate's gradient is small enough that
        epsilon dominates its denominator."""
        p = Tensor(np.array([1.0, -2.0]))
        optimizer = Adam({"w": p})
        want = p.data.copy()
        m = v = np.zeros(2)
        for t, g in enumerate([np.array([0.5, 1e-12]), np.array([-1.0, 3e-12])], start=1):
            p.grad = g.copy()
            optimizer.step(0.1)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.98 * v + (1.0 - 0.98) * (g * g)
            want = want - 0.1 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.98 ** t)) + 1e-9)
        np.testing.assert_allclose(p.data, want, rtol=1e-14, atol=0.0)


class TestLosses:
    def test_one_adam_step_decreases_batch_loss(self):
        vocab, pairs = small_corpus()
        cfg = small_config(vocab_size=vocab.vocab_size)
        params = init_params(cfg, 0)
        batch = batch_pairs(pairs[:8])
        optimizer = Adam(params)
        with GradTape() as tape:
            loss = batch_loss(cfg, params, batch)
        before = loss.item()
        tape.backward(loss)
        optimizer.step(1e-2)
        with GradTape():
            after = batch_loss(cfg, params, batch).item()
        assert after < before

    def test_uniform_labeler_loss_equals_entropy_minus_alignment_mass(self):
        """With a uniform output distribution the lattice loss is exactly
        T*log(V+1) - log(#alignments)."""
        vocab, pairs = small_corpus(n=6, seed=3)
        cfg = small_config(vocab_size=vocab.vocab_size)
        params = init_params(cfg, 1)
        params["out.w"].data[:] = 0.0
        params["out.b"].data[:] = 0.0
        cols = cfg.vocab_size + 1
        for pair in pairs:
            loss = sentence_loss(cfg, params, pair.source_ids, pair.target_ids).item()
            T = cfg.k * len(pair.source_ids)
            want = T * math.log(cols) - math.log(count_alignments(T, pair.target_ids))
            assert loss == pytest.approx(want, abs=1e-9)
            assert loss <= T * math.log(cols) + 1e-12

    def test_uniform_labeler_loss_close_to_entropy_bound_on_tight_targets(self):
        """Targets that use every frame leave a single alignment, putting the
        step-0 loss within 20 percent of T*log(V+1)."""
        vocab = synthetic_vocab(8)
        cfg = small_config(vocab_size=vocab.vocab_size)
        params = init_params(cfg, 2)
        params["out.w"].data[:] = 0.0
        params["out.b"].data[:] = 0.0
        pairs = [SentencePair((4, 5), (6, 7, 8, 9), "", ""),
                 SentencePair((5, 6, 7), (4, 5, 6, 7, 8, 9), "", "")]
        cols = cfg.vocab_size + 1
        batch = batch_pairs(pairs)
        loss = batch_loss(cfg, params, batch).item()
        bound = sum(cfg.k * len(p.source_ids) for p in pairs) * math.log(cols) / len(pairs)
        assert loss <= bound
        assert (bound - loss) / bound < 0.20

    def test_batch_loss_is_mean_of_sentence_losses(self):
        """Padding introduced by batching never leaks into the loss."""
        vocab, pairs = small_corpus(n=5, seed=4, len_range=(1, 6))
        cfg = small_config(vocab_size=vocab.vocab_size)
        params = init_params(cfg, 3)
        batch = batch_pairs(pairs)
        batched = batch_loss(cfg, params, batch).item()
        unbatched = [sentence_loss(cfg, params, p.source_ids, p.target_ids).item() for p in pairs]
        assert batched == pytest.approx(sum(unbatched) / len(unbatched), abs=1e-9)

    def test_autoregressive_loss_matches_row_sums(self):
        vocab, pairs = small_corpus(n=3, seed=5)
        cfg = small_config(vocab_size=vocab.vocab_size, variant="autoregressive-baseline")
        params = init_params(cfg, 4)
        p = pairs[0]
        loss = sentence_loss(cfg, params, p.source_ids, p.target_ids).item()
        from ctcnat.data import EOS_ID
        from ctcnat.model import decode_autoregressive_full, encode

        enc = encode(cfg, params, p.source_ids)
        rows = decode_autoregressive_full(cfg, params, enc, p.target_ids).data
        want = -sum(rows[i, t - 1] for i, t in enumerate(list(p.target_ids) + [EOS_ID]))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_autoregressive_target_must_not_contain_blank(self):
        from ctcnat.data import VocabularyError

        cfg = small_config(variant="autoregressive-baseline")
        params = init_params(cfg, 4)
        with pytest.raises(VocabularyError):
            sentence_loss(cfg, params, (4, 5), (4, 0))


def _forward_records(cfg: ModelConfig, params, pair: SentencePair) -> int:
    """The tape records of one sentence's model forward, up to its log-probability table."""
    with GradTape() as tape:
        enc = model.encode(cfg, params, pair.source_ids)
        if cfg.is_autoregressive:
            model.decode_autoregressive_full(cfg, params, enc, pair.target_ids)
        else:
            model.decode_parallel(cfg, params, model.split_states(params, enc, cfg.k), enc)
    return len(tape)


class TestLossOp:
    """The batch loss is one taped op over the sentences' log-probability
    tables, for both model families; ``sentence_loss`` is that op over one."""

    @pytest.mark.parametrize("variant", ["encoder-decoder", "autoregressive-baseline"])
    def test_gradient_matches_finite_differences(self, variant):
        vocab, pairs = small_corpus(n=3, seed=6, len_range=(1, 3))
        cfg = small_config(vocab_size=vocab.vocab_size, variant=variant)
        params = init_params(cfg, 5)
        batch = batch_pairs(pairs)
        with GradTape() as tape:
            loss = batch_loss(cfg, params, batch)
        tape.backward(loss)

        def f():
            return batch_loss(cfg, params, batch).item()

        w1 = params["dec.0.ff.w1"]
        assert rel_err(params["out.b"].grad, central_diff(f, params["out.b"].data)) < 1e-6
        assert rel_err(w1.grad[3], central_diff(f, w1.data[3])) < 1e-6

    @pytest.mark.parametrize("variant", ["encoder-decoder", "autoregressive-baseline"])
    def test_batch_loss_adds_one_record_to_the_sentence_forwards(self, variant):
        vocab, pairs = small_corpus(n=4, seed=7)
        cfg = small_config(vocab_size=vocab.vocab_size, variant=variant)
        params = init_params(cfg, 6)
        forwards = [_forward_records(cfg, params, p) for p in pairs]
        with GradTape() as tape:
            loss = batch_loss(cfg, params, batch_pairs(pairs))
        assert len(tape) == sum(forwards) + 1
        assert tape._records[-1][0] is loss
        with GradTape() as tape:
            sentence_loss(cfg, params, pairs[0].source_ids, pairs[0].target_ids)
        assert len(tape) == forwards[0] + 1

    def test_autoregressive_loss_that_overflows_raises(self):
        # Column 8 scores id 9, which no target holds: every other column's
        # log-probability is about -1e308, and four rows of it overflow.
        cfg = small_config(variant="autoregressive-baseline")
        params = init_params(cfg, 4)
        params["out.b"].data[8] = 1e308
        pair = SentencePair((4, 5), (4, 5, 6), "", "")
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="^loss produced non-finite values$"):
                sentence_loss(cfg, params, pair.source_ids, pair.target_ids)
            with pytest.raises(NumericError, match="^loss produced non-finite values$"):
                batch_loss(cfg, params, batch_pairs([pair, SentencePair((4,), (5,), "", "")]))

    def test_sentence_loss_on_an_infeasible_pair_raises(self):
        cfg = small_config(k=1)
        params = init_params(cfg, 4)
        assert feasible_pairs(cfg, [SentencePair((4,), (4, 5), "", "")]) == ([], 1)
        with pytest.raises(NumericError, match="^loss produced non-finite values$"):
            sentence_loss(cfg, params, (4,), (4, 5))


def test_validation_bleu_scores_the_words_of_the_detokenized_text(monkeypatch):
    """In char mode too, as ``ctcnat evaluate`` scores a translation file."""
    vocab = Vocabulary.from_tokens(list("abcde "), mode="char")
    hyp = vocab.encode_line("ab cd ab de")
    monkeypatch.setattr(training, "greedy_translate", lambda config, params, source_ids: hyp)

    def score(reference: str) -> float:
        return training.validation_bleu(None, None, vocab, [SentencePair((4,), vocab.encode_line(reference), "", "")])

    assert score("ab cd ab ce") == 0.0  # 3 of 4 words, no 4-gram; the characters score 80.7
    assert score("ab cd ab de ab") == corpus_bleu([["ab", "cd", "ab", "de"]], [["ab", "cd", "ab", "de", "ab"]])


class TestFeasibility:
    def test_counts_skipped_pairs(self):
        cfg = small_config(k=1)
        pairs = [SentencePair((4,), (4, 5), "", ""),  # needs 2 frames, has 1
                 SentencePair((4, 5), (4, 5), "", "")]
        kept, skipped = feasible_pairs(cfg, pairs)
        assert skipped == 1 and len(kept) == 1

    def test_repeat_separators_count(self):
        cfg = small_config(k=1)
        # target aa needs 3 frames, source gives 2
        pairs = [SentencePair((4, 5), (4, 4), "", "")]
        kept, skipped = feasible_pairs(cfg, pairs)
        assert skipped == 1

    def test_sequences_longer_than_max_len_are_skipped(self, tmp_path, caplog):
        # The AR decoder reads [EOS] + target, one position more than the
        # target: a target of exactly max_len tokens does not fit.
        vocab = synthetic_vocab(6)
        fits = SentencePair((4, 5), (4, 5, 6), "", "")
        long_target = SentencePair((4, 5), (4, 5, 6, 7), "", "")
        long_source = SentencePair((4, 5, 6, 7, 8), (4,), "", "")
        pairs = [fits, long_target, long_source]
        cfg = small_config(vocab_size=vocab.vocab_size, variant="autoregressive-baseline", max_len=4)
        assert feasible_pairs(cfg, pairs) == ([fits], 2)
        assert feasible_pairs(small_config(vocab_size=vocab.vocab_size, max_len=4), pairs) == (
            [fits, long_target], 1)
        tc = TrainConfig(max_steps=2, validation_interval=1, batch_size=3,
                         checkpoint_dir=str(tmp_path), warmup=1)
        with caplog.at_level(logging.INFO, logger="ctcnat"):
            _, log = train(cfg, pairs, [fits], tc, vocab)
        assert len(log) == 2 and all(math.isfinite(row.train_loss) for row in log)
        assert "skipped 2 infeasible pairs" in caplog.text

    @pytest.mark.parametrize("side,length,admitted,message", [
        ("source", 0, False, "empty source sequence"),
        ("source", 4, True, None),
        ("source", 5, False, "source length 5 exceeds max_len 4"),
        ("ar_target", 0, True, None),
        ("ar_target", 3, True, None),
        ("ar_target", 4, False, "decoder input length 5 exceeds max_len 4"),
        ("ar_target", 5, False, "decoder input length 6 exceeds max_len 4"),
    ])
    def test_length_limits_at_their_boundaries(self, side, length, admitted, message):
        """At max_len 4, the model's rule, the forward that runs it and
        ``feasible_pairs`` draw each limit at the same length."""
        cfg = small_config(variant="autoregressive-baseline", max_len=4)
        params = init_params(cfg, 5)
        ids = (4,) * length
        if side == "source":
            pair = SentencePair(ids, (4,), "", "")
            checks = (lambda: model.check_source_length(cfg, length), lambda: model.encode(cfg, params, ids))
        else:
            pair = SentencePair((4,), ids, "", "")
            enc = model.encode(cfg, params, (4,))
            checks = (lambda: model.check_decoder_input_length(cfg, length + 1),
                      lambda: model.decode_autoregressive_full(cfg, params, enc, ids))
        for check in checks:
            if admitted:
                check()
            else:
                with pytest.raises(LengthError, match=f"^{message}$"):
                    check()
        assert feasible_pairs(cfg, [pair]) == (([pair], 0) if admitted else ([], 1))

    def test_all_infeasible_raises_with_suggestion(self, tmp_path):
        vocab = synthetic_vocab(6)
        pairs = [SentencePair((4,), (4, 5, 6), "", "")]
        cfg = small_config(vocab_size=vocab.vocab_size, k=1)
        tc = TrainConfig(max_steps=2, validation_interval=1,
                         checkpoint_dir=str(tmp_path), warmup=1)
        with pytest.raises(ConfigError, match="k"):
            train(cfg, pairs, pairs, tc, vocab)


class TestValidationAdmission:
    def test_overlong_validation_source_is_dropped_before_step_1(self, tmp_path, caplog, monkeypatch):
        vocab, pairs = small_corpus(n=12, seed=3)
        cfg = small_config(vocab_size=vocab.vocab_size, max_len=6)
        kept = pairs[8:]
        overlong = SentencePair((4,) * 7, (4,), "", "")
        seen_at_step_1 = []

        def first_step_sees_log(*args, **kw):
            seen_at_step_1.append(caplog.text)
            return batch_loss(*args, **kw)

        monkeypatch.setattr(training, "batch_loss", first_step_sees_log)
        tc = TrainConfig(max_steps=2, validation_interval=2, batch_size=4,
                         checkpoint_dir=str(tmp_path), seed=4, warmup=2)
        with caplog.at_level(logging.INFO, logger="ctcnat"):
            final, log = train(cfg, pairs[:8], kept[:2] + [overlong] + kept[2:], tc, vocab)
        assert "dropped 1 validation pairs whose source is empty or longer than max_len" in seen_at_step_1[0]
        hyps = [vocab.decode_ids(greedy_translate(cfg, final.params, p.source_ids)) for p in kept]
        refs = [vocab.decode_ids(p.target_ids) for p in kept]
        assert log[-1].valid_bleu == final.valid_score == corpus_bleu(hyps, refs)

    def test_infeasible_validation_target_is_kept(self, tmp_path):
        vocab, pairs = small_corpus(n=10, seed=5)
        cfg = small_config(vocab_size=vocab.vocab_size, k=1)
        long_target = SentencePair((4,), (4, 5, 6), "", "")  # 3 labels, 1 frame
        tc = TrainConfig(max_steps=1, validation_interval=1, batch_size=4,
                         checkpoint_dir=str(tmp_path), warmup=1)
        valid = pairs[:2] + [long_target]
        final, log = train(cfg, pairs, valid, tc, vocab)
        hyps = [vocab.decode_ids(greedy_translate(cfg, final.params, p.source_ids)) for p in valid]
        assert log[-1].valid_bleu == corpus_bleu(hyps, [vocab.decode_ids(p.target_ids) for p in valid])

    def test_no_encodable_validation_source_raises_before_any_checkpoint(self, tmp_path):
        vocab, pairs = small_corpus(n=8, seed=2)
        cfg = small_config(vocab_size=vocab.vocab_size, max_len=6)
        valid = [SentencePair((4,) * 7, (4,), "", ""), SentencePair((), (4,), "", "")]
        tc = TrainConfig(max_steps=1, validation_interval=1, checkpoint_dir=str(tmp_path / "ckpt"), warmup=1)
        with pytest.raises(ConfigError, match="all 2 validation sources are empty or longer than max_len"):
            train(cfg, pairs, valid, tc, vocab)
        assert not (tmp_path / "ckpt").exists()


class TestTrainLoop:
    def test_determinism(self, tmp_path):
        vocab, pairs = small_corpus(n=20, seed=6)
        cfg = small_config(vocab_size=vocab.vocab_size)
        losses = []
        for run in range(2):
            tc = TrainConfig(max_steps=10, validation_interval=5, batch_size=4,
                             checkpoint_dir=str(tmp_path / f"run{run}"), seed=123, warmup=5)
            _, log = train(cfg, pairs[:16], pairs[16:], tc, vocab)
            losses.append([row.train_loss for row in log])
        assert losses[0] == losses[1]

    def test_retention_keeps_top_scores(self, tmp_path):
        vocab, pairs = small_corpus(n=20, seed=7)
        cfg = small_config(vocab_size=vocab.vocab_size)
        tc = TrainConfig(max_steps=12, validation_interval=2, batch_size=4, keep_top=3,
                         checkpoint_dir=str(tmp_path), seed=1, warmup=5)
        final, log = train(cfg, pairs[:16], pairs[16:], tc, vocab)
        files = sorted(tmp_path.glob("ckpt-*.bin"))
        assert len(files) <= 3
        scores = sorted((row.valid_bleu for row in log if row.valid_bleu is not None), reverse=True)
        kept_scores = sorted((load_checkpoint(f).valid_score for f in files), reverse=True)
        assert kept_scores == pytest.approx(scores[: len(kept_scores)], abs=1e-9)

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        cfg = small_config()
        retention = training._Retention(tmp_path, keep_top=1)
        first = retention.add(Checkpoint(cfg, init_params(cfg, 1), step=1, valid_score=1.0))
        writes = []

        def pack_then_fail(fmt, *values):  # the disk fills up midway through the parameters
            writes.append(fmt)
            if len(writes) > 30:
                raise OSError("no space left on device")
            return struct.pack(fmt, *values)

        monkeypatch.setattr(training, "struct", SimpleNamespace(pack=pack_then_fail))
        with pytest.raises(OSError, match="no space"):
            retention.add(Checkpoint(cfg, init_params(cfg, 2), step=2, valid_score=2.0))
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(Checkpoint(cfg, init_params(cfg, 3), step=3, valid_score=3.0), first)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
        loaded = load_checkpoint(first)
        assert (loaded.step, loaded.valid_score) == (1, 1.0)
        # the retention still holds the first file: a better score replaces it
        fourth = retention.add(Checkpoint(cfg, init_params(cfg, 4), step=4, valid_score=4.0))
        assert sorted(p.name for p in tmp_path.iterdir()) == [fourth.name]

    def test_log_csv_layout(self, tmp_path):
        vocab, pairs = small_corpus(n=12, seed=8)
        cfg = small_config(vocab_size=vocab.vocab_size)
        tc = TrainConfig(max_steps=4, validation_interval=2, batch_size=4,
                         checkpoint_dir=str(tmp_path), seed=2, warmup=2)
        _, log = train(cfg, pairs[:8], pairs[8:], tc, vocab)
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,train_loss,valid_bleu"
        assert len(lines) == 5
        assert lines[2].split(",")[2] != ""  # validation step has a BLEU entry
        assert lines[1].split(",")[2] == ""


class TestAveraging:
    def _checkpoint(self, cfg, params, step=1, score=1.0):
        return Checkpoint(cfg, params, step, score)

    def test_identical_checkpoints_average_to_themselves(self):
        cfg = small_config()
        params = init_params(cfg, 5)
        ckpts = [self._checkpoint(cfg, params) for _ in range(4)]
        avg = average_checkpoints(ckpts)
        assert all(np.array_equal(avg[n].data, params[n].data) for n in params)

    def test_mean_of_p_and_3p(self):
        cfg = small_config()
        p1 = init_params(cfg, 6)
        p3 = {n: type(t)(3.0 * t.data, requires_grad=True) for n, t in p1.items()}
        avg = average_checkpoints([self._checkpoint(cfg, p1), self._checkpoint(cfg, p3)])
        assert all(np.allclose(avg[n].data, 2.0 * p1[n].data, atol=1e-15) for n in p1)

    def test_order_invariance_within_tolerance(self):
        cfg = small_config()
        rng = np.random.default_rng(9)
        ckpts = [self._checkpoint(cfg, init_params(cfg, int(s))) for s in rng.integers(0, 999, size=5)]
        fwd = average_checkpoints(ckpts)
        rev = average_checkpoints(ckpts[::-1])
        for n in fwd:
            assert np.abs(fwd[n].data - rev[n].data).max() < 1e-12

    def test_config_mismatch(self):
        a = small_config()
        b = small_config(k=3)
        with pytest.raises(CheckpointError):
            average_checkpoints([self._checkpoint(a, init_params(a, 0)),
                                 self._checkpoint(b, init_params(b, 0))])


class TestCheckpointIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, 10)
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, params, step=42, valid_score=87.125), path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.step == 42
        assert loaded.valid_score == 87.125
        assert set(loaded.params) == set(params)
        for name in params:
            assert loaded.params[name].data.tobytes() == params[name].data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, 11)
        ckpt = Checkpoint(cfg, params, 7, 3.5)
        save_checkpoint(ckpt, tmp_path / "a.bin")
        save_checkpoint(ckpt, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_truncated_file(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, init_params(cfg, 12), 1, 0.0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="offset"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTCTC00" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_variant_mismatch_against_expected_config(self, tmp_path):
        deep = small_config(variant="deep-encoder", enc_layers=2, dec_layers=0)
        path = tmp_path / "deep.bin"
        save_checkpoint(Checkpoint(deep, init_params(deep, 13), 1, 0.0), path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_config=small_config())

    def test_every_config_field_round_trips_at_a_non_default_value(self, tmp_path):
        cfg = ModelConfig(vocab_size=7, d_model=24, ff_dim=40, heads=3, enc_layers=3, dec_layers=1,
                          k=4, variant="encoder-decoder-posenc", max_len=17, dropout_rate=0.1 + 0.2)
        defaults = ModelConfig(vocab_size=1)
        assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(defaults, f.name)] == []
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, init_params(cfg, 15), 3, 1.5), path)
        reader = training._Reader(path.read_bytes())
        reader.take(8)
        keys = [reader.take(reader.u32()).decode("utf-8").partition("=")[0] for _ in range(reader.u32())]
        assert keys == [f.name for f in fields(ModelConfig)] + ["step", "valid_score"]
        assert load_checkpoint(path).config == cfg

    def test_header_in_the_earlier_line_order_loads(self, tmp_path):
        """Files written before the header followed ModelConfig's field
        order put ``variant`` first; keys are read by name."""
        cfg = small_config(dropout_rate=0.25)
        params = init_params(cfg, 16)
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, params, 4, 2.5), path)
        reader = training._Reader(path.read_bytes())
        reader.take(8)
        lines = dict(reader.take(reader.u32()).decode("utf-8").partition("=")[::2] for _ in range(reader.u32()))
        order = ("variant", "vocab_size", "d_model", "ff_dim", "heads", "enc_layers", "dec_layers",
                 "k", "max_len", "dropout_rate", "step", "valid_score")
        header = b"".join(struct.pack("<I", len(raw)) + raw
                          for raw in (f"{key}={lines[key]}".encode("utf-8") for key in order))
        old = tmp_path / "old.bin"
        old.write_bytes(reader.blob[:8] + struct.pack("<I", len(order)) + header + reader.blob[reader.offset:])
        loaded = load_checkpoint(old, expected_config=cfg)
        assert (loaded.config, loaded.step, loaded.valid_score) == (cfg, 4, 2.5)
        for name in params:
            assert loaded.params[name].data.tobytes() == params[name].data.tobytes()

    @staticmethod
    def _sections(path) -> tuple[bytes, list[bytes], int, bytes]:
        """The magic, the header lines, the parameter count and the parameter records of a checkpoint."""
        reader = training._Reader(path.read_bytes())
        magic = reader.take(8)
        lines = [reader.take(reader.u32()) for _ in range(reader.u32())]
        return magic, lines, reader.u32(), reader.blob[reader.offset:]

    @staticmethod
    def _assemble(magic: bytes, lines: list[bytes], count: int, records: bytes) -> bytes:
        return (magic + struct.pack("<I", len(lines)) + b"".join(struct.pack("<I", len(raw)) + raw for raw in lines)
                + struct.pack("<I", count) + records)

    def test_repeated_header_key(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, init_params(cfg, 17), 1, 0.0), path)
        magic, lines, count, records = self._sections(path)
        assert b"step=1" in lines
        path.write_bytes(self._assemble(magic, lines + [b"step=99"], count, records))
        with pytest.raises(FormatError, match="^repeated config key 'step'"):
            load_checkpoint(path)

    def test_repeated_parameter_record(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, 18)
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, params, 1, 0.0), path)
        magic, lines, count, records = self._sections(path)
        bias = params["out.b"].data
        name = b"out.b"
        extra = (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, bias.size)
                 + (bias + 7.0).astype("<f8").tobytes())
        path.write_bytes(self._assemble(magic, lines, count + 1, records + extra))
        with pytest.raises(FormatError, match="^repeated parameter 'out.b'"):
            load_checkpoint(path)

    def test_tampered_parameter_set(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, 14)
        del params["out.b"]
        path = tmp_path / "model.bin"
        save_checkpoint(Checkpoint(cfg, params, 1, 0.0), path)
        with pytest.raises(CheckpointError, match="out.b"):
            load_checkpoint(path)
