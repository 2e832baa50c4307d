import math

import numpy as np
import pytest

from ctcnat.data import gen_synthetic, synthetic_vocab
from ctcnat.decoding import DecodeOptions, ar_beam_decode
from ctcnat.evaluation import (
    InputError,
    UndefinedCorrelationError,
    analyze,
    corpus_bleu,
    exact_match_rate,
    modified_precisions,
    pearson,
    sentence_bleu,
)
from ctcnat.model import ModelConfig, init_params
from ctcnat.training import feasible_pairs


class TestCorpusBleu:
    def test_identity_is_exactly_100(self):
        refs = [["the", "cat"], ["a", "b", "c", "d", "e"]]
        assert corpus_bleu(refs, refs) == 100.0

    def test_all_empty_hypotheses(self):
        assert corpus_bleu([[], []], [["a"], ["b", "c"]]) == 0.0

    def test_clipped_unigram_precision(self):
        # clipped count of "the" is 1 (the reference has a single "the"),
        # so unigram precision is 1/4 and the missing bigram zeroes BLEU
        hyp = [["the", "the", "the", "the"]]
        ref = [["the", "cat"]]
        precisions = modified_precisions(hyp, ref)
        assert precisions[0] == pytest.approx(0.25)
        assert precisions[1] == 0.0
        assert corpus_bleu(hyp, ref) == 0.0

    def test_brevity_penalty(self):
        # every hypothesis n-gram matches but the hypothesis is half as long
        hyp = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "d", "e", "f", "g", "h"]]
        assert corpus_bleu(hyp, ref) == pytest.approx(100.0 * math.exp(1.0 - 8.0 / 4.0), abs=1e-9)

    def test_order_invariance(self):
        hyps = [["a", "b"], ["c"], ["d", "e", "f"]]
        refs = [["a", "b"], ["c", "c"], ["d", "f"]]
        forward = corpus_bleu(hyps, refs)
        backward = corpus_bleu(hyps[::-1], refs[::-1])
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_count_mismatch_and_empty(self):
        with pytest.raises(InputError):
            corpus_bleu([["a"]], [])
        with pytest.raises(InputError):
            corpus_bleu([], [])


class TestSentenceBleu:
    def test_identical_sentences(self):
        assert sentence_bleu(list("abcde"), list("abcde")) == pytest.approx(100.0)

    def test_zero_overlap_is_zero(self):
        # unigram precision is unsmoothed, so no shared word forces 0
        assert sentence_bleu(["x", "y"], ["a", "b"]) == 0.0

    def test_direct_formula(self):
        # p1=2/3, p2=(1+1)/(2+1), p3=(0+1)/(1+1), p4=(0+1)/(0+1), BP=1
        want = 100.0 * (2 / 3 * 2 / 3 * 1 / 2 * 1.0) ** 0.25
        got = sentence_bleu(["a", "b", "c"], ["a", "b", "d"])
        assert got == pytest.approx(want, abs=1e-9)

    def test_self_score_is_100_for_random_sequences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            toks = [f"w{int(x)}" for x in rng.integers(0, 9, size=n)]
            assert sentence_bleu(toks, toks) == pytest.approx(100.0, abs=1e-9)

    def test_empty_reference_rejected(self):
        with pytest.raises(InputError):
            sentence_bleu(["a"], [])


class TestPearson:
    def test_positive_affine(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        ys = [2 * x + 1 for x in xs]
        assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=20)
        ys = rng.normal(size=20)
        r = pearson(xs, ys)
        assert pearson(3.5 * xs + 2.0, ys) == pytest.approx(r, abs=1e-12)
        assert pearson(-2.0 * xs, ys) == pytest.approx(-r, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            pearson([1.0], [1.0, 2.0])


def test_exact_match_rate():
    assert exact_match_rate([(1, 2), (3,)], [(1, 2), (4,)]) == 0.5


class TestAnalyze:
    @staticmethod
    def autoregressive_setup():
        vocab = synthetic_vocab(6)
        pairs = gen_synthetic("copy", 6, 6, (2, 4), seed=2, vocab=vocab)
        cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=8, ff_dim=16, heads=2,
                          enc_layers=1, dec_layers=1, variant="autoregressive-baseline",
                          max_len=32, dropout_rate=0.0)
        return vocab, pairs, cfg

    def test_autoregressive_report_has_no_null_statistics(self):
        vocab, pairs, cfg = self.autoregressive_setup()
        report = analyze(cfg, init_params(cfg, 0), vocab, pairs)
        assert len(report.records) == len(pairs)
        assert all(rec.null_count == 0 for rec in report.records)
        assert report.r_bleu_null_count is None

    def test_autoregressive_beam_mode_decodes_with_beam(self):
        vocab, pairs, cfg = self.autoregressive_setup()
        params = init_params(cfg, 1)  # greedy stops at once here, beam-4 does not
        opts = DecodeOptions(beam_width=4)
        beam = analyze(cfg, params, vocab, pairs, beam=opts)
        greedy = analyze(cfg, params, vocab, pairs)
        want = [ar_beam_decode(cfg, params, p.source_ids, opts, min(2 * len(p.source_ids) + 8, 31))
                for p in pairs]
        assert [rec.out_len for rec in beam.records] == [len(w) for w in want]
        assert [rec.sent_bleu for rec in beam.records] == [
            sentence_bleu(vocab.decode_ids(w), vocab.decode_ids(p.target_ids)) for w, p in zip(want, pairs)]
        assert [rec.out_len for rec in beam.records] != [rec.out_len for rec in greedy.records]

    def test_parallel_report_counts_nulls_and_is_bounded(self):
        vocab = synthetic_vocab(6)
        pairs = gen_synthetic("copy", 6, 8, (2, 4), seed=3, vocab=vocab)
        cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=8, ff_dim=16, heads=2,
                          enc_layers=1, dec_layers=1, k=2, max_len=32, dropout_rate=0.0)
        params = init_params(cfg, 1)
        report = analyze(cfg, params, vocab, pairs)
        assert len(report.records) == len(pairs)
        for rec in report.records:
            assert 0 <= rec.null_count <= cfg.k * rec.src_len
        if report.r_bleu_src_len is not None:
            assert -1.0 <= report.r_bleu_src_len <= 1.0
        if report.r_bleu_null_count is not None:
            assert -1.0 <= report.r_bleu_null_count <= 1.0

    def test_csv_layout(self):
        vocab = synthetic_vocab(6)
        pairs = gen_synthetic("copy", 6, 4, (2, 3), seed=4, vocab=vocab)
        cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=8, ff_dim=16, heads=2,
                          enc_layers=1, dec_layers=1, k=2, max_len=32, dropout_rate=0.0)
        report = analyze(cfg, init_params(cfg, 2), vocab, pairs)
        lines = report.to_csv().splitlines()
        assert lines[0] == "sentence_id,src_len,out_len,null_count,sent_bleu"
        assert len(lines) == 1 + len(pairs) + 3
        assert lines[-3].startswith("corpus_bleu,")
        assert lines[-2].startswith("pearson_bleu_vs_src_len,")
        assert lines[-1].startswith("pearson_bleu_vs_null_count,")
