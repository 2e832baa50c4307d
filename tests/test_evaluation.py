import math

import numpy as np
import pytest

from ctcnat.evaluation import (
    EvalReport,
    InputError,
    UndefinedCorrelationError,
    corpus_bleu,
    exact_match_rate,
    modified_precisions,
    pearson,
    sentence_bleu,
)


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


def test_empty_hypotheses_score_zero_in_corpus_and_sentence_bleu():
    """No token means a unigram precision of 0, so both return 0.0 before the brevity penalty."""
    assert corpus_bleu([[], []], [["a"], ["b", "c"]]) == 0.0
    assert sentence_bleu([], ["a", "b"]) == 0.0


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


class TestEvalReport:
    def test_csv_layout(self):
        hyps = [["a", "b"], ["a"], ["c", "d", "e"]]
        refs = [["a", "b"], ["b", "a"], ["c", "d"]]
        src_lens = [2, 1, 4]
        lines = EvalReport.build(hyps, refs, src_lens).to_csv().splitlines()
        bleus = [sentence_bleu(h, r) for h, r in zip(hyps, refs)]
        assert lines == ["sentence_id,src_len,out_len,sent_bleu",
                         *(f"{i},{n},{len(h)},{b:.4f}" for i, (n, h, b) in enumerate(zip(src_lens, hyps, bleus))),
                         f"corpus_bleu,{corpus_bleu(hyps, refs):.4f}",
                         f"pearson_bleu_vs_src_len,{pearson(src_lens, bleus):.6f}"]

    @pytest.mark.parametrize("hyps, refs, src_lens", [
        pytest.param([["a"]], [["a"]], [1], id="one-sentence"),
        pytest.param([["a"], ["x"]], [["a"], ["b"]], [3, 3], id="constant-src-len"),
        pytest.param([["a"], ["b"]], [["a"], ["b"]], [1, 2], id="constant-bleu"),
    ])
    def test_undefined_correlation_reads_na(self, hyps, refs, src_lens):
        report = EvalReport.build(hyps, refs, src_lens)
        assert report.r_bleu_src_len is None
        assert report.to_csv().splitlines()[-1] == "pearson_bleu_vs_src_len,na"

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            EvalReport.build([["a"], ["b"]], [["a"], ["b"]], [1])
