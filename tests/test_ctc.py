import itertools
import math
import re
import warnings

import numpy as np
import pytest

from ctcnat import ctc
from ctcnat.ctc import (
    BoundError,
    InputError,
    collapse,
    count_alignments,
    ctc_loss,
    ctc_oracle_loss,
    min_frames,
)
from ctcnat.ctc import _extended, _skip_allowed
from ctcnat.data import VocabularyError

from helpers import random_log_probs, reference_lattice, reference_sweep, rel_err


def with_zero_probability(lp, cells):
    """``lp`` with the (t, c) entries in ``cells`` set to -inf, rows renormalized."""
    lp = lp.copy()
    for t, c in cells:
        lp[t, c] = -np.inf
    return lp - np.logaddexp.reduce(lp, axis=1, keepdims=True)


class TestCollapse:
    def test_empty(self):
        assert collapse([]) == ()

    def test_repeats_merge_only_without_intervening_blank(self):
        # a a . a b b  ->  a a b
        assert collapse([1, 1, 0, 1, 2, 2]) == (1, 1, 2)

    def test_all_blank(self):
        assert collapse([0, 0, 0]) == ()


class TestOracle:
    """Hand derivations pin the oracle down before it referees the DP."""

    def test_single_blank_path(self):
        lp = np.log(np.array([[0.4, 0.6]]))
        assert ctc_oracle_loss(lp, ()) == pytest.approx(-math.log(0.4), abs=1e-12)

    def test_uniform_three_of_nine_paths(self):
        # T=2 over {blank, a}: paths .a, a., aa collapse to (a); 3 of 9 equal-mass paths
        lp = np.full((2, 3), math.log(1.0 / 3.0))
        assert ctc_oracle_loss(lp, (1,)) == pytest.approx(-math.log(3.0 / 9.0), abs=1e-12)

    def test_bound_error(self):
        lp = random_log_probs(np.random.default_rng(0), 11, 3)
        with pytest.raises(BoundError):
            ctc_oracle_loss(lp, (1,))


class TestCtcLoss:
    def test_single_frame_single_label(self):
        lp = np.log(np.array([[0.5, 0.5]]))
        loss, grad = ctc_loss(lp, (1,))
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)
        assert grad.shape == lp.shape

    def test_repeat_needs_separating_blank(self):
        lp = np.full((2, 3), math.log(1.0 / 3.0))
        loss, grad = ctc_loss(lp, (1, 1))
        assert loss == math.inf
        assert np.count_nonzero(grad) == 0
        # minimum feasible frame count is 3
        assert min_frames((1, 1)) == 3
        loss3, _ = ctc_loss(np.full((3, 3), math.log(1.0 / 3.0)), (1, 1))
        assert math.isfinite(loss3)

    def test_matches_oracle_on_fixed_table(self):
        rng = np.random.default_rng(42)
        lp = random_log_probs(rng, 3, 3)  # V={a,b}: 27 paths
        loss, _ = ctc_loss(lp, (1, 2))
        assert loss == pytest.approx(ctc_oracle_loss(lp, (1, 2)), abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle_on_random_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        T = int(rng.integers(1, 7))
        V = int(rng.integers(1, 4))
        lp = random_log_probs(rng, T, V + 1)
        ty = int(rng.integers(0, T + 1))
        labels = tuple(int(x) for x in rng.integers(1, V + 1, size=ty))
        loss, _ = ctc_loss(lp, labels)
        oracle = ctc_oracle_loss(lp, labels)
        if math.isinf(oracle):
            assert math.isinf(loss)
        else:
            assert loss == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences_through_log_softmax(self, seed):
        """Perturb logits, renormalize rows, difference the loss."""
        rng = np.random.default_rng(2000 + seed)
        T = int(rng.integers(2, 6))
        V = int(rng.integers(1, 4))
        logits = rng.normal(size=(T, V + 1))
        labels = tuple(int(x) for x in rng.integers(1, V + 1, size=rng.integers(1, max(2, T // 2 + 1))))
        if T < min_frames(labels):
            labels = labels[:1]

        def normalize(z):
            return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

        loss, grad_lp = ctc_loss(normalize(logits), labels)
        # compose with the log-softmax Jacobian analytically
        p = np.exp(normalize(logits))
        grad_logits = grad_lp - p * grad_lp.sum(axis=1, keepdims=True)

        h = 1e-5
        fd = np.zeros_like(logits)
        for t in range(T):
            for c in range(V + 1):
                orig = logits[t, c]
                logits[t, c] = orig + h
                up, _ = ctc_loss(normalize(logits), labels)
                logits[t, c] = orig - h
                down, _ = ctc_loss(normalize(logits), labels)
                logits[t, c] = orig
                fd[t, c] = (up - down) / (2 * h)
        assert rel_err(grad_logits, fd) < 1e-4

    def test_losses_normalize_over_all_label_sequences(self):
        """sum over every collapsed output of exp(-loss) is exactly one."""
        rng = np.random.default_rng(7)
        for T in (1, 2, 3):
            for V in (1, 2):
                lp = random_log_probs(rng, T, V + 1)
                total = 0.0
                for ty in range(T + 1):
                    for labels in itertools.product(range(1, V + 1), repeat=ty):
                        loss, _ = ctc_loss(lp, labels)
                        total += math.exp(-loss)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_rows_rejected(self):
        lp = np.zeros((2, 3))
        with pytest.raises(InputError):
            ctc_loss(lp, (1,))
        lp = random_log_probs(np.random.default_rng(14), 3, 3)
        lp[1] = -np.inf
        with pytest.raises(InputError, match="row 1 is not a normalized log-distribution"):
            ctc_loss(lp, (1,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "pos-inf"])
    @pytest.mark.parametrize("entry", [ctc_loss, ctc_oracle_loss],
                             ids=lambda f: f.__name__)
    def test_nan_and_pos_inf_tables_rejected(self, entry, bad):
        lp = random_log_probs(np.random.default_rng(12), 3, 3)
        lp[1, 2] = bad
        with pytest.raises(InputError, match=r"NaN or \+inf"):
            entry(lp, (1,))

    def test_zero_probability_entries_give_exact_silent_loss(self):
        """-inf entries leave dead lattice states; they get zero occupancy
        without an invalid-value warning."""
        lp = with_zero_probability(random_log_probs(np.random.default_rng(13), 5, 4),
                                   [(0, 3), (2, 0), (3, 1), (4, 2)])
        labels = (1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = ctc_loss(lp, labels)
        assert loss == pytest.approx(ctc_oracle_loss(lp, labels), abs=1e-9)
        assert np.isfinite(grad).all()
        assert np.allclose(grad.sum(axis=1), -1.0, atol=1e-9)

    def test_label_out_of_range(self):
        lp = random_log_probs(np.random.default_rng(8), 3, 3)
        for entry, bad in itertools.product((ctc_loss, ctc_oracle_loss), (5, 0)):
            with pytest.raises(VocabularyError, match=rf"^token id {bad} outside 1\.\.2$"):
                entry(lp, (1, bad))

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(1.0)], ids=["1.5", "2.0", "True", "float64"])
    def test_a_label_that_is_not_an_integer_is_rejected_naming_it(self, bad):
        lp = random_log_probs(np.random.default_rng(8), 3, 3)
        with pytest.raises(VocabularyError, match=f"^token id {re.escape(repr(bad))} is not an integer$"):
            ctc_loss(lp, (1, bad))

    def test_numpy_integer_labels_are_ids(self):
        lp = random_log_probs(np.random.default_rng(8), 4, 3)
        loss, grad = ctc_loss(lp, (1, 2))
        for labels in (np.array([1, 2]), (np.int16(1), np.uint64(2))):
            same_loss, same_grad = ctc_loss(lp, labels)
            assert same_loss == loss and same_grad.tobytes() == grad.tobytes()

    def test_gradient_rows_sum_to_minus_one(self):
        """Each frame's occupancy must total one path symbol."""
        rng = np.random.default_rng(9)
        lp = random_log_probs(rng, 5, 4)
        _, grad = ctc_loss(lp, (1, 2, 1))
        assert np.allclose(grad.sum(axis=1), -1.0, atol=1e-9)


class TestLattice:
    @pytest.mark.parametrize("seed, T, labels, dead", [
        *(pytest.param(seed, None, None, (), id=str(seed)) for seed in range(8)),
        pytest.param(8, 1, (), (), id="T1-no-labels"),
        pytest.param(9, 1, (2,), (), id="T1-one-label"),
        pytest.param(10, 5, (), (), id="no-labels"),
        pytest.param(11, 4, (3,), (), id="one-label"),
        pytest.param(12, 1, (1,), [(0, 0), (0, 3)], id="T1-neg-inf"),
        pytest.param(13, 6, (1, 2), [(0, 3), (2, 0), (3, 1), (5, 0)], id="neg-inf"),
        pytest.param(14, 7, (1, 1, 2), [(0, 2), (1, 3), (3, 0), (6, 1)], id="neg-inf-repeat"),
    ])
    def test_time_slice_consistency(self, seed, T, labels, dead):
        """At every t, combining prefix and suffix masses recovers the total."""
        rng = np.random.default_rng(3000 + seed)
        V = 3
        if labels is None:
            T = int(rng.integers(2, 7))
            V = int(rng.integers(1, 4))
            labels = tuple(int(x) for x in rng.integers(1, V + 1, size=max(1, T // 2)))
            if T < min_frames(labels):
                labels = labels[:1]
        lp = with_zero_probability(random_log_probs(rng, T, V + 1), dead)
        lat = ctc._lattice(lp, labels)
        assert math.isfinite(lat.log_likelihood)
        emit = lp[:, list(lat.extended_labels)]
        for t in range(T):
            live = np.isfinite(lat.alpha[t]) & np.isfinite(lat.beta[t])
            combined = lat.alpha[t, live] + lat.beta[t, live] - emit[t, live]
            assert np.logaddexp.reduce(combined) == pytest.approx(lat.log_likelihood, abs=1e-9)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestStackedSweep:
    """``_lattice`` runs alpha and beta as two rows of one sweep; against the
    two single-table sweeps it replaces (``helpers.reference_lattice``)
    every table, likelihood, loss and gradient is equal, bit for bit."""

    def test_equals_two_sweeps_on_random_tables(self, monkeypatch):
        rng = np.random.default_rng(4000)
        seen = {"T=1": 0, "no labels": 0, "-inf cells": 0, "infeasible": 0}
        cases = []
        for i in range(3200):
            T = 1 if i % 10 == 0 else int(rng.integers(1, 16))
            V = int(rng.integers(1, 6))
            lp = random_log_probs(rng, T, V + 1)
            if i % 3 == 0:  # zero-probability cells; each row keeps its largest entry
                dead = (rng.random(lp.shape) < 0.3) & (lp < lp.max(axis=1, keepdims=True))
                lp = with_zero_probability(lp, list(zip(*np.nonzero(dead))))
                seen["-inf cells"] += bool(dead.any())
            n_labels = 0 if i % 7 == 0 else int(rng.integers(0, T + 2))
            labels = tuple(int(y) for y in rng.integers(1, V + 1, size=n_labels))
            fast, ref = ctc._lattice(lp, labels), reference_lattice(lp, labels)
            assert fast.extended_labels == ref.extended_labels
            assert _bits(fast.alpha) == _bits(ref.alpha) and _bits(fast.beta) == _bits(ref.beta), (i, labels)
            assert fast.log_likelihood.hex() == ref.log_likelihood.hex(), i
            seen["T=1"] += T == 1
            seen["no labels"] += not labels
            seen["infeasible"] += fast.log_likelihood == -math.inf
            cases.append((lp, labels, ctc_loss(lp, labels)))
        assert min(seen.values()) >= 200, seen
        monkeypatch.setattr(ctc, "_lattice", reference_lattice)
        for lp, labels, (loss, grad) in cases:
            ref_loss, ref_grad = ctc_loss(lp, labels)
            assert loss.hex() == ref_loss.hex() and _bits(grad) == _bits(ref_grad)

    def test_alignment_counts_equal_the_single_table_sweep(self):
        for T in range(1, 13):
            for labels in [(), (1,), (1, 1), (1, 2), (2, 2, 2), (1, 2, 1, 3), (3, 3, 1, 1, 2)]:
                ext = _extended(labels)
                ways = reference_sweep(np.ones((T, ext.size), dtype=object), _skip_allowed(ext),
                                       np.add, np.multiply, 0)
                assert count_alignments(T, labels) == int(sum(ways[-1, -2:])), (T, labels)


class TestCountAlignments:
    def test_known_five(self):
        # aab, abb, a.b, .ab, ab.
        assert count_alignments(3, (1, 2)) == 5

    def test_exact_fit_is_unique(self):
        assert count_alignments(4, (1, 2, 3, 1)) == 1

    def test_infeasible(self):
        assert count_alignments(1, (1, 2)) == 0

    def test_empty_cases(self):
        assert count_alignments(0, ()) == 1
        assert count_alignments(0, (1,)) == 0
        assert count_alignments(3, ()) == 1

    def test_the_blank_is_rejected_and_any_label_above_it_counted(self):
        """With no table there are no columns to bound the labels from above."""
        with pytest.raises(VocabularyError, match=r"^token id 0 outside 1\.\.inf$"):
            count_alignments(3, (1, 0))
        assert count_alignments(3, (1, 10 ** 6)) == 5

    @pytest.mark.parametrize("T", range(1, 6))
    def test_agrees_with_enumeration(self, T):
        V = 3
        by_collapse = {}
        for path in itertools.product(range(V + 1), repeat=T):
            key = collapse(path)
            by_collapse[key] = by_collapse.get(key, 0) + 1
        for ty in range(0, min(T, 4) + 1):
            for labels in itertools.product(range(1, V + 1), repeat=ty):
                assert count_alignments(T, labels) == by_collapse.get(labels, 0)

    def test_counts_match_nonzero_probability_paths(self):
        rng = np.random.default_rng(11)
        lp = random_log_probs(rng, 4, 3)
        labels = (1, 1)
        hits = sum(1 for path in itertools.product(range(2), repeat=4) if collapse(path) == labels)
        assert count_alignments(4, labels) == hits
