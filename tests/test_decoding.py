import itertools
import math
import sys
import threading

import numpy as np
import pytest

import ctcnat
from ctcnat import decoding, model
from ctcnat.ctc import InputError, collapse, ctc_loss
from ctcnat.data import EOS_ID, synthetic_vocab
from ctcnat.decoding import (
    DecodeOptions,
    Hypothesis,
    OptionError,
    ar_beam_decode,
    ar_greedy_decode,
    ctc_beam_search,
    greedy_ctc_decode,
    greedy_ctc_frames,
    translate,
)
from ctcnat.model import (
    NAR_VARIANTS,
    ModelConfig,
    decode_autoregressive_full,
    encode,
    init_params,
    parallel_log_probs,
)
from ctcnat.tensor import NEG_INF, Tensor

from helpers import peaked_log_probs, random_log_probs, reference_ctc_beam_search, run_threads, stepped_row


def exhaustive_map(lp: np.ndarray):
    """Group every path by its collapse; return {prefix: total log mass}."""
    T, C = lp.shape
    masses: dict[tuple, float] = {}
    for path in itertools.product(range(C), repeat=T):
        key = collapse(path)
        logp = float(sum(lp[t, c] for t, c in enumerate(path)))
        masses[key] = np.logaddexp(masses[key], logp) if key in masses else logp
    return masses


class TestGreedy:
    def test_all_blank(self):
        lp = peaked_log_probs([0, 0, 0], cols=3)
        assert greedy_ctc_decode(lp) == ()

    def test_collapse_of_argmax_frames(self):
        lp = peaked_log_probs([1, 1, 0, 2], cols=3)
        assert greedy_ctc_decode(lp) == (1, 2)

    def test_ties_break_toward_lowest_id(self):
        lp = np.log(np.full((2, 3), 1.0 / 3.0))
        assert greedy_ctc_frames(lp) == [0, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_one_liner_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lp = random_log_probs(rng, int(rng.integers(1, 7)), int(rng.integers(2, 5)))
        assert greedy_ctc_decode(lp) == collapse(np.argmax(lp, axis=1))


class TestBeamSearch:
    def test_peaked_blank_single_frame(self):
        lp = peaked_log_probs([0], cols=3, peak=0.9)
        best = ctc_beam_search(lp, DecodeOptions(beam_width=2))[0]
        assert best.prefix == ()
        assert best.score == pytest.approx(math.log(0.9), abs=1e-12)

    def test_zero_beam_width_rejected(self):
        with pytest.raises(OptionError):
            DecodeOptions(beam_width=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, "4", None])
    def test_non_integer_beam_width_rejected(self, bad):
        with pytest.raises(OptionError, match="beam_width must be an integer"):
            DecodeOptions(beam_width=bad)

    def test_numpy_integer_beam_width_accepted(self):
        lp = random_log_probs(np.random.default_rng(12), 4, 3)
        got = ctc_beam_search(lp, DecodeOptions(beam_width=np.int64(3)))
        assert_same_hypotheses(got, ctc_beam_search(lp, DecodeOptions(beam_width=3)))

    @pytest.mark.parametrize("seed", range(15))
    def test_exact_map_with_full_width(self, seed):
        """Width >= (V+1)^T makes the search exhaustive and exactly MAP."""
        rng = np.random.default_rng(100 + seed)
        T = int(rng.integers(1, 5))
        V = int(rng.integers(1, 3))
        lp = random_log_probs(rng, T, V + 1)
        masses = exhaustive_map(lp)
        want_prefix, want_mass = max(masses.items(), key=lambda kv: (kv[1], [-x for x in kv[0]]))
        best = ctc_beam_search(lp, DecodeOptions(beam_width=(V + 1) ** T))[0]
        assert best.prefix == want_prefix
        assert best.score == pytest.approx(want_mass, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_full_width_keeps_every_prefix_with_its_exhaustive_mass(self, seed):
        """With room for every prefix, the beam holds the whole collapse map:
        each reachable prefix once, with the mass of all its paths, best
        first. Unreachable prefixes, such as a repeat with no blank between,
        may trail with mass -inf."""
        rng = np.random.default_rng(500 + seed)
        T, C = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        lp = random_log_probs(rng, T, C)
        masses = exhaustive_map(lp)
        hyps = ctc_beam_search(lp, DecodeOptions(beam_width=C ** T))
        reachable = [h for h in hyps if h.score > NEG_INF]
        assert sorted(h.prefix for h in reachable) == sorted(masses)
        assert hyps[:len(reachable)] == reachable
        for h in reachable:
            assert h.score == pytest.approx(masses[h.prefix], abs=1e-9)
        assert hyps == sorted(hyps, key=lambda h: (-h.score, h.prefix))

    @pytest.mark.parametrize("seed", range(5))
    def test_hypotheses_rank_by_mass_then_prefix(self, seed):
        """Mass alone orders the beam; exact ties go to the smaller prefix."""
        rng = np.random.default_rng(600 + seed)
        lp = quantized_log_probs(rng, 5, 4, [-0.5, -1.0, -2.0])
        for width in (1, 2, 4, 16):
            hyps = ctc_beam_search(lp, DecodeOptions(beam_width=width))
            assert len(hyps) == width
            keys = [(-h.score, h.prefix) for h in hyps]
            assert keys == sorted(keys)

    def test_score_combines_terminal_masses(self):
        h = Hypothesis(prefix=(1,), logp_blank=math.log(0.25), logp_nonblank=math.log(0.5))
        assert h.score == pytest.approx(np.logaddexp.reduce([math.log(0.25), math.log(0.5)]), abs=1e-12)

    def test_prefixes_are_unique(self):
        rng = np.random.default_rng(7)
        lp = random_log_probs(rng, 5, 4)
        hyps = ctc_beam_search(lp, DecodeOptions(beam_width=8))
        prefixes = [h.prefix for h in hyps]
        assert len(prefixes) == len(set(prefixes))

    @pytest.mark.parametrize("seed", range(10))
    def test_wider_beams_never_score_worse(self, seed):
        rng = np.random.default_rng(200 + seed)
        lp = random_log_probs(rng, 6, 4)
        scores = [ctc_beam_search(lp, DecodeOptions(beam_width=w))[0].score for w in (1, 2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_output_appears_with_generous_width(self, seed):
        rng = np.random.default_rng(300 + seed)
        lp = random_log_probs(rng, 5, 3)
        hyps = ctc_beam_search(lp, DecodeOptions(beam_width=64))
        assert greedy_ctc_decode(lp) in [h.prefix for h in hyps]

    @pytest.mark.parametrize("seed", range(10))
    def test_best_score_lower_bounds_total_prefix_mass(self, seed):
        """Beam mass can only miss paths, never invent them."""
        rng = np.random.default_rng(400 + seed)
        lp = random_log_probs(rng, 5, 3)
        best = ctc_beam_search(lp, DecodeOptions(beam_width=3))[0]
        if best.prefix:
            loss, _ = ctc_loss(lp, best.prefix)
            assert best.score <= -loss + 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(11)
        lp = random_log_probs(rng, 6, 4)
        a = ctc_beam_search(lp, DecodeOptions(beam_width=4))
        b = ctc_beam_search(lp, DecodeOptions(beam_width=4))
        assert [(h.prefix, h.score) for h in a] == [(h.prefix, h.score) for h in b]

    @pytest.mark.parametrize("variant", NAR_VARIANTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_translate_equals_decoders_on_parallel_log_probs(self, variant, seed):
        cfg = ModelConfig(vocab_size=5, d_model=8, ff_dim=16, heads=2, enc_layers=1,
                          dec_layers=0 if variant == "deep-encoder" else 1, k=2, variant=variant,
                          max_len=24, dropout_rate=0.0)
        params = init_params(cfg, 60 + seed)
        src = [4, 5, 3, 5, 1]
        opts = DecodeOptions(beam_width=3)
        lp = parallel_log_probs(cfg, params, src)
        assert translate(cfg, params, src) == greedy_ctc_decode(lp)
        assert translate(cfg, params, src, opts) == ctc_beam_search(lp, opts)[0].prefix


def assert_same_hypotheses(got, want):
    """Equal lists, and every mass the same float bit for bit."""
    assert got == want
    assert [(float(h.logp_blank).hex(), float(h.logp_nonblank).hex()) for h in got] == \
        [(float(h.logp_blank).hex(), float(h.logp_nonblank).hex()) for h in want]


def quantized_log_probs(rng, T, C, levels):
    """A (T, C) table drawn from a few levels, so that path masses tie exactly."""
    return rng.choice(np.array(levels), size=(T, C))


class TestBeamSearchParity:
    """The search against the per-symbol loop over every extension
    (``helpers.reference_ctc_beam_search``): same prefixes, same order,
    same masses bit for bit."""

    @staticmethod
    def check_all_options(lp):
        T, C = lp.shape
        for width in sorted({1, 2, 4, 64, C ** T}):
            opts = DecodeOptions(beam_width=width)
            assert_same_hypotheses(ctc_beam_search(lp, opts), reference_ctc_beam_search(lp, opts))

    @pytest.mark.parametrize("seed", range(30))
    def test_quantized_tables_with_exact_ties(self, seed):
        rng = np.random.default_rng(500 + seed)
        lp = quantized_log_probs(rng, int(rng.integers(1, 6)), int(rng.integers(2, 6)),
                                 [-0.5, -1.0, -2.0])
        self.check_all_options(lp)

    def test_uniform_table_ties_every_extension(self):
        self.check_all_options(np.log(np.full((4, 3), 1.0 / 3.0)))

    @pytest.mark.parametrize("seed", range(30))
    def test_tables_with_neg_inf_entries(self, seed):
        rng = np.random.default_rng(600 + seed)
        T, C = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        lp = quantized_log_probs(rng, T, C, [-0.5, -1.0, NEG_INF])
        lp[int(rng.integers(T))] = NEG_INF  # a frame no path survives
        self.check_all_options(lp)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(700 + seed)
        self.check_all_options(random_log_probs(rng, int(rng.integers(1, 6)), int(rng.integers(2, 6))))

    def test_extensions_tied_by_rounding_at_the_cut_keep_the_smaller_prefix(self):
        """In the second frame symbol 2 outranks symbol 1, but the beam's
        total of -1.0 absorbs both, so (1,) and (2,) tie exactly at the cut
        of a width-1 beam. The walk offers 2 first and must go on to 1,
        which the (-rank, prefix) order keeps."""
        lp = np.array([[-1.0, -9.0, -9.0, -9.0], [-5.0, -2e-17, -1e-17, -3.0]])
        assert lp[1, 2] > lp[1, 1] and -1.0 + lp[1, 2] == -1.0 + lp[1, 1]
        opts = DecodeOptions(beam_width=1)
        got = ctc_beam_search(lp, opts)
        assert [h.prefix for h in got] == [(1,)]
        assert_same_hypotheses(got, reference_ctc_beam_search(lp, opts))

    @pytest.mark.parametrize("seed", range(3))
    def test_parallel_model_tables(self, seed):
        """Beam-4 over the forward of a random-weight model, one source of
        every length 4-48."""
        vocab = synthetic_vocab(20)
        cfg = ModelConfig(vocab_size=vocab.vocab_size, k=3, variant="encoder-decoder",
                          max_len=64, dropout_rate=0.0)
        params = init_params(cfg, seed)
        rng = np.random.default_rng(seed)
        opts = DecodeOptions(beam_width=4)
        for length in range(4, 49):
            lp = parallel_log_probs(cfg, params, rng.integers(4, vocab.size, size=length).tolist())
            assert_same_hypotheses(ctc_beam_search(lp, opts), reference_ctc_beam_search(lp, opts))

    @pytest.mark.parametrize("levels", [[-0.5, -1.0, -2.0], [-0.5, -1.0, NEG_INF]])
    @pytest.mark.parametrize("seed", range(8))
    def test_long_quantized_tables_tie_at_the_cut_with_long_prefixes(self, levels, seed):
        """20-80 frames of a few levels: equal masses straddle the cut at
        many frames, between prefixes that share long stems."""
        rng = np.random.default_rng(900 + seed)
        lp = quantized_log_probs(rng, int(rng.integers(20, 81)), int(rng.integers(3, 7)), levels)
        for width in (1, 2, 4, 8):
            opts = DecodeOptions(beam_width=width)
            assert_same_hypotheses(ctc_beam_search(lp, opts), reference_ctc_beam_search(lp, opts))

    def test_a_parent_cut_and_extended_again_recombines_into_its_live_child(self):
        """With width 2, frame 3 cuts (1, 2) but keeps its child (1, 2, 1);
        frame 4 extends (1,) to (1, 2) again. At frame 5 that beam's
        extension by 1 must recombine into the live (1, 2, 1), which then
        outranks it: the new (1, 2) is the parent of the old (1, 2, 1)."""
        lp = np.array([[-1.0, -1.0, -2.0], [-1.0, -2.0, -0.5], [-1.0, -0.5, -4.0],
                       [-4.0, -0.5, -0.5], [-2.0, -4.0, -4.0]])
        opts = DecodeOptions(beam_width=2)
        assert [h.prefix for h in ctc_beam_search(lp[:3], opts)] == [(1,), (1, 2, 1)]
        assert [h.prefix for h in ctc_beam_search(lp[:4], opts)] == [(1, 2), (1, 2, 1)]
        got = ctc_beam_search(lp, opts)
        assert [h.prefix for h in got] == [(1, 2, 1), (1, 2)]
        assert_same_hypotheses(got, reference_ctc_beam_search(lp, opts))

    def test_threads_searching_long_tables_at_once_give_the_sequential_hypotheses(self):
        """More threads than cores, switching every 10 µs, each searching
        144-frame tables of a random-weight model: a prefix store shared
        between calls would mix their prefixes."""
        vocab = synthetic_vocab(20)
        cfg = ModelConfig(vocab_size=vocab.vocab_size, k=3, variant="encoder-decoder",
                          max_len=48, dropout_rate=0.0)
        params = init_params(cfg, 3)
        rng = np.random.default_rng(3)
        tables = [parallel_log_probs(cfg, params, rng.integers(4, vocab.size, size=48).tolist())
                  for _ in range(3)]
        widths = (2, 4, 8)

        def search(width):
            return [[(h.prefix, float(h.logp_blank).hex(), float(h.logp_nonblank).hex())
                     for h in ctc_beam_search(lp, DecodeOptions(beam_width=width))] for lp in tables]

        sequential = {width: search(width) for width in widths}
        start, parallel = threading.Barrier(len(widths)), {}

        def run(width):
            start.wait(timeout=60)
            parallel[width] = search(width)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(run, widths)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == sequential


class TestBeamSearchShapes:
    def test_blank_only_table(self):
        lp = np.log(np.ones((3, 1)))
        got = ctc_beam_search(lp, DecodeOptions(beam_width=3))
        assert got == [Hypothesis((), 0.0, NEG_INF)]
        assert_same_hypotheses(got, reference_ctc_beam_search(lp, DecodeOptions(beam_width=3)))

    def test_single_frame(self):
        lp = np.log(np.array([[0.4, 0.35, 0.25]]))
        got = ctc_beam_search(lp, DecodeOptions(beam_width=4))
        assert [h.prefix for h in got] == [(), (1,), (2,)]
        assert [h.score for h in got] == list(lp[0])
        assert_same_hypotheses(got, reference_ctc_beam_search(lp, DecodeOptions(beam_width=4)))

    def test_beam_wider_than_candidates(self):
        """Every candidate is kept, those of mass zero (-inf) included."""
        lp = np.log(np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]))
        opts = DecodeOptions(beam_width=100)
        got = ctc_beam_search(lp, opts)
        assert sorted(h.prefix for h in got) == [(), (1,), (1, 1), (1, 2), (2,), (2, 1), (2, 2)]
        assert [h.prefix for h in got if h.score == NEG_INF] == [(1, 1), (2, 2)]
        assert_same_hypotheses(got, reference_ctc_beam_search(lp, opts))


# The decoders and the loss share ``ctc``'s table rule and its error.
_TABLE_READERS = pytest.mark.parametrize(
    "decode", [greedy_ctc_decode, ctc_beam_search, lambda lp: ctc_loss(lp, (1,))],
    ids=["greedy_ctc_decode", "ctc_beam_search", "ctc_loss"])


class TestTableValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @_TABLE_READERS
    def test_nan_and_pos_inf_rejected(self, decode, bad):
        lp = np.log(np.full((3, 3), 1.0 / 3.0))
        lp[1, 2] = bad
        with pytest.raises(InputError, match=r"^log_probs must not hold NaN or \+inf$"):
            decode(lp)

    @_TABLE_READERS
    def test_a_table_that_is_not_2d_is_rejected(self, decode):
        with pytest.raises(InputError, match=r"^log_probs must be a \(T, V\+1\) table, got shape \(3,\)$"):
            decode(np.log(np.full(3, 1.0 / 3.0)))

    def test_neg_inf_accepted(self):
        lp = np.array([[NEG_INF, 0.0], [0.0, NEG_INF]])
        assert greedy_ctc_decode(lp) == (1,)
        assert ctc_beam_search(lp)[0] == Hypothesis((1,), 0.0, NEG_INF)


class TestBest:
    """The shared top-width selection keeps every entry that ties the last."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sorting_the_kept_entries_gives_the_full_sort_prefix(self, seed):
        rng = np.random.default_rng(1000 + seed)
        scores = rng.choice(np.array([0.0, -1.0, -2.0, NEG_INF]), size=(int(rng.integers(1, 5)), 6))
        full = sorted(range(scores.size), key=lambda f: (-scores.flat[f], f))
        for width in range(1, scores.size + 2):
            keep = decoding._best(scores, width)
            threshold = scores.flat[full[min(width, scores.size) - 1]]
            assert sorted(keep) == [f for f in range(scores.size) if scores.flat[f] >= threshold]
            assert sorted(keep, key=lambda f: (-scores.flat[f], f))[:width] == full[:width]


def ar_config(vocab_size=5, max_len=24):
    return ModelConfig(vocab_size=vocab_size, d_model=8, ff_dim=16, heads=2, enc_layers=1,
                       dec_layers=1, variant="autoregressive-baseline", max_len=max_len,
                       dropout_rate=0.0)


def rigged_params(cfg, favored_id, seed=0):
    """Zero the output projection and bias it toward one token id."""
    params = init_params(cfg, seed)
    params["out.w"].data[:] = 0.0
    params["out.b"].data[:] = 0.0
    params["out.b"].data[favored_id - 1] = 8.0
    return params


class TestAutoregressiveDecoding:
    def test_immediate_eos_yields_empty(self):
        cfg = ar_config()
        params = rigged_params(cfg, favored_id=2)  # end-of-sequence id
        assert ar_greedy_decode(cfg, params, [4, 5], max_steps=10) == ()

    def test_never_exceeds_max_steps(self):
        cfg = ar_config()
        for seed in range(5):
            params = init_params(cfg, seed)
            out = ar_greedy_decode(cfg, params, [4, 5, 4], max_steps=4)
            assert len(out) <= 4

    def test_monotone_model_emits_its_token(self):
        cfg = ar_config()
        params = rigged_params(cfg, favored_id=4)
        for width in (1, 2, 4):
            out = ar_beam_decode(cfg, params, [4, 5], DecodeOptions(beam_width=width), max_steps=6)
            assert out == (4,) * 6

    @pytest.mark.parametrize("seed", range(20))
    def test_beam_width_one_equals_greedy(self, seed):
        cfg = ar_config()
        params = init_params(cfg, 50 + seed)
        greedy = ar_greedy_decode(cfg, params, [4, 5, 3], max_steps=5)
        beam = ar_beam_decode(cfg, params, [4, 5, 3], DecodeOptions(beam_width=1), max_steps=5)
        assert beam == greedy

    @pytest.mark.parametrize("seed", range(5))
    def test_translate_equals_decoders(self, seed):
        cfg = ar_config()
        params = init_params(cfg, 90 + seed)
        src = [4, 5, 3]
        opts = DecodeOptions(beam_width=3)
        assert translate(cfg, params, src, max_steps=7) == ar_greedy_decode(cfg, params, src, 7)
        assert translate(cfg, params, src, opts, 7) == ar_beam_decode(cfg, params, src, opts, 7)

    @pytest.mark.parametrize("src_len", [1, 7, 12])
    @pytest.mark.parametrize("beam", [None, DecodeOptions(beam_width=2)])
    def test_translate_budget_defaults_to_twice_the_source_plus_8(self, src_len, beam):
        """A model that never ends decodes the whole default budget,
        min(2 * len + 8, max_len - 1) tokens."""
        cfg = ar_config(max_len=24)
        params = rigged_params(cfg, favored_id=4)
        out = translate(cfg, params, [5] * src_len, beam)
        assert out == (4,) * min(2 * src_len + 8, cfg.max_len - 1)

    @pytest.mark.parametrize("beam", [None, DecodeOptions(beam_width=2)])
    def test_budget_up_to_max_len_decodes_it_all(self, beam):
        """Step t feeds t + 1 decoder positions, so max_len steps fit."""
        cfg = ar_config(max_len=8)
        params = rigged_params(cfg, favored_id=4)
        assert translate(cfg, params, [4, 5, 3], beam, 8) == (4,) * 8
        assert translate(cfg, params, [4, 5, 3], beam, 0) == ()

    @pytest.mark.parametrize("beam", [None, DecodeOptions(beam_width=2)])
    @pytest.mark.parametrize("max_steps", [-1, 9, 20])
    def test_budget_the_decoder_cannot_run_is_rejected_before_decoding(self, monkeypatch, beam, max_steps):
        cfg = ar_config(max_len=8)
        params = rigged_params(cfg, favored_id=4)
        calls = recorded_steps(monkeypatch)
        with pytest.raises(OptionError, match=rf"^max_steps must be in 0\.\.8 .*got {max_steps}$"):
            translate(cfg, params, [4, 5, 3], beam, max_steps)
        assert calls == []

    def test_beam_ties_at_the_cut_keep_the_smaller_sequence(self, monkeypatch):
        """Every row is the same, so (5, 4) and (4, 5) score exactly alike.
        At the cut of a width-2 beam the lexicographically smaller one
        survives, as in a full sort by (-score, tokens)."""
        cfg = ar_config()
        params = init_params(cfg, 0)
        params["out.w"].data[:] = 0.0
        params["out.b"].data[:] = [0.0, -30.0, 0.0, 2.0, 3.0]  # ids 1..5; id 2 ends
        calls = recorded_steps(monkeypatch)
        ar_beam_decode(cfg, params, [4, 5], DecodeOptions(beam_width=2), max_steps=3)
        assert [prefix for prefix, *_ in calls] == [(), (5,), (4,), (5, 5), (4, 5)]

    @pytest.mark.parametrize("seed", range(5))
    def test_full_width_beam_is_exhaustive(self, seed):
        """Width V^max_steps reproduces brute-force argmax under the same
        length normalization."""
        cfg = ar_config(vocab_size=4, max_len=12)
        params = init_params(cfg, 80 + seed)
        src = [4, 3]
        max_steps = 3
        enc = encode(cfg, params, src)

        def row(prefix):
            return stepped_row(cfg, params, enc, prefix).data

        candidates = []

        def walk(prefix, cum):
            r = row(prefix)
            for j in range(cfg.vocab_size):
                tok = j + 1
                total = cum + float(r[j])
                if tok == 2:  # end of sequence
                    candidates.append((total / (len(prefix) + 1), prefix))
                elif len(prefix) + 1 == max_steps:
                    candidates.append((total / max_steps, prefix + (tok,)))
                else:
                    walk(prefix + (tok,), total)

        walk((), 0.0)
        candidates.sort(key=lambda e: (-e[0], e[1]))
        want = candidates[0][1]
        got = ar_beam_decode(cfg, params, src, DecodeOptions(beam_width=cfg.vocab_size ** max_steps),
                             max_steps=max_steps)
        assert got == want


def recorded_steps(monkeypatch):
    """Route the decoders' steps through a recorder. Each entry holds the
    prefix, the returned row, the number of decoder positions the step ran,
    the buffer it stepped in and a copy of that buffer after the step."""
    calls = []
    step = decoding.decode_autoregressive_step
    run = model._ar_decoder
    positions = []

    def counting(*args, **kwargs):
        rows = run(*args, **kwargs)
        positions.append(rows.shape[0])
        return rows

    def recording(config, params, src, prefix_ids, kv):
        row = step(config, params, src, prefix_ids, kv)
        calls.append((tuple(prefix_ids), row.data, positions.pop(), kv, kv.copy()))
        return row

    monkeypatch.setattr(model, "_ar_decoder", counting)
    monkeypatch.setattr(decoding, "decode_autoregressive_step", recording)
    return calls


def full_recompute_step(config, params, enc, prefix_ids, kv):
    """The reference step: the last row of the teacher-forced pass. The
    decoders pass it the encoder states once ``source_keys_values`` is
    routed to them (``use_full_recompute``)."""
    return Tensor(decode_autoregressive_full(config, params, enc, prefix_ids).data[-1])


def use_full_recompute(monkeypatch):
    monkeypatch.setattr(decoding, "source_keys_values", lambda config, params, enc: enc)
    monkeypatch.setattr(decoding, "decode_autoregressive_step", full_recompute_step)


def long_ar_model(seed, eos_bias):
    cfg = ModelConfig(vocab_size=9, d_model=16, ff_dim=32, heads=2, enc_layers=2, dec_layers=2,
                      variant="autoregressive-baseline", max_len=40, dropout_rate=0.0)
    params = init_params(cfg, seed)
    params["out.b"].data[EOS_ID - 1] = eos_bias  # column j scores id j+1
    return cfg, params


def beam_steps(calls):
    """The recorded calls of one beam decode, grouped by step."""
    steps = {}
    for call in calls:
        steps.setdefault(len(call[0]), []).append(call)
    return [steps[n] for n in sorted(steps)]


class TestIncrementalDecoding:
    """The cached step against the full recompute it replaces."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("src_len", [1, 6, 13])
    def test_cached_rows_equal_full_recompute_along_greedy_and_beam_paths(
            self, monkeypatch, seed, src_len):
        cfg, params = long_ar_model(30 + seed, eos_bias=-30.0)
        src = [3 + (i * 5 + seed) % 7 for i in range(src_len)]
        max_steps = 2 * src_len + 4
        calls = recorded_steps(monkeypatch)
        greedy = ar_greedy_decode(cfg, params, src, max_steps)
        n_greedy = len(calls)
        ar_beam_decode(cfg, params, src, DecodeOptions(beam_width=4), max_steps)
        assert n_greedy == len(greedy) == max_steps
        assert len(calls) - n_greedy == 1 + 4 * (max_steps - 1)  # every hypothesis, every step
        monkeypatch.undo()
        enc = encode(cfg, params, src)
        for prefix, row, positions, *_ in calls:
            full = decode_autoregressive_full(cfg, params, enc, prefix).data[-1]
            assert np.abs(row - full).max() <= 1e-12, prefix
            assert positions == 1, prefix  # the step extended its cached parent

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("eos_bias", [0.0, -30.0])
    def test_decoder_outputs_equal_full_recompute_outputs(self, monkeypatch, seed, eos_bias):
        cfg, params = long_ar_model(40 + seed, eos_bias)
        src = [4, 9, 5, 3, 7, 6][: 2 + seed]
        opts = DecodeOptions(beam_width=4)
        cached = (ar_greedy_decode(cfg, params, src, 12), ar_beam_decode(cfg, params, src, opts, 12))
        use_full_recompute(monkeypatch)
        assert cached == (ar_greedy_decode(cfg, params, src, 12),
                          ar_beam_decode(cfg, params, src, opts, 12))

    @pytest.mark.parametrize("seed", range(3))
    def test_a_greedy_walk_through_the_package_names_equals_ar_greedy_decode(self, seed):
        cfg, params = long_ar_model(60 + seed, eos_bias=0.0)
        source = [4, 5, 6, 7]
        src = ctcnat.source_keys_values(cfg, params, ctcnat.encode(cfg, params, source))
        kv = ctcnat.self_attention_buffer(cfg)
        out = []
        while len(out) < 12:
            token = int(ctcnat.decode_autoregressive_step(cfg, params, src, out, kv).data.argmax()) + 1
            if token == EOS_ID:
                break
            out.append(token)
        assert tuple(out) == ctcnat.ar_greedy_decode(cfg, params, source, 12)

    def test_greedy_steps_in_one_buffer(self, monkeypatch):
        cfg, params = long_ar_model(7, eos_bias=-30.0)
        calls = recorded_steps(monkeypatch)
        ar_greedy_decode(cfg, params, [4, 5, 6], 9)
        assert len(calls) == 9 and all(kv is calls[0][3] for *_, kv, _ in calls)

    @pytest.mark.parametrize("eos_bias", [0.0, -30.0])
    def test_siblings_extend_the_buffers_in_place_or_copy_them(self, monkeypatch, eos_bias):
        """The first child of a hypothesis to step extends its parent's
        buffer in place, a later sibling steps in a copy of the parent's
        positions, and a grandchild extends that copy in place. The parent's
        positions never change, and every row equals, bit for bit, the row
        of a fresh buffer walking the same prefix."""
        cfg, params = long_ar_model(8, eos_bias)
        src = [4, 5, 6, 7, 8, 9, 4, 5]
        calls = recorded_steps(monkeypatch)
        ar_beam_decode(cfg, params, src, DecodeOptions(beam_width=4), 20)
        monkeypatch.undo()
        enc = encode(cfg, params, src)
        for prefix, row, *_ in calls:
            assert row.tobytes() == stepped_row(cfg, params, enc, prefix).data.tobytes(), prefix
        steps = beam_steps(calls)
        copies = []
        for before, now in zip(steps, steps[1:]):
            parents = {prefix: (kv, after) for prefix, _, _, kv, after in before}
            extended = set()
            for prefix, _, _, kv, after in now:
                parent_kv, parent_after = parents[prefix[:-1]]
                if prefix[:-1] in extended:
                    assert all(kv is not b for _, _, _, b, _ in before)  # a new buffer
                    copies.append(kv)
                else:
                    assert kv is parent_kv  # the first child steps in place
                    extended.add(prefix[:-1])
                n = len(prefix)  # the parent's positions: [EOS] + prefix[:-1]
                assert after[..., :n, :].tobytes() == parent_after[..., :n, :].tobytes(), prefix
        # a copy steps once as a sibling; every further step in it is a grandchild's
        in_copies = [kv for _, _, _, kv, _ in calls if any(kv is c for c in copies)]
        assert copies and len(in_copies) > len(copies)

    @pytest.mark.parametrize("width", [1, 4])
    def test_each_beam_step_copies_one_buffer_per_extra_sibling(self, monkeypatch, width):
        """At each step the beam passes one distinct buffer per alive
        hypothesis, at most the beam width, and makes a copy for each
        hypothesis beyond the first child of each parent."""
        cfg, params = long_ar_model(7, eos_bias=-30.0)
        calls = recorded_steps(monkeypatch)
        ar_beam_decode(cfg, params, [4, 5, 6, 7, 8, 9, 4, 5, 6, 7], DecodeOptions(beam_width=width), 25)
        steps = beam_steps(calls)
        assert len(calls) == 1 + width * 24 and len(steps) == 25
        for before, now in zip(steps, steps[1:]):
            buffers = [kv for *_, kv, _ in now]
            assert len({id(kv) for kv in buffers}) == len(now) <= width
            copies = [kv for kv in buffers if all(kv is not b for *_, b, _ in before)]
            assert len(copies) == len(now) - len({prefix[:-1] for prefix, *_ in now})
