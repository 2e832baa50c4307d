import re

import numpy as np
import pytest

from ctcnat import model as M
from ctcnat.data import VocabularyError
from ctcnat.model import (
    ConfigError,
    EncoderStates,
    LengthError,
    ModelConfig,
    SplitStates,
    decode_autoregressive_full,
    decode_autoregressive_step,
    decode_parallel,
    encode,
    init_params,
    parameter_shapes,
    self_attention_buffer,
    source_keys_values,
    split_states,
)
from ctcnat.tensor import Tensor

from helpers import stepped_row


def tiny_config(**kw):
    base = dict(vocab_size=9, d_model=16, ff_dim=32, heads=2, enc_layers=2,
                dec_layers=2, k=2, variant="encoder-decoder", max_len=32, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=10, heads=4)

    def test_deep_encoder_forbids_decoder_layers(self):
        with pytest.raises(ConfigError):
            tiny_config(variant="deep-encoder", dec_layers=2)

    def test_split_factor_positive(self):
        with pytest.raises(ConfigError):
            tiny_config(k=0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            tiny_config(variant="bidirectional")

    def test_empty_vocabulary(self):
        with pytest.raises(ConfigError):
            tiny_config(vocab_size=0)

    @pytest.mark.parametrize("value", [0, -4])
    @pytest.mark.parametrize("field", ["vocab_size", "d_model", "ff_dim", "heads", "enc_layers", "k", "max_len"])
    def test_size_below_one_is_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be >= 1, got {value}$"):
            tiny_config(**{field: value})

    def test_negative_decoder_depth_is_rejected_by_name(self):
        with pytest.raises(ConfigError, match="^dec_layers must be >= 0, got -1$"):
            tiny_config(dec_layers=-1)


class TestParameters:
    def test_same_config_same_parameter_contract(self):
        a = parameter_shapes(tiny_config())
        b = parameter_shapes(tiny_config())
        assert a == b

    def test_split_projection_shapes(self):
        shapes = parameter_shapes(tiny_config(k=3))
        assert shapes["split.w"] == (16, 48)
        assert shapes["split.b"] == (48,)

    def test_deep_encoder_has_no_decoder_parameters(self):
        shapes = parameter_shapes(tiny_config(variant="deep-encoder", enc_layers=4, dec_layers=0))
        assert not any(name.startswith("dec.") for name in shapes)

    def test_init_is_deterministic(self):
        p1 = init_params(tiny_config(), seed=5)
        p2 = init_params(tiny_config(), seed=5)
        assert all(np.array_equal(p1[n].data, p2[n].data) for n in p1)


class TestEncode:
    def test_output_shape(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        enc = encode(cfg, params, [4, 5, 6, 7])
        assert enc.states.shape == (4, cfg.d_model)
        assert enc.states.shape[0] == 4

    def test_deterministic_forward(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        a = encode(cfg, params, [4, 5, 6]).states.data
        b = encode(cfg, params, [4, 5, 6]).states.data
        assert np.array_equal(a, b)

    def test_permutation_equivariance_without_positions(self, monkeypatch):
        monkeypatch.setattr(M, "sinusoid_table", lambda length, d: np.zeros((length, d)))
        cfg = tiny_config()
        params = init_params(cfg, 2)
        ids = [4, 5, 6, 7, 8]
        perm = [2, 0, 4, 1, 3]
        base = encode(cfg, params, ids).states.data
        permuted = encode(cfg, params, [ids[i] for i in perm]).states.data
        assert np.allclose(permuted, base[perm], atol=1e-10)

    def test_id_out_of_range(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        with pytest.raises(VocabularyError):
            encode(cfg, params, [4, 99])

    @pytest.mark.parametrize("bad", [4.9, 5.0, True, np.float64(5.0), "5", None],
                             ids=["4.9", "5.0", "True", "float64", "str", "None"])
    def test_an_id_that_is_not_an_integer_is_rejected_naming_it(self, bad):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        with pytest.raises(VocabularyError, match=f"^token id {re.escape(repr(bad))} is not an integer$"):
            encode(cfg, params, (bad, 5, 6))

    def test_numpy_integer_ids_encode_as_python_ints(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        expected = encode(cfg, params, [4, 5, 6]).states.data
        for ids in (np.array([4, 5, 6]), [np.int32(4), np.uint8(5), np.int64(6)]):
            assert encode(cfg, params, ids).states.data.tobytes() == expected.tobytes()

    def test_over_length(self):
        cfg = tiny_config(max_len=4)
        params = init_params(cfg, 0)
        with pytest.raises(LengthError):
            encode(cfg, params, [4] * 5)


class TestSplitStates:
    def test_length_is_k_times_source(self):
        cfg = tiny_config(k=3)
        params = init_params(cfg, 0)
        enc = encode(cfg, params, [4, 5])
        assert split_states(params, enc, 3).states.shape == (6, cfg.d_model)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("t_x", range(1, 11))
    def test_length_contract_across_factors(self, k, t_x):
        d = 6
        params = {"split.w": Tensor(np.random.default_rng(0).normal(size=(d, k * d))),
                  "split.b": Tensor(np.zeros(k * d))}
        enc = EncoderStates(states=Tensor(np.random.default_rng(1).normal(size=(t_x, d))))
        assert split_states(params, enc, k).states.shape == (k * t_x, d)

    def test_identity_projection(self):
        d = 4
        params = {"split.w": Tensor(np.eye(d)), "split.b": Tensor(np.zeros(d))}
        states = np.random.default_rng(3).normal(size=(3, d))
        out = split_states(params, EncoderStates(states=Tensor(states)), 1)
        assert np.allclose(out.states.data, states, atol=1e-15)

    def test_stacked_projection_slices_in_order(self):
        # W = [I | 2I] column-stacked: first slice is v, second slice is 2v
        d = 4
        w = np.concatenate([np.eye(d), 2.0 * np.eye(d)], axis=1)
        params = {"split.w": Tensor(w), "split.b": Tensor(np.zeros(2 * d))}
        v = np.arange(1.0, d + 1.0)
        out = split_states(params, EncoderStates(states=Tensor(v[None, :])), 2)
        assert np.allclose(out.states.data[0], v, atol=1e-15)
        assert np.allclose(out.states.data[1], 2.0 * v, atol=1e-15)

    def test_slice_major_ordering(self):
        """Source position c produces output rows c*k .. c*k+k-1."""
        d = 2
        w = np.concatenate([np.eye(d), 3.0 * np.eye(d)], axis=1)
        params = {"split.w": Tensor(w), "split.b": Tensor(np.zeros(2 * d))}
        states = np.array([[1.0, 1.0], [5.0, 5.0]])
        out = split_states(params, EncoderStates(states=Tensor(states)), 2).states.data
        assert np.allclose(out, [[1, 1], [3, 3], [5, 5], [15, 15]])


class TestDecodeParallel:
    def test_rows_are_log_distributions(self):
        cfg = tiny_config()
        params = init_params(cfg, 4)
        enc = encode(cfg, params, [4, 5, 6])
        lp = decode_parallel(cfg, params, split_states(params, enc, cfg.k), enc)
        assert lp.shape == (6, cfg.vocab_size + 1)
        for row in lp.data:
            assert np.logaddexp.reduce(row) == pytest.approx(0.0, abs=1e-9)

    def test_all_variants_same_output_shape(self):
        outs = []
        for variant, enc_l, dec_l in (("deep-encoder", 4, 0),
                                      ("encoder-decoder", 2, 2),
                                      ("encoder-decoder-posenc", 2, 2)):
            cfg = tiny_config(variant=variant, enc_layers=enc_l, dec_layers=dec_l)
            params = init_params(cfg, 5)
            enc = encode(cfg, params, [4, 5, 6])
            outs.append(decode_parallel(cfg, params, split_states(params, enc, cfg.k), enc).shape)
        assert outs[0] == outs[1] == outs[2]

    def test_rejects_autoregressive_variant(self):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 0)
        enc = encode(cfg, params, [4, 5])
        with pytest.raises(ConfigError):
            decode_parallel(cfg, params, SplitStates(states=enc.states), enc)

    def test_unmasked_decoder_is_permutation_equivariant(self):
        """Without decoder positions, permuting split states permutes rows."""
        cfg = tiny_config(variant="encoder-decoder")
        params = init_params(cfg, 6)
        enc = encode(cfg, params, [4, 5, 6])
        split = split_states(params, enc, cfg.k)
        perm = [3, 1, 5, 0, 4, 2]
        base = decode_parallel(cfg, params, split, enc).data
        shuffled = SplitStates(states=Tensor(split.states.data[perm]))
        permuted = decode_parallel(cfg, params, shuffled, enc).data
        assert np.allclose(permuted, base[perm], atol=1e-9)

    def test_posenc_variant_is_not_equivariant(self):
        cfg = tiny_config(variant="encoder-decoder-posenc")
        params = init_params(cfg, 6)
        enc = encode(cfg, params, [4, 5, 6])
        split = split_states(params, enc, cfg.k)
        perm = [3, 1, 5, 0, 4, 2]
        base = decode_parallel(cfg, params, split, enc).data
        shuffled = SplitStates(states=Tensor(split.states.data[perm]))
        permuted = decode_parallel(cfg, params, shuffled, enc).data
        assert not np.allclose(permuted, base[perm], atol=1e-6)


class TestAutoregressive:
    def test_step_distribution_sums_to_one(self):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 7)
        enc = encode(cfg, params, [4, 5])
        row = stepped_row(cfg, params, enc, [4, 5, 6])
        assert row.shape == (cfg.vocab_size,)
        assert np.exp(row.data).sum() == pytest.approx(1.0, abs=1e-9)

    def test_stepwise_equals_teacher_forced_row(self):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 8)
        enc = encode(cfg, params, [4, 5, 6])
        prefix = [4, 5, 6, 7, 8]
        step = stepped_row(cfg, params, enc, prefix).data
        full = decode_autoregressive_full(cfg, params, enc, prefix).data
        assert full.shape == (6, cfg.vocab_size)
        assert np.allclose(step, full[5], atol=1e-9)

    def test_source_keys_values_reject_parallel_variant(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        with pytest.raises(ConfigError):
            source_keys_values(cfg, params, encode(cfg, params, [4, 5]))

    def test_step_rejects_the_blank_id(self):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 10)
        src = source_keys_values(cfg, params, encode(cfg, params, [4, 5]))
        kv = self_attention_buffer(cfg)
        decode_autoregressive_step(cfg, params, src, [], kv)
        with pytest.raises(VocabularyError, match=r"^token id 0 outside 1\.\.9$"):
            decode_autoregressive_step(cfg, params, src, [0], kv)

    @pytest.mark.parametrize("bad", [4.5, False, np.float32(4.0)], ids=["4.5", "False", "float32"])
    def test_targets_that_are_not_integers_are_rejected(self, bad):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 10)
        enc = encode(cfg, params, [4, 5])
        src = source_keys_values(cfg, params, enc)
        message = f"^token id {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(VocabularyError, match=message):
            decode_autoregressive_step(cfg, params, src, [4, bad], self_attention_buffer(cfg))
        with pytest.raises(VocabularyError, match=message):
            decode_autoregressive_full(cfg, params, enc, [bad])

    def test_teacher_forced_pass_rejects_the_blank_id(self):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 10)
        enc = encode(cfg, params, [4, 5])
        with pytest.raises(VocabularyError, match=r"^token id 0 outside 1\.\.9$"):
            decode_autoregressive_full(cfg, params, enc, [4, 0])

    def test_future_positions_do_not_leak(self):
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 9)
        enc = encode(cfg, params, [4, 5])
        a = decode_autoregressive_full(cfg, params, enc, [4, 5, 6, 7]).data
        b = decode_autoregressive_full(cfg, params, enc, [4, 5, 6, 9]).data
        assert np.array_equal(a[:4], b[:4])
        assert not np.allclose(a[4], b[4], atol=1e-12)

    def test_causal_mask_zero_derivative_by_finite_differences(self):
        """Perturbing a future token's embedding leaves earlier rows unmoved."""
        cfg = tiny_config(variant="autoregressive-baseline")
        params = init_params(cfg, 10)
        enc = encode(cfg, params, [4, 5])
        prefix = [4, 5, 6, 7]  # distinct ids; id 7 appears only at position 3
        emb = params["tgt_embed"].data
        h = 1e-4
        fd_max = 0.0
        for col in (0, 3):
            orig = emb[7, col]
            emb[7, col] = orig + h
            up = decode_autoregressive_full(cfg, params, enc, prefix).data[:3]
            emb[7, col] = orig - h
            down = decode_autoregressive_full(cfg, params, enc, prefix).data[:3]
            emb[7, col] = orig
            fd_max = max(fd_max, float(np.abs(up - down).max()) / (2 * h))
        assert fd_max == 0.0

    def test_unmasked_decoder_has_cross_position_derivative(self):
        """The parallel decoder really drops the temporal mask."""
        cfg = tiny_config(variant="encoder-decoder")
        params = init_params(cfg, 11)
        enc = encode(cfg, params, [4, 5])
        split = split_states(params, enc, cfg.k)
        h = 1e-5
        states = split.states.data.copy()
        states[3, 0] += h
        up = decode_parallel(cfg, params, SplitStates(states=Tensor(states)), enc).data[0]
        states[3, 0] -= 2 * h
        down = decode_parallel(cfg, params, SplitStates(states=Tensor(states)), enc).data[0]
        fd = np.abs(up - down).max() / (2 * h)
        assert fd > 1e-6

    def test_rejects_parallel_variant(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        enc = encode(cfg, params, [4, 5])
        with pytest.raises(ConfigError):
            decode_autoregressive_full(cfg, params, enc, [4])


FAMILY_ERRORS = {
    "decode_parallel": "decode_parallel needs a parallel-labeling model, got autoregressive-baseline",
    "parallel_log_probs": "parallel_log_probs needs a parallel-labeling model, got autoregressive-baseline",
    "decode_autoregressive_full":
        "the autoregressive decoder needs an autoregressive-baseline model, got encoder-decoder",
    "decode_autoregressive_step":
        "the autoregressive decoder needs an autoregressive-baseline model, got encoder-decoder",
    "source_keys_values": "source_keys_values needs an autoregressive-baseline model, got encoder-decoder",
}


@pytest.mark.parametrize("entry", FAMILY_ERRORS)
def test_a_model_of_the_other_family_raises_the_one_family_error(entry):
    message = FAMILY_ERRORS[entry]
    cfg = tiny_config(variant="encoder-decoder" if "an autoregressive" in message else "autoregressive-baseline")
    params = init_params(cfg, 0)
    enc = encode(cfg, params, [4, 5])
    calls = {
        "decode_parallel": lambda: decode_parallel(cfg, params, SplitStates(states=enc.states), enc),
        "parallel_log_probs": lambda: M.parallel_log_probs(cfg, params, [4, 5]),
        "decode_autoregressive_full": lambda: decode_autoregressive_full(cfg, params, enc, [4]),
        "decode_autoregressive_step": lambda: decode_autoregressive_step(cfg, params, [], [4],
                                                                         self_attention_buffer(cfg)),
        "source_keys_values": lambda: source_keys_values(cfg, params, enc),
    }
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        calls[entry]()


def test_dropout_only_when_generator_given():
    cfg = tiny_config(dropout_rate=0.3)
    params = init_params(cfg, 12)
    a = encode(cfg, params, [4, 5, 6]).states.data
    b = encode(cfg, params, [4, 5, 6]).states.data
    assert np.array_equal(a, b)  # inference path is deterministic
    c = encode(cfg, params, [4, 5, 6], dropout_rng=np.random.default_rng(0)).states.data
    assert not np.allclose(a, c, atol=1e-12)
