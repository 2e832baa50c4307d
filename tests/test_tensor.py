import hashlib
import inspect
import math
import re
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ctcnat import ctc, decoding, model
from ctcnat import tensor as T
from ctcnat.data import EOS_ID, SentencePair, batch_pairs, gen_synthetic, synthetic_vocab
from ctcnat.decoding import DecodeOptions, translate
from ctcnat.model import VARIANTS, ModelConfig, init_params
from ctcnat.tensor import GradTape, NumericError, ShapeError, Tensor
from ctcnat.training import batch_loss, feasible_pairs, sentence_loss

from helpers import (
    central_diff,
    names_in,
    reference_attention,
    reference_backward,
    reference_embed,
    reference_emit,
    reference_feed_forward,
    reference_keys_values,
    reference_lattice,
    reference_layer_norm,
    reference_linear,
    reference_log_probs,
    reference_log_softmax,
    reference_matmul,
    reference_mul,
    reference_multi_head_attention,
    reference_relu,
    reference_scale,
    reference_softmax,
    reference_sum,
    reference_transpose,
    rel_err,
    run_threads,
    use_reference_tape_ops,
)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(reference_matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = reference_matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            reference_matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with GradTape() as tape:
            loss = reference_sum(reference_matmul(a, b))
        tape.backward(loss)

        def f():
            return float((a.data @ b.data).sum())

        assert rel_err(a.grad, central_diff(f, a.data)) < 1e-6
        assert rel_err(b.grad, central_diff(f, b.data)) < 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(5, 4))
            c = rng.normal(size=(4, 6))
            left = (a @ b) @ c
            right = a @ (b @ c)
            assert rel_err(left, right) < 1e-9


class TestSoftmax:
    def test_symmetry(self):
        out = reference_softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = reference_softmax(Tensor([1000.0, 0.0]))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
        p = reference_softmax(x, axis=-1).data
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        w = rng.normal(size=7)  # random downstream weighting
        with GradTape() as tape:
            loss = reference_sum(reference_mul(reference_softmax(x), Tensor(w)))
        tape.backward(loss)

        def f():
            e = np.exp(x.data - x.data.max())
            return float((e / e.sum() * w).sum())

        assert rel_err(x.grad, central_diff(f, x.data)) < 1e-6


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        out = T.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.abs(out.data).max() < 1e-2  # epsilon floors the zero variance

    def test_already_normalized(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        gain = Tensor(rng.normal(size=8), requires_grad=True)
        bias = Tensor(rng.normal(size=8), requires_grad=True)
        w = rng.normal(size=(2, 8))
        with GradTape() as tape:
            loss = reference_sum(reference_mul(T.layer_norm(x, gain, bias), Tensor(w)))
        tape.backward(loss)

        def f():
            mu = x.data.mean(axis=-1, keepdims=True)
            var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
            xhat = (x.data - mu) / np.sqrt(var + 1e-6)
            return float(((xhat * gain.data + bias.data) * w).sum())

        assert rel_err(x.grad, central_diff(f, x.data)) < 1e-5
        assert rel_err(gain.grad, central_diff(f, gain.data)) < 1e-5
        assert rel_err(bias.grad, central_diff(f, bias.data)) < 1e-5


def _loss_through(op, tensors, rng):
    """Scalar probe: weighted sum of op(tensors) with fixed random weights."""
    out = op(*tensors)
    w = rng.normal(size=out.shape)
    return reference_sum(reference_mul(out, Tensor(w))), w


CAUSAL_4 = np.triu(np.full((4, 4), -1e9), k=1)
_CONST = np.random.default_rng(19)
CONST_K = Tensor(_CONST.normal(size=(4, 5, 2)))  # cached keys and values carry no gradient
CONST_V = Tensor(_CONST.normal(size=(4, 5, 3)))
# gain, bias, wq, bq, wk, wv, bv, wo, bo at d=4
MHA_PARAMS = [(4,), (4,), (4, 4), (4,), (4, 4), (4, 4), (4,), (4, 4), (4,)]
FF_PARAMS = [(4,), (4,), (4, 6), (6,), (6, 4), (4,)]  # gain, bias, w1, b1, w2, b2
MHA_CONST_KV = (_CONST.normal(size=(2, 5, 2)), _CONST.normal(size=(2, 5, 2)))
UNUSED_KV = [Tensor(np.zeros(s)) for s in [(4, 4), (4, 4), (4,)]]  # wk, wv, bv beside constant keys and values


def _mha(x, memory, params, causal=False, rate=0.0):
    rng = np.random.default_rng(27) if rate else None  # the same mask on every call
    return T.multi_head_attention(x, params, 2, memory, causal=causal, rate=rate, rng=rng,
                                  scope="multi_head_attention")


def _ff(x, params, rate=0.0):
    return T.feed_forward(x, params, rate, np.random.default_rng(28) if rate else None, "feed_forward")


EMBED_POSITIONS = _CONST.normal(size=(3, 4))


def _embed(table, rate=0.0):
    return T.embed(table, [1, 3, 1], EMBED_POSITIONS, rate, np.random.default_rng(29) if rate else None, "src_embed")


FD_CASES = [
    ("add", lambda a, b: T.add(a, b), [(3, 4), (3, 4)]),
    ("add_bias", lambda a, b: T.add(a, b), [(2, 3, 4), (4,)]),
    ("mul", lambda a, b: reference_mul(a, b), [(2, 5), (2, 5)]),
    ("scale", lambda a: reference_scale(a, -1.7), [(4, 3)]),
    ("matmul", lambda a, b: reference_matmul(a, b), [(2, 3), (3, 4)]),
    ("matmul_batched", lambda a, b: reference_matmul(a, b), [(2, 3, 4), (2, 4, 5)]),
    ("relu", lambda a: reference_relu(a), [(3, 6)]),
    ("softmax", lambda a: reference_softmax(a, axis=-1), [(3, 5)]),
    ("log_softmax", lambda a: reference_log_probs(a), [(3, 5)]),
    ("reshape", lambda a: T.reshape(a, (6, 2)), [(3, 4)]),
    ("transpose", lambda a: reference_transpose(a, (1, 0, 2)), [(2, 3, 4)]),
    ("linear", lambda x, w, b: T.linear(x, w, b), [(3, 4), (4, 5), (5,)]),
    ("linear_one_row", lambda x, w, b: T.linear(x, w, b), [(1, 4), (4, 2), (2,)]),
    ("embed", lambda table: _embed(table), [(5, 4)]),
    ("embed_dropout", lambda table: _embed(table, rate=0.3), [(5, 4)]),
    ("log_softmax_of_linear", lambda x, w, b: T.log_softmax(x, w, b, "out"), [(3, 4), (4, 5), (5,)]),
    ("log_softmax_of_linear_one_row", lambda x, w, b: T.log_softmax(x, w, b, "out"), [(1, 4), (4, 2), (2,)]),
    ("attention", lambda q, k, v: reference_attention(q, k, v, 0.7), [(4, 3, 2), (4, 5, 2), (4, 5, 3)]),
    ("attention_one_query", lambda q, k, v: reference_attention(q, k, v, 0.7), [(4, 1, 2), (4, 5, 2), (4, 5, 3)]),
    ("attention_causal", lambda q, k, v: reference_attention(q, k, v, 0.7, CAUSAL_4),
     [(4, 4, 2), (4, 4, 2), (4, 4, 3)]),
    ("attention_causal_suffix", lambda q, k, v: reference_attention(q, k, v, 0.7, CAUSAL_4[2:]),
     [(4, 2, 2), (4, 4, 2), (4, 4, 3)]),
    ("attention_constant_kv", lambda q: reference_attention(q, CONST_K, CONST_V, 0.7), [(4, 3, 2)]),
    ("attention_constant_kv_one_query", lambda q: reference_attention(q, CONST_K, CONST_V, 0.7), [(4, 1, 2)]),
    ("mha_self", lambda x, *w: _mha(x, None, w), [(3, 4)] + MHA_PARAMS),
    ("mha_self_dropout", lambda x, *w: _mha(x, None, w, rate=0.3), [(3, 4)] + MHA_PARAMS),
    ("mha_cross", lambda x, m, *w: _mha(x, m, w), [(3, 4), (5, 4)] + MHA_PARAMS),
    ("mha_causal", lambda x, *w: _mha(x, None, w, causal=True), [(4, 4)] + MHA_PARAMS),
    ("mha_one_query", lambda x, m, *w: _mha(x, m, w), [(1, 4), (5, 4)] + MHA_PARAMS),
    ("mha_constant_kv", lambda x, g, b, wq, bq, wo, bo: _mha(x, MHA_CONST_KV, (g, b, wq, bq, *UNUSED_KV, wo, bo)),
     [(3, 4), (4,), (4,), (4, 4), (4,), (4, 4), (4,)]),
    ("feed_forward", lambda x, *w: _ff(x, w), [(3, 4)] + FF_PARAMS),
    ("feed_forward_one_row", lambda x, *w: _ff(x, w), [(1, 4)] + FF_PARAMS),
    ("feed_forward_dropout", lambda x, *w: _ff(x, w, rate=0.3), [(3, 4)] + FF_PARAMS),
]


@pytest.mark.parametrize("name,op,shapes", FD_CASES, ids=[c[0] for c in FD_CASES])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_gradients_match_finite_differences(name, op, shapes, seed):
    """Every differentiable op agrees with central differences on several shapes."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    with GradTape() as tape:
        loss, w = _loss_through(op, tensors, rng)
    tape.backward(loss)
    for t in tensors:
        def f(t=t):
            with GradTape():
                out = op(*tensors)
            return float((out.data * w).sum())

        assert rel_err(t.grad, central_diff(f, t.data)) < 1e-4, name


def test_embed_gradient_scatter_adds():
    rng = np.random.default_rng(13)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ids = [1, 3, 1]
    w = rng.normal(size=(3, 3))
    with GradTape() as tape:
        loss = reference_sum(reference_mul(T.embed(table, ids, np.zeros((3, 3)), 0.0, None, "src_embed"), Tensor(w)))
    tape.backward(loss)

    def f():
        return float((table.data[ids] * math.sqrt(3) * w).sum())

    assert rel_err(table.grad, central_diff(f, table.data)) < 1e-6


def test_dropout_gradient_uses_the_same_mask():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(20, 10)), requires_grad=True)
    with GradTape() as tape:
        out = T.dropout(a, 0.4, np.random.default_rng(99))
        loss = reference_sum(out)
    tape.backward(loss)
    mask = out.data / np.where(a.data == 0.0, 1.0, a.data)  # recover mask
    assert np.allclose(a.grad, mask, atol=1e-12)


class TestInvariants:
    def test_storage_is_flat_row_major_float64(self):
        t = Tensor([[1, 2, 3], [4, 5, 6]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert int(np.prod(t.shape)) == t.data.size

    def test_grad_matches_data_length(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with GradTape() as tape:
            loss = reference_sum(T.add(a, a))
        tape.backward(loss)
        assert a.grad.shape == a.data.shape

    def test_nonfinite_forward_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.add(Tensor([1e308]), Tensor([1e308]))

    def test_backward_reaches_every_parameter(self):
        rng = np.random.default_rng(16)
        params = [Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(4)]
        x = Tensor(rng.normal(size=(2, 3)))
        with GradTape() as tape:
            h = x
            for p in params:
                h = reference_relu(reference_matmul(h, p))
            loss = reference_sum(h)
        tape.backward(loss)
        assert all(p.grad is not None for p in params)

    def test_no_recording_outside_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.add(a, a)
        assert out.requires_grad
        tape = GradTape()
        assert len(tape) == 0

    def test_backward_needs_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            out = T.add(a, a)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_reshape_product_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_add_rejects_non_suffix_shapes(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


class TestLeanTape:
    """The one-sum finiteness check and the copied first gradient keep the
    tape's contract; the reference transpose inverts any permutation."""

    def test_finite_elements_whose_sum_overflows_do_not_raise(self):
        with np.errstate(over="ignore"):  # the sum overflows; the elements do not
            out = T.add(Tensor([1e308, 1e308]), Tensor([0.0, 0.0]))
        assert out.data.tolist() == [1e308, 1e308]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_element_raises_naming_the_op(self, bad):
        values = np.ones((3, 4))
        values[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^linear produced non-finite values$"):
            T.linear(Tensor(values), Tensor(np.eye(4)), Tensor(np.zeros(4)))

    def test_gradient_buffers_through_transpose_are_c_contiguous(self):
        a = Tensor(np.zeros((4, 3)), requires_grad=True)
        g = np.random.default_rng(17).normal(size=(3, 4))
        T.accumulate_grad(a, g.T)
        assert a.grad.flags["C_CONTIGUOUS"] and np.array_equal(a.grad, g.T)

    def test_transpose_gradient_inverts_a_cyclic_permutation(self):
        rng = np.random.default_rng(18)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(4, 2, 3))
        with GradTape() as tape:
            loss = reference_sum(reference_mul(reference_transpose(a, (2, 0, 1)), Tensor(w)))
        tape.backward(loss)
        assert np.array_equal(a.grad, w.transpose(1, 2, 0))

    def test_first_gradient_contribution_is_a_copy_with_positive_zeros(self):
        a = Tensor(np.ones(3), requires_grad=True)
        g = np.array([-0.0, 1.0, 2.0])
        T.accumulate_grad(a, g)
        g[1] = 5.0
        assert a.grad.tolist() == [0.0, 1.0, 2.0]
        assert not np.signbit(a.grad[0])


def test_every_public_tensor_function_is_named_by_the_package():
    """No fused op leaves its unfused twin behind: each public function of
    ``ctcnat.tensor`` is named by another module of the package. A re-export
    in ``__init__.py`` is not a use."""
    named = names_in(path for path in Path(T.__file__).parent.glob("*.py")
                     if path.name not in ("tensor.py", "__init__.py"))
    public = [name for name, f in inspect.getmembers(T, inspect.isfunction)
              if f.__module__ == T.__name__ and not name.startswith("_")]
    assert "linear" in public and [name for name in public if name not in named] == []


def _linear_inputs():
    rng = np.random.default_rng(24)
    return [rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]


def _attention_inputs():
    rng = np.random.default_rng(25)
    return [np.array([0.5]), rng.normal(size=(1, 5, 1)), rng.normal(size=(1, 5, 1)), 3]


def _attend(op, q: float | np.ndarray, keys: np.ndarray, values: np.ndarray, rows: int = 1, causal: bool = False):
    """``op``, ``multi_head_attention`` or its reference, reduced to its
    attention step: one head at d=1, where the normed input is the bias 0, so
    each of the ``rows`` queries is ``q``. The (1, positions, 1) ``keys`` and
    ``values`` come as a KV memory, and the output projection is 1, so the
    output is the attention output added to zeros."""
    one, zero = Tensor([[1.0]]), Tensor([0.0])
    params = (Tensor([1.0]), zero, Tensor([[0.0]]), Tensor(np.reshape(q, 1)), one, one, zero, one, zero)
    return op(Tensor(np.zeros((rows, 1))), params, 1, (keys, values), causal=causal, rate=0.0, rng=None,
              scope="multi_head_attention")


def _call(op: str, fused: bool, values):
    if op == "linear":
        return (T.linear if fused else reference_linear)(*(Tensor(a) for a in values))
    return _attend(T.multi_head_attention if fused else reference_multi_head_attention, *values)


# What each fused check raises; the attention step names its sublayer.
MESSAGES = {"linear": "linear produced non-finite values",
            "attention": "attention produced non-finite values in multi_head_attention"}


class TestFusedOps:
    """``linear`` and the attention step of ``multi_head_attention`` raise
    ``NumericError`` on exactly the inputs where their unfused compositions
    raise, and name themselves."""

    def _raises_like_reference(self, op: str, values, message: str | None = None) -> None:
        message = message or MESSAGES[op]
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as unfused:
                _call(op, False, values)
            with pytest.raises(NumericError, match=f"^{message}$"):
                _call(op, True, values)
        # The unfused linear names its matmul or add; the sublayer chain names what the fused op does.
        assert op == "linear" or str(unfused.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("op,index", [("linear", 0), ("linear", 1), ("linear", 2), ("attention", 0),
                                          ("attention", 1), ("attention", 2)])
    def test_one_non_finite_input_element_raises(self, op, index, bad):
        # attention's inputs 0 to 2 are the query, the keys and the values;
        # a non-finite query is first the query projection's error
        values = _linear_inputs() if op == "linear" else _attention_inputs()
        values[index].reshape(-1)[values[index].size // 2] = bad
        query = (op, index) == ("attention", 0)
        self._raises_like_reference(op, values, f"{MESSAGES['linear']} in multi_head_attention" if query else None)

    def test_linear_output_that_overflows_raises(self):
        self._raises_like_reference("linear", [np.full((1, 2), 1e308), np.full((2, 1), 1.0), np.zeros(1)])

    def test_scores_that_overflow_from_finite_queries_and_keys_raise(self):
        self._raises_like_reference("attention", [1e200, np.full((1, 3, 1), 1e200), np.ones((1, 3, 1))])

    def test_output_that_overflows_from_a_huge_value_raises(self):
        # Scores [0, t] give probabilities whose rounded sum exceeds 1 by
        # enough that p @ [MAX, MAX] overflows in either summation order.
        t = -2.758515402125644
        huge = np.full((1, 2, 1), np.finfo(np.float64).max)
        self._raises_like_reference("attention", [1.0, np.array([[[0.0], [t]]]), huge])

    def test_finite_elements_whose_sum_overflows_do_not_raise(self):
        with np.errstate(over="ignore"):  # the sums overflow; the elements do not
            out = T.linear(Tensor([[1.0]]), Tensor([[1e308, 1e308]]), Tensor([0.0, 0.0]))
            assert out.data.tolist() == [[1e308, 1e308]]
            # two query rows: four scores of 1e308, then two outputs of 1e308
            inputs = [1e154, np.full((1, 2, 1), 1e154), np.full((1, 2, 1), 1e308), 2]
            out = _call("attention", True, inputs)
            reference = _call("attention", False, inputs)
        assert out.data.tolist() == [[1e308], [1e308]]
        assert out.data.tobytes() == reference.data.tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="linear"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeError, match="linear"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))
        inputs = [1.0, np.zeros((1, 3, 1)), np.zeros((1, 3, 1)), 2]  # a KV memory takes no causal mask
        for op in (reference_multi_head_attention, T.multi_head_attention):
            with pytest.raises(ShapeError, match="^attention: causal applies to self-attention, not to a memory$"):
                _attend(op, *inputs, causal=True)

    def test_tape_keeps_one_record_per_fused_op(self):
        rng = np.random.default_rng(26)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with GradTape() as tape:
            T.linear(Tensor(rng.normal(size=(3, 4))), w, Tensor(np.zeros(4)))
        assert len(tape) == 1


class TestSublayerOps:
    """Each pre-norm residual sublayer is one tape record, and a
    ``NumericError`` inside one names the layer it came from."""

    @pytest.mark.parametrize("weight,scope", [("enc.0.ff.w2", "enc.0.ff"),
                                              ("enc.1.self_attn.wq", "enc.1.self_attn"),
                                              ("dec.0.src_attn.wv", "dec.0.src_attn"),
                                              ("dec.1.self_attn.wo", "dec.1.self_attn"),
                                              ("dec.1.ff.w1", "dec.1.ff")])
    def test_numeric_error_names_the_layer_scope(self, weight, scope):
        cfg = _parity_config("encoder-decoder", 0.0)
        params = init_params(cfg, 21)
        params[weight].data[0, 0] = math.inf
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=f"^linear produced non-finite values in {re.escape(scope)}$"):
            model.parallel_log_probs(cfg, params, [4, 5, 6])

    def test_layer_norm_error_names_the_layer_scope(self):
        cfg = _parity_config("encoder-decoder", 0.0)
        params = init_params(cfg, 21)
        params["enc.0.ln1.gain"].data[3] = math.inf
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"^layer_norm produced non-finite values in enc\.0\.self_attn$"):
            model.parallel_log_probs(cfg, params, [4, 5, 6])

    def test_residual_add_error_names_the_layer_scope(self):
        # The encoder attention leaves about 1e308 in column 0; the norm maps
        # that row to finite values, and the feed-forward adds 1e308 more.
        cfg = _parity_config("encoder-decoder", 0.0)
        params = init_params(cfg, 21)
        params["dec.1.src_attn.bo"].data[0] = 1e308
        params["dec.1.ff.b2"].data[0] = 1e308
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"^add produced non-finite values in dec\.1\.ff$"):
            model.parallel_log_probs(cfg, params, [4, 5, 6])

    def test_cached_ar_step_runs_9_ops_and_15_checks(self, monkeypatch):
        cfg = _parity_config("autoregressive-baseline", 0.0)
        params = init_params(cfg, 31)
        src = model.source_keys_values(cfg, params, model.encode(cfg, params, [4, 5, 6]))
        kv = model.self_attention_buffer(cfg)
        model.decode_autoregressive_step(cfg, params, src, [], kv)
        checks = []
        finite = T._finite

        def counting(arr):
            checks.append(arr)
            return finite(arr)

        monkeypatch.setattr(T, "_finite", counting)
        with GradTape() as tape:
            model.decode_autoregressive_step(cfg, params, src, [7], kv)
        # embed; per layer 3 sublayers; norm, output layer
        assert len(tape) == 1 + 3 * cfg.dec_layers + 2 == 9
        # embed; per layer 2 per sublayer; norm, output layer
        assert len(checks) == 1 + 6 * cfg.dec_layers + 2 == 15

    def test_source_keys_values_check_the_key_projection_as_the_chain_does(self, monkeypatch):
        # Keys are a matmul with no bias, so the chain's first error names
        # matmul, in the sublayer that projects them.
        cfg = _parity_config("autoregressive-baseline", 0.0)
        params = init_params(cfg, 31)
        enc = model.encode(cfg, params, [4, 5, 6])
        params["dec.1.src_attn.wk"].data[2, 3] = math.nan
        message = r"^matmul produced non-finite values in dec\.1\.src_attn$"
        with pytest.raises(NumericError, match=message):
            model.source_keys_values(cfg, params, enc)
        use_reference_tape_ops(monkeypatch)
        assert model.keys_values is reference_keys_values
        with pytest.raises(NumericError, match=message):
            model.source_keys_values(cfg, params, enc)

    # encoder 6 (embed, 2 layers of 2 sublayers, norm); NAR: split 2, decoder
    # input dropout when it runs, 2 layers of 3 sublayers, norm, output layer;
    # AR: embed, the same decoder; then 1 loss op
    @pytest.mark.parametrize("variant,dropout,records", [("encoder-decoder", 0.0, 17),
                                                         ("encoder-decoder", 0.1, 18),
                                                         ("autoregressive-baseline", 0.0, 16),
                                                         ("autoregressive-baseline", 0.1, 16)])
    def test_encoder_decoder_sentence_records(self, variant, dropout, records):
        cfg = _parity_config(variant, dropout)
        params = init_params(cfg, 21)
        rng = np.random.default_rng(0) if dropout else None
        with GradTape() as tape:
            sentence_loss(cfg, params, [4, 5, 6], [4, 4, 5], dropout_rng=rng)
        assert len(tape) == records


class TestEndOps:
    """A stack's input ``embed`` and its output layer ``log_softmax`` are one
    record each, and raise the first error of the chain they replace,
    naming their scope."""

    @pytest.mark.parametrize("variant,edits,message", [
        ("encoder-decoder", [("src_embed", (5, 3), math.nan)], "scale produced non-finite values in src_embed"),
        ("autoregressive-baseline", [("tgt_embed", (5, 3), math.inf)], "scale produced non-finite values in tgt_embed"),
        ("encoder-decoder", [("out.w", (2, 4), math.nan)], "linear produced non-finite values in out"),
        ("deep-encoder", [("out.b", (0,), -math.inf)], "linear produced non-finite values in out"),
        # finite logits 2e308 apart: the max shift overflows
        ("autoregressive-baseline", [("out.b", (0,), 1e308), ("out.b", (1,), -1e308)],
         "log_softmax produced non-finite values in out"),
    ])
    def test_model_error_names_the_scope(self, monkeypatch, variant, edits, message):
        cfg = _parity_config(variant, 0.0)
        params = init_params(cfg, 21)
        for name, index, value in edits:
            params[name].data[index] = value

        def run():
            if cfg.is_autoregressive:  # the decoder input [EOS, 5, 7] reads tgt_embed row 5
                return model.decode_autoregressive_full(cfg, params, model.encode(cfg, params, [4, 5, 6]), [5, 7])
            return model.parallel_log_probs(cfg, params, [4, 5, 6])

        assert _outcome(run) == message
        _use_reference_chains(monkeypatch)
        assert _outcome(run) == message

    def test_position_add_that_overflows_raises_add(self):
        args = (Tensor([[1e308]]), [0], np.array([[1e308]]), 0.0, None, "src_embed")
        for op in (T.embed, reference_embed):
            with np.errstate(over="ignore"), pytest.raises(
                    NumericError, match=r"^add produced non-finite values in src_embed$"):
                op(*args)

    def test_one_record_each_and_shape_errors(self):
        table = Tensor(np.ones((5, 4)), requires_grad=True)
        with GradTape() as tape:
            x = T.embed(table, [1, 2], np.zeros((2, 4)), 0.5, np.random.default_rng(0), "src_embed")
            T.log_softmax(x, Tensor(np.ones((4, 3)), requires_grad=True), Tensor(np.zeros(3)), "out")
        assert len(tape) == 2
        with pytest.raises(ShapeError, match="^embed"):
            T.embed(table, [1, 2], np.zeros((3, 4)), 0.0, None, "src_embed")
        with pytest.raises(ShapeError, match="^log_softmax"):
            T.log_softmax(x, Tensor(np.ones((3, 3))), Tensor(np.zeros(3)), "out")


BAD_VALUES = [math.nan, math.inf, -math.inf, 1e300]  # 1e300 is finite but overflows products


def _outcome(call) -> bytes | str:
    """The bytes of what ``call`` returns, or the message of the NumericError it raises."""
    try:
        with np.errstate(all="ignore"):
            return call().data.tobytes()
    except NumericError as exc:
        return str(exc)


def _scope(name: str) -> str:
    """The sublayer or stack end whose op reads parameter ``name``. A block's
    norms belong to the sublayer they precede: the decoder's ln1, ln2 and ln3
    to self_attn, src_attn and ff; the encoder's ln1 and ln2 to self_attn and ff."""
    scope = name.rpartition(".")[0] or name
    if norm := re.fullmatch(r"((enc|dec)\.\d+)\.ln([123])", scope):
        block, stack, i = norm.groups()
        sublayers = ("self_attn", "ff") if stack == "enc" else ("self_attn", "src_attn", "ff")
        scope = f"{block}.{sublayers[int(i) - 1]}"
    return scope


def _use_reference_chains(monkeypatch) -> None:
    """The chains that the model's fused ops replace, over the fast ``linear``,
    whose errors name ``linear`` as the fused ops' do."""
    monkeypatch.setattr(model, "multi_head_attention", reference_multi_head_attention)
    monkeypatch.setattr(model, "feed_forward", reference_feed_forward)
    monkeypatch.setattr(model, "embed", reference_embed)
    monkeypatch.setattr(model, "log_softmax", reference_log_softmax)


def _sublayer_form(form: str, rng: np.random.Generator):
    """One form of a sublayer at d=4 with 2 heads: the fused op, the chain it
    replaces, x, the parameters, the positional arguments after them and a
    factory of the keyword arguments (fresh cache buffers on each call)."""
    x = rng.normal(size=(1 if form == "past" else 3, 4))
    if form == "ff":
        return T.feed_forward, reference_feed_forward, x, [Tensor(rng.normal(size=s)) for s in FF_PARAMS], (), dict
    params = [Tensor(rng.normal(size=s)) for s in MHA_PARAMS]
    memory = {"cross": Tensor(rng.normal(size=(5, 4))),
              "constant_kv": (rng.normal(size=(2, 5, 2)), rng.normal(size=(2, 5, 2)))}.get(form)
    # two cached positions, then room for x's one and one more never read
    cached = [np.concatenate((rng.normal(size=(2, 2, 2)), np.full((2, 2, 2), np.nan)), axis=1) for _ in "kv"]

    def kwargs():
        if form == "past":
            return {"past": (*[b.copy() for b in cached], 2)}
        return {"memory": memory, "causal": form == "self"}

    return T.multi_head_attention, reference_multi_head_attention, x, params, (2,), kwargs


@pytest.mark.parametrize("causal", [False, True])
def test_past_takes_one_new_position(causal):
    op, _, _, params, args, kwargs = _sublayer_form("past", np.random.default_rng(47))
    x = Tensor(np.random.default_rng(48).normal(size=(2, 4)))
    with pytest.raises(ShapeError, match="^attention: past takes one new position$"):
        op(x, params, *args, **kwargs(), causal=causal, rate=0.0, rng=None, scope="self_attn")


@pytest.mark.parametrize("op", [T.multi_head_attention, reference_multi_head_attention])
@pytest.mark.parametrize("kind", ["tensor", "kv"])
def test_past_with_a_memory_is_rejected_before_the_buffer_is_written(op, kind):
    """A cache belongs to self-attention: a one-row tensor memory would
    write its key and value into the buffer, and a KV memory would ignore it."""
    rng = np.random.default_rng(50)
    params = [Tensor(rng.normal(size=s)) for s in MHA_PARAMS]
    memory = Tensor(rng.normal(size=(1, 4))) if kind == "tensor" else tuple(rng.normal(size=(2, 5, 2)) for _ in "kv")
    buffers = [rng.normal(size=(2, 4, 2)) for _ in "kv"]
    before = [b.tobytes() for b in buffers]
    with pytest.raises(ShapeError, match="^attention: past applies to self-attention, not to a memory$"):
        op(Tensor(rng.normal(size=(1, 4))), params, 2, memory, (*buffers, 2), rate=0.0, rng=None, scope="src_attn")
    assert [b.tobytes() for b in buffers] == before


class TestCheckRule:
    """The fused ops check only the scores, the pre-activation and their
    output. Against the unfused chain they replace, every poisoned input
    raises the same error or yields the same bytes."""

    def _cases(self, monkeypatch, cfg: ModelConfig, run) -> None:
        """Run ``run(params)`` with one element of each parameter poisoned,
        fused and unfused. Some cases raise and some do not; each raised
        error names the scope of the poisoned parameter, and a NaN always raises."""
        params = init_params(cfg, 41)
        raised = 0
        for name in model.parameter_shapes(cfg):
            flat = params[name].data.reshape(-1)
            i = flat.size // 2
            clean = flat[i]
            for bad in BAD_VALUES:
                flat[i] = bad
                fused = _outcome(lambda: run(params))
                with monkeypatch.context() as m:
                    _use_reference_chains(m)
                    unfused = _outcome(lambda: run(params))
                assert fused == unfused, (name, bad)
                if isinstance(fused, str):
                    assert fused.endswith(f" in {_scope(name)}"), (name, bad, fused)
                    raised += 1
                else:
                    assert not math.isnan(bad), name
            flat[i] = clean
        assert 0 < raised < len(params) * len(BAD_VALUES)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_poisoned_parameters_in_a_forward(self, monkeypatch, variant, dropout):
        cfg = _parity_config(variant, dropout)

        def run(params):  # both read src_embed and tgt_embed row 5, the one that _cases poisons
            rng = np.random.default_rng(42) if dropout else None
            enc = model.encode(cfg, params, [4, 5, 6, 7], dropout_rng=rng)
            if cfg.is_autoregressive:
                return model.decode_autoregressive_full(cfg, params, enc, [5, 7], dropout_rng=rng)
            return model.decode_parallel(cfg, params, model.split_states(params, enc, cfg.k), enc, dropout_rng=rng)

        self._cases(monkeypatch, cfg, run)

    def test_poisoned_parameters_in_a_cached_ar_step(self, monkeypatch):
        cfg = _parity_config("autoregressive-baseline", 0.0)
        clean = init_params(cfg, 41)
        clean_src = model.source_keys_values(cfg, clean, model.encode(cfg, clean, [4, 5, 6]))

        def run(params):
            src = model.source_keys_values(cfg, params, model.encode(cfg, params, [4, 5, 6]))
            kv = model.self_attention_buffer(cfg)
            for prefix in ([], [4], [4, 7]):
                model.decode_autoregressive_step(cfg, clean, clean_src, prefix, kv)
            # the step embeds id 5, the tgt_embed row that _cases poisons
            return model.decode_autoregressive_step(cfg, params, src, [4, 7, 5], kv)

        self._cases(monkeypatch, cfg, run)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_nan_in_any_parameter_names_its_scope_in_batch_loss(self, variant):
        cfg = _parity_config(variant, 0.1)
        params = init_params(cfg, 41)
        batch = batch_pairs([SentencePair((4, 5, 6, 7), (5, 7), "", ""), SentencePair((6, 4), (4,), "", "")])
        for name in model.parameter_shapes(cfg):
            flat = params[name].data.reshape(-1)
            clean, flat[flat.size // 2] = flat[flat.size // 2], math.nan
            with np.errstate(all="ignore"), pytest.raises(NumericError) as error:
                batch_loss(cfg, params, batch, dropout_rng=np.random.default_rng(42))
            assert str(error.value).endswith(f" in {_scope(name)}"), name
            flat[flat.size // 2] = clean

    @pytest.mark.parametrize("form", ["self", "cross", "constant_kv", "past", "ff"])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_poisoned_residual_input(self, form, dropout):
        op, reference, x, params, args, kwargs = _sublayer_form(form, np.random.default_rng(43))
        for i in (0, x.size - 1):
            for bad in BAD_VALUES:
                poisoned = x.copy()
                poisoned.reshape(-1)[i] = bad
                fused, unfused = (_outcome(lambda: f(Tensor(poisoned), params, *args, **kwargs(), rate=dropout,
                                                     rng=np.random.default_rng(44), scope=op.__name__))
                                  for f in (op, reference))
                assert fused == unfused, (i, bad)
                if not math.isfinite(bad):
                    assert fused == f"layer_norm produced non-finite values in {op.__name__}"

    def _same_error(self, op, reference, *args, **kwargs) -> str:
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as unfused:
                reference(*args, **kwargs)
            with pytest.raises(NumericError) as fused:
                op(*args, **kwargs)
        assert str(fused.value) == str(unfused.value)
        return str(fused.value)

    def test_nan_values_reach_the_output_through_a_zero_output_projection(self):
        # v is NaN and wo is 0: only 0 * NaN = NaN, which a BLAS that skips
        # zero terms would not compute, carries it to the checked output.
        rng = np.random.default_rng(45)
        params = [Tensor(rng.normal(size=s)) for s in MHA_PARAMS]
        params[5].data[1, 2] = math.nan  # wv
        params[7].data[:] = 0.0  # wo
        message = self._same_error(T.multi_head_attention, reference_multi_head_attention,
                                   Tensor(rng.normal(size=(3, 4))), params, 2, rate=0.0, rng=None,
                                   scope="multi_head_attention")
        assert message == "linear produced non-finite values in multi_head_attention"

    def test_infinite_queries_reach_the_scores_through_a_zero_key_column(self):
        # q's column 0 is inf and k's is 0: the scores hold inf * 0 = NaN.
        rng = np.random.default_rng(46)
        params = [Tensor(rng.normal(size=s)) for s in MHA_PARAMS]
        params[3].data[0] = math.inf  # bq
        params[4].data[:, 0] = 0.0  # wk
        message = self._same_error(T.multi_head_attention, reference_multi_head_attention,
                                   Tensor(rng.normal(size=(3, 4))), params, 2, rate=0.0, rng=None,
                                   scope="multi_head_attention")
        assert message == "linear produced non-finite values in multi_head_attention"


def _sha1(values) -> str:
    return hashlib.sha1(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _parity_config(variant: str, dropout: float) -> ModelConfig:
    return ModelConfig(vocab_size=synthetic_vocab(6).vocab_size, d_model=16, ff_dim=32, heads=2,
                       enc_layers=2, dec_layers=0 if variant == "deep-encoder" else 2, k=3,
                       variant=variant, max_len=24, dropout_rate=dropout)


def _parity_batch(cfg: ModelConfig):
    pairs = gen_synthetic("duplicate-each-token", 6, 6, (1, 6), seed=22, vocab=synthetic_vocab(6))
    return batch_pairs(feasible_pairs(cfg, pairs)[0])


def _batch_gradients(variant: str, dropout: float, backward=GradTape.backward) -> tuple[Tensor, model.ModelParams]:
    """One ``batch_loss`` backward on the parity config: the loss and the parameters with their gradients."""
    cfg = _parity_config(variant, dropout)
    params = init_params(cfg, 21)
    rng = np.random.default_rng(23) if dropout else None
    with GradTape() as tape:
        loss = batch_loss(cfg, params, _parity_batch(cfg), dropout_rng=rng)
    backward(tape, loss)
    return loss, params


def _gradient_digests(variant: str, dropout: float, backward=GradTape.backward) -> list[str | None]:
    loss, params = _batch_gradients(variant, dropout, backward)
    return [_sha1(loss.data)] + [None if params[n].grad is None else _sha1(params[n].grad)
                                 for n in sorted(params)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_parameter_gets_a_gradient(variant):
    """No dead weights: a parameter whose gradient is 0 on every batch, such
    as a key bias that the softmax cancels, costs work and learns nothing."""
    _, params = _batch_gradients(variant, 0.0)
    dead = [n for n, p in params.items() if p.grad is None or np.abs(p.grad).max() <= 1e-8]
    assert dead == []


def _decodes() -> list[tuple[int, ...]]:
    outputs = []
    for variant in VARIANTS:
        cfg = _parity_config(variant, 0.0)
        params = init_params(cfg, 31)
        if cfg.is_autoregressive:
            params["out.b"].data[EOS_ID - 1] = -30.0  # decode the whole budget
        for src in ([4], [5, 6, 7, 8], [8, 4, 4, 6, 5, 7, 4]):
            outputs.append(translate(cfg, params, src))
            outputs.append(translate(cfg, params, src, DecodeOptions(beam_width=3)))
    return outputs


class TestReferenceParity:
    """Against the tape ops they replace (``helpers.reference_*``): every
    loss, gradient, decode and AR step row is equal, bit for bit."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_loss_and_every_gradient(self, monkeypatch, variant, dropout):
        fast = _gradient_digests(variant, dropout)
        use_reference_tape_ops(monkeypatch)
        assert T.layer_norm is reference_layer_norm and T._emit is reference_emit
        assert model.linear is reference_linear and model.multi_head_attention is reference_multi_head_attention
        assert model.feed_forward is reference_feed_forward and ctc._lattice is reference_lattice
        assert model.embed is reference_embed and model.log_softmax is reference_log_softmax
        assert _gradient_digests(variant, dropout) == fast

    def test_greedy_and_beam_decodes_and_ar_step_rows(self, monkeypatch):
        rows = []
        step = decoding.decode_autoregressive_step

        def recording(*args):
            row = step(*args)
            rows.append(_sha1(row.data))
            return row

        monkeypatch.setattr(decoding, "decode_autoregressive_step", recording)
        fast = (_decodes(), list(rows))
        assert len(fast[1]) > 100
        rows.clear()
        use_reference_tape_ops(monkeypatch)
        assert (_decodes(), rows) == fast


class TestReplay:
    """``GradTape.backward`` replays a tape once, releasing each record and
    each intermediate gradient as it goes; only leaves keep a gradient."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_the_reference_replay(self, variant, dropout):
        assert _gradient_digests(variant, dropout) == _gradient_digests(variant, dropout, reference_backward)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_only_the_parameters_keep_a_gradient(self, variant):
        cfg = _parity_config(variant, 0.0)
        params = init_params(cfg, 21)
        with GradTape() as tape:
            loss = batch_loss(cfg, params, _parity_batch(cfg))
        outputs = [out for out, _ in tape._records]
        assert outputs[-1] is loss
        tape.backward(loss)
        assert len(tape) == 0
        assert all(out.grad is None for out in outputs)
        assert all(p.grad is not None for p in params.values())

    # what stays beside the gradients: the ndarray headers of about 70 of
    # them, the loss and the empty tape; a tape that kept its records would
    # hold another 130-610 kB here
    SLACK_BYTES = 32 * 1024

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_replayed_tape_holds_no_memory(self, variant):
        cfg = _parity_config(variant, 0.0)
        params = init_params(cfg, 21)
        batch = _parity_batch(cfg)

        def step():
            with GradTape() as tape:
                loss = batch_loss(cfg, params, batch)
            tape.backward(loss)
            return tape, loss

        step()  # fills the caches that outlive a step
        for p in params.values():
            p.grad = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape, loss = step()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= sum(p.grad.nbytes for p in params.values()) + self.SLACK_BYTES
        assert len(tape) == 0 and loss.grad is None

    def test_a_record_is_freed_before_the_earlier_records_replay(self):
        # records: probe (x -> h), feed_forward (h -> y), loss (y -> scalar)
        rng = np.random.default_rng(47)
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in [(4,), (4,), (4, 8), (8,), (8, 4), (4,)]]
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        refs, seen = [], []

        def probe(g: np.ndarray) -> None:
            seen.append((h.grad is None, [ref() is None for ref in refs]))
            T.accumulate_grad(x, g)

        def loss_rule(g: np.ndarray) -> None:
            T.accumulate_grad(y, np.full(y.shape, g.item()))
            refs.append(weakref.ref(y.grad))  # the intermediate gradient that feed_forward's rule receives

        with GradTape() as tape:
            h = T.custom_op(x.data, [x], probe)
            y = T.feed_forward(h, params, rate=0.0, rng=None, scope="ff")
            loss = T.custom_op(y.data.sum(), [y], loss_rule)
        saved = [cell.cell_contents for cell in tape._records[1][1].__closure__
                 if isinstance(cell.cell_contents, np.ndarray)]
        assert len(saved) == 4  # the pre-activation, the normed input, xhat and the inverse deviation
        refs.extend(weakref.ref(a) for a in saved)
        del saved
        tape.backward(loss)
        assert seen == [(True, [True] * 5)]
        assert x.grad is not None

    def test_a_second_backward_raises_and_changes_no_gradient(self):
        w1 = Tensor(np.eye(2), requires_grad=True)
        w2 = Tensor(np.ones((2, 1)), requires_grad=True)
        with GradTape() as tape:
            h = T.linear(Tensor([[2.0, 4.0]]), w1, Tensor(np.zeros(2)))
            loss = T.linear(h, w2, Tensor(np.zeros(1)))
        tape.backward(loss)
        first = (w1.grad.tolist(), w2.grad.tolist())
        assert first == ([[2.0, 2.0], [4.0, 4.0]], [[2.0], [4.0]])
        with pytest.raises(RuntimeError, match="^backward: this tape was already replayed; record the forward again$"):
            tape.backward(loss)
        assert (w1.grad.tolist(), w2.grad.tolist()) == first

    def test_a_first_backward_on_an_empty_tape_seeds_the_loss_only(self):
        loss = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            pass
        tape.backward(loss)
        assert loss.grad.tolist() == [1.0]


def _long_config(variant: str) -> ModelConfig:
    """The default model at max_len 48, whose k = 3 gives 144 frames: the nar-decode workload's longest shape."""
    return ModelConfig(vocab_size=20, variant=variant, dec_layers=0 if variant == "deep-encoder" else 2,
                       max_len=48, dropout_rate=0.0)


def _inference_outputs(variant: str, lengths=(48, 4, 30, 48, 1)) -> list[np.ndarray]:
    """Every array the inference forward returns for sources of ``lengths``, in call order:
    the encoder states and log-prob table of each source, and for the AR baseline its
    teacher-forced table, its source keys and values and every step row of a prefix."""
    cfg = _long_config(variant)
    params = init_params(cfg, 41)
    rng = np.random.default_rng(42)
    outputs = []
    for length in lengths:
        src = [int(i) for i in rng.integers(4, cfg.vocab_size + 1, size=length)]
        enc = model.encode(cfg, params, src)
        outputs.append(enc.states.data)
        if not cfg.is_autoregressive:
            outputs.append(model.parallel_log_probs(cfg, params, src).data)
            continue
        outputs.append(model.decode_autoregressive_full(cfg, params, enc, src[:-1]).data)
        keys_values = model.source_keys_values(cfg, params, enc)
        outputs += [a for kv in keys_values for a in kv]
        buffer = model.self_attention_buffer(cfg)
        outputs += [model.decode_autoregressive_step(cfg, params, keys_values, src[:n], buffer).data
                    for n in range(length)]
    return outputs


def _scratch_buffer() -> np.ndarray:
    return T._THREAD.scratch.buffer


class TestThreadState:
    """Each thread has its own stack of open tapes, and, while none is open,
    its own scratch buffer for the attention scores and the feed-forward
    hidden layer."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scratch_decodes_equal_the_taped_calls_bit_for_bit(self, variant):
        """Sources that grow, shrink and grow the buffer give the arrays
        that the same calls give under a tape, where every op allocates."""
        fast = _inference_outputs(variant)
        buffer = _scratch_buffer()
        assert buffer.size >= 4 * 48 ** 2 and buffer.size >= 48 * 256  # the encoder's scores and hidden layer
        with GradTape() as tape:
            taped = _inference_outputs(variant)
        assert len(tape) > 0 and _scratch_buffer() is buffer
        assert [a.tobytes() for a in fast] == [a.tobytes() for a in taped]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_returned_array_shares_memory_with_a_scratch_buffer(self, variant):
        outputs = _inference_outputs(variant, lengths=(48, 12))
        shared = [i for i, a in enumerate(outputs) if np.shares_memory(a, _scratch_buffer())]
        assert shared == []

    def test_threads_decoding_long_sources_at_once_give_the_sequential_outputs(self):
        """More threads than cores, switching every 10 µs: a buffer shared
        between threads would be overwritten mid-op."""
        variants = ("deep-encoder", "encoder-decoder", "autoregressive-baseline")
        sequential = {v: [a.tobytes() for a in _inference_outputs(v, lengths=(48, 40, 48))] for v in variants}
        start, parallel = threading.Barrier(len(variants)), {}

        def decode(variant):
            start.wait(timeout=60)
            parallel[variant] = [a.tobytes() for a in _inference_outputs(variant, lengths=(48, 40, 48))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(decode, variants)
        finally:
            sys.setswitchinterval(interval)
        assert parallel == sequential

    def test_a_warm_long_decode_allocates_less_than_two_score_tables(self):
        """A warm greedy decode at source length 48 reuses the thread's
        buffer, so its peak allocation stays below two of its (4, 144,
        144) score tables, which the per-op allocations exceeded."""
        cfg = _long_config("encoder-decoder")
        params = init_params(cfg, 41)
        src = [4 + i % 16 for i in range(48)]
        translate(cfg, params, src)
        tracemalloc.start()
        try:
            translate(cfg, params, src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * cfg.heads * (cfg.k * 48) ** 2 * 8

    def test_a_tape_open_in_another_thread_records_nothing_from_this_one(self):
        cfg = _long_config("encoder-decoder")
        params = init_params(cfg, 41)
        opened, decoded, held = threading.Event(), threading.Event(), []

        def hold():
            with GradTape() as tape:
                held.append(tape)
                opened.set()
                decoded.wait(timeout=60)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert opened.wait(timeout=60)
            translate(cfg, params, [4, 5, 6])
        finally:
            decoded.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(held[0]) == 0

    def test_threads_training_on_their_own_tapes_get_the_sequential_gradients(self):
        """Both tapes stay open while both threads run their forwards, so a
        record on the wrong tape would drop a gradient term."""
        variants = ("encoder-decoder", "autoregressive-baseline")
        sequential = {v: _gradient_digests(v, 0.1) for v in variants}
        both_open, parallel = threading.Barrier(len(variants)), {}

        def train(variant):
            cfg = _parity_config(variant, 0.1)
            params = init_params(cfg, 21)
            pairs, _ = feasible_pairs(cfg, gen_synthetic("duplicate-each-token", 6, 6, (1, 6), seed=22,
                                                         vocab=synthetic_vocab(6)))
            with GradTape() as tape:
                both_open.wait(timeout=60)
                loss = batch_loss(cfg, params, batch_pairs(pairs), dropout_rng=np.random.default_rng(23))
                both_open.wait(timeout=60)
            tape.backward(loss)
            parallel[variant] = [_sha1(loss.data)] + [None if params[n].grad is None else _sha1(params[n].grad)
                                                      for n in sorted(params)]

        run_threads(train, variants)
        assert parallel == sequential
