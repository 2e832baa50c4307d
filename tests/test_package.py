"""Package-wide rules that no single module's tests can check."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ctcnat
from ctcnat import decoding, model, tensor
from ctcnat.ctc import ctc_loss
from ctcnat.data import VocabularyError, synthetic_vocab
from ctcnat.model import (
    ModelConfig,
    decode_autoregressive_full,
    decode_autoregressive_step,
    encode,
    init_params,
    self_attention_buffer,
    source_keys_values,
)

from helpers import REFERENCES, names_in

SRC = Path(ctcnat.__file__).parent
BENCHMARK = SRC.parents[1] / "benchmark"

# Tensor ops that the model calls with no entry in helpers.REFERENCES, each
# its own reference: the reference chains are built on them.
OWN_REFERENCE = {
    "add": "one numpy add and its check, with no fused work to undo",
    "dropout": "one mask draw and multiply, with no check to reorder",
}

# Public names that only tests call, each kept for the acceptance criterion it referees.
TEST_ONLY = {
    "ctc.count_alignments": "criterion 4 checks it against enumerated alignments",
    "ctc.ctc_oracle_loss": "criterion 1 checks ctc_loss against it",
    "evaluation.exact_match_rate": "criterion 7 scores the toy tasks with it",
    "training.sentence_loss": "criterion 11 checks batch_loss against it",
}


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    """Each public function and class of ``ctcnat`` is named by the package
    or by the benchmark's harness. A re-export in ``__init__.py`` is not a
    use, and neither are the tests."""
    named = names_in([*(path for path in SRC.glob("*.py") if path.name != "__init__.py"),
                      *(path for path in BENCHMARK.glob("*.py") if not path.name.startswith("test_"))])
    unnamed = []
    for info in pkgutil.iter_modules(ctcnat.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"ctcnat.{info.name}")
        unnamed += [f"{info.name}.{name}" for name, obj in vars(module).items()
                    if (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__ and not name.startswith("_") and name not in named]
    uncalled = [name for name in unnamed if name not in TEST_ONLY]
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"
    called = [name for name in TEST_ONLY if name not in unnamed]
    assert not called, f"names that gained a caller and should leave TEST_ONLY: {called}"


def test_every_tensor_op_the_model_calls_has_a_reference():
    """``TestReferenceParity`` referees an op only if ``helpers.REFERENCES``
    patches its chain into the model, so no fused op lands without one."""
    bound = {name for name, obj in vars(model).items()
             if inspect.isfunction(obj) and obj.__module__ == tensor.__name__}
    unrefereed = bound - set(REFERENCES[tensor])
    assert unrefereed == set(OWN_REFERENCE), f"no reference: {sorted(unrefereed)}; listed: {sorted(OWN_REFERENCE)}"


def test_tensor_states_its_non_finite_rule_once():
    """``tensor.py`` reports a non-finite value in one place: only
    ``_raise_non_finite`` constructs a ``NumericError``, and no handler there
    catches one, so no op can raise an error only to re-raise it amended."""
    tree = ast.parse(Path(tensor.__file__).read_text())
    constructed_in = [getattr(top, "name", type(top).__name__) for top in tree.body for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "NumericError"]
    assert constructed_in == ["_raise_non_finite"]
    catching = {"NumericError", "ArithmeticError", "Exception", "BaseException"}
    handlers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                and (node.type is None or catching & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)})]
    assert handlers == [], f"handlers that can catch NumericError at lines {handlers}"


def _module_level_containers(module) -> list[str]:
    """The names of the lists, dicts and sets bound at a module's level,
    which every thread would share."""
    return [name for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set))]


def test_tensor_keeps_no_module_level_container():
    """``tensor`` keeps the tape stack and the scratch buffer per thread,
    in a ``threading.local``."""
    assert _module_level_containers(tensor) == []


def test_decoding_keeps_no_module_level_container():
    """The prefix beam search keeps its prefix trie local to the call, so
    no trie or cache outlives it or is shared between threads."""
    assert _module_level_containers(decoding) == []


def test_data_owns_the_id_rule_and_ctc_the_table_rule():
    """Only ``data.py`` constructs a ``VocabularyError``, so every id check
    goes through ``data.token_ids``. ``decoding.py`` defines no function
    that looks for NaN or inf: the decoders check a table by ``ctc``'s rule."""
    constructed = [path.name for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None)) == "VocabularyError"]
    assert set(constructed) == {"data.py"}, constructed
    tree = ast.parse(Path(decoding.__file__).read_text())
    table_checks = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and any(isinstance(n, ast.Attribute) and n.attr in {"inf", "isfinite", "isnan", "isinf"}
                            for n in ast.walk(node))]
    assert table_checks == []


def test_model_owns_the_family_rule():
    """Outside ``model.py`` no string constant names a model family, so every
    family check goes through ``model.check_family`` and its one message."""
    families = ("autoregressive-baseline", "parallel-labeling")
    named = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(family in node.value for family in families)]
    assert named == []


V = 9  # the vocab_size of every id entry point below


def _id_entry_points() -> dict:
    """Each entry point that takes ids, by name: the lowest id it admits
    and a call with ``ids``. Each admits ids up to V."""
    cfg = ModelConfig(vocab_size=V, d_model=8, ff_dim=16, heads=2, enc_layers=1, dec_layers=1,
                      variant="autoregressive-baseline", max_len=8, dropout_rate=0.0)
    params = init_params(cfg, 0)
    enc = encode(cfg, params, [4, 5])
    src = source_keys_values(cfg, params, enc)
    table = np.log(np.full((6, V + 1), 1.0 / (V + 1)))
    return {
        "encode": (0, lambda ids: encode(cfg, params, ids)),
        "decode_ids": (0, synthetic_vocab(V - 3).decode_ids),
        "decode_autoregressive_full": (1, lambda ids: decode_autoregressive_full(cfg, params, enc, ids)),
        "decode_autoregressive_step": (
            1, lambda ids: decode_autoregressive_step(cfg, params, src, ids, self_attention_buffer(cfg))),
        "ctc_loss": (1, lambda ids: ctc_loss(table, ids)),
    }


@pytest.mark.parametrize("entry", ["encode", "decode_ids", "decode_autoregressive_full",
                                   "decode_autoregressive_step", "ctc_loss"])
@pytest.mark.parametrize("past", ["below", "above"])
def test_every_id_entry_point_rejects_an_id_out_of_its_range_with_one_message(entry, past):
    """The blank id is below the range of the AR targets and the CTC labels."""
    lowest, call = _id_entry_points()[entry]
    bad = lowest - 1 if past == "below" else V + 1
    with pytest.raises(VocabularyError, match=rf"^token id {bad} outside {lowest}\.\.{V}$"):
        call([4, bad])
