"""Package-wide rules that no single module's tests can check."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import ctcnat
from ctcnat import cli, decoding, model, tensor
from ctcnat.bench import bench_decode
from ctcnat.ctc import InputError, count_alignments, ctc_loss
from ctcnat.data import CorpusError, SentencePair, VocabularyError, build_vocab, gen_synthetic, synthetic_vocab
from ctcnat.decoding import DecodeOptions, OptionError, check_max_steps, translate
from ctcnat.model import (
    ConfigError,
    ModelConfig,
    decode_autoregressive_full,
    decode_autoregressive_step,
    encode,
    init_params,
    self_attention_buffer,
    source_keys_values,
)
from ctcnat.training import TrainConfig

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


def _ar_model():
    """A small autoregressive baseline of vocab_size V and max_len 8, with its parameters."""
    cfg = ModelConfig(vocab_size=V, d_model=8, ff_dim=16, heads=2, enc_layers=1, dec_layers=1,
                      variant="autoregressive-baseline", max_len=8, dropout_rate=0.0)
    return cfg, init_params(cfg, 0)


def _id_entry_points() -> dict:
    """Each entry point that takes ids, by name: the lowest id it admits
    and a call with ``ids``. Each admits ids up to V."""
    cfg, params = _ar_model()
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


# Each settings class, its error and the settings it needs besides defaults.
SETTINGS_CLASSES = {ModelConfig: (ConfigError, {"vocab_size": V}), TrainConfig: (ConfigError, {}),
                    DecodeOptions: (OptionError, {})}
INT_FIELDS = [pytest.param(cls, field.name, id=f"{cls.__name__}.{field.name}")
              for cls in SETTINGS_CLASSES for field in dataclasses.fields(cls)
              if typing.get_type_hints(cls)[field.name] is int]


@pytest.mark.parametrize("cls, name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, True])
def test_every_int_field_of_a_settings_class_rejects_a_non_integer(cls, name, value):
    """Each field typed ``int`` goes through ``data.check_integer``, so a
    new count field cannot skip the rule: a float or a bool is not a count,
    even when it equals one."""
    error, given = SETTINGS_CLASSES[cls]
    with pytest.raises(error, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        cls(**{**given, name: value})


@pytest.mark.parametrize("cls, name", INT_FIELDS)
def test_every_int_field_of_a_settings_class_accepts_a_numpy_integer(cls, name):
    given = SETTINGS_CLASSES[cls][1]
    default = getattr(cls(**given), name)
    assert getattr(cls(**{**given, name: np.int64(default)}), name) == default


def _setting_entry_points() -> dict:
    """Each entry point that takes an integer setting outside the settings
    classes, by name: its error, the setting's name, its range and a call
    with the setting. The CLI's flags arrive as ints from argparse."""
    cfg, params = _ar_model()
    pair = SentencePair((4, 5), (4, 5), "", "")
    return {
        "check_max_steps": (OptionError, "max_steps", 0, 8, lambda v: check_max_steps(cfg, v)),
        "translate": (OptionError, "max_steps", 0, 8, lambda v: translate(cfg, params, [4, 5], DecodeOptions(), v)),
        "bench_decode": (ConfigError, "reps", 3, math.inf,
                         lambda v: bench_decode([pair], modes=("AR-greedy",), ar_model=(cfg, params), reps=v)),
        "build_vocab": (VocabularyError, "min_freq", 1, math.inf, lambda v: build_vocab(["a b"], min_freq=v)),
        "synthetic_vocab": (VocabularyError, "vocab_size", 2, math.inf, synthetic_vocab),
        "gen_synthetic-shortest": (CorpusError, "len_range[0]", 1, math.inf,
                                   lambda v: gen_synthetic("copy", 4, 2, (v, 3), 0)),
        "gen_synthetic-longest": (CorpusError, "len_range[1]", 3, math.inf,
                                  lambda v: gen_synthetic("copy", 4, 2, (3, v), 0)),
        "count_alignments": (InputError, "T", 0, math.inf, lambda v: count_alignments(v, [4])),
        "cli-reps": (cli.UsageError, "--reps", 3, math.inf,
                     lambda v: cli.cmd_bench(argparse.Namespace(ar_model="ar.bin", nar_model=None, reps=v))),
        "cli-n": (cli.UsageError, "--n", 1, math.inf, lambda v: cli.cmd_synth(argparse.Namespace(n=v))),
    }


SETTING_ENTRIES = ["check_max_steps", "translate", "bench_decode", "build_vocab", "synthetic_vocab",
                   "gen_synthetic-shortest", "gen_synthetic-longest", "count_alignments", "cli-reps", "cli-n"]
TWO_SIDED = ["check_max_steps", "translate"]


@pytest.mark.parametrize("entry, bad", [
    *((entry, bad) for entry in SETTING_ENTRIES for bad in ("float", "bool", "below")),
    *((entry, "above") for entry in TWO_SIDED),
])
def test_every_setting_entry_point_rejects_a_bad_setting_with_one_message(entry, bad):
    error, name, lowest, highest, call = _setting_entry_points()[entry]
    value = {"float": 2.5, "bool": True, "below": lowest - 1, "above": highest + 1}[bad]
    if bad in ("float", "bool"):
        message = f"{name} must be an integer, got {value!r}"
    elif highest == math.inf:
        message = f"{name} must be >= {lowest}, got {value}"
    else:
        message = f"{name} must be in {lowest}..{highest}, got {value}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", [entry for entry in SETTING_ENTRIES if not entry.startswith("cli-")])
def test_every_setting_entry_point_accepts_a_numpy_integer(entry):
    _, _, lowest, highest, call = _setting_entry_points()[entry]
    call(np.int64(lowest))
    if highest != math.inf:
        call(np.int64(highest))
