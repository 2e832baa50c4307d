"""Package-wide rules that no single module's tests can check."""

import importlib
import inspect
import pkgutil
from pathlib import Path

import ctcnat

from helpers import names_in

SRC = Path(ctcnat.__file__).parent
BENCHMARK = SRC.parents[1] / "benchmark"

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
