"""The benchmark tracer's list of wrapped names against the package.

``perfbench/layertrace.py`` replaces each listed function in its module and
each listed method on its class (read from the class's own ``__dict__``); a
renamed or moved name would only fail at a ``--trace 1`` run.  The tracer
file is loaded as it is, without running anything it defines.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("layertrace", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = load_tracer()


@pytest.mark.parametrize("layer", sorted(layertrace.FUNCTIONS))
def test_traced_functions_exist(layer):
    module = importlib.import_module(f"lietorsion.{layer}")
    missing = [f for f in layertrace.FUNCTIONS[layer] if not callable(getattr(module, f, None))]
    assert not missing


@pytest.mark.parametrize("layer", sorted(layertrace.METHODS))
def test_traced_methods_are_defined_on_their_class(layer):
    module = importlib.import_module(f"lietorsion.{layer}")
    for cname, methods in layertrace.METHODS[layer].items():
        cls = getattr(module, cname)
        assert [m for m in methods if m not in cls.__dict__] == []
