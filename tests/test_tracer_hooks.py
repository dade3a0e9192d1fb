"""The benchmark tracer (perfbench/tracer.py) wraps gnets functions by
module and name, and a traced run fails on a missing one.  Checking the
names here makes a rename fail in the test suite too."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.LAYERS]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"gnets.{module}"), attr))
