"""The benchmark tracer (perfbench/tracer.py) wraps gnets functions by
module and name, and a traced run fails on a missing one.  Checking the
names here makes a rename fail in the test suite too."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gnets import algebra, model

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.LAYERS]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"gnets.{module}"), attr))


def test_leaf_views_make_no_natural_key_call(monkeypatch):
    """A traced run needs the same calls in every pass, but views are cached
    on registry leaves that live through all passes: building them must not
    call natural_key, or only the first pass would count those calls."""
    calls = []
    key = model.natural_key
    monkeypatch.setattr(model, "natural_key",
                        lambda ident: calls.append(ident) or key(ident))
    leaf = algebra.with_request_method(algebra.atomic("a", "op-a"))
    struct = leaf.net.internal
    for node in [p.id for p in struct.places] + list(struct.transitions):
        struct.pre(node)
        struct.post(node)
    assert struct.place_map
    assert calls == []
