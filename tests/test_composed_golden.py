"""Pins the net every composition operator builds.  tests/golden/composed.json
maps a term's text to `io.service_to_dict` of the service it composes to;
each term must recompose to exactly that and print back to its own text.

Regenerate the file (only when an operator's output is meant to change) with
    PYTHONPATH=src python tests/test_composed_golden.py
"""

import json
from pathlib import Path

import pytest

from fixtures import treat_command_block
from gnets import algebra, dsl, io
from gnets.model import Registry

GOLDEN = Path(__file__).parent / "golden" / "composed.json"

TERMS = (
    "empty",
    "seq(a, b)",
    "alt(a, b)",
    "iter(a)",
    "anyseq(a, b)",
    "par(a, b)",
    "disc(a, b; c)",
    "select(a, b, c)",
    'refine(a, "op-a", B)',
    "replace(seq(a, b), a, c)",
)


def make_registry():
    reg = Registry()
    for name in ("a", "b", "c"):
        reg.insert(algebra.with_request_method(
            algebra.atomic(name, f"op-{name}")))
    reg.insert_block("B", treat_command_block())
    return reg


def composed(text):
    ws = dsl.eval_expr(dsl.parse_expr(text), make_registry())
    return json.loads(json.dumps(io.service_to_dict(ws)))


@pytest.mark.parametrize("text", TERMS)
def test_operator_output_matches_golden(text):
    golden = json.loads(GOLDEN.read_text())
    assert composed(text) == golden[text]


@pytest.mark.parametrize("text", TERMS)
def test_term_text_round_trips(text):
    assert dsl.print_expr(dsl.parse_expr(text)) == text


def test_golden_covers_every_term():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(TERMS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({t: composed(t) for t in TERMS}, indent=1)
                      + "\n")
