"""The PROD dialect writes every string as a JSON string literal, which the
reader reads back as itself, in a marking, an output inscription or a gate;
and every flat net of the sweep reads back.  (Kept apart from test_prod.py,
which the benchmark imports without Hypothesis.)"""

import string
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnets import analysis, guards, prod
from gnets.analysis import FlatNet, FlatPlace, FlatTransition
from test_analysis import sweep_services

TEXTS = st.text(string.printable) | st.text()


def marked(value):
    return FlatNet(places={"p1f": FlatPlace("p1f", ("s",))}, transitions=(),
                   initial={"p1f": [(value,)]}, domains={})


@given(TEXTS)
@settings(max_examples=200, deadline=None)
def test_any_string_token_reads_back(value):
    text = prod.export_prod(marked(value))
    assert prod.reparse_prod(text).initial == {"p1f": [(value,)]}


@pytest.mark.parametrize("value", ["", "a b", "a+b", "<.x.>", "x.>+",
                                   "a+>b<.c", "t;<.u", "#place",
                                   'x"y', "a\nb", "a\rb", "a\u2028b",
                                   "+<.1.>", "a+ b<.c", "\\", "a\\nb",
                                   "\x1e"])
def test_other_strings_read_back(value):
    text = prod.export_prod(marked(value))
    assert prod.reparse_prod(text).initial == {"p1f": [(value,)]}


@given(TEXTS)
@settings(max_examples=200, deadline=None)
def test_output_and_gate_literals_read_back(value):
    """A string in an output inscription and in a gate, beside a `;`,
    `<.` and `.>` that a reader splitting outside strings must skip."""
    t = FlatTransition(
        name="t1", inputs=(("p1l", ("s",)),),
        outputs=(("p2f", (guards.Lit(value), guards.Var("s"))),
                 ("p3f", (guards.Lit(value + ";<.x.>"),))),
        gate=guards.Compare(guards.Var("s"), "!=", guards.Lit(value)),
        origin="t1")
    flat = FlatNet(places={p: FlatPlace(p, ()) for p in ("p1l", "p2f",
                                                          "p3f")},
                   transitions=(t,), initial={}, domains={})
    back = prod.reparse_prod(prod.export_prod(flat))
    assert back.transitions == (t,)


def test_every_sweep_net_reads_back():
    """Every sweep net, flattened and with its initial tokens that still
    hold a domain field left out, as `gnets export` writes it, reads back
    with the same places, transitions and initial marking; among them the
    variables that inlining renamed apart with RENAME_SEP."""
    renamed = 0
    for service, method in sweep_services():
        flat = analysis.flatten(service, method.name)
        flat = replace(flat, initial={
            p: toks for p, toks in flat.initial.items()
            if not any(isinstance(v, analysis.Unresolved)
                       for tok in toks for v in tok)})
        text = prod.export_prod(flat)
        renamed += guards.RENAME_SEP in text
        back = prod.reparse_prod(text)
        assert set(back.places) == set(flat.places)
        assert ({t.name: t for t in back.transitions}
                == {t.name: t for t in flat.transitions})
        assert back.initial == flat.initial
    assert renamed > 0
