from dataclasses import replace
from pathlib import Path

from fixtures import book_order_service, branching_bool_service
from gnets import algebra, analysis, guards, prod
from gnets.errors import ParseError

GOLDEN = Path(__file__).parent / "golden" / "book_order.prod"

MALFORMED = [
    "#trans T1\n",
    "#trans T1\nin { P1l: <.x.>; }\nout { P2f: <.x.>; }\ngate ;\n",
    "#place P1f mk(x)\n",
    "#trans T1\nin { P1l <..>; }\nout { ; }\ngate ;\n#endtr\n",
    "#place P1f mk(<.1.>+)\n",
    "#trans T1\nin { P1l: <.1.>; }\nout { ; }\ngate ;\n#endtr\n",
]


def pytest_generate_tests(metafunc):
    # the benchmark imports this module for `normalize` where pytest may be
    # missing, so it parametrizes through this hook, not `pytest.mark`
    if "malformed" in metafunc.fixturenames:
        metafunc.parametrize("malformed", MALFORMED)


def normalize(text):
    """Whitespace-insensitive token stream; the trailing l of a copied-place
    name and the digit 1 render identically in print, so unify them."""
    tokens = []
    for raw in text.split():
        if raw.startswith("P") and raw.rstrip(";:").endswith("1") \
                and raw.rstrip(";:")[1:-1].isdigit():
            raw = raw.replace("1;", "l;").replace("1:", "l:")
            if raw.endswith("1"):
                raw = raw[:-1] + "l"
        tokens.append(raw)
    return tokens


def book_order_flat():
    return replace(analysis.flatten(book_order_service(), "Command"),
                   initial={})


class TestExportProd:
    def test_matches_golden(self):
        text = prod.export_prod(book_order_flat())
        assert normalize(text) == normalize(GOLDEN.read_text())

    def test_structural_counts(self):
        text = prod.export_prod(book_order_flat())
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("#place ")) == 12
        assert sum(1 for l in lines if l.startswith("#trans ")) == 13
        assert sum(1 for l in lines if l == "#endtr") == 13

    def test_gates(self):
        text = prod.export_prod(book_order_flat())
        blocks = {}
        current = None
        for line in text.splitlines():
            if line.startswith("#trans "):
                current = line.split()[1]
            elif line.startswith("gate") and current:
                blocks[current] = line
        assert blocks["T1"] == "gate Available == true;"
        assert blocks["T3"] == "gate Available == false;"
        assert blocks["T4"] == "gate Available == true;"
        assert blocks["T7"] == "gate Available == false;"
        for name in ("T2", "T5", "T6", "T_P1", "T_P6"):
            assert blocks[name] == "gate ;"

    def test_only_a_true_gate_is_left_empty(self):
        """`Lit(1)` equals `guards.TRUE` as a dataclass but is no bool: it
        is written out, not left empty as the always-true gate."""
        gates = {"T2": guards.Lit(1), "T5": guards.TRUE}
        flat = book_order_flat()
        text = prod.export_prod(replace(flat, transitions=[
            replace(t, gate=gates.get(t.name, t.gate))
            for t in flat.transitions]))
        lines = text.splitlines()
        assert lines[lines.index("#trans T2") + 3] == "gate 1;"
        assert lines[lines.index("#trans T5") + 3] == "gate ;"

    def test_copy_transitions_interleaved(self):
        text = prod.export_prod(book_order_flat())
        order = [l.split()[1] for l in text.splitlines()
                 if l.startswith("#trans ")]
        assert order == ["T_P1", "T1", "T_P2", "T2", "T3", "T_P3", "T4",
                        "T_P4", "T5", "T_P5", "T6", "T_P6", "T7"]

    def test_marking_rendering(self):
        flat = analysis.flatten(book_order_service(), "Command",
                                args={"seq": 1})
        initial = [m for m in flat.initial_markings()
                   if m["P1f"][0][1] is True][0]
        text = prod.export_prod(replace(flat, initial=initial))
        assert "#place P1f mk(<.1, true.>)" in text

    def test_multiple_tokens_joined(self):
        flat = replace(book_order_flat(),
                       initial={"P1f": [(1, True), (2, False)]})
        text = prod.export_prod(flat)
        assert "#place P1f mk(<.1, true.>+<.2, false.>)" in text

    def test_empty_tuple(self):
        reg = analysis.Registry() if False else None
        ws = algebra.atomic("A", "op")
        flat = analysis.flatten(ws, "Atomic")
        text = prod.export_prod(flat)
        assert "<..>" in text


class TestRoundTrip:
    def test_reparse_reconstructs(self):
        flat = book_order_flat()
        back = prod.reparse_prod(prod.export_prod(flat))
        assert set(back.places) == set(flat.places)
        assert {p.signature for p in back.places.values()} == \
            {p.signature for p in flat.places.values()}
        by_name = {t.name: t for t in back.transitions}
        for t in flat.transitions:
            other = by_name[t.name]
            assert other.inputs == t.inputs
            assert other.outputs == t.outputs
            assert other.gate == t.gate
            assert other.origin == t.origin

    def test_reparse_markings(self):
        flat = analysis.flatten(branching_bool_service(), "Branch")
        initial = flat.initial_markings()[0]
        back = prod.reparse_prod(prod.export_prod(
            replace(flat, initial=initial)))
        assert back.initial == {p: [tuple(t) for t in toks]
                                for p, toks in initial.items() if toks}

    def test_separators_inside_tuples(self):
        """A "+" or ";" inside a tuple, in a string or an expression,
        splits no token and no arc."""
        flat = book_order_flat()
        transitions = tuple(
            replace(t, outputs=tuple((p, (guards.Lit("c;d"),) + exprs[1:])
                                     for p, exprs in t.outputs))
            if t.name == "T1" else t for t in flat.transitions)
        flat = replace(flat, transitions=transitions,
                       initial={"P1f": [(1, "a+b"), (2, "c;d")]})
        back = prod.reparse_prod(prod.export_prod(flat))
        assert back.initial == flat.initial
        assert {t.name: t for t in back.transitions} == \
            {t.name: t for t in flat.transitions}
        assert prod.reparse_prod("#place P1f mk(<.1 + 2.>+<.3.>)\n"
                                 ).initial == {"P1f": [(3,), (3,)]}

    def test_malformed_input_raises_parse_error(self, malformed):
        try:
            prod.reparse_prod(malformed)
        except ParseError:
            return
        raise AssertionError(f"no ParseError for {malformed!r}")

    def test_reachability_agrees_after_round_trip(self):
        flat = analysis.flatten(branching_bool_service(), "Branch")
        initial = flat.initial_markings()[1]
        graph = analysis.reachability(flat, initial=initial)
        back = replace(prod.reparse_prod(prod.export_prod(
            replace(flat, initial=initial))), domains=flat.domains)
        graph2 = analysis.reachability(back, initial=initial)
        assert set(graph.nodes) == set(graph2.nodes)


class TestExportDot:
    def test_node_and_edge_counts(self):
        ws = algebra.sequence(algebra.atomic("A", "op-a"),
                              algebra.atomic("B", "op-b"))
        text = prod.export_dot(ws)
        struct = ws.net.internal
        assert text.count("shape=box") == len(struct.transitions)
        assert text.count(" -> ") == len(struct.arcs)
        assert text.count("shape=doublecircle") == 1
        assert text.count("shape=ellipse") == 2

    def test_labels_mention_operations(self):
        ws = algebra.atomic("A", "fetch-quote")
        text = prod.export_dot(ws)
        assert "fetch-quote" in text
        assert text.startswith('digraph "A"')
