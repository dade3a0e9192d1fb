import gc
import string
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import treat_command_block
from gnets import algebra, dsl, guards
from gnets.errors import ParseError, UnknownBlock, UnknownService
from gnets.model import Registry, validate


def make_registry():
    reg = Registry()
    for name, op in (("a", "op-a"), ("b", "op-b"), ("c", "op-c"),
                     ("book-store", "sell")):
        reg.insert(algebra.with_request_method(algebra.atomic(name, op)))
    reg.insert_block("B", treat_command_block())
    return reg


refs = st.sampled_from(["a", "b", "c", "book-store"]).map(dsl.Ref)


def terms(max_depth=4):
    def extend(inner):
        return st.one_of(
            st.builds(dsl.Seq, inner, inner),
            st.builds(dsl.Alt, inner, inner),
            st.builds(dsl.Iter, inner),
            st.builds(dsl.AnySeq, inner, inner),
            st.builds(dsl.Par, inner, inner),
            st.builds(dsl.Disc, st.lists(inner, min_size=1, max_size=3)
                      .map(tuple), inner),
            st.builds(dsl.Select, st.lists(refs, min_size=1, max_size=3)
                      .map(tuple)),
            st.builds(dsl.Refine, inner,
                      st.sampled_from(["op-a", "op-b", "Nothing"]),
                      st.just("B")),
            st.builds(dsl.Replace, inner, refs, refs),
        )
    return st.recursive(st.one_of(st.just(dsl.Empty()), refs), extend,
                        max_leaves=6)


class TestParsing:
    def test_keywords(self):
        assert dsl.parse_expr("empty") == dsl.Empty()
        assert dsl.parse_expr("seq(a, b)") == dsl.Seq(dsl.Ref("a"),
                                                      dsl.Ref("b"))
        assert dsl.parse_expr("iter(a)") == dsl.Iter(dsl.Ref("a"))

    def test_chain_sugar_left_assoc(self):
        assert dsl.parse_expr("a >> b >> c") == dsl.Seq(
            dsl.Seq(dsl.Ref("a"), dsl.Ref("b")), dsl.Ref("c"))

    def test_disc_separator(self):
        term = dsl.parse_expr("disc(a, b; c)")
        assert term == dsl.Disc((dsl.Ref("a"), dsl.Ref("b")), dsl.Ref("c"))

    def test_refine_arguments(self):
        term = dsl.parse_expr('refine(a, "Treat-Command", B)')
        assert term == dsl.Refine(dsl.Ref("a"), "Treat-Command", "B")

    def test_hyphenated_identifiers(self):
        assert dsl.parse_expr("book-store") == dsl.Ref("book-store")

    def test_comments_and_whitespace(self):
        text = """
        # build the order pipeline
        seq(a,  # first
            b)  # second
        """
        assert dsl.parse_expr(text) == dsl.Seq(dsl.Ref("a"), dsl.Ref("b"))

    def test_parenthesized_chain(self):
        assert dsl.parse_expr("(a >> b)") == dsl.Seq(dsl.Ref("a"),
                                                     dsl.Ref("b"))

    @pytest.mark.parametrize("bad", [
        "", "seq(a)", "seq(a, b, c)", "iter()", "disc(a, b)",
        "refine(a, op, B)", 'refine(a, "op")', "a >>", "select()",
        "seq(seq, b)", "a b", "replace(a, b)",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            dsl.parse_expr(bad)

    @given(terms())
    @settings(max_examples=200)
    def test_round_trip(self, term):
        assert dsl.parse_expr(dsl.print_expr(term)) == term

    @given(st.text(string.printable) | st.text())
    def test_refine_operation_name_round_trip(self, name):
        """The operation name is a string literal of the guard language:
        any text prints escaped and reads back, a `#` or `)` included."""
        term = dsl.Refine(dsl.Ref("a"), name, "B")
        assert dsl.parse_expr(dsl.print_expr(term)) == term


class TestScanner:
    """The composition lexicon's tokens and errors, pinned to the values that
    the per-character lexer this scanner replaced gave for the same texts."""

    @pytest.mark.parametrize("text, expected", [
        ("\u00b2x", "at 0: unexpected character '\u00b2'"),
        ("x\u00b2", [(("IDENT", "x\u00b2"), 0), ("EOF", 2)]),
        ("\u0663", "at 0: unexpected character '\u0663'"),
        ("\u216b", "at 0: unexpected character '\u216b'"),
        ("a\u00a7b", "at 1: unexpected character '\u00a7'"),
        ("\u00a7a", "at 0: unexpected character '\u00a7'"),
        ("a-b", [(("IDENT", "a-b"), 0), ("EOF", 3)]),
        ("a -b", "at 2: unexpected character '-'"),
        ("# c", [("EOF", 3)]),
        ("a # c\nb", [(("IDENT", "a"), 0), (("IDENT", "b"), 6), ("EOF", 7)]),
        (" a", [(("IDENT", "a"), 1), ("EOF", 2)]),
        ("=", "at 0: unexpected character '='"),
        ("&", "at 0: unexpected character '&'"),
        ("|", "at 0: unexpected character '|'"),
        (":", "at 0: unexpected character ':'"),
        (".", "at 0: unexpected character '.'"),
        ("<=>", "at 0: unexpected character '<'"),
        (">>>", "at 2: unexpected character '>'"),
        ('"\\q"', "at 1: bad string: Invalid \\escape"),
        ('"a', "at 0: unterminated string literal"),
        ("a >> b(c, d; e)", [
            (("IDENT", "a"), 0), (">>", 2), (("IDENT", "b"), 5), ("(", 6),
            (("IDENT", "c"), 7), (",", 8), (("IDENT", "d"), 10), (";", 11),
            (("IDENT", "e"), 13), (")", 14), ("EOF", 15)]),
    ])
    def test_tokens_and_errors(self, text, expected):
        try:
            got = guards.scan(text, dsl.LEXICON)
        except ParseError as exc:
            got = str(exc)
        assert got == expected


class TestEvaluation:
    def test_lookup(self):
        reg = make_registry()
        assert dsl.eval_expr(dsl.parse_expr("a"), reg).name == "a"

    def test_registry_dies_with_its_last_reference(self):
        """Without the collector, a registry copy that a term was composed
        into dies with its last reference: the evaluator makes no cycle."""
        gc.disable()
        try:
            reg = make_registry().copy()
            dsl.eval_expr(dsl.parse_expr(
                'seq(a, disc(b, c; refine(select(a, b), "op-a", B)))'), reg)
            ref = weakref.ref(reg)
            del reg
            assert ref() is None
        finally:
            gc.enable()

    def test_unknown_service(self):
        with pytest.raises(UnknownService):
            dsl.eval_expr(dsl.parse_expr("ghost"), make_registry())

    def test_unknown_block(self):
        reg = make_registry()
        with pytest.raises(UnknownBlock):
            dsl.eval_expr(dsl.parse_expr('refine(a, "op-a", nope)'), reg)

    def test_composition_registers_intermediates(self):
        reg = make_registry()
        ws = dsl.eval_expr(dsl.parse_expr("seq(a, alt(b, c))"), reg)
        assert ws.name == "Seq(a,Alt(b,c))"
        assert "Alt(b,c)" in reg.services
        assert reg.lookup(ws.name) is ws

    def test_evaluated_terms_validate(self):
        reg = make_registry()
        text = "disc(a >> b, c; select(a, b)) >> iter(empty)"
        ws = dsl.eval_expr(dsl.parse_expr(text), reg)
        assert validate(ws).ok

    def test_reevaluation_is_stable(self):
        reg = make_registry()
        term = dsl.parse_expr("par(a, b)")
        first = dsl.eval_expr(term, reg)
        second = dsl.eval_expr(term, reg)
        assert first == second

    @given(terms())
    @settings(max_examples=100, deadline=None)
    def test_closure_under_random_terms(self, term):
        reg = make_registry()
        ws = dsl.eval_expr(term, reg)
        assert validate(ws).ok
