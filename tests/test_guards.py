import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnets import guards
from gnets.errors import ParseError, TypeMismatch, UnboundVariable
from gnets.guards import (Assign, Atom, BinOp, Compare, Lit, Not, Or, And,
                         Var, parse_action, parse_condition, parse_expr,
                         parse_inscription, print_action, print_condition,
                         print_expr, print_inscription)

names = st.sampled_from(["x", "y", "seq", "Available", "B", "J", "resp", "q_2"])
values = st.one_of(st.integers(min_value=0, max_value=999), st.booleans(),
                   st.text(alphabet="abcz -", max_size=6))


def exprs(depth=3):
    base = st.one_of(values.map(Lit), names.map(Var))
    return st.recursive(
        base,
        lambda inner: st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
        max_leaves=8)


def conditions():
    comparisons = st.builds(Compare, exprs(), st.sampled_from(
        ["==", "!=", "<", "<=", ">", ">="]), exprs())
    base = st.one_of(st.builds(Atom, st.booleans().map(Lit)), comparisons)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner)),
        max_leaves=8)


def actions():
    return st.lists(st.builds(Assign, names, exprs()), max_size=4).map(tuple)


class TestRoundTrip:
    @given(exprs())
    def test_expr(self, e):
        assert parse_expr(print_expr(e)) == e

    @given(conditions())
    def test_condition(self, c):
        assert parse_condition(print_condition(c)) == c

    @given(actions())
    def test_action(self, a):
        assert parse_action(print_action(a)) == a

    @given(st.lists(exprs(), max_size=4).map(tuple))
    def test_inscription(self, ins):
        assert parse_inscription(print_inscription(ins)) == ins


class TestParsing:
    def test_common_literals(self):
        assert parse_condition("B == true") == Compare(Var("B"), "==",
                                                       Lit(True))
        assert parse_action("B := true") == (Assign("B", Lit(True)),)
        assert parse_condition("Available == false") == Compare(
            Var("Available"), "==", Lit(False))

    def test_empty_texts(self):
        assert parse_condition("") is guards.TRUE
        assert parse_condition("   ") is guards.TRUE
        assert parse_action("") == ()
        assert parse_inscription("") == ()

    def test_precedence(self):
        assert parse_expr("1 + 2 * 3") == BinOp("+", Lit(1),
                                                BinOp("*", Lit(2), Lit(3)))
        assert parse_expr("(1 + 2) * 3") == BinOp("*",
                                                  BinOp("+", Lit(1), Lit(2)),
                                                  Lit(3))
        # && binds tighter than ||, comparisons tighter than !
        c = parse_condition("a == 1 || b == 2 && c == 3")
        assert isinstance(c, Or)
        assert isinstance(c.right, And)
        assert parse_condition("!x == 1") == Not(Compare(Var("x"), "==",
                                                         Lit(1)))

    @pytest.mark.parametrize("text", ["!(a && b)", "!(a || b)",
                                      "!(a && b) || !(c || d)"])
    def test_negation_prints_one_pair_of_parentheses(self, text):
        assert print_condition(parse_condition(text)) == text

    def test_multi_assignment(self):
        assert parse_action("a := 1; b := a + 1") == (
            Assign("a", Lit(1)),
            Assign("b", BinOp("+", Var("a"), Lit(1))))

    def test_string_literal(self):
        assert parse_expr('"hi there"') == Lit("hi there")

    @pytest.mark.parametrize("bad", ["1 +", "a ==", "x := 1", "(a", '"oops',
                                     "a b", "&& a"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_condition(bad)

    def test_action_requires_target(self):
        with pytest.raises(ParseError):
            parse_action("1 := 2")

    def test_only_decimal_digits_make_a_number(self):
        """A superscript two is a digit to `str.isdigit` but not to
        `int()`: the lexer rejects it instead of raising ValueError."""
        with pytest.raises(ParseError):
            parse_condition("x == \u00b2")

    def test_renamed_identifier(self):
        name = f"x{guards.RENAME_SEP}i2"
        assert parse_expr(f"{name} + 1") == BinOp("+", Var(name), Lit(1))


class TestStringLiteral:
    """A string literal is a JSON string."""

    @given(st.text(string.printable) | st.text())
    def test_any_text_reads_back(self, value):
        assert parse_expr(guards.lit_text(value)) == Lit(value)

    def test_plain_text_prints_between_quotes(self):
        assert guards.lit_text("a b-c") == '"a b-c"'

    def test_quote_backslash_and_line_break_are_escaped(self):
        assert guards.lit_text('say "hi"\\\n') == '"say \\"hi\\"\\\\\\n"'
        assert parse_expr('"a\\\\b"') == Lit("a\\b")

    def test_raw_line_break_reads_as_itself(self):
        assert parse_expr('"a\nb"') == Lit("a\nb")

    @pytest.mark.parametrize("bad", ['"a\\qb"', '"\\u12"', '"a\\'])
    def test_malformed_literal_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)


class TestEvaluation:
    def test_arithmetic(self):
        e = parse_expr("x * (y + 2) - 1")
        assert guards.eval_expr(e, {"x": 3, "y": 4}) == 17

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            guards.eval_expr(Var("nope"), {})

    def test_arith_type_error(self):
        with pytest.raises(TypeMismatch):
            guards.eval_expr(parse_expr("x + 1"), {"x": True})

    def test_comparisons(self):
        env = {"a": 2, "b": 2, "s": "hi"}
        assert guards.eval_condition(parse_condition("a == b"), env)
        assert guards.eval_condition(parse_condition("a <= b && a >= b"), env)
        assert not guards.eval_condition(parse_condition("a != b"), env)
        assert guards.eval_condition(parse_condition('s == "hi"'), env)

    def test_cross_type_comparison_rejected(self):
        with pytest.raises(TypeMismatch):
            guards.eval_condition(parse_condition("a == true"), {"a": 1})
        with pytest.raises(TypeMismatch):
            guards.eval_condition(parse_condition('s < "a"'), {"s": "b"})

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeMismatch):
            guards.eval_condition(Atom(Lit(3)), {})

    def test_action_sequencing(self):
        env = guards.eval_action(parse_action("a := 1; b := a + 1"), {})
        assert env == {"a": 1, "b": 2}

    def test_action_does_not_mutate(self):
        env = {"a": 0}
        guards.eval_action(parse_action("a := 9"), env)
        assert env == {"a": 0}

    @given(actions(), st.dictionaries(names, st.integers(0, 99)))
    @settings(max_examples=50)
    def test_eval_action_referentially_transparent(self, a, env):
        try:
            first = guards.eval_action(a, env)
        except (UnboundVariable, TypeMismatch):
            return
        assert guards.eval_action(a, env) == first


class TestCompileActions:
    def test_sequential_substitution(self):
        mapping = guards.compile_actions(parse_action("a := a + 1; b := a"))
        # b's expression must refer to the *pre-action* value of a
        assert mapping["b"] == BinOp("+", Var("a"), Lit(1))

    @given(actions(), st.dictionaries(names, st.integers(0, 99)))
    @settings(max_examples=50)
    def test_agrees_with_eval(self, a, env):
        try:
            direct = guards.eval_action(a, env)
        except (UnboundVariable, TypeMismatch):
            return
        mapping = guards.compile_actions(a)
        for var, expr in mapping.items():
            assert guards.eval_expr(expr, env) == direct[var]


class TestVars:
    def test_expr_vars(self):
        assert guards.expr_vars(parse_expr("x + y * x")) == {"x", "y"}

    def test_condition_vars(self):
        assert guards.condition_vars(
            parse_condition("a == 1 && !(b < c)")) == {"a", "b", "c"}

    def test_subst(self):
        e = guards.subst_expr(parse_expr("x + y"), {"x": Lit(5)})
        assert e == BinOp("+", Lit(5), Var("y"))

    @given(conditions())
    def test_subst_condition_identity(self, c):
        identity = {n: Var(n) for n in guards.condition_vars(c)}
        assert guards.subst_condition(c, identity) == c

    @given(conditions())
    def test_subst_condition_renames_vars(self, c):
        names = guards.condition_vars(c)
        renamed = guards.subst_condition(
            c, {n: Var(f"{n}_r") for n in names})
        assert guards.condition_vars(renamed) == {f"{n}_r" for n in names}
