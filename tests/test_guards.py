import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnets import guards
from gnets.errors import ParseError, TypeMismatch, UnboundVariable
from gnets.guards import (Assign, BinOp, Compare, Lit, Not, Or, And,
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
    base = st.one_of(st.booleans().map(Lit), comparisons)
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner)),
        max_leaves=8)


def mixed():
    """Trees of every node kind in any position: conditions as
    arithmetic and comparison operands, `Not` over a comparison."""
    base = st.one_of(st.integers(min_value=-99, max_value=-1).map(Lit),
                     values.map(Lit), names.map(Var))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
            st.builds(Compare, inner, st.sampled_from(
                ["==", "!=", "<", "<=", ">", ">="]), inner),
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner)),
        max_leaves=10)


def actions():
    return st.lists(st.builds(Assign, names, exprs()), max_size=4).map(tuple)


class TestRoundTrip:
    @given(exprs())
    def test_expr(self, e):
        assert parse_expr(print_expr(e)) == e

    @given(conditions())
    def test_condition(self, c):
        assert parse_condition(print_condition(c)) == c

    @given(mixed())
    @example(Compare(Compare(Var("a"), "<", Var("b")), "==", Lit(True)))
    @example(BinOp("*", Or(Var("a"), Var("b")), Not(Var("c"))))
    @example(Not(Compare(Not(Var("a")), "!=", And(Var("b"), Var("c")))))
    def test_mixed_tree_at_both_levels(self, e):
        assert parse_condition(print_condition(e)) == e
        assert parse_expr(print_expr(e)) == e
        assert parse_inscription(print_inscription((e, e))) == (e, e)

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

    # each text with its printed form, recorded from the recursive-descent
    # parser that the precedence ladder replaced
    @pytest.mark.parametrize("text, printed", [
        ("!x == 1", "!x == 1"),
        ("a == 1 || b == 2 && c == 3", "a == 1 || b == 2 && c == 3"),
        ("!(a && b) || !(c || d)", "!(a && b) || !(c || d)"),
        ("(a) == 1", "a == 1"),
        ("(a + b) * 3 == c", "(a + b) * 3 == c"),
        ("-(x)", "0 - x"),
        ("((a == 1))", "a == 1"),
        ("!!a", "!!a"),
        ("(a || b) && c", "(a || b) && c"),
        ("a || (b || c)", "a || (b || c)"),
        ("a && (b && c)", "a && (b && c)"),
        ("!(a == 1) && b", "!a == 1 && b"),
        ("x - (y - z)", "x - (y - z)"),
        ("-3 * -x", "-3 * (0 - x)"),
        ("(x * 2) + -1 != y", "x * 2 + -1 != y"),
        ('"s" == s || !(t)', '"s" == s || !t'),
        ("((a && b)) || c", "a && b || c"),
        ("(a + 1) < (b)", "a + 1 < b"),
        # minus folds into an int literal only, never into a bool
        ("-true", "0 - true"),
        ("x == -false", "x == 0 - false"),
    ])
    def test_prints_as_before(self, text, printed):
        assert print_condition(parse_condition(text)) == printed

    @pytest.mark.parametrize("bad", ["1 +", "a ==", "x := 1", "(a", '"oops',
                                     "a b", "&& a", "a == b == c",
                                     "a < b < c", "!a == b == c",
                                     "false || a != 1 <= 1",
                                     "a && b == c == d", "a == !b"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_condition(bad)

    @pytest.mark.parametrize("text", ["a == 1", "!a", "a && b", "a || b"])
    def test_expression_level_takes_a_condition_in_parentheses(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)
        assert parse_expr(f"({text})") == parse_condition(text)
        assert print_expr(parse_condition(text)) == f"({text})"

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


class TestScanner:
    """The guard lexicon's tokens and errors, pinned to the values that the
    per-character lexer this scanner replaced gave for the same texts."""

    @pytest.mark.parametrize("text, expected", [
        ("\u00b2x", "at 0: unexpected character '\u00b2'"),
        ("x\u00b2", [(("IDENT", "x\u00b2"), 0), ("EOF", 2)]),
        ("\u0663", [(("INT", 3), 0), ("EOF", 1)]),
        ("\u216b", "at 0: unexpected character '\u216b'"),
        ("a\u00a7b", [(("IDENT", "a\u00a7b"), 0), ("EOF", 3)]),
        ("\u00a7a", "at 0: unexpected character '\u00a7'"),
        ("a-b", [(("IDENT", "a"), 0), ("-", 1), (("IDENT", "b"), 2),
                 ("EOF", 3)]),
        ("a -b", [(("IDENT", "a"), 0), ("-", 2), (("IDENT", "b"), 3),
                  ("EOF", 4)]),
        ("# c", "at 0: unexpected character '#'"),
        ("a # c\nb", "at 2: unexpected character '#'"),
        (" a", [(("IDENT", "a"), 1), ("EOF", 2)]),
        ("=", "at 0: unexpected character '='"),
        ("&", "at 0: unexpected character '&'"),
        ("|", "at 0: unexpected character '|'"),
        (":", "at 0: unexpected character ':'"),
        (".", "at 0: unexpected character '.'"),
        ("<=>", [("<=", 0), (">", 2), ("EOF", 3)]),
        (">>>", [(">", 0), (">", 1), (">", 2), ("EOF", 3)]),
        ('"\\q"', "at 1: bad string: Invalid \\escape"),
        ('"a', "at 0: unterminated string literal"),
        ('x := \u06632 + 10; y := "s\\n"', [
            (("IDENT", "x"), 0), (":=", 2), (("INT", 32), 5), ("+", 8),
            (("INT", 10), 10), (";", 12), (("IDENT", "y"), 14), (":=", 16),
            (("STR", "s\n"), 19), ("EOF", 24)]),
    ])
    def test_tokens_and_errors(self, text, expected):
        try:
            got = guards.scan(text, guards.LEXICON)
        except ParseError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("name, ok", [
        ("p1", True), ("b1\u00a7A", True), ("_x", True), ("p 1", False),
        ("a-b", False), ("1p", False), ("\u00b2x", False), ("", False),
        (" a", False), ("a ", False), ("true", False), ("false", False),
        ("trues", True)])
    def test_is_identifier(self, name, ok):
        assert guards.is_identifier(name) is ok


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
            guards.eval_condition(Lit(3), {})

    @pytest.mark.parametrize("text, env, value", [
        ("(1 < b) != false", {"b": 2}, True),
        ("(a == 1) == (b == 2)", {"a": 1, "b": 3}, False),
        ("(1 < 2) + 1", {}, TypeMismatch),
        ("-(a == 1)", {"a": 1}, TypeMismatch),
        ("(1 < 2) < (2 < 3)", {}, TypeMismatch),
        ("!1 == 1", {}, False),
        ("!(1 + 1)", {}, TypeMismatch),
        ("(a && b) == 1", {"a": True, "b": True}, TypeMismatch),
        ("(a || 1) == true", {"a": True}, True),
        ("(a || 1) == true", {"a": False}, TypeMismatch),
        ("-true", {}, TypeMismatch),
        ("x == -false", {"x": 0}, TypeMismatch),
    ])
    def test_condition_operands_keep_the_type_rules(self, text, env, value):
        """A condition read as an operand evaluates to a bool: arithmetic
        on it and its ordered comparison raise TypeMismatch, as on a bool
        attribute; `&&`, `||` and `!` need bools and short-circuit."""
        for e in (parse_condition(text), parse_expr(f"({text})")):
            if value is TypeMismatch:
                with pytest.raises(TypeMismatch):
                    guards.eval_expr(e, env)
            else:
                assert guards.eval_expr(e, env) is value

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
        assert guards.expr_vars(
            parse_condition("a == 1 && !(b < c)")) == {"a", "b", "c"}

    def test_subst(self):
        e = guards.subst_expr(parse_expr("x + y"), {"x": Lit(5)})
        assert e == BinOp("+", Lit(5), Var("y"))

    @given(conditions())
    def test_subst_condition_identity(self, c):
        identity = {n: Var(n) for n in guards.expr_vars(c)}
        assert guards.subst_expr(c, identity) == c

    @given(conditions())
    def test_subst_condition_renames_vars(self, c):
        names = guards.expr_vars(c)
        renamed = guards.subst_expr(
            c, {n: Var(f"{n}_r") for n in names})
        assert guards.expr_vars(renamed) == {f"{n}_r" for n in names}
