"""The inscription mini-language: transition guards, action sequences and
arc tuple inscriptions.

Values are ints, bools and strings.  Guards are boolean formulas over
comparisons; actions are ordered `var := expr` assignment lists; arc
inscriptions are comma-separated expression tuples.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Union

from .errors import ParseError, TypeMismatch, UnboundVariable

Value = Union[int, bool, str]


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, BinOp]


@dataclass(frozen=True)
class Atom:
    """A bare boolean-valued expression used as a condition."""
    expr: Expr


@dataclass(frozen=True)
class Compare:
    left: Expr
    op: str  # == != < <= > >=
    right: Expr


@dataclass(frozen=True)
class Not:
    operand: "Condition"


@dataclass(frozen=True)
class And:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Or:
    left: "Condition"
    right: "Condition"


Condition = Union[Atom, Compare, Not, And, Or]

TRUE = Atom(Lit(True))


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


ActionSeq = tuple  # tuple[Assign, ...]
Inscription = tuple  # tuple[Expr, ...]


# --- Lexer -----------------------------------------------------------------

_TWO_CHAR = ("==", "!=", "<=", ">=", ":=", "&&", "||")
_ONE_CHAR = "<>+-*!();,"
# `model.apart` appends RENAME_SEP to renamed ids: identifiers hold it.
RENAME_SEP = "§"
# A string literal is a JSON string: `string_text` writes it, `read_string`
# reads it (a raw line break inside as itself).  STRING matches one literal.
STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)
_JSON = json.JSONDecoder(strict=False)


def read_string(text, i):
    """The value of the string literal at the quote text[i], and its end."""
    m = STRING.match(text, i)
    if m is None:
        raise ParseError(i, "unterminated string literal")
    try:
        return _JSON.decode(m[0]), m.end()
    except ValueError as exc:
        raise ParseError(i + exc.pos, f"bad string: {exc.msg}") from None


def string_text(value):
    """`value` as a string literal: quotes, \\ and line breaks escaped."""
    return json.dumps(value, ensure_ascii=False)


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR:
            tokens.append((text[i:i + 2], i))
            i += 2
            continue
        if c in _ONE_CHAR:
            tokens.append((c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append((("INT", int(text[i:j])), i))
            i = j
            continue
        if c == '"':
            value, j = read_string(text, i)
            tokens.append((("STR", value), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"
                             or text[j] == RENAME_SEP):
                j += 1
            tokens.append((("IDENT", text[i:j]), i))
            i = j
            continue
        raise ParseError(i, f"unexpected character {c!r}")
    tokens.append(("EOF", n))
    return tokens


class TokenCursor:
    """A read position in a list of (token, offset) pairs ending in EOF.
    The guard parser below and the composition parser in `dsl` walk their
    tokens with it."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def here(self):
        return self.tokens[self.pos][1]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, kind):
        tok = self.peek()
        if tok != kind:
            raise ParseError(self.here(), f"expected {kind!r}, found {self._show(tok)}")
        return self.next()

    @staticmethod
    def _show(tok):
        if tok == "EOF":
            return "end of input"
        if isinstance(tok, tuple):
            return repr(tok[1])
        return repr(tok)


class _Parser(TokenCursor):
    # expressions: term (+|- term)* ; term: factor (* factor)* ; factor: atom
    def parse_expr(self):
        left = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            left = BinOp(op, left, self.parse_term())
        return left

    def parse_term(self):
        left = self.parse_factor()
        while self.peek() == "*":
            self.next()
            left = BinOp("*", left, self.parse_factor())
        return left

    def parse_factor(self):
        tok = self.peek()
        if tok == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok == "-":
            self.next()
            inner = self.parse_factor()
            if isinstance(inner, Lit) and isinstance(inner.value, int):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if isinstance(tok, tuple):
            kind, value = tok
            self.next()
            if kind == "INT":
                return Lit(value)
            if kind == "STR":
                return Lit(value)
            if value == "true":
                return Lit(True)
            if value == "false":
                return Lit(False)
            return Var(value)
        raise ParseError(self.here(), f"expected an expression, found {self._show(tok)}")

    def parse_action(self):
        assigns = []
        while True:
            tok = self.peek()
            if not (isinstance(tok, tuple) and tok[0] == "IDENT"):
                raise ParseError(self.here(), "expected an assignment target")
            target = self.next()[1]
            self.expect(":=")
            assigns.append(Assign(target, self.parse_expr()))
            if self.peek() == ";":
                self.next()
                if self.peek() == "EOF":  # trailing separator
                    break
                continue
            break
        return tuple(assigns)

    def parse_inscription(self):
        exprs = [self.parse_expr()]
        while self.peek() == ",":
            self.next()
            exprs.append(self.parse_expr())
        return tuple(exprs)

    # conditions: or-level, and-level, not-level, atom-level
    def parse_condition(self):
        left = self.parse_and()
        while self.peek() == "||":
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.peek() == "&&":
            self.next()
            left = And(left, self.parse_not())
        return left

    def parse_not(self):
        if self.peek() == "!":
            self.next()
            return Not(self.parse_not())
        return self.parse_catom()

    def parse_catom(self):
        if self.peek() == "(":
            # Could be a parenthesized condition or a parenthesized
            # arithmetic expression followed by a comparator; backtrack.
            saved = self.pos
            self.next()
            try:
                cond = self.parse_condition()
                self.expect(")")
            except ParseError:
                self.pos = saved
            else:
                if self.peek() not in ("==", "!=", "<", "<=", ">", ">=",
                                       "+", "-", "*"):
                    return cond
                self.pos = saved
        left = self.parse_expr()
        if self.peek() in ("==", "!=", "<", "<=", ">", ">="):
            op = self.next()
            right = self.parse_expr()
            return Compare(left, op, right)
        return Atom(left)


def _parse(text: str, rule):
    """`rule` over all of `text`; a too deep nesting is a ParseError."""
    p = _Parser(_tokenize(text))
    try:
        out = rule(p)
        p.expect("EOF")
    except RecursionError:
        raise ParseError(p.here(), "expression nested too deeply") from None
    return out


def parse_condition(text: str) -> Condition:
    return _parse(text, _Parser.parse_condition) if text.strip() else TRUE


def parse_action(text: str) -> ActionSeq:
    return _parse(text, _Parser.parse_action) if text.strip() else ()


def parse_inscription(text: str) -> Inscription:
    return _parse(text, _Parser.parse_inscription) if text.strip() else ()


def parse_expr(text: str) -> Expr:
    return _parse(text, _Parser.parse_expr)


# --- Printing --------------------------------------------------------------

def lit_text(value):
    """A value in the inscription syntax: true, false, "text" or a number."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return string_text(value)
    return str(value)


_EXPR_PREC = {"+": 1, "-": 1, "*": 2}


def print_expr(e: Expr, _parent_prec=0) -> str:
    if isinstance(e, Lit):
        return lit_text(e.value)
    if isinstance(e, Var):
        return e.name
    prec = _EXPR_PREC[e.op]
    left = print_expr(e.left, prec)
    # operators are left-associative: parenthesize right-nested operands
    right = print_expr(e.right, prec + 1)
    text = f"{left} {e.op} {right}"
    if prec < _parent_prec:
        return f"({text})"
    return text


def print_condition(c: Condition, _parent_prec=0) -> str:
    if isinstance(c, Atom):
        return print_expr(c.expr)
    if isinstance(c, Compare):
        return f"{print_expr(c.left)} {c.op} {print_expr(c.right)}"
    if isinstance(c, Not):
        return "!" + print_condition(c.operand, 3)
    if isinstance(c, And):
        text = (f"{print_condition(c.left, 2)} && "
                f"{print_condition(c.right, 3)}")
        return f"({text})" if _parent_prec > 2 else text
    if isinstance(c, Or):
        text = (f"{print_condition(c.left, 1)} || "
                f"{print_condition(c.right, 2)}")
        return f"({text})" if _parent_prec > 1 else text
    raise TypeError(f"not a condition: {c!r}")


def print_action(a: ActionSeq) -> str:
    return "; ".join(f"{s.target} := {print_expr(s.expr)}" for s in a)


def print_inscription(ins: Inscription) -> str:
    return ", ".join(print_expr(e) for e in ins)


# --- Evaluation ------------------------------------------------------------

def eval_expr(e: Expr, env: dict) -> Value:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    left = eval_expr(e.left, env)
    right = eval_expr(e.right, env)
    if not (type(left) is int and type(right) is int):
        raise TypeMismatch(f"arithmetic on non-ints: {left!r} {e.op} {right!r}")
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    return left * right


_ORDERED = {"<", "<=", ">", ">="}


def eval_condition(c: Condition, env: dict) -> bool:
    if isinstance(c, Atom):
        v = eval_expr(c.expr, env)
        if type(v) is not bool:
            raise TypeMismatch(f"condition value is not a bool: {v!r}")
        return v
    if isinstance(c, Compare):
        left = eval_expr(c.left, env)
        right = eval_expr(c.right, env)
        if type(left) is not type(right):
            raise TypeMismatch(f"comparison of {left!r} and {right!r}")
        if c.op in _ORDERED:
            if type(left) is not int:
                raise TypeMismatch(f"ordered comparison of {left!r} and {right!r}")
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[c.op]
        return left == right if c.op == "==" else left != right
    if isinstance(c, Not):
        return not eval_condition(c.operand, env)
    if isinstance(c, And):
        return eval_condition(c.left, env) and eval_condition(c.right, env)
    if isinstance(c, Or):
        return eval_condition(c.left, env) or eval_condition(c.right, env)
    raise TypeError(f"not a condition: {c!r}")


def eval_action(a: ActionSeq, env: dict) -> dict:
    out = dict(env)
    for assign in a:
        out[assign.target] = eval_expr(assign.expr, out)
    return out


# --- Variable collection and substitution ---------------------------------

def expr_vars(e: Expr) -> set:
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Var):
        return {e.name}
    return expr_vars(e.left) | expr_vars(e.right)


def condition_vars(c: Condition) -> set:
    if isinstance(c, Atom):
        return expr_vars(c.expr)
    if isinstance(c, Compare):
        return expr_vars(c.left) | expr_vars(c.right)
    if isinstance(c, Not):
        return condition_vars(c.operand)
    return condition_vars(c.left) | condition_vars(c.right)


def action_vars(a: ActionSeq) -> set:
    out = set()
    for assign in a:
        out |= expr_vars(assign.expr)
    return out


def subst_expr(e: Expr, mapping: dict) -> Expr:
    if isinstance(e, Lit):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    return BinOp(e.op, subst_expr(e.left, mapping), subst_expr(e.right, mapping))


def subst_condition(c: Condition, mapping: dict) -> Condition:
    if isinstance(c, Atom):
        return Atom(subst_expr(c.expr, mapping))
    if isinstance(c, Compare):
        return Compare(subst_expr(c.left, mapping), c.op,
                       subst_expr(c.right, mapping))
    if isinstance(c, Not):
        return Not(subst_condition(c.operand, mapping))
    return type(c)(subst_condition(c.left, mapping),
                   subst_condition(c.right, mapping))


def compile_actions(a: ActionSeq) -> dict:
    """Fold an assignment sequence into a var -> expression map where each
    expression is in terms of the pre-action values."""
    mapping = {}
    for assign in a:
        mapping[assign.target] = subst_expr(assign.expr, mapping)
    return mapping
