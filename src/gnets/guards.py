"""The inscription mini-language: transition guards, action sequences and
arc tuple inscriptions.

Values are ints, bools and strings.  One expression tree serves all three:
a guard is an expression whose value must be a bool; actions are ordered
`var := expr` assignment lists; arc inscriptions are comma-separated
expression tuples.
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


@dataclass(frozen=True)
class Compare:
    left: "Expr"
    op: str  # == != < <= > >=
    right: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"
    op = "&&"  # not a field


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"
    op = "||"  # not a field


Expr = Union[Lit, Var, BinOp, Compare, Not, And, Or]
Condition = Expr  # an expression whose value must be a bool

TRUE = Lit(True)


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


ActionSeq = tuple  # tuple[Assign, ...]
Inscription = tuple  # tuple[Expr, ...]


# --- Lexer -----------------------------------------------------------------

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


LEXICON = re.compile(rf"""(?P<skip>\s+)
    |(?:(?P<op>==|!=|<=|>=|:=|&&|\|\||[<>+\-*!();,])
       |(?P<INT>\d+)
       |(?P<IDENT>[^\W\d][\w{RENAME_SEP}]*))\s*
    |(?P<STR>")""", re.VERBOSE)


def scan(text, lexicon):
    """`text` as (token, offset) pairs ending in ("EOF", len(text)).  The
    `lexicon` matches text to `skip`, or one token and the skip after it: an
    `op` (its text) or an INT, IDENT or STR (a (group, value) pair; STR is a
    `read_string` literal's opening quote).  An identifier starts only where
    `str.isalpha` holds or at `_`, but `[^\\W\\d]` also admits `²`."""
    tokens, i, n, match = [], 0, len(text), lexicon.match
    while i < n:
        m = match(text, i)
        kind = m and m.lastgroup
        if not kind or kind == "IDENT" and not (text[i].isalpha()
                                                or text[i] == "_"):
            raise ParseError(i, f"unexpected character {text[i]!r}")
        if kind == "STR":
            value, end = read_string(text, i)
        else:
            value, end = m[kind], m.end()
        if kind != "skip":
            tokens.append((value if kind == "op" else
                           (kind, int(value) if kind == "INT" else value), i))
        i = end
    tokens.append(("EOF", n))
    return tokens


def is_identifier(name):
    """Whether `name` is one identifier of the guard language: `true` and
    `false` are its bool literals."""
    try:
        return (scan(name, LEXICON)[0][0] == ("IDENT", name)
                and name not in ("true", "false"))
    except ParseError:
        return False


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


# The precedence ladder, loosest first: || < && < prefix ! < comparisons
# (they do not chain) < + - < *; a factor binds tighter than all of them.
_OR, _NOT, _COMPARE, _ARITH, _MUL = 1, 3, 4, 5, 6
_PREC = {"||": _OR, "&&": 2, "==": _COMPARE, "!=": _COMPARE, "<": _COMPARE,
         "<=": _COMPARE, ">": _COMPARE, ">=": _COMPARE, "+": _ARITH,
         "-": _ARITH, "*": _MUL}


class _Parser(TokenCursor):
    def parse_expr(self, level=_ARITH):
        """The expression built of the ladder's operators from `level` up.
        After an operator only a looser one or, left-associative, the same
        may follow: `!` and a comparison leave no operand to a tighter one."""
        if level <= _NOT and self.peek() == "!":
            self.next()
            left, top = Not(self.parse_expr(_NOT)), _NOT - 1
        else:
            left, top = self.parse_factor(), _MUL
        while level <= (prec := _PREC.get(self.peek(), 0)) <= top:
            op = self.next()
            right = self.parse_expr(prec + 1)
            if prec == _COMPARE:
                left, top = Compare(left, op, right), _COMPARE - 1
            elif prec >= _ARITH:
                left, top = BinOp(op, left, right), prec
            else:
                left, top = (Or if op == "||" else And)(left, right), prec
        return left

    def parse_factor(self):
        tok = self.peek()
        if tok == "(":
            self.next()
            e = self.parse_expr(_OR)
            self.expect(")")
            return e
        if tok == "-":
            self.next()
            inner = self.parse_factor()
            if isinstance(inner, Lit) and type(inner.value) is int:
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


def _parse(text: str, rule, *args):
    """`rule` over all of `text`; a too deep nesting is a ParseError."""
    p = _Parser(scan(text, LEXICON))
    try:
        out = rule(p, *args)
        p.expect("EOF")
    except RecursionError:
        raise ParseError(p.here(), "expression nested too deeply") from None
    return out


def parse_condition(text: str) -> Condition:
    return _parse(text, _Parser.parse_expr, _OR) if text.strip() else TRUE


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


def print_expr(e: Expr, _parent_prec=_ARITH) -> str:
    """`e` in the fewest parentheses that parse back to it at the ladder's
    `_parent_prec` level: by default, as an arithmetic operand reads it."""
    if isinstance(e, Lit):
        return lit_text(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Not):
        prec, text = _NOT, "!" + print_expr(e.operand, _NOT)
    else:
        # left-associative but for comparisons: parenthesize a right-nested
        # operand, and a comparison's left one
        prec = _PREC[e.op]
        left = print_expr(e.left, prec + (prec == _COMPARE))
        text = f"{left} {e.op} {print_expr(e.right, prec + 1)}"
    return f"({text})" if prec < _parent_prec else text


def print_condition(c: Condition) -> str:
    return print_expr(c, _OR)


def print_action(a: ActionSeq) -> str:
    return "; ".join(f"{s.target} := {print_expr(s.expr)}" for s in a)


def print_inscription(ins: Inscription) -> str:
    return ", ".join(print_expr(e) for e in ins)


# --- Evaluation ------------------------------------------------------------

_ORDERED = {"<", "<=", ">", ">="}


def eval_expr(e: Expr, env: dict) -> Value:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, BinOp):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        if not (type(left) is int and type(right) is int):
            raise TypeMismatch(f"arithmetic on non-ints: {left!r} {e.op} {right!r}")
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        return left * right
    if isinstance(e, Compare):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        if type(left) is not type(right):
            raise TypeMismatch(f"comparison of {left!r} and {right!r}")
        if e.op in _ORDERED:
            if type(left) is not int:
                raise TypeMismatch(f"ordered comparison of {left!r} and {right!r}")
            return {"<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right}[e.op]
        return left == right if e.op == "==" else left != right
    if isinstance(e, Not):
        return not eval_condition(e.operand, env)
    if isinstance(e, And):
        return eval_condition(e.left, env) and eval_condition(e.right, env)
    if isinstance(e, Or):
        return eval_condition(e.left, env) or eval_condition(e.right, env)
    raise TypeError(f"not an expression: {e!r}")


def eval_condition(c: Condition, env: dict) -> bool:
    v = eval_expr(c, env)
    if type(v) is not bool:
        raise TypeMismatch(f"condition value is not a bool: {v!r}")
    return v


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
    if isinstance(e, Not):
        return expr_vars(e.operand)
    return expr_vars(e.left) | expr_vars(e.right)


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
    if isinstance(e, Not):
        return Not(subst_expr(e.operand, mapping))
    left, right = subst_expr(e.left, mapping), subst_expr(e.right, mapping)
    if isinstance(e, BinOp):
        return BinOp(e.op, left, right)
    if isinstance(e, Compare):
        return Compare(left, e.op, right)
    return type(e)(left, right)


def compile_actions(a: ActionSeq) -> dict:
    """Fold an assignment sequence into a var -> expression map where each
    expression is in terms of the pre-action values."""
    mapping = {}
    for assign in a:
        mapping[assign.target] = subst_expr(assign.expr, mapping)
    return mapping
