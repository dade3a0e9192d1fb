"""A small textual language for composition terms.

    seq(a, b)            alt(a, b)          iter(a)
    anyseq(a, b)         par(a, b)          disc(a, b; c)
    select(a, b, c)      refine(a, "Op", blockName)
    replace(a, b, c)     empty              a >> b >> c

`>>` is left-associative shorthand for seq; `#` starts a line comment.
Identifiers name registry entries and may contain hyphens.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import algebra
from .errors import ParseError
from .guards import TokenCursor, read_string, string_text
from .model import Registry, WebService

# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Seq:
    first: object
    second: object


@dataclass(frozen=True)
class Alt:
    first: object
    second: object


@dataclass(frozen=True)
class Iter:
    body: object


@dataclass(frozen=True)
class AnySeq:
    first: object
    second: object


@dataclass(frozen=True)
class Par:
    first: object
    second: object


@dataclass(frozen=True)
class Disc:
    racers: tuple
    continuation: object


@dataclass(frozen=True)
class Select:
    candidates: tuple


@dataclass(frozen=True)
class Refine:
    base: object
    op_name: str
    block: str


@dataclass(frozen=True)
class Replace:
    base: object
    old: object
    new: object


# keyword -> (AST class, algebra constructor, operand field names) for the
# operators whose operands are all terms; the parser, the printer and the
# evaluator all read it.  disc, select, refine and empty have their own
# syntax and their own branches.
_OPERATORS = {
    keyword: (node, build, tuple(f.name for f in fields(node)))
    for keyword, node, build in (
        ("seq", Seq, algebra.sequence),
        ("alt", Alt, algebra.alternative),
        ("iter", Iter, algebra.iteration),
        ("anyseq", AnySeq, algebra.arbitrary_sequence),
        ("par", Par, algebra.parallel),
        ("replace", Replace, algebra.replace_service))}
# the same rows indexed by AST class: node -> (keyword, constructor, fields)
_BY_NODE = {node: (keyword, build, names)
            for keyword, (node, build, names) in _OPERATORS.items()}


# --- Lexer -----------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if text[i:i + 2] == ">>":
            tokens.append((">>", i))
            i += 2
            continue
        if c in "(),;":
            tokens.append((c, i))
            i += 1
            continue
        if c == '"':
            value, j = read_string(text, i)
            tokens.append((("STR", value), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            tokens.append((("IDENT", text[i:j]), i))
            i = j
            continue
        raise ParseError(i, f"unexpected character {c!r}")
    tokens.append(("EOF", n))
    return tokens


class _Parser(TokenCursor):
    def parse(self):
        e = self.parse_chain()
        self.expect("EOF")
        return e

    def parse_chain(self):
        left = self.parse_primary()
        while self.peek() == ">>":
            self.next()
            left = Seq(left, self.parse_primary())
        return left

    def _terms(self):
        terms = [self.parse_chain()]
        while self.peek() == ",":
            self.next()
            terms.append(self.parse_chain())
        return terms

    def _args(self, minimum, maximum=None):
        self.expect("(")
        args = self._terms()
        self.expect(")")
        if len(args) < minimum or (maximum is not None and len(args) > maximum):
            raise ParseError(self.here(), "wrong number of operands")
        return args

    def parse_primary(self):
        tok = self.peek()
        if tok == "(":
            self.next()
            e = self.parse_chain()
            self.expect(")")
            return e
        if not (isinstance(tok, tuple) and tok[0] == "IDENT"):
            raise ParseError(self.here(),
                             f"expected a term, found {self._show(tok)}")
        name = self.next()[1]
        op = _OPERATORS.get(name)
        if op is not None:
            node, _, names = op
            return node(*self._args(len(names), len(names)))
        if name == "empty":
            return Empty()
        if name == "disc":
            self.expect("(")
            racers = self._terms()
            self.expect(";")
            cont = self.parse_chain()
            self.expect(")")
            return Disc(tuple(racers), cont)
        if name == "select":
            return Select(tuple(self._args(1)))
        if name == "refine":
            self.expect("(")
            base = self.parse_chain()
            self.expect(",")
            op = self.peek()
            if not (isinstance(op, tuple) and op[0] == "STR"):
                raise ParseError(self.here(),
                                 "refine expects a quoted operation name")
            op_name = self.next()[1]
            self.expect(",")
            block = self.peek()
            if not (isinstance(block, tuple) and block[0] == "IDENT"):
                raise ParseError(self.here(), "refine expects a block name")
            block_name = self.next()[1]
            self.expect(")")
            return Refine(base, op_name, block_name)
        return Ref(name)


def parse_expr(text: str):
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError(parser.here(), "term nested too deeply") from None


def print_expr(e) -> str:
    op = _BY_NODE.get(type(e))
    if op is not None:
        keyword, _, names = op
        operands = ", ".join(print_expr(getattr(e, n)) for n in names)
        return f"{keyword}({operands})"
    if isinstance(e, Empty):
        return "empty"
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Disc):
        racers = ", ".join(print_expr(r) for r in e.racers)
        return f"disc({racers}; {print_expr(e.continuation)})"
    if isinstance(e, Select):
        return "select(%s)" % ", ".join(print_expr(c) for c in e.candidates)
    if isinstance(e, Refine):
        return f"refine({print_expr(e.base)}, {string_text(e.op_name)}, {e.block})"
    raise TypeError(f"not a composition term: {e!r}")


def eval_expr(e, reg: Registry) -> WebService:
    """Evaluate a composition term against a registry.  Intermediate
    composite services are inserted so ISP references resolve by name."""
    op = _BY_NODE.get(type(e))
    if op is not None:
        _, build, names = op
        ws = build(*(eval_expr(getattr(e, n), reg) for n in names))
    elif isinstance(e, Ref):
        return reg.lookup(e.name)
    elif isinstance(e, Empty):
        ws = algebra.empty_service()
    elif isinstance(e, Disc):
        ws = algebra.discriminator([eval_expr(r, reg) for r in e.racers],
                                   eval_expr(e.continuation, reg))
    elif isinstance(e, Select):
        ws = algebra.selection([eval_expr(c, reg) for c in e.candidates])
    elif isinstance(e, Refine):
        block = reg.lookup_block(e.block)
        ws = algebra.refine(eval_expr(e.base, reg), e.op_name, block)
    else:
        raise TypeError(f"not a composition term: {e!r}")
    reg.insert(ws)
    return ws
