"""PROD text export of flat nets, a minimal reader for round-trip tests,
and dot export of service nets for figure rendering.

Layout of the PROD dialect written here::

    #place P1f mk(<.1, true.>)
    #trans T1
    in { P1l: <.seq, Available.>; }
    out { P2f: <.seq, Available.>; }
    gate Available == true;
    #endtr

Copy transitions are interleaved with the source transitions: each T_p is
emitted just before the first transition consuming from p·l, or just after
the first transition producing into p·f when the copied token is never
consumed.
"""

from __future__ import annotations

import re
from functools import cache

from . import guards
from .analysis import FlatNet, FlatPlace, FlatTransition
from .errors import ParseError
from .model import IspRef, OpLabel, PlaceKind, WebService, natural_key


def _tuple_text(fields):
    return "<." + ", ".join(fields) + ".>"


def _transition_order(flat: FlatNet):
    copies = {}
    sources = []
    for t in flat.transitions:
        if t.origin is None:
            # copy transitions have a single input, the f side of their place
            copies[t.inputs[0][0][:-1]] = t
        else:
            sources.append(t)
    sources.sort(key=lambda t: natural_key(t.name))
    consumed = set()
    for t in sources:
        for pname, _ in t.inputs:
            if pname.endswith("l"):
                consumed.add(pname[:-1])
    emitted = set()
    order = []

    def emit_copy(pid):
        if pid in copies and pid not in emitted:
            emitted.add(pid)
            order.append(copies[pid])

    for t in sources:
        for pname, _ in t.inputs:
            if pname.endswith("l"):
                emit_copy(pname[:-1])
        order.append(t)
        for pname, _ in t.outputs:
            pid = pname[:-1]
            if pname.endswith("f") and pid not in consumed:
                emit_copy(pid)
    for pid in sorted(copies, key=natural_key):
        emit_copy(pid)
    return order


def export_prod(flat: FlatNet) -> str:
    lines = []
    for pname in sorted(flat.places, key=natural_key):
        tokens = flat.initial.get(pname, [])
        if tokens:
            marks = "+".join(_tuple_text([guards.lit_text(v) for v in tok])
                             for tok in tokens)
            lines.append(f"#place {pname} mk({marks})")
        else:
            lines.append(f"#place {pname}")
    for t in _transition_order(flat):
        lines.append(f"#trans {t.name}")
        ins = "; ".join(f"{p}: {_tuple_text(pattern)}"
                        for p, pattern in t.inputs)
        lines.append("in { %s; }" % ins)
        outs = "; ".join(
            f"{p}: {_tuple_text([guards.print_expr(e) for e in exprs])}"
            for p, exprs in t.outputs)
        lines.append("out { %s; }" % outs)
        gate = guards.print_condition(t.gate)
        lines.append("gate ;" if gate == "true" else f"gate {gate};")
        lines.append("#endtr")
    return "\n".join(lines) + "\n"


# --- Minimal reader (round-trip testing only) ------------------------------

_TUPLE = r'<\.([^".]*(?:%s[^".]*)*)\.>' % guards.STRING.pattern
# per separator, one item and the separator or end after it: a marking's
# tuple (with no place) or an arc's `place: tuple`, whose `.`s are in strings
_ITEM = {"+": re.compile(r"\s*()%s\s*(\+|\Z)" % _TUPLE, re.DOTALL),
         ";": re.compile(r"\s*([^<\s]+):\s*%s\s*(;|\Z)" % _TUPLE, re.DOTALL)}


def _tuples(text, sep, line, parse):
    """The (place, inscription) pair of each item of the clause `text`."""
    pairs, pos, more = [], 0, bool(text.strip())
    while more:
        m = _ITEM[sep].match(text, pos)
        if m is None:
            raise ParseError(pos, f"malformed tuple in {line!r}")
        pairs.append((m[1], parse(m[2])))
        pos, more = m.end(), bool(m[3])
    return pairs


def _flow(line, keyword, parse):
    """The (place, inscription, names of its variables) of each arc of the
    flow clause `line`."""
    word, _, body = line.partition("{")
    if word.strip() != keyword or not body.endswith("}"):
        raise ParseError(0, f"expected {keyword!r} {{...}}: {line!r}")
    clause = body[:-1].strip().removesuffix(";")
    return [(place, exprs, tuple([e.name for e in exprs
                                  if isinstance(e, guards.Var)]))
            for place, exprs in _tuples(clause, ";", line, parse)]


def reparse_prod(text: str) -> FlatNet:
    """Reconstruct a FlatNet from our own export dialect in one pass, or
    raise ParseError.  Place signatures are recovered from the first arc
    tuple seen at each place; domain declarations are not in the format."""
    places = {}
    signatures = {}
    initial = {}
    transitions = []
    parse = cache(guards.parse_inscription)  # each distinct text once
    lines = filter(None, map(str.strip, text.split("\n")))
    for line in lines:
        if line.startswith("#place"):
            name, _, mk = line[len("#place"):].strip().partition(" ")
            places[name] = None
            mk = mk.strip()
            if mk:
                if not (mk.startswith("mk(") and mk.endswith(")")):
                    raise ParseError(0, f"malformed marking: {line!r}")
                pairs = _tuples(mk[3:-1], "+", line, parse)
                initial[name] = [tuple(guards.eval_expr(e, {}) for e in exprs)
                                 for _, exprs in pairs]
        elif line.startswith("#trans"):
            name = line[len("#trans"):].strip()
            ins = _flow(next(lines, ""), "in", parse)
            outs = _flow(next(lines, ""), "out", parse)
            gate_line = next(lines, "")
            if not gate_line.startswith("gate"):
                raise ParseError(0, f"expected a gate line: {gate_line!r}")
            gate = guards.parse_condition(gate_line[len("gate"):].rstrip(";"))
            if next(lines, "") != "#endtr":
                raise ParseError(0, "expected #endtr")
            if any(len(names) < len(es) for _, es, names in ins):
                raise ParseError(0, f"{name}: an input holds a non-name")
            for pname, _, names in ins + outs:
                signatures.setdefault(pname, names)
            origin = None if name.startswith("T_") else name
            transitions.append(FlatTransition(
                name=name, inputs=tuple((p, names) for p, _, names in ins),
                outputs=tuple((p, es) for p, es, _ in outs),
                gate=gate, origin=origin))
        else:
            raise ParseError(0, f"unexpected line: {line!r}")
    flat_places = {name: FlatPlace(name, signatures.get(name, ()))
                   for name in places}
    return FlatNet(places=flat_places, transitions=transitions,
                   initial=initial, domains={})


# --- Dot export ------------------------------------------------------------

_SHAPES = {
    PlaceKind.NORMAL: "circle",
    PlaceKind.GOAL: "doublecircle",
    PlaceKind.ISP: "ellipse",
}


def export_dot(ws: WebService) -> str:
    struct = ws.net.internal
    labels = struct.label_map
    q = guards.string_text
    lines = [f"digraph {q(ws.name)} {{", "  rankdir=LR;"]
    for p in struct.places:
        lab = labels.get(p.id)
        if isinstance(lab, OpLabel):
            text = f"{p.id}\n{lab.name}"
        elif isinstance(lab, IspRef):
            text = f"{p.id}\nISP({lab.service}.{lab.method})"
        else:
            text = p.id
        lines.append(f"  {q(p.id)} [shape={_SHAPES[p.kind]}, label={q(text)}];")
    for t in struct.transitions:
        lines.append(f"  {q(t)} [shape=box, label={q(t)}];")
    for a, b in struct.arcs:
        lines.append(f"  {q(a)} -> {q(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
