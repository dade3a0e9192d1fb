"""JSON (de)serialization of services, block fragments and traces, plus
registry loading from a directory of definition files.

A registry directory holds one ``*.json`` document per service and one
``*.block.json`` document per block fragment.  Guard texts use the
inscription mini-language; see guards.py.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import guards
from .errors import ParseError
from .model import (GOAL, TAU, AttributeSpec, BlockFragment, GNetModel,
                    GoalLabel, GspSpec, InternalStructure, IspRef, MethodSpec,
                    OpLabel, Place, PlaceKind, Registry, TauLabel, WebService)

_KINDS = {k.value: k for k in PlaceKind}


# --- Structure <-> dict ----------------------------------------------------


def _name(value, optional=False):
    """`value`, a name, id or value type, which must be a JSON string (or
    null when `optional`)."""
    if type(value) is str or (optional and value is None):
        return value
    raise ParseError(0, f"expected a string, not {value!r}")


def _list(value):
    """`value`, which must be a JSON array (or a default tuple)."""
    if type(value) in (list, tuple):
        return value
    raise ParseError(0, f"expected a list, not {value!r}")


def _label_to_dict(label):
    if isinstance(label, OpLabel):
        return {"variant": "op", "name": label.name}
    if isinstance(label, TauLabel):
        return {"variant": "tau"}
    if isinstance(label, GoalLabel):
        return {"variant": "goal"}
    if isinstance(label, IspRef):
        return {"variant": "isp", "service": label.service,
                "method": label.method}
    raise TypeError(f"not a label: {label!r}")


def _label_from_dict(d):
    variant = d.get("variant")
    if variant == "op":
        return OpLabel(_name(d["name"]))
    if variant == "tau":
        return TAU
    if variant == "goal":
        return GOAL
    if variant == "isp":
        return IspRef(_name(d["service"]), _name(d["method"]))
    raise ParseError(0, f"unknown label variant {variant!r}")


def _structure_to_dict(struct: InternalStructure) -> dict:
    return {
        "places": [
            {"id": p.id, "kind": p.kind.value,
             **({"invokedGnet": p.invoked_gnet,
                 "usingMethod": p.using_method}
                if p.kind is PlaceKind.ISP else {})}
            for p in struct.places],
        "transitions": list(struct.transitions),
        "arcs": [[a, b] for a, b in struct.arcs],
        "inscriptions": [
            {"src": a, "tgt": b, "fields": guards.print_inscription(ins)}
            for (a, b), ins in struct.inscriptions],
        "conditions": [
            {"transition": t, "text": guards.print_condition(c)}
            for t, c in struct.conditions],
        "actions": [
            {"transition": t, "text": guards.print_action(a)}
            for t, a in struct.actions],
        "labels": [
            {"place": p, **_label_to_dict(lab)}
            for p, lab in struct.labels],
    }


def _structure_from_dict(d: dict) -> InternalStructure:
    places = []
    for pd in _list(d.get("places", ())):
        kind = _KINDS.get(pd.get("kind", "normal"))
        if kind is None:
            raise ParseError(0, f"unknown place kind {pd.get('kind')!r}")
        places.append(Place(
            _name(pd["id"]), kind,
            invoked_gnet=_name(pd.get("invokedGnet"), optional=True),
            using_method=_name(pd.get("usingMethod"), optional=True)))
    return InternalStructure(
        places=tuple(places),
        transitions=tuple(map(_name, _list(d.get("transitions", ())))),
        arcs=tuple((_name(a), _name(b))
                   for a, b in map(_list, _list(d.get("arcs", ())))),
        inscriptions=tuple(
            ((_name(i["src"]), _name(i["tgt"])),
             guards.parse_inscription(i["fields"]))
            for i in _list(d.get("inscriptions", ()))),
        conditions=tuple(
            (_name(c["transition"]), guards.parse_condition(c["text"]))
            for c in _list(d.get("conditions", ()))),
        actions=tuple(
            (_name(a["transition"]), guards.parse_action(a["text"]))
            for a in _list(d.get("actions", ()))),
        labels=tuple(
            (_name(ld["place"]), _label_from_dict(ld))
            for ld in _list(d.get("labels", ()))),
    )


# --- Service <-> dict ------------------------------------------------------

# what reading a document of the wrong shape raises: a missing key, or a
# value of the wrong type (a list for an object, a number for a text, ...)
_MALFORMED = (KeyError, TypeError, AttributeError)


def _malformed(exc) -> ParseError:
    if isinstance(exc, KeyError):
        return ParseError(0, f"missing field {exc.args[0]!r}")
    return ParseError(0, f"malformed document: {exc}")


def service_to_dict(ws: WebService) -> dict:
    return {
        "name": ws.name,
        "desc": ws.desc,
        "loc": ws.loc,
        "url": ws.url,
        "componentServices": sorted(ws.component_services),
        "net": {
            "gsp": {
                "methods": [
                    {"name": m.name,
                     "description": m.description,
                     "params": [{"name": n, "description": desc}
                                for n, desc in m.params],
                     "initPlace": m.init_place,
                     "goalPlaces": sorted(m.goal_places)}
                    for m in ws.net.gsp.methods],
                "attributes": [
                    {"name": a.name, "valueType": a.value_type,
                     "initial": a.initial,
                     "domain": list(a.domain) if a.domain is not None
                     else None}
                    for a in ws.net.gsp.attributes],
            },
            "is": _structure_to_dict(ws.net.internal),
        },
    }


def service_from_dict(d: dict) -> WebService:
    try:
        gsp_d = d["net"]["gsp"]
        methods = tuple(
            MethodSpec(_name(m["name"]), m.get("description", ""),
                       tuple((_name(p["name"]), p.get("description", ""))
                             for p in _list(m.get("params", ()))),
                       _name(m["initPlace"]),
                       frozenset(map(_name, _list(m["goalPlaces"]))))
            for m in _list(gsp_d.get("methods", ())))
        attributes = tuple(
            AttributeSpec(_name(a["name"]), _name(a["valueType"]),
                          a.get("initial"), tuple(_list(a["domain"]))
                          if a.get("domain") is not None else None)
            for a in _list(gsp_d.get("attributes", ())))
        return WebService(
            name=_name(d["name"]),
            desc=d.get("desc", ""),
            loc=d.get("loc"),
            url=d.get("url"),
            component_services=frozenset(map(_name, _list(d.get(
                "componentServices", [d["name"]])))),
            net=GNetModel(GspSpec(methods, attributes),
                          _structure_from_dict(d["net"]["is"])),
        )
    except _MALFORMED as exc:
        raise _malformed(exc) from None


def block_to_dict(name: str, block: BlockFragment) -> dict:
    return {
        "name": name,
        "entry": block.entries,
        "exit": block.exits,
        "is": _structure_to_dict(block.structure),
    }


def block_from_dict(d: dict) -> tuple:
    try:
        block = BlockFragment(_structure_from_dict(d["is"]))
        for key, computed in (("entry", block.entries),
                              ("exit", block.exits)):
            declared = sorted(_list(d.get(key, ())))
            if declared and declared != computed:
                raise ParseError(0, f"declared {key} {declared} does not "
                                 f"match computed {computed}")
        return _name(d["name"]), block
    except _MALFORMED as exc:
        raise _malformed(exc) from None


# --- Files -----------------------------------------------------------------


def _write(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, ensure_ascii=False)
                          + "\n")


def _read(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.pos, str(exc)) from None


def save_service(ws: WebService, path) -> None:
    _write(service_to_dict(ws), path)


def load_service(path) -> WebService:
    return service_from_dict(_read(path))


def save_block(name: str, block: BlockFragment, path) -> None:
    _write(block_to_dict(name, block), path)


def load_block(path) -> tuple:
    return block_from_dict(_read(path))


def load_registry(directory) -> Registry:
    reg = Registry()
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"registry directory not found: {root}")
    for path in sorted(root.glob("*.json")):
        if path.name.endswith(".block.json"):
            name, block = load_block(path)
            reg.insert_block(name, block)
        else:
            reg.insert(load_service(path))
    return reg


# --- Traces ----------------------------------------------------------------


def trace_to_dict(outcome: str, events) -> dict:
    return {
        "outcome": outcome,
        "steps": [
            {"depth": e.depth,
             "transition": e.transition,
             "binding": dict(e.binding),
             "consumed": [[p, dict(fields)] for p, fields in e.consumed],
             "produced": [[p, dict(fields)] for p, fields in e.produced]}
            for e in events],
    }
