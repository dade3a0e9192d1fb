"""Core data model: web services, their interface (methods/attributes) and
the internal bipartite net, plus structural validation, renaming and
substitution of places by nets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, cached_property
from typing import Optional

from . import guards
from .errors import DuplicateService, UnknownBlock, UnknownService

RENAME_SEP = guards.RENAME_SEP  # reserved for renames; not in user ids


@cache
def natural_key(ident: str):
    """Sort key that orders p2 before p10.  Ids recur in every sort of a
    model, so each distinct id's key is computed once per process."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", ident))


def apart(suffix: str):
    """The id renaming that appends RENAME_SEP and `suffix`: the renamed ids
    are disjoint from every user id."""
    return lambda ident: f"{ident}{RENAME_SEP}{suffix}"


class PlaceKind(Enum):
    NORMAL = "normal"
    GOAL = "goal"
    ISP = "isp"


@dataclass(frozen=True)
class OpLabel:
    name: str


@dataclass(frozen=True)
class TauLabel:
    pass


@dataclass(frozen=True)
class GoalLabel:
    pass


@dataclass(frozen=True)
class IspRef:
    service: str
    method: str


TAU = TauLabel()
GOAL = GoalLabel()


@dataclass(frozen=True)
class Place:
    id: str
    kind: PlaceKind = PlaceKind.NORMAL
    invoked_gnet: Optional[str] = None
    using_method: Optional[str] = None


@dataclass(frozen=True)
class MethodSpec:
    name: str
    description: str = ""
    params: tuple = ()  # tuple[(name, description), ...]
    init_place: str = ""
    goal_places: frozenset = frozenset()


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    value_type: str  # int | bool | string
    initial: object = None
    domain: Optional[tuple] = None


_TYPE_CHECK = {
    "int": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "string": lambda v: type(v) is str,
}


@dataclass(frozen=True)
class GspSpec:
    methods: tuple = ()
    attributes: tuple = ()

    def method(self, name):
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def attribute(self, name):
        for a in self.attributes:
            if a.name == name:
                return a
        return None

    def domain(self, name):
        """The values a variable named after an attribute ranges over when
        nothing binds it: the declared domain, else both bools for a bool
        attribute; None when neither applies."""
        attr = self.attribute(name)
        if attr is None:
            return None
        if attr.domain is not None:
            return tuple(attr.domain)
        if attr.value_type == "bool":
            return (False, True)
        return None


@dataclass(frozen=True)
class InternalStructure:
    places: tuple = ()  # tuple[Place, ...]
    transitions: tuple = ()  # tuple[str, ...]
    arcs: tuple = ()  # tuple[(src, tgt), ...]
    inscriptions: tuple = ()  # tuple[((src, tgt), Inscription), ...]
    conditions: tuple = ()  # tuple[(tid, Condition), ...]
    actions: tuple = ()  # tuple[(tid, ActionSeq), ...]
    labels: tuple = ()  # tuple[(pid, Label), ...]

    # -- views: each built on first use and cached per instance; callers
    # must not mutate them --------------------------------------------------
    @cached_property
    def place_map(self):
        return {p.id: p for p in self.places}

    @cached_property
    def inscription_map(self):
        return dict(self.inscriptions)

    @cached_property
    def condition_map(self):
        return dict(self.conditions)

    @cached_property
    def action_map(self):
        return dict(self.actions)

    @cached_property
    def label_map(self):
        return dict(self.labels)

    def place_ids(self):
        return set(self.place_map)

    @cached_property
    def _presets(self):
        return _sorted_neighbours((b, a) for a, b in self.arcs)

    @cached_property
    def _postsets(self):
        return _sorted_neighbours(self.arcs)

    def pre(self, node):
        """The sources of the arcs into `node`, in natural order."""
        return self._presets.get(node, ())

    def post(self, node):
        """The targets of the arcs out of `node`, in natural order."""
        return self._postsets.get(node, ())

    def renamed(self, fn):
        """The same structure with every place and transition id mapped
        through `fn`."""
        return InternalStructure(
            places=tuple(replace(p, id=fn(p.id)) for p in self.places),
            transitions=tuple(fn(t) for t in self.transitions),
            arcs=tuple((fn(a), fn(b)) for a, b in self.arcs),
            inscriptions=tuple(((fn(a), fn(b)), ins)
                               for (a, b), ins in self.inscriptions),
            conditions=tuple((fn(t), c) for t, c in self.conditions),
            actions=tuple((fn(t), a) for t, a in self.actions),
            labels=tuple((fn(p), lab) for p, lab in self.labels),
        )

    def substituted(self, groups):
        """The structure with places replaced by nets, built in one copy.
        A group is (removed place ids, sub, entries, exits[, suffix[,
        demote]]): the sub is copied with its ids renamed by `apart(suffix)`
        and its `demote` places (new ids) made NORMAL and labeled TAU, its
        labels then sorted by id.  An arc into a removed place is redirected
        to every entry, one out of it leaves from every exit, and so again
        while the new end is removed (in a later group's sub); it keeps the
        old arc's inscription unless one is set.  Per structure, host first,
        then the subs: kept arcs, then arcs redirected once, twice, ..."""
        groups = [(*g, "", frozenset())[:6] for g in groups]
        ends = {pid: g[2:4] for g in groups for pid in g[0]}
        places, transitions, conditions, actions, labels = [], [], [], [], []
        arcs, inscriptions = [], {}
        for _, s, _, _, suffix, demote in [((), self, (), (), "", ()),
                                           *groups]:
            tag = RENAME_SEP + suffix if suffix else ""  # as apart(suffix)
            for p in s.places:
                pid = p.id + tag
                if pid in ends:
                    continue
                if tag or pid in demote:
                    p = Place(pid, PlaceKind.NORMAL if pid in demote
                              else p.kind, p.invoked_gnet, p.using_method)
                places.append(p)
            transitions += [t + tag for t in s.transitions]
            conditions += [(t + tag, c) for t, c in s.conditions]
            actions += [(t + tag, a) for t, a in s.actions]
            labs = [(p + tag, lab) for p, lab in s.labels
                    if p + tag not in ends]
            labels += sorted({**dict(labs), **dict.fromkeys(demote, TAU)
                              }.items()) if demote else labs
            level, own = [(a + tag, b + tag) for a, b in s.arcs], True
            carried = {(a + tag, b + tag): ins
                       for (a, b), ins in s.inscriptions}
            while level:  # the arcs redirected 0, 1, 2, ... times
                redirected, ins_map, carried = [], carried, {}
                for arc in level:
                    a, b = arc
                    new = ([(a, e) for e in ends[b][0]] if b in ends else
                           [(x, b) for x in ends[a][1]] if a in ends else None)
                    ins = ins_map.get(arc)
                    if new is not None:
                        redirected += new
                        for r in new if ins is not None else ():
                            carried.setdefault(r, ins)
                        continue
                    arcs.append(arc)
                    if ins is not None and (own or arc not in inscriptions):
                        inscriptions[arc] = ins
                level, own = redirected, False
        return InternalStructure(
            places=tuple(places), transitions=tuple(transitions),
            arcs=tuple(dict.fromkeys(arcs)),
            inscriptions=tuple(sorted(inscriptions.items())),
            conditions=tuple(conditions), actions=tuple(actions),
            labels=tuple(labels))


def _sorted_neighbours(pairs):
    """node -> tuple of the nodes it is paired with, in natural order."""
    out = {}
    for node, other in pairs:
        out.setdefault(node, []).append(other)
    # a single neighbour needs no sort, and no sort key computed
    return {node: tuple(others) if len(others) == 1
            else tuple(sorted(others, key=natural_key))
            for node, others in out.items()}


@dataclass(frozen=True)
class GNetModel:
    gsp: GspSpec = GspSpec()
    internal: InternalStructure = InternalStructure()


@dataclass(frozen=True)
class WebService:
    name: str
    desc: str = ""
    loc: Optional[str] = None
    url: Optional[str] = None
    component_services: frozenset = frozenset()
    net: GNetModel = GNetModel()

    @property
    def is_basic(self):
        return self.component_services == frozenset({self.name})


class _Exact(tuple):
    """A tuple holding a bool: it hashes as a tuple, but equals only a
    tuple of the same repr, which it caches as `text`."""

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return isinstance(other, tuple) and self.text == (
            other.text if type(other) is _Exact else repr(other))

    def __ne__(self, other):
        return not self == other


def exact(values: tuple) -> tuple:
    """`values` under the value rule: two values (ints, bools, strs and
    tuples of them) are the same when they have the same type and are equal,
    that is, when their reprs are equal; values sort by repr.  As `==` makes
    1 equal True, a tuple holding a bool is returned as an `_Exact`; any
    other is returned as it is, so the rule holds between two exact
    tuples, not between an exact tuple and a raw one holding a bool."""
    text = repr(values)
    if "True" in text or "False" in text:
        values = tuple.__new__(_Exact, values)
        values.text = text
    return values


def same(a, b) -> bool:
    """Whether the values `a` and `b` are the same under the value rule."""
    return a is b or (a == b and repr(a) == repr(b))


def freeze_marking(marking: dict) -> frozenset:
    """A marking's identity: the frozenset of (place, tokens sorted by repr
    and made exact) pairs of its marked places, whatever the order of
    places and tokens."""
    return frozenset((p, exact(tuple(sorted(toks, key=repr)) if len(toks) > 1
                               else tuple(toks)))
                     for p, toks in marking.items() if toks)


@dataclass(frozen=True)
class Violation:
    element: str
    rule: str
    message: str


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, element, rule, message):
        self.violations.append(Violation(element, rule, message))

    def __str__(self):
        if self.ok:
            return "ok: 0 violations"
        lines = [f"{len(self.violations)} violation(s):"]
        for v in self.violations:
            lines.append(f"  [{v.rule}] {v.element}: {v.message}")
        return "\n".join(lines)


def validate(ws: WebService) -> ValidationReport:
    """Check every structural invariant of the service model; violations are
    reported as data, never raised."""
    report = ValidationReport()
    if not ws.name:
        report.add("service", "empty-name", "service name must be non-empty")
    if not ws.component_services:
        report.add("service", "empty-cs", "componentServices must be non-empty")

    net = ws.net
    struct = net.internal
    place_map = struct.place_map
    pids = set(place_map)
    tids = set(struct.transitions)
    labels = struct.label_map
    arc_set = set(struct.arcs)

    if len(place_map) != len(struct.places):
        report.add("places", "duplicate-place", "duplicate place ids")
    if len(tids) != len(struct.transitions):
        report.add("transitions", "duplicate-transition", "duplicate transition ids")
    if pids & tids:
        report.add("net", "id-clash",
                   f"ids used as both place and transition: {sorted(pids & tids)}")
    if len(arc_set) != len(struct.arcs):
        report.add("arcs", "duplicate-arc", "duplicate arcs")

    for src, tgt in struct.arcs:
        src_p, tgt_p = src in pids, tgt in pids
        src_t, tgt_t = src in tids, tgt in tids
        if not ((src_p or src_t) and (tgt_p or tgt_t)):
            report.add(f"arc {src}->{tgt}", "dangling-arc",
                       "arc endpoint does not exist")
        elif not ((src_p and tgt_t) or (src_t and tgt_p)):
            report.add(f"arc {src}->{tgt}", "non-bipartite arc",
                       "arcs must connect a place to a transition or vice versa")

    if set(labels) != pids:
        missing = sorted(pids - set(labels))
        extra = sorted(set(labels) - pids)
        report.add("labels", "label-domain",
                   f"label map must cover exactly the places "
                   f"(missing={missing}, extra={extra})")

    for p in struct.places:
        label = labels.get(p.id)
        if p.kind is PlaceKind.ISP:
            if p.invoked_gnet is None or p.using_method is None:
                report.add(p.id, "ISP missing invocation target",
                           "ISP places require invokedGnet and usingMethod")
            if not isinstance(label, IspRef):
                report.add(p.id, "isp-label", "ISP places must carry an ISP label")
            elif (p.invoked_gnet is not None
                  and (label.service != p.invoked_gnet
                       or label.method != p.using_method)):
                report.add(p.id, "isp-label-mismatch",
                           f"label {label} disagrees with place fields "
                           f"({p.invoked_gnet}.{p.using_method})")
        else:
            if p.invoked_gnet is not None or p.using_method is not None:
                report.add(p.id, "isp-fields-on-non-isp",
                           "only ISP places may carry invocation fields")
            if isinstance(label, IspRef):
                report.add(p.id, "isp-label", "ISP label on a non-ISP place")
        if p.kind is PlaceKind.GOAL and not isinstance(label, GoalLabel):
            report.add(p.id, "goal-label", "goal places must carry the goal label")
        if p.kind is not PlaceKind.GOAL and isinstance(label, GoalLabel):
            report.add(p.id, "goal-label", "goal label on a non-goal place")

    seen_methods = set()
    for m in net.gsp.methods:
        if m.name in seen_methods:
            report.add(m.name, "duplicate-method", "method names must be unique")
        seen_methods.add(m.name)
        if m.init_place not in pids:
            report.add(m.name, "missing-init", f"init place {m.init_place!r} not in net")
        if not m.goal_places:
            report.add(m.name, "empty-goals", "method must declare goal places")
        for g in m.goal_places:
            if g not in pids:
                report.add(m.name, "missing-goal", f"goal place {g!r} not in net")
            elif place_map[g].kind is not PlaceKind.GOAL:
                report.add(m.name, "goal-kind", f"goal place {g!r} is not Goal-kind")
        single_place_net = len(struct.places) == 1 and not struct.transitions
        if m.init_place in m.goal_places and not single_place_net:
            report.add(m.name, "init-is-goal",
                       "init place may equal a goal place only in the empty net")
        seen_params = set()
        for pname, _ in m.params:
            if pname in seen_params:
                report.add(m.name, "duplicate-param", f"duplicate param {pname!r}")
            seen_params.add(pname)

    seen_attrs = set()
    for a in net.gsp.attributes:
        if a.name in seen_attrs:
            report.add(a.name, "duplicate-attribute", "attribute names must be unique")
        seen_attrs.add(a.name)
        check = _TYPE_CHECK.get(a.value_type)
        if check is None:
            report.add(a.name, "attr-type",
                       f"unknown value type {a.value_type!r}")
            continue
        if a.initial is not None and not check(a.initial):
            report.add(a.name, "attr-initial-type",
                       f"initial {a.initial!r} is not of type {a.value_type}")
        if a.domain is not None and not a.domain:
            report.add(a.name, "empty-domain", "the domain has no values")
        for v in a.domain or ():
            if not check(v):
                report.add(a.name, "attr-domain-type",
                           f"domain member {v!r} is not of type {a.value_type}")

    # PROD text and inscriptions carry these names as guard identifiers
    for what, name in ([("place id", p) for p in place_map]
                       + [("transition id", t) for t in struct.transitions]
                       + [("parameter", n) for m in net.gsp.methods
                          for n, _ in m.params]
                       + [("attribute", a.name) for a in net.gsp.attributes]):
        if not guards.is_identifier(name):
            report.add(name, "bad-name",
                       f"{what} {name!r} is not a guard identifier")

    for key, _ in struct.inscriptions:
        if key not in arc_set:
            report.add(f"arc {key[0]}->{key[1]}", "inscription-domain",
                       "inscription on a non-existent arc")
        elif key[0] in pids:
            if any(not isinstance(e, guards.Var)
                   for e in struct.inscription_map[key]):
                report.add(f"arc {key[0]}->{key[1]}", "input-pattern",
                           "input-arc inscriptions must be variable patterns")
    for tid, _ in struct.conditions:
        if tid not in tids:
            report.add(tid, "condition-domain", "condition on unknown transition")
    for tid, _ in struct.actions:
        if tid not in tids:
            report.add(tid, "action-domain", "action on unknown transition")

    return report


# --- Renaming --------------------------------------------------------------

def rename_apart(ws: WebService, suffix: str) -> WebService:
    """Return an isomorphic service with every place/transition id suffixed,
    guaranteeing disjointness from the original id sets."""
    if not suffix:
        raise ValueError("suffix must be non-empty")
    rn = apart(suffix)
    new_methods = tuple(
        replace(m, init_place=rn(m.init_place),
                goal_places=frozenset(rn(g) for g in m.goal_places))
        for m in ws.net.gsp.methods)
    return replace(ws, net=GNetModel(
        gsp=replace(ws.net.gsp, methods=new_methods),
        internal=ws.net.internal.renamed(rn)))


# --- Block fragments -------------------------------------------------------

@dataclass(frozen=True)
class BlockFragment:
    structure: InternalStructure

    @property
    def entries(self):
        s = self.structure
        with_in = {t for _, t in s.arcs}
        return sorted((p.id for p in s.places if p.id not in with_in),
                      key=natural_key)

    @property
    def exits(self):
        s = self.structure
        with_out = {src for src, _ in s.arcs}
        return sorted((p.id for p in s.places if p.id not in with_out),
                      key=natural_key)

    def is_well_formed(self):
        s = self.structure
        if not self.entries or not self.exits:
            return False
        # connectivity over the undirected arc graph; entries are nodes
        nodes = {p.id for p in s.places} | set(s.transitions)
        adj = {n: set() for n in nodes}
        for a, b in s.arcs:
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        return closure({min(nodes)}, adj.__getitem__) == nodes


def closure(seeds, neighbours) -> set:
    """The nodes reachable from `seeds` by `neighbours`, seeds included."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for m in neighbours(stack.pop()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


# --- Registry --------------------------------------------------------------

class Registry:
    """Name-indexed store of services and block fragments."""

    def __init__(self):
        self.services: dict[str, WebService] = {}
        self.blocks: dict[str, BlockFragment] = {}

    def insert(self, ws: WebService):
        if ws.name in self.services:
            if self.services[ws.name] == ws:
                return  # idempotent re-registration of the identical value
            raise DuplicateService(ws.name)
        self.services[ws.name] = ws

    def insert_block(self, name: str, block: BlockFragment):
        if name in self.blocks and self.blocks[name] != block:
            raise DuplicateService(name)
        self.blocks[name] = block

    def lookup(self, name: str) -> WebService:
        try:
            return self.services[name]
        except KeyError:
            raise UnknownService(name) from None

    def lookup_block(self, name: str) -> BlockFragment:
        try:
            return self.blocks[name]
        except KeyError:
            raise UnknownBlock(name) from None

    def copy(self):
        out = Registry()
        out.services = dict(self.services)
        out.blocks = dict(self.blocks)
        return out
