"""The nine-operator composition algebra plus the empty and atomic
constructors.  Every operator states its fixed skeleton as data, (place,
role) nodes plus arcs, and returns a fully valid WebService over it; operand
services are referenced through ISP places by name.
"""

from __future__ import annotations

from dataclasses import replace

from . import guards
from .errors import (EmptyBranchSet, EmptyReplacement, MalformedBlock,
                     MissingReqMethod, UnknownMethod)
from .model import (GOAL, TAU, AttributeSpec, BlockFragment, GNetModel,
                    GspSpec, InternalStructure, IspRef, MethodSpec,
                    OpLabel, Place, PlaceKind, WebService, apart)

EMPTY_NAME = "Empty"


def main_method(ws: WebService) -> MethodSpec:
    """The unique method a bare ISP(S) reference resolves to."""
    candidates = [m for m in ws.net.gsp.methods if m.name != "req"]
    if len(candidates) != 1:
        raise UnknownMethod(ws.name, "<main>")
    return candidates[0]


def method(ws: WebService, name: str = None) -> MethodSpec:
    """The method `name` of `ws`, or its main method when `name` is None."""
    found = main_method(ws) if name is None else ws.net.gsp.method(name)
    if found is None:
        raise UnknownMethod(ws.name, name)
    return found


def is_empty_service(ws: WebService) -> bool:
    """Whether `ws` has the empty service's net: one place, no transition."""
    struct = ws.net.internal
    return len(struct.places) == 1 and not struct.transitions


def empty_service() -> WebService:
    """The algebra's neutral element: one method whose initial place is its
    goal, so a call to it returns at once."""
    struct = InternalStructure(
        places=(Place("p1", PlaceKind.GOAL),),
        labels=(("p1", GOAL),),
    )
    method = MethodSpec(EMPTY_NAME, "perform no operation", (), "p1",
                        frozenset({"p1"}))
    return WebService(
        name=EMPTY_NAME,
        desc="Empty Web Service",
        component_services=frozenset({EMPTY_NAME}),
        net=GNetModel(gsp=GspSpec(methods=(method,)), internal=struct),
    )


def atomic(name: str, op_name: str) -> WebService:
    if not name or not op_name:
        raise ValueError("atomic service and operation names must be non-empty")
    struct = InternalStructure(
        places=(Place("p1"), Place("p2", PlaceKind.GOAL)),
        transitions=("t1",),
        arcs=(("p1", "t1"), ("t1", "p2")),
        labels=(("p1", OpLabel(op_name)), ("p2", GOAL)),
    )
    method = MethodSpec("Atomic", f"perform {op_name}", (), "p1",
                        frozenset({"p2"}))
    return WebService(
        name=name,
        desc=f"atomic service performing {op_name}",
        component_services=frozenset({name}),
        net=GNetModel(gsp=GspSpec(methods=(method,)), internal=struct),
    )


def with_request_method(ws: WebService) -> WebService:
    """Extend a service with a trivial `req` method so it can participate in
    a selection: a one-transition subnet that echoes the request field."""
    if ws.net.gsp.method("req") is not None:
        return ws
    struct = ws.net.internal
    pids = struct.place_ids() | set(struct.transitions)
    rq1, rq2, rt1 = "rq1", "rq2", "rt1"
    while rq1 in pids or rq2 in pids or rt1 in pids:
        rq1, rq2, rt1 = rq1 + "_", rq2 + "_", rt1 + "_"
    new_struct = replace(
        struct,
        places=struct.places + (Place(rq1), Place(rq2, PlaceKind.GOAL)),
        transitions=struct.transitions + (rt1,),
        arcs=struct.arcs + ((rq1, rt1), (rt1, rq2)),
        inscriptions=struct.inscriptions
        + (((rt1, rq2), (guards.Var("r"),)),),
        labels=struct.labels + ((rq1, OpLabel("answer-request")), (rq2, GOAL)),
    )
    req = MethodSpec("req", "answer a selection request",
                     (("r", "request"),), rq1, frozenset({rq2}))
    gsp = replace(ws.net.gsp, methods=ws.net.gsp.methods + (req,))
    return replace(ws, net=GNetModel(gsp=gsp, internal=new_struct))


def _node(pid, role):
    """The place and label of skeleton node `pid` playing `role`: TAU, an
    OpLabel, GOAL, an operand service (an ISP to its main method) or a
    (service, method) pair (an ISP to that method)."""
    if role is GOAL:
        return Place(pid, PlaceKind.GOAL), GOAL
    if role is TAU or isinstance(role, OpLabel):
        return Place(pid), role
    ws, method = role if isinstance(role, tuple) else \
        (role, main_method(role).name)
    return (Place(pid, PlaceKind.ISP, invoked_gnet=ws.name,
                  using_method=method), IspRef(ws.name, method))


def _composite(op, description, operands, nodes, arcs, params=(),
               attributes=(), **annotations):
    """The `op` composite of `operands` over the skeleton `nodes`, (place
    id, role) pairs in place order, and `arcs` between them and the
    transitions t1..tk; `annotations` are the skeleton's inscriptions,
    conditions and actions.  One method `op` runs from p1 to the GOAL node;
    the component services are the operands'."""
    places, labels = [], []
    for pid, role in nodes:
        place, label = _node(pid, role)
        places.append(place)
        labels.append((pid, label))
        if role is GOAL:
            goal = pid
    pids = {pid for pid, _ in nodes}
    k = len({b if a in pids else a for a, b in arcs})
    struct = InternalStructure(
        places=tuple(places),
        transitions=tuple(f"t{i}" for i in range(1, k + 1)),
        arcs=tuple(arcs), labels=tuple(labels), **annotations)
    method = MethodSpec(op, description, params, "p1", frozenset({goal}))
    names = ",".join(s.name for s in operands)
    return WebService(
        name=f"{op}({names})", desc=f"{op} composition of {names}",
        component_services=frozenset().union(
            *(s.component_services for s in operands)),
        net=GNetModel(GspSpec(methods=(method,), attributes=attributes),
                      struct))


def sequence(s1: WebService, s2: WebService) -> WebService:
    return _composite(
        "Seq", "run the operands in order", (s1, s2),
        (("p1", s1), ("p2", s2), ("p3", GOAL)),
        (("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p3")))


def alternative(s1: WebService, s2: WebService) -> WebService:
    return _composite(
        "Alt", "run exactly one operand", (s1, s2),
        (("p1", TAU), ("p2", s1), ("p3", s2), ("p4", GOAL)),
        (("p1", "t1"), ("t1", "p2"), ("p2", "t3"), ("t3", "p4"),
         ("p1", "t2"), ("t2", "p3"), ("p3", "t4"), ("t4", "p4")))


def iteration(s: WebService) -> WebService:
    return _composite(
        "Iter", "run the operand repeatedly", (s,),
        (("p1", s), ("p2", GOAL)),
        (("p1", "t1"), ("t1", "p1"), ("p1", "t2"), ("t2", "p2")))


def arbitrary_sequence(s1: WebService, s2: WebService) -> WebService:
    return _composite(
        "ArbSeq", "run the operands in either order, never concurrently",
        (s1, s2),
        (("p1", TAU), ("p2", TAU), ("p3", TAU), ("p4", TAU), ("p5", s1),
         ("p6", s2), ("p7", TAU), ("p8", TAU), ("p9", GOAL)),
        (("p1", "t1"), ("t1", "p2"), ("t1", "p3"), ("t1", "p4"),
         ("p2", "t2"), ("t2", "p5"), ("p5", "t4"), ("t4", "p7"), ("t4", "p3"),
         ("p7", "t6"), ("t6", "p9"), ("p3", "t2"), ("p3", "t3"), ("p3", "t6"),
         ("p4", "t3"), ("t3", "p6"), ("p6", "t5"), ("t5", "p3"), ("t5", "p8"),
         ("p8", "t6")))


def parallel(s1: WebService, s2: WebService) -> WebService:
    return _composite(
        "Par", "run the operands concurrently and join", (s1, s2),
        (("p1", TAU), ("p2", s1), ("p3", s2), ("p4", GOAL)),
        (("p1", "t1"), ("t1", "p2"), ("t1", "p3"),
         ("p2", "t2"), ("p3", "t2"), ("t2", "p4")))


def discriminator(first_n, last: WebService) -> WebService:
    """Race the first operands; the earliest completion activates `last`,
    late completions are routed straight to the goal."""
    first_n = list(first_n)
    if not first_n:
        raise EmptyBranchSet("discriminator requires at least one racing branch")
    n = len(first_n) + 1

    nodes = [("p1", TAU), *((f"p{i}", s) for i, s in enumerate(first_n, 2)),
             (f"p{n + 1}", TAU), (f"p{n + 2}", last), (f"p{n + 3}", GOAL)]
    arcs = [(f"p{i}", f"t{i}") for i in range(1, n + 3)]
    for i in range(2, n + 1):
        arcs.append(("t1", f"p{i}"))
        arcs.append((f"t{i}", f"p{n + 1}"))
    arcs += [(f"p{n + 1}", f"t{n + 3}"), (f"t{n + 1}", f"p{n + 2}"),
             (f"t{n + 2}", f"p{n + 3}"), (f"t{n + 3}", f"p{n + 3}")]

    b = guards.Var("B")
    return _composite(
        "Disc", "first racer to finish triggers the continuation",
        first_n + [last], nodes, arcs,
        attributes=(AttributeSpec("B", "bool", initial=False),),
        inscriptions=((("p1", "t1"), (b,)),
                      ((f"p{n + 1}", f"t{n + 1}"), (b,)),
                      ((f"p{n + 1}", f"t{n + 3}"), (b,))),
        conditions=((f"t{n + 1}", guards.Compare(b, "==", guards.Lit(True))),
                    (f"t{n + 3}",
                     guards.Compare(b, "==", guards.Lit(False)))),
        actions=(("t1", (guards.Assign("B", guards.Lit(True)),)),
                 (f"t{n + 1}", (guards.Assign("B", guards.Lit(False)),))))


def selection(services, choice: int = 0) -> WebService:
    """Broadcast a request to every operand's `req` method, score the
    responses and run the chosen operand's main method.

    `choice` is the zero-based index the default scorer assigns; the routing
    attribute J is compiled to choice + 1 to match the route guards
    J == i - 2 on transitions t3..t_{n+2}.
    """
    services = list(services)
    if not services:
        raise EmptyBranchSet("selection requires at least one operand")
    if not 0 <= choice < len(services):
        raise ValueError("choice index out of range")
    for s in services:
        if s.net.gsp.method("req") is None:
            raise MissingReqMethod(s.name)
    n = len(services)

    nodes = [("p1", OpLabel("Create-request")),
             *((f"p{i}", (s, "req")) for i, s in enumerate(services, 2)),
             (f"p{n + 2}", OpLabel("Select-Service")),
             *((f"p{i}", s) for i, s in enumerate(services, n + 3)),
             (f"p{2 * n + 3}", GOAL)]
    arcs = [("p1", "t1"), ("t2", f"p{n + 2}")]
    for i in range(2, n + 2):
        arcs += [("t1", f"p{i}"), (f"p{i}", "t2"),
                 (f"p{n + 2}", f"t{i + 1}"), (f"t{i + 1}", f"p{i + n + 1}"),
                 (f"p{i + n + 1}", f"t{i + n + 1}"),
                 (f"t{i + n + 1}", f"p{2 * n + 3}")]

    r, resp, j = guards.Var("r"), guards.Var("resp"), guards.Var("J")
    inscriptions = [(("p1", "t1"), (r,)), (("t2", f"p{n + 2}"), (resp,))]
    for i in range(2, n + 2):
        inscriptions.append((("t1", f"p{i}"), (r,)))
        inscriptions.append(((f"p{i}", "t2"), (resp,)))
        inscriptions.append(((f"p{n + 2}", f"t{i + 1}"), (j,)))
    return _composite(
        "Select", "choose and run one operand", services, nodes, arcs,
        params=(("r", "request"),),
        attributes=(AttributeSpec("J", "int", initial=0),
                    AttributeSpec("r", "string", initial="")),
        inscriptions=tuple(inscriptions),
        conditions=tuple((f"t{i}", guards.Compare(j, "==", guards.Lit(i - 2)))
                         for i in range(3, n + 3)),
        actions=(("t2", (guards.Assign("J", guards.Lit(choice + 1)),)),))


def _block_component_services(block: BlockFragment):
    return frozenset(lab.service for _, lab in block.structure.labels
                     if isinstance(lab, IspRef))


def refine(s: WebService, op_name: str, block: BlockFragment) -> WebService:
    """Replace every place labeled with the operation by the block's net,
    splicing block entries after the feeding transitions and block exits
    before the fed transitions."""
    if not block.is_well_formed():
        raise MalformedBlock(
            "block must be connected with non-empty entry and exit sets")
    struct = s.net.internal
    removed = {pid for pid, lab in struct.labels
               if isinstance(lab, OpLabel) and lab.name == op_name}
    if not removed:
        return s

    block = BlockFragment(block.structure.renamed(apart("A")))
    entries, exits = block.entries, block.exits
    methods = []
    for m in s.net.gsp.methods:
        init = m.init_place
        goals = set(m.goal_places)
        if init in removed:
            if len(entries) != 1:
                raise MalformedBlock(
                    "refining a method's initial place requires a block "
                    "with a single entry")
            init = entries[0]
        if goals & removed:
            goals = (goals - removed) | set(exits)
        methods.append(replace(m, init_place=init,
                               goal_places=frozenset(goals)))

    new_struct = struct.substituted(
        [(removed, block.structure, entries, exits)])
    cs = s.component_services | _block_component_services(block)
    return replace(s, name=f"Ref({s.name},{op_name})",
                   desc=f"{s.name} with {op_name} refined",
                   component_services=cs,
                   net=GNetModel(replace(s.net.gsp, methods=tuple(methods)),
                                 new_struct))


def replace_service(s: WebService, s1: WebService, s2: WebService) -> WebService:
    """Swap every reference to component s1 for s2; identity when s does not
    contain s1's components."""
    if is_empty_service(s2):
        raise EmptyReplacement("replacement service must not be empty")
    if not (s1.component_services <= s.component_services):
        return s

    old_main = main_method(s1).name
    new_main = main_method(s2).name

    def map_method(m):
        return new_main if m == old_main else m

    struct = s.net.internal
    new_places = []
    for p in struct.places:
        if p.kind is PlaceKind.ISP and p.invoked_gnet == s1.name:
            new_places.append(replace(p, invoked_gnet=s2.name,
                                      using_method=map_method(p.using_method)))
        else:
            new_places.append(p)
    new_labels = []
    for pid, lab in struct.labels:
        if isinstance(lab, IspRef) and lab.service == s1.name:
            new_labels.append((pid, IspRef(s2.name, map_method(lab.method))))
        else:
            new_labels.append((pid, lab))

    cs = (s.component_services - s1.component_services) | s2.component_services
    new_struct = replace(struct, places=tuple(new_places),
                         labels=tuple(new_labels))
    return replace(s, name=f"Rep({s.name},{s1.name},{s2.name})",
                   desc=f"{s.name} with {s1.name} replaced by {s2.name}",
                   component_services=cs,
                   net=GNetModel(s.net.gsp, new_struct))
