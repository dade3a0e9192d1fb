"""Shared fixture nets: the book-ordering flows used across the analysis,
export and acceptance tests."""

from dataclasses import replace

from gnets import algebra
from gnets.guards import parse_action, parse_condition, parse_inscription
from gnets.model import (GOAL, TAU, AttributeSpec, BlockFragment, GNetModel,
                         GspSpec, InternalStructure, IspRef, MethodSpec,
                         OpLabel, Place, PlaceKind, WebService)


def _ins(text):
    return parse_inscription(text)


def book_order_service():
    """A six-place ordering flow with an availability check: the in-stock
    path runs P1..P6 through T1/T2/T4/T5/T6, the out-of-stock path shortcuts
    through T3 and T7.  Tokens carry ⟨seq, Available⟩ until T4/T7 drop the
    flag."""
    wide = "seq, Available"
    arcs_with_fields = [
        ("P1", "T1", wide), ("T1", "P2", wide),
        ("P2", "T2", wide), ("T2", "P3", wide),
        ("P1", "T3", wide), ("T3", "P3", wide),
        ("P3", "T4", wide), ("T4", "P4", "seq"),
        ("P4", "T5", "seq"), ("T5", "P5", "seq"),
        ("P5", "T6", "seq"), ("T6", "P6", "seq"),
        ("P3", "T7", wide), ("T7", "P6", "seq"),
    ]
    struct = InternalStructure(
        places=(Place("P1"), Place("P2"), Place("P3"), Place("P4"),
                Place("P5"), Place("P6", PlaceKind.GOAL)),
        transitions=tuple(f"T{i}" for i in range(1, 8)),
        arcs=tuple((a, b) for a, b, _ in arcs_with_fields),
        inscriptions=tuple(((a, b), _ins(f)) for a, b, f in arcs_with_fields),
        conditions=(
            ("T1", parse_condition("Available == true")),
            ("T3", parse_condition("Available == false")),
            ("T4", parse_condition("Available == true")),
            ("T7", parse_condition("Available == false")),
        ),
        labels=(("P1", OpLabel("Receive-command")),
                ("P2", OpLabel("Verify-availability")),
                ("P3", OpLabel("Prepare-response")),
                ("P4", OpLabel("Pack-books")),
                ("P5", OpLabel("Send-books")),
                ("P6", GOAL)),
    )
    method = MethodSpec("Command", "process one book order",
                        (("seq", "order sequence number"),),
                        "P1", frozenset({"P6"}))
    gsp = GspSpec(methods=(method,),
                  attributes=(AttributeSpec("Available", "bool"),))
    return WebService(name="Book-Order", desc="book ordering flow",
                      component_services=frozenset({"Book-Order"}),
                      net=GNetModel(gsp, struct))


def treat_command_service():
    """A three-step chain whose middle step is the coarse place to refine."""
    struct = InternalStructure(
        places=(Place("q1"), Place("q2"), Place("q3"),
                Place("q4", PlaceKind.GOAL)),
        transitions=("u1", "u2", "u3"),
        arcs=(("q1", "u1"), ("u1", "q2"), ("q2", "u2"), ("u2", "q3"),
              ("q3", "u3"), ("u3", "q4")),
        labels=(("q1", OpLabel("Receive-command")),
                ("q2", OpLabel("Treat-Command")),
                ("q3", OpLabel("Send-books")),
                ("q4", GOAL)),
    )
    method = MethodSpec("Command", "process one book order", (),
                        "q1", frozenset({"q4"}))
    return WebService(name="Command-Books", desc="coarse ordering chain",
                      component_services=frozenset({"Command-Books"}),
                      net=GNetModel(GspSpec(methods=(method,)), struct))


def treat_command_block():
    """Four-operation replacement for the Treat-Command step."""
    struct = InternalStructure(
        places=(Place("b1"), Place("b2"), Place("b3"), Place("b4")),
        transitions=("bt1", "bt2", "bt3"),
        arcs=(("b1", "bt1"), ("bt1", "b2"), ("b2", "bt2"), ("bt2", "b3"),
              ("b3", "bt3"), ("bt3", "b4")),
        labels=(("b1", OpLabel("Verify-availability")),
                ("b2", OpLabel("Stock-quantity")),
                ("b3", OpLabel("Add-to-cart")),
                ("b4", OpLabel("Subtotal"))),
    )
    return BlockFragment(struct)


def gated_false_service():
    """A net whose only transition can never fire: the canonical deadlock."""
    struct = InternalStructure(
        places=(Place("p1"), Place("p2", PlaceKind.GOAL)),
        transitions=("t1",),
        arcs=(("p1", "t1"), ("t1", "p2")),
        conditions=(("t1", parse_condition("1 == 2")),),
        labels=(("p1", OpLabel("never")), ("p2", GOAL)),
    )
    method = MethodSpec("Never", "", (), "p1", frozenset({"p2"}))
    return WebService(name="Gated-False", desc="unsatisfiable gate",
                      component_services=frozenset({"Gated-False"}),
                      net=GNetModel(GspSpec(methods=(method,)), struct))


def branching_bool_service():
    """A small two-way branch over a boolean attribute with an action,
    exercising guards, actions and domain enumeration together."""
    struct = InternalStructure(
        places=(Place("p1"), Place("p2"), Place("p3", PlaceKind.GOAL)),
        transitions=("t1", "t2", "t3"),
        arcs=(("p1", "t1"), ("t1", "p2"), ("p1", "t2"), ("t2", "p3"),
              ("p2", "t3"), ("t3", "p3")),
        inscriptions=(
            (("p1", "t1"), _ins("V")),
            (("t1", "p2"), _ins("V")),
            (("p1", "t2"), _ins("V")),
            (("t2", "p3"), _ins("V")),
            (("p2", "t3"), _ins("V")),
            (("t3", "p3"), _ins("V")),
        ),
        conditions=(("t1", parse_condition("V == true")),
                    ("t2", parse_condition("V == false")),),
        actions=(("t3", parse_action("V := false")),),
        labels=(("p1", OpLabel("decide")), ("p2", OpLabel("work")),
                ("p3", GOAL)),
    )
    method = MethodSpec("Branch", "", (), "p1", frozenset({"p3"}))
    gsp = GspSpec(methods=(method,),
                  attributes=(AttributeSpec("V", "bool"),))
    return WebService(name="Bool-Branch", desc="boolean branch",
                      component_services=frozenset({"Bool-Branch"}),
                      net=GNetModel(gsp, struct))


def stuck_service():
    """One step that fires, then a gate that never holds: a call to it
    records the first firing and deadlocks."""
    struct = InternalStructure(
        places=(Place("p0"), Place("p1"), Place("p2", PlaceKind.GOAL)),
        transitions=("t0", "t1"),
        arcs=(("p0", "t0"), ("t0", "p1"), ("p1", "t1"), ("t1", "p2")),
        conditions=(("t1", parse_condition("1 == 2")),),
        labels=(("p0", OpLabel("start")), ("p1", OpLabel("never")),
                ("p2", GOAL)),
    )
    method = MethodSpec("Stall", "", (), "p0", frozenset({"p2"}))
    return WebService(name="Stuck", desc="stalls after one step",
                      component_services=frozenset({"Stuck"}),
                      net=GNetModel(GspSpec(methods=(method,)), struct))


def missing_method_service():
    """seq(a, b) over atomic a and b, whose ISP into b calls the method
    Nope, which b lacks.  `validate` accepts it, as it reads no
    registry."""
    ws = algebra.sequence(algebra.atomic("a", "op-a"),
                          algebra.atomic("b", "op-b"))
    struct = ws.net.internal
    places = tuple(replace(p, using_method="Nope") if p.invoked_gnet == "b"
                   else p for p in struct.places)
    labels = tuple((pid, IspRef("b", "Nope") if lab == IspRef("b", "Atomic")
                    else lab) for pid, lab in struct.labels)
    return replace(ws, net=GNetModel(ws.net.gsp, replace(
        struct, places=places, labels=labels)))


def mixed_values_service():
    """t0 forks; ta puts the int 1 and tb the str "a" on p1, and t1 reads
    either as x: one transition, two bindings of x of different types."""
    struct = InternalStructure(
        places=(Place("p0"), Place("pa"), Place("pb"), Place("p1"),
                Place("p2", PlaceKind.GOAL)),
        transitions=("t0", "ta", "tb", "t1"),
        arcs=(("p0", "t0"), ("t0", "pa"), ("t0", "pb"), ("pa", "ta"),
              ("ta", "p1"), ("pb", "tb"), ("tb", "p1"), ("p1", "t1"),
              ("t1", "p2")),
        inscriptions=((("ta", "p1"), _ins("1")), (("tb", "p1"), _ins('"a"')),
                      (("p1", "t1"), _ins("x"))),
        labels=(("p0", OpLabel("fork")), ("pa", OpLabel("int")),
                ("pb", OpLabel("str")), ("p1", OpLabel("read")),
                ("p2", GOAL)),
    )
    method = MethodSpec("Mix", "", (), "p0", frozenset({"p2"}))
    return WebService(name="Mixed", desc="an int and a str on one place",
                      component_services=frozenset({"Mixed"}),
                      net=GNetModel(GspSpec(methods=(method,)), struct))


def one_or_true_service():
    """t0 puts the int 1 on p1 and a black token on pc; t1 then puts a
    second 1 on p1 and t2 the bool true: two markings that differ only in
    the type of one value."""
    struct = InternalStructure(
        places=(Place("p0"), Place("pc"), Place("p1"),
                Place("p2", PlaceKind.GOAL)),
        transitions=("t0", "t1", "t2"),
        arcs=(("p0", "t0"), ("t0", "p1"), ("t0", "pc"), ("pc", "t1"),
              ("t1", "p1"), ("pc", "t2"), ("t2", "p1")),
        inscriptions=((("t0", "p1"), _ins("1")), (("t1", "p1"), _ins("1")),
                      (("t2", "p1"), _ins("true"))),
        labels=(("p0", OpLabel("fork")), ("pc", OpLabel("pick")),
                ("p1", OpLabel("hold")), ("p2", GOAL)),
    )
    method = MethodSpec("Pick", "", (), "p0", frozenset({"p2"}))
    return WebService(name="OneOrTrue", desc="1 or true next to a 1",
                      component_services=frozenset({"OneOrTrue"}),
                      net=GNetModel(GspSpec(methods=(method,)), struct))


def equal_binding_service():
    """t0 puts (a, b) on p1 and (a, c) on p2; t1 copies p1's token to p3
    and p5, t2 joins p2 and p5 into p3; t3 reads a from p3.  With a = b = 1
    and c = 2, the two tokens p3 can hold differ, but each binds t3's a to
    1: two firings with one binding."""
    struct = InternalStructure(
        places=(Place("p0"), Place("p1"), Place("p2"), Place("p3"),
                Place("p4", PlaceKind.GOAL), Place("p5")),
        transitions=("t0", "t1", "t2", "t3"),
        arcs=(("p0", "t0"), ("t0", "p1"), ("t0", "p2"), ("p1", "t1"),
              ("t1", "p3"), ("t1", "p5"), ("p2", "t2"), ("p5", "t2"),
              ("t2", "p3"), ("p3", "t3"), ("t3", "p4")),
        inscriptions=((("t0", "p1"), _ins("a, b")),
                      (("t0", "p2"), _ins("a, c")),
                      (("p3", "t3"), _ins("a")), (("t3", "p4"), _ins("a"))),
        labels=(("p0", OpLabel("fork")), ("p1", OpLabel("copy")),
                ("p2", OpLabel("join")), ("p3", OpLabel("read")),
                ("p4", GOAL), ("p5", OpLabel("wait"))),
    )
    method = MethodSpec("Read", "", (), "p0", frozenset({"p4"}))
    attributes = (AttributeSpec("a", "int", initial=1),
                  AttributeSpec("b", "int", initial=1),
                  AttributeSpec("c", "int", initial=2))
    return WebService(name="EqualBinding", desc="two tokens, one binding",
                      component_services=frozenset({"EqualBinding"}),
                      net=GNetModel(GspSpec(methods=(method,),
                                            attributes=attributes), struct))
