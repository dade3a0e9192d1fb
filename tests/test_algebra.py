import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_acceptance
from fixtures import treat_command_block, treat_command_service
from gnets import algebra, analysis, guards
from gnets.errors import (EmptyBranchSet, EmptyReplacement, MalformedBlock,
                          MissingReqMethod)
from gnets.model import (BlockFragment, GoalLabel, InternalStructure, IspRef,
                         OpLabel, Place, PlaceKind, TauLabel, validate)


@pytest.fixture
def s1():
    return algebra.atomic("S1", "op-one")


@pytest.fixture
def s2():
    return algebra.atomic("S2", "op-two")


@pytest.fixture
def s3():
    return algebra.atomic("S3", "op-three")


def counts(ws):
    s = ws.net.internal
    return len(s.places), len(s.transitions), len(s.arcs)


def isp_targets(ws):
    return sorted(lab.service for _, lab in ws.net.internal.labels
                  if isinstance(lab, IspRef))


class TestConstructors:
    def test_empty(self):
        ws = algebra.empty_service()
        assert counts(ws) == (1, 0, 0)
        (method,) = ws.net.gsp.methods
        assert (method.name, method.params) == ("Empty", ())
        assert method.init_place == "p1"
        assert method.goal_places == frozenset({"p1"})
        assert ws.component_services == frozenset({"Empty"})
        assert validate(ws).ok

    def test_atomic(self, s1):
        assert counts(s1) == (2, 1, 2)
        labels = s1.net.internal.label_map
        assert labels["p1"] == OpLabel("op-one")
        assert isinstance(labels["p2"], GoalLabel)
        assert validate(s1).ok

    def test_atomic_rejects_empty_names(self):
        with pytest.raises(ValueError):
            algebra.atomic("", "op")


class TestSkeletons:
    def test_sequence(self, s1, s2):
        ws = algebra.sequence(s1, s2)
        assert counts(ws) == (3, 2, 4)
        assert isp_targets(ws) == ["S1", "S2"]
        assert validate(ws).ok

    def test_alternative(self, s1, s2):
        ws = algebra.alternative(s1, s2)
        assert counts(ws) == (4, 4, 8)
        assert validate(ws).ok

    def test_iteration(self, s1):
        ws = algebra.iteration(s1)
        assert counts(ws) == (2, 2, 4)
        arcs = set(ws.net.internal.arcs)
        assert ("p1", "t1") in arcs and ("t1", "p1") in arcs  # the loop
        assert validate(ws).ok

    def test_arbitrary_sequence(self, s1, s2):
        ws = algebra.arbitrary_sequence(s1, s2)
        assert counts(ws) == (9, 6, 20)
        assert validate(ws).ok

    def test_parallel(self, s1, s2):
        ws = algebra.parallel(s1, s2)
        assert counts(ws) == (4, 2, 6)
        assert validate(ws).ok

    def test_component_services_union(self, s1, s2):
        ws = algebra.sequence(s1, s2)
        assert ws.component_services == frozenset({"S1", "S2"})


class TestDiscriminator:
    def test_counts(self, s1, s2, s3):
        ws = algebra.discriminator([s1, s2], s3)
        assert (len(ws.net.internal.places),
                len(ws.net.internal.transitions)) == (6, 6)
        assert validate(ws).ok

    def test_guards_and_actions(self, s1, s2, s3):
        ws = algebra.discriminator([s1, s2], s3)
        struct = ws.net.internal
        conds = struct.condition_map
        acts = struct.action_map
        assert guards.print_condition(conds["t4"]) == "B == true"
        assert guards.print_condition(conds["t6"]) == "B == false"
        assert guards.print_action(acts["t1"]) == "B := true"
        assert guards.print_action(acts["t4"]) == "B := false"
        attr = ws.net.gsp.attribute("B")
        assert attr.value_type == "bool" and attr.initial is False

    def test_requires_racers(self, s1):
        with pytest.raises(EmptyBranchSet):
            algebra.discriminator([], s1)

    @pytest.mark.parametrize("racers", ["a", "a, b", "a, b, c"])
    def test_token_game_runs_each_operand_once(self, racers):
        """Every complete run of disc(racers; d) runs each racer and the
        continuation d once, and ends with one goal token per racer: the
        continuation's and each late racer's."""
        reg = test_acceptance.make_registry()
        service = analysis.inline_isps(test_acceptance.compose(
            f"disc({racers}; d)", reg), reg).service
        graph = analysis.explore_service(service)
        ops = sorted(f"op-{name}" for name in racers.split(", ") + ["d"])
        words = analysis.label_language(graph, op_letters(service))
        assert words and all(sorted(word) == ops for word in words)
        goals = algebra.main_method(service).goal_places
        ends = [dict(graph.marking_of(state))
                for state, out in graph.out.items() if not out]
        assert ends and all(
            sum(len(marking.get(g, ())) for g in goals) == len(ops) - 1
            for marking in ends)


class TestSelection:
    def test_counts(self, s1, s2, s3):
        ops = [algebra.with_request_method(s) for s in (s1, s2, s3)]
        ws = algebra.selection(ops)
        assert (len(ws.net.internal.places),
                len(ws.net.internal.transitions)) == (9, 8)
        assert validate(ws).ok

    def test_route_guards(self, s1, s2):
        ops = [algebra.with_request_method(s) for s in (s1, s2)]
        ws = algebra.selection(ops, choice=1)
        conds = ws.net.internal.condition_map
        assert guards.print_condition(conds["t3"]) == "J == 1"
        assert guards.print_condition(conds["t4"]) == "J == 2"
        acts = ws.net.internal.action_map
        assert guards.print_action(acts["t2"]) == "J := 2"

    def test_broadcast_and_route_labels(self, s1, s2):
        ops = [algebra.with_request_method(s) for s in (s1, s2)]
        ws = algebra.selection(ops)
        labels = ws.net.internal.label_map
        assert labels["p1"] == OpLabel("Create-request")
        assert labels["p4"] == OpLabel("Select-Service")
        assert labels["p2"] == IspRef("S1", "req")
        assert labels["p5"] == IspRef("S1", "Atomic")

    def test_requires_req_method(self, s1, s2):
        with pytest.raises(MissingReqMethod):
            algebra.selection([s1, s2])

    def test_choice_out_of_range(self, s1):
        ops = [algebra.with_request_method(s1)]
        with pytest.raises(ValueError):
            algebra.selection(ops, choice=3)


class TestWithRequestMethod:
    def test_adds_req(self, s1):
        ws = algebra.with_request_method(s1)
        req = ws.net.gsp.method("req")
        assert req is not None and [n for n, _ in req.params] == ["r"]
        assert validate(ws).ok

    def test_idempotent(self, s1):
        once = algebra.with_request_method(s1)
        assert algebra.with_request_method(once) is once

    def test_main_method_ignores_req(self, s1):
        ws = algebra.with_request_method(s1)
        assert algebra.main_method(ws).name == "Atomic"


class TestRefine:
    def test_place_count_arithmetic(self):
        base = treat_command_service()
        old = len(base.net.internal.places)
        refined = algebra.refine(base, "Treat-Command", treat_command_block())
        assert len(refined.net.internal.places) == old - 1 + 4
        assert validate(refined).ok

    def test_splice_wiring(self):
        refined = algebra.refine(treat_command_service(), "Treat-Command",
                                 treat_command_block())
        arcs = set(refined.net.internal.arcs)
        # u1 fed q2 before; now feeds the block entry, block exit feeds u2
        assert ("u1", "b1§A") in arcs
        assert ("b4§A", "u2") in arcs
        assert not any("q2" in arc for arc in arcs)

    def test_arc_order(self):
        refined = algebra.refine(treat_command_service(), "Treat-Command",
                                 treat_command_block())
        # kept arcs, then redirected arcs in the original order, then the
        # block's arcs
        assert refined.net.internal.arcs == (
            ("q1", "u1"), ("u2", "q3"), ("q3", "u3"), ("u3", "q4"),
            ("u1", "b1§A"), ("b4§A", "u2"),
            ("b1§A", "bt1§A"), ("bt1§A", "b2§A"), ("b2§A", "bt2§A"),
            ("bt2§A", "b3§A"), ("b3§A", "bt3§A"), ("bt3§A", "b4§A"))

    def test_unknown_operation_is_identity(self):
        base = treat_command_service()
        assert algebra.refine(base, "No-Such-Op", treat_command_block()) is base

    def test_malformed_block_rejected(self):
        struct = InternalStructure(
            places=(Place("a"),), transitions=("t",),
            arcs=(("a", "t"), ("t", "a")), labels=(("a", TauLabel()),))
        with pytest.raises(MalformedBlock):
            algebra.refine(treat_command_service(), "Treat-Command",
                           BlockFragment(struct))

    def test_goal_refinement_remaps_method_goals(self):
        base = treat_command_service()
        refined = algebra.refine(base, "Send-books", treat_command_block())
        assert validate(refined).ok
        method = refined.net.gsp.method("Command")
        assert method.goal_places == frozenset({"q4"})


class TestReplace:
    def test_relabels_isps(self, s1, s2, s3):
        composed = algebra.sequence(s1, s2)
        swapped = algebra.replace_service(composed, s1, s3)
        assert isp_targets(swapped) == ["S2", "S3"]
        assert swapped.component_services == frozenset({"S2", "S3"})
        assert validate(swapped).ok

    def test_identity_when_component_absent(self, s1, s2, s3):
        composed = algebra.sequence(s1, s2)
        assert algebra.replace_service(composed, s3, s1) is composed

    def test_empty_replacement_rejected(self, s1, s2):
        composed = algebra.sequence(s1, s2)
        with pytest.raises(EmptyReplacement):
            algebra.replace_service(composed, s1, algebra.empty_service())

    def test_method_name_mapped(self, s1, s2, s3):
        composed = algebra.sequence(s1, s2)
        swapped = algebra.replace_service(composed, s1, s3)
        place = swapped.net.internal.place_map["p1"]
        assert place.invoked_gnet == "S3"
        assert place.using_method == "Atomic"


class TestClosureSmoke:
    def test_nested_composition_validates(self, s1, s2, s3):
        ws = algebra.parallel(
            algebra.alternative(algebra.sequence(s1, s2), s3),
            algebra.iteration(algebra.arbitrary_sequence(s2, s3)))
        assert validate(ws).ok
        assert algebra.main_method(ws).name == "Par"


# name -> the two sides of a law over the subterms x, y and z
LAWS = {
    "seq is associative": ("seq(seq({x}, {y}), {z})",
                           "seq({x}, seq({y}, {z}))"),
    "alt is associative": ("alt(alt({x}, {y}), {z})",
                           "alt({x}, alt({y}, {z}))"),
    "par is associative": ("par(par({x}, {y}), {z})",
                           "par({x}, par({y}, {z}))"),
    "alt commutes": ("alt({x}, {y})", "alt({y}, {x})"),
    "par commutes": ("par({x}, {y})", "par({y}, {x})"),
    "anyseq commutes": ("anyseq({x}, {y})", "anyseq({y}, {x})"),
    "disc racers commute": ("disc({x}, {y}; {z})", "disc({y}, {x}; {z})"),
    "anyseq expands": ("anyseq({x}, {y})",
                       "alt(seq({x}, {y}), seq({y}, {x}))"),
    "empty is a left unit of seq": ("seq(empty, {x})", "{x}"),
    "empty is a right unit of seq": ("seq({x}, empty)", "{x}"),
    "empty is a unit of par": ("par({x}, empty)", "{x}"),
    "alt is idempotent": ("alt({x}, {x})", "{x}"),
    "seq distributes over alt": ("seq({x}, alt({y}, {z}))",
                                 "alt(seq({x}, {y}), seq({x}, {z}))"),
}
# a subterm of two leaves: a law that holds only for one-letter subterms,
# such as anyseq without its mutual exclusion, fails on these
SUBTERMS = st.builds("{}({}, {})".format,
                     st.sampled_from(("seq", "alt", "par", "anyseq")),
                     st.sampled_from(test_acceptance.LEAVES),
                     st.sampled_from(test_acceptance.LEAVES))


def op_letters(service):
    """The `label_language` letters of a token-game edge of `service`: the
    operation labels of the places its transition consumes."""
    struct = service.net.internal
    labels = struct.label_map
    return lambda tid: tuple(labels[p].name for p in struct.pre(tid)
                             if isinstance(labels.get(p), OpLabel))


def op_language(text, reg):
    """The label language of a term's token game."""
    service = analysis.inline_isps(test_acceptance.compose(text, reg),
                                   reg).service
    return analysis.label_language(analysis.explore_service(service),
                                   op_letters(service))


class TestLaws:
    """The algebra's laws hold as equal label languages: traces, not
    branching bisimulation, under which `seq` does not distribute over
    `alt`."""

    @pytest.mark.parametrize("law", LAWS)
    @given(x=SUBTERMS, y=SUBTERMS, z=SUBTERMS)
    @settings(max_examples=20, deadline=None)
    def test_law_holds(self, law, x, y, z):
        reg = test_acceptance.make_registry()
        left, right = (side.format(x=x, y=y, z=z) for side in LAWS[law])
        assert op_language(left, reg) == op_language(right, reg)
