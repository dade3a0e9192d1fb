from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (book_order_service, treat_command_block,
                      treat_command_service)
from gnets import algebra, analysis, dsl
from gnets.errors import DuplicateService, UnknownBlock, UnknownService
from gnets.guards import Lit, Var
from gnets.model import (GOAL, TAU, AttributeSpec, BlockFragment, GNetModel,
                         GspSpec, InternalStructure, IspRef, MethodSpec,
                         OpLabel, Place, PlaceKind, Registry, WebService,
                         apart, exact, freeze_marking, natural_key,
                         rename_apart, same, validate)
from test_dsl import make_registry, terms


def make_service(struct, methods=(), attributes=(), name="S"):
    return WebService(name=name, component_services=frozenset({name}),
                      net=GNetModel(GspSpec(methods=tuple(methods),
                                            attributes=tuple(attributes)),
                                    struct))


class TestValidate:
    def test_empty_service_is_clean(self):
        assert validate(algebra.empty_service()).ok

    def test_fixture_is_clean(self):
        assert validate(book_order_service()).ok

    def test_place_to_place_arc(self):
        struct = InternalStructure(
            places=(Place("p1"), Place("p2")),
            arcs=(("p1", "p2"),),
            labels=(("p1", TAU), ("p2", TAU)),
        )
        report = validate(make_service(struct))
        assert [v.rule for v in report.violations] == ["non-bipartite arc"]

    def test_dangling_arc(self):
        struct = InternalStructure(
            places=(Place("p1"),), transitions=("t1",),
            arcs=(("p1", "t9"),), labels=(("p1", TAU),))
        report = validate(make_service(struct))
        assert any(v.rule == "dangling-arc" for v in report.violations)

    def test_isp_missing_invocation_target(self):
        struct = InternalStructure(
            places=(Place("p1", PlaceKind.ISP, invoked_gnet="Other"),),
            labels=(("p1", IspRef("Other", "m")),))
        report = validate(make_service(struct))
        assert any(v.rule == "ISP missing invocation target"
                   for v in report.violations)

    def test_isp_label_mismatch(self):
        struct = InternalStructure(
            places=(Place("p1", PlaceKind.ISP, invoked_gnet="A",
                          using_method="m"),),
            labels=(("p1", IspRef("B", "m")),))
        report = validate(make_service(struct))
        assert any(v.rule == "isp-label-mismatch" for v in report.violations)

    def test_goal_kind_requires_goal_label(self):
        struct = InternalStructure(
            places=(Place("p1", PlaceKind.GOAL),), labels=(("p1", TAU),))
        report = validate(make_service(struct))
        assert any(v.rule == "goal-label" for v in report.violations)

    def test_label_map_must_cover_places(self):
        struct = InternalStructure(places=(Place("p1"),))
        report = validate(make_service(struct))
        assert any(v.rule == "label-domain" for v in report.violations)

    def test_method_init_must_exist(self):
        struct = InternalStructure(places=(Place("p1"),),
                                   labels=(("p1", TAU),))
        m = MethodSpec("m", "", (), "missing", frozenset({"p1"}))
        report = validate(make_service(struct, methods=[m]))
        rules = {v.rule for v in report.violations}
        assert "missing-init" in rules

    def test_init_equals_goal_rejected_outside_empty_net(self):
        struct = InternalStructure(
            places=(Place("p1", PlaceKind.GOAL), Place("p2")),
            transitions=("t1",), arcs=(("p2", "t1"), ("t1", "p1")),
            labels=(("p1", GOAL), ("p2", TAU)))
        m = MethodSpec("m", "", (), "p1", frozenset({"p1"}))
        report = validate(make_service(struct, methods=[m]))
        assert any(v.rule == "init-is-goal" for v in report.violations)

    def test_attribute_typing(self):
        struct = InternalStructure()
        report = validate(make_service(
            struct, attributes=[AttributeSpec("a", "bool", initial=3),
                                AttributeSpec("b", "int", domain=(1, "x"))]))
        rules = [v.rule for v in report.violations]
        assert "attr-initial-type" in rules
        assert "attr-domain-type" in rules

    def test_input_arc_patterns_must_be_variables(self):
        struct = InternalStructure(
            places=(Place("p1"),), transitions=("t1",),
            arcs=(("p1", "t1"),),
            inscriptions=((("p1", "t1"), (Lit(1),)),),
            labels=(("p1", TAU),))
        report = validate(make_service(struct))
        assert any(v.rule == "input-pattern" for v in report.violations)

    def test_duplicate_arc(self):
        ws = algebra.atomic("A", "op")
        struct = ws.net.internal
        doubled = replace(struct, arcs=struct.arcs + (("p1", "t1"),))
        report = validate(replace(ws, net=GNetModel(ws.net.gsp, doubled)))
        assert [v.rule for v in report.violations] == ["duplicate-arc"]

    def test_empty_domain(self):
        ws = book_order_service()
        gsp = replace(ws.net.gsp, attributes=(
            AttributeSpec("Available", "bool", None, ()),))
        report = validate(replace(ws, net=GNetModel(gsp, ws.net.internal)))
        assert [v.rule for v in report.violations] == ["empty-domain"]


class TestRenameApart:
    def test_basic(self):
        ws = book_order_service()
        renamed = rename_apart(ws, "L")
        assert "P1§L" in renamed.net.internal.place_ids()
        assert renamed.net.gsp.method("Command").init_place == "P1§L"
        assert validate(renamed).ok

    def test_isomorphism_counts(self):
        ws = book_order_service()
        renamed = rename_apart(ws, "x")
        a, b = ws.net.internal, renamed.net.internal
        assert len(a.places) == len(b.places)
        assert len(a.transitions) == len(b.transitions)
        assert len(a.arcs) == len(b.arcs)
        assert sorted(p.kind.value for p in a.places) == \
            sorted(p.kind.value for p in b.places)
        assert sorted(type(l).__name__ for _, l in a.labels) == \
            sorted(type(l).__name__ for _, l in b.labels)

    def test_disjoint_under_distinct_suffixes(self):
        ws = book_order_service()
        x = rename_apart(ws, "x").net.internal.place_ids()
        y = rename_apart(ws, "y").net.internal.place_ids()
        assert not x & y
        assert not x & ws.net.internal.place_ids()

    def test_empty_suffix_rejected(self):
        with pytest.raises(ValueError):
            rename_apart(book_order_service(), "")


def composed_structures():
    """Structures of composed terms, before and after ISP inlining, and of
    refined services."""
    reg = Registry()
    for name in ("a", "b", "c"):
        reg.insert(algebra.with_request_method(
            algebra.atomic(name, f"op-{name}")))
    reg.insert_block("B", treat_command_block())
    out = []
    for term in ("seq(a, par(b, c))", "disc(a, b; c)",
                 "anyseq(a, iter(b))", "select(a, b)",
                 'alt(refine(a, "op-a", B), b)'):
        ws = dsl.eval_expr(dsl.parse_expr(term), reg)
        reg.insert(ws)
        inlined = analysis.inline_isps(ws, reg).service
        out.append(pytest.param(ws.net.internal, id=term))
        out.append(pytest.param(inlined.net.internal, id=f"inlined {term}"))
    refined = algebra.refine(treat_command_service(), "Treat-Command",
                             treat_command_block())
    out.append(pytest.param(refined.net.internal, id="refined"))
    out.append(pytest.param(book_order_service().net.internal,
                            id="book order"))
    return out


class TestStructureViews:
    @pytest.mark.parametrize("struct", composed_structures())
    def test_views_equal_a_scan(self, struct):
        nodes = [p.id for p in struct.places] + list(struct.transitions)
        for n in nodes:
            assert list(struct.pre(n)) == sorted(
                (a for a, b in struct.arcs if b == n), key=natural_key)
            assert list(struct.post(n)) == sorted(
                (b for a, b in struct.arcs if a == n), key=natural_key)
        assert struct.place_map == {p.id: p for p in struct.places}
        assert struct.inscription_map == dict(struct.inscriptions)

    def test_views_are_cached(self):
        struct = book_order_service().net.internal
        assert struct.place_map is struct.place_map
        assert struct.pre("T1") is struct.pre("T1")


def substitution_group(data, removed, sub):
    ids = [p.id for p in sub.places]
    ends = st.lists(st.sampled_from(ids), min_size=1, max_size=3,
                    unique=True)
    return removed, sub, data.draw(ends), data.draw(ends)


class TestSubstituted:
    @given(terms(), terms(), terms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_groups_at_once_equal_one_after_the_other(
            self, host_term, term1, term2, data):
        reg = make_registry()
        host, sub1, sub2 = (dsl.eval_expr(t, reg).net.internal
                            for t in (host_term, term1, term2))
        pids = [p.id for p in host.places]
        owner = data.draw(st.lists(st.sampled_from((0, 1, 2)),
                                   min_size=len(pids), max_size=len(pids)))
        group1 = substitution_group(
            data, {p for p, o in zip(pids, owner) if o == 1},
            sub1.renamed(apart("g1")))
        group2 = substitution_group(
            data, {p for p, o in zip(pids, owner) if o == 2},
            sub2.renamed(apart("g2")))

        at_once = host.substituted([group1, group2])
        one_by_one = host.substituted([group1]).substituted([group2])
        assert set(at_once.arcs) == set(one_by_one.arcs)
        assert len(set(at_once.arcs)) == len(at_once.arcs)
        assert replace(at_once, arcs=()) == replace(one_by_one, arcs=())

    @given(terms(), terms(), terms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nested_groups_at_once_equal_one_level_at_a_time(
            self, host_term, term1, term2, data):
        """Group 2 removes places of group 1's sub, an entry of group 1
        among them, so arcs are redirected through a chain."""
        reg = make_registry()
        host, sub1, sub2 = (dsl.eval_expr(t, reg).net.internal
                            for t in (host_term, term1, term2))
        sub1, sub2 = sub1.renamed(apart("g1")), sub2.renamed(apart("g2"))

        def some_places(struct):
            return set(data.draw(st.lists(st.sampled_from(
                [p.id for p in struct.places]), unique=True)))

        group1 = substitution_group(
            data, some_places(host) | {host.places[0].id}, sub1)
        group2 = substitution_group(
            data, some_places(sub1) | {group1[2][0]}, sub2)

        at_once = host.substituted([group1, group2])
        one_by_one = host.substituted([group1]).substituted([group2])
        assert set(at_once.arcs) == set(one_by_one.arcs)
        assert len(set(at_once.arcs)) == len(at_once.arcs)
        assert replace(at_once, arcs=()) == replace(one_by_one, arcs=())

    def test_redirected_arc_keeps_inscription(self):
        host = InternalStructure(
            places=(Place("a"), Place("x"), Place("b")),
            transitions=("t", "u"),
            arcs=(("a", "t"), ("t", "x"), ("x", "u"), ("u", "b")),
            inscriptions=((("t", "x"), (Var("v"),)),
                          (("x", "u"), (Var("w"),))),
            labels=(("a", TAU), ("x", TAU), ("b", TAU)))
        sub = InternalStructure(
            places=(Place("e"), Place("f")), transitions=("s",),
            arcs=(("e", "s"), ("s", "f")),
            labels=(("e", TAU), ("f", TAU)))
        out = host.substituted([({"x"}, sub, ("e",), ("f",))])
        assert out.arcs == (("a", "t"), ("u", "b"), ("t", "e"), ("f", "u"),
                            ("e", "s"), ("s", "f"))
        assert out.inscription_map == {("t", "e"): (Var("v"),),
                                       ("f", "u"): (Var("w"),)}
        assert [p.id for p in out.places] == ["a", "b", "e", "f"]
        assert out.transitions == ("t", "u", "s")

    def test_first_inscription_set_wins(self):
        """Of two arcs redirected to one, the first in arc order gives its
        inscription, and a kept arc keeps its own."""
        v, w = (Var("v"),), (Var("w"),)
        host = InternalStructure(
            places=(Place("p"), Place("x"), Place("y")), transitions=("t",),
            arcs=(("p", "t"), ("t", "x"), ("t", "y")),
            inscriptions=((("t", "x"), v), (("t", "y"), w)))
        sub = InternalStructure(places=(Place("e"),))
        out = host.substituted([({"x", "y"}, sub, ("e",), ())])
        assert out.inscription_map == {("t", "e"): v}
        kept = InternalStructure(
            places=(Place("p"), Place("x"), Place("e")), transitions=("t",),
            arcs=(("p", "t"), ("t", "x"), ("t", "e")),
            inscriptions=((("t", "x"), v), (("t", "e"), w)))
        out = kept.substituted([({"x"}, InternalStructure(), ("e",), ())])
        assert out.arcs == (("p", "t"), ("t", "e"))
        assert out.inscription_map == {("t", "e"): w}


class TestBlockFragment:
    def test_entries_and_exits(self):
        block = treat_command_block()
        assert block.entries == ["b1"]
        assert block.exits == ["b4"]
        assert block.is_well_formed()

    def test_disconnected_block_is_malformed(self):
        struct = InternalStructure(
            places=(Place("a"), Place("b")),
            labels=(("a", TAU), ("b", TAU)))
        # two isolated places: entries/exits exist but no connectivity
        assert not BlockFragment(struct).is_well_formed()

    def test_cycle_has_no_entry(self):
        struct = InternalStructure(
            places=(Place("a"),), transitions=("t",),
            arcs=(("a", "t"), ("t", "a")), labels=(("a", TAU),))
        assert not BlockFragment(struct).is_well_formed()


class TestRegistry:
    def test_insert_lookup(self):
        reg = Registry()
        ws = algebra.atomic("A", "op")
        reg.insert(ws)
        assert reg.lookup("A") is ws

    def test_lookup_missing(self):
        with pytest.raises(UnknownService):
            Registry().lookup("missing")

    def test_duplicate_insert_rejected(self):
        reg = Registry()
        reg.insert(algebra.atomic("A", "op"))
        with pytest.raises(DuplicateService):
            reg.insert(algebra.atomic("A", "other-op"))

    def test_identical_reinsert_is_idempotent(self):
        reg = Registry()
        reg.insert(algebra.atomic("A", "op"))
        reg.insert(algebra.atomic("A", "op"))
        assert len(reg.services) == 1

    def test_lookup_block_missing(self):
        with pytest.raises(UnknownBlock):
            Registry().lookup_block("missing")

    def test_copy_is_independent(self):
        reg = Registry()
        reg.insert(algebra.atomic("A", "op"))
        other = reg.copy()
        other.insert(algebra.atomic("B", "op"))
        assert "B" not in reg.services


class TestWebService:
    def test_is_basic(self):
        assert algebra.atomic("A", "op").is_basic
        composed = algebra.sequence(algebra.atomic("A", "op"),
                                    algebra.atomic("B", "op"))
        assert not composed.is_basic


VALUES = st.recursive(st.one_of(st.integers(-2, 2), st.booleans(),
                                st.sampled_from(("", "a", "True"))),
                      lambda inner: st.lists(inner, max_size=3).map(tuple),
                      max_leaves=6)


class TestValueRule:
    """Two values are the same when they have the same type and are
    equal; `exact` makes a tuple's equality follow that rule."""

    @given(st.lists(VALUES, max_size=3).map(tuple),
           st.lists(VALUES, max_size=3).map(tuple))
    @settings(max_examples=300, deadline=None)
    def test_exact_equality_is_repr_equality(self, a, b):
        left, right = exact(a), exact(b)
        # a tuple without a bool stays a plain tuple, so one exact side
        # suffices only when the other, raw side holds no bool either
        pairs = [(left, right)]
        if left is not a or right is b:
            pairs.append((left, b))
        if right is not b or left is a:
            pairs.append((a, right))
        for x, y in pairs:
            assert (x == y) is (repr(a) == repr(b))
            assert (x != y) is (repr(a) != repr(b))
        assert same(a, b) is (repr(a) == repr(b))
        if a == b:
            assert hash(left) == hash(right)
        assert repr(left) == repr(a) and tuple(left) == a

    def test_tuple_without_a_bool_is_unchanged(self):
        values = (1, "a", (2,))
        assert exact(values) is values

    def test_int_one_and_bool_true_apart(self):
        assert not same(1, True) and not same(0, False)
        assert exact((1,)) != exact((True,))
        assert exact((True,)) != (1,) and (1,) != exact((True,))
        assert {exact((1,)): "int"}.get(exact((True,))) is None
        assert exact((True,)) == (True,)


class TestFreezeMarking:
    def test_ignores_empty_places_and_token_order(self):
        a = freeze_marking({"p1": [(2,), (1,)], "p2": [], "p10": [()]})
        b = freeze_marking({"p10": [()], "p1": [(1,), (2,)], "p3": ()})
        assert a == b
        assert hash(a) == hash(b)
        assert dict(a) == {"p1": ((1,), (2,)), "p10": ((),)}

    def test_int_and_bool_tokens_are_both_kept(self):
        assert dict(freeze_marking({"p": [(True,), (1,)]})) == {
            "p": ((1,), (True,))}

    def test_int_and_bool_tokens_tell_markings_apart(self):
        ones = freeze_marking({"p": [(1,), (1,)]})
        mixed = freeze_marking({"p": [(True,), (1,)]})
        assert ones != mixed and len({ones, mixed}) == 2
        assert mixed == freeze_marking({"p": [(1,), (True,)]})

    def test_empty_marking(self):
        assert freeze_marking({"p": []}) == frozenset()
