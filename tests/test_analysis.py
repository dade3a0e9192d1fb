import dataclasses
import functools
import gc
import random
import weakref
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inline_oracle
import reach_oracle
import test_acceptance
from fixtures import (book_order_service, branching_bool_service,
                      equal_binding_service, gated_false_service,
                      one_or_true_service, treat_command_block,
                      treat_command_service)
from gnets import algebra, analysis, dsl, guards, prod, sim
from gnets.errors import (DepthLimitExceeded, GnetError, TypeMismatch,
                          UnboundFreeVariable, UnflattenableIsp)
from gnets.model import (PlaceKind, Registry, freeze_marking, natural_key,
                         validate)


def make_registry():
    reg = Registry()
    for name, op in (("a", "op-a"), ("b", "op-b"), ("c", "op-c")):
        reg.insert(algebra.with_request_method(algebra.atomic(name, op)))
    return reg


def compose(text, reg):
    return dsl.eval_expr(dsl.parse_expr(text), reg)


def engine_nodes(graph):
    """Engine node keys re-expressed in the oracle's canonical form."""
    return {reach_oracle.canon(marking) for marking in graph.nodes.values()}


class TestInlining:
    def test_sequence_inlines_to_five_places(self):
        reg = make_registry()
        result = analysis.inline_isps(compose("seq(a, b)", reg), reg)
        struct = result.service.net.internal
        assert len(struct.places) == 3 - 2 + 2 * 2
        assert all(p.kind is not PlaceKind.ISP for p in struct.places)
        assert validate(result.service).ok

    def test_regions_cover_spliced_places(self):
        reg = make_registry()
        result = analysis.inline_isps(compose("anyseq(a, b)", reg), reg)
        assert set(result.regions) == {"p5", "p6"}
        struct_places = result.service.net.internal.place_ids()
        for members in result.regions.values():
            assert len(members) == 2
            assert members <= struct_places

    def test_nested_regions_accumulate(self):
        reg = make_registry()
        result = analysis.inline_isps(compose("seq(seq(a, b), c)", reg), reg)
        # p1 invoked the inner sequence: its region finally holds the whole
        # inner splice (3 skeleton places expand to 2 + 2 atomic places + 1)
        assert len(result.regions["p1"]) == 5
        assert validate(result.service).ok

    def test_isp_free_service_is_untouched(self):
        reg = Registry()
        ws = book_order_service()
        result = analysis.inline_isps(ws, reg)
        assert result.service is ws
        assert result.regions == {}

    def test_attribute_collision_renamed(self):
        from dataclasses import replace
        reg = make_registry()
        reg.insert(replace(compose("disc(a; b)", reg), name="inner-disc"))
        disc_outer = compose("disc(inner-disc; c)", reg)
        result = analysis.inline_isps(disc_outer, reg)
        names = [a.name for a in result.service.net.gsp.attributes]
        assert names[0] == "B" and len(names) == 2 and len(set(names)) == 2
        assert validate(result.service).ok

    def test_depth_limit(self):
        reg = make_registry()
        ws = compose("seq(seq(seq(a, b), b), b)", reg)
        with pytest.raises(DepthLimitExceeded):
            analysis.inline_isps(ws, reg, depth_limit=2)

    def test_negative_depth_limit_rejected(self):
        """An input error even for a service with no ISP place."""
        reg = make_registry()
        for ws in (compose("seq(a, b)", reg), book_order_service()):
            with pytest.raises(ValueError, match="must not be negative"):
                analysis.inline_isps(ws, reg, depth_limit=-1)

    def test_goal_preserved(self):
        reg = make_registry()
        ws = compose("alt(a, b)", reg)
        result = analysis.inline_isps(ws, reg)
        method = result.service.net.gsp.method("Alt")
        assert method.goal_places == frozenset({"p4"})

    def test_isp_to_empty_service_completes_at_once(self):
        reg = make_registry()
        ws = compose("seq(a, empty)", reg)
        result = analysis.inline_isps(ws, reg)
        # the empty service's one place replaces the ISP, entry and exit
        assert len(result.regions["p2"]) == 1
        assert validate(result.service).ok
        method = result.service.net.gsp.method("Seq")
        graph = analysis.reachability(analysis.flatten(result.service))
        report = analysis.analyze(graph, analysis.flat_goal_places(method))
        assert report.goal_reachable and not report.deadlocks

    def test_empty_initial_place_remapped(self):
        reg = make_registry()
        result = analysis.inline_isps(compose("seq(empty, a)", reg), reg)
        (entry,) = result.regions["p1"]
        assert result.service.net.gsp.method("Seq").init_place == entry

    def test_random_terms_all_inline(self):
        rng = random.Random(20240817)
        reg = test_acceptance.make_registry()
        for _ in range(1000):
            term = test_acceptance.random_term(rng, 5)
            result = analysis.inline_isps(dsl.eval_expr(term, reg), reg)
            assert all(p.kind is not PlaceKind.ISP
                       for p in result.service.net.internal.places)


class TestInlineOracle:
    def test_sweep_terms_inline_as_the_oracle_does(self):
        """The first 300 sweep terms inline to the round-by-round oracle's
        service, field for field (arcs as a set), with the same regions."""
        rng = random.Random(20240817)
        reg = test_acceptance.make_registry()
        for _ in range(300):
            ws = dsl.eval_expr(test_acceptance.random_term(rng, 5), reg)
            result = analysis.inline_isps(ws, reg)
            service, regions = inline_oracle.inline(ws, reg)
            got, want = result.service.net.internal, service.net.internal
            assert set(got.arcs) == set(want.arcs)
            assert len(set(got.arcs)) == len(got.arcs)
            assert result.service.net.gsp == service.net.gsp
            assert dataclasses.replace(result.service, net=None) \
                == dataclasses.replace(service, net=None)
            assert dataclasses.replace(got, arcs=()) \
                == dataclasses.replace(want, arcs=())
            assert result.regions == regions


class TestRestrictedView:
    def test_restricted_once_per_structure_and_method(self, monkeypatch):
        searches = []
        closure = analysis.closure

        def counted(*args):
            searches.append(args)
            return closure(*args)

        monkeypatch.setattr(analysis, "closure", counted)
        leaf = algebra.with_request_method(algebra.atomic("a", "op-a"))
        for _ in range(3):
            _, sub = analysis.restrict_to_method(leaf, "Atomic")
        assert len(searches) == 2  # one forward, one backward
        assert [p.id for p in sub.places] == ["p1", "p2"]
        analysis.restrict_to_method(leaf, "req")
        analysis.restrict_to_method(leaf, "req")
        assert len(searches) == 4

    def test_method_over_the_whole_net_is_the_structure(self):
        reg = make_registry()
        ws = compose("seq(a, b)", reg)
        assert analysis.restrict_to_method(ws, "Seq")[1] is ws.net.internal

    def test_cache_holds_no_reference_to_its_structure(self):
        """Without the collector, a structure whose views are cached dies
        with its last reference: the cache makes no cycle through it."""
        gc.disable()
        try:
            reg = make_registry()
            inner = algebra.alternative(reg.lookup("b"), reg.lookup("c"))
            reg.insert(inner)
            ws = algebra.sequence(reg.lookup("a"), inner)
            analysis.inline_isps(ws, reg)
            for service in (ws, reg.lookup("a")):
                analysis.restrict_to_method(service, None)
            refs = [weakref.ref(ws.net.internal),
                    weakref.ref(reg.lookup("a").net.internal)]
            del ws, reg, inner, service
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestFlatten:
    def test_rejects_isps(self):
        reg = make_registry()
        with pytest.raises(UnflattenableIsp):
            analysis.flatten(compose("seq(a, b)", reg))

    def test_place_splitting(self):
        flat = analysis.flatten(book_order_service(), "Command")
        assert len(flat.places) == 12
        copies = [t for t in flat.transitions if t.origin is None]
        sources = [t for t in flat.transitions if t.origin is not None]
        assert len(copies) == 6 and len(sources) == 7
        assert flat.places["P1f"].signature == ("seq", "Available")
        assert flat.places["P4l"].signature == ("seq",)

    def test_copy_transition_shape(self):
        flat = analysis.flatten(book_order_service(), "Command")
        t = next(t for t in flat.transitions if t.name == "T_P1")
        assert t.inputs == (("P1f", ("seq", "Available")),)
        assert [p for p, _ in t.outputs] == ["P1l"]

    def test_actions_compiled_into_outputs(self):
        flat = analysis.flatten(branching_bool_service(), "Branch")
        t3 = next(t for t in flat.transitions if t.name == "t3")
        from gnets.guards import Lit
        assert t3.outputs == (("p3f", (Lit(False),)),)

    def test_initial_enumeration(self):
        flat = analysis.flatten(book_order_service(), "Command",
                                args={"seq": 1})
        markings = flat.initial_markings()
        assert len(markings) == 2  # Available ranges over {false, true}
        tokens = sorted(m["P1f"][0] for m in markings)
        assert tokens == [(1, False), (1, True)]

    def test_unresolved_without_domain_raises(self):
        flat = dataclasses.replace(
            analysis.flatten(book_order_service(), "Command",
                             args={"seq": 1}), domains={})
        with pytest.raises(UnboundFreeVariable):
            flat.initial_markings()


class TestReachability:
    def test_chain_state_count(self):
        flat = analysis.flatten(treat_command_service(), "Command")
        graph = analysis.reachability(flat)
        # a 4-place chain visits 4 f-markings and 4 l-markings, minus the
        # goal's l side never being needed... every state is a single token
        assert graph.initial in graph.nodes
        assert all(len(v) <= 1 for node in graph.nodes.values()
                   for v in node.values())
        report = analysis.analyze(
            graph, analysis.flat_goal_places(
                treat_command_service().net.gsp.method("Command")))
        assert report.goal_reachable and not report.deadlocks

    def test_truncation_flag(self):
        flat = analysis.flatten(treat_command_service(), "Command")
        graph = analysis.reachability(flat, max_states=2)
        assert graph.truncated
        assert len(graph.nodes) == 2

    def test_gated_false_deadlocks(self):
        ws = gated_false_service()
        flat = analysis.flatten(ws, "Never")
        graph = analysis.reachability(flat)
        report = analysis.analyze(graph,
                                  analysis.flat_goal_places(
                                      ws.net.gsp.method("Never")))
        assert not report.goal_reachable
        assert len(report.deadlocks) == 1

    def test_int_and_bool_tokens_fire_apart(self):
        flat = analysis.FlatNet(
            places={}, transitions=[analysis.FlatTransition(
                "t", (("a", ("x",)),), (("b", (guards.Var("x"),)),))],
            initial={"a": [(True,), (1,)]}, domains={})
        succs = analysis.flat_successors(flat, freeze_marking(flat.initial))
        assert [repr(binding) for _, binding, _ in succs] == [
            "(('x', 1),)", "(('x', True),)"]
        assert [repr(analysis.canonical_marking(succ))
                for _, _, succ in succs] == [
            "(('a', ((True,),)), ('b', ((1,),)))",
            "(('a', ((1,),)), ('b', ((True,),)))"]

    def test_memo_tells_int_from_bool_tokens(self):
        """((1, 1), (1, 1)) and ((1, 1), (1, True)) are equal tuples, so a
        firing memo keyed on them would fire the second marking as the
        first; (x, x) binds (1, 1) but not (1, True)."""
        make = analysis.FlatTransition(
            "t_make", (), (("p2", (guards.Lit(1), guards.Var("e"))),))
        eat = analysis.FlatTransition(
            "t_eat", (("p2", ("x", "x")),), (("p3", (guards.Var("x"),)),))
        flat = analysis.FlatNet(places={}, transitions=[make, eat],
                                initial={}, domains={"e": (1, True)})
        markings = [freeze_marking({"p2": [(1, 1), (1, 1)]}),
                    freeze_marking({"p2": [(1, 1), (1, True)]})]
        memoized = [exact(analysis.flat_successors(flat, m))
                    for m in markings]
        assert memoized == [
            exact(analysis.flat_successors(dataclasses.replace(flat), m))
            for m in markings]
        assert [len(succs) for succs in memoized] == [3, 3]

    def test_warm_memo_explores_alike(self, monkeypatch):
        """A cold exploration runs each kernel once per memo key, and every
        marked (place, tokens) pair of every state becomes a key as it is.
        A second exploration of the net then runs no kernel and gives the
        same graph."""
        runs = []
        local_firings = analysis._local_firings
        monkeypatch.setattr(analysis, "_local_firings", lambda *args: (
            runs.append((args[0][2], repr(args[1]))) or local_firings(*args)))
        for name in ("par4", "anyseq4", "disc3", "book_order"):
            flat, initials = COMPOSED_NETS[name]()
            for initial in initials:
                runs.clear()
                cold = analysis.reachability(flat, initial=initial)
                assert runs and len(set(runs)) == len(runs)
                memo = flat.plan.firings
                assert all(pair in memo for state in cold.out
                           for pair in state)
                filled = dict(memo)
                runs.clear()
                warm = analysis.reachability(flat, initial=initial)
                assert runs == [] and memo == filled
                assert warm.edges == cold.edges
                assert list(warm.out.items()) == list(cold.out.items())

    def test_replaced_net_starts_with_an_empty_memo(self):
        flat = book_order_flat()
        explored = graphs(flat)
        assert flat.plan.firings
        twin = dataclasses.replace(flat)
        assert twin.plan.firings == {}
        assert graphs(twin) == explored

    def test_raising_pair_stores_nothing(self):
        """t_stuck reads a variable no domain declares: the pair that feeds
        it is not stored, nor is the state's other pair, and it raises on
        every try; a state without it is stored."""
        flat = chain_net({"s": [(0,)], "a": [(0,)]})
        for _ in range(2):
            with pytest.raises(UnboundFreeVariable) as info:
                analysis.flat_successors(flat, freeze_marking(flat.initial))
            assert info.value.name == "undeclared"
            assert flat.plan.firings == {}
        marking = freeze_marking({"s": [(0,)]})
        assert len(analysis.flat_successors(flat, marking)) == 1
        assert list(flat.plan.firings) == list(marking)

    def test_deterministic(self):
        flat = analysis.flatten(book_order_service(), "Command",
                                args={"seq": 1})
        runs = [analysis.reachability(flat, initial=m)
                for m in flat.initial_markings()]
        runs2 = [analysis.reachability(flat, initial=m)
                 for m in flat.initial_markings()]
        assert [g.edges for g in runs] == [g.edges for g in runs2]


def reference_bind(inputs, toks):
    """The binding of each input's pattern to its token, or None: every
    token has its pattern's arity, a variable takes the first value it
    meets, and each later value of it has that one's repr."""
    if any(len(pattern) != len(tok)
           for (_, pattern), tok in zip(inputs, toks)):
        return None
    pairs = [pair for (_, pattern), tok in zip(inputs, toks)
             for pair in zip(pattern, tok)]
    binding = dict(reversed(pairs))
    if all(repr(binding[var]) == repr(value) for var, value in pairs):
        return binding
    return None


def full_scan_successors(flat, marking):
    """The reference successor function: every transition of the list is
    tried in every state, and each result sorted by `natural_key`."""
    tokens = dict(marking)
    results = []
    for t in flat.transitions:
        pools = []
        for pname, pattern in t.inputs:
            toks = tokens.get(pname)
            if not toks:
                pools = None
                break
            pools.append([(pname, i) for i in range(len(toks)) if i == 0
                          or repr(toks[i]) != repr(toks[i - 1])])
        if pools is None:
            continue
        for combo in product(*pools):
            binding = reference_bind(t.inputs,
                                     [tokens[p][i] for p, i in combo])
            if binding is None:
                continue
            needed = set(guards.expr_vars(t.gate))
            for _, exprs in t.outputs:
                for e in exprs:
                    needed |= guards.expr_vars(e)
            free = sorted(needed - set(binding))
            for name in free:
                if name not in flat.domains:
                    raise UnboundFreeVariable(name)
            for values in product(*(flat.domains[name] for name in free)):
                full = {**binding, **dict(zip(free, values))}
                if not guards.eval_condition(t.gate, full):
                    continue
                touched = {p: tokens[p][:i] + tokens[p][i + 1:]
                           for p, i in combo}
                for pname, exprs in t.outputs:
                    tok = tuple(guards.eval_expr(e, full) for e in exprs)
                    toks = touched.get(pname, tokens.get(pname, ()))
                    touched[pname] = tuple(sorted(toks + (tok,), key=repr))
                succ = freeze_marking({**tokens, **touched})
                results.append((t.name, tuple(sorted(full.items())), succ))
    results.sort(key=lambda r: (natural_key(r[0]), repr(r[1])))
    return results


def exact(successors):
    """Successor triples with each binding and successor as its repr, so
    that the int 1 and the bool True compare apart; an error as is."""
    if not isinstance(successors, list):
        return successors
    return [(name, repr(binding), repr(analysis.canonical_marking(succ)))
            for name, binding, succ in successors]


# p01 and p1, T_p01 and T_p1 tie under natural_key
PLACES = ("p01", "p1", "p2", "p10")
NAMES = ("T_p01", "T_p1", "t01", "t1")
PATTERN_VARS = ("x", "y")
DOMAINS = {"d": (0, 1), "e": (True, 1)}
VALUES = (0, 1, True, False)


LEAF_EXPRS = st.one_of(
    st.sampled_from(VALUES).map(guards.Lit),
    st.sampled_from(PATTERN_VARS + tuple(DOMAINS)).map(guards.Var))
# arithmetic on a bool raises TypeMismatch
EXPRS = st.one_of(LEAF_EXPRS, st.builds(
    guards.BinOp, st.sampled_from("+-*"), LEAF_EXPRS, LEAF_EXPRS))


def flat_transition(name, inputs, outputs, gate):
    """A transition whose gate and outputs read a variable no input binds
    as the free variable d."""
    bound = {v for _, pattern in inputs for v in pattern}
    free = {v: guards.Var("d") for v in PATTERN_VARS if v not in bound}
    return analysis.FlatTransition(
        name, inputs,
        tuple((p, tuple(guards.subst_expr(e, free) for e in exprs))
              for p, exprs in outputs),
        guards.subst_expr(gate, free))


# patterns and tokens of every width from the black `()` up, a repeated
# variable such as (x, x) included
PATTERNS = st.one_of(
    st.lists(st.sampled_from(PATTERN_VARS), max_size=2).map(tuple),
    st.sampled_from(PATTERN_VARS).map(lambda v: (v, v)))
flat_transitions = st.builds(
    flat_transition,
    st.sampled_from(NAMES),
    st.lists(st.tuples(st.sampled_from(PLACES), PATTERNS),
             max_size=3).map(tuple),
    st.lists(st.tuples(
        st.sampled_from(PLACES),
        st.lists(EXPRS, max_size=2).map(tuple)),
        max_size=2).map(tuple),
    # Lit(1) equals guards.TRUE but raises TypeMismatch
    st.one_of(st.just(guards.TRUE), st.just(guards.TRUE),
              st.just(guards.Lit(1)), EXPRS,
              st.builds(guards.Compare, EXPRS,
                        st.sampled_from(("==", "!=")), EXPRS)))
# the shape of most flattened transitions: one input, a `true` gate and
# outputs that copy the input's pattern
copy_transitions = st.builds(
    lambda name, place, pattern, targets: analysis.FlatTransition(
        name, ((place, pattern),),
        tuple((q, tuple(map(guards.Var, pattern))) for q in targets)),
    st.sampled_from(NAMES), st.sampled_from(PLACES), PATTERNS,
    st.lists(st.sampled_from(PLACES), max_size=2))
TOKENS = st.lists(st.sampled_from(VALUES), max_size=2).map(tuple)


def outcome(successors, flat, marking):
    try:
        return successors(flat, marking)
    except GnetError as exc:
        return type(exc), str(exc)


def chain_net(initial):
    """s -> t_go -> c, and t_stuck reads `undeclared`, which no input
    binds and no domain declares, from its never-marked preset a."""
    return analysis.FlatNet(
        places={}, domains={}, initial=initial, transitions=[
            analysis.FlatTransition(
                "t_go", (("s", ("x",)),), (("c", (guards.Var("x"),)),)),
            analysis.FlatTransition(
                "t_stuck", (("a", ("x",)),),
                (("c", (guards.Var("x"), guards.Var("undeclared"))),))])


def book_order_flat():
    return analysis.flatten(book_order_service(), "Command", args={"seq": 1})


def graphs(flat):
    return [analysis.reachability(flat, initial=m)
            for m in flat.initial_markings()]


def same_as_full_scan(transitions, markings):
    """The successors of each marking, in order, from a cold memo and then
    from the warm one, as exact reprs; each must equal a full scan's."""
    flat = analysis.FlatNet(places={}, transitions=transitions, initial={},
                            domains={})
    markings = [freeze_marking(m) for m in markings]
    got = [[exact(outcome(analysis.flat_successors, flat, m))
            for m in markings] for _ in range(2)]
    assert got[0] == got[1] == [exact(outcome(full_scan_successors, flat, m))
                                for m in markings]
    return got[0]


def copy_to(place, *targets, gate=guards.TRUE):
    """A transition named after `place` that takes an (x,) token from it
    and puts (x,) on each of `targets`."""
    return analysis.FlatTransition(
        f"t_{place}", ((place, ("x",)),),
        tuple((q, (guards.Var("x"),)) for q in targets), gate)


class TestCompiledEngine:
    """`flat_successors` looks up each marked (place, tokens) pair for the
    one-input transitions that place feeds, and the transitions with
    several inputs whose first (head) input place is marked, and tries
    the ones with no input in every state.  A successor is the marking's
    symmetric difference with the firing's delta, or a merge where the
    firing puts tokens on a place already marked.  Its results must equal
    a full scan's, order and errors included."""

    def test_token_put_back_as_taken_stays(self):
        """The pair of a place that a firing leaves as it found it is in
        both what the firing takes and what it leaves: a delta made by
        union would drop it from the successor."""
        succs = same_as_full_scan([copy_to("a", "a", "b")], [
            {"a": [(1,)]}, {"a": [(1,), (2,)]}, {"a": [(True,), (1,)]}])
        assert [succ for _, _, succ in succs[0]] == [
            "(('a', ((1,),)), ('b', ((1,),)))"]
        assert [succ for _, _, succ in succs[2]] == [
            "(('a', ((1,), (True,))), ('b', ((1,),)))",
            "(('a', ((1,), (True,))), ('b', ((True,),)))"]

    def test_firing_onto_a_marked_place_merges(self):
        """b already holds the token t_a puts on it, c another one: each
        place's old and new tokens are sorted together."""
        succs = same_as_full_scan([copy_to("a", "b", "c")], [
            {"a": [(1,)], "b": [(1,)]},
            {"a": [(1,)], "b": [(1,)], "c": [(2,)]},
            {"a": [(1,)], "c": [(True,)]}])
        assert [succ for _, _, succ in succs[1]] == [
            "(('b', ((1,), (1,))), ('c', ((1,), (2,))))"]
        assert [succ for _, _, succ in succs[2]] == [
            "(('b', ((1,),)), ('c', ((1,), (True,))))"]

    def test_joint_transition_waits_for_every_input(self):
        """t_join's head place pa is marked in the first marking and pb is
        not; in the second only pb is; it fires in the third."""
        join = analysis.FlatTransition(
            "t_join", (("pa", ("x",)), ("pb", ("x",))),
            (("g", (guards.Var("x"),)),))
        succs = same_as_full_scan([join, copy_to("pa", "q")], [
            {"pa": [(0,)]}, {"pb": [(0,)]}, {"pa": [(0,)], "pb": [(0,)]}])
        assert [[name for name, _, _ in level] for level in succs] == [
            ["t_pa"], [], ["t_join", "t_pa"]]

    @pytest.mark.parametrize("gate, fires", [
        (guards.TRUE, True), (guards.Lit(False), False),
        (guards.Lit(1), TypeMismatch)])
    def test_only_the_literal_true_gate_is_skipped(self, gate, fires):
        """Lit(1) equals guards.TRUE as a dataclass, yet its value is
        not a bool, so it is evaluated and raises."""
        succs = same_as_full_scan([copy_to("a", "b", gate=gate)],
                                  [{"a": [(1,)]}])
        if fires is TypeMismatch:
            assert succs[0][0] is TypeMismatch
        else:
            assert len(succs[0]) == fires

    @given(st.lists(st.one_of(flat_transitions, copy_transitions),
                    min_size=2, max_size=6),
           st.dictionaries(st.sampled_from(PLACES),
                           st.lists(TOKENS, min_size=1, max_size=3),
                           min_size=2))
    @settings(max_examples=200, deadline=None)
    def test_equals_full_scan(self, transitions, initial):
        # each transition alone too: one that raises hides the others
        for net in [transitions, *([t] for t in transitions)]:
            flat = analysis.FlatNet(places={}, transitions=net,
                                    initial=initial, domains=DOMAINS)
            # three breadth-first levels of one net: the later ones fire
            # from the memo, onto output places marked by then
            level = [freeze_marking(initial)]
            for _ in range(3):
                following = []
                for marking in level:
                    expected = outcome(full_scan_successors, flat, marking)
                    assert exact(outcome(analysis.flat_successors, flat,
                                         marking)) == exact(expected)
                    if isinstance(expected, list):
                        following += [succ for _, _, succ in expected]
                level = list(dict.fromkeys(following))

    def test_unmarked_preset_leaves_unbound_variable_unread(self):
        graph = analysis.reachability(chain_net({"s": [(0,)]}))
        assert len(graph.out) == 2 and len(graph.edges) == 1
        with pytest.raises(UnboundFreeVariable) as info:
            analysis.reachability(chain_net({"a": [(0,)]}))
        assert info.value.name == "undeclared"

    def test_replaced_transition_list_is_compiled_anew(self):
        explored = book_order_flat()
        graphs(explored)
        kept = [t for t in explored.transitions if t.name != "T3"]
        expected = graphs(dataclasses.replace(book_order_flat(),
                                              transitions=kept))
        assert expected != graphs(book_order_flat())
        assert graphs(dataclasses.replace(explored, transitions=kept)) \
            == expected

    def test_net_explores_as_its_transitions_say(self):
        """A flat net keeps a tuple of its own, so the plan it caches
        cannot go stale: an edit of the list it was made from does not
        reach it, and its fields cannot be assigned."""
        listed = list(book_order_flat().transitions)
        net = dataclasses.replace(book_order_flat(), transitions=listed)
        explored = graphs(net)
        assert listed.pop().name == "T7"
        assert graphs(net) == explored == graphs(dataclasses.replace(
            book_order_flat(), transitions=net.transitions))
        assert graphs(dataclasses.replace(net, transitions=listed)) \
            != explored
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.transitions = listed

    def test_reparsed_net_explores_like_a_fresh_one(self):
        reg = make_registry()
        service = analysis.inline_isps(compose("par(a, b)", reg),
                                       reg).service
        explored = analysis.flatten(service)
        graphs(explored)
        back = prod.reparse_prod(prod.export_prod(explored))
        assert graphs(back) == graphs(analysis.flatten(service))

    def test_exploring_leaves_equality_and_repr(self):
        flat = book_order_flat()
        text, twin = repr(flat), book_order_flat()
        graphs(flat)
        assert repr(flat) == text and flat == twin


def composed_net(term):
    """The flattened inlined composition `term` over the acceptance
    registry's leaves a-d and block B, with its initial markings."""
    reg = test_acceptance.make_registry()
    flat = analysis.flatten(
        analysis.inline_isps(compose(term, reg), reg).service)
    return flat, flat.initial_markings()


def reparsed_book_order():
    """Book-order (seq=1) through PROD text and back, with the original's
    initial markings: the text carries no unresolved token."""
    flat = book_order_flat()
    back = prod.reparse_prod(prod.export_prod(
        dataclasses.replace(flat, initial={})))
    return back, flat.initial_markings()


def shared_variable_join():
    """t1 copies each value on s to pa and pb; the join t2 reads x from
    both, so it fires on equal tokens only, and pa and pb come to hold
    unequal ones as well."""
    flat = analysis.FlatNet(
        places={}, domains={}, initial={"s": [(0,), (1,)]}, transitions=[
            analysis.FlatTransition(
                "t1", (("s", ("x",)),),
                (("pa", (guards.Var("x"),)), ("pb", (guards.Var("x"),)))),
            analysis.FlatTransition(
                "t2", (("pa", ("x",)), ("pb", ("x",))),
                (("g", (guards.Var("x"),)),))])
    return flat, flat.initial_markings()


# name -> (flat net, initial markings)
COMPOSED_NETS = {
    "par4": lambda: composed_net("par(par(a, b), par(c, d))"),
    "anyseq4": lambda: composed_net("anyseq(anyseq(a, b), anyseq(c, d))"),
    "disc3": lambda: composed_net("disc(a, b, c; d)"),
    "book_order": lambda: (book_order_flat(),
                           book_order_flat().initial_markings()),
    "refine": lambda: composed_net('seq(refine(a, "op-a", B), alt(b, c))'),
    "reparsed": reparsed_book_order,
    "shared_variable_join": shared_variable_join,
}


class TestKernelsAgainstFullScan:
    """On composed nets, whose copy transitions and black tokens are the
    shapes the firing kernels specialise, `reachability` gives the same
    edges in the same order, and the same truncation, as with
    `full_scan_successors` in place of `flat_successors`."""

    @pytest.mark.parametrize("name", COMPOSED_NETS)
    def test_same_graph(self, name, monkeypatch):
        flat, initials = COMPOSED_NETS[name]()
        for initial in initials:
            for cap in (60, 100000):
                graph = analysis.reachability(flat, cap, initial)
                with monkeypatch.context() as patch:
                    patch.setattr(analysis, "flat_successors",
                                  full_scan_successors)
                    scanned = analysis.reachability(flat, cap, initial)
                assert graph.edges == scanned.edges
                assert graph.truncated == scanned.truncated


class TestOracleAgreement:
    @pytest.mark.parametrize("ws,method", [
        (book_order_service(), "Command"),
        (treat_command_service(), "Command"),
        (gated_false_service(), "Never"),
        (branching_bool_service(), "Branch"),
    ])
    def test_node_sets_match(self, ws, method):
        flat = analysis.flatten(ws, method,
                                args={"seq": 1} if
                                ws.net.gsp.method(method).params else None)
        for initial in flat.initial_markings():
            graph = analysis.reachability(flat, initial=initial)
            expected = reach_oracle.reachable_markings(flat, initial)
            assert engine_nodes(graph) == expected

    def test_inlined_composition_matches_oracle(self):
        reg = make_registry()
        result = analysis.inline_isps(compose("anyseq(a, b)", reg), reg)
        flat = analysis.flatten(result.service)
        for initial in flat.initial_markings():
            graph = analysis.reachability(flat, initial=initial)
            expected = reach_oracle.reachable_markings(flat, initial)
            assert engine_nodes(graph) == expected


class TestLabelLanguage:
    def loop(self):
        """The token game of iter(a): t1§i1 runs a, then t1 loops back
        or t2 leaves."""
        reg = make_registry()
        return analysis.explore_service(analysis.inline_isps(
            compose("iter(a)", reg), reg).service)

    def test_words_are_cut_at_max_len(self):
        letters = test_acceptance.transition_letters
        assert analysis.label_language(self.loop(), letters, max_len=4) == {
            ("t1§i1", "t2"), ("t1§i1", "t1", "t1§i1", "t2"),
            ("t1§i1", "t1", "t1§i1", "t1")}

    def test_erased_cycle_ends(self):
        assert analysis.label_language(self.loop(), lambda tid: ()) == {()}

    def test_truncated_graph_raises(self):
        flat = analysis.flatten(treat_command_service(), "Command")
        with pytest.raises(ValueError):
            analysis.label_language(analysis.reachability(flat, 2),
                                    lambda name: (name,))


class TestTraceEquivalence:
    @pytest.mark.parametrize("ws,method,args", [
        (treat_command_service(), "Command", ()),
        (gated_false_service(), "Never", ()),
        (branching_bool_service(), "Branch", ()),
        (book_order_service(), "Command", (1,)),
    ])
    def test_flat_runs_equal_source_runs(self, ws, method, args):
        flat = analysis.flatten(
            ws, method,
            args=dict(zip((n for n, _ in ws.net.gsp.method(method).params),
                          args)))
        assert test_acceptance.flat_language(flat) == \
            test_acceptance.token_game_language(ws, method, args)


class TestFlatDiscriminator:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: B rides on each racer's token as a copy of the "
        "value t1 set, so a late racer still passes B == true at t4"))
    def test_continuation_activated_once(self):
        """The flat-engine twin of acceptance criterion 4."""
        reg = test_acceptance.make_registry()
        _, flat = test_acceptance.inline_flat("disc(a, b; c)", reg)
        graph = analysis.reachability(flat)
        for run in analysis.label_language(
                graph, test_acceptance.source_letters(flat)):
            assert run.count("t4") <= 1, \
                "continuation activated twice on a run"
        # t6 routes a late racer to the goal
        assert any(label == "t6" for _, label, _, _ in graph.edges)


class TestExploreService:
    def test_rejects_isps(self):
        reg = make_registry()
        with pytest.raises(UnflattenableIsp):
            analysis.explore_service(compose("par(a, b)", reg))

    def test_branching_graph(self):
        graph = analysis.explore_service(branching_bool_service(), "Branch")
        report = analysis.analyze(graph, {"p3"})
        assert report.goal_reachable
        assert not report.deadlocks

    def test_matches_flat_reachable_count_on_chain(self):
        ws = treat_command_service()
        graph = analysis.explore_service(ws, "Command")
        # the sim view has no f/l split: one state per chain position + goal
        assert len(graph.nodes) == 4


class TestExactValues:
    """The int 1 and the bool True are different values: a place holding
    {(1,), (True,)} and one holding {(1,), (1,)} are different states in
    the flat engine, the oracle and the token-game explorer alike."""

    def one_or_true_flat(self):
        one, true = guards.Lit(1), guards.Lit(True)
        transition = analysis.FlatTransition
        return analysis.FlatNet(
            places={}, domains={}, initial={"s": [()]}, transitions=[
                transition("t0", (("s", ()),), (("a", (one,)), ("c", ()))),
                transition("t1", (("c", ()),), (("a", (one,)),)),
                transition("t2", (("c", ()),), (("a", (true,)),))])

    def test_flat_engine_and_oracle(self):
        flat = self.one_or_true_flat()
        graph = analysis.reachability(flat)
        ones = freeze_marking({"a": [(1,), (1,)]})
        mixed = freeze_marking({"a": [(True,), (1,)]})
        assert ones in graph.out and mixed in graph.out
        assert len(graph.out) == 4 and len(graph.edges) == 3
        expected = reach_oracle.reachable_markings(flat, flat.initial)
        assert len(expected) == 4 and engine_nodes(graph) == expected

    def test_explore_service(self):
        graph = analysis.explore_service(one_or_true_service())
        markings = {marking for marking, _ in graph.out}
        one, true = (("_1", 1),), (("_1", True),)
        assert freeze_marking({"p1": [one, one]}) in markings
        assert freeze_marking({"p1": [one, true]}) in markings
        assert len(graph.out) == 4

    def test_one_token_moved_next_to_true(self):
        """a: [(True,), (1,)] feeding t: a(x) -> b(x) reaches four
        markings, each a different one."""
        flat = analysis.FlatNet(
            places={}, domains={}, initial={"a": [(True,), (1,)]},
            transitions=[analysis.FlatTransition(
                "t", (("a", ("x",)),), (("b", (guards.Var("x"),)),))])
        graph = analysis.reachability(flat)
        assert len(graph.out) == 4 and len(graph.edges) == 4
        expected = reach_oracle.reachable_markings(flat, flat.initial)
        assert len(expected) == 4 and engine_nodes(graph) == expected


class TestTwoTokensOneBinding:
    """p3 can hold two different tokens that bind t3 alike: each is a
    firing of its own, so both successors are explored and a random run may
    take either."""

    def test_explore_service_keeps_both_successors(self):
        graph = analysis.explore_service(equal_binding_service())
        assert len(graph.out) == 8 and len(graph.edges) == 9
        reads = [[graph.edges[i][3] for i in out
                  if graph.edges[i][1] == "t3"] for out in graph.out.values()]
        assert max(map(len, reads)) == 2
        assert all(len(set(dsts)) == len(dsts) for dsts in reads)

    def test_random_runs_take_either_token(self):
        ws = equal_binding_service()
        taken = set()
        for seed in range(20):
            state = sim.init_state(ws, "Read", config=sim.SimConfig(
                policy="random", seed=seed))
            final, outcome = sim.run(state)
            assert outcome == sim.GOAL
            read, = (e for e in final.trace if e.transition == "t3")
            taken.add(read.consumed)
        assert taken == {(("p3", (("a", 1), ("b", 1))),),
                         (("p3", (("a", 1), ("b", 1), ("c", 2))),)}


    @pytest.mark.xfail(strict=True, raises=UnboundFreeVariable, reason=(
        "ROADMAP item 1: flatten gives p5 the fields (a, b, c), but t1, its "
        "only producer, binds only p1's (a, b), so c is unbound"))
    def test_flat_engine_agrees_with_the_token_game(self):
        ws = equal_binding_service()
        method = ws.net.gsp.method("Read")
        explored = analysis.analyze(analysis.explore_service(ws),
                                    set(method.goal_places))
        assert explored.goal_reachable and not explored.deadlocks
        flat = analysis.flatten(ws, "Read")
        report = analysis.analyze(analysis.reachability(flat),
                                  analysis.flat_goal_places(method))
        assert report.goal_reachable and not report.deadlocks


class TestAnalyzeReport:
    def test_witness_is_shortest(self):
        ws = book_order_service()
        flat = analysis.flatten(ws, "Command", args={"seq": 1})
        initial = [m for m in flat.initial_markings()
                   if m["P1f"][0][1] is False][0]
        graph = analysis.reachability(flat, initial=initial)
        report = analysis.analyze(graph, analysis.flat_goal_places(
            ws.net.gsp.method("Command")))
        # unavailable path: T_P1, T3, T_P3, T7 then the goal place fills
        assert report.witness == ["T_P1", "T3", "T_P3", "T7"]

    def test_bound_k(self):
        reg = make_registry()
        result = analysis.inline_isps(compose("par(a, b)", reg), reg)
        flat = analysis.flatten(result.service)
        graph = analysis.reachability(flat)
        report = analysis.analyze(graph, set())
        assert report.bound_k == 1  # the skeleton is a safe net

    def test_to_text_stable(self):
        ws = gated_false_service()
        flat = analysis.flatten(ws, "Never")
        graph = analysis.reachability(flat)
        report = analysis.analyze(graph, set())
        text = report.to_text()
        assert text.splitlines()[0] == "stateCount: 2"
        assert "goalReachable: False" in text
        assert text.splitlines()[-1] == "deadlock: (('p1l', ((),)),)"

    def test_deadlock_line_shows_every_marked_place(self):
        # a flat key of two marked places has the shape of an explored
        # (marking, env) key; both places must still print
        flat = analysis.FlatNet(places={}, transitions=[],
                                initial={"af": [()], "bf": [()]}, domains={})
        report = analysis.analyze(analysis.reachability(flat), set())
        assert report.to_text().splitlines()[-1] == (
            "deadlock: (('af', ((),)), ('bf', ((),)))")

    def test_canonical_marking_breaks_natural_ties_by_name(self):
        frozen = freeze_marking({"p1": [()], "p10": [()], "p01": [()]})
        assert [p for p, _ in analysis.canonical_marking(frozen)] == [
            "p01", "p1", "p10"]

    def test_deadlock_line_of_explored_service(self):
        graph = analysis.explore_service(gated_false_service(), "Never")
        report = analysis.analyze(graph, set())
        assert report.to_text().splitlines()[-1] == (
            "deadlock: (('p1', ((),)),)")


def assert_shortest_witness(graph, goal_places):
    """`analyze`'s witness replays along the graph's edges from its initial
    state to a goal state, and is as long as the BFS distance to the
    nearest one, computed here from the edges alone."""
    report = analysis.analyze(graph, goal_places)
    dist = {graph.initial: 0}
    queue = deque([graph.initial])
    while queue:
        state = queue.popleft()
        for idx in graph.out[state]:
            dst = graph.edges[idx][3]
            if dst not in dist:
                dist[dst] = dist[state] + 1
                queue.append(dst)
    assert len(dist) == len(graph.nodes)
    goals = {state for state, marking in graph.nodes.items()
             if any(marking.get(p) for p in goal_places)}
    assert report.goal_reachable == bool(goals)
    if not goals:
        assert report.witness == []
        return
    assert len(report.witness) == min(dist[state] for state in goals)
    states = {graph.initial}
    for label in report.witness:
        states = {graph.edges[idx][3] for state in states
                  for idx in graph.out[state] if graph.edges[idx][1] == label}
    assert states & goals


@functools.cache
def sweep_services():
    """The inlined criterion-2 random terms whose main method exists and
    takes no arguments, with that method."""
    rng = random.Random(20240817)
    reg = test_acceptance.make_registry()
    out = []
    for _ in range(1000):
        term = test_acceptance.random_term(rng, 5)
        service = analysis.inline_isps(dsl.eval_expr(term, reg), reg).service
        if service.net.gsp.methods:
            method = algebra.main_method(service)
            if not method.params:
                out.append((service, method))
    return tuple(out)


class TestWitness:
    """Caps 7 and 60 cut most flat graphs short; at 300 states most are
    complete.  The token game explores fewer states per second: 30 states
    complete most of its graphs."""

    def test_flat_sweep(self):
        checked = complete = 0
        for service, method in sweep_services():
            flat = analysis.flatten(service, method.name)
            goals = analysis.flat_goal_places(method)
            for initial in flat.initial_markings():
                for cap in (7, 60, 300):
                    try:
                        graph = analysis.reachability(
                            flat, max_states=cap, initial=initial)
                    except UnboundFreeVariable:
                        continue
                    assert_shortest_witness(graph, goals)
                    checked += 1
                complete += cap == 300 and not graph.truncated
        assert checked > 1500 and complete > 400

    def test_explored_sweep(self):
        complete = 0
        for service, method in sweep_services():
            graph = analysis.explore_service(service, method.name,
                                             max_states=30)
            assert_shortest_witness(graph, set(method.goal_places))
            complete += not graph.truncated
        assert complete > 350
