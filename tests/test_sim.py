import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_acceptance
from fixtures import (book_order_service, branching_bool_service,
                      gated_false_service, mixed_values_service,
                      stuck_service)
from gnets import algebra, dsl, guards, sim
from gnets.errors import (ArityMismatch, DepthLimitExceeded, GnetError,
                          NotEnabled, SubnetDeadlock, UnboundFreeVariable,
                          UnknownMethod)
from gnets.model import (AttributeSpec, GNetModel, GspSpec, InternalStructure,
                         MethodSpec, Place, Registry, WebService, exact,
                         freeze_marking, natural_key)


def make_registry():
    reg = Registry()
    for name, op in (("a", "op-a"), ("b", "op-b"), ("c", "op-c")):
        reg.insert(algebra.with_request_method(algebra.atomic(name, op)))
    return reg


def compose(text, reg):
    return dsl.eval_expr(dsl.parse_expr(text), reg)


class TestInit:
    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            sim.init_state(gated_false_service(), "nope", ())

    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            sim.init_state(book_order_service(), "Command", ())

    def test_initial_marking(self):
        state = sim.init_state(book_order_service(), "Command", (7,))
        assert dict(state.marking)["P1"] == ((("seq", 7),),)

    def test_empty_service_runs_to_goal(self):
        state = sim.init_state(algebra.empty_service(), "Empty", ())
        state, outcome = sim.run(state)
        assert outcome == sim.GOAL
        assert state.trace == ()


class TestEnablingAndFiring:
    def test_guard_filters(self):
        state = sim.init_state(gated_false_service(), "Never", ())
        assert sim.enabled(state) == []

    def test_domain_enumeration(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        choices = sim.enabled(state)
        # T1 with Available=true, T3 with Available=false
        assert choices == [("T1", {"Available": True, "seq": 1}),
                           ("T3", {"Available": False, "seq": 1})]

    def test_token_carries_bound_value(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        state = sim.fire(state, "T1", {"Available": True, "seq": 1})
        token, = dict(state.marking)["P2"]
        assert token == (("Available", True), ("seq", 1))
        # once bound into the token, the other branch is gone
        assert [t for t, _ in sim.enabled(state)] == ["T2"]

    def test_not_enabled_rejected(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        with pytest.raises(NotEnabled):
            sim.fire(state, "T2", {})
        with pytest.raises(NotEnabled):
            sim.fire(state, "T1", {"Available": True, "seq": 99})
        with pytest.raises(NotEnabled):
            sim.fire(state, "T99", {})

    def test_action_updates_env(self):
        state = sim.init_state(branching_bool_service(), "Branch", ())
        state = sim.fire(state, "t1", {"V": True})
        state = sim.fire(state, "t3", {"V": True})
        assert dict(state.env)["V"] is False
        assert dict(state.marking)["p3"] == ((("V", False),),)

    def test_fire_is_pure(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        before = state.marking
        sim.fire(state, "T1", {"Available": True, "seq": 1})
        assert state.marking == before

    def test_marking_keys_stay_in_net(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        pids = state.ws.net.internal.place_ids()
        while True:
            choices = sim.enabled(state)
            if not choices:
                break
            state = sim.fire(state, *choices[0])
            assert set(dict(state.marking)) <= pids


class TestRuns:
    def test_goal_outcome(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL
        assert dict(final.marking)["P6"]

    def test_deadlock_outcome(self):
        state = sim.init_state(gated_false_service(), "Never", ())
        _, outcome = sim.run(state)
        assert outcome == sim.DEADLOCK

    def test_step_limit(self):
        reg = make_registry()
        looping = compose("iter(a)", reg)
        state = sim.init_state(looping, "Iter", (), registry=reg,
                               config=sim.SimConfig(max_steps=5))
        # deterministic policy always restarts the loop body
        _, outcome = sim.run(state)
        assert outcome == sim.STEP_LIMIT

    def test_random_policy_reproducible(self):
        reg = make_registry()
        ws = compose("alt(a, b)", reg)

        def trace_of(seed):
            state = sim.init_state(
                ws, "Alt", (), registry=reg,
                config=sim.SimConfig(policy="random", seed=seed))
            final, outcome = sim.run(state)
            assert outcome == sim.GOAL
            return [e.transition for e in final.trace]

        assert trace_of(3) == trace_of(3)
        assert any(trace_of(s) != trace_of(0) for s in range(1, 20))

    def test_random_policy_reaches_nested_calls(self):
        reg = make_registry()
        ws = compose("seq(alt(a, b), c)", reg)
        chosen = set()
        for seed in range(20):
            state = sim.init_state(
                ws, "Seq", (), registry=reg,
                config=sim.SimConfig(policy="random", seed=seed))
            final, outcome = sim.run(state)
            assert outcome == sim.GOAL
            # the nested alt call picks its branch with t1 or t2
            chosen |= {e.transition for e in final.trace if e.depth == 1
                       and e.transition in ("t1", "t2")
                       and e.consumed[0][0] == "p1"}
        assert chosen == {"t1", "t2"}

    def test_trace_replay(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL
        replayed = sim.init_state(book_order_service(), "Command", (1,))
        for event in final.trace:
            replayed = sim.fire(replayed, event.transition,
                                dict(event.binding))
        assert replayed.marking == final.marking


class TestIspInvocation:
    def test_sequence_runs_both_operands(self):
        reg = make_registry()
        ws = compose("seq(a, b)", reg)
        state = sim.init_state(ws, "Seq", (), registry=reg)
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL
        depths = {e.depth for e in final.trace}
        assert depths == {0, 1}

    def test_parallel_join(self):
        reg = make_registry()
        ws = compose("par(a, b)", reg)
        state = sim.init_state(ws, "Par", (), registry=reg)
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL

    def test_depth_limit(self):
        reg = make_registry()
        deep = compose("seq(seq(seq(a, b), b), b)", reg)
        with pytest.raises(DepthLimitExceeded):
            state = sim.init_state(deep, "Seq", (), registry=reg,
                                   config=sim.SimConfig(depth_limit=2))
            sim.run(state)

    def test_subnet_deadlock_propagates(self):
        reg = make_registry()
        reg.insert(gated_false_service())
        ws = compose("seq(Gated-False, a)", reg)
        with pytest.raises(SubnetDeadlock):
            sim.init_state(ws, "Seq", (), registry=reg)

    @pytest.mark.parametrize("max_steps, outcome", [(100, sim.DEADLOCK),
                                                    (1, sim.STEP_LIMIT)])
    def test_subnet_deadlock_carries_the_call(self, max_steps, outcome):
        reg = make_registry()
        reg.insert(stuck_service())
        ws = compose("seq(Stuck, a)", reg)
        with pytest.raises(SubnetDeadlock) as info:
            sim.init_state(ws, "Seq", (), registry=reg,
                           config=sim.SimConfig(max_steps=max_steps))
        failed = info.value
        assert str(failed) == (f"invoked method Stuck.Stall reached no "
                               f"goal ({outcome})")
        assert failed.outcome == outcome
        assert sim.format_trace(failed) == ["1 t0 [] -p0{} +p1{}"]
        assert failed.marking == freeze_marking({"p1": [()]})

    def test_selection_routes_to_choice(self):
        reg = make_registry()
        ws = compose("select(a, b, c)", reg)
        state = sim.init_state(ws, "Select", ("order",), registry=reg)
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL
        # default scorer picks index 0: only S_1's main body runs (p5)
        fired = {e.transition for e in final.trace if e.depth == 0}
        assert "t3" in fired and "t4" not in fired and "t5" not in fired

    def test_discriminator_reaches_goal(self):
        reg = make_registry()
        ws = compose("disc(a, b; c)", reg)
        state = sim.init_state(ws, "Disc", (), registry=reg)
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL

    def test_empty_operand_returns_at_once(self):
        reg = make_registry()
        ws = compose("seq(a, empty)", reg)
        state = sim.init_state(ws, "Seq", (), registry=reg)
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL
        assert [(e.depth, e.transition) for e in final.trace] == [
            (1, "t1"), (0, "t1"), (0, "t2")]

    def test_format_trace_shape(self):
        reg = make_registry()
        ws = compose("seq(a, b)", reg)
        state = sim.init_state(ws, "Seq", (), registry=reg)
        final, _ = sim.run(state)
        lines = sim.format_trace(final)
        assert len(lines) == len(final.trace)
        assert all(line.split()[1] for line in lines)


class TestConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy 'rand'"):
            sim.SimConfig(policy="rand")

    def test_fields_pinned(self):
        """Every field but the seed is part of the call memo's key, so a
        new field must be added to the key too."""
        assert [f.name for f in dataclasses.fields(sim.SimConfig)] == [
            "policy", "seed", "depth_limit", "max_steps"]


# --- The call memo -----------------------------------------------------------

def observe(ws, method_name, args, reg, config):
    """What a run shows: its outcome, trace and final marking, or its
    error's type and message, and a failed call's trace."""
    try:
        final, outcome = sim.run(sim.init_state(ws, method_name, args,
                                                registry=reg, config=config))
    except GnetError as exc:
        return (type(exc).__name__, str(exc),
                sim.format_trace(exc) if isinstance(exc, SubnetDeadlock)
                else None)
    return outcome, sim.format_trace(final), final.marking


def memo_keys(reg):
    return set(sim._call_memo(reg).results)


class TestCallMemo:
    def test_call_that_draws_is_not_stored(self):
        reg = make_registry()
        ws = compose("seq(alt(a, b), c)", reg)
        shared = reg.copy()

        def trace(seed, on):
            return observe(ws, "Seq", (), on, sim.SimConfig(
                policy="random", seed=seed))

        traces = {}
        for seed in (1, 2, 3, 4, 2, 1):
            traces[seed] = trace(seed, shared)
            assert traces[seed] == trace(seed, reg.copy())
        assert len({tuple(t[1]) for t in traces.values()}) > 1
        # the leaves are stored; the alt call, which draws, is not
        called = {(name, depth) for name, _, _, depth, *_ in
                  memo_keys(shared)}
        assert {("a", 1), ("b", 1), ("c", 0)} <= called
        assert ("Alt(a,b)", 0) not in called

    def test_int_and_bool_arguments_apart(self):
        reg = make_registry()
        ws = compose("select(a, b)", reg)
        shared = reg.copy()
        for value in (1, True, 1):
            assert observe(ws, "Select", (value,), shared, sim.SimConfig()) \
                == observe(ws, "Select", (value,), reg.copy(),
                           sim.SimConfig())
        keys = {args for _, _, args, *_ in memo_keys(shared)}
        assert exact((1,)) in keys and exact((True,)) in keys

    def test_limits_are_part_of_the_key(self):
        reg = make_registry()
        ws = compose("seq(seq(seq(a, b), b), b)", reg)
        shared = reg.copy()
        for config, outcome in (
                (sim.SimConfig(), sim.GOAL),
                (sim.SimConfig(depth_limit=2), "DepthLimitExceeded"),
                (sim.SimConfig(max_steps=1), "SubnetDeadlock")):
            seen = observe(ws, "Seq", (), shared, config)
            assert seen == observe(ws, "Seq", (), reg.copy(), config)
            assert seen[0] == outcome

    def test_failed_call_is_not_stored(self):
        reg = make_registry()
        reg.insert(stuck_service())
        ws = compose("seq(Stuck, a)", reg)
        first = observe(ws, "Seq", (), reg, sim.SimConfig())
        assert first[0] == "SubnetDeadlock" and not memo_keys(reg)
        assert observe(ws, "Seq", (), reg, sim.SimConfig()) == first
        assert not memo_keys(reg)

    def test_copy_starts_empty(self):
        reg = make_registry()
        ws = compose("seq(a, b)", reg)
        observe(ws, "Seq", (), reg, sim.SimConfig())
        assert memo_keys(reg)
        assert not memo_keys(reg.copy())

    def test_sweep_slice_equals_memo_free_runs(self, monkeypatch):
        """On each term, one registry runs det and then random seeds 1, 2,
        3 and 1 again; each run shows what it shows on a fresh registry
        with no memo."""
        configs = [sim.SimConfig(max_steps=300)] + [
            sim.SimConfig(policy="random", seed=seed, max_steps=300)
            for seed in (1, 2, 3, 1)]
        rng = random.Random(20240817)
        reg = test_acceptance.make_registry()
        runs = []
        for _ in range(200):
            ws = dsl.eval_expr(test_acceptance.random_term(rng, 5), reg)
            if ws.net.gsp.methods:
                method = algebra.main_method(ws)
                args = ["req"] * len(method.params)
                shared = reg.copy()
                runs += [(ws, method.name, args, config,
                          observe(ws, method.name, args, shared, config))
                         for config in configs]
        monkeypatch.setattr(sim, "_call_memo", lambda reg: sim._CallMemo())
        for ws, method_name, args, config, seen in runs:
            assert seen == observe(ws, method_name, args, reg.copy(),
                                   config), (ws.name, config)
        assert {seen[0] for *_, seen in runs} >= {
            sim.GOAL, sim.STEP_LIMIT, "SubnetDeadlock"}


# --- The compiled token game against a full scan -----------------------------

def _full_scan_match(pattern, token, binding, env):
    fields = dict(token)
    values = [v for _, v in token]
    out = dict(binding)
    positional_ok = len(pattern) == len(token)
    for i, expr in enumerate(pattern):
        name = expr.name
        if name in fields:
            value = fields[name]
        elif positional_ok and name not in out and name not in env:
            value = values[i]
        else:
            continue
        if name in out and repr(out[name]) != repr(value):
            return None
        out[name] = value
    return out


def _full_scan_needed(struct, tid):
    needed = set()
    cond = struct.condition_map.get(tid)
    if cond is not None:
        needed |= guards.condition_vars(cond)
    needed |= guards.action_vars(struct.action_map.get(tid, ()))
    for q in struct.post(tid):
        for expr in struct.inscription_map.get((tid, q), ()):
            needed |= guards.expr_vars(expr)
    return needed


def full_scan_bindings(state, tid):
    """The reference enumerator: the structure's maps are read and the
    needed variables recomputed for every token combination.  A combination
    holds one (place, index, token) triple per preset place."""
    struct = state.ws.net.internal
    marking = dict(state.marking)
    env = dict(state.env)
    ins_map = struct.inscription_map
    pools = []
    for pid in struct.pre(tid):
        toks = marking.get(pid)
        if not toks:
            return
        pools.append([(pid, i, t) for i, t in enumerate(toks)])
    cond = struct.condition_map.get(tid)
    for combo in product(*pools):
        binding = {}
        for pid, _, token in combo:
            pattern = ins_map.get((pid, tid))
            if pattern:
                binding = _full_scan_match(pattern, token, binding, env)
                if binding is None:
                    break
        if binding is None:
            continue
        merged_fields = {}
        for _, _, token in combo:
            merged_fields.update(token)
        pattern_vars = {expr.name for pid, _, _ in combo
                        for expr in ins_map.get((pid, tid), ())}
        enum_vars = []
        for name in sorted(_full_scan_needed(struct, tid) | pattern_vars):
            if name in binding or name in env:
                continue
            if name in merged_fields:
                binding[name] = merged_fields[name]
                continue
            domain = state.ws.net.gsp.domain(name)
            if domain is None:
                raise UnboundFreeVariable(name)
            enum_vars.append((name, domain))
        for values in product(*(d for _, d in enum_vars)):
            full = dict(binding)
            full.update({n: v for (n, _), v in zip(enum_vars, values)})
            scope = {**env, **full}
            if cond is not None and not guards.eval_condition(cond, scope):
                continue
            yield full, combo


def full_scan_enabled(state):
    """The reference `enabled`: every transition of the list is tried."""
    results = [(tid, binding) for tid in state.ws.net.internal.transitions
               for binding, _ in full_scan_bindings(state, tid)]
    results.sort(key=lambda r: (natural_key(r[0]), [
        (name, type(value) is str, value)
        for name, value in sorted(r[1].items(), key=repr)]))
    return results


def typed(binding):
    return {name: (type(value), value) for name, value in binding.items()}


def full_scan_fire(state, tid, binding):
    """The reference `fire` of a net without ISP places: the binding is
    matched by type and value, and each consumed token removed by its
    position."""
    struct = state.ws.net.internal
    wanted = dict(binding)
    found = None
    if tid in struct.transitions:
        found = next((pair for pair in full_scan_bindings(state, tid)
                      if typed(pair[0]) == typed(wanted)), None)
    if found is None:
        raise NotEnabled(f"{tid} with binding {wanted!r}")
    binding, combo = found
    env = dict(state.env)
    attrs = {a.name for a in state.ws.net.gsp.attributes}
    scope = {**env, **binding}
    actions = struct.action_map.get(tid, ())
    for assign in actions:
        if assign.target not in attrs and assign.target not in scope:
            raise guards.UnboundVariable(assign.target)
    scope2 = guards.eval_action(actions, scope)
    assigned = {a.target for a in actions}
    new_env = dict(env)
    for name in attrs:
        if name in scope2 and (name in new_env or name in assigned):
            new_env[name] = scope2[name]
    marking = {pid: list(toks) for pid, toks in state.marking}
    taken = {(pid, i) for pid, i, _ in combo}
    for pid in {pid for pid, _ in taken}:
        marking[pid] = [t for i, t in enumerate(marking[pid])
                        if (pid, i) not in taken]
    merged = {}
    for _, _, token in combo:
        merged.update(token)
    for name in assigned:
        if name in merged:
            merged[name] = scope2[name]
    produced_log = []
    for q in struct.post(tid):
        ins = struct.inscription_map.get((tid, q))
        if ins:
            fields = {}
            for i, expr in enumerate(ins):
                name = (expr.name if isinstance(expr, guards.Var)
                        else f"_{i + 1}")
                fields[name] = guards.eval_expr(expr, scope2)
        else:
            fields = dict(merged)
        token = tuple(sorted(fields.items()))
        produced_log.append((q, token))
        marking.setdefault(q, []).append(token)
    event = sim.FiringEvent(state.depth, tid, tuple(sorted(binding.items())),
                            tuple((pid, t) for pid, _, t in combo),
                            tuple(produced_log))
    return dataclasses.replace(
        state, marking=freeze_marking(marking),
        env=tuple(sorted(new_env.items())), trace=state.trace + (event,))


def outcome(fn, *args):
    """What `fn` returns or raises, as text that tells the int 1 from the
    bool True."""
    try:
        result = fn(*args)
    except GnetError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, sim.SimState):
        return repr((sorted((p, repr(t)) for p, t in result.marking),
                     result.env, result.trace))
    return repr(result)


# p01 and p1, t01 and t1 tie under natural_key
GAME_PLACES = ("p01", "p1", "p2", "p10")
GAME_NAMES = ("t01", "t1", "t2", "t10")
GAME_VALUES = (0, 1, True, False)
# x and y are pattern variables; d ranges over its domain, e over the bools,
# a starts in the env, and u is declared nowhere
GAME_ATTRIBUTES = (AttributeSpec("d", "int", domain=(0, 1)),
                   AttributeSpec("e", "bool"),
                   AttributeSpec("a", "int", initial=0))
GAME_VARS = ("x", "y", "d", "e", "a", "u")

game_exprs = st.one_of(st.sampled_from(GAME_VALUES).map(guards.Lit),
                       st.sampled_from(GAME_VARS).map(guards.Var))
game_conditions = st.one_of(
    st.none(), st.just(guards.TRUE), st.builds(guards.Atom, game_exprs),
    st.builds(guards.Compare, game_exprs, st.sampled_from(("==", "!=")),
              game_exprs))
game_patterns = st.lists(st.sampled_from(("x", "y")), max_size=2,
                         unique=True).map(lambda names: tuple(
                             guards.Var(n) for n in names))
game_transitions = st.tuples(
    st.lists(st.tuples(st.sampled_from(GAME_PLACES), game_patterns),
             max_size=3, unique_by=lambda arc: arc[0]),
    st.lists(st.tuples(st.sampled_from(GAME_PLACES),
                       st.one_of(st.none(), st.lists(
                           game_exprs, min_size=1, max_size=2).map(tuple))),
             max_size=2, unique_by=lambda arc: arc[0]),
    game_conditions,
    st.one_of(st.just(()), st.builds(
        lambda expr: (guards.Assign("a", expr),), game_exprs)))
game_tokens = st.dictionaries(st.sampled_from(("x", "y", "_1", "_2")),
                              st.sampled_from(GAME_VALUES), max_size=2
                              ).map(lambda d: tuple(sorted(d.items())))
SWAP = {0: False, 1: True, False: 0, True: 1}


def with_twin(tokens, twin):
    """`tokens`, plus, when `twin`, a copy of the first with 1 and True,
    and 0 and False, swapped: a token equal to it but of other types, or a
    duplicate."""
    if not twin:
        return tokens
    return tokens + [tuple((k, SWAP[v]) for k, v in tokens[0])]


game_places = st.builds(with_twin, st.lists(game_tokens, min_size=1,
                                            max_size=3), st.booleans())


def game_state(transitions, marking):
    """A state of a service whose transitions are the (inputs, outputs,
    condition, actions) quadruples `transitions`, named after GAME_NAMES,
    in marking `marking` (place -> tokens)."""
    names = GAME_NAMES[:len(transitions)]
    arcs, inscriptions, conditions, actions = [], [], [], []
    for tid, (inputs, outputs, cond, acts) in zip(names, transitions):
        for pid, pattern in inputs:
            arcs.append((pid, tid))
            if pattern:
                inscriptions.append(((pid, tid), pattern))
        for pid, ins in outputs:
            arcs.append((tid, pid))
            if ins:
                inscriptions.append(((tid, pid), ins))
        if cond is not None:
            conditions.append((tid, cond))
        if acts:
            actions.append((tid, acts))
    struct = InternalStructure(
        places=tuple(Place(p) for p in GAME_PLACES), transitions=names,
        arcs=tuple(arcs), inscriptions=tuple(inscriptions),
        conditions=tuple(conditions), actions=tuple(actions))
    ws = WebService("game", net=GNetModel(
        GspSpec((MethodSpec("Play", "", (), "p1", frozenset({"p10"})),),
                GAME_ATTRIBUTES), struct))
    return sim.SimState(ws, "Play", freeze_marking(marking),
                        (("a", 0),))


class TestCompiledTokenGame:
    """`enabled` tries only the transitions whose first preset place is
    marked, from a plan built once per structure, and `fire` finds its
    transition through that plan; both must equal a full scan, order,
    binding types and errors included."""

    @given(st.lists(game_transitions, min_size=1, max_size=4),
           st.dictionaries(st.sampled_from(GAME_PLACES), game_places,
                           min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_equals_full_scan(self, transitions, marking):
        state = game_state(transitions, marking)
        expected = outcome(full_scan_enabled, state)
        assert outcome(sim.enabled, state) == expected
        tried = [(tid, {}) for tid in state.ws.net.internal.transitions]
        try:
            tried += full_scan_enabled(state)
        except GnetError:
            pass
        # a binding that is no choice: 1 for True and True for 1
        tried += [(tid, {k: {1: True, True: 1}.get(v, v) if type(v)
                         in (int, bool) else v for k, v in binding.items()})
                  for tid, binding in tried]
        tried.append(("t99", {}))
        for tid, binding in tried:
            assert outcome(sim.fire, state, tid, binding) \
                == outcome(full_scan_fire, state, tid, binding)

    def test_one_true_next_to_one(self):
        state = game_state(
            [((("p1", (guards.Var("x"),)),), (("p2", (guards.Var("x"),)),),
              None, ())],
            {"p1": [(("x", 1),), (("x", True),)]})
        assert repr(sim.enabled(state)) == \
            "[('t01', {'x': 1}), ('t01', {'x': True})]"
        fired = sim.fire(state, "t01", {"x": True})
        assert fired.trace[0].binding == (("x", True),)
        assert repr(fired.trace[0].binding) == "(('x', True),)"
        after = dict(fired.marking)
        assert repr(after["p1"]) == "((('x', 1),),)"
        assert repr(after["p2"]) == "((('x', True),),)"
        assert after["p2"] != ((("x", 1),),)

    def test_int_and_str_bindings_of_one_variable(self):
        state = sim.init_state(mixed_values_service(), "Mix")
        for tid in ("t0", "ta", "tb"):
            state = sim.fire(state, tid, {})
        assert sim.enabled(state) == [("t1", {"x": 1}), ("t1", {"x": "a"})]
        assert sim.enabled(state) == full_scan_enabled(state)

    def test_unmarked_preset_leaves_unbound_variable_unread(self):
        # t01 reads the undeclared u, but its preset p2 is never marked
        transitions = [
            ((("p2", (guards.Var("x"),)),), (("p10", (guards.Var("u"),)),),
             None, ()),
            ((("p1", (guards.Var("x"),)),), (("p2", (guards.Var("x"),)),),
             None, ())]
        state = game_state(transitions, {"p1": [(("x", 0),)]})
        assert sim.enabled(state) == [("t1", {"x": 0})]
        state = sim.fire(state, "t1", {"x": 0})
        with pytest.raises(UnboundFreeVariable) as info:
            sim.enabled(state)
        assert info.value.name == "u"

    def test_not_enabled(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        for tid, binding in (("T99", {}), ("T2", {}),
                             ("T1", {"Available": 1, "seq": 1}),
                             ("T1", {"Available": True, "seq": True})):
            with pytest.raises(NotEnabled):
                sim.fire(state, tid, binding)

    def test_structure_shared_by_states_and_services(self):
        ws = book_order_service()
        first = sim.init_state(ws, "Command", (1,))
        second = sim.init_state(ws, "Command", (2,))
        assert sim.enabled(first) == full_scan_enabled(first)
        assert sim.enabled(second) == full_scan_enabled(second)
        for tid, binding in full_scan_enabled(second):
            assert outcome(sim.fire, second, tid, binding) \
                == outcome(full_scan_fire, second, tid, binding)
        # the plan is kept on the structure; the domains are the service's
        gsp = ws.net.gsp
        twin = dataclasses.replace(ws, net=GNetModel(
            dataclasses.replace(gsp, attributes=(
                AttributeSpec("Available", "bool", domain=(False,)),)),
            ws.net.internal))
        third = sim.init_state(twin, "Command", (3,))
        assert sim.enabled(third) == full_scan_enabled(third) \
            == [("T3", {"Available": False, "seq": 3})]
