import pytest

from fixtures import (book_order_service, branching_bool_service,
                      gated_false_service)
from gnets import algebra, dsl, sim
from gnets.errors import (ArityMismatch, DepthLimitExceeded, NotEnabled,
                          SubnetDeadlock, UnknownMethod)
from gnets.model import Registry


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
        assert state.marking_map()["P1"][0].field_map() == {"seq": 7}

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
        token = state.marking_map()["P2"][0]
        assert token.field_map() == {"Available": True, "seq": 1}
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
        assert state.env_map()["V"] is False
        goal = state.marking_map()["p3"][0]
        assert goal.field_map() == {"V": False}

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
            assert set(state.marking_map()) <= pids


class TestRuns:
    def test_goal_outcome(self):
        state = sim.init_state(book_order_service(), "Command", (1,))
        final, outcome = sim.run(state)
        assert outcome == sim.GOAL
        assert final.marking_map()["P6"]

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
