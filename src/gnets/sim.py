"""Token-game execution: enabling, firing, synchronous cross-net invocation
through ISP places, and policy-driven runs.

States are values; every step function returns a new state.  A token is its
fields.  Putting a token on an ISP place runs the invoked method to
completion inside the same step (`init_state` or `fire`): the place receives
the token the call returns, and the call's events follow the event of the
firing that put the token.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import product

from . import guards
from .errors import (ArityMismatch, DepthLimitExceeded, NotEnabled,
                     SubnetDeadlock, UnboundFreeVariable, UnknownMethod,
                     UnknownService)
from .model import (PlaceKind, Registry, Token, WebService, freeze_marking,
                    natural_key)

GOAL, DEADLOCK, STEP_LIMIT = "Goal", "Deadlock", "StepLimit"


@dataclass(frozen=True)
class SimConfig:
    policy: str = "det"  # det | random
    seed: int = 0
    depth_limit: int = 16
    max_steps: int = 10000


@dataclass(frozen=True)
class FiringEvent:
    depth: int
    transition: str
    binding: tuple  # tuple[(name, value), ...]
    consumed: tuple  # tuple[(place, fields), ...]
    produced: tuple


@dataclass(frozen=True)
class SimState:
    ws: WebService
    method_name: str
    marking: frozenset  # freeze_marking of pid -> [Token]
    env: tuple  # tuple[(name, value), ...]
    trace: tuple = ()
    depth: int = 0
    registry: Registry = None
    config: SimConfig = SimConfig()

    def marking_map(self):
        return {pid: toks for pid, toks in self.marking}

    def env_map(self):
        return dict(self.env)


def _fields_repr(token: Token) -> str:
    """The sort key of the tokens of one place in a frozen marking."""
    return repr(token.fields)


def _freeze_env(env: dict) -> tuple:
    return tuple(sorted(env.items()))


def check_arity(ws: WebService, method, args):
    """Raise ArityMismatch unless `args` holds one value per parameter of
    `method`, a method of `ws`."""
    if len(args) != len(method.params):
        raise ArityMismatch(
            f"{ws.name}.{method.name} takes {len(method.params)} "
            f"argument(s), got {len(args)}")


def init_state(ws: WebService, method_name: str, args=(), registry=None,
               config: SimConfig = None, depth: int = 0) -> SimState:
    config = config or SimConfig()
    method = ws.net.gsp.method(method_name)
    if method is None:
        raise UnknownMethod(ws.name, method_name)
    check_arity(ws, method, args)
    fields = {pname: value for (pname, _), value in zip(method.params, args)}
    init, token = method.init_place, Token.make(fields)
    env = {a.name: a.initial for a in ws.net.gsp.attributes
           if a.initial is not None}
    state = SimState(ws=ws, method_name=method_name,
                     marking=freeze_marking({init: [token]}, _fields_repr),
                     env=_freeze_env(env), depth=depth, registry=registry,
                     config=config)
    if ws.net.internal.place_map[init].kind is PlaceKind.ISP:
        token, events = invoke_isp(state, init, token)
        state = replace(state,
                        marking=freeze_marking({init: [token]}, _fields_repr),
                        trace=events)
    return state


# --- Enabling --------------------------------------------------------------

def _match_pattern(pattern, token, binding, env):
    """Bind the pattern variables of one input arc against a token.  Returns
    the extended binding or None on conflict.  A variable resolves from the
    token's like-named field, then from the frame env, then positionally;
    anything still unresolved is handled by the domain fallback later."""
    fields = token.field_map()
    values = [v for _, v in token.fields]
    out = dict(binding)
    positional_ok = len(pattern) == len(token.fields)
    for i, expr in enumerate(pattern):
        name = expr.name  # patterns are all-variable by validation
        if name in fields:
            value = fields[name]
        elif positional_ok and name not in out and name not in env:
            value = values[i]
        else:
            continue  # resolved from the frame env or a domain later
        if name in out and out[name] != value:
            return None
        out[name] = value
    return out


def _needed_vars(struct, tid):
    needed = set()
    cond = struct.condition_map.get(tid)
    if cond is not None:
        needed |= guards.condition_vars(cond)
    needed |= guards.action_vars(struct.action_map.get(tid, ()))
    for q in struct.post(tid):
        for expr in struct.inscription_map.get((tid, q), ()):
            needed |= guards.expr_vars(expr)
    return needed


def _bindings(state: SimState, tid: str):
    """Yield the (binding, token combo) pairs that make `tid` fireable in
    the current marking, in enumeration order."""
    struct = state.ws.net.internal
    marking = state.marking_map()
    env = state.env_map()
    ins_map = struct.inscription_map
    pools = []
    for pid in struct.pre(tid):
        toks = marking.get(pid)
        if not toks:
            return
        pools.append([(pid, t) for t in toks])
    cond = struct.condition_map.get(tid)
    for combo in product(*pools):
        binding = {}
        for pid, token in combo:
            pattern = ins_map.get((pid, tid))
            if pattern:
                binding = _match_pattern(pattern, token, binding, env)
                if binding is None:
                    break
        if binding is None:
            continue
        # remaining variables resolve from consumed token fields, the
        # frame env, then declared domains
        merged_fields = {}
        for _, token in combo:
            merged_fields.update(token.field_map())
        pattern_vars = set()
        for pid, _ in combo:
            for expr in ins_map.get((pid, tid), ()):
                pattern_vars.add(expr.name)
        needed = (_needed_vars(struct, tid) | pattern_vars)
        enum_vars = []
        for name in sorted(needed):
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


def enabled(state: SimState):
    """The (transition, binding) pairs fireable in the current marking."""
    results = [(tid, binding) for tid in state.ws.net.internal.transitions
               for binding, _ in _bindings(state, tid)]
    results.sort(key=lambda r: (natural_key(r[0]), sorted(r[1].items(),
                                                          key=repr)))
    return results


# --- Firing ----------------------------------------------------------------

def fire(state: SimState, tid: str, binding: dict) -> SimState:
    struct = state.ws.net.internal
    wanted = dict(binding)
    found = None
    if tid in struct.transitions:
        found = next((pair for pair in _bindings(state, tid)
                      if pair[0] == wanted), None)
    if found is None:
        raise NotEnabled(f"{tid} with binding {wanted!r}")
    binding, combo = found

    env = state.env_map()
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
    consumed_log = []
    for pid, token in combo:
        marking[pid].remove(token)
        consumed_log.append((pid, token.fields))

    ins_map = struct.inscription_map
    place_map = struct.place_map
    produced_log = []
    calls = ()
    merged = {}
    for _, token in combo:
        merged.update(token.field_map())
    for name in assigned:
        if name in merged:
            merged[name] = scope2[name]
    for q in struct.post(tid):
        ins = ins_map.get((tid, q))
        if ins:
            fields = {}
            for i, expr in enumerate(ins):
                name = expr.name if isinstance(expr, guards.Var) else f"_{i + 1}"
                fields[name] = guards.eval_expr(expr, scope2)
        else:
            fields = dict(merged)
        token = Token.make(fields)
        produced_log.append((q, token.fields))
        if place_map[q].kind is PlaceKind.ISP:
            token, events = invoke_isp(state, q, token)
            calls += events
        marking.setdefault(q, []).append(token)

    event = FiringEvent(state.depth, tid, tuple(sorted(binding.items())),
                        tuple(consumed_log), tuple(produced_log))
    return replace(state, marking=freeze_marking(marking, _fields_repr),
                   env=_freeze_env(new_env),
                   trace=state.trace + (event,) + calls)


# --- ISP invocation --------------------------------------------------------

def invoke_isp(state: SimState, pid: str, token: Token):
    """Run the call that `token` makes as it is put on the ISP place `pid`
    of `state`'s net.  Returns the token the call returns, which carries the
    method's goal fields over the call's own, and the call's events."""
    place = state.ws.net.internal.place_map[pid]
    if state.depth + 1 > state.config.depth_limit:
        raise DepthLimitExceeded(
            f"invocation depth {state.depth + 1} exceeds the limit "
            f"{state.config.depth_limit}")
    if state.registry is None:
        raise UnknownService(place.invoked_gnet)
    svc = state.registry.lookup(place.invoked_gnet)
    method = svc.net.gsp.method(place.using_method)
    if method is None:
        raise UnknownMethod(svc.name, place.using_method)

    fields = token.field_map()
    args = []
    for pname, _ in method.params:
        if pname not in fields:
            raise ArityMismatch(
                f"ISP token lacks field {pname!r} required by "
                f"{svc.name}.{method.name}")
        args.append(fields[pname])

    sub = init_state(svc, method.name, args, registry=state.registry,
                     config=state.config, depth=state.depth + 1)
    sub, outcome = run(sub)
    if outcome != GOAL:
        raise SubnetDeadlock(
            f"invoked method {svc.name}.{method.name} reached no goal "
            f"({outcome})")

    sub_marking = sub.marking_map()
    for g in sorted(method.goal_places, key=natural_key):
        for tok in sub_marking.get(g, ()):
            fields.update(tok.field_map())
    return Token.make(fields), sub.trace


# --- Runs ------------------------------------------------------------------

def _at_goal(state: SimState) -> bool:
    method = state.ws.net.gsp.method(state.method_name)
    marking = state.marking_map()
    return any(g in marking for g in method.goal_places)


def run(state: SimState):
    """Fire until a goal marking, a deadlock or the step limit, as set by
    `state.config` (which every nested ISP call shares).  Returns the final
    state and one of GOAL / DEADLOCK / STEP_LIMIT."""
    config = state.config
    if config.max_steps <= 0:
        raise ValueError("max_steps must be positive")
    for step in range(config.max_steps):
        if _at_goal(state):
            return state, GOAL
        choices = enabled(state)
        if not choices:
            return state, DEADLOCK
        if config.policy == "random":
            rng = random.Random(f"{config.seed}:{step}:{len(state.trace)}")
            tid, binding = rng.choice(choices)
        else:
            tid, binding = choices[0]
        state = fire(state, tid, binding)
    if _at_goal(state):
        return state, GOAL
    return state, STEP_LIMIT


def format_trace(state: SimState):
    """Line-oriented rendering of the recorded firing events."""
    lines = []
    for ev in state.trace:
        binding = ", ".join(f"{k}={v!r}" for k, v in ev.binding)
        consumed = " ".join(f"-{p}{dict(f)!r}" for p, f in ev.consumed)
        produced = " ".join(f"+{p}{dict(f)!r}" for p, f in ev.produced)
        lines.append(f"{ev.depth} {ev.transition} [{binding}] "
                     f"{consumed} {produced}".rstrip())
    return lines
