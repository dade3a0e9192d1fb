"""Token-game execution: enabling, firing, synchronous cross-net invocation
through ISP places, and policy-driven runs.

States are values.  `enabled` offers the `Firing`s of a state, each a
transition, its binding and the tokens it takes (two tokens that give one
binding are two firings), and `fire` applies one to the state it was offered
in, returning a new state.  A token is its fields: the tuple of its (field,
value) pairs sorted by name and made exact (`model.exact`), as a state's env
and a fired binding are.  Putting a token on an ISP place runs the invoked
method to completion inside the same step (`init_state` or `fire`): the
place receives the token the call returns, and the call's events follow the
event of the firing that put the token.  A call that stops short of its goal
raises `SubnetDeadlock` with its outcome, partial trace and final marking.

The first `enabled` on a structure compiles it into a plan kept on the
structure: one `_Step` per transition, in list order, holding what the
transition reads and writes.  A state tries, in list order, each transition
with no preset or whose first preset place is marked.  The plan holds
nothing of the service's interface (domains, attributes, goals), which
services sharing a structure may declare differently.

A call or a step that draws no random choice is a function of its inputs,
so each registry keeps a memo of both (`_CallMemo`), made by its first `run`
or ISP call and never copied: `Registry.copy()` starts with none.  Both keys
end in the config's `policy`, `depth_limit` and `max_steps`, but not its
`seed`.  A call's key starts with the invoked service and method, the tuple
of the arguments made exact (the int 1 and the bool True stay apart) and the
caller's depth; its value is the fields the call's goal tokens add to the
ISP token and the call's trace.  A step's key starts with the service (by
identity; the memo holds the service, so its id is not reused) and the
state's marking, env and depth; its value is the number of firings `enabled`
offered and, per chosen firing index, the successor's marking and env and
the events the step appended.  On a hit `run` still makes its own draw
among that many choices, from the same generator.  A call is stored when it
reaches its goal and no step of it, nested calls included, drew; a step is
stored when it raised nothing and no nested call it made drew (`run` counts
its draws on the memo).  Nothing else is stored: `enabled`, `fire` and
`analysis.explore_service` use no memo, and no result is kept on a service
or a structure.  The memo holds because `Registry.insert` never changes
what a name means and every nested call has a step budget of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import product

from . import algebra, guards
from .errors import (ArityMismatch, DepthLimitExceeded, SubnetDeadlock,
                     UnboundFreeVariable, UnknownService)
from .model import (PlaceKind, Registry, WebService, exact, freeze_marking,
                    natural_key, same)

GOAL, DEADLOCK, STEP_LIMIT = "Goal", "Deadlock", "StepLimit"
POLICIES = ("det", "random")


@dataclass(frozen=True)
class SimConfig:
    """Every field but `seed` is part of the call and step memos' keys."""
    policy: str = "det"  # one of POLICIES
    seed: int = 0
    depth_limit: int = 16
    max_steps: int = 10000

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}: expected "
                             f"one of {', '.join(POLICIES)}")
        if self.depth_limit < 0:
            raise ValueError(f"depth_limit must not be negative, got "
                             f"{self.depth_limit}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


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
    marking: frozenset  # freeze_marking of pid -> [token]
    env: tuple  # _freeze of name -> value
    trace: tuple = ()
    depth: int = 0
    registry: Registry = None
    config: SimConfig = SimConfig()


@dataclass(frozen=True)
class Firing:
    """A choice of `enabled(state)`: `transition` under `binding`, taking the
    `consumed` tokens, which sit at `indexes` of their places in `state`."""
    transition: str
    binding: dict  # name -> value
    consumed: tuple  # tuple[(place, token), ...], as FiringEvent records it
    state: SimState = field(repr=False, compare=False)
    step: _Step = field(repr=False, compare=False)
    indexes: tuple = field(repr=False, compare=False)


def _freeze(pairs: dict) -> tuple:
    """A token, an env or a binding: its pairs sorted by name, made exact."""
    return exact(tuple(sorted(pairs.items())))


def check_arity(ws: WebService, method, args):
    """Raise ArityMismatch unless `args` holds one value per parameter of
    `method`, a method of `ws`."""
    if len(args) != len(method.params):
        raise ArityMismatch(
            f"{ws.name}.{method.name} takes {len(method.params)} "
            f"argument(s), got {len(args)}")


def init_state(ws: WebService, method_name: str, args=(), registry=None,
               config: SimConfig = None, depth: int = 0) -> SimState:
    """The state that starts `method_name` of `ws` (None: its main one)."""
    config = config or SimConfig()
    method = algebra.method(ws, method_name)
    check_arity(ws, method, args)
    fields = {pname: value for (pname, _), value in zip(method.params, args)}
    init, token = method.init_place, _freeze(fields)
    env = {a.name: a.initial for a in ws.net.gsp.attributes
           if a.initial is not None}
    state = SimState(ws=ws, method_name=method.name,
                     marking=freeze_marking({init: [token]}),
                     env=_freeze(env), depth=depth, registry=registry,
                     config=config)
    if ws.net.internal.place_map[init].kind is PlaceKind.ISP:
        token, events = invoke_isp(state, init, token)
        state = replace(state, marking=freeze_marking({init: [token]}),
                        trace=events)
    return state


# --- The plan --------------------------------------------------------------

@dataclass(frozen=True)
class _Step:
    """What the token game reads of one transition, computed once per
    structure:
        inputs     per preset place, in natural order: (place, the names
                   of its input pattern);
        needed     sorted: every variable its guard, actions, output
                   inscriptions and input patterns read;
        outputs    per post place, in natural order: (place, its (field
                   name, expression) pairs, or None for a copy of the
                   consumed fields, whether it is an ISP place)."""
    tid: str
    inputs: tuple
    condition: object  # the guard, or None
    actions: tuple
    needed: tuple
    outputs: tuple


def _compile(struct) -> tuple:
    ins_map, place_map = struct.inscription_map, struct.place_map
    steps = []
    for tid in struct.transitions:
        inputs = tuple((pid, tuple(e.name for e in ins_map.get((pid, tid))
                                   or ()))
                       for pid in struct.pre(tid))
        cond = struct.condition_map.get(tid)
        actions = struct.action_map.get(tid, ())
        needed = guards.action_vars(actions)
        if cond is not None:
            needed |= guards.condition_vars(cond)
        outputs = []
        for q in struct.post(tid):
            ins = ins_map.get((tid, q))
            for expr in ins or ():
                needed |= guards.expr_vars(expr)
            fields = tuple(
                (expr.name if isinstance(expr, guards.Var) else f"_{i + 1}",
                 expr) for i, expr in enumerate(ins)) if ins else None
            outputs.append((q, fields, place_map[q].kind is PlaceKind.ISP))
        for _, names in inputs:
            needed.update(names)
        steps.append(_Step(tid, inputs, cond, actions,
                           tuple(sorted(needed)), tuple(outputs)))
    return tuple(steps)


# --- Enabling --------------------------------------------------------------

def _match_pattern(names, token, binding, env):
    """Bind the pattern variables `names` of one input arc against a token.
    Returns the extended binding or None on conflict.  A variable resolves
    from the token's like-named field, then from the frame env, then
    positionally; anything still unresolved is handled by the domain
    fallback later."""
    fields = dict(token)
    out = dict(binding)
    positional_ok = len(names) == len(token)
    for i, name in enumerate(names):
        if name in fields:
            value = fields[name]
        elif positional_ok and name not in out and name not in env:
            value = token[i][1]
        else:
            continue  # resolved from the frame env or a domain later
        if name in out and not same(out[name], value):
            return None
        out[name] = value
    return out


def _bindings(step: _Step, marking: dict, env: dict, gsp):
    """Yield the (binding, combination) pairs that make `step`'s transition
    fireable in `marking` (place -> tokens) under the frame `env`, in
    enumeration order.  A combination holds one (index, token) pair per
    preset place."""
    pools = []
    for pid, _ in step.inputs:
        toks = marking.get(pid)
        if not toks:
            return
        pools.append(tuple(enumerate(toks)))
    cond = step.condition
    for combo in product(*pools):
        binding = {}
        for (_, names), (_, token) in zip(step.inputs, combo):
            if names:
                binding = _match_pattern(names, token, binding, env)
                if binding is None:
                    break
        if binding is None:
            continue
        # remaining variables resolve from consumed token fields, the
        # frame env, then declared domains
        merged, enum_vars = None, []
        for name in step.needed:
            if name in binding or name in env:
                continue
            if merged is None:
                merged = {}
                for _, token in combo:
                    merged.update(token)
            if name in merged:
                binding[name] = merged[name]
                continue
            domain = gsp.domain(name)
            if domain is None:
                raise UnboundFreeVariable(name)
            enum_vars.append((name, domain))
        for values in product(*(d for _, d in enum_vars)):
            full = dict(binding)
            full.update((n, v) for (n, _), v in zip(enum_vars, values))
            if cond is not None and not guards.eval_condition(
                    cond, {**env, **full}):
                continue
            yield full, combo


def enabled(state: SimState):
    """The firings of the current marking, ordered by transition name in
    natural order, then by binding, then in enumeration order."""
    struct = state.ws.net.internal
    steps = struct.__dict__.get("_token_game_plan")
    if steps is None:  # kept on the instance, as its cached views are
        steps = struct.__dict__["_token_game_plan"] = _compile(struct)
    marking, env, gsp = dict(state.marking), dict(state.env), state.ws.net.gsp
    results = []
    for step in steps:
        if step.inputs and step.inputs[0][0] not in marking:
            continue
        results += [Firing(step.tid, binding, tuple(
            (pid, token) for (pid, _), (_, token) in zip(step.inputs, combo)),
            state, step, tuple(i for i, _ in combo))
            for binding, combo in _bindings(step, marking, env, gsp)]
    if len(results) > 1:
        # a str value sorts after a number and is compared only with a str
        results.sort(key=lambda f: (natural_key(f.transition), [
            (name, type(value) is str, value)
            for name, value in sorted(f.binding.items(), key=repr)]))
    return results


# --- Firing ----------------------------------------------------------------

def fire(firing: Firing) -> SimState:
    """The state after `firing`, one of `enabled(firing.state)`."""
    state, step, binding = firing.state, firing.step, firing.binding
    marking, env = dict(state.marking), dict(state.env)
    attrs = {a.name for a in state.ws.net.gsp.attributes}
    scope = {**env, **binding}
    actions = step.actions
    for assign in actions:
        if assign.target not in attrs and assign.target not in scope:
            raise guards.UnboundVariable(assign.target)
    scope2 = guards.eval_action(actions, scope)
    assigned = {a.target for a in actions}
    # the env changes only where an action or the binding sets an attribute
    new_env = state.env if not assigned and env.keys().isdisjoint(binding) \
        else _freeze({n: scope2[n] for n in env.keys() | (assigned & attrs)})

    merged = {}
    for (pid, token), i in zip(firing.consumed, firing.indexes):
        toks = marking[pid]
        marking[pid] = toks[:i] + toks[i + 1:]
        merged.update(token)
    for name in assigned:
        if name in merged:
            merged[name] = scope2[name]

    produced_log = []
    calls = ()
    for q, fields, is_isp in step.outputs:
        token = _freeze(merged if fields is None else {
            name: guards.eval_expr(expr, scope2) for name, expr in fields})
        produced_log.append((q, token))
        if is_isp:
            token, events = invoke_isp(state, q, token)
            calls += events
        marking[q] = marking.get(q, ()) + (token,)

    event = FiringEvent(state.depth, step.tid, _freeze(binding),
                        firing.consumed, tuple(produced_log))
    return SimState(state.ws, state.method_name, freeze_marking(marking),
                    new_env, state.trace + (event,) + calls,
                    state.depth, state.registry, state.config)


# --- ISP invocation --------------------------------------------------------

class _CallMemo:
    """The draw-free calls and steps run on one registry, and the count of
    random draws its runs have made, by which a call or a step is seen to
    draw."""

    def __init__(self):
        self.results = {}  # call key -> (goal fields, trace)
        self.steps = {}  # step key -> (firing count, {index: successor})
        self.services = {}  # id -> a service a step key names by its id
        self.draws = 0


def _call_memo(registry: Registry) -> _CallMemo:
    """The call memo of `registry`, kept on the instance."""
    memo = registry.__dict__.get("_call_memo")
    if memo is None:
        memo = registry.__dict__["_call_memo"] = _CallMemo()
    return memo


def invoke_isp(state: SimState, pid: str, token: tuple):
    """Run the call that `token` makes as it is put on the ISP place `pid`
    of `state`'s net.  Returns the token the call returns, which carries the
    method's goal fields over the call's own, and the call's events.  A
    draw-free call is run once per registry (see the module docstring)."""
    place = state.ws.net.internal.place_map[pid]
    if state.depth + 1 > state.config.depth_limit:
        raise DepthLimitExceeded(
            f"invocation depth {state.depth + 1} exceeds the limit "
            f"{state.config.depth_limit}")
    if state.registry is None:
        raise UnknownService(place.invoked_gnet)
    svc = state.registry.lookup(place.invoked_gnet)
    method = algebra.method(svc, place.using_method)

    fields = dict(token)
    args = []
    for pname, _ in method.params:
        if pname not in fields:
            raise ArityMismatch(
                f"ISP token lacks field {pname!r} required by "
                f"{svc.name}.{method.name}")
        args.append(fields[pname])

    config, memo = state.config, _call_memo(state.registry)
    key = (svc.name, method.name, exact(tuple(args)), state.depth,
           config.policy, config.depth_limit, config.max_steps)
    result = memo.results.get(key)
    if result is None:
        draws = memo.draws
        sub = init_state(svc, method.name, args, registry=state.registry,
                         config=config, depth=state.depth + 1)
        sub, outcome = run(sub)
        if outcome != GOAL:
            raise SubnetDeadlock(
                f"invoked method {svc.name}.{method.name} reached no goal "
                f"({outcome})", outcome, sub.trace, sub.marking)
        sub_marking, added = dict(sub.marking), {}
        for g in sorted(method.goal_places, key=natural_key):
            for tok in sub_marking.get(g, ()):
                added.update(tok)
        result = added, sub.trace
        if memo.draws == draws:
            memo.results[key] = result
    added, trace = result
    fields.update(added)
    return _freeze(fields), trace


# --- Runs ------------------------------------------------------------------

def _at_goal(state: SimState, goals: frozenset) -> bool:
    return any(pid in goals for pid, _ in state.marking)


def run(state: SimState):
    """Fire until a goal marking, a deadlock or the step limit, as set by
    `state.config` (which every nested ISP call shares; each call has
    `max_steps` steps of its own).  Returns the final state and one of
    GOAL / DEADLOCK / STEP_LIMIT.  A draw-free step is computed once per
    registry (see the module docstring)."""
    config, ws = state.config, state.ws
    goals = algebra.method(ws, state.method_name).goal_places
    # a run with no registry keeps its memo to itself
    memo = _CallMemo() if state.registry is None else _call_memo(
        state.registry)
    for step in range(config.max_steps):
        if _at_goal(state, goals):
            return state, GOAL
        key = (id(ws), state.marking, state.env, state.depth, config.policy,
               config.depth_limit, config.max_steps)
        entry, firings = memo.steps.get(key), None
        if entry is None:
            firings = enabled(state)
            entry = len(firings), {}
        count, successors = entry
        if not count:
            return state, DEADLOCK
        index = 0
        # a generator would pick the only choice whatever its seed
        if config.policy == "random" and count > 1:
            memo.draws += 1
            rng = random.Random(f"{config.seed}:{step}:{len(state.trace)}")
            index = rng.choice(range(count))  # as rng.choice(firings)
        if index in successors:
            marking, env, events = successors[index]
            state = SimState(ws, state.method_name, marking, env,
                             state.trace + events, state.depth,
                             state.registry, config)
            continue
        draws = memo.draws
        after = fire((firings or enabled(state))[index])
        if memo.draws == draws:
            successors[index] = (after.marking, after.env,
                                 after.trace[len(state.trace):])
            memo.steps[key], memo.services[id(ws)] = entry, ws
        state = after
    return state, GOAL if _at_goal(state, goals) else STEP_LIMIT


def format_trace(state: SimState):
    """Line-oriented rendering of the firing events recorded in
    `state.trace`; a `SubnetDeadlock` carries such a trace too."""
    lines = []
    for ev in state.trace:
        binding = ", ".join(f"{k}={v!r}" for k, v in ev.binding)
        consumed = " ".join(f"-{p}{dict(f)!r}" for p, f in ev.consumed)
        produced = " ".join(f"+{p}{dict(f)!r}" for p, f in ev.produced)
        lines.append(f"{ev.depth} {ev.transition} [{binding}] "
                     f"{consumed} {produced}".rstrip())
    return lines
