"""Verification pipeline: ISP inlining, flattening to a predicate/transition
net with place splitting, and explicit-state reachability analysis.

Each source place p splits into p·f and p·l with an internal copy transition
T_p; source transitions consume from the l side and produce to the f side.
Transition actions are compiled into the output tuple expressions, so the
flat net needs no separate attribute environment.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from operator import itemgetter

from . import algebra, guards, sim
from .errors import (DepthLimitExceeded, UnboundFreeVariable,
                     UnflattenableIsp, UnknownMethod)
from .model import (TAU, GNetModel, InternalStructure, PlaceKind, Registry,
                    WebService, apart, exact, freeze_marking, natural_key,
                    same)

# --- ISP inlining ----------------------------------------------------------


@dataclass(frozen=True)
class InlineResult:
    service: WebService
    regions: dict  # original ISP place id -> frozenset of inlined place ids


def restrict_to_method(ws: WebService, method_name: str):
    """The sub-structure realizing one method: nodes forward-reachable from
    its initial place and backward-reachable from its goal places."""
    method = ws.net.gsp.method(method_name)
    if method is None:
        raise UnknownMethod(ws.name, method_name)
    struct = ws.net.internal

    def closure(seeds, neighbours):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            for m in neighbours(stack.pop()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    fwd = closure({method.init_place}, struct.post)
    bwd = closure(set(method.goal_places), struct.pre)
    keep = fwd & bwd
    keep_places = {p.id for p in struct.places if p.id in keep}
    # drop transitions whose presets leak outside the kept region
    keep_trans = {t for t in struct.transitions if t in keep
                  and all(p in keep_places for p in struct.pre(t))}
    nodes = keep_places | keep_trans
    sub = InternalStructure(
        places=tuple(p for p in struct.places if p.id in keep_places),
        transitions=tuple(t for t in struct.transitions if t in keep_trans),
        arcs=tuple((a, b) for a, b in struct.arcs
                   if a in nodes and b in nodes),
        inscriptions=tuple(((a, b), ins) for (a, b), ins in struct.inscriptions
                           if a in nodes and b in nodes),
        conditions=tuple((t, c) for t, c in struct.conditions
                         if t in keep_trans),
        actions=tuple((t, a) for t, a in struct.actions if t in keep_trans),
        labels=tuple((p, lab) for p, lab in struct.labels
                     if p in keep_places),
    )
    return method, sub


def _rename_variables(struct: InternalStructure, mapping: dict):
    if not mapping:
        return struct
    subst = {old: guards.Var(new) for old, new in mapping.items()}
    return replace(
        struct,
        inscriptions=tuple((key, tuple(guards.subst_expr(e, subst)
                                       for e in ins))
                           for key, ins in struct.inscriptions),
        conditions=tuple((t, guards.subst_condition(c, subst))
                         for t, c in struct.conditions),
        actions=tuple((t, tuple(guards.Assign(mapping.get(a.target, a.target),
                                              guards.subst_expr(a.expr, subst))
                                for a in acts))
                      for t, acts in struct.actions),
    )


def _invoked_subnet(svc: WebService, method_name: str, rn, attrs):
    """The renamed subnet of the method an ISP invokes, its entry and exits,
    and the host attributes `attrs` extended by the service's own."""
    method, sub = restrict_to_method(svc, method_name)

    # avoid attribute-name capture between host and spliced subnet
    host_attrs = {a.name for a in attrs}
    var_map = {a.name: rn(a.name) for a in svc.net.gsp.attributes
               if a.name in host_attrs}
    sub = _rename_variables(sub, var_map).renamed(rn)
    new_attrs = tuple(replace(a, name=var_map.get(a.name, a.name))
                      for a in svc.net.gsp.attributes)
    attrs += tuple(a for a in new_attrs if a.name not in host_attrs)

    # the invoked method's goals become plain places of the host
    goals = {rn(g) for g in method.goal_places}
    sub = replace(
        sub,
        places=tuple(replace(p, kind=PlaceKind.NORMAL)
                     if p.id in goals else p for p in sub.places),
        labels=tuple(sorted(
            {**sub.label_map, **dict.fromkeys(goals, TAU)}.items())))
    return (sub, rn(method.init_place), sorted(goals, key=natural_key),
            attrs)


def inline_isps(ws: WebService, reg: Registry, depth_limit: int = 16
                ) -> InlineResult:
    """Repeatedly replace ISP places by renamed copies of the invoked
    method's subnet until none remain, one round of ISPs at a time."""
    service = ws
    regions: dict[str, set] = {}
    counter = 0
    rounds = 0
    while True:
        struct = service.net.internal
        isps = sorted((p for p in struct.places if p.kind is PlaceKind.ISP),
                      key=lambda p: natural_key(p.id))
        if not isps:
            break
        rounds += 1
        if rounds > depth_limit:
            raise DepthLimitExceeded(
                f"ISP inlining did not terminate within {depth_limit} rounds")
        attrs = service.net.gsp.attributes
        groups = []
        inits = {}  # ISP place id -> init place of its spliced subnet
        for isp in isps:
            counter += 1
            rn = apart(f"i{counter}")
            sub, entry, exits, attrs = _invoked_subnet(
                reg.lookup(isp.invoked_gnet), isp.using_method, rn, attrs)
            inits[isp.id] = entry
            groups.append(({isp.id}, sub, (entry,), exits))

            spliced = {p.id for p in sub.places}
            for members in regions.values():
                if isp.id in members:
                    members.discard(isp.id)
                    members.update(spliced)
            regions[isp.id] = set(spliced)

        methods = tuple(replace(m, init_place=inits.get(m.init_place,
                                                        m.init_place))
                        for m in service.net.gsp.methods)
        gsp = replace(service.net.gsp, methods=methods, attributes=attrs)
        service = replace(service,
                          net=GNetModel(gsp, struct.substituted(groups)))
    return InlineResult(service,
                        {k: frozenset(v) for k, v in regions.items()})


# --- Flattening ------------------------------------------------------------


@dataclass(frozen=True)
class FlatPlace:
    name: str
    signature: tuple  # tuple[str, ...]


@dataclass(frozen=True)
class FlatTransition:
    name: str
    inputs: tuple  # tuple[(place, pattern vars), ...]
    outputs: tuple  # tuple[(place, exprs), ...]
    gate: object = guards.TRUE
    origin: str = None  # source transition id, None for copy transitions


@dataclass(frozen=True)
class Unresolved:
    """Initial-marking field whose value must be drawn from a domain."""
    name: str


@dataclass(frozen=True)
class FlatNet:
    """An immutable flat net: `dataclasses.replace` makes a changed copy,
    and `plan` is a view built on first use and cached per instance."""
    places: dict  # name -> FlatPlace
    transitions: tuple  # tuple[FlatTransition, ...]
    initial: dict  # place name -> list of token tuples (may hold Unresolved)
    domains: dict  # var -> tuple of values

    def __post_init__(self):
        # a list would let an in-place edit go unseen by the cached plan
        object.__setattr__(self, "transitions", tuple(self.transitions))

    @cached_property
    def plan(self) -> _SuccessorPlan:
        return _successor_plan(self.transitions)

    def initial_markings(self):
        """All concrete initial markings, enumerating unresolved fields over
        their declared domains."""
        unresolved = {}  # name -> domain, in order of first appearance
        for tokens in self.initial.values():
            for tok in tokens:
                for v in tok:
                    if isinstance(v, Unresolved) and v.name not in unresolved:
                        if v.name not in self.domains:
                            raise UnboundFreeVariable(v.name)
                        unresolved[v.name] = self.domains[v.name]
        out = []
        for values in product(*unresolved.values()):
            env = dict(zip(unresolved, values))
            out.append({pname: [tuple(env[v.name] if isinstance(v, Unresolved)
                                      else v for v in tok) for tok in tokens]
                        for pname, tokens in self.initial.items()})
        return out


def flat_name(pid: str, side: str) -> str:
    return f"{pid}{side}"


def flatten(ws: WebService, method_name: str = None, args: dict = None
            ) -> FlatNet:
    """Compile an ISP-free service to a predicate/transition net with
    f/l place splitting."""
    struct = ws.net.internal
    for p in struct.places:
        if p.kind is PlaceKind.ISP:
            raise UnflattenableIsp(f"place {p.id} is still an ISP; inline first")
    method = (ws.net.gsp.method(method_name) if method_name
              else algebra.main_method(ws))
    if method is None:
        raise UnknownMethod(ws.name, method_name)
    args = dict(args or {})

    attrs = ws.net.gsp.attributes
    default_sig = tuple(n for n, _ in method.params) + \
        tuple(a.name for a in attrs)

    ins_map = struct.inscription_map
    touching = {}  # node -> inscriptions of its arcs, in natural arc order
    for key in sorted(ins_map, key=lambda k: (natural_key(k[0]),
                                              natural_key(k[1]))):
        for node in key:
            touching.setdefault(node, []).append(ins_map[key])
    signatures = {}
    for p in struct.places:
        names = []
        for ins in touching.get(p.id, ()):
            if all(isinstance(e, guards.Var) for e in ins):
                for e in ins:
                    if e.name not in names:
                        names.append(e.name)
        signatures[p.id] = tuple(names) if names else default_sig

    places = {}
    transitions = []
    for p in struct.places:
        sig = signatures[p.id]
        pf, pl = flat_name(p.id, "f"), flat_name(p.id, "l")
        places[pf] = FlatPlace(pf, sig)
        places[pl] = FlatPlace(pl, sig)
        transitions.append(FlatTransition(
            name=f"T_{p.id}",
            inputs=((pf, sig),),
            outputs=((pl, tuple(guards.Var(v) for v in sig)),),
            gate=guards.TRUE,
            origin=None))

    cond_map = struct.condition_map
    act_map = struct.action_map
    for t in struct.transitions:
        compiled = guards.compile_actions(act_map.get(t, ()))
        inputs = tuple((flat_name(p, "l"), signatures[p])
                       for p in struct.pre(t))
        outputs = []
        for q in struct.post(t):
            sig = signatures[q]
            ins = ins_map.get((t, q))
            if ins and len(ins) == len(sig):
                base = ins
            else:
                base = tuple(guards.Var(v) for v in sig)
            outputs.append((flat_name(q, "f"),
                            tuple(guards.subst_expr(e, compiled)
                                  for e in base)))
        transitions.append(FlatTransition(
            name=t, inputs=inputs, outputs=tuple(outputs),
            gate=cond_map.get(t, guards.TRUE), origin=t))

    domains = {a.name: ws.net.gsp.domain(a.name) for a in attrs
               if ws.net.gsp.domain(a.name) is not None}
    # each initial field: its argument, else its attribute's initial value
    known = {a.name: a.initial for a in attrs if a.initial is not None}
    known.update(args)
    token = tuple(known[v] if v in known else Unresolved(v)
                  for v in signatures[method.init_place])
    initial = {flat_name(method.init_place, "f"): [token]}
    return FlatNet(places=places, transitions=transitions, initial=initial,
                   domains=domains)


def flat_goal_places(method) -> set:
    return {flat_name(g, side) for g in method.goal_places for side in "fl"}


# --- Reachability ----------------------------------------------------------


def canonical_marking(marking: frozenset) -> tuple:
    """The print form of a frozen marking: its places in natural order,
    a tie such as p01 and p1 broken by the name, not by the hash seed."""
    return tuple(sorted(marking,
                        key=lambda pair: (natural_key(pair[0]), pair[0])))


@dataclass
class StateGraph:
    """A state graph in breadth-first discovery order.  A state is a frozen
    marking (`reachability`) or a (frozen marking, env) pair
    (`explore_service`); `marking_of` gives a state's frozen marking."""
    edges: list = field(default_factory=list)  # (src, label, binding, dst)
    out: dict = field(default_factory=dict)  # state -> [edge index]
    initial: object = None
    truncated: bool = False
    marking_of: Callable = lambda state: state

    @property
    def nodes(self):
        """Each state's place -> tokens dict, made anew on every read."""
        return {state: dict(self.marking_of(state)) for state in self.out}


def _bind(inputs, toks):
    """The binding of each input's pattern to its token, or None."""
    binding = {}
    for (_, pattern), tok in zip(inputs, toks):
        if len(pattern) != len(tok):
            return None
        for var, value in zip(pattern, tok):
            if not same(binding.setdefault(var, value), value):
                return None
    return binding


@dataclass(frozen=True)
class _SuccessorPlan:
    """What `flat_successors` needs of a flat net, computed once per net.
    A transition whose first input place is unmarked cannot fire, so a
    marking tries only the transitions indexed under its places, and those
    with no input.  Each transition is compiled into a firing kernel, a
    tuple of
        transition, rank   the transition and its natural-order rank;
        places             the names of its input places;
        zipped             True when it has one input with distinct pattern
                           variables and no free variable: it binds by
                           zipping the pattern with each token;
        free               its free variables, sorted, for the other path.
    Whether a transition fires, and what its firing does, depends only on
    the tokens of its input places (and on the net's domains), so the memo
    `firings` keeps each kernel run: it maps (transition index, the tuple
    of its input places' token tuples) to the transition's `_local_firings`
    at those tokens.  The token tuples are exact (`model.exact`), so the key
    tells the int 1 from the bool True; a no-input transition's key is its
    index and ().  `flat_successors` fills the memo, which lives as long as
    the plan, that is, as its `FlatNet`."""
    kernels: tuple  # per transition, its firing kernel
    by_first_input: dict  # place -> indexes of the transitions it heads
    no_input: tuple  # indexes of the transitions with no input
    firings: dict = field(default_factory=dict)  # the memo


def _successor_plan(transitions) -> _SuccessorPlan:
    """The plan of a flat net's `transitions`.  A rank orders transitions
    by `natural_key` of their name; names with equal keys share it."""
    keys = [natural_key(t.name) for t in transitions]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    kernels, by_first_input, no_input = [], {}, []
    for index, (t, key) in enumerate(zip(transitions, keys)):
        needed = guards.condition_vars(t.gate)
        for _, exprs in t.outputs:
            for e in exprs:
                needed |= guards.expr_vars(e)
        bound = {v for _, pattern in t.inputs for v in pattern}
        free = sorted(needed - bound)
        zipped = (len(t.inputs) == 1 and not free
                  and len(bound) == len(t.inputs[0][1]))
        kernels.append((t, rank[key], tuple(p for p, _ in t.inputs), zipped,
                        free))
        if t.inputs:
            by_first_input.setdefault(t.inputs[0][0], []).append(index)
        else:
            no_input.append(index)
    return _SuccessorPlan(tuple(kernels), by_first_input, tuple(no_input))


def _bindings(kernel, local, domains):
    """Each (token index per input place, binding) of `kernel`'s
    transition when its input places hold the token tuples `local`: a
    zipped kernel binds each token by zip; any other binds every
    combination of input tokens and free-variable values.  A token equal
    to the one before it (tokens are sorted by repr) is skipped."""
    t, _, _, zipped, free = kernel
    pools = [[i for i in range(len(toks))
              if not i or repr(toks[i]) != repr(toks[i - 1])]
             for toks in local]
    if zipped:
        (_, pattern), = t.inputs
        toks, = local
        for i in pools[0]:
            if len(toks[i]) == len(pattern):
                yield (i,), dict(zip(pattern, toks[i]))
        return
    for combo in product(*pools):
        binding = _bind(t.inputs, [toks[i] for toks, i in zip(local, combo)])
        if binding is None:
            continue
        for name in free:
            if name not in domains:
                raise UnboundFreeVariable(name)
        for values in product(*(domains[name] for name in free)):
            yield combo, {**binding, **dict(zip(free, values))}


def _local_firings(kernel, local, domains) -> tuple:
    """The firings of `kernel`'s transition when its input places hold the
    token tuples `local`, in the order of `_bindings`.  A firing is a tuple of
        sort key          (rank, repr of the binding);
        name, pairs       the transition's name and its binding's sorted
                          (variable, value) pairs;
        removed, added    the (place, tokens) pairs of its input places
                          before and after it, an emptied place left out;
        others            (place, tokens) per other place it puts tokens
                          on, sorted by repr, to be merged with the
                          tokens the place already holds;
    each token tuple made exact."""
    t, rank, places, _, _ = kernel
    removed = tuple(zip(places, local))
    firings = []
    for combo, env in _bindings(kernel, local, domains):
        if not guards.eval_condition(t.gate, env):
            continue
        after = {p: toks[:i] + toks[i + 1:]
                 for p, toks, i in zip(places, local, combo)}
        others = {}
        for pname, exprs in t.outputs:
            side = after if pname in after else others
            toks = side.get(pname)
            tok = tuple(guards.eval_expr(e, env) for e in exprs)
            side[pname] = (tuple(sorted(toks + (tok,), key=repr)) if toks
                           else (tok,))
        pairs = tuple(sorted(env.items()))
        firings.append(((rank, repr(pairs)), t.name, pairs, removed,
                        tuple((p, exact(toks)) for p, toks in after.items()
                              if toks),
                        tuple((p, exact(toks)) for p, toks in others.items())))
    return tuple(firings)


def flat_successors(flat: FlatNet, marking: frozenset):
    """All (transition name, binding, successor) triples of `marking`, which
    `freeze_marking` or this function made, ordered by the transition's
    natural-order rank, then by the binding's repr; ties keep the
    transition list's order.  A successor is frozen too: it is built from
    the parent's token tuples, replacing those of the places the firing
    touches.  A candidate transition's firings at the tokens of its input
    places are taken from the plan's memo, or computed by `_local_firings`
    and stored there; a computation that raises stores nothing.  Only a
    firing that puts tokens on an already marked place other than its
    inputs sorts them into that place's."""
    plan = flat.plan
    memo = plan.firings
    tokens = dict(marking)
    candidates = set(plan.no_input)
    for pname in tokens:
        candidates.update(plan.by_first_input.get(pname, ()))
    results = []
    for index in sorted(candidates):
        kernel = plan.kernels[index]
        local = tuple(map(tokens.get, kernel[2]))
        if None in local:  # an unmarked input place
            continue
        key = (index, local)
        firings = memo.get(key)
        if firings is None:
            firings = memo[key] = _local_firings(kernel, local, flat.domains)
        for sort_key, name, pairs, removed, added, others in firings:
            marked = [(p, tokens[p]) for p, _ in others if p in tokens]
            if marked:
                others = [(p, exact(tuple(sorted(tokens[p] + toks,
                                                 key=repr))))
                          if p in tokens else (p, toks) for p, toks in others]
            results.append((sort_key, (name, pairs, marking.difference(
                removed, marked).union(added, others))))
    results.sort(key=itemgetter(0))
    return [triple for _, triple in results]


def reachability(flat: FlatNet, max_states: int = 100000,
                 initial: dict = None) -> StateGraph:
    """Breadth-first exhaustive exploration of frozen markings."""
    if max_states <= 0:
        raise ValueError("max_states must be positive")
    if initial is None:
        markings = flat.initial_markings()
        if len(markings) != 1:
            raise UnboundFreeVariable(
                "initial marking is not unique; pass one explicitly")
        initial = markings[0]
    graph = StateGraph(initial=freeze_marking(initial))
    out, edges = graph.out, graph.edges
    out[graph.initial] = []
    queue = deque([graph.initial])
    while queue:
        state = queue.popleft()
        state_out = out[state]
        for tname, binding, succ in flat_successors(flat, state):
            if succ not in out:
                if len(out) >= max_states:
                    graph.truncated = True
                    continue
                out[succ] = []
                queue.append(succ)
            state_out.append(len(edges))
            edges.append((state, tname, binding, succ))
    return graph


def explore_service(ws: WebService, method_name: str = None, args=(),
                    max_states: int = 100000) -> StateGraph:
    """Exhaustive state graph of an ISP-free service at the token-game level
    (states pair the marking with the attribute environment)."""
    for p in ws.net.internal.places:
        if p.kind is PlaceKind.ISP:
            raise UnflattenableIsp(
                f"place {p.id} is an ISP; inline before exploring")
    method_name = method_name or algebra.main_method(ws).name
    state0 = sim.init_state(ws, method_name, args)

    graph = StateGraph(initial=(state0.marking, state0.env),
                       marking_of=itemgetter(0))
    out, edges = graph.out, graph.edges
    out[graph.initial] = []
    queue = deque([(graph.initial, state0)])
    while queue:
        key, state = queue.popleft()
        for tid, binding in sim.enabled(state):
            succ = sim.fire(state, tid, binding)
            skey = (succ.marking, succ.env)
            if skey not in out:
                if len(out) >= max_states:
                    graph.truncated = True
                    continue
                out[skey] = []
                queue.append((skey, succ))
            out[key].append(len(edges))
            edges.append((key, tid, tuple(sorted(binding.items())), skey))
    return graph


# --- Property analysis -----------------------------------------------------


@dataclass
class AnalysisReport:
    state_count: int
    deadlocks: list  # frozen markings of the deadlocked states
    bound_k: int
    goal_reachable: bool
    witness: list  # edge labels along a shortest path to a goal state
    truncated: bool

    def to_text(self):
        lines = [
            f"stateCount: {self.state_count}",
            f"deadlocks: {len(self.deadlocks)}",
            f"boundK: {self.bound_k}",
            f"goalReachable: {self.goal_reachable}",
            f"truncated: {self.truncated}",
        ]
        if self.goal_reachable:
            lines.append("witness: " + " ".join(self.witness))
        for d in self.deadlocks:
            lines.append(f"deadlock: {canonical_marking(d)!r}")
        return "\n".join(lines)


def analyze(graph: StateGraph, goal_places: set) -> AnalysisReport:
    """Deadlocks, token bound and a shortest witness.  The states are in
    breadth-first discovery order, so the first goal state is a nearest
    one, and the first edge into each state leads back to the initial
    state."""
    deadlocks = []
    bound_k = 0
    goal = None
    for state, out in graph.out.items():
        marking = graph.marking_of(state)
        bound_k = max([bound_k, *(len(toks) for _, toks in marking)])
        at_goal = any(p in goal_places for p, _ in marking)
        if at_goal and goal is None:
            goal = state
        if not out and not at_goal:
            deadlocks.append(marking)

    witness = []
    if goal is not None:
        first_in = {}  # state -> (source, label) of its first incoming edge
        for src, label, _, dst in graph.edges:
            first_in.setdefault(dst, (src, label))
            if dst == goal:
                break
        while goal != graph.initial:
            goal, label = first_in[goal]
            witness.append(label)
        witness.reverse()
    return AnalysisReport(
        state_count=len(graph.out),
        deadlocks=deadlocks,
        bound_k=bound_k,
        goal_reachable=goal is not None,
        witness=witness,
        truncated=graph.truncated,
    )


# --- Run languages (used by equivalence checks) ----------------------------


def label_language(graph: StateGraph, labels: Callable, max_len: int = 40
                   ) -> set:
    """The words of the maximal runs of a complete state graph from
    `reachability` or `explore_service`.  An edge appends the letters
    `labels(edge label)`, so an empty tuple erases it; a word ends at a
    state with no out-edge, or once it has `max_len` letters."""
    if graph.truncated:
        raise ValueError("the run language of a truncated graph is unknown")
    words, seen = set(), set()
    stack = [(graph.initial, ())]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        state, word = pair
        out = graph.out[state]
        if not out or len(word) >= max_len:
            words.add(word)
            continue
        for index in out:
            _, label, _, dst = graph.edges[index]
            stack.append((dst, word + tuple(labels(label))))
    return words
