"""Verification pipeline: ISP inlining, flattening to a predicate/transition
net with place splitting, and explicit-state reachability analysis.

Each source place p splits into p·f and p·l with an internal copy transition
T_p; source transitions consume from the l side and produce to the f side.
Transition actions are compiled into the output tuple expressions, so the
flat net needs no separate attribute environment.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, product
from operator import itemgetter

from . import algebra, guards, sim
from .errors import DepthLimitExceeded, UnboundFreeVariable, UnflattenableIsp
from .model import (GNetModel, InternalStructure, PlaceKind, Registry,
                    WebService, apart, closure, exact, freeze_marking,
                    natural_key, same)

# --- ISP inlining ----------------------------------------------------------


@dataclass(frozen=True)
class InlineResult:
    service: WebService
    regions: dict  # original ISP place id -> frozenset of inlined place ids


def restrict_to_method(ws: WebService, method_name: str):
    """The method and its sub-structure: the nodes forward-reachable from
    its initial place and backward-reachable from its goals, less the
    transitions whose presets leave them (the structure itself if that is
    all of it), cached on the structure but never referring to it."""
    method = algebra.method(ws, method_name)
    struct = ws.net.internal
    cache = struct.__dict__.setdefault("_restrictions", {})
    key = method.init_place, frozenset(method.goal_places)
    if key not in cache:
        post, pre = defaultdict(list), defaultdict(list)
        for a, b in struct.arcs:
            post[a].append(b)
            pre[b].append(a)
        keep = (closure({key[0]}, post.__getitem__)
                & closure(key[1], pre.__getitem__))
        places = {p.id for p in struct.places if p.id in keep}
        trans = {t for t in struct.transitions
                 if t in keep and places.issuperset(pre[t])}
        nodes, first = places | trans, itemgetter(0)
        if (len(nodes) == len(struct.places) + len(struct.transitions)
                and nodes.issuperset(chain(*struct.arcs, *map(
                    first, struct.inscriptions)))
                and trans.issuperset(map(first, struct.conditions))
                and trans.issuperset(map(first, struct.actions))
                and places.issuperset(map(first, struct.labels))):
            cache[key] = None  # the whole structure
        else:
            cache[key] = InternalStructure(
                tuple(p for p in struct.places if p.id in places),
                tuple(t for t in struct.transitions if t in trans),
                tuple(a for a in struct.arcs if nodes.issuperset(a)),
                tuple(i for i in struct.inscriptions
                      if nodes.issuperset(i[0])),
                tuple(c for c in struct.conditions if c[0] in trans),
                tuple(a for a in struct.actions if a[0] in trans),
                tuple(lab for lab in struct.labels if lab[0] in places))
    return method, cache[key] or struct


def _rename_variables(struct: InternalStructure, mapping: dict):
    if not mapping:
        return struct
    subst = {old: guards.Var(new) for old, new in mapping.items()}
    return replace(
        struct,
        inscriptions=tuple((key, tuple(guards.subst_expr(e, subst)
                                       for e in ins))
                           for key, ins in struct.inscriptions),
        conditions=tuple((t, guards.subst_expr(c, subst))
                         for t, c in struct.conditions),
        actions=tuple((t, tuple(guards.Assign(mapping.get(a.target, a.target),
                                              guards.subst_expr(a.expr, subst))
                                for a in acts))
                      for t, acts in struct.actions),
    )


def inline_isps(ws: WebService, reg: Registry, depth_limit: int = 16
                ) -> InlineResult:
    """Replace each ISP place by a copy of the invoked method's subnet and
    the copies' ISPs in turn, a round at a time in natural id order, the
    copies renamed apart as i1, i2, ... and their goals made plain places.
    The rounds only name the copies; one substitution builds the result."""
    if depth_limit < 0:
        raise ValueError(f"depth_limit must not be negative, got "
                         f"{depth_limit}")
    attrs = list(ws.net.gsp.attributes)
    groups = []
    inits = {}  # ISP place id -> init place of its copy
    isps = [(p.id, p) for p in ws.net.internal.places
            if p.kind is PlaceKind.ISP]
    rounds = 0
    while isps:
        rounds += 1
        if rounds > depth_limit:
            raise DepthLimitExceeded(
                f"ISP inlining did not terminate within {depth_limit} rounds")
        spliced = []  # the ISPs of this round's copies, under their new ids
        for pid, isp in sorted(isps, key=lambda i: natural_key(i[0])):
            suffix = f"i{len(groups) + 1}"
            rn = apart(suffix)
            svc = reg.lookup(isp.invoked_gnet)
            method, sub = restrict_to_method(svc, isp.using_method)
            if svc.net.gsp.attributes:
                # avoid attribute-name capture between host and subnet
                names = {a.name for a in attrs}
                var_map = {a.name: rn(a.name) for a in svc.net.gsp.attributes
                           if a.name in names}
                new_attrs = [replace(a, name=var_map.get(a.name, a.name))
                             for a in svc.net.gsp.attributes]
                attrs += [a for a in new_attrs if a.name not in names]
                sub = _rename_variables(sub, var_map)
            goals = frozenset(map(rn, method.goal_places))
            inits[pid] = rn(method.init_place)
            groups.append(((pid,), sub, (inits[pid],),
                           sorted(goals, key=natural_key), suffix, goals))
            spliced += [(rn(p.id), p) for p in sub.places
                        if p.kind is PlaceKind.ISP]
        isps = spliced
    if not groups:
        return InlineResult(ws, {})

    # an ISP's region: its copy's places, each ISP among them by its region
    regions = dict.fromkeys(removed for (removed,), *_ in groups)
    for (pid,), sub, _, _, suffix, _ in reversed(groups):
        members = set()
        for q in map(apart(suffix), (p.id for p in sub.places)):
            members.update(regions[q] if q in regions else (q,))
        regions[pid] = frozenset(members)
    for pid in reversed(inits):  # an init may be a later copy's ISP
        inits[pid] = inits.get(inits[pid], inits[pid])
    gsp = replace(ws.net.gsp, attributes=tuple(attrs), methods=tuple(
        replace(m, init_place=inits.get(m.init_place, m.init_place))
        for m in ws.net.gsp.methods))
    return InlineResult(
        replace(ws, net=GNetModel(gsp, ws.net.internal.substituted(groups))),
        regions)


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
    method = algebra.method(ws, method_name)
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
    """What `flat_successors` needs of a flat net, computed once per net:
    each transition compiled into a firing kernel, a tuple of
        transition, rank   the transition and its natural-order rank;
        index, places      its index in the list and its input places;
        zipped             True when it has one input with distinct pattern
                           variables and no free variable: it binds by
                           zipping the pattern with each token;
        free               its free variables, sorted, for the other path;
        gate               its gate, or None for the literal `true`.
    A transition's firings depend only on its input places' tokens: the
    memo `firings` maps a marked (place, tokens) pair, as it is, to those
    of all of `fed[place]`, and a joint transition's (index, input token
    tuples) to its own; the tuples are exact (`model.exact`), so the int 1
    and the bool True key apart.  A joint transition, one with several
    inputs, is indexed by its first (head) input place and tried only in
    a state that marks that place; one with no input, in every state.
    Each firing holds its delta (see `_local_firings`), and its successor
    is the marking's symmetric difference with it, one set operation,
    unless the firing puts tokens on a place already marked: that place's
    old and new tokens are then merged.  It lives as long as its
    `FlatNet`."""
    fed: dict  # place -> kernels of the one-input transitions it feeds
    joint: dict  # head place -> kernels of the joint transitions it heads
    sources: tuple  # kernels of the transitions with no input
    firings: dict = field(default_factory=dict)  # the memo


def _successor_plan(transitions) -> _SuccessorPlan:
    """The plan of a flat net's `transitions`.  A rank orders transitions
    by `natural_key` of their name; names with equal keys share it."""
    keys = [natural_key(t.name) for t in transitions]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    fed, joint, sources = {}, {}, []
    for index, (t, key) in enumerate(zip(transitions, keys)):
        needed = guards.expr_vars(t.gate)
        for _, exprs in t.outputs:
            for e in exprs:
                needed |= guards.expr_vars(e)
        bound = {v for _, pattern in t.inputs for v in pattern}
        free = sorted(needed - bound)
        zipped = (len(t.inputs) == 1 and not free
                  and len(bound) == len(t.inputs[0][1]))
        # Lit(1) == TRUE, yet a gate of 1 raises TypeMismatch
        gate = (None if type(t.gate) is guards.Lit and t.gate.value is True
                else t.gate)
        places = tuple(p for p, _ in t.inputs)
        group = (sources if not places else
                 fed.setdefault(places[0], []) if len(places) == 1
                 else joint.setdefault(places[0], []))
        group.append((t, rank[key], index, places, zipped, free, gate))
    return _SuccessorPlan(fed, joint, tuple(sources))


def _bindings(kernel, local, domains):
    """Each (token index per input place, binding) of `kernel`'s
    transition when its input places hold the token tuples `local`: a
    zipped kernel binds each token by zip; any other binds every
    combination of input tokens and free-variable values.  A token equal
    to the one before it (tokens are sorted by repr) is skipped."""
    t, _, _, _, zipped, free, _ = kernel
    if zipped:
        (_, pattern), = t.inputs
        toks, = local
        for i, tok in enumerate(toks):
            if len(tok) == len(pattern) and (
                    not i or repr(tok) != repr(toks[i - 1])):
                yield (i,), dict(zip(pattern, tok))
        return
    pools = [[i for i in range(len(toks))
              if not i or repr(toks[i]) != repr(toks[i - 1])]
             for toks in local]
    for combo in product(*pools):
        binding = _bind(t.inputs, [toks[i] for toks, i in zip(local, combo)])
        if binding is None:
            continue
        for name in free:
            if name not in domains:
                raise UnboundFreeVariable(name)
        if not free:
            yield combo, binding
            continue
        for values in product(*(domains[name] for name in free)):
            yield combo, {**binding, **dict(zip(free, values))}


def _local_firings(kernel, local, domains) -> tuple:
    """The firings of `kernel`'s transition when its input places hold the
    token tuples `local`, in the order of `_bindings`.  A firing is a tuple of
        rank, binding repr, index, position
                          its sort key, no two firings of a state alike;
        name, pairs       the transition's name and its binding's sorted
                          (variable, value) pairs;
        delta             the frozenset R ^ (A | O) of the (place, tokens)
                          pairs it takes from its input places (R), leaves
                          on them (A, an emptied place left out) and puts
                          on other places (O); a token put back as it was
                          taken is in R and A, and so in no delta;
        others            O as a tuple, tokens sorted by repr, to merge
                          with the tokens of a place already marked;
    each token tuple made exact.  The gate is not evaluated when it is the
    literal `true`."""
    t, rank, index, places, _, _, gate = kernel
    removed = frozenset(zip(places, local))
    eval_expr, firings = guards.eval_expr, []
    for combo, env in _bindings(kernel, local, domains):
        if gate is not None and not guards.eval_condition(gate, env):
            continue
        after = {p: toks[:i] + toks[i + 1:]
                 for p, toks, i in zip(places, local, combo)}
        others = {}
        for pname, exprs in t.outputs:
            side = after if pname in after else others
            toks = side.get(pname)
            tok = tuple([eval_expr(e, env) for e in exprs])
            side[pname] = (tuple(sorted(toks + (tok,), key=repr)) if toks
                           else (tok,))
        pairs = tuple(sorted(env.items()))
        others = [(p, exact(toks)) for p, toks in others.items()]
        made = [(p, exact(toks)) for p, toks in after.items() if toks]
        firings.append((rank, repr(pairs), index, len(firings), t.name,
                        pairs, removed.symmetric_difference(made + others),
                        tuple(others)))
    return tuple(firings)


def flat_successors(flat: FlatNet, marking: frozenset):
    """All (transition name, binding, successor) triples of `marking`, which
    `freeze_marking` or this function made, ordered by transition rank,
    binding repr, then transition index.  The firings of each marked pair,
    and of each joint transition whose inputs are marked, come from the
    plan's memo; misses run in index order, so the lowest-index kernel
    that raises raises, and are stored only if none raised.  A successor
    is `marking` toggled by the firing's delta, or, where the firing puts
    tokens on a place `marking` already marks, that place's old and new
    tokens sorted together."""
    plan = flat.plan
    memo, fed, joint = plan.firings, plan.fed, plan.joint
    found, runs, missed = [], [], {}  # runs: (index, kernel, key, local)
    for pair in marking:
        firings = memo.get(pair)
        if firings is None:
            missed[pair] = ()
            runs += [(k[2], k, pair, (pair[1],)) for k in fed.get(pair[0], ())]
        else:
            found += firings
    tokens = dict(marking)
    tried = plan.sources  # and the joint kernels of the marked places
    if joint:
        tried = list(tried)
        for place in tokens:
            if place in joint:
                tried += joint[place]
    for kernel in tried:
        local = tuple(map(tokens.get, kernel[3]))
        if None in local:  # an input place unmarked
            continue
        key = (kernel[2], local)
        firings = memo.get(key)
        if firings is None:
            runs.append((kernel[2], kernel, key, local))
        else:
            found += firings
    if missed or runs:  # a state made of memo hits skips this
        runs.sort(key=itemgetter(0))
        for _, kernel, key, local in runs:
            firings = _local_firings(kernel, local, flat.domains)
            missed[key] = missed.get(key, ()) + firings
            found += firings
        memo.update(missed)
    found.sort()  # by sort key, which no two firings share
    results = []
    for _, _, _, _, name, pairs, delta, others in found:
        succ = delta ^ marking
        for q, _ in others:
            if q in tokens:  # sort the new tokens into the place's
                marked = [(q, toks) for q, toks in others if q in tokens]
                succ = succ.difference(
                    marked, [(q, tokens[q]) for q, _ in marked]).union(
                    (q, exact(tuple(sorted(tokens[q] + toks, key=repr))))
                    for q, toks in marked)
                break
        results.append((name, pairs, succ))
    return results


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
    state0 = sim.init_state(ws, method_name, args)

    graph = StateGraph(initial=(state0.marking, state0.env),
                       marking_of=itemgetter(0))
    out, edges = graph.out, graph.edges
    out[graph.initial] = []
    queue = deque([(graph.initial, state0)])
    while queue:
        key, state = queue.popleft()
        for firing in sim.enabled(state):
            succ = sim.fire(firing)
            skey = (succ.marking, succ.env)
            if skey not in out:
                if len(out) >= max_states:
                    graph.truncated = True
                    continue
                out[skey] = []
                queue.append((skey, succ))
            out[key].append(len(edges))
            edges.append((key, firing.transition,
                          tuple(sorted(firing.binding.items())), skey))
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
    """Deadlocks, token bound and a shortest witness, from one pass over
    the states' (place, tokens) pairs.  The states are in breadth-first
    discovery order, so the first goal state is a nearest one, and the
    first edge into each state leads back to the initial state."""
    deadlocks, bound_k, goal = [], 0, None
    for state, out in graph.out.items():
        marking = graph.marking_of(state)
        at_goal = False
        for place, toks in marking:
            if len(toks) > bound_k:
                bound_k = len(toks)
            if place in goal_places:
                at_goal = True
        if at_goal:
            goal = state if goal is None else goal
        elif not out:
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
