"""Seeded inputs and operations of the three benchmark workloads.

A workload is one list of operations, a *pass*, generated from the seed; a
run repeats the pass.  Operations call the library's public functions in
the order the `gnets` command does:

    verify    compose (dsl) -> validate -> JSON round trip (io)
              -> inline_isps -> flatten -> reachability -> analyze
              -> export_prod -> reparse_prod
    simulate  sim.init_state -> sim.run (random policy, cross-net ISP calls)

interleave  State explosion.  A balanced par over 4 leaves, a balanced anyseq
            over 4 leaves and disc with 3 racers, explored in full, and a
            balanced par over 6 leaves, disc with 4 racers and a balanced
            par over 8 leaves, each cut at CAP states.  Reachability takes
            nearly all the time.  One simulation per shape rides along.
wide        WIDE_TERMS balanced seq/alt/iter/refine terms over 32 seeded
            leaves plus the book-order model.  Hundreds of transitions and
            about one successor per state; inline, flatten and PROD export
            take a visible share.  Simulations of the first term and of
            book-order ride along.
simulate    SIM_RUNS random-policy simulations of each of seq(40), par(12),
            anyseq(6), disc(4 racers), select(5) and book-order.  The
            book-order verdict rides along once per pass.

The ride-along operations keep every layer measured on every workload;
they take a few percent of a pass.  The seed picks the leaf names, the
leaves of the wide terms and their order, and the simulation policy seeds.
The shapes are fixed: the interleave and simulate verdicts and event
counts are in expected.json, and each wide term has a fixed skeleton.

Every timed operation is short (at most about a third of a second on a
shared 2-core machine) so that a run repeats it tens of times: the full
par(6) and disc(4) explorations took seconds each, a run had room for two
or three of each, and their timings moved by a quarter between runs.
"""

from __future__ import annotations

import json
import random
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from io import StringIO

from fixtures import book_order_service, treat_command_block
from gnets import algebra, analysis, cli, dsl, io, model, prod, sim
from test_prod import normalize

CAP = 500  # max_states of the capped interleave explorations
WIDE_TERMS = 12
WIDE_LEAVES = 32
SIM_RUNS = 16  # simulations of each simulate shape per pass
BLOCK = "B"  # refinement block spliced into wide leaves
BOOK_ORDER = "book_order"
DEFAULT_MAX_STATES = 100000  # the gnets analyze default

# shape id -> (operator, leaves); disc counts its racers, plus one
# continuation leaf
SHAPES = {
    "par4": ("par", 4), "par6": ("par", 6), "par8": ("par", 8),
    "disc3": ("disc", 3), "disc4": ("disc", 4), "anyseq4": ("anyseq", 4),
    "seq40": ("seq", 40), "par12": ("par", 12), "anyseq6": ("anyseq", 6),
    "select5": ("select", 5),
}
INTERLEAVE = ("par4", "anyseq4", "disc3", "par6", "disc4", "par8")
CAPPED = ("par6", "disc4", "par8")  # explored up to CAP states
SIMULATE = ("seq40", "par12", "anyseq6", "disc4", "select5", BOOK_ORDER)


@dataclass(frozen=True)
class Verify:
    label: str
    term: str | None  # DSL text; None selects the book-order model
    args: tuple = ()
    max_states: int = DEFAULT_MAX_STATES
    expected: dict | None = None  # table verdict; None: goal, no deadlock
    golden: bool = False  # compare the PROD text with the golden file


@dataclass(frozen=True)
class Simulate:
    label: str
    term: str | None
    args: tuple
    policy_seed: int
    events: tuple | None = None  # inclusive (low, high) event count


@dataclass(frozen=True)
class Inputs:
    names: tuple  # leaf service names
    ops: tuple  # one pass
    primary: type  # the operation kind the end-to-end metrics time
    cli: tuple  # (Verify, Simulate) run once through the gnets command


class Mismatch(Exception):
    """An operation finished with a wrong verdict, trace or output."""


def _expect(ok, what):
    if not ok:
        raise Mismatch(what)


# --- Terms -----------------------------------------------------------------

def balanced(op, leaves):
    """Binary `op` tree, left half rounded down: par over 6 leaves is
    par(par(a, par(b, c)), par(d, par(e, f)))."""
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    return f"{op}({balanced(op, leaves[:mid])}, {balanced(op, leaves[mid:])})"


def shape_term(shape, names):
    op, n = SHAPES[shape]
    if op == "disc":
        return f"disc({', '.join(names[:n])}; {names[n]})"
    if op == "select":
        return f"select({', '.join(names[:n])})"
    return balanced(op, names[:n])


def shape_args(shape):
    if shape == BOOK_ORDER:
        return (1,)  # seq
    if SHAPES[shape][0] == "select":
        return ("req",)
    return ()


def _wide_skeletons():
    """The skeleton of each wide term, the same for every seed: the seq/alt
    operator of every internal node in preorder (half seq, the rest alt,
    shuffled), the eighth of the internal nodes wrapped in iter and the
    quarter of the leaf positions refined by the block.  Where these sit
    sets the places a marking carries and the transitions a state scans:
    seeded positions made the time of a term vary by up to a half between
    seeds."""
    rng = random.Random("wide-skeletons")
    n = WIDE_LEAVES
    skeletons = []
    for _ in range(WIDE_TERMS):
        ops = ["seq"] * (n // 2) + ["alt"] * (n - 1 - n // 2)
        rng.shuffle(ops)
        iters = frozenset(rng.sample(range(n - 1), n // 8))
        refined = frozenset(rng.sample(range(n), n // 4))
        skeletons.append((tuple(ops), iters, refined))
    return skeletons


def wide_term(leaves, skeleton):
    """The balanced term over `leaves` with the given skeleton."""
    ops, iters, refined_at = skeleton
    n = len(leaves)
    refined = {leaves[i] for i in refined_at}
    nodes = iter(range(n - 1))

    def build(part):
        if len(part) == 1:
            (leaf,) = part
            if leaf in refined:
                return f'refine({leaf}, "op-{leaf}", {BLOCK})'
            return leaf
        node = next(nodes)
        mid = len(part) // 2
        term = f"{ops[node]}({build(part[:mid])}, {build(part[mid:])})"
        return f"iter({term})" if node in iters else term

    return build(leaves)


def leaf_names(rng, count):
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    names = [f"{prefix}{i}" for i in range(count)]
    rng.shuffle(names)
    return tuple(names)


def make_inputs(workload, seed, table):
    rng = random.Random(f"{workload}:{seed}")
    policy = lambda: rng.randrange(2 ** 31)
    book = table[BOOK_ORDER]
    book_verify = Verify(BOOK_ORDER, None, shape_args(BOOK_ORDER),
                         expected=book["verdict"], golden=True)
    if workload == "interleave":
        names = leaf_names(rng, 9)
        ops = [Verify(s, shape_term(s, names),
                      max_states=table[s].get("max_states",
                                              DEFAULT_MAX_STATES),
                      expected=table[s]["verdict"]) for s in INTERLEAVE]
        sims = [Simulate(s, shape_term(s, names), (), policy(),
                         tuple(table[s]["events"])) for s in INTERLEAVE]
        capped = INTERLEAVE.index("par8")
        return Inputs(names, tuple(ops + sims), Verify,
                      (ops[capped], sims[capped]))
    if workload == "wide":
        names = leaf_names(rng, 48)
        terms = [wide_term(tuple(rng.sample(names, WIDE_LEAVES)), skeleton)
                 for skeleton in _wide_skeletons()]
        ops = [Verify(f"term{i}", t) for i, t in enumerate(terms)]
        sims = [Simulate("term0", terms[0], (), policy()),
                Simulate(BOOK_ORDER, None, shape_args(BOOK_ORDER), policy(),
                         tuple(book["events"]))]
        return Inputs(names, tuple(ops + [book_verify] + sims), Verify,
                      (ops[0], sims[0]))
    if workload == "simulate":
        names = leaf_names(rng, 40)
        ops = [Simulate(s, None if s == BOOK_ORDER else shape_term(s, names),
                        shape_args(s), policy(), tuple(table[s]["events"]))
               for s in SIMULATE for _ in range(SIM_RUNS)]
        return Inputs(names, tuple(ops + [book_verify]), Simulate,
                      (book_verify, ops[0]))
    raise ValueError(f"unknown workload {workload!r}")


# --- Operations ------------------------------------------------------------

def base_registry(names):
    reg = model.Registry()
    for name in names:
        reg.insert(algebra.with_request_method(
            algebra.atomic(name, f"op-{name}")))
    reg.insert_block(BLOCK, treat_command_block())
    return reg


def compose(term, reg):
    if term is None:
        ws = book_order_service()
        reg.insert(ws)
        return ws
    return dsl.eval_expr(dsl.parse_expr(term), reg)


def flatten(ws, reg, args):
    """Inline the ISPs and flatten the main method, as `gnets analyze`
    does; `args` are the method's call arguments in order."""
    inlined = analysis.inline_isps(ws, reg)
    method = algebra.main_method(inlined.service)
    call_args = {name: value for (name, _), value in zip(method.params, args)}
    return method, analysis.flatten(inlined.service, method.name,
                                    args=call_args)


def explore(method, flat, max_states):
    """The verdict over every initial marking, combined as `gnets analyze`
    combines it, and the (initial marking, state graph) pairs."""
    goals = analysis.flat_goal_places(method)
    verdict = {"states": 0, "edges": 0, "deadlocks": 0, "goal": True,
               "truncated": False}
    graphs = []
    for initial in flat.initial_markings():
        graph = analysis.reachability(flat, max_states=max_states,
                                      initial=initial)
        report = analysis.analyze(graph, goals)
        verdict["states"] += report.state_count
        verdict["edges"] += len(graph.edges)
        verdict["deadlocks"] += len(report.deadlocks)
        verdict["goal"] &= report.goal_reachable
        verdict["truncated"] |= report.truncated
        graphs.append((initial, graph))
    return verdict, graphs


def resolved_initial(flat):
    """The flat net as `gnets export` writes it: initial tokens with fields
    still drawn from a domain are left out."""
    return dc_replace(flat, initial={
        p: toks for p, toks in flat.initial.items()
        if not any(isinstance(v, analysis.Unresolved)
                   for tok in toks for v in tok)})


def same_net(flat, back):
    """The PROD dialect carries places, transitions and the initial
    marking; place signatures of unconstrained places are not written."""
    return (set(flat.places) == set(back.places)
            and {t.name: t for t in flat.transitions}
            == {t.name: t for t in back.transitions}
            and flat.initial == back.initial)


class Runner:
    """Runs the operations of one workload against a fresh registry copy
    each; `tracer` spans the benchmark's own calls into io."""

    def __init__(self, names, golden, tracer):
        self.base = base_registry(names)
        self.golden = normalize(golden)
        self.tracer = tracer
        self.models = {}  # term -> (service, registry) simulated this pass

    def prepare(self, ops):
        """Compose and validate the models the pass simulates."""
        self.models = {}
        for op in ops:
            if isinstance(op, Simulate) and op.term not in self.models:
                reg = self.base.copy()
                ws = compose(op.term, reg)
                _expect(model.validate(ws).ok, f"{op.label}: invalid model")
                self.models[op.term] = (ws, reg)

    def warm(self, ops):
        """Compose, inline and flatten every verified model once."""
        self.prepare(ops)
        for op in ops:
            if isinstance(op, Verify):
                reg = self.base.copy()
                flatten(compose(op.term, reg), reg, op.args)

    def run(self, op):
        """Run one operation; returns the states explored or the events
        fired."""
        if isinstance(op, Verify):
            return self.verify(op)
        return self.simulate(op)

    def verify(self, op):
        reg = self.base.copy()
        ws = compose(op.term, reg)
        _expect(model.validate(ws).ok, f"{op.label}: invalid model")
        with self.tracer.span("io.roundtrip"):
            loaded = io.service_from_dict(
                json.loads(json.dumps(io.service_to_dict(ws))))
        _expect(loaded == ws, f"{op.label}: JSON round trip changed it")
        reg.insert(loaded)
        method, flat = flatten(loaded, reg, op.args)
        verdict, _ = explore(method, flat, op.max_states)
        if op.expected is None:
            _expect(verdict["goal"] and not verdict["deadlocks"]
                    and not verdict["truncated"],
                    f"{op.label}: not sound: {verdict}")
        else:
            _expect(verdict == op.expected,
                    f"{op.label}: verdict {verdict} != {op.expected}")
        exported = resolved_initial(flat)
        text = prod.export_prod(exported)
        _expect(same_net(exported, prod.reparse_prod(text)),
                f"{op.label}: PROD reparse differs from the flat net")
        if op.golden:
            _expect(normalize(text) == self.golden,
                    f"{op.label}: PROD text differs from the golden file")
        return verdict["states"]

    def simulate(self, op):
        ws, reg = self.models[op.term]
        config = sim.SimConfig(policy="random", seed=op.policy_seed)
        state = sim.init_state(ws, algebra.main_method(ws).name, op.args,
                               registry=reg, config=config)
        state, outcome = sim.run(state)
        _expect(outcome == sim.GOAL, f"{op.label}: outcome {outcome}")
        events = len(state.trace)
        if op.events is not None:
            low, high = op.events
            _expect(low <= events <= high,
                    f"{op.label}: {events} events, expected {op.events}")
        return events


# --- Command-line cross-check ------------------------------------------------

def _cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_check(runner, inputs, directory):
    """Run one verified and one simulated model of the pass through `gnets
    analyze` and `gnets simulate`; returns a list of problems.  analyze
    must exit 0, or 4 when its exploration is capped, and report the state
    count the table holds."""
    problems = []
    for op, command in zip(inputs.cli, ("analyze", "simulate")):
        reg = runner.base.copy()
        ws = compose(op.term, reg)
        registry = directory / f"{command}-registry"
        registry.mkdir()
        for i, name in enumerate(sorted(reg.services)):
            io.save_service(reg.services[name], registry / f"s{i}.json")
        path = directory / f"{command}-model.json"
        io.save_service(ws, path)
        argv = [command, str(path), "--registry", str(registry)]
        if op.args:
            argv += ["--args"] + [str(a) for a in op.args]
        if command == "analyze":
            argv += ["--max-states", str(op.max_states)]
            want = 4 if op.expected and op.expected["truncated"] else 0
        else:
            argv += ["--policy", "random", "--seed", str(op.policy_seed)]
            want = 0
        code, out = _cli(argv)
        if code != want:
            problems.append(f"gnets {command} {op.label}: exit {code}, "
                            f"expected {want}")
        if command == "analyze" and op.expected and \
                f"stateCount: {op.expected['states']}\n" not in out:
            problems.append(f"gnets analyze {op.label}: state count differs "
                            f"from the table's")
    return problems
