"""The acceptance gate.  Each test covers one headline criterion and is
named so `pytest -v` reports exactly one pass/fail line per criterion."""

import dataclasses
import random
import time
from pathlib import Path

import reach_oracle
from fixtures import (book_order_service, branching_bool_service,
                      gated_false_service, treat_command_block,
                      treat_command_service)
from gnets import algebra, analysis, dsl, guards, prod, sim
from gnets.errors import GnetError
from gnets.model import Registry, validate

GOLDEN = Path(__file__).parent / "golden" / "book_order.prod"

LEAVES = ("a", "b", "c", "d")


def make_registry():
    reg = Registry()
    for name in LEAVES:
        reg.insert(algebra.with_request_method(
            algebra.atomic(name, f"op-{name}")))
    reg.insert_block("B", treat_command_block())
    return reg


def compose(text, reg):
    return dsl.eval_expr(dsl.parse_expr(text), reg)


def inline_flat(text, reg):
    result = analysis.inline_isps(compose(text, reg), reg)
    flat = analysis.flatten(result.service)
    return result, flat


def flat_region(pids):
    return {analysis.flat_name(p, side) for p in pids for side in "fl"}


def tokens_in(marking, places):
    return sum(len(marking.get(p, ())) for p in places)


def source_letters(flat):
    """The `label_language` letters of a flat net's edges: a source
    transition is its origin, and a copy transition is erased."""
    origin = {t.name: t.origin for t in flat.transitions}
    return lambda name: (origin[name],) if origin[name] else ()


def transition_letters(tid):
    """The `label_language` letters of a token-game edge."""
    return (tid,)


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_operator_skeleton_counts():
    started = time.monotonic()
    s1, s2, s3 = (algebra.atomic(f"S{i}", f"op-{i}") for i in (1, 2, 3))

    def counts(ws):
        s = ws.net.internal
        return len(s.places), len(s.transitions), len(s.arcs)

    assert counts(algebra.sequence(s1, s2)) == (3, 2, 4)
    assert counts(algebra.alternative(s1, s2)) == (4, 4, 8)
    assert counts(algebra.iteration(s1)) == (2, 2, 4)
    assert counts(algebra.arbitrary_sequence(s1, s2)) == (9, 6, 20)
    assert counts(algebra.parallel(s1, s2)) == (4, 2, 6)
    disc = algebra.discriminator([s1, s2], s3)
    assert counts(disc)[:2] == (6, 6)
    sel = algebra.selection([algebra.with_request_method(s)
                             for s in (s1, s2, s3)])
    assert counts(sel)[:2] == (9, 8)
    assert time.monotonic() - started < 1.0


# -- 2 ----------------------------------------------------------------------

def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([dsl.Empty()]
                          + [dsl.Ref(n) for n in LEAVES])
    op = rng.choice(["seq", "alt", "iter", "anyseq", "par", "disc",
                     "select", "refine", "replace"])
    sub = lambda: random_term(rng, depth - 1)
    leaf = lambda: dsl.Ref(rng.choice(LEAVES))
    if op == "seq":
        return dsl.Seq(sub(), sub())
    if op == "alt":
        return dsl.Alt(sub(), sub())
    if op == "iter":
        return dsl.Iter(sub())
    if op == "anyseq":
        return dsl.AnySeq(sub(), sub())
    if op == "par":
        return dsl.Par(sub(), sub())
    if op == "disc":
        racers = tuple(sub() for _ in range(rng.randint(1, 3)))
        return dsl.Disc(racers, sub())
    if op == "select":
        return dsl.Select(tuple(leaf() for _ in range(rng.randint(1, 3))))
    if op == "refine":
        return dsl.Refine(sub(), rng.choice(["op-a", "op-b", "Nothing"]),
                          "B")
    return dsl.Replace(sub(), leaf(), leaf())


def test_criterion_02_closure_of_random_terms():
    started = time.monotonic()
    rng = random.Random(20240817)
    reg = make_registry()
    seen_ops = set()
    for _ in range(1000):
        term = random_term(rng, 5)
        seen_ops.add(type(term).__name__)
        ws = dsl.eval_expr(term, reg)
        report = validate(ws)
        assert report.ok, f"{dsl.print_expr(term)}: {report}"
    elapsed = time.monotonic() - started
    assert seen_ops >= {"Seq", "Alt", "Iter", "AnySeq", "Par", "Disc",
                        "Select", "Refine", "Replace"}
    assert elapsed < 30.0, f"closure sweep took {elapsed:.1f}s"


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_arbitrary_sequence_mutual_exclusion():
    reg = make_registry()
    result, flat = inline_flat("anyseq(a, b)", reg)
    graph = analysis.reachability(flat)
    assert len(graph.nodes) < 1000
    body_a = flat_region(result.regions["p5"])
    body_b = flat_region(result.regions["p6"])
    for marking in graph.nodes.values():
        assert not (tokens_in(marking, body_a) and tokens_in(marking, body_b))
    runs = analysis.label_language(graph, source_letters(flat))
    orders = set()
    for run in runs:
        assert run[-1] == "t6"  # every maximal run completes
        orders.add("ab" if run.index("t2") < run.index("t3") else "ba")
    assert orders == {"ab", "ba"}


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_discriminator_single_activation():
    reg = make_registry()
    result = analysis.inline_isps(compose("disc(a, b; c)", reg), reg)
    graph = analysis.explore_service(result.service)
    continuation = result.regions["p5"]
    for marking in graph.nodes.values():
        assert tokens_in(marking, continuation) <= 1
    # along every run the continuation is entered (t4 fires) at most once
    for run in analysis.label_language(graph, transition_letters):
        assert run.count("t4") <= 1, "continuation activated twice on a run"
    # sanity: the graph does exercise both race outcomes
    assert any(label == "t6" for _, label, _, _ in graph.edges)


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_parallel_join():
    reg = make_registry()
    result, flat = inline_flat("par(a, b)", reg)
    graph = analysis.reachability(flat)
    body_a = flat_region(result.regions["p2"])
    body_b = flat_region(result.regions["p3"])
    goal = {"p4f", "p4l"}
    (entry_a,) = [t for t in flat.transitions
                  if t.origin and t.name.startswith("t1§")
                  and t.inputs[0][0] in body_a]
    (entry_b,) = [t for t in flat.transitions
                  if t.origin and t.name.startswith("t1§")
                  and t.inputs[0][0] in body_b]
    for marking in graph.nodes.values():
        if tokens_in(marking, goal):
            assert not tokens_in(marking, body_a)
            assert not tokens_in(marking, body_b)
    runs = analysis.label_language(graph, source_letters(flat))
    orders = set()
    for run in runs:
        assert "t2" in run  # the join always happens
        ia, ib = run.index(entry_a.name), run.index(entry_b.name)
        assert run.index("t2") > max(ia, ib)
        orders.add("ab" if ia < ib else "ba")
    assert orders == {"ab", "ba"}  # both interleavings occur


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_golden_prod_reproduction():
    from test_prod import normalize
    flat = dataclasses.replace(
        analysis.flatten(book_order_service(), "Command"), initial={})
    text = prod.export_prod(flat)
    lines = text.splitlines()
    assert sum(1 for l in lines if l.startswith("#place ")) == 12
    assert sum(1 for l in lines if l.startswith("#trans ")) == 13
    assert normalize(text) == normalize(GOLDEN.read_text())


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_reachability_matches_oracle():
    reg = make_registry()
    flats = []
    for ws, method, args in [
        (book_order_service(), "Command", {"seq": 1}),
        (treat_command_service(), "Command", None),
        (gated_false_service(), "Never", None),
        (branching_bool_service(), "Branch", None),
    ]:
        assert len(ws.net.internal.places) <= 8
        flats.append(analysis.flatten(ws, method, args=args))
    for text in ("seq(a, b)", "alt(a, b)", "par(a, b)", "anyseq(a, b)"):
        _, flat = inline_flat(text, reg)
        flats.append(flat)
    for flat in flats:
        for initial in flat.initial_markings():
            graph = analysis.reachability(flat, initial=initial)
            engine = {reach_oracle.canon(m) for m in graph.nodes.values()}
            assert engine == reach_oracle.reachable_markings(flat, initial)


# -- 8 ----------------------------------------------------------------------

def flat_language(flat):
    """The source-transition run language of every initial marking."""
    return set().union(*(
        analysis.label_language(analysis.reachability(flat, initial=m),
                                source_letters(flat))
        for m in flat.initial_markings()))


def token_game_language(ws, method, args=()):
    return analysis.label_language(
        analysis.explore_service(ws, method, args), transition_letters)


def test_criterion_08_flattening_trace_equivalence():
    reg = make_registry()
    refined = algebra.refine(treat_command_service(), "Treat-Command",
                             treat_command_block())
    cases = [
        (treat_command_service(), "Command", ()),
        (gated_false_service(), "Never", ()),
        (branching_bool_service(), "Branch", ()),
        (book_order_service(), "Command", (1,)),
        (refined, "Command", ()),
    ]
    for text in ("seq(a, b)", "alt(a, b)", "par(a, b)", "anyseq(a, b)"):
        ws = analysis.inline_isps(compose(text, reg), reg).service
        cases.append((ws, algebra.main_method(ws).name, ()))
    for ws, method, args in cases:
        params = [n for n, _ in ws.net.gsp.method(method).params]
        flat = analysis.flatten(ws, method, args=dict(zip(params, args)))
        assert flat_language(flat) == token_game_language(ws, method, args), \
            ws.name


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_refinement_example():
    base = treat_command_service()
    block = treat_command_block()
    old_places = len(base.net.internal.places)
    refined = algebra.refine(base, "Treat-Command", block)
    assert len(refined.net.internal.places) == \
        old_places - 1 + len(block.structure.places)
    assert validate(refined).ok
    labels = [lab.name for _, lab in refined.net.internal.labels
              if hasattr(lab, "name")]
    assert {"Verify-availability", "Stock-quantity", "Add-to-cart",
            "Subtotal"} <= set(labels)
    flat = analysis.flatten(refined, "Command")
    graph = analysis.reachability(flat)
    report = analysis.analyze(
        graph, analysis.flat_goal_places(refined.net.gsp.method("Command")))
    assert report.goal_reachable and not report.deadlocks


# -- 10 ---------------------------------------------------------------------

def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        pick = rng.random()
        if pick < 0.4:
            return guards.Lit(rng.randint(0, 99))
        if pick < 0.6:
            return guards.Lit(rng.random() < 0.5)
        if pick < 0.7:
            return guards.Lit(rng.choice(["", "go", "a b", 'say "hi"',
                                          "a\\b", "l1\nl2", "x;<.y"]))
        return guards.Var(rng.choice(["x", "y", "B", "Available", "seq"]))
    return guards.BinOp(rng.choice("+-*"), random_expr(rng, depth - 1),
                        random_expr(rng, depth - 1))


def random_condition(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.3:
            return guards.Atom(guards.Lit(rng.random() < 0.5))
        return guards.Compare(random_expr(rng, 2),
                              rng.choice(["==", "!=", "<", "<=", ">", ">="]),
                              random_expr(rng, 2))
    pick = rng.random()
    if pick < 0.33:
        return guards.Not(random_condition(rng, depth - 1))
    ctor = guards.And if pick < 0.66 else guards.Or
    return ctor(random_condition(rng, depth - 1),
                random_condition(rng, depth - 1))


def random_action(rng):
    return tuple(
        guards.Assign(rng.choice(["x", "y", "B", "J"]), random_expr(rng, 2))
        for _ in range(rng.randint(0, 3)))


def test_criterion_10_guard_language_round_trip():
    rng = random.Random(4)
    for _ in range(500):
        c = random_condition(rng, 3)
        assert guards.parse_condition(guards.print_condition(c)) == c
    for _ in range(500):
        a = random_action(rng)
        assert guards.parse_action(guards.print_action(a)) == a
    assert guards.print_condition(guards.parse_condition("B == true")) == \
        "B == true"
    assert guards.print_action(guards.parse_action("B := true")) == \
        "B := true"
    assert guards.print_condition(
        guards.parse_condition("Available == false")) == "Available == false"


def test_criterion_11_sweep_runs_end_or_raise_a_gnet_error():
    """The token game on the first 300 terms of the closure sweep, with
    "req" for each parameter, under `det` and under random seed 1, one
    registry copy per policy: every run ends in Goal, Deadlock or StepLimit,
    or raises a GnetError, never another exception.  The counts of each
    are not pinned: they move as the engines' data-flow rule is fixed."""
    rng = random.Random(20240817)
    reg = make_registry()
    services = [dsl.eval_expr(random_term(rng, 5), reg) for _ in range(300)]
    for config in (sim.SimConfig(max_steps=300),
                   sim.SimConfig(policy="random", seed=1, max_steps=300)):
        copy = reg.copy()
        for ws in services:
            try:
                args = ["req"] * len(algebra.method(ws).params)
                _, outcome = sim.run(sim.init_state(
                    ws, None, args, registry=copy, config=config))
            except GnetError:
                continue
            assert outcome in (sim.GOAL, sim.DEADLOCK, sim.STEP_LIMIT)
