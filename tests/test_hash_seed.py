"""A frozen marking is a frozenset, and a frozenset's iteration order
follows PYTHONHASHSEED.  Reports and traces must not: two interpreters with
different hash seeds print the same text."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from gnets import algebra, analysis, dsl, sim
from gnets.errors import GnetError
from gnets.guards import Var
from gnets.model import (AttributeSpec, GNetModel, GspSpec,
                         InternalStructure, MethodSpec, Place, PlaceKind,
                         Registry, WebService, freeze_marking, rename_apart)

reg = Registry()
for name in ("a", "b", "c"):
    reg.insert(algebra.with_request_method(algebra.atomic(name, "op-" + name)))
# the first line shows that the seed changes a frozenset's order
print(list(frozenset("p%d" % i for i in range(12))))
for text in ("par(par(a, b), c)", "disc(a, b; c)"):
    ws = dsl.eval_expr(dsl.parse_expr(text), reg)
    service = analysis.inline_isps(ws, reg).service
    method = algebra.main_method(service)
    flat = analysis.flatten(service, method.name)
    goals = analysis.flat_goal_places(method)
    for cap in (25, 100000):
        graph = analysis.reachability(flat, max_states=cap)
        print(analysis.analyze(graph, goals).to_text())
graph = analysis.explore_service(service, method.name, max_states=25)
print(analysis.analyze(graph, set(method.goal_places)).to_text())
state = sim.init_state(ws, algebra.main_method(ws).name, registry=reg,
                       config=sim.SimConfig(policy="random", seed=3))
print("\\n".join(sim.format_trace(sim.run(state)[0])))
# T_p01 and T_p1 tie under natural_key, and so do their results: only the
# transition list orders them, whichever marked place comes first
# (the last one has two inputs, and shares its head place p2 with the
# second)
flat = analysis.FlatNet(
    places={}, domains={},
    initial={p: [(1,)] for p in ("p01", "p1", "p2", "p10")},
    transitions=[analysis.FlatTransition(name, inputs,
                                         (("q", (Var("x"),)),))
                 for name, inputs in (
                     ("T_p1", (("p10", ("x",)),)),
                     ("T_p01", (("p2", ("x",)),)),
                     ("T_p1", (("p01", ("x",)),)),
                     ("T_p01", (("p1", ("x",)),)),
                     ("T_p1", (("p2", ("x",)), ("p10", ("x",)))))])
for name, binding, succ in analysis.flat_successors(
        flat, freeze_marking(flat.initial)):
    print(name, binding, analysis.canonical_marking(succ))
# every transition reads a variable of its own that no domain declares:
# the lowest-index one raises, whichever marked place comes first, and
# with it gone the next one (t10, with two inputs)
places = ["p%d" % i for i in range(12)]
raising = [analysis.FlatTransition("t%d" % i, ((p, ("x",)),),
                                   (("q", (Var("u%d" % i),)),))
           for i, p in enumerate(places)]
raising[10] = analysis.FlatTransition(
    "t10", (("p10", ("x",)), ("p3", ("y",))), (("q", (Var("u10"),)),))
for transitions in (raising[::-1], raising[-2::-1]):
    flat = analysis.FlatNet(places={}, domains={}, transitions=transitions,
                            initial={p: [(1,)] for p in places})
    try:
        analysis.flat_successors(flat, freeze_marking(flat.initial))
    except GnetError as exc:
        print(type(exc).__name__, exc)
# t1 feeds the ISP places p01 and p1, which tie under natural_key: their
# calls run in the order of t1's output places, whatever the seed
calls = Registry()
calls.insert(algebra.atomic("a", "op-a"))
calls.insert(rename_apart(algebra.atomic("b", "op-b"), "B"))
ws = WebService("fork", net=GNetModel(
    GspSpec((MethodSpec("Fork", "", (), "p0", frozenset({"p2"})),)),
    InternalStructure(
        places=(Place("p0"), Place("p01", PlaceKind.ISP, "a", "Atomic"),
                Place("p1", PlaceKind.ISP, "b", "Atomic"),
                Place("p2", PlaceKind.GOAL)),
        transitions=("t1", "t2"),
        arcs=(("p0", "t1"), ("t1", "p01"), ("t1", "p1"), ("p01", "t2"),
              ("p1", "t2"), ("t2", "p2")))))
state = sim.init_state(ws, "Fork", registry=calls)
print("\\n".join(sim.format_trace(sim.run(state)[0])))
# t0 marks p001, p01 and p1, which tie under natural_key; t001, t01 and t1,
# which tie too, are then enabled together: only the transition list orders
# them
race = WebService("race", net=GNetModel(
    GspSpec((MethodSpec("Race", "", (), "p0", frozenset({"p2"})),),
            (AttributeSpec("x", "bool"),)),
    InternalStructure(
        places=(Place("p0"), Place("p001"), Place("p01"), Place("p1"),
                Place("p2", PlaceKind.GOAL)),
        transitions=("t0", "t1", "t001", "t01"),
        arcs=(("p0", "t0"), ("t0", "p001"), ("t0", "p01"), ("t0", "p1"),
              ("p1", "t1"), ("p001", "t001"), ("p01", "t01"), ("t1", "p2"),
              ("t001", "p2"), ("t01", "p2")),
        inscriptions=((("t0", "p01"), (Var("x"),)),
                      (("t0", "p1"), (Var("x"),)),
                      (("p01", "t01"), (Var("x"),))))))
state = sim.init_state(race, "Race")
print(sim.enabled(state))
state = sim.fire(sim.enabled(state)[-1])
print(sim.enabled(state))
for policy, seed in (("det", 0), ("random", 1), ("random", 2),
                     ("random", 3)):
    state = sim.init_state(race, "Race",
                           config=sim.SimConfig(policy=policy, seed=seed))
    print("\\n".join(sim.format_trace(sim.run(state)[0])))
"""


def run_with_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.split("\n", 1)


def test_output_does_not_depend_on_hash_seed():
    (probe1, text1), (probe2, text2) = map(run_with_hash_seed, (1, 2))
    assert probe1 != probe2
    assert "deadlock: " in text1 and "witness: " in text1
    assert text1 == text2
