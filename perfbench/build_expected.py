"""Builds and checks expected.json, the table of expected verdicts.

    python3 perfbench/build_expected.py          # check the committed table
    python3 perfbench/build_expected.py --write  # rewrite it

Run from the repository root.  For every fixed interleave shape and for
the book-order model (seq=1) it computes the verdict with the library:
states, edges, deadlocks, goal reached, truncated.  Where the independent
oracle in tests/reach_oracle.py finds at most ORACLE_MAX_STATES reachable
markings, the engine's set of markings must equal the oracle's, or be a
subset of it when the exploration is capped.  Every simulated shape gets
its event count from its structure (exact for seq/par/anyseq/select, a
range for disc and book-order), checked against SAMPLES random-policy
runs that must all reach Goal and together hit both ends of each range.
Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "expected.json"
ORACLE_MAX_STATES = 10000
SAMPLES = 40

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reach_oracle  # noqa: E402
import workloads as wl  # noqa: E402
from gnets import algebra, sim  # noqa: E402

NAMES = tuple(f"leaf{i}" for i in range(40))


def shape_events(shape):
    """Firing events of one run, counting the nested invocations' events.
    An atomic leaf fires once; a seq or par node fires 2 skeleton
    transitions and an anyseq node 6.  select(n) fires t1, n `req`
    answers, t2, one route, the chosen leaf and the finish.  disc with k
    racers fires t1, k racer leaves, 1 to k racer completions, the trigger,
    the continuation leaf and one transition into the goal.  Book-order
    runs T3 T7 or T1 T2 T4 T5 T6."""
    if shape == wl.BOOK_ORDER:
        return 2, 5
    op, n = wl.SHAPES[shape]
    if op == "select":
        return n + 5, n + 5
    if op == "disc":
        return n + 5, 2 * n + 4
    events = n + {"seq": 2, "par": 2, "anyseq": 6}[op] * (n - 1)
    return events, events


def verdict(shape, max_states):
    reg = wl.base_registry(NAMES)
    term = None if shape == wl.BOOK_ORDER else wl.shape_term(shape, NAMES)
    method, flat = wl.flatten(wl.compose(term, reg), reg,
                              wl.shape_args(shape))
    out, graphs = wl.explore(method, flat, max_states)
    for initial, graph in graphs:
        engine = {reach_oracle.canon(m) for m in graph.nodes.values()}
        try:
            oracle = reach_oracle.reachable_markings(flat, initial,
                                                     ORACLE_MAX_STATES)
        except RuntimeError:
            return out, f"not run: over {ORACLE_MAX_STATES} states"
        if not (engine < oracle if out["truncated"] else engine == oracle):
            return out, "MISMATCH"
    return out, "subset" if out["truncated"] else "match"


def sampled_events(shape):
    reg = wl.base_registry(NAMES)
    term = None if shape == wl.BOOK_ORDER else wl.shape_term(shape, NAMES)
    ws = wl.compose(term, reg)
    seen = set()
    for seed in range(SAMPLES):
        state = sim.init_state(ws, algebra.main_method(ws).name,
                               wl.shape_args(shape), registry=reg,
                               config=sim.SimConfig(policy="random",
                                                    seed=seed))
        state, outcome = sim.run(state)
        if outcome != sim.GOAL:
            return f"{outcome} with policy seed {seed}"
        seen.add(len(state.trace))
    return seen


def build():
    shapes = {}
    problems = []
    for shape in dict.fromkeys(wl.INTERLEAVE + wl.SIMULATE):
        entry = {}
        if shape in wl.INTERLEAVE or shape == wl.BOOK_ORDER:
            cap = wl.CAP if shape in wl.CAPPED else wl.DEFAULT_MAX_STATES
            entry["verdict"], entry["oracle"] = verdict(shape, cap)
            if cap != wl.DEFAULT_MAX_STATES:
                entry["max_states"] = cap
                if entry["verdict"]["states"] != cap:
                    problems.append(f"{shape}: capped run did not stop at "
                                    f"the cap")
            if entry["oracle"] == "MISMATCH":
                problems.append(f"{shape}: engine and oracle disagree")
        low, high = shape_events(shape)
        seen = sampled_events(shape)
        if isinstance(seen, str) or min(seen) != low or max(seen) != high:
            problems.append(f"{shape}: sampled events {seen}, shape gives "
                            f"{low}..{high}")
        entry["events"] = [low, high]
        entry["term"] = ("book-order model" if shape == wl.BOOK_ORDER
                         else wl.shape_term(shape, NAMES))
        shapes[shape] = entry
        print(f"{shape}: {entry}", flush=True)
    return {"shapes": shapes}, problems


def main(argv):
    table, problems = build()
    if "--write" not in argv:
        if json.loads(TABLE.read_text()) != table:
            problems.append(f"{TABLE.name} differs from the computed table")
    elif not problems:
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
