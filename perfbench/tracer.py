"""Tracer for the benchmark's traced runs.

The tracer patches public functions of the gnets modules from outside; the
library source is not touched.  Every wrapped call pushes a frame on one
stack, so a function's self time is its duration minus the time of the
wrapped calls made inside it.  The wrapper's own bookkeeping is kept out
of the caller's self time: most of it is read into the callee's duration,
the rest is charged to neither.  Every function is kept only as an
aggregate of calls and self seconds, not as one span per call.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


# counts the hooks below keep, with their units
COUNTS = (
    ("analysis.inline_splices", "count"), ("analysis.flat_places", "count"),
    ("analysis.flat_transitions", "count"), ("analysis.states", "count"),
    ("analysis.edges", "count"), ("analysis.successors_generated", "count"),
    ("analysis.transitions_scanned", "count"), ("prod.export_bytes", "B"),
    ("sim.events", "count"),
)


def _graph_counts(counts, args, kwargs, graph):
    counts["analysis.reach_calls"] += 1
    counts["analysis.states"] += len(graph.nodes)
    counts["analysis.edges"] += len(graph.edges)


def _successor_counts(counts, args, kwargs, results):
    counts["analysis.successors_generated"] += len(results)
    counts["analysis.transitions_scanned"] += len(args[0].transitions)


def _flat_counts(counts, args, kwargs, flat):
    counts["analysis.flat_places"] += len(flat.places)
    counts["analysis.flat_transitions"] += len(flat.transitions)


def _splice_counts(counts, args, kwargs, inlined):
    counts["analysis.inline_splices"] += len(inlined.regions)


def _export_counts(counts, args, kwargs, text):
    counts["prod.export_bytes"] += len(text.encode())


def _event_counts(counts, args, kwargs, result):
    state, _ = result
    if state.depth == 0:  # nested invocations are inside the caller's trace
        counts["sim.events"] += len(state.trace)


# (module, attribute, aggregate name, report calls, count recursion, hook)
# `report calls`: the call count is a per-layer metric (per-successor and
# per-step functions).  `count recursion` False: a call made while the
# same wrapper is active (guards' recursive evaluators) is passed straight
# through.
LAYERS = (
    ("dsl", "parse_expr", "dsl.parse", False, True, None),
    ("dsl", "eval_expr", "dsl.eval", False, True, None),
    ("model", "validate", "model.validate", False, True, None),
    ("analysis", "inline_isps", "analysis.inline", False, True,
     _splice_counts),
    ("analysis", "flatten", "analysis.flatten", False, True, _flat_counts),
    ("analysis", "reachability", "analysis.reach", False, True,
     _graph_counts),
    ("analysis", "analyze", "analysis.analyze", False, True, None),
    ("analysis", "flat_successors", "analysis.successors", True, True,
     _successor_counts),
    ("analysis", "canonical_marking", "analysis.canonical", True, True,
     None),
    ("prod", "export_prod", "prod.export", False, True, _export_counts),
    ("prod", "reparse_prod", "prod.reparse", False, True, None),
    ("guards", "eval_condition", "guards.eval_condition", True, False,
     None),
    ("guards", "eval_expr", "guards.eval_expr", True, False, None),
    ("sim", "init_state", "sim.init_state", True, True, None),
    ("sim", "run", "sim.run", True, True, _event_counts),
    ("sim", "enabled", "sim.enabled", True, True, None),
    ("sim", "fire", "sim.fire", True, True, None),
    ("sim", "invoke_isp", "sim.invoke_isp", True, True, None),
    # natural_key is imported by name into each module that sorts ids
    ("model", "natural_key", "model.natural_key", True, True, None),
    ("analysis", "natural_key", "model.natural_key", True, True, None),
    ("prod", "natural_key", "model.natural_key", True, True, None),
    ("sim", "natural_key", "model.natural_key", True, True, None),
)


class Tracer:
    """Per-name aggregates of [calls, self seconds], and the counts the
    hooks keep."""

    def __init__(self):
        self.stack = []  # per active call: seconds spent in wrapped calls
        self.agg = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self._patches = []

    def _record(self, name, start, child_seconds):
        """Close the call opened at `start`; returns the clock reading it
        took as the call's end."""
        entry = self.agg[name]
        entry[0] += 1
        stack = self.stack
        end = time.perf_counter()
        entry[1] += end - start - child_seconds
        if stack:
            stack[-1] += end - start
        return end

    @contextmanager
    def span(self, name):
        """A span around benchmark code that calls into a layer."""
        start = time.perf_counter()
        self.stack.append(0.0)
        try:
            yield
        finally:
            self._record(name, start, self.stack.pop())

    def wrap(self, owner, attr, name, count_recursion, hook):
        original = getattr(owner, attr)  # a renamed function must fail loud
        clock = time.perf_counter
        stack = self.stack
        active = [0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if active[0] and not count_recursion:
                return original(*args, **kwargs)
            start = clock()
            active[0] += 1
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
            finally:
                active[0] -= 1
                end = self._record(name, start, stack.pop())
                if stack:  # the time from `end` to here is this call's too
                    stack[-1] += clock() - end
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, modules):
        for mod, attr, name, _, recursion, hook in LAYERS:
            self.wrap(modules[mod], attr, name, recursion, hook)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self):
        """Copy of the aggregates and counts, for per-pass differences."""
        return ({k: tuple(v) for k, v in self.agg.items()},
                dict(self.counts))


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost nothing."""

    def span(self, name):
        return nullcontext()
