"""Benchmark of the gnets verification and simulation pipeline.

    python3 perfbench/run.py --workload interleave|wide|simulate \\
        --seed N --seconds S --trace 0|1

Run it from the root of a gnets checkout.  It imports the library from
src/ and the book-order fixture, the PROD normalizer and the golden PROD
text from tests/; expected verdicts and event counts are in expected.json.
Workloads are described in workloads.py.

A run sets the workload up (generate the seeded inputs, build the leaf
registry, compose, inline and flatten each model once) SETUP_REPEATS
times.  It then repeats the workload's pass while the next pass is
predicted to end within --seconds, checking every verdict and simulation
trace; after each pass it sets the workload up again while set-ups have
taken less than SETUP_SHARE of the run.  setup_s is the median of the
set-ups; every other timing is the 90th percentile of its repeats (see
Tally).  After the timed region it runs one model through `gnets
analyze` and `gnets simulate`.

--trace 0 reports the end-to-end metrics.  --trace 1 patches the
library's public functions (tracer.py) and reports per-layer self times
and counts per pass; counts must repeat exactly in every pass.  Each
traced pass is followed by an untraced one, and the difference of their
typical passes is the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exit status
is 2, with no result, when the gnets sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # before the first pass
SETUP_SHARE = 0.1  # of the run's time, set-ups after passes included

# per-layer metrics: self seconds of every traced function and span, and
# calls of the functions traced per call; tracing.COUNTS adds the counts
LAYER_TIMES = tuple(dict.fromkeys(
    name for _, _, name, *_ in tracing.LAYERS)) + ("io.roundtrip",)
LAYER_CALLS = tuple(dict.fromkeys(
    name for _, _, name, calls, *_ in tracing.LAYERS if calls))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("interleave", "wide", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Outcomes of the timed passes.  Every pass runs the same operations
    in the same order; each operation's latency is the 90th percentile of
    its times over the passes (`typical`).  On the shared 2-core machine
    the benchmark was built on, other tenants slow all work by a factor
    of about 1.7 for seconds to minutes at a time, and most of the time.
    The median and the best (lowest) time follow the share of a run spent
    so slowed: over 6-8 runs of the same inputs, their spread between the
    quartiles was 3-33% and 14-22% of the middle value.  The 90th
    percentile reads the slowed speed, which every run saw; its spread
    was 5-9%."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.errors = []
        self.walls = []  # wall seconds of each pass
        self.prepare = []  # seconds of each pass's preparation
        self.times = {}  # operation index -> seconds of each success
        self.work = {}  # operation index -> states explored or events fired

    def run_pass(self, runner):
        begin = time.perf_counter()
        try:
            runner.prepare(self.ops)
        except Exception as exc:  # the pass's simulations cannot run
            self.attempted += len(self.ops)
            self.errors += [f"prepare: {exc!r}"] * len(self.ops)
            self.walls.append(time.perf_counter() - begin)
            return
        self.prepare.append(time.perf_counter() - begin)
        for index, op in enumerate(self.ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                work = runner.run(op)
            except Exception as exc:  # record it and keep measuring
                self.errors.append(f"{op.label}: {exc!r}")
                continue
            self.times.setdefault(index, []).append(
                time.perf_counter() - start)
            self.work[index] = work
        self.walls.append(time.perf_counter() - begin)

    def done(self, kind):
        """Indices of the operations of `kind` (a class name) that
        succeeded."""
        return [i for i in self.times
                if type(self.ops[i]).__name__ == kind]

    def count(self, kind):
        """Operations of `kind` run to success, over all passes."""
        return sum(len(self.times[i]) for i in self.done(kind))

    def typical_pass(self):
        """Seconds of a pass made of every operation at its latency."""
        prepare = typical(self.prepare) if self.prepare else 0.0
        return prepare + sum(map(typical, self.times.values()))

    def rates(self, kind):
        """Operations of `kind`, and states or events, per second of the
        typical pass."""
        done = self.done(kind)
        if not done:
            return 0.0, 0.0
        seconds = self.typical_pass()
        return len(done) / seconds, sum(self.work[i] for i in done) / seconds

    def latency(self, kind, q):
        """The q-th percentile of the latencies of `kind`."""
        return quantile([typical(self.times[i]) for i in self.done(kind)], q)


def measure(runner, ops, seconds, after_pass=None):
    """Repeat the pass, and `after_pass`, while the next round, as long as
    the last, ends within `seconds`; always at least one round."""
    tally = Tally(ops)
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        tally.run_pass(runner)
        if after_pass is not None:
            after_pass()
        end = time.perf_counter()
        if end - start + (end - begin) > seconds:
            return tally


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical(seconds):
    """The timing reported for repeats of the same work."""
    return quantile(list(seconds), 90)


def end_to_end(tally, primary, setup_times):
    """(value, unit, samples) of each end-to-end metric."""
    ops_per_s, steps_per_s = tally.rates(primary)
    passes, ops = len(tally.walls), tally.count(primary)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (ops_per_s, "1/s", passes),
        "op_p50_ms": (tally.latency(primary, 50) * 1e3, "ms", ops),
        "op_p90_ms": (tally.latency(primary, 90) * 1e3, "ms", ops),
        "steps_per_s": (steps_per_s, "1/s", passes),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
    }


def report_lines(tally):
    """The metrics by their pipeline names, with units and sample counts."""
    lines = []
    for kind, per_s, work, name, unit, scale in (
            ("Verify", "verdicts_per_s", "states_per_s", "verify", "s", 1),
            ("Simulate", "sim_runs_per_s", "sim_events_per_s", "sim_run",
             "ms", 1e3)):
        n = tally.count(kind)
        ops_rate, work_rate = tally.rates(kind)
        lines.append(f"{per_s} {ops_rate:.6g} 1/s n={n}")
        lines.append(f"{work} {work_rate:.6g} 1/s n={n}")
        for q in (50, 90) if n >= 100 else (50,) if n else ():
            lines.append(f"{name}_p{q}_{unit} "
                         f"{tally.latency(kind, q) * scale:.6g} {unit} n={n}")
    lines.append(f"error_rate {len(tally.errors) / tally.attempted:.6g} "
                 f"ratio n={tally.attempted}")
    lines.append(f"passes {len(tally.walls)} wall_s {sum(tally.walls):.6g}")
    return lines


def per_layer(deltas, reference, tally):
    """Per-pass values: self times as `typical` over passes, counts from
    the first pass (the caller checks that every pass repeats them)."""
    agg, counts = deltas[0]
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = (typical(d[0].get(name, (0, 0.0))[1]
                                    for d in deltas), "s")
    for name in LAYER_CALLS:
        out[f"{name}_calls"] = (agg.get(name, (0, 0.0))[0], "count")
    for name, unit in tracing.COUNTS:
        out[name] = (counts.get(name, 0), unit)
    generated = counts.get("analysis.successors_generated", 0)
    hits = (counts.get("analysis.edges", 0) - counts.get("analysis.states", 0)
            + counts.get("analysis.reach_calls", 0))
    out["analysis.dedupe_hit_ratio"] = (hits / generated if generated else 0.0,
                                        "ratio")
    scanned = counts.get("analysis.transitions_scanned", 0)
    out["analysis.enabling_hit_ratio"] = (
        generated / scanned if scanned else 0.0, "ratio")
    out["bench.trace_overhead_s"] = (
        tally.typical_pass() - reference.typical_pass(), "s")
    return out


def difference(after, before):
    agg_a, counts_a = after
    agg_b, counts_b = before
    agg = {k: (v[0] - agg_b.get(k, (0, 0.0))[0],
               v[1] - agg_b.get(k, (0, 0.0))[1]) for k, v in agg_a.items()}
    counts = {k: v - counts_b.get(k, 0) for k, v in counts_a.items()}
    return agg, counts


def fingerprint(inputs):
    return hashlib.sha256(repr((inputs.names, inputs.ops)).encode()
                          ).hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gnets").is_dir() \
            or not (ROOT / "tests" / "fixtures.py").is_file():
        print(f"error: no gnets sources under {ROOT}: run from the root "
              f"of a gnets checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from gnets import analysis, dsl, guards, model, prod, sim

    import workloads

    problems = []
    table = json.loads((HERE / "expected.json").read_text())["shapes"]
    golden = (ROOT / "tests" / "golden" / "book_order.prod").read_text()

    def setup():
        inputs = workloads.make_inputs(args.workload, args.seed, table)
        runner = workloads.Runner(inputs.names, golden, tracing.NullTracer())
        runner.warm(inputs.ops)
        return inputs, runner

    setup_times = []

    def timed_setup():
        start = time.perf_counter()
        result = setup()
        setup_times.append(time.perf_counter() - start)
        return result

    began = time.perf_counter()
    inputs, runner = timed_setup()
    while args.trace == 0 and len(setup_times) < SETUP_REPEATS:
        timed_setup()
    other = workloads.make_inputs(args.workload, args.seed + 1, table)
    if fingerprint(other) == fingerprint(inputs):
        problems.append("a different seed gave the same inputs")

    if args.trace == 0:
        def more_setups():
            while sum(setup_times) < SETUP_SHARE * (time.perf_counter()
                                                    - began):
                timed_setup()

        tally = measure(runner, inputs.ops, args.seconds, more_setups)
        if not tally.count(inputs.primary.__name__):
            for error in tally.errors[:10]:
                print(f"FAIL {error}", file=sys.stderr)
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        metrics = end_to_end(tally, inputs.primary.__name__, setup_times)
    else:
        modules = {"dsl": dsl, "model": model, "analysis": analysis,
                   "prod": prod, "guards": guards, "sim": sim}
        tracer = tracing.Tracer()
        reference = Tally(inputs.ops)  # untraced passes, one per round
        deltas = []
        marks = [tracer.snapshot()]

        def after_pass():
            marks.append(tracer.snapshot())
            deltas.append(difference(marks[-1], marks[-2]))
            tracer.uninstall()
            runner.tracer = tracing.NullTracer()
            reference.run_pass(runner)
            tracer.install(modules)
            runner.tracer = tracer

        tracer.install(modules)
        runner.tracer = tracer
        try:
            tally = measure(runner, inputs.ops, args.seconds, after_pass)
        finally:
            tracer.uninstall()
        problems += reference.errors
        exact = [(sorted((k, v[0]) for k, v in agg.items()), counts)
                 for agg, counts in deltas]
        if any(e != exact[0] for e in exact[1:]):
            problems.append("call counts differ between passes")
        metrics = per_layer(deltas, reference, tally)

    # the command-line check's model files stay inside the checkout
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") \
            as scratch:
        try:
            problems += workloads.cli_check(runner, inputs, Path(scratch))
        except Exception as exc:  # a crash is a failed check, not a hang-up
            problems.append(f"command-line check raised {exc!r}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs {fingerprint(inputs)}")
    for line in report_lines(tally):
        print(line)
    for name, (value, unit, *samples) in metrics.items():
        print(f"{name} {value:.6g} {unit}"
              + "".join(f" n={n}" for n in samples))
    for problem in problems + tally.errors[:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": m[0], "unit": m[1]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
