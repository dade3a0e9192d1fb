"""Checks that the benchmark's exact counts repeat between processes.

    python3 perfbench/check_determinism.py

Run from the repository root.  For each workload it runs `run.py --trace
1` twice with seed SEED, under different PYTHONHASHSEED values.  Every
per-layer count and ratio (states, edges, flat places and transitions,
events, natural_key calls, ...) of the two runs must be equal, and so must
their inputs fingerprints.  That another seed gives other inputs is
checked by run.py itself on every run.  Exit status 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("interleave", "wide", "simulate")
SEED = 1


def traced_run(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, env=env, capture_output=True, text=True,
        timeout=300, check=True)
    lines = proc.stdout.splitlines()
    inputs = lines[0].split()[-1]
    result = json.loads(lines[-1])
    exact = {name: m["value"] for name, m in result["metrics"].items()
             if m["unit"] in ("count", "B", "ratio")}
    return inputs, exact, result["correct"]


def main():
    problems = []
    for workload in WORKLOADS:
        first = traced_run(workload, SEED, 1)
        second = traced_run(workload, SEED, 2)
        if not (first[2] and second[2]):
            problems.append(f"{workload}: a run reported correct=false")
        if first[0] != second[0]:
            problems.append(f"{workload}: same seed, different inputs")
        for name in sorted(first[1]):
            if first[1][name] != second[1].get(name):
                problems.append(f"{workload}: {name} {first[1][name]} != "
                                f"{second[1].get(name)}")
        print(f"{workload}: {len(first[1])} exact metrics compared, "
              f"inputs {first[0]}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
