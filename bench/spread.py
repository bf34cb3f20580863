#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload cold-session --seeds 1-10

Runs ``bench/run.py`` untraced, one seed after another, in one process
at a time, with ``run_seconds`` from ``BENCHMARK.json``.  For every metric it
prints the median, the quartiles from ``statistics.quantiles(n=4)`` and
the interquartile distance as a share of the median, next to the
metric's bound.  The runs' result lines go to
``bench/results/spread-<workload>-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)

    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"correct: {all(r['correct'] for r in results)}; (failed, attempted): {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"iqr/median {spread:7.4f}  bound {bounds.get(name)}")
    out = BENCH_DIR / "results" / f"spread-{args.workload}-{args.label or args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
