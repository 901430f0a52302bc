"""Steadiness check: run every workload over ten seeds, report the spread.

    python3 perfbench/steady.py

Runs `run.py` once per workload of BENCHMARK.json and seed 1 to 10, one
after another, and prints for every end-to-end metric the median, the first
and third quartiles and the quartile distance as a share of the median, next
to the metric's bound in BENCHMARK.json; also the share of failed
operations. The last line is the same table as JSON. These figures are what
the bounds were set from.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                return 1
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        rows = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs})}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": m["bound"]}
            print(f"  {m['name']:12s} median {med:.4g} {m['unit']}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {(q3 - q1) / med:.3f}  bound {m['bound']}")
        print(f"  failed share {rows['failed_share']}")
        summary[workload] = rows
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
