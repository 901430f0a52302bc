"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 33 --trace 0

Every pass runs in a fresh interpreter (`worker.py`), one after another, so
each pays what a command-line user pays: interpreter start, `import
localcut`, lazy imports and a cold corpus cache. Every pass of a run works
on the inputs of the run's seed; passes repeat while another one fits in
`--seconds` (a run makes at least one). With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
passes and reports the per-layer metrics of the fastest traced pass plus
the tracing overhead. Metric names and units come from BENCHMARK.json.

`run_s` is the sum, over the operations of a pass, of each operation's
fastest time among the run's passes: `timeit`'s reasoning (slower repeats
of the same work are slowed by something else) applied per operation. On a
2-core virtual machine shared with other tenants, pure-Python work ran up
to 1.7 times slower than its median in phases of a few to tens of seconds,
all of it user CPU time. A whole pass of several seconds rarely falls
entirely in a fast phase, each operation often does. `setup_s` and
`peak_rss_mb` are medians.

A failed operation or check is printed to stderr with the workload, seeds,
operation and parameters, and the command that replays that pass alone; the
run then reports `correct: false` and exits 1. A pass with a failed
operation is left out of the timings. A pass still running `MARGIN_S` after
`--seconds` is stopped and the run exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
MARGIN_S = 120.0


def spawn(workload: str, seed: int, trace: int, deadline: float, setup_only=False) -> dict:
    """Run one worker interpreter to completion and return its result."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: worker stopped at the run's deadline: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def fastest_ops(passes: list[dict]) -> float:
    """Sum over operations of each operation's fastest time among the passes."""
    return sum(min(times) for times in zip(*(r["op_s"] for r in passes)))


def report_failures(workload: str, seed: int, result: dict) -> None:
    replay = f"python3 perfbench/worker.py --workload {workload} --seed {seed} --trace 0"
    for kind in ("failures", "check_failures"):
        for f in result[kind]:
            print(f"perfbench: {kind[:-1].replace('_', ' ')} workload={workload} "
                  f"seed={seed} operation={f['operation']} "
                  f"params={json.dumps(f['params'], default=str)}\n"
                  f"  {f.get('detail') or f.get('error', '').strip()}\n"
                  f"  replay: {replay}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "localcut", "__init__.py")):
        sys.exit(f"perfbench: no localcut package under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    started = time.monotonic()
    deadline = started + seconds + MARGIN_S
    plain, traced = [], []
    while True:
        plain.append(spawn(args.workload, args.seed, 0, deadline))
        if args.trace:
            traced.append(spawn(args.workload, args.seed, 1, deadline))
        elapsed = time.monotonic() - started
        if elapsed * (len(plain) + 1) / len(plain) > seconds:  # the next one would not fit
            break
    setups = [r["setup_s"] for r in plain]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"])

    passes = plain + traced
    for r in passes:
        report_failures(args.workload, args.seed, r)
    correct = not any(r["failed"] or r["check_failures"] for r in passes)
    # An operation after a failure is not run and reads 0 s; keep such passes
    # out of the timings (unless every pass failed: the run is incorrect then).
    plain = [r for r in plain if not r["failed"]] or plain
    traced = [r for r in traced if not r["failed"]] or traced
    print(f"{args.workload} pass wall times (s): " + " ".join(f"{r['run_s']:.3f}" for r in plain))
    if args.trace:
        values = dict(min(traced, key=lambda r: r["run_s"])["layers"])
        values["trace.overhead_s"] = fastest_ops(traced) - fastest_ops(plain)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "run_s": fastest_ops(plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
