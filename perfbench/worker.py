"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed SEED [--trace 1]

Imports localcut from the checkout's ``src``, builds the inputs the workload
does not time, runs the timed pass, then the reference checks, and prints
one JSON object as its last line of output. This is also how to replay a
single failing pass: `run.py` prints the command.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import checks
from tracer import Tracer
from workloads import Ops, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_localcut():
    """Import localcut from this checkout, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "localcut", "__init__.py")):
        sys.exit(f"perfbench: no localcut package under {SRC}")
    sys.path.insert(0, SRC)
    import localcut

    if not os.path.abspath(localcut.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported localcut from {localcut.__file__}, not {SRC}")
    return localcut


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    lc = import_localcut()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup, run_pass, read_counts, check = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    inputs = setup(lc, args.seed)
    setup_s = time.monotonic() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = Ops()
    started = time.perf_counter()
    outputs = run_pass(lc, inputs, ops)
    run_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.remove()

    counts = read_counts(lc, inputs, outputs)
    ck = checks.Checker()
    if not ops.failed:
        check(lc, inputs, outputs, counts, ck)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": ops.seconds,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "check_failures": ck.failures,
    }
    if tracer:
        layers = tracer.layer_metrics(lc.verify.SUITES)
        for key in ("verify.cases", "verify.corpus_cache_hits",
                    "verify.corpus_cache_misses", "graphio.bytes"):
            layers[key] = counts.get(key, 0)
        result["layers"] = layers
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
