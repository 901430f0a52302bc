"""The four workloads: set-up, timed pass and reference checks for each.

Set-up builds the inputs a workload does not time; the pass calls localcut's
public functions through the package namespace at call time, so that a
tracer installed beforehand sees every call. Inputs come only from the
seed a pass is given; verify-all has none, it runs the suites at their defaults.
"""

from __future__ import annotations

import math
import os
import random
import time
import traceback
from fractions import Fraction

import numpy as np

import checks as C

WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".bench_build", "perfbench")
LARGE_N, LARGE_D = 10 ** 5, 5
SIM_N, SIM_D, SIM_FLIP_ROUNDS = 10 ** 4, 5, 5


class Ops:
    """Runs the operations of one pass, timing each and counting failures.

    Once an operation raises, the rest of the pass cannot run; they are
    counted as attempted and failed (with time 0), so every pass attempts
    the same operations in the same order.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[dict] = []
        self.seconds: list[float] = []

    def __call__(self, operation: str, fn, *args, at: dict | None = None, **kwargs):
        self.attempted += 1
        if self.failed:
            self.failed += 1
            self.seconds.append(0.0)
            return None
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # any raise is a failed operation, reported for replay
            self.failed += 1
            self.failures.append({"operation": operation, "params": at or {},
                                  "error": traceback.format_exc(limit=3)})
            return None
        finally:
            self.seconds.append(time.perf_counter() - started)


def _seeds(seed: int, *names: str) -> dict:
    rng = random.Random(seed)
    return {name: rng.randrange(2 ** 32) for name in names}


# -- verify-all ----------------------------------------------------------

def verify_setup(lc, seed):
    # The suites run at their code defaults, seed included, as `localcut
    # verify --suite all` does: the oracle corpus draws its vertex counts
    # from the seed, and its cost moves too much with them for run_s to be
    # steady across benchmark seeds.
    return {}


def verify_run(lc, inp, ops):
    return {"reports": {suite: ops(suite, fn) for suite, fn in lc.verify.SUITES.items()}}


def verify_counts(lc, inp, out):
    info = lc.verify._ratio_records.cache_info()
    return {"verify.cases": sum(r["cases"] for r in out["reports"].values() if r),
            "verify.corpus_cache_hits": info.hits,
            "verify.corpus_cache_misses": info.misses}


def verify_check(lc, inp, out, counts, ck):
    for suite, report in out["reports"].items():
        at = {"suite": suite}
        ck.check(report["pass"], suite, f"{report['violations']} violations: "
                 f"{report['first_violations'][:3]}", **at)
        want = C.expected_cases(suite, lc.verify.SUITES[suite])
        ck.check(report["cases"] == want, suite,
                 f"{report['cases']} cases, parameters imply {want}", **at)
    ck.check((counts["verify.corpus_cache_hits"], counts["verify.corpus_cache_misses"]) == (2, 1),
             "_ratio_records", "corpus cache did not start cold: "
             f"{counts['verify.corpus_cache_hits']} hits, "
             f"{counts['verify.corpus_cache_misses']} misses")


# -- large-instance ------------------------------------------------------

def large_setup(lc, seed):
    os.makedirs(WORK_DIR, exist_ok=True)
    return {"seeds": _seeds(seed, "graph", "orientation", "labelling", "cut"),
            "path": os.path.join(WORK_DIR, f"large-{os.getpid()}.txt")}


def large_run(lc, inp, ops):
    s, n, d = inp["seeds"], LARGE_N, LARGE_D
    out = {}
    out["g"] = g = ops("make_random_regular", lc.make_random_regular, n, d,
                       seed=s["graph"], at={"n": n, "d": d, "seed": s["graph"]})
    out["o"] = o = ops("make_random_orientation", lc.make_random_orientation, g,
                       seed=s["orientation"], at={"seed": s["orientation"]})
    out["lab"] = lab = ops("random_labelling", lc.random_labelling, n,
                           seed=s["labelling"], at={"n": n, "seed": s["labelling"]})
    out["o_id"] = o_id = ops("make_id_orientation", lc.make_id_orientation, g, lab)
    ops("write_graph", lc.write_graph, inp["path"], o_id, lab)
    out["back"] = ops("read_graph", lc.read_graph, inp["path"])
    out["med"] = med = ops("median_cut", lc.median_cut, g, lab)
    out["omc"] = ops("oriented_median_cut", lc.oriented_median_cut, o)
    out["plus"] = ops("oriented_median_plus_flips", lc.oriented_median_plus_flips, o, 2)
    flips = [med]
    for i in range(3):
        flips.append(ops("distributed_flip_step", lc.distributed_flip_step,
                         g, flips[-1], at={"round": i + 1}))
    out["flips"] = flips
    out["rnd"] = rnd = ops("random_cut", lc.random_cut, g, seed=s["cut"], at={"seed": s["cut"]})
    out["sizes"] = {
        "median": ops("cut_size", lc.cut_size, g, med, at={"cut": "median"}),
        "median_id": ops("dicut_size", lc.dicut_size, o_id, med, at={"cut": "median"}),
        "omc": ops("dicut_size", lc.dicut_size, o, out["omc"], at={"cut": "deficit"}),
        "flips": [ops("cut_size", lc.cut_size, g, c, at={"cut": f"flip{i}"})
                  for i, c in enumerate(flips[1:], 1)],
        "random": ops("cut_size", lc.cut_size, g, rnd, at={"cut": "random"}),
    }
    return out


def large_counts(lc, inp, out):
    if not os.path.exists(inp["path"]):  # write_graph failed or never ran
        return {"graphio.bytes": 0}
    size = os.path.getsize(inp["path"])
    os.remove(inp["path"])
    return {"graphio.bytes": size}


def large_check(lc, inp, out, counts, ck):
    n, d, seeds = LARGE_N, LARGE_D, inp["seeds"]
    keys = C.check_regular(ck, out["g"], n, d, "make_random_regular", n=n, d=d,
                           seed=seeds["graph"])
    if keys is None:
        return
    nbrs = C.nbrs_of(out["g"])
    arcs = C.check_orientation(ck, out["o"], keys, n, "make_random_orientation",
                               seed=seeds["orientation"])
    arcs_id = C.check_orientation(ck, out["o_id"], keys, n, "make_id_orientation")
    ids = C.ids_of(out["lab"])
    ck.check(len(ids) == n and len(np.unique(ids)) == n and ids.min() >= 1
             and ids.max() <= n ** 3, "random_labelling",
             "IDs are not n distinct values in [1, n^3]", seed=seeds["labelling"])
    ck.check(np.all(ids[arcs_id[:, 0]] < ids[arcs_id[:, 1]]), "make_id_orientation",
             "an arc runs from the higher ID to the lower")

    o_back, lab_back = out["back"]
    ck.check(lab_back is not None and np.array_equal(C.ids_of(lab_back), ids),
             "read_graph", "labelling changed in the file round trip")
    back = C.arcs_of(o_back)
    ck.check(np.array_equal(np.sort(back[:, 0] * n + back[:, 1]),
                            np.sort(arcs_id[:, 0] * n + arcs_id[:, 1])),
             "read_graph", "orientation changed in the file round trip")

    ref = C.median_sides(nbrs, ids)
    ck.check(np.array_equal(C.sides_of(out["med"]), ref), "median_cut",
             "differs from the sorted-neighbour-ID reference", seed=seeds["labelling"])
    ck.check(np.array_equal(ref, C.deficit_sides(arcs_id, n)), "median_cut",
             "median reference differs from the deficit cut of the ID orientation")
    size = C.cut_count(nbrs, ref)
    ck.check(size >= Fraction(n, 2) + Fraction(d * d - 1, 4), "median_cut",
             f"cut {size} below n/2 + (d^2-1)/4")
    sizes = out["sizes"]
    ck.check(sizes["median"] == size, "cut_size", f"{sizes['median']} != recount {size}")
    ck.check(sizes["median_id"] == C.dicut_count(arcs_id, ref), "dicut_size",
             "median cut on the ID orientation differs from recount")

    c0 = C.deficit_sides(arcs, n)
    ck.check(np.array_equal(C.sides_of(out["omc"]), c0), "oriented_median_cut",
             "differs from the deficit-sign reference", seed=seeds["orientation"])
    ck.check(sizes["omc"] == C.dicut_count(arcs, c0), "dicut_size",
             "deficit cut size differs from recount")
    c1 = C.unstable_flip(nbrs, c0)
    c2 = C.unstable_flip(nbrs, c1)
    want = tuple(C.dicut_count(arcs, c) for c in (c0, c1, c2))
    final, got = out["plus"]
    ck.check(tuple(got) == want and np.array_equal(C.sides_of(final), c2),
             "oriented_median_plus_flips", f"sizes {got} != reference {want}")
    ck.check(2 * want[0] >= n and want[0] <= want[1] <= want[2],
             "oriented_median_plus_flips", f"CUT_0..2 = {want} break n/2 <= CUT_0 <= CUT_1 <= CUT_2")

    sides = ref
    for i, (cut, reported) in enumerate(zip(out["flips"][1:], sizes["flips"]), 1):
        sides = C.majority_flip(nbrs, sides)
        ck.check(np.array_equal(C.sides_of(cut), sides), "distributed_flip_step",
                 "differs from the strict-majority reference", round=i)
        ck.check(reported == C.cut_count(nbrs, sides), "cut_size",
                 "flip cut size differs from recount", round=i)

    rnd = C.sides_of(out["rnd"])
    ck.check(len(rnd) == n and set(np.unique(rnd)) <= {0, 1}, "random_cut",
             "not a two-sided cut of every vertex", seed=seeds["cut"])
    ck.check(sizes["random"] == C.cut_count(nbrs, rnd), "cut_size",
             "random cut size differs from recount")
    ck.check(counts["graphio.bytes"] > 0, "write_graph", "empty graph file")


# -- congest-sim ---------------------------------------------------------

def congest_setup(lc, seed):
    s = _seeds(seed, "graph", "labelling")
    g = lc.make_random_regular(SIM_N, SIM_D, seed=s["graph"])
    lab = lc.random_labelling(SIM_N, seed=s["labelling"])
    return {"seeds": s, "g": g, "lab": lab, "width": int(max(lab.ids)).bit_length()}


def congest_run(lc, inp, ops):
    g, lab, width = inp["g"], inp["lab"], inp["width"]
    out = {"median": ops("run(MedianProgram)", lc.run, lc.MedianProgram(width), g, lab,
                         at={"id_width": width})}
    for b in (1, 8):
        out[f"b{b}"] = ops("run_bit_serialized_median", lc.run_bit_serialized_median,
                           g, lab, b, at={"chunk_bits": b})
    cut = out["median"][0] if out["median"] else None
    side_of = dict(zip(lab.ids, cut.sides)) if cut else {}
    out["flip"] = ops("run(FlipProgram)", lc.run,
                      lc.FlipProgram(side_of.__getitem__, SIM_FLIP_ROUNDS), g, lab,
                      at={"rounds": SIM_FLIP_ROUNDS, "start": "median cut"})
    return out


def congest_check(lc, inp, out, counts, ck):
    n, d, w = SIM_N, SIM_D, inp["width"]
    nbrs, ids = C.nbrs_of(inp["g"]), C.ids_of(inp["lab"])
    ref = C.median_sides(nbrs, ids)
    for key, b in (("median", w), ("b1", 1), ("b8", 8)):
        cut, trace = out[key]
        at = {"chunk_bits": b, "seeds": inp["seeds"]}
        ck.check(np.array_equal(C.sides_of(cut), ref), key,
                 "simulated median cut differs from the reference", **at)
        want = (math.ceil(w / b), n * d * w, min(b, w))
        got = (trace.rounds_used, trace.total_bits, trace.max_message_bits)
        ck.check(got == want, key, f"(rounds, total bits, max bits) {got} != {want}", **at)
    sides = ref
    for _ in range(SIM_FLIP_ROUNDS):
        sides = C.majority_flip(nbrs, sides)
    cut, trace = out["flip"]
    ck.check(np.array_equal(C.sides_of(cut), sides), "run(FlipProgram)",
             "simulated FLIP differs from the strict-majority reference",
             seeds=inp["seeds"])
    want = (SIM_FLIP_ROUNDS, n * d * SIM_FLIP_ROUNDS)
    ck.check((trace.rounds_used, trace.total_bits) == want, "run(FlipProgram)",
             f"(rounds, total bits) {(trace.rounds_used, trace.total_bits)} != {want}")


# -- oracle-edge ---------------------------------------------------------

def _bipartite(nbrs: np.ndarray) -> bool:
    color = [-1] * len(nbrs)
    for start in range(len(nbrs)):
        if color[start] >= 0:
            continue
        color[start], stack = 0, [start]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def oracle_setup(lc, seed):
    rng = random.Random(seed)
    s = {k: rng.randrange(2 ** 32) for k in ("g22", "o22", "g16", "o16")}
    inp = {"abcd3": lc.make_abcd_instance(3, 24), "abcd5": lc.make_abcd_instance(5, 20),
           "r22": lc.make_random_orientation(lc.make_random_regular(22, 5, seed=s["g22"]),
                                             seed=s["o22"]),
           "r16": lc.make_random_orientation(lc.make_random_regular(16, 5, seed=s["g16"]),
                                             seed=s["o16"])}
    while True:  # a random cubic graph on 24 vertices is bipartite only rarely
        s["g24"] = rng.randrange(2 ** 32)
        inp["c24"] = lc.make_random_regular(24, 3, seed=s["g24"])
        if not _bipartite(C.nbrs_of(inp["c24"])):
            break
    inp["seeds"] = s
    return inp


SHAPES = {"abcd3": (24, 3), "abcd5": (20, 5), "r22": (22, 5), "r16": (16, 5), "c24": (24, 3)}


def oracle_run(lc, inp, ops):
    out = {key: ops("max_dicut_exact", lc.max_dicut_exact, inp[key], at={"instance": key})
           for key in ("abcd3", "abcd5", "r22")}
    out["c24"] = ops("max_cut_exact", lc.max_cut_exact, inp["c24"], at={"instance": "c24"})
    out["r16"] = ops("enumerate_max_dicuts", lc.enumerate_max_dicuts, inp["r16"],
                     at={"instance": "r16"})
    return out


def _cut2(o) -> int:
    nbrs, arcs = C.nbrs_of(o.graph), C.arcs_of(o)
    sides = C.deficit_sides(arcs, len(nbrs))
    for _ in range(2):
        sides = C.unstable_flip(nbrs, sides)
    return C.dicut_count(arcs, sides)


def oracle_check(lc, inp, out, counts, ck):
    seeds = inp["seeds"]
    for key, (n, d) in SHAPES.items():
        graph = getattr(inp[key], "graph", inp[key])
        keys = C.check_regular(ck, graph, n, d, key, seeds=seeds)
        if keys is not None and key != "c24":
            C.check_orientation(ck, inp[key], keys, n, key, seeds=seeds)
    for key in ("abcd3", "abcd5"):
        (n, d), opt = SHAPES[key], out[key][0]
        ck.check(opt == C.abcd_optimum(d, n), "max_dicut_exact",
                 f"ABCD({d},{n}) optimum {opt} != {C.abcd_optimum(d, n)}")
    for key in ("abcd3", "abcd5", "r22"):
        opt, witness = out[key]
        arcs = C.arcs_of(inp[key])
        got = C.dicut_count(arcs, C.sides_of(witness))
        ck.check(got == opt, "max_dicut_exact", f"witness cuts {got}, OPT {opt}",
                 instance=key, seeds=seeds)
        cut2 = _cut2(inp[key])
        ck.check(opt >= cut2, "max_dicut_exact", f"OPT {opt} < CUT_2 {cut2}",
                 instance=key, seeds=seeds)

    g = inp["c24"]
    nbrs = C.nbrs_of(g)
    opt, witness = out["c24"]
    got = C.cut_count(nbrs, C.sides_of(witness))
    local = C.sequential_local_search(nbrs)
    ck.check(got == opt, "max_cut_exact", f"witness cuts {got}, OPT {opt}", seed=seeds["g24"])
    ck.check(local <= opt < g.m, "max_cut_exact",
             f"OPT {opt} outside [maximal cut {local}, m-1]", seed=seeds["g24"])

    o = inp["r16"]
    opt, cuts = out["r16"]
    best, masks = C.brute_max_dicuts(C.arcs_of(o), o.graph.n)
    got = {C.mask_of(C.sides_of(c)) for c in cuts}
    ck.check(opt == best and got == masks and len(cuts) == len(masks),
             "enumerate_max_dicuts", f"OPT {opt} with {len(cuts)} cuts; brute force "
             f"{best} with {len(masks)}", seeds=seeds)
    ck.check(opt >= _cut2(o), "enumerate_max_dicuts", "OPT below CUT_2", seeds=seeds)


def no_counts(lc, inp, out):
    return {}


# name -> (set-up, pass, counts read after the pass, checks)
WORKLOADS = {
    "verify-all": (verify_setup, verify_run, verify_counts, verify_check),
    "large-instance": (large_setup, large_run, large_counts, large_check),
    "congest-sim": (congest_setup, congest_run, no_counts, congest_check),
    "oracle-edge": (oracle_setup, oracle_run, no_counts, oracle_check),
}
