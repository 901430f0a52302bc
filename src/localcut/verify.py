"""Verification suites: run a guarantee against a seeded corpus, report.

Each suite returns a plain dict (JSON-ready) with a boolean "pass", case
counts, and a bounded list of violation descriptions. The CLI exposes them
via `verify --suite`; the acceptance tests assert on the same reports, so
there is exactly one implementation of every check.

All comparisons against guaranteed values are exact (integers, Fractions).

The seeded random corpora (median-floor, the oriented-ratio floor, the
oracle corpus shared by three suites, flip-monotonicity) are checked as
disjoint unions. Every rule here decides a vertex from its radius-1 ball,
so a rule run once on a union gives each component the cut it gets alone.
make_random_regular_union builds the graphs of many cases in one batched
pairing pass, each from its own seed, and per-case counts are cumulative
sums cut at the component offsets. Each suite still draws its cases from
its seed in the same order, so its report equals a per-case loop's.

The oracle corpus calls the exact oracle once per case, on the case's
component of its union taken as it is (no graph or orientation is rebuilt
or checked), and then runs the flip ledger once per union:
bounds.decompose on the union with every witness side by side, and
bounds._flip_ledgers, which cuts every count at the component offsets. The
decomposition reaches the rules through bounds, so a rule swapped here
changes the suites that call it, not the ledger. median-floor decodes the
random labellings of a union at once (graphs._sampled_ids), each exactly
random_labelling's IDs for its seed.

folklore's random cuts are decoded a block of seeds at a time: coin_flips
turns one generator, reseeded per trial, into one column of a
vertices-by-trials side matrix, and one gather per edge endpoint counts
every trial's cut, each equal to cut_size(g, random_cut(g, seed)).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import bounds
from .algorithms import (
    median_cut,
    oriented_median_cut,
    stable_vertices,
    unstable_flip_step,
)
from .errors import InvalidParameterError
from .generators import (
    complete_graph,
    make_abcd_instance,
    make_circulant,
    make_double_circulant,
    make_id_orientation,
    make_random_orientation_union,
    make_random_regular,
    make_random_regular_union,
    orient_clockwise,
)
from .graphs import (
    Cut,
    Labelling,
    Orientation,
    RegularGraph,
    _reseeded,
    _sampled_ids,
    _seeded,
    coin_flips,
    component_counts,
    component_offsets,
    cut_edges,
    dicut_arcs,
    identity_labelling,
    is_bipartite,
    random_labelling,
)
from .oracle import max_cut_exact, max_dicut_exact

_MAX_REPORTED = 20
# At most this many stubs (vertices times degree) per union, so each of its
# int64 arrays stays within 128 KiB: a union of a degree's whole corpus
# raised the peak memory of `verify --suite all` from 37.6 MB to 44 MB.
_UNION_STUBS = 1 << 14
# Coin flips per folklore block, one 32-bit word each: the block's words,
# side matrix and per-edge gathers stay near 1 MB (65 trials at n = 1000).
_COINS = 1 << 16


def _report(suite: str, cases: int, violations: list[str], started: float,
            **extra) -> dict:
    return {
        "suite": suite,
        "cases": cases,
        "violations": len(violations),
        "first_violations": violations[:_MAX_REPORTED],
        "pass": not violations,
        "elapsed_s": round(time.monotonic() - started, 3),
        **extra,
    }


def _even_n(rng: random.Random, d: int, max_n: int) -> int:
    lo = (d + 2) // 2 + 1  # smallest half so that 2*half > d
    return 2 * rng.randrange(lo, max_n // 2 + 1)


def double_circulant_halves(d: int) -> tuple[int, ...]:
    """Family sizes exercised per degree: smallest legal, 2d, and 12."""
    return tuple(sorted({max(2 * (d - 1), d + 1), 2 * d, 12}))


def _runs(sizes: list[int]) -> list[slice]:
    """Consecutive runs of the items, each of total size at most
    _UNION_STUBS unless it is a single item."""
    runs, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if total + size > _UNION_STUBS and i > start:
            runs.append(slice(start, i))
            start, total = i, 0
        total += size
    return runs + [slice(start, len(sizes))] if sizes else runs


def _union(blocks: list[np.ndarray], d: int) -> RegularGraph:
    """Disjoint union of adjacency blocks, block k shifted past the others."""
    offsets = component_offsets([len(b) for b in blocks]).tolist()
    return RegularGraph(np.concatenate([b + off for b, off in zip(blocks, offsets)]), d=d)


def _blocks(g: RegularGraph, ns: list[int]) -> list[np.ndarray]:
    """The adjacency of each component of a union, in its own vertex numbers."""
    offsets = component_offsets(ns).tolist()
    return [g.adj[a:b] - a for a, b in zip(offsets[:-1], offsets[1:])]


def _draw_case(rng: random.Random, d: int, max_n: int) -> tuple[int, int, int, int]:
    """(d, n, graph seed, orientation seed) of one random orientation."""
    n = _even_n(rng, d, max_n)
    return d, n, rng.randrange(2 ** 32), rng.randrange(2 ** 32)


def _oriented_unions(cases: list[tuple[int, int, int, int]]
                     ) -> Iterator[tuple[list[int], Orientation]]:
    """Unions of the cases of one degree, up to _UNION_STUBS stubs each,
    built one at a time: per union, the indices of its cases and one
    orientation whose components are those cases, in order. Component k is
    the lone make_random_orientation(make_random_regular(n, d, graph seed),
    orientation seed) of case k."""
    by_degree: dict[int, list[int]] = {}
    for i, case in enumerate(cases):
        by_degree.setdefault(case[0], []).append(i)
    for d, indices in by_degree.items():
        for run in _runs([cases[i][1] * d for i in indices]):
            idx = indices[run]
            ns = [cases[i][1] for i in idx]
            g = make_random_regular_union(ns, d, [cases[i][2] for i in idx])
            yield idx, make_random_orientation_union(g, ns, [cases[i][3] for i in idx])


def _components(o: Orientation, ns: list[int]) -> Iterator[Orientation]:
    """Each component of a union from _oriented_unions, with ns[k] vertices,
    as the orientation it is alone: its rows of the adjacency and of the
    arcs, renumbered from 0 and kept unchecked."""
    d, offsets = o.graph.d, component_offsets(ns).tolist()
    for a, b in zip(offsets[:-1], offsets[1:]):
        g = RegularGraph._trusted(o.graph.adj[a:b] - a)
        yield Orientation._trusted(g, o.arcs[a * d // 2:b * d // 2] - a)


def _median_cut_sizes(blocks: list[np.ndarray], seeds: list[int], d: int
                      ) -> list[tuple[int, int]]:
    """(k, cut size) for each case k below the median floor: case k is the
    median cut of graph blocks[k] under random_labelling(seed=seeds[k])."""
    ns = [len(b) for b in blocks]
    shift = max(ns) ** 3 + 1  # random_labelling's IDs lie in [1, n^3]
    g = _union(blocks, d)
    ids = _sampled_ids(ns, seeds, [n ** 3 for n in ns])
    ids += np.repeat(np.arange(len(ns), dtype=np.int64) * shift, ns)
    lab = Labelling(ids, id_bound=len(ns) * shift)
    sizes = component_counts(cut_edges(g, median_cut(g, lab)), component_offsets(ns) * d // 2)
    # the floor n/2 + (d^2 - 1)/4, times 4
    low = np.flatnonzero(4 * sizes < 2 * np.array(ns) + d * d - 1)
    return list(zip(low.tolist(), sizes[low].tolist()))


def verify_median_floor(seed: int = 0, degrees: tuple[int, ...] = (3, 5, 7),
                        random_graphs: int = 50,
                        labellings_per_graph: int = 10) -> dict:
    """Median cut >= n/2 + (d-1)(d+1)/4 on families and random graphs.

    Each (graph, labelling) case is one component of a union, and the
    median rule runs once per union: case k's IDs are shifted by k(B+1),
    B the largest ID bound, so every comparison stays inside its component
    and each case gets the cut it gets alone. The floor is compared in
    integers, as 4*cut < 2n + d^2 - 1.
    """
    started = time.monotonic()
    rng = _seeded(seed)
    violations: list[str] = []
    cases = 0
    for d in degrees:
        blocks = [make_double_circulant(n, d).adj for n in double_circulant_halves(d)]
        ns, seeds = [], []
        for _ in range(random_graphs):
            ns.append(_even_n(rng, d, 40))
            seeds.append(rng.randrange(2 ** 32))
        if ns:
            blocks += _blocks(make_random_regular_union(ns, d, seeds), ns)
        lab_seeds = [rng.randrange(2 ** 32) for _ in blocks for _ in range(labellings_per_graph)]
        if not lab_seeds:
            continue
        cases += len(lab_seeds)
        for run in _runs([len(b) * d * labellings_per_graph for b in blocks]):
            part = [b for b in blocks[run] for _ in range(labellings_per_graph)]
            seeds = lab_seeds[run.start * labellings_per_graph:run.stop * labellings_per_graph]
            for k, size in _median_cut_sizes(part, seeds, d):
                n = len(part[k])
                violations.append(
                    f"d={d} n={n} ids={random_labelling(n, seed=seeds[k]).origin}: "
                    f"cut {size} < floor {bounds.median_floor(n, d)}"
                )
    return _report("median-floor", cases, violations, started)


@lru_cache(maxsize=4)
def _ratio_records(degrees: tuple[int, ...], cases_per_degree: int,
                   max_n: int, seed: int) -> tuple[dict, ...]:
    """Shared corpus: random orientations with oracle OPT and flip ledgers,
    one bounds._flip_ledgers record per case.

    Cached because three suites (ratio, inequalities, two-flip floor) read
    the same records and the oracle pass is the expensive part. The oracle
    runs once per case, on its component of the union; the decomposition
    and the ledger run once per union, with every case's witness side by
    side.
    """
    rng = _seeded(seed)
    cases = [_draw_case(rng, d, max_n) for d in degrees for _ in range(cases_per_degree)]
    records: list[dict] = [{}] * len(cases)
    for idx, union in _oriented_unions(cases):
        ns = [cases[i][1] for i in idx]
        witness = Cut(np.concatenate([max_dicut_exact(o)[1].sides for o in _components(union, ns)]))
        for i, record in zip(idx, bounds._flip_ledgers(bounds.decompose(union, witness), ns)):
            records[i] = record
    return tuple(records)


def verify_oriented_ratio(seed: int = 0,
                          floor_degrees: tuple[int, ...] = (3, 5, 7),
                          floor_cases: int = 500,
                          floor_max_n: int = 100,
                          ratio_degrees: tuple[int, ...] = (3, 5),
                          ratio_cases_per_degree: int = 100,
                          ratio_max_n: int = 20) -> dict:
    """Deficit cut >= n/2 always, and >= 2d/(d^2+1) * OPT against the oracle."""
    started = time.monotonic()
    rng = _seeded(seed)
    violations: list[str] = []
    floor = [_draw_case(rng, floor_degrees[i % len(floor_degrees)], floor_max_n)
             for i in range(floor_cases)]
    sizes = [0] * len(floor)
    for idx, o in _oriented_unions(floor):
        offsets = component_offsets([floor[i][1] for i in idx]) * o.graph.d // 2
        cut = dicut_arcs(o, oriented_median_cut(o))
        for i, size in zip(idx, component_counts(cut, offsets).tolist()):
            sizes[i] = size
    cases = len(floor)
    for (d, n, _, _), size in zip(floor, sizes):
        if 2 * size < n:
            violations.append(f"d={d} n={n}: dicut {size} < n/2")
    for rec in _ratio_records(ratio_degrees, ratio_cases_per_degree,
                              ratio_max_n, seed):
        ratio = bounds.oriented_ratio(rec["d"])
        cases += 1
        if Fraction(rec["cuts"][0]) < ratio * rec["opt"]:
            violations.append(
                f"d={rec['d']} n={rec['n']}: dicut {rec['cuts'][0]} < "
                f"{ratio} * OPT({rec['opt']})"
            )
    return _report("oriented-ratio", cases, violations, started)


def verify_flip_inequalities(seed: int = 0,
                             degrees: tuple[int, ...] = (3, 5),
                             cases_per_degree: int = 100,
                             max_n: int = 20) -> dict:
    """The nine flip inequalities on the shared corpus, plus tight cases."""
    started = time.monotonic()
    violations: list[str] = []
    cases = 0
    for rec in _ratio_records(degrees, cases_per_degree, max_n, seed):
        cases += 1
        for v in rec["verdicts"].values():
            if not v.holds:
                violations.append(
                    f"d={rec['d']} n={rec['n']}: {v.name} fails "
                    f"({v.lhs} < {v.rhs})"
                )

    # Tightness: complete graph on 4 vertices under the ID orientation
    # pins eq1 at 4 = 4; the (3,12) four-set instance pins eq2 at 6 = 6.
    k4 = make_id_orientation(complete_graph(4), identity_labelling(4))
    _, w4 = max_dicut_exact(k4)
    v4 = bounds.check_inequalities(bounds.decompose(k4, w4))["eq1"]
    cases += 1
    if not (v4.lhs == v4.rhs == 4):
        violations.append(f"eq1 on K4 not tight at 4: {v4.lhs} vs {v4.rhs}")
    abcd = make_abcd_instance(3, 12)
    _, wa = max_dicut_exact(abcd)
    va = bounds.check_inequalities(bounds.decompose(abcd, wa))["eq2"]
    cases += 1
    if not (va.lhs == va.rhs == 6):
        violations.append(f"eq2 on ABCD(3,12) not tight at 6: {va.lhs} vs {va.rhs}")
    return _report("flip-inequalities", cases, violations, started)


def verify_two_flip_floor(seed: int = 0,
                          degrees: tuple[int, ...] = (3, 5),
                          cases_per_degree: int = 100,
                          max_n: int = 20) -> dict:
    """CUT_2 >= two_flip_floor(d) * OPT on the shared corpus, exactly."""
    started = time.monotonic()
    violations: list[str] = []
    cases = 0
    if bounds.two_flip_floor(3) != Fraction(71, 115):
        violations.append("two_flip_floor(3) != 71/115")
    for rec in _ratio_records(degrees, cases_per_degree, max_n, seed):
        floor = bounds.two_flip_floor(rec["d"])
        cases += 1
        if Fraction(rec["cuts"][2]) < floor * rec["opt"]:
            violations.append(
                f"d={rec['d']} n={rec['n']}: CUT_2 {rec['cuts'][2]} < "
                f"{floor} * OPT({rec['opt']})"
            )
    return _report("two-flip-floor", cases, violations, started)


def verify_flip_monotonicity(seed: int = 0, cases: int = 1000,
                             degrees: tuple[int, ...] = (3, 5, 7),
                             max_n: int = 30, flips: int = 4) -> dict:
    """Stable sets and dicut arc sets only grow under simultaneous flips.

    The cases are the components of a few unions of one degree each, and
    each flip runs once per union; every check is split per case.
    """
    started = time.monotonic()
    rng = _seeded(seed)
    corpus = [_draw_case(rng, degrees[i % len(degrees)], max_n) for i in range(cases)]
    # bad[i, j]: case i's stable set shrank, arcs left, size fell at flip j
    bad = np.zeros((cases, flips, 3), dtype=bool)
    for idx, o in _oriented_unions(corpus):
        g, voffsets = o.graph, component_offsets([corpus[i][1] for i in idx])
        eoffsets = voffsets * g.d // 2
        c = oriented_median_cut(o)
        stable = stable_vertices(g, c)
        arcs = dicut_arcs(o, c)
        for j in range(flips):
            c_next = unstable_flip_step(o, c)
            stable_next = stable_vertices(g, c_next)
            arcs_next = dicut_arcs(o, c_next)
            bad[idx, j, 0] = component_counts(stable & ~stable_next, voffsets) > 0
            bad[idx, j, 1] = component_counts(arcs & ~arcs_next, eoffsets) > 0
            bad[idx, j, 2] = (component_counts(arcs_next, eoffsets)
                              < component_counts(arcs, eoffsets))
            c, stable, arcs = c_next, stable_next, arcs_next
    what = ("stable set shrank", "dicut arcs left the cut", "dicut size decreased")
    violations = [f"case {i}: {what[k]}" for i, _, k in zip(*np.nonzero(bad))]
    return _report("flip-monotonicity", cases, violations, started)


def _circulant_rows(n: int, d: int) -> np.ndarray:
    """The adjacency of C_n^d in closed form: row i is i +- k (mod n) for
    every odd k < d, sorted."""
    i, jumps = np.arange(n)[:, None], np.arange(1, d, 2)
    rows = np.hstack([(i + jumps) % n, (i - jumps) % n])
    rows.sort(axis=1)
    return rows


def _double_circulant_rows(n: int, d: int) -> np.ndarray:
    """The adjacency of D^d on 2n vertices in closed form: two copies of
    C_n^(d-1), outer i and inner n+i, plus the matching i <-> n+i."""
    c, i = _circulant_rows(n, d - 1), np.arange(n)[:, None]
    rows = np.vstack([np.hstack([c, n + i]), np.hstack([n + c, i])])
    rows.sort(axis=1)
    return rows


def verify_constructions(seed: int = 0, max_n: int = 40) -> dict:
    """Closed-form adjacency and bipartiteness across the circulant
    families, plus the frozen oracle values for C_12^4 and the clockwise
    D_12^3.

    `seed` keeps the signature uniform across suites; the corpus is fixed.
    """
    started = time.monotonic()
    violations: list[str] = []
    cases = 0
    for d in (2, 4, 6):
        for n in range(2 * d, max_n + 1, 2):
            g = make_circulant(n, d)
            cases += 1
            if not np.array_equal(g.adj, _circulant_rows(n, d)):
                violations.append(f"C_{n}^{d} is not i ~ i +- k (mod {n}) for odd k < {d}")
            if not is_bipartite(g)[0]:
                violations.append(f"C_{n}^{d} not bipartite")
    for d in (3, 5, 7):
        for n in range(2 * (d - 1), max_n + 1, 2):
            g = make_double_circulant(n, d)
            cases += 1
            if not np.array_equal(g.adj, _double_circulant_rows(n, d)):
                violations.append(
                    f"D_{2 * n}^{d} is not two C_{n}^{d - 1} joined by i ~ {n}+i")
            if not is_bipartite(g)[0]:
                violations.append(f"D_{2 * n}^{d} not bipartite")

    size, _ = max_cut_exact(make_circulant(12, 4))
    cases += 1
    if size != 24:
        violations.append(f"maxcut(C_12^4) = {size}, expected 24 (= m)")
    size, _ = max_dicut_exact(orient_clockwise(make_double_circulant(6, 3)))
    cases += 1
    if size != 9:
        violations.append(f"maxdicut(clockwise D_12^3) = {size}, expected 9 (= m/2)")
    return _report("constructions", cases, violations, started)


def verify_claim1(seed: int = 0, max_k: int = 5, max_n: int = 4) -> dict:
    """log*(twr_k(n)) = k - 1 + log*(n) wherever the tower is representable.

    `seed` keeps the signature uniform across suites; the corpus is fixed.
    """
    started = time.monotonic()
    violations: list[str] = []
    cases = 0
    skipped = 0
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            try:
                t = bounds.tower(k, n)
            except OverflowError:
                skipped += 1
                continue
            cases += 1
            got = bounds.log_star(t)
            want = k - 1 + bounds.log_star(n)
            if got != want:
                violations.append(f"k={k} n={n}: log*={got}, expected {want}")
    return _report("claim1", cases, violations, started, skipped=skipped)


def verify_claim2(seed: int = 0, degrees: tuple[int, ...] = (4, 6),
                  max_n: int = 60, max_r: int = 25) -> dict:
    """Inner-window edge counts beat l*d/2 - d(r-1)/2 - d^2/2 on all grids.

    `seed` keeps the signature uniform across suites; the corpus is fixed.
    """
    started = time.monotonic()
    violations: list[str] = []
    cases = 0
    for d in degrees:
        for n in range(2 * d, max_n + 1, 4):
            window_counts = bounds.window_edge_counts(make_circulant(n, d), 0)
            failed = []
            for r in range(1, min(n, max_r) + 1, 2):
                lengths, counts, ok = bounds.check_window_bounds(window_counts, d, r)
                cases += len(lengths)
                failed += [(length, r, count) for length, count
                           in zip(lengths[~ok].tolist(), counts[~ok].tolist())]
            for length, r, count in sorted(failed):
                violations.append(
                    f"C_{n}^{d} l={length} r={r}: {count} < "
                    f"{bounds.window_bound(d, length, r)}"
                )
    count = int(bounds.window_edge_counts(make_circulant(12, 4), 0)[6])
    cases += 1
    if count != 8:
        violations.append(f"window count C_12^4 l=6: {count}, expected 8")
    return _report("claim2", cases, violations, started)


def verify_folklore(seed: int = 0, trials: int = 10 ** 4,
                    n: int = 1000, d: int = 5) -> dict:
    """Random cuts average m/2; almost none fall below 0.45m.

    Trial k cuts with random_cut(g, seed + 1 + k), k = 0..trials-1, where g is
    make_random_regular(n, d, seed); pre: trials >= 1 and seed >= 0.
    """
    if trials < 1:
        raise InvalidParameterError(f"folklore needs trials >= 1, got {trials}")
    started = time.monotonic()
    g = make_random_regular(n, d, seed=seed)
    u, v = g.edges().T
    total, below, m = 0, 0, g.m
    block, stop = max(1, _COINS // n), seed + 1 + trials
    for first in range(seed + 1, stop, block):
        seeds = range(first, min(first + block, stop))
        # column j is random_cut(g, seeds[j]).sides
        sides = coin_flips(_reseeded(seeds), [n] * len(seeds))
        sides = np.ascontiguousarray(sides.reshape(len(seeds), n).T)
        cut = sides[u]
        cut ^= sides[v]
        sizes = cut.sum(axis=0, dtype=np.int64)
        total += int(sizes.sum())
        below += int(np.count_nonzero(20 * sizes < 9 * m))  # s < 0.45m
    violations = []
    if 100 * abs(2 * total - trials * m) > trials * m:  # mean off m/2 by > 1%
        violations.append(f"mean {total / trials} strays more than 1% from {m / 2}")
    if 100 * below > trials:
        violations.append(f"{below} of {trials} cuts below 0.45m")
    return _report(
        "folklore", trials, violations, started,
        mean=round(total / trials, 3), expected=m / 2, below_045m=below,
    )


SUITES = {
    "median-floor": verify_median_floor,
    "oriented-ratio": verify_oriented_ratio,
    "flip-inequalities": verify_flip_inequalities,
    "two-flip-floor": verify_two_flip_floor,
    "flip-monotonicity": verify_flip_monotonicity,
    "constructions": verify_constructions,
    "claim1": verify_claim1,
    "claim2": verify_claim2,
    "folklore": verify_folklore,
}
