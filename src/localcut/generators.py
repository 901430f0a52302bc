"""Graph and instance generators.

Covers the adversarial circulant families, their clockwise orientations,
the four-set sharpness instance for the oriented-median ratio, the labelling
that drives the median cut down to its floor, pairing-model random regular
graphs, and the instance on which one round of flips gains nothing.

Every generator is deterministic: randomness only enters through an explicit
seed argument.

The pairing model has one implementation, batched: make_random_regular_union
pairs the stubs of many graphs in one numpy pass per round, each graph with
its own random.Random(seed), so every component equals the graph
make_random_regular builds alone from that seed; make_random_regular is the
one-graph call. make_random_orientation_union orients such a union as
make_random_orientation orients each component alone.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Mapping, Optional, Sequence

import numpy as np

from .algorithms import oriented_median_cut, oriented_median_plus_flips
from .errors import ConstructionError, InvalidParameterError, InvariantError
from .graphs import (
    Cut,
    Labelling,
    Orientation,
    RegularGraph,
    _require_vertex_count,
    _seeded,
    coin_flips,
    component_offsets,
    dicut_size,
)


def _circulant_arcs(n: int, d: int) -> list[tuple[int, int]]:
    """Arcs i -> i+k (mod n) for every odd jump k < d."""
    return [(i, (i + k) % n) for k in range(1, d, 2) for i in range(n)]


def _double_circulant_arcs(n: int, d: int) -> list[tuple[int, int]]:
    """Clockwise arcs of both (d-1)-jump copies, then the matching outer -> inner."""
    arcs = []
    for k in range(1, d - 1, 2):
        for i in range(n):
            arcs.append((i, (i + k) % n))
            arcs.append((n + i, n + (i + k) % n))
    arcs.extend((i, n + i) for i in range(n))
    return arcs


_CLOCKWISE_ARCS = {"circulant": _circulant_arcs, "double_circulant": _double_circulant_arcs}


def make_circulant(n: int, d: int) -> RegularGraph:
    """Cycle on n vertices plus all chords of odd length 3, 5, ..., d-1.

    pre: d even >= 2, n even >= 2d. The odd jump lengths {1, 3, ..., d-1}
    make the graph bipartite (even vertices vs odd vertices).
    """
    if d < 2 or d % 2:
        raise InvalidParameterError(f"d must be even >= 2, got {d}")
    if n % 2 or n < 2 * d:
        raise InvalidParameterError(f"n must be even >= 2d, got n={n}, d={d}")
    return RegularGraph.from_edges(
        n, _circulant_arcs(n, d), d=d, family="circulant", family_params=(n, d)
    )


def make_double_circulant(n: int, d: int) -> RegularGraph:
    """Two copies of the (d-1)-jump circulant joined by a perfect matching.

    Outer copy is vertices 0..n-1, inner copy n..2n-1, matching i -- n+i.
    pre: d odd >= 3, n even >= 2(d-1). 2n vertices, all of degree d.
    """
    if d < 3 or d % 2 == 0:
        raise InvalidParameterError(f"d must be odd >= 3, got {d}")
    if n % 2 or n < 2 * (d - 1):
        raise InvalidParameterError(
            f"n must be even >= 2(d-1), got n={n}, d={d}"
        )
    return RegularGraph.from_edges(
        2 * n, _double_circulant_arcs(n, d), d=d, family="double_circulant",
        family_params=(n, d)
    )


def orient_clockwise(g: RegularGraph) -> Orientation:
    """Orient a circulant family clockwise: i -> i+k for every jump k.

    For the double circulant the matching is oriented outer -> inner, so
    every outer vertex gets deficit +1 and every inner vertex -1.
    """
    if g.family not in _CLOCKWISE_ARCS:
        raise InvalidParameterError(
            "clockwise orientation needs a circulant or double_circulant graph"
        )
    return Orientation(g, _CLOCKWISE_ARCS[g.family](*g.family_params))


def complete_graph(n: int) -> RegularGraph:
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return RegularGraph(
        [[u for u in range(n) if u != v] for v in range(n)], d=n - 1
    )


def _repair(stubs: list[int], taken: set[int], n: int, rng: random.Random
            ) -> Optional[list[int]]:
    """Shuffle and re-pair leftover stubs until none is left, as new edge keys
    u*n+v (u < v) that avoid `taken`; None when they can no longer be placed."""
    extra = []
    while stubs:
        rng.shuffle(stubs)
        leftover: dict[int, int] = {}
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and u * n + v not in taken:
                taken.add(u * n + v)
                extra.append(u * n + v)
            else:
                leftover[u] = leftover.get(u, 0) + 1
                leftover[v] = leftover.get(v, 0) + 1
        if leftover:
            placeable = any(
                u != v and min(u, v) * n + max(u, v) not in taken
                for u in leftover for v in leftover
            )
            if not placeable:
                return None
        stubs = [v for v, count in leftover.items() for _ in range(count)]
    return extra


def _pairing_round(ns: Sequence[int], d: int, rngs: Sequence[random.Random],
                   firsts: Sequence[int], n: int) -> tuple[np.ndarray, list[int]]:
    """One attempt of the stub-matching pairing model for every case at once.

    Case k is an ns[k]-vertex graph on vertices firsts[k] and up of an
    n-vertex union, drawn from rngs[k]; its stub i belongs to its vertex
    i // d. Each case orders its stubs by ns[k]*d random 64-bit keys from
    getrandbits calls, consecutive stubs pair off, and a pair is kept
    unless it is a loop or repeats an earlier pair of its case; this is one
    numpy pass over all cases. The stubs of each case's rejected pairs (a
    dozen at n = 10^5, d = 5) are then shuffled and re-paired in Python.
    Returns the edge keys u*n+v (u < v) of every case that got through, and
    the indices of the cases whose leftovers got stuck.

    One case is ordered by _stub_order, in place. Many cases are ordered by
    one argsort of every key, then a stable sort by case index, a radix
    sort for the small unsigned dtype the index gets. This is the order
    np.lexsort((key, case)) gives: the stub index in a key's low bits makes
    the keys of one case distinct, so the first sort orders each case's
    stubs completely, and the stable second sort keeps that order while it
    separates the cases, whose keys alone may tie.
    """
    nds = [k * d for k in ns]
    starts = component_offsets(nds)
    # the stub index in the low bits breaks ties, so every sort agrees
    low = [(1 << max(nd - 1, 1).bit_length()) - 1 for nd in nds]
    if len(ns) == 1:
        vertex = _stub_order(rngs[0], nds[0], low[0])
        vertex //= max(d, 1)
        vertex += firsts[0]
    else:
        draws = np.frombuffer(b"".join(
            rng.getrandbits(64 * nd).to_bytes(8 * nd, "little") for rng, nd in zip(rngs, nds)
        ), dtype="<u8")
        local = np.arange(int(starts[-1])) - np.repeat(starts[:-1], nds)
        high = draws & ~np.repeat(np.array(low, dtype=np.uint64), nds)
        case = np.repeat(np.arange(len(ns), dtype=np.min_scalar_type(len(ns))), nds)
        order = np.argsort(high | local.astype(np.uint64))
        order = order[np.argsort(case[order], kind="stable")]
        vertex = (np.repeat(np.asarray(firsts, dtype=np.int64), nds) + local // max(d, 1))[order]
    pairs = vertex.reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    # the key lo*n + hi of each pair, as lo*(n - 1) + u + v
    keys = np.minimum(u, v)
    keys *= n - 1
    keys += u
    keys += v
    keep = u != v
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    del ordered
    if repeated.size:  # a handful of keys: keep the first pair of each
        # a pair repeats a key only if one of its ends is that key's lower end
        lower = np.zeros(n, dtype=bool)
        lower[repeated // n] = True
        at = np.flatnonzero(lower[u] | lower[v])
        found = np.searchsorted(repeated, keys[at]).clip(max=repeated.size - 1)
        at = at[repeated[found] == keys[at]]
        first = np.zeros(at.size, dtype=bool)
        first[np.unique(keys[at], return_index=True)[1]] = True
        keep[at] &= first
    rejected = np.flatnonzero(~keep)
    # only a kept pair of two leftover vertices can collide with a new pair
    spare = np.zeros(n, dtype=bool)
    spare[pairs[rejected].ravel()] = True
    both = spare[u]
    both &= spare[v]
    both &= keep
    taken = set(keys[both].tolist())
    rows = (starts // 2).tolist()  # case k's pairs are rows[k] .. rows[k+1] - 1
    bounds = np.searchsorted(rejected, rows).tolist()
    # each case's rejected stubs in pair order, taken before the stub array
    # goes: _repair shuffles them
    leftovers = [(k, pairs[rejected[bounds[k]:bounds[k + 1]]].ravel().tolist())
                 for k in np.flatnonzero(np.diff(bounds)).tolist()]
    del vertex, pairs, u, v, both
    extra: list[int] = []
    stuck = []
    for k, stubs in leftovers:
        found_keys = _repair(stubs, taken, n, rngs[k])
        if found_keys is None:
            stuck.append(k)
            keep[rows[k]:rows[k + 1]] = False
        else:
            extra += found_keys
    kept = int(np.count_nonzero(keep))
    out = np.empty(kept + len(extra), dtype=np.int64)
    np.compress(keep, keys, out=out[:kept])
    out[kept:] = extra
    return out, stuck


# Stub keys drawn per getrandbits call: 128 KiB of them at a time.
_KEY_CHUNK = 1 << 14


def _stub_order(rng: random.Random, nd: int, low: int) -> np.ndarray:
    """The nd stub indices of one case ordered by nd random 64-bit keys, as
    int64: the keys are drawn _KEY_CHUNK at a time straight into one array
    (calls of whole 32-bit words continue one stream, so they are the keys
    of one getrandbits(64 nd) call), their low bits replaced by the stub
    index, sorted in place, and the low bits kept."""
    keys = np.empty(nd, dtype=np.uint64)
    for start in range(0, nd, _KEY_CHUNK):
        stop = min(start + _KEY_CHUNK, nd)
        chunk = rng.getrandbits(64 * (stop - start)).to_bytes(8 * (stop - start), "little")
        np.bitwise_and(np.frombuffer(chunk, dtype="<u8"), ~np.uint64(low), out=keys[start:stop])
        keys[start:stop] |= np.arange(start, stop, dtype=np.uint64)
    keys.sort()
    keys &= np.uint64(low)
    return keys.view(np.int64)


def _random_regular_edges(ns: Sequence[int], d: int, seeds: Sequence[int],
                          max_restarts: int) -> np.ndarray:
    """The edges of the pairing model's graph for each (ns[k], seeds[k]),
    laid side by side as one union, in no particular order.

    Every pending case takes part in each round of _pairing_round; a stuck
    case restarts from scratch in the next round, with its own generator,
    so each case draws exactly what it would draw alone.
    """
    if len(ns) != len(seeds) or not len(ns):
        raise InvalidParameterError("need one seed per case and at least one case")
    for n in ns:
        _require_vertex_count(n)
        if d < 0 or d >= n or (n * d) % 2:
            raise InvalidParameterError(
                f"need 0 <= d < n and nd even, got n={n}, d={d}"
            )
    total = sum(ns)
    _require_vertex_count(total)
    firsts = component_offsets(ns)[:-1].tolist()
    rngs = [_seeded(seed) for seed in seeds]
    found = []
    pending = list(range(len(ns)))
    for _ in range(max_restarts):
        keys, stuck = _pairing_round([ns[k] for k in pending], d, [rngs[k] for k in pending],
                                     [firsts[k] for k in pending], total)
        found.append(keys)
        pending = [pending[k] for k in stuck]
        if not pending:
            keys = np.concatenate(found) if len(found) > 1 else keys
            del found
            rows = np.empty((len(keys), 2), dtype=np.int64)
            np.floor_divide(keys, total, out=rows[:, 0])
            np.remainder(keys, total, out=rows[:, 1])
            return rows
    k = pending[0]
    raise ConstructionError(
        f"pairing model found no simple graph in {max_restarts} restarts "
        f"(n={ns[k]}, d={d}, seed={seeds[k]})"
    )


def make_random_regular(n: int, d: int, seed: int, max_restarts: int = 1000) -> RegularGraph:
    """Random d-regular graph from the pairing model (Bollobas 1980).

    pre: 1 <= n < 2^32, nd even, 0 <= d < n. Each attempt orders all nd
    stubs with one getrandbits call on random.Random(seed); loop and
    repeated pairs are rejected and only their stubs re-paired, so, as
    Wormald's survey of the model shows, the expected number of full
    restarts stays O(1) even for d = 7. A restart happens only when the
    leftover stubs are stuck; after `max_restarts` attempts
    ConstructionError is raised. numpy.random is not used (importing it
    alone costs about 6 MB of memory). This is the one-case call of
    make_random_regular_union.
    """
    return RegularGraph.from_edges(n, _random_regular_edges([n], d, [seed], max_restarts), d=d)


def make_random_regular_union(ns: Sequence[int], d: int, seeds: Sequence[int],
                              max_restarts: int = 1000) -> RegularGraph:
    """Disjoint union of make_random_regular(ns[k], d, seeds[k]) over k.

    Case k lies on vertices offsets[k] .. offsets[k] + ns[k] - 1, with
    offsets = component_offsets(ns), so its edges() rows are the lone
    graph's rows shifted by offsets[k], in case order. One numpy pass per
    round pairs the stubs of every pending case; each case keeps its own
    random.Random(seed) and draws exactly what it draws alone, so its
    component equals the lone graph for every seed, and `max_restarts`
    bounds each case's attempts. pre: every ns[k] satisfies
    make_random_regular's preconditions and sum(ns) < 2^32.
    """
    return RegularGraph.from_edges(sum(ns), _random_regular_edges(ns, d, seeds, max_restarts), d=d)


def make_id_orientation(g: RegularGraph, lab: Labelling) -> Orientation:
    """Orient every edge from the lower ID to the higher ID."""
    if lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    ids, rows = lab.ids, g._edge_rows()
    return Orientation._trusted(g, _reverse_rows(rows, ids[rows[:, 0]] > ids[rows[:, 1]]))


def _reverse_rows(rows: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Reverse in place the rows of an (m, 2) array that `back` marks; the
    one temporary holds their first entries."""
    u, v = rows[:, 0], rows[:, 1]
    first = u[back]
    np.copyto(u, v, where=back)
    v[back] = first
    return rows


def _coin_orientation(g: RegularGraph, ms: Sequence[int], seeds: Sequence[int]
                      ) -> Orientation:
    """Orient edges() in consecutive blocks of ms[k] rows: block k takes a fair
    coin per edge (u, v) from random.Random(seeds[k]); 1 keeps u -> v."""
    back = coin_flips([_seeded(seed) for seed in seeds], ms) == 0
    return Orientation._trusted(g, _reverse_rows(g._edge_rows(), back))


def make_random_orientation(g: RegularGraph, seed: int) -> Orientation:
    """Fair coin per edge (u, v) in edges() order: 1 keeps u -> v."""
    return _coin_orientation(g, [g.m], [seed])


def make_random_orientation_union(g: RegularGraph, ns: Sequence[int],
                                  seeds: Sequence[int]) -> Orientation:
    """Random orientation of a union with components of ns[k] vertices, such
    as make_random_regular_union builds: component k is oriented as
    make_random_orientation(component, seeds[k]) orients it alone."""
    if sum(ns) != g.n or len(ns) != len(seeds):
        raise InvalidParameterError("need one seed per component and components covering g")
    return _coin_orientation(g, [n * g.d // 2 for n in ns], seeds)


def _split_evenly(total: int, parts: int) -> list[int]:
    """Nonnegative integers summing to total, all within 1 of each other."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _realize_bipartite(out_quota: Mapping[int, int], in_quota: Mapping[int, int],
                       forbidden: frozenset[tuple[int, int]] = frozenset()
                       ) -> list[tuple[int, int]]:
    """Arcs between two vertex sets meeting exact per-vertex quotas.

    Each allowed (tail, head) pair is used at most once. Solved as a
    unit-capacity flow with BFS augmenting paths, so it succeeds whenever
    the quotas are realizable at all and raises ConstructionError otherwise.
    Deterministic: node scan order follows sorted vertex indices.
    """
    total = sum(out_quota.values())
    if total != sum(in_quota.values()):
        raise ConstructionError("quota totals differ")
    tails = sorted(v for v in out_quota if out_quota[v] > 0)
    heads = sorted(v for v in in_quota if in_quota[v] > 0)
    src, snk = 0, 1
    tnode = {v: 2 + i for i, v in enumerate(tails)}
    hnode = {v: 2 + len(tails) + i for i, v in enumerate(heads)}
    cap: dict[int, dict[int, int]] = {u: {} for u in range(2 + len(tails) + len(heads))}

    def add(u: int, v: int, c: int) -> None:
        cap[u][v] = c
        cap[v].setdefault(u, 0)

    for x in tails:
        add(src, tnode[x], out_quota[x])
    for y in heads:
        add(hnode[y], snk, in_quota[y])
    for x in tails:
        for y in heads:
            if (x, y) not in forbidden:
                add(tnode[x], hnode[y], 1)

    flow = 0
    while flow < total:
        parent: dict[int, Optional[int]] = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            raise ConstructionError(
                f"quotas not realizable; placed {flow} of {total} arcs"
            )
        path = []
        v = snk
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][w] for u, w in path)
        for u, w in path:
            cap[u][w] -= push
            cap[w][u] += push
        flow += push

    return [
        (x, y)
        for x in tails for y in heads
        if (x, y) not in forbidden and cap[hnode[y]].get(tnode[x], 0) > 0
    ]


def _certified(o: Orientation, plus: Sequence[int], planted: Sequence[int],
               flips: int) -> Orientation:
    """Return o once it is a sharpness instance for the deficit rule and
    `flips` rounds of unstable flips; raise ConstructionError otherwise.

    Checks that the deficit cut puts exactly `plus` on the left, that it and
    each flip round cut n/2 arcs, and that CUT_0 (d^2+1) = 2d dicut(W) for
    the planted cut W with `planted` on the left. Then CUT_0 is
    2d/(d^2+1) times a lower bound on OPT; as the rule never does worse
    than that ratio, dicut(W) is OPT. No oracle is needed at any size.
    """
    n, d = o.graph.n, o.graph.d
    _, sizes = oriented_median_plus_flips(o, flips)
    witness = dicut_size(o, Cut.from_left_set(n, planted))
    if not (oriented_median_cut(o) == Cut.from_left_set(n, plus)
            and all(size == n // 2 for size in sizes)
            and sizes[0] * (d * d + 1) == 2 * d * witness):
        raise ConstructionError(
            f"{o.graph.family} instance failed its certificate: "
            f"cuts {sizes} after 0..{flips} flip rounds, planted cut {witness}"
        )
    return o


def abcd_sets(d: int, n: int) -> tuple[range, range, range, range]:
    """Vertex ranges (A, B, C, D) used by make_abcd_instance."""
    if d < 3 or d % 2 == 0:
        raise InvalidParameterError(f"d must be odd >= 3, got {d}")
    if n <= 0 or n % (4 * d):
        raise InvalidParameterError(f"n must be a positive multiple of 4d, got {n}")
    t = n // (4 * d)
    a, c = (d + 1) * t, (d - 1) * t
    return (
        range(0, a),
        range(a, 2 * a),
        range(2 * a, 2 * a + c),
        range(2 * a + c, 2 * a + 2 * c),
    )


def make_abcd_instance(d: int, n: int) -> Orientation:
    """Oriented d-regular instance on which the deficit cut is weakest.

    Four independent sets A, B, C, D with |A| = |B| = (d+1)n/4d and
    |C| = |D| = (d-1)n/4d. Arc families: A->B (n/2 arcs), A->D and C->B
    ((d-1)^2 n/8d each), D->A and B->C ((d^2-1) n/8d each). Every vertex of
    A and D ends up with deficit +1, every vertex of B and C with -1, so the
    deficit cut is (A u D, B u C) with exactly the n/2 A->B arcs crossing,
    while (A u C, B u D) catches (d^2+1)/2d * n/2 arcs. Checked by
    _certified before returning.
    """
    A, B, C, D = abcd_sets(d, n)
    t = n // (4 * d)
    ab = n // 2
    ad = (d - 1) ** 2 * t // 2
    out_hi, in_lo = (d + 1) // 2, (d - 1) // 2

    # A's out-degree (d+1)/2 splits between B and D; the split varies by
    # vertex, so balance it and let D absorb the rest. Same for B's in-side.
    a_to_b = dict(zip(A, _split_evenly(ab, len(A))))
    a_to_d = {v: out_hi - a_to_b[v] for v in A}
    if sum(a_to_d.values()) != ad or min(a_to_d.values()) < 0:
        raise ConstructionError("A-side quotas infeasible")
    b_from_a = dict(zip(B, _split_evenly(ab, len(B))))
    b_from_c = {v: out_hi - b_from_a[v] for v in B}
    if sum(b_from_c.values()) != ad or min(b_from_c.values()) < 0:
        raise ConstructionError("B-side quotas infeasible")

    arcs: list[tuple[int, int]] = []
    arcs += _realize_bipartite(a_to_b, b_from_a)
    f_ad = _realize_bipartite(a_to_d, {v: in_lo for v in D})
    arcs += f_ad
    arcs += _realize_bipartite(
        {v: out_hi for v in D},
        {v: in_lo for v in A},
        forbidden=frozenset((h, t_) for t_, h in f_ad),
    )
    f_cb = _realize_bipartite({v: in_lo for v in C}, b_from_c)
    arcs += f_cb
    arcs += _realize_bipartite(
        {v: in_lo for v in B},
        {v: out_hi for v in C},
        forbidden=frozenset((h, t_) for t_, h in f_cb),
    )

    graph = RegularGraph.from_edges(n, arcs, d=d, family="abcd", family_params=(d, n))
    return _certified(Orientation(graph, arcs), [*A, *D], [*A, *C], 0)


def make_extremal_labelling(g: RegularGraph) -> Labelling:
    """Labelling of a double circulant whose median cut is as small as known.

    Target: N/2 + (d-2)^2 + 1 cut edges, N the vertex count. IDs increasing
    clockwise (outer 1..n, then inner n+1..2n) cut exactly that many: away from
    the wrap-around seam every outer vertex sees its median neighbor above
    itself and every inner vertex below, so only the matching and the two
    seams cross. Raises InvariantError if the pattern ever misses it.
    """
    from .algorithms import median_cut
    from .graphs import cut_size

    if g.family != "double_circulant":
        raise InvalidParameterError("extremal labelling targets double circulants")
    _, d = g.family_params
    target = g.n // 2 + (d - 2) ** 2 + 1
    pattern = Labelling(np.arange(1, g.n + 1), origin="clockwise-sequential")
    size = cut_size(g, median_cut(g, pattern))
    if size != target:
        raise InvariantError(
            f"clockwise-sequential IDs cut {size} edges of {g!r}, target {target}"
        )
    return pattern


def stuck_sets(d: int) -> dict[str, range]:
    """Vertex ranges for make_single_flip_stuck_instance's six classes.

    Class sizes follow from forcing every class to have uniform (out, in)
    degrees with deficit +-1: |A_s| = 4dq/(d-1)^2, |D| = q(d+1)/(d-1) with
    |A_u| = q minimal subject to integrality and |D| >= d (each unstable
    vertex needs d distinct neighbors inside one class).
    """
    if d < 3 or d % 2 == 0:
        raise InvalidParameterError(f"d must be odd >= 3, got {d}")
    q = 1
    while True:
        if (4 * d * q) % ((d - 1) ** 2) == 0 and (q * (d + 1)) % (d - 1) == 0:
            r = q * (d + 1) // (d - 1)
            p = 4 * d * q // ((d - 1) ** 2)
            if r >= d and p >= (d + 1) // 2 and q >= (d - 1) // 2:
                break
        q += 1
    bounds = []
    start = 0
    for size in (p, q, p, q, r, r):
        bounds.append(range(start, start + size))
        start += size
    keys = ("A_s", "A_u", "B_s", "B_u", "C", "D")
    return dict(zip(keys, bounds))


def make_single_flip_stuck_instance(d: int) -> Orientation:
    """Worst-ratio instance on which one round of flips changes nothing.

    Refines the four-set instance: the A->D and C->B arcs that a flip would
    add to the cut are rerouted through unstable subclasses A_u and B_u, so
    no arc runs from a stable vertex into an unstable one on the plus side
    (or out of an unstable one on the minus side). The deficit cut (A_s u
    A_u u D on the left) has exactly n/2 arcs before and after one flip
    round, and the planted cut with A_s u A_u u C on the left has
    (d^2+1)/2d times as many, so CUT_0 = CUT_1 <= 2/(d + 1/d) * OPT; the
    planted cut equals OPT wherever the exact oracle reaches (d = 3, 5).
    Checked by _certified before returning, with no oracle call.
    """
    sets = stuck_sets(d)
    A_s, A_u, B_s, B_u, C, D = (sets[k] for k in ("A_s", "A_u", "B_s", "B_u", "C", "D"))
    n = 2 * (len(A_s) + len(A_u) + len(D))
    out_hi, in_lo = (d + 1) // 2, (d - 1) // 2

    arcs: list[tuple[int, int]] = []
    # Cut arcs: stable plus side to stable minus side, (d+1)/2 per vertex.
    arcs += _realize_bipartite(
        {v: out_hi for v in A_s}, {v: out_hi for v in B_s}
    )
    # Unstable plus side: A_u and D only see each other / A. D's out arcs
    # split between A_u and A_s inside one flow, so the reversal bans from
    # f_aud never strand a tail.
    f_aud = _realize_bipartite(
        {v: out_hi for v in A_u}, {v: in_lo for v in D}
    )
    arcs += f_aud
    arcs += _realize_bipartite(
        {v: out_hi for v in D},
        {v: in_lo for v in A_u} | {v: in_lo for v in A_s},
        forbidden=frozenset((h, t) for t, h in f_aud),
    )
    # Unstable minus side, mirrored: C and B_u only see each other / B.
    f_cbu = _realize_bipartite(
        {v: in_lo for v in C}, {v: out_hi for v in B_u}
    )
    arcs += f_cbu
    arcs += _realize_bipartite(
        {v: in_lo for v in B_u} | {v: in_lo for v in B_s},
        {v: out_hi for v in C},
        forbidden=frozenset((h, t) for t, h in f_cbu),
    )

    graph = RegularGraph.from_edges(
        n, arcs, d=d, family="single_flip_stuck", family_params=(d, n)
    )
    return _certified(Orientation(graph, arcs), [*A_s, *A_u, *D], [*A_s, *A_u, *C], 1)
