"""The local cut algorithms and the flip dynamics, as plain functions.

Side convention: a vertex whose median neighbor ID exceeds its own goes
LEFT, and LEFT is the tail side of a directed cut. Under the low-to-high ID
orientation the left side is exactly the positive-deficit side, which is why
the median rule and the deficit rule agree.

Each rule is one numpy expression over the (n, d) adjacency; stability,
FLIP and maximality share one per-vertex count, `same_side_counts`.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import InvalidParameterError, InvariantError, UnsupportedDegreeError
from .graphs import (Cut, LEFT, Labelling, Orientation, RIGHT, RegularGraph,
                     _seeded, coin_flips, dicut_size, same_side_counts)


def median_cut(g: RegularGraph, lab: Labelling) -> Cut:
    """One-round median rule: LEFT iff the median neighbor ID beats your own.

    pre: d odd (the median of an even number of IDs is not one of them).
    """
    if g.d % 2 == 0:
        raise UnsupportedDegreeError(f"median rule needs odd degree, got d={g.d}")
    if lab.n != g.n:
        raise InvalidParameterError("labelling size does not match graph")
    nbr = lab.ids[g.adj]
    nbr.sort(axis=1)  # in place: no second n*d copy
    median = nbr[:, g.d // 2]
    return Cut(np.where(median > lab.ids, LEFT, RIGHT))


def oriented_median_cut(o: Orientation) -> Cut:
    """Zero-round deficit rule: LEFT iff out-degree exceeds in-degree.

    pre: no vertex has deficit 0 (guaranteed when d is odd).
    """
    delta = o.deficits
    zero = np.flatnonzero(delta == 0)
    if zero.size:
        raise InvalidParameterError(
            f"vertex {zero[0]} has deficit 0; the deficit rule needs odd degrees"
        )
    return Cut(np.where(delta > 0, LEFT, RIGHT))


def stable_vertices(g: RegularGraph, c: Cut) -> np.ndarray:
    """Boolean vertex mask: at least one neighbor on the other side (undirected)."""
    return same_side_counts(g, c) < g.d


def unstable_flip_step(o: Orientation, c: Cut) -> Cut:
    """Flip every unstable vertex simultaneously.

    Stability only looks at the underlying graph; the orientation is carried
    so callers can chain dicut measurements.
    """
    return Cut(c.sides ^ (same_side_counts(o.graph, c) == o.graph.d))


def oriented_median_plus_flips(o: Orientation, flips: int) -> tuple[Cut, tuple[int, ...]]:
    """Deficit cut followed by `flips` rounds of unstable flips.

    Returns the final cut and the dicut sizes (CUT_0, ..., CUT_flips).
    The sequence never decreases: flipped arcs never leave the cut.
    """
    if flips < 0:
        raise InvalidParameterError("flips must be >= 0")
    c = oriented_median_cut(o)
    sizes = [dicut_size(o, c)]
    for _ in range(flips):
        c = unstable_flip_step(o, c)
        sizes.append(dicut_size(o, c))
    return c, tuple(sizes)


def distributed_flip_step(g: RegularGraph, c: Cut) -> Cut:
    """One synchronous round of FLIP: strict same-side majority flips."""
    return Cut(c.sides ^ (2 * same_side_counts(g, c) > g.d))


def is_maximal_cut(g: RegularGraph, c: Cut) -> bool:
    """No single vertex flip can grow the cut."""
    return not np.any(2 * same_side_counts(g, c) > g.d)


def sequential_flip_to_maximal(g: RegularGraph, c: Cut, order: str = "lowest") -> Cut:
    """Flip one improving vertex at a time until the cut is maximal.

    Each flip grows the cut, so at most m flips happen and the result is at
    least m/2. `order` picks among improving vertices: "lowest" (default)
    or "highest". The candidates sit in a heap with lazy deletion, so a
    flip costs O(d log n).
    """
    if order not in ("lowest", "highest"):
        raise InvalidParameterError(f"unknown order policy {order!r}")
    d = g.d
    same = same_side_counts(g, c)
    # heap keys are v ("lowest") or -v ("highest"); an entry whose vertex
    # has stopped improving is dropped when it surfaces
    sign = 1 if order == "lowest" else -1
    heap = (sign * np.flatnonzero(2 * same > d)).tolist()
    heapq.heapify(heap)
    adj, sides, same = g.adj.tolist(), c.sides.tolist(), same.tolist()
    improving = d // 2 + 1  # the least same-side count that makes a flip pay
    flips = 0
    while heap:
        v = sign * heapq.heappop(heap)
        if same[v] < improving:
            continue
        side = sides[v] = sides[v] ^ 1
        same[v] = d - same[v]
        for u in adj[v]:
            if sides[u] == side:
                same[u] += 1
                if same[u] == improving:
                    heapq.heappush(heap, sign * u)
            else:
                same[u] -= 1
        flips += 1
        if flips > g.m:
            raise InvariantError("more than m improving flips; cut bookkeeping bug")
    return Cut(sides)


def random_cut(g: RegularGraph, seed: int) -> Cut:
    """Fair coin per vertex."""
    return Cut(coin_flips([_seeded(seed)], [g.n]))
