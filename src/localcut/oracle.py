"""Brute-force ground truth: exact MaxCut / MaxDiCut and adversarial IDs.

All three exact solvers share one meet-in-the-middle kernel (the two-way
form of R. Williams, "A new algorithm for optimal 2-constraint satisfaction
and its implications", TCS 2005). The vertices split into a low half L
(0..k-1, k = n // 2) and a high half H; a mask is `h << k | l`, bit v set
meaning v is on the LEFT. The dicut size of a mask is the quadratic form
x.out - x Q x^T over the arc matrix Q, which separates into a score of l, a
score of h and a cross term bits(h) W bits(l)^T. So each block of H rows
costs one float32 matrix product; every entry is a small integer, so the
float arithmetic is exact. MaxCut is the MaxDiCut of both arcs of every
edge. The budgets (n <= 24 for MaxDiCut, n <= 30 for MaxCut, which also
has a bipartite shortcut, n <= 16 for listing every optimum) bound the
2^n work. The solvers are deliberately independent of the algorithm
implementations they certify: nothing here calls median_cut or friends
except through the caller-supplied callable in the labelling search.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetError, InvalidParameterError
from .graphs import (
    Cut,
    LEFT,
    RIGHT,
    Labelling,
    Orientation,
    RegularGraph,
    cut_size,
    is_bipartite,
)

# Cells per score block: 2^20 float32 values, about 4 MB.
_BLOCK_CELLS = 1 << 20


def _mask_to_cut(mask: int, n: int) -> Cut:
    # bit v set <=> v on the LEFT
    return Cut([LEFT if (mask >> v) & 1 else RIGHT for v in range(n)])


def _bits(width: int, rows: int) -> np.ndarray:
    """Row r holds bit v of r in column v, for r < rows."""
    return ((np.arange(rows)[:, None] >> np.arange(width)) & 1).astype(np.float32)


def _dicut_blocks(n: int, arcs, masks: int) -> Iterator[tuple[int, np.ndarray]]:
    """Dicut sizes of masks 0..masks-1 in ascending blocks.

    Yields (first, scores) where scores[i, j] is the size of mask
    first + i * 2^k + j, so a row-major scan of the blocks visits the masks
    in ascending order. `masks` is 2^n, or 2^(n-1) to pin vertex n-1 RIGHT.
    """
    k = n // 2
    q = np.zeros((n, n), dtype=np.float32)
    np.add.at(q, (arcs[:, 0], arcs[:, 1]), 1)
    out = np.bincount(arcs[:, 0], minlength=n).astype(np.float32)
    rows = masks >> k
    bl, bh = _bits(k, 1 << k), _bits(n - k, rows)
    lo = bl @ out[:k] - ((bl @ q[:k, :k]) * bl).sum(axis=1)
    hi = bh @ out[k:] - ((bh @ q[k:, k:]) * bh).sum(axis=1)
    cross = q[k:, :k] + q[:k, k:].T
    # scores = [bits(h) | hi | 1] @ [-cross bits(l)^T ; 1 ; lo]
    h_mat = np.hstack([bh, hi[:, None], np.ones((rows, 1), dtype=np.float32)])
    l_mat = np.vstack([-(cross @ bl.T), np.ones((1, 1 << k), dtype=np.float32),
                       lo[None, :]])
    step = max(1, _BLOCK_CELLS >> k)
    for r in range(0, rows, step):
        yield r << k, h_mat[r:r + step] @ l_mat


def _best_dicut(n: int, arcs, masks: int) -> tuple[int, Cut]:
    """Largest score with its lowest mask; a later block wins only if strictly larger."""
    best, best_mask = -1, 0
    for first, scores in _dicut_blocks(n, arcs, masks):
        i = int(np.argmax(scores))
        if scores.flat[i] > best:
            best, best_mask = int(scores.flat[i]), first + i
    return best, _mask_to_cut(best_mask, n)


def max_cut_exact(g: RegularGraph, budget: int = 30) -> tuple[int, Cut]:
    """Maximum cut size with a witness.

    Bipartite graphs short-circuit to the 2-coloring (cut = m) at any size;
    otherwise all 2^(n-1) bipartitions are enumerated (vertex n-1 pinned
    RIGHT, which loses nothing by mirror symmetry).
    """
    bip, witness = is_bipartite(g)
    if bip:
        return g.m, witness
    if g.n > budget:
        raise BudgetError(
            f"exact MaxCut enumerates 2^(n-1) cuts; n={g.n} exceeds budget {budget}"
        )
    e = g.edges()
    return _best_dicut(g.n, np.vstack([e, e[:, ::-1]]), 1 << (g.n - 1))


def max_dicut_exact(o: Orientation, budget: int = 24) -> tuple[int, Cut]:
    """Maximum directed cut size with a witness; enumerates all 2^n sides."""
    n = o.graph.n
    if n > budget:
        raise BudgetError(
            f"exact MaxDiCut enumerates 2^n cuts; n={n} exceeds budget {budget}"
        )
    return _best_dicut(n, o.arcs, 1 << n)


def enumerate_max_dicuts(o: Orientation, budget: int = 16) -> tuple[int, list[Cut]]:
    """All optimal directed cuts (ties included), in ascending mask order."""
    n = o.graph.n
    if n > budget:
        raise BudgetError(
            f"witness enumeration wants n <= {budget}, got {n}"
        )
    scores = np.concatenate([s.ravel() for _, s in _dicut_blocks(n, o.arcs, 1 << n)])
    best = scores.max()
    return int(best), [_mask_to_cut(int(m), n) for m in np.flatnonzero(scores == best)]


def adversarial_labelling_search(
    g: RegularGraph,
    algorithm: Callable[[RegularGraph, Labelling], Cut],
    mode: str = "anneal",
    budget: int = 10 ** 6,
    seed: int = 0,
) -> tuple[Labelling, int]:
    """Smallest algorithm cut over labellings, by exhaustion or annealing.

    mode "exhaustive": all n! assignments of IDs 1..n (pre: n <= 9).
    mode "anneal": seeded simulated annealing over ID permutations with
    swap-two moves and geometric cooling, `budget` moves total. Determinism
    comes from the single seed.
    """
    if mode == "exhaustive":
        if g.n > 9:
            raise BudgetError(
                f"exhaustive search is n! evaluations; n={g.n} exceeds 9"
            )
        best_ids, best_size = None, None
        for perm in itertools.permutations(range(1, g.n + 1)):
            lab = Labelling(perm)
            size = cut_size(g, algorithm(g, lab))
            if best_size is None or size < best_size:
                best_ids, best_size = perm, size
        return Labelling(best_ids, origin="exhaustive"), best_size

    if mode != "anneal":
        raise InvalidParameterError(f"mode must be 'exhaustive' or 'anneal', got {mode!r}")
    if budget < 1:
        raise InvalidParameterError("budget must be >= 1")
    rng = random.Random(seed)
    ids = list(range(1, g.n + 1))
    rng.shuffle(ids)
    current = cut_size(g, algorithm(g, Labelling(ids)))
    best_ids, best_size = list(ids), current
    t0, t_end = max(2.0, float(g.d)), 0.01
    cooling = (t_end / t0) ** (1.0 / budget)
    temp = t0
    for _ in range(budget):
        i, j = rng.sample(range(g.n), 2)
        ids[i], ids[j] = ids[j], ids[i]
        size = cut_size(g, algorithm(g, Labelling(ids)))
        if size <= current or rng.random() < math.exp((current - size) / temp):
            current = size
            if size < best_size:
                best_ids, best_size = list(ids), size
        else:
            ids[i], ids[j] = ids[j], ids[i]
        temp *= cooling
    return (
        Labelling(best_ids, origin=f"anneal(seed={seed},budget={budget})"),
        best_size,
    )
