"""Brute-force ground truth: exact MaxCut and MaxDiCut.

All three exact solvers share one meet-in-the-middle kernel (the two-way
form of R. Williams, "A new algorithm for optimal 2-constraint satisfaction
and its implications", TCS 2005; the split is that of Horowitz & Sahni,
JACM 1974). The vertices split into a low half L (0..k-1, k = n // 2) and a
high half H; a mask is `h << k | l`, bit v set meaning v is on the LEFT.
The dicut size of a mask is lo[l] + hi[h] + the sum of C[j, l] over the
bits j of h. Here lo and hi score each half alone (arcs leaving its chosen
vertices minus arcs among them), and C[j, l] is minus the arcs between high
vertex j and the low subset l. So the cross term is an additive subset sum.
The tables are vertex-major, one row per vertex and one column per
subset, and built by doubling: bit j extends every row with one contiguous
numpy add, T[:, 2^j : 2^(j+1)] = T[:, :2^j] + (each row's term for vertex
j). C's rows span every low subset. lo and hi double as well: lo[2^j :
2^(j+1)] = lo[:2^j] + vertex j's row over the subsets below j, and so for
hi. A vertex's own row is thus needed only below its vertex, and bit j
extends only the rows that still grow.

A block of H rows is one array: the block's column (lo + the C rows of the
block index's bits) plus the subset-sum table of C over the block's low
high-bits (built on the first block scored after the buffer held a
group's bounds, below); each further scored block adds the difference of
its column and the last (one add per block, from a prefix stack). A block
is 1/32 of the rows, so the bounds below have runs to skip, but at least
2^16 cells, so a call on n <= 16 scores one block, and at most
_BLOCK_BYTES bytes. hi is constant along a row, so it is added per row,
not per cell: a scan takes each row's maximum, adds that row's hi, and
looks inside a row only when it holds the best score. No matrix product
and no BLAS is involved. The arithmetic is exact because it is integer:
with A arcs, every table entry and every partial sum lies in [-A, A], and
so does a column difference (both columns are lo plus sums of C rows, in
[-A, 0]). So does a column plus gains of bound (2) below (it counts arcs
with a tail in L or in a free high vertex, less arcs into L), and hi less
the into of free vertices lies in [0, A]. So the tables are int8 for A <=
127 (every MaxDiCut within its budget at d <= 7; MaxCut has two arcs per
edge, so n*d <= 127), int16 for A <= 32767, and more arcs raise
InvariantError (within the budgets A <= 870).

The scan is a branch and bound over blocks. A block's rows add sums of C
rows, all <= 0, to its column, and its first row adds none, so (1) no
score in a block exceeds the largest entry of its column plus the largest
hi of its rows. Take a high vertex j that the block's rows leave free:
(1) may count both arcs between j and a low vertex l, j -> l in hi (j
LEFT) and l -> j in the column (l LEFT, j as if RIGHT), so for MaxCut,
with both arcs of every edge, it rarely falls below OPT. But j adds the
arcs from j to the RIGHT part of L if it is LEFT, and the arcs from the
LEFT part to j if it is RIGHT, and C[j, l] + into[j], into[j] the arcs
from j into L, is the difference of the two. So (2) no score exceeds the
largest entry of the column plus, over the free j, max(0, C[j, l] +
into[j]), plus the largest hi of the rows less the into of their free
LEFT vertices: each arc from a free vertex into L counts once. Both
bounds are at least 0, and a block's bound is the smaller. Entering a
group of up to 2^gb blocks, one a row of the block buffer, the kernel
lays their columns in that buffer before it scores any of them and takes
both maxima of each row. The 2^p blocks from one whose index ends in p
zero bits are covered by the largest of their bounds. A call with more
blocks than the buffer has rows first weighs each later group, and the
runs of groups it starts, by (1) and (2) with the group's column and
every vertex below the run's index bits free: one column a decision, and
a run of groups skipped whole. The caller names the least score it still
wants, and the kernel scores no block or run of blocks whose bound falls
below it. The witness solvers want the best score so far plus one: a
later mask wins only if strictly larger, so the witness is still the
optimum of lowest mask. The enumeration wants the best score itself, so
every tie is still listed.

MaxCut is the MaxDiCut of both arcs of every edge. The budgets (n <= 24
for MaxDiCut, n <= 30 for MaxCut, which also has a bipartite shortcut,
n <= 16 for listing every optimum) bound the 2^n work. The solvers are
deliberately independent of the algorithm implementations they certify.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .errors import BudgetError, InvariantError
from .graphs import (
    Cut,
    LEFT,
    RIGHT,
    Orientation,
    RegularGraph,
    _read_only,
    is_bipartite,
)

# Bytes per score block: 256 KiB, 2^18 int8 or 2^17 int16 cells.
_BLOCK_BYTES = 1 << 18


def _mask_cuts(masks: np.ndarray, n: int) -> list[Cut]:
    """The cut of each mask, in order: bit v set <=> v on the LEFT.

    The rows of one read-only sides array are 0/1 by construction, so each
    is wrapped without a per-row check.
    """
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    sides = _read_only(np.array([RIGHT, LEFT], dtype=np.int8)[bits])
    return [Cut._trusted(row) for row in sides]


def _run_maxima(x: list[int], drops: list[int] | None = None) -> list[list[int]]:
    """m[p][i] = max(x[i * 2^p : (i + 1) * 2^p]), for len(x) a power of 2.

    With drops, x[i * 2^p + r] counts drops[j] less for each bit j of r.
    """
    m = [x]
    for d in [0] * (len(x).bit_length() - 1) if drops is None else drops:
        x = m[-1]
        m.append([u if u > v - d else v - d for u, v in zip(x[::2], x[1::2])])
    return m


def _subset_sums(t: np.ndarray, steps) -> np.ndarray:
    """t[i] = t[0] + the steps of the bits of i, filled in place by doubling."""
    for j, step in enumerate(steps):
        np.add(t[:1 << j], step, out=t[1 << j:2 << j])
    return t


def _dicut_blocks(n: int, arcs, masks: int, need: Callable[[], int] | None = None
                  ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Dicut sizes of masks 0..masks-1 in ascending blocks.

    Yields (first, part, hi_rows) where part[i, j] + hi_rows[i] is the size
    of mask first + i * 2^k + j, so a row-major scan of the blocks visits
    the masks in ascending order. `part` is one buffer, overwritten by the
    next block. `masks` is 2^n, or 2^(n-1) to pin vertex n-1 RIGHT. `need`,
    called before each block or group of them, returns the least score
    still wanted: a block whose bound (the smaller of the module
    docstring's (1) and (2)) is below it is not scored. Without `need`
    every block is yielded.
    """
    if len(arcs) > np.iinfo(np.int16).max:
        raise InvariantError(
            f"{len(arcs)} arcs overflow the int16 scores (at most 32767)"
        )
    dtype = np.int8 if len(arcs) <= np.iinfo(np.int8).max else np.int16
    k = n // 2
    q = np.bincount(arcs[:, 0] * n + arcs[:, 1], minlength=n * n).astype(dtype).reshape(n, n)
    np.fill_diagonal(q, 0)  # a loop is never cut
    out = q.sum(axis=1, dtype=dtype)
    minus = -(q + q.T)  # minus the arcs between two vertices
    rows = masks >> k
    hb = rows.bit_length() - 1  # high vertices the masks reach
    top = max(k, hb)
    # t[r] is steps[r, 0] plus steps[r, 1 + j] for each bit j of the
    # subset. Its first hb rows are c: high vertex k + i against the low
    # subsets. Then, for x from top - 1 down to 0, comes the pair of low
    # vertex x against the low subsets and high vertex k + x against the
    # high ones, each from its out (zeros where there is no such vertex).
    # A pair is needed only below bit x, where it extends s = (lo, hi), so
    # bit j extends just the rows before the pair of x = j.
    steps = np.zeros((hb + 2 * top, top + 1), dtype)
    steps[:hb, 1:k + 1] = minus[k:k + hb, :k]
    lows, highs = steps[hb:][-2::-2], steps[hb:][::-2]  # x ascending
    lows[:k, 0], highs[:hb, 0] = out[:k], out[k:k + hb]
    lows[:k, 1:k + 1], highs[:hb, 1:hb + 1] = minus[:k, :k], minus[k:k + hb, k:k + hb]
    t = np.empty((len(steps), 1 << top), dtype)
    t[:, 0] = steps[:, 0]
    s = np.zeros((2, 1 << top), dtype)
    for j in range(top):
        r = hb + 2 * (top - 1 - j)
        np.add(t[:r, :1 << j], steps[:r, 1 + j:2 + j], out=t[:r, 1 << j:2 << j])
        np.add(s[:, :1 << j], t[r:r + 2, :1 << j], out=s[:, 1 << j:2 << j])
    lo, hi, c = s[0, :1 << k], s[1, :1 << hb], t[:hb, :1 << k]
    # 2^b rows a block: 1/32 of the rows, at least 2^16 cells, at most
    # _BLOCK_BYTES
    cells = _BLOCK_BYTES // q.itemsize >> k
    b = min(hb, max(0, cells.bit_length() - 1), max(hb - 5, 16 - k))
    part = np.empty((1 << b, 1 << k), dtype)
    blocks = rows >> b
    # A group is 2^gb blocks, one a row of part: the unit the bounds come in.
    gb = min(b, blocks.bit_length() - 1)
    groups = blocks >> gb
    cols = [lo] * blocks.bit_length()
    at = 0  # cols[i] = lo + the c rows of the bits >= i of block `at`

    def column(block: int) -> np.ndarray:
        """lo + the c rows of the block index's bits."""
        nonlocal at
        for j in range((block ^ at).bit_length() - 1, -1, -1):
            cols[j] = cols[j + 1] + c[b + j] if block >> j & 1 else cols[j + 1]
        at = block
        return cols[0]

    bounded = need is not None and blocks > 1
    if bounded:
        # into[j] counts the arcs from high vertex k + j into L. Left free,
        # that vertex adds c[j][l] + into[j] more to column entry l on the
        # LEFT than on the RIGHT, so at most max(0, that), its gain, and
        # into[j] less to hi. sub(f)[r] is what row r's hi holds of the into
        # of its first f bits.
        into = q[k:k + hb, :k].sum(axis=1, dtype=dtype)
        zero = np.zeros(1 << k, dtype)  # np.maximum against a scalar is slow

        def gain(j: int, f: int) -> np.ndarray:
            """The summed gains of high vertices k + j .. k + j + f - 1."""
            x = np.maximum(c[j:j + f] + into[j:j + f, None], zero)
            return x[0] if f == 1 else x.sum(axis=0, dtype=dtype)

        def sub(f: int) -> np.ndarray:
            return _subset_sums(np.zeros(1 << f, dtype), into[:f])

        gain_b, sub_b = gain(0, b), sub(b)
        if groups > 1:
            gain_g = gain_b + gain(b, gb)
            rows_g = hi.reshape(groups, -1)
            hi_max = _run_maxima(rows_g.max(axis=1).tolist())
            row_max = _run_maxima((rows_g - sub(b + gb)).max(axis=1).tolist(),
                                  into[b + gb:].tolist())
    block, col = 0, None  # col: the column in part; None while part is stale
    while block < blocks:
        i = block & ((1 << gb) - 1)
        if bounded and not i and block:
            # A later group is weighed whole before it is entered, with the
            # runs of 2^p groups it starts (p up to its trailing zeros), by
            # (1) and (2) with its column and b + gb + p free vertices. The
            # bounds grow with p: p climbs while they fall below `want`.
            group, want = block >> gb, need()
            col_g = column(block)
            peak, alt, skip = int(col_g.max()), col_g + gain_g, 0
            for p in range((group & -group).bit_length()):
                if p:
                    alt += gain(b + gb + p - 1, 1)
                if (peak + hi_max[p][group >> p] >= want
                        and int(alt.max()) + row_max[p][group >> p] >= want):
                    break
                skip = 1 << p
            if skip:
                block += skip << gb
                continue
        if bounded and not i:
            # Entering a group: lay its blocks' columns in part and bound
            # each block by the smaller of (1) max(column) + max(hi of its
            # rows) and (2) max(column + gain_b) + max(hi - sub_b of its
            # rows), gain_b the summed gains of its b free vertices.
            part[0] = column(block)
            table = _subset_sums(part[:1 << gb], c[b:b + gb])
            col_max = table.max(axis=1).astype(np.int64)
            table += gain_b
            gain_max = table.max(axis=1).astype(np.int64)
            h = hi[block << b:(block + (1 << gb)) << b].reshape(1 << gb, 1 << b)
            bound = _run_maxima(np.minimum(col_max + h.max(axis=1),
                                           gain_max + (h - sub_b).max(axis=1)).tolist())
            col = None
        if bounded:
            # Skip the longest aligned run of blocks whose bounds all fall
            # below the least score still wanted.
            want = need()
            if bound[0][i] < want:
                p = ((i & -i) or 1 << gb).bit_length() - 1
                while bound[p][i >> p] >= want:
                    p -= 1
                block += 1 << p
                continue
        if col is None:
            part[0] = col = column(block)  # part[i] = col + the c rows of the bits of i
            _subset_sums(part, c[:b])
        else:
            np.add(part, column(block) - col, out=part)
            col = cols[0]
        yield block << (b + k), part, hi[block << b:(block + 1) << b]
        block += 1


def _best_dicut(n: int, arcs, masks: int) -> tuple[int, Cut]:
    """Largest score with its lowest mask.

    A later mask wins only if strictly larger, so a block whose bound is at
    most the best score so far is never scored: it cannot move the witness.
    """
    best, best_mask = -1, 0
    for first, part, hi_rows in _dicut_blocks(n, arcs, masks, lambda: best + 1):
        top = part.max(axis=1) + hi_rows
        r = int(top.argmax())
        if top[r] > best:
            best = int(top[r])
            best_mask = first + r * part.shape[1] + int(part[r].argmax())
    return best, _mask_cuts([best_mask], n)[0]


def _best_masks(n: int, arcs) -> tuple[int, np.ndarray]:
    """Largest score with every mask that reaches it, ascending.

    Streams the blocks, keeping only the masks that tie the running best.
    A block is skipped only if its bound is below the best score so far, so
    every tie of the final best is scored.
    """
    best, ties = -1, []
    for first, part, hi_rows in _dicut_blocks(n, arcs, 1 << n, lambda: best):
        top = part.max(axis=1) + hi_rows
        t = int(top.max())
        if t > best:
            best, ties = t, []
        if t == best:
            r = np.flatnonzero(top == best)
            i, j = np.nonzero(part[r] == (best - hi_rows[r])[:, None])
            ties.append(first + r[i] * part.shape[1] + j)
    return best, np.concatenate(ties)


def max_cut_exact(g: RegularGraph, budget: int = 30) -> tuple[int, Cut]:
    """Maximum cut size with a witness.

    Bipartite graphs short-circuit to the 2-coloring (cut = m) at any size;
    otherwise the kernel searches the 2^(n-1) bipartitions with vertex n-1
    pinned RIGHT (which loses nothing by mirror symmetry), scoring only the
    blocks of them whose bound can still beat the best cut so far.
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
    """Maximum directed cut size with a witness, searched over all 2^n sides."""
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
    best, masks = _best_masks(n, o.arcs)
    return best, _mask_cuts(masks, n)
