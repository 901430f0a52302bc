"""Quantitative guarantees, checked in exact arithmetic.

Every floor and ratio is a Fraction; every inequality check compares
integers. Floats never decide a verdict: log_star takes the ceiling of its
argument once and then iterates exact integer bit lengths.
The flip decomposition holds its sets as boolean masks, built with array
expressions. One ledger, _flip_ledgers, counts them per component of a
disjoint union (a lone orientation is one component) and evaluates the
nine flip inequalities on those counts. Claim 2's window floor is
written once, doubled so it is an integer; `window_edge_counts` gives the
inside-edge count of every window length from one start in one pass, and
`check_window_bounds` compares a whole row of lengths against the floor,
one radius at a time, from that one row of counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import InvalidParameterError
from .graphs import (
    Cut,
    LEFT,
    Orientation,
    RegularGraph,
    _read_only,
    component_counts,
    component_offsets,
    dicut_arcs,
)

Rational = Union[int, Fraction]

_MAX_TOWER_EXPONENT = 1 << 20


def median_floor(n: int, d: int) -> Fraction:
    """Guaranteed median-rule cut size: n/2 + (d-1)(d+1)/4."""
    if d % 2 == 0 or d < 1:
        raise InvalidParameterError(f"median floor needs odd d, got {d}")
    return Fraction(n, 2) + Fraction((d - 1) * (d + 1), 4)


def oriented_ratio(d: int) -> Fraction:
    """Deficit-rule approximation ratio 2/(d + 1/d) = 2d/(d^2 + 1)."""
    if d % 2 == 0 or d < 1:
        raise InvalidParameterError(f"oriented ratio needs odd d, got {d}")
    return Fraction(2 * d, d * d + 1)


def f_d(d: int, alpha: Rational, beta: Rational) -> Fraction:
    """The refined ratio (d - 2a + b) / (d^2/2 - a(d+1) + b + 1/2).

    pre: 0 <= alpha, beta <= 1. f_d(0, 0) recovers the bare ratio.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise InvalidParameterError("alpha and beta must lie in [0, 1]")
    num = d - 2 * alpha + beta
    den = Fraction(d * d, 2) - alpha * (d + 1) + beta + Fraction(1, 2)
    return num / den


def two_flip_floor(d: int) -> Fraction:
    """Ratio guaranteed after two flip rounds.

    With x = (d^2+d)/(d^2+4d+1) and y = (1-x)/2 = (3d+1)/(2d^2+8d+2), the
    worst point on the line alpha + beta >= y is (0, y) for d = 3 and
    (y, 0) for d >= 5. d = 3 gives 71/115.
    """
    if d % 2 == 0 or d < 3:
        raise InvalidParameterError(f"two-flip floor needs odd d >= 3, got {d}")
    y = Fraction(3 * d + 1, 2 * d * d + 8 * d + 2)
    return f_d(d, 0, y) if d == 3 else f_d(d, y, 0)


@dataclass(frozen=True, eq=False)
class FlipDecomposition:
    """All the sets the flip-refined inequalities talk about.

    Every set is a read-only boolean mask: M, M_star, M_one, U0 and U1 over
    the vertices 0..n-1, E0 and F0 over the rows of `graph.edges()`, E1 and
    the rows of cut_arcs over the rows of the orientation's `arcs`. Count a
    set with np.count_nonzero; len() of a mask is the size of what it
    ranges over. `deficits` and `arcs` are the orientation's, read-only.

    Relative to the deficit cut (V+ left, V- right) and one fixed optimal
    directed cut (V1, V2):
      M: misplaced vertices, (V1 n V-) u (V2 n V+)
      M_star: members of M with |deficit| >= 3
      M_one: members of M \\ M_star touching no E0 edge and no E1 arc
      E0: edges V- to M n V+, M n V- to V+, or inside M n V+ / M n V-
      E1: arcs stable-to-unstable on the plus side, unstable-to-stable on
          the minus side (exactly the arcs a simultaneous flip adds)
      F0: edges inside V+ \\ M or inside V- \\ M
      U0/U1: unstable vertices before / after one flip
      cut_arcs: one row per cut, the arcs it cuts: the witness's, then
          those of CUT_0, CUT_1 and CUT_2
      big_d: the sum over V+ of out-degrees and over V- of in-degrees
      opt, cut_sizes: the sizes of those cuts, (CUT_0, CUT_1, CUT_2)
    """

    d: int
    n: int
    big_d: int
    opt: int
    cut_sizes: tuple[int, int, int]
    M: np.ndarray
    M_star: np.ndarray
    M_one: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    F0: np.ndarray
    U0: np.ndarray
    U1: np.ndarray
    deficits: np.ndarray
    arcs: np.ndarray
    cut_arcs: np.ndarray


def decompose(o: Orientation, opt_cut: Cut) -> FlipDecomposition:
    """Build the decomposition for an orientation and an optimal-cut witness.

    `opt_cut` is trusted to be optimal; pass a brute-force witness. All
    sets follow the undirected stability convention. Each membership is
    decided within a few hops of its vertex, edge or arc, never across a
    component, so on a disjoint union, with each component's witness side
    by side in `opt_cut`, each component's part of every set is the set it
    gets alone; _flip_ledgers counts them per component.
    """
    from .algorithms import (
        oriented_median_cut,
        stable_vertices,
        unstable_flip_step,
    )

    g = o.graph
    edges = g.edges()
    u, v = edges.T
    t, h = o.arcs.T
    c0 = oriented_median_cut(o)
    plus = c0.sides == LEFT
    M = (opt_cut.sides == LEFT) != plus
    deficits = o.deficits
    M_star = M & (np.abs(deficits) >= 3)

    U0 = ~stable_vertices(g, c0)
    c1 = unstable_flip_step(o, c0)
    c2 = unstable_flip_step(o, c1)
    U1 = ~stable_vertices(g, c1)

    m_plus, m_minus = M & plus, M & ~plus

    def e0_one_way(x, y):
        return (~plus[x] & m_plus[y]) | (m_minus[x] & plus[y])

    E0 = (e0_one_way(u, v) | e0_one_way(v, u)
          | (m_plus[u] & m_plus[v]) | (m_minus[u] & m_minus[v]))
    E1 = ((plus[t] & plus[h] & ~U0[t] & U0[h])
          | (~plus[t] & ~plus[h] & U0[t] & ~U0[h]))
    F0 = ~M[u] & ~M[v] & (plus[u] == plus[v])
    touched = np.zeros(g.n, dtype=bool)
    touched[edges[E0]] = True
    touched[o.arcs[E1]] = True
    M_one = M & ~M_star & ~touched

    cut_arcs = np.stack([dicut_arcs(o, c) for c in (opt_cut, c0, c1, c2)])
    opt, *cut_sizes = np.count_nonzero(cut_arcs, axis=1).tolist()
    masks = {"M": M, "M_star": M_star, "M_one": M_one, "E0": E0, "E1": E1,
             "F0": F0, "U0": U0, "U1": U1, "cut_arcs": cut_arcs}
    return FlipDecomposition(
        d=g.d,
        n=g.n,
        # a V+ vertex's out-degree and a V- vertex's in-degree are both
        # (d + |deficit|) / 2
        big_d=(g.d * g.n + int(np.abs(deficits).sum())) // 2,
        opt=opt,
        cut_sizes=tuple(cut_sizes),
        deficits=deficits,
        arcs=o.arcs,
        **{name: _read_only(mask) for name, mask in masks.items()},
    )


@dataclass(frozen=True)
class InequalityVerdict:
    name: str
    lhs: int
    rhs: int
    holds: bool


def check_inequalities(dec: FlipDecomposition) -> dict[str, InequalityVerdict]:
    """Evaluate the nine flip inequalities on a decomposition: its one
    component's verdicts from _flip_ledgers, keyed by the usual tags."""
    return _flip_ledgers(dec, [dec.n])[0]["verdicts"]


def _flip_ledgers(dec: FlipDecomposition, sizes: Sequence[int]) -> list[dict]:
    """The flip ledger of each component of the disjoint union `dec`
    decomposes: its cut sizes and the nine flip inequalities on its counts.

    Component k has sizes[k] vertices, laid side by side as
    component_offsets(sizes) locates them, and its rows of `edges()` and of
    the arcs start at offsets[k] * d/2, as make_random_orientation_union
    lays them (a lone orientation is one component); InvalidParameterError
    unless both ends of every arc lie in the component of its row, which
    makes every edge lie in one component too. Every count is a
    cumulative sum cut at those offsets, and every quantity an integer;
    (d-1)/2 is exact since d is odd. Returns one record per component, in
    order: d, n, opt, cuts (CUT_0, CUT_1, CUT_2) and verdicts, one
    InequalityVerdict per inequality, keyed by the usual tags.
    """
    d = dec.d
    if d % 2 == 0:
        raise InvalidParameterError("the inequalities assume odd d")
    offsets = component_offsets(sizes)
    if offsets[-1] != dec.n:
        raise InvalidParameterError(
            f"components of {offsets[-1]} vertices, decomposition of {dec.n}")
    rows = offsets * d // 2
    n = np.diff(offsets)
    ends = np.searchsorted(offsets, dec.arcs, side="right") - 1
    if not (ends == np.repeat(np.arange(len(n)), np.diff(rows))[:, None]).all():
        raise InvalidParameterError(
            "each component's arcs must be the block of rows at its offset, inside it")
    opt, cut0, cut1, cut2 = component_counts(dec.cut_arcs, rows)
    msize, mstar, u1 = component_counts(np.stack([dec.M, dec.M_star, dec.U1]), offsets)
    e0, e1, f0 = component_counts(np.stack([dec.E0, dec.E1, dec.F0]), rows)
    big_d = (d * n + component_counts(np.abs(dec.deficits), offsets)) // 2
    base = opt - (d - 1) // 2 * msize

    checks = [
        # eq1 is usually stated as a chain; split it so each step gets a verdict
        ("eq1", cut0, big_d - d * n // 2),
        ("eq1_half", big_d - d * n // 2, -(-n // 2)),
        ("eq2", cut0, base),
        ("eq2bis", cut0, base + e0),
        ("eq2ter", cut1, base + e0 + e1),
        ("eq2quater", cut2, base + e0 + e1 + u1),
        ("eq3", big_d - msize, 2 * opt),
        ("eq3bis", big_d - msize - f0, 2 * opt),
        ("eq3ter", big_d - msize - f0 - mstar, 2 * opt),
        ("eq2c", cut2, base + e0 + e1 + u1 + mstar),
    ]
    names, lhs, rhs = zip(*checks)
    lhs, rhs = np.stack(lhs, axis=1).tolist(), np.stack(rhs, axis=1).tolist()
    cuts = np.stack([cut0, cut1, cut2], axis=1).tolist()
    return [
        {"d": d, "n": size, "opt": best, "cuts": tuple(cut),
         "verdicts": {name: InequalityVerdict(name, left, right, left >= right)
                      for name, left, right in zip(names, lefts, rights)}}
        for size, best, cut, lefts, rights in zip(n.tolist(), opt.tolist(), cuts, lhs, rhs)
    ]


def tower(k: int, x: int) -> int:
    """Iterated exponential: twr_1(x) = x, twr_k(x) = 2^twr_{k-1}(x).

    Guarded: raises OverflowError once an exponent passes 2^20, which
    admits every representable case of the k <= 5, x <= 16 test grid.
    """
    if k < 1:
        raise InvalidParameterError(f"tower needs k >= 1, got {k}")
    if x < 0:
        raise InvalidParameterError(f"tower needs x >= 0, got {x}")
    value = x
    for _ in range(k - 1):
        if value > _MAX_TOWER_EXPONENT:
            # value itself may have thousands of digits; report its size only
            raise OverflowError(
                f"tower exponent of {value.bit_length()} bits exceeds "
                f"guard 2^{_MAX_TOWER_EXPONENT.bit_length() - 1}"
            )
        value = 1 << value
    return value


def log_star(x) -> int:
    """Iterations of base-2 log until the value drops to 1 or below.

    Exact for any real x: every threshold of log* is an integer tower, so
    log*(x) = log*(ceil(x)), and for an integer x >= 2 the ceiling of
    log2(x) is (x - 1).bit_length().
    """
    count = 0
    x = math.ceil(x)
    while x > 1:
        x = (x - 1).bit_length()
        count += 1
    return count


def window_edge_counts(g: RegularGraph, start: int) -> np.ndarray:
    """Per length 0..n, the edges inside that many consecutive circulant
    positions from `start`, as an int64 array of n + 1 counts.

    An edge lies inside a window from `start` exactly when the window
    reaches its later end, position max((u-start) mod n, (v-start) mod n);
    one bincount of those positions and a cumsum give every length.
    """
    if g.family != "circulant":
        raise InvalidParameterError("window counts are defined on circulants")
    last = ((g.edges() - start % g.n) % g.n).max(axis=1)
    counts = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(last, minlength=g.n), out=counts[1:])
    return counts


def _twice_window_bound(d: int, length, r: int):
    """2 * window_bound = l*d - d(r-1) - d^2, for an int or an int array l."""
    if r < 1 or r % 2 == 0:
        raise InvalidParameterError(f"r must be odd >= 1, got {r}")
    return length * d - d * (r - 1) - d * d


def window_bound(d: int, length: int, r: int) -> Fraction:
    """The inner-window edge floor: l*d/2 - d(r-1)/2 - d^2/2."""
    return Fraction(_twice_window_bound(d, length, r), 2)


def check_window_bounds(counts: np.ndarray, d: int, r: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compare every window length l = r..n with its floor, in integers, on
    a circulant of degree d whose window counts are `counts`, as
    window_edge_counts gives them (n = len(counts) - 1).

    A window of l positions loses (r-1)/2 positions on each side before its
    edges are counted, matching how the radius-r information margin is
    spent. A rotation of the circulant maps any window onto any other of
    its length, so the trimmed window holds counts[l - (r-1)] edges, and one
    row of counts serves every r. Returns int64 arrays of the lengths and
    their trimmed-window counts, and the boolean mask
    2*count >= 2*window_bound(d, l, r).
    """
    lengths = np.arange(r, len(counts))
    twice_bounds = _twice_window_bound(d, lengths, r)
    trimmed = counts[lengths - (r - 1)]
    return lengths, trimmed, 2 * trimmed >= twice_bounds
