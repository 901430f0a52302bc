"""Independent reference checks, written with numpy and plain Python.

No expected value here comes from the localcut function it checks: graphs,
orientations, cuts and labellings are read through their public attributes
(``adj``, ``arcs``, ``sides``, ``ids``) and recounted from scratch. Each
failed check is recorded with the operation it checks and the parameters
needed to replay it.
"""

from __future__ import annotations

import inspect
import itertools
from fractions import Fraction

import numpy as np

LEFT = 0


class Checker:
    """Collects failed checks for one pass."""

    def __init__(self):
        self.failures: list[dict] = []

    def check(self, ok, operation: str, detail: str, /, **params) -> bool:
        if not ok:
            self.failures.append({"operation": operation, "detail": detail,
                                  "params": params})
        return bool(ok)


# -- array views of library objects ----------------------------------------

def nbrs_of(g) -> np.ndarray:
    return np.asarray(g.adj, dtype=np.int64).reshape(len(g.adj), -1)


def arcs_of(o) -> np.ndarray:
    return np.asarray(o.arcs, dtype=np.int64).reshape(-1, 2)


def sides_of(c) -> np.ndarray:
    return np.asarray(c.sides, dtype=np.int64)


def ids_of(lab) -> np.ndarray:
    return np.asarray(lab.ids, dtype=np.int64)


# -- references --------------------------------------------------------------

def edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    return np.sort(lo * n + hi)


def regular_edges(nbrs: np.ndarray) -> np.ndarray | None:
    """Sorted edge keys u*n+v (u<v) of a simple d-regular adjacency, or None."""
    n, d = nbrs.shape
    u = np.repeat(np.arange(n), d)
    v = nbrs.ravel()
    if v.size and (v.min() < 0 or v.max() >= n or np.any(u == v)):
        return None
    forward = np.sort(u * n + v)
    if np.any(np.diff(forward) == 0):  # repeated neighbour
        return None
    if not np.array_equal(forward, np.sort(v * n + u)):  # asymmetric
        return None
    return forward[(forward // n) < (forward % n)]


def cut_count(nbrs: np.ndarray, sides: np.ndarray) -> int:
    return int((sides[:, None] != sides[nbrs]).sum()) // 2


def dicut_count(arcs: np.ndarray, sides: np.ndarray) -> int:
    return int(((sides[arcs[:, 0]] == LEFT) & (sides[arcs[:, 1]] != LEFT)).sum())


def median_sides(nbrs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    d = nbrs.shape[1]
    return np.where(np.sort(ids[nbrs], axis=1)[:, d // 2] > ids, 0, 1)


def deficit_sides(arcs: np.ndarray, n: int) -> np.ndarray:
    deficit = np.bincount(arcs[:, 0], minlength=n) - np.bincount(arcs[:, 1], minlength=n)
    return np.where(deficit > 0, 0, 1)


def same_side(nbrs: np.ndarray, sides: np.ndarray) -> np.ndarray:
    return (sides[nbrs] == sides[:, None]).sum(axis=1)


def unstable_flip(nbrs: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Flip every vertex with no neighbour on the other side."""
    unstable = same_side(nbrs, sides) == nbrs.shape[1]
    return np.where(unstable, 1 - sides, sides)


def majority_flip(nbrs: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """One FLIP round: strict same-side majority flips."""
    return np.where(2 * same_side(nbrs, sides) > nbrs.shape[1], 1 - sides, sides)


def sequential_local_search(nbrs: np.ndarray) -> int:
    """Cut size of a maximal cut reached by single improving flips."""
    n, d = nbrs.shape
    sides = [v % 2 for v in range(n)]
    improved = True
    while improved:
        improved = False
        for v in range(n):
            if 2 * sum(sides[u] == sides[v] for u in nbrs[v]) > d:
                sides[v] = 1 - sides[v]
                improved = True
    return cut_count(nbrs, np.array(sides))


def brute_max_dicuts(arcs: np.ndarray, n: int) -> tuple[int, set[int]]:
    """Best dicut and every mask attaining it; bit v set means v is LEFT."""
    masks = np.arange(1 << n, dtype=np.int64)
    left = (masks[:, None] >> np.arange(n)) & 1
    score = (left[:, arcs[:, 0]] & (1 - left[:, arcs[:, 1]])).sum(axis=1)
    best = int(score.max())
    return best, {int(m) for m in np.nonzero(score == best)[0]}


def mask_of(sides: np.ndarray) -> int:
    return int(sum(1 << v for v in np.nonzero(sides == LEFT)[0]))


# -- reusable checks ------------------------------------------------------

def check_regular(ck: Checker, g, n: int, d: int, operation: str, /, **params) -> np.ndarray | None:
    nbrs = nbrs_of(g)
    ok = ck.check(nbrs.shape == (n, d), operation, f"shape {nbrs.shape} != {(n, d)}", **params)
    keys = regular_edges(nbrs) if ok else None
    ok = ck.check(keys is not None, operation, "not a simple d-regular graph", **params)
    if ok:
        ck.check(keys.size == n * d // 2, operation, f"{keys.size} edges != nd/2", **params)
    return keys


def check_orientation(ck: Checker, o, keys: np.ndarray, n: int, operation: str, /,
                      **params) -> np.ndarray:
    arcs = arcs_of(o)
    ck.check(len(arcs) == len(keys) and np.array_equal(edge_keys(arcs, n), keys),
             operation, "arcs do not orient every edge exactly once", **params)
    return arcs


# -- verify suites: case counts implied by each suite's own parameters -------

def _defaults(fn) -> dict:
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def _tower_fits(k: int, x: int, guard: int = 1 << 20) -> bool:
    value = x
    for _ in range(k - 1):
        if value > guard:
            return False
        value = 1 << value
    return True


def expected_cases(suite: str, fn) -> int:
    """Number of cases the suite checks at its default parameters."""
    p = _defaults(fn)
    if suite == "median-floor":
        halves = lambda d: len({max(2 * (d - 1), d + 1), 2 * d, 12})
        return sum((halves(d) + p["random_graphs"]) * p["labellings_per_graph"]
                   for d in p["degrees"])
    if suite == "oriented-ratio":
        return p["floor_cases"] + len(p["ratio_degrees"]) * p["ratio_cases_per_degree"]
    if suite == "flip-inequalities":
        return len(p["degrees"]) * p["cases_per_degree"] + 2
    if suite == "two-flip-floor":
        return len(p["degrees"]) * p["cases_per_degree"]
    if suite == "flip-monotonicity":
        return p["cases"]
    if suite == "constructions":
        top = p["max_n"]
        even = sum(len(range(2 * d, top + 1, 2)) for d in (2, 4, 6))
        odd = sum(len(range(2 * (d - 1), top + 1, 2)) for d in (3, 5, 7))
        return even + odd + 2
    if suite == "claim1":
        return sum(_tower_fits(k, x) for k, x in itertools.product(
            range(1, p["max_k"] + 1), range(1, p["max_n"] + 1)))
    if suite == "claim2":
        return 1 + sum(
            len(range(1, min(length, p["max_r"]) + 1, 2))
            for d in p["degrees"]
            for n in range(2 * d, p["max_n"] + 1, 4)
            for length in range(1, n + 1))
    if suite == "folklore":
        return p["trials"]
    raise KeyError(suite)


def abcd_optimum(d: int, n: int) -> Fraction:
    """The four-set instance's MaxDiCut: (d^2+1)/(2d) * n/2."""
    return Fraction(d * d + 1, 2 * d) * Fraction(n, 2)
