"""Core types: regular graphs, orientations, labellings, cuts.

Every graph is d-regular, so it is one (n, d) int64 adjacency array with
sorted rows and nothing else; an orientation is one (m, 2) arc array, a cut
an int8 side array. Immutable means these arrays are read-only after
construction. Whatever follows from them is derived per call as a fresh
read-only array: `edges()` from the adjacency (O(m) work) and
`out_degrees` and `deficits` from the arcs (O(n) work). A set of
vertices, edges or arcs is a boolean mask over the vertices, the rows of
`edges()` or the rows of `arcs` (`dicut_arcs` is one).
`cut_edges` marks the rows of `edges()` whose two endpoints lie on
different sides; `cut_size` counts the cut edges from the adjacency, each
seen from both ends, and `same_side_counts` is the per-vertex count the
local rules share. A disjoint union lays graphs side by side, each on a
run of vertices that `component_offsets` locates. Vertices are 0..n-1
throughout; IDs (distinct positive integers) live in a separate Labelling
so a graph can carry many.

Construction checks run at array speed. A Labelling converts input other
than an integer array per ID, decides distinctness and bounds from one sort
and keeps one read-only array. Three constructors trust what holds by
construction, and only they skip a check:

- `RegularGraph.from_edges` skips the symmetry sort that
  `RegularGraph(adjacency)` runs: it lays out both directions of every edge
  after checking every degree, so its adjacency is symmetric, and loops or
  repeated edges still fail the row checks.
- `Orientation._trusted` skips the cover check for arcs that orient every
  edge once by construction: the rows of `edges()`, each kept or reversed
  (the random and ID orientations), or the pairs `from_edges` accepted for
  a directed file (an edge listed both ways repeats a neighbor).
- `Cut._trusted` skips the side check for rows that are 0/1 by
  construction (the oracle's witness cuts).
"""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError

LEFT = 0
RIGHT = 1
# Graphs allocate per-vertex arrays, and a graph with d = 0 has no edges to
# back its n, so every vertex count must lie in 1 <= n < 2^32.
_MAX_N = 2 ** 32
# Up to this many IDs, random.sample beats the numpy decode of _random_ids.
_SAMPLE_MAX_N = 40


def _require_vertex_count(n: int) -> None:
    """Raise InvalidParameterError unless 1 <= n < 2^32."""
    if not 1 <= n < _MAX_N:
        raise InvalidParameterError(f"need 1 <= n < 2^32 vertices, got n={n}")


def _seeded(seed: int) -> random.Random:
    """random.Random(seed); InvalidParameterError for a negative seed, which
    random.Random would take as its absolute value."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def component_offsets(sizes: Sequence[int]) -> np.ndarray:
    """Where each component of a disjoint union starts, then the total:
    [0, s0, s0 + s1, ...] for components of sizes s0, s1, ... laid side by
    side. Times d/2 they are where each component's rows of `edges()` start."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _vertex_mask(n: int, vertices: Iterable[int]) -> np.ndarray:
    """Boolean mask of a vertex set; InvalidParameterError unless every
    vertex is an integer in 0..n-1."""
    v = np.array(list(vertices))
    if v.size and not (v.ndim == 1 and v.dtype.kind in "iu" and v.min() >= 0 and v.max() < n):
        raise InvalidParameterError(f"vertices must be integers in 0..{n - 1}")
    mask = np.zeros(n, dtype=bool)
    mask[v.astype(np.int64)] = True
    return mask


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _int_pairs(pairs, what: str, copy: bool = True) -> np.ndarray:
    """A (k, 2) int64 array from an array or an iterable of pairs: a fresh
    one, or with copy=False an int64 array itself."""
    try:
        a = (np.array if copy else np.asarray)(
            pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or (a.size and (a.ndim != 2 or a.shape[1] != 2)):
        raise InvalidParameterError(f"{what} must be pairs of vertices")
    return a.reshape(-1, 2)


def _adjacency_defect(adj: Optional[np.ndarray], d: Optional[int],
                      symmetric: bool = False) -> Optional[str]:
    """Why an int64 adjacency with sorted rows is not simple d-regular, or
    None; symmetric=True skips the symmetry test, for an adjacency that
    holds both directions of every edge by construction."""
    if adj is None or adj.ndim != 2 or adj.shape[1] != (adj.shape[1] if d is None else d):
        return "rows are not all d integers long"
    n, d = adj.shape
    if adj.size and (adj.min() < 0 or adj.max() >= n):
        return "a neighbor is out of range"
    rows = np.arange(n, dtype=np.int64)[:, None]
    if np.any(adj == rows):
        return "a vertex is its own neighbor"
    if np.any(adj[:, 1:] == adj[:, :-1]):
        return "a vertex lists a neighbor twice"
    if symmetric:
        return None
    # keys u*n+v ascend in row-major order; symmetric iff the v*n+u, sorted,
    # equal them, that is, less adj they leave u*n throughout row u
    back = adj * n
    back += rows
    back.ravel().sort()
    back -= adj
    if not np.all(back == rows * n):
        return "the adjacency is not symmetric"
    return None


def _covers_once(arcs: np.ndarray, n: int, edges: np.ndarray) -> bool:
    """True iff the (k, 2) int64 arcs orient every row of `edges` (u < v,
    ascending) exactly once."""
    if len(arcs) != len(edges):
        return False
    if not arcs.size:
        return True
    keys, hi = np.minimum(arcs[:, 0], arcs[:, 1]), np.maximum(arcs[:, 0], arcs[:, 1])
    if keys.min() < 0 or hi.max() >= n:
        return False
    # each arc's edge as the key u*n+v, u < v: sorted, the keys of edges()
    keys *= n
    keys += hi
    keys.sort()
    np.multiply(edges[:, 0], n, out=hi)
    hi += edges[:, 1]
    return np.array_equal(keys, hi)


class RegularGraph:
    """Simple undirected d-regular graph on vertices 0..n-1.

    `adj` is a read-only (n, d) int64 array whose row v lists v's neighbors
    in increasing order, and the graph's only array: `edges()` derives the
    edge rows from it on each call. `family`/`family_params` record which
    generator produced the graph (orient_clockwise needs to know the
    circulant structure); they do not take part in equality.
    """

    def __init__(self, adjacency, d: Optional[int] = None,
                 family: Optional[str] = None, family_params: Optional[tuple] = None):
        try:
            adj = np.array(adjacency, dtype=np.int64)
            adj.sort(axis=-1)
        except (TypeError, ValueError, OverflowError):
            adj = None
        if adj is not None and adj.shape == (0,):  # no vertices at all
            adj = adj.reshape(0, d or 0)
        self._take(adj, d, family, family_params)

    def _take(self, adj: Optional[np.ndarray], d: Optional[int],
              family: Optional[str], family_params: Optional[tuple],
              symmetric: bool = False) -> None:
        """Check an int64 adjacency with sorted rows and keep it, not a copy;
        symmetric=True as in _adjacency_defect."""
        defect = _adjacency_defect(adj, d, symmetric)
        if defect:
            raise InvalidParameterError(f"adjacency is not a simple d-regular graph: {defect}")
        self.n, self.d = adj.shape
        self.adj = _read_only(adj)
        self.m = self.n * self.d // 2
        self.family = family
        self.family_params = family_params

    @classmethod
    def from_edges(cls, n: int, edges, d: Optional[int] = None,
                   family: Optional[str] = None, family_params: Optional[tuple] = None
                   ) -> "RegularGraph":
        """Graph from an (m, 2) array or an iterable of (u, v) pairs.

        pre: 1 <= n < 2^32, checked before any array is built.
        """
        _require_vertex_count(n)
        e = _int_pairs(edges, "edges", copy=False)
        if e.size and (e.min() < 0 or e.max() >= n):
            raise InvalidParameterError(f"an edge endpoint is out of range 0..{n - 1}")
        degree = np.bincount(e.ravel(), minlength=n)
        if d is None:
            d = int(degree[0]) if n else 0
        if np.any(degree != d):
            raise InvalidParameterError(
                f"adjacency is not a simple {d}-regular graph: degrees differ"
            )
        # both directions of every edge as keys u*n+v: sorted, they are the
        # rows of the adjacency in order, d per vertex, and symmetric
        m = len(e)
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(e[:, 0], n, out=keys[:m])
        keys[:m] += e[:, 1]
        np.multiply(e[:, 1], n, out=keys[m:])
        keys[m:] += e[:, 0]
        keys.sort()
        keys %= n
        g = cls.__new__(cls)
        g._take(keys.reshape(n, d), d, family, family_params, symmetric=True)
        return g

    def edges(self) -> np.ndarray:
        """All edges as a read-only (m, 2) array of rows (u, v), u < v,
        ascending: derived from `adj` on every call, O(m) work and a fresh
        array, so a caller that needs it twice keeps it."""
        # the entries above the diagonal, in row-major order, are the edges
        upper = np.flatnonzero(self.adj > np.arange(self.n)[:, None])
        edges = np.empty((self.m, 2), dtype=np.int64)
        np.floor_divide(upper, self.d, out=edges[:, 0])
        edges[:, 1] = self.adj.ravel()[upper]
        return _read_only(edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.adj.shape, self.adj.tobytes()))

    def __repr__(self) -> str:
        tag = f", family={self.family!r}" if self.family else ""
        return f"RegularGraph(n={self.n}, d={self.d}{tag})"


class Orientation:
    """An orientation of a RegularGraph: every edge gets exactly one arc.

    `arcs` is a read-only (m, 2) int64 array of (tail, head) rows in the
    order given, and the orientation's only array. `out_degrees` (each
    vertex's outgoing arcs) and `deficits` (out-degree minus in-degree) are
    derived from it on each access, O(n) work and a fresh read-only array.
    """

    def __init__(self, graph: RegularGraph, arcs):
        arcs, n = _int_pairs(arcs, "arcs"), graph.n
        if not _covers_once(arcs, n, graph.edges()):
            raise InvalidParameterError(
                "arcs must orient every edge of the graph exactly once"
            )
        self._take(graph, arcs)

    @classmethod
    def _trusted(cls, graph: RegularGraph, arcs: np.ndarray) -> "Orientation":
        """An Orientation over an (m, 2) int64 array that orients every edge
        of `graph` exactly once by construction, kept as given, unchecked."""
        o = cls.__new__(cls)
        o._take(graph, arcs)
        return o

    def _take(self, graph: RegularGraph, arcs: np.ndarray) -> None:
        """Keep an int64 arc array, not a copy."""
        self.graph = graph
        self.arcs = _read_only(arcs)

    @property
    def out_degrees(self) -> np.ndarray:
        """Per vertex, the arcs leaving it."""
        return _read_only(np.bincount(self.arcs[:, 0], minlength=self.graph.n))

    @property
    def deficits(self) -> np.ndarray:
        """Per vertex, out-degree minus in-degree (odd whenever d is odd)."""
        return _read_only(2 * self.out_degrees - self.graph.d)

    def _arc_keys(self) -> np.ndarray:
        return np.sort(self.arcs[:, 0] * self.graph.n + self.arcs[:, 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return (self.graph == other.graph
                and np.array_equal(self._arc_keys(), other._arc_keys()))

    def __hash__(self):
        return hash((self.graph, self._arc_keys().tobytes()))

    def __repr__(self) -> str:
        return f"Orientation(n={self.graph.n}, d={self.graph.d})"


class Labelling:
    """Injective assignment of positive integer IDs to vertices.

    `ids` is the labelling's own read-only array: int64 when every ID fits,
    else an object array of Python ints (IDs may exceed 64 bits). Every ID
    must be a Python or numpy integer other than a bool; anything else
    (floats, strings) raises InvalidParameterError rather than being
    truncated. Default ID space is [1, n^3], the usual polynomial ID
    assumption. `origin` records how the labelling was produced (pattern
    name, seed); purely informational.
    """

    def __init__(self, ids: Sequence[int] | np.ndarray, id_bound: Optional[int] = None,
                 origin: Optional[str] = None):
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"):
            # read twice below: copy a one-shot iterable, but not a list
            raw = ids if isinstance(ids, (list, tuple)) else list(ids)
            try:
                ints = list(map(operator.index, raw))
            except TypeError:
                raise InvalidParameterError("IDs must be integers") from None
            if bool in map(type, raw):
                raise InvalidParameterError("IDs must be integers, not bools")
            # int64 sorts at array speed; only IDs past 64 bits sort as objects
            try:
                ids = np.array(ints, dtype=np.int64)
            except OverflowError:
                ids = np.array(ints, dtype=object)
        # one sort decides distinctness, its ends the bounds, and the sorted
        # copy is gone before the kept one is made
        ordered = np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidParameterError("IDs must be distinct")
        low, high = ordered[[0, -1]].tolist() if len(ordered) else (0, 0)
        del ordered
        n = len(ids)
        if id_bound is None:
            id_bound = n ** 3
        if n and (low < 1 or high > id_bound):
            raise InvalidParameterError(
                f"IDs must lie in [1, {id_bound}]"
            )
        self.ids = _read_only(ids.astype(np.int64 if high <= np.iinfo(np.int64).max else object))
        self.n = n
        self.id_bound = id_bound
        self.max_id = high
        self.origin = origin

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labelling):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)

    def __hash__(self):
        return hash(tuple(self.ids.tolist()))

    def __repr__(self) -> str:
        return f"Labelling(n={self.n}, max_id={self.max_id})"


def identity_labelling(n: int) -> Labelling:
    """IDs 1..n in vertex order."""
    return Labelling(np.arange(1, n + 1), origin="identity")


def _random_ids(n: int, seed: int, id_bound: int) -> list[int] | np.ndarray:
    """Exactly random.Random(seed).sample(range(1, id_bound + 1), n): n
    distinct IDs drawn uniformly from [1, id_bound], in draw order.

    pre: 0 <= n <= id_bound. sample's set method draws getrandbits(b), b
    the bit length of id_bound, until a draw below id_bound that it has not
    drawn before, and takes population[draw] = draw + 1. Below 2^63 the
    draws are decoded in numpy from one getrandbits call (see _draws), the
    first occurrences kept in draw order, and an int64 array is returned.
    sample itself runs its pool method (a population of at most its
    `setsize`) and small n, where it is faster; from 2^63 on, where range()
    has no length, the set method runs here in Python.
    """
    rng, bits = _seeded(seed), id_bound.bit_length()
    if id_bound >= 2 ** 63:
        ids: list[int] = []
        seen: set[int] = set()
        while len(ids) < n:
            j = rng.getrandbits(bits)
            if j < id_bound and j not in seen:
                seen.add(j)
                ids.append(j + 1)
        return ids
    # the second test is sample's own for its pool method at n > 5, float
    # arithmetic included
    if n <= _SAMPLE_MAX_N or id_bound <= 21 + 4 ** math.ceil(math.log(n * 3, 4)):
        return rng.sample(range(1, id_bound + 1), n)
    draws = np.empty(0, dtype=np.int64)
    have = 0
    while have < n:
        # the draws left to expect: each is below id_bound with probability
        # id_bound / 2^bits, and is new with probability (id_bound - k) / id_bound
        # after k distinct ones; a margin of a few deviations makes a second
        # batch rare
        left = 2.0 ** bits * (math.log1p(-have / id_bound) - math.log1p(-n / id_bound))
        batch = _draws(rng, bits, int(left + 4 * math.sqrt(left)) + 32)
        draws = np.concatenate([draws, batch[batch < id_bound]])
        if not have and len(draws) >= n:
            # with no repeat among the first n draws, they are the first n
            # distinct ones: one sort tells, where np.unique's index needs
            # a stable argsort
            head = np.sort(draws[:n])
            if not np.any(head[1:] == head[:-1]):
                return draws[:n] + 1
            del head
        _, first = np.unique(draws, return_index=True)
        have = len(first)
    first.sort()
    ids = draws[first[:n]]
    ids += 1
    return ids


def _draws(rng: random.Random, bits: int, k: int) -> np.ndarray:
    """k calls to rng.getrandbits(bits), 1 <= bits <= 63, from one
    getrandbits(32wk) call, w = ceil(bits / 32): each call takes w 32-bit
    generator outputs, packed little-endian, and shifts the top one right
    by 32w - bits; coin_flips is the case bits = 1 across many generators.
    uint32 for one word, int64 for two."""
    w = -(-bits // 32)
    words = rng.getrandbits(32 * w * k).to_bytes(4 * w * k, "little")
    words = np.frombuffer(words, dtype="<u4").reshape(k, w)
    draws = words[:, -1] >> (32 * w - bits)
    if w == 2:
        draws = draws.astype(np.int64) << 32
        draws |= words[:, 0]
    return draws


def random_labelling(n: int, seed: int, id_bound: Optional[int] = None) -> Labelling:
    """n distinct IDs drawn uniformly from [1, id_bound] (default n^3):
    exactly random.Random(seed).sample(range(1, id_bound + 1), n), decoded
    in numpy (see _random_ids); any id_bound >= n is taken, 2^63 and past
    included. InvalidParameterError for n < 0, id_bound < n or seed < 0."""
    n = operator.index(n)
    if n < 0:
        raise InvalidParameterError(f"need n >= 0 IDs, got n={n}")
    id_bound = n ** 3 if id_bound is None else operator.index(id_bound)
    if id_bound < n:
        raise InvalidParameterError(f"cannot draw {n} distinct IDs from [1, {id_bound}]")
    return Labelling(_random_ids(n, seed, id_bound), id_bound=id_bound,
                     origin=f"random(seed={seed})")


def coin_flips(rngs: Sequence[random.Random], counts: Sequence[int]) -> np.ndarray:
    """The bits of counts[k] calls to rngs[k].getrandbits(1), generator after
    generator, as one int8 array. Each generator makes one getrandbits(32c)
    call, which packs c 32-bit outputs little-endian, and getrandbits(1) is
    the top bit of one output: the bytes of all the calls are joined and
    their top bits decoded at once."""
    words = b"".join(rng.getrandbits(32 * k).to_bytes(4 * k, "little")
                     for rng, k in zip(rngs, counts))
    return (np.frombuffer(words, dtype="<u4") >> 31).astype(np.int8)


class Cut:
    """Two-sided vertex partition: `sides` is a read-only int8 array of
    LEFT (0) / RIGHT (1), one entry per vertex."""

    def __init__(self, sides: Sequence[int]):
        s = np.asarray(sides)
        if s.size and not (s.ndim == 1 and s.dtype.kind in "biu"
                           and s.min() >= LEFT and s.max() <= RIGHT):
            raise InvalidParameterError("every side must be LEFT (0) or RIGHT (1)")
        self.sides = _read_only(s.reshape(-1).astype(np.int8))
        self.n = len(self.sides)

    @classmethod
    def _trusted(cls, sides: np.ndarray) -> "Cut":
        """A Cut over a read-only int8 row of LEFT/RIGHT, kept as given, unchecked."""
        c = cls.__new__(cls)
        c.sides = sides
        c.n = len(sides)
        return c

    @classmethod
    def from_left_set(cls, n: int, left: Iterable[int]) -> "Cut":
        """LEFT on the given vertices, RIGHT elsewhere; each must lie in 0..n-1."""
        return cls(np.where(_vertex_mask(n, left), LEFT, RIGHT))

    def left_vertices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.sides == LEFT).tolist())

    def right_vertices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.sides == RIGHT).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return np.array_equal(self.sides, other.sides)

    def __hash__(self):
        return hash(self.sides.tobytes())

    def __repr__(self) -> str:
        return f"Cut(left={len(self.left_vertices())}, right={len(self.right_vertices())})"


def _require_cover(g: RegularGraph, c: Cut) -> None:
    if c.n != g.n:
        raise InvalidParameterError(f"cut covers {c.n} vertices, graph has {g.n}")


def same_side_counts(g: RegularGraph, c: Cut) -> np.ndarray:
    """Per vertex, how many of its neighbors share its side."""
    _require_cover(g, c)
    return (c.sides[g.adj] == c.sides[:, None]).sum(axis=1)


def cut_edges(g: RegularGraph, c: Cut) -> np.ndarray:
    """Boolean mask over the rows of `g.edges()`: the edges the cut splits."""
    _require_cover(g, c)
    e = g.edges()
    return c.sides[e[:, 0]] != c.sides[e[:, 1]]


def cut_size(g: RegularGraph, c: Cut) -> int:
    """Number of edges whose endpoints are on different sides, counted over
    the adjacency, where each is seen from both ends."""
    _require_cover(g, c)
    return int(np.count_nonzero(c.sides[g.adj] != c.sides[:, None])) // 2


def dicut_arcs(o: Orientation, c: Cut) -> np.ndarray:
    """Boolean mask over the rows of `o.arcs`: the arcs from left to right."""
    _require_cover(o.graph, c)
    return (c.sides[o.arcs[:, 0]] == LEFT) & (c.sides[o.arcs[:, 1]] == RIGHT)


def dicut_size(o: Orientation, c: Cut) -> int:
    """Number of arcs from the left side to the right side."""
    return int(np.count_nonzero(dicut_arcs(o, c)))


def is_bipartite(g: RegularGraph) -> tuple[bool, Optional[Cut]]:
    """BFS 2-coloring. Returns (True, witness cut of size m) or (False, None)."""
    adj = g.adj.tolist()
    color: list[Optional[int]] = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = LEFT
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False, None
    return True, Cut(color)


def monochromatic_components(g: RegularGraph, c: Cut) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by each cut side."""
    _require_cover(g, c)
    adj, sides = g.adj.tolist(), c.sides.tolist()
    seen = [False] * g.n
    components: list[frozenset[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v] and sides[v] == sides[start]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        components.append(frozenset(comp))
    return components

