"""The array rules against the per-vertex loops they replaced.

Each reference below is the plain-Python loop that computed the rule when
graphs were tuples of tuples. They read the instance through `.tolist()`
only, and the numpy rule must agree with them exactly, on every degree from
1 to 7 (even degrees included wherever the rule is defined).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    Cut,
    InvalidParameterError,
    LEFT,
    Labelling,
    Orientation,
    RIGHT,
    RegularGraph,
    complete_graph,
    cut_size,
    dicut_arcs,
    dicut_size,
    distributed_flip_step,
    is_maximal_cut,
    make_circulant,
    make_id_orientation,
    make_random_orientation,
    make_random_regular,
    median_cut,
    oriented_median_cut,
    random_cut,
    stable_vertices,
    unstable_flip_step,
    validate_regular,
)

from conftest import labelling_for

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


# --- slow references -----------------------------------------------------------

def ref_validate_regular(adjacency, d):
    """Set-based check of a simple d-regular adjacency."""
    adj = [tuple(nbrs) for nbrs in adjacency]
    n = len(adj)
    neighbor_sets = []
    for u, nbrs in enumerate(adj):
        seen = set(nbrs)
        if len(nbrs) != d or len(seen) != d:
            return False
        if u in seen:
            return False
        if any(not (0 <= v < n) for v in nbrs):
            return False
        neighbor_sets.append(seen)
    return all(u in neighbor_sets[v] for u in range(n) for v in neighbor_sets[u])


def ref_cut_size(adj, sides):
    return sum(1 for u, nbrs in enumerate(adj) for v in nbrs
               if u < v and sides[u] != sides[v])


def ref_dicut_arcs(arcs, sides):
    return {(t, h) for t, h in arcs if sides[t] == LEFT and sides[h] == RIGHT}


def ref_median_sides(adj, ids):
    sides = []
    for v, nbrs in enumerate(adj):
        median = sorted(ids[u] for u in nbrs)[len(nbrs) // 2]
        sides.append(LEFT if median > ids[v] else RIGHT)
    return sides


def ref_deficit_sides(arcs, n):
    """Deficit-sign sides, or None when some vertex has deficit 0."""
    deficit = [0] * n
    for t, h in arcs:
        deficit[t] += 1
        deficit[h] -= 1
    if 0 in deficit:
        return None
    return [LEFT if delta > 0 else RIGHT for delta in deficit]


def ref_same(adj, sides, v):
    return sum(1 for u in adj[v] if sides[u] == sides[v])


def ref_stable(adj, sides):
    return {v for v in range(len(adj)) if any(sides[u] != sides[v] for u in adj[v])}


def ref_unstable_flip(adj, sides):
    stable = ref_stable(adj, sides)
    return [s if v in stable else 1 - s for v, s in enumerate(sides)]


def ref_distributed_flip(adj, sides):
    return [1 - s if 2 * ref_same(adj, sides, v) > len(adj[v]) else s
            for v, s in enumerate(sides)]


def ref_is_maximal(adj, sides):
    return all(2 * ref_same(adj, sides, v) <= len(adj[v]) for v in range(len(adj)))


# --- instances -------------------------------------------------------------------

@st.composite
def graphs_with_sides(draw, degrees=tuple(range(1, 8))):
    """A random regular graph (n <= 40), an orientation and a cut of it."""
    d = draw(st.sampled_from(degrees))
    n = draw(st.integers(min_value=d + 1, max_value=40))
    n += (n * d) % 2
    g = make_random_regular(n, d, seed=draw(seeds))
    o = make_random_orientation(g, seed=draw(seeds))
    sides = draw(st.lists(st.sampled_from([LEFT, RIGHT]), min_size=n, max_size=n))
    return o, sides


@given(graphs_with_sides())
@settings(max_examples=150)
def test_cut_rules_match_loops(case):
    o, sides = case
    g, c = o.graph, Cut(sides)
    adj, arcs = g.adj.tolist(), [tuple(a) for a in o.arcs.tolist()]
    assert validate_regular(g.adj, g.d) and ref_validate_regular(adj, g.d)
    assert cut_size(g, c) == ref_cut_size(adj, sides)
    assert dicut_size(o, c) == len(ref_dicut_arcs(arcs, sides))
    assert dicut_arcs(o, c) == ref_dicut_arcs(arcs, sides)
    assert stable_vertices(g, c) == ref_stable(adj, sides)
    assert unstable_flip_step(o, c).sides.tolist() == ref_unstable_flip(adj, sides)
    assert distributed_flip_step(g, c).sides.tolist() == ref_distributed_flip(adj, sides)
    assert is_maximal_cut(g, c) is ref_is_maximal(adj, sides)


@given(graphs_with_sides(), seeds)
@settings(max_examples=150)
def test_median_and_deficit_rules_match_loops(case, seed):
    o, _ = case
    g = o.graph
    adj, arcs = g.adj.tolist(), o.arcs.tolist()
    want = ref_deficit_sides(arcs, g.n)
    if want is None:
        with pytest.raises(InvalidParameterError):
            oriented_median_cut(o)
    else:
        assert oriented_median_cut(o).sides.tolist() == want
    if g.d % 2:
        lab = labelling_for(g.n, seed)
        assert median_cut(g, lab).sides.tolist() == ref_median_sides(adj, lab.ids)


@pytest.mark.parametrize("low", [2 ** 63 - 8, 2 ** 63, 2 ** 64, 2 ** 200])
def test_median_with_ids_beyond_int64(low):
    # from 2^63 on the IDs go into an object array of Python ints, so no
    # comparison wraps or rounds; 2^63 - 8 straddles the int64 limit
    g = make_random_regular(30, 5, seed=2)
    rng = random.Random(low)
    ids = [low + x for x in rng.sample(range(1000), g.n)]
    lab = Labelling(ids, id_bound=2 ** 201)
    assert lab.id_array().dtype == (object if lab.max_id >= 2 ** 63 else "int64")
    want = ref_median_sides(g.adj.tolist(), ids)
    assert median_cut(g, lab).sides.tolist() == want
    arcs = make_id_orientation(g, lab).arcs.tolist()
    assert all(ids[t] < ids[h] for t, h in arcs)
    assert ref_deficit_sides(arcs, g.n) == want


# --- seeded generators ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(51))
def test_random_streams_equal_one_bit_draws(seed):
    # one getrandbits(32k) call must yield the bits of k getrandbits(1) calls
    g = make_random_regular(24 + seed % 3 * 2, 3 + seed % 2 * 2, seed=seed)
    rng = random.Random(seed)
    assert random_cut(g, seed).sides.tolist() == [rng.getrandbits(1) for _ in range(g.n)]
    rng = random.Random(seed)
    want = [[u, v] if rng.getrandbits(1) else [v, u] for u, v in g.edges().tolist()]
    assert make_random_orientation(g, seed).arcs.tolist() == want


# --- validation -------------------------------------------------------------------

@st.composite
def damaged_adjacencies(draw):
    """A regular adjacency, as lists, with up to two entries overwritten."""
    d = draw(st.sampled_from(range(1, 8)))
    n = draw(st.integers(min_value=d + 1, max_value=40))
    n += (n * d) % 2
    adj = make_random_regular(n, d, seed=draw(seeds)).adj.tolist()
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row = draw(st.integers(min_value=0, max_value=n - 1))
        col = draw(st.integers(min_value=0, max_value=d - 1))
        adj[row][col] = draw(st.integers(min_value=-1, max_value=n))
    if draw(st.booleans()):  # make one row ragged
        row = adj[draw(st.integers(min_value=0, max_value=n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0])
    return adj, d


@given(damaged_adjacencies())
@settings(max_examples=200)
def test_validation_matches_set_reference(case):
    adj, d = case
    valid = ref_validate_regular(adj, d)
    assert validate_regular(adj, d) is valid
    if valid:
        assert RegularGraph(adj, d=d).adj.tolist() == [sorted(r) for r in adj]
    else:
        with pytest.raises(InvalidParameterError):
            RegularGraph(adj, d=d)


@pytest.mark.parametrize("adjacency,defect", [
    ([(1, 7), (0, 2), (1, 0)], "out of range"),
    ([(1, 2), (0, 1), (0, 1)], "own neighbor"),
    ([(1, 1), (0, 0)], "twice"),
    ([(2, 3), (0, 2), (1, 3), (0, 2)], "not symmetric"),
])
def test_each_adjacency_defect_is_rejected(adjacency, defect):
    assert not validate_regular(adjacency, 2)
    assert not ref_validate_regular(adjacency, 2)
    with pytest.raises(InvalidParameterError, match=defect):
        RegularGraph(adjacency)


def test_out_of_range_edge_is_rejected():
    with pytest.raises(InvalidParameterError, match="out of range"):
        RegularGraph.from_edges(3, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("arcs", [
    [(0, 1), (1, 2)],                  # edge {0, 2} missing
    [(0, 1), (1, 2), (0, 1)],          # arc repeated, {0, 2} missing
    [(0, 1), (1, 2), (2, 0), (2, 0)],  # arc repeated on top of a full set
    [(0, 1), (1, 0), (1, 2)],          # both directions of one edge
    [(0, 1), (1, 2), (2, 3)],          # vertex 3 out of range
])
def test_orientation_defects_are_rejected(arcs):
    with pytest.raises(InvalidParameterError, match="exactly once"):
        Orientation(complete_graph(3), arcs)


def test_arrays_are_read_only():
    o = make_random_orientation(make_circulant(8, 2), seed=0)
    c = Cut([LEFT] * 8)
    for array in (o.graph.adj, o.graph.edges(), o.arcs, o.out_degrees, c.sides):
        with pytest.raises(ValueError):
            array[0] = 1
