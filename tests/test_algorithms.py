"""Algorithm behavior: frozen small cases and the structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    Cut,
    InvalidParameterError,
    InvariantError,
    LEFT,
    RIGHT,
    UnsupportedDegreeError,
    complete_graph,
    cut_size,
    dicut_arcs,
    dicut_size,
    distributed_flip_step,
    identity_labelling,
    is_bipartite,
    is_maximal_cut,
    make_circulant,
    make_double_circulant,
    make_id_orientation,
    make_random_orientation,
    make_random_regular,
    median_cut,
    monochromatic_components,
    orient_clockwise,
    oriented_median_cut,
    oriented_median_plus_flips,
    random_cut,
    random_labelling,
    sequential_flip_to_maximal,
    stable_vertices,
    unstable_flip_step,
)
from localcut import algorithms

from conftest import labelling_for, oriented_graphs, peak_bytes, small_regular_graphs

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


# --- median rule -------------------------------------------------------------

def test_median_k4_identity_ids():
    g = complete_graph(4)
    c = median_cut(g, identity_labelling(4))
    # ids 1 and 2 see a neighbor median above themselves
    assert c.sides.tolist() == [LEFT, LEFT, RIGHT, RIGHT]
    assert cut_size(g, c) == 4


def test_median_rejects_even_degree():
    with pytest.raises(UnsupportedDegreeError):
        median_cut(make_circulant(12, 4), identity_labelling(12))


def test_median_rejects_size_mismatch():
    with pytest.raises(InvalidParameterError):
        median_cut(complete_graph(4), identity_labelling(5))


@given(small_regular_graphs(degrees=(3, 5, 7)), seeds)
def test_median_equals_deficit_rule_under_id_orientation(g, seed):
    lab = labelling_for(g.n, seed)
    o = make_id_orientation(g, lab)
    assert median_cut(g, lab) == oriented_median_cut(o)


def test_median_memory_is_one_gather():
    # The gathered neighbour IDs (n*d int64) are sorted in place: the peak is
    # that one array plus n-sized ones, where a sorted copy would double it.
    n, d = 10 ** 5, 5
    g, lab = make_random_regular(n, d, seed=1), random_labelling(n, seed=2)
    out = []
    assert peak_bytes(lambda: out.append(median_cut(g, lab))) < 1.6 * n * d * 8
    ids = lab.ids
    median = np.sort(ids[g.adj], axis=1)[:, d // 2]
    assert np.array_equal(out[0].sides, np.where(median > ids, LEFT, RIGHT))


@given(small_regular_graphs(degrees=(3, 5, 7)), seeds)
def test_median_monochromatic_sets_have_a_weak_vertex(g, seed):
    # inside any same-side component, someone has <= (d-1)/2 same-side nbrs
    lab = labelling_for(g.n, seed)
    c = median_cut(g, lab)
    for comp in monochromatic_components(g, c):
        if len(comp) == 1:
            continue
        weakest = min(
            sum(1 for u in g.adj[v] if u in comp) for v in comp
        )
        assert weakest <= (g.d - 1) // 2


@given(small_regular_graphs(degrees=(3, 5, 7)), seeds)
def test_median_component_boundaries(g, seed):
    lab = labelling_for(g.n, seed)
    c = median_cut(g, lab)
    d = g.d
    for comp in monochromatic_components(g, c):
        k = len(comp)
        inside = np.isin(g.edges(), list(comp))
        b = int(np.count_nonzero(inside[:, 0] != inside[:, 1]))
        if 2 * k >= d + 1:
            assert 4 * b >= 4 * k + (d - 1) * (d + 1)
        else:
            assert 2 * b >= k * (d + 1)


# --- deficit rule ------------------------------------------------------------

def test_oriented_median_k4():
    o = make_id_orientation(complete_graph(4), identity_labelling(4))
    c = oriented_median_cut(o)
    assert c.sides.tolist() == [LEFT, LEFT, RIGHT, RIGHT]
    assert dicut_size(o, c) == 4


def test_oriented_median_rejects_zero_deficit():
    o = orient_clockwise(make_circulant(8, 2))
    with pytest.raises(InvalidParameterError):
        oriented_median_cut(o)


def test_oriented_median_double_circulant():
    o = orient_clockwise(make_double_circulant(12, 5))
    assert dicut_size(o, oriented_median_cut(o)) == 12


# --- flip dynamics -----------------------------------------------------------

def test_all_left_everyone_flips():
    g = make_circulant(8, 2)
    o = orient_clockwise(g)
    c = Cut([LEFT] * 8)
    flipped = unstable_flip_step(o, c)
    assert flipped.sides.tolist() == [RIGHT] * 8
    assert dicut_size(o, flipped) == 0  # still all on one side


def test_stable_cut_is_a_fixed_point():
    g = make_circulant(8, 2)
    o = orient_clockwise(g)
    _, witness = is_bipartite(g)
    assert unstable_flip_step(o, witness) == witness


def test_stable_vertices_all_left():
    g = complete_graph(4)
    assert stable_vertices(g, Cut([LEFT] * 4)).tolist() == [False] * 4
    assert stable_vertices(g, Cut.from_left_set(4, [0])).tolist() == [True] * 4


@given(oriented_graphs(degrees=(3, 5, 7)))
def test_flip_chain_monotone(o):
    c, sizes = oriented_median_plus_flips(o, 3)
    assert list(sizes) == sorted(sizes)
    assert len(sizes) == 4
    assert dicut_size(o, c) == sizes[-1]


@given(oriented_graphs(degrees=(3, 5)))
def test_flip_preserves_stable_set_and_arcs(o):
    c = oriented_median_cut(o)
    for _ in range(3):
        nxt = unstable_flip_step(o, c)
        assert not np.any(stable_vertices(o.graph, c) & ~stable_vertices(o.graph, nxt))
        assert not np.any(dicut_arcs(o, c) & ~dicut_arcs(o, nxt))
        c = nxt


def test_flips_rejects_negative():
    o = make_id_orientation(complete_graph(4), identity_labelling(4))
    with pytest.raises(InvalidParameterError):
        oriented_median_plus_flips(o, -1)


def test_zero_flips_is_the_deficit_cut():
    o = make_id_orientation(complete_graph(4), identity_labelling(4))
    c, sizes = oriented_median_plus_flips(o, 0)
    assert c == oriented_median_cut(o)
    assert sizes == (4,)


# --- distributed FLIP ----------------------------------------------------------

def test_distributed_flip_k4_three_against_one():
    g = complete_graph(4)
    c = Cut.from_left_set(4, [0, 1, 2])
    nxt = distributed_flip_step(g, c)
    # the three Left vertices see 2 of 3 neighbors on their side and flip
    assert nxt.sides.tolist() == [RIGHT, RIGHT, RIGHT, RIGHT]


def test_distributed_flip_fixed_on_maximal_cut():
    g = make_circulant(10, 2)
    _, witness = is_bipartite(g)
    assert distributed_flip_step(g, witness) == witness


def test_distributed_flip_oscillates_on_double_circulant():
    g = make_double_circulant(8, 3)
    c = Cut.from_left_set(g.n, range(8))  # outer Left, inner Right
    prev_size = cut_size(g, c)
    for _ in range(4):
        c = distributed_flip_step(g, c)
        assert cut_size(g, c) == prev_size  # everyone flips, nothing improves


def test_balanced_vertex_stays_put():
    g = make_circulant(8, 2)
    c = Cut.from_left_set(8, [0, 2, 4, 6])
    assert distributed_flip_step(g, c) == c  # every vertex is exactly split


# --- maximality and sequential flips -----------------------------------------

def test_is_maximal_cut_cases():
    g = make_circulant(8, 2)
    _, witness = is_bipartite(g)
    assert is_maximal_cut(g, witness)
    assert not is_maximal_cut(g, Cut([LEFT] * 8))


def test_sequential_flip_k4_from_all_left():
    g = complete_graph(4)
    final = sequential_flip_to_maximal(g, Cut([LEFT] * 4))
    assert is_maximal_cut(g, final)
    assert cut_size(g, final) == 4


def test_sequential_flip_keeps_proper_bipartition():
    g = make_circulant(12, 4)
    _, witness = is_bipartite(g)
    assert sequential_flip_to_maximal(g, witness) == witness


@given(small_regular_graphs(degrees=(3, 4, 5)), seeds)
def test_sequential_flip_reaches_half_m(g, seed):
    final = sequential_flip_to_maximal(g, random_cut(g, seed))
    assert is_maximal_cut(g, final)
    assert 2 * cut_size(g, final) >= g.m


def test_sequential_flip_order_policies():
    g = complete_graph(4)
    start = Cut([LEFT] * 4)
    low = sequential_flip_to_maximal(g, start, order="lowest")
    high = sequential_flip_to_maximal(g, start, order="highest")
    assert cut_size(g, low) == cut_size(g, high) == 4
    assert low != high


def test_sequential_flip_guard_raises_invariant_error(monkeypatch):
    # same-side counts that disagree with the sides (true counts 2, 2, 0, 2)
    # keep vertices improving past m flips; only the guard stops the loop
    monkeypatch.setattr(algorithms, "same_side_counts", lambda g, c: np.array([2, 4, 5, 4]))
    with pytest.raises(InvariantError, match="more than m"):
        sequential_flip_to_maximal(complete_graph(4), Cut([LEFT, LEFT, RIGHT, LEFT]))


def test_sequential_flip_rejects_bad_policy_and_partial_cut():
    g = complete_graph(4)
    with pytest.raises(InvalidParameterError):
        sequential_flip_to_maximal(g, Cut([LEFT] * 4), order="sideways")
    with pytest.raises(InvalidParameterError):
        sequential_flip_to_maximal(g, Cut([LEFT] * 4), order=min)
    with pytest.raises(InvalidParameterError):
        sequential_flip_to_maximal(g, Cut([LEFT, LEFT, LEFT, None]))


# --- random cut ----------------------------------------------------------------

def test_random_cut_reproducible():
    g = make_circulant(12, 4)
    assert random_cut(g, seed=3) == random_cut(g, seed=3)
    assert random_cut(g, seed=3) != random_cut(g, seed=4)
    sides = random_cut(g, seed=3).sides.tolist()
    assert set(sides) <= {LEFT, RIGHT} and len(sides) == g.n
