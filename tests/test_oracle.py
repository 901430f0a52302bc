"""Brute-force oracles against slow reference enumeration, plus the search."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    BudgetError,
    Cut,
    InvalidParameterError,
    LEFT,
    Orientation,
    RIGHT,
    RegularGraph,
    adversarial_labelling_search,
    complete_graph,
    cut_size,
    dicut_size,
    enumerate_max_dicuts,
    is_bipartite,
    make_circulant,
    make_double_circulant,
    make_random_orientation,
    make_random_regular,
    max_cut_exact,
    max_dicut_exact,
    median_cut,
    orient_clockwise,
    oriented_median_cut,
)
from localcut import oracle

from conftest import oriented_graphs, small_regular_graphs

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def reference_max_cut(g) -> int:
    best = 0
    for bits in itertools.product((0, 1), repeat=g.n):
        best = max(best, cut_size(g, Cut(bits)))
    return best


def reference_max_dicut(o) -> int:
    best = 0
    for bits in itertools.product((0, 1), repeat=o.graph.n):
        best = max(best, dicut_size(o, Cut(bits)))
    return best


# Slow reference: one numpy pass over every mask per arc (or edge). Masks
# ascend, and np.argmax takes the first maximum, so the witness is the
# optimal cut of lowest mask (bit v set <=> v on the LEFT).

def per_arc_dicut_sizes(o) -> np.ndarray:
    masks = np.arange(1 << o.graph.n, dtype=np.int64)
    acc = np.zeros(masks.size, dtype=np.uint16)
    for t, h in o.arcs:
        acc += (((masks >> t) & ~(masks >> h)) & 1).astype(np.uint16)
    return acc


def per_edge_cut_sizes(g) -> np.ndarray:
    masks = np.arange(1 << (g.n - 1), dtype=np.int64)  # vertex n-1 RIGHT
    acc = np.zeros(masks.size, dtype=np.uint16)
    for u, v in g.edges():
        acc += (((masks >> u) ^ (masks >> v)) & 1).astype(np.uint16)
    return acc


def mask_cut(mask, n) -> Cut:
    return Cut([LEFT if (int(mask) >> v) & 1 else RIGHT for v in range(n)])


@st.composite
def orientations_up_to_16(draw):
    """Random orientations with 1 <= n <= 16, odd n (even d) included."""
    n = draw(st.integers(min_value=1, max_value=16))
    d = draw(st.sampled_from([d for d in range(min(n, 8)) if n * d % 2 == 0]))
    g = make_random_regular(n, d, seed=draw(seeds))
    return make_random_orientation(g, seed=draw(seeds))


@pytest.mark.parametrize("block_cells", [oracle._BLOCK_CELLS, 8])
@given(orientations_up_to_16())
@settings(max_examples=60)
def test_kernel_matches_per_arc_reference(block_cells, o):
    # block_cells=8 splits every instance into many one- or few-row blocks,
    # so the strict-greater rule across blocks decides the witness.
    n = o.graph.n
    acc = per_arc_dicut_sizes(o)
    best = int(acc.max())
    with mock.patch.object(oracle, "_BLOCK_CELLS", block_cells):
        assert max_dicut_exact(o) == (best, mask_cut(np.argmax(acc), n))
        assert enumerate_max_dicuts(o) == (
            best, [mask_cut(m, n) for m in np.flatnonzero(acc == best)])
        if not is_bipartite(o.graph)[0]:
            acc = per_edge_cut_sizes(o.graph)
            assert max_cut_exact(o.graph) == (int(acc.max()),
                                              mask_cut(np.argmax(acc), n))


@pytest.mark.parametrize("block_cells", [oracle._BLOCK_CELLS, 8])
def test_max_cut_non_bipartite_witness(block_cells):
    g = make_random_regular(15, 4, seed=3)  # odd n: never bipartite
    acc = per_edge_cut_sizes(g)
    with mock.patch.object(oracle, "_BLOCK_CELLS", block_cells):
        size, witness = max_cut_exact(g)
    assert (size, witness) == (int(acc.max()), mask_cut(np.argmax(acc), g.n))
    assert cut_size(g, witness) == size
    assert witness.sides[-1] == RIGHT


# --- exact MaxCut ---------------------------------------------------------

@given(small_regular_graphs(max_half=5, degrees=(3, 4)))
@settings(max_examples=25)
def test_max_cut_matches_reference(g):
    size, witness = max_cut_exact(g)
    assert size == reference_max_cut(g)
    assert cut_size(g, witness) == size


def test_max_cut_k4():
    size, witness = max_cut_exact(complete_graph(4))
    assert size == 4
    assert cut_size(complete_graph(4), witness) == 4


def test_max_cut_single_edge():
    g = RegularGraph.from_edges(2, [(0, 1)])
    size, witness = max_cut_exact(g)
    assert size == 1


def test_max_cut_bipartite_shortcut_any_size():
    g = make_circulant(120, 4)  # way past the enumeration budget
    size, witness = max_cut_exact(g)
    assert size == g.m
    assert cut_size(g, witness) == g.m


def test_max_cut_bipartite_agrees_with_enumeration():
    g = make_circulant(12, 4)
    size, _ = max_cut_exact(g)
    assert size == reference_max_cut(g) == g.m


def test_max_cut_budget_error():
    g = complete_graph(32)  # not bipartite, too big to enumerate
    with pytest.raises(BudgetError):
        max_cut_exact(g)


# --- exact MaxDiCut ---------------------------------------------------------

@given(oriented_graphs(max_half=5, degrees=(3, 4)))
@settings(max_examples=25)
def test_max_dicut_matches_reference(o):
    size, witness = max_dicut_exact(o)
    assert size == reference_max_dicut(o)
    assert dicut_size(o, witness) == size


def test_max_dicut_double_circulant():
    o = orient_clockwise(make_double_circulant(6, 3))
    size, _ = max_dicut_exact(o)
    assert size == 9 == o.graph.m // 2


def test_max_dicut_single_arc():
    g = RegularGraph.from_edges(2, [(0, 1)])
    size, witness = max_dicut_exact(Orientation(g, [(0, 1)]))
    assert size == 1
    assert witness.sides.tolist() == [0, 1]


def test_max_dicut_budget_error():
    g = make_circulant(26, 4)
    with pytest.raises(BudgetError):
        max_dicut_exact(orient_clockwise(g))


@given(oriented_graphs(max_half=6, degrees=(3, 5)))
@settings(max_examples=25)
def test_max_dicut_at_most_max_cut(o):
    dsize, _ = max_dicut_exact(o)
    csize, _ = max_cut_exact(o.graph)
    assert dsize <= csize
    algo = dicut_size(o, oriented_median_cut(o))
    assert algo <= dsize


# --- witness enumeration ----------------------------------------------------

def test_enumerate_max_dicuts_small_cycle():
    g = make_circulant(4, 2)
    o = Orientation(g, [(0, 1), (1, 2), (3, 2), (0, 3)])
    best, cuts = enumerate_max_dicuts(o)
    assert best == max_dicut_exact(o)[0]
    assert all(dicut_size(o, c) == best for c in cuts)
    assert len(set(cuts)) == len(cuts)


def test_enumerate_max_dicuts_budget():
    o = orient_clockwise(make_circulant(18, 4))
    with pytest.raises(BudgetError):
        enumerate_max_dicuts(o)


# --- adversarial labelling search ------------------------------------------

def test_exhaustive_search_k4():
    g = complete_graph(4)
    lab, best = adversarial_labelling_search(g, median_cut, mode="exhaustive")
    assert best == 4  # every labelling of K4 gives the same cut size
    assert cut_size(g, median_cut(g, lab)) == 4


def test_exhaustive_search_budget():
    with pytest.raises(BudgetError):
        adversarial_labelling_search(
            make_circulant(10, 4), median_cut, mode="exhaustive"
        )


def test_exhaustive_no_worse_than_anneal():
    g = complete_graph(6)

    def algo(graph, lab):
        return median_cut(graph, lab)

    _, exhaustive = adversarial_labelling_search(g, algo, mode="exhaustive")
    _, annealed = adversarial_labelling_search(
        g, algo, mode="anneal", budget=500, seed=1
    )
    assert exhaustive <= annealed


def test_anneal_deterministic():
    g = make_double_circulant(6, 3)
    a = adversarial_labelling_search(g, median_cut, mode="anneal",
                                     budget=2000, seed=7)
    b = adversarial_labelling_search(g, median_cut, mode="anneal",
                                     budget=2000, seed=7)
    assert a[1] == b[1] and a[0] == b[0]


def test_search_rejects_bad_mode_and_budget():
    g = complete_graph(4)
    with pytest.raises(InvalidParameterError):
        adversarial_labelling_search(g, median_cut, mode="lucky")
    with pytest.raises(InvalidParameterError):
        adversarial_labelling_search(g, median_cut, mode="anneal", budget=0)
