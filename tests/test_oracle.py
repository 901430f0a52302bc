"""Brute-force oracles against slow reference enumeration."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    BudgetError,
    Cut,
    LEFT,
    Orientation,
    RIGHT,
    RegularGraph,
    complete_graph,
    cut_size,
    dicut_size,
    enumerate_max_dicuts,
    is_bipartite,
    make_circulant,
    make_abcd_instance,
    make_double_circulant,
    make_random_orientation,
    make_random_regular,
    make_single_flip_stuck_instance,
    max_cut_exact,
    max_dicut_exact,
    orient_clockwise,
    oriented_median_cut,
)
from localcut import InvariantError, oracle

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
    return per_arc_sizes(o.graph.n, o.arcs)


def per_arc_sizes(n, arcs) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    acc = np.zeros(masks.size, dtype=np.uint16)
    for t, h in arcs:
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


def mask_sides(masks, n) -> np.ndarray:
    """The sides of each mask's cut as one (len(masks), n) array."""
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return np.where(bits == 1, LEFT, RIGHT)


def assert_ties(result, best, masks, n):
    """`result` is (best, the cuts of `masks` in order), compared as one array."""
    size, cuts = result
    assert size == best and len(cuts) == len(masks)
    assert all(isinstance(c, Cut) for c in cuts)
    assert np.array_equal(np.array([c.sides for c in cuts]), mask_sides(masks, n))


@st.composite
def orientations_up_to_16(draw):
    """Random orientations with 1 <= n <= 16, odd n (even d) included."""
    n = draw(st.integers(min_value=1, max_value=16))
    d = draw(st.sampled_from([d for d in range(min(n, 8)) if n * d % 2 == 0]))
    g = make_random_regular(n, d, seed=draw(seeds))
    return make_random_orientation(g, seed=draw(seeds))


def kernel_scores(n, arcs, masks) -> np.ndarray:
    """Every score the kernel yields with no score to beat, in mask order:
    each block's partial scores plus the hi term of their row, added in
    int64 into a new array, since the kernel overwrites one buffer."""
    blocks, size = [], 0
    for first, part, hi_rows in oracle._dicut_blocks(n, arcs, masks):
        assert first == size
        blocks.append((part + hi_rows[:, None].astype(np.int64)).ravel())
        size += part.size
    assert size == masks
    return np.concatenate(blocks)


def unpruned_best(n, arcs) -> tuple[int, np.ndarray]:
    """The best dicut size over the kernel's unpruned stream and every mask
    that reaches it, ascending; block by block, so n=24 fits in memory."""
    best, ties = -1, []
    for first, part, hi_rows in oracle._dicut_blocks(n, arcs, 1 << n):
        scores = (part + hi_rows[:, None].astype(np.int64)).ravel()
        masks = first + np.arange(part.size)
        t = int(scores.max())
        if t > best:
            best, ties = t, []
        if t == best:
            ties.append(masks[scores == best])
    return best, np.concatenate(ties)


# Block sizes in bytes, which are cells in the int8 tables of every instance
# here (at most 127 arcs): 1 << 20 holds every n <= 16 instance in one block,
# as the default 2^18 does; 8 splits it into many one- or few-row blocks, so the
# strict-greater rule across blocks decides the witness and the solvers'
# bounds skip single blocks and runs of them; "two-rows" puts one bit of the
# high half in each block, so the in-block table and the per-block column
# both carry part of every mask.
ONE_BLOCK = 1 << 20


def block_cells_for(block_cells, n):
    return 2 << (n // 2) if block_cells == "two-rows" else block_cells


def block_shapes(n, arcs, masks) -> list[tuple[int, int]]:
    return [part.shape for _, part, _ in oracle._dicut_blocks(n, arcs, masks)]


@pytest.mark.parametrize("block_cells", [ONE_BLOCK, 8, "two-rows"])
@given(orientations_up_to_16())
@settings(max_examples=60)
def test_kernel_matches_per_arc_reference(block_cells, o):
    n = o.graph.n
    assert 2 * o.graph.m <= 127  # int8 tables: a block's bytes are its cells
    acc = per_arc_dicut_sizes(o)
    best = int(acc.max())
    with mock.patch.object(oracle, "_BLOCK_BYTES", block_cells_for(block_cells, n)):
        shapes = block_shapes(n, o.arcs, 1 << n)
        if block_cells == ONE_BLOCK:
            assert shapes == [(1 << n >> n // 2, 1 << n // 2)]
        elif block_cells == 8:  # 8 cells a block, or one row of 2^k
            assert {rows * cols for rows, cols in shapes} == {min(1 << n, max(8, 1 << n // 2))}
        else:
            assert {rows for rows, _ in shapes} == {2}
        assert np.array_equal(kernel_scores(n, o.arcs, 1 << n), acc)
        assert max_dicut_exact(o) == (best, mask_cut(np.argmax(acc), n))
        assert_ties(enumerate_max_dicuts(o), best, np.flatnonzero(acc == best), n)
        if not is_bipartite(o.graph)[0]:
            e = o.graph.edges()
            acc = per_edge_cut_sizes(o.graph)
            assert np.array_equal(
                kernel_scores(n, np.vstack([e, e[:, ::-1]]), 1 << (n - 1)), acc)
            assert max_cut_exact(o.graph) == (int(acc.max()),
                                              mask_cut(np.argmax(acc), n))


def test_kernel_matches_per_arc_reference_across_default_blocks():
    # n=20 spans several blocks at the default block size.
    o = make_random_orientation(make_random_regular(20, 3, seed=4), seed=5)
    acc = per_arc_dicut_sizes(o)
    assert oracle._BLOCK_BYTES < acc.size
    assert np.array_equal(kernel_scores(20, o.arcs, 1 << 20), acc)
    assert max_dicut_exact(o) == (int(acc.max()), mask_cut(np.argmax(acc), 20))


@given(st.integers(min_value=1, max_value=17), st.data())
@settings(max_examples=25)
def test_kernel_matches_per_arc_reference_on_multigraphs(n, data):
    # Loops and parallel arcs, as a quotient multigraph would have them, up
    # to n=17, past the one-block instances.
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=40))
    arcs = np.array(arcs, dtype=np.int64).reshape(-1, 2)
    acc = per_arc_sizes(n, arcs)
    best = int(acc.max())
    with mock.patch.object(oracle, "_BLOCK_BYTES", data.draw(st.sampled_from([8, ONE_BLOCK]))):
        assert np.array_equal(kernel_scores(n, arcs, 1 << n), acc)
        assert oracle._best_dicut(n, arcs, 1 << n) == (best, mask_cut(np.argmax(acc), n))
        size, masks = oracle._best_masks(n, arcs)
        assert size == best and np.array_equal(masks, np.flatnonzero(acc == best))


@pytest.mark.parametrize("count", [127, 128])
@pytest.mark.parametrize("arcs_of", [
    # max(cols[0]) + max(hi) = A in the block of high vertex 3: its column
    # keeps the A/2 arcs 0->2 and hi({3}) counts the rest.
    lambda a: [(0, 2)] * (a // 2) + [(3, 1)] * (a - a // 2),
    # OPT = A in the first block, then a column of 0 (all arcs 0->3 lost to
    # the block of vertex 3): the witness scan wants A + 1 there.
    lambda a: [(0, 3)] * a,
    # OPT = A in every block: four ties across the high half.
    lambda a: [(0, 1)] * a,
])
@pytest.mark.parametrize("block_cells", [8, ONE_BLOCK])
def test_pruned_kernel_at_the_int8_limit(count, arcs_of, block_cells):
    # 127 arcs fill the int8 tables and 128 move to int16; every bound and
    # score here reaches A itself.
    arcs = np.array(arcs_of(count))
    assert len(arcs) == count
    acc = per_arc_sizes(4, arcs)
    best = int(acc.max())
    assert best == count
    with mock.patch.object(oracle, "_BLOCK_BYTES", block_cells):
        assert next(oracle._dicut_blocks(4, arcs, 16))[1].dtype == (
            np.int8 if count <= 127 else np.int16)
        assert oracle._best_dicut(4, arcs, 16) == (best, mask_cut(np.argmax(acc), 4))
        size, masks = oracle._best_masks(4, arcs)
        assert size == best and np.array_equal(masks, np.flatnonzero(acc == best))


def counting_kernel(rows: list):
    """oracle._dicut_blocks, appending the number of rows of each block it yields."""
    kernel = oracle._dicut_blocks

    def counted(*args, **kwargs):
        for block in kernel(*args, **kwargs):
            rows.append(len(block[1]))
            yield block
    return counted


@pytest.mark.parametrize("make", [
    lambda: make_abcd_instance(3, 12),
    lambda: make_abcd_instance(5, 20),
    lambda: make_abcd_instance(3, 24),
    lambda: make_single_flip_stuck_instance(3),
    lambda: orient_clockwise(make_double_circulant(6, 3)),
], ids=["abcd3-12", "abcd5-20", "abcd3-24", "stuck3", "clockwise-D12"])
def test_pruned_scan_matches_unpruned_stream(make):
    o = make()
    n = o.graph.n
    best, ties = unpruned_best(n, o.arcs)
    assert max_dicut_exact(o, budget=n) == (best, mask_cut(ties[0], n))
    assert_ties(enumerate_max_dicuts(o, budget=n), best, ties, n)


def test_pruned_scan_skips_rows():
    # The rows of each block scored, pinned: losing a skip, or a change of
    # the block size, changes the list.
    r22 = make_random_orientation(make_random_regular(22, 5, seed=1), seed=2)
    for solve, rows in [
        # 3 of 64 blocks: block 0 finds 18 of OPT = 20, then 19 and 20.
        (lambda: max_dicut_exact(make_abcd_instance(3, 24)), [64] * 3),
        # 2 of 16 blocks: the first finds OPT = 26.
        (lambda: max_dicut_exact(make_abcd_instance(5, 20)), [64] * 2),
        (lambda: max_dicut_exact(r22), [64] * 18),  # of 32
        # A non-bipartite MaxCut: no bound falls below OPT, so all 32 blocks.
        (lambda: max_cut_exact(make_random_regular(24, 3, seed=1)), [64] * 32),
    ]:
        scored = []
        with mock.patch.object(oracle, "_dicut_blocks", counting_kernel(scored)):
            solve()
        assert scored == rows


@pytest.mark.parametrize("arc", [(0, 1), (1, 0), (0, 0)])
def test_kernel_int16_guard(arc):
    # Scores and partial sums stay in [-A, A] for A arcs: the largest A the
    # int8 tables hold (127) and the int16 tables hold (32767) are exact,
    # one more arc than 127 moves to int16, and one more than 32767 is refused.
    for count, dtype in [(127, np.int8), (128, np.int16), (32767, np.int16)]:
        arcs = np.array([arc] * count)
        expected = np.zeros(4, dtype=np.int64)
        if arc[0] != arc[1]:
            expected[1 << arc[0]] = count
        assert np.array_equal(kernel_scores(2, arcs, 4), expected)
        assert next(oracle._dicut_blocks(2, arcs, 4))[1].dtype == dtype
    with pytest.raises(InvariantError):
        next(oracle._dicut_blocks(2, np.array([arc] * 32768), 4))


def test_kernel_int16_tables_match_per_edge_reference():
    # MaxCut of a non-bipartite 7-regular graph on 20 vertices has 140 arcs,
    # past the int8 tables, and spans several default blocks.
    g = make_random_regular(20, 7, seed=1)
    assert not is_bipartite(g)[0]
    e = g.edges()
    arcs = np.vstack([e, e[:, ::-1]])
    assert len(arcs) == 140
    assert next(oracle._dicut_blocks(20, arcs, 1 << 19))[1].dtype == np.int16
    acc = per_edge_cut_sizes(g)
    assert np.array_equal(kernel_scores(20, arcs, 1 << 19), acc)
    assert max_cut_exact(g) == (int(acc.max()), mask_cut(np.argmax(acc), 20))


@pytest.mark.parametrize("block_cells", [ONE_BLOCK, 8])
def test_max_cut_non_bipartite_witness(block_cells):
    g = make_random_regular(15, 4, seed=3)  # odd n: never bipartite
    acc = per_edge_cut_sizes(g)
    with mock.patch.object(oracle, "_BLOCK_BYTES", block_cells):
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
