"""Core types: validation, invariants, and the cut/dicut identities."""

import io
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    identity_labelling,
    is_bipartite,
    make_circulant,
    make_double_circulant,
    make_id_orientation,
    make_random_orientation,
    make_random_orientation_union,
    make_random_regular,
    make_random_regular_union,
    monochromatic_components,
    orient_clockwise,
    random_labelling,
    read_graph,
    write_graph,
)

from conftest import (array_attributes, oriented_graphs, peak_bytes, retained_bytes,
                      small_regular_graphs)


def test_validate_regular_accepts_cycle():
    assert RegularGraph([(1, 3), (0, 2), (1, 3), (0, 2)], d=2).m == 4


def test_validate_regular_rejects_wrong_degree():
    with pytest.raises(InvalidParameterError, match="d integers long"):
        RegularGraph([(1, 2), (0,), (0,)], d=2)


def test_validate_regular_rejects_self_loop():
    with pytest.raises(InvalidParameterError, match="own neighbor"):
        RegularGraph([(0, 1), (0, 0)], d=2)


def test_validate_regular_rejects_asymmetry():
    # 1 lists 0 but 0 does not list 1
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        RegularGraph([(2, 3), (0, 2), (1, 3), (0, 2)], d=2)


def test_validate_regular_rejects_out_of_range():
    with pytest.raises(InvalidParameterError, match="out of range"):
        RegularGraph([(1, 7), (0, 2), (1, 0)], d=2)


def test_regular_graph_rejects_duplicate_edge():
    with pytest.raises(InvalidParameterError):
        RegularGraph.from_edges(2, [(0, 1), (0, 1)])


def test_regular_graph_sorts_adjacency():
    g = RegularGraph([(3, 1), (0, 2), (1, 3), (2, 0)])
    assert g.adj[0].tolist() == [1, 3]
    assert g.m == 4
    assert g.edges().tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_regular_graph_equality_ignores_family():
    a = make_circulant(8, 2)
    b = RegularGraph(a.adj)
    assert a == b and hash(a) == hash(b)
    assert b.family is None


def test_orientation_requires_every_edge_once():
    g = complete_graph(3)
    with pytest.raises(InvalidParameterError):
        Orientation(g, [(0, 1), (1, 2)])  # missing edge {0,2}
    with pytest.raises(InvalidParameterError):
        Orientation(g, [(0, 1), (1, 0), (1, 2)])  # both directions
    with pytest.raises(InvalidParameterError):
        Orientation(g, [(0, 1), (1, 2), (0, 2), (0, 2)])  # duplicate


def test_orientation_degrees():
    g = complete_graph(3)
    o = Orientation(g, [(0, 1), (1, 2), (2, 0)])
    assert o.out_degrees.tolist() == [1, 1, 1]
    assert o.deficits.tolist() == [0, 0, 0]


def test_deficit_partition_directed_cycle():
    g = make_circulant(4, 2)
    o = orient_clockwise(g)
    assert o.deficits.tolist() == [0] * 4


def test_deficit_partition_clockwise_double_circulant():
    g = make_double_circulant(8, 3)
    o = orient_clockwise(g)
    assert o.deficits.tolist() == [1] * 8 + [-1] * 8  # outer cycle, then inner


@given(oriented_graphs())
def test_orientation_degree_sums(o):
    m = o.graph.m
    assert o.out_degrees.sum() == m
    assert (o.graph.d - o.out_degrees).sum() == m
    assert o.deficits.sum() == 0


def directed_file_orientations(o):
    """o read back from its directed file, by the byte parser and, with one
    token widened to 19 digits, by the line parser."""
    buf = io.StringIO()
    write_graph(buf, o)
    text = buf.getvalue()
    wide = text.replace("\n", "\n" + "0" * 18, 1)
    return [read_graph(io.StringIO(t))[0] for t in (text, wide)]


@given(small_regular_graphs(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_orientations_built_unchecked_pass_the_full_check(g, seed):
    # the generators and read_graph skip the cover check; the public
    # constructor, which runs it, must take their arcs as they are
    ns, seeds = [g.n, g.n + 2], [seed, seed + 1]
    union = make_random_regular_union(ns, g.d, seeds)
    built = [make_random_orientation(g, seed),
             make_id_orientation(g, random_labelling(g.n, seed)),
             make_random_orientation_union(union, ns, seeds),
             *directed_file_orientations(make_random_orientation(g, seed))]
    for o in built:
        checked = Orientation(o.graph, o.arcs)
        assert checked == o and o.arcs.dtype == np.int64
        assert np.array_equal(checked.out_degrees, o.out_degrees)
        assert not o.arcs.flags.writeable and not o.out_degrees.flags.writeable


def test_a_graph_and_its_orientation_keep_one_array_each():
    # edges(), out_degrees and deficits are derived on each call, so at
    # n = 10^5, d = 5 the pair retains its adjacency and its arcs and little
    # else (the two arrays are 7.63 MiB together)
    o, kept = retained_bytes(
        lambda: make_random_orientation(make_random_regular(10 ** 5, 5, seed=1), seed=2))
    assert array_attributes(o.graph) == ["adj"] and array_attributes(o) == ["arcs"]
    assert kept <= o.graph.adj.nbytes + o.arcs.nbytes + 2 ** 19


def test_labelling_rejects_duplicates():
    with pytest.raises(InvalidParameterError):
        Labelling([1, 2, 2])


def test_labelling_rejects_out_of_bound_ids():
    with pytest.raises(InvalidParameterError):
        Labelling([0, 1])
    with pytest.raises(InvalidParameterError):
        Labelling([1, 9], id_bound=8)
    Labelling([1, 8], id_bound=8)  # boundary is inclusive


@pytest.mark.parametrize("ids", [
    [1.5, 2.7, 3.2],
    [1.0, 2, 3],
    np.array([1.0, 2.0, 3.9]),
    ["1", "2", "3"],
    [True, 2, 3],
    [np.True_, 2],
    iter([True, 2]),
    [None, 2],
])
def test_labelling_rejects_non_integer_ids(ids):
    with pytest.raises(InvalidParameterError):
        Labelling(ids)


def test_labelling_takes_python_and_numpy_integers():
    assert Labelling(np.array([3, 1, 2], dtype=np.uint8)).ids.tolist() == [3, 1, 2]
    assert Labelling([np.int64(2), 1, np.int32(3)]).ids.tolist() == [2, 1, 3]
    assert all(type(x) is int for x in Labelling(np.arange(1, 4)).ids.tolist())
    assert Labelling([2 ** 70, 1], id_bound=2 ** 71).max_id == 2 ** 70


def test_labelling_default_bound_is_n_cubed():
    assert Labelling([1, 2, 3]).id_bound == 27
    Labelling([1, 2, 27])
    with pytest.raises(InvalidParameterError):
        Labelling([1, 2, 28])


def labelling_outcome(ids, **kw):
    """(ids, max_id, id_bound) of Labelling(ids), or the message it raises."""
    try:
        lab = Labelling(ids, **kw)
    except InvalidParameterError as e:
        return str(e)
    ids = lab.ids.tolist()
    assert all(type(x) is int for x in ids)
    return ids, lab.max_id, lab.id_bound


@pytest.mark.parametrize("ids,kw", [
    (np.array([1, 2, 2]), {}),
    (np.array([5, 3, 5, 1], dtype=np.int32), {}),
    (np.array([0, 1]), {}),
    (np.array([-1, 2], dtype=np.int8), {}),
    (np.array([1, 9]), {"id_bound": 8}),
    (np.array([1, 8]), {"id_bound": 8}),
    (np.array([1, 28]), {}),
    (np.array([True, False]), {}),
    (np.array([True]), {}),
    (np.array([3, 1, 2], dtype=np.int32), {}),
    (np.array([3, 1, 2], dtype=np.uint16), {}),
    (np.array([2 ** 63 + 5, 1, 2 ** 64 - 1], dtype=np.uint64), {"id_bound": 2 ** 64}),
    (np.array([2 ** 63 + 5, 1, 2 ** 64 - 1], dtype=np.uint64), {"id_bound": 2 ** 64 - 2}),
    (np.array([2 ** 63, 2 ** 63], dtype=np.uint64), {"id_bound": 2 ** 64}),
    (np.array([2 ** 62, 7]), {"id_bound": 2 ** 63 - 1}),
    (np.array([], dtype=np.int64), {}),
    (np.array([], dtype=np.int64), {"id_bound": -3}),
    (np.array([[1, 2]]), {}),
])
def test_labelling_array_path_matches_list_path(ids, kw):
    # an integer array takes the sort-based path; the list of its elements
    # (numpy scalars, as iterating it gives) takes the per-ID path
    assert labelling_outcome(ids, **kw) == labelling_outcome(list(ids), **kw)


def test_labelling_array_memory_is_one_array():
    # the kept int64 copy (8 bytes per ID) and one bool per ID; the sorted
    # copy (8) is gone before the kept one is made, and keeping both, or a
    # tuple of Python ints (40 and more), would break the bound
    n = 10 ** 5
    ids = np.random.default_rng(1).choice(n ** 3, n, replace=False) + 1
    out = []
    assert peak_bytes(lambda: out.append(Labelling(ids))) < 16 * n
    assert out[0].ids.tolist() == ids.tolist()


def test_labelling_ids_are_its_own_read_only_array():
    ids = np.arange(1, 6)
    lab = Labelling(ids)
    with pytest.raises(ValueError):
        lab.ids[0] = 1
    ids[0] = 6
    assert lab.ids.tolist() == [1, 2, 3, 4, 5]
    same = Labelling(range(1, 6))  # the per-ID path
    assert lab == same and hash(lab) == hash(same) and lab != Labelling(ids)


@pytest.mark.parametrize("top,dtype", [(2 ** 63 - 1, np.int64), (2 ** 63, object)])
def test_labelling_ids_are_int64_while_they_fit(top, dtype, monkeypatch):
    # the per-ID path and the array path give equal labellings, equal hashes;
    # per-ID input is an int64 array already at its one sort, since an
    # object array sorts by Python comparisons, several times slower
    sorted_dtypes, real_sort = [], np.sort
    monkeypatch.setattr(np, "sort", lambda a: sorted_dtypes.append(a.dtype) or real_sort(a))
    labs = [Labelling(ids, id_bound=2 ** 64) for ids in ([1, top], np.array([1, top], dtype=np.uint64))]
    for lab in labs:
        assert lab.ids.dtype == dtype and lab.ids.tolist() == [1, top]
    assert labs[0] == labs[1] and hash(labs[0]) == hash(labs[1])
    assert sorted_dtypes[0] == dtype


def reference_sample(n, seed, id_bound):
    """random.sample's set method on range(1, id_bound + 1), which range()
    cannot take from 2^63 on: getrandbits with rejection, first occurrences."""
    rng, bits, ids = random.Random(seed), id_bound.bit_length(), []
    while len(ids) < n:
        j = rng.getrandbits(bits)
        if j < id_bound and j + 1 not in ids:
            ids.append(j + 1)
    return ids


@pytest.mark.parametrize("id_bound", [2 ** 63, 2 ** 63 + 1, 2 ** 64 + 3, 10 ** 30])
@pytest.mark.parametrize("n", [1, 5, 60])
def test_random_labelling_past_int64(n, id_bound):
    lab = random_labelling(n, seed=1, id_bound=id_bound)
    assert lab.ids.tolist() == reference_sample(n, 1, id_bound)
    assert lab.id_bound == id_bound


def test_random_labelling_takes_a_bound_of_n():
    assert sorted(random_labelling(50, seed=1, id_bound=50).ids.tolist()) == list(range(1, 51))
    assert random_labelling(0, seed=1).ids.tolist() == []


@pytest.mark.parametrize("n,id_bound", [(5, 3), (-1, None), (-1, 10), (1, 0), (100, 99)])
def test_random_labelling_rejects_impossible_draws(n, id_bound):
    with pytest.raises(InvalidParameterError):
        random_labelling(n, seed=1, id_bound=id_bound)


def test_random_labelling_reproducible():
    a = random_labelling(10, seed=5)
    b = random_labelling(10, seed=5)
    assert a == b
    assert a != random_labelling(10, seed=6)


def test_cut_basics():
    with pytest.raises(InvalidParameterError):
        Cut([LEFT, RIGHT, None])  # partial cuts do not exist
    c = Cut([LEFT, RIGHT])
    assert c.left_vertices() == (0,)
    assert c.right_vertices() == (1,)
    with pytest.raises(InvalidParameterError):
        Cut([2])


@pytest.mark.parametrize("sides", [
    np.array([True, False, True]),
    np.array([0, 1, 1], dtype=np.int64),
    np.array([1, 0, 0], dtype=np.uint8),
    np.array([0, 1, 0], dtype=np.int8),
])
def test_cut_accepts_bool_and_integer_sides(sides):
    c = Cut(sides)
    assert c.sides.dtype == np.int8 and c.sides.tolist() == sides.astype(int).tolist()


@pytest.mark.parametrize("sides", [
    [0, 2],
    [-1, 0],
    np.array([0, 1, 2], dtype=np.uint8),
    np.array([-1, 1], dtype=np.int64),
    np.array([0, 256], dtype=np.int64),  # 0 as int8
    np.array([1, -255], dtype=np.int64),  # 1 as int8
    np.array([0.0, 1.0]),
    np.array([[0, 1], [1, 0]]),
    np.array([[True], [False]]),
])
def test_cut_rejects_other_sides(sides):
    with pytest.raises(InvalidParameterError, match="every side must be LEFT"):
        Cut(sides)


@pytest.mark.parametrize("n", [0, 2 ** 32, 10 ** 18])
def test_from_edges_rejects_vertex_count_before_allocating(n):
    def build():
        with pytest.raises(InvalidParameterError, match=r"need 1 <= n < 2\^32"):
            RegularGraph.from_edges(n, [], d=0)
    assert peak_bytes(build) < 2 ** 20


def test_cut_from_left_set():
    c = Cut.from_left_set(4, [0, 2])
    assert c.sides.tolist() == [LEFT, RIGHT, LEFT, RIGHT]
    assert set(c.sides.tolist()) <= {LEFT, RIGHT} and len(c.sides) == 4


@pytest.mark.parametrize("left", [[0, 7, -2], [4], [-1], [0.5], [True], [2 ** 70], [[0, 1]],
                                  [None]])
def test_cut_from_left_set_rejects_other_vertices(left):
    with pytest.raises(InvalidParameterError, match=r"integers in 0\.\.3"):
        Cut.from_left_set(4, left)


def test_cut_from_left_set_takes_any_integer_iterable():
    want = [LEFT, RIGHT, LEFT, RIGHT]
    for left in ([0, 2], (2, 0, 2), {0, 2}, range(0, 4, 2), np.array([2, 0], dtype=np.uint8)):
        assert Cut.from_left_set(4, left).sides.tolist() == want
    assert Cut.from_left_set(0, []).n == 0


def test_cut_size_requires_total():
    g = complete_graph(3)
    with pytest.raises(InvalidParameterError):
        cut_size(g, Cut([LEFT, RIGHT, None]))
    with pytest.raises(InvalidParameterError):
        cut_size(g, Cut([LEFT, RIGHT]))


def test_cut_size_k4():
    g = complete_graph(4)
    assert cut_size(g, Cut.from_left_set(4, [0, 1])) == 4
    assert cut_size(g, Cut.from_left_set(4, [0])) == 3
    assert cut_size(g, Cut.from_left_set(4, [])) == 0


@given(oriented_graphs(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dicut_and_mirror_partition_the_cut(o, seed):
    # every crossing edge is directed one way, so the two dicuts add up
    rng = random.Random(seed)
    c = Cut([rng.getrandbits(1) for _ in range(o.graph.n)])
    total = cut_size(o.graph, c)
    assert dicut_size(o, c) + dicut_size(o, Cut(1 - c.sides)) == total
    mask = dicut_arcs(o, c)
    assert mask.shape == (o.graph.m,) and mask.dtype == bool
    assert np.count_nonzero(mask) == dicut_size(o, c)


@given(small_regular_graphs())
def test_bipartite_witness_cuts_everything(g):
    bip, witness = is_bipartite(g)
    if bip:
        assert cut_size(g, witness) == g.m
    else:
        assert witness is None


def test_bipartite_families():
    assert is_bipartite(make_circulant(12, 4))[0]
    assert is_bipartite(make_double_circulant(6, 3))[0]
    assert not is_bipartite(complete_graph(4))[0]


def test_monochromatic_components_all_left():
    g = make_circulant(8, 2)
    comps = monochromatic_components(g, Cut([LEFT] * 8))
    assert comps == [frozenset(range(8))]


def test_monochromatic_components_proper_coloring():
    g = make_circulant(8, 2)
    _, witness = is_bipartite(g)
    comps = monochromatic_components(g, witness)
    assert len(comps) == 8
    assert all(len(c) == 1 for c in comps)


@given(small_regular_graphs(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_components_partition_vertices(g, seed):
    rng = random.Random(seed)
    c = Cut([rng.getrandbits(1) for _ in range(g.n)])
    comps = monochromatic_components(g, c)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))
    for comp in comps:
        side = {c.sides[v] for v in comp}
        assert len(side) == 1


def test_identity_labelling():
    lab = identity_labelling(5)
    assert lab.ids.tolist() == [1, 2, 3, 4, 5]
    assert lab.max_id == 5


@given(small_regular_graphs(), st.integers(min_value=0, max_value=2 ** 31))
def test_random_orientation_orients_every_edge(g, seed):
    o = make_random_orientation(g, seed=seed)
    assert {(min(a), max(a)) for a in o.arcs.tolist()} == set(map(tuple, g.edges().tolist()))
