"""Instance generators: structure, determinism, frozen family values."""

import hashlib
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    ConstructionError,
    Cut,
    InvalidParameterError,
    InvariantError,
    Orientation,
    abcd_sets,
    complete_graph,
    cut_size,
    dicut_size,
    identity_labelling,
    is_bipartite,
    make_abcd_instance,
    make_circulant,
    make_double_circulant,
    make_extremal_labelling,
    make_id_orientation,
    make_random_orientation,
    make_random_orientation_union,
    make_random_regular,
    make_random_regular_union,
    make_single_flip_stuck_instance,
    max_dicut_exact,
    median_cut,
    orient_clockwise,
    oriented_median_cut,
    oriented_median_plus_flips,
    oriented_ratio,
    random_labelling,
    stuck_sets,
)
import localcut
from localcut import generators as generators_mod, graphs as graphs_mod
from localcut.graphs import component_offsets
from localcut.verify import _draw_case, _oriented_unions, verify_constructions
from localcut.generators import _certified, _pairing_round, _realize_bipartite

from conftest import peak_bytes, ref_validate_regular


# --- circulant families ---------------------------------------------------

def test_circulant_structure():
    g = make_circulant(12, 4)
    # jumps 1 and 3 in both directions
    assert g.adj[0].tolist() == [1, 3, 9, 11]
    assert g.n == 12 and g.m == 24 and g.d == 4


def test_circulant_validation():
    with pytest.raises(InvalidParameterError):
        make_circulant(13, 4)  # odd n
    with pytest.raises(InvalidParameterError):
        make_circulant(12, 3)  # odd d
    with pytest.raises(InvalidParameterError):
        make_circulant(6, 4)  # n < 2d


@pytest.mark.parametrize("n,d", [(8, 2), (12, 4), (16, 6), (20, 8)])
def test_circulant_regular_bipartite(n, d):
    g = make_circulant(n, d)
    assert ref_validate_regular(g.adj.tolist(), d)
    assert is_bipartite(g)[0]


def test_double_circulant_structure():
    g = make_double_circulant(6, 3)
    assert g.n == 12 and g.m == 18
    # outer vertex 0: cycle neighbors 1, 5 plus matched inner vertex 6
    assert g.adj[0].tolist() == [1, 5, 6]
    # inner vertex 6: inner cycle 7, 11 plus outer 0
    assert g.adj[6].tolist() == [0, 7, 11]


def test_double_circulant_validation():
    with pytest.raises(InvalidParameterError):
        make_double_circulant(6, 4)  # even d
    with pytest.raises(InvalidParameterError):
        make_double_circulant(7, 3)  # odd half size
    with pytest.raises(InvalidParameterError):
        make_double_circulant(6, 5)  # half < 2(d-1)


@pytest.mark.parametrize("half,d", [(4, 3), (6, 3), (8, 5), (12, 5), (12, 7)])
def test_double_circulant_regular_bipartite(half, d):
    g = make_double_circulant(half, d)
    assert g.n == 2 * half
    assert ref_validate_regular(g.adj.tolist(), d)
    assert is_bipartite(g)[0]


@pytest.mark.parametrize("name,at,arcs,expected", [
    # C_12^4 with jumps 1 and 5 in place of 1 and 3
    ("_circulant_arcs", (12, 4), [(i, (i + k) % 12) for k in (1, 5) for i in range(12)],
     "C_12^4 is not i ~ i +- k (mod 12) for odd k < 4"),
    # D^3 on 16 vertices with the matching i <-> 8 + (i+2) mod 8
    ("_double_circulant_arcs", (8, 3),
     [(i, (i + 1) % 8) for i in range(8)] + [(8 + i, 8 + (i + 1) % 8) for i in range(8)]
     + [(i, 8 + (i + 2) % 8) for i in range(8)],
     "D_16^3 is not two C_8^2 joined by i ~ 8+i"),
], ids=["circulant", "double-circulant"])
def test_constructions_suite_checks_the_jumps(name, at, arcs, expected):
    # Still simple, regular and bipartite, so only the closed-form rows fail.
    real = getattr(generators_mod, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators_mod, name, lambda n, d: arcs if (n, d) == at else real(n, d))
        g = (make_circulant if name == "_circulant_arcs" else make_double_circulant)(*at)
        assert ref_validate_regular(g.adj.tolist(), at[1]) and is_bipartite(g)[0]
        report = verify_constructions()
    assert (report["pass"], report["first_violations"]) == (False, [expected])
    assert verify_constructions()["pass"]


def test_orient_clockwise_circulant():
    o = orient_clockwise(make_circulant(12, 4))
    arcs = o.arcs.tolist()
    assert [0, 1] in arcs and [0, 3] in arcs
    assert [11, 0] in arcs  # wraps forward
    assert o.deficits.tolist() == [0] * 12


def test_orient_clockwise_double_circulant_deficits():
    o = orient_clockwise(make_double_circulant(8, 5))
    # outer: matching arc points inward
    assert o.deficits.tolist() == [1] * 8 + [-1] * 8


def test_orient_clockwise_needs_family_metadata():
    g = complete_graph(4)
    with pytest.raises(InvalidParameterError):
        orient_clockwise(g)


def test_clockwise_double_circulant_dicut_is_matching():
    g = make_double_circulant(12, 5)
    o = orient_clockwise(g)
    c = oriented_median_cut(o)
    # only the 12 matching arcs cross from outer (V+) to inner (V-)
    assert dicut_size(o, c) == 12


# --- random regular graphs --------------------------------------------------

@given(
    st.sampled_from([3, 4, 5, 7]),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=60)
def test_random_regular_is_regular(d, half, seed):
    n = 2 * max(half, (d + 2) // 2 + 1)
    g = make_random_regular(n, d, seed=seed)
    assert ref_validate_regular(g.adj.tolist(), d)


def test_random_regular_deterministic():
    a = make_random_regular(20, 3, seed=11)
    b = make_random_regular(20, 3, seed=11)
    assert a == b
    assert a != make_random_regular(20, 3, seed=12)


def test_random_regular_rejects_bad_params():
    with pytest.raises(InvalidParameterError):
        make_random_regular(7, 3, seed=0)  # odd n * odd d
    with pytest.raises(InvalidParameterError):
        make_random_regular(4, 4, seed=0)  # n <= d


CIRCULANT = make_circulant(8, 2)


@pytest.mark.parametrize("entry,args", [
    (localcut.random_cut, (CIRCULANT, -3)),
    (make_random_regular, (10, 3, -5)),
    (make_random_regular_union, ([10, 12], 3, [1, -5])),
    (make_random_orientation, (CIRCULANT, -1)),
    (make_random_orientation_union, (make_random_regular_union([8, 8], 3, [1, 2]), [8, 8],
                                     [2, -1])),
    (localcut.random_labelling, (5, -2)),
    *[(localcut.SUITES[suite], ()) for suite in (
        "median-floor", "oriented-ratio", "flip-inequalities", "two-flip-floor",
        "flip-monotonicity", "folklore")],
], ids=lambda x: getattr(x, "__name__", None))
def test_negative_seeds_are_rejected(entry, args):
    # random.Random(-s) seeds like random.Random(s): a negative seed would
    # silently give a positive one's output
    with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
        entry(*args) if args else entry(seed=-1)


@pytest.mark.parametrize("n", [0, 2 ** 32, 10 ** 18])
def test_random_regular_rejects_vertex_count_before_allocating(n):
    def build():
        with pytest.raises(InvalidParameterError, match=r"need 1 <= n < 2\^32"):
            make_random_regular(n, 0, seed=1)
    assert peak_bytes(build) < 2 ** 20


def test_random_regular_on_one_vertex_is_empty():
    g = make_random_regular(1, 0, seed=1)
    assert (g.n, g.d, g.m) == (1, 0, 0)


def test_random_regular_handles_degree_seven():
    # dense enough that naive full restarts would essentially never finish
    g = make_random_regular(16, 7, seed=0)
    assert ref_validate_regular(g.adj.tolist(), 7)


@pytest.mark.parametrize("d", range(9))
def test_random_regular_on_d_plus_one_vertices_is_complete(d):
    # one graph fits: most stubs go through the re-pairing loop, which
    # cannot get stuck here, as each missing edge joins two leftover vertices
    for seed in range(5):
        assert make_random_regular(d + 1, d, seed=seed) == complete_graph(d + 1)


def first_attempt_stuck(n, d, seed):
    return _pairing_round([n], d, [random.Random(seed)], [0], n)[1] == [0]


def test_random_regular_raises_once_restarts_run_out():
    stuck = next(seed for seed in range(1000) if first_attempt_stuck(12, 3, seed))
    with pytest.raises(ConstructionError, match="1 restarts"):
        make_random_regular(12, 3, seed=stuck, max_restarts=1)
    assert ref_validate_regular(make_random_regular(12, 3, seed=stuck).adj.tolist(), 3)


def test_union_raises_for_the_stuck_case_once_its_restarts_run_out():
    stuck = next(seed for seed in range(1000) if first_attempt_stuck(12, 3, seed))
    fine = next(seed for seed in range(1000) if not first_attempt_stuck(14, 3, seed))
    with pytest.raises(ConstructionError,
                       match=rf"1 restarts \(n=12, d=3, seed={stuck}\)"):
        make_random_regular_union([14, 12, 14], 3, [fine, stuck, fine], max_restarts=1)
    g = make_random_regular_union([14, 12], 3, [fine, stuck])
    assert g.adj[14:].tolist() == (make_random_regular(12, 3, seed=stuck).adj + 14).tolist()


def test_union_rejects_bad_cases():
    for ns, d, seeds in [([], 3, []), ([4, 6], 3, [1]), ([4, 7], 3, [1, 2]),
                         ([4, 3], 3, [1, 2]), ([2 ** 31, 2 ** 31], 0, [1, 2])]:
        with pytest.raises(InvalidParameterError):
            make_random_regular_union(ns, d, seeds)
    g = make_random_regular_union([4, 6], 3, [1, 2])
    with pytest.raises(InvalidParameterError):
        make_random_orientation_union(g, [4, 4], [1, 2])
    with pytest.raises(InvalidParameterError):
        make_random_orientation_union(g, [4, 6], [1])


def test_union_edges_are_the_cases_edges_in_case_order():
    ns, seeds = [6, 4, 8], [5, 6, 7]
    g = make_random_regular_union(ns, 3, seeds)
    o = make_random_orientation_union(g, ns, [1, 2, 3])
    parts = [make_random_orientation(make_random_regular(n, 3, seed=s), seed=t)
             for n, s, t in zip(ns, seeds, [1, 2, 3])]
    assert g.edges().tolist() == [[u + off, v + off] for off, p in zip([0, 6, 10], parts)
                                  for u, v in p.graph.edges().tolist()]
    assert o.arcs.tolist() == [[u + off, v + off] for off, p in zip([0, 6, 10], parts)
                               for u, v in p.arcs.tolist()]


def test_union_past_a_16_bit_case_index_equals_its_lone_graphs():
    # a 16-bit case index would merge case k with case k + 2^16 (or, signed,
    # k + 2^15) in the sort, and their stubs would pair across components
    cases = 2 ** 16 + 1000
    g = make_random_regular_union([4] * cases, 1, range(cases))
    for k in [0, 999, 2 ** 15, 2 ** 16 - 1, 2 ** 16, cases - 1] + random.Random(1).sample(
            range(cases), 194):
        lone = make_random_regular(4, 1, seed=k)
        assert g.adj[4 * k:4 * k + 4].tolist() == (lone.adj + 4 * k).tolist(), k


def test_oriented_ratio_floor_corpus_equals_its_lone_orientations():
    # the 500 cases of verify_oriented_ratio's floor corpus at seed 0, some
    # of them restarted: each union's components are the lone orientations
    rng = random.Random(0)
    cases = [_draw_case(rng, (3, 5, 7)[i % 3], 100) for i in range(500)]
    assert any(first_attempt_stuck(n, d, gseed) for d, n, gseed, _ in cases)
    seen = []
    for idx, o in _oriented_unions(cases):
        lone = [make_random_orientation(make_random_regular(n, d, seed=gseed), seed=oseed)
                for d, n, gseed, oseed in (cases[i] for i in idx)]
        offsets = component_offsets([p.graph.n for p in lone]).tolist()
        assert o.graph.adj.tolist() == [[v + off for v in row] for p, off in zip(lone, offsets)
                                        for row in p.graph.adj.tolist()]
        assert o.arcs.tolist() == [[u + off, v + off] for p, off in zip(lone, offsets)
                                   for u, v in p.arcs.tolist()]
        seen += idx
    assert sorted(seen) == list(range(500))


def test_random_regular_leaves_numpy_random_unimported():
    # numpy.random alone adds about 6 MB to a process
    code = ("import sys, localcut; localcut.make_random_regular(100, 5, seed=1); "
            "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(localcut.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def sha256_of(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def test_random_regular_at_n_10_5_peaks_near_its_adjacency():
    # n = 10^5, d = 5: a 3.8 MiB adjacency. The one-case round draws its
    # stub keys in chunks into one array and derives the vertices and edge
    # keys in place; the digest is the graph this seed gave before that
    out = []
    peak = peak_bytes(lambda: out.append(make_random_regular(10 ** 5, 5, seed=1)))
    assert peak <= 11 * 2 ** 20, peak
    assert sha256_of(out[0].adj) == (
        "03cd3636437534f3775d623112c4aed76329814d0f7c8e2d8ea2790e3aa3f96d")


def test_orientations_at_n_10_5_peak_near_their_arcs():
    # 3.8 MiB of arcs: the rows of edges() are built beside one
    # column-sized temporary and the backward rows reversed in place; the
    # digests are the arcs these seeds gave before that
    g = make_random_regular(10 ** 5, 5, seed=1)
    lab = random_labelling(g.n, seed=3)
    out = []
    peak = peak_bytes(lambda: out.append(make_random_orientation(g, seed=2)))
    assert peak <= 6.6 * 2 ** 20, peak
    peak = peak_bytes(lambda: out.append(make_id_orientation(g, lab)))
    assert peak <= 8 * 2 ** 20, peak
    assert [sha256_of(o.arcs) for o in out] == [
        "bbd021dd3e9a2d8f71dd5d44f50fc847d18be2a9a312af6434741e2eb5d39ebb",
        "1b7e4d4409cb544592b3c51f55c259f861c3f58f7a707bfca8f95420057830dd"]


def test_make_id_orientation():
    g = complete_graph(4)
    o = make_id_orientation(g, identity_labelling(4))
    assert o.deficits.tolist() == [3, 1, -1, -3]
    assert [0, 3] in o.arcs.tolist()


# --- arc-family realizer ------------------------------------------------------

def test_realize_bipartite_meets_quotas():
    arcs = _realize_bipartite({0: 2, 1: 1}, {5: 1, 6: 1, 7: 1})
    assert len(arcs) == 3
    assert len(set(arcs)) == 3
    assert sum(1 for t, _ in arcs if t == 0) == 2


def test_realize_bipartite_respects_forbidden():
    arcs = _realize_bipartite(
        {0: 1, 1: 1}, {5: 1, 6: 1}, forbidden=frozenset({(0, 5), (1, 6)})
    )
    assert set(arcs) == {(0, 6), (1, 5)}


def test_realize_bipartite_detects_infeasible():
    with pytest.raises(ConstructionError):
        _realize_bipartite({0: 1}, {5: 2})  # totals differ
    with pytest.raises(ConstructionError):
        _realize_bipartite(
            {0: 1, 1: 1}, {5: 2},
            forbidden=frozenset({(0, 5)}),
        )


# --- the four-set sharpness instance ---------------------------------------

def test_abcd_sets_sizes():
    A, B, C, D = abcd_sets(3, 12)
    assert (len(A), len(B), len(C), len(D)) == (4, 4, 2, 2)
    A, B, C, D = abcd_sets(5, 20)
    assert (len(A), len(B), len(C), len(D)) == (6, 6, 4, 4)


def test_abcd_sets_validation():
    with pytest.raises(InvalidParameterError):
        abcd_sets(4, 16)
    with pytest.raises(InvalidParameterError):
        abcd_sets(3, 10)  # not a multiple of 4d


@pytest.mark.parametrize("d,t", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
def test_abcd_instance_structure(d, t):
    n = 4 * d * t
    o = make_abcd_instance(d, n)
    g = o.graph
    assert ref_validate_regular(g.adj.tolist(), d)
    A, B, C, D = abcd_sets(d, n)
    assert o.deficits.tolist() == [1 if (v in A or v in D) else -1 for v in range(n)]
    # the deficit cut crosses exactly the n/2 A->B arcs
    algo = Cut.from_left_set(n, set(A) | set(D))
    assert dicut_size(o, algo) == n // 2
    # the planted good cut catches (d^2+1) n / 4d arcs
    good = Cut.from_left_set(n, set(A) | set(C))
    assert dicut_size(o, good) == (d * d + 1) * n // (4 * d)


def test_abcd_instance_deterministic():
    assert make_abcd_instance(3, 24) == make_abcd_instance(3, 24)


def test_abcd_frozen_values():
    o = make_abcd_instance(3, 12)
    assert o.graph.m == 18
    assert dicut_size(o, oriented_median_cut(o)) == 6


# --- extremal labelling -----------------------------------------------------

def test_extremal_labelling_hits_known_values():
    g = make_double_circulant(12, 5)
    lab = make_extremal_labelling(g)
    assert cut_size(g, median_cut(g, lab)) == 22  # 24/2 + (5-2)^2 + 1

    h = make_double_circulant(6, 3)
    lab_h = make_extremal_labelling(h)
    assert cut_size(h, median_cut(h, lab_h)) == 8

    # the clockwise pattern meets N/2 + (d-2)^2 + 1 exactly, smallest half up
    for d, halves in ((3, (4, 10, 98)), (5, (8, 30, 64)), (7, (12, 50)),
                      (9, (16, 40)), (11, (20, 198))):
        for half in halves:
            g = make_double_circulant(half, d)
            lab = make_extremal_labelling(g)
            assert lab.origin == "clockwise-sequential"
            assert cut_size(g, median_cut(g, lab)) == half + (d - 2) ** 2 + 1


@pytest.mark.parametrize("d,half", [(d, half) for d in (3, 5, 7)
                                    for half in range(2 * (d - 1), 41, 2)])
def test_extremal_labelling_cuts_exactly_the_target(d, half):
    g = make_double_circulant(half, d)
    assert cut_size(g, median_cut(g, make_extremal_labelling(g))) == half + (d - 2) ** 2 + 1


def test_extremal_labelling_needs_double_circulant():
    with pytest.raises(InvalidParameterError):
        make_extremal_labelling(complete_graph(4))


def test_extremal_labelling_miss_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(graphs_mod, "cut_size", lambda g, c: g.m)
    with pytest.raises(InvariantError, match="target 8"):
        make_extremal_labelling(make_double_circulant(6, 3))


def test_extremal_labelling_below_target_is_an_invariant_error(monkeypatch):
    # the target is exact, so a smaller cut is a miss as well
    monkeypatch.setattr(graphs_mod, "cut_size", lambda g, c: 7)
    with pytest.raises(InvariantError, match="cut 7 edges"):
        make_extremal_labelling(make_double_circulant(6, 3))


# --- single-flip-stuck instance ---------------------------------------------

def test_stuck_sets_smallest_d3():
    sets = stuck_sets(3)
    sizes = {k: len(r) for k, r in sets.items()}
    assert sizes == {"A_s": 6, "A_u": 2, "B_s": 6, "B_u": 2, "C": 4, "D": 4}


def test_stuck_instance_d3():
    o = make_single_flip_stuck_instance(3)
    assert isinstance(o, Orientation)
    assert o.graph.n == 24
    assert ref_validate_regular(o.graph.adj.tolist(), 3)
    _, sizes = oriented_median_plus_flips(o, 2)
    assert sizes[0] == sizes[1] == 12
    assert sizes[2] == 20  # = OPT; the second flip undoes the damage


def stuck_cut_sets(d):
    """The deficit cut's left side and the planted cut's left side."""
    sets = stuck_sets(d)
    plus = [*sets["A_s"], *sets["A_u"], *sets["D"]]
    planted = [*sets["A_s"], *sets["A_u"], *sets["C"]]
    return plus, planted


def test_stuck_instance_d5_planted_cut_is_the_oracles_opt():
    o = make_single_flip_stuck_instance(5)
    n = o.graph.n
    assert n == 30
    opt, _ = max_dicut_exact(o, budget=30)
    _, planted = stuck_cut_sets(5)
    assert dicut_size(o, Cut.from_left_set(n, planted)) == opt == 39
    _, sizes = oriented_median_plus_flips(o, 1)
    assert sizes == (15, 15)
    assert sizes[0] == oriented_ratio(5) * opt


@pytest.mark.parametrize("d,n", [(7, 56), (9, 90)])
def test_stuck_instance_past_the_oracle(d, n):
    o = make_single_flip_stuck_instance(d)
    assert o.graph.n == n
    assert ref_validate_regular(o.graph.adj.tolist(), d)
    _, sizes = oriented_median_plus_flips(o, 1)
    assert sizes == (n // 2, n // 2)


def test_certificate_rejects_a_wrong_planted_set():
    o = make_single_flip_stuck_instance(3)
    plus, planted = stuck_cut_sets(3)
    assert _certified(o, plus, planted, 1) is o
    with pytest.raises(ConstructionError, match="certificate"):
        _certified(o, plus, plus, 1)
    A, B, C, D = abcd_sets(3, 12)
    with pytest.raises(ConstructionError, match="certificate"):
        _certified(make_abcd_instance(3, 12), [*A, *D], [*A, *D], 0)


def test_certificate_rejects_one_reversed_arc():
    o = make_single_flip_stuck_instance(3)
    plus, planted = stuck_cut_sets(3)
    arcs = o.arcs.tolist()
    arcs[0] = arcs[0][::-1]
    with pytest.raises(ConstructionError, match="certificate"):
        _certified(Orientation(o.graph, arcs), plus, planted, 1)


def test_stuck_instance_rejects_even_degree():
    with pytest.raises(InvalidParameterError):
        make_single_flip_stuck_instance(4)
