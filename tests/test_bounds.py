"""Closed forms, the flip decomposition, and the integer-exact inequality suite."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localcut import (
    Cut,
    InvalidParameterError,
    check_inequalities,
    check_window_bounds,
    complete_graph,
    decompose,
    enumerate_max_dicuts,
    f_d,
    identity_labelling,
    log_star,
    make_abcd_instance,
    make_circulant,
    make_id_orientation,
    max_dicut_exact,
    median_floor,
    oriented_ratio,
    tower,
    two_flip_floor,
    window_bound,
    window_edge_counts,
)
from localcut import bounds
from localcut.verify import verify_claim2

from conftest import oriented_graphs


# --- closed-form floors ------------------------------------------------------

def test_median_floor_values():
    assert median_floor(24, 5) == 18
    assert median_floor(4, 3) == 4
    assert median_floor(12, 3) == 8
    assert median_floor(10, 3) == 7  # stays exact as a fraction


def test_median_floor_rejects_even_d():
    with pytest.raises(InvalidParameterError):
        median_floor(10, 4)


def test_oriented_ratio_values():
    assert oriented_ratio(3) == Fraction(3, 5)
    assert oriented_ratio(5) == Fraction(5, 13)
    assert oriented_ratio(1) == 1


def test_f_d_values():
    assert f_d(3, 0, 0) == Fraction(3, 5)
    assert f_d(3, 0, 1) == Fraction(2, 3)
    assert f_d(5, 1, 0) == Fraction(3, 7)


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_f_d_at_origin_is_the_bare_ratio(d):
    assert f_d(d, 0, 0) == oriented_ratio(d)


def test_f_d_domain():
    with pytest.raises(InvalidParameterError):
        f_d(3, -Fraction(1, 10), 0)
    with pytest.raises(InvalidParameterError):
        f_d(3, 0, Fraction(11, 10))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_f_d_monotone_in_both_arguments(d):
    grid = [Fraction(i, 8) for i in range(9)]
    step = Fraction(1, 8)
    for a in grid[:-1]:
        for b in grid:
            assert f_d(d, a + step, b) > f_d(d, a, b)
            if b < 1:
                assert f_d(d, a, b + step) > f_d(d, a, b)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_f_d_line_minimizer(d):
    # along alpha + beta = y the minimum sits at an endpoint: (0, y) for
    # d = 3 and (y, 0) for d >= 5
    for y_num in range(1, 8):
        y = Fraction(y_num, 8)
        values = {
            (a, y - a): f_d(d, a, y - a)
            for a in [y * Fraction(i, 16) for i in range(17)]
        }
        best = min(values.values())
        if d == 3:
            assert values[(Fraction(0), y)] == best
        else:
            assert values[(y, Fraction(0))] == best


def test_two_flip_floor_values():
    assert two_flip_floor(3) == Fraction(71, 115)
    assert two_flip_floor(3) == f_d(3, 0, Fraction(5, 22))
    assert two_flip_floor(3) > Fraction(3, 5)
    assert two_flip_floor(5) == f_d(5, Fraction(4, 23), 0) == Fraction(107, 275)
    assert two_flip_floor(5) > oriented_ratio(5)


def test_two_flip_floor_domain():
    with pytest.raises(InvalidParameterError):
        two_flip_floor(2)
    with pytest.raises(InvalidParameterError):
        two_flip_floor(1)


# --- flip decomposition --------------------------------------------------------

def k4_decomposition():
    o = make_id_orientation(complete_graph(4), identity_labelling(4))
    opt = Cut.from_left_set(4, [0, 1])
    return decompose(o, opt)


def test_decompose_k4():
    dec = k4_decomposition()
    assert dec.big_d == 10  # 3 + 2 + 2 + 3
    assert dec.opt == 4
    assert dec.cut_sizes == (4, 4, 4)
    for vertex_set in (dec.M, dec.M_star, dec.M_one, dec.U0, dec.U1):
        assert vertex_set.tolist() == [False] * 4
    for edge_set in (dec.E0, dec.E1):
        assert edge_set.tolist() == [False] * 6
    # the edge inside each side: (0, 1) and (2, 3) in edges() order
    assert dec.F0.tolist() == [True, False, False, False, False, True]


def test_k4_inequalities_tight():
    verdicts = check_inequalities(k4_decomposition())
    assert set(verdicts) == {
        "eq1", "eq1_half", "eq2", "eq2bis", "eq2ter", "eq2quater",
        "eq3", "eq3bis", "eq3ter", "eq2c",
    }
    assert all(v.holds for v in verdicts.values())
    assert verdicts["eq1"].lhs == verdicts["eq1"].rhs == 4
    assert verdicts["eq3"].lhs == 10 and verdicts["eq3"].rhs == 8
    assert verdicts["eq3bis"].lhs == verdicts["eq3bis"].rhs == 8


def test_decompose_abcd():
    o = make_abcd_instance(3, 12)
    opt = Cut.from_left_set(12, set(range(4)) | {8, 9})  # A u C
    dec = decompose(o, opt)
    assert dec.opt == 10
    assert dec.cut_sizes[0] == 6
    assert np.flatnonzero(dec.M).tolist() == list(range(8, 12))  # C u D exactly
    assert not dec.M_star.any()
    verdicts = check_inequalities(dec)
    assert all(v.holds for v in verdicts.values())
    assert verdicts["eq2"].lhs == verdicts["eq2"].rhs == 6


def test_decompose_all_optimal_witnesses():
    # the inequalities must hold whichever optimal witness is chosen
    o = make_abcd_instance(3, 12)
    best, cuts = enumerate_max_dicuts(o, budget=12)
    assert best == 10
    for witness in cuts:
        assert all(v.holds for v in check_inequalities(decompose(o, witness)).values())


@given(oriented_graphs(max_half=6, degrees=(3, 5)))
@settings(max_examples=30)
def test_decomposition_invariants(o):
    _, witness = max_dicut_exact(o)
    dec = decompose(o, witness)
    assert not np.any(dec.M_star & ~dec.M)
    assert not np.any(dec.M_one & ~(dec.M & ~dec.M_star))
    assert not np.any(dec.U1 & ~dec.U0)  # flipping only ever stabilizes
    assert all(v.holds for v in check_inequalities(dec).values())


def test_check_inequalities_rejects_even_d():
    dec = dataclasses.replace(k4_decomposition(), d=4)
    with pytest.raises(InvalidParameterError):
        check_inequalities(dec)


# --- tower and log* ------------------------------------------------------------

def test_tower_values():
    assert tower(1, 7) == 7
    assert tower(2, 3) == 8
    assert tower(3, 1) == 4
    assert tower(4, 2) == 65536
    assert tower(5, 2) == 1 << 65536


def test_tower_guard():
    with pytest.raises(OverflowError):
        tower(6, 2)
    with pytest.raises(OverflowError):
        tower(5, 3)
    with pytest.raises(InvalidParameterError):
        tower(0, 3)
    with pytest.raises(InvalidParameterError):
        tower(2, -1)


def test_log_star_values():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(4) == 2
    assert log_star(8) == 3
    assert log_star(65536) == 4
    assert log_star(1 << 65536) == 5
    assert log_star(0.5) == 0


TOWERS = [1, 2, 4, 16, 65536, 1 << 65536]  # T_0 .. T_5, T_k = 2^T_(k-1)


@pytest.mark.parametrize("k", range(len(TOWERS)))
def test_log_star_is_exact_around_each_tower(k):
    t = TOWERS[k]
    assert log_star(t) == k
    assert log_star(t + 1) == k + 1
    # T_k - 1 still exceeds T_(k-1) from k = 2 on
    assert log_star(t - 1) == (k if k >= 2 else 0)


@pytest.mark.parametrize("k,n", [(1, 1), (2, 3), (3, 1), (3, 4), (4, 2), (5, 2)])
def test_tower_log_star_identity(k, n):
    assert log_star(tower(k, n)) == k - 1 + log_star(n)


# --- circulant window counts -----------------------------------------------------

def test_window_edge_count_example():
    g = make_circulant(12, 4)
    counts = window_edge_counts(g, 0)
    assert counts[6] == 8  # (6-1) + (6-3)
    assert window_edge_counts(g, 5)[6] == 8  # translation invariant
    assert counts[12] == g.m
    assert counts[0] == 0
    assert counts[1] == 0
    assert len(counts) == 13  # lengths 0..n


def test_window_edge_count_validation():
    with pytest.raises(InvalidParameterError, match="circulants"):
        window_edge_counts(complete_graph(4), 0)


def test_window_bound_values():
    assert window_bound(4, 6, 1) == Fraction(6 * 4, 2) - Fraction(16, 2)
    with pytest.raises(InvalidParameterError):
        window_bound(4, 6, 2)  # r must be odd


def test_check_window_bound_example():
    window_counts = window_edge_counts(make_circulant(12, 4), 0)
    lengths, counts, ok = check_window_bounds(window_counts, 4, 1)
    assert (lengths[5], counts[5], ok[5]) == (6, 8, True)
    assert 8 >= window_bound(4, 6, 1) == 4


@pytest.mark.parametrize("length", range(1, 17))
@pytest.mark.parametrize("r", [1, 3, 5])
def test_window_bound_holds_on_c16(length, r):
    g = make_circulant(16, 4)
    if r > length:
        return
    lengths, _, ok = check_window_bounds(window_edge_counts(g, 3), 4, r)
    assert lengths[length - r] == length and ok[length - r]


def fake_window_counts(monkeypatch, d, offset):
    """Make every window of i positions hold (i*d - d^2)/2 + offset edges,
    so every trimmed window sits `offset` above Claim 2's floor."""
    def counts(g, start):
        return np.arange(g.n + 1) * d // 2 - d * d // 2 + offset
    monkeypatch.setattr(bounds, "window_edge_counts", counts)


@pytest.mark.parametrize("offset,holds", [(0, True), (-1, False)])
def test_window_checks_on_the_floor(monkeypatch, offset, holds):
    g = make_circulant(16, 4)
    fake_window_counts(monkeypatch, 4, offset)
    for r in (1, 3, 5):
        lengths, counts, ok = check_window_bounds(bounds.window_edge_counts(g, 0), 4, r)
        assert lengths.tolist() == list(range(r, 17))
        assert ok.tolist() == [holds] * len(lengths)
        for length, count in zip(lengths.tolist(), counts.tolist()):
            assert 2 * count == 2 * window_bound(4, length, r) + 2 * offset


def test_check_window_bounds_validates_r():
    for r in (0, 2, -1):
        with pytest.raises(InvalidParameterError, match="odd"):
            check_window_bounds(window_edge_counts(make_circulant(16, 4), 0), 4, r)


def test_claim2_reports_each_violation_in_grid_order(monkeypatch):
    fake_window_counts(monkeypatch, 4, -1)
    rep = verify_claim2(degrees=(4,), max_n=8, max_r=3)
    # C_8^4 only: lengths 1..8 with r = 1, lengths 3..8 with r = 3, and the
    # fixed C_12^4 count, which the fake makes 3
    assert rep["cases"] == rep["violations"] == 8 + 6 + 1
    assert rep["first_violations"][:4] == [
        "C_8^4 l=1 r=1: -7 < -6",
        "C_8^4 l=2 r=1: -5 < -4",
        "C_8^4 l=3 r=1: -3 < -2",
        "C_8^4 l=3 r=3: -7 < -6",
    ]
    assert rep["first_violations"][-1] == "window count C_12^4 l=6: 3, expected 8"
