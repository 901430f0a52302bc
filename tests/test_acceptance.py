"""Acceptance gate: the fourteen quantitative guarantees this package makes.

Each test prints exactly one PASS/FAIL line (run with -s to see them) and
asserts the same condition, so the suite doubles as a human-readable report
and a hard CI gate. Tolerances and corpus sizes are part of the contract;
do not shrink them to make a run faster. Criteria that check a suite at its
defaults read the session's shared default reports (conftest.py), which
tests/test_golden.py also pins, so each such corpus runs once per session.
"""

from fractions import Fraction

from localcut import (
    Cut,
    FlipProgram,
    MedianProgram,
    cut_size,
    dicut_size,
    distributed_flip_step,
    f_d,
    identity_labelling,
    make_abcd_instance,
    make_double_circulant,
    make_extremal_labelling,
    make_random_regular,
    max_dicut_exact,
    median_cut,
    median_floor,
    oriented_median_cut,
    oriented_ratio,
    random_labelling,
    run,
    run_bit_serialized_median,
    two_flip_floor,
)
from localcut.generators import complete_graph
from localcut.verify import verify_flip_monotonicity, verify_oriented_ratio


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_median_floor(default_reports):
    rep = default_reports["median-floor"]
    ok = rep["pass"] and rep["elapsed_s"] < 60
    verdict(1, ok,
            f"median cut >= n/2 + (d-1)(d+1)/4 on {rep['cases']} cases, "
            f"{rep['violations']} violations, {rep['elapsed_s']}s")


def test_criterion_02_median_tightness():
    k4 = cut_size(complete_graph(4), median_cut(complete_graph(4),
                                                identity_labelling(4)))
    floor4 = median_floor(4, 3)
    g = make_double_circulant(12, 5)
    adv = cut_size(g, median_cut(g, make_extremal_labelling(g)))
    hard = median_floor(24, 5)   # 18; no labelling may go below it
    ok = k4 == floor4 == 4 and adv <= 22 and Fraction(adv) >= hard
    verdict(2, ok,
            f"K4 median cut {k4} = floor; adversarial labelling on D_24^5 "
            f"gives {adv} (target <= 22, hard floor {hard})")


def test_criterion_03_oriented_floor():
    rep = verify_oriented_ratio(ratio_cases_per_degree=0)
    verdict(3, rep["pass"],
            f"deficit cut >= n/2 on {rep['cases']} random orientations, "
            f"{rep['violations']} violations")


def test_criterion_04_oriented_ratio():
    rep = verify_oriented_ratio(floor_cases=0)
    ok = rep["pass"] and rep["elapsed_s"] < 600
    verdict(4, ok,
            f"deficit cut >= 2d/(d^2+1) * OPT on {rep['cases']} oracle cases, "
            f"{rep['violations']} violations, {rep['elapsed_s']}s")


def test_criterion_05_ratio_sharpness():
    o3 = make_abcd_instance(3, 12)
    alg3 = dicut_size(o3, oriented_median_cut(o3))
    opt3, _ = max_dicut_exact(o3)
    o5 = make_abcd_instance(5, 20)
    alg5 = dicut_size(o5, oriented_median_cut(o5))
    opt5, _ = max_dicut_exact(o5)
    ok = ((alg3, opt3, alg5, opt5) == (6, 10, 10, 26)
          and Fraction(alg3, opt3) == oriented_ratio(3) == f_d(3, Fraction(0), Fraction(0)))
    verdict(5, ok,
            f"four-set instances: d=3 gives {alg3}/{opt3} (exactly 3/5), "
            f"d=5 gives {alg5}/{opt5}")


def test_criterion_06_flip_monotonicity():
    rep = verify_flip_monotonicity(flips=5)
    verdict(6, rep["pass"],
            f"stable set and dicut arcs nondecreasing over {rep['cases']} "
            f"flip chains, {rep['violations']} violations")


def test_criterion_07_flip_inequalities(default_reports):
    rep = default_reports["flip-inequalities"]
    verdict(7, rep["pass"],
            f"all ten decomposition inequalities on {rep['cases']} cases "
            f"(includes both tight witnesses), {rep['violations']} violations")


def test_criterion_08_two_flip_floor(default_reports):
    rep = default_reports["two-flip-floor"]
    ok = rep["pass"] and two_flip_floor(3) == Fraction(71, 115)
    verdict(8, ok,
            f"CUT_2 >= two_flip_floor(d) * OPT on {rep['cases']} cases; "
            f"floor(3) = 71/115 exactly")


def test_criterion_09_constructions(default_reports):
    rep = default_reports["constructions"]
    verdict(9, rep["pass"],
            f"circulant families regular and bipartite on {rep['cases']} cases; "
            f"maxcut(C_12^4)=24, maxdicut(clockwise D_12^3)=9")


def test_criterion_10_window_counts(default_reports):
    rep = default_reports["claim2"]
    verdict(10, rep["pass"],
            f"window edge count >= ld/2 - d(r-1)/2 - d^2/2 on {rep['cases']} "
            f"grids, {rep['violations']} violations")


def test_criterion_11_tower_identity(default_reports):
    rep = default_reports["claim1"]
    verdict(11, rep["pass"],
            f"log*(twr_k(n)) = k - 1 + log*(n) on {rep['cases']} representable "
            f"pairs ({rep['skipped']} skipped as too large)")


def test_criterion_12_random_cut_average(default_reports):
    rep = default_reports["folklore"]
    verdict(12, rep["pass"],
            f"mean random cut {rep['mean']} vs m/2 = {rep['expected']} over "
            f"{rep['cases']} trials; {rep['below_045m']} below 0.45m")


def test_criterion_13_simulation_accounting():
    g = make_double_circulant(12, 5)
    lab = random_labelling(g.n, seed=0)
    width = lab.max_id.bit_length()

    cut_wide, trace_wide = run(MedianProgram(width), g, lab)
    cut_serial, trace_serial = run_bit_serialized_median(g, lab, 1)
    median_ok = (trace_wide.rounds_used == 1
                 and trace_wide.max_message_bits == width
                 and trace_serial.rounds_used == width
                 and cut_wide == cut_serial == median_cut(g, lab))

    # outer/inner start makes every vertex flip every round: sizes constant
    start = Cut.from_left_set(g.n, range(g.n // 2))
    sizes = [cut_size(g, start)]
    c = start
    for _ in range(10):
        c = distributed_flip_step(g, c)
        sizes.append(cut_size(g, c))
    prog = FlipProgram(lambda own_id: start.sides[own_id - 1], rounds=10)
    engine_cut, _ = run(prog, g, identity_labelling(g.n))
    flip_ok = len(set(sizes)) == 1 and engine_cut == c

    verdict(13, median_ok and flip_ok,
            f"median: 1 round at {width} bits, {width} rounds at 1 bit, same "
            f"cut; oscillating flip holds cut size {sizes[0]} for 10 rounds")


def test_criterion_14_simulation_equivalence():
    import random
    rng = random.Random(7)
    mismatches = 0
    cases = 200
    for i in range(cases):
        d = (3, 5, 7)[i % 3]
        n = 2 * rng.randrange((d + 2) // 2 + 1, 21)
        g = make_random_regular(n, d, seed=rng.randrange(2 ** 32))
        lab = random_labelling(n, seed=rng.randrange(2 ** 32))
        cut, _ = run(MedianProgram(lab.max_id.bit_length()), g, lab)
        if cut != median_cut(g, lab):
            mismatches += 1
    verdict(14, mismatches == 0,
            f"engine output equals the direct median rule on {cases} random "
            f"cases, {mismatches} mismatches")
