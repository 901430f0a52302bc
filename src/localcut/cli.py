"""Command-line harness: gen / run / verify / oracle.

Exit codes: 0 success, 1 a checked guarantee failed, 2 bad usage or
parameters, 3 a blown budget, an instance a generator cannot build, or
running out of memory.
Results are flat JSON records on stdout (and optionally --out, which is
opened before the work) with stable field names.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction
from typing import Optional, TextIO

from . import verify as verify_mod
from .algorithms import (
    distributed_flip_step,
    is_maximal_cut,
    median_cut,
    oriented_median_plus_flips,
    random_cut,
    sequential_flip_to_maximal,
)
from .bounds import median_floor, oriented_ratio, two_flip_floor
from .congest import run_bit_serialized_median
from .errors import (
    BudgetError,
    ConstructionError,
    InvalidParameterError,
    InvariantError,
    LocalcutError,
)
from .generators import (
    make_abcd_instance,
    make_circulant,
    make_double_circulant,
    make_extremal_labelling,
    make_random_orientation,
    make_random_regular,
    make_single_flip_stuck_instance,
    orient_clockwise,
)
from .graphio import read_graph, write_graph
from .graphs import (
    Cut,
    LEFT,
    Labelling,
    Orientation,
    cut_size,
    identity_labelling,
)
from .oracle import enumerate_max_dicuts, max_cut_exact, max_dicut_exact


def _emit(record: dict, out: Optional[TextIO]) -> None:
    """Print the record, after writing it to the open --out file if any."""
    text = json.dumps(record, indent=2, sort_keys=True)
    if out is not None:
        out.write(text + "\n")
        out.flush()
    print(text)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _floor_fields(record: dict, name: str, value: Fraction, achieved: int) -> None:
    record["floor_name"] = name
    record["floor_value_num"] = value.numerator
    record["floor_value_den"] = value.denominator
    record["pass"] = record.get("pass", True) and (
        Fraction(achieved) >= value
    )


def cmd_gen(args) -> int:
    if args.ids != "none" and args.family != "dnd":
        raise InvalidParameterError(f"--ids {args.ids} applies to --family dnd only")
    lab = None
    if args.family == "cnd":
        obj = make_circulant(args.n, args.d)
        if args.oriented:
            obj = orient_clockwise(obj)
    elif args.family == "dnd":
        g = make_double_circulant(args.n, args.d)
        obj = orient_clockwise(g) if args.oriented else g
        if args.ids == "identity":
            lab = identity_labelling(g.n)
        elif args.ids == "extremal":
            lab = make_extremal_labelling(g)
    elif args.family == "abcd":
        obj = make_abcd_instance(args.d, args.n)
    elif args.family == "random":
        obj = make_random_regular(args.n, args.d, seed=args.seed)
        if args.oriented:
            obj = make_random_orientation(obj, seed=args.seed + 1)
    elif args.family == "stuck1flip":
        obj = make_single_flip_stuck_instance(args.d)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidParameterError(f"unknown family {args.family}")
    write_graph(args.out, obj, lab)
    g = obj.graph if isinstance(obj, Orientation) else obj
    _emit({
        "family": args.family,
        "n": g.n,
        "m": g.m,
        "d": g.d,
        "directed": isinstance(obj, Orientation),
        "ids": args.ids,
        "path": args.out,
    }, None)
    return 0


def _load(path: str):
    obj, lab = read_graph(path)
    g = obj.graph if isinstance(obj, Orientation) else obj
    return obj, g, lab


def _labelling_for(args, g, lab_from_file) -> Labelling:
    if args.ids == "file":
        if lab_from_file is None:
            raise InvalidParameterError("graph file carries no IDS section")
        return lab_from_file
    if args.ids == "identity":
        return identity_labelling(g.n)
    return lab_from_file if lab_from_file is not None else identity_labelling(g.n)


def _start_cut(args, g) -> Cut:
    if args.start == "all-left":
        return Cut([LEFT] * g.n)
    if args.start == "half":
        return Cut.from_left_set(g.n, range(g.n // 2))
    return random_cut(g, seed=args.seed)


# The algorithms whose record `--with-opt` extends with OPT and a ratio floor.
WITH_OPT_ALGOS = ("oriented-median", "om-flips")


def cmd_run(args) -> int:
    if args.with_opt and args.algo not in WITH_OPT_ALGOS:
        raise InvalidParameterError(
            f"--with-opt applies to --algo {' and '.join(WITH_OPT_ALGOS)} only")
    obj, g, lab_file = _load(args.graph)
    record: dict = {"algo": args.algo, "n": g.n, "m": g.m, "d": g.d}

    if args.algo == "median":
        lab = _labelling_for(args, g, lab_file)
        chunk = args.congest_b
        if chunk is None:  # the whole ID width: one round
            chunk = max(1, lab.max_id.bit_length())
        cut, trace = run_bit_serialized_median(g, lab, chunk)
        if cut != median_cut(g, lab):
            raise InvariantError("simulated median disagrees with the function")
        record["cut0"] = cut_size(g, cut)
        record["rounds_used"] = trace.rounds_used
        record["max_message_bits"] = trace.max_message_bits
        record["total_bits"] = trace.total_bits
        _floor_fields(record, "median-floor", median_floor(g.n, g.d), record["cut0"])

    elif args.algo in ("oriented-median", "om-flips"):
        if not isinstance(obj, Orientation):
            raise InvalidParameterError(f"{args.algo} needs a directed graph file")
        flips = args.flips if args.algo == "om-flips" else 0
        _, sizes = oriented_median_plus_flips(obj, flips)
        for i, s in enumerate(sizes):
            record[f"cut{i}"] = s
        record["rounds_used"] = flips
        _floor_fields(record, "half-vertices", Fraction(g.n, 2), sizes[-1])
        if args.with_opt:
            opt, _ = max_dicut_exact(obj)
            record["opt"] = opt
            ratio = two_flip_floor(g.d) if flips >= 2 else oriented_ratio(g.d)
            record["ratio_floor_num"] = ratio.numerator
            record["ratio_floor_den"] = ratio.denominator
            record["pass"] = record["pass"] and Fraction(sizes[-1]) >= ratio * opt

    elif args.algo == "dflip":
        c = _start_cut(args, g)
        sizes = [cut_size(g, c)]
        for _ in range(args.rounds):
            c = distributed_flip_step(g, c)
            sizes.append(cut_size(g, c))
        for i, s in enumerate(sizes):
            record[f"cut{i}"] = s
        record["rounds_used"] = args.rounds
        record["pass"] = True

    elif args.algo == "seqflip":
        c = _start_cut(args, g)
        record["cut0"] = cut_size(g, c)
        final = sequential_flip_to_maximal(g, c, order=args.order)
        record["cut_final"] = cut_size(g, final)
        record["maximal"] = is_maximal_cut(g, final)
        _floor_fields(record, "half-edges", Fraction(g.m, 2), record["cut_final"])
        record["pass"] = record["pass"] and record["maximal"]

    elif args.algo == "random":
        c = random_cut(g, seed=args.seed)
        record["cut0"] = cut_size(g, c)
        record["expected_num"] = g.m
        record["expected_den"] = 2
        record["pass"] = True

    else:  # pragma: no cover - argparse restricts choices
        raise InvalidParameterError(f"unknown algorithm {args.algo}")

    _emit(record, args.record_file)
    return 0 if record.get("pass", True) else 1


def cmd_verify(args) -> int:
    if args.suite == "all":
        reports = {name: fn(seed=args.seed)
                   for name, fn in verify_mod.SUITES.items()}
        record = {
            "suites": reports,
            "pass": all(r["pass"] for r in reports.values()),
        }
    else:
        record = verify_mod.SUITES[args.suite](seed=args.seed)
    _emit(record, args.record_file)
    return 0 if record["pass"] else 1


def cmd_oracle(args) -> int:
    obj, g, _ = _load(args.graph)
    record: dict = {"n": g.n, "m": g.m, "d": g.d}
    if isinstance(obj, Orientation):
        if args.all_witnesses:
            opt, cuts = enumerate_max_dicuts(obj)
            record["optimal_cuts"] = len(cuts)
        else:
            opt, witness = max_dicut_exact(obj)
            record["witness_left"] = list(witness.left_vertices())
        record["problem"] = "maxdicut"
    elif args.all_witnesses:
        raise InvalidParameterError("--all-witnesses needs a directed graph file")
    else:
        opt, witness = max_cut_exact(g)
        record["witness_left"] = list(witness.left_vertices())
        record["problem"] = "maxcut"
    record["opt"] = opt
    record["pass"] = True
    _emit(record, args.record_file)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localcut",
        description="Local MaxCut/MaxDiCut algorithms, simulators, and checkers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph or instance file")
    p.add_argument("--family", required=True,
                   choices=["cnd", "dnd", "abcd", "random", "stuck1flip"])
    p.add_argument("--n", type=int, default=0,
                   help="size parameter (cycle length for dnd; total for others)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--oriented", action="store_true",
                   help="emit the clockwise/random orientation")
    p.add_argument("--ids", choices=["none", "identity", "extremal"], default="none",
                   help="write an IDS section (dnd only)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="run an algorithm on a graph file")
    p.add_argument("--algo", required=True,
                   choices=["median", "oriented-median", "om-flips",
                            "dflip", "seqflip", "random"])
    p.add_argument("--graph", required=True)
    p.add_argument("--ids", choices=["auto", "identity", "file"], default="auto")
    p.add_argument("--flips", type=_non_negative_int, default=2)
    p.add_argument("--rounds", type=_non_negative_int, default=10)
    p.add_argument("--start", choices=["all-left", "half", "random"], default="half")
    p.add_argument("--order", choices=["lowest", "highest"], default="lowest")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--congest-b", type=int, default=None,
                   help="per-message bit limit; serializes the median rule")
    p.add_argument("--with-opt", action="store_true",
                   help="also brute-force MaxDiCut OPT and check the ratio floor "
                        "(oriented-median and om-flips only)")
    p.add_argument("--out", dest="record_path", metavar="PATH", default=None,
                   help="also write the record to this file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(verify_mod.SUITES) + ["all"])
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", dest="record_path", metavar="PATH", default=None,
                   help="also write the record to this file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="exact MaxCut/MaxDiCut of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--out", dest="record_path", metavar="PATH", default=None,
                   help="also write the record to this file")
    p.set_defaults(fn=cmd_oracle)

    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (InvalidParameterError, OSError)):
        return 2
    if isinstance(exc, (BudgetError, ConstructionError, MemoryError)):
        return 3
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "record_path", None)
    try:
        # Like a shell redirect, --out is opened before the work: an
        # unusable path exits 2 without doing it or printing a record.
        with (open(path, "w", encoding="ascii") if path
              else contextlib.nullcontext()) as args.record_file:
            return args.fn(args)
    except (LocalcutError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
