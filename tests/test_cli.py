"""End-to-end CLI checks through main(argv); no subprocesses needed."""

import functools
import json
import pathlib

import pytest

from localcut import (
    BudgetError,
    CongestionError,
    ConstructionError,
    Cut,
    InvalidParameterError,
    InvariantError,
    LocalcutError,
    NonTerminationError,
    UnsupportedDegreeError,
    cli as cli_mod,
    median_cut,
)
from localcut import verify as verify_mod
from localcut.cli import main


def record_from(capsys):
    return json.loads(capsys.readouterr().out)


def gen(tmp_path, name, *argv):
    path = str(tmp_path / name)
    assert main(["gen", *argv, "--out", path]) == 0
    return path


# --- gen ------------------------------------------------------------------------

def test_gen_dnd_header_and_summary(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "dnd", "--n", "12", "--d", "5")
    rec = record_from(capsys)
    assert rec == {
        "family": "dnd", "n": 24, "m": 60, "d": 5,
        "directed": False, "ids": "none", "path": path,
    }
    with open(path) as fh:
        assert fh.readline().rstrip() == "24 60 5 U"


def test_gen_is_idempotent(tmp_path, capsys):
    a = gen(tmp_path, "a.txt", "--family", "random", "--n", "20", "--d", "3",
            "--seed", "7")
    b = gen(tmp_path, "b.txt", "--family", "random", "--n", "20", "--d", "3",
            "--seed", "7")
    capsys.readouterr()
    assert pathlib.Path(a).read_text() == pathlib.Path(b).read_text()


def test_gen_oriented_with_ids(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "dnd", "--n", "12", "--d", "5",
               "--oriented", "--ids", "identity")
    rec = record_from(capsys)
    assert rec["directed"] is True
    text = pathlib.Path(path).read_text()
    assert text.splitlines()[0] == "24 60 5 D"
    assert "IDS" in text


@pytest.mark.parametrize("family,extra", [
    ("cnd", ["--n", "12", "--d", "4"]),
    ("random", ["--n", "12", "--d", "3"]),
    ("abcd", ["--n", "12", "--d", "3"]),
])
@pytest.mark.parametrize("ids", ["identity", "extremal"])
def test_gen_rejects_ids_outside_dnd(tmp_path, capsys, family, extra, ids):
    out = tmp_path / "g.txt"
    assert main(["gen", "--family", family, *extra, "--ids", ids,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --ids")
    assert not out.exists()


def test_gen_rejects_bad_params(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "gen-cnd-odd-n")
    expect_exit(tmp_path, capsys, "gen-stuck1flip-even-d")


@pytest.mark.parametrize("d,n", [(5, 30), (7, 56)])
def test_gen_stuck1flip_past_the_oracle(tmp_path, capsys, d, n):
    path = gen(tmp_path, "g.txt", "--family", "stuck1flip", "--d", str(d))
    rec = record_from(capsys)
    assert (rec["n"], rec["d"], rec["directed"]) == (n, d, True)
    with open(path) as fh:
        assert fh.readline().split() == [str(n), str(n * d // 2), str(d), "D"]


def test_gen_unwritable_path_is_exit_2(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "gen-unwritable-path")


# --- run -------------------------------------------------------------------------

def test_run_median_record(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "16", "--d", "3")
    capsys.readouterr()
    assert main(["run", "--algo", "median", "--graph", path]) == 0
    rec = record_from(capsys)
    assert rec["rounds_used"] == 1
    assert rec["floor_name"] == "median-floor"
    assert (rec["floor_value_num"], rec["floor_value_den"]) == (10, 1)
    assert rec["cut0"] >= 10
    assert rec["pass"] is True
    assert rec["max_message_bits"] == 5  # ids 1..16, and 16 needs five bits
    assert rec["total_bits"] == 16 * 3 * 5


def test_run_median_needs_odd_degree(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "run-median-even-d")


def test_run_median_ids_file_missing_section(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "run-median-ids-file-missing")


def test_run_median_congest_b1(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "dnd", "--n", "12", "--d", "5",
               "--ids", "identity")
    capsys.readouterr()
    assert main(["run", "--algo", "median", "--graph", path, "--ids", "file",
                 "--congest-b", "1"]) == 0
    rec = record_from(capsys)
    assert rec["max_message_bits"] == 1
    assert rec["rounds_used"] == 5  # ids go up to 24, streamed one bit a round
    assert rec["pass"] is True


def test_run_median_disagreement_is_exit_1_without_traceback(tmp_path, monkeypatch, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "16", "--d", "3")
    capsys.readouterr()
    monkeypatch.setattr(cli_mod, "median_cut", lambda g, lab: Cut(1 - median_cut(g, lab).sides))
    assert main(["run", "--algo", "median", "--graph", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: simulated median disagrees with the function\n"


def test_run_oriented_median_needs_directed_file(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "run-oriented-median-undirected")


def test_run_oriented_median_clockwise(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "dnd", "--n", "12", "--d", "5",
               "--oriented")
    capsys.readouterr()
    assert main(["run", "--algo", "oriented-median", "--graph", path]) == 0
    rec = record_from(capsys)
    assert rec["cut0"] == 12
    assert rec["floor_name"] == "half-vertices"
    assert rec["pass"] is True
    assert "cut1" not in rec


def test_run_om_flips_with_opt_abcd(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "abcd", "--d", "3", "--n", "12")
    capsys.readouterr()
    assert main(["run", "--algo", "om-flips", "--graph", path,
                 "--with-opt"]) == 0
    rec = record_from(capsys)
    assert (rec["cut0"], rec["cut1"], rec["cut2"]) == (6, 10, 10)
    assert rec["opt"] == 10
    assert (rec["ratio_floor_num"], rec["ratio_floor_den"]) == (71, 115)
    assert rec["pass"] is True


def test_run_dflip_reports_trajectory(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "16", "--d", "3")
    capsys.readouterr()
    assert main(["run", "--algo", "dflip", "--graph", path, "--rounds", "3",
                 "--start", "all-left"]) == 0
    rec = record_from(capsys)
    assert rec["cut0"] == 0
    assert {"cut1", "cut2", "cut3"} <= rec.keys()
    assert "cut4" not in rec


def test_run_seqflip_reaches_maximal(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "18", "--d", "3",
               "--seed", "5")
    capsys.readouterr()
    assert main(["run", "--algo", "seqflip", "--graph", path,
                 "--start", "all-left"]) == 0
    rec = record_from(capsys)
    assert rec["maximal"] is True
    assert rec["cut_final"] >= 27 / 2
    assert rec["floor_name"] == "half-edges"


def test_run_seqflip_takes_the_two_orders_only(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "18", "--d", "3",
               "--seed", "5")
    for order in ("lowest", "highest"):
        capsys.readouterr()
        assert main(["run", "--algo", "seqflip", "--graph", path, "--order", order]) == 0
        assert record_from(capsys)["maximal"] is True
    with pytest.raises(SystemExit) as err:
        main(["run", "--algo", "seqflip", "--graph", path, "--order", "sideways"])
    assert err.value.code == 2
    assert "invalid choice: 'sideways'" in capsys.readouterr().err


def test_run_random_baseline(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "16", "--d", "3",
               "--seed", "2")
    capsys.readouterr()
    assert main(["run", "--algo", "random", "--graph", path, "--seed", "3"]) == 0
    rec = record_from(capsys)
    assert rec["expected_num"] == 24
    assert rec["expected_den"] == 2
    assert 0 <= rec["cut0"] <= 24


def test_run_writes_out_file(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "random", "--n", "16", "--d", "3")
    capsys.readouterr()
    out = str(tmp_path / "record.json")
    assert main(["run", "--algo", "median", "--graph", path, "--out", out]) == 0
    on_screen = capsys.readouterr().out
    assert pathlib.Path(out).read_text() == on_screen


# --- verify ---------------------------------------------------------------------

def test_verify_suite_passes(capsys):
    assert main(["verify", "--suite", "median-floor"]) == 0
    rec = record_from(capsys)
    assert rec["suite"] == "median-floor"
    assert rec["pass"] is True
    assert rec["violations"] == 0


def test_verify_passes_seed_to_wrapped_suite(monkeypatch, capsys):
    seen = []
    suite = verify_mod.SUITES["claim1"]

    @functools.wraps(suite)
    def wrapped(*args, **kwargs):
        seen.append(kwargs.get("seed"))
        return suite(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "SUITES", {"claim1": wrapped})
    assert main(["verify", "--suite", "claim1", "--seed", "5"]) == 0
    assert main(["verify", "--suite", "all", "--seed", "6"]) == 0
    capsys.readouterr()
    assert seen == [5, 6]


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "no-such-suite"])
    assert err.value.code == 2
    capsys.readouterr()


# --- oracle ---------------------------------------------------------------------

def test_oracle_bipartite_circulant(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "cnd", "--n", "12", "--d", "4")
    capsys.readouterr()
    assert main(["oracle", "--graph", path]) == 0
    rec = record_from(capsys)
    assert rec["problem"] == "maxcut"
    assert rec["opt"] == 24
    assert len(rec["witness_left"]) == 6


def test_oracle_directed_clockwise(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "dnd", "--n", "6", "--d", "3",
               "--oriented")
    capsys.readouterr()
    assert main(["oracle", "--graph", path]) == 0
    rec = record_from(capsys)
    assert rec["problem"] == "maxdicut"
    assert rec["opt"] == 9


def test_oracle_all_witnesses(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "dnd", "--n", "6", "--d", "3",
               "--oriented")
    capsys.readouterr()
    assert main(["oracle", "--graph", path, "--all-witnesses"]) == 0
    rec = record_from(capsys)
    assert rec["opt"] == 9
    assert rec["optimal_cuts"] == 2


def test_oracle_abcd_opt(tmp_path, capsys):
    path = gen(tmp_path, "g.txt", "--family", "abcd", "--d", "3", "--n", "12")
    capsys.readouterr()
    assert main(["oracle", "--graph", path]) == 0
    assert record_from(capsys)["opt"] == 10


def test_oracle_over_budget_is_exit_3(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "oracle-over-budget")


def test_missing_graph_file_is_exit_2(tmp_path, capsys):
    expect_exit(tmp_path, capsys, "oracle-missing-file")


def test_oracle_rejects_negative_header(tmp_path, capsys):
    assert expect_exit(tmp_path, capsys, "oracle-negative-header").startswith(
        "error: bad header")


@pytest.mark.parametrize("flag", ["--rounds", "--flips"])
def test_run_rejects_negative_counts(tmp_path, capsys, flag):
    path = gen(tmp_path, "g.txt", "--family", "cnd", "--n", "8", "--d", "2")
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["run", "--algo", "dflip", "--graph", path, flag, "-3"])
    assert err.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "random", "--n", "20", "--d", "3", "--out", "{out}"],
    ["run", "--algo", "random", "--graph", "{graph}"],
    ["verify", "--suite", "median-floor"],
])
def test_negative_seeds_rejected(tmp_path, capsys, argv):
    # random.Random(-4) seeds like random.Random(4): a negative seed would
    # silently give a positive one's output
    paths = {"out": str(tmp_path / "out.txt"),
             "graph": gen(tmp_path, "g.txt", "--family", "cnd", "--n", "8", "--d", "2")}
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([arg.format(**paths) for arg in argv] + ["--seed", "-4"])
    assert err.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "must be >= 0" in errors[0]
    assert not (tmp_path / "out.txt").exists()


# --- exit codes -------------------------------------------------------------------

# Graph files an argv below may name as {key}, written with `gen` first.
GRAPH_FILES = {
    "cnd": ["--family", "cnd", "--n", "8", "--d", "2"],
    "dnd": ["--family", "dnd", "--n", "12", "--d", "5"],
    "dnd_ids": ["--family", "dnd", "--n", "6", "--d", "3", "--ids", "identity"],
    "random": ["--family", "random", "--n", "16", "--d", "3"],
    "random32": ["--family", "random", "--n", "32", "--d", "3", "--seed", "1"],
}

# argv -> exit code of every handled error; {tmp} is the test's directory,
# {out} a fresh file in it, {bad_header} a file holding "-1 0 3 U".
EXIT_CODES = {
    "gen-cnd-odd-n": (["gen", "--family", "cnd", "--n", "9", "--d", "4", "--out", "{out}"], 2),
    "gen-stuck1flip-even-d": (["gen", "--family", "stuck1flip", "--d", "4", "--out", "{out}"], 2),
    "gen-ids-outside-dnd": (["gen", "--family", "cnd", "--n", "12", "--d", "4",
                             "--ids", "extremal", "--out", "{out}"], 2),
    "gen-unwritable-path": (["gen", "--family", "cnd", "--n", "8", "--d", "2",
                             "--out", "{tmp}/no/such/dir.txt"], 2),
    "gen-random-n-past-2^32": (["gen", "--family", "random", "--n", "4294967296",
                                "--d", "0", "--out", "{out}"], 2),
    "run-median-even-d": (["run", "--algo", "median", "--graph", "{cnd}"], 2),
    "run-median-ids-file-missing": (["run", "--algo", "median", "--graph", "{random}",
                                     "--ids", "file"], 2),
    "run-median-congest-b-0": (["run", "--algo", "median", "--graph", "{dnd_ids}",
                                "--ids", "file", "--congest-b", "0"], 2),
    "run-median-congest-b-negative": (["run", "--algo", "median", "--graph", "{dnd}",
                                       "--congest-b", "-3"], 2),
    "run-dflip-congest-b": (["run", "--algo", "dflip", "--graph", "{random}",
                             "--congest-b", "4"], 2),
    "run-om-flips-congest-b": (["run", "--algo", "om-flips", "--graph", "{dnd}",
                                "--congest-b", "1"], 2),
    "run-oriented-median-undirected": (["run", "--algo", "oriented-median",
                                        "--graph", "{dnd}"], 2),
    "run-median-with-opt": (["run", "--algo", "median", "--graph", "{dnd}", "--with-opt"], 2),
    "run-dflip-with-opt": (["run", "--algo", "dflip", "--graph", "{random}", "--with-opt"], 2),
    "run-seqflip-with-opt": (["run", "--algo", "seqflip", "--graph", "{random}",
                              "--with-opt"], 2),
    "run-random-with-opt": (["run", "--algo", "random", "--graph", "{random}", "--with-opt"], 2),
    "oracle-missing-file": (["oracle", "--graph", "{tmp}/not/here.txt"], 2),
    "oracle-directory": (["oracle", "--graph", "{tmp}"], 2),
    "oracle-negative-header": (["oracle", "--graph", "{bad_header}"], 2),
    "oracle-over-budget": (["oracle", "--graph", "{random32}"], 3),
    "oracle-all-witnesses-undirected": (["oracle", "--graph", "{cnd}", "--all-witnesses"], 2),
    "run-out-in-missing-dir": (["run", "--algo", "random", "--graph", "{random}",
                                "--out", "{tmp}/no/such/dir.json"], 2),
    "verify-out-in-missing-dir": (["verify", "--suite", "claim1",
                                   "--out", "{tmp}/no/such/dir.json"], 2),
    "oracle-out-is-a-directory": (["oracle", "--graph", "{cnd}", "--out", "{tmp}"], 2),
}


def expect_exit(tmp_path, capsys, case):
    """Run one EXIT_CODES row; return its stderr, a single `error:` line."""
    argv, code = EXIT_CODES[case]
    paths = {"tmp": str(tmp_path), "out": str(tmp_path / "out.txt"),
             "bad_header": str(tmp_path / "bad_header.txt")}
    (tmp_path / "bad_header.txt").write_text("-1 0 3 U\n")
    for key, gen_argv in GRAPH_FILES.items():
        if "{%s}" % key in argv:
            paths[key] = gen(tmp_path, key + ".txt", *gen_argv)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_code_table(tmp_path, capsys, case):
    expect_exit(tmp_path, capsys, case)


@pytest.mark.parametrize("command,argv", [
    ("cmd_run", ["run", "--algo", "random", "--graph", "g.txt"]),
    ("cmd_verify", ["verify", "--suite", "claim1"]),
    ("cmd_oracle", ["oracle", "--graph", "g.txt"]),
], ids=["run", "verify", "oracle"])
def test_unusable_out_exits_2_before_the_work(monkeypatch, tmp_path, capsys, command, argv):
    ran = []
    monkeypatch.setattr(cli_mod, command, ran.append)
    assert main([*argv, "--out", str(tmp_path / "no" / "such.json")]) == 2
    assert ran == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error,code", [
    (InvalidParameterError("bad"), 2),
    (UnsupportedDegreeError("bad"), 2),
    (FileNotFoundError("gone"), 2),
    (BudgetError("big"), 3),
    (ConstructionError("stuck"), 3),
    (CongestionError(0, 1, 2, 3, 1), 1),
    (NonTerminationError("slow"), 1),
    (InvariantError("bug"), 1),
    (LocalcutError("other"), 1),
    (MemoryError("Unable to allocate 32.0 GiB for an array"), 3),
])
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli_mod, "cmd_verify", fail)
    assert main(["verify", "--suite", "claim1"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {error}\n"


def test_main_names_an_error_that_has_no_message(monkeypatch, capsys):
    def fail(args):
        raise MemoryError()

    monkeypatch.setattr(cli_mod, "cmd_verify", fail)
    assert main(["verify", "--suite", "claim1"]) == 3
    assert capsys.readouterr() == ("", "error: MemoryError\n")
