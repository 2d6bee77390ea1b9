"""Command-line interface: parsing, output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

import sgring
from sgring import fourgen
from sgring.cli import main, parse_ring
from sgring.core import RingSpec, Work
from sgring.errors import NonTermination, RingSpecError
from sgring.oracle import corners, fourgen_constants_bruteforce

MACAULAY_JSON = '{"a":4,"b":4,"gens":[[3,1],[1,3]]}'
RING_11_JSON = '{"a":2,"b":3,"gens":[[11,1],[1,11]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ring_forms():
    assert parse_ring(MACAULAY_JSON) == RingSpec(4, 4, ((3, 1), (1, 3)))
    assert parse_ring("2,3;") == RingSpec(2, 3, ())
    assert parse_ring("2,3;11:1,1:11") == RingSpec(2, 3, ((11, 1), (1, 11)))
    with pytest.raises(RingSpecError):
        parse_ring("2;3")
    with pytest.raises(RingSpecError):
        parse_ring('{"a": 2}')
    with pytest.raises(RingSpecError):
        parse_ring("0,3;1:1")


def test_analyze_macaulay(capsys):
    code, out, _ = run(capsys, "analyze", MACAULAY_JSON)
    assert code == 3
    assert "length dim_k R/(x^a,y^b): 5" in out
    assert "multiplicity: 4" in out
    assert "cohen-macaulay: no" in out


def test_analyze_trivial(capsys):
    code, out, _ = run(capsys, "analyze", "2,3;")
    assert code == 0
    assert "length dim_k R/(x^a,y^b): 1" in out
    assert "multiplicity: 1" in out


def test_analyze_json_fields(capsys):
    code, out, _ = run(capsys, "analyze", RING_11_JSON, "--json", "--oracle")
    assert code == 3
    report = json.loads(out)
    assert report["multiplicity"] == 6
    assert report["constant_C"] == 30
    assert report["stabilization_N"] == 9
    assert report["length"] == 11
    assert report["is_cm"] is False
    assert report["oracle_checked"] is True
    assert report["criteria"]["cone_shift"] is False
    # emitted JSON round-trips
    assert json.loads(json.dumps(report)) == report


def test_analyze_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", RING_11_JSON, "--json")
    _, out2, _ = run(capsys, "analyze", RING_11_JSON, "--json")
    assert out1 == out2


def test_analyze_exit_codes_for_errors(capsys):
    code, _, err = run(capsys, "analyze", "not a ring")
    assert code == 65 and err
    code, _, err = run(capsys, "analyze", '{"a":0,"b":3,"gens":[]}')
    assert code == 65
    code, _, err = run(capsys, "analyze", RING_11_JSON, "--budget", "3")
    assert code == 69


def test_bool_exponents_are_bad_input(capsys):
    code, out, err = run(capsys, "analyze", '{"a":true,"b":true,"gens":[]}')
    assert code == 65 and out == "" and err


def test_internal_guard_exit_code(capsys, monkeypatch):
    def broken(consts):
        raise NonTermination("basis loop exceeded its bound")

    monkeypatch.setattr(fourgen, "monomial_basis", broken)
    code, out, err = run(capsys, "basis", RING_11_JSON)
    assert code == 70 and out == "" and "exceeded its bound" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64
    code, _, _ = run(capsys, "batch", "--curves")  # missing --max-n
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["2003,1999;1:1,2:5"],
    ["--n", "100000", "--l", "1", "--m", "2"],
])
def test_basis_counts_group_order_against_budget(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "basis", *argv, "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == "" and "budget" in err
    assert err.startswith("sgring: basis needs ")


def test_basis_budget_boundary(capsys):
    # Cohen-Macaulay curve with |H| = 200: its basis is the 200-pair seed box
    code, out, _ = run(capsys, "basis", "--n", "200", "--l", "1", "--m", "2", "--budget", "200")
    assert code == 0 and len(out.splitlines()) == 200
    # not Cohen-Macaulay, |H| = 23: the exact basis size, 41 pairs, is counted
    code, out, err = run(capsys, "basis", "--n", "23", "--l", "2", "--m", "18", "--budget", "40")
    assert code == 69 and out == "" and "basis size 41" in err
    code, out, _ = run(capsys, "basis", "--n", "23", "--l", "2", "--m", "18", "--budget", "41")
    assert code == 3 and len(out.splitlines()) == 41


_CONSTRUCT = ["construct", "--a", "2", "--b", "3", "--subgroup-gens", "[[1,1]]",
              "--constant", "2", "--stab", "1"]


@pytest.mark.parametrize("argv", [
    ["basis", MACAULAY_JSON, "--oracle"],
    *[[*cmd, flag]
      for cmd in (_CONSTRUCT, ["batch", "--curves", "--max-n", "4"], ["verify", MACAULAY_JSON])
      for flag in ("--trace", "--plot", "--oracle")],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    # abbreviations are off, so `batch --oracle` is not read as --oracle-up-to
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == "" and argv[-1] in err


@pytest.mark.parametrize("argv", [
    ["analyze", "4,4;3:1,1:3", "--or"],
    ["analyze", "4,4;3:1,1:3", "--js"],
    ["basis", "--n", "5", "--l", "1", "--m", "2", "--tr"],
    ["batch", "--curves", "--max-n", "4", "--oracle", "3"],
])
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 64 and out == ""


@pytest.mark.parametrize("argv", [
    ["basis", MACAULAY_JSON, "--oracle"],
    ["analyze", "4,4;3:1,1:3", "--or"],
    ["batch", "--curves", "--max-n", "4", "--oracle"],
])
def test_unknown_flag_shows_the_subcommand_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert err.startswith(f"usage: sgring {argv[0]} [-h]")
    assert err.endswith(f"sgring {argv[0]}: error: unrecognized arguments: {argv[-1]}\n")


def test_negative_budget_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "2,3;1:1", "--budget", "-5")
    assert code == 64 and out == "" and "budget" in err


def test_basis_curve_trace(capsys):
    code, out, _ = run(capsys, "basis", "--n", "23", "--l", "2", "--m", "18", "--trace")
    assert code == 3  # not Cohen-Macaulay
    lines = out.splitlines()
    assert lines[0] == "init  |B|=23 base=5 a*=4 b*=3 c*=2"
    sizes = [line.split("|B|=")[1].split()[0] for line in lines[:5]]
    assert sizes == ["23", "34", "36", "39", "41"]
    assert lines[5:] == sorted(lines[5:], key=lambda s: tuple(
        int(t) for t in reversed(s.strip("()").split(","))))


def test_basis_ring_monomials(capsys):
    code, out, _ = run(capsys, "basis", RING_11_JSON)
    assert code == 3
    monos = [tuple(int(t) for t in line.strip("()").split(",")) for line in out.splitlines()]
    assert set(monos) == {(0, 0), (11, 1), (22, 2), (33, 3), (44, 4), (55, 5),
                          (1, 11), (2, 22), (3, 33), (4, 44), (5, 55)}
    assert len(monos) == 11
    # outside curve mode the trace rows end in g* and h*, not c*
    code, out, _ = run(capsys, "basis", MACAULAY_JSON, "--trace")
    assert code == 3
    assert out == (
        "init  |B|=4 base=1 a*=2 b*=2 g*=-4 h*=4\n"
        "rule4 |B|=5 base=1 a*=1 b*=3 g*=0 h*=8\n"
        "(0,0)\n(3,1)\n(6,2)\n(1,3)\n(2,6)\n"
    )


def test_basis_seven_ring(capsys):
    code, out, _ = run(capsys, "basis", '{"a":2,"b":3,"gens":[[7,1],[1,7]]}')
    assert code == 3
    assert len(out.splitlines()) == 21


def test_basis_log_pairs(capsys):
    code, out, _ = run(capsys, "basis", RING_11_JSON, "--log")
    pairs = [tuple(int(t) for t in line.strip("()").split(",")) for line in out.splitlines()]
    assert set(pairs) == {(a, 0) for a in range(6)} | {(0, b) for b in range(1, 6)}


def test_basis_not_fourgen(capsys):
    code, _, err = run(capsys, "basis", "2,3;1:1")
    assert code == 65 and "two middle generators" in err
    code, _, err = run(capsys, "basis")
    assert code == 65


def test_basis_json_mirrors_text(capsys):
    code, out, _ = run(capsys, "basis", "--n", "23", "--l", "2", "--m", "18", "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["initial_size"] == 23
    assert [t["size"] for t in payload["trace"]] == [34, 36, 39, 41]
    assert [t["c_star"] for t in payload["trace"]] == [4, 6, 8, 10]
    assert payload["size"] == 41 and payload["is_cm"] is False


def test_construct_roundtrip(capsys):
    code, out, _ = run(capsys, "construct", "--a", "2", "--b", "3",
                       "--subgroup-gens", "[[1,1]]", "--constant", "2", "--stab", "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"] == {
        "multiplicity": 6, "constant_C": 2, "stabilization_N": 1}

    code, out, _ = run(capsys, "construct", "--a", "3", "--b", "3",
                       "--subgroup-gens", "[[1,1]]", "--constant", "0", "--stab", "0",
                       "--json")
    payload = json.loads(out)
    assert payload["verification"]["constant_C"] == 0
    assert payload["verification"]["stabilization_N"] == 0


def test_construct_trivial_subgroup(capsys):
    code, _, err = run(capsys, "construct", "--a", "2", "--b", "3",
                       "--subgroup-gens", "[[0,0]]", "--constant", "1", "--stab", "0")
    assert code == 65 and "trivial" in err


def test_construct_unrealizable_pair(capsys):
    # stabilization >= 1 needs constant > stabilization
    code, out, err = run(capsys, "construct", "--a", "2", "--b", "3",
                         "--subgroup-gens", "[[1,1]]", "--constant", "1", "--stab", "1")
    assert code == 65 and out == "" and "stabilization" in err


def test_construct_counts_group_order_against_budget(capsys):
    # |H| = lcm(501, 500) = 250500 is counted before any class is listed
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--a", "501", "--b", "500",
                         "--subgroup-gens", "[[1,1]]", "--constant", "1", "--stab", "0",
                         "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == "" and "|H|" in err
    assert err.startswith("sgring: corners needs ")


def test_construct_counts_generator_steps_against_budget(capsys):
    # |H| = 3540 fits the default budget, but the built ring's corner
    # enumeration needs at least |H| x t = 3540 x 3540 generator steps
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--a", "60", "--b", "59",
                         "--subgroup-gens", "[[1,1]]", "--constant", "1", "--stab", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == "" and "generator steps" in err


@pytest.mark.parametrize("gens", ['[["x",1]]', "[[true,1]]"])
def test_construct_rejects_non_integer_subgroup_gens(capsys, gens):
    code, out, err = run(capsys, "construct", "--a", "3", "--b", "4",
                         "--subgroup-gens", gens, "--constant", "1", "--stab", "0")
    assert code == 65 and out == "" and "integer" in err


def test_construct_rejects_nonpositive_modulus(capsys):
    code, out, err = run(capsys, "construct", "--a", "0", "--b", "4",
                         "--subgroup-gens", "[[1,1]]", "--constant", "2", "--stab", "1")
    assert code == 65 and out == "" and "a >= 1" in err


def test_batch_csv(capsys):
    code, out, _ = run(capsys, "batch", "--curves", "--max-n", "4")
    assert code == 0
    assert out == (
        "n,l,m,is_cm,H,basis_size,bound_attained\n"
        "3,1,2,true,3,3,false\n"
        "4,1,2,true,4,4,false\n"
        "4,1,3,false,4,5,false\n"
        "4,2,3,true,4,4,false\n"
    )


def test_batch_single_row(capsys):
    code, out, _ = run(capsys, "batch", "--curves", "--max-n", "3")
    assert out.count("\n") == 2  # header + one row


def test_batch_oracle_column_and_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "batch", "--curves", "--max-n", "8",
                       "--oracle-up-to", "6", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    lines = text.splitlines()
    assert lines[0] == "n,l,m,is_cm,H,basis_size,bound_attained,oracle_agree"
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == ("true" if int(fields[0]) <= 6 else "")


def test_batch_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "batch", "--curves", "--max-n", "3",
                       "--out", str(tmp_path / "no" / "such" / "dir.csv"))
    assert code == 74 and err


def test_batch_json(capsys):
    code, out, _ = run(capsys, "batch", "--curves", "--max-n", "4", "--json")
    payload = json.loads(out)
    assert [r["is_cm"] for r in payload] == [True, True, False, True]


_BATCH_ROWS_4 = [
    {"n": 3, "l": 1, "m": 2, "is_cm": True, "H": 3, "basis_size": 3,
     "bound_attained": False, "oracle_agree": True},
    *({"n": 4, "l": l, "m": m, "is_cm": cm, "H": 4, "basis_size": size,
       "bound_attained": False, "oracle_agree": None}
      for l, m, cm, size in [(1, 2, True, 4), (1, 3, False, 5), (2, 3, True, 4)]),
]


def test_batch_oracle_output_pinned(capsys):
    # rows above --oracle-up-to have an empty oracle_agree cell in CSV and
    # null in JSON
    argv = ["batch", "--curves", "--max-n", "4", "--oracle-up-to", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (
        "n,l,m,is_cm,H,basis_size,bound_attained,oracle_agree\n"
        "3,1,2,true,3,3,false,true\n"
        "4,1,2,true,4,4,false,\n"
        "4,1,3,false,4,5,false,\n"
        "4,2,3,true,4,4,false,\n"
    )
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(_BATCH_ROWS_4, indent=2, sort_keys=True) + "\n"


def test_batch_counts_curves_against_budget(capsys):
    # C(100000, 3) curves are counted before any row is classified
    start = time.perf_counter()
    code, out, err = run(capsys, "batch", "--curves", "--max-n", "100000", "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == "" and "budget" in err
    assert err.startswith("sgring: batch needs ")


def test_batch_budget_boundary(capsys):
    # one unit per curve: C(30, 3) = 4060 curves with n <= 30
    code, out, _ = run(capsys, "batch", "--curves", "--max-n", "30", "--budget", "4060")
    assert code == 0 and len(out.splitlines()) == 1 + 4060
    code, out, err = run(capsys, "batch", "--curves", "--max-n", "30", "--budget", "4059")
    assert code == 69 and out == "" and "4060 curves" in err


def test_batch_oracle_rows_share_the_budget(capsys):
    # the 120 curves with n <= 10 leave nothing for the oracle rows, and the
    # message says so: the budget is --budget, and batch spent it on curves
    code, out, err = run(capsys, "batch", "--curves", "--max-n", "10",
                         "--oracle-up-to", "10", "--budget", "120")
    assert code == 69 and out == ""
    assert "the work budget of 120;" in err and "spent: batch 120 curves" in err
    assert "work budget of 0" not in err


def test_verify_macaulay(capsys):
    code, out, _ = run(capsys, "verify", MACAULAY_JSON, "--hf-range", "0..4")
    assert code == 0
    assert "[5, 9, 13, 17, 21]" in out
    assert "all checks passed" in out


def test_verify_eleven_ring(capsys):
    code, out, _ = run(capsys, "verify", RING_11_JSON, "--hf-range", "0..12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"cm_agreement", "hilbert_function", "constants",
            "basis_equals_corners"} <= names


def test_verify_counts_hf_range_against_budget(capsys):
    # 10^8 + 1 orders x 5 corners are charged before any count
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "4,4;3:1,1:3", "--hf-range", "0..100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == "" and "Hilbert-function" in err


def test_verify_hf_range_budget_boundary(capsys):
    # one ledger for the run: |corners| x 2 generator steps, one corner
    # visit per order and corner, then the brute-force constants' steps
    spec, work = RingSpec(4, 4, ((3, 1), (1, 3))), Work()
    n_corners = len(corners(spec, work))
    fourgen_constants_bruteforce(4, 4, (3, 1), (1, 3), work)
    steps, brute = work.spent["corners"], work.spent["bruteforce"]
    total = steps + 100 * n_corners + brute
    assert (steps, n_corners, brute, total) == (10, 5, 28, 538)
    argv = ["verify", "4,4;3:1,1:3", "--hf-range", "0..99", "--budget"]
    code, out, _ = run(capsys, *argv, str(total))
    assert code == 0 and "all checks passed" in out
    code, out, err = run(capsys, *argv, str(total - 1))
    assert code == 69 and out == "" and err.startswith("sgring: bruteforce needs")
    code, out, err = run(capsys, *argv, str(steps + 100 * n_corners - 1))
    assert code == 69 and out == "" and "hilbert_function needs 500 corner visits" in err


def test_verify_charges_the_bruteforce_constants(capsys):
    # 101 x 103: 22,976 generator steps of corners, then 4.2M brute-force
    # steps, which the ledger refuses before the search runs past it
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "101,103;1:1,2:5", "--budget", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == ""
    assert err.startswith("sgring: bruteforce needs") and "brute-force steps" in err
    assert "spent: corners 22976 generator steps" in err


_OVERSIZED = "2003,1999;1:1,2:5"  # |H| = 4,003,997


@pytest.mark.parametrize("argv, layer", [
    (["analyze", _OVERSIZED], "corners"),
    (["verify", _OVERSIZED], "corners"),
    (["basis", _OVERSIZED], "basis"),
    (["basis", "--n", "100000", "--l", "1", "--m", "2"], "basis"),
    (["construct", "--a", "501", "--b", "500", "--subgroup-gens", "[[1,1]]",
      "--constant", "1", "--stab", "0"], "corners"),
    (["batch", "--curves", "--max-n", "100000"], "batch"),
], ids=["analyze", "verify", "basis", "basis_curve", "construct", "batch"])
def test_oversized_input_exits_69_at_once(capsys, argv, layer):
    # every subcommand refuses on a forecast or its first charge
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 69 and out == "" and err.startswith(f"sgring: {layer} needs ")


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "2,3;")
    assert code == 0


def test_json_mode_emits_only_json(capsys):
    for argv in (["analyze", MACAULAY_JSON, "--json"],
                 ["basis", RING_11_JSON, "--json"],
                 ["batch", "--curves", "--max-n", "4", "--json"],
                 ["verify", "2,3;", "--json"]):
        code, out, _ = run(capsys, *argv)
        json.loads(out)  # raises if any stray bytes are mixed in


def test_plot_renders(capsys):
    code, out, _ = run(capsys, "analyze", MACAULAY_JSON, "--plot")
    assert "class (2, 2)" in out and "X" in out
    code, out, _ = run(capsys, "basis", MACAULAY_JSON, "--plot")
    assert "#" in out and "+" in out


@pytest.mark.parametrize("argv, plot", [
    ([MACAULAY_JSON], ["pairs (a right, b down), 5 total:", "  ###", "  #..", "  +.."]),
    (["--n", "23", "--l", "2", "--m", "18"],
     ["pairs (a right, b down), 41 total:", "  #########", "  #########", "  #####....",
      *["  +++++...."] * 2, *["  +........"] * 8]),
    # wider than 60: columns are clipped at a = 60
    (["--n", "72", "--l", "1", "--m", "63"],
     ["pairs (a right, b down), 126 total:", "  " + "#" * 61, "  " + "#" * 9 + "." * 52,
      *["  " + "+" * 9 + "." * 52] * 6]),
    # taller than 60: rows are clipped at b = 60
    (["--n", "72", "--l", "9", "--m", "71"],
     ["pairs (a right, b down), 126 total:", *["  ########"] * 9, *["  +......."] * 52]),
])
def test_basis_plot_pinned(capsys, argv, plot):
    # the plot comes before the monomials, which stay the basis output
    code, out, _ = run(capsys, "basis", *argv, "--plot")
    _, monomials, _ = run(capsys, "basis", *argv)
    assert code == 3
    assert out == "\n".join(plot) + "\n" + monomials


def test_module_entry_point():
    # the child imports the same sgring as this process, PYTHONPATH set or not
    src = os.path.dirname(os.path.dirname(sgring.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgring", "analyze", "2,3;"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "cohen-macaulay: yes" in proc.stdout


def test_public_names_resolve():
    assert len(sgring.__all__) == len(set(sgring.__all__))
    for name in sgring.__all__:
        assert getattr(sgring, name) is not None, name
    namespace = {}
    exec("from sgring import *", namespace)
    assert set(sgring.__all__) <= set(namespace)


THREE_GEN = "3,3;1:1,2:2,4:1"
_CONSTS_MACAULAY = ("FourGenConstants(d=4, n=4, e=3, l=1, f=1, m=3, a1=1, b1=1, g1=4, h1=4, "
                    "a2=2, b2=2, g2=-4, h2=4, a3=3, b3=1, g3=8, h3=0)")
_CONSTS_RING_11 = ("FourGenConstants(d=2, n=3, e=11, l=1, f=1, m=11, a1=1, b1=1, g1=12, h1=12, "
                   "a2=5, b2=1, g2=-54, h2=6, a3=6, b3=0, g3=66, h3=6)")
_NOT_CM = {"cone_shift": False, "corner_unique": False, "fourgen_sign": False,
           "length_equals_multiplicity": False}
_NOT_CM_DETAIL = ("cone_shift=false corner_unique=false fourgen_sign=false "
                  "length_equals_multiplicity=false")

PINNED_OUTPUTS = [
    (["analyze", MACAULAY_JSON, "--json", "--oracle"], 3, {
        "basis": [[0, 0], [3, 1], [6, 2], [1, 3], [2, 6]],
        "constant_C": 1,
        "criteria": _NOT_CM,
        "is_cm": False,
        "length": 5,
        "multiplicity": 4,
        "oracle_checked": True,
        "polynomial": {"intercept": 5, "slope": 4},
        "spec": {"a": 4, "b": 4, "gens": [[3, 1], [1, 3]]},
        "stabilization_N": 0,
        "subgroup_size": 4,
        "trace": None,
    }),
    (["verify", MACAULAY_JSON, "--json", "--hf-range", "0..12"], 0, {
        "checks": [
            {"detail": _NOT_CM_DETAIL, "name": "cm_agreement", "passed": True},
            {"detail": "HF(0..12) = [5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53], "
                       "equals P(n) exactly for n >= 0",
             "name": "hilbert_function", "passed": True},
            {"detail": f"fast {_CONSTS_MACAULAY} vs brute force",
             "name": "constants", "passed": True},
            {"detail": "basis size 5, corner count 5",
             "name": "basis_equals_corners", "passed": True},
            {"detail": "|B0| vs |H| = 4", "name": "candidate_box_size", "passed": True},
        ],
        "passed": True,
        "spec": {"a": 4, "b": 4, "gens": [[3, 1], [1, 3]]},
    }),
    (["analyze", RING_11_JSON, "--json", "--oracle"], 3, {
        "basis": [[0, 0], [11, 1], [22, 2], [33, 3], [44, 4], [55, 5],
                  [1, 11], [2, 22], [3, 33], [4, 44], [5, 55]],
        "constant_C": 30,
        "criteria": _NOT_CM,
        "is_cm": False,
        "length": 11,
        "multiplicity": 6,
        "oracle_checked": True,
        "polynomial": {"intercept": 36, "slope": 6},
        "spec": {"a": 2, "b": 3, "gens": [[11, 1], [1, 11]]},
        "stabilization_N": 9,
        "subgroup_size": 6,
        "trace": None,
    }),
    (["verify", RING_11_JSON, "--json", "--hf-range", "0..12"], 0, {
        "checks": [
            {"detail": _NOT_CM_DETAIL, "name": "cm_agreement", "passed": True},
            {"detail": "HF(0..12) = [11, 22, 32, 41, 50, 59, 67, 75, 83, 90, 96, 102, 108], "
                       "equals P(n) exactly for n >= 9",
             "name": "hilbert_function", "passed": True},
            {"detail": f"fast {_CONSTS_RING_11} vs brute force",
             "name": "constants", "passed": True},
            {"detail": "basis size 11, corner count 11",
             "name": "basis_equals_corners", "passed": True},
            {"detail": "|B0| vs |H| = 6", "name": "candidate_box_size", "passed": True},
        ],
        "passed": True,
        "spec": {"a": 2, "b": 3, "gens": [[11, 1], [1, 11]]},
    }),
    (["analyze", THREE_GEN, "--json", "--oracle"], 0, {
        "basis": None,
        "constant_C": 0,
        "criteria": {"cone_shift": True, "corner_unique": True,
                     "length_equals_multiplicity": True},
        "is_cm": True,
        "length": 3,
        "multiplicity": 3,
        "oracle_checked": True,
        "polynomial": {"intercept": 3, "slope": 3},
        "spec": {"a": 3, "b": 3, "gens": [[1, 1], [2, 2], [4, 1]]},
        "stabilization_N": 0,
        "subgroup_size": 3,
        "trace": None,
    }),
    (["verify", THREE_GEN, "--json", "--hf-range", "0..12"], 0, {
        "checks": [
            {"detail": "cone_shift=true corner_unique=true length_equals_multiplicity=true",
             "name": "cm_agreement", "passed": True},
            {"detail": "HF(0..12) = [3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39], "
                       "equals P(n) exactly for n >= 0",
             "name": "hilbert_function", "passed": True},
        ],
        "passed": True,
        "spec": {"a": 3, "b": 3, "gens": [[1, 1], [2, 2], [4, 1]]},
    }),
]


@pytest.mark.parametrize("argv, code, expected", PINNED_OUTPUTS,
                         ids=[f"{cmd}-{ring}" for ring in ("macaulay", "ring11", "threegen")
                              for cmd in ("analyze", "verify")])
def test_json_output_pinned(capsys, argv, code, expected):
    # the serialization (two-space indent, sorted keys, one trailing newline)
    # is part of what is pinned, so stdout is compared byte for byte
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err) == (code, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_analyze_oracle_failure_names_the_check(capsys, monkeypatch):
    from sgring import hilbert

    monkeypatch.setattr(hilbert, "fourgen_constants_bruteforce", lambda *args: None)
    code, out, err = run(capsys, "analyze", MACAULAY_JSON, "--oracle")
    assert code == 70 and out == "" and "check constants failed" in err
    # without --oracle no brute-force search runs
    code, _, _ = run(capsys, "analyze", MACAULAY_JSON)
    assert code == 3
