"""Command-line contract: exit statuses, determinism, output shapes."""

import argparse
import hashlib
import json
import math
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from oscmean.cli import CSV_HEADER, build_parser, main
from oscmean.means import evaluate_request, neuman_LN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env(**extra):
    """This process's environment with ``src`` first on PYTHONPATH, plus ``extra``."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


# -- mean -------------------------------------------------------------------------


def test_mean_json_golden(capsys):
    code, out, _ = run_cli(
        capsys, "mean", "--values", "1,2.71828182845905,7.38905609893065", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert abs(payload["m1"] - 2.95249) < 1e-4
    assert payload["rel_gap"] < 1e-9
    assert payload["warnings"] == []


def test_mean_two_values_k1(capsys):
    code, out, _ = run_cli(capsys, "mean", "--values", "1,4", "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["m1"] - 2.16404256133345) < 1e-12


def test_mean_duplicate_values_exit_2(capsys):
    code, _, err = run_cli(capsys, "mean", "--values", "2,2,3")
    assert code == 2
    assert "duplicate value 2" in err


def test_mean_negative_value_exit_2(capsys):
    code, _, err = run_cli(capsys, "mean", "--values=-1,2")
    assert code == 2
    assert "positive" in err


def test_mean_unparseable_value_exit_2(capsys):
    code, _, err = run_cli(capsys, "mean", "--values", "abc,2")
    assert code == 2


@pytest.mark.parametrize("literal", [".0", "+.0", "-.0", ".0e1", ".00"])
def test_mean_zero_with_a_bare_point_is_not_positive(capsys, literal):
    # read as 0.0 and refused as such, not as an unparseable literal
    code, _, err = run_cli(capsys, "mean", f"--values={literal},1,2")
    assert code == 2
    assert err == "error: values must be positive, got 0.0\n"


def test_mean_missing_values_exit_2(capsys):
    code, _, _ = run_cli(capsys, "mean")
    assert code == 2


def test_mean_bad_k_exit_2(capsys):
    code, _, err = run_cli(capsys, "mean", "--values", "2,3", "--k", "5")
    assert code == 2
    assert "k" in err


def test_mean_k2_below_one_exit_2(capsys):
    code, out, err = run_cli(capsys, "mean", "--values", "0.5,2,5", "--k", "2", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "t > 1" in err
    assert err == (
        "error: component 2 of the log curve is strictly increasing only for t > 1; "
        "smallest input is 0.5\n"
    )


@pytest.mark.parametrize(
    "values, code, note",
    [
        ("2,2.00000000000000000001,3", 0, "warning: min ln-gap 5.0e-21 is below 1e-06"),
        # mean-clustered's collapse request at seed 101, block 0
        ("6.7790598949429542389,6.7783846561876487999,6.7798651254142204688,"
         "6.7806116822035149348,6.7775049738276063536,6.7764168616189888183,"
         "6.7806116822035149349", 2, "(min ln-gap 1.47e-20 is below 1e-06)"),
    ],
    ids=["gap-1e-20", "collapse"],
)
def test_mean_prints_a_ln_gap_finer_than_53_bits(capsys, values, code, note):
    got, out, err = run_cli(capsys, "mean", "--values", values, "--precision", "113")
    assert got == code
    assert note in out + err


@pytest.mark.parametrize("precision, escalated", [("53", True), ("113", False), ("256", False)])
def test_mean_says_precision_escalated_only_when_it_rose(capsys, precision, escalated):
    code, out, err = run_cli(capsys, "mean", "--values", "2,2.0000000001,3",
                             "--precision", precision)
    assert code == 0 and not err
    assert "warning: min ln-gap 5.0e-11 is below 1e-06; results are ill-conditioned" in out
    assert ("precision escalated" in out) == escalated
    assert ("(escalated to 113)" in out) == escalated


def test_mean_outside_inputs_exit_2(capsys):
    values = ("0.54896602621678882421,0.54896602609182398869,0.54896602652808839490,"
              "0.54896602665847601854,0.54896602640281305315")
    code, out, err = run_cli(capsys, "mean", "--values", values, "--precision", "113")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "outside" in err


def test_mean_refused_on_m1_computes_no_ln(capsys, monkeypatch):
    # M_1 lies above the largest input at 113 bits: the request is refused
    # before L_N is computed, with the message it always had
    def neuman_ln(*args):
        raise AssertionError("neuman_LN called for a request refused on M_1")

    monkeypatch.setattr("oscmean.means.neuman_LN", neuman_ln)
    values = ("6.6376897282768350716,6.6376897055339734166,6.6376897587381414663,"
              "6.6376897695756074550,6.6376897406209031209")
    code, out, err = run_cli(capsys, "mean", "--values", values, "--json", "--precision", "113")
    assert (code, out) == (2, "")
    assert err == (
        "error: M_1 = 6.63769114537 lies outside the inputs' range "
        "[6.63768970553, 6.63768976958]; the system is too ill-conditioned at 113 bits\n"
    )


@pytest.mark.parametrize(
    "values, field",
    [
        # the mpf values are right, but float64 would print them as inf or 0.0
        ("1.000000000779307447373867e+100000,1.000001000780308227348761e+100000", "values[0]"),
        ("1e-400,2e-400,3e-400", "values[0]"),
        # inputs a float64 holds, with i_2 = 8.6e309 past its range
        ("1e307,1.2e307,1.5e307", "point[1]"),
    ],
)
@pytest.mark.parametrize("fmt", [(), ("--json",), ("--csv",)])
def test_mean_past_the_float64_range_exit_2(capsys, values, field, fmt):
    code, out, err = run_cli(capsys, "mean", "--values", values, *fmt)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} = ") and "float64 range" in err


def test_mean_json_keys(capsys):
    code, out, _ = run_cli(capsys, "mean", "--values", "1.5,3,8", "--k", "2", "--json")
    assert code == 0
    assert list(json.loads(out)) == [
        "n", "k", "precision_bits", "effective_precision_bits", "values", "point",
        "m1", "neuman_ln", "rel_gap", "mk", "error_bound", "warnings",
    ]


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


@pytest.mark.parametrize(
    "values, bits",
    [
        # n = 24: rows that overflow a float64 unless scaled first
        (",".join(f"{1.2 ** i:.6f}" for i in range(1, 25)), "200"),
        # a gap of 1e-400: a scaled pivot underflows a float64, so the
        # error bound is inf
        ("1,1." + "0" * 399 + "1,2", "1500"),
    ],
)
def test_mean_json_is_standard_json(capsys, values, bits):
    code, out, _ = run_cli(capsys, "mean", "--values", values, "--precision", bits, "--json")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    if bits == "1500":
        assert payload["error_bound"] is None
    else:
        assert 0 < payload["error_bound"] < 1e-40


def test_mean_prints_the_same_error_bound_in_every_format(capsys):
    argv = ("mean", "--values", "1.5,2,3,4.5,6,8,11,15,20,27", "--k", "10", "--precision", "256")
    _, out, _ = run_cli(capsys, *argv, "--json")
    bound = json.loads(out)["error_bound"]
    assert 0 < bound < 1e-70
    # CSV and text each print it right after the relative gap
    _, out, _ = run_cli(capsys, *argv, "--csv")
    assert f"\nrel_gap,0.0\nerror_bound,{bound!r}\n" in out
    _, out, _ = run_cli(capsys, *argv)
    assert f"\nrelative gap           = 0.000e+00\nerror bound            = {bound:.3e}\n" in out


def test_mean_human_output(capsys):
    code, out, _ = run_cli(capsys, "mean", "--values", "1,4")
    assert code == 0
    assert "M_1" in out and "L_N" in out


# -- determinism -------------------------------------------------------------------


def test_mean_json_byte_identical(capsys):
    args = ("mean", "--values", "1.25,3.5,9.75", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_json_byte_identical(capsys):
    args = ("verify", "--max-n", "3", "--trials", "5", "--seed", "11", "--json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_conjecture_csv_byte_identical(capsys):
    args = ("conjecture", "--n", "3", "--trials", "5", "--seed", "7", "--csv")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "verify --max-n 5 --precision 113 --trials 20 --seed 101 --json",
            "cb4938a761e9dbc866abb67bf9ced0b337bd4e6bf3bf30748c57514f316ef2e2",
        ),
        (
            "conjecture --n 3 --trials 20 --seed 101 --json",
            "a87e0f09ea972536e14b6d7d2b33a8055e07637d73910a74a629382d058f06c1",
        ),
        (
            "verify --max-n 4 --trials 10 --seed 3",
            "4121cf1081da299d9423b1b0fba1d350a7663259e4978b9be04cf08a8d4ab181",
        ),
        (
            "verify --max-n 4 --trials 10 --seed 3 --csv",
            "40825dd66ebb0d7bb5870b3e4334b4c519339ceb7b0b35c9f2d766f9257c771d",
        ),
        (
            "identities --max-n 4 --trials 20 --seed 2",
            "4d0790082df8b5113e050bb1a217c409c32d1c74be41bc25093fd0b4f0d4d02f",
        ),
        (
            "identities --max-n 4 --trials 20 --seed 2 --csv",
            "081860a7949e12d63426a0e64eb83ba815aa738a2247ebc6050cd56cc863cede",
        ),
        (
            # escalates to 113 bits and warns
            "mean --values 2,2.0000000001,3",
            "2e6281c3a7228a2f7c6f83477f0df680b7a68f8492622563f85c835562dab3b8",
        ),
        (
            "mean --values 2,2.0000000001,3 --json",
            "5f6f3d41a84524c7966185c6a1529b3bad5a145516a963f63d8c8f3a92240f82",
        ),
        (
            "mean --values 2,2.0000000001,3 --csv",
            "c92b3ce5a54fa09a6f07556aec740ff72271f52f69c1be08d202de4f3155a37e",
        ),
        (
            # a refusal: exit 2, the message on stderr
            "mean --values 2,2,3",
            "d801cb6fa6a331f8791d61fcac7c39c1239c8a0f7c8ff9e8d566a1ddc45a880d",
        ),
        (
            # n = 2 at 256 bits: each component of the fixed-point solve
            # rounded once to the working precision
            "mean --values 1.67943726907852,47.5500308965592 --json --precision 256",
            "68a897b3f3f89299ff8bce0ca2c34898494be9e538153588c08d723179163a11",
        ),
        (
            # M_10 pulled back through t*(log t)^9; rel_gap from numerics
            "mean --values 1.5,2,3,4.5,6,8,11,15,20,27 --k 10 --precision 256 --json",
            "70e87dd179477d5f5960312a0ee753ce3c2c43ad8e1bd2572827256840cfac50",
        ),
        (
            # every numeric row, the determinant rows at the intersection's width
            "verify --max-n 7 --precision 113 --trials 100 --seed 101 --json",
            "8d060002d85896436e4bfc95a0849d31b5fec670caf07f28cbe35be7aa5581a4",
        ),
        (
            "conjecture --n 5 --trials 50 --seed 7 --json",
            "0a314f533609af9f9841a506893cfe9f44813c8707abcd877551ba3c825404a4",
        ),
    ],
)
def test_verify_path_output_is_pinned(capsys, argv, digest):
    # every byte of the output, stdout then stderr; a rounding change
    # anywhere under verify, identities, conjecture or mean changes the digest
    code, out, err = run_cli(capsys, *argv.split())
    assert code == (2 if err else 0)
    assert hashlib.sha256((out + err).encode()).hexdigest() == digest


# -- verify --------------------------------------------------------------------------


def test_verify_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--trials", "5", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        assert set(row) == {"identity", "n", "exact", "max_rel_error",
                            "instances", "warnings"}
        assert row["exact"] or row["max_rel_error"] is not None


def test_verify_max_n7_at_53_bits_passes(capsys):
    # the n = 7 determinant rows are taken at working_bits(53) on the planes of
    # the main theorem's intersection, and clear the 53-bit gates
    code, out, err = run_cli(capsys, "verify", "--max-n", "7", "--json")
    assert code == 0 and not err
    rows = {r["identity"]: r for r in json.loads(out) if r["n"] == 7 and not r["exact"]}
    assert sorted(rows) == ["cramer_quotient_vs_neuman", "main_theorem_m1_vs_neuman",
                            "prop3_determinant", "prop4_determinant"]
    assert all(r["instances"] == 100 and r["max_rel_error"] < 1e-14 for r in rows.values())


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--trials", "5", "--csv")
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_HEADER)


def test_verify_max_n_too_small(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "1")
    assert code == 2
    assert ">= 2" in err


def test_verify_max_n_too_large(capsys):
    code, _, _ = run_cli(capsys, "verify", "--max-n", "9")
    assert code == 2


def test_verify_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--trials", "5",
                           "--precision", "113", "--json")
    assert code == 0
    rows = json.loads(out)
    numeric = [r for r in rows if r["max_rel_error"] is not None]
    assert numeric and all(r["max_rel_error"] < 1e-8 for r in numeric)


# -- identities ------------------------------------------------------------------------


def test_identities_subcommand(capsys):
    code, out, _ = run_cli(capsys, "identities", "--max-n", "3", "--trials", "5", "--json")
    assert code == 0
    rows = json.loads(out)
    names = {r["identity"] for r in rows}
    assert "alternating_binomial_sum" in names
    assert "prop3_determinant" in names


# -- conjecture -------------------------------------------------------------------------


def test_conjecture_n3_gated_pass(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--trials", "10",
                           "--seed", "7", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["max_rel_error"] < 1e-8


def test_conjecture_n5_report_only(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "5", "--trials", "3",
                           "--seed", "7", "--json")
    assert code == 0


def test_conjecture_n2_exit_2(capsys):
    code, _, err = run_cli(capsys, "conjecture", "--n", "2")
    assert code == 2
    assert "n >= 3" in err


def test_conjecture_zero_trials_exit_2(capsys):
    code, _, _ = run_cli(capsys, "conjecture", "--n", "3", "--trials", "0")
    assert code == 2


def test_conjecture_n17_exits_2_at_once(capsys):
    # past n = 16 the scan's rejection sampling of tuples can run for minutes
    code, out, err = run_cli(capsys, "conjecture", "--n", "17", "--trials", "1")
    assert code == 2
    assert out == ""
    assert "n" in err and "16" in err


# -- precision resolution ------------------------------------------------------------------


def test_env_precision_is_ignored(capsys, monkeypatch):
    argv = ["mean", "--values", "1,4", "--json"]
    monkeypatch.delenv("OSCMEAN_PRECISION", raising=False)
    unset = run_cli(capsys, *argv)
    assert unset[0] == 0 and json.loads(unset[1])["precision_bits"] == 53
    monkeypatch.setenv("OSCMEAN_PRECISION", "113")
    assert run_cli(capsys, *argv) == unset
    fresh = subprocess.run([sys.executable, "-m", "oscmean.cli", *argv], capture_output=True,
                           text=True, env=_child_env(OSCMEAN_PRECISION="113"))
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == unset


def test_flag_wins_over_env(capsys, monkeypatch):
    monkeypatch.setenv("OSCMEAN_PRECISION", "113")
    code, out, _ = run_cli(capsys, "mean", "--values", "1,4", "--precision", "64", "--json")
    assert code == 0
    assert json.loads(out)["precision_bits"] == 64


def _assert_refused_or_within_4_ulps(capsys, literals):
    code, out, _ = run_cli(
        capsys, "mean", "--values", ",".join(literals), "--json", "--precision", "53"
    )
    if code == 2:
        return
    assert code == 0
    truth = float(neuman_LN(literals, 400))
    assert abs(json.loads(out)["m1"] - truth) <= 4 * math.ulp(truth)


# Four requests that print a wrong M_1 with exit 0 at 53 bits.
N10_LITERALS = (
    "12.3655376084187", "1.7513819565723", "43.982895167934", "36.3516413325538",
    "20.607058123111", "25.6117553760915", "7.56519538016959", "7.18633780871819",
    "22.7978859189657", "8.10689122833937",
)
CLUSTERED_LITERALS = (
    "5.3181779619479737183", "5.3181777314889760834", "5.3181780846020593170",
    "5.3181782456291209025", "5.3181775014407985935",
)
N12_LITERALS = ("1.5", "2", "3", "4.5", "6", "8", "11", "15", "20", "27", "36", "48")
N16_LITERALS = (
    "1.1", "1.3", "1.6", "2", "2.5", "3.1", "3.9", "4.9",
    "6.1", "7.6", "9.5", "11.9", "14.9", "18.6", "23.3", "29.1",
)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND: at n = 10 and 53 bits intersect returns M_1 5 ulps off with exit 0",
)
def test_mean_n10_at_53_bits_is_right_or_refused(capsys):
    _assert_refused_or_within_4_ulps(capsys, N10_LITERALS)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND: mean prints wrong means inside the inputs' range on clustered inputs",
)
def test_mean_clustered_is_right_or_refused(capsys):
    _assert_refused_or_within_4_ulps(capsys, CLUSTERED_LITERALS)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND: at n = 12 and 53 bits intersect returns M_1 1.1e-15 relative off with exit 0",
)
def test_mean_n12_at_53_bits_is_right_or_refused(capsys):
    _assert_refused_or_within_4_ulps(capsys, N12_LITERALS)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND: at n = 16 and 53 bits intersect returns M_1 9.2e-12 relative off with exit 0",
)
def test_mean_n16_at_53_bits_is_right_or_refused(capsys):
    _assert_refused_or_within_4_ulps(capsys, N16_LITERALS)


@pytest.mark.parametrize(
    "literals", [N10_LITERALS, CLUSTERED_LITERALS, N12_LITERALS, N16_LITERALS],
    ids=["n10", "clustered", "n12", "n16"],
)
def test_mean_wrong_answers_print_an_error_bound_above_53_bits(capsys, literals):
    # the bound reports what the four wrong answers above lose; it does
    # not refuse them
    code, out, _ = run_cli(capsys, "mean", "--values", ",".join(literals), "--json")
    assert code == 0
    assert json.loads(out)["error_bound"] > 2.0 ** -53


def test_mean_far_apart_inputs_print_their_residual(capsys):
    # rows 10^600 apart: the bound is taken on the rows scaled by powers of
    # two, so it stays finite and small
    code, out, _ = run_cli(capsys, "mean", "--values", "1e-300,1e-100,1,1e100,1e300", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m1"] == payload["neuman_ln"]
    assert payload["error_bound"] is not None and payload["error_bound"] < 1e-20


def test_mean_residual_below_the_float_range_is_not_printed_as_zero(capsys):
    # at 1500 bits the bound is about 2^-1500: positive, below the float
    # range, and printed as the smallest subnormal, which still bounds it
    assert evaluate_request(["1", "2", "3"], 1, 1500)["error_bound"] == 5e-324
    code, out, _ = run_cli(capsys, "mean", "--values", "1,2,3", "--precision", "1500", "--json")
    assert code == 0
    assert json.loads(out)["error_bound"] == 5e-324
    assert '"error_bound": 5e-324' in out


def test_low_precision_rejected(capsys):
    code, _, _ = run_cli(capsys, "mean", "--values", "1,4", "--precision", "16")
    assert code == 2


# -- failure path ----------------------------------------------------------------------


def test_failing_report_exits_1(capsys):
    from oscmean.cli import _fail_reports
    from oscmean.identities import IdentityReport

    failing = IdentityReport("made_up_row", 3, False, 0.5, 1, 1e-9)
    passing = IdentityReport("passing_row", 3, False, 0.0, 1, 1e-9)
    second = IdentityReport("other_row", 7, False, 0.5, 1, 1e-9)
    args = argparse.Namespace(seed=0, trials=100, precision=53)
    assert _fail_reports([failing, passing, second], args) == 1
    err = capsys.readouterr().err
    assert "made_up_row (n=3)" in err and "other_row (n=7)" in err
    assert "passing_row" not in err
    assert "seed=0" in err and "trials=100" in err and "precision=53" in err


def test_closed_stdout_ends_the_script_without_a_traceback():
    # the reader takes one line and closes the pipe while the script still
    # has output to write: the script ends as SIGPIPE ends other tools, with
    # no traceback and not with status 1, which says an identity failed
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(signal, "SIGPIPE") or not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs SIGPIPE and a pipe whose size can be set")
    read_end, write_end = os.pipe()
    with open(read_end, "rb", buffering=0) as reader:
        with open(write_end, "wb", buffering=0) as writer:
            # one 4 KiB page: the 6.3 kB of JSON cannot all be written before
            # the read, and a read of the 2-byte first line frees no room
            if fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, 4096) != 4096:
                pytest.skip("pages are larger than 4 KiB")
            child = subprocess.Popen(
                [sys.executable, "-m", "oscmean.cli", "verify", "--max-n", "5", "--json"],
                stdout=writer, stderr=subprocess.PIPE, env=_child_env(),
            )
        line = b""
        while not line.endswith(b"\n"):
            byte = reader.read(1)
            assert byte
            line += byte
    err = child.communicate(timeout=300)[1]
    assert line == b"[\n"
    assert child.returncode == -signal.SIGPIPE
    assert b"Traceback" not in err


# -- one process, many calls -------------------------------------------------------------


#: Neighbours differ in subcommand, --k, --precision or output format.
SEQUENCE = [
    ["mean", "--values", "1.5,2,5", "--k", "2", "--json"],
    ["mean", "--values", "1.5,2,5"],
    ["conjecture", "--n", "3", "--trials", "3", "--csv"],
    ["conjecture", "--n", "3", "--trials", "3"],
    ["mean", "--values", "1.5,2,5", "--precision", "113", "--csv"],
    ["mean", "--values", "1.5,2,5", "--csv"],
    ["verify", "--max-n", "9"],
]


def test_calls_in_one_process_match_first_calls(capsys):
    first = {}
    for argv in SEQUENCE:
        fresh = subprocess.run([sys.executable, "-m", "oscmean.cli", *argv],
                               capture_output=True, text=True, env=_child_env())
        first[tuple(argv)] = (fresh.returncode, fresh.stdout, fresh.stderr)
    for argv in SEQUENCE + SEQUENCE[::-1]:
        assert run_cli(capsys, *argv) == first[tuple(argv)], argv


def test_main_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    main(["mean", "--values", "1,4"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in SEQUENCE:
        main(argv)
    assert built == []
    # the counter sees a rebuild: the top-level parser and one per subcommand
    build_parser.cache_clear()
    main(["mean", "--values", "1,4"])
    capsys.readouterr()
    assert len(built) == 5


def test_readme_command_lines_parse():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("oscmean ")]
    assert len(commands) == 7
    parser = build_parser()
    for command in commands:
        try:
            args = parser.parse_args(command[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(command)}")
        assert args.subcommand == command[1]
