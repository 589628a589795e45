"""Command-line surface: tokens, formats, exit codes, determinism."""

import argparse
import ast
import enum
import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldengasket import cli
from goldengasket.cli import EXIT_ERROR, EXIT_OK, EXIT_VERDICT, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ----------------------------------------------------------------------
# tables

def test_table1_frozen(capsys):
    code, out, _ = run(capsys, "table1")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "m,omega,dimension"
    assert lines[1] == "2,0.61803,1.93064"
    assert lines[2] == "3,0.54369,1.73218"
    assert lines[-1] == "inf,0.50000,1.58496"
    assert len(lines) == 10


def test_table2_frozen(capsys):
    code, out, _ = run(capsys, "table2")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "d,m=2,m=3,m=4,m=5,m=6,half"
    assert lines[1] == "2,1.93,1.73,1.65,1.62,1.60,1.585"
    assert lines[2] == "3,2.61,2.23,2.10,2.05,2.02,2.000"
    assert len(lines) == 6


def test_tables_deterministic(capsys):
    _, first, _ = run(capsys, "table2")
    _, second, _ = run(capsys, "table2")
    assert first == second


def test_csv_output_file_uses_crlf(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code, _, _ = run(capsys, "table1", "-o", str(out))
    assert code == EXIT_OK
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 10
    assert b"\r\r" not in raw


# ----------------------------------------------------------------------
# verdict-style commands

def test_selfsim_violation_exits_two(capsys):
    code, out, _ = run(capsys, "selfsim", "--lambda", "rational:59/100", "-n", "6")
    assert code == EXIT_VERDICT
    doc = json.loads(out)
    assert doc["violation"] == {"level": 3, "word": [0, 1, 1]}


def test_selfsim_consistent_exits_zero(capsys):
    code, out, _ = run(capsys, "selfsim", "--lambda", "omega:3", "-n", "4")
    assert code == EXIT_OK
    assert json.loads(out)["consistent_up_to"] == 4


def test_witness_not_found_exits_two(capsys):
    code, out, _ = run(capsys, "witness", "--lambda", "rational:131/200", "-n", "12")
    assert code == EXIT_VERDICT
    assert json.loads(out)["not_found"] == "radial regime"


def test_witness_found(capsys):
    code, out, _ = run(capsys, "witness", "--lambda", "rational:59/100", "-n", "12")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["digits"] == [1, 1, 0, 0]


def test_holes_exit_codes(capsys):
    code, _, _ = run(capsys, "holes", "--lambda", "rational:59/100", "-n", "3")
    assert code == EXIT_VERDICT
    code, _, _ = run(capsys, "holes", "--lambda", "omega:2", "-n", "2")
    assert code == EXIT_OK


# ----------------------------------------------------------------------
# analysis commands

def test_area_json(capsys):
    code, out, _ = run(
        capsys, "area", "--lambda", "omega:2", "-n", "2", "--resolution", "96"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["lower_exact"] == "2897/3072"
    assert doc["upper_exact"] == "2975/3072"
    assert doc["lower"] <= doc["upper"]
    assert doc["resolution"] == 96


def test_boxdim_json(capsys):
    code, out, _ = run(capsys, "boxdim", "--lambda", "omega:2", "-n", "7")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"estimate", "lambda", "n"}
    assert 1.9 < doc["estimate"] < 2.0


def test_ell_golden_json(capsys):
    code, out, _ = run(capsys, "ell", "--theta", "golden", "--degree", "12")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["witness_coeffs"] == [-1, 1]
    assert doc["multinacci_reciprocal"] == 2
    assert doc["certified"] is False
    assert abs(doc["min_abs"] - 0.6180339887498949) < 1e-12
    # stable key order and trailing newline
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Every JSON subcommand, with each verdict it can give: each prints exactly
# the re-encoding of what it printed.
JSON_JOBS = [
    (("holes", "--lambda", "rational:59/100", "-n", "3"), EXIT_VERDICT),
    (("selfsim", "--lambda", "rational:59/100", "-n", "6"), EXIT_VERDICT),
    (("selfsim", "--lambda", "omega:3", "-n", "4"), EXIT_OK),
    (("area", "--lambda", "omega:2", "-n", "2", "--resolution", "96"), EXIT_OK),
    (("boxdim", "--lambda", "omega:2", "-n", "4"), EXIT_OK),
    (("witness", "--lambda", "rational:59/100", "-n", "12"), EXIT_OK),
    (("witness", "--lambda", "rational:131/200", "-n", "12"), EXIT_VERDICT),
    (("expand", "--lambda", "omega:2", "-n", "8", "--tail"), EXIT_OK),
    (("holes", "--lambda", "lambda-star", "--dry-run"), EXIT_OK),
    (("holes", "--lambda", "rational:40/61", "-n", "4"), EXIT_VERDICT),
    (("holes", "--lambda", "omega:2", "-n", "4"), EXIT_OK),
    (("ell", "--theta", "golden", "--degree", "10"), EXIT_OK),
]


@pytest.mark.parametrize("argv,want", JSON_JOBS,
                         ids=[" ".join(argv) for argv, _ in JSON_JOBS])
def test_json_output_is_sorted_indented_ascii(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == want
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if argv[0] == "holes" and want == EXIT_VERDICT:
        assert doc["violations"]


def test_ell_certifies_inside_window(capsys):
    code, out, _ = run(capsys, "ell", "--theta", "rational:9/5", "--degree", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["certified"] is True and doc["multinacci_reciprocal"] == 0


def test_ell_pisot_below_window_uncertified(capsys):
    # the small Pisot bases sit under 3/2, where the ceiling does not apply
    code, out, _ = run(capsys, "ell", "--theta", "pisot:1", "--degree", "12")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["certified"] is False and doc["multinacci_reciprocal"] == 0


def test_ell_pisot3_degree_fifteen_bytes(capsys):
    # The printed float is the midpoint of the enclosure at which _settle
    # stopped, so it depends on the refinement history of the base until
    # LinearCombination.__float__ is correctly rounded (ROADMAP item 2).
    code, out, _ = run(capsys, "ell", "--theta", "pisot:3", "--degree", "15")
    assert code == EXIT_OK
    assert '"min_abs": 0.006364690846075118,' in out


# sha256 of stdout, and the base's refinement generation after the job, for
# the algebraic ell jobs of the ell-pisot benchmark workload, recorded with
# the earlier search that visited every digit patch of its half-table.  The
# printed min_abs is the midpoint of whatever enclosure the refinement
# history left, so a search that asks the base other questions can move
# these bytes even though its minimum and witness are exact.
ELL_HISTORY = {
    ("golden", "16"): (
        "585170bf2780f3139f44d7b3c21aae3513a7c2d6bb952297c919f398b9b5065e", 56),
    ("pisot:1", "15"): (
        "8f2fab9dc841bcbc770299bb22cc445967b1539c534c1720ceb334c1fd1b548d", 58),
    ("pisot:2", "15"): (
        "8c3135dcfa3074d3847edf36cd45c0b0bfcd1431f0a5e6b492edfd053881d329", 59),
    ("pisot:3", "15"): (
        "13be2061b7cc83c8b7b88f6e4bd8daa6aa44af1bbcec42e0306503fcd64560b4", 59),
    ("pisot:4", "15"): (
        "eceb781779a21b94a942ea56ac6fa3d3397f5b7f7136997595dc8780dd18d04f", 57),
    ("omega-inv:3", "16"): (
        "8f63e013d16b9b56270a3628823c1f5c3dae8d8a57465609f2930e1931a93e7e", 57),
}


@pytest.mark.parametrize("theta,degree", sorted(ELL_HISTORY))
def test_ell_keeps_bytes_and_refinement_history(capsys, monkeypatch, theta, degree):
    parsed = []
    parse = cli.parse_theta_token
    monkeypatch.setattr(cli, "parse_theta_token",
                        lambda token: parsed.append(parse(token)) or parsed[-1])
    code, out, _ = run(capsys, "ell", "--theta", theta, "--degree", degree)
    digest, generation = ELL_HISTORY[(theta, degree)]
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert parsed[0].generation == generation


# Exit code, sha256 of stdout (of the SVG for render) and lambda's final
# refinement generation for jobs of the level loops, recorded with the
# fixed-point screen that preceded the frame images.  Each job prints
# floats after its exact work, float(lambda) or floats of region bounds,
# which are midpoints of whatever enclosure the refinement history left, so
# a screen that refines lambda differently moves these bytes.
LEVEL_HISTORY = {
    ("area", "--lambda", "omega:3", "-n", "7", "--resolution", "256"): (
        EXIT_OK,
        "f52e430414d6c9188c539ded40a6572e4157f7072dc074dc913b01cad7f23c9c", 55),
    ("holes", "--lambda", "lambda-star", "-n", "4"): (
        EXIT_VERDICT,
        "b46eaa6b07f48d2d5ba7cc18e07ab5483862e3ee5ccd38652ac4717fab9a7bea", 55),
    ("holes", "--lambda", "omega:2", "-n", "6"): (
        EXIT_OK,
        "5819ab956e1cd8fee3d99dca2d7deac8048b7ad7706d6d3e3e69677bf4efc2a5", 55),
    ("render", "--lambda", "omega:2", "-n", "6", "--radial-holes", "--overlaps"): (
        EXIT_OK,
        "dba30c36364807e43d4f343fd1142fa68731938e400edb281a549f78809de6c8", 59),
    ("selfsim", "--lambda", "lambda-star", "-n", "5"): (
        EXIT_VERDICT,
        "7e1d346d2358087a33db6af19bde5fa54177f91078e56ba7c4f5455f58e6883c", 55),
}


@pytest.mark.parametrize("argv", sorted(LEVEL_HISTORY), ids=" ".join)
def test_level_loops_keep_bytes_and_refinement_history(capsys, monkeypatch,
                                                       tmp_path, argv):
    parsed = []
    parse = cli.parse_ratio_token
    monkeypatch.setattr(cli, "parse_ratio_token",
                        lambda token: parsed.append(parse(token)) or parsed[-1])
    svg = tmp_path / "g.svg"
    extra = ("-o", str(svg)) if argv[0] == "render" else ()
    code, out, _ = run(capsys, *argv, *extra)
    want_code, digest, generation = LEVEL_HISTORY[argv]
    printed = svg.read_bytes() if argv[0] == "render" else out.encode()
    assert code == want_code
    assert hashlib.sha256(printed).hexdigest() == digest
    assert parsed[0].generation == generation


# Exit code, sha256 of stdout and, at an algebraic lambda, its final
# refinement generation for verdict branches that no other digest pins:
# each handler prints one JSON document per verdict, and ell prints the
# raw minimum outside (3/2, 2).
VERDICT_HISTORY = {
    ("selfsim", "--lambda", "omega:2", "-n", "4"): (
        EXIT_OK,
        "895d79365f398027457cfa46d14142fe8db267947a3ac65642e345d7efe3700d", 55),
    ("witness", "--lambda", "rational:59/100"): (
        EXIT_OK,
        "2b72a592c1861f60c0924898d6744b15e3d0dfdbd2cdec69da1a29f685b76423", None),
    ("witness", "--lambda", "rational:13/20"): (
        EXIT_VERDICT,
        "46ad663cf06fb1e97ce1819eca873102de1dae482998c7e0cf956faafaeda4f2", None),
    ("ell", "--theta", "rational:7/5", "--degree", "12"): (
        EXIT_OK,
        "f18c1c5d1752899ad0d8cf723de8310896bb6806b617712b1b96ac9aca39bb5f", None),
}


@pytest.mark.parametrize("argv", sorted(VERDICT_HISTORY), ids=" ".join)
def test_verdict_branches_keep_bytes(capsys, monkeypatch, argv):
    parsed = []
    name = "parse_theta_token" if argv[0] == "ell" else "parse_ratio_token"
    parse = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda token: parsed.append(parse(token)) or parsed[-1])
    code, out, _ = run(capsys, *argv)
    want_code, digest, generation = VERDICT_HISTORY[argv]
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert getattr(parsed[0], "generation", None) == generation


def test_expand_tail(capsys):
    code, out, _ = run(
        capsys, "expand", "--lambda", "omega:2", "--x", "1", "-n", "8", "--tail"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["digits"] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert doc["x"] == "1/1"


def test_uniq_csv(capsys):
    code, out, _ = run(capsys, "uniq", "--m", "2", "-n", "6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,count,ratio"
    assert lines[1] == "1,3,"
    assert lines[2] == "2,9,3.0000000000"
    assert lines[6] == "6,189,2.0322580645"


def test_seq_csv(capsys):
    code, out, _ = run(capsys, "seq", "--which", "h", "--m", "3", "-n", "8")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert [int(l.split(",")[1]) for l in lines[1:]] == [0, 0, 0, 3, 6, 18, 48, 132, 360]
    code, out, _ = run(capsys, "seq", "--which", "u", "-n", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["n,value", "0,1", "1,3", "2,9", "3,24", "4,63", "5,162"]


def test_nonpositive_depth_and_size_rejected(tmp_path, capsys):
    for depth in ("-3", "0"):
        code, out, err = run(capsys, "expand", "--lambda", "omega:2", "-n", depth)
        assert code == EXIT_ERROR and out == ""
        assert "depth" in err
    target = tmp_path / "g.svg"
    code, _, err = run(capsys, "render", "--lambda", "omega:2", "-n", "2",
                       "--size", "-5", "-o", str(target))
    assert code == EXIT_ERROR
    assert "size" in err and not target.exists()
    code, out, err = run(capsys, "selfsim", "--lambda", "omega:2", "-n", "-1")
    assert code == EXIT_ERROR and out == ""
    assert "level" in err
    for depth in ("-3", "0"):
        code, out, err = run(capsys, "uniq", "--m", "2", "-n", depth)
        assert code == EXIT_ERROR and out == ""
        assert "n must be >= 1" in err


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300,
                    reason="the count crosses the default 4300-digit limit")
def test_uniq_stops_at_the_int_digit_limit(capsys):
    # At m = 2 the count at n = 14283 is the first past 4300 digits.
    code, out, err = run(capsys, "uniq", "--m", "2", "-n", "14283")
    assert code == EXIT_ERROR and out == ""
    assert "integer string conversion" in err


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "g.svg"
    code, out, _ = run(capsys, "render", "--lambda", "omega:2", "-n", "3", "-o", str(target))
    assert code == EXIT_OK
    assert out.strip() == str(target)
    assert target.read_text().startswith("<svg")


# ----------------------------------------------------------------------
# plumbing

def test_dry_run_reports_config(capsys):
    code, out, _ = run(capsys, "selfsim", "--lambda", "omega:2", "-n", "9", "--dry-run")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["subcommand"] == "selfsim"
    assert doc["caps"] == {"max_words": None}
    # every option the subcommand takes is reported, and only those
    expected = {
        ("table1",): {"subcommand"},
        ("ell", "--theta", "golden"): {"subcommand", "caps", "theta", "degree"},
        ("area", "--lambda", "omega:2"): {
            "subcommand", "caps", "lambda", "depth", "resolution",
        },
        ("render", "--lambda", "omega:2"): {
            "subcommand", "caps", "lambda", "depth", "size",
            "radial_holes", "overlaps",
        },
        ("expand", "--lambda", "omega:2", "--x", "6/8"): {
            "subcommand", "lambda", "depth", "x", "tail",
        },
    }
    for argv, keys in expected.items():
        code, out, _ = run(capsys, *argv, "--dry-run")
        assert code == EXIT_OK
        assert set(json.loads(out)) == keys
    code, out, _ = run(capsys, "expand", "--lambda", "omega:2", "--x", "6/8",
                       "--dry-run")
    assert json.loads(out)["x"] == "3/4"
    code, out, _ = run(capsys, "ell", "--theta", "golden", "--dry-run")
    assert json.loads(out)["caps"] == {"node_cap": 5000000}


def test_bad_ratio_token(capsys):
    code, _, err = run(capsys, "witness", "--lambda", "bogus")
    assert code == EXIT_ERROR
    assert "token" in err
    code, out, err = run(capsys, "ell", "--theta", "bogus:3")
    assert code == EXIT_ERROR and out == ""
    assert "unrecognized base token 'bogus:3'" in err


def test_bad_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_ERROR
    assert err


# argv -> (exit code, stderr) of usage errors, recorded when every job
# built the parser of all thirteen subcommands.  Nothing goes to stdout.
_CHOICES = ("(choose from 'table1', 'table2', 'render', 'holes', 'selfsim', "
            "'area', 'boxdim', 'ell', 'witness', 'uniq', 'seq', 'expand')")
USAGE_ERRORS = [
    ((), (EXIT_ERROR,
          "error: the following arguments are required: command\n")),
    (("bogus",), (EXIT_ERROR,
                  "error: argument command: invalid choice: 'bogus' %s\n"
                  % _CHOICES)),
    (("--lambda", "omega:2", "holes"), (
        EXIT_ERROR,
        "error: argument command: invalid choice: 'omega:2' %s\n" % _CHOICES)),
    (("holes", "--lambda", "omega:2", "--bogus"), (
        EXIT_ERROR, "error: unrecognized arguments: --bogus\n")),
    (("holes", "--lambda", "omega:2", "-n", "x"), (
        EXIT_ERROR, "error: argument --depth/-n: invalid int value: 'x'\n")),
    (("area", "--lambda", "omega:2", "-d", "3"), (
        EXIT_ERROR, "error: unrecognized arguments: -d 3\n")),
    (("ell", "--theta", "golden", "--node-cap", "0"), (
        EXIT_ERROR, "error: --node-cap must be >= 1\n")),
]


@pytest.mark.parametrize("argv,want", USAGE_ERRORS,
                         ids=[" ".join(argv) or "-" for argv, _ in USAGE_ERRORS])
def test_usage_error_bytes(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, err) == want and out == ""


# sha256 of the --dry-run JSON of one command line per subcommand, recorded
# with json.dumps(obj, indent=2, sort_keys=True) + "\n".
DRY_RUN_SHA256 = {
    ("table1",):
        "11b68bdcaa52c282352b3ee7c9494444c7492abbfd07a3dab6a4072cb2ed173e",
    ("table2",):
        "3415a70c4a534b08ca6fd9ae3592cb341e98a38acac39e715aa5b3e7e8ccfaec",
    ("render", "--lambda", "omega:2"):
        "5368f573116264b5401ef50c677c8ef3b5efa960e9fb18984e04ce7a55e61f6f",
    ("holes", "--lambda", "rational:59/100", "-n", "3"):
        "4ab922254793914bf44d805f3ba7859c3c8e0c1bd760211bb88b11e8544a385a",
    ("selfsim", "--lambda", "lambda-star", "-n", "5"):
        "1e02bf6d285c058038acc2e6971dd22a5b789308937e8d6ac3953434d5686517",
    ("area", "--lambda", "omega:3", "-n", "7", "--resolution", "128"):
        "0a938a712147482a25408f93199f1e5f4a05e7c7ffcecd208bc9cefa2f5adb79",
    ("boxdim", "--lambda", "omega:2", "-d", "3"):
        "10158f6c72ec2cd25c1ab288fa15c72e6207f4ac20a25991f526a6109e21652a",
    ("ell", "--theta", "pisot:3", "--degree", "15", "--node-cap", "100"):
        "3a2c853dd3961a0ce917a1853a6f21d7402950cd66ba83b19de805d182444ea4",
    ("witness", "--lambda", "rational:59/100"):
        "ddab98a2a299a7223bf9268787fe377d03713a07be3b2e47f88736a663a85ec0",
    ("uniq", "--m", "3"):
        "3803bd282568e37d1cc2ac0165ae5a1841dbbf8cbd20baf8edc87b82930cdc79",
    ("seq", "--which", "h", "-n", "8"):
        "31f3d41420f4e63d17b91a20c11a331ff45089353a5a58913be8054c91335cd0",
    ("expand", "--lambda", "omega:2", "--x", "6/8", "--tail"):
        "3103c65fd0f153d657b6d9fc236a4d1e2a9d17823821a8abf36aed756e2dcf23",
}


def test_dry_run_bytes_per_subcommand(capsys):
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in DRY_RUN_SHA256} == set(subs.choices)
    for argv, digest in DRY_RUN_SHA256.items():
        code, out, err = run(capsys, *argv, "--dry-run")
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_a_job_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    code, _, _ = run(capsys, "holes", "--lambda", "omega:2", "-n", "1")
    assert code == EXIT_OK
    assert built == ["gasket", "gasket holes"]


def _pinned_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


JSON_EDGE_CASES = [
    {}, [], (), {"a": {}, "b": [], "c": ()},
    [True, False, None, 0, -1, 1], {"t": True, "f": False, "n": None},
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 0.1],
    [10**25, -(10**40), 12345678901234567890], [[1, 2], [3, [4, (5, 6)]]],
    ["caf\u00e9 \u03bb\u00b2 \U0001d54a", "quote \" back \\ slash",
     "\x00\x01\n\t\r\x1f\x7f"],
    {"\u00e9": 1, "a\"b": [2.5, "x"], "\n": {"z": [], "y": [{}]}},
    {"b": 1, "a": 2, "B": 3, "": 4, "aa": [1, 2.0, True]},
    ([1, True], (2, None), [0.5, 1]),
    "plain", 7, -0.0, math.nan, None, True,
]


@pytest.mark.parametrize("obj", JSON_EDGE_CASES, ids=repr)
def test_json_text_matches_indented_dumps(obj):
    assert cli._json_text(obj, "") + "\n" == _pinned_json(obj)


_json_scalars = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=10**19, max_value=10**30)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text())


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(st.integers(), max_size=5)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=30))
def test_json_text_matches_indented_dumps_on_random_documents(obj):
    assert cli._json_text(obj, "") + "\n" == _pinned_json(obj)


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
def test_json_text_rejects_non_str_keys(key):
    with pytest.raises(TypeError):
        cli._json_text({key: 1}, "")
    with pytest.raises(TypeError):
        cli._json_text([{"ok": {key: 1}}], "")


class _Small(enum.IntEnum):
    ONE = 1


# Documents made of the shapes _items_text lays out a column at a time (int
# rows, records with one key set), with near misses that must fall back.
_spoilers = st.sampled_from([True, False, 0.5, -0.0, 3.0, _Small.ONE])
_keys = st.sampled_from(["", "%", "%s", "%%d", "a\"b", "\u00e9", "k", "z"])


def _cut(k, rows):
    """Rows of three ints, each cut to length k and given as a tuple if flagged."""
    return [tuple(row[:k]) if as_tuple else row[:k] for row, as_tuple in rows]


_int_rows = st.builds(_cut, st.integers(1, 3), st.lists(
    st.tuples(st.lists(st.integers(), min_size=3, max_size=3), st.booleans()),
    min_size=1, max_size=3))


def _spoil(rows, spoiler, at):
    """``rows`` with the ``at``-th int (cyclically) replaced by ``spoiler``."""
    i = at % len(rows)
    row = list(rows[i])
    row[at % len(row)] = spoiler
    return rows[:i] + [type(rows[i])(row)] + rows[i + 1:]


def _records(values):
    """Lists of dicts on one key set, one to three keys."""
    return st.builds(
        lambda keys, rows: [dict(zip(keys, row)) for row in rows],
        st.lists(_keys, min_size=1, max_size=3, unique=True),
        st.lists(st.lists(values, min_size=3, max_size=3), min_size=1, max_size=3))


_column_documents = st.recursive(
    st.integers() | _spoilers | st.text(max_size=3)
    | _int_rows | st.builds(_spoil, _int_rows, _spoilers, st.integers(0, 8))
    | st.lists(st.lists(st.integers(), max_size=3), min_size=2, max_size=3),
    lambda inner: (_records(inner)
                   | st.lists(st.dictionaries(_keys, inner, max_size=3),
                              min_size=2, max_size=3)
                   | st.dictionaries(_keys, inner, min_size=1, max_size=3)
                   | inner.map(lambda x: [x])),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_column_documents)
def test_json_text_matches_indented_dumps_on_column_shapes(obj):
    assert cli._json_text(obj, "") + "\n" == _pinned_json(obj)


@pytest.mark.parametrize("obj", [
    [{1: 2}, {1: 3}],
    [{None: 0}, {None: 1}, {None: 2}],
    [{True: 0}, {True: 1}],
    [{"a": {(1, 2): 0}}, {"a": {(1, 2): 1}}],
    [{"a": [{1.5: 0}]}, {"a": [{1.5: 1}]}],
    {"x": [[{"a": 0, 1: 0}, {"a": 1, 1: 1}]]},
], ids=repr)
def test_json_text_rejects_non_str_keys_in_record_columns(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj, "")


# sha256 of the help text at COLUMNS=80, for `gasket -h` and `gasket <sub> -h`.
HELP_SHA256 = {
    "-h": "357b554a44004ff2024b684b5df4e2d4906be198b9d54efda0c9d0474c9ee48e",
    "table1": "f096175eaf5902f63627f0cc644d4a008a154053d6a5372b54bd523472640f96",
    "table2": "69801278265e1b8779bd107bea7bb7c6aee40f46e8086b8fcc5884f47f5cc32e",
    "render": "7740dc4817ecb001fcab6a4753e9e1c55884ab0f8a20730c4180749f85b4dd6b",
    "holes": "5af1ffbbbdca3c835ecea88d11c10545815fd68bd3c4291d8f25fa8cd547537e",
    "selfsim": "0075cb39113d76c4835ff50959c646234e418569da1fa640904242331d194415",
    "area": "5cbd095e015571f7ae80d2452185115adcff827ca57d34430049b3105fbdad10",
    "boxdim": "ad497e61e0766121491d25076ed43ab83ad6cb93db33fcb7fdea4e99f95f7031",
    "ell": "fdf556100885fc478864517681fff01bf8f020ca3b8179f3fbe54ba2e3e2fff7",
    "witness": "a3fb00ad4b4b37c4f0a157f99d7cba26af013b06dd03b3fb13d6b5ed76b919de",
    "uniq": "b179d1cfe4beffa823171fad06b240d813c604496cc1365fdd54a73d7679f3e9",
    "seq": "0300b1eb4600eda727598debe813a4da62991fc8304b8652e283aa4d725af345",
    "expand": "69c62f037576fa30f46c40d05eaa12ad7660e707925fbc82ee21c2a6c046cd76",
}


# argparse's help layout changes between Python minor versions.
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests recorded on Python 3.11")
def test_help_and_usage_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at COLUMNS
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(HELP_SHA256) == {"-h", *subs.choices}
    for key, digest in HELP_SHA256.items():
        argv = ["-h"] if key == "-h" else [key, "-h"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    code, out, err = run(capsys, "holes")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: the following arguments are required: --lambda\n"


def test_rational_token_rejects_zero_denominator(capsys):
    code, _, err = run(capsys, "witness", "--lambda", "rational:1/0")
    assert code == EXIT_ERROR
    assert err == "error: rational token needs a nonzero denominator\n"
    code, _, err = run(capsys, "expand", "--lambda", "omega:2", "--x", "1/0")
    assert code == EXIT_ERROR
    assert err == "error: rational token needs a nonzero denominator\n"


def test_rational_token_needs_a_slash(capsys):
    code, out, err = run(capsys, "holes", "--lambda", "rational:3", "-n", "1")
    assert code == EXIT_ERROR and out == ""
    assert err == "error: rational token needs <p>/<q>\n"


def test_real_tokens_are_exact_decimals(capsys):
    # real:<decimal> is the Fraction the decimal spells, for both options
    code, out, _ = run(capsys, "holes", "--lambda", "real:0.6", "--dry-run")
    assert code == EXIT_OK
    assert json.loads(out)["lambda"] == {"token": "real:0.6", "exact": "3/5", "float": 0.6}
    assert run(capsys, "holes", "--lambda", "real:0.6", "-n", "3") == run(
        capsys, "holes", "--lambda", "rational:3/5", "-n", "3")
    code, out, _ = run(capsys, "ell", "--theta", "real:1.75", "--degree", "6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["theta"] == 1.75 and doc["witness_coeffs"] == [-1, 0, -1, -1, 1]
    assert (code, out) == run(capsys, "ell", "--theta", "rational:7/4", "--degree", "6")[:2]


def test_max_words_cap_and_env_restore(capsys, monkeypatch):
    before = os.environ.get("GASKET_MAX_WORDS")

    def no_write(*args):
        raise AssertionError("os.environ written during a run")

    # --max-words reaches the library as a parameter, not through the env
    with monkeypatch.context() as mp:
        mp.setattr(type(os.environ), "__setitem__", no_write)
        mp.setattr(type(os.environ), "__delitem__", no_write)
        code, _, err = run(
            capsys, "holes", "--lambda", "omega:2", "-n", "6", "--max-words", "100"
        )
    assert code == EXIT_ERROR
    assert "exceed the cap 100" in err
    assert os.environ.get("GASKET_MAX_WORDS") == before


def test_node_cap_zero_rejected(capsys):
    code, _, err = run(capsys, "ell", "--theta", "golden", "--degree", "6",
                       "--node-cap", "0")
    assert code == EXIT_ERROR
    assert "--node-cap must be >= 1" in err


def test_max_words_zero_rejected(capsys):
    code, out, err = run(capsys, "holes", "--lambda", "omega:2", "--max-words", "0")
    assert code == EXIT_ERROR and out == ""
    assert "--max-words must be >= 1" in err


def test_budgets_only_on_subcommands_that_spend_them(capsys):
    # --max-words belongs to the level subcommands and --node-cap to ell;
    # elsewhere they would be accepted and silently ignored.
    code, _, err = run(capsys, "uniq", "--m", "2", "-n", "3", "--max-words", "1")
    assert code == EXIT_ERROR
    assert "--max-words" in err
    code, _, err = run(capsys, "witness", "--lambda", "rational:59/100",
                       "--node-cap", "1")
    assert code == EXIT_ERROR
    assert "--node-cap" in err
    # area and render are planar only, so they take no --dimension
    for sub in ("area", "render"):
        code, _, err = run(capsys, sub, "--lambda", "omega:2", "-d", "2")
        assert code == EXIT_ERROR
        assert "-d" in err
    # each subcommand writes one fixed format, so there is nothing to choose
    code, _, err = run(capsys, "holes", "--lambda", "omega:2", "--format", "json")
    assert code == EXIT_ERROR
    assert "--format" in err


def test_readme_commands_parse(tmp_path, capsys, monkeypatch):
    # Every documented command line is accepted as written.  --dry-run
    # writes its JSON to -o, so run where a stray file does no harm.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#")[0].split()[1:]
                for line in block.splitlines() if line.startswith("gasket ")]
    assert len(commands) == 12
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv, "--dry-run")
        assert code == EXIT_OK, (argv, err)


def test_readme_library_example_runs():
    # Each expression of the library example gives the repr its comment
    # states, except the area, which is a bracket of two Fractions.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Library example", 1)[1].split("```python\n")[1]
    block = block.split("```")[0]
    lines = block.splitlines()
    statements = ast.parse(block).body
    namespace, results = {}, []
    for stmt, after in zip(statements, statements[1:] + [None]):
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        stop = after.lineno - 1 if after else len(lines)
        comment = next(line.partition("#")[2].strip()
                       for line in lines[stmt.end_lineno - 1:stop] if "#" in line)
        results.append((eval(code, namespace), comment))
    *shown, (area, _) = results
    assert [comment for _, comment in shown] == [
        "ConsistentUpTo(n_max=6)",
        "Violation(word=(0, 1, 1), level=3)",
        "ConverseWitness(n=5, digits=(1, 1, 0, 0))",
    ]
    for value, comment in shown:
        assert repr(value) == comment
    assert len(area) == 2 and all(type(end) is Fraction for end in area)


def test_domain_error_exits_one(capsys):
    # ratio outside the self-similarity window
    code, _, err = run(capsys, "selfsim", "--lambda", "rational:7/10", "-n", "3")
    assert code == EXIT_ERROR


def test_module_entry_point():
    # The child imports goldengasket from where this process did, which
    # pytest's pythonpath setting alone does not pass on.
    root = Path(importlib.import_module("goldengasket").__file__).parents[1]
    path = [str(root)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "goldengasket.cli", "table1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "2,0.61803,1.93064"


@pytest.mark.skipif(
    shutil.which("gasket") is None,
    reason="no gasket executable on PATH; install with pip install --no-build-isolation -e .",
)
def test_console_script_installed():
    proc = subprocess.run(["gasket", "table1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "m,omega,dimension"


def test_console_script_entry_point(capsys, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["gasket"] == "goldengasket.cli:main"
    module, _, attr = scripts["gasket"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    # the generated wrapper calls main() with no arguments and exits with
    # its return value
    monkeypatch.setattr(sys, "argv", ["gasket", "table1"])
    assert entry() == 0
    assert capsys.readouterr().out.splitlines()[0] == "m,omega,dimension"
