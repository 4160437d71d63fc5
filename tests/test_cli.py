"""Command-line front end: exit codes, output schema, round-trips."""

import json

import mpmath
import pytest

from pcflab import cli, converge, search
from pcflab.cli import main
from pcflab.pcf import Pcf, dual
from pcflab.ring import RingElem


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_eval_headline_trio(capsys):
    rc, out, _ = run(capsys, "eval", "[1;2]")
    assert rc == 0
    assert "verdict: Converges" in out
    assert "value: w" in out
    assert "1.4142135623" in out

    rc, out, _ = run(capsys, "eval", "[1;-1,2]")
    assert rc == 1
    assert "Diverges" in out

    rc, out, _ = run(capsys, "eval", "[1;-2,2]")
    assert rc == 0
    assert "verdict: Converges" in out

    rc, out, _ = run(capsys, "eval", "[;2,-1/2,1]")
    assert rc == 1
    assert "Diverges(Ineq)" in out
    assert "pariah" in out


def test_eval_parse_error(capsys):
    rc, _, err = run(capsys, "eval", "[1;2")
    assert rc == 2
    assert err

    rc, _, err = run(capsys, "eval", "[;1/0]")
    assert rc == 2
    assert "zero denominator" in err


def test_d_flag_is_honored_or_rejected(capsys):
    # the command line works over Z[sqrt 2], so --d is an unknown flag
    for d in ("2", "3"):
        for cmd in (["eval", "[1;2]"], ["search", "table", "z_03"], ["skolem", "rst"]):
            with pytest.raises(SystemExit) as exc:
                main(["--d", d, *cmd])
            assert exc.value.code == 2
            cap = capsys.readouterr()
            assert not cap.out
            assert "usage: pcflab" in cap.err


def test_eval_big_solution_rate(capsys):
    rc, out, _ = run(capsys, "eval", "[442+312*w;-298532+211094*w,884+624*w]")
    assert rc == 0
    assert "sqrt(2+w)" in out
    assert "1.8477590650" in out
    assert "~550.3" in out


def test_eval_decides_convergence_once(capsys, monkeypatch):
    calls = []
    decide = converge.verdict

    def counted(P):
        calls.append(P)
        return decide(P)

    monkeypatch.setattr(cli, "verdict", counted)
    monkeypatch.setattr(converge, "verdict", counted)
    rc, out, _ = run(capsys, "eval", "[1;2]")
    assert rc == 0
    assert "convergents per digit" in out
    assert len(calls) == 1


def test_dual_swaps_root(capsys):
    rc, out, _ = run(capsys, "dual", "[1;2]")
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("dual: ")
    dual_str = first.split("dual: ", 1)[1]
    assert Pcf.parse(dual_str) == dual(Pcf.parse("[1;2]"))
    assert "value: -w" in out
    assert "-1.4142135623" in out


@pytest.mark.parametrize("command", ["eval", "dual"])
def test_all_roots_infinite_answer(capsys, command):
    # the period matrix of [;1,0] fixes only the point at infinity
    rc, out, err = run(capsys, command, "[;1,0]")
    assert (rc, err) == (0, "")
    assert out.splitlines()[1:] == [
        "verdict: Converges",
        "note: all-roots-infinite",
        "value: inf",
        "rate: sub-exponential (tangent case)",
    ]
    assert "decimal:" not in out

    rc, out, err = run(capsys, "--format", "json-lines", command, "[;1,0]")
    assert (rc, err) == (0, "")
    rec = json.loads(out)
    assert rec["verdict"] == "Converges" and rec["value_decimal"] is None


def test_variety_check_exit_codes(capsys):
    base = ["variety", "check", "--type", "0,3", "--target", "1,0,-2"]
    rc, out, _ = run(capsys, *base, "--point", "1,1,0", "--point", "3,-1,2")
    assert rc == 0
    assert out.count("member") == 2

    rc, out, _ = run(capsys, *base, "--point", "1,1,1")
    assert rc == 1

    rc, _, err = run(capsys, "variety", "check", "--type", "bad", "--target", "1,0,-2", "--point", "1,1,0")
    assert rc == 2
    assert err

    rc, _, err = run(capsys, *base, "--point", "1,1")
    assert rc == 2
    assert err


def test_fp_project_non_member_is_math_error(capsys):
    base = ["fp", "project", "--type", "0,3", "--target", "1,0,-2"]
    rc, out, _ = run(capsys, *base, "--point", "1,1,0")
    assert rc == 0
    assert "(1, 1)" in out

    rc, out, err = run(capsys, *base, "--point", "1,1,1")
    assert rc == 1
    assert err == "math error: (1, 1, 1) is not a member of the family (1, 0, -2)\n"

    rc, _, err = run(capsys, *base, "--point", "1,1")
    assert rc == 2
    assert err


def test_fp_project_json_lines_keeps_non_members(capsys):
    # one record per submitted point, in order, as variety check does
    base = ["--format", "json-lines", "fp", "project", "--type", "0,3", "--target", "1,0,-2"]
    rc, out, err = run(capsys, *base, "--point", "1,1,0", "--point", "1,1,1")
    assert rc == 1
    assert "math error" in err
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["verdict"] for r in records] == ["on-conic", "non-member"]
    assert records[1] == {
        "coords": ["1", "1", "1"],
        "residuals": None,
        "value_decimal": None,
        "verdict": "non-member",
    }


def test_search_table_codes(capsys):
    rc, out, _ = run(capsys, "search", "table", "z22_03")
    assert rc == 0
    assert "16/16" in out

    rc, _, err = run(capsys, "search", "table", "nonsense")
    assert rc == 2
    assert "z22_03" in err


def test_search_ljunggren(capsys):
    rc, out, _ = run(capsys, "search", "ljunggren", "--bound", "1000")
    assert rc == 0
    assert "(239, 13)" in out
    assert "8 solutions with |y| <= 1000" in out


def test_search_ecurve(capsys):
    rc, out, _ = run(capsys, "search", "ecurve", "--pi", "2+w", "--kmax", "20")
    assert rc == 0
    assert "21 points" in out


def test_skolem_reports(capsys):
    rc, out, _ = run(capsys, "skolem", "rst", "--nmax", "4")
    assert rc == 0
    assert "-2080-1472*w" in out

    rc, out, _ = run(capsys, "skolem", "table")
    assert rc == 0
    assert "+-(449+317*w)" in out

    rc, out, _ = run(capsys, "skolem", "oryx", "--jmax", "30")
    assert rc == 0
    assert "PASS" in out

    rc, out, _ = run(capsys, "skolem", "l2", "--kmax", "20")
    assert rc == 0
    assert "{0, 1}" in out

    for argv in (
        ("rst", "--nmax", "-1"),
        ("oryx", "--jmax", "-1"),
        ("oryx", "--jmax", "0"),
        ("l2", "--kmax", "-3"),
        ("l2", "--kmax", "0"),
    ):
        rc, out, err = run(capsys, "skolem", *argv)
        assert rc == 2
        assert not out
        assert "must be" in err


@pytest.mark.parametrize("report", ["rst", "table", "oryx", "l2"])
def test_skolem_rejects_json_lines(capsys, report):
    rc, out, err = run(capsys, "--format", "json-lines", "skolem", report)
    assert rc == 2
    assert not out
    assert "--format" in err


def test_precision_flag_and_env(capsys, monkeypatch):
    rc, out, _ = run(capsys, "--precision", "10", "eval", "[1;2]")
    assert rc == 0
    assert "decimal: 1.4142135624" in out

    rc, out, _ = run(capsys, "--precision", "5000", "eval", "[1;2]")
    assert rc == 0
    assert len(out.split("decimal: ", 1)[1].split("\n", 1)[0]) == 5002

    monkeypatch.setenv("PCFLAB_PRECISION", "5")
    rc, out, _ = run(capsys, "eval", "[1;2]")
    assert "decimal: 1.41421" in out

    rc, out, _ = run(capsys, "--precision", "12", "eval", "[1;2]")
    assert "decimal: 1.414213562373" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["variety", "check", "--type", "0,3", "--target", "1,0,-2", "--point", "1,1,0"],
        ["fp", "project", "--type", "0,3", "--target", "1,0,-2", "--point", "1,1,0"],
        ["search", "table", "z_03"],
        ["search", "ljunggren", "--bound", "10"],
        ["search", "ecurve", "--pi", "2+w", "--kmax", "2"],
        ["skolem", "rst", "--nmax", "2"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_precision_is_rejected_where_no_decimals_print(capsys, monkeypatch, argv):
    rc, out, err = run(capsys, "--precision", "7", *argv)
    assert rc == 2
    assert not out
    assert "--precision" in err
    # the environment variable stays a plain default, read by eval and dual only
    for value in ("7", "abc", "0"):
        monkeypatch.setenv("PCFLAB_PRECISION", value)
        rc, out, err = run(capsys, *argv)
        assert rc in (0, 1) and out and not err.startswith("error")


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_precision_variable_names_itself(capsys, monkeypatch, value):
    monkeypatch.setenv("PCFLAB_PRECISION", value)
    for command in ("eval", "dual"):
        rc, out, err = run(capsys, command, "[1;2]")
        assert rc == 2
        assert not out
        assert "PCFLAB_PRECISION" in err


def test_precision_flag_still_serves_eval(capsys):
    rc, out, err = run(capsys, "--precision", "7", "eval", "[1;2]")
    assert (rc, err) == (0, "")
    assert "decimal: 1.4142136\n" in out


def test_json_lines_schema_and_determinism(capsys):
    rc, out1, _ = run(capsys, "--format", "json-lines", "eval", "[1;2]")
    assert rc == 0
    rec = json.loads(out1)
    assert list(rec) == ["pcf", "residuals", "value_decimal", "verdict"]
    assert rec["verdict"] == "Converges"

    rc, out2, _ = run(capsys, "--format", "json-lines", "eval", "[1;2]")
    assert out1 == out2

    rc, out, _ = run(capsys, "--format", "json-lines", "search", "table", "z22_03")
    assert rc == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 16 + 2 + 2
    for rec in recs[:16]:
        assert list(rec) == ["coords", "residuals", "value_decimal", "verdict"]
        assert rec["verdict"] == "match"
    for rec in recs[16:18]:
        assert list(rec) == ["check", "verdict"]
        assert rec["verdict"] == "ok"
    for rec in recs[18:]:
        assert list(rec) == ["note", "verdict"]
        assert rec["verdict"] == "note"


def test_search_table_json_lines_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(search, "_plane03_scan", lambda box: [])
    rc, out, _ = run(capsys, "--format", "json-lines", "search", "table", "z_03")
    assert rc == 1
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["verdict"] for r in recs] == ["match"] * 4 + ["fail", "note"]
    assert recs[4] == {"check": "box search agrees with the divisor reduction", "verdict": "fail"}


def test_printed_pcf_reparses(capsys):
    for s in ("[1;2]", "[442+312*w;-298532+211094*w,884+624*w]", "[;2,-1/2,1]"):
        _, out, _ = run(capsys, "eval", s)
        printed = out.splitlines()[0].split("pcf: ", 1)[1]
        assert Pcf.parse(printed) == Pcf.parse(s)


@pytest.mark.parametrize("n", [32, 80])
def test_eval_limit_of_a_tiny_positive_radicand(capsys, n):
    # [; u^n, 1] with u = sqrt2 - 1: the limit is (c + sqrt(c^2 + 4c))/2 for
    # c = u^n, and the radicand c^2 + 4c is tiny and positive, so enclosing
    # it at a fixed absolute precision dips below 0
    c = RingElem(-1, 1) ** n
    text = f"[;{c},1]"
    with mpmath.workdps(120):
        cv = mpmath.mpf(c.a) + mpmath.mpf(c.b) * mpmath.sqrt(2)
        limit = (cv + mpmath.sqrt(cv * cv + 4 * cv)) / 2
        rc, out, err = run(capsys, "eval", text)
        assert (rc, err) == (0, "")
        assert "verdict: Converges" in out and "convergents per digit" in out
        dec = out.split("decimal: ", 1)[1].split("\n", 1)[0]
        assert abs(mpmath.mpf(dec) - limit) <= mpmath.mpf(10) ** -50

        rc, out, err = run(capsys, "--format", "json-lines", "eval", text)
        assert (rc, err) == (0, "")
        assert json.loads(out)["value_decimal"] == dec


def test_parser_is_built_once_and_each_call_keeps_its_flags(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        rc, out, _ = run(capsys, "--format", "json-lines", "eval", "[1;2]")
        assert rc == 0
        sqrt2 = "1.41421356237309504880168872420969807856967187537695"
        assert json.loads(out)["value_decimal"] == sqrt2
        rc, out, _ = run(capsys, "--precision", "5", "eval", "[1;2]")
        assert rc == 0
        assert "decimal: 1.41421\n" in out
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()
