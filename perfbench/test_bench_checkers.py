"""The benchmark's checkers accept real outputs and reject corrupted ones.

Run with ``python3 -m pytest perfbench``.  Real outputs come from pcflab;
each corruption is one wrong digit, one perturbed coordinate or one flipped
verdict, and the checker must report it.
"""

import sys
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checkers  # noqa: E402
import workloads  # noqa: E402
from pcflab import cli, converge, intervals, pcf, search, skolem  # noqa: E402

LIB = type("Lib", (), dict(cli=cli, converge=converge, intervals=intervals, pcf=pcf, search=search, skolem=skolem))


def _flip_digit(text, pos):
    """``text`` with the digit at ``pos`` replaced by another digit."""
    d = text[pos]
    return text[:pos] + ("1" if d != "1" else "2") + text[pos + 1:]


FixtureReport = namedtuple("FixtureReport", "match found")


@pytest.fixture(scope="module")
def tables_pass():
    # the two box-search tables take seconds: their fixture points stand in
    slow = ("z_03", "z_21")
    steps = [s for s in workloads.TABLE_STEPS if s not in slow]
    out = workloads.run_tables(LIB, steps)
    out.update({name: FixtureReport(True, search.load_table(name)) for name in slow})
    return workloads.plain_tables(out)


def test_tables_checker_accepts_a_real_pass(tables_pass):
    assert checkers.check_tables_pass(tables_pass) == []


@pytest.mark.parametrize("name", ["z_03", "z_21", "z22_12", "smalltypes", "pcf_rinds", "pcf_pot"])
def test_tables_checker_rejects_one_perturbed_coordinate(tables_pass, name):
    found = tables_pass["tables"][name]["found"]
    entry = found[0]
    if entry[0] == "point":
        coords = list(entry[1])
        coords[-1] = (coords[-1][0] + 1, coords[-1][1])
        bad = ("point", tuple(coords))
    else:
        per = list(entry[2])
        per[0] = (per[0][0], per[0][1] + 1)
        bad = ("pcf", entry[1], tuple(per))
    tables_pass["tables"][name]["found"] = [bad] + found[1:]
    try:
        problems = checkers.check_tables_pass(tables_pass)
    finally:
        tables_pass["tables"][name]["found"] = found
    assert problems and all(p.startswith(name) for p in problems)


def test_tables_checker_rejects_wrong_skolem_reports(tables_pass):
    tables_pass["oryx"]["pairs_checked"] -= 1
    tables_pass["l2"]["hits"].append(2)
    try:
        problems = checkers.check_tables_pass(tables_pass)
    finally:
        tables_pass["oryx"]["pairs_checked"] += 1
        tables_pass["l2"]["hits"].pop()
    assert {p.split(":")[0] for p in problems} == {"oryx", "l2"}


EVAL_CASES = [
    ("[1;2]", [(1, 0)], [(2, 0)]),
    ("[;-4-w,-4,5]", [], [(-4, -1), (-4, 0), (5, 0)]),
    ("[1;-1,2]", [(1, 0)], [(-1, 0), (2, 0)]),
    ("[;2,-1/2,1]", [], [(2, 0), (Fraction(-1, 2), 0), (1, 0)]),
    ("[1;-2,2]", [(1, 0)], [(-2, 0), (2, 0)]),
]


@pytest.mark.parametrize("text,pre,per", EVAL_CASES)
def test_eval_checker_accepts_real_output(text, pre, per):
    rc, out = workloads.run_eval(LIB, (text, pre, per))
    assert checkers.check_eval(text, pre, per, rc, out) == []


def test_eval_checker_rejects_one_wrong_digit():
    text, pre, per = EVAL_CASES[1]
    rc, out = workloads.run_eval(LIB, (text, pre, per))
    line = next(ln for ln in out.splitlines() if ln.startswith("decimal: "))
    bad = out.replace(line, _flip_digit(line, len(line) - 20))
    assert checkers.check_eval(text, pre, per, rc, bad)


def test_eval_checker_rejects_a_flipped_verdict():
    text, pre, per = EVAL_CASES[0]
    rc, out = workloads.run_eval(LIB, (text, pre, per))
    flipped = out.replace("verdict: Converges", "verdict: Diverges(Elliptic)")
    assert checkers.check_eval(text, pre, per, rc, flipped)
    assert checkers.check_eval(text, pre, per, 1, out)
    text, pre, per = EVAL_CASES[2]
    rc, out = workloads.run_eval(LIB, (text, pre, per))
    assert checkers.check_eval(text, pre, per, rc, out.replace("Diverges(Elliptic)", "Converges"))


def test_precision_checker_accepts_real_output_and_rejects_corruption():
    item = min(workloads.precision_round(1, 0), key=lambda it: it[3])
    text, pre, per, digits = item
    dec, r = workloads.run_precision(LIB, item)
    cpd, eig = (r.convergents_per_digit.lo, r.convergents_per_digit.hi), (r.eigen_abs.lo, r.eigen_abs.hi)
    args = (text, pre, per, digits)
    rd = workloads.RATE_DIGITS
    assert checkers.check_precision(*args, dec, cpd, eig, rd) == []
    assert checkers.check_precision(*args, _flip_digit(dec, len(dec) - digits // 2), cpd, eig, rd)
    shifted = (cpd[0] + 2 * (cpd[1] - cpd[0]), cpd[1] + 2 * (cpd[1] - cpd[0]))
    assert checkers.check_precision(*args, dec, shifted, eig, rd)
    assert checkers.check_precision(*args, dec, cpd, eig, rd + 40)


def test_rounds_repeat_per_seed_and_keep_their_make_up():
    assert workloads.eval_round(7, 3) == workloads.eval_round(7, 3)
    assert workloads.eval_round(7, 3) != workloads.eval_round(8, 3)
    kinds = Counter(checkers.expected_eval(pre, per)["verdict"] for _, pre, per in workloads.eval_round(7, 3))
    assert kinds == {"Converges": 90, "Diverges(Elliptic)": 5, "Diverges(Ineq)": 5}
    assert Counter(it[3] for it in workloads.precision_round(7, 3)) == {
        d: 4 for d in workloads.PRECISION_DIGITS
    }
