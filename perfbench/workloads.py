"""The three workloads: seeded inputs, one operation each, and plain outputs.

Inputs are plain data made here from the seed, in whole rounds of a fixed
make-up, so every run measures the same mix of work whatever the seed.  The
program only sees the generated inputs.  Operations call pcflab through the
module namespace passed in as ``lib`` (so a traced run sees them); the
``check_*`` functions turn results into pcflab-free data for ``checkers``.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import namedtuple
from fractions import Fraction

import checkers
from zsqrt2 import add, conjugated_matrix, inv, is_zero, may_be_square, mul, neg, sign, sub, trace_det

EVAL_DIGITS = 50  # the CLI default
# pcflab prints at most 4300 digits: Python's int-to-str limit applies beyond
PRECISION_DIGITS = (1000, 2000, 3000, 4000)
RATE_DIGITS = 40
ORYX_JMAX, ADDAX_NMAX, L2_KMAX = 30, 16, 20

# ---------------------------------------------------------------------------
# element text in the grammar pcflab parses


def fmt(x) -> str:
    a, b = Fraction(x[0]), Fraction(x[1])
    if b == 0:
        return str(a)
    wpart = "w" if abs(b) == 1 else f"{abs(b)}*w"
    if a == 0:
        return wpart if b > 0 else "-" + wpart
    return f"{a}{'+' if b > 0 else '-'}{wpart}"


def pcf_text(pre, per) -> str:
    return "[" + ",".join(map(fmt, pre)) + ";" + ",".join(map(fmt, per)) + "]"


# ---------------------------------------------------------------------------
# input generation


def _coef(rng, zw):
    return (rng.randint(-5, 5), rng.randint(-3, 3) if zw else 0)


def _tail_coef(rng, zw):
    # |c| >= 2 in every period slot: the Sleszynski-Pringsheim condition, so
    # the PCF converges whatever its prefix
    while True:
        c = (rng.randint(-5, 5), rng.choice((-3, -2, -1, 1, 2, 3)) if zw else 0)
        if sign(sub(c, (2, 0))) >= 0 or sign(add(c, (2, 0))) <= 0:
            return c


def _convergent(rng, n, k, zw):
    while True:
        per = [_tail_coef(rng, zw) for _ in range(k)]
        # a1 a2 = -4 is the tangent case, which skips the rate
        if k == 2 and mul(per[0], per[1]) == (-4, 0):
            continue
        return [_coef(rng, zw) for _ in range(n)], per


def _elliptic(rng):
    # period (a, -c/a) with 0 < c < 4: trace 2 - c inside (-2, 2), a rotation
    a = rng.choice(((1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (-1, -1)))
    c = rng.choice(((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1), (2, 1)))
    pre = [_coef(rng, rng.random() < 0.5) for _ in range(rng.randint(0, 2))]
    return pre, [a, neg(mul(c, inv(a)))]


def _ineq(rng):
    # a cyclic shift of the period is (c, -1/c, a) with |c| > 1: lower-left
    # entry 0 and lower-right entry c
    c = rng.choice(((2, 0), (-2, 0), (3, 0), (-3, 0), (1, 1), (-1, -1), (2, 1), (0, 1)))
    zw = rng.random() < 0.5
    per = [_coef(rng, zw), c, neg(inv(c))]
    r = rng.randrange(3)
    pre = [_coef(rng, zw) for _ in range(rng.randint(0, 2))]
    return pre, per[r:] + per[:r]


def eval_round(seed, index):
    """100 PCFs: 5 per type (N, k) <= (2, 3) and ring, 5 elliptic, 5 Ineq."""
    rng = random.Random(f"eval:{seed}:{index}")
    items = [
        _convergent(rng, n, k, zw)
        for n in range(3)
        for k in range(1, 4)
        for zw in (False, True)
        for _ in range(5)
    ]
    items += [_elliptic(rng) for _ in range(5)] + [_ineq(rng) for _ in range(5)]
    rng.shuffle(items)
    return [(pcf_text(pre, per), pre, per) for pre, per in items]


def _irrational(rng, zw):
    while True:
        pre, per = _convergent(rng, rng.randint(0, 1), rng.randint(1, 3), zw)
        m = conjugated_matrix(pre, per)
        tr, det = trace_det(m)
        if not is_zero(m[2]) and not may_be_square(sub(mul(tr, tr), mul((4, 0), det))):
            return pre, per


def precision_round(seed, index):
    """16 certifications: 2 per digit count and ring."""
    rng = random.Random(f"precision:{seed}:{index}")
    items = [
        _irrational(rng, zw) + (digits,)
        for digits in PRECISION_DIGITS
        for zw in (False, True)
        for _ in range(2)
    ]
    rng.shuffle(items)
    return [(pcf_text(pre, per), pre, per, digits) for pre, per, digits in items]


TABLE_STEPS = checkers.TABLE_NAMES + ("oryx", "addax", "l2", "aprime")


def tables_round(seed, index):
    """One full certification pass, its thirteen steps in a seeded order."""
    order = list(TABLE_STEPS)
    random.Random(f"tables:{seed}:{index}").shuffle(order)
    return [tuple(order)]


# ---------------------------------------------------------------------------
# operations


def run_tables(lib, order):
    out = {}
    for step in order:
        if step == "oryx":
            out[step] = lib.skolem.oryx_check(ORYX_JMAX)
        elif step == "addax":
            out[step] = lib.skolem.addax_check(ADDAX_NMAX)
        elif step == "l2":
            out[step] = lib.skolem.l2_scan(L2_KMAX)
        elif step == "aprime":
            out[step] = lib.skolem.aprime_z_table()
        else:
            out[step] = lib.search.reproduce_table(step)
    return out


def run_eval(lib, item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(["eval", item[0]])
    return rc, out.getvalue()


def run_precision(lib, item):
    text, _, _, digits = item
    P = lib.pcf.Pcf.parse(text)
    dec = lib.intervals.decimal_str(lib.converge.verdict(P).value, digits)
    return dec, lib.converge.rate(P, digits=RATE_DIGITS)


# ---------------------------------------------------------------------------
# plain outputs and checks


def _pair(c):
    return (c.a, c.b)


def _entry(e):
    if isinstance(e, tuple):
        return ("point", tuple(map(_pair, e)))
    return ("pcf", tuple(map(_pair, e.pre)), tuple(map(_pair, e.per)))


def plain_tables(out):
    oryx, addax = out["oryx"], out["addax"]
    return {
        "tables": {
            name: {"match": out[name].match, "found": [_entry(e) for e in out[name].found]}
            for name in checkers.TABLE_NAMES
        },
        "oryx": {"jmax": oryx.jmax, "pairs_checked": oryx.pairs_checked, "violations": len(oryx.violations)},
        "addax": {"nmax": addax.nmax, "rows": [(r.n, r.v2r, r.v2s, r.v2t) for r in addax.rows]},
        "l2": {"kmax": L2_KMAX, "hits": list(out["l2"])},
        "aprime": [(r.k_pair, _pair(r.aprime), _pair(r.z), r.nz) for r in out["aprime"]],
    }


def check_tables(item, out):
    return checkers.check_tables_pass(plain_tables(out))


def check_eval(item, out):
    text, pre, per = item
    return checkers.check_eval(text, pre, per, out[0], out[1], EVAL_DIGITS)


def check_precision(item, out):
    text, pre, per, digits = item
    dec, r = out
    cpd, eig = r.convergents_per_digit, r.eigen_abs
    return checkers.check_precision(
        text, pre, per, digits, dec, (cpd.lo, cpd.hi), (eig.lo, eig.hi), RATE_DIGITS
    )


Workload = namedtuple("Workload", "name make_round run check")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables", tables_round, run_tables, check_tables),
        Workload("eval_stream", eval_round, run_eval, check_eval),
        Workload("precision", precision_round, run_precision, check_precision),
    )
}
