"""Independent checks of every output the benchmark collects.

Nothing here imports pcflab, and nothing compares against stored copies of
its output.  Table points are re-checked on their defining equations in
exact Z[sqrt 2] arithmetic (``zsqrt2``), the 2-adic reports are re-derived
in the two extensions, CLI evaluations are re-derived with mpmath at 80
digits, and high-precision digits with the stdlib ``decimal`` module.  Each
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

from zsqrt2 import (
    ONE,
    W,
    ZERO,
    add,
    conjugated_matrix,
    e_curve_defect,
    ext_mul,
    ext_pow,
    family_residuals,
    is_zero,
    mul,
    neg,
    norm,
    sign,
    sub,
    trace_det,
    val2,
    word_matrix,
)

# x^2 - 2 and x^2 - (2 + sqrt 2), as (A, B, C)
TARGET_SQRT2 = (ONE, ZERO, (-2, 0))
TARGET_ALPHA2 = (ONE, ZERO, (-2, -1))

# table name -> (number of coordinates, defects that vanish on a point)
POINT_RULES = {
    "z_03": (3, lambda c: family_residuals(TARGET_SQRT2, (), c)),
    "z22_03": (3, lambda c: family_residuals(TARGET_ALPHA2, (), c)),
    "z_21": (3, lambda c: family_residuals(TARGET_SQRT2, c[:2], c[2:])),
    "smalltypes": (2, lambda c: family_residuals(TARGET_SQRT2, c[:1], c[1:])),
    "z_12": (2, lambda c: (e_curve_defect((2, 0), *c),)),
    "z22_12": (2, lambda c: (e_curve_defect((2, 1), *c),)),
    "z22_21_empty": (0, None),
}
# table name -> type (N, k) of the PCFs converging to +sqrt(2 + sqrt 2)
PCF_RULES = {"pcf_rinds": (0, 3), "pcf_pot": (1, 2)}
TABLE_NAMES = tuple(POINT_RULES) + tuple(PCF_RULES)

# first extension: v^2 = u = 1 + sqrt 2, unit -u + sqrt(2) v, base point u + v
L1_THETA = (1, 1)
L1_UNIT = (neg(L1_THETA), W)
L1_ALPHA = (L1_THETA, ONE)
# second extension: v^2 = sqrt 2, unit (3 + 2 sqrt 2) + (2 + 2 sqrt 2) v
L2_THETA = W
L2_UNIT = ((3, 2), (2, 2))
L2_ALPHA = ((2, 1), (-1, -1))


def _mpf(q):
    import mpmath

    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _real(x):
    """mpmath value of ``a + b*sqrt(2)`` at the current precision."""
    import mpmath

    return _mpf(x[0]) + _mpf(x[1]) * mpmath.sqrt(2)


def _attracting_fixed_point(m):
    """(z, |eigenvalue|) of the fixed point that attracts under ``m``; z is None at infinity."""
    e11, e12, e21, e22 = m
    if is_zero(e21):
        # fixed points e12 / (e22 - e11) and infinity, with eigenvalues e22 and e11
        pts = [(None, _real(e11))]
        if not is_zero(sub(e22, e11)):
            pts.append((_real(e12) / _real(sub(e22, e11)), _real(e22)))
    else:
        import mpmath

        tr, det = trace_det(m)
        root = mpmath.sqrt(_real(sub(mul(tr, tr), mul((4, 0), det))))
        pts = []
        for s in (1, -1):
            z = (_real(sub(e11, e22)) + s * root) / (2 * _real(e21))
            pts.append((z, _real(e21) * z + _real(e22)))
    for z, lam in pts:
        if abs(lam) > 1:
            return z, abs(lam)
    raise ValueError("no attracting fixed point")


# ---------------------------------------------------------------------------
# tables


def _l1_addax_rows(nmax):
    sq = ext_mul(L1_UNIT, L1_UNIT, L1_THETA)
    base = (sub(ONE, sq[0]), neg(sq[1]))
    rows = []
    for n in range(nmax + 1):
        r, s = ext_pow(base, n, L1_THETA)
        t = add(r, mul(L1_THETA, s))
        rows.append((n, val2(r), val2(s), val2(t)))
    return rows


def _l2_hits(kmax):
    hits = []
    for k in range(-kmax, kmax + 1):
        y = ext_mul(L2_ALPHA, ext_pow(L2_UNIT, k, L2_THETA), L2_THETA)[1]
        if norm(y) in (1, -1):
            hits.append(k)
    return hits


def _aprime_row(k):
    x, y = ext_mul(L1_ALPHA, ext_pow(L1_UNIT, k, L1_THETA), L1_THETA)
    return ((k, 1 - k), x, y, norm(y))


def _check_point(name, entry):
    arity, rule = POINT_RULES[name]
    kind, coords = entry[0], entry[1]
    if kind != "point" or len(coords) != arity:
        return [f"{name}: malformed entry {entry!r}"]
    if any(not is_zero(r) for r in rule(coords)):
        return [f"{name}: {coords!r} is off its defining equations"]
    return []


def _check_pcf(name, entry):
    import mpmath

    kind, pre, per = entry
    if kind != "pcf" or (len(pre), len(per)) != PCF_RULES[name]:
        return [f"{name}: malformed entry {entry!r}"]
    if any(not is_zero(r) for r in family_residuals(TARGET_ALPHA2, pre, per)):
        return [f"{name}: [{pre!r}; {per!r}] is outside the sqrt(2+sqrt2) family"]
    with mpmath.workdps(50):
        e11, e12, e21, e22 = conjugated_matrix(pre, per)
        alpha = mpmath.sqrt(2 + mpmath.sqrt(2))
        if not abs(_real(e21) * alpha + _real(e22)) > 1:
            return [f"{name}: [{pre!r}; {per!r}] does not converge to +sqrt(2+sqrt2)"]
    return []


def check_tables_pass(out) -> list:
    """Problems in one certification pass, given as plain data (see ``workloads``)."""
    problems = []
    for name in TABLE_NAMES:
        rep = out["tables"].get(name)
        if rep is None:
            problems.append(f"{name}: missing from the pass")
            continue
        if not rep["match"]:
            problems.append(f"{name}: report does not match the fixture")
        if name == "z22_21_empty" and rep["found"]:
            problems.append(f"{name}: found points in an empty table")
        check = _check_pcf if name in PCF_RULES else _check_point
        for entry in rep["found"]:
            problems += check(name, entry)
    oryx = out["oryx"]
    span = range(-oryx["jmax"], oryx["jmax"] + 1)
    evens = sum(1 for j in span if j % 2 == 0)
    pairs = comb(evens, 2) + comb(len(span) - evens, 2)
    if oryx["pairs_checked"] != pairs or oryx["violations"]:
        problems.append(f"oryx: {oryx!r}, expected {pairs} pairs and no violations")
    addax = out["addax"]
    rows = _l1_addax_rows(addax["nmax"])
    if addax["rows"] != rows:
        problems.append("addax: valuations differ from the re-derivation")
    for n, vr, vs, vt in rows:
        floor = Fraction(3 * n, 2)
        if not (vr >= floor and vs >= floor and vt == floor):
            problems.append(f"addax: floor 3n/2 broken at n={n}")
    l2 = out["l2"]
    if l2["hits"] != _l2_hits(l2["kmax"]):
        problems.append(f"l2: hits {l2['hits']!r} differ from the re-derivation")
    for row in out["aprime"]:
        if row != _aprime_row(row[0][0]):
            problems.append(f"aprime: row {row!r} differs from the re-derivation")
    return problems


# ---------------------------------------------------------------------------
# CLI evaluations


def _finite_cf_value(word):
    """Value of a finite continued fraction word; None at infinity."""
    if not word:
        return None
    m = word_matrix(word)
    if is_zero(m[2]):
        return None
    return _real(m[0]) / _real(m[2])


def expected_eval(pre, per) -> dict:
    """What ``pcflab eval`` should report, decided exactly and valued with mpmath.

    Class decisions are exact signs in Q(sqrt 2); limits, pariah limits and
    eigenvalue moduli are mpmath numbers at the caller's precision.
    """
    import mpmath

    m = conjugated_matrix(pre, per)
    e11, e12, e21, e22 = m
    if is_zero(e12) and is_zero(e21) and e11 == e22:
        return {"verdict": "Diverges(IdentityMultiple)"}
    tr, det = trace_det(m)
    disc = sub(mul(tr, tr), mul((4, 0), det))
    s = sign(disc)
    if s < 0 or (det == (-1, 0) and is_zero(tr)):
        return {"verdict": "Diverges(Elliptic)"}
    if s == 0:
        value = None if is_zero(e21) else _real(sub(e11, e22)) / (2 * _real(e21))
        return {"verdict": "Converges", "value": value, "parabolic": True}
    k = len(per)
    for j in range(k):
        r = word_matrix(per[j:] + per[:j])
        if is_zero(r[2]) and sign(sub(mul(r[3], r[3]), ONE)) > 0:
            return {
                "verdict": "Diverges(Ineq)",
                "pariah_index": j,
                "pariah_value": _finite_cf_value(list(pre) + list(per[:j])),
            }
    z, lam = _attracting_fixed_point(m)
    return {
        "verdict": "Converges",
        "value": z,
        "parabolic": False,
        "eigen_abs": lam,
        "per_digit": k / (2 * mpmath.log10(lam)),
    }


_RATE_RE = re.compile(
    r"~(?P<cpd>\S+) convergents per digit \(\|eigenvalue\| ~ (?P<eig>\S+)\)$"
)


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(": ")
        out.setdefault(key, val)
    return out


def _digits_problem(label, printed, value, digits):
    import mpmath

    if printed is None:
        return [f"{label}: decimal missing"]
    if len(printed.partition(".")[2]) != digits:
        return [f"{label}: {printed!r} does not carry {digits} digits"]
    if abs(mpmath.mpf(printed) - value) > mpmath.mpf(10) ** -digits * (0.5 + 1e-12):
        return [f"{label}: {printed!r} is not the value rounded to {digits} digits"]
    return []


def _close(printed, value, rel=1e-5):
    try:
        got = float(printed)
    except ValueError:
        return False
    return abs(got - float(value)) <= rel * abs(float(value))


def check_eval(text, pre, per, rc, out, digits=50) -> list:
    """Problems in one ``pcflab eval`` run: exit code, verdict, digits and rate."""
    import mpmath

    with mpmath.workdps(80):
        want = expected_eval(pre, per)
        f = _fields(out)
        label = f"eval {text}"
        problems = []
        if f.get("pcf") != text:
            problems.append(f"{label}: echoed as {f.get('pcf')!r}")
        if f.get("verdict") != want["verdict"]:
            problems.append(f"{label}: verdict {f.get('verdict')!r}, expected {want['verdict']!r}")
            return problems
        converges = want["verdict"] == "Converges"
        if rc != (0 if converges else 1):
            problems.append(f"{label}: exit code {rc}")
        if converges:
            if want["value"] is None:
                if f.get("value") != "inf" or "decimal" in f:
                    problems.append(f"{label}: expected an infinite value")
            else:
                problems += _digits_problem(label, f.get("decimal"), want["value"], digits)
            rate = f.get("rate", "")
            if want["parabolic"]:
                if rate != "sub-exponential (tangent case)":
                    problems.append(f"{label}: rate {rate!r} for a tangent case")
            else:
                m = _RATE_RE.fullmatch(rate)
                if not (m and _close(m["cpd"], want["per_digit"]) and _close(m["eig"], want["eigen_abs"])):
                    problems.append(f"{label}: rate {rate!r}")
        elif "pariah_index" in want:
            if f.get("pariah index") != str(want["pariah_index"]):
                problems.append(f"{label}: pariah index {f.get('pariah index')!r}")
            if want["pariah_value"] is None:
                if f.get("pariah limit") != "inf":
                    problems.append(f"{label}: expected an infinite pariah limit")
            else:
                problems += _digits_problem(
                    label + " pariah", f.get("pariah limit decimal"), want["pariah_value"], digits
                )
        return problems


# ---------------------------------------------------------------------------
# high-precision certification


def _dec(x, two):
    return (
        Decimal(Fraction(x[0]).numerator) / Fraction(x[0]).denominator
        + Decimal(Fraction(x[1]).numerator) / Fraction(x[1]).denominator * two
    )


def decimal_limit(pre, per, digits):
    """Attracting fixed point of the conjugated matrix with ``decimal`` at ``digits + 25`` digits."""
    e11, e12, e21, e22 = m = conjugated_matrix(pre, per)
    tr, det = trace_det(m)
    disc = sub(mul(tr, tr), mul((4, 0), det))
    with localcontext() as ctx:
        ctx.prec = digits + 25
        two = Decimal(2).sqrt()
        root = _dec(disc, two).sqrt()
        c21, c22 = _dec(e21, two), _dec(e22, two)
        for s in (1, -1):
            z = (_dec(sub(e11, e22), two) + s * root) / (2 * c21)
            if abs(c21 * z + c22) > 1:
                return +z
    raise ValueError("no attracting fixed point")


def check_precision(text, pre, per, digits, printed, per_digit, eigen_abs, rate_digits) -> list:
    """Problems in one certification: the digits, and the rate enclosures.

    ``per_digit`` and ``eigen_abs`` are (lo, hi) Fraction pairs; each must
    contain the mpmath value and be narrower than ``10**-rate_digits``.
    """
    import mpmath

    label = f"precision {text} @{digits}"
    problems = []
    if len(printed.partition(".")[2]) != digits:
        problems.append(f"{label}: wrong number of digits")
    z = decimal_limit(pre, per, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 25
        slack = Decimal(5) * Decimal(10) ** -(digits + 1) + Decimal(10) ** -(digits + 15)
        if abs(Decimal(printed) - z) > slack:
            problems.append(f"{label}: digits are not the rounded limit")
    with mpmath.workdps(rate_digits + 30):
        _, lam = _attracting_fixed_point(conjugated_matrix(pre, per))
        want = {"per_digit": len(per) / (2 * mpmath.log10(lam)), "eigen_abs": lam}
        for key, (lo, hi) in (("per_digit", per_digit), ("eigen_abs", eigen_abs)):
            if not _mpf(lo) <= want[key] <= _mpf(hi):
                problems.append(f"{label}: {key} enclosure misses {want[key]}")
            if not hi - lo < Fraction(1, 10 ** rate_digits):
                problems.append(f"{label}: {key} enclosure wider than 1e-{rate_digits}")
    return problems
