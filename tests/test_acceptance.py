"""Acceptance gate: the twelve headline checks, one pass/fail line each."""

import random
from fractions import Fraction

from oracles import check_classification_agreement, random_det_pm1_matrix

from pcflab.continuant import INF, Mat2
from pcflab.converge import ELLIPTIC, INEQ, LOXODROMIC, rate, verdict
from pcflab.pcf import Pcf, QuadPoly, e_matrix, e_matrix_continuant_form, extend_type, g_multiplier, quad_poly
from pcflab.ring import RingElem, norm, val2
from pcflab.search import (
    ALPHA2,
    TableName,
    ljunggren_oracle,
    load_table,
    reproduce_table,
    solve_e_curve,
)
from pcflab.skolem import (
    addax_check,
    aprime_z_table,
    context_l1,
    l2_scan,
    oryx_check,
    rst,
)
from pcflab.variety import (
    fp_conic_residual,
    fp_project,
    is_member,
    lift12_from_E,
    param03,
    reduce12_to_E,
    solve_small_type,
)

T2 = QuadPoly(1, 0, -2)
TSW = QuadPoly(RingElem(1, 0), RingElem(0, 0), -RingElem(2, 1))
W = RingElem(0, 1)


class criterion:
    """Prints one pass/fail line per criterion, then lets pytest see the failure."""

    def __init__(self, n):
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"criterion {self.n}: {'FAIL' if exc_type else 'PASS'}")
        return False


def in_bracket(iv, lo, hi):
    return Fraction(lo) < iv.lo and iv.hi < Fraction(hi)


def rand_pcf(rng):
    n = rng.randint(0, 4)
    k = rng.randint(1, 5)
    draw = lambda: Fraction(rng.randint(-6, 6), 2 if rng.random() < 0.2 else 1)
    return Pcf(tuple(draw() for _ in range(n)), tuple(draw() for _ in range(k)))


def test_criterion_01_convergence_verdicts():
    with criterion(1):
        v = verdict(Pcf.parse("[1;2]"))
        assert v.converges and v.value == W

        assert not verdict(Pcf.parse("[1;-1,2]")).converges

        v = verdict(Pcf.parse("[1;-2,2]"))
        assert v.converges

        v = verdict(Pcf.parse("[;2,-1/2,1]"))
        assert not v.converges and v.reason == INEQ
        assert v.pariah_index == 2 and v.pariah_limit == 0


def test_criterion_02_transfer_matrix_example():
    with criterion(2):
        P = Pcf.parse("[2;-2,4]")
        assert e_matrix(P) == Mat2(-3, -4, -2, -3)
        q = quad_poly(P)
        assert (q.A, q.B, q.C) == (-2, 0, 4)


def test_criterion_03_continuant_and_growth_identities():
    with criterion(3):
        rng = random.Random(33031)
        for _ in range(1000):
            P = rand_pcf(rng)
            E = e_matrix(P)
            assert e_matrix_continuant_form(P) == E
            for m in (2, 3, 4):
                F = e_matrix(extend_type(P, 0, m))
                G = g_multiplier(P.per, m)
                base = (E.e21, E.e22 - E.e11, -E.e12)
                grown = (F.e21, F.e22 - F.e11, -F.e12)
                assert grown == tuple(G * c for c in base)


def test_criterion_04_small_types():
    with criterion(4):
        s = solve_small_type(T2, (1, 1))
        assert set(s.points) == {(RingElem(1), RingElem(2)), (RingElem(-1), RingElem(-2))}
        assert solve_small_type(T2, (0, 1)).points == ()
        assert solve_small_type(TSW, (0, 1)).points == ()
        s = solve_small_type(T2, (0, 2))
        assert set(s.points) == {(RingElem(0), RingElem(0))}


def test_criterion_05_period_three_families():
    with criterion(5):
        assert reproduce_table(TableName.Z_03).match
        pts = load_table(TableName.Z_03)
        want = {(1, 1, 0), (-1, -1, 0), (3, -1, 2), (-3, 1, -2)}
        assert {p for p in pts} == {tuple(RingElem(c) for c in t) for t in want}

        assert reproduce_table(TableName.Z22_03).match
        assert len(load_table(TableName.Z22_03)) == 16

        assert reproduce_table(TableName.PCF_rinds).match
        rows = load_table(TableName.PCF_rinds)
        assert len(rows) == 8
        for row in rows:
            v = verdict(Pcf.parse(str(row)))
            assert v.converges and v.reason == LOXODROMIC
            assert v.value == ALPHA2

        for row in rows[-2:]:
            r = rate(Pcf.parse(str(row)))
            assert in_bracket(r.convergents_per_digit, 1650, 1652)
            assert in_bracket(r.eigen_abs, "1.0020935", "1.0020945")


def test_criterion_06_quartic_pair_oracle():
    with criterion(6):
        want = {(x, y) for x in (1, -1, 239, -239) for y in (1, -1, 13, -13)
                if x * x + 1 == 2 * y ** 4}
        assert set(ljunggren_oracle(1000)) == want


def test_criterion_07_period_one_families():
    with criterion(7):
        assert reproduce_table(TableName.Z_21).match
        pts = load_table(TableName.Z_21)
        assert all(p[0] in (RingElem(1), RingElem(-1)) for p in pts)

        rep = reproduce_table(TableName.Z22_21_empty)
        assert rep.match and not rep.expected
        labels = dict(rep.checks)
        assert labels["square residues mod 4 as frozen"]
        assert labels["reduced quartic residues mod 4 as frozen"]
        assert labels["residue sets disjoint"]
        assert "squares mod 4: 0, 1, 2, 3+2*w" in rep.notes
        assert "quartic values mod 4: w, 3+3*w" in rep.notes


def test_criterion_08_period_two_family_and_curve():
    with criterion(8):
        pts = solve_e_curve(RingElem(2, 1), kmax=20)
        assert len(pts) == 21
        assert len(pts) % 4 == 1
        assert set(pts) == set(load_table(TableName.Z22_12))
        for a, b in pts:
            if not a:
                continue
            y, x = lift12_from_E(a, b)
            assert reduce12_to_E(y, x) == (a, b)

        rows = load_table(TableName.PCF_pot)
        assert len(rows) == 10
        for row in rows:
            v = verdict(Pcf.parse(str(row)))
            assert v.converges and v.reason == LOXODROMIC
            assert v.value == ALPHA2

        r = rate(Pcf.parse(str(rows[-1])))
        assert in_bracket(r.convergents_per_digit, 549, 551)
        inv = type(r.eigen_abs)(1 / r.eigen_abs.hi, 1 / r.eigen_abs.lo)
        assert in_bracket(inv, "0.9958245", "0.9958255")


def test_criterion_09_two_adic_certificates():
    with criterion(9):
        expected_rst = [
            (1, 0, 1),
            (-4 - 4 * W, 4 + 2 * W, 4 + 2 * W),
            (104 + 72 * W, -64 - 48 * W, -56 - 40 * W),
            (-2080 - 1472 * W, 1344 + 944 * W, 1152 + 816 * W),
            (42176 + 29824 * W, -27136 - 19200 * W, -23360 - 16512 * W),
        ]
        for n, row in enumerate(expected_rst):
            assert rst(n) == row

        rows = aprime_z_table()
        assert [r.nz for r in rows] == [1, 1, -31, 97, 289]
        assert [r.k_pair for r in rows] == [(0, 1), (2, -1), (-2, 3), (4, -3), (-4, 5)]

        c = context_l1()
        u1, v = c.unit, c.v
        assert u1.x ** 2 - c.theta * u1.y ** 2 == 1
        assert (1 + W) - v == -(c.alpha * u1)
        one_minus = type(u1)(RingElem(1) - u1.x, -u1.y, c.theta)
        rel = one_minus.x ** 2 - c.theta * one_minus.y ** 2
        assert norm(rel) == 8
        assert val2(RingElem(1) + v.x + 0) is not None  # v has no rational part
        assert v.x == 0

        rep = addax_check(16)
        assert rep.all_pass
        assert all(row.v2t == Fraction(3 * row.n, 2) for row in rep.rows)

        o = oryx_check(30)
        assert o.all_pass and o.pairs_checked == 900 and not o.violations

        assert l2_scan(20) == [0, 1]


def produced_points():
    """Every variety point exercised across the suite, with its target and period."""
    out = []
    for p in load_table(TableName.Z_03):
        out.append((T2, 3, Pcf((), p)))
    for p in load_table(TableName.Z22_03):
        out.append((TSW, 3, Pcf((), p)))
    for p in load_table(TableName.Z_21):
        out.append((T2, 1, Pcf(p[:2], p[2:])))
    for row in load_table(TableName.PCF_rinds):
        P = Pcf.parse(str(row))
        out.append((TSW, 3, Pcf((), tuple(P.per))))
    for row in load_table(TableName.PCF_pot):
        P = Pcf.parse(str(row))
        out.append((TSW, 2, Pcf(P.pre, P.per)))
    rng = random.Random(10033)
    for _ in range(60):
        t = Fraction(rng.randint(-25, 25), rng.randint(1, 7))
        got = param03(T2, RingElem(2), RingElem(-2), t)
        if got is not None:
            out.append((T2, 3, Pcf((), got)))
    return out


def test_criterion_10_conic_projection_full_coverage():
    with criterion(10):
        pts = produced_points()
        assert len(pts) > 80
        for target, k, vp in pts:
            assert is_member(target, vp)
            xy = fp_project(target, vp)
            assert fp_conic_residual(target, k, xy) == 0


def test_criterion_11_classification_vs_orbit():
    with criterion(11):
        rng = random.Random(40047)
        for _ in range(500):
            A = random_det_pm1_matrix(rng)
            z = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            check_classification_agreement(A, z, steps=100, tol=Fraction(1, 10 ** 20))


def test_criterion_12_tables_are_one_answer():
    with criterion(12):
        rep = reproduce_table(TableName.Z22_12)
        assert rep.match
        checks = dict(rep.checks)
        assert checks["the twenty points with nonzero first coordinate are five full sign-and-twist orbits"]
        assert checks["the correspondence maps the sixteen z22_03 points onto the eight norm 2 points and back"]
