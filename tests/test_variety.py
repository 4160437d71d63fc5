"""Solution families: residuals, projections, parametrization, curve models."""

import random
from fractions import Fraction

import pytest

from pcflab.continuant import INF
from pcflab.pcf import Pcf, QuadPoly
from pcflab.ring import RingElem, W, parse_elem
from pcflab.search import load_table
from pcflab.variety import (
    POINTS_X3_MINUS_4X,
    POINTS_X3_MINUS_X,
    POINTS_X_X2_XM1,
    corr03_12,
    corr12_03,
    curve12_point,
    curve12_residual,
    curve21_quartic,
    curve21_residual,
    curve_x3_minus_4x,
    curve_x3_minus_x,
    curve_x_x2_xm1,
    e_curve_residual,
    family_orbit,
    fp_conic_residual,
    fp_project,
    is_member,
    lift03,
    lift12_from_E,
    lift21,
    param03,
    param03_sqrt2,
    pcf_of_e_point,
    plane03_residual,
    plane21_residual,
    reduce12_to_E,
    solve_small_type,
    variety_residuals,
    verify_curve_points,
    vnk_residuals,
)

U = RingElem(1, 1)
T2 = QuadPoly(1, 0, -2)
TSW = QuadPoly(RingElem(1, 0), RingElem(0, 0), -RingElem(2, 1))

ROWS_03 = [
    ("3-w", "1+w", "3-2*w"),
    ("1+w", "-1-w", "1"),
    ("1+w", "-1+w", "-1"),
    ("3+3*w", "1-w", "1+2*w"),
    ("57-39*w", "239+169*w", "-73+52*w"),
    ("-421+299*w", "-239-169*w", "-551+390*w"),
    ("203+143*w", "-239+169*w", "-109-78*w"),
    ("681+481*w", "239-169*w", "369+260*w"),
]


def sixteen_points():
    out = []
    for row in ROWS_03:
        t = tuple(parse_elem(s) for s in row)
        out.append(t)
        out.append(tuple(-c for c in t))
    return out


def test_z03_integer_solutions():
    for p in [(1, 1, 0), (-1, -1, 0), (3, -1, 2), (-3, 1, -2)]:
        assert not any(variety_residuals(T2, Pcf((), p)))
    assert is_member(T2, Pcf((), (1, 1, 0)))
    assert not is_member(T2, Pcf((), (1, 1, 1)))


def test_z22_03_sixteen_members():
    pts = sixteen_points()
    assert len(set(pts)) == 16
    for p in pts:
        assert is_member(TSW, Pcf((), p))


def test_plane_model_and_lift():
    for p in sixteen_points():
        assert not plane03_residual(TSW, p[1], p[2])
        assert lift03(TSW, p[1], p[2]) == p[0]


def test_plane21_model_and_lift():
    pts = load_table("z_21")
    assert len(pts) == 4
    for y1, y2, x1 in pts:
        assert not plane21_residual(T2, y1, y2)
        assert lift21(T2, y1, y2) == x1
    assert plane21_residual(T2, 2, 0)
    with pytest.raises(ZeroDivisionError):
        lift21(QuadPoly(1, 0, -1), 1, RingElem(-1) / 2)


def test_fp_projection_conic():
    fp = fp_project(T2, Pcf((), (1, 1, 0)))
    assert fp == (RingElem(1), RingElem(1))
    assert not fp_conic_residual(T2, 3, fp)
    for p in sixteen_points():
        xy = fp_project(TSW, Pcf((), p))
        assert not fp_conic_residual(TSW, 3, xy)
    with pytest.raises(ValueError):
        fp_project(T2, Pcf((), (1, 1, 1)))


def test_small_types():
    s = solve_small_type(T2, (1, 1))
    assert s.rational
    assert set(s.points) == {(RingElem(1), RingElem(2)), (RingElem(-1), RingElem(-2))}

    assert solve_small_type(T2, (0, 1)).points == ()
    assert solve_small_type(TSW, (0, 1)).points == ()

    s = solve_small_type(T2, (0, 2))
    assert set(s.points) == {(RingElem(0), RingElem(0))}
    assert not s.degenerate

    s = solve_small_type(TSW, (1, 1))
    assert not s.rational
    assert len(s.points) == 2


def test_param03_sqrt2_labels():
    assert param03_sqrt2(1) == (RingElem(3), RingElem(-1), RingElem(2))
    assert param03_sqrt2(2) == (RingElem(-3), RingElem(1), RingElem(-2))
    assert param03_sqrt2(0) == (RingElem(1), RingElem(1), RingElem(0))
    assert param03_sqrt2(INF) == (RingElem(-1), RingElem(-1), RingElem(0))


def test_param03_members():
    rng = random.Random(61)
    produced = 0
    for _ in range(120):
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        got = param03(T2, RingElem(2), RingElem(-2), t)
        if got is None:
            continue
        assert is_member(T2, Pcf((), got))
        produced += 1
    assert produced > 90


def test_z21_quartic_model():
    pts = [(1, 0, -2), (-1, -2, -2), (1, 2, 2), (-1, 0, 2)]
    for p in pts:
        assert is_member(T2, Pcf(p[:2], p[2:]))
        assert not any(curve21_residual(T2, p))
    assert curve21_quartic(T2, RingElem(1)) == RingElem(4)
    assert curve21_quartic(T2, RingElem(-1)) == RingElem(4)


def test_curve12_and_e_reduction():
    p = curve12_point(TSW, U)
    assert p == (U, RingElem(-2), RingElem(2, 2))
    assert not curve12_residual(TSW, p[0], p[1])
    ab = reduce12_to_E(p[0], p[1])
    assert ab == (RingElem(-1), -U)
    assert lift12_from_E(*ab) == (U, RingElem(-2))
    assert not e_curve_residual(RingElem(2, 1), *ab)
    P = pcf_of_e_point(*ab)
    assert P.type_nk == (1, 2)
    assert P.pre == (ab[0] * ab[1],)


def test_family_orbit():
    orb = family_orbit(U, RingElem(-2, 0))
    assert len(set(orb)) == 4
    for y, x in orb:
        assert not curve12_residual(TSW, y, x)
    assert (RingElem(-1, 0), RingElem(2, -2)) in orb


def test_orbit_transport_to_e_curve():
    rng = random.Random(62)
    pts = [(RingElem(-1), -U), (RingElem(1), -U)]
    for a, b in pts:
        y, x = lift12_from_E(a, b)
        for yy, xx in family_orbit(y, x):
            if not xx:
                continue
            aa, bb = reduce12_to_E(yy, xx)
            assert not e_curve_residual(RingElem(2, 1), aa, bb)


def test_correspondence_round_trip():
    z = (parse_elem("3-w"), U, parse_elem("3-2*w"))
    ab = corr03_12(*z)
    assert ab == (parse_elem("-4+3*w"), parse_elem("-10-7*w"))
    back = corr12_03(*ab)
    assert len(back) == 4
    assert z in back
    for t in back:
        assert is_member(TSW, Pcf((), t))


def test_correspondence_all_table_points():
    for p in sixteen_points():
        ab = corr03_12(*p)
        back = corr12_03(*ab)
        assert p in back
        for t in back:
            assert is_member(TSW, Pcf((), t))


def test_elliptic_curve_point_lists():
    assert len(POINTS_X3_MINUS_X) == 7
    assert len(POINTS_X_X2_XM1) == 23
    assert len(POINTS_X3_MINUS_4X) == 7
    assert not any(verify_curve_points(curve_x3_minus_x, POINTS_X3_MINUS_X))
    assert not any(verify_curve_points(curve_x_x2_xm1, POINTS_X_X2_XM1))
    assert not any(verify_curve_points(curve_x3_minus_4x, POINTS_X3_MINUS_4X))
    x, y = POINTS_X_X2_XM1[-1]
    assert any(verify_curve_points(curve_x_x2_xm1, [(x, y + 1)]))


def test_vnk_residuals_detect_honest_period():
    assert any(vnk_residuals(Pcf((), (1, 1, 0))))


def test_pcf_round_trip_through_tables():
    for s in ("[1+w;-2,2+2*w]", "[;3-w,1+w,3-2*w]"):
        P = Pcf.parse(s)
        assert Pcf.parse(str(P)) == P
