"""Solution families: residuals, projections, parametrization, curve models."""

import random
from fractions import Fraction

import pytest

from oracles import family_orbit_y1_x1

from pcflab.continuant import INF
from pcflab.pcf import Pcf, QuadPoly
from pcflab.ring import WU, RingElem, parse_elem
from pcflab.search import TableName, load_table
from pcflab.variety import (
    corr03_12,
    corr12_03,
    curve21_quartic,
    curve21_residual,
    e_curve_residual,
    family_orbit,
    fp_conic_residual,
    fp_project,
    is_member,
    lift03,
    lift12_from_E,
    lift21,
    param03,
    pcf_of_e_point,
    plane03_residual,
    plane21_residual,
    reduce12_to_E,
    solve_small_type,
    variety_residuals,
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
    # roots +-sqrt(2) with R = 2, S = -2: t = 0, 1 give +-(3, -1, 2), t = -1, INF give +-(1, 1, 0)
    at = lambda t: param03(T2, 2, -2, t)
    assert at(0) == (RingElem(3), RingElem(-1), RingElem(2))
    assert at(1) == (RingElem(-3), RingElem(1), RingElem(-2))
    assert at(-1) == (RingElem(1), RingElem(1), RingElem(0))
    assert at(INF) == (RingElem(-1), RingElem(-1), RingElem(0))


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
    ab = (RingElem(-1), -U)
    assert not e_curve_residual(WU, *ab)
    y1, x1 = lift12_from_E(*ab)
    assert (y1, x1) == (U, RingElem(-2))
    assert y1 * y1 * x1 + 2 * y1 == WU * x1
    assert reduce12_to_E(y1, x1) == ab
    P = pcf_of_e_point(*ab)
    assert P.type_nk == (1, 2)
    assert P.pre == (ab[0] * ab[1],)


def test_family_orbit():
    orb = family_orbit(-1, -U)
    assert len(set(orb)) == 4
    assert not any(e_curve_residual(WU, a, b) for a, b in orb)
    assert set(orb) == {(RingElem(-1), -U), (RingElem(1), -U),
                        (RingElem(1, -1), U), (RingElem(-1, 1), U)}
    with pytest.raises(ValueError):
        family_orbit(0, WU)
    with pytest.raises(ValueError):
        family_orbit(1, 1)


def test_orbit_transport_to_e_curve():
    # the orbit on the halved coordinates equals the (y1, x1) orbit carried over
    pts = [p for p in load_table(TableName.Z22_12) if p[0]]
    assert len(pts) == 20
    for a, b in pts:
        via = {reduce12_to_E(*q) for q in family_orbit_y1_x1(*lift12_from_E(a, b))}
        assert set(family_orbit(a, b)) == via


def test_correspondence_round_trip():
    z = (parse_elem("3-w"), U, parse_elem("3-2*w"))
    ab = corr03_12(*z)
    assert ab == (parse_elem("-4+3*w"), parse_elem("-10-7*w"))
    back = corr12_03(*ab)
    assert len(back) == 2
    assert z in back
    for t in back:
        assert is_member(TSW, Pcf((), t))
        assert corr03_12(*t) == ab


def test_correspondence_all_table_points():
    fibres = {}
    for p in sixteen_points():
        ab = corr03_12(*p)
        back = corr12_03(*ab)
        assert p in back
        for t in back:
            assert is_member(TSW, Pcf((), t))
            assert corr03_12(*t) == ab
        fibres[ab] = back
    # eight image points, and their fibres split the sixteen points
    assert len(fibres) == 8
    union = [t for back in fibres.values() for t in back]
    assert len(union) == 16 and set(union) == set(sixteen_points())


def test_pcf_round_trip_through_tables():
    for s in ("[1+w;-2,2+2*w]", "[;3-w,1+w,3-2*w]"):
        P = Pcf.parse(s)
        assert Pcf.parse(str(P)) == P
