"""Enumeration routines and the embedded expected tables."""

import dataclasses
from fractions import Fraction

import pytest

from pcflab import search
from pcflab.pcf import Pcf, QuadPoly
from pcflab.ring import RingElem, W, norm
from pcflab.search import (
    TableName,
    _norm_one_cut,
    _solve_z22_03,
    int_range,
    ljunggren_oracle,
    load_table,
    quartic_y1_scan,
    reproduce_table,
    solve_e_curve,
    unit_divisor_enum,
    zw_box,
)
from pcflab.variety import corr03_12, corr12_03, curve21_quartic

PI_SPLIT = RingElem(2, 1)


@pytest.mark.parametrize("name", [t.value for t in TableName])
def test_reproduce_table_exact(name):
    rep = reproduce_table(name)
    assert rep.match, str(rep)
    assert not rep.missing and not rep.extra


def test_reproduce_table_unknown_name():
    with pytest.raises(ValueError):
        reproduce_table("no_such_table")


def test_load_table_nonempty():
    rows = load_table(TableName.Z_03)
    assert rows
    assert load_table("z22_03")
    with pytest.raises(ValueError):
        load_table("bogus")


def test_empty_table_is_empty():
    assert load_table(TableName.Z22_21_empty) == ()


def test_ljunggren_pairs():
    known = [
        (-239, -13), (-239, 13), (-1, -1), (-1, 1),
        (1, -1), (1, 1), (239, -13), (239, 13),
    ]
    assert ljunggren_oracle(1000) == known
    assert ljunggren_oracle(13) == known
    assert ljunggren_oracle(12) == known[2:6]


def test_search_axes():
    assert int_range(3) == [-3, -2, -1, 0, 1, 2, 3]
    box = zw_box(2)
    assert RingElem(0, 0) in box
    assert RingElem(2, -2) in box
    assert len(box) == len(set(box)) == 25


def test_e_curve_split_prime():
    pts = solve_e_curve(PI_SPLIT, kmax=20)
    assert len(pts) == 21
    assert pts == solve_e_curve(PI_SPLIT, kmax=20)
    negs = [(a, b) for a, b in pts if norm(b) == -1]
    assert len(negs) == 8
    assert {a for a, _ in negs} == {
        RingElem(1), RingElem(-1),
        RingElem(1, -1), RingElem(-1, 1),
        RingElem(13, 9), RingElem(-13, -9),
        RingElem(31, -22), RingElem(-31, 22),
    }


def test_e_curve_filters_are_sound(monkeypatch):
    filtered = solve_e_curve(PI_SPLIT, kmax=12)
    monkeypatch.setattr(search, "_norm_one_cut", lambda b, norm_b: False)
    assert solve_e_curve(PI_SPLIT, kmax=12) == filtered


def test_norm_one_cut_covers_every_norm_of_pi_minus_b_3_mod_4():
    # N(2 + w - b) = 3 mod 4 forces b = +-u^(2j), whose b^2 + 1 has norm 4 mod 8
    cands = unit_divisor_enum(W, 80)
    mod4 = [(b, tag) for b, tag in cands if int((PI_SPLIT - b).norm()) % 4 == 3]
    assert (len(cands), len(mod4)) == (644, 162)
    assert all(_norm_one_cut(b, tag) for b, tag in mod4)


def test_z22_03_norm_one_filter_is_sound(monkeypatch):
    filtered = _solve_z22_03(20)
    assert len(filtered) == 16
    monkeypatch.setattr(search, "_norm_one_cut", lambda b, norm_b: False)
    assert _solve_z22_03(20) == filtered


def test_e_curve_kmax_monotone():
    small = set(solve_e_curve(PI_SPLIT, kmax=5))
    big = set(solve_e_curve(PI_SPLIT, kmax=20))
    assert small <= big


def test_e_curve_rational_prime():
    pts = solve_e_curve(2, kmax=20)
    assert set(pts) == {
        (RingElem(1), RingElem(1)),
        (RingElem(-1), RingElem(1)),
        (RingElem(1), RingElem(-2)),
        (RingElem(-1), RingElem(-2)),
        (RingElem(0), RingElem(2)),
    }


# each plane scan, given one point more than the model has (its lift is
# integral, so only the cross-check can reject it) or one point fewer
PLANE_SCANS = [
    ("z_03", "_plane03_scan", (RingElem(1), RingElem(1))),
    ("z_21", "_plane21_scan", (RingElem(2), RingElem(0))),
]


@pytest.mark.parametrize("name, scan, extra", PLANE_SCANS)
def test_plane_scan_with_an_extra_point_fails_the_table(monkeypatch, name, scan, extra):
    real = getattr(search, scan)
    assert extra not in real(5)
    monkeypatch.setattr(search, scan, lambda box: real(box) + [extra])
    rep = reproduce_table(name)
    assert not rep.match
    assert not rep.missing and not rep.extra


@pytest.mark.parametrize("name, scan", [row[:2] for row in PLANE_SCANS])
def test_plane_scan_missing_a_point_fails_the_table(monkeypatch, name, scan):
    real = getattr(search, scan)
    monkeypatch.setattr(search, scan, lambda box: real(box)[1:])
    rep = reproduce_table(name)
    assert not rep.match
    assert not rep.missing and not rep.extra


# one expected entry dropped and one new entry added, for a point table and a
# PCF table: the report names both
TABLE_DIFFS = [
    ("z_03", (RingElem(3), RingElem(-1), RingElem(2)), "(3, -1, 2)",
     (RingElem(5), W, RingElem(Fraction(-1, 2))), "(5, w, -1/2)"),
    ("pcf_pot", Pcf.parse("[w;2,2*w]"), "[w;2,2*w]", Pcf.parse("[1;-2+w]"), "[1;-2+w]"),
]


@pytest.mark.parametrize("name, dropped, dropped_text, added, added_text", TABLE_DIFFS)
def test_table_report_lists_missing_and_extra_entries(
    monkeypatch, name, dropped, dropped_text, added, added_text
):
    pipeline = search._PIPELINES[TableName(name)]

    def patched():
        found, checks, notes = pipeline()
        assert dropped in found and added not in found
        return [e for e in found if e != dropped] + [added], checks, notes

    monkeypatch.setitem(search._PIPELINES, TableName(name), patched)
    lines = str(reproduce_table(name)).splitlines()
    assert not lines[0].endswith("exact match")
    assert [line for line in lines if line.startswith(("  missing:", "  extra:"))] == [
        f"  missing: {dropped_text}",
        f"  extra:   {added_text}",
    ]


# the first PCF that really converges to the table's root, perturbed once per
# table: it diverges (keeping its value, so a filter reading the value alone
# would still keep it) or lands on the other root
PERTURBATIONS = {
    "diverges": lambda v: dataclasses.replace(v, converges=False, reason="patched"),
    "other root": lambda v: dataclasses.replace(v, value=-v.value),
}
ROOTS = {"z_12": W, "pcf_rinds": search.ALPHA2, "pcf_pot": search.ALPHA2}


def _perturb_first(monkeypatch, hit, change):
    real = search.verdict
    done = []

    def patched(P):
        v = real(P)
        if not done and hit(v):
            done.append(P)
            return change(v)
        return v

    monkeypatch.setattr(search, "verdict", patched)
    return done


@pytest.mark.parametrize("how", PERTURBATIONS)
@pytest.mark.parametrize("name", ROOTS)
def test_convergence_filter_fails_the_table(monkeypatch, name, how):
    root = ROOTS[name]
    done = _perturb_first(monkeypatch, lambda v: v.converges and v.value == root, PERTURBATIONS[how])
    rep = reproduce_table(name)
    assert done
    assert not rep.match


@pytest.mark.parametrize("name", ["pcf_rinds", "pcf_pot"])
def test_a_divergent_pcf_on_the_other_root_fails_the_table(monkeypatch, name):
    # the kept PCFs stay the same, so only the all-converge check can object
    root = ROOTS[name]
    done = _perturb_first(monkeypatch, lambda v: v.converges and v.value == -root,
                          PERTURBATIONS["diverges"])
    rep = reproduce_table(name)
    assert done
    assert not rep.match
    assert not rep.missing and not rep.extra


def test_z_21_table_comes_from_the_quartic_derivation(monkeypatch):
    monkeypatch.setattr(search, "quartic_y1_scan", lambda T, bound: [RingElem(1)])
    rep = reproduce_table("z_21")
    assert not rep.match
    assert {p[0] for p in rep.missing} == {RingElem(-1)}
    assert {p[0] for p in rep.found} == {RingElem(1)}


def test_plain_integer_quartic_scan_keeps_rational_roots():
    # at y = +-2 the quartic of x^2 - 6 is 8 = (2w)^2, a square in Q(sqrt 2)
    # but not of a rational, so no integer point lies over it
    T = QuadPoly(1, 0, -6)
    assert curve21_quartic(T, 2) == curve21_quartic(T, -2) == 8
    assert quartic_y1_scan(T, 5) == []


# -- the z22_12 symmetry checks, each broken by one mutation -------------------

Z22_03 = load_table(TableName.Z22_03)
Z22_12 = load_table(TableName.Z22_12)


def test_orbit_check_fails_without_any_one_point():
    for p in Z22_12:
        if p[0]:
            assert not search._five_full_orbits([q for q in Z22_12 if q != p])


def test_correspondence_check_fails_without_any_one_03_point():
    # the forward image stays the eight points, so the backward direction must catch it
    image = {corr03_12(*z) for z in Z22_03}
    for z in Z22_03:
        rest = [q for q in Z22_03 if q != z]
        assert {corr03_12(*q) for q in rest} == image
        assert not search._correspondence_agrees(rest, Z22_12)


def test_correspondence_check_fails_on_a_wrong_sign(monkeypatch):
    def flipped(a, b):
        return tuple((z1, z2, -z3) for z1, z2, z3 in corr12_03(a, b))

    monkeypatch.setattr(search, "corr12_03", flipped)
    assert not search._correspondence_agrees(Z22_03, Z22_12)
