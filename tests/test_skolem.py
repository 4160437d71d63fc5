"""Two-adic valuation bookkeeping in the quadratic extensions."""

from fractions import Fraction

import pytest

from pcflab.ring import RingElem, norm, parse_elem, val2
from pcflab.skolem import (
    addax_check,
    aprime_z_table,
    context_l1,
    context_l2,
    format_aprime_table,
    l2_scan,
    nz,
    oryx_check,
    power_coeffs,
    rst,
    rst_table,
    z_of_j,
)

W = RingElem(0, 1)
U = RingElem(1, 1)


def test_contexts_construct():
    c1 = context_l1()
    assert c1.tag == "L1"
    assert c1.theta == U
    c2 = context_l2()
    assert c2.tag == "L2"
    assert c2.theta == W


def test_rst_frozen_rows():
    expected = [
        ("1", "0", "1"),
        ("-4-4*w", "4+2*w", "4+2*w"),
        ("104+72*w", "-64-48*w", "-56-40*w"),
        ("-2080-1472*w", "1344+944*w", "1152+816*w"),
        ("42176+29824*w", "-27136-19200*w", "-23360-16512*w"),
    ]
    for n, row in enumerate(expected):
        assert rst(n) == tuple(parse_elem(s) for s in row)
    with pytest.raises(ValueError):
        rst(-1)


def test_rst_recursion():
    r1, s1, _ = rst(1)
    for n in range(8):
        r, s, t = rst(n)
        assert t == r + U * s
        rn, sn, _ = rst(n + 1)
        assert rn == r * r1 + s * s1 * U
        assert sn == r * s1 + s * r1


def test_rst_valuation_floors():
    rep = addax_check(16)
    assert rep.all_pass
    assert len(rep.rows) == 17
    for row in rep.rows:
        floor = Fraction(3 * row.n, 2)
        assert row.v2r >= floor
        assert row.v2s >= floor
        assert row.v2t == floor
    assert str(rep).strip().endswith("PASS")
    assert str(rst_table(4)).count("\n") == 5


def test_aprime_z_frozen_rows():
    rows = aprime_z_table()
    got = [(r.k_pair, str(r.aprime), str(r.z), r.nz) for r in rows]
    assert got == [
        ((0, 1), "1+w", "1", 1),
        ((2, -1), "5+3*w", "-3-2*w", 1),
        ((-2, 3), "21+15*w", "13+10*w", -31),
        ((4, -3), "97+69*w", "-63-44*w", 97),
        ((-4, 5), "449+317*w", "289+204*w", 289),
    ]
    text = format_aprime_table(rows)
    assert "+-(449+317*w)" in text
    assert text.splitlines()[0].startswith("k")


def test_index_pair_symmetry():
    for k in range(-12, 13):
        xk, yk = power_coeffs(k)
        xo, yo = power_coeffs(1 - k)
        assert xo == -xk
        assert yo == yk


def test_orbit_norm_is_constant():
    for k in range(-30, 31):
        x, y = power_coeffs(k)
        assert x * x - U * y * y == RingElem(2, 1)


def test_z_values_and_integer_norms():
    assert z_of_j(0) == RingElem(1)
    assert z_of_j(1) == parse_elem("-3-2*w")
    assert z_of_j(-1) == parse_elem("13+10*w")
    assert [nz(j) for j in (0, 1, -1, 2, -2)] == [1, 1, -31, 97, 289]
    for j in range(-30, 31):
        assert nz(j) == norm(z_of_j(j))


def test_unit_norm_indices_match_curve_points():
    from pcflab.search import solve_e_curve

    hits = {j for j in range(-30, 31) if nz(j) == 1}
    assert hits == {0, 1}

    pts = solve_e_curve(RingElem(2, 1), kmax=20)
    b_negs = {b for _, b in pts if norm(b) == -1}
    units = {z_of_j(j) * b for j in hits for b in b_negs}
    assert all(abs(norm(zb)) == 1 for zb in units)


def test_congruence_spacing_of_norms():
    rep = oryx_check(30)
    assert rep.pairs_checked == 900
    assert rep.violations == ()
    assert rep.all_pass
    assert str(rep).strip().endswith("PASS")

    for j, jp in ((0, 2), (1, 5), (-4, 8), (3, 21)):
        assert val2(nz(jp) - nz(j)) == val2(jp - j) + 4


def test_second_extension_scan():
    assert l2_scan(20) == [0, 1]


def test_second_extension_unit_relation():
    c2 = context_l2()
    one_plus_v = type(c2.v)(RingElem(1), RingElem(1), c2.theta)
    assert c2.unit * (RingElem(1) - c2.v) == -one_plus_v

