"""Periodic continued fractions: matrices, quadratics, roots, duality."""

import random
from fractions import Fraction

import pytest

from pcflab.continuant import Mat2, cf_matrix
from pcflab.pcf import (
    IdentityMultipleError,
    Pcf,
    QuadPoly,
    dual,
    e_matrix,
    e_matrix_continuant_form,
    extend_type,
    g_multiplier,
    quad_poly,
    quad_roots,
    roots,
)
from pcflab.ring import ExtElem, RingElem, W, ext_conj, sign_under_embedding


def rand_pcf(rng, d=None, nmax=4, kmax=5, span=6):
    def entry():
        if d == 2:
            return RingElem(rng.randint(-span, span), rng.randint(-2, 2))
        q = Fraction(rng.randint(-span, span))
        return q if rng.random() < 0.9 else q + Fraction(1, 2)

    n = rng.randint(0, nmax)
    k = rng.randint(1, kmax)
    return Pcf(tuple(entry() for _ in range(n)), tuple(entry() for _ in range(k)))


def test_parse_str_round_trip():
    rng = random.Random(41)
    for _ in range(100):
        P = rand_pcf(rng, d=2 if rng.random() < 0.5 else None)
        assert Pcf.parse(str(P)) == P
    assert Pcf.parse("[1; 2]").pre == (Fraction(1),)
    assert Pcf.parse("[; 2, -1/2, 1]").n == 0
    assert Pcf.parse("[1+w; -2, 2+2*w]").per == (RingElem(-2, 0), RingElem(2, 2))
    with pytest.raises(ValueError):
        Pcf.parse("[1; 2; 3]")


def test_e_matrix_frozen_example():
    P = Pcf.parse("[2; -2, 4]")
    E = e_matrix(P)
    assert (E.e11, E.e12, E.e21, E.e22) == (-3, -4, -2, -3)
    q = quad_poly(P)
    assert tuple(q) == (-2, 0, 4)


def test_e_matrix_conjugation_form():
    rng = random.Random(42)
    for _ in range(200):
        P = rand_pcf(rng)
        M_pre = cf_matrix(P.pre)
        M_per = cf_matrix(P.per)
        assert e_matrix(P) == M_pre * M_per * M_pre.inverse()
        assert e_matrix(P).det() == (-1) ** P.k


def test_e_matrix_continuant_form_agrees():
    rng = random.Random(43)
    for _ in range(200):
        P = rand_pcf(rng)
        assert e_matrix_continuant_form(P) == e_matrix(P)


def test_e_matrix_stable_under_prefix_growth():
    rng = random.Random(44)
    for _ in range(150):
        P = rand_pcf(rng)
        ell = rng.randint(0, 3)
        assert e_matrix(extend_type(P, ell, 1)) == e_matrix(P)


def test_period_repeat_powers_matrix():
    rng = random.Random(45)
    for _ in range(100):
        P = rand_pcf(rng)
        m = rng.randint(1, 4)
        assert e_matrix(extend_type(P, 0, m)) == e_matrix(P) ** m


def test_g_multiplier_scales_quadratic():
    rng = random.Random(46)
    for _ in range(250):
        P = rand_pcf(rng)
        m = rng.randint(1, 4)
        G = g_multiplier(P.per, m)
        try:
            base = tuple(quad_poly(P))
        except IdentityMultipleError:
            continue
        F = e_matrix(extend_type(P, 0, m))
        # read the coefficients off the matrix: a finite-order period can
        # land on a scalar matrix, where the scale factor degenerates to 0
        grown = (F.e21, F.e22 - F.e11, -F.e12)
        assert grown == tuple(G * c for c in base)
    assert g_multiplier((Fraction(2),), 1) == 1


def test_quad_poly_basics():
    q = QuadPoly(Fraction(1), Fraction(-2), Fraction(-1))
    assert q(Fraction(0)) == -1
    assert q.disc() == 8
    r = quad_roots(q)
    first, second = r
    assert first == 1 + W
    assert second == 1 - W
    assert q.is_root(first)
    assert q.is_root(second)


def test_irrational_roots_are_conjugates_of_one_extension():
    # x^2 + x - 1 and (1+w) x^2 - 3 x - w: discriminants 5 and 9+4w are non-squares
    for q in (QuadPoly(1, 1, -1), QuadPoly(RingElem(1, 1), -3, -W)):
        A, B, C = q.normalized()
        z1, z2 = quad_roots(q)
        assert type(z1) is ExtElem and sign_under_embedding(z1 - z2) == 1
        assert z1 + z2 == -B / A
        assert z1 * z2 == C / A
        assert z1 == ext_conj(z2)


def test_roots_type_01():
    P = Pcf.parse("[; 2]")
    r = roots(P)
    assert r[0] == 1 + W
    assert r[1] == 1 - W


def test_roots_are_roots():
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        P = rand_pcf(rng)
        try:
            r = roots(P)
        except IdentityMultipleError:
            continue
        q = quad_poly(P)
        for z in r:
            assert q.is_root(z)
        checked += 1
    assert checked > 150


def test_roots_identity_multiple():
    with pytest.raises(IdentityMultipleError):
        roots(Pcf((), (Fraction(0), Fraction(0))))


def test_dual_matrix_inverse():
    rng = random.Random(48)
    for _ in range(200):
        P = rand_pcf(rng, d=2 if rng.random() < 0.3 else None)
        assert e_matrix(dual(P)) == e_matrix(P).inverse()


def test_dual_shapes():
    assert dual(Pcf.parse("[; 2, 2]")) == Pcf.parse("[0; -2, -2]")
    assert dual(Pcf.parse("[1; 2, 2]")) == Pcf.parse("[-1; -2, -2]")
    P = Pcf.parse("[2; -2, 4]")
    D = dual(P)
    assert D.n == P.n
    assert D.k == P.k


def test_type_accessors():
    P = Pcf.parse("[1+w; -2, 2+2*w]")
    assert P.type_nk == (1, 2)
