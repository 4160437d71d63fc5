"""Property tests: two independent routes to the same answer."""

import functools
import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import _expanding_fixed_point, log10_reference
from pcflab.continuant import INF, Mat2
from pcflab.converge import LOXODROMIC, _mobius_case, classify_mobius, verdict
from pcflab.intervals import Interval, interval_g6_str, log10_interval
from pcflab.pcf import (
    Pcf,
    QuadPoly,
    e_matrix,
    e_matrix_continuant_form,
    quad_poly_of_matrix,
    quad_roots,
)
from pcflab.ring import (
    U,
    W,
    WU,
    ExtElem,
    RingElem,
    ext_conj,
    format_elem,
    parse_elem,
    sign_under_embedding,
    sqrt_in_ring,
)
from pcflab.variety import (
    curve21_quartic,
    curve21_residual,
    is_member,
    lift21,
    plane21_residual,
)

DERANDOMIZED = settings(max_examples=400, deadline=None, database=None, derandomize=True)

zw = st.builds(lambda a, b: RingElem(a, b), st.integers(-9, 9), st.integers(-9, 9))
pcfs = st.builds(
    Pcf,
    st.lists(zw, max_size=3).map(tuple),
    st.lists(zw, min_size=1, max_size=3).map(tuple),
)


@DERANDOMIZED
@given(pcfs)
def test_family_membership_matches_continuant_form(P):
    # the continuant form reads one glued word and never conjugates by
    # M(prefix), unlike the e_matrix that variety_residuals reads, so the two
    # routes share no code past continuants
    E = e_matrix_continuant_form(P)
    assume(not E.is_identity_multiple())
    A, B, C = E.e21, E.e22 - E.e11, -E.e12
    assert is_member(QuadPoly(A, B, C), P)
    if A:
        assert not is_member(QuadPoly(A, B, C + A), P)


@DERANDOMIZED
@given(zw, zw, zw, zw, zw)
def test_plane21_model_discriminant_and_lift(A, B, C, y1, y2):
    # the fiber's coefficients are read off plane21_residual at y2 = -1, 0, 1,
    # and the residuals of the lifted point come from e_matrix, so neither
    # side of an identity repeats the other's formula
    assume(A)
    T = QuadPoly(A, B, C)
    lo, mid, hi = (plane21_residual(T, y1, t) for t in (-1, 0, 1))
    a2, a1 = (hi + lo) / 2 - mid, (hi - lo) / 2
    assert a1 * a1 - 4 * a2 * mid == curve21_quartic(T, y1)
    p = 2 * A * y1 * y2 + A + B * y2
    if not p:
        with pytest.raises(ZeroDivisionError):
            lift21(T, y1, y2)
        return
    r1, r2, _ = curve21_residual(T, (y1, y2, lift21(T, y1, y2)))
    assert not r1
    assert r2 * p == -A * plane21_residual(T, y1, y2)


# -- the int fast path of RingElem against an all-Fraction reference ---------
#
# A reference element is a pair of Fractions (a, b) standing for a + b*sqrt(2);
# every reference operation stays in Fractions.

rats = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
)
# rationals on their own, so the int fast path meets pure-rational operands
q2_elems = st.one_of(st.builds(RingElem, rats), st.builds(RingElem, rats, rats))


def ref(e):
    return (Fraction(e.a), Fraction(e.b))


def ref_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_norm(x):
    return x[0] * x[0] - 2 * x[1] * x[1]


def ref_inverse(x):
    n = ref_norm(x)
    return (x[0] / n, -x[1] / n)


def ref_sign(x):
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa * ((a * a > 2 * b * b) - (a * a < 2 * b * b))


def ref_nonnegative(x):
    return x if ref_sign(x) >= 0 else (-x[0], -x[1])


def assert_canonical(e):
    # one stored form per value, never a float
    for c in (e.a, e.b):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (e, c)


def assert_matches(e, expected):
    assert_canonical(e)
    assert (e.a, e.b) == expected


OPS = ("add", "sub", "mul", "div", "inverse", "norm", "conjugate", "pow", "sqrt")


@DERANDOMIZED
@given(q2_elems, q2_elems, st.sampled_from(OPS), st.integers(-3, 3))
def test_int_fast_path_matches_fraction_reference(x, y, op, k):
    rx, ry = ref(x), ref(y)
    assert_canonical(x)
    if op == "add":
        assert_matches(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
    elif op == "sub":
        assert_matches(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
    elif op == "mul":
        assert_matches(x * y, ref_mul(rx, ry))
    elif op == "div":
        assume(y)
        assert_matches(x / y, ref_mul(rx, ref_inverse(ry)))
    elif op == "inverse":
        assume(x)
        assert_matches(x.inverse(), ref_inverse(rx))
    elif op == "norm":
        n = x.norm()
        assert type(n) is int or n.denominator != 1
        assert n == ref_norm(rx)
    elif op == "conjugate":
        assert_matches(x.conjugate(), (rx[0], -rx[1]))
    elif op == "pow":
        assume(x or k >= 0)
        base = rx if k >= 0 else ref_inverse(rx)
        expected = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            expected = ref_mul(expected, base)
        assert_matches(x ** k, expected)
    else:
        # x*x is a square with root +-x, and 2*x*x one in Q(sqrt 2) with root
        # +-x*sqrt(2); the nonnegative root comes back.  -x*x - 1 is negative,
        # so it is no square.
        assert_matches(sqrt_in_ring(x * x), ref_nonnegative(rx))
        x_w = (2 * rx[1], rx[0])
        assert_matches(sqrt_in_ring(2 * x * x), ref_nonnegative(x_w))
        assert sqrt_in_ring(-x * x - 1) is None


def test_integral_values_have_one_stored_form():
    three = RingElem(3)
    assert type(three.a) is int
    for same in (RingElem(Fraction(3)), RingElem(Fraction(6, 2)), RingElem("3")):
        assert_canonical(same)
        assert same == three and hash(same) == hash(three)
    e = RingElem(Fraction(4, 2), Fraction(-10, 5))
    assert (type(e.a), type(e.b)) == (int, int)
    assert e == RingElem(2, -2) and hash(e) == hash(RingElem(2, -2))
    half = RingElem(1, 1) / 2
    assert half.a == Fraction(1, 2) and type(half.a) is Fraction


qw = st.builds(
    lambda a, b: RingElem(a, b),
    st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=3)),
    st.integers(-3, 3),
)


@DERANDOMIZED
@given(st.lists(qw, min_size=1, max_size=4), st.lists(qw, min_size=1, max_size=3))
def test_e_matrix_matches_continuant_form(pre, per):
    P = Pcf(pre, per)
    assert e_matrix(P) == e_matrix_continuant_form(P)


# -- field axioms in Q(sqrt 2) and its three extensions -----------------------
#
# The extensions are those of the paper's towers: v*v = 1+w, w or 2+w, with
# v > 0; the sign of y picks either real root.  Signs and printed values are
# checked against mpmath.

EXTENSIONS = [U, W, WU]


def assert_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * x.inverse() == 1


@DERANDOMIZED
@given(q2_elems, q2_elems, q2_elems)
def test_ring_elems_form_a_field(x, y, z):
    assert_field_axioms(x, y, z)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert sign_under_embedding(x) == ref_sign(ref(x))


def mp_real(r: RingElem):
    return mpmath.mpf(r.a.numerator) / r.a.denominator + (
        mpmath.mpf(r.b.numerator) / r.b.denominator
    ) * mpmath.sqrt(2)


def mp_ext_value(e: ExtElem):
    return mp_real(e.x) + mp_real(e.y) * mpmath.sqrt(mp_real(e.theta))


def mp_printed_value(text: str):
    """mpmath value of ``x``, ``[x]+sqrt(r)`` or ``[x]-sqrt(r)``; ``parse_elem`` reads the parts."""
    head, root, tail = text.partition("sqrt(")
    if not root:
        return mp_real(parse_elem(text))
    assert tail.endswith(")") and head[-1:] in ("", "+", "-")
    x = mp_real(parse_elem(head[:-1])) if head[:-1] else 0
    sign = -1 if head.endswith("-") else 1
    return x + sign * mpmath.sqrt(mp_real(parse_elem(tail[:-1])))


@DERANDOMIZED
@given(st.sampled_from(EXTENSIONS), st.lists(qw, min_size=6, max_size=6))
def test_ext_elems_form_a_field(theta, coords):
    x, y, z = (ExtElem(coords[i], coords[i + 1], theta) for i in (0, 2, 4))
    assert_field_axioms(x, y, z)
    assert (x * y).ext_norm() == x.ext_norm() * y.ext_norm()
    assert ext_conj(x * y) == ext_conj(x) * ext_conj(y)
    # a nonzero value here is at least about 1e-9 in size, far above the error
    with mpmath.workdps(50):
        v = mp_ext_value(x)
        assert (v > 0) - (v < 0) == sign_under_embedding(x)
        assert bool(x) == (abs(v) > mpmath.mpf(10) ** -30)


@DERANDOMIZED
@given(st.sampled_from(EXTENSIONS), qw, qw, st.sampled_from((1, -1)))
def test_format_elem_prints_the_ext_value(theta, x, y, sign):
    e = ExtElem(x, sign * y, theta)
    with mpmath.workdps(50):
        assert abs(mp_printed_value(format_elem(e)) - mp_ext_value(e)) < mpmath.mpf(10) ** -45


# -- fixed-point logarithms against the Fraction route and mpmath ------------
#
# Endpoints run from 2^-200 to 2^200, some within 1e-30 of 1, where the atanh
# argument is tiny; the interval is a point or a relative width 10^-r.

spread = st.builds(
    lambda a, b, k: Fraction(a, b) * Fraction(2) ** k,
    st.integers(1, 10 ** 18),
    st.integers(1, 10 ** 18),
    st.integers(-140, 140),
)
near_one = st.builds(
    lambda j, s: 1 + Fraction(j, s * 10 ** 30),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(10 ** 6, 10 ** 9),
)
positive_intervals = st.builds(
    lambda lo, r: Interval(lo, lo + lo * r),
    st.one_of(spread, near_one),
    st.one_of(st.just(Fraction(0)), st.integers(5, 100).map(lambda r: Fraction(1, 10 ** r))),
)


# mantissas up to 9 never round up to the next power of ten
g6_mantissas = st.fractions(1, 9, max_denominator=10 ** 9)
g6_exponents = st.one_of(st.integers(-4, 5), st.integers(-12, -5), st.integers(6, 12))


@DERANDOMIZED
@given(g6_mantissas, g6_exponents, st.sampled_from((1, -1)))
def test_interval_g6_str_matches_float_formatting(m, k, sign):
    q = sign * m * Fraction(10) ** k
    want = format(float(q), ".6g")
    # away from a rounding boundary the float's own rounding moves no digit
    nudge = Fraction(1, 10 ** 9)
    assume(format(float(q * (1 + nudge)), ".6g") == format(float(q * (1 - nudge)), ".6g"))
    assert interval_g6_str(Interval(q)) == want
    eps = abs(q) / 10 ** 12
    assert interval_g6_str(Interval(q - eps, q + eps)) == want
    # fixed notation for 1e-4 <= |q| < 1e6, exponent notation outside
    assert ("e" in want) == (not -4 <= k < 6)


def mp_log10_brackets(q: Fraction, lo: Fraction, hi: Fraction, digits: int) -> bool:
    """``lo <= log10(q) <= hi`` by mpmath, with ``q`` converted exactly.

    Near 1 the relative precision must cover ``q - 1`` as well as ``q``, so
    the working precision is the size of ``q`` plus the digits asked for.
    """
    bits = max(q.numerator.bit_length(), q.denominator.bit_length()) + 4 * digits + 200
    with mpmath.workprec(bits):
        v = mpmath.log10(mpmath.mpf(q.numerator) / q.denominator)
        return mpmath.mpf(lo.numerator) / lo.denominator <= v <= (
            mpmath.mpf(hi.numerator) / hi.denominator
        )


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(positive_intervals, st.integers(10, 80))
def test_log10_interval_encloses_reference_and_mpmath(iv, digits):
    out = log10_interval(iv, digits)
    # the reference is 20 digits finer than the result, so its midpoints sit
    # far inside any valid enclosure
    lo_ref = log10_reference(Interval(iv.lo), digits + 20)
    hi_ref = log10_reference(Interval(iv.hi), digits + 20)
    assert lo_ref.mid in out and hi_ref.mid in out
    assert mp_log10_brackets(iv.lo, out.lo, out.hi, digits)
    assert mp_log10_brackets(iv.hi, out.lo, out.hi, digits)
    # log10(hi) - log10(lo) <= (hi - lo)/lo
    assert out.width <= Fraction(1, 10 ** (digits + 4)) + iv.width / iv.lo


rats = st.fractions(-50, 50, max_denominator=12)


def is_rational_square(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


@DERANDOMIZED
@given(rats, rats.filter(bool), st.one_of(rats, rats.map(lambda c: c * c), rats.map(lambda c: 2 * c * c)))
def test_rational_data_stay_in_q_sqrt2(a, b, q):
    # x^2 - 2a x + a^2 - 2b^2 has the roots a +- |b| sqrt(2), positive branch first
    roots = quad_roots(QuadPoly(1, -2 * a, a * a - 2 * b * b))
    assert all(type(r) is RingElem for r in roots)
    assert roots == (RingElem(a, abs(b)), RingElem(a, -abs(b)))
    # a rational is a square in Q(sqrt 2) iff it or its half is a rational square
    s = sqrt_in_ring(q)
    assert (s is None) == (not is_rational_square(q) and not is_rational_square(q / 2))
    if s is not None:
        assert s * s == q and sign_under_embedding(s) >= 0


# -- the closed-form expanding fixed point against full products -------------
#
# verdict and classify_mobius pick the expanding fixed point by the sign of
# lam - tr/2 and form lam^2 - 1 as tr*lam - det - 1; the oracle forms
# lam = e21*z + e22 and lam*lam - 1 by full products and tests lam^2 > 1.

z_pcfs = st.builds(
    Pcf,
    st.lists(st.integers(-9, 9), max_size=3).map(tuple),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(tuple),
)
# square and non-square discriminants, e21 = 0, and both determinants
CLOSED_FORM_PCFS = (
    "[;-2]",
    "[;-2,-2]",
    "[1;2]",
    "[;-2-w,w]",
    "[;-3]",
    "[;-3,-3]",
    "[;-3-w]",
    "[;-3-w,-3-w]",
    "[;-3-w,-1+w,-1-w]",
    "[-3-w,-2-w;1-w,-2]",
)
generators = st.one_of(
    zw.map(lambda c: Mat2(1, c, 0, 1)),
    zw.map(lambda c: Mat2(1, 0, c, 1)),
    st.just(Mat2(0, 1, 1, 0)),
    st.just(Mat2(-1, 0, 0, 1)),
    st.just(Mat2(U, 0, 0, U.inverse())),
)
det_pm1_matrices = st.lists(generators, min_size=1, max_size=5).map(
    lambda ms: functools.reduce(operator.mul, ms)
)
CLOSED_FORM_MATRICES = (
    Mat2(2, 1, 1, 1),
    Mat2(3, 1, 1, 0),
    Mat2(5, 2, 2, 1),
    Mat2(2, 1, 1, 0),
    Mat2(U, 1, 0, U.inverse()),
    Mat2(U, W, 0, -U.inverse()),
)


def closed_form_kinds(E: Mat2) -> set:
    disc = E.trace() * E.trace() - 4 * E.det()
    return {
        "square" if sqrt_in_ring(disc) is not None else "non-square",
        "e21 = 0" if not E.e21 else "e21 != 0",
        f"det {E.det()}",
    }


ALL_KINDS = {"square", "non-square", "e21 = 0", "det 1", "det -1"}


def assert_same_form(x, y):
    assert x == y and str(x) == str(y) and repr(x) == repr(y)


def assert_verdict_matches_oracle(P):
    v = verdict(P)
    assert v.reason == LOXODROMIC
    E = e_matrix(P)
    z, lam, m1 = _expanding_fixed_point(E, quad_roots(quad_poly_of_matrix(E)))
    assert_same_form(v.value, z)
    assert_same_form(v.eigenvalue, lam)
    assert_same_form(v.eigen_modulus_sq_minus_1, m1)


def reference_classification(A: Mat2, z):
    poly = quad_poly_of_matrix(A)
    if poly.is_root(z):
        return (6, z) if _expanding_fixed_point(A, (z,)) else (4, z)
    return 6, _expanding_fixed_point(A, quad_roots(poly))[0]


def assert_classification_matches_oracle(A: Mat2, starts):
    for z in starts:
        c = classify_mobius(A, z)
        case, limit = reference_classification(A, z)
        assert c.case == case
        assert_same_form(c.limit, limit)


def test_closed_form_examples_cover_every_kind():
    pcf_kinds = set().union(*(closed_form_kinds(e_matrix(Pcf.parse(t))) for t in CLOSED_FORM_PCFS))
    assert ALL_KINDS <= pcf_kinds
    assert ALL_KINDS <= set().union(*map(closed_form_kinds, CLOSED_FORM_MATRICES))
    for text in CLOSED_FORM_PCFS:
        assert_verdict_matches_oracle(Pcf.parse(text))
    for A in CLOSED_FORM_MATRICES:
        roots = quad_roots(quad_poly_of_matrix(A))
        assert_classification_matches_oracle(A, roots + (Fraction(7, 3), INF))


@DERANDOMIZED
@given(st.one_of(pcfs, z_pcfs))
def test_verdict_closed_form_matches_full_products(P):
    assume(verdict(P).reason == LOXODROMIC)
    assert_verdict_matches_oracle(P)


@DERANDOMIZED
@given(det_pm1_matrices, st.one_of(zw, st.just(INF)))
def test_classify_closed_form_matches_full_products(A, start):
    assume(_mobius_case(A) == LOXODROMIC)
    roots = quad_roots(quad_poly_of_matrix(A))
    # the start is a root only by chance; the roots themselves always are
    assert_classification_matches_oracle(A, roots + (start,))


# -- text round-trips ---------------------------------------------------------


@DERANDOMIZED
@given(q2_elems)
def test_parse_elem_inverts_format_elem(e):
    assert parse_elem(format_elem(e)) == e


@DERANDOMIZED
@given(
    st.lists(q2_elems, max_size=3).map(tuple),
    st.lists(q2_elems, min_size=1, max_size=3).map(tuple),
)
def test_pcf_parse_inverts_str(pre, per):
    P = Pcf(pre, per)
    assert Pcf.parse(str(P)) == P
