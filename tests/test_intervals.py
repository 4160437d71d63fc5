"""Certified interval enclosures and decimal rendering."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from pcflab.intervals import (
    Interval,
    decimal_str,
    elem_interval,
    interval_decimal_str,
    interval_g6_str,
    log10_interval,
    sqrt_interval,
    value_interval,
)
from pcflab.ring import ExtElem, RingElem, W

ALPHA = ExtElem(0, 1, RingElem(2, 1))


def rand_interval(rng):
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    w = Fraction(rng.randint(0, 5), rng.randint(1, 9))
    return Interval(a, a + w)


def test_arithmetic_contains_pointwise_results():
    rng = random.Random(21)
    for _ in range(300):
        A, B = rand_interval(rng), rand_interval(rng)
        a = Fraction(rng.randint(0, 100), 100) * (A.hi - A.lo) + A.lo
        b = Fraction(rng.randint(0, 100), 100) * (B.hi - B.lo) + B.lo
        assert a + b in A + B
        assert a - b in A - B
        assert a * b in A * B
        if B.lo > 0 or B.hi < 0:
            assert a / b in A / B


def test_sqrt_interval_encloses():
    rng = random.Random(22)
    for _ in range(100):
        q = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
        iv = sqrt_interval(q, 80)
        assert iv.lo >= 0
        assert iv.lo * iv.lo <= q <= iv.hi * iv.hi
        assert iv.width < Fraction(1, 2 ** 60)


def bracketed(iv, lo_digits, hi_digits, scale):
    return Fraction(lo_digits, scale) <= iv.lo and iv.hi <= Fraction(hi_digits, scale)


def test_elem_interval_known_constants():
    iv = elem_interval(W, 96)
    assert bracketed(iv, 14142135623, 14142135624, 10 ** 10)
    assert iv.width < Fraction(1, 10 ** 20)
    iv = elem_interval(ALPHA, 128)
    # alpha = sqrt(2 + sqrt(2)) = 1.8477590650...
    assert bracketed(iv, 18477590650, 18477590651, 10 ** 10)
    iv = elem_interval(Fraction(-3, 7), 64)
    assert iv.lo == iv.hi == Fraction(-3, 7)


def test_value_interval_width():
    for digits in (5, 15, 40):
        iv = value_interval(W, digits)
        assert iv.width <= Fraction(1, 10 ** digits)


def test_log10_interval():
    iv = log10_interval(Interval(Fraction(1000), Fraction(1000)), 25)
    assert Fraction(3) in iv
    assert iv.width < Fraction(1, 10 ** 20)
    iv = log10_interval(value_interval(U_VAL, 30), 25)
    # log10(1 + sqrt 2) = 0.382775685...
    assert bracketed(iv, 382775685, 382775686, 10 ** 9)
    with pytest.raises(ValueError):
        log10_interval(Interval(Fraction(-1), Fraction(1)), 10)


U_VAL = RingElem(1, 1)


def test_decimal_str_rationals():
    assert decimal_str(Fraction(1, 3), 5) == "0.33333"
    assert decimal_str(Fraction(2, 3), 5) == "0.66667"
    assert decimal_str(Fraction(-1, 8), 4) == "-0.1250"
    assert decimal_str(Fraction(7), 3) == "7.000"
    assert decimal_str(-3, 2) == "-3.00"
    assert decimal_str(RingElem(Fraction(5, 4)), 3) == "1.250"
    # ties round half up, toward +infinity
    assert decimal_str(Fraction(1, 8), 2) == "0.13"
    assert decimal_str(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_str(RingElem(Fraction(-7, 4)), 1) == "-1.7"


def test_decimal_str_algebraic():
    assert decimal_str(W, 10) == "1.4142135624"
    assert decimal_str(-W, 10) == "-1.4142135624"
    assert decimal_str(ALPHA, 12) == "1.847759065023"
    assert decimal_str(U_VAL, 6) == "2.414214"


def test_decimal_str_past_the_int_str_limit():
    # 4301 digits is one past Python's default limit for int <-> str
    digits = 4301
    text = decimal_str(W, digits)
    assert text[:2] == "1." and len(text) == digits + 2
    rounded = (math.isqrt(8 * 10 ** (2 * digits)) + 1) // 2  # floor(sqrt2 * 10^digits + 1/2)
    assert int(Decimal(text.replace(".", ""))) == rounded


def test_floats_are_refused():
    for args in ((0.1,), (0, 0.5)):
        with pytest.raises(TypeError):
            Interval(*args)
    with pytest.raises(TypeError):
        Interval(0, 1) + 0.5


def test_interval_decimal_str_guards_width():
    assert interval_decimal_str(value_interval(W, 12), 8) == "1.41421356"
    with pytest.raises(ArithmeticError):
        interval_decimal_str(Interval(Fraction(0), Fraction(1)), 4)


def test_interval_g6_str_certifies_or_declines():
    assert interval_g6_str(value_interval(W, 12)) == "1.41421"
    assert interval_g6_str(Interval(0)) == "0"
    assert interval_g6_str(Interval(Fraction(-1, 4 * 10 ** 6))) == "-2.5e-07"
    assert interval_g6_str(Interval(Fraction(1, 10 ** 4))) == "0.0001"
    # exact ties round half to even, as float formatting does
    assert interval_g6_str(Interval(1234565)) == "1.23456e+06"
    assert interval_g6_str(Interval(Fraction(1999999, 2))) == "1e+06"
    # an enclosure across a rounding boundary certifies no sixth digit
    tie = Fraction(1234565, 10 ** 6)
    assert interval_g6_str(Interval(tie - Fraction(1, 10 ** 9), tie + Fraction(1, 10 ** 9))) is None
    assert interval_g6_str(Interval(-1, 1)) is None


def test_abs_and_mid():
    iv = Interval(Fraction(-3), Fraction(-1))
    assert abs(iv) == Interval(Fraction(1), Fraction(3))
    assert iv.mid == Fraction(-2)
    assert Interval(Fraction(-1), Fraction(2)).width == 3
