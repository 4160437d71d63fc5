"""Base ring arithmetic: norms, units, square roots, valuations, parsing."""

import math
import random
from fractions import Fraction

import pytest

from pcflab.ring import (
    WU,
    ExtElem,
    RingElem,
    W,
    ext_conj,
    ext_norm,
    format_elem,
    parse_elem,
    rational_sqrt,
    residue_class,
    sign_under_embedding,
    sqrt_in_ring,
    unit_power,
    val2,
)

U = RingElem(1, 1)


def rand_elem(rng, span=30):
    return RingElem(
        Fraction(rng.randint(-span, span), rng.randint(1, 6)),
        Fraction(rng.randint(-span, span), rng.randint(1, 6)),
    )


def test_field_axioms_sampled():
    rng = random.Random(101)
    for _ in range(300):
        x, y, z = (rand_elem(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert x + (-x) == 0
        if y:
            assert (x / y) * y == x


def test_norm_and_trace():
    rng = random.Random(102)
    for _ in range(200):
        x, y = rand_elem(rng), rand_elem(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * x.conjugate() == RingElem(x.norm(), 0)
        assert x + x.conjugate() == RingElem(x.trace(), 0)
    assert W.norm() == -2
    assert U.norm() == -1
    assert RingElem(2, 1).norm() == 2


def test_fundamental_unit_powers():
    assert U.is_unit()
    assert not RingElem(2, 1).is_unit()
    acc = RingElem(1, 0)
    for k in range(12):
        assert unit_power(U, k) == acc
        acc = acc * U
    assert unit_power(U, -1) == RingElem(-1, 1)
    assert unit_power(U, -3) == RingElem(-7, 5)
    for k in range(-8, 9):
        assert unit_power(U, k) * unit_power(U, -k) == 1


def test_sign_under_embedding():
    assert sign_under_embedding(W) == 1
    assert sign_under_embedding(RingElem(1, -1)) == -1  # 1 - sqrt(2) < 0
    assert sign_under_embedding(RingElem(3, -2)) == 1  # 3 - 2 sqrt(2) > 0
    assert sign_under_embedding(RingElem(0, 0)) == 0
    assert sign_under_embedding(Fraction(-3, 7)) == -1


def test_sqrt_in_ring_known_values():
    assert sqrt_in_ring(RingElem(8, 0)) == RingElem(0, 2)
    assert sqrt_in_ring(RingElem(3, 2)) == RingElem(1, 1)
    assert sqrt_in_ring(RingElem(2, 0)) == W
    assert sqrt_in_ring(RingElem(4, 0)) == 2
    assert sqrt_in_ring(RingElem(2, 1)) is None
    assert sqrt_in_ring(RingElem(-1, 0)) is None


def test_one_field_square_roots():
    # a rational is a square in Q(sqrt 2) when it or its half is a rational square
    assert sqrt_in_ring(8) == 2 * W
    assert sqrt_in_ring(Fraction(1, 2)) == W / 2
    assert sqrt_in_ring(6) is None
    # over Q only the first kind is
    assert rational_sqrt(8) is None
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(RingElem(16)) == 4
    assert rational_sqrt(-4) is None
    assert rational_sqrt(RingElem(3, 2)) is None  # (1+w)^2


def test_sqrt_in_ring_random_squares():
    rng = random.Random(103)
    for _ in range(200):
        x = rand_elem(rng, span=12)
        s = sqrt_in_ring(x * x)
        assert s is not None
        assert s * s == x * x
        assert sign_under_embedding(s) >= 0


def test_residue_class():
    assert residue_class(RingElem(5, -3), 4) == (1, 1)
    assert residue_class(RingElem(8, 8), 8) == (0, 0)
    assert residue_class(RingElem(-1, -1), 4) == (3, 3)


def test_val2_rationals():
    assert val2(Fraction(8)) == 3
    assert val2(Fraction(1, 2)) == -1
    assert val2(Fraction(3, 5)) == 0
    assert val2(Fraction(0)) == math.inf
    assert val2(RingElem(Fraction(12), 0)) == 2


def test_val2_ramified():
    # 2 = w^2 up to a unit, so w carries half a power of 2
    assert val2(W) == Fraction(1, 2)
    assert val2(RingElem(2, 0)) == 1
    assert val2(U) == 0
    assert val2(RingElem(2, 1)) == Fraction(1, 2)
    assert val2(RingElem(4, 2)) == Fraction(3, 2)
    assert val2(RingElem(0, 0)) == math.inf


def test_val2_additive_on_products():
    rng = random.Random(104)
    for _ in range(200):
        x, y = rand_elem(rng, span=9), rand_elem(rng, span=9)
        if not x or not y:
            continue
        assert val2(x * y) == val2(x) + val2(y)


def test_parse_format_round_trip():
    rng = random.Random(105)
    for _ in range(200):
        x = rand_elem(rng)
        assert parse_elem(format_elem(x)) == x
    assert parse_elem("3-2*w") == RingElem(3, -2)
    assert parse_elem(" -1/2 ") == RingElem(Fraction(-1, 2), 0)
    assert parse_elem("w") == W
    assert parse_elem("-w") == -W
    with pytest.raises(ValueError):
        parse_elem("3+*w")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_elem("1-1/0*w")


def test_floats_are_refused():
    for args in ((0.1,), (1, 0.5)):
        with pytest.raises(TypeError, match="inexact"):
            RingElem(*args)


def test_elements_do_not_convert_to_float():
    for x in (W, RingElem(Fraction(1, 3)), ExtElem(0, 1, WU)):
        with pytest.raises(TypeError):
            float(x)


def test_ring_elem_compares_with_ext_elem_by_reflection():
    assert RingElem(3) == ExtElem(3, 0, WU)
    assert W != ExtElem(0, 1, WU)
    assert W == ExtElem(W, 0, WU) and W != ExtElem(W, -1, WU)


def test_cross_ambient_scalar_equality():
    assert RingElem(Fraction(3), 0) == RingElem(3, 0)
    assert RingElem(3, 0) == 3
    assert hash(RingElem(Fraction(3), 0)) == hash(RingElem(3, 0))


def ext_rand(rng, theta):
    return ExtElem(
        RingElem(rng.randint(-9, 9), rng.randint(-9, 9)),
        RingElem(rng.randint(-9, 9), rng.randint(-9, 9)),
        theta,
    )


def test_ext_arithmetic_and_norm():
    theta = RingElem(2, 1)
    rng = random.Random(106)
    for _ in range(150):
        e, f = ext_rand(rng, theta), ext_rand(rng, theta)
        assert ext_norm(e * f) == ext_norm(e) * ext_norm(f)
        assert e * ext_conj(e) == ExtElem(ext_norm(e), 0, theta)
        if e:
            assert (f / e) * e == f


def test_ext_pow_negative():
    theta = RingElem(1, 1)
    e = ExtElem(-U, W, theta)  # a relative-norm-1 unit
    assert e ** 0 == 1
    assert e ** 3 == e * e * e
    assert e ** -2 == 1 / (e * e)
    assert e ** 5 * e ** -5 == 1


def test_ext_value_identity():
    # same value, different presentation: 2*sqrt(2+w) == sqrt(8+4*w)
    theta = RingElem(2, 1)
    a = ExtElem(3, 2, theta)
    b = ExtElem(3, 1, 4 * theta)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ExtElem(3, -2, theta) and a != ExtElem(3, -1, 4 * theta)


def test_ext_rejects_square_radicand():
    with pytest.raises(ValueError):
        ExtElem(0, 1, RingElem(4, 0))
    with pytest.raises(ValueError):
        ExtElem(0, 1, RingElem(3, 2))  # (1+w)^2
    # rational data live in Q(sqrt 2), where 8 and 2 are squares
    for y, theta in ((Fraction(1, 2), 8), (1, 2)):
        with pytest.raises(ValueError, match="is a square"):
            ExtElem(0, y, theta)


def test_ext_rejects_zero_theta():
    with pytest.raises(ValueError, match="nonzero"):
        ExtElem(0, 1, 0)
    with pytest.raises(ValueError, match="is a square"):
        ExtElem(0, 1, 4)


def test_ext_arithmetic_refuses_mixed_extensions():
    theta = RingElem(2, 1)
    e = ExtElem(1, W, theta)
    other = ExtElem(1, W, RingElem(1, 1))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(ValueError, match="different extensions"):
            op(e, other)


def test_ext_results_carry_their_extension():
    for theta, sy in ((RingElem(2, 1), 1), (RingElem(2, 1), -1), (RingElem(3), -1)):
        e = ExtElem(RingElem(1, -1), sy * RingElem(Fraction(1, 2), 3), theta)
        f = ExtElem(-3, sy * RingElem(0, 1), theta)
        results = (
            e + f, e - f, e * f, -e, e.inverse(), e / f, e ** 3, ext_conj(e),
            e + W, W + e, e * 3, Fraction(1, 2) * e, 1 - e, 2 / e,
        )
        for r in results:
            assert type(r) is ExtElem
            assert r.theta == theta
            assert type(r.x) is RingElem and type(r.y) is RingElem
            # rebuilding through the checked constructor gives the same value
            assert ExtElem(r.x, r.y, theta) == r


def test_ext_sign_under_embedding():
    theta = RingElem(2, 1)
    alpha = ExtElem(0, 1, theta)
    assert sign_under_embedding(alpha) == 1
    assert sign_under_embedding(-alpha) == -1
    # 2 - alpha > 0 since alpha is about 1.848
    assert sign_under_embedding(2 - alpha) == 1
    assert sign_under_embedding(ExtElem(RingElem(-2, 0), 1, theta)) == -1
