"""Continuant recurrences, 2x2 matrix algebra, finite evaluation."""

import random
from fractions import Fraction

import pytest

from oracles import cf_matrix_by_blocks
from pcflab.continuant import (
    INF,
    Mat2,
    cf_matrix,
    continuant,
    convergents,
    finite_cf_value,
)
from pcflab.ring import RingElem, W


def rand_entries(rng, n, span=9):
    return [Fraction(rng.randint(-span, span)) for _ in range(n)]


def test_recurrence():
    rng = random.Random(31)
    for _ in range(300):
        c = rand_entries(rng, rng.randint(2, 8))
        assert continuant(c) == c[-1] * continuant(c[:-1]) + continuant(c[:-2])
    assert continuant([]) == 1
    assert continuant([Fraction(5)]) == 5


def test_reversal_symmetry():
    rng = random.Random(32)
    for _ in range(200):
        c = rand_entries(rng, rng.randint(1, 7))
        assert continuant(c) == continuant(c[::-1])


def test_matrix_form_matches_products():
    rng = random.Random(33)
    for _ in range(200):
        c = rand_entries(rng, rng.randint(1, 7))
        M = cf_matrix(c)
        assert M == cf_matrix_by_blocks(c)
        assert M.e11 == continuant(c)
        assert M.e12 == continuant(c[:-1])
        assert M.e21 == continuant(c[1:])
        if len(c) >= 2:
            assert M.e22 == continuant(c[1:-1])


@pytest.mark.parametrize(
    "word",
    [
        [],
        [Fraction(7)],
        [W],
        [Fraction(3, 2), Fraction(-1, 3), Fraction(5)],
        [RingElem(3, 1), RingElem(-2), RingElem(5, -3), RingElem(Fraction(1, 2), -1)],
        [2, Fraction(-5, 4), RingElem(0, 1)],
    ],
)
def test_two_row_recurrence_matches_block_products(word):
    M = cf_matrix(word)
    assert M == cf_matrix_by_blocks(word)
    assert all(type(e) is RingElem for e in M.entries())
    # each convergent is the left-column ratio of its prefix's block product
    for i, value in enumerate(convergents(word)):
        P = cf_matrix_by_blocks(word[:i])
        assert value == (P.e11 / P.e21 if P.e21 else INF)


def test_cf_matrix_determinant():
    rng = random.Random(34)
    for _ in range(100):
        c = rand_entries(rng, rng.randint(1, 8))
        assert cf_matrix(c).det() == (-1) ** len(c)


def test_finite_cf_value():
    assert finite_cf_value([Fraction(2)]) == 2
    assert finite_cf_value([Fraction(2), Fraction(1)]) == 3
    assert finite_cf_value([Fraction(0), Fraction(5)]) == Fraction(1, 5)
    assert finite_cf_value([]) is INF
    # an interior zero tail sends the value through infinity, not an error
    assert finite_cf_value([Fraction(1), Fraction(-1), Fraction(1)]) is INF
    assert finite_cf_value([Fraction(3), Fraction(1), Fraction(-1), Fraction(1)]) == 3


def test_finite_cf_value_matches_matrix():
    rng = random.Random(35)
    for _ in range(200):
        c = rand_entries(rng, rng.randint(1, 7))
        M = cf_matrix(c)
        v = finite_cf_value(c)
        if M.e21 == 0:
            assert v is INF
        else:
            assert v == Fraction(M.e11, M.e21) if isinstance(v, Fraction) else v == M.e11 / M.e21


def test_convergents_prefixes():
    c = [Fraction(1), Fraction(2), Fraction(2), Fraction(2)]
    assert convergents(c) == [finite_cf_value(c[:i]) for i in range(len(c) + 1)]
    assert convergents(c)[0] is INF
    assert convergents(c)[-1] == Fraction(17, 12)


def test_mat2_algebra():
    rng = random.Random(36)
    for _ in range(150):
        A = Mat2(*rand_entries(rng, 4))
        B = Mat2(*rand_entries(rng, 4))
        assert (A * B).det() == A.det() * B.det()
        assert (A * B).trace() == (B * A).trace()
        if A.det():
            assert A * A.inverse() == Mat2.identity()
    M = Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1))
    assert M ** 3 == M * M * M
    assert M ** 0 == Mat2.identity()
    assert M ** -2 == (M.inverse()) ** 2


def test_mat2_moebius():
    M = Mat2(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert M.moebius(Fraction(1)) == Fraction(3, 7)
    assert M.moebius(INF) == Fraction(1, 3)
    pole = Mat2(Fraction(1), Fraction(1), Fraction(1), Fraction(-1))
    assert pole.moebius(Fraction(1)) is INF
    wmat = Mat2(W, RingElem(0, 0), RingElem(0, 0), RingElem(1, 0))
    assert wmat.moebius(RingElem(1, 1)) == RingElem(2, 1)
    assert wmat.moebius(RingElem(1, 0)) == W


def test_identity_multiple_detection():
    assert Mat2(Fraction(3), Fraction(0), Fraction(0), Fraction(3)).is_identity_multiple()
    assert not Mat2(Fraction(3), Fraction(0), Fraction(0), Fraction(2)).is_identity_multiple()
    assert not Mat2(Fraction(3), Fraction(1), Fraction(0), Fraction(3)).is_identity_multiple()
