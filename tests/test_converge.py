"""Convergence verdicts, divergence taxonomy, iteration classification, rates."""

import random
from fractions import Fraction

import mpmath
import pytest

from oracles import (
    abs_upper,
    certified_below,
    check_classification_agreement,
    random_det_pm1_matrix,
    truncation_value,
)
from pcflab import converge
from pcflab.continuant import INF, Mat2
from pcflab.converge import (
    ELLIPTIC,
    IDENTITY_MULTIPLE,
    INEQ,
    LOXODROMIC,
    PARABOLIC,
    classify_mobius,
    ineq_check,
    rate,
    verdict,
)
from pcflab.pcf import IdentityMultipleError, Pcf, dual, e_matrix, roots
from pcflab.ring import ExtElem, RingElem, W, sign_under_embedding


def test_headline_trio():
    v = verdict(Pcf.parse("[1; 2]"))
    assert v.converges and v.reason == LOXODROMIC
    assert type(v.value) is RingElem
    assert v.value == W and v.value - W == 0 and hash(v.value) == hash(W)

    v = verdict(Pcf.parse("[1; -1, 2]"))
    assert not v.converges and v.reason == ELLIPTIC

    v = verdict(Pcf.parse("[1; -2, 2]"))
    assert v.converges and v.reason == PARABOLIC
    assert v.value == 0


def test_ineq_divergence_example():
    v = verdict(Pcf.parse("[; 2, -1/2, 1]"))
    assert not v.converges and v.reason == INEQ
    assert v.pariah_index == 2
    assert v.pariah_limit == 0


def test_identity_multiple_divergence():
    v = verdict(Pcf((), (Fraction(0), Fraction(0))))
    assert not v.converges and v.reason == IDENTITY_MULTIPLE


def test_ineq_check_rotations():
    assert ineq_check((Fraction(2), Fraction(-1, 2), Fraction(1))) == 2
    assert ineq_check((Fraction(1), Fraction(2), Fraction(-1, 2))) == 0
    assert ineq_check((Fraction(2), Fraction(2))) is None
    assert ineq_check((Fraction(2),)) is None


def rand_pcf(rng, d=None):
    def entry():
        if d == 2:
            return RingElem(rng.randint(-4, 4), rng.randint(-1, 1))
        q = Fraction(rng.randint(-4, 4))
        return q if rng.random() < 0.85 else q + Fraction(1, 2)

    return Pcf(
        tuple(entry() for _ in range(rng.randint(0, 3))),
        tuple(entry() for _ in range(rng.randint(1, 5))),
    )


def test_elliptic_reason_matches_trace_window():
    """Elliptic divergence happens exactly on the finite-rotation trace window."""
    rng = random.Random(51)
    seen_elliptic = 0
    for _ in range(1000):
        P = rand_pcf(rng, d=2 if rng.random() < 0.25 else None)
        E = e_matrix(P)
        if E.is_identity_multiple():
            continue
        v = verdict(P)
        tr = E.trace()
        signed_sq = tr * tr * (-1) ** P.k
        disc = tr * tr - 4 * E.det()
        in_window = (
            sign_under_embedding(signed_sq) >= 0
            and sign_under_embedding(4 - signed_sq) > 0
            and disc != 0
        )
        assert (v.reason == ELLIPTIC) == in_window
        seen_elliptic += v.reason == ELLIPTIC
    assert seen_elliptic > 50


def test_loxodromic_eigenvalue_identities():
    rng = random.Random(52)
    seen = 0
    for _ in range(400):
        P = rand_pcf(rng)
        v = verdict(P)
        if not (v.converges and v.reason == LOXODROMIC):
            continue
        E = e_matrix(P)
        lam = v.eigenvalue
        other = E.trace() - lam
        assert lam * other == E.det()
        assert sign_under_embedding(v.eigen_modulus_sq_minus_1) > 0
        assert sign_under_embedding(lam * lam - 1) > 0
        seen += 1
    assert seen > 150


def test_dual_of_loxodromic_converges_to_other_root():
    rng = random.Random(53)
    seen = 0
    for _ in range(400):
        P = rand_pcf(rng)
        v = verdict(P)
        if not (v.converges and v.reason == LOXODROMIC):
            continue
        vd = verdict(dual(P))
        if not vd.converges or vd.reason != LOXODROMIC:
            # the reversed period can hit its own degenerate rotation
            continue
        pair = set(roots(P))
        assert v.value != vd.value
        assert {v.value, vd.value} == pair
        seen += 1
    assert seen > 120


def test_numeric_truncation_oracle():
    """Deep finite truncations must land on the certified limit."""
    rng = random.Random(54)
    seen = 0
    while seen < 60:
        P = rand_pcf(rng)
        v = verdict(P)
        if not (v.converges and v.reason == LOXODROMIC) or v.value is INF:
            continue
        # digits gained per convergent; a period gains k times as many, so
        # counting periods with it leaves a wide margin
        per_convergent = 1 / rate(P).convergents_per_digit.mid
        if per_convergent < Fraction(1, 5):
            periods, tol = 400, Fraction(1, 1000)
        else:
            periods = int(22 / per_convergent) + 40
            tol = Fraction(1, 10 ** 20)
        x = truncation_value(P, periods)
        if x is INF:
            continue
        assert certified_below(x - v.value, tol, prec=512)
        seen += 1


def test_parabolic_truncations_drift_home():
    P = Pcf.parse("[1; -2, 2]")
    v = verdict(P)
    gaps = [abs_upper(truncation_value(P, t) - v.value) for t in (10, 40, 160)]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < Fraction(1, 100)


def test_ineq_pariah_subsequence():
    P = Pcf.parse("[; 2, -1/2, 1]")
    v = verdict(P)
    j = v.pariah_index
    # truncations cut just after the pariah residue class stay put
    word = list(P.per) * 30
    from pcflab.continuant import finite_cf_value

    for t in (6, 12, 24):
        cut = word[: 3 * t + j]
        assert finite_cf_value(cut) == v.pariah_limit


FIX_THETA = RingElem(2, 0)


def test_classify_cases_deterministic():
    # scalar matrix: everything is already home
    c = classify_mobius(Mat2(Fraction(-1), Fraction(0), Fraction(0), Fraction(-1)), Fraction(7))
    assert (c.case, c.outcome, c.limit) == (1, "fixed", Fraction(7))

    # rotation started at one of its fixed points stays there
    A = Mat2(Fraction(1), Fraction(2), Fraction(0), Fraction(-1))
    c = classify_mobius(A, Fraction(-1))
    assert (c.case, c.outcome, c.limit) == (2, "fixed", Fraction(-1))

    # tangent case: single fixed point attracts every start
    A = Mat2(Fraction(1), Fraction(1), Fraction(0), Fraction(1))
    c = classify_mobius(A, Fraction(5))
    assert (c.case, c.outcome) == (3, "converges")
    assert c.limit is INF
    A = Mat2(Fraction(3), Fraction(-4), Fraction(1), Fraction(-1))
    c = classify_mobius(A, Fraction(0))
    assert (c.case, c.outcome, c.limit) == (3, "converges", Fraction(2))

    # starting exactly on the repelling fixed point pins the orbit there
    lox = Mat2(Fraction(2), Fraction(1), Fraction(1), Fraction(1))
    rep = ExtElem(Fraction(1, 2), Fraction(-1, 2), 5)  # (1 - sqrt 5) / 2
    c = classify_mobius(lox, rep)
    assert (c.case, c.outcome) == (4, "fixed")
    assert c.limit == rep

    # rotation from a generic start never settles
    A = Mat2(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
    c = classify_mobius(A, Fraction(2))
    assert (c.case, c.outcome) == (5, "diverges")

    # generic start under a loxodromic map reaches the attracting point
    att = ExtElem(Fraction(1, 2), Fraction(1, 2), 5)
    c = classify_mobius(lox, Fraction(1))
    assert (c.case, c.outcome) == (6, "converges")
    assert c.limit == att
    c = classify_mobius(lox, att)
    assert (c.case, c.outcome) == (6, "converges")


def test_classify_against_orbit_sample():
    rng = random.Random(55)
    for _ in range(200):
        A = random_det_pm1_matrix(rng)
        if A.is_identity_multiple() and rng.random() < 0.7:
            continue
        z = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        check_classification_agreement(A, z)


def test_classify_inf_start():
    rng = random.Random(56)
    for _ in range(50):
        A = random_det_pm1_matrix(rng)
        check_classification_agreement(A, INF)


def test_rate_headline_values():
    r = rate(Pcf.parse("[1; 2]"))
    assert not r.parabolic
    # 1 / (2 log10(1 + sqrt 2)) = 1.30625...
    assert Fraction(130, 100) < r.convergents_per_digit.mid < Fraction(131, 100)
    assert Fraction(24142, 10 ** 4) < r.eigen_abs.mid < Fraction(24143, 10 ** 4)

    r = rate(Pcf.parse("[1; 2, 2]"))
    assert Fraction(130, 100) < r.convergents_per_digit.mid < Fraction(131, 100)

    assert rate(Pcf.parse("[1; -2, 2]")).parabolic

    with pytest.raises(ValueError):
        rate(Pcf.parse("[1; -1, 2]"))


def test_rate_one_pass_when_the_eigenvalue_is_far_from_one(monkeypatch):
    calls = []
    log10 = converge.log10_interval

    def counted(iv, digits):
        calls.append(digits)
        return log10(iv, digits)

    monkeypatch.setattr(converge, "log10_interval", counted)
    for text in ("[1; 2]", "[;-4-w,-4,5]", "[442+312*w;-298532+211094*w,884+624*w]"):
        calls.clear()
        rate(Pcf.parse(text), 40)
        assert calls == [48]


@pytest.mark.parametrize("n", [116, 118, 120])
def test_rate_near_unit_eigenvalue_matches_mpmath(n):
    # [; u^n, 1], u = sqrt2 - 1: the period matrix has trace c + 2 and
    # determinant 1 for c = u^n, so |lambda| - 1 is about sqrt(c)
    c = RingElem(-1, 1) ** n
    r = rate(Pcf.parse(f"[;{c},1]"))
    cpd = r.convergents_per_digit
    assert cpd.width <= cpd.lo / 10 ** 12
    with mpmath.workdps(120):
        tr = mpmath.mpf(c.a) + mpmath.mpf(c.b) * mpmath.sqrt(2) + 2
        lam = (tr + mpmath.sqrt(tr * tr - 4)) / 2
        expected = 1 / mpmath.log10(lam)
        assert mpmath.mpf(cpd.lo.numerator) / cpd.lo.denominator <= expected
        assert expected <= mpmath.mpf(cpd.hi.numerator) / cpd.hi.denominator


def test_verdict_value_is_attracting_root():
    rng = random.Random(57)
    seen = 0
    for _ in range(300):
        P = rand_pcf(rng)
        v = verdict(P)
        if not (v.converges and v.reason == LOXODROMIC):
            continue
        pair = roots(P)
        assert v.value in pair
        seen += 1
    assert seen > 100
