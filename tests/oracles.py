"""Independent numeric harnesses shared by several test modules.

Everything here is exact: orbits are tracked in rational (or quadratic ring)
arithmetic and the only approximation ever taken is a certified interval at
the final comparison step.
"""

from fractions import Fraction

from pcflab.continuant import INF, Mat2, finite_cf_value
from pcflab.converge import classify_mobius
from pcflab.intervals import Interval, elem_interval
from pcflab.ring import W, WU, conjugate, sign_under_embedding


def random_det_pm1_matrix(rng, steps=6):
    """Random product of elementary generators; determinant is +1 or -1."""
    M = Mat2.identity()
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0:
            M = M * Mat2(Fraction(1), Fraction(rng.randint(-3, 3)), Fraction(0), Fraction(1))
        elif kind == 1:
            M = M * Mat2(Fraction(1), Fraction(0), Fraction(rng.randint(-3, 3)), Fraction(1))
        elif kind == 2:
            M = M * Mat2(Fraction(0), Fraction(1), Fraction(1), Fraction(0))
        else:
            M = M * Mat2(Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
    return M


def abs_upper(x, prec=256) -> Fraction:
    iv = elem_interval(x, prec)
    return max(abs(iv.lo), abs(iv.hi))


def certified_below(x, bound: Fraction, prec=256) -> bool:
    """True when |x| < bound is certain at the given working precision."""
    return abs_upper(x, prec) < bound


def orbit_of(A: Mat2, z, steps=100):
    """Exact Moebius orbit; stops early on an exact return to the start."""
    out = [z]
    cur = z
    for n in range(steps):
        cur = A.moebius(cur)
        if cur == z or (cur is INF and z is INF):
            return out, ("fixed" if n == 0 else "periodic")
        out.append(cur)
    return out, "open"


def _gap(a, b) -> Fraction:
    # distance in the chart that keeps both arguments finite
    if b is INF:
        if a is INF:
            return Fraction(0)
        return abs_upper(1 / a) if a else Fraction(10 ** 9)
    if a is INF:
        return Fraction(10 ** 9)
    return abs_upper(a - b)


def check_classification_agreement(A: Mat2, z, steps=100, tol=Fraction(1, 10 ** 20)):
    """Compare classify_mobius against the exact orbit; raises on any clash."""
    cls = classify_mobius(A, z)
    orbit, kind = orbit_of(A, z, steps)
    if kind == "fixed":
        ok = cls.outcome == "fixed" or (cls.case == 3 and cls.limit == z)
        assert ok, f"constant orbit but classified case {cls.case} {cls.outcome}"
        return cls
    if kind == "periodic":
        assert cls.outcome == "diverges", f"periodic orbit but classified {cls.outcome}"
        assert cls.case == 5
        return cls
    assert cls.outcome == "converges", f"open orbit but classified case {cls.case} {cls.outcome}"
    assert cls.case in (3, 6)
    last = orbit[-1]
    if cls.case == 6:
        assert last is not INF
        assert certified_below(last - cls.limit, tol), "limit disagreement"
    else:
        # tangent case: drift toward the double root, no exponential rate
        d25, d50, d100 = (_gap(orbit[i], cls.limit) for i in (25, 50, len(orbit) - 1))
        assert d100 < d50 < d25, "no drift toward the tangent fixed point"
    return cls


def cf_matrix_by_blocks(word) -> Mat2:
    """The matrix of a word as the full product of its ``[[c, 1], [1, 0]]`` blocks."""
    out = Mat2.identity()
    for c in word:
        out = out * Mat2(c, 1, 1, 0)
    return out


def _eigenvalue_at(E: Mat2, z):
    if z is INF:
        return E.e11
    return E.e21 * z + E.e22


def _expanding_fixed_point(E: Mat2, points):
    """First point whose eigenvalue ``lam`` has ``lam^2 > 1``, as ``(z, lam, lam^2 - 1)``.

    The reference route for the expanding fixed point: ``lam`` and
    ``lam^2 - 1`` are formed by full products, with no closed form.  None when
    no point qualifies.
    """
    for z in points:
        lam = _eigenvalue_at(E, z)
        m1 = lam * lam - 1
        if sign_under_embedding(m1) > 0:
            return z, lam, m1
    return None


# -- the (1,2) orbit on the un-halved coordinates ------------------------------
#
# The reference route for pcflab.variety.family_orbit: the orbit of the point
# (y1, x1) = (a b, 2 a) of y1^2 x1 + 2 y1 = (2 + w) x1, with the twist divided
# through in field arithmetic.  Carry a curve point over with lift12_from_E
# and each member back with reduce12_to_E.


def _twist_unit(pi):
    tw = W - 1
    if conjugate(pi) / pi != tw * tw:
        raise AssertionError("conjugation twist self-check failed")
    return tw


def family_orbit_y1_x1(y1, x1):
    """The orbit ``{+-(y1, x1), +-((w-1)^-1 conj(y1), (w-1) conj(x1))}`` of a nonzero point."""
    if not y1 and not x1:
        raise ValueError("the zero point has no orbit")
    tw = _twist_unit(WU)
    y2 = conjugate(y1) / tw
    x2 = conjugate(x1) * tw
    orbit = ((y1, x1), (-y1, -x1), (y2, x2), (-y2, -x2))
    if len(set(orbit)) != 4:
        raise AssertionError("orbit members are not distinct")
    return orbit


def truncation_value(P, periods: int):
    """Value of the finite expansion with the period repeated that many times."""
    return finite_cf_value(list(P.pre) + list(P.per) * periods)


# -- logarithms summed in exact Fractions ------------------------------------
#
# The reference route for pcflab.intervals.log10_interval: the atanh series in
# exact rationals on the full-size argument, each enclosure widened by its
# tail bound.  Slow (every term pays a gcd on growing numbers) but it shares
# no code with the fixed-point route.


def atanh_interval(t: Fraction, eps: Fraction) -> Interval:
    """Enclosure of atanh(t) for |t| < 1/2, tail bounded explicitly."""
    if not abs(t) < Fraction(1, 2):
        raise ValueError("atanh argument out of the reduced range")
    total = Fraction(0)
    power = t
    t2 = t * t
    n = 0
    while True:
        total += power / (2 * n + 1)
        n += 1
        power *= t2
        # tail: sum_{m>=n} |t|^(2m+1)/(2m+1) <= |t|^(2n+1)/((2n+1)(1-t^2))
        tail = abs(power) / ((2 * n + 1) * (1 - t2))
        if tail < eps:
            return Interval(total - tail, total + tail)


def ln_interval(q: Fraction, eps: Fraction) -> Interval:
    """Enclosure of ln(q) for rational q > 0, of width about 2*eps."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    f = q / Fraction(2) ** e
    if f >= Fraction(3, 2):
        f /= 2
        e += 1
    elif f < Fraction(3, 4):
        f *= 2
        e -= 1
    ln2 = 2 * atanh_interval(Fraction(1, 3), eps / (4 * max(1, abs(e))))
    return 2 * atanh_interval((f - 1) / (f + 1), eps / 4) + e * ln2


def log10_reference(iv: Interval, digits: int) -> Interval:
    """Enclosure of log10 over a positive interval, in exact Fractions."""
    eps = Fraction(1, 10 ** (digits + 4))
    ln10 = 3 * ln_interval(Fraction(2), eps / 8) + 2 * atanh_interval(Fraction(1, 9), eps / 8)
    lo = ln_interval(iv.lo, eps) / ln10
    hi = ln_interval(iv.hi, eps) / ln10
    return Interval(lo.lo, hi.hi)
