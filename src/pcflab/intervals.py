"""Certified rational interval arithmetic for display purposes.

Decision logic elsewhere never relies on this module; it exists so that
decimal output and logarithmic growth rates can be printed with every shown
digit guaranteed.  Endpoints are exact Fractions and square roots come from
integer isqrt bounds.  Logarithms sum atanh series on fixed-point Python ints
with directed rounding: one sum rounded down, one rounded up plus an explicit
tail bound.  The decimal refinements share one precision-doubling loop.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .ring import ExtElem, RingElem, exact_fraction

Number = int | Fraction | RingElem | ExtElem


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = exact_fraction(lo)
        hi = exact_fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, q) -> bool:
        q = exact_fraction(q)
        return self.lo <= q <= self.hi

    def __add__(self, other):
        o = _as_interval(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _as_interval(other)
        ps = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(ps), max(ps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_interval(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("divisor interval straddles zero")
        inv = Interval(1 / o.hi, 1 / o.lo)
        return self * inv

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(x)


def sqrt_interval(q: Fraction, prec_bits: int) -> Interval:
    """Certified enclosure of sqrt(q) for rational q >= 0."""
    q = exact_fraction(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    scale = 1 << prec_bits
    s2 = scale * scale
    flo = (q.numerator * s2) // q.denominator
    fhi = -((-q.numerator * s2) // q.denominator)
    lo = math.isqrt(flo)
    hi = math.isqrt(fhi) + 1
    return Interval(Fraction(lo, scale), Fraction(hi, scale))


def _sqrt_of_interval(iv: Interval, prec_bits: int) -> Interval:
    lo = sqrt_interval(iv.lo, prec_bits).lo
    hi = sqrt_interval(iv.hi, prec_bits).hi
    return Interval(lo, hi)


def elem_interval(x: Number, prec_bits: int = 96) -> Interval:
    """Enclosure of a ring or extension element at roughly 2^-prec_bits width."""
    if isinstance(x, ExtElem):
        th = elem_interval(x.theta, prec_bits)
        if th.lo < 0:
            # cancellation can push the enclosure of a tiny positive theta
            # below 0; only the exact sign decides that x is not real
            if x.theta.sign_under_embedding() < 0:
                raise ValueError("cannot enclose a non-real value")
            th = Interval(0, th.hi)
        v = _sqrt_of_interval(th, prec_bits)
        return elem_interval(x.x, prec_bits) + elem_interval(x.y, prec_bits) * v
    e = RingElem._wrap(x)
    if not e.b:
        return Interval(e.a)
    return Interval(e.a) + Interval(e.b) * sqrt_interval(2, prec_bits)


def refine(attempt, prec: int):
    """First result of ``attempt(prec)`` that is not None, doubling ``prec``.

    Gives up with ``ArithmeticError`` after 24 tries.
    """
    for _ in range(24):
        out = attempt(prec)
        if out is not None:
            return out
        prec *= 2
    raise ArithmeticError("interval refinement failed to converge")


def value_interval(x: Number, digits: int) -> Interval:
    """Enclosure of width below 10**-(digits+2)."""
    target = Fraction(1, 10 ** (digits + 2))

    def attempt(prec):
        iv = elem_interval(x, prec)
        return iv if iv.width < target else None

    return refine(attempt, 32 + 4 * digits)


# ---------------------------------------------------------------------------
# certified logarithms
#
# Everything below runs on Python ints at a binary scale 2^P: a pair (L, H)
# of ints stands for the enclosure [L/2^P, H/2^P].  Every quantity the series
# touches is nonnegative, so rounding each product and quotient down gives a
# lower bound and rounding it up gives an upper bound, with no per-operation
# error analysis (Brent and Zimmermann, Modern Computer Arithmetic, 2010, 4).


def _atanh_bounds(s: int, m: int, P: int, stop: int) -> tuple[int, int]:
    """Ints ``(L, H)`` with ``L <= atanh(s/m) * 2^P <= H``, for ``0 <= s/m <= 1/2``.

    The argument is rounded outward to ``x_lo = T_lo/2^P <= s/m <= T_hi/2^P
    = x_hi``; atanh is increasing, so it suffices to bound ``atanh(x_lo)``
    from below and ``atanh(x_hi)`` from above.  Both sums run over the same
    terms ``x^(2n+1)/(2n+1)``, all nonnegative:

    * the lower sum floors ``x_lo^2`` and every power and quotient, so each
      term, and so each partial sum, is at most the exact one, which is at
      most ``atanh(x_lo)``;
    * the upper sum ceils ``x_hi^2`` and every power and quotient, so each
      term is at least the exact one, and after the last term it adds the
      tail ``sum_{m>=n} x^(2m+1)/(2m+1) <= x^(2n+1)/((2n+1)(1-x^2))
      <= (4/3) x^(2n+1)/(2n+1)``, since ``x_hi <= 1/2``.

    The series stops once the scaled power ``x_hi^(2n+1) 2^P`` is at most
    ``2^stop``, so the tail is below ``2^(stop+1)`` ulps.  Since
    ``x^2 <= 1/4``, the rounding error of the powers stays below 2 ulps, so
    each term adds at most 3 ulps of rounding on each side.
    """
    t_lo = (s << P) // m
    t_hi = -((-s << P) // m)
    sq_lo = (t_lo * t_lo) >> P
    sq_hi = -((-t_hi * t_hi) >> P)
    lo = hi = 0
    p, q, n = t_lo, t_hi, 1
    while q > 1 << stop:
        lo += p // n
        hi += -(-q // n)
        p = (p * sq_lo) >> P
        q = -((-q * sq_hi) >> P)
        n += 2
    return lo, hi - (-4 * q // (3 * n))


# "ln2" and "ln10" -> (P, lo, hi): one enclosure each, at the highest P so far
_LN_CACHE: dict = {}


def _ln_constants(P: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Scaled bounds ``((ln2_lo, ln2_hi), (ln10_lo, ln10_hi))`` at ``2^P``.

    ln 2 = 2 atanh(1/3) and ln 10 = 3 ln 2 + 2 atanh(1/9), since
    ln(5/4) = 2 atanh(1/9).  Both are summed once to the last ulp, at
    ``P`` plus enough guard bits that the rounding slack of the sums stays
    under an ulp of ``2^P``, and cached.  A request at a smaller ``P`` shifts
    the cached ints: a floor shift of a lower bound and a ceiling shift of
    an upper bound stay bounds.
    """
    hit = _LN_CACHE.get("ln2")
    if hit is None or hit[0] < P:
        bits = P + P.bit_length() + 4
        a_lo, a_hi = _atanh_bounds(1, 3, bits, 0)
        b_lo, b_hi = _atanh_bounds(1, 9, bits, 0)
        _LN_CACHE["ln2"] = (bits, 2 * a_lo, 2 * a_hi)
        _LN_CACHE["ln10"] = (bits, 6 * a_lo + 2 * b_lo, 6 * a_hi + 2 * b_hi)

    def shifted(key):
        bits, lo, hi = _LN_CACHE[key]
        return lo >> (bits - P), -((-hi) >> (bits - P))

    return shifted("ln2"), shifted("ln10")


def _reduce(q: Fraction) -> tuple[int, int, int]:
    """``(s, m, e)`` with ``q = 2^e (m + s)/(m - s)`` and ``|s|/m < 1/5``.

    ``f = q / 2^e`` is pulled into ``[3/4, 3/2)`` exactly, and
    ``t = s/m = (f - 1)/(f + 1)``, so ``ln q = 2 atanh(t) + e ln 2``.
    """
    num, den = q.numerator, q.denominator
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        den <<= e
    else:
        num <<= -e
    if 2 * num >= 3 * den:
        den <<= 1
        e += 1
    elif 4 * num < 3 * den:
        num <<= 1
        e -= 1
    return num - den, num + den, e


def _ln_bounds(
    reduced: tuple[int, int, int], P: int, stop: int, ln2: tuple[int, int]
) -> tuple[int, int]:
    """Scaled bounds on ``ln(2^e (m + s)/(m - s)) = 2 atanh(s/m) + e ln 2``.

    ``reduced`` is ``(s, m, e)`` from ``_reduce``.  atanh is odd, so a
    negative ``s`` takes ``-atanh(|s|/m)``: the series only ever sees a
    nonnegative argument.  ``e ln 2`` takes the lower or upper bound of
    ln 2 by the sign of ``e``.
    """
    s, m, e = reduced
    lo, hi = _atanh_bounds(abs(s), m, P, stop)
    if s < 0:
        lo, hi = -hi, -lo
    l2_lo, l2_hi = ln2 if e >= 0 else ln2[::-1]
    return 2 * lo + e * l2_lo, 2 * hi + e * l2_hi


def log10_interval(iv: Interval, digits: int = 30) -> Interval:
    """Enclosure of log10 over a positive interval.

    The width is at most ``10**-(digits+4)`` plus the width of
    ``log10(iv)`` itself.  With ``e`` the larger binary exponent of the two
    endpoints:

    * ``2^-W <= 10**-(digits+4)``;
    * each atanh series stops once its tail is below ``2^-(W+g-1)``, where
      the ``g = bit_length(|e|) + 4`` guard bits absorb the factor 2 of
      ``2 atanh`` and the factor ``|e|`` by which ``e ln 2`` multiplies the
      width of ln 2;
    * the scale ``P`` adds ``bit_length(W+g) + 4`` bits, so the rounding of
      the at most ``P/2`` terms, 6 ulps each, stays below ``2^-(W+g+1)``.

    So each endpoint's ln is known to within ``2^-(W+1)``, and ln 10 > 2.
    The quotient by ln 10 is rounded outward: a floor over the bound of
    ln 10 that makes the quotient smallest, a ceiling over the one that
    makes it largest.
    """
    if iv.lo <= 0:
        raise ValueError("log of an interval touching zero")
    ends = (_reduce(iv.lo), _reduce(iv.hi))
    W = -(-(digits + 4) * 3322 // 1000)  # 3.322 > log2(10)
    g = max(abs(e) for _, _, e in ends).bit_length() + 4
    P = W + g + (W + g).bit_length() + 4
    ln2, (l10_lo, l10_hi) = _ln_constants(P)
    ln_lo = _ln_bounds(ends[0], P, P - W - g, ln2)[0]
    ln_hi = _ln_bounds(ends[1], P, P - W - g, ln2)[1]
    lo = (ln_lo << P) // (l10_hi if ln_lo >= 0 else l10_lo)
    hi = -((-ln_hi << P) // (l10_lo if ln_hi >= 0 else l10_hi))
    return Interval(Fraction(lo, 1 << P), Fraction(hi, 1 << P))


# ---------------------------------------------------------------------------
# decimal printing


def _round_scaled(q: Fraction, scale: int) -> int:
    # floor(q*scale + 1/2): deterministic round-half-up
    num = 2 * q.numerator * scale + q.denominator
    return num // (2 * q.denominator)


def format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    # Decimal converts exactly and, unlike str(int), has no 4300-digit limit
    text = str(Decimal(abs(n)))
    if digits == 0:
        return sign + text
    text = text.zfill(digits + 1)
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def decimal_str(x: Number, digits: int) -> str:
    """Fixed-point decimal with every printed digit certified."""
    scale = 10 ** digits

    def attempt(prec):
        iv = elem_interval(x, prec)
        rlo = _round_scaled(iv.lo, scale)
        return rlo if rlo == _round_scaled(iv.hi, scale) else None

    # a rational value encloses as a point, so both ends round alike at once;
    # an irrational value never sits on a rounding boundary, so it settles
    return format_scaled(refine(attempt, 32 + 4 * digits), digits)


def _g6_str(q: Fraction) -> str:
    """``format(q, ".6g")`` of an exact rational, rounding half to even."""
    if not q:
        return "0"
    n, d = abs(q.numerator), q.denominator
    # e estimates floor(log10 |q|) from the bit lengths; the loops fix it so
    # that num/den = |q| * 10^(5-e) lies in [10^5, 10^6)
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    num, den = (n * 10 ** (5 - e), d) if e <= 5 else (n, d * 10 ** (e - 5))
    while num < 10 ** 5 * den:
        num, e = num * 10, e - 1
    while num >= 10 ** 6 * den:
        den, e = den * 10, e + 1
    # six significant digits, rounded half to even
    m, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and m % 2):
        m += 1
    if m == 10 ** 6:
        m, e = 10 ** 5, e + 1
    fixed = -4 <= e < 6
    text = format_scaled(m, 5 - e if fixed else 5)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return ("-" if q < 0 else "") + text + ("" if fixed else f"e{e:+03d}")


def interval_g6_str(iv: Interval) -> Optional[str]:
    """``%.6g`` text of the value enclosed by ``iv``, or None when the two
    ends print differently; rounding is monotone, so every digit is certified."""
    lo = _g6_str(iv.lo)
    return lo if lo == _g6_str(iv.hi) else None


def interval_decimal_str(iv: Interval, digits: int) -> str:
    """Fixed-point decimal for an interval already narrower than the target."""
    scale = 10 ** digits
    rlo = _round_scaled(iv.lo, scale)
    rhi = _round_scaled(iv.hi, scale)
    if rlo != rhi:
        raise ArithmeticError("interval too wide for the requested digits")
    return format_scaled(rlo, digits)
