"""Certified rational interval arithmetic for display purposes.

Decision logic elsewhere never relies on this module; it exists so that
decimal output and logarithmic growth rates can be printed with every shown
digit guaranteed.  Endpoints are exact Fractions, square roots come from
integer isqrt bounds, and logarithms from atanh series with explicit tail
bounds.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Union

from .ring import ExtElem, RingElem, exact_fraction

Number = Union[int, Fraction, RingElem, ExtElem]


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
            raise ValueError("cannot enclose a non-real value")
        v = _sqrt_of_interval(th, prec_bits)
        if x.branch < 0:
            v = -v
        return elem_interval(x.x, prec_bits) + elem_interval(x.y, prec_bits) * v
    e = RingElem._wrap(x)
    if e.d is None:
        return Interval(e.a)
    return Interval(e.a) + Interval(e.b) * sqrt_interval(Fraction(e.d), prec_bits)


def value_interval(x: Number, digits: int) -> Interval:
    """Enclosure of width below 10**-(digits+2)."""
    target = Fraction(1, 10 ** (digits + 2))
    prec = 32 + 4 * digits
    for _ in range(24):
        iv = elem_interval(x, prec)
        if iv.width < target:
            return iv
        prec *= 2
    raise ArithmeticError("interval refinement failed to converge")


# ---------------------------------------------------------------------------
# certified logarithms


def _atanh_interval(t: Fraction, eps: Fraction) -> Interval:
    """Enclosure of atanh(t) for |t| < 1/2, tail bounded explicitly."""
    if not abs(t) < Fraction(1, 2):
        raise ValueError("atanh argument out of the reduced range")
    total = Fraction(0)
    power = t
    t2 = t * t
    n = 0
    while True:
        term = power / (2 * n + 1)
        total += term
        n += 1
        power *= t2
        # tail: sum_{m>=n} |t|^(2m+1)/(2m+1) <= |t|^(2n+1)/((2n+1)(1-t^2))
        tail = abs(power) / ((2 * n + 1) * (1 - t2))
        if tail < eps:
            return Interval(total - tail, total + tail)
        if n > 10000:
            raise ArithmeticError("atanh series did not reach the tolerance")


_LN_CACHE: dict = {}


def _ln2_interval(eps: Fraction) -> Interval:
    key = ("ln2", eps)
    if key not in _LN_CACHE:
        _LN_CACHE[key] = 2 * _atanh_interval(Fraction(1, 3), eps / 4)
    return _LN_CACHE[key]


def _ln10_interval(eps: Fraction) -> Interval:
    # ln 10 = 3 ln 2 + ln(10/8), and ln(5/4) = 2 atanh(1/9)
    key = ("ln10", eps)
    if key not in _LN_CACHE:
        _LN_CACHE[key] = 3 * _ln2_interval(eps / 8) + 2 * _atanh_interval(
            Fraction(1, 9), eps / 8
        )
    return _LN_CACHE[key]


def _ln_fraction(q: Fraction, eps: Fraction) -> Interval:
    """Enclosure of ln(q) for rational q > 0."""
    if q <= 0:
        raise ValueError("log of a nonpositive number")
    e = q.numerator.bit_length() - q.denominator.bit_length()
    f = q / Fraction(2) ** e
    # pull f into [3/4, 3/2) so the atanh argument stays small
    if f >= Fraction(3, 2):
        f /= 2
        e += 1
    elif f < Fraction(3, 4):
        f *= 2
        e -= 1
    t = (f - 1) / (f + 1)
    ln_f = 2 * _atanh_interval(t, eps / 4)
    return ln_f + e * _ln2_interval(eps / (4 * max(1, abs(e))))


def log10_interval(iv: Interval, digits: int = 30) -> Interval:
    """Enclosure of log10 over a positive interval."""
    if iv.lo <= 0:
        raise ValueError("log of an interval touching zero")
    eps = Fraction(1, 10 ** (digits + 4))
    lo = _ln_fraction(iv.lo, eps)
    hi = _ln_fraction(iv.hi, eps)
    ln10 = _ln10_interval(eps)
    return Interval((lo / ln10).lo, (hi / ln10).hi)


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
    if isinstance(x, (int, Fraction)) or (isinstance(x, RingElem) and x.d is None):
        q = x.a if isinstance(x, RingElem) else Fraction(x)
        return format_scaled(_round_scaled(q, 10 ** digits), digits)
    scale = 10 ** digits
    prec = 32 + 4 * digits
    for _ in range(24):
        iv = elem_interval(x, prec)
        rlo = _round_scaled(iv.lo, scale)
        if rlo == _round_scaled(iv.hi, scale):
            return format_scaled(rlo, digits)
        prec *= 2
    # only a value on a rounding boundary gets here, and an irrational value
    # cannot sit on one
    raise ArithmeticError("could not certify the rounded digits")


def interval_decimal_str(iv: Interval, digits: int) -> str:
    """Fixed-point decimal for an interval already narrower than the target."""
    scale = 10 ** digits
    rlo = _round_scaled(iv.lo, scale)
    rhi = _round_scaled(iv.hi, scale)
    if rlo != rhi:
        raise ArithmeticError("interval too wide for the requested digits")
    return format_scaled(rlo, digits)
