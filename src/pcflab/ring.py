"""Exact arithmetic in Q(sqrt 2) and its quadratic extensions.

Two element types:

* :class:`RingElem` -- ``a + b*w`` with ``w = sqrt 2`` and exact rational
  ``a, b``.  Q(sqrt 2) is the package's one field: plain rationals are the
  elements with ``b == 0``.  A coordinate is an ``int`` when integral and a
  ``Fraction`` only when its denominator is not 1; every true quotient is
  formed with ``Fraction``, so no ``int / int`` ever makes a float.
* :class:`ExtElem` -- ``x + y*v`` with ``v*v == theta`` for a non-square
  ``theta`` from Q(sqrt 2), where ``v`` is the positive real root: the two
  conjugates ``x +- y*v`` differ only in the sign of ``y``.

:func:`format_elem` prints both element types.  Every internal self-check
of the package fails with :class:`SelfCheckError`.

All comparisons reduce to rational sign tests; no floating point is used in
any decision, and no element converts to a float.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

Rat = int | Fraction


class SelfCheckError(AssertionError):
    """An exact self-check inside the package failed: a derived value missed
    the residual or membership test that certifies it.  Raised explicitly,
    never by ``assert``, so ``python -O`` cannot remove it."""


def _rat_sqrt(q: Rat) -> Optional[Rat]:
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return 0
    n, m = q.numerator, q.denominator
    rn, rm = math.isqrt(n), math.isqrt(m)
    if rn * rn == n and rm * rm == m:
        return Fraction(rn, rm)
    return None


def _sgn(q: Rat) -> int:
    return (q > 0) - (q < 0)


def exact_fraction(x) -> Fraction:
    """``Fraction(x)``, refusing floats: no float may enter an exact value."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is inexact; pass an int, a Fraction or a string")
    return Fraction(x)


def _coord(x) -> Rat:
    """The stored form of a coordinate: an ``int``, or a ``Fraction`` that is not integral."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = exact_fraction(x)
    return x.numerator if x.denominator == 1 else x


def power(x, k: int, one):
    """``x**k`` by repeated squaring from the identity ``one``.

    A negative ``k`` raises ``x.inverse()`` to ``-k``.
    """
    base = x if k >= 0 else x.inverse()
    k = abs(k)
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


class RingElem:
    """``a + b*sqrt(2)`` with exact rational coordinates; a rational when ``b == 0``.

    A coordinate is an ``int`` or a ``Fraction`` whose denominator is not 1,
    never a float: one stored form per value.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Rat = 0, b: Rat = 0):
        object.__setattr__(self, "a", _coord(a))
        object.__setattr__(self, "b", _coord(b))

    def __setattr__(self, *_):
        raise AttributeError("RingElem is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _wrap(x) -> "RingElem":
        o = _operand(x)
        if o is None:
            raise TypeError(f"cannot interpret {x!r} as a ring element")
        return o

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return RingElem(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return RingElem(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return RingElem(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "RingElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero ring element")
        return RingElem(Fraction(self.a, n), Fraction(-self.b, n))

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._wrap(other) * self.inverse()

    def __pow__(self, k: int) -> "RingElem":
        if not isinstance(k, int):
            return NotImplemented
        return power(self, k, RingElem(1))

    def __neg__(self):
        return RingElem(-self.a, -self.b)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, RingElem):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        return f"RingElem({str(self)!r})"

    def __str__(self):
        return format_elem(self)

    # -- field/ring operations -------------------------------------------

    def norm(self) -> Rat:
        """Field norm down to the rationals (``a*a - 2*b*b``)."""
        return self.a * self.a - 2 * self.b * self.b

    def conjugate(self) -> "RingElem":
        return RingElem(self.a, -self.b)

    def trace(self) -> Rat:
        return 2 * self.a

    def sign_under_embedding(self) -> int:
        """Sign of the element under the embedding with ``sqrt(2) > 0``."""
        a, b = self.a, self.b
        if b == 0:
            return _sgn(a)
        if a == 0:
            return _sgn(b)
        sa, sb = _sgn(a), _sgn(b)
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b|*sqrt(2) decided by squares
        return sa * _sgn(a * a - 2 * b * b)

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1


def _operand(x) -> Optional[RingElem]:
    """``x`` as a ``RingElem`` when it is one, an ``int`` or a ``Fraction``; else None."""
    if isinstance(x, RingElem):
        return x
    if isinstance(x, (int, Fraction)):
        return RingElem(x)
    return None


# the constants of Z[sqrt(2)]: w = sqrt(2), the fundamental unit 1 + w, and 2 + w
W = RingElem(0, 1)
U = RingElem(1, 1)
WU = RingElem(2, 1)


# module-level aliases mirroring the method names, convenient for mapping
def norm(e) -> Rat:
    return RingElem._wrap(e).norm()


def conjugate(e) -> RingElem:
    return RingElem._wrap(e).conjugate()


def sign_under_embedding(e) -> int:
    if isinstance(e, ExtElem):
        return e.sign_under_embedding()
    return RingElem._wrap(e).sign_under_embedding()


def rational_sqrt(e) -> Optional[RingElem]:
    """The nonnegative rational square root of ``e``, or None.

    This is the square root over Q, the one a scan over the plain integers
    needs: ``8`` has none here, though ``sqrt_in_ring(8)`` is ``2*w``.
    """
    e = RingElem._wrap(e)
    s = None if e.b else _rat_sqrt(e.a)
    return None if s is None else RingElem(s)


def sqrt_in_ring(e) -> Optional[RingElem]:
    """Square root of ``e`` inside Q(sqrt 2), canonical nonnegative branch.

    Returns None when ``e`` is not a square there.
    """
    e = RingElem._wrap(e)
    if not e.b:
        # a rational is a square in Q(sqrt 2) iff it, or its half, is a rational square
        s = rational_sqrt(e)
        if s is not None:
            return s
        y = _rat_sqrt(Fraction(e.a, 2))
        return None if y is None else RingElem(0, y)
    s = _rat_sqrt(e.norm())
    if s is None:
        return None
    for t in (Fraction(e.a + s, 2), Fraction(e.a - s, 2)):
        # t == 0 would force b == 0, so an irrational e needs x0 != 0
        x0 = _rat_sqrt(t)
        if not x0:
            continue
        r = RingElem(x0, Fraction(e.b, 2 * x0))
        if r * r == e:
            return r if r.sign_under_embedding() >= 0 else -r
    return None


def unit_power(u, k: int) -> RingElem:
    u = RingElem._wrap(u)
    if not u.is_unit():
        raise ValueError(f"{u} is not a unit")
    return u ** k


def residue_class(e, m: int) -> tuple:
    """Coordinatewise reduction mod ``m`` for an integral element."""
    e = RingElem._wrap(e)
    if not e.is_integral():
        raise ValueError(f"{e} is not integral")
    return (int(e.a) % m, int(e.b) % m)


# ---------------------------------------------------------------------------


class ExtElem:
    """``x + y*v`` with ``v*v == theta``, theta a non-square base element.

    ``v`` is the positive real square root of ``theta`` under the base
    embedding, so the sign of ``y`` alone says which root a value carries:
    the conjugate of ``x + y*v`` is ``x - y*v``.  Equality is equality of the
    represented value, so e.g. ``sqrt(8+8w)/2`` equals ``sqrt(2+2w)``.
    """

    __slots__ = ("x", "y", "theta")

    def __init__(self, x, y, theta):
        x = RingElem._wrap(x)
        y = RingElem._wrap(y)
        theta = RingElem._wrap(theta)
        if not theta:
            raise ValueError("theta must be nonzero")
        if sqrt_in_ring(theta) is not None:
            raise ValueError(f"theta={theta} is a square; extension degenerates")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def _unchecked(cls, x: RingElem, y: RingElem, theta: RingElem) -> "ExtElem":
        """``x + y*v`` for a ``theta`` already proved a non-square.

        Arithmetic results reuse their operands' extension, so they skip the
        non-square proof that the public constructor runs.
        """
        e = object.__new__(cls)
        object.__setattr__(e, "x", x)
        object.__setattr__(e, "y", y)
        object.__setattr__(e, "theta", theta)
        return e

    def _sibling(self, x: RingElem, y: RingElem) -> "ExtElem":
        """``x + y*v`` in the extension of ``self``."""
        return ExtElem._unchecked(x, y, self.theta)

    def __setattr__(self, *_):
        raise AttributeError("ExtElem is immutable")

    def _compat(self, other: "ExtElem"):
        if self.theta != other.theta:
            raise ValueError("elements live in different extensions")

    @staticmethod
    def _lift(v, like: "ExtElem") -> "ExtElem":
        if isinstance(v, ExtElem):
            return v
        return like._sibling(RingElem._wrap(v), RingElem(0))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        try:
            o = self._lift(other, self)
        except TypeError:
            return NotImplemented
        self._compat(o)
        return self._sibling(self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._lift(other, self))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            o = self._lift(other, self)
        except TypeError:
            return NotImplemented
        self._compat(o)
        return self._sibling(
            self.x * o.x + self.theta * self.y * o.y,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExtElem":
        n = self.ext_norm()
        if not n:
            raise ZeroDivisionError("division by zero extension element")
        return self._sibling(self.x / n, -self.y / n)

    def __truediv__(self, other):
        o = self._lift(other, self)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._lift(other, self) * self.inverse()

    def __pow__(self, k: int) -> "ExtElem":
        if not isinstance(k, int):
            return NotImplemented
        return power(self, k, self._sibling(RingElem(1), RingElem(0)))

    def __neg__(self):
        return self._sibling(-self.x, -self.y)

    def __bool__(self):
        return bool(self.x) or bool(self.y)

    # -- value identity ---------------------------------------------------

    def _radical_key(self):
        # (y^2*theta, sign of y-part as a real number); None when y == 0
        if not self.y:
            return None
        sq = self.y * self.y * self.theta
        return (sq, self.y.sign_under_embedding())

    def __eq__(self, other):
        if isinstance(other, ExtElem):
            return self.x == other.x and self._radical_key() == other._radical_key()
        if isinstance(other, (int, Fraction, RingElem)):
            return not self.y and self.x == other
        return NotImplemented

    def __hash__(self):
        key = self._radical_key()
        if key is None:
            return hash(self.x)
        return hash((self.x, key))

    def __repr__(self):
        return f"ExtElem({self.x!s}, {self.y!s}, theta={self.theta!s})"

    def __str__(self):
        return format_elem(self)

    # -- operations -------------------------------------------------------

    def ext_norm(self) -> RingElem:
        return self.x * self.x - self.theta * self.y * self.y

    def ext_conj(self) -> "ExtElem":
        return self._sibling(self.x, -self.y)

    def sign_under_embedding(self) -> int:
        if self.theta.sign_under_embedding() < 0:
            raise ValueError("element is not real: theta < 0 under the embedding")
        if not self.y:
            return self.x.sign_under_embedding()
        sy = self.y.sign_under_embedding()
        if not self.x:
            return sy
        sx = self.x.sign_under_embedding()
        if sx == sy:
            return sx
        # compare x^2 against theta*y^2 inside the base field
        return sx * self.ext_norm().sign_under_embedding()


def ext_norm(x: ExtElem) -> RingElem:
    return x.ext_norm()


def ext_conj(x: ExtElem) -> ExtElem:
    return x.ext_conj()


# ---------------------------------------------------------------------------
# 2-adic valuation


_VAL2_THETAS = (U, W)


def val2_int(n: int):
    """2-adic valuation of an integer, ``inf`` at zero."""
    if n == 0:
        return math.inf
    return (n & -n).bit_length() - 1


def _val2_fraction(q: Rat):
    if q == 0:
        return math.inf
    return Fraction(val2_int(q.numerator) - val2_int(q.denominator))


def val2(x):
    """2-adic valuation, normalized so that ``val2(2) == 1``.

    Accepts elements of Q(sqrt 2), rationals among them, and elements of the
    two quadratic extensions of Q(sqrt 2) used here (``v*v == 1+w`` or
    ``v*v == w``).  2 ramifies in Q(sqrt 2) and again in each extension, so
    the valuation is ``v2(norm to Q)`` divided by the degree, 2 or 4: half-
    or quarter-integers.
    """
    if isinstance(x, ExtElem):
        if all(x.theta != t for t in _VAL2_THETAS):
            raise ValueError("val2 supports only the two ramified extensions of Q(sqrt 2)")
        return _val2_fraction(x.ext_norm().norm()) / 4
    return _val2_fraction(RingElem._wrap(x).norm()) / 2


# ---------------------------------------------------------------------------
# text form


_RAT_RE = r"-?\d+(?:/\d+)?"
_ELEM_PATTERNS = (
    re.compile(rf"(?P<a>{_RAT_RE})"),
    re.compile(rf"(?P<bneg>-)?(?:(?P<b>\d+(?:/\d+)?)\*)?w"),
    re.compile(rf"(?P<a>{_RAT_RE})(?P<sign>[+-])(?:(?P<b>\d+(?:/\d+)?)\*)?w"),
)


def parse_elem(s: str) -> RingElem:
    """Parse ``3-2*w``, ``w``, ``-7+5*w``, ``5/2*w``, ``-1/2`` forms; ``w`` is sqrt(2)."""
    text = s.replace(" ", "")
    try:
        for pat in _ELEM_PATTERNS:
            m = pat.fullmatch(text)
            if not m:
                continue
            g = m.groupdict()
            a = Fraction(g["a"]) if g.get("a") else Fraction(0)
            if "b" in g:
                b = Fraction(g["b"]) if g["b"] else Fraction(1)
                if g.get("bneg") or g.get("sign") == "-":
                    b = -b
                return RingElem(a, b)
            return RingElem(a)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in ring element {s!r}") from None
    raise ValueError(f"cannot parse ring element {s!r}")


def format_elem(e) -> str:
    """The text of an element: ``3-2*w`` for a ``RingElem``.

    An ``ExtElem`` ``x + y*v`` prints as ``x+sqrt(r)`` or ``x-sqrt(r)`` with
    ``r = y*y*theta``, as ``sqrt(r)`` or ``-sqrt(r)`` when ``x`` is 0, and as
    ``x`` when ``y`` is 0.
    """
    if isinstance(e, ExtElem):
        if not e.y:
            return format_elem(e.x)
        root = f"sqrt({format_elem(e.y * e.y * e.theta)})"
        pos = e.y.sign_under_embedding() > 0
        if not e.x:
            return root if pos else f"-{root}"
        return f"{format_elem(e.x)}{'+' if pos else '-'}{root}"
    e = RingElem._wrap(e)
    if e.b == 0:
        return str(e.a)
    bb = abs(e.b)
    wpart = "w" if bb == 1 else f"{bb}*w"
    if e.a == 0:
        return wpart if e.b > 0 else f"-{wpart}"
    return f"{e.a}{'+' if e.b > 0 else '-'}{wpart}"


def format_coords(coords) -> str:
    """``(c1, c2, ...)``: the one text form of a point or coefficient tuple."""
    return "(" + ", ".join(format_elem(c) for c in coords) + ")"
