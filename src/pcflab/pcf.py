"""Periodic continued fractions and their conjugation matrices.

A periodic continued fraction here is a finite prefix ``b_1, ..., b_N``
followed by an infinitely repeated period ``a_1, ..., a_k``, written
``[b_1,...,b_N; a_1,...,a_k]``.  Attached to it is the matrix
``E = M(prefix) * M(period) * M(prefix)^-1``, whose fixed-point polynomial
decides everything about convergence, so most operations below are really
operations on ``E``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .continuant import INF, Mat2, Value, cf_matrix, continuant
from .ring import ExtElem, RingElem, format_elem, parse_elem, sqrt_in_ring


class IdentityMultipleError(ValueError):
    """The conjugation matrix is a scalar multiple of the identity.

    The fixed-point polynomial vanishes identically in that case, so the
    quadratic and its roots do not exist.
    """

    def __init__(self, matrix: Mat2):
        super().__init__(f"matrix {matrix!r} is a multiple of the identity")
        self.matrix = matrix


class Pcf:
    """``[b_1,...,b_N; a_1,...,a_k]`` with exact ring coefficients."""

    __slots__ = ("pre", "per")

    def __init__(self, pre: Sequence = (), per: Sequence = ()):
        per = tuple(RingElem._wrap(c) for c in per)
        pre = tuple(RingElem._wrap(c) for c in pre)
        if not per:
            raise ValueError("the period must be nonempty")
        self.pre = pre
        self.per = per

    @property
    def n(self) -> int:
        return len(self.pre)

    @property
    def k(self) -> int:
        return len(self.per)

    @property
    def type_nk(self) -> Tuple[int, int]:
        return (len(self.pre), len(self.per))

    @classmethod
    def parse(cls, text: str) -> "Pcf":
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")) or s.count(";") != 1:
            raise ValueError(f"cannot parse PCF {text!r}")
        pre_s, per_s = s[1:-1].split(";")

        def vals(part: str):
            part = part.strip()
            if not part:
                return ()
            return tuple(parse_elem(p) for p in part.split(","))

        return cls(vals(pre_s), vals(per_s))

    def __str__(self):
        pre = ",".join(format_elem(c) for c in self.pre)
        per = ",".join(format_elem(c) for c in self.per)
        return f"[{pre};{per}]"

    def __repr__(self):
        return f"Pcf({str(self)!r})"

    def __eq__(self, other):
        if not isinstance(other, Pcf):
            return NotImplemented
        return self.pre == other.pre and self.per == other.per

    def __hash__(self):
        return hash((self.pre, self.per))


@dataclass(frozen=True)
class QuadPoly:
    """``A x^2 + B x + C``, read off a conjugation matrix or prescribed as a family target."""

    A: RingElem
    B: RingElem
    C: RingElem

    def __post_init__(self):
        object.__setattr__(self, "A", RingElem._wrap(self.A))
        object.__setattr__(self, "B", RingElem._wrap(self.B))
        object.__setattr__(self, "C", RingElem._wrap(self.C))
        if not (self.A or self.B or self.C):
            raise ValueError("zero quadratic")

    def __iter__(self):
        return iter((self.A, self.B, self.C))

    def __call__(self, z):
        return self.A * z * z + self.B * z + self.C

    def slope(self, z):
        """Derivative ``2 A z + B`` at ``z``."""
        return 2 * self.A * z + self.B

    def is_root(self, z) -> bool:
        if z is INF:
            return not self.A
        return not self(z)

    def disc(self) -> RingElem:
        return self.B * self.B - 4 * self.A * self.C

    def normalized(self) -> "QuadPoly":
        """Primitive integral coefficients, leading sign positive."""
        coords = []
        for e in self:
            coords += [e.a, e.b]
        dens = [c.denominator for c in coords]
        nums = [c.numerator for c in coords if c != 0]
        mult = Fraction(math.lcm(*dens), math.gcd(*nums))
        lead = next(e for e in self if e)
        if (lead * mult).sign_under_embedding() < 0:
            mult = -mult
        return QuadPoly(self.A * mult, self.B * mult, self.C * mult)


# ---------------------------------------------------------------------------


def e_matrix(P: Pcf) -> Mat2:
    """``M(prefix) * M(period) * M(prefix)^-1``; determinant is (-1)^k.

    ``M(prefix)`` has determinant ``(-1)^N``, so its inverse is its adjugate
    times ``(-1)^N`` and no entry is ever divided.
    """
    per = cf_matrix(P.per)
    if not P.pre:
        return per
    pre = cf_matrix(P.pre)
    E = pre * per * pre.adjugate()
    return -E if P.n % 2 else E


def e_matrix_continuant_form(P: Pcf) -> Mat2:
    """Same matrix, assembled from continuants of one glued word.

    Writing ``b = prefix`` and ``a = period``, the word
    ``b_1..b_N, a_1..a_{k-1}, a_k - b_N, -b_{N-1}..-b_1`` followed by a
    column swap reproduces the conjugation without any matrix inversion,
    which makes an independent cross-check.
    """
    if not P.pre:
        a = list(P.per)
        # the doubly-clipped word has length -1 when k = 1; its continuant is 0
        inner = continuant(a[1:-1]) if len(a) > 1 else 0
        return Mat2(continuant(a), continuant(a[:-1]), continuant(a[1:]), inner)
    glue = (
        list(P.pre)
        + list(P.per[:-1])
        + [P.per[-1] - P.pre[-1]]
        + [-c for c in reversed(P.pre[:-1])]
    )
    return Mat2(
        continuant(glue[:-1]),
        continuant(glue),
        continuant(glue[1:-1]),
        continuant(glue[1:]),
    )


def quad_poly(P: Pcf) -> QuadPoly:
    """Fixed-point quadratic of the conjugation matrix."""
    return quad_poly_of_matrix(e_matrix(P))


def quad_poly_of_matrix(E: Mat2) -> QuadPoly:
    if E.is_identity_multiple():
        raise IdentityMultipleError(E)
    return QuadPoly(E.e21, E.e22 - E.e11, -E.e12)


def quad_roots(q: QuadPoly) -> Tuple[Value, Value]:
    """Exact roots of a quadratic over the base field, INF included.

    Irrational roots are the conjugates ``center + spread*v`` and
    ``center - spread*v``; the leading coefficient is normalized positive, so
    ``spread > 0`` and the first entry is the larger root.
    """
    qn = q.normalized()
    A, B, C = qn
    if not A:
        if not B:
            return (INF, INF)
        return (-C / B, INF)
    disc = qn.disc()
    s = sqrt_in_ring(disc)
    if s is not None:
        r1 = (-B + s) / (2 * A)
        r2 = (-B - s) / (2 * A)
        return (r1, r2)
    center = -B / (2 * A)
    spread = 1 / (2 * A)
    # disc was just proved a non-square, so the public constructor's check would repeat it
    return (
        ExtElem._unchecked(center, spread, disc),
        ExtElem._unchecked(center, -spread, disc),
    )


def roots(P: Pcf) -> Tuple[Value, Value]:
    return quad_roots(quad_poly(P))


def dual(P: Pcf) -> Pcf:
    """The reversed-period companion whose matrix is the inverse."""
    a = P.per
    if not P.pre:
        return Pcf((RingElem(0),), tuple(-c for c in reversed(a)))
    pre = P.pre[:-1] + (P.pre[-1] - a[-1],)
    per = tuple(-c for c in reversed(a[:-1])) + (-a[-1],)
    return Pcf(pre, per)


def g_multiplier(per: Sequence, m: int) -> RingElem:
    """Scalar linking the quadratic of the period to that of its m-fold repeat.

    Depends only on the trace of the period matrix; all three coefficients
    scale by the same factor.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    per = [RingElem._wrap(c) for c in per]
    k = len(per)
    tau = cf_matrix(per).trace()
    alternating = k % 2 == 0  # the j-th term carries (-1)^((k+1)j)
    out = RingElem(0)
    for j in range(0, (m - 1) // 2 + 1):
        coef = math.comb(m - 1 - j, j)
        term = coef * tau ** (m - 1 - 2 * j)
        if alternating and j % 2 == 1:
            term = -term
        out = out + term
    return out


def extend_type(P: Pcf, ell: int, m: int) -> Pcf:
    """Grow the prefix by ``ell`` period steps and repeat the period ``m`` times."""
    if ell < 0 or m < 1:
        raise ValueError("need ell >= 0 and m >= 1")
    k = P.k
    pre = P.pre + tuple(P.per[i % k] for i in range(ell))
    r = ell % k
    rot = P.per[r:] + P.per[:r]
    return Pcf(pre, rot * m)
