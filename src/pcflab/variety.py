"""Families of periodic continued fractions sharing a prescribed root pair.

Fixing a quadratic ``A x^2 + B x + C`` picks out, for each type ``(N, k)``,
the affine family of PCFs whose fixed-point quadratic is proportional to it.
This module provides the membership residuals for that family, the projection
onto the Pell-type conic, closed-form solutions for the short types, a
rational parametrization for type ``(0, 3)``, the plane and curve models used
by the longer-type searches, the sign-and-twisted-conjugate orbit of the
``(1, 2)`` curve points over ``2 + sqrt(2)``, and the correspondence that moves
points between the ``(0, 3)`` and ``(1, 2)`` pictures.  The ``z22_12`` table
checks both symmetries on its points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .continuant import INF
from .pcf import Pcf, QuadPoly, e_matrix
from .ring import W, WU, ExtElem, RingElem, SelfCheckError, conjugate, format_coords, sqrt_in_ring

Coord = RingElem | ExtElem


# ---------------------------------------------------------------------------
# membership residuals and the conic projection
# ---------------------------------------------------------------------------


def variety_residuals(T: QuadPoly, P: Pcf) -> Tuple[RingElem, RingElem, RingElem]:
    """Three defects whose simultaneous vanishing makes ``P`` a family member.

    They are the pairwise cross-products of ``(A, B, C)`` against the
    coefficients of the fixed-point quadratic of ``P``, so no scaling of the
    target changes the zero set.
    """
    E = e_matrix(P)
    diag = E.e22 - E.e11
    r1 = T.A * diag - T.B * E.e21
    r2 = -T.A * E.e12 - T.C * E.e21
    r3 = -T.B * E.e12 - T.C * diag
    return (r1, r2, r3)


def is_member(T: QuadPoly, P: Pcf) -> bool:
    return not any(variety_residuals(T, P))


def fp_project(T: QuadPoly, P: Pcf) -> Tuple[RingElem, RingElem]:
    """Image ``(E21, E22)`` of a member on the conic ``C x^2 - B xy + A y^2 = (-1)^k A``."""
    if not is_member(T, P):
        raise ValueError(
            f"{format_coords(P.pre + P.per)} is not a member of the family {format_coords(T)}"
        )
    E = e_matrix(P)
    return (E.e21, E.e22)


def fp_conic_residual(T: QuadPoly, k: int, xy: Tuple) -> RingElem:
    x = RingElem._wrap(xy[0])
    y = RingElem._wrap(xy[1])
    sign = -1 if k % 2 else 1
    return T.C * x * x - T.B * x * y + T.A * y * y - sign * T.A


# ---------------------------------------------------------------------------
# the three short types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallTypeSolution:
    """Exact solution set of a type ``(0,1)``, ``(0,2)`` or ``(1,1)`` family."""

    type_nk: Tuple[int, int]
    points: Tuple[Tuple[Coord, ...], ...]
    rational: bool
    degenerate: bool
    note: str = ""


def solve_small_type(T: QuadPoly, type_nk: Tuple[int, int]) -> SmallTypeSolution:
    """Closed-form point sets for the three types with at most two coordinates.

    Points may live in a quadratic extension of the coefficient field; the
    ``rational`` flag reports whether all coordinates stay in the base ring's
    fraction field.  Degenerate targets that make a whole component collapse
    are flagged instead of enumerated.
    """
    A, B, C = T.A, T.B, T.C
    nk = tuple(type_nk)
    if nk == (0, 1):
        # quadratic of [;a1] is x^2 - a1 x - 1, so A must divide both ends
        if not A:
            return SmallTypeSolution(nk, (), True, True, "leading coefficient zero")
        if C != -A:
            return SmallTypeSolution(nk, (), True, False, "constant term obstruction")
        return SmallTypeSolution(nk, ((-B / A,),), True, False)
    if nk == (0, 2):
        if not A or not C:
            return SmallTypeSolution(nk, (), True, True, "outer coefficient zero")
        zero = RingElem(0)
        pts = [(zero, zero)]
        solved = (-B / A, B / C)
        if any(solved):
            pts.insert(0, solved)
        note = "includes the identity-period point (0, 0)"
        return SmallTypeSolution(nk, tuple(pts), True, False, note)
    if nk == (1, 1):
        if not A:
            return SmallTypeSolution(nk, (), True, False, "leading coefficient obstruction")
        a1_sq = (B * B - 4 * A * C) / (A * A) - 4
        beta = B / A
        if not a1_sq:
            pt = (-beta / 2, RingElem(0))
            return SmallTypeSolution(nk, (pt,), True, False, "double point")
        s = sqrt_in_ring(a1_sq)
        rational = s is not None
        a1s = (s, -s) if rational else (ExtElem(0, 1, a1_sq), ExtElem(0, -1, a1_sq))
        pts = tuple(((a1 - beta) / 2, a1) for a1 in a1s)
        return SmallTypeSolution(nk, pts, rational, False)
    raise ValueError(f"no closed form for type {nk}")


# ---------------------------------------------------------------------------
# type (0,3): parametrization, plane model, lift
# ---------------------------------------------------------------------------


def param03(T: QuadPoly, R, S, t) -> Tuple[RingElem, RingElem, RingElem]:
    """Rational parametrization of the type ``(0,3)`` family.

    Requires a decomposition ``B^2 - 4AC = R^2 + S^2`` with the sum nonzero,
    and ``C != -A``.  The parameter ``t`` runs over the base field together
    with ``INF``; parameter values where a denominator vanishes are rejected.
    """
    A, B, C = T.A, T.B, T.C
    R = RingElem._wrap(R)
    S = RingElem._wrap(S)
    ss = R * R + S * S
    if ss != B * B - 4 * A * C:
        raise ValueError("R^2 + S^2 must equal B^2 - 4AC")
    if not ss:
        raise ValueError("R^2 + S^2 must be nonzero")
    if C == -A:
        raise ValueError("constant term must differ from -A")
    if t is INF:
        den = B - R
        if not den or not S:
            raise ValueError("parameter at infinity hits a vanishing denominator")
        a1 = (-2 * C + S) / den
        a2 = den / (-S)
        a3 = (2 * A + S) / den
        return (a1, a2, a3)
    t = RingElem._wrap(t)
    p = t * t + 1
    q = t * t - 1
    den1 = B * p - R * q + 2 * S * t
    den2 = -(S * q) - 2 * R * t
    if not den1 or not den2:
        raise ValueError(f"parameter t={t} hits a vanishing denominator")
    a1 = (-2 * C * p + S * q + 2 * R * t) / den1
    a2 = den1 / den2
    a3 = (2 * A * p + S * q + 2 * R * t) / den1
    return (a1, a2, a3)


def plane03_residual(T: QuadPoly, x2, x3) -> RingElem:
    """Defect of the plane model the two trailing coordinates must satisfy.

    Eliminating the first coordinate from the type ``(0,3)`` system leaves
    ``A (x2^2 + 1) - B x2 (x2 x3 + 1) + C (x2 x3 + 1)^2 = 0``.
    """
    x2 = RingElem._wrap(x2)
    x3 = RingElem._wrap(x3)
    m = x2 * x3 + 1
    return T.A * (x2 * x2 + 1) - T.B * x2 * m + T.C * m * m


def lift03(T: QuadPoly, x2, x3) -> RingElem:
    """Recover the first coordinate from a plane-model point.

    Inverts ``-A (x1 x2 + 1) = C (x2 x3 + 1)``; fails when ``x2 = 0``.
    """
    x2 = RingElem._wrap(x2)
    x3 = RingElem._wrap(x3)
    if not x2:
        raise ZeroDivisionError("no lift over x2 = 0")
    if not T.A:
        raise ValueError("lift needs a nonzero leading coefficient")
    return (-(T.C / T.A) * (x2 * x3 + 1) - 1) / x2


# ---------------------------------------------------------------------------
# type (2,1): residuals and the square-defect quartic
# ---------------------------------------------------------------------------


def curve21_residual(T: QuadPoly, pt: Sequence) -> Tuple[RingElem, RingElem, RingElem]:
    """Membership defects of a coordinate triple ``(y1, y2, x1)`` at type ``(2,1)``."""
    return variety_residuals(T, Pcf(pt[:2], pt[2:]))


def curve21_quartic(T: QuadPoly, y1) -> RingElem:
    """Value that must be a perfect square for ``y1`` to extend to a point.

    Equals ``-4 (A y1^2 + B y1 + C)^2 + B^2 - 4AC``; a solution with first
    coordinate ``y1`` forces this to be ``(x1 (A y1^2 + B y1 + C))^2``.
    """
    g = T(RingElem._wrap(y1))
    return -4 * g * g + T.disc()


def plane21_residual(T: QuadPoly, y1, y2) -> RingElem:
    """Defect of the plane model the two prefix coordinates must satisfy.

    Eliminating ``x1`` from the first two membership residuals of type
    ``(2,1)`` leaves ``g y2^2 + g' y2 + g + A = 0`` with
    ``g = A y1^2 + B y1 + C`` and ``g' = 2 A y1 + B``.  Its discriminant in
    ``y2`` is :func:`curve21_quartic`, so each fiber over ``y1`` is a
    quadratic solved by one ring square root.
    """
    y1 = RingElem._wrap(y1)
    y2 = RingElem._wrap(y2)
    g = T(y1)
    return (g * y2 + T.slope(y1)) * y2 + g + T.A


def lift21(T: QuadPoly, y1, y2) -> RingElem:
    """Recover the period coordinate from a plane-model point.

    Solves the first membership residual, linear in ``x1`` with coefficient
    ``p = 2 A y1 y2 + A + B y2``; fails when ``p = 0``.  On the plane model
    the other two residuals then vanish as well: they are ``-A`` and ``-B``
    times the plane defect, divided by ``p``.
    """
    y1 = RingElem._wrap(y1)
    y2 = RingElem._wrap(y2)
    A, B = T.A, T.B
    p = 2 * A * y1 * y2 + A + B * y2
    if not p:
        raise ZeroDivisionError("no lift where 2 A y1 y2 + A + B y2 = 0")
    return (2 * A * y1 * (y2 * y2 - 1) + 2 * A * y2 + B * (y2 * y2 - 1)) / p


# ---------------------------------------------------------------------------
# type (1,2): the non-split component and its Weierstrass-free reduction
# ---------------------------------------------------------------------------


def reduce12_to_E(y1, x1) -> Tuple[RingElem, RingElem]:
    """Halved coordinates ``(a, b) = (x1 / 2, 2 y1 / x1)``.

    Sends solutions of ``y1^2 x1 + 2 y1 = pi x1`` to solutions of
    ``(a^2 b + 1) b = pi``; fails on the extraneous point with ``x1 = 0``.
    """
    y1 = RingElem._wrap(y1)
    x1 = RingElem._wrap(x1)
    if not x1:
        raise ZeroDivisionError("the point with x1 = 0 has no finite image")
    return (x1 / 2, 2 * y1 / x1)


def lift12_from_E(a, b) -> Tuple[RingElem, RingElem]:
    """Inverse of :func:`reduce12_to_E`: ``(y1, x1) = (a b, 2 a)``."""
    a = RingElem._wrap(a)
    b = RingElem._wrap(b)
    return (a * b, 2 * a)


def e_curve_residual(pi, a, b) -> RingElem:
    """Defect of ``(a^2 b + 1) b = pi``."""
    pi = RingElem._wrap(pi)
    a = RingElem._wrap(a)
    b = RingElem._wrap(b)
    return (a * a * b + 1) * b - pi


def pcf_of_e_point(a, b) -> Pcf:
    """The PCF ``[a b; 2 a, 2 a b]`` attached to a curve point with ``a != 0``."""
    a = RingElem._wrap(a)
    b = RingElem._wrap(b)
    if not a:
        raise ZeroDivisionError("the extraneous point a = 0 has no attached PCF")
    return Pcf((a * b,), (2 * a, 2 * a * b))


# conjugation sends 2 + w to (w - 1)^2 (2 + w); these two units rescale the
# conjugate of a curve point back onto the curve
_TWIST_A = W - 1
_TWIST_B = RingElem(3, 2)  # (w - 1)^-2


def family_orbit(a, b) -> Tuple[Tuple[RingElem, RingElem], ...]:
    """Sign and twisted-conjugate orbit of a point of ``(a^2 b + 1) b = 2 + w``.

    The orbit is ``{(+-a, b), (+-(w-1) conj(a), (3+2w) conj(b))}``; it has
    four distinct members on the curve for every point with ``a != 0``.
    """
    a = RingElem._wrap(a)
    b = RingElem._wrap(b)
    if not a or e_curve_residual(WU, a, b):
        raise ValueError(f"{format_coords((a, b))} is not a curve point with a != 0")
    a2 = _TWIST_A * conjugate(a)
    b2 = _TWIST_B * conjugate(b)
    orbit = ((a, b), (-a, b), (a2, b2), (-a2, b2))
    if len(set(orbit)) != 4 or any(e_curve_residual(WU, *p) for p in orbit[1:]):
        raise SelfCheckError(f"orbit of {format_coords((a, b))} left the curve or repeated a point")
    return orbit


# ---------------------------------------------------------------------------
# correspondence between the (0,3) and (1,2) pictures over Z[sqrt(2)]
# ---------------------------------------------------------------------------


def corr03_12(z1, z2, z3) -> Tuple[RingElem, RingElem]:
    """Push a type ``(0,3)`` point with roots ``+-sqrt(2 + sqrt(2))``
    down to a curve point ``(a, b) = ((z2 z3 + 1)/z2^2, -(2+w) z2^2)``."""
    pi = WU
    if not is_member(QuadPoly(1, 0, -pi), Pcf((), (z1, z2, z3))):
        raise ValueError("the triple does not lie in the (0,3) family")
    z2 = RingElem._wrap(z2)
    z3 = RingElem._wrap(z3)
    sq = z2 * z2
    a = (z2 * z3 + 1) / sq
    b = -pi * sq
    if e_curve_residual(pi, a, b):
        raise SelfCheckError(f"correspondence image {format_coords((a, b))} missed the curve")
    return (a, b)


def corr12_03(a, b) -> Tuple[Tuple[RingElem, RingElem, RingElem], ...]:
    """The fibre of :func:`corr03_12` over a curve point with ``norm(b) = 2``.

    Requires ``-b/(2+w)`` to be the square ``s^2`` of a unit; the fibre is
    the two type ``(0,3)`` points with ``z2 = +-s``.  The two over
    ``(-a, b)`` complete a quadruplet.
    """
    pi = WU
    a = RingElem._wrap(a)
    b = RingElem._wrap(b)
    if b.norm() != 2:
        raise ValueError("inverse correspondence needs norm(b) = 2")
    s = sqrt_in_ring(-b / pi)
    if s is None or not s.is_unit():
        raise ValueError("-b/(2+w) is not a unit square")
    T = QuadPoly(1, 0, -pi)
    out = []
    for z2 in (s, -s):
        z3 = (a * z2 * z2 - 1) / z2
        pt = ((pi * (z2 * z3 + 1) - 1) / z2, z2, z3)
        if not is_member(T, Pcf((), pt)):
            raise SelfCheckError(f"correspondence preimage {format_coords(pt)} missed the family")
        out.append(pt)
    return tuple(out)
