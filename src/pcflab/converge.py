"""Exact convergence decisions for periodic continued fractions.

The decision runs entirely on sign tests in the coefficient field and its
quadratic extension: a periodic continued fraction diverges exactly when its
conjugation matrix is a scalar, acts as a rotation of the line (eigenvalues
on the unit circle with distinct roots), or some cyclic shift of the period
has a vanishing lower-left entry with |lower-right| > 1.  Otherwise it
converges to the fixed point whose eigenvalue has modulus above 1 (or to the
double fixed point in the tangent case, sub-exponentially).

That fixed point is picked by the closed form of the eigenvalues.  A
loxodromic matrix has real eigenvalues summing to a nonzero trace ``tr``, so
the expanding one is ``lam = (tr + sgn(tr) sqrt(disc)) / 2``, and a fixed
point ``z`` is the limit exactly when ``lam(z) - tr/2`` has the sign of
``tr``.  For an irrational root ``x + y*v`` that difference is ``(e21*y)*v``,
and ``lam^2 - 1 = tr*lam - det - 1``, so no two extension elements are ever
multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .continuant import INF, Mat2, Value, cf_matrix, finite_cf_value
from .intervals import Interval, log10_interval, refine, value_interval
from .pcf import Pcf, e_matrix, quad_poly_of_matrix, quad_roots
from .ring import ExtElem, RingElem, SelfCheckError, sign_under_embedding

# divergence reasons
IDENTITY_MULTIPLE = "IdentityMultiple"
ELLIPTIC = "Elliptic"
INEQ = "Ineq"
# convergence modes
LOXODROMIC = "Loxodromic"
PARABOLIC = "Parabolic"


@dataclass(frozen=True)
class Verdict:
    """Outcome of the convergence decision."""

    converges: bool
    reason: str
    value: Optional[Value] = None
    eigenvalue: Optional[Union[RingElem, ExtElem]] = None
    eigen_modulus_sq_minus_1: Optional[Union[RingElem, ExtElem]] = None
    pariah_index: Optional[int] = None
    pariah_limit: Optional[Value] = None
    note: str = ""


def ineq_check(per: Sequence) -> Optional[int]:
    """Smallest shift j whose period matrix has entry21 = 0 and entry22^2 > 1."""
    per = [RingElem._wrap(c) for c in per]
    k = len(per)
    for j in range(k):
        m = cf_matrix(per[j:] + per[:j])
        if not m.e21 and (m.e22 * m.e22 - 1).sign_under_embedding() > 0:
            return j
    return None


def _mobius_case(E: Mat2) -> str:
    """IDENTITY_MULTIPLE, PARABOLIC, ELLIPTIC or LOXODROMIC for a determinant +-1 matrix."""
    if E.is_identity_multiple():
        return IDENTITY_MULTIPLE
    tr = E.trace()
    det = E.det()
    disc = tr * tr - 4 * det  # also the discriminant of the fixed-point quadratic
    s_disc = disc.sign_under_embedding()
    if s_disc == 0:
        # tangent case: double fixed point, sub-exponential convergence
        return PARABOLIC
    if s_disc < 0:
        # complex conjugate eigenvalues; |lambda|^2 = det = +1: a rotation
        return ELLIPTIC
    if det == -1 and not tr:
        # real eigenvalues +1 and -1: an involution of the line
        return ELLIPTIC
    return LOXODROMIC


def _expanding_eigenvalue(E: Mat2, z: Value):
    """``(lam, lam^2 - 1)`` when the fixed point ``z`` of the loxodromic ``E`` expands, else None.

    The closed form of the module docstring: ``tr != 0``, because a zero
    trace is elliptic, and ``z`` expands when ``lam(z) - tr/2`` has its sign.
    """
    tr = E.trace()
    s_tr = tr.sign_under_embedding()
    if isinstance(z, ExtElem) and z.y:
        # a root x + y*v outside the base field has e21*x + e22 == tr/2, so
        # lam - tr/2 == (e21*y)*v
        e21y = E.e21 * z.y
        if e21y.sign_under_embedding() != s_tr:
            return None
        lam = z._sibling(tr / 2, e21y)
    else:
        lam = E.e11 if z is INF else E.e21 * z + E.e22
        if sign_under_embedding(2 * lam - tr) != s_tr:
            return None
    return lam, lam * tr - (E.det() + 1)


def verdict(P: Pcf) -> Verdict:
    """Exact convergence decision; a total function over PCFs."""
    E = e_matrix(P)
    case = _mobius_case(E)
    if case in (IDENTITY_MULTIPLE, ELLIPTIC):
        return Verdict(False, case)
    if case == PARABOLIC:
        value = quad_roots(quad_poly_of_matrix(E))[0]
        note = "all-roots-infinite" if value is INF else ""
        return Verdict(
            True,
            PARABOLIC,
            value=value,
            eigenvalue=E.trace() / 2,  # +-1 here
            eigen_modulus_sq_minus_1=RingElem(0),
            note=note,
        )
    j = ineq_check(P.per)
    if j is not None:
        limit = finite_cf_value(list(P.pre) + list(P.per[:j]))
        return Verdict(False, INEQ, pariah_index=j, pariah_limit=limit)
    for z in quad_roots(quad_poly_of_matrix(E)):
        hit = _expanding_eigenvalue(E, z)
        if hit is not None:
            lam, m1 = hit
            return Verdict(True, LOXODROMIC, value=z, eigenvalue=lam, eigen_modulus_sq_minus_1=m1)
    raise SelfCheckError(f"no expanding fixed point found for {P}")


# ---------------------------------------------------------------------------
# Moebius iteration classifier


@dataclass(frozen=True)
class MobiusClassification:
    """How the orbit z, A(z), A(A(z)), ... behaves.

    Cases: 1 scalar matrix, 2 rotation started at a fixed point, 3 tangent
    (double fixed point), 4 started at the repelling fixed point, 5 rotation
    elsewhere, 6 anything else (pulled to the attracting fixed point).
    """

    case: int
    outcome: str  # "fixed" | "converges" | "diverges"
    limit: Optional[Value] = None


def classify_mobius(A: Mat2, z: Value) -> MobiusClassification:
    """Classify the orbit of ``z`` under a determinant +-1 matrix."""
    det = A.det()
    if det != 1 and det != -1:
        raise ValueError("classification needs determinant +1 or -1")
    case = _mobius_case(A)
    if case == IDENTITY_MULTIPLE:
        return MobiusClassification(1, "fixed", z)
    poly = quad_poly_of_matrix(A)
    if case == PARABOLIC:
        # tangent: unique fixed point attracts every orbit
        return MobiusClassification(3, "converges", quad_roots(poly)[0])
    if case == ELLIPTIC:
        if poly.is_root(z):
            return MobiusClassification(2, "fixed", z)
        return MobiusClassification(5, "diverges", None)
    if poly.is_root(z):
        # the start already sits on a fixed point; which one decides the case
        if _expanding_eigenvalue(A, z) is not None:
            return MobiusClassification(6, "converges", z)
        return MobiusClassification(4, "fixed", z)
    for r in quad_roots(poly):
        if _expanding_eigenvalue(A, r) is not None:
            return MobiusClassification(6, "converges", r)
    raise SelfCheckError("no attracting fixed point in the generic case")


# ---------------------------------------------------------------------------
# convergence rate


@dataclass(frozen=True)
class RateResult:
    """Growth data of the convergent sequence, as certified enclosures."""

    parabolic: bool
    eigen_abs: Optional[Interval] = None
    convergents_per_digit: Optional[Interval] = None


def rate(P: Pcf, digits: int = 12, *, v: Optional[Verdict] = None) -> RateResult:
    """Convergents needed per certified decimal digit, and ``|eigenvalue|``.

    Only meaningful for a convergent PCF; the tangent (double-root) case has
    no exponential rate and comes back flagged instead of with numbers.
    The working precision starts at ``digits + 8`` and doubles until
    ``convergents_per_digit`` is certified to a relative width of
    ``10**-digits``, which takes more than one pass only when ``|lam|`` is
    close to 1.
    A caller that already holds ``verdict(P)`` passes it as ``v`` so that the
    decision is not made twice.
    """
    if v is None:
        v = verdict(P)
    if not v.converges:
        raise ValueError(f"{P} diverges ({v.reason}); it has no convergence rate")
    if v.reason == PARABOLIC:
        return RateResult(parabolic=True)
    lam = v.eigenvalue
    sgn = sign_under_embedding(lam)
    target = Fraction(1, 10 ** digits)

    def attempt(work):
        # |lam| close to 1 makes log10|lam| tiny, so a fixed absolute
        # precision can leave it unsigned or too wide relative to itself
        iv = value_interval(lam, work)
        if sgn < 0:
            iv = -iv
        lg = log10_interval(iv, work)
        if lg.lo <= 0:
            return None
        cpd = Fraction(P.k, 2) / lg
        if cpd.width > target * cpd.lo:
            return None
        return RateResult(parabolic=False, eigen_abs=iv, convergents_per_digit=cpd)

    return refine(attempt, digits + 8)
