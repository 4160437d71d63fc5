"""2-adic bookkeeping in two quadratic extensions of the base field.

Whether a unit multiple of a fixed element can have a prescribed coordinate
norm comes down to valuations of integer sequences.  This module builds the
two relevant extensions (adjoining a square root of the fundamental unit,
and of sqrt(2) itself), expands powers exactly, and verifies the valuation
identities on finite integer ranges.  Each extension's constants are
re-derived and checked on its first use (the context is then cached with
``lru_cache``), so a transcription slip fails the first computation that
needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .ring import U, W, WU, ExtElem, RingElem, SelfCheckError, format_elem, val2, val2_int


@dataclass(frozen=True)
class SkolemContext:
    """A quadratic extension with its distinguished unit and base point."""

    tag: str
    theta: RingElem
    v: ExtElem
    unit: ExtElem
    alpha: ExtElem


@lru_cache(maxsize=None)
def context_l1() -> SkolemContext:
    """Extension by a square root of the fundamental unit, with self-checks."""
    theta = U
    v = ExtElem(0, 1, theta)
    u1 = ExtElem(-U, W, theta)
    alpha1 = ExtElem(U, 1, theta)
    if u1.ext_norm() != 1:
        raise SelfCheckError("context L1: distinguished unit has wrong relative norm")
    if alpha1.ext_norm() != WU:
        raise SelfCheckError("context L1: base point has wrong relative norm")
    if U - v != -(alpha1 * u1):
        raise SelfCheckError("context L1: conjugate base point is not -alpha*unit")
    if (1 - u1).ext_norm() != RingElem(4, 2):
        raise SelfCheckError("context L1: 1 - unit has wrong relative norm")
    if (1 - u1).ext_norm().norm() != 8:
        raise SelfCheckError("context L1: 1 - unit has wrong rational norm")
    if val2(1 + v) != Fraction(1, 4):
        raise SelfCheckError("context L1: valuation of 1 + v is off")
    if val2(1 - u1 * u1) != Fraction(3, 2):
        raise SelfCheckError("context L1: valuation of 1 - unit^2 is off")
    return SkolemContext("L1", theta, v, u1, alpha1)


@lru_cache(maxsize=None)
def context_l2() -> SkolemContext:
    """Extension by a square root of sqrt(2), with self-checks."""
    theta = W
    v = ExtElem(0, 1, theta)
    u2 = ExtElem(RingElem(3, 2), RingElem(2, 2), theta)
    alpha2p = ExtElem(WU, -U, theta)  # u * (w - v)
    if u2.ext_norm() != 1:
        raise SelfCheckError("context L2: distinguished unit has wrong relative norm")
    if u2 * (1 - v) != -(1 + v):
        raise SelfCheckError("context L2: unit does not swap 1 - v and -(1 + v)")
    if (1 + v).ext_norm() != RingElem(1, -1):
        raise SelfCheckError("context L2: 1 + v has wrong relative norm")
    if (1 + v).ext_norm().norm() != -1:
        raise SelfCheckError("context L2: 1 + v is not a unit")
    return SkolemContext("L2", theta, v, u2, alpha2p)


# ---------------------------------------------------------------------------
# power expansions


def rst(n: int) -> Tuple[RingElem, RingElem, RingElem]:
    """Coefficients of (1 - unit^2)^n, plus their twisted combination.

    Returns (r, s, t) where the power expands as r + s*v and t = r + u*s
    with u the fundamental unit of the base ring.
    """
    if n < 0:
        raise ValueError("nonnegative exponents only")
    c = context_l1()
    p = (1 - c.unit * c.unit) ** n
    return (p.x, p.y, p.x + U * p.y)


def power_coeffs(k: int) -> Tuple[RingElem, RingElem]:
    """Coefficients (x, y) of alpha * unit^k in the first extension."""
    c = context_l1()
    e = c.alpha * c.unit ** k
    return (e.x, e.y)


def z_of_j(j: int) -> RingElem:
    """The v-coefficient of alpha * unit^(2j) in the first extension."""
    return power_coeffs(2 * j)[1]


def nz(j: int) -> int:
    """Rational norm of ``z_of_j(j)``; always an integer."""
    n = z_of_j(j).norm()
    if n.denominator != 1:
        raise SelfCheckError(f"norm of z({j}) is not an integer")
    return int(n)


# ---------------------------------------------------------------------------
# tables and reports


@dataclass(frozen=True)
class AprimeRow:
    k_pair: Tuple[int, int]
    aprime: RingElem
    z: RingElem
    nz: int


def aprime_z_table() -> List[AprimeRow]:
    """Rows (a', z, norm of z) for the five smallest exponent pairs {k, 1-k}, k even."""
    rows = []
    for k in (0, 2, -2, 4, -4):
        x, y = power_coeffs(k)
        rows.append(AprimeRow((k, 1 - k), x, y, int(y.norm())))
    return rows


def format_aprime_table(rows: Sequence[AprimeRow]) -> str:
    cells = []
    for row in rows:
        rep = row.aprime if row.aprime.sign_under_embedding() >= 0 else -row.aprime
        cells.append(
            (
                f"{row.k_pair[0]},{row.k_pair[1]}",
                f"+-({format_elem(rep)})",
                format_elem(row.z),
                str(row.nz),
            )
        )
    return _columns(("k", "a'", "z", "N(z)"), cells)


@dataclass(frozen=True)
class AddaxRow:
    n: int
    v2r: object
    v2s: object
    v2t: object

    @property
    def ok(self) -> bool:
        floor = Fraction(3 * self.n, 2)
        return self.v2r >= floor and self.v2s >= floor and self.v2t == floor


@dataclass(frozen=True)
class AddaxReport:
    nmax: int
    rows: Tuple[AddaxRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.rows)

    def __str__(self):
        lines = ["n  val2(r)  val2(s)  val2(t)  floor 3n/2"]
        for r in self.rows:
            lines.append(
                f"{r.n:<2} {_fmt_val(r.v2r):>7}  {_fmt_val(r.v2s):>7}  "
                f"{_fmt_val(r.v2t):>7}  {_fmt_val(Fraction(3 * r.n, 2)):>10}"
                + ("" if r.ok else "  VIOLATION")
            )
        lines.append("PASS" if self.all_pass else "FAIL")
        return "\n".join(lines)


def _fmt_val(v) -> str:
    if v == math.inf:
        return "inf"
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def addax_check(nmax: int) -> AddaxReport:
    """Valuation floors of the power expansion coefficients up to nmax.

    The first two coefficients must sit at or above 3n/2; their twisted
    combination lands on the floor exactly.
    """
    rows = []
    for n in range(nmax + 1):
        r, s, t = rst(n)
        rows.append(AddaxRow(n, val2(r), val2(s), val2(t)))
    return AddaxReport(nmax, tuple(rows))


@dataclass(frozen=True)
class OryxReport:
    jmax: int
    pairs_checked: int
    violations: Tuple[Tuple[int, int], ...]

    @property
    def all_pass(self) -> bool:
        return not self.violations

    def __str__(self):
        head = f"checked {self.pairs_checked} same-parity pairs with |j|, |j'| <= {self.jmax}"
        if self.all_pass:
            return head + "\nval2(N(z(j')) - N(z(j))) = val2(j' - j) + 4 throughout\nPASS"
        lines = [head]
        for j, jp in self.violations:
            lines.append(f"  violated at (j, j') = ({j}, {jp})")
        lines.append("FAIL")
        return "\n".join(lines)


def oryx_check(jmax: int) -> OryxReport:
    """Exactness of the norm-difference valuation identity on integers.

    For every same-parity pair j != j' in [-jmax, jmax], the 2-adic valuation
    of N(z(j')) - N(z(j)) must equal that of j' - j plus four.
    """
    norms = {j: nz(j) for j in range(-jmax, jmax + 1)}
    violations = []
    pairs = 0
    js = sorted(norms)
    for i, j in enumerate(js):
        for jp in js[i + 1:]:
            if (jp - j) % 2:
                continue
            pairs += 1
            if val2_int(norms[jp] - norms[j]) != val2_int(jp - j) + 4:
                violations.append((j, jp))
    return OryxReport(jmax, pairs, tuple(violations))


def l2_scan(kmax: int) -> List[int]:
    """Exponents k with |k| <= kmax whose v-coefficient norm is a unit norm.

    Runs in the second extension: expands alpha * unit^k and keeps k when
    the v-coefficient has rational norm +1 or -1.
    """
    c = context_l2()
    hits = []
    for k in range(-kmax, kmax + 1):
        e = c.alpha * c.unit ** k
        n = e.y.norm()
        if n == 1 or n == -1:
            hits.append(k)
    return hits


def rst_table(nmax: int) -> str:
    """Aligned text table of the power expansion coefficients up to nmax."""
    rows = [(str(n),) + tuple(format_elem(c) for c in rst(n)) for n in range(nmax + 1)]
    return _columns(("n", "r", "s", "t"), rows)


def _columns(heads: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-justified text columns, two spaces apart, under a header line."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(heads)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in (heads, *rows))
