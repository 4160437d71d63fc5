"""Continuants, 2x2 ring matrices, and values of finite continued fractions.

The matrix of a word ``c_1, ..., c_n`` is the product of ``[[c_i, 1], [1, 0]]``
blocks; its entries are continuants of subwords, and the value of the finite
continued fraction is the ratio of the two left-column entries.  Infinity is
an honest projective point here, carried by the ``INF`` singleton.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from .ring import ExtElem, RingElem, power


class _ProjectiveInfinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("pcflab-INF")


INF = _ProjectiveInfinity()

Value = RingElem | ExtElem | _ProjectiveInfinity


class Mat2:
    """2x2 matrix with exact ring entries."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        self.e11 = RingElem._wrap(e11)
        self.e12 = RingElem._wrap(e12)
        self.e21 = RingElem._wrap(e21)
        self.e22 = RingElem._wrap(e22)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> RingElem:
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self) -> RingElem:
        return self.e11 + self.e22

    def adjugate(self) -> "Mat2":
        """``det * inverse``, formed without any division."""
        return Mat2(self.e22, -self.e12, -self.e21, self.e11)

    def inverse(self) -> "Mat2":
        dt = self.det()
        if not dt:
            raise ZeroDivisionError("singular matrix")
        return Mat2(*(e / dt for e in self.adjugate().entries()))

    def __pow__(self, k: int) -> "Mat2":
        if not isinstance(k, int):
            return NotImplemented
        return power(self, k, Mat2.identity())

    def __neg__(self) -> "Mat2":
        return Mat2(-self.e11, -self.e12, -self.e21, -self.e22)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.e11 == other.e11
            and self.e12 == other.e12
            and self.e21 == other.e21
            and self.e22 == other.e22
        )

    def __hash__(self):
        return hash((self.e11, self.e12, self.e21, self.e22))

    def __repr__(self):
        return f"Mat2([[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]])"

    def is_identity_multiple(self) -> bool:
        """True when the matrix is c*I for some nonzero c."""
        return (not self.e12) and (not self.e21) and self.e11 == self.e22 and bool(self.e11)

    def entries(self) -> Tuple[RingElem, RingElem, RingElem, RingElem]:
        return (self.e11, self.e12, self.e21, self.e22)

    # -- projective action ------------------------------------------------

    def moebius(self, z: Value) -> Value:
        """Image of ``z`` (a ring value, extension value, or INF)."""
        if z is INF:
            p, q = self.e11, self.e21
        else:
            p, q = self.e11 * z + self.e12, self.e21 * z + self.e22
        if not q:
            if not p:
                raise ZeroDivisionError("indeterminate projective image")
            return INF
        return p / q


def _prefix_entries(word: Iterable) -> Iterator[Tuple[RingElem, RingElem, RingElem, RingElem]]:
    """Entries ``(e11, e12, e21, e22)`` of the matrix of each nonempty prefix.

    Right multiplication by ``[[c, 1], [1, 0]]`` maps each row ``(x, y)`` to
    ``(x*c + y, x)``: two ring products per entry of the word, not eight.
    """
    e11, e12, e21, e22 = RingElem(1), RingElem(0), RingElem(0), RingElem(1)
    for c in word:
        e11, e12, e21, e22 = e11 * c + e12, e11, e21 * c + e22, e21
        yield e11, e12, e21, e22


def cf_matrix(word: Iterable) -> Mat2:
    entries = (1, 0, 0, 1)  # the empty word
    for entries in _prefix_entries(word):
        pass
    return Mat2(*entries)


def continuant(word: Sequence) -> RingElem:
    """K(c_1, ..., c_n) with K() = 1 and K(c) = c."""
    prev = RingElem(0)
    cur = RingElem(1)
    for c in word:
        prev, cur = cur, cur * RingElem._wrap(c) + prev
    return cur


def finite_cf_value(word: Sequence) -> Value:
    """Value of the finite continued fraction, INF for the empty word."""
    word = list(word)
    if not word:
        return INF
    p = continuant(word)
    q = continuant(word[1:])
    if not q:
        # p and q cannot vanish together: they are adjacent minors of a
        # determinant-(+-1) matrix
        return INF
    return p / q


def convergents(word: Iterable) -> List[Value]:
    """Values of all prefixes, starting with the empty one (INF)."""
    return [INF] + [INF if not e21 else e11 / e21 for e11, _, e21, _ in _prefix_entries(word)]
