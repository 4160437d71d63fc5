"""Exact arithmetic in Q(sqrt 2) and in quadratic extensions of it.

Written apart from pcflab so that the benchmark can generate inputs and check
outputs without trusting the code it measures.  An element ``a + b*sqrt(2)``
is the pair ``(a, b)`` of ints or Fractions; a matrix is the 4-tuple
``(e11, e12, e21, e22)`` of such pairs; an element ``x + y*v`` of an extension
with ``v*v == theta`` is the pair ``(x, y)`` of elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

ZERO = (0, 0)
ONE = (1, 0)
W = (0, 1)


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def norm(x):
    """Rational norm ``a*a - 2*b*b``."""
    return x[0] * x[0] - 2 * x[1] * x[1]


def inv(x):
    n = Fraction(norm(x))
    return (x[0] / n, -x[1] / n)


def is_zero(x) -> bool:
    return x[0] == 0 and x[1] == 0


def _sgn(q) -> int:
    return (q > 0) - (q < 0)


def sign(x) -> int:
    """Exact sign of ``a + b*sqrt(2)`` as a real number."""
    sa, sb = _sgn(x[0]), _sgn(x[1])
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa * _sgn(x[0] * x[0] - 2 * x[1] * x[1])


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def may_be_square(x) -> bool:
    """False only when ``x`` is certainly not a square in Q(sqrt 2).

    Checked for integral ``x``: an integer is a square there exactly when it
    is ``p^2`` or ``2 q^2``; otherwise a square must have a square norm.
    """
    a, b = x
    if b == 0:
        return is_perfect_square(a) or (a % 2 == 0 and is_perfect_square(a // 2))
    return is_perfect_square(norm(x))


def v2_int(n: int) -> float:
    """2-adic valuation of an integer, ``inf`` at zero."""
    if n == 0:
        return float("inf")
    n = abs(n)
    return (n & -n).bit_length() - 1


def val2(x):
    """2-adic valuation on Z[sqrt 2], normalized so that ``val2(2) == 1``."""
    if is_zero(x):
        return float("inf")
    return Fraction(v2_int(norm(x)), 2)


# ---------------------------------------------------------------------------
# 2x2 matrices and continued fractions


def mat_mul(m, n):
    return (
        add(mul(m[0], n[0]), mul(m[1], n[2])),
        add(mul(m[0], n[1]), mul(m[1], n[3])),
        add(mul(m[2], n[0]), mul(m[3], n[2])),
        add(mul(m[2], n[1]), mul(m[3], n[3])),
    )


def word_matrix(word):
    """Product of the blocks ``[[c, 1], [1, 0]]`` over a word of partial quotients."""
    m = (ONE, ZERO, ZERO, ONE)
    for c in word:
        m = mat_mul(m, (c, ONE, ONE, ZERO))
    return m


def conjugated_matrix(pre, per):
    """``M(pre) M(per) adj(M(pre))``: the conjugated period matrix times ``det M(pre) = +-1``.

    The sign does not move fixed points, the trace squared, the determinant
    or the modulus of an eigenvalue.
    """
    p = word_matrix(pre)
    adj = (p[3], neg(p[1]), neg(p[2]), p[0])
    return mat_mul(mat_mul(p, word_matrix(per)), adj)


def trace_det(m):
    return add(m[0], m[3]), sub(mul(m[0], m[3]), mul(m[1], m[2]))


def family_residuals(target, pre, per):
    """Defects of the PCF ``[pre; per]`` against the root family of ``A x^2 + B x + C``.

    They are the cross products of ``(A, B, C)`` with the fixed-point
    quadratic ``e21 x^2 + (e22 - e11) x - e12`` of the conjugated matrix;
    all vanish exactly for a family member.
    """
    e11, e12, e21, e22 = conjugated_matrix(pre, per)
    A, B, C = target
    diag = sub(e22, e11)
    return (
        sub(mul(A, diag), mul(B, e21)),
        neg(add(mul(A, e12), mul(C, e21))),
        neg(add(mul(B, e12), mul(C, diag))),
    )


def e_curve_defect(pi, a, b):
    """Defect of ``(a^2 b + 1) b = pi``."""
    return sub(mul(add(mul(mul(a, a), b), ONE), b), pi)


# ---------------------------------------------------------------------------
# quadratic extensions x + y*v with v*v == theta


def ext_mul(x, y, theta):
    return (
        add(mul(x[0], y[0]), mul(theta, mul(x[1], y[1]))),
        add(mul(x[0], y[1]), mul(x[1], y[0])),
    )


def ext_pow(x, k: int, theta):
    """``x**k``; a negative ``k`` needs ``x`` of relative norm 1, whose inverse is its conjugate."""
    if k < 0:
        n = sub(mul(x[0], x[0]), mul(theta, mul(x[1], x[1])))
        if n != ONE:
            raise ValueError("negative powers need relative norm 1")
        x, k = (x[0], neg(x[1])), -k
    out = (ONE, ZERO)
    for _ in range(k):
        out = ext_mul(out, x, theta)
    return out
