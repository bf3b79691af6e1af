"""The Fraction-based cyclotomic arithmetic that the integer kernel in
``skeinhc.scalars`` replaced, kept as a test oracle.

Everything here works on ``fractions.Fraction`` coefficients: values of
Q(zeta_m) reduced modulo Phi_m by schoolbook division, inverses by the
extended Euclidean algorithm over Q[x], specialization of a ScalarQ by
Horner evaluation at zeta (i -> zeta^N), and Gaussian elimination that
divides every row by the pivot.  ``test_integer_cyclotomic.py`` checks that
the integer kernel agrees with it exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from skeinhc.errors import PoleError


def _qdiv_rational(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        out[d] = c
        for k, v in enumerate(b):
            a[d + k] -= c * v
        a.pop()
        while a and a[-1] == 0 and len(a) >= len(b):
            a.pop()
    assert not any(a), "inexact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _qdiv_rational(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _cyclo_reduce(order: int, coeffs: list) -> list:
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            for j in range(deg + 1):
                coeffs[k - deg + j] -= c * phi[j]
    return coeffs[:deg]


def _polymul_rational(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    out[j + k] += x * y
    return out


def _trim(x):
    x = list(x)
    while x and x[-1] == 0:
        x.pop()
    return x


def _poly_modinv(a: list, m: list) -> list:
    """Inverse of a modulo m in Q[x] via the extended Euclidean algorithm."""

    def divmod_(x, y):
        x = list(x)
        q = [Fraction(0)] * max(1, len(x) - len(y) + 1)
        while x and len(x) >= len(y):
            c = x[-1] / y[-1]
            d = len(x) - len(y)
            q[d] = c
            for k, v in enumerate(y):
                x[d + k] -= c * v
            while x and x[-1] == 0:
                x.pop()
        return q, x

    r0, r1 = _trim(m), _trim(a)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, _trim(r)
        qs = _trim(_polymul_rational(q, s1))
        s = [Fraction(0)] * max(len(s0), len(qs))
        for k, v in enumerate(s0):
            s[k] += v
        for k, v in enumerate(qs):
            s[k] -= v
        s0, s1 = s1, _trim(s)
    lead = r0[-1]
    return [c / lead for c in s0]


class LegacyCyclotomic:
    """An element of Q(zeta_m) with Fraction coefficients, reduced modulo Phi_m."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = len(cyclotomic_polynomial(order)) - 1
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > deg:
            coeffs = _cyclo_reduce(order, coeffs)
        coeffs += [Fraction(0)] * (deg - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = LegacyCyclotomic(self.order, [other])
        assert other.order == self.order
        return other

    def __add__(self, other):
        other = self._check(other)
        return LegacyCyclotomic(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return LegacyCyclotomic(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        other = self._check(other)
        return LegacyCyclotomic(
            self.order, _polymul_rational(list(self.coeffs), list(other.coeffs))
        )

    __rmul__ = __mul__

    def __neg__(self):
        return LegacyCyclotomic(self.order, [-c for c in self.coeffs])

    def inv(self) -> "LegacyCyclotomic":
        assert not self.is_zero
        phi = list(cyclotomic_polynomial(self.order))
        return LegacyCyclotomic(self.order, _poly_modinv(list(self.coeffs), phi))

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = LegacyCyclotomic(self.order, [1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def conjugate(self) -> "LegacyCyclotomic":
        """Complex conjugation, zeta -> zeta^(order-1)."""
        out = LegacyCyclotomic(self.order, [0])
        z = LegacyCyclotomic(self.order, [1])
        zc = LegacyCyclotomic(self.order, [0, 1]) ** (self.order - 1)
        for c in self.coeffs:
            out = out + c * z
            z = z * zc
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return " + ".join(parts).replace("+ -", "- ")


def specialize(f, N: int) -> LegacyCyclotomic:
    """Horner evaluation of a ScalarQ at q = zeta_4N, mapping i -> zeta^N."""
    m = 4 * N
    zeta = LegacyCyclotomic(m, [0, 1])
    i = zeta ** N

    def horner(poly):
        acc = LegacyCyclotomic(m, [])
        for c in reversed(poly):
            acc = acc * zeta + (LegacyCyclotomic(m, [c.re]) + c.im * i)
        return acc

    den = horner(f.den)
    if den.is_zero:
        raise PoleError(f"denominator of {f} vanishes at q = zeta_{m}")
    return horner(f.num) / den


def matrix_rank(mat: list) -> int:
    """Gaussian elimination that divides each row's entry by the pivot."""
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c.is_zero:
                continue
            factor = c / pv
            rows[r] = [rows[r][k] - factor * rows[rank][k] for k in range(ncols)]
        rank += 1
        col += 1
    return rank
