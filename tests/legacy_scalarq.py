"""The Fraction-based ScalarQ that the integer kernel in ``skeinhc.scalars``
replaced, kept as a test oracle.

Polynomials are tuples of ``GaussianRational`` coefficients, lowest degree
first.  A value is reduced by the Euclidean gcd over Q(i)[q] and scaled to
a monic denominator.  ``test_integer_scalarq.py`` checks that the integer
kernel agrees with it exactly.
"""

from __future__ import annotations

from fractions import Fraction

from skeinhc.errors import DomainError, PoleError
from skeinhc.scalars import GaussianRational, _gauss, _power

_G0 = GaussianRational(0)
_G1 = GaussianRational(1)


def _ptrim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, v in enumerate(b):
        out[k] = out[k] + v
    return _ptrim(out)


def _pneg(a):
    return tuple(-v for v in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_G0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b, j):
                if y:
                    out[k] = out[k] + x * y
    return _ptrim(out)


def _pscale(a, c):
    if not c:
        return ()
    return tuple(v * c for v in a)


def _pdivmod(a, b):
    if not b:
        raise DomainError("polynomial division by zero")
    a = list(a)
    q = [_G0] * max(0, len(a) - len(b) + 1)
    inv_lead = _G1 / b[-1]
    while len(a) >= len(b) and _ptrim(list(a)):
        a = list(_ptrim(a))
        if len(a) < len(b):
            break
        c = a[-1] * inv_lead
        d = len(a) - len(b)
        q[d] = c
        for k, v in enumerate(b):
            a[d + k] = a[d + k] - c * v
        a.pop()
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, _G1 / a[-1])  # monic


def _peval_gauss(p, x):
    acc = GaussianRational(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _reduce(num, den):
    if not num:
        return (), (_G1,)
    if len(den) == 1:
        if den[0] == _G1:
            return num, den
        return _pscale(num, _G1 / den[0]), (_G1,)
    vn = next(k for k, c in enumerate(num) if c)
    vd = next(k for k, c in enumerate(den) if c)
    shift = vn if vn < vd else vd
    if shift:
        num = num[shift:]
        den = den[shift:]
        if len(den) == 1:
            return _reduce(num, den)
    if not any(den[:-1]):
        lead = den[-1]
        if lead != _G1:
            inv = _G1 / lead
            return _pscale(num, inv), _pscale(den, inv)
        return num, den
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    lead = den[-1]
    if lead != _G1:
        inv = _G1 / lead
        num = _pscale(num, inv)
        den = _pscale(den, inv)
    return num, den


class LegacyScalarQ:
    """A rational function in q over Q(i): GaussianRational polynomials,
    gcd(num, den) = 1 and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=(_G1,), _normalized=False):
        if isinstance(num, (int, Fraction, GaussianRational)):
            num = (_gauss(num),) if num else ()
        if isinstance(den, (int, Fraction, GaussianRational)):
            den = (_gauss(den),) if den else ()
        num = _ptrim(list(num))
        den = _ptrim(list(den))
        if not den:
            raise DomainError("zero denominator")
        if not _normalized:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _scalar(other)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return LegacyScalarQ(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = _scalar(other)
        num = _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den)))
        return LegacyScalarQ(num, _pmul(self.den, other.den))

    def __rsub__(self, other):
        return _scalar(other) - self

    def __mul__(self, other):
        other = _scalar(other)
        return LegacyScalarQ(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _scalar(other)
        if not other.num:
            raise DomainError("division by zero scalar")
        return LegacyScalarQ(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _scalar(other) / self

    def __neg__(self):
        return LegacyScalarQ(_pneg(self.num), self.den, _normalized=True)

    def __pow__(self, k: int):
        return _power(self, k, LegacyScalarQ(1))

    def inv(self):
        return LegacyScalarQ(1) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _scalar(other)
        if not isinstance(other, LegacyScalarQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __str__(self):
        num = _poly_str(self.num)
        if self.den == (_G1,):
            return num
        den = _poly_str(self.den)
        if len(self.num) > 1 or (self.num and (self.num[0].re and self.num[0].im)):
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def eval_at(self, x) -> GaussianRational:
        x = _gauss(x)
        den = _peval_gauss(self.den, x)
        if not den:
            raise PoleError(f"denominator vanishes at q = {x}")
        return _peval_gauss(self.num, x) / den


def _poly_str(p: tuple) -> str:
    """The text of a GaussianRational polynomial, highest power first: the
    renderer ScalarQ used before it printed from its int parts."""
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c:
            mon = "" if k == 0 else "q" if k == 1 else f"q^{k}"
            cs = f"({c})" if c.re and c.im and mon else str(c)
            if mon:
                cs = mon if cs == "1" else f"-{mon}" if cs == "-1" else f"{cs}*{mon}"
            terms.append(cs)
    out = terms[0] if terms else "0"
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _scalar(x) -> LegacyScalarQ:
    if isinstance(x, LegacyScalarQ):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return LegacyScalarQ(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)(q)")
