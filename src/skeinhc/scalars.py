"""Exact coefficient arithmetic.

Three layers:

* :class:`GaussianRational` -- elements a + b*i of Q(i), with exact
  `fractions.Fraction` parts.
* :class:`ScalarQ` -- rational functions in the variable q over Q(i),
  stored as a reduced fraction of dense polynomials with a monic
  denominator, so structural equality coincides with equality of values.
* :class:`CyclotomicValue` -- elements of Q(zeta_m) as an integer vector
  modulo the m-th cyclotomic polynomial over one positive integer
  denominator.  The specialization points of interest send q to the
  primitive root exp(2*pi*i/(4N)), under which i becomes zeta^N.

>>> (Q * Q.inv()) == ONE
True
>>> str(loop_value())
'(2*i*q)/(q^2 - 1)'
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ConsistencyError, DomainError, PoleError

__all__ = [
    "GaussianRational",
    "ScalarQ",
    "CyclotomicValue",
    "SpecializationPoint",
    "RationalFunctionField",
    "CyclotomicField",
    "QIQ",
    "ZERO",
    "ONE",
    "I",
    "Q",
    "loop_value",
    "q_power",
    "specialize",
    "parse_scalar",
    "cyclotomic_polynomial",
]


class GaussianRational:
    """An exact element a + b*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _gauss(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _gauss(other) - self

    def __mul__(self, other):
        other = _gauss(other)
        if not self.im:
            if not other.im:
                return GaussianRational(self.re * other.re)
            return GaussianRational(self.re * other.re, self.re * other.im)
        if not other.im:
            return GaussianRational(self.re * other.re, self.im * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise DomainError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _gauss(other) / self

    def inv(self):
        return _G1 / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        im = _imag_str(self.im) if self.im > 0 else "- " + _imag_str(-self.im)
        sep = " + " if self.im > 0 else " "
        return f"{self.re}{sep}{im}"


def _gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)")


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return f"{f}*i"


_G0 = GaussianRational(0)
_G1 = GaussianRational(1)

# ---------------------------------------------------------------------------
# Dense polynomials over Q(i), lowest degree first, no trailing zeros.

Poly = tuple  # tuple[GaussianRational, ...]


def _ptrim(c: list) -> Poly:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, v in enumerate(b):
        out[k] = out[k] + v
    return _ptrim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-v for v in a)


def _polymul(a, b, zero=0) -> list:
    """Dense product of coefficient sequences (ints or GaussianRationals)."""
    out = [zero] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b, j):
                if y:
                    out[k] = out[k] + x * y  # faster than += here
    return out


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    return _ptrim(_polymul(a, b, _G0))


def _pscale(a: Poly, c: GaussianRational) -> Poly:
    if not c:
        return ()
    return tuple(v * c for v in a)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
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


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, _G1 / a[-1])  # monic


def _peval_gauss(p: Poly, x: GaussianRational) -> GaussianRational:
    acc = GaussianRational(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------


class ScalarQ:
    """A rational function in q over Q(i), kept in reduced normal form.

    Invariants: gcd(num, den) = 1 and den is monic, so two ScalarQ values
    are equal as functions iff they are structurally equal.
    """

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

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        other = _scalar(other)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return ScalarQ(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = _scalar(other)
        num = _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den)))
        return ScalarQ(num, _pmul(self.den, other.den))

    def __rsub__(self, other):
        return _scalar(other) - self

    def __mul__(self, other):
        other = _scalar(other)
        return ScalarQ(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _scalar(other)
        if not other.num:
            raise DomainError("division by zero scalar")
        return ScalarQ(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _scalar(other) / self

    def __neg__(self):
        return ScalarQ(_pneg(self.num), self.den, _normalized=True)

    def __pow__(self, k: int):
        return _power(self, k, ONE)

    def inv(self):
        return ONE / self

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _scalar(other)
        if not isinstance(other, ScalarQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self):
        return f"ScalarQ({self!s})"

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
        """Evaluate at a rational (or Gaussian-rational) value of q."""
        x = _gauss(x)
        den = _peval_gauss(self.den, x)
        if not den:
            raise PoleError(f"denominator vanishes at q = {x}")
        return _peval_gauss(self.num, x) / den


def _power(x, k: int, one):
    """x**k by repeated squaring; a negative k powers x.inv()."""
    if k < 0:
        x, k = x.inv(), -k
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not num:
        return (), (_G1,)
    if len(den) == 1:
        if den[0] == _G1:
            return num, den
        return _pscale(num, _G1 / den[0]), (_G1,)
    # strip common powers of q cheaply before the general gcd
    vn = next(k for k, c in enumerate(num) if c)
    vd = next(k for k, c in enumerate(den) if c)
    shift = vn if vn < vd else vd
    if shift:
        num = num[shift:]
        den = den[shift:]
        if len(den) == 1:
            return _reduce(num, den)
    if not any(den[:-1]):  # monomial denominator: gcd is now trivial
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


def _scalar(x) -> ScalarQ:
    if isinstance(x, ScalarQ):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return ScalarQ(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)(q)")


def _poly_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            mon = ""
        elif k == 1:
            mon = "q"
        else:
            mon = f"q^{k}"
        cs = str(c)
        if (c.re and c.im) and mon:
            cs = f"({cs})"
        if mon and cs == "1":
            term = mon
        elif mon and cs == "-1":
            term = f"-{mon}"
        elif mon:
            term = f"{cs}*{mon}"
        else:
            term = cs
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


ZERO = ScalarQ(0)
ONE = ScalarQ(1)
I = ScalarQ(GaussianRational(0, 1))
Q = ScalarQ((_G0, _G1))


def q_power(k: int) -> ScalarQ:
    """q**k for any integer k (negative allowed)."""
    if k >= 0:
        return ScalarQ(tuple([_G0] * k + [_G1]))
    return ScalarQ((_G1,), tuple([_G0] * (-k) + [_G1]))


def loop_value() -> ScalarQ:
    """The value of a closed loop, 2i/(q - q^(-1))."""
    return (2 * I) / (Q - q_power(-1))


# ---------------------------------------------------------------------------
# Cyclotomic fields Q(zeta_m), on Python ints.


def _fold(coeffs: list, deg: int, rule) -> list:
    """Reduce an int coefficient list modulo the monic Phi with
    x^deg = sum(c * x^j for j, c in rule), in place and from the top down.
    Afterwards coeffs[:deg] is the remainder and coeffs[deg:] the quotient."""
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c:
            base = k - deg
            for j, r in rule:
                coeffs[base + j] += c * r
    return coeffs


@lru_cache(maxsize=None)
def _modulus(m: int) -> tuple:
    """(deg, rule) for Phi_m over Z: x^deg = sum(c * x^j for j, c in rule)
    modulo Phi_m.  Phi_m is x^m - 1 divided by the monic Phi_d for every
    proper divisor d of m, so the divisions are exact over Z."""
    if m < 1:
        raise DomainError("cyclotomic order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            deg_d, rule_d = _modulus(d)
            poly = _fold(poly, deg_d, rule_d)[deg_d:]
    deg = len(poly) - 1
    return deg, tuple((j, -c) for j, c in enumerate(poly[:deg]) if c)


def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Monic cyclotomic polynomial Phi_n over Q, dense, lowest degree first.

    >>> cyclotomic_polynomial(8)
    (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))
    """
    deg, rule = _modulus(n)
    phi = [Fraction(0)] * deg + [Fraction(1)]
    for j, c in rule:
        phi[j] = Fraction(-c)
    return tuple(phi)


class CyclotomicValue:
    """An element of Q(zeta_m), reduced modulo Phi_m(x).

    Stored as num/den: num is an int vector over the power basis
    1, zeta, ..., zeta^(phi(m) - 1), den a positive int, and den and the
    entries of num have no common factor.  The form is canonical, so
    equality is structural.  ``coeffs`` gives the Fraction coefficients.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs, den=None):
        deg, rule = _modulus(order)
        if den is None:  # int or Fraction coefficients
            coeffs = [Fraction(c) for c in coeffs]
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        if len(coeffs) > deg:
            coeffs = _fold(list(coeffs), deg, rule)[:deg]
        else:
            coeffs = list(coeffs) + [0] * (deg - len(coeffs))
        if den != 1:
            if den < 0:
                den = -den
                coeffs = [-c for c in coeffs]
            g = gcd(den, *coeffs)
            if g != 1:
                den //= g
                coeffs = [c // g for c in coeffs]
        self.order = order
        self.num = tuple(coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicValue(self.order, [other])
        if other.order != self.order:
            raise DomainError("mixed cyclotomic orders")
        return other

    def __add__(self, other, sign=1):
        other = self._check(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if da != db:
            a, b, da = [x * db for x in a], [y * da for y in b], da * db
        return CyclotomicValue(self.order, [x + sign * y for x, y in zip(a, b)], da)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return CyclotomicValue(
            self.order, _polymul(self.num, other.num), self.den * other.den
        )

    __rmul__ = __mul__

    def __neg__(self):
        return CyclotomicValue(self.order, [-c for c in self.num], self.den)

    def _galois(self, k: int) -> list:
        """Unreduced exponent vector of sigma_k(num), zeta -> zeta^k."""
        m = self.order
        out = [0] * m
        for j, c in enumerate(self.num):
            out[j * k % m] += c
        return out

    def inv(self) -> "CyclotomicValue":
        """1/a as the product of the conjugates sigma_k(a), 1 < k < m
        coprime to m, divided by the rational norm N(a) = a * that product."""
        if self.is_zero:
            raise DomainError("inverse of zero cyclotomic value")
        m = self.order
        deg, rule = _modulus(m)
        cof = [1]
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = _fold(self._galois(k), deg, rule)[:deg]
                cof = _fold(_polymul(cof, conj), deg, rule)[:deg]
        norm = _fold(_polymul(self.num, cof), deg, rule)[:deg]
        if any(norm[1:]):
            raise ConsistencyError("cyclotomic norm is not rational")
        return CyclotomicValue(m, [c * self.den for c in cof], norm[0])

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._check(other) * self.inv()

    def __pow__(self, k: int):
        return _power(self, k, CyclotomicValue(self.order, [1]))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicValue(self.order, [other])
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        return (self.order, self.num, self.den) == (other.order, other.num, other.den)

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def conjugate(self) -> "CyclotomicValue":
        """Complex conjugation, zeta -> zeta^(order-1)."""
        return CyclotomicValue(self.order, self._galois(-1), self.den)

    def __complex__(self):
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(c) * z**k for k, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"CyclotomicValue({self.order}, {list(self.coeffs)!r})"

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


# ---------------------------------------------------------------------------
# Specialization points and field adapters.


class SpecializationPoint:
    """The evaluation q -> exp(2*pi*i/(4N)), a primitive 4N-th root with q^N = i."""

    __slots__ = ("N",)

    def __init__(self, N: int):
        if N < 2:
            raise DomainError("specialization points require N >= 2")
        self.N = N

    @property
    def order(self) -> int:
        return 4 * self.N

    def __eq__(self, other):
        return isinstance(other, SpecializationPoint) and self.N == other.N

    def __hash__(self):
        return hash(("spec", self.N))

    def __repr__(self):
        return f"SpecializationPoint(N={self.N})"


class RationalFunctionField:
    """Field adapter for Q(i)(q)-valued coefficients."""

    name = "Q(i)(q)"

    zero = ZERO
    one = ONE
    i = I
    q = Q
    z = Q - ScalarQ((_G1,), (_G0, _G1))  # q - q^(-1)
    loop = (2 * I) / z
    q_power = staticmethod(q_power)
    from_int = ScalarQ


QIQ = RationalFunctionField()


class CyclotomicField:
    """Field adapter for Q(zeta_{4N}) at the distinguished point q = zeta_{4N}."""

    def __init__(self, N: int):
        self.point = SpecializationPoint(N)
        m = self.point.order
        self.order = m
        self.name = f"Q(zeta_{m})"
        # zeta^e reduced modulo Phi_m, for 0 <= e < m
        self.powers = tuple(CyclotomicValue(m, [0] * e + [1], 1) for e in range(m))
        self.zero = CyclotomicValue(m, [], 1)
        self.one = self.powers[0]
        self.zeta = self.q = self.powers[1]
        self.i = self.powers[N]
        self.z = self.zeta - self.powers[m - 1]  # zeta - zeta^(-1)
        self.loop = (2 * self.i) / self.z

    def from_int(self, k: int) -> CyclotomicValue:
        return CyclotomicValue(self.order, [k])

    def q_power(self, k: int) -> CyclotomicValue:
        """zeta^k for any integer k, from the table of reduced powers."""
        return self.powers[k % self.order]

    def _image(self, poly: Poly, shift: int = 0) -> CyclotomicValue:
        """The value at q = zeta of sum(c_k * q^(k + shift)) over Q(i).

        With the coefficient denominators cleared, (a + b*i) q^e adds a to
        the exponent e and b to the exponent e + N (i = zeta^N), modulo
        the order; the constructor then reduces modulo Phi.
        """
        m, N = self.order, self.point.N
        den = lcm(*(x.denominator for c in poly for x in (c.re, c.im)))
        acc = [0] * m
        for e, c in enumerate(poly, shift):
            if c.re:
                acc[e % m] += c.re.numerator * (den // c.re.denominator)
            if c.im:
                acc[(e + N) % m] += c.im.numerator * (den // c.im.denominator)
        return CyclotomicValue(m, acc, den)


@lru_cache(maxsize=None)
def _field_for(N: int) -> CyclotomicField:
    return CyclotomicField(N)


def specialize(f: ScalarQ, point: SpecializationPoint | int) -> CyclotomicValue:
    """Exact image of f under q -> zeta_{4N}; raises PoleError at a pole.

    A factor q^v of the (monic) denominator becomes the exponent shift -v
    of the numerator, so a monomial denominator costs no inverse.

    >>> str(specialize(Q, SpecializationPoint(2)))
    'z'
    """
    if isinstance(point, int):
        point = SpecializationPoint(point)
    field = _field_for(point.N)
    v = next(k for k, c in enumerate(f.den) if c)
    num = field._image(f.num, -v)
    if len(f.den) == v + 1:
        return num
    den = field._image(f.den[v:])
    if den.is_zero:
        raise PoleError(f"denominator of {f} vanishes at q = zeta_{field.order}")
    return num * den.inv()


# ---------------------------------------------------------------------------
# Textual scalar grammar: integers, i, q, ^ exponents, + - * /, parentheses.

_MAX_NESTING = 100  # parenthesis depth; each level costs four stack frames
_MAX_POWER_SIZE = 512  # |exponent| * max(degree, coefficient bits) of a power


def parse_scalar(text: str) -> ScalarQ:
    """Parse the scalar grammar into an exact ScalarQ.

    Deeper nesting than _MAX_NESTING, and powers whose result would exceed
    _MAX_POWER_SIZE in degree or coefficient bits, raise DomainError.

    >>> parse_scalar("2*i/(q - q^-1)") == loop_value()
    True
    """
    tokens = _tokenize(text)
    pos = [0]
    depth = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise DomainError(f"scalar parse error near token {pos[0]} in {text!r}")
        pos[0] += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor():
        negate = False
        while peek() in ("+", "-"):
            negate ^= take() == "-"
        node = parse_atom()
        return -node if negate else node

    def parse_atom():
        tok = take()
        if tok == "(":
            depth[0] += 1
            if depth[0] > _MAX_NESTING:
                raise DomainError(f"scalar nested deeper than {_MAX_NESTING}")
            node = parse_expr()
            take(")")
            depth[0] -= 1
        elif tok == "i":
            node = I
        elif tok == "q":
            node = Q
        elif isinstance(tok, int):
            node = ScalarQ(tok)
        else:
            raise DomainError(f"unexpected token {tok!r} in scalar {text!r}")
        if peek() == "^":
            take()
            sign = -1 if peek() == "-" else 1
            if sign < 0:
                take()
            exp = take()
            if not isinstance(exp, int):
                raise DomainError(f"bad exponent in scalar {text!r}")
            if exp * _size(node) > _MAX_POWER_SIZE:
                raise DomainError(f"power too large in scalar {text!r}")
            node = node ** (sign * exp)
        return node

    node = parse_expr()
    if pos[0] != len(tokens):
        raise DomainError(f"trailing input in scalar {text!r}")
    return node


def _size(node: ScalarQ) -> int:
    """max(degree, coefficient bit length) of a scalar, at least 1."""
    bits = (
        max(abs(x.numerator), x.denominator).bit_length()
        for c in node.num + node.den
        for x in (c.re, c.im)
    )
    return max(1, len(node.num) - 1, len(node.den) - 1, *bits)


def _tokenize(text: str):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
        elif ch.isdecimal():  # int() rejects some isdigit() characters: "²"
            j = k
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                tokens.append(int(text[k:j]))
            except ValueError:  # beyond the interpreter's digit limit
                raise DomainError(f"integer too long in scalar {text!r}") from None
            k = j
        elif ch in "iq+-*/^()":
            tokens.append(ch)
            k += 1
        else:
            raise DomainError(f"bad character {ch!r} in scalar {text!r}")
    return tokens
