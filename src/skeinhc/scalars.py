"""Exact coefficient arithmetic.

Three layers:

* :class:`GaussianRational` -- elements a + b*i of Q(i), with exact
  `fractions.Fraction` parts.
* :class:`ScalarQ` -- rational functions in the variable q over Q(i),
  stored on ints as a reduced fraction of dense polynomials over Z[i] in
  a canonical form, so structural equality coincides with equality of values.
  Results that are canonical by construction skip `_canonical`: a product
  by 1 or -1 and a negation (the negated numerator keeps the denominator
  and its positive integer lead), and products, quotients and sums of
  values over q^j (q^2 - 1)^k (a loop is 2iq/(q^2 - 1)), see `_family`.
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
from .records import FrozenRecord

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
        if not (self.im or other.im):
            return GaussianRational(self.re * other.re)
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

    def __hash__(self):  # a real value hashes like the equal Fraction or int
        return hash((self.re, self.im)) if self.im else hash(self.re)

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
        return _coeff_str(self.re, self.im)


def _gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)")


def _coeff_str(re, im) -> str:
    """The text of re + im*i for int or Fraction parts."""
    if not im:
        return str(re)
    i = "i" if abs(im) == 1 else f"{abs(im)}*i"
    if not re:
        return i if im > 0 else f"-{i}"
    return f"{re} {'+' if im > 0 else '-'} {i}"


_G1 = GaussianRational(1)

# ---------------------------------------------------------------------------
# Polynomials over Z[i]: a pair (re, im) of int tuples, lowest degree first,
# each without trailing zeros (im is () for a real polynomial).


def _trim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _low(p: tuple) -> int:
    """Index of the lowest nonzero entry of p; 2^62 if there is none."""
    for k, c in enumerate(p):
        if c:
            return k
    return 1 << 62


def _comb(a: int, x, b: int, y) -> tuple:
    """a*x + b*y for int sequences x and y, trimmed."""
    if len(x) < len(y):
        a, x, b, y = b, y, a, x
    out = [a * c for c in x] if a != 1 else list(x)
    for k, c in enumerate(y):
        out[k] += b * c
    return _trim(out)


def _polymul(a, b) -> list:
    """Dense product of two int coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b, j):
                if y:
                    out[k] = out[k] + x * y  # faster than += here
    return out


def _gmul(ar, ai, br, bi) -> tuple:
    """(ar + i*ai) * (br + i*bi), one _polymul per pair of nonzero parts."""
    re = tuple(_polymul(ar, br)) if ar and br else ()
    im = tuple(_polymul(ar, bi)) if ar and bi else ()
    if ai:
        if bi:
            re = _comb(1, re, -1, _polymul(ai, bi))
        if br:
            im = _comb(1, im, 1, _polymul(ai, br))
    return re, im


def _normal(polys: tuple) -> tuple:
    """polys, a tuple of (re, im) pairs, times the conjugate a - b*i of the
    lead a + b*i of the last one, which makes that lead a positive integer,
    and then divided by the gcd of all their ints; a zero last one stays."""
    re, im = polys[-1]
    if not (re or im):
        return polys
    a = re[-1] if len(re) >= len(im) else 0
    b = im[-1] if len(im) >= len(re) else 0
    if b or a < 0:  # for b == 0 the gcd divides out |a| again
        polys = tuple((_comb(a, re, b, im), _comb(a, im, -b, re)) for re, im in polys)
    g = gcd(*(c for p in polys for part in p for c in part))
    if g == 1:
        return polys
    return tuple(tuple(tuple(c // g for c in part) for part in p) for p in polys)


def _gdivmod(a: tuple, b: tuple, e: int | None = None) -> tuple:
    """(quotient, remainder) of l^e * a by b over Z[i], where b's leading
    coefficient l is a positive integer.  e defaults to deg a - deg b + 1
    (pseudo-division); every step divides by l exactly."""
    (ar, ai), (br, bi) = a, b
    n, l = len(br) - 1, br[-1]
    m = max(len(ar), len(ai)) - 1
    f = l ** (m - n + 1 if e is None else e)
    ar = [f * c for c in ar] + [0] * (m + 1 - len(ar))
    ai = [f * c for c in ai] + [0] * (m + 1 - len(ai))
    qr, qi = [0] * (m - n + 1), [0] * (m - n + 1)
    for d in range(m - n, -1, -1):
        cr = qr[d] = ar[d + n] // l
        ci = qi[d] = ai[d + n] // l
        for j, c in enumerate(br, d):
            ar[j] -= cr * c
            ai[j] -= ci * c
        for j, c in enumerate(bi, d):
            ar[j] += ci * c
            ai[j] -= cr * c
    return (_trim(qr), _trim(qi)), (_trim(ar[:n]), _trim(ai[:n]))


def _gcd(a: tuple, b: tuple) -> tuple:
    """A gcd over Q(i)[q] of two nonzero polynomials over Z[i]: the
    primitive pseudo-remainder sequence."""
    a, b = sorted((_normal((p,))[0] for p in (a, b)), key=lambda p: -len(p[0]))
    while b[0] or b[1]:
        a, b = b, _normal((_gdivmod(a, b)[1],))[0]
    return a


def _canonical(nr, ni, dr, di) -> tuple:
    """The canonical form of (nr + i*ni)/(dr + i*di) over Z[i]: numerator
    and denominator coprime over Q(i)[q], the denominator's leading
    coefficient a positive integer L, and the gcd of all their ints 1.
    Divided by L, that is the reduced fraction with a monic denominator."""
    if not (dr or di):
        raise DomainError("zero denominator")
    if not (nr or ni):
        return (), (), (1,), ()
    shift = min(_low(nr), _low(ni), _low(dr), _low(di))
    if shift:
        nr, ni, dr, di = nr[shift:], ni[shift:], dr[shift:], di[shift:]
    top = max(len(dr), len(di)) - 1
    if min(_low(dr), _low(di)) < top:  # else a monomial: the gcd is 1
        g = _gcd((nr, ni), (dr, di))
        if len(g[0]) > 1:
            e = max(len(nr), len(ni), top + 1) - len(g[0]) + 1
            nr, ni = _gdivmod((nr, ni), g, e)[0]
            dr, di = _gdivmod((dr, di), g, e)[0]
    if dr[-1:] != (1,) or len(di) >= len(dr):  # the lead is not 1
        (nr, ni), (dr, di) = _normal(((nr, ni), (dr, di)))
    return nr, ni, dr, di


@lru_cache(maxsize=None)
def _z_power(k: int) -> tuple:
    """(q^2 - 1)^k, dense."""
    return (1,) if k == 0 else tuple(_polymul(_z_power(k - 1), (-1, 0, 1)))


def _exponents(dr: tuple, di: tuple):
    """(j, k) if dr + i*di is q^j (q^2 - 1)^k, else None."""
    if di or dr[-1] != 1:
        return None
    j = _low(dr)
    k, odd = divmod(len(dr) - 1 - j, 2)
    if not odd and dr[j] == (-1) ** k and dr[j:] == _z_power(k):
        return j, k
    return None


def _over_z(p: tuple) -> tuple:
    """p / (q^2 - 1) for an int polynomial p that it divides."""
    s = list(p[2:])
    for m in range(len(s) - 3, -1, -1):
        s[m] += s[m + 2]
    return tuple(s)


def _scaled(p: tuple, j: int, k: int) -> tuple:
    """p * q^j (q^2 - 1)^k."""
    if k and p:
        p = tuple(_polymul(p, _z_power(k)))
    return (0,) * j + p if p else p


def _family(nr: tuple, ni: tuple, j: int, k: int) -> ScalarQ:
    """(nr + i*ni)/(q^j (q^2 - 1)^k) for trimmed nr and ni, in the form of
    `_canonical` with no gcd: the denominator's only roots are 0 and +-1, so
    q and q^2 - 1 cancel exactly where the numerator vanishes at 0 and at
    both +-1, and the lead 1 keeps the content 1.  A numerator vanishing at
    just one of +-1 leaves the family and takes `_canonical`."""
    if not (nr or ni):
        return ZERO
    shift = min(_low(nr), _low(ni), j)
    if shift:
        nr, ni, j = nr[shift:], ni[shift:], j - shift
    while k:
        er, odd_r, ei, odd_i = sum(nr[::2]), sum(nr[1::2]), sum(ni[::2]), sum(ni[1::2])
        at_one = er + odd_r == 0 and ei + odd_i == 0
        at_minus_one = er == odd_r and ei == odd_i
        if not (at_one and at_minus_one):
            if at_one or at_minus_one:
                return ScalarQ(_parts=(nr, ni, (0,) * j + _z_power(k), ()))
            break
        nr, ni, k = _over_z(nr), _over_z(ni), k - 1
    return _new((nr, ni, (0,) * j + _z_power(k), ()), (j, k))


_PLUS_ONE, _MINUS_ONE = ((1,), (), (1,), ()), ((-1,), (), (1,), ())


class ScalarQ:
    """A rational function in q over Q(i), kept in reduced normal form.

    Stored on ints as ``_parts = (nr, ni, dr, di)``: (nr + i*ni)/(dr + i*di)
    in the form of `_canonical`, so two ScalarQ values are equal as
    functions iff they are structurally equal.  ``num`` and ``den`` give
    the reduced fraction with a monic denominator as GaussianRational tuples.
    ``_jk`` is `_exponents` of the denominator: (j, k) for q^j (q^2 - 1)^k,
    else None.
    """

    __slots__ = ("_parts", "_jk")

    def __init__(self, num=(), den=(_G1,), _parts=None):
        if _parts is None:
            num = (_gauss(num),) if isinstance(num, _COEFF) else tuple(map(_gauss, num))
            den = (_gauss(den),) if isinstance(den, _COEFF) else tuple(map(_gauss, den))
            scale = lcm(*(x.denominator for c in num + den for x in (c.re, c.im)))
            _parts = tuple(
                _trim([x.numerator * (scale // x.denominator) for x in part])
                for p in (num, den)
                for part in ([c.re for c in p], [c.im for c in p])
            )
        self._parts = parts = _canonical(*_parts)
        self._jk = _exponents(parts[2], parts[3])

    def _poly(self, re, im) -> tuple:
        lead, n = self._parts[2][-1], max(len(re), len(im))
        re, im = re + (0,) * (n - len(re)), im + (0,) * (n - len(im))
        return tuple(
            GaussianRational(Fraction(a, lead), Fraction(b, lead))
            for a, b in zip(re, im)
        )

    num = property(lambda self: self._poly(*self._parts[:2]))
    den = property(lambda self: self._poly(*self._parts[2:]))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other, sign=1):
        nr, ni, dr, di = self._parts
        other = _scalar(other)
        onr, oni, odr, odi = other._parts
        jk = self._jk
        if dr == odr and di == odi:
            num = _comb(1, nr, sign, onr), _comb(1, ni, sign, oni)
            return _family(*num, *jk) if jk else ScalarQ(_parts=(*num, dr, di))
        ojk = jk and other._jk
        if ojk:  # over q^max(j) (q^2 - 1)^max(k)
            (j, k), (oj, ok) = jk, ojk
            mj, mk = max(j, oj), max(k, ok)
            a, b = (mj - j, mk - k), (mj - oj, mk - ok)
            re = _comb(1, _scaled(nr, *a), sign, _scaled(onr, *b))
            im = _comb(1, _scaled(ni, *a), sign, _scaled(oni, *b))
            return _family(re, im, mj, mk)
        ar, ai = _gmul(nr, ni, odr, odi)
        br, bi = _gmul(onr, oni, dr, di)
        den = _gmul(dr, di, odr, odi)
        return ScalarQ(_parts=(_comb(1, ar, sign, br), _comb(1, ai, sign, bi), *den))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return _scalar(other) - self

    def __mul__(self, other, invert=False):
        nr, ni, dr, di = self._parts
        other = _scalar(other)
        if other._parts == _PLUS_ONE:  # 1 and -1 are their own inverses
            return self
        if other._parts == _MINUS_ONE:
            return -self
        onr, oni, odr, odi = other._parts
        jk, ojk = self._jk, other._jk
        if invert:
            if not (onr or oni):
                raise DomainError("division by zero scalar")
            onr, oni, odr, odi = odr, odi, onr, oni
            ojk = jk and _exponents(odr, odi)
        if jk and ojk:
            return _family(*_gmul(nr, ni, onr, oni), jk[0] + ojk[0], jk[1] + ojk[1])
        return ScalarQ(_parts=(*_gmul(nr, ni, onr, oni), *_gmul(dr, di, odr, odi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.__mul__(other, True)

    def __rtruediv__(self, other):
        return _scalar(other) / self

    def __neg__(self):
        nr, ni, dr, di = self._parts
        neg = tuple([-c for c in nr]), tuple([-c for c in ni])
        return _new((*neg, dr, di), self._jk)

    def __pow__(self, k: int):
        return _power(self, k, ONE)

    def inv(self):
        return ONE / self

    # -- structure ----------------------------------------------------------
    def __eq__(self, other):  # ScalarQ first: _COEFF holds the ABC Fraction
        if not isinstance(other, ScalarQ):
            if not isinstance(other, _COEFF):
                return NotImplemented
            other = _scalar(other)
        return self._parts == other._parts

    def __hash__(self):  # a constant hashes like the equal GaussianRational
        nr, ni, dr, _ = self._parts
        if len(dr) > 1 or len(nr) > 1 or len(ni) > 1:
            return hash(self._parts)
        re, im = nr[0] if nr else 0, ni[0] if ni else 0
        if dr[0] != 1:
            re, im = Fraction(re, dr[0]), Fraction(im, dr[0])
        return hash((re, im)) if im else hash(re)

    def __bool__(self):
        return bool(self._parts[0] or self._parts[1])

    @property
    def is_zero(self) -> bool:
        return not (self._parts[0] or self._parts[1])

    def __repr__(self):
        return f"ScalarQ({self!s})"

    def __str__(self):
        nr, ni, dr, di = self._parts
        num = _poly_str(nr, ni, dr[-1])
        if len(dr) == 1:  # the constant L, so den == (1,)
            return num
        if max(len(nr), len(ni)) > 1 or (nr and ni):
            num = f"({num})"
        return f"{num}/({_poly_str(dr, di, dr[-1])})"

    def eval_at(self, x) -> GaussianRational:
        """Evaluate at a rational (or Gaussian-rational) value of q.

        With x = (xr + i*xi)/s, the remainder of s^d * p by s*q - xr - i*xi
        is s^d * p(x); s^d cancels between numerator and denominator."""
        x = _gauss(x)
        s = lcm(x.re.denominator, x.im.denominator)
        xr, xi = (v.numerator * (s // v.denominator) for v in (x.re, x.im))
        root, d = ((-xr, s), (-xi,)), max(map(len, self._parts)) - 1
        num, den = (
            GaussianRational(*((r or (0,))[0] for r in _gdivmod(p, root, d)[1]))
            for p in (self._parts[:2], self._parts[2:])
        )
        if not den:
            raise PoleError(f"denominator vanishes at q = {x}")
        return num / den


_COEFF = (int, Fraction, GaussianRational)


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


def _new(parts: tuple, jk) -> ScalarQ:
    """A ScalarQ on parts already in the form of `_canonical`, whose
    denominator has the exponents jk (see `_exponents`)."""
    x = object.__new__(ScalarQ)
    x._parts = parts
    x._jk = jk
    return x


def _scalar(x) -> ScalarQ:
    if isinstance(x, ScalarQ):
        return x
    if isinstance(x, _COEFF):
        return ScalarQ(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)(q)")


def _poly_str(re: tuple, im: tuple, lead: int) -> str:
    """The text of (re + i*im)/lead, highest power of q first; the
    coefficients stay ints when lead is 1."""
    out = ""
    for k in range(max(len(re), len(im)) - 1, -1, -1):
        a, b = re[k] if k < len(re) else 0, im[k] if k < len(im) else 0
        if not (a or b):
            continue
        if lead != 1:
            a, b = Fraction(a, lead), Fraction(b, lead)
        cs = _coeff_str(a, b)
        if k:
            mon = "q" if k == 1 else f"q^{k}"
            cs = (mon if cs == "1" else f"-{mon}" if cs == "-1"
                  else f"({cs})*{mon}" if a and b else f"{cs}*{mon}")
        out += cs if not out else f" - {cs[1:]}" if cs[0] == "-" else f" + {cs}"
    return out or "0"


ZERO = ScalarQ(0)
ONE = ScalarQ(1)
I = ScalarQ(GaussianRational(0, 1))
Q = ScalarQ((0, 1))


def q_power(k: int) -> ScalarQ:
    """q**k for any integer k (negative allowed)."""
    mono = (0,) * abs(k) + (1,)
    parts = (mono, (), (1,), ()) if k >= 0 else ((1,), (), mono, ())
    return ScalarQ(_parts=parts)


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

    def __hash__(self):  # a rational value hashes like the equal Fraction or int
        if any(self.num[1:]):
            return hash((self.order, self.num, self.den))
        return hash(Fraction(self.num[0], self.den))

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
        for k, c in enumerate(self.num):
            if not c:
                continue
            if self.den != 1:
                c = Fraction(c, self.den)
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Specialization points and field adapters.


class SpecializationPoint(FrozenRecord):
    """The evaluation q -> exp(2*pi*i/(4N)), a primitive 4N-th root with q^N = i."""

    _fields = ("N",)
    MAX_N = 100  # the field keeps all 4N reduced powers of zeta; goldens use N <= 8

    def __init__(self, N: int):
        self._set(N=N)
        if not 2 <= self.N <= self.MAX_N:
            raise DomainError(f"specialization points require 2 <= N <= {self.MAX_N}")

    @property
    def order(self) -> int:
        return 4 * self.N


class RationalFunctionField:
    """Field adapter for Q(i)(q)-valued coefficients."""

    name = "Q(i)(q)"

    zero = ZERO
    one = ONE
    i = I
    q = Q
    z = Q - q_power(-1)
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
        self._z_inverses = [self.one, self.z.inv()]  # z^(-k), grown on demand
        self.loop = 2 * self.i * self._z_inverses[1]

    # equal orders make equal fields, so fields built separately share memos
    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(self.order)

    def from_int(self, k: int) -> CyclotomicValue:
        return CyclotomicValue(self.order, [k])

    def q_power(self, k: int) -> CyclotomicValue:
        """zeta^k for any integer k, from the table of reduced powers."""
        return self.powers[k % self.order]

    def z_inverse(self, k: int) -> CyclotomicValue:
        """z^(-k) for k >= 0."""
        powers = self._z_inverses
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]

    def _image(self, re: tuple, im: tuple, shift: int = 0) -> list:
        """The exponent vector of sum((re[k] + i*im[k]) * q^(k + shift)) at
        q = zeta: re[k] goes to the exponent k + shift and im[k] to
        k + shift + N (i = zeta^N), modulo the order."""
        m = self.order
        acc = [0] * m
        for part, base in ((re, shift), (im, shift + self.point.N)):
            for e, c in enumerate(part, base):
                acc[e % m] += c
        return acc


@lru_cache(maxsize=None)
def _field_for(N: int) -> CyclotomicField:
    return CyclotomicField(N)


def specialize(
    f: ScalarQ, point: SpecializationPoint | int, inverses: dict | None = None
) -> CyclotomicValue:
    """Exact image of f under q -> zeta_{4N}; raises PoleError at a pole.

    A factor q^v of the denominator becomes the exponent shift -v of the
    numerator, so a monomial denominator costs no inverse, and
    q^j (q^2 - 1)^k = q^(j + k) z^k with z = q - q^(-1) takes the shift
    -j - k and the field's z^(-k).  ``inverses``, if given, maps the rest of
    any other denominator to its inverse at this point; calls at the same
    point that share it invert each denominator once.

    >>> str(specialize(Q, SpecializationPoint(2)))
    'z'
    """
    if isinstance(point, int):
        point = SpecializationPoint(point)
    field = _field_for(point.N)
    m, (nr, ni, dr, di) = field.order, f._parts
    v = min(_low(dr), _low(di))
    if len(dr) == v + 1:  # L * q^v
        return CyclotomicValue(m, field._image(nr, ni, -v), dr[-1])
    jk = f._jk
    if jk:  # q^(j + k) z^k
        num = CyclotomicValue(m, field._image(nr, ni, -jk[0] - jk[1]), 1)
        return num * field.z_inverse(jk[1])
    num = field._image(nr, ni, -v)
    inverses = {} if inverses is None else inverses
    key = (dr[v:], di[v:])
    inv = inverses.get(key)
    if inv is None:
        den = CyclotomicValue(m, field._image(*key), 1)
        if den.is_zero:
            raise PoleError(f"denominator of {f} vanishes at q = zeta_{m}")
        inv = inverses[key] = den.inv()
    return CyclotomicValue(m, num, 1) * inv


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first twelve prime bases decide every
    n below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _modular_point(m: int) -> tuple:
    """(p, zeta): the largest prime p below 2^61 with p = 1 (mod m), and an
    element zeta of exact order m in F_p.

    zeta_m -> zeta is then a ring map from Z[zeta_m] onto F_p.

    >>> p, zeta = _modular_point(12)
    >>> p % 12, pow(zeta, 12, p), pow(zeta, 6, p) == 1, pow(zeta, 4, p) == 1
    (1, 1, False, False)
    """
    p = (1 << 61) - 1
    p -= (p - 1) % m
    while not _is_prime(p):
        p -= m
    factors = [r for r in range(2, m + 1) if m % r == 0 and _is_prime(r)]
    for g in range(2, p):
        zeta = pow(g, (p - 1) // m, p)
        if all(pow(zeta, m // r, p) != 1 for r in factors):
            return p, zeta
    raise ConsistencyError(f"no element of order {m} modulo {p}")


def residue(f: ScalarQ, p: int, q: int, i: int, inverses: dict) -> int | None:
    """The image of f in F_p under q -> q and i -> i, where i^2 = -1 mod p;
    None if its denominator vanishes there.

    Each part of ``_parts`` is evaluated by Horner's rule.  ``inverses`` maps
    a denominator to its inverse mod p (None if it vanishes); calls at the
    same point that share it invert each denominator once.

    >>> p, i = _modular_point(4)
    >>> residue(ONE / (Q - 1), p, 3, i, {}) == (p + 1) // 2
    True
    >>> residue(ONE / (Q - 3), p, 3, i, {}) is None
    True
    """
    nr, ni, dr, di = f._parts

    def at(part):
        acc = 0
        for c in reversed(part):
            acc = (acc * q + c) % p
        return acc

    key = (dr, di)
    if key in inverses:
        inv = inverses[key]
    else:
        den = (at(dr) + i * at(di)) % p
        inv = inverses[key] = pow(den, -1, p) if den else None
    if inv is None:
        return None
    return (at(nr) + i * at(ni)) * inv % p


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
            node = node + parse_term() if take() == "+" else node - parse_term()
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            node = node * parse_factor() if take() == "*" else node / parse_factor()
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
            sign = -1 if peek() == "-" and take() else 1
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
