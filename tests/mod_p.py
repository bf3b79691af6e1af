"""Reduction mod p, the oracle of the scalar tests.

For a prime p = 1 (mod m), Z[zeta_m]/(p) is F_p^phi(m): the maps
zeta_m -> zeta^k, one for each k coprime to m (zeta of order m in F_p),
together tell apart any two values whose coefficients are small next to p
(von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).  Values of
Q(i)(q) are reduced by `residue` at q -> zeta^k with i -> zeta^(k m/4), which
takes both square roots of -1 as k varies, and at a generic residue of q.
"""

from fractions import Fraction
from math import gcd

from skeinhc.errors import PoleError
from skeinhc.scalars import ScalarQ, _canonical, _modular_point, residue, specialize
from skeinhc.trace_gram import GENERIC_Q_RESIDUE


def embeddings(m: int) -> list:
    """(p, zeta^k) for the prime p of `_modular_point(m)` and every k < m
    coprime to m."""
    p, zeta = _modular_point(m)
    return [(p, pow(zeta, k, p)) for k in range(m) if gcd(k, m) == 1]


def _points() -> list:
    p, i = _modular_point(4)
    points = [(p, q, s) for q in (GENERIC_Q_RESIDUE, 3 * p // 7) for s in (i, p - i)]
    for m in (8, 12):
        points += [(p, x, pow(x, m // 4, p)) for p, x in embeddings(m)]
    return points


POINTS = _points()  # (p, q, i) with i^2 = -1 mod p


def residues(f) -> list:
    """f's residue at every (p, q, i) of POINTS; None where it has a pole."""
    return [residue(f, p, q, i, {}) for p, q, i in POINTS]


def gauss_residue(g, p: int, i: int) -> int:
    """The image of an element of Q(i) (an int, a Fraction or a constant
    ScalarQ) under i -> i in F_p; a ScalarQ is read from its int parts."""
    if not isinstance(g, ScalarQ):
        g = Fraction(g)
        return g.numerator * pow(g.denominator, -1, p) % p
    nr, ni, dr, di = g._parts
    assert len(nr) < 2 and len(ni) < 2 and len(dr) == 1 and not di, g
    return (sum(nr) + i * sum(ni)) * pow(dr[0], -1, p) % p


def fraction_residues(num: list, den: list) -> list:
    """The residues at POINTS of num/den, for lists of Q(i) coefficients
    lowest degree first; None where den vanishes."""
    out = []
    for p, q, i in POINTS:
        n, d = (sum(gauss_residue(c, p, i) * pow(q, k, p) for k, c in enumerate(part)) % p
                for part in (num, den))
        out.append(n * pow(d, -1, p) % p if d else None)
    return out


def image(v, p: int, x: int) -> int:
    """The image of a CyclotomicValue under zeta -> x in F_p."""
    acc = 0
    for c in reversed(v.num):
        acc = (acc * x + c) % p
    return acc * pow(v.den, -1, p) % p


def check_specialize(f, N: int) -> bool:
    """specialize(f, N) reduces to f's residue at every embedding of
    Q(zeta_4N); True when both find a pole there."""
    try:
        value = specialize(f, N)
    except PoleError:
        assert all(residue(f, p, x, pow(x, N, p), {}) is None for p, x in embeddings(4 * N))
        return True
    for p, x in embeddings(4 * N):
        assert image(value, p, x) == residue(f, p, x, pow(x, N, p), {})
    return False


def assert_canonical(f) -> None:
    """f's parts are the reduced fraction of `_canonical`: a denominator with a
    positive integer lead, no common power of q, and content 1."""
    nr, ni, dr, di = parts = f._parts
    assert parts == _canonical(*parts)
    assert dr[-1] > 0 and len(di) < len(dr)
    if nr or ni:
        assert gcd(*nr, *ni, *dr, *di) == 1
        assert min(k for p in parts for k, c in enumerate(p) if c) == 0
    else:
        assert dr == (1,) and not di
