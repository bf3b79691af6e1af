"""The integer Q(i)(q) kernel against reduction mod p (``mod_p``): random
rational functions, including non-monomial denominators, Gaussian and
negative leading coefficients, cancelling common factors and poles, keep
their residues under arithmetic, parsing and specialization, and every
result is in the reduced form of `_canonical`.  Coefficients in Q(i) are
constant ScalarQ values a + b*I."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mod_p import (
    POINTS,
    assert_canonical,
    check_specialize,
    fraction_residues,
    residues,
)
from skeinhc.errors import DomainError, PoleError
from skeinhc.scalars import (
    I,
    ONE,
    Q,
    ScalarQ,
    loop_value,
    parse_scalar,
    q_power,
    residue,
    specialize,
)
from skeinhc.scalars import _exponents, _gmul


def outcome(fn, *args):
    """fn(*args), or the class of the DomainError (PoleError included) it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


def rand_coeff(rng) -> ScalarQ:
    def part():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))

    return part() + part() * I


def rand_poly(rng, max_len=4) -> list:
    return [rand_coeff(rng) for _ in range(rng.randint(1, max_len))]


def times(a: list, b: list) -> list:
    """The product of two lists of Q(i) coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return out


def build(num: list, den: list) -> ScalarQ:
    """ScalarQ(num, den), checked against the residues of num/den."""
    value = ScalarQ(num, den)
    assert_canonical(value)
    assert matches(value, fraction_residues(num, den))
    return value


def rand_value(rng) -> ScalarQ:
    num, den = rand_poly(rng), rand_poly(rng)
    while not any(den):
        den = rand_poly(rng)
    if rng.random() < 0.4:  # a common factor that the reduction must cancel
        factor = rand_poly(rng, 3)
        if any(factor):
            num, den = times(num, factor), times(den, factor)
    if rng.random() < 0.3:  # a common power of q
        pad = [0] * rng.randint(1, 3)
        num, den = pad + num, pad + den
    return build(num, den)


def lift(op, *rs) -> list:
    """op(*residues, p, i) at each of POINTS, None where a residue is None."""
    return [None if None in r else op(*r, p, i) for *r, (p, _, i) in zip(*rs, POINTS)]


def matches(value, want) -> bool:
    """value's residues equal want wherever want is defined."""
    return all(w is None or r == w for r, w in zip(residues(value), want))


def check_ops(a, b, k):
    """Equal values built two ways take one form; every result is canonical
    and keeps the residues of its operands."""
    assert (a + b) - b == a and a * b == b * a
    ra, rb = residues(a), residues(b)
    cases = [
        (a + b, lift(lambda x, y, p, i: (x + y) % p, ra, rb)),
        (a - b, lift(lambda x, y, p, i: (x - y) % p, ra, rb)),
        (a * b, lift(lambda x, y, p, i: x * y % p, ra, rb)),
        (-a, lift(lambda x, p, i: -x % p, ra)),
        (3 - a, lift(lambda x, p, i: (3 - x) % p, ra)),
        (a * (1 - 2 * I), lift(lambda x, p, i: x * (1 - 2 * i) % p, ra)),
    ]
    if b:
        assert (a * b) / b == a
        nonzero = [None if y == 0 else y for y in rb]
        cases += [
            (a / b, lift(lambda x, y, p, i: x * pow(y, -1, p) % p, ra, nonzero)),
            (b.inv(), lift(lambda y, p, i: pow(y, -1, p), nonzero)),
            (b ** k, lift(lambda y, p, i: pow(y, k, p), nonzero if k < 0 else rb)),
        ]
    else:
        with pytest.raises(DomainError):
            a / b
    for value, want in cases:
        assert_canonical(value)
        assert matches(value, want)
    assert (a == b) == (ra == rb)
    assert hash(a) == hash(a + 0) == hash(ScalarQ(a.num, a.den))
    assert a.is_zero == (not a) == all(r == 0 for r in ra)


def test_random_arithmetic_matches_fraction_kernel():
    """Sums, products, quotients, inverses, powers and negations of values
    built from Fraction coefficients keep their residues."""
    rng = random.Random(2024)
    for _ in range(300):
        check_ops(rand_value(rng), rand_value(rng), rng.randint(-3, 3))


def test_random_evaluation_specialization_and_parsing_match():
    """Random values read back from their strings, and their images at
    q = zeta_4N reduce to their residues at every embedding."""
    rng = random.Random(7)
    for _ in range(150):
        a = rand_value(rng)
        assert parse_scalar(str(a)) == a
        check_specialize(a, rng.randint(2, 8))


def test_cancellation_and_canonical_form():
    a = (Q ** 3 - Q) / (Q ** 2 - 1)
    assert a == Q and hash(a) == hash(Q) and str(a) == "q"
    b = ScalarQ([-1, 0, 1], [-2 * I, 2 * I])
    assert b == (Q + 1) / (2 * I)  # (q^2 - 1)/(2i(q - 1))
    assert str(b) == "-1/2*i*q - 1/2*i"
    c = ScalarQ([1, 2], [-3, 0, -6])  # a negative leading coefficient
    assert c == (2 * Q + 1) / (-6 * Q ** 2 - 3) and str(c) == "(-1/3*q - 1/6)/(q^2 + 1/2)"
    for x in (a, b, c):
        assert_canonical(x)
    assert ScalarQ([0, 0], [0, 5]) == 0 and str(ScalarQ([], [2])) == "0"


def test_poles_and_zero_denominators():
    p, _, i = POINTS[0]
    assert residue(ONE / (Q - 1), p, 1, i, {}) is None
    g = ONE / (Q ** 4 + 1)
    assert outcome(specialize, g, 2) is PoleError
    assert outcome(ScalarQ, 1, 0) is DomainError
    assert outcome(ONE.__truediv__, ScalarQ(0)) is DomainError
    assert outcome(lambda: ScalarQ(0) ** -1) is DomainError


def test_shared_denominator_inverses_give_the_same_values():
    entries = [loop_value() ** k * (Q + k) for k in range(-2, 4)] + [q_power(-3), ONE]
    phi12 = Q ** 4 - Q ** 2 + 1  # vanishes at zeta_12, so N = 3 is a pole
    others = [ONE / phi12, Q / phi12, (Q + 2) / phi12]
    for N in range(2, 9):
        inverses = {}
        shared = [specialize(f, N, inverses) for f in entries + entries]
        assert shared == [specialize(f, N) for f in entries + entries]
        # q^j (q^2 - 1)^k denominators take no inverse; the one other
        # denominator is q - 1, from loop_value() * (q + 1) = 2iq/(q - 1)
        assert list(inverses) == [((-1, 1), ())]
        inverses = {}
        if N == 3:
            for f in others:
                assert outcome(specialize, f, N, inverses) is PoleError
            assert inverses == {}
            continue
        shared = [specialize(f, N, inverses) for f in others + others]
        assert shared == [specialize(f, N) for f in others + others]
        assert list(inverses) == [((1, 0, -1, 0, 1), ())]


def family_value(rng, j: int, k: int) -> ScalarQ:
    """A random Z[i] numerator over q^j (q^2 - 1)^k."""
    den = (0,) * j + (1,)
    for _ in range(k):
        den = _gmul(den, (), (-1, 0, 1), ())[0]
    num = [
        rng.randint(-4, 4) + rng.choice((0, rng.randint(-4, 4))) * I
        for _ in range(rng.randint(1, 2 * k + j + 2))
    ]
    return build(num, list(den))


def test_strings_match_the_fraction_kernel():
    """str reads the int parts: ints over a lead 1, Fractions over another;
    parse_scalar reads every string back to the same value."""
    fixed = {
        "0": (0, 1), "1": (1, 1), "-7": (-7, 1), "-5/3": (Fraction(-5, 3), 1),
        "i": (I, 1), "-i": (-I, 1),
        "1/2 - 3/4*i": (Fraction(1, 2) - Fraction(3, 4) * I, 1), "-2 + i": (-2 + I, 1),
        "1/2/(q)": (1, [0, 2]),
        "(-3/2*i*q^2 + 1/2 + 1/2*i)/(q)": ([1 + I, 0, -3 * I], [0, 2]),
        "(1/3*i*q + 1/6)/(q^2 + 1/2)": ([1, 2 * I], [3, 0, 6]),
        "(1/3*q^2 + (-1 + i)*q + i)/(q + 2*i)":
            ([I, -1 + I, Fraction(1, 3)], [2 * I, 1]),
    }
    for text, (num, den) in fixed.items():
        value = ScalarQ(num, den)
        assert str(value) == text and parse_scalar(text) == value
    assert str(ONE / (2 * Q)) == "1/2/(q)" and str(ScalarQ(0)) == "0"
    rng = random.Random(18)
    for j in range(4):
        for k in range(5):
            for _ in range(6):
                value = family_value(rng, j, k)  # checked by build
                assert parse_scalar(str(value)) == value


@pytest.mark.parametrize("N", range(2, 9))
def test_specialize_family_values_matches_horner(N):
    """The images at zeta_4N of values over q^j (q^2 - 1)^k, against the
    Horner residues of `residue` at every embedding."""
    rng, family = random.Random(N), 0
    for j in range(4):
        for k in range(5):
            for _ in range(3):
                f = family_value(rng, j, k)
                family += _exponents(*f._parts[2:]) is not None
                check_specialize(f, N)
    assert family >= 50  # of 60: a numerator vanishing at just one of +-1 leaves


coeffs = st.builds(
    lambda re, im: re + im * I,
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
polys = st.lists(coeffs, max_size=4)
nonzero_polys = polys.filter(any)


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys, polys, nonzero_polys, nonzero_polys, st.integers(-3, 3))
def test_hypothesis_arithmetic_matches(an, ad, bn, bd, factor, k):
    a = build(an, ad)
    b = build(times(bn, factor) if bn else bn, times(bd, factor))
    check_ops(a, b, k)


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys, st.integers(2, 8))
def test_hypothesis_evaluation_matches(num, den, N):
    a = build(num, den)
    check_specialize(a, N)
