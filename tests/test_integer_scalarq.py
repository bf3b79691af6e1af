"""The integer Q(i)(q) kernel agrees exactly with the Fraction-based
ScalarQ it replaced (kept in ``legacy_scalarq``): the same reduced
fraction, string, equality, evaluation and specialization on random
rational functions, including non-monomial denominators, Gaussian and
negative leading coefficients, cancelling common factors and poles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import legacy_cyclotomic
from legacy_scalarq import LegacyScalarQ, _pmul
from skeinhc.errors import DomainError, PoleError
from skeinhc.scalars import (
    ONE,
    Q,
    GaussianRational,
    ScalarQ,
    loop_value,
    parse_scalar,
    q_power,
    specialize,
)
from skeinhc.scalars import _exponents


def gpoly(*coeffs) -> list:
    return [GaussianRational(c) if isinstance(c, int) else c for c in coeffs]


def same(new: ScalarQ, old: LegacyScalarQ) -> bool:
    return new.num == old.num and new.den == old.den and str(new) == str(old)


def outcome(fn, *args):
    """fn(*args), or the class of the DomainError (PoleError included) it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


def rand_coeff(rng) -> GaussianRational:
    def part():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))

    return GaussianRational(part(), part())


def rand_poly(rng, max_len=4) -> list:
    return [rand_coeff(rng) for _ in range(rng.randint(1, max_len))]


def rand_pair(rng):
    """A random rational function in both kernels, from the same coefficients."""
    num = rand_poly(rng)
    den = rand_poly(rng)
    while not any(den):
        den = rand_poly(rng)
    if rng.random() < 0.4:  # a common factor that the reduction must cancel
        factor = rand_poly(rng, 3)
        if any(factor):
            num, den = list(_pmul(num, factor)), list(_pmul(den, factor))
    if rng.random() < 0.3:  # a common power of q
        k = rng.randint(1, 3)
        num = [GaussianRational(0)] * k + num
        den = [GaussianRational(0)] * k + den
    return ScalarQ(num, den), LegacyScalarQ(num, den)


def check_ops(a, a_old, b, b_old, k):
    assert same(a, a_old) and same(b, b_old)
    assert same(a + b, a_old + b_old)
    assert same(a - b, a_old - b_old)
    assert same(a * b, a_old * b_old)
    assert same(-a, -a_old)
    assert same(a + 2, a_old + 2) and same(3 - a, 3 - a_old)
    assert same(a * GaussianRational(1, -2), a_old * GaussianRational(1, -2))
    if b_old:
        assert same(a / b, a_old / b_old)
        assert same(b.inv(), b_old.inv())
        assert same(b ** k, b_old ** k)
    else:
        with pytest.raises(DomainError):
            a / b
    assert (a == b) == (a_old == b_old)
    assert (a == a + 0) and hash(a) == hash(a + 0) == hash(ScalarQ(a.num, a.den))
    assert a.is_zero == a_old.is_zero and bool(a) == bool(a_old)


def test_random_arithmetic_matches_fraction_kernel():
    rng = random.Random(2024)
    for _ in range(300):
        a, a_old = rand_pair(rng)
        b, b_old = rand_pair(rng)
        check_ops(a, a_old, b, b_old, rng.randint(-3, 3))


def test_random_evaluation_specialization_and_parsing_match():
    rng = random.Random(7)
    for _ in range(150):
        a, a_old = rand_pair(rng)
        assert parse_scalar(str(a)) == a
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if rng.random() < 0.5:
            x = GaussianRational(x, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        assert outcome(a.eval_at, x) == outcome(a_old.eval_at, x)
        N = rng.randint(2, 8)
        new = outcome(specialize, a, N)
        old = outcome(legacy_cyclotomic.specialize, a_old, N)
        if isinstance(old, type):
            assert new is old
        else:
            assert new.order == old.order and new.coeffs == old.coeffs


def test_cancellation_and_canonical_form():
    a = (Q ** 3 - Q) / (Q ** 2 - 1)
    assert a == Q and hash(a) == hash(Q) and str(a) == "q"
    num, den = gpoly(-1, 0, 1), [GaussianRational(0, -2), GaussianRational(0, 2)]
    b, b_old = ScalarQ(num, den), LegacyScalarQ(num, den)  # (q^2 - 1)/(2i(q - 1))
    assert same(b, b_old) and str(b) == "-1/2*i*q - 1/2*i"
    num, den = gpoly(1, 2), gpoly(-3, 0, -6)  # a negative leading coefficient
    c = ScalarQ(num, den)
    assert same(c, LegacyScalarQ(num, den))
    assert str(c) == "(-1/3*q - 1/6)/(q^2 + 1/2)"
    assert ScalarQ([0, 0], [0, 5]) == 0 and str(ScalarQ([], [2])) == "0"


def test_poles_and_zero_denominators():
    f = ONE / (Q - 1)
    assert outcome(f.eval_at, 1) is PoleError
    assert outcome(LegacyScalarQ(1, gpoly(-1, 1)).eval_at, 1) is PoleError
    g = ONE / (Q ** 4 + 1)
    assert outcome(specialize, g, 2) is PoleError
    g_old = LegacyScalarQ(1, gpoly(1, 0, 0, 0, 1))
    assert outcome(legacy_cyclotomic.specialize, g_old, 2) is PoleError
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


def family_value(rng, j: int, k: int):
    """A random Z[i] numerator over q^j (q^2 - 1)^k in both kernels."""
    z_power = [1]
    for _ in range(k):
        z_power = [b - a for a, b in zip([*z_power, 0, 0], [0, 0, *z_power])]
    den = [GaussianRational(0)] * j + gpoly(*z_power)
    num = [
        GaussianRational(rng.randint(-4, 4), rng.choice((0, rng.randint(-4, 4))))
        for _ in range(rng.randint(1, 2 * k + j + 2))
    ]
    return ScalarQ(num, den), LegacyScalarQ(num, den)


def test_strings_match_the_fraction_kernel():
    """str reads the int parts: ints over a lead 1, Fractions over another."""
    G = GaussianRational
    fixed = [
        (0, 1), (1, 1), (-7, 1), (Fraction(-5, 3), 1), (G(0, 1), 1), (G(0, -1), 1),
        (G(Fraction(1, 2), Fraction(-3, 4)), 1), (G(-2, 1), 1), (1, gpoly(0, 2)),
        (gpoly(G(1, 1), 0, G(0, -3)), gpoly(0, 2)), (gpoly(1, G(0, 2)), gpoly(3, 0, 6)),
        (gpoly(G(0, 1), G(-1, 1), G(Fraction(1, 3))), gpoly(G(0, 2), 1)),
    ]
    for num, den in fixed:
        assert same(ScalarQ(num, den), LegacyScalarQ(num, den))
    assert str(ONE / (2 * Q)) == "1/2/(q)" and str(ScalarQ(0)) == "0"
    rng = random.Random(18)
    for j in range(4):
        for k in range(5):
            for _ in range(6):
                assert same(*family_value(rng, j, k))


@pytest.mark.parametrize("N", range(2, 9))
def test_specialize_family_values_matches_horner(N):
    rng, family = random.Random(N), 0
    for j in range(4):
        for k in range(5):
            for _ in range(3):
                f, _old = family_value(rng, j, k)
                family += _exponents(*f._parts[2:]) is not None
                new, old = specialize(f, N), legacy_cyclotomic.specialize(f, N)
                assert new.coeffs == old.coeffs and str(new) == str(old)
    assert family >= 50  # of 60: a numerator vanishing at just one of +-1 leaves


coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
polys = st.lists(coeffs, max_size=4)
nonzero_polys = polys.filter(any)


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys, polys, nonzero_polys, nonzero_polys, st.integers(-3, 3))
def test_hypothesis_arithmetic_matches(an, ad, bn, bd, factor, k):
    a, a_old = ScalarQ(an, ad), LegacyScalarQ(an, ad)
    b_num, b_den = _pmul(bn, factor), _pmul(bd, factor)
    b, b_old = ScalarQ(b_num, b_den), LegacyScalarQ(b_num, b_den)
    check_ops(a, a_old, b, b_old, k)


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys, st.fractions(-4, 4, max_denominator=5), st.integers(2, 8))
def test_hypothesis_evaluation_matches(num, den, x, N):
    a, a_old = ScalarQ(num, den), LegacyScalarQ(num, den)
    assert outcome(a.eval_at, x) == outcome(a_old.eval_at, x)
    new = outcome(specialize, a, N)
    old = outcome(legacy_cyclotomic.specialize, a_old, N)
    if isinstance(old, type):
        assert new is old
    else:
        assert new.coeffs == old.coeffs
