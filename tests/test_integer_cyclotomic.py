"""The integer Q(zeta_4N) kernel agrees exactly with the Fraction-based
arithmetic it replaced (kept in ``legacy_cyclotomic``)."""

import random
from fractions import Fraction

import pytest

import legacy_cyclotomic as legacy
from skeinhc.errors import PoleError
from skeinhc.scalars import (
    ONE,
    Q,
    CyclotomicField,
    CyclotomicValue,
    GaussianRational,
    SpecializationPoint,
    cyclotomic_polynomial,
    specialize,
)
from skeinhc.trace_gram import gram_matrix, matrix_rank

ORDERS = [4 * N for N in range(2, 9)]  # 8, 12, ..., 32


def same(new: CyclotomicValue, old: legacy.LegacyCyclotomic) -> bool:
    return new.order == old.order and new.coeffs == old.coeffs and str(new) == str(old)


def random_pair(rng, m, density=0.7, fractions=True):
    deg = len(cyclotomic_polynomial(m)) - 1
    coeffs = []
    for _ in range(rng.randint(1, 2 * deg)):  # longer inputs get reduced
        if rng.random() > density:
            coeffs.append(0)
        elif fractions:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        else:
            coeffs.append(rng.randint(-3, 3))
    return CyclotomicValue(m, coeffs), legacy.LegacyCyclotomic(m, coeffs)


def test_cyclotomic_polynomials_match():
    for m in range(1, 41):
        assert cyclotomic_polynomial(m) == legacy.cyclotomic_polynomial(m)


@pytest.mark.parametrize("m", ORDERS)
def test_arithmetic_matches_fraction_kernel(m):
    rng = random.Random(m)
    for _ in range(25):
        a, a_old = random_pair(rng, m)
        b, b_old = random_pair(rng, m)
        assert same(a, a_old) and same(b, b_old)
        assert same(a + b, a_old + b_old)
        assert same(a - b, a_old - b_old)
        assert same(a * b, a_old * b_old)
        assert same(-a, -a_old)
        assert same(a.conjugate(), a_old.conjugate())
        assert same(a + 3, a_old + 3)
        assert same(Fraction(2, 5) * a, Fraction(2, 5) * a_old)
        for k in (0, 1, 2, 3):
            assert same(a ** k, a_old ** k)
        if not a.is_zero:
            assert same(a.inv(), a_old.inv())
            assert same(a ** -2, a_old ** -2)
            assert same(b / a, b_old / a_old)
            assert a * a.inv() == 1
        assert (a == b) == (a_old == b_old)
        assert a == CyclotomicValue(m, a.coeffs) and hash(a) == hash(
            CyclotomicValue(m, a.coeffs)
        )


@pytest.mark.parametrize("m", ORDERS)
def test_strings_over_a_denominator_match(m):
    """str reads the int num and builds a Fraction only when den != 1; a
    coefficient den/den still prints as z^k."""
    values = [[Fraction(1, 2), 1, Fraction(1, 3), -1], [Fraction(-3, 4)],
              [0, Fraction(5, 6), 0, -2], [2, -1, 0, 1], [7], []]
    for coeffs in values:
        assert same(CyclotomicValue(m, coeffs), legacy.LegacyCyclotomic(m, coeffs))
    first = CyclotomicValue(m, values[0])
    assert first.den == 6 and str(first) == "1/2 + z + 1/3*z^2 - 1*z^3"


@pytest.fixture(scope="module")
def end3_entries():
    report = gram_matrix("+++", "+++")
    return [c for row in report.entries for c in row]


@pytest.mark.parametrize("N", range(2, 9))
def test_specialize_matches_horner(N, end3_entries):
    rng = random.Random(100 + N)
    sample = rng.sample(end3_entries, 120)
    for f in sample:
        assert same(specialize(f, SpecializationPoint(N)), legacy.specialize(f, N))
    # q^(2N) + 1 vanishes at zeta_4N; some entries carry it as a factor,
    # so dividing by it leaves a pole only where it does not cancel
    vanishing = Q ** (2 * N) + 1
    poles = 0
    for f in [f for f in sample if not f.is_zero][:20]:
        try:
            old = legacy.specialize(f / vanishing, N)
        except PoleError:
            poles += 1
            with pytest.raises(PoleError):
                specialize(f / vanishing, SpecializationPoint(N))
        else:
            assert same(specialize(f / vanishing, N), old)
        h = f / (vanishing + ONE)  # finite
        assert same(specialize(h, N), legacy.specialize(h, N))
    assert poles >= 5


def test_specialize_fractional_and_gaussian_coefficients():
    rng = random.Random(7)
    for _ in range(60):
        f = ONE
        for _ in range(rng.randint(1, 3)):
            g = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            f = f * (Q ** rng.randint(-4, 4) * g + rng.randint(-3, 3))
        if f.is_zero:
            continue
        for N in (2, 3, 5, 8):
            f_inv = ONE / f
            for h in (f, f_inv):
                try:
                    old = legacy.specialize(h, N)
                except PoleError:
                    with pytest.raises(PoleError):
                        specialize(h, N)
                    continue
                assert same(specialize(h, N), old)


def _low_rank(rng, rows, cols, rank, make):
    left = [[make() for _ in range(rank)] for _ in range(rows)]
    right = [[make() for _ in range(cols)] for _ in range(rank)]
    mat = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = left[r][0] * right[0][c]
            for k in range(1, rank):
                acc = acc + left[r][k] * right[k][c]
            row.append(acc)
        mat.append(row)
    return mat


@pytest.mark.parametrize("m", [8, 12, 20, 28])
def test_matrix_rank_matches_row_division(m):
    rng = random.Random(m)
    for _ in range(4):
        rows, cols = rng.randint(3, 6), rng.randint(3, 6)
        rank = rng.randint(1, min(rows, cols))
        mat = _low_rank(rng, rows, cols, rank, lambda: random_pair(rng, m, 0.5, False)[0])
        old = [[legacy.LegacyCyclotomic(m, c.coeffs) for c in row] for row in mat]
        assert matrix_rank(mat) == legacy.matrix_rank(old) <= rank


def test_matrix_rank_gaussian_rationals():
    rng = random.Random(1)
    make = lambda: GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)
    )
    for _ in range(10):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        rank = rng.randint(1, min(rows, cols))
        mat = _low_rank(rng, rows, cols, rank, make)
        assert matrix_rank(mat) == legacy.matrix_rank(mat) <= rank


def test_field_tables():
    for N in range(2, 9):
        fld = CyclotomicField(N)
        zeta = legacy.LegacyCyclotomic(4 * N, [0, 1])
        for k in range(-8 * N, 8 * N):
            assert same(fld.q_power(k), zeta ** k)
        assert same(fld.i, zeta ** N)
        assert same(fld.loop, (2 * zeta ** N) / (zeta - zeta.inv()))
