"""The integer Q(zeta_m) kernel against reduction mod p (``mod_p``): every
embedding zeta_m -> zeta^k into F_p carries its arithmetic, inverses,
conjugations and specializations to the same operations on residues."""

import random
from fractions import Fraction
from math import gcd

import pytest

from mod_p import check_specialize, embeddings, image
from skeinhc.scalars import (
    I,
    ONE,
    Q,
    CyclotomicField,
    CyclotomicValue,
    cyclotomic_polynomial,
)
from skeinhc.trace_gram import gram_matrix, matrix_rank

ORDERS = [4 * N for N in range(2, 9)]  # 8, 12, ..., 32


def random_value(rng, m, density=0.7, fractions=True) -> CyclotomicValue:
    deg = len(cyclotomic_polynomial(m)) - 1
    coeffs = []
    for _ in range(rng.randint(1, 2 * deg)):  # longer inputs get reduced
        if rng.random() > density:
            coeffs.append(0)
        elif fractions:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        else:
            coeffs.append(rng.randint(-3, 3))
    return CyclotomicValue(m, coeffs)


def images(v: CyclotomicValue) -> list:
    return [image(v, p, x) for p, x in embeddings(v.order)]


def assert_reduced(v: CyclotomicValue):
    """num over the power basis of Q(zeta_m), den > 0, no common factor."""
    assert len(v.num) == len(cyclotomic_polynomial(v.order)) - 1
    assert v.den > 0 and gcd(v.den, *v.num) == 1


def test_cyclotomic_polynomials_match():
    """Phi_m is monic of degree phi(m) over Z and vanishes at every
    primitive m-th root of unity mod p, so it is their product."""
    for m in range(1, 41):
        phi = cyclotomic_polynomial(m)
        assert phi[-1] == 1 and all(c.denominator == 1 for c in phi)
        roots = embeddings(m)
        assert len(phi) - 1 == len(roots)
        for p, x in roots:
            assert sum(int(c) * pow(x, k, p) for k, c in enumerate(phi)) % p == 0


@pytest.mark.parametrize("m", ORDERS)
def test_arithmetic_matches_fraction_kernel(m):
    """Values with Fraction coefficients: every operation commutes with
    every embedding, and every result is reduced."""
    rng = random.Random(m)
    points = embeddings(m)
    for _ in range(25):
        a, b = random_value(rng, m), random_value(rng, m)
        ia, ib = images(a), images(b)
        results = [
            (a + b, [(x + y) % p for x, y, (p, _) in zip(ia, ib, points)]),
            (a - b, [(x - y) % p for x, y, (p, _) in zip(ia, ib, points)]),
            (a * b, [x * y % p for x, y, (p, _) in zip(ia, ib, points)]),
            (-a, [-x % p for x, (p, _) in zip(ia, points)]),
            (a + 3, [(x + 3) % p for x, (p, _) in zip(ia, points)]),
            (Fraction(2, 5) * a, [2 * x * pow(5, -1, p) % p for x, (p, _) in zip(ia, points)]),
            (a.conjugate(), [image(a, p, pow(x, -1, p)) for p, x in points]),
        ]
        for k in (0, 1, 2, 3):
            results.append((a ** k, [pow(x, k, p) for x, (p, _) in zip(ia, points)]))
        for j in range(2, m):
            if gcd(j, m) == 1:
                sigma = CyclotomicValue(m, a._galois(j), a.den)
                results.append((sigma, [image(a, p, pow(x, j, p)) for p, x in points]))
        if not a.is_zero:
            inv = [pow(x, -1, p) for x, (p, _) in zip(ia, points)]
            results += [
                (a.inv(), inv),
                (a ** -2, [y * y % p for y, (p, _) in zip(inv, points)]),
                (b / a, [x * y % p for x, y, (p, _) in zip(ib, inv, points)]),
            ]
            assert a * a.inv() == 1
        for value, want in results:
            assert_reduced(value)
            assert images(value) == want
        assert (a == b) == (ia == ib)
        assert a == CyclotomicValue(m, a.coeffs) and hash(a) == hash(
            CyclotomicValue(m, a.coeffs)
        )


@pytest.mark.parametrize("m", ORDERS)
def test_strings_over_a_denominator_match(m):
    """str reads the int num and builds a Fraction only when den != 1; a
    coefficient den/den still prints as z^k."""
    folded = {8: "1/2", 12: "-1/2*z^2", 16: "-1/2", 20: "-1/2 + 1/2*z^2 - 1/2*z^4 + 1/2*z^6",
              24: "-1/2 + 1/2*z^4", 28: "1/2*z^8", 32: "1/2*z^8"}
    strings = {
        "1/2 + z + 1/3*z^2 - 1*z^3": [Fraction(1, 2), 1, Fraction(1, 3), -1],
        "-3/4": [Fraction(-3, 4)],
        "5/6*z - 2*z^3": [0, Fraction(5, 6), 0, -2],
        "2/3 - 1/3*z^2": [Fraction(4, 6), 0, Fraction(-1, 3)],
        "2 - 1*z + z^3": [2, -1, 0, 1],
        "7": [7],
        "0": [],
        folded[m]: [0] * 8 + [Fraction(1, 2)],  # z^8 / 2, reduced mod Phi_m
    }
    for text, coeffs in strings.items():
        assert str(CyclotomicValue(m, coeffs)) == text
    assert CyclotomicValue(m, strings["1/2 + z + 1/3*z^2 - 1*z^3"]).den == 6


@pytest.fixture(scope="module")
def end3_entries():
    report = gram_matrix("+++", "+++")
    return [c for row in report.entries for c in row]


@pytest.mark.parametrize("N", range(2, 9))
def test_specialize_matches_horner(N, end3_entries):
    """End(+^3) Gram entries at zeta_4N, against the Horner residues."""
    rng = random.Random(100 + N)
    sample = rng.sample(end3_entries, 120)
    for f in sample:
        assert not check_specialize(f, N)
    # q^(2N) + 1 vanishes at zeta_4N; some entries carry it as a factor,
    # so dividing by it leaves a pole only where it does not cancel
    vanishing = Q ** (2 * N) + 1
    poles = 0
    for f in [f for f in sample if not f.is_zero][:20]:
        poles += check_specialize(f / vanishing, N)
        assert not check_specialize(f / (vanishing + ONE), N)  # finite
    assert poles >= 5


def test_specialize_fractional_and_gaussian_coefficients():
    rng = random.Random(7)
    for _ in range(60):
        f = ONE
        for _ in range(rng.randint(1, 3)):
            g = (Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 + Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * I)
            f = f * (Q ** rng.randint(-4, 4) * g + rng.randint(-3, 3))
        if f.is_zero:
            continue
        for N in (2, 3, 5, 8):
            check_specialize(f, N)
            check_specialize(ONE / f, N)


def of_rank(rng, rows, cols, rank, make) -> list:
    """A rows x cols product L R of rank exactly `rank`: L has the identity
    in `rank` random rows and R in `rank` random columns."""
    zero, one = make() * 0, make() * 0 + 1
    left = [[make() for _ in range(rank)] for _ in range(rows)]
    for k, r in enumerate(rng.sample(range(rows), rank)):
        left[r] = [one if j == k else zero for j in range(rank)]
    right = [[make() for _ in range(cols)] for _ in range(rank)]
    for k, c in enumerate(rng.sample(range(cols), rank)):
        for j in range(rank):
            right[j][c] = one if j == k else zero
    return [[sum((lr[k] * right[k][c] for k in range(rank)), zero) for c in range(cols)]
            for lr in left]


@pytest.mark.parametrize("m", [8, 12, 20, 28])
def test_matrix_rank_matches_row_division(m):
    rng = random.Random(m)
    for _ in range(4):
        rows, cols = rng.randint(3, 6), rng.randint(3, 6)
        for rank in range(min(rows, cols) + 1):
            mat = of_rank(rng, rows, cols, rank, lambda: random_value(rng, m, 0.5, False))
            assert matrix_rank(mat) == rank


def test_matrix_rank_gaussian_rationals():
    rng = random.Random(1)
    make = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) + rng.randint(-2, 2) * I
    for _ in range(10):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        rank = rng.randint(0, min(rows, cols))
        assert matrix_rank(of_rank(rng, rows, cols, rank, make)) == rank


def test_field_tables():
    """q_power, i and the loop value of CyclotomicField(N) at every
    embedding: zeta^k, zeta^N and 2 zeta^N / (zeta - zeta^(-1))."""
    for N in range(2, 9):
        fld = CyclotomicField(N)
        for p, x in embeddings(4 * N):
            for k in range(-8 * N, 8 * N):
                assert image(fld.q_power(k), p, x) == pow(x, k, p)
            i = pow(x, N, p)
            assert image(fld.i, p, x) == i
            assert image(fld.loop, p, x) == 2 * i * pow(x - pow(x, -1, p), -1, p) % p
