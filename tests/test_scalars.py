"""Exact arithmetic: normalization, specialization, parsing."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from skeinhc import scalars
from skeinhc.errors import DomainError, PoleError
from skeinhc.scalars import (
    I,
    ONE,
    Q,
    QIQ,
    ZERO,
    CyclotomicField,
    CyclotomicValue,
    GaussianRational,
    ScalarQ,
    SpecializationPoint,
    cyclotomic_polynomial,
    loop_value,
    parse_scalar,
    q_power,
    specialize,
)
from skeinhc.scalars import _canonical, _comb, _exponents, _gmul, _trim

Z = QIQ.z


def test_inverse_pairs():
    assert Z * (ONE / Z) == ONE
    assert Q * q_power(-1) == ONE


def test_normalization_identity():
    assert ((Q * Q - 1) / Q - Z) == ZERO
    assert ((Q * Q - 1) / Q - Z).is_zero


def test_structural_equality_is_value_equality():
    a = (Q ** 3 - Q) / (Q ** 2 - 1)
    assert a == Q
    assert hash(a) == hash(Q)


def test_division_by_zero():
    with pytest.raises(DomainError):
        ONE / ZERO


def test_loop_value():
    assert loop_value() == 2 * I / (Q - q_power(-1))


def test_specialize_basics():
    zeta = CyclotomicValue(8, [0, 1])
    assert specialize(Q, SpecializationPoint(2)) == zeta
    assert specialize(I, SpecializationPoint(2)) == zeta ** 2
    for N in range(2, 7):
        assert specialize(I, SpecializationPoint(N)) ** 2 == -1


def test_specialize_loop_matches_independent_formula():
    # 2 zeta^N / (zeta - zeta^(-1)) computed directly in the cyclotomic field
    for N in (2, 3, 4):
        fld = CyclotomicField(N)
        independent = (2 * fld.zeta ** N) / (fld.zeta - fld.zeta.inv())
        assert specialize(loop_value(), SpecializationPoint(N)) == independent


def test_loop_value_real_and_positive_at_special_points():
    for N in (2, 3, 4):
        v = specialize(loop_value(), SpecializationPoint(N))
        assert v.conjugate() == v  # exactly real
        approx = complex(v)
        assert abs(approx.imag) < 1e-9 and approx.real > 0.5


def test_loop_value_at_small_points():
    v2 = specialize(loop_value(), SpecializationPoint(2))
    zeta = CyclotomicValue(8, [0, 1])
    assert v2 == zeta + zeta.inv()
    assert specialize(loop_value(), SpecializationPoint(3)) == CyclotomicValue(12, [2])


def test_pole_error():
    f = ONE / (Q ** 4 + 1)  # vanishes at zeta_8
    with pytest.raises(PoleError):
        specialize(f, SpecializationPoint(2))
    # but is perfectly finite at N = 3
    specialize(f, SpecializationPoint(3))


def test_no_pole_at_q_minus_one():
    # 1/(q - 1) never has a pole at the distinguished points: zeta_4N != 1
    g = ONE / (Q - 1)
    for N in (2, 3, 4, 5):
        value = specialize(g, SpecializationPoint(N))
        assert not value.is_zero
        assert value * specialize(Q - 1, SpecializationPoint(N)) == 1


def test_specialization_point_requires_n_at_least_two():
    with pytest.raises(DomainError):
        SpecializationPoint(1)


def test_homomorphism_property_random():
    rng = random.Random(11)
    for _ in range(30):
        a = Q ** rng.randint(-3, 3) * GaussianRational(
            Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        ) + ONE
        b = Z ** rng.randint(0, 2) + I * Q ** rng.randint(-2, 2)
        N = rng.choice([2, 3, 5])
        pt = SpecializationPoint(N)
        assert specialize(a * b, pt) == specialize(a, pt) * specialize(b, pt)
        assert specialize(a + b, pt) == specialize(a, pt) + specialize(b, pt)


def test_cyclotomic_polynomial_values():
    x = [Fraction(v) for v in (1, 1)]
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(8) == tuple(map(Fraction, (1, 0, 0, 0, 1)))
    assert cyclotomic_polynomial(12) == tuple(map(Fraction, (1, 0, -1, 0, 1)))


def test_cyclotomic_inverse():
    fld = CyclotomicField(3)
    rng = random.Random(3)
    for _ in range(20):
        v = CyclotomicValue(12, [rng.randint(-3, 3) for _ in range(4)])
        if v.is_zero:
            continue
        assert v * v.inv() == fld.one


def test_parse_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        f = (Q ** rng.randint(-3, 3)) * GaussianRational(
            rng.randint(-5, 5), rng.randint(-5, 5)
        ) + Z ** rng.randint(0, 2)
        assert parse_scalar(str(f)) == f


def test_parse_grammar():
    assert parse_scalar("2*i/(q - q^-1)") == loop_value()
    assert parse_scalar("(1+i)*(1-i)") == ScalarQ(2)
    assert parse_scalar("q^-2") == q_power(-2)
    with pytest.raises(DomainError):
        parse_scalar("q +")
    with pytest.raises(DomainError):
        parse_scalar("2 ** 3")


def _random_value(rng, kind) -> ScalarQ:
    """A value of one kind, built by `_canonical` from unreduced parts."""
    poly = lambda: _trim([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
    if kind == "unit":
        return rng.choice([ONE, -ONE, I, -I])
    if kind == "zero":
        return ZERO
    if kind == "laurent":  # Gaussian numerator over q^k, sometimes q^0
        return ScalarQ(_parts=(poly(), poly(), (0,) * rng.randint(0, 3) + (1,), ()))
    if kind == "half-over-q":  # a monomial denominator with lead 2
        return ScalarQ(_parts=((1,), (), (0, 2), ()))
    if kind == "loop":
        return loop_value()
    if kind.startswith("family"):  # a numerator over q^j (q^2 - 1)^k; over q^j
        # it carries a factor that products with k > 0 cancel in part or whole
        den, factor = (1,), FAMILY_FACTORS[kind]
        for _ in range(rng.randint(1, 3) if factor == (1,) else 0):
            den = _gmul(den, (), (-1, 0, 1), ())[0]
        num = _gmul(poly(), poly(), factor, ())
        return ScalarQ(_parts=(*num, (0,) * rng.randint(0, 2) + den, ()))
    return ScalarQ(_parts=(poly(), poly(), (1, 0, -2, 0, 1), ()))  # over (q^2 - 1)^2


FAMILY_FACTORS = {"family": (1,), "family*(q-1)": (-1, 1), "family*(q+1)": (1, 1),
                  "family*(q^2-1)": (-1, 0, 1)}
KINDS = ["unit", "zero", "laurent", "laurent", "laurent", "half-over-q", "loop", "gram",
         "family", *FAMILY_FACTORS]


def assert_carried(*values):
    """Each value carries the exponents of its denominator (None off the
    q^j (q^2 - 1)^k family)."""
    for x in values:
        assert x._jk == _exponents(*x._parts[2:]), x


def test_fast_paths_match_the_canonical_oracle():
    rng = random.Random(13)
    values = [_random_value(rng, kind) for kind in KINDS * 3]
    points = [GaussianRational(Fraction(3, 2)), GaussianRational(Fraction(-5, 7))]
    assert {_exponents(*a._parts[2:]) is None for a in values} == {True, False}
    for a in values:
        nr, ni, dr, di = a._parts
        assert a._parts == _canonical(*a._parts)
        negated = _canonical(_comb(-1, nr, 0, ()), _comb(-1, ni, 0, ()), dr, di)
        assert (-a)._parts == (a * -1)._parts == (a / -ONE)._parts == negated
        assert (a * 1)._parts == (a / ONE)._parts == a._parts
        assert_carried(a, -a, parse_scalar(str(a)), parse_scalar(str(-a)))
        assert all((-a).eval_at(x) == -a.eval_at(x) for x in points)
    for a, b in itertools.product(values, repeat=2):
        (nr, ni, dr, di), (onr, oni, odr, odi) = a._parts, b._parts
        (ar, ai), (br, bi) = _gmul(nr, ni, odr, odi), _gmul(onr, oni, dr, di)
        den = _gmul(dr, di, odr, odi)
        plus = _comb(1, ar, 1, br), _comb(1, ai, 1, bi)
        minus = _comb(1, ar, -1, br), _comb(1, ai, -1, bi)
        assert (a * b)._parts == _canonical(*_gmul(nr, ni, onr, oni), *den)
        assert (a + b)._parts == _canonical(*plus, *den)
        assert (a - b)._parts == _canonical(*minus, *den)
        assert_carried(a * b, a + b, a - b)
        if b:
            assert (a / b)._parts == _canonical(ar, ai, *_gmul(dr, di, onr, oni))
            assert_carried(a / b)
        for x in points:
            va, vb = a.eval_at(x), b.eval_at(x)
            assert (a * b).eval_at(x) == va * vb
            assert (a + b).eval_at(x) == va + vb
            assert (a - b).eval_at(x) == va - vb
            assert not b or (a / b).eval_at(x) == va / vb


def test_end3_gram_runs_few_canonical_forms():
    # a fresh interpreter, so that no memo holds the Gram entries; 926 is the
    # count when only q^k denominators skip `_canonical`: the bound asks that
    # q^j (q^2 - 1)^k ones skip it too, with 10x to spare for the rest
    script = (
        "from skeinhc import scalars\n"
        "from skeinhc.trace_gram import gram_matrix\n"
        "calls, canonical = [], scalars._canonical\n"
        "scalars._canonical = lambda *a: calls.append(1) or canonical(*a)\n"
        "gram_matrix('+++', '+++')\n"
        "print(len(calls))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(scalars.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) * 10 <= 926


def test_hash_agrees_with_equality():
    half = Fraction(1, 2)
    one_cases = [ScalarQ(1), (Q * Q - 1) / (Q * Q - 1), GaussianRational(1),
                 Fraction(1), CyclotomicValue(8, [1]), CyclotomicValue(12, [1])]
    assert {1, *one_cases} == {1}
    halves = [ScalarQ(half), GaussianRational(half), CyclotomicValue(12, [half])]
    assert {half, *halves} == {half}
    assert {I, GaussianRational(0, 1)} == {I}
    assert {0, ZERO, GaussianRational(0), CyclotomicValue(8, [])} == {0}
    table = {1: "one", half: "half", GaussianRational(0, 1): "i"}
    assert table[ScalarQ(1)] == table[GaussianRational(1)] == "one"
    assert table[CyclotomicValue(8, [1])] == "one"
    assert table[ScalarQ(half)] == table[CyclotomicValue(12, [half])] == "half"
    assert table[I] == "i"
    assert Q not in table and CyclotomicValue(8, [0, 1]) not in table
