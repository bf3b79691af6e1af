"""Markov trace, Gram matrices, and exact ranks."""

import json
import random
from pathlib import Path

import pytest

from skeinhc import trace_gram
from skeinhc.errors import ConsistencyError, DomainError, PoleError
from skeinhc.hecke_clifford import (
    AlgebraElement,
    _ladder_moves,
    _right_action,
    basis_keys_even,
    e_element,
    identity_element,
    multiply,
    normalize,
    t_element,
    theta,
)
from skeinhc.combinatorics import rank_oracle
from skeinhc.scalars import (
    I,
    ONE,
    Q,
    QIQ,
    CyclotomicField,
    ScalarQ,
    _is_prime,
    _modular_point,
    residue,
    specialize,
)
from skeinhc.trace_gram import (
    GramReport,
    closure_values,
    close_last_strand,
    gram_matrix,
    gram_rank,
    markov_trace,
    markov_trace_at,
    matrix_rank,
    verify_derived_closures,
)
from skeinhc.verify import _shift

D = QIQ.loop
Z = QIQ.z


def rand_even(n, rng, k=5, field=QIQ):
    letters = []
    for _ in range(rng.randint(1, k) if n > 1 else 0):
        if rng.random() < 0.6:
            letters.append(("t", rng.randrange(n - 1), rng.choice([1, -1])))
        else:
            letters.append(("e", rng.randrange(n - 1)))
    return normalize(letters, n, field)


def test_derived_closures():
    verify_derived_closures(QIQ)
    one1 = identity_element(1)
    assert close_last_strand(t_element(2, 0)) == one1.scale(I)
    assert close_last_strand(t_element(2, 0, inverse=True)) == one1.scale(-I)
    assert close_last_strand(e_element(2, 0)).is_zero
    assert close_last_strand(multiply(e_element(2, 0), t_element(2, 0))) == one1.scale(I)


@pytest.mark.parametrize("field", [QIQ, CyclotomicField(3)], ids=["QIQ", "zeta12"])
def test_close_monomial_matches_sandwich_oracle(field):
    """Closing the last strand is a bimodule map: a sandwich a * L * b with
    a, b off the last strand closes to value(L) * a * b, for L the unit,
    t_g, t_g^(-1), e_g and t_g e_g (g = n - 2)."""
    values = closure_values(field)
    rng = random.Random(43)
    for n in range(2, 6):
        g = n - 2
        t, e = t_element(n, g, field), e_element(n, g, field)
        labels = [
            (identity_element(n, "even", field), values["loop"]),
            (t, values["curl"]),
            (t_element(n, g, field, inverse=True), values["curl_inverse"]),
            (e, values["ladder_closure"]),
            (multiply(t, e), values["mixed_closure"]),
        ]
        for _ in range(8):
            a, b = (rand_even(n - 1, rng, 5, field) for _ in range(2))
            ab = multiply(a, b)
            for label, value in labels:
                sandwich = multiply(multiply(_shift(a, 0, n), label), _shift(b, 0, n))
                assert close_last_strand(sandwich) == ab.scale(value), (n, value)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_conjugation_identities(n):
    # psi(x) = e_g^(-1) x e_g with g = n-2, and e_g^(-1) = -e_g
    g = n - 2
    eg, tg = e_element(n, g), t_element(n, g)
    assert multiply(eg, eg) == -identity_element(n)
    psi = lambda x: -multiply(multiply(eg, x), eg)
    t, e = t_element(n, g - 1), e_element(n, g - 1)
    assert psi(t) == multiply(t, e)
    assert psi(e) == -e
    for j in range(g - 1):
        assert psi(t_element(n, j)) == t_element(n, j)
        assert psi(e_element(n, j)) == e_element(n, j)
    for x in (t, e):
        assert multiply(multiply(tg, x), eg) == multiply(multiply(tg, eg), psi(x))


def test_trace_of_identity():
    for n in range(0, 5):
        x = identity_element(n) if n else AlgebraElement(0, "even", {((), 0): ONE}, QIQ)
        assert markov_trace(x) == D ** n


def test_trace_examples():
    assert markov_trace(t_element(2, 0)) == I * D
    assert markov_trace(e_element(2, 0)).is_zero
    assert markov_trace(multiply(e_element(2, 0), e_element(2, 0))) == -(D ** 2)


def test_cyclicity():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 3)
        a, b = rand_even(n, rng, 4), rand_even(n, rng, 4)
        assert markov_trace(multiply(a, b)) == markov_trace(multiply(b, a))


def test_tensor_multiplicativity():
    rng = random.Random(23)
    for _ in range(15):
        a, b = rand_even(2, rng, 4), rand_even(2, rng, 4)
        ab = multiply(_shift(a, 0, 4), _shift(b, 2, 4))
        assert markov_trace(ab) == markov_trace(a) * markov_trace(b)


def test_trace_theta_invariance():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 3)
        a = rand_even(n, rng, 4)
        assert markov_trace(theta(a)) == markov_trace(a)


def test_specialized_trace_commutes():
    rng = random.Random(31)
    for N in (2, 3, 5):
        for _ in range(15):
            n = rng.randint(2, 3)
            x = rand_even(n, rng, 4)
            assert markov_trace_at(x, N) == specialize(
                markov_trace(x), N
            )


GOLDEN_END2 = [
    ["(-4*q^2)/(q^4 - 2*q^2 + 1)", "0", "(-2*q)/(q^2 - 1)", "(-2*q)/(q^2 - 1)"],
    ["0", "(4*q^2)/(q^4 - 2*q^2 + 1)", "(-2*q)/(q^2 - 1)", "(2*q)/(q^2 - 1)"],
    ["(-2*q)/(q^2 - 1)", "(-2*q)/(q^2 - 1)", "(-2*q^4 - 2)/(q^4 - 2*q^2 + 1)", "-2"],
    ["(-2*q)/(q^2 - 1)", "(2*q)/(q^2 - 1)", "-2", "(2*q^4 + 2)/(q^4 - 2*q^2 + 1)"],
]


def test_gram_end_one_strand():
    r = gram_matrix("+", "+")
    assert r.dimension == 1
    assert r.entries[0][0] == D


def test_gram_end_two_strands_golden():
    r = gram_matrix("++", "++")
    assert r.dimension == 4
    # basis order: (id, 1), (id, e1), (s1, 1), (s1, e1)
    assert [[str(c) for c in row] for row in r.entries] == GOLDEN_END2
    assert r.entries[2][0] == I * D  # tr(t against the identity)
    assert r.entries[1][0].is_zero  # tr(e against the identity)
    assert r.entries[0][0] == D * D


def test_gram_symmetry():
    for s1, s2 in (("++", "++"), ("+-", "+-")):
        r = gram_matrix(s1, s2)
        n = r.dimension
        for j in range(n):
            for k in range(n):
                assert r.entries[j][k] == r.entries[k][j]


@pytest.mark.xfail(
    strict=True,
    reason="known defect: rotate_180 does not make the ++- Gram matrix "
    "symmetric; entry (19, 20) is 2*i and entry (20, 19) is -2*i",
)
def test_gram_plus_plus_minus_symmetric():
    from skeinhc.skein import hom_basis_element

    basis = basis_keys_even(3)
    homs = [hom_basis_element("++-", "++-", basis[k]) for k in (19, 20)]
    rotated = [b.rotate_180() for b in homs]
    # the entries (19, 20) and (20, 19) as gram_matrix("++-", "++-") forms them
    assert markov_trace(homs[0].compose(rotated[1]).bend()) == markov_trace(
        homs[1].compose(rotated[0]).bend()
    )


def test_gram_plus_plus_minus_matches_benchmark_golden():
    # every entry of the skein-mixed golden; the benchmark itself samples 48
    path = Path(__file__).parents[1] / "perfbench" / "goldens" / "skein_mixed.json"
    golden = json.loads(path.read_text())
    report = gram_matrix(golden["source"], golden["target"])
    assert [[str(c) for c in row] for row in report.entries] == golden["entries"]


def _entry_by_product(m, j, k):
    """The per-entry oracle: trace of b_j times the rotated b_k."""
    basis = basis_keys_even(m)
    bj, bk = (AlgebraElement(m, "even", {basis[i]: ONE}, QIQ) for i in (j, k))
    return markov_trace(multiply(bj, theta(bk)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gram_matrix_matches_per_entry_products(m):
    r = gram_matrix("+" * m, "+" * m)
    assert r.basis == basis_keys_even(m)
    for j in range(r.dimension):
        for k in range(r.dimension):
            assert r.entries[j][k] == _entry_by_product(m, j, k)


@pytest.fixture(scope="module")
def gram_end4():
    return gram_matrix("++++", "++++")


def test_gram_end4_symmetric(gram_end4):
    n = gram_end4.dimension
    assert n == 192
    for j in range(n):
        for k in range(j):
            assert gram_end4.entries[j][k] == gram_end4.entries[k][j]


def test_gram_end4_matches_per_entry_products(gram_end4):
    rng = random.Random(41)
    for _ in range(30):
        j, k = rng.randrange(192), rng.randrange(192)
        assert gram_end4.entries[j][k] == _entry_by_product(4, j, k)


def test_gram_matrix_reuses_action_tables():
    gram_matrix("+++", "+++")
    size = _right_action.cache_info().currsize
    assert size > 0
    gram_matrix("+++", "+++")
    assert _right_action.cache_info().currsize == size


def test_memo_tables_key_fields_by_order():
    f1, f2 = CyclotomicField(3), CyclotomicField(3)
    assert f1 == f2 and hash(f1) == hash(f2)
    assert f1 != CyclotomicField(4)
    trace_gram._close_monomial.cache_clear()

    def traced(fld):
        return markov_trace(multiply(t_element(3, 0, fld), e_element(3, 1, fld)))

    first = traced(f1)
    size = trace_gram._close_monomial.cache_info().currsize
    assert size > 0
    assert traced(f2) == first
    assert trace_gram._close_monomial.cache_info().currsize == size
    # the ladder moves under the action rows are keyed the same way
    _right_action.cache_clear()
    _ladder_moves.cache_clear()
    traced(f1)
    size = _ladder_moves.cache_info().currsize
    assert size > 0
    traced(f2)
    assert _ladder_moves.cache_info().currsize == size
    traced(CyclotomicField(4))
    assert _ladder_moves.cache_info().currsize > size


def test_startup_checks_retry_after_failure(monkeypatch):
    real = trace_gram.verify_derived_closures
    calls = []

    def fail_once(field):
        calls.append(field)
        if len(calls) == 1:
            raise ConsistencyError("injected failure")
        real(field)

    monkeypatch.setattr(trace_gram, "verify_derived_closures", fail_once)
    trace_gram._startup_checks.cache_clear()
    x = t_element(2, 0)
    with pytest.raises(ConsistencyError):
        markov_trace(x)
    assert markov_trace(x) == I * D
    assert len(calls) == 2
    markov_trace(x)
    assert len(calls) == 2  # a check that passed is not run again


def test_gram_zero_space():
    r = gram_matrix("+", "-")
    assert r.dimension == 0 and r.entries == []
    assert gram_rank(r, 5) == 0


@pytest.mark.parametrize("sig, N", [("-", 1), ("-", "bogus"), ("+", "bogus")])
def test_gram_rank_checks_the_point_first(sig, N):
    # also where the matrix has dimension 0 and the rank would be 0 at any point
    with pytest.raises(DomainError):
        gram_rank(gram_matrix("+", sig), N)


def test_gram_ranks():
    r2 = gram_matrix("++", "++")
    assert gram_rank(r2, 5) == 4
    assert gram_rank(r2, 3) == 4
    assert gram_rank(r2, 2) == 2
    assert gram_rank(r2, "generic") == 4


def test_gram_rank_mixed_signature():
    r = gram_matrix("+-", "+-")
    assert gram_rank(r, 5) == 4
    assert gram_rank(r, 2) == 2


def test_generic_rank_three_strands():
    # regression anchor: the pairing is nondegenerate at generic q here
    # (computed, not claimed a priori; full rank at one rational q certifies it)
    r = gram_matrix("+++", "+++")
    assert gram_rank(r, "generic") == 24


def test_generic_rank_certified_past_a_vanishing_sample():
    # 7q - 5 vanishes at the sample q = 5/7 but not over Q(i)(q)
    key = ((0,), 0)
    assert gram_rank(GramReport("+", "+", [key], [[7 * Q - 5]]), "generic") == 1
    singular = [[ONE, Q], [Q, Q * Q]]
    assert gram_rank(GramReport("+", "+", [key, key], singular), "generic") == 1


@pytest.mark.parametrize("sig", ["++", "+++", "+-", "--"])
def test_modular_rank_matches_exact_elimination(sig):
    r = gram_matrix(sig, sig)
    for N in range(2, 9):
        exact = matrix_rank([[specialize(c, N) for c in row] for row in r.entries])
        assert gram_rank(r, N) == exact
    assert gram_rank(r, "generic") == matrix_rank(r.entries)


@pytest.mark.parametrize("m", [4, 8, 12, 20, 32])
def test_modular_point(m):
    p, zeta = _modular_point(m)
    assert p < 2**61 and p % m == 1 and _is_prime(p)
    assert not any(_is_prime(c) for c in range(p + m, 2**61, m))
    assert pow(zeta, m, p) == 1
    assert all(pow(zeta, m // r, p) != 1 for r in (2, 3, 5) if m % r == 0)


def test_residue_is_specialize_reduced_mod_p():
    # zeta_4N -> zeta in F_p carries specialize's image to the residue
    entries = [c for row in gram_matrix("+++", "+++").entries for c in row]
    for N in (2, 3, 5, 8):
        p, zeta = _modular_point(4 * N)
        inverses = {}
        for f in entries[::7]:
            value = specialize(f, N)
            image = sum(c.numerator * pow(zeta, k, p) * pow(c.denominator, -1, p)
                        for k, c in enumerate(value.coeffs)) % p
            assert residue(f, p, zeta, pow(zeta, N, p), inverses) == image


def test_modular_reduction_keeps_the_relations():
    # singular only because q^N = i and i^2 = -1: a reduction breaking either
    # relation would certify a full rank that is not there
    key = ((0,), 0)
    for N in range(2, 9):
        assert gram_rank(GramReport("+", "+", [key], [[Q**N - I]]), N) == 0
    twisted = [[ONE, I], [I, -ONE]]
    for point in [*range(2, 9), "generic"]:
        assert gram_rank(GramReport("+", "+", [key, key], twisted), point) == 1


def test_rank_certificate_survives_bad_primes():
    # p and 1/p vanish or blow up mod p, so the rank falls back to exact
    key = ((0,), 0)
    for point, m in ((5, 20), ("generic", 4)):
        p, _ = _modular_point(m)
        for entry in (ScalarQ(p), ONE / p):
            assert gram_rank(GramReport("+", "+", [key], [[entry]]), point) == 1


def test_genuine_pole_keeps_its_message():
    key = ((0,), 0)
    report = GramReport("+", "+", [key], [[ONE / (Q**5 - I)]])
    with pytest.raises(PoleError) as info:
        gram_rank(report, 5)
    assert str(info.value) == (
        f"Gram entry has a pole at N=5: denominator of {ONE / (Q**5 - I)} "
        "vanishes at q = zeta_20"
    )


@pytest.mark.parametrize("n", [2, 3])
def test_rank_oracle_matches_gram_ranks(n):
    r = gram_matrix("+" * n, "+" * n)
    assert [gram_rank(r, N) for N in range(2, 9)] == [rank_oracle(n, N) for N in range(2, 9)]


def test_rank_oracle_matches_end4_full_rank_points(gram_end4):
    # N = 5..8 are certified mod p; N = 2..4 take the exact fallback (bench/end4.py)
    for N in range(5, 9):
        assert gram_rank(gram_end4, N) == rank_oracle(4, N) == 192


def test_matrix_rank_exact():
    fld = CyclotomicField(2)
    two = fld.from_int(2)
    mat = [[two, fld.zeta], [fld.zeta, two]]
    assert matrix_rank(mat) == 2
    mat2 = [[fld.one, fld.one], [fld.one, fld.one]]
    assert matrix_rank(mat2) == 1


def test_trace_rejects_full_variant():
    from skeinhc.hecke_clifford import v_element

    with pytest.raises(DomainError):
        markov_trace(v_element(2, 0))
