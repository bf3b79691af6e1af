"""Normal forms and relations in the algebras and their even parts."""

import random
from itertools import product

import pytest

import legacy_even_convert
from skeinhc.errors import DomainError, ParityError
from skeinhc.hecke_clifford import (
    AlgebraElement,
    _action_letter,
    _add_term,
    _lmul_even,
    _lmul_word,
    _right_action,
    _rmul_word,
    all_perms,
    alpha,
    antisymmetrizer,
    basis_keys_even,
    closure_dimension,
    e_element,
    even_convert,
    even_expand,
    identity_element,
    multiply,
    normalize,
    normalize_full,
    parse_generator_word,
    reduced_word,
    t_element,
    term_list,
    theta,
    v_element,
)
from skeinhc.scalars import ONE, QIQ, CyclotomicField, q_power, specialize

Z = QIQ.z


def prod(*xs):
    out = xs[0]
    for x in xs[1:]:
        out = multiply(out, x)
    return out


def rand_even(n, rng, k=5):
    letters = []
    for _ in range(rng.randint(1, k)):
        if rng.random() < 0.6:
            letters.append(("t", rng.randrange(n - 1), rng.choice([1, -1])))
        else:
            letters.append(("e", rng.randrange(n - 1)))
    return normalize(letters, n)


def test_reduced_words_are_reduced_and_correct():
    from itertools import permutations

    from skeinhc.hecke_clifford import perm_identity, perm_mul

    def simple(i, n=4):
        s = list(range(n))
        s[i], s[i + 1] = s[i + 1], s[i]
        return tuple(s)

    for w in permutations(range(4)):
        word = reduced_word(w)
        rebuilt = perm_identity(4)
        for i in word:
            rebuilt = perm_mul(rebuilt, simple(i))
        assert rebuilt == w
        inv = sum(1 for a in range(4) for b in range(a + 1, 4) if w[a] > w[b])
        assert len(word) == inv


def test_quadratic_relations():
    for n in (2, 3, 4):
        for j in range(n - 1):
            t = t_element(n, j)
            assert multiply(t, t) == identity_element(n) + t.scale(Z)
            e = e_element(n, j)
            assert multiply(e, e) == identity_element(n).scale(-ONE)
            tinv = t_element(n, j, inverse=True)
            assert multiply(t, tinv) == identity_element(n)


def test_braid_and_commuting_relations():
    for n in (3, 4):
        ts = [t_element(n, j) for j in range(n - 1)]
        for j in range(n - 2):
            assert prod(ts[j], ts[j + 1], ts[j]) == prod(ts[j + 1], ts[j], ts[j + 1])
        es = [e_element(n, j) for j in range(n - 1)]
        for j in range(n - 2):
            assert prod(es[j], es[j + 1]) == prod(es[j + 1], es[j]).scale(-ONE)
        for j in range(n - 1):
            for k in range(n - 1):
                if abs(j - k) >= 2:
                    assert prod(ts[j], ts[k]) == prod(ts[k], ts[j])
                    assert prod(es[j], es[k]) == prod(es[k], es[j])
                    assert prod(es[j], ts[k]) == prod(ts[k], es[j])


def test_mixed_relations():
    # products read left to right (bottom to top); the displayed forms hold
    # with the factors reversed, the quadratic one in both orders
    for n in (3, 4):
        idn = identity_element(n)
        for j in range(n - 2):
            t, t1 = t_element(n, j), t_element(n, j + 1)
            tinv = t_element(n, j, inverse=True)
            e, e1 = e_element(n, j), e_element(n, j + 1)
            assert prod(e, t) + prod(tinv, e) == idn.scale(Z)
            assert prod(t, e) + prod(e, tinv) == idn.scale(Z)
            assert prod(e1, t) == prod(t, e1, e).scale(-ONE)
            assert prod(t1, e) == prod(e1, e, t1).scale(-ONE)
            assert prod(t, t1, e) == prod(e1, t, t1)


def test_clifford_relations_full_variant():
    n = 3
    for j in range(n):
        v = v_element(n, j)
        assert multiply(v, v) == identity_element(n, "full")
    for j in range(n):
        for k in range(n):
            if j != k:
                assert multiply(v_element(n, j), v_element(n, k)) == multiply(
                    v_element(n, k), v_element(n, j)
                ).scale(-ONE)


def test_token_moving_relations():
    # the three rules moving a Clifford token past a crossing, literally
    for n in (2, 3, 4):
        vs = [v_element(n, l) for l in range(n)]
        tf = [even_expand(t_element(n, j)) for j in range(n - 1)]
        for j in range(n - 1):
            assert multiply(tf[j], vs[j]) == multiply(vs[j + 1], tf[j])
            assert multiply(tf[j], vs[j + 1]) == multiply(vs[j], tf[j]) - (
                vs[j] - vs[j + 1]
            ).scale(Z)
            for l in range(n):
                if l not in (j, j + 1):
                    assert multiply(tf[j], vs[l]) == multiply(vs[l], tf[j])


def _relations(n):
    """The defining relations as pairs of sides, each a list of (coefficient,
    word); a word reads as a product left to right."""
    t = [("t", j, 1) for j in range(n - 1)]
    ti = [("t", j, -1) for j in range(n - 1)]
    v = [("v", l) for l in range(n)]
    one = [(ONE, [])]
    out = []
    for j in range(n - 1):
        out += [
            ([(ONE, [t[j], ti[j]])], one),
            ([(ONE, [ti[j], t[j]])], one),
            ([(ONE, [t[j], t[j]])], one + [(Z, [t[j]])]),
            ([(ONE, [t[j], v[j]])], [(ONE, [v[j + 1], t[j]])]),
            (
                [(ONE, [t[j], v[j + 1]])],
                [(ONE, [v[j], t[j]]), (-Z, [v[j]]), (Z, [v[j + 1]])],
            ),
            ([(ONE, [("e", j)])], [(ONE, [v[j], v[j + 1]])]),
        ]
        out += [([(ONE, [t[j], v[l]])], [(ONE, [v[l], t[j]])])
                for l in range(n) if l not in (j, j + 1)]
        out += [([(ONE, [t[j], t[k]])], [(ONE, [t[k], t[j]])])
                for k in range(j + 2, n - 1)]
        if j + 2 < n:
            out.append(([(ONE, [t[j], t[j + 1], t[j]])],
                        [(ONE, [t[j + 1], t[j], t[j + 1]])]))
    for l in range(n):
        out.append(([(ONE, [v[l], v[l]])], one))
        out += [([(ONE, [v[l], v[k]])], [(-ONE, [v[k], v[l]])])
                for k in range(l + 1, n)]
    return out


def _side(side, key):
    out = {}
    for c, word in side:
        for k, x in _lmul_word(word, {key: ONE}, QIQ).items():
            _add_term(out, k, c * x)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_actions_satisfy_the_defining_relations(n):
    # left multiplication by the generators, as operators on every monomial
    # c_s h_w (384 at n = 4), satisfies each defining relation; with the
    # closure dimensions this pins the regular representation
    relations = _relations(n)
    for w in all_perms(n):
        for s in range(1 << n):
            for lhs, rhs in relations:
                assert _side(lhs, (s, w)) == _side(rhs, (s, w)), (s, w, lhs, rhs)


def test_normalize_examples():
    # spec'd expansion with the v-level push as the oracle
    lhs = multiply(t_element(2, 0), e_element(2, 0))
    rhs = multiply(e_element(2, 0), t_element(2, 0)).scale(-ONE) + (
        e_element(2, 0) + identity_element(2)
    ).scale(Z)
    assert lhs == rhs
    oracle = normalize_full(parse_generator_word("t1 v1 v2", 2), 2)
    assert even_convert(oracle) == lhs


def test_even_conversion_examples():
    assert even_convert(normalize_full([("v", 0), ("v", 1)], 2)) == e_element(2, 0)
    # telescoping oracle: v1 v3 = v1 v2 v2 v3
    lhs = even_convert(normalize_full([("v", 0), ("v", 2)], 3))
    oracle = even_convert(
        normalize_full([("v", 0), ("v", 1), ("v", 1), ("v", 2)], 3)
    )
    assert lhs == oracle == multiply(e_element(3, 0), e_element(3, 1))
    four = even_convert(normalize_full([("v", k) for k in range(4)], 4))
    assert four == multiply(e_element(4, 0), e_element(4, 2))


def _even_degree_full_keys(n):
    return [
        (vmask, w)
        for w in all_perms(n)
        for vmask in range(1 << n)
        if bin(vmask).count("1") % 2 == 0
    ]


def test_even_conversion_round_trip():
    # every basis monomial for n <= 4 in both directions, then random sums
    for n in range(5):
        for key in basis_keys_even(n):
            x = AlgebraElement(n, "even", {key: ONE})
            assert even_convert(even_expand(x)) == x, key
        for key in _even_degree_full_keys(n):
            y = AlgebraElement(n, "full", {key: ONE})
            assert even_expand(even_convert(y)) == y, key
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 4)
        x = rand_even(n, rng)
        assert even_convert(even_expand(x)) == x


def _rand_full_even_degree(n, rng, k=6):
    letters = []
    for _ in range(rng.randint(1, k)):
        kind = rng.choice("tve")
        if kind == "t":
            letters.append(("t", rng.randrange(n - 1), rng.choice([1, -1])))
        elif kind == "v":
            letters.append(("v", rng.randrange(n)))
        else:
            letters.append(("e", rng.randrange(n - 1)))
    if sum(letter[0] == "v" for letter in letters) % 2:
        letters.append(("v", rng.randrange(n)))
    return normalize_full(letters, n)


def test_even_convert_matches_the_triangular_oracle():
    # the right fold of the t letters from e_(_v_to_e(s)) against the
    # triangular solve it replaced: every even-degree monomial for n <= 4,
    # then random sums of such monomials and random words on 2-5 strands
    for n in range(5):
        for key in _even_degree_full_keys(n):
            y = AlgebraElement(n, "full", {key: ONE})
            assert even_convert(y) == legacy_even_convert.even_convert(y), key
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 5)
        keys = _even_degree_full_keys(n)
        terms = {key: q_power(rng.randint(-3, 3)) for key in rng.sample(keys, 4)}
        for y in (AlgebraElement(n, "full", terms), _rand_full_even_degree(n, rng)):
            assert even_convert(y) == legacy_even_convert.even_convert(y)


def test_even_conversion_intertwines_multiplication():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 5)
        a, b = rand_even(n, rng, 3), rand_even(n, rng, 3)
        assert even_expand(multiply(a, b)) == multiply(even_expand(a), even_expand(b))


def _full_basis_product(x, y):
    # the triangular oracle converts back, so the right action is not checked
    # against a conversion built from it
    return legacy_even_convert.even_convert(multiply(even_expand(x), even_expand(y)))


def _even_monomials():
    for n in (2, 3, 4):
        for key in basis_keys_even(n):
            yield n, key
    for key in random.Random(5).sample(basis_keys_even(5), 24):
        yield 5, key


def test_even_action_matches_full_basis_products():
    # every generator on every even monomial for n <= 4, a sample at n = 5:
    # the relation-derived action against the product in the c_s h_w basis
    for n, key in _even_monomials():
        b = AlgebraElement(n, "even", {key: ONE})
        for j in range(n - 1):
            t, tinv, e = t_element(n, j), t_element(n, j, inverse=True), e_element(n, j)
            for letter, g in ((("t", j), t), (("t", j, -1), tinv), (("e", j), e)):
                right = AlgebraElement(n, "even", _rmul_word(b.terms, [letter], QIQ))
                assert right == _full_basis_product(b, g), (key, letter)
            for inverse, g in ((False, t), (True, tinv)):
                left = AlgebraElement(n, "even", _lmul_even(j, b.terms, Z, inverse))
                assert left == _full_basis_product(g, b), (key, j, inverse)


@pytest.mark.parametrize("field", [QIQ, CyclotomicField(3)], ids=["QIQ", "zeta12"])
def test_rmul_word_leaves_no_cancelled_term(field):
    # (z - t_0) t_0 = z t_0 - t_0^2 = -1: the rows of the two terms cancel
    # in h_(s_0), which must leave no entry (zero) in the term dict
    unit, s0 = (0, 1, 2), (1, 0, 2)
    terms = {(unit, 0): field.z, (s0, 0): -field.one}
    assert _rmul_word(terms, [("t", 0)], field) == {(unit, 0): -field.one}


@pytest.mark.parametrize("N", [3, 8])
def test_cyclotomic_action_rows_specialize_the_generic_rows(N):
    # every row for n <= 4 over Q(zeta_4N), key for key and in the same
    # order, is the image of the row over Q(i)(q) at q = zeta_4N
    field = CyclotomicField(N)
    for n in (2, 3, 4):
        for w, s in basis_keys_even(n):
            for letter in map(_action_letter, _even_letters(n)):
                generic = _right_action(w, s, letter, QIQ)
                images = [(key, specialize(c, N)) for key, c in generic]
                expected = [(key, c) for key, c in images if not c.is_zero]
                row = list(_right_action(w, s, letter, field))
                assert row == expected, (w, s, letter)


def test_parity_error_on_odd_conversion():
    with pytest.raises(ParityError):
        even_convert(v_element(2, 0))


def _even_letters(n):
    return (
        [("t", j, 1) for j in range(n - 1)]
        + [("t", j, -1) for j in range(n - 1)]
        + [("e", j) for j in range(n - 1)]
    )


def test_normalize_even_words_match_full_basis():
    # t/e words fold from the unit through the even action; the c_s h_w
    # basis is the oracle: every word of length <= 4 for n <= 4, a sample of
    # length-8 words at n = 5
    words = [
        (n, word)
        for n in (2, 3, 4)
        for length in range(5)
        for word in product(_even_letters(n), repeat=length)
    ]
    rng = random.Random(8)
    words += [(5, [rng.choice(_even_letters(5)) for _ in range(8)]) for _ in range(30)]
    for n, word in words:
        full = normalize_full(word, n)
        assert normalize(word, n) == legacy_even_convert.even_convert(full), (n, word)


def test_normalize_word_variants():
    w = parse_generator_word("t1 t1", 2)
    assert normalize(w, 2) == identity_element(2) + t_element(2, 0).scale(Z)
    assert normalize(parse_generator_word("v1", 2), 2).variant == "full"
    assert normalize(parse_generator_word("t1 v1 v2", 2), 2).variant == "even"
    for n in (0, 1):
        assert normalize([], n) == identity_element(n)
    for letters, n in (([("e", 2)], 3), ([("t", 2, 1)], 3), ([("t", 0, -1)], 1), ([], -1)):
        with pytest.raises(DomainError):
            normalize(letters, n)
    with pytest.raises(DomainError):
        parse_generator_word("t5", 3)
    with pytest.raises(DomainError):
        parse_generator_word("v1'", 3)


def test_full_variant_strings():
    # the mixed relation t_j v_{j+1} = v_j t_j - z (v_j - v_{j+1}), Clifford
    # tokens left of the braid part
    assert str(normalize(parse_generator_word("t1 v2", 3), 3)) == (
        "((-q^2 + 1)/(q)) * v1 + ((q^2 - 1)/(q)) * v2 + (1) * v1*t1"
    )
    assert str(normalize(parse_generator_word("t1 v1", 2), 2)) == "(1) * v2*t1"


def test_associativity_random():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 4)
        u, v, w = (rand_even(n, rng, 4) for _ in range(3))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_closure_dimensions():
    assert closure_dimension(1, "even") == 1
    assert closure_dimension(2, "even") == 4
    assert closure_dimension(3, "even") == 24
    assert closure_dimension(2, "full") == 8
    assert closure_dimension(3, "full") == 48


def test_closure_dimensions_four_strands():
    assert closure_dimension(4, "even") == 192
    assert closure_dimension(4, "full") == 384


def test_alpha_involution():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 3)
        letters = [("v", rng.randrange(n)) for _ in range(rng.randint(1, 4))]
        x = normalize_full(letters, n)
        assert alpha(alpha(x)) == x
        fixed = {
            key for key, c in x.terms.items() if alpha(x).terms.get(key) == c
        }
        even_keys = {
            key for key in x.terms if not (bin(key[0]).count("1") & 1)
        }
        assert fixed == even_keys


def test_antisymmetrizer():
    expect = (identity_element(2) - t_element(2, 0).scale(q_power(-1))).scale(
        ONE / (ONE + q_power(-2))
    )
    assert antisymmetrizer(2) == expect
    for N in (2, 3, 4):
        p = antisymmetrizer(N)
        assert multiply(p, p) == p
        lam = p.scale(-q_power(-1))
        for j in range(N - 1):
            assert multiply(t_element(N, j), p) == lam
            assert multiply(p, t_element(N, j)) == lam


def test_theta_anti_automorphism():
    rng = random.Random(8)
    assert theta(t_element(2, 0)) == t_element(2, 0)
    assert theta(e_element(2, 0)) == e_element(2, 0)
    n = 3
    assert theta(t_element(n, 0)) == t_element(n, 1)
    assert theta(e_element(n, 2 - 2)) == e_element(n, 1)
    for _ in range(20):
        a, b = rand_even(n, rng, 3), rand_even(n, rng, 3)
        assert theta(theta(a)) == a
        assert theta(multiply(a, b)) == multiply(theta(b), theta(a))


def test_term_list_serialization():
    x = multiply(t_element(2, 0), e_element(2, 0))
    items = term_list(x)
    assert all(set(d) == {"w", "s", "coeff"} for d in items)
    assert {tuple(d["w"]) for d in items} <= {(1, 2), (2, 1)}
