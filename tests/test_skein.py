"""Diagram words, straightening, bending, and hom-space operations."""

import itertools
import json
import random

import pytest

from skeinhc.errors import DomainError
from skeinhc.hecke_clifford import (
    AlgebraElement,
    e_element,
    identity_element,
    multiply,
    t_element,
)
from skeinhc.scalars import CyclotomicField, I, ONE, QIQ
from skeinhc.skein import (
    Cap,
    Crossing,
    Cup,
    HomElement,
    Ladder,
    basis_indices,
    evaluate,
    format_diagram_word,
    g_projection,
    hom_basis_element,
    hom_from_json,
    hom_to_json,
    identity_hom,
    insert_random_identities,
    ladder_normalization,
    parse_diagram_word,
    random_diagram_word,
    straighten,
)
from skeinhc.trace_gram import categorical_trace, markov_trace
from skeinhc.verify import _shift

D = QIQ.loop
Z = QIQ.z


def t_hom(n=2, j=0):
    return HomElement.unbend(t_element(n, j), "+" * n, "+" * n)


def e_hom(n=2, j=0):
    return HomElement.unbend(e_element(n, j), "+" * n, "+" * n)


# -- rigidity, loops, curls --------------------------------------------------


def test_value_classes_compare_hash_and_print_by_their_fields():
    from skeinhc.combinatorics import YoungPair
    from skeinhc.scalars import SpecializationPoint
    from skeinhc.trace_gram import GramReport

    frozen = [Crossing(1), Crossing(2, False), Ladder(0), Cap(1), Cup(0, "+-"),
              SpecializationPoint(3), YoungPair((2, 1), (1,), 4)]
    assert [repr(x) for x in frozen] == [
        "Crossing(index=1, positive=True)", "Crossing(index=2, positive=False)",
        "Ladder(index=0)", "Cap(index=1)", "Cup(index=0, pair='+-')",
        "SpecializationPoint(N=3)", "YoungPair(lam=(2, 1), mu=(1,), N=4)"]
    assert Crossing(1) == Crossing(1, True) and Crossing(1) != Crossing(1, False)
    assert Ladder(1) != Cap(1) and hash(Ladder(1)) == hash(Cap(1)) == hash((1,))
    assert hash(Cup(0, "+-")) == hash(Cup(0, "+-")) == hash((0, "+-"))
    assert len({Crossing(0), Crossing(0), Ladder(0), Cap(0)}) == 3
    for x in frozen:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            x.index = 5
    with pytest.raises(DomainError):
        SpecializationPoint(1)
    with pytest.raises(DomainError):
        YoungPair((1,), (1,), 1)
    report = GramReport("+", "+", [1], [[2]])
    assert repr(report) == "GramReport(source='+', target='+', basis=[1], entries=[[2]])"
    assert report == GramReport("+", "+", [1], [[2]]) != GramReport("+", "+", [1], [[3]])
    with pytest.raises(TypeError):
        hash(report)


def test_zig_zags():
    assert evaluate([Cup(0, "+-"), Cap(1)], "+") == identity_hom("+")
    assert evaluate([Cup(1, "-+"), Cap(0)], "+") == identity_hom("+")
    assert evaluate([Cup(2, "+-"), Cap(1)], "+-") == identity_hom("+-")
    assert evaluate([Cup(0, "-+"), Cap(1)], "-") == identity_hom("-")


def test_loops():
    for pair in ("+-", "-+"):
        loop = evaluate([Cup(0, pair), Cap(0)], "")
        assert loop == identity_hom("").scale(D)
    beside = evaluate([Cup(2, "+-"), Cap(2)], "+-")
    assert beside == identity_hom("+-").scale(D)


def test_curls():
    assert straighten(
        [Cup(1, "+-"), Crossing(0, True), Cap(1)], 1
    ) == identity_element(1).scale(I)
    assert straighten(
        [Cup(1, "+-"), Crossing(0, False), Cap(1)], 1
    ) == identity_element(1).scale(-I)
    assert straighten(
        [Cup(0, "-+"), Crossing(1, True), Cap(0)], 1
    ) == identity_element(1).scale(I)


def test_single_leg_ladder_closures_vanish():
    assert straighten([Cup(1, "+-"), Ladder(0), Cap(1)], 1).is_zero
    assert straighten([Cup(0, "-+"), Ladder(1), Cap(0)], 1).is_zero


def test_closed_loop_beside_identity():
    word = [Cup(1, "+-"), Cap(1)]
    assert straighten(word, 1) == identity_element(1).scale(D)


# -- straighten --------------------------------------------------------------


def test_straighten_letters():
    assert straighten([Crossing(0, True)], 2) == t_element(2, 0)
    assert straighten([Crossing(0, False)], 2) == t_element(2, 0, inverse=True)
    assert straighten([Ladder(0)], 2) == e_element(2, 0)


def test_straighten_requires_endomorphism():
    with pytest.raises(DomainError):
        straighten([Cup(0, "+-")], 1)


def test_straighten_well_defined_under_rewrites():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(1, 3)
        word = random_diagram_word(n, rng, length=rng.randint(3, 7),
                                   max_cups=1 if n == 3 else 2)
        base = straighten(word, n)
        rewritten = insert_random_identities(word, "+" * n, rng, count=2)
        assert straighten(rewritten, n) == base


def test_word_concatenation_matches_compose():
    w1 = [Cup(1, "+-"), Crossing(0, False), Cap(1)]
    w2 = [Ladder(0), Crossing(0, True)]
    whole = evaluate(w1 + w2, "++")
    split = evaluate(w1, "++").compose(evaluate(w2, "++"))
    assert whole == split


def test_ladder_slides_under_crossings_at_word_level():
    # a ladder below a pair of crossings equals the slid ladder above them
    lhs = straighten([Crossing(0, True), Crossing(1, True), Ladder(0)], 3)
    rhs = straighten([Ladder(1), Crossing(0, True), Crossing(1, True)], 3)
    assert lhs == rhs


def test_straighten_spectator_strand():
    # evaluating beside an untouched strand embeds the result
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(1, 2)
        word = random_diagram_word(n, rng, length=rng.randint(3, 6))
        small = straighten(word, n)
        big = straighten(word, n + 1)
        embedded = {
            (w + (n,), emask): c for (w, emask), c in small.terms.items()
        }
        assert big.terms == embedded


# -- hom elements ------------------------------------------------------------


def test_basis_enumeration():
    assert len(basis_indices("+-", "-+")) == 4
    assert basis_indices("+", "-") == []
    assert len(basis_indices("+++", "+++")) == 24


def test_compose_plus_only_is_algebra_product():
    a, b = t_hom(), e_hom()
    assert a.compose(b).bend() == multiply(t_element(2, 0), e_element(2, 0))
    assert b.compose(b).bend() == identity_element(2).scale(-ONE)
    assert a.compose(a).bend() == identity_element(2) + t_element(2, 0).scale(Z)


def test_identity_laws():
    # the (+--, -) pair exercises two nested chains on the source side
    for s1, s2 in (("+-", "+-"), ("++", "++"), ("+--", "-"), ("-", "+--")):
        for key in basis_indices(s1, s2):
            b = hom_basis_element(s1, s2, key)
            assert identity_hom(s1).compose(b) == b
            assert b.compose(identity_hom(s2)) == b


def test_compose_associative_mixed():
    rng = random.Random(7)
    keys = basis_indices("+-", "+-")
    f = QIQ

    def rand_hom():
        return HomElement(
            "+-", "+-", {k: f.q ** rng.randint(-1, 1) for k in rng.sample(keys, 2)}
        )

    for _ in range(8):
        a, b, c = rand_hom(), rand_hom(), rand_hom()
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def _random_hom(s1, s2, rng, terms=3):
    keys = basis_indices(s1, s2)
    coeffs = {
        k: QIQ.from_int(rng.choice((-2, -1, 1, 3))) * QIQ.q ** rng.randint(-2, 2)
        for k in rng.sample(keys, min(terms, len(keys)))
    }
    return HomElement(s1, s2, coeffs)


def _hom_sum(source, target, pieces):
    total = HomElement(source, target)
    for piece in pieces:
        total = total + piece
    return total


@pytest.mark.parametrize(
    "s1, s2, s3",
    [
        ("+-", "+-", "+-"),
        ("++-", "++-", "++-"),
        ("+--", "-", "+--"),
        ("-", "+--", "-"),
    ],
)
def test_compose_is_linear_in_the_upper_factor(s1, s2, s3):
    # one pass of a multi-key element equals the sum of single-key passes
    rng = random.Random(s1 + s2 + s3)
    for _ in range(3):
        a, b = _random_hom(s1, s2, rng), _random_hom(s2, s3, rng)
        expected = _hom_sum(
            s1,
            s3,
            (
                a.compose(hom_basis_element(s2, s3, k)).scale(c)
                for k, c in b.coeffs.items()
            ),
        )
        assert a.compose(b) == expected


@pytest.mark.parametrize(
    "left, right",
    [
        (("++", "++"), ("+-", "+-")),
        (("+-", "+-"), ("-", "-")),
        (("+", "+"), ("+--", "-")),
    ],
)
def test_tensor_is_bilinear(left, right):
    rng = random.Random(29)
    for _ in range(2):
        a, b = _random_hom(*left, rng), _random_hom(*right, rng)
        expected = _hom_sum(
            left[0] + right[0],
            left[1] + right[1],
            (
                hom_basis_element(*left, k)
                .tensor(hom_basis_element(*right, l))
                .scale(c * d)
                for k, c in a.coeffs.items()
                for l, d in b.coeffs.items()
            ),
        )
        assert a.tensor(b) == expected


def test_tensor_is_linear_in_the_right_factor_on_five_strands():
    # +-+--/+-- is compared by bent elements only: its coordinates would need
    # the 5-strand change of basis
    rng = random.Random(31)
    a, b = _random_hom("+-", "+-", rng, terms=2), _random_hom("+--", "-", rng)
    expected = _hom_sum(
        "+-+--",
        "+--",
        (a.tensor(hom_basis_element("+--", "-", l)).scale(d) for l, d in b.coeffs.items()),
    )
    assert not expected.is_zero
    assert a.tensor(b) == expected


def _small_hom_pairs():
    """Every pair with at most 4 boundary points and a sorted target (this
    includes +/++- and ++-/+)."""
    sigs = ["".join(p) for n in range(5) for p in itertools.product("+-", repeat=n)]
    return [
        (s1, s2)
        for s1 in sigs
        for s2 in sigs
        if len(s1) + len(s2) <= 4
        and (len(s1) + len(s2)) % 2 == 0
        and s2 == "+" * s2.count("+") + "-" * s2.count("-")
        and s1.count("+") - s1.count("-") == s2.count("+") - s2.count("-")
    ]


ROUND_TRIP_PAIRS = (
    _small_hom_pairs()
    + [("++-", "++-"), ("+-+", "++-"), ("-++", "++-"), ("+++-", "+++-")]
)


@pytest.mark.parametrize(
    "s1, s2", ROUND_TRIP_PAIRS, ids=[f"{a or 'empty'}/{b or 'empty'}" for a, b in ROUND_TRIP_PAIRS]
)
def test_bend_unbend_round_trip(s1, s2):
    rng = random.Random(1)
    f = QIQ
    keys = basis_indices(s1, s2)
    m = (len(s1) + len(s2)) // 2
    for _ in range(5):
        sample = rng.sample(keys, min(3, len(keys)))
        h = HomElement(s1, s2, {k: f.q ** rng.randint(-2, 2) for k in sample})
        assert HomElement(s1, s2, h.coeffs) == h
        # solves C*x = y exactly, for y not built from coordinates
        x = AlgebraElement(m, "even", {k: f.q ** rng.randint(-2, 2) for k in sample}, f)
        assert HomElement(s1, s2, HomElement.unbend(x, s1, s2).coeffs).bend() == x


def test_bend_identity_golden():
    # regression anchor for the fixed bending convention
    bent = identity_hom("+-").bend()
    assert bent == identity_element(2)


def test_rotation():
    assert t_hom().rotate_180() == t_hom()
    assert e_hom().rotate_180() == e_hom()
    t3 = HomElement.unbend(t_element(3, 0), "+++", "+++")
    assert t3.rotate_180().bend() == t_element(3, 1)
    rng = random.Random(3)
    keys = basis_indices("+-", "+-")
    for _ in range(10):
        h = HomElement(
            "+-", "+-", {k: QIQ.q ** rng.randint(-1, 1) for k in rng.sample(keys, 2)}
        )
        assert h.rotate_180().rotate_180() == h
        assert categorical_trace(h.rotate_180()) == categorical_trace(h)


def test_rotation_contravariant_on_endomorphisms():
    rng = random.Random(19)
    for _ in range(10):
        letters1 = [Crossing(rng.randrange(2), rng.random() < 0.5) for _ in range(2)]
        letters2 = [Ladder(rng.randrange(2))]
        a = evaluate(letters1, "+++")
        b = evaluate(letters2, "+++")
        assert a.compose(b).rotate_180() == b.rotate_180().compose(a.rotate_180())


def test_tensor():
    assert e_hom().tensor(e_hom()).bend() == multiply(e_element(4, 0), e_element(4, 2))
    assert t_hom().tensor(t_hom()).bend() == multiply(t_element(4, 0), t_element(4, 2))
    unit = identity_hom("")
    assert t_hom().tensor(unit) == t_hom()
    assert unit.tensor(t_hom()) == t_hom()
    mixed = identity_hom("+-").tensor(identity_hom(""))
    assert mixed == identity_hom("+-")


@pytest.mark.parametrize(
    "left, right", [("+", "+-"), ("++", "-"), ("++", "+-")], ids=["+,+-", "++,-", "++,+-"]
)
def test_tensor_of_an_all_plus_factor_multiplies_the_bent_elements(left, right):
    # with an all-plus left factor and sorted right signatures, bending
    # carries the tensor product to the product of the shifted bent elements
    rng = random.Random(left + right)
    for _ in range(3):
        f, g = _random_hom(left, left, rng), _random_hom(right, right, rng)
        nf, n = f.strand_count, f.strand_count + g.strand_count
        expected = multiply(_shift(f.bend(), 0, n), _shift(g.bend(), nf, n))
        assert f.tensor(g).bend() == expected


def test_tensor_then_trace_multiplicative():
    a, b = t_hom(), e_hom().compose(e_hom())
    ab = a.tensor(b)
    assert categorical_trace(ab) == categorical_trace(a) * categorical_trace(b)


def test_equals():
    hecke_lhs = t_hom().compose(t_hom())
    hecke_rhs = identity_hom("++") + t_hom().scale(Z)
    assert hecke_lhs.equals(hecke_rhs)
    assert not t_hom().equals(e_hom())


def test_charge_conservation():
    assert HomElement("+", "-").is_zero
    with pytest.raises(DomainError):
        HomElement("+", "-", {((0, 1), 0): ONE})
    with pytest.raises(DomainError):
        HomElement.unbend(identity_element(1), "+", "-")
    with pytest.raises(DomainError):  # coordinates need a sorted target
        identity_hom("-+")


@pytest.mark.parametrize("sig", ["++", "+-"])
@pytest.mark.parametrize(
    "key", [((0, 1, 2), 7), ((1, 0), 2), ((0, 0), 0), ((1, 0), -1), ((1, 0), 1.0), "ab"]
)
def test_hom_element_rejects_keys_outside_the_basis(sig, key):
    # on ++/++ the first key was stored as a term of a 2-strand element, and
    # on +-/+- it raised a bare KeyError
    with pytest.raises(DomainError, match="is not a basis index of Hom"):
        HomElement(sig, sig, {key: ONE})


def test_unbend_needs_rational_function_coefficients():
    x = identity_element(2, "even", CyclotomicField(3))
    with pytest.raises(DomainError, match="rational-function coefficients"):
        HomElement.unbend(x, "++", "++")
    with pytest.raises(DomainError, match="rational-function coefficients"):
        HomElement.unbend(x, "+-", "+-")


def test_categorical_trace():
    assert categorical_trace(identity_hom("+-")) == D * D
    assert categorical_trace(identity_hom("++")) == D * D
    zero = HomElement("+-", "+-")
    assert categorical_trace(zero).is_zero
    with pytest.raises(DomainError):
        categorical_trace(hom_basis_element("+-", "-+", ((0, 1), 0)))


def test_categorical_trace_cyclic_on_mixed_signature():
    rng = random.Random(37)
    keys = basis_indices("+-", "+-")

    def rand_hom():
        return HomElement(
            "+-", "+-", {k: QIQ.q ** rng.randint(-1, 1) for k in rng.sample(keys, 2)}
        )

    for _ in range(6):
        a, b = rand_hom(), rand_hom()
        assert categorical_trace(a.compose(b)) == categorical_trace(b.compose(a))


def test_g_projection():
    P = g_projection()
    assert categorical_trace(P) == ONE
    assert P.compose(P) == P
    P1 = evaluate([Cap(0), Cup(0, "+-")], "+-").scale(ONE / D)
    assert P1.compose(P1) == P1
    assert P.compose(P1).is_zero and P1.compose(P).is_zero
    assert ladder_normalization() == QIQ.from_int(-2) / Z


def _close_minus_strand(hom):
    """Partial closure of the downward strand of an End(+-) element."""
    from skeinhc.skein import _State, _apply_hom_word

    st = _State("+")
    st.cup(1, "-+")
    _apply_hom_word(st, hom.coeffs, "+-", "+-", 0)
    st.cap(1)
    return st.x


def test_g_projection_partial_closure_value():
    # closing the downward strand of the projection gives (q - q^(-1))/(2i),
    # whose product with the loop value is the trace 1 = dim of the
    # invertible object
    P = g_projection()
    closed = _close_minus_strand(P)
    value = Z / (2 * I)
    assert closed == identity_element(1).scale(value)
    assert value * D == ONE


def test_identity_partial_closure_is_loop():
    closed = _close_minus_strand(identity_hom("+-"))
    assert closed == identity_element(1).scale(D)


def test_grammar_round_trip():
    text = "x1 x2' e1 cup2< cap2 cup1> cap1"
    letters = parse_diagram_word(text)
    assert format_diagram_word(letters) == text
    assert parse_diagram_word("cap2< cap2>") == [Cap(1), Cap(1)]
    with pytest.raises(DomainError):
        parse_diagram_word("cup2")
    with pytest.raises(DomainError):
        parse_diagram_word("y3")


@pytest.mark.parametrize(
    "word", ["e2'", "x1''", "x1<", "x1>", "e1>", "e1<", "cap1'", "cap1<<", "cup1'", "cup1<>"]
)
def test_grammar_rejects_bad_suffixes(word):
    with pytest.raises(DomainError):
        parse_diagram_word(word)


def test_hom_json_round_trip():
    rng = random.Random(10)
    keys = basis_indices("+-", "+-")
    h = HomElement(
        "+-", "+-", {k: QIQ.q ** rng.randint(-2, 2) for k in rng.sample(keys, 3)}
    )
    assert hom_from_json(hom_to_json(h)) == h
    assert hom_from_json(hom_to_json(HomElement("+", "-"))) == HomElement("+", "-")


@pytest.mark.parametrize(
    "terms",
    [
        [{"w": [1, 1], "s": "1"}],  # not a permutation
        [{"w": [1, 2, 3], "s": "1"}],  # wrong length
        [{"w": [0, 1], "s": "1"}],  # 0-based
        [{"w": [1, 2], "s": "111"}],  # longer than the m - 1 ladder slots
        [{"w": [1, 2], "s": "x"}],  # not a 0/1 mask
        [{"w": [2, 1], "s": "0"}, {"w": [2, 1], "s": "0"}],  # duplicate
    ],
    ids=["repeat", "length", "0-based", "long-mask", "bad-mask", "duplicate"],
)
def test_hom_from_json_rejects_malformed_terms(terms):
    terms = [dict(term, coeff="1") for term in terms]
    text = json.dumps({"source": "++", "target": "++", "terms": terms})
    with pytest.raises(DomainError):
        hom_from_json(text)



@pytest.mark.parametrize(
    "text",
    [
        '{"source": "++", "target": "++"}',
        '{"source": "++", "target": "++", "terms": [{"w": [2, 1], "s": "0"}]}',
        "[1]",
        '{"source": 2, "target": "++", "terms": []}',
        '{"source": "++", "target": "++", "terms": [{"w": [2, 1], "s": "0", "coeff": 3}]}',
        '{"source": "++", "target": "++",'
        ' "terms": [{"w": ["a", 1], "s": "0", "coeff": "1"}]}',
        "not json",
    ],
    ids=["no-terms", "no-coeff", "list", "int-source", "int-coeff", "str-in-w", "not-json"],
)
def test_hom_from_json_rejects_malformed_structure(text):
    with pytest.raises(DomainError):
        hom_from_json(text)


@pytest.mark.parametrize("sig", ["++", "+-"])
def test_hom_element_coerces_plain_coefficients(sig):
    from fractions import Fraction

    from skeinhc.scalars import GaussianRational, ScalarQ

    key = ((0, 1), 0)
    for c in (1, Fraction(1, 2), GaussianRational(0, 1)):
        h = HomElement(sig, sig, {key: c})
        assert h.coeffs == {key: ScalarQ(c)}
        assert h == HomElement(sig, sig, {key: ScalarQ(c)})
    assert HomElement(sig, sig, {key: 0}).coeffs == {}
    with pytest.raises(DomainError):
        HomElement(sig, sig, {key: "x"})
    with pytest.raises(DomainError):
        HomElement(sig, sig, {key: 1.5})
