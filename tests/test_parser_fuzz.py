"""Fuzz tests for the three input grammars: every input either parses or
raises DomainError, never another exception and never a run without bound."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skeinhc.errors import DomainError
from skeinhc.hecke_clifford import parse_generator_word
from skeinhc.scalars import ONE, parse_scalar
from skeinhc.skein import parse_diagram_word

FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Grammar characters mixed with digits, whitespace and characters outside
# the grammar (including digits that str.isdigit accepts but int rejects).
SCALAR_ALPHABET = "iq+-*/^() 0123456789x.²٣\t"
WORD_ALPHABET = "tve'cupax<> 0123456789²٣-"


def parses_or_domain_error(parse, *args):
    try:
        return parse(*args)
    except DomainError:
        return None


def _binary(parts):
    left, op, right = parts
    return f"{left} {op} {right}"


def _scalar_expressions():
    atoms = st.one_of(
        st.integers(0, 10**6).map(str), st.sampled_from(["i", "q", "0", "1"])
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(_binary),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"-{s}"),
            st.tuples(inner, st.integers(-6, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    return st.recursive(atoms, extend, max_leaves=10)


@FUZZ
@given(st.text(alphabet=SCALAR_ALPHABET, max_size=60))
def test_parse_scalar_random_text(text):
    parses_or_domain_error(parse_scalar, text)


@FUZZ
@given(st.text(max_size=40))
def test_parse_scalar_any_unicode(text):
    parses_or_domain_error(parse_scalar, text)


@FUZZ
@given(_scalar_expressions())
def test_parse_scalar_expressions_round_trip(text):
    value = parses_or_domain_error(parse_scalar, text)
    if value is not None:
        assert parse_scalar(str(value)) == value


@FUZZ
@given(st.text(alphabet=WORD_ALPHABET, max_size=40), st.integers(-3, 6))
def test_parse_generator_word_random_text(text, n):
    parses_or_domain_error(parse_generator_word, text, n)


@FUZZ
@given(st.text(max_size=30), st.integers(-3, 6))
def test_parse_generator_word_any_unicode(text, n):
    parses_or_domain_error(parse_generator_word, text, n)


@FUZZ
@given(st.text(alphabet=WORD_ALPHABET, max_size=40))
def test_parse_diagram_word_random_text(text):
    parses_or_domain_error(parse_diagram_word, text)


@FUZZ
@given(st.text(max_size=30))
def test_parse_diagram_word_any_unicode(text):
    parses_or_domain_error(parse_diagram_word, text)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 2000 + "1" + ")" * 2000,
        "(" * 101 + "q" + ")" * 101,
        "(q + 1)^600",
        "q^513",
        "((q + 1)^32)^32",
        "9" * 5000,
        "2²",
        "t٣",
    ],
)
def test_parse_scalar_bounds(text):
    with pytest.raises(DomainError):
        parse_scalar(text)


def test_parse_scalar_within_bounds():
    assert parse_scalar("(" * 100 + "q" + ")" * 100) == parse_scalar("q")
    assert parse_scalar("-" * 5001 + "1") == -ONE
    assert parse_scalar("q^512") == parse_scalar("q") ** 512
    assert parse_scalar("٣") == 3 * ONE  # int() reads any Unicode decimal


@pytest.mark.parametrize("word", ["t²", "t" + "1" * 5000, "v٣'", "e1²"])
def test_parse_generator_word_rejects_odd_digits(word):
    with pytest.raises(DomainError):
        parse_generator_word(word, 3)


@pytest.mark.parametrize("word", ["x²", "cup" + "1" * 5000 + "<", "e"])
def test_parse_diagram_word_rejects_odd_digits(word):
    with pytest.raises(DomainError):
        parse_diagram_word(word)
