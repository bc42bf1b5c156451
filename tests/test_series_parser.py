"""The one-pass series parser against the tokenizer route it replaced,
and against the same parser building a Fraction per piece."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (reference_fraction_parse_series,
                     reference_parse_series)
from vanhom import (INF, PuiseuxSeries, SeriesParseError, parse_series,
                    series)

F = Fraction

TOKENS = ("0 1 12 3/2 1/0 T T^2 T^-1 T^(1/2) T^(1/0) * + - O(T) O(T^2) "
          "^ ( ) / x").split()
# pieces that meet the integer keys: an exponent equal to T^(1/2) once in
# lowest terms, blanks inside a parenthesized exponent, Arabic-Indic
# digits in a coefficient fraction, and zero coefficients at exponents
# other terms have
TOKENS += ["T^(2/4)", "T^( -1 / 2 )", "٣/٤*T", "0*T^(1/2)", "0*T"]
# each token with and without a blank after it
PIECES = [token + gap for token in TOKENS for gap in ("", " ")]
CHARACTERS = "0123T^()*/+- O\t ٣٤"


def outcome(parse, text):
    """The parsed (terms, precision), or None for a rejection."""
    try:
        s = parse(text)
    except SeriesParseError:
        return None
    return s.terms, s.precision


def outcome_or_message(parse, text):
    """The parsed (terms, precision), or the rejection's message."""
    try:
        s = parse(text)
    except SeriesParseError as exc:
        return str(exc)
    return s.terms, s.precision


def assert_same(text):
    parsed = outcome(parse_series, text)
    assert parsed == outcome(reference_parse_series, text), repr(text)
    if parsed is not None:
        # parse_series builds its series unchecked: the checking
        # constructor must accept the same terms and precision
        assert PuiseuxSeries(*parsed) == parse_series(text), repr(text)
    assert (outcome_or_message(parse_series, text)
            == outcome_or_message(reference_fraction_parse_series, text)), \
        repr(text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=8))
def test_token_strings_match_reference(pieces):
    assert_same("".join(pieces))


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=CHARACTERS, max_size=12))
def test_character_strings_match_reference(text):
    assert_same(text)


@pytest.mark.parametrize("text, terms, precision", [
    ("1 + -T", ((F(0), F(1)), (F(1), F(-1))), INF),
    ("1 + O(T)", ((F(0), F(1)),), F(1)),
    ("T^-1 - 2*T^(-1/2)", ((F(-1), F(1)), (F(-1, 2), F(-2))), INF),
    ("0 + O(T^0)", (), F(0)),
    ("0*T^5 + O(T^2)", (), F(2)),
    ("٣*T^٣ + O(T^(٣٣/2))", ((F(3), F(3)),), F(33, 2)),
    ("T^( -1 / 2 ) + ٣/٤*T", ((F(-1, 2), F(1)), (F(1), F(3, 4))), INF),
    ("T^(4/2) - T^(3/6) + O(T^(6/2))", ((F(1, 2), F(-1)), (F(2), F(1))),
     F(3)),
])
def test_accepted_quirks(text, terms, precision):
    assert parse_series(text) == series(terms, precision)
    assert_same(text)


@pytest.mark.parametrize("text", [
    "- -T", "1 - -T", "+T", "+ -T", "1 - O(T^2)", "0*T + 0*T", "2T",
    "1 + O(T) + T", "O(T)", "T^(1/0)", "3/0", "1 +",
])
def test_rejected_quirks(text):
    with pytest.raises(SeriesParseError):
        parse_series(text)
    assert_same(text)


@pytest.mark.parametrize("text, message", [
    ("T^(1/2) + T^(2/4)", "duplicate exponent 1/2"),
    ("0*T^(-2/4) + T^(-1/2)", "duplicate exponent -1/2"),
    ("T^( 1 / 0 )", "bad exponent ' 1 / 0 '"),
    ("T^(2/2) + O(T^(3/3))", "term at or beyond the stated truncation"),
])
def test_rejection_messages(text, message):
    with pytest.raises(SeriesParseError) as caught:
        parse_series(text)
    assert str(caught.value) == message
    assert_same(text)
