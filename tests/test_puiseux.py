"""Series arithmetic, ordering, truncation, and velocity cuts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanhom import (INF, ONE, ZERO, IndeterminateAtPrecision, PuiseuxSeries,
                    SeriesParseError, Velocity, compare, constant,
                    format_series, format_velocity, parse_series,
                    parse_velocity, series, t_power, valuation,
                    velocity_contains)

F = Fraction


class TestParsing:
    def test_zero(self):
        assert parse_series("0") == ZERO
        assert parse_series("0").is_zero()

    def test_plain_terms(self):
        s = parse_series("1 - 1*T^4")
        assert s.terms == ((F(0), F(1)), (F(4), F(-1)))
        assert s.precision is INF

    def test_fractional(self):
        s = parse_series("3/2*T^(1/2) + O(T^5)")
        assert s.terms == ((F(1, 2), F(3, 2)),)
        assert s.precision == F(5)

    def test_bare_t(self):
        assert parse_series("T") == t_power(1)
        assert parse_series("-T") == -t_power(1)
        assert parse_series("2*T") == series([(F(1), F(2))])

    def test_negative_exponent(self):
        assert parse_series("T^-2").valuation() == F(-2)

    def test_unknown_zero(self):
        s = parse_series("0 + O(T^3)")
        assert s.terms == ()
        assert s.precision == F(3)

    def test_whitespace_insignificant(self):
        assert parse_series(" 1-T^4 ") == parse_series("1 - T^4")

    @pytest.mark.parametrize("bad", [
        "", "1 +", "O(T^2)", "T^^2", "2*T^2 + 3*T^2", "1/0", "T^1/2",
        "1 + O(T^2) + T", "* T", "1 - - 1",
    ])
    def test_rejects(self, bad):
        with pytest.raises(SeriesParseError):
            parse_series(bad)

    def test_truncation_must_clear_terms(self):
        with pytest.raises(SeriesParseError):
            parse_series("T^3 + O(T^2)")

    def test_format_examples(self):
        assert format_series(ZERO) == "0"
        assert format_series(parse_series("1 - 1*T^4")) == "1 - T^4"
        assert format_series(parse_series("0 + O(T^3)")) == "0 + O(T^3)"
        assert format_series(t_power(F(1, 2))) == "T^(1/2)"


class TestArithmetic:
    def test_add_cancels(self):
        assert parse_series("1 - T^4") + parse_series("T^4") == ONE

    def test_mul_exact(self):
        a = parse_series("1 - T^4")
        b = parse_series("1 + T^4")
        assert a * b == parse_series("1 - T^8")

    def test_mul_monomials(self):
        assert (parse_series("2*T^(1/2)") * parse_series("3*T^(3/2)")
                == parse_series("6*T^2"))

    def test_mul_precision_shifts(self):
        assert parse_series("1 + O(T)") * t_power(2) == parse_series(
            "T^2 + O(T^3)")

    def test_add_precision_is_min(self):
        s = parse_series("1 + O(T^2)") + parse_series("T^3")
        assert s == parse_series("1 + O(T^2)")

    def test_exact_zero_absorbs(self):
        assert ZERO * parse_series("1 + O(T)") == ZERO

    def test_truncate(self):
        s = parse_series("1 + T^2 + T^5")
        assert s.truncate(F(3)) == parse_series("1 + T^2 + O(T^3)")
        assert s.truncate(INF) == s

    def test_subtract(self):
        assert parse_series("T - T^2") - parse_series("T") == -t_power(2)


class TestOrder:
    def test_t_is_infinitesimal(self):
        assert compare(t_power(1), constant(F(1, 10 ** 6))) < 0
        assert compare(t_power(1), ZERO) > 0

    def test_coefficients_dominate(self):
        assert parse_series("3*T^2") > parse_series("T^2")
        assert parse_series("1 - T^4") < ONE

    def test_lower_valuation_wins(self):
        assert parse_series("T^2") > parse_series("1000000*T^3")

    def test_indeterminate_comparison(self):
        with pytest.raises(IndeterminateAtPrecision):
            compare(parse_series("1 + O(T^2)"), ONE)

    def test_known_difference_is_fine(self):
        # the unknown tails cancel structurally before the sign is read
        assert parse_series("1 + T + O(T^2)") > parse_series("1 + O(T^2)")

    def test_abs(self):
        assert abs(parse_series("-3*T")) == parse_series("3*T")
        assert abs(ZERO) == ZERO


class TestValuation:
    def test_examples(self):
        assert valuation(parse_series("3*T^2 - T^5")) == F(2)
        assert valuation(ZERO) is INF
        assert valuation(parse_series("2*T^(1/2) + T")) == F(1, 2)

    def test_indeterminate(self):
        with pytest.raises(IndeterminateAtPrecision):
            valuation(parse_series("0 + O(T^3)"))


class TestVelocity:
    def test_parse_and_format(self):
        v = parse_velocity("T^2")
        assert v == Velocity(F(2)) and not v.strict
        w = parse_velocity(">T^(1/2)")
        assert w == Velocity(F(1, 2), strict=True)
        assert format_velocity(v) == "T^2"
        assert format_velocity(w) == ">T^(1/2)"
        assert parse_velocity(format_velocity(w)) == w

    def test_membership(self):
        v = Velocity(F(2))
        assert velocity_contains(v, parse_series("5*T^2"))
        assert velocity_contains(v, parse_series("T^3"))
        assert not velocity_contains(v, parse_series("T"))
        assert velocity_contains(v, ZERO)

    def test_strict_membership(self):
        v = Velocity(F(2), strict=True)
        assert not velocity_contains(v, parse_series("5*T^2"))
        assert velocity_contains(v, parse_series("T^(5/2)"))
        assert velocity_contains(v, ZERO)

    def test_bad_velocity(self):
        with pytest.raises(SeriesParseError):
            parse_velocity("fast")


# -- randomized laws -----------------------------------------------------

exponents = st.fractions(min_value=-4, max_value=6, max_denominator=6)
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)
exact_series = st.lists(st.tuples(exponents, coefficients),
                        max_size=4).map(series)
any_series = st.one_of(
    exact_series,
    st.tuples(st.lists(st.tuples(exponents, coefficients), max_size=4),
              st.fractions(min_value=-2, max_value=8, max_denominator=6))
    .map(lambda tp: series(tp[0], precision=tp[1])))


@settings(deadline=None)
@given(exact_series, exact_series, exact_series)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@settings(deadline=None)
@given(exact_series, exact_series)
def test_order_is_total_and_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == 0) == (a == b)


@settings(deadline=None)
@given(exact_series, exact_series, exact_series)
def test_order_respects_operations(a, b, c):
    if a < b:
        assert a + c < b + c
        if c.sign() > 0:
            assert a * c < b * c
        elif c.sign() < 0:
            assert a * c > b * c


@settings(deadline=None)
@given(exact_series, exact_series)
def test_valuation_laws(a, b):
    va, vb = valuation(a), valuation(b)
    assert valuation(a * b) == va + vb
    s = a + b
    lower = min(va, vb)
    assert valuation(s) is INF or not valuation(s) < lower


@settings(deadline=None)
@given(any_series)
def test_parse_format_roundtrip(a):
    assert parse_series(format_series(a)) == a


truncation_points = st.one_of(
    st.just(INF), st.integers(min_value=-6, max_value=9),
    st.fractions(min_value=-6, max_value=9, max_denominator=6))


@settings(deadline=None)
@given(any_series, st.data())
def test_truncate_matches_canonicalizing_route(a, data):
    exps = [e for e, _ in a.terms]
    # at a term, halfway between two terms, or anywhere in a wider range
    on_terms = exps + [(x + y) / 2 for x, y in zip(exps, exps[1:])]
    points = (st.one_of(st.sampled_from(on_terms), truncation_points)
              if on_terms else truncation_points)
    p = data.draw(points)
    cut = a.truncate(p)
    assert cut == series(a.terms, precision=min(a.precision, p))
    # truncate builds its series unchecked: the checking constructor must
    # accept the same terms and precision
    assert cut == PuiseuxSeries(cut.terms, cut.precision)
