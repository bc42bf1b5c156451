"""Exact arithmetic for truncated Puiseux series and velocity cuts.

The scalar domain for the whole library is the ordered field generated over
the rationals by a positive infinitesimal T.  An element is a finite sum

    c_1*T^e_1 + ... + c_k*T^e_k        (c_i rational, e_1 < e_2 < ... rational)

optionally truncated at a known precision, written ``+ O(T^p)``: all terms
with exponent below p are known exactly, nothing is known from p on.  The
order makes T positive and below every positive rational, so a quantity of
valuation q shrinks like T^q.

A velocity is a rational cut on valuations.  ``Velocity(q, strict=False)``
keeps everything of valuation >= q (the elements x with |x| <= N*T^q for
some natural number N); the strict variant keeps valuation > q.  Velocities
decide which collapse rates count as thin downstream.

Arithmetic is conservative about truncation: results carry the largest
precision that is actually justified, and any comparison or valuation whose
answer is not determined at the available precision raises
IndeterminateAtPrecision instead of guessing.

Parsing keys each term by its exponent as an integer pair in lowest
terms and builds one Fraction per exponent and coefficient, at the end:
a document's coordinates are parsed on every load.  The parser, like
truncate, establishes every invariant of a canonical series itself, so
it builds its result without the re-checks of the PuiseuxSeries
constructor, which keeps them for every other caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Tuple, Union


class IndeterminateAtPrecision(ArithmeticError):
    """The requested answer is not determined by the known terms."""


class SeriesParseError(ValueError):
    """Malformed series or velocity text."""


class _Infinity:
    """Positive infinity for valuations and precisions (a singleton).

    Compares above every Fraction and absorbs addition.  Only one instance,
    ``INF``, should ever exist.
    """

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("vanhom-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        # INF - finite and INF - INF both propagate to INF.
        return self

    def __neg__(self):
        raise ArithmeticError("negative infinity is not representable")


INF = _Infinity()

ExtRational = Union[Fraction, _Infinity]

# a term is (exponent, coefficient), both exact rationals
Term = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PuiseuxSeries:
    """A truncated Puiseux series in canonical form.

    terms: (exponent, coefficient) pairs, exponents strictly increasing,
    coefficients nonzero, every exponent below ``precision``.  The
    constructor only checks; build one from raw pairs with :func:`series`.
    """

    terms: Tuple[Term, ...] = ()
    precision: ExtRational = INF

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient in canonical series")
            if prev is not None and exp <= prev:
                raise ValueError("exponents must be strictly increasing")
            if not exp < self.precision:
                raise ValueError("term at or beyond the stated precision")
            prev = exp

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        """Exactly zero (no terms, infinite precision)."""
        return not self.terms and self.precision is INF

    def valuation(self) -> ExtRational:
        """Exponent of the leading term; INF for exact zero.

        Raises IndeterminateAtPrecision when no term is known and the
        precision is finite: the element could be zero or could have a
        leading term hiding beyond the truncation.
        """
        if self.terms:
            return self.terms[0][0]
        if self.precision is INF:
            return INF
        raise IndeterminateAtPrecision(
            f"valuation unknown below O(T^{self.precision})")

    def _val_lower_bound(self) -> ExtRational:
        # every term of the series has exponent >= this bound
        if self.terms:
            return self.terms[0][0]
        return self.precision

    def sign(self) -> int:
        """Sign of the element in the ordered field (-1, 0, +1)."""
        if self.terms:
            return 1 if self.terms[0][1] > 0 else -1
        if self.precision is INF:
            return 0
        raise IndeterminateAtPrecision(
            f"sign unknown below O(T^{self.precision})")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        prec = min(self.precision, other.precision)
        merged: dict[Fraction, Fraction] = {}
        for exp, coeff in self.terms + other.terms:
            merged[exp] = merged.get(exp, Fraction(0)) + coeff
        return series(merged.items(), precision=prec)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(tuple((e, -c) for e, c in self.terms),
                             self.precision)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        # The product of a term of a with the unknown tail of b lives at
        # exponent >= val(a) + prec(b), and symmetrically; everything from
        # the smaller of the two bounds on is unknown.
        prec = min(other.precision + self._val_lower_bound(),
                   self.precision + other._val_lower_bound())
        acc: dict[Fraction, Fraction] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = ea + eb
                acc[e] = acc.get(e, Fraction(0)) + ca * cb
        return series(acc.items(), precision=prec)

    def truncate(self, precision: ExtRational) -> "PuiseuxSeries":
        """Forget everything from T^precision on."""
        prec = min(self.precision, precision)
        if prec is self.precision:  # every term is already below it
            return _trusted(self.terms, prec)
        return _trusted(tuple(t for t in self.terms if t[0] < prec), prec)

    # -- order -----------------------------------------------------------

    def compare(self, other: "PuiseuxSeries") -> int:
        """-1, 0 or +1; raises if the difference has unknown sign."""
        return (self - other).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __abs__(self) -> "PuiseuxSeries":
        return -self if self.sign() < 0 else self

    def __str__(self):
        return format_series(self)


_new = object.__new__
_set = object.__setattr__  # as a frozen dataclass's __init__ sets fields


def _trusted(terms: Tuple[Term, ...],
             precision: ExtRational) -> PuiseuxSeries:
    """A series from terms already in canonical form below the precision.

    Skips the checks of the constructor: for callers that have established
    every invariant of their output themselves.
    """
    s = _new(PuiseuxSeries)
    _set(s, "terms", terms)
    _set(s, "precision", precision)
    return s


def series(pairs: Iterable[Tuple[Fraction, Fraction]],
           precision: ExtRational = INF) -> PuiseuxSeries:
    """Canonicalize raw (exponent, coefficient) pairs into a series.

    Merges duplicate exponents, drops zero coefficients and terms at or
    beyond the precision, sorts ascending.
    """
    acc: dict[Fraction, Fraction] = {}
    for exp, coeff in pairs:
        exp = Fraction(exp)
        acc[exp] = acc.get(exp, Fraction(0)) + Fraction(coeff)
    kept = tuple(sorted((e, c) for e, c in acc.items()
                        if c != 0 and e < precision))
    return PuiseuxSeries(kept, precision)


ZERO = series(())
ONE = series([(Fraction(0), Fraction(1))])


def constant(value) -> PuiseuxSeries:
    """Embed a rational number."""
    return series([(Fraction(0), Fraction(value))])


def t_power(exponent) -> PuiseuxSeries:
    """The monomial T^exponent."""
    return series([(Fraction(exponent), Fraction(1))])


def valuation(a: PuiseuxSeries) -> ExtRational:
    return a.valuation()


def compare(a: PuiseuxSeries, b: PuiseuxSeries) -> int:
    return a.compare(b)


# -- velocities ----------------------------------------------------------


@dataclass(frozen=True)
class Velocity:
    """A rational cut on valuations: the shrink rates that count as thin.

    Non-strict keeps valuation >= threshold (things of size about T^q or
    smaller); strict keeps valuation > threshold.  Infinite valuation (the
    rate of an exactly zero quantity) is always inside.
    """

    threshold: Fraction
    strict: bool = False

    def contains_rate(self, rate: ExtRational) -> bool:
        if rate is INF:
            return True
        if self.strict:
            return rate > self.threshold
        return rate >= self.threshold

    def contains(self, x: PuiseuxSeries) -> bool:
        return self.contains_rate(x.valuation())

    def __str__(self):
        return format_velocity(self)


def velocity_contains(v: Velocity, x: PuiseuxSeries) -> bool:
    """Whether x shrinks at least as fast as the velocity demands."""
    return v.contains(x)


# -- text formats --------------------------------------------------------

_INT = r"-?\d+"
_EXP = rf"(?:{_INT}|\(\s*{_INT}\s*/\s*\d+\s*\))"

# One term, led by the sign that joins it to the term before: "+", "-" or
# "+ -", and none or "-" before the first term.  Then coeff [* T-part] or a
# bare T-part.
_TERM = re.compile(
    rf"\s*(?P<sign>\+\s*-|[+-])?\s*"
    rf"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?"
    rf"(?P<times>\s*\*\s*T(?:\s*\^\s*(?P<cexp>{_EXP}))?)?"
    rf"|T(?:\s*\^\s*(?P<texp>{_EXP}))?)")

# What may follow the last term: whitespace, or "+ O(T^p)" and whitespace.
_TAIL = re.compile(
    rf"\s*(?:\+\s*(?P<o>O)\(\s*T\s*(?:\^\s*(?P<prec>{_EXP}))?\s*\)\s*)?")


def _exponent_key(text: str) -> Tuple[int, int]:
    """An exponent text as (numerator, denominator) in lowest terms."""
    text = text.strip()
    if text.startswith("("):
        text = text[1:-1]
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # past the int-to-str digit limit
        raise SeriesParseError(f"bad exponent {text!r}") from exc
    if den == 0:
        raise SeriesParseError(f"bad exponent {text!r}")
    g = gcd(num, den)
    return num // g, den // g


def _parse_exponent(text: str) -> Fraction:
    return Fraction(*_exponent_key(text))


def parse_series(text: str) -> PuiseuxSeries:
    """Parse the canonical series syntax.

    ``series  ::= ["-"] term (("+" | "-" | "+" "-") term)* ["+" trunc]``
    ``term    ::= coeff | coeff "*" T-part | T-part``
    ``T-part  ::= "T" | "T^" exp``, ``trunc ::= "O(T)" | "O(T^" exp ")"``

    A coefficient is a natural number or a fraction ``n/d`` with d > 0; an
    exponent is an integer, possibly negative, or a parenthesized fraction
    ``(n/d)`` with d > 0 and a possibly negative numerator.  ``T`` means ``T^1`` and ``O(T)``
    means ``O(T^1)``.  Whitespace between the pieces is ignored, and any
    Unicode decimal digit reads as ``int`` reads it.  A bare ``0``
    denotes exact zero; ``0 + O(T^p)`` an element only known to vanish to
    order p.  Duplicate exponents are rejected, even with a zero
    coefficient, and so is a nonzero term at or beyond the truncation.

    Terms are keyed by their exponent as an integer pair in lowest terms,
    and each exponent and coefficient becomes a Fraction once, at the end.
    """
    # (exponent numerator, denominator) -> (coefficient numerator, denominator)
    terms: Dict[Tuple[int, int], Tuple[int, int]] = {}
    pos = 0
    while (m := _TERM.match(text, pos)) is not None:
        sign, num, den, times, cexp, texp = m.groups()
        if terms and not sign:
            raise SeriesParseError(
                f"expected '+' or '-' before {m.group().strip()!r}")
        if sign is None:
            sign = ""
        elif not terms and sign.startswith("+"):
            raise SeriesParseError(f"leading '+' in {m.group().strip()!r}")
        if num is None:
            coeff, exp = (1, 1), (1, 1)
        else:
            den = int(den or 1)
            if den == 0:
                raise SeriesParseError(
                    f"zero denominator in {m.group().strip()!r}")
            coeff, exp = (int(num), den), (0, 1) if times is None else (1, 1)
        if sign.endswith("-"):
            coeff = (-coeff[0], coeff[1])
        exp_text = cexp or texp
        if exp_text is not None:
            exp = _exponent_key(exp_text)
        if exp in terms:
            raise SeriesParseError(f"duplicate exponent {Fraction(*exp)}")
        terms[exp] = coeff
        pos = m.end()
    tail = _TAIL.fullmatch(text, pos)
    if not terms or tail is None:
        rest = text[pos:].strip()
        raise SeriesParseError(
            f"unexpected input at {rest!r}" if rest else "empty series")
    # "0" and "0 + O(T^p)" come through as a single zero-coefficient term
    kept = [(e, c) for e, c in terms.items() if c[0]]
    precision: ExtRational = INF
    if tail.group("o") is not None:
        pn, pd = _exponent_key(tail.group("prec") or "1")
        precision = Fraction(pn, pd)
        if any(n * pd >= pn * d for (n, d), _ in kept):  # n/d >= pn/pd
            raise SeriesParseError("term at or beyond the stated truncation")
    # over one common denominator the exponents order as integers
    scale = lcm(*(d for _, d in terms))
    kept.sort(key=lambda term: term[0][0] * (scale // term[0][1]))
    # canonical by construction: nonzero, distinct, ordered, below the
    # truncation
    return _trusted(tuple((Fraction(*e), Fraction(*c)) for e, c in kept),
                    precision)


def _format_exponent(exp: Fraction) -> str:
    if exp.denominator == 1:
        return str(exp.numerator)
    return f"({exp.numerator}/{exp.denominator})"


def _format_term(exp: Fraction, coeff: Fraction) -> str:
    if exp == 0:
        return str(coeff)
    if coeff == 1:
        head = ""
    elif coeff == -1:
        head = "-"
    else:
        head = f"{coeff}*"
    tpart = "T" if exp == 1 else f"T^{_format_exponent(exp)}"
    return head + tpart


def format_series(a: PuiseuxSeries) -> str:
    """Render in the canonical syntax; parse(format(a)) == a."""
    if not a.terms and a.precision is INF:
        return "0"
    pieces = []
    for idx, (exp, coeff) in enumerate(a.terms):
        text = _format_term(exp, coeff)
        if idx == 0:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append(f"- {text[1:]}")
        else:
            pieces.append(f"+ {text}")
    if not pieces:
        pieces.append("0")
    if a.precision is not INF:
        pieces.append(f"+ O(T^{_format_exponent(a.precision)})")
    return " ".join(pieces)


_VELOCITY = re.compile(
    rf"\s*(?P<strict>>)?\s*T\s*\^\s*(?P<exp>{_EXP}|\d+\s*/\s*\d+)\s*$")


def parse_velocity(text: str) -> Velocity:
    """Parse ``T^q`` (valuation >= q) or ``>T^q`` (valuation > q)."""
    m = _VELOCITY.match(text)
    if not m:
        raise SeriesParseError(f"bad velocity {text!r}")
    return Velocity(_parse_exponent(m.group("exp")),
                    strict=m.group("strict") is not None)


def format_velocity(v: Velocity) -> str:
    head = ">" if v.strict else ""
    return f"{head}T^{_format_exponent(v.threshold)}"
