"""Collapse rates, thin cells, and the thinness filtration.

A rate annotation assigns each positive-dimensional cell the exponent of
its shrink speed: a cell of rate s has diameter on the order of T^s.  A
cell is thin for a velocity when its rate lies inside the velocity's cut;
vertices are zero-dimensional and never thin.

Rates can be given directly or derived from coordinates: for a simplex
embedded over the Puiseux field, the edge-difference matrix has a chain of
minor valuations delta_1, delta_2, ... and the successive differences
nu_i = delta_i - delta_(i-1) measure shrinking per dimension.  The last
difference, the rate of the thinnest direction, is the simplex rate.  The
minors are expanded exactly; cancellation between terms is detected, never
estimated from leading exponents.

The expansion runs over the integers.  Let D be a common denominator of
every exponent and finite precision in play: substituting T = S^D turns
them into integers and multiplies every valuation and truncation bound by
D, which is divided out of the answer.  Let L be a common denominator of
the coefficients: multiplying every row by L multiplies a size-i minor by
the nonzero constant L^i, so no valuation and no zero test changes.  The
truncation rules are those of PuiseuxSeries arithmetic, unchanged: a sum
is known below the least precision of its parts, a product below
min(prec_b + low_a, prec_a + low_b), and terms at or past the precision
are dropped.  A document's vertices are converted once, with one D and
one L.

Minors are memoised per document, keyed by base vertex.  One call of
simplex_rates keeps, for each first vertex v0, the difference rows
(v0, v) and, per row set (a tuple of row vertices), the least leading
exponent and the least precision of a minor with no known term over its
minors (v0, row vertices, columns).  A simplex (v0, v1, ..., vk) so
works out only its own row set, and at each smaller size reads the
aggregates of its faces' row sets through v0.  A minor is
Laplace-expanded along its first row from the minors of the remaining
rows, the row set's tail.  Which row sets are read as a tail is known
before rating starts: the rating of a simplex reads every subset Q of
its rows up to the ambient dimension, and a Q of three or more rows
reads Q[1:].  Those row sets keep their minors, each expanded in full
once.  Every other row set needs only its minors' leading terms: each
is read off the lowest product of each Laplace term, and expanded in
full only when those products cancel below its precision.  A row set of
two rows reads its minors a_i*b_j - a_j*b_i off the two rows
themselves.  Each integer series carries its least exponent (its
precision when it has no term), found once when it is made.  The table
lives for the call.

The thinness filtration at velocity v puts into level j every cell of
dimension below j together with the thin cells of dimension exactly j.
Degree-j vanishing homology is the image of the homology of level j in
that of level j+1.  No level is built as a cell set: the engine grades
each dimension's cells by rate and reads every cut off one reduction per
boundary matrix (see vanishing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from .cells import CellComplex, InvalidComplex, SimplicialBuilder
from .puiseux import (INF, ExtRational, IndeterminateAtPrecision, PuiseuxSeries,
                      Velocity, _Infinity)

RateAnnotation = Mapping[int, ExtRational]


class MissingRate(KeyError):
    """A positive-dimensional cell has no rate annotation."""


class DegenerateSimplex(ValueError):
    """Simplex vertices span less than the simplex dimension."""


def rate_of(c: CellComplex, a: RateAnnotation, cid: int) -> ExtRational:
    cell = c.cell(cid)
    if cell.dim == 0:
        raise ValueError(f"vertex {cid} carries no rate")
    try:
        return a[cid]
    except KeyError:
        raise MissingRate(f"cell {cid} (dim {cell.dim}) has no rate") from None


def is_thin(c: CellComplex, a: RateAnnotation, cid: int, v: Velocity) -> bool:
    """Whether the cell collapses at least as fast as the velocity cut.

    Vertices are never thin, whatever the velocity.
    """
    if c.cell(cid).dim == 0:
        return False
    return v.contains_rate(rate_of(c, a, cid))


def critical_rates(c: CellComplex, a: RateAnnotation) -> List[Fraction]:
    """Distinct finite rates present in the complex, ascending."""
    rates = {rate_of(c, a, cell.id)
             for cell in c.cells() if cell.dim >= 1}
    return sorted(r for r in rates if r is not INF)


# -- rates from coordinates ----------------------------------------------


@dataclass
class GeometricComplex:
    """A simplicial complex with Puiseux-series vertex coordinates.

    vertices maps vertex id to a coordinate tuple (all of length
    ambient_dim); simplices are vertex-id tuples of dimension >= 1, closed
    under faces, orientation given by tuple order.  check tests coordinate
    counts, dimensions and vertex references; SimplicialBuilder checks the
    simplicial structure as annotate_geometric assembles the complex.
    """

    ambient_dim: int
    vertices: Dict[int, Tuple[PuiseuxSeries, ...]]
    simplices: List[Tuple[int, ...]]

    def check(self):
        for vid, point in self.vertices.items():
            if len(point) != self.ambient_dim:
                raise InvalidComplex(
                    f"vertex {vid}: expected {self.ambient_dim} coordinates")
        for simplex in self.simplices:
            simplex = tuple(simplex)
            if len(simplex) < 2:
                raise InvalidComplex(f"{simplex}: need dimension >= 1")
            for vid in simplex:
                if vid not in self.vertices:
                    raise InvalidComplex(f"unknown vertex {vid} in {simplex}")


# An integer series is ({exponent: coefficient}, precision, low): a
# PuiseuxSeries with its exponents and precision multiplied by a common
# denominator D and its coefficients by a common multiple L, and its least
# exponent, or its precision when it has no term, found once when the
# series is made.  An infinite precision stays INF, as in PuiseuxSeries.
_IntPrecision = Union[int, _Infinity]
_IntSeries = Tuple[Dict[int, int], _IntPrecision, _IntPrecision]
# the Laplace products (a_k, b_k) of one minor, whose value is the sum of
# (-1)^k a_k b_k
_Products = Sequence[Tuple[_IntSeries, _IntSeries]]


def _scales(entries: Iterable[PuiseuxSeries]) -> Tuple[int, int]:
    """(D, L): the lcm of all exponent and finite precision denominators,
    and the lcm of all coefficient denominators."""
    d = scale = 1
    for s in entries:
        for exp, coeff in s.terms:
            d = lcm(d, exp.denominator)
            scale = lcm(scale, coeff.denominator)
        if s.precision is not INF:
            d = lcm(d, s.precision.denominator)
    return d, scale


def _integer_series(s: PuiseuxSeries, d: int, scale: int) -> _IntSeries:
    terms = {e.numerator * (d // e.denominator):
             c.numerator * (scale // c.denominator) for e, c in s.terms}
    p = s.precision
    p = p if p is INF else p.numerator * (d // p.denominator)
    # the terms of a PuiseuxSeries ascend
    return terms, p, next(iter(terms)) if terms else p


def _canonical(acc: Dict[int, int], prec: _IntPrecision) -> _IntSeries:
    if prec is INF:  # spares a comparison with INF (a Python call) per term
        terms = {e: c for e, c in acc.items() if c}
    else:
        terms = {e: c for e, c in acc.items() if c and e < prec}
    return terms, prec, min(terms) if terms else prec


def _difference(a: _IntSeries, b: _IntSeries) -> _IntSeries:
    (ta, pa, _), (tb, pb, _) = a, b
    if not tb and pb is INF:  # b is exact zero; series are never mutated
        return a
    if a is b:  # one shared coordinate: every term cancels
        return {}, pa, pa
    acc = dict(ta)
    for e, c in tb.items():
        acc[e] = acc.get(e, 0) - c
    # min(pa, pb) compares with INF through a Python call
    return _canonical(acc, pb if pa is INF else pa if pb is INF
                      else min(pa, pb))


def _expand(products: _Products) -> _IntSeries:
    """One minor in full, from its Laplace products along its first row.

    a_k is the entry of the first row in the k-th column and b_k the
    minor of the remaining rows without that column (for two rows, the
    second row's entry in the other column).  Terms at or past the
    precision are dropped once, at the end: the sum's precision is at most
    that of every product, so this drops what dropping after each step
    would.
    """
    acc: Dict[int, int] = {}
    prec: _IntPrecision = INF
    sign = 1
    for (ta, pa, low_a), (tb, pb, low_b) in products:
        if pa is not INF or pb is not INF:  # else the product is exact
            prec = min(prec, pb + low_a, pa + low_b)
        for ea, ca in ta.items():
            ca *= sign
            for eb, cb in tb.items():
                e = ea + eb
                acc[e] = acc.get(e, 0) + ca * cb
        sign = -sign
    return _canonical(acc, prec)


def _leading_term(products: _Products) -> _IntSeries:
    """One minor's leading term alone, or the minor in full.

    Takes what _expand takes.  A product of two series has exactly one
    term at the sum of their least exponents, so the least exponent of a
    minor's Laplace products is the sum of the lowest terms' exponents in
    the products that reach it, with the sum of their coefficients.
    Unless that coefficient cancels below the precision, it settles the
    minor's leading term, or that the minor has no known term, without
    expanding the rest; a cancellation falls back to _expand.
    """
    lead = None
    coeff = 0
    prec: _IntPrecision = INF
    sign = 1
    for (ta, pa, low_a), (tb, pb, low_b) in products:
        if pa is not INF or pb is not INF:
            prec = min(prec, pb + low_a, pa + low_b)
        if ta and tb:
            e = low_a + low_b
            if lead is None or e < lead:
                lead, coeff = e, 0
            if e == lead:
                coeff += sign * ta[low_a] * tb[low_b]
        sign = -sign
    if lead is None or (prec is not INF and lead >= prec):
        return {}, prec, prec
    if coeff:
        return {lead: coeff}, prec, lead
    return _expand(products)


def _laplace_terms(ncols: int, size: int) -> List[tuple]:
    """Every column tuple of one minor size, with the Laplace terms of its
    minor along the first row: (the column of a_k, the key of b_k among
    the minors of the remaining rows).  Those minors are keyed by column
    tuple, and for two rows they are the second row itself, keyed by
    column."""
    return [(cols, tuple((col, cols[1 - k] if size == 2
                          else cols[:k] + cols[k + 1:])
                         for k, col in enumerate(cols)))
            for cols in itertools.combinations(range(ncols), size)]


class _MinorTable:
    """The minors of the row sets drawn from one family of rows.

    rows maps a row key (a vertex, for one base vertex) to its integer
    series, ncols entries each; reads lists the row sets valuations will
    be asked for (one of fewer than three rows may be left out: it reads
    no tail).  A row set, a tuple of keys, gets over all its minors the
    least leading exponent and the least precision of a minor with no
    known term, once and on first use.  Only a row set that valuations
    reads as the tail of another, Q[1:] for some Q of three or more of
    the rows of one read, also keeps its minors {columns: series}, each
    expanded in full from those of its own tail (_expand).  Every other
    row set reads each minor off its leading term (_leading_term).  A
    row set of two rows reads its minors off the two rows themselves, and
    one of one row is the row.  Filling the table never raises: only
    valuations judges what it holds.
    """

    def __init__(self, rows: Dict[object, Sequence[_IntSeries]], ncols: int,
                 reads: Iterable[tuple], plans: Dict[int, List[tuple]]):
        self.rows = rows
        self.ncols = ncols
        # size -> _laplace_terms(ncols, size), filled on first use; tables
        # with one ncols may share it
        self.plans = plans
        # valuations reads every subset Q of a read's rows, and a Q of
        # three or more rows reads the minors of Q[1:]
        self.expanded = {subset[1:] for keys in reads
                         for size in range(3, min(len(keys), ncols) + 1)
                         for subset in itertools.combinations(keys, size)}
        # row set -> (its minors if kept, least leading exponent, least
        # precision of a minor with no known term)
        self._sets: Dict[tuple, Tuple[Optional[Union[Sequence, Dict]],
                                      _IntPrecision, _IntPrecision]] = {}

    def _row_set(self, keys: tuple):
        entry = self._sets.get(keys)
        if entry is None:
            top = self.rows[keys[0]]
            if len(keys) == 1:
                found = minors = top
            else:
                below = self._row_set(keys[1:])[0]
                plan = self.plans.get(len(keys))
                if plan is None:
                    plan = self.plans[len(keys)] = _laplace_terms(
                        self.ncols, len(keys))
                kept = keys in self.expanded
                # the aggregates of a minor need only its leading term
                expand = _expand if kept else _leading_term
                found = [expand([(top[col], below[rest])
                                 for col, rest in terms])
                         for _, terms in plan]
                minors = (dict(zip([cols for cols, _ in plan], found))
                          if kept else None)
            best = floor = INF
            for terms, _, low in found:
                if terms:
                    if best is INF or low < best:
                        best = low
                elif low is not INF and (floor is INF or low < floor):
                    floor = low
            entry = self._sets[keys] = (minors, best, floor)
        return entry

    def valuations(self, keys: tuple) -> List[_IntPrecision]:
        """nu_1..nu_r of the matrix with these rows (see the module
        docstring), in the integer exponents; r = min(rows, columns)."""
        r = min(len(keys), self.ncols)
        out: List[_IntPrecision] = []
        prev = 0
        known = self._sets.get
        for size in range(1, r + 1):
            best = pending = INF
            for subset in itertools.combinations(keys, size):
                _, low, floor = known(subset) or self._row_set(subset)
                if low is not INF and (best is INF or low < best):
                    best = low
                if floor is not INF and (pending is INF or floor < pending):
                    pending = floor
            # a minor with no known term may hide its leading term
            # anywhere from its precision on
            if pending is not INF and best >= pending:
                raise IndeterminateAtPrecision(
                    f"a size-{size} minor is undetermined below its "
                    f"truncation and could dominate")
            if best is INF:
                out.extend([INF] * (r - size + 1))
                return out
            out.append(best - prev)
            prev = best
        return out


def simplex_rates(g: GeometricComplex,
                  simplices: Iterable[Sequence[int]]) -> List[Fraction]:
    """Collapse rates of embedded simplices: the last nu of each edge matrix.

    Rows are the coordinate differences to the first vertex.  The vertices
    the simplices use are converted to integer series once, with one D and
    one L for all of them (a series shared by several coordinates once),
    and the rows are formed in integers.  Each row
    (base, vertex) is formed once per call and each minor (base, row
    vertices, columns) worked out at most once, in a table keyed by base
    vertex (see the module docstring).  Equal rates share one Fraction.  Simplices are
    rated in the order given and the first failure is raised:
    IndeterminateAtPrecision, or DegenerateSimplex for affinely dependent
    vertices.
    """
    simplices = [tuple(s) for s in simplices]
    used = sorted({vid for s in simplices for vid in s})
    # a loaded document shares one series per distinct coordinate text:
    # convert each shared series once
    distinct = {id(x): x for vid in used for x in g.vertices[vid]}
    d, scale = _scales(distinct.values())
    converted = {key: _integer_series(x, d, scale)
                 for key, x in distinct.items()}
    points = {vid: [converted[id(x)] for x in g.vertices[vid]]
              for vid in used}
    n = g.ambient_dim
    plans: Dict[int, List[tuple]] = {}
    tables: Dict[int, _MinorTable] = {}
    # a table goes once its base vertex has rated its last simplex
    last = {simplex[0]: i for i, simplex in enumerate(simplices)}
    # only a row set of three or more rows reads another as its tail
    reads: Dict[int, List[tuple]] = {}
    for simplex in simplices:
        if len(simplex) > 3:
            reads.setdefault(simplex[0], []).append(simplex[1:])
    rates = []
    shared: Dict[int, Fraction] = {}  # integer rate -> rate
    for i, simplex in enumerate(simplices):
        table = tables.get(simplex[0])
        if table is None:
            table = tables[simplex[0]] = _MinorTable(
                {}, n, reads.get(simplex[0], ()), plans)
        base, rows = points[simplex[0]], table.rows
        for vid in simplex[1:]:
            if vid not in rows:
                rows[vid] = [_difference(points[vid][k], base[k])
                             for k in range(n)]
        if len(simplex) - 1 > n:
            raise DegenerateSimplex(
                f"{simplex}: dimension exceeds the ambient space")
        rate = table.valuations(simplex[1:])[-1]
        if rate is INF:
            raise DegenerateSimplex(
                f"{simplex}: vertices are affinely dependent")
        if rate not in shared:
            shared[rate] = Fraction(rate, d)
        rates.append(shared[rate])
        if last[simplex[0]] == i:
            del tables[simplex[0]]
    return rates


def simplex_rate(g: GeometricComplex, simplex: Sequence[int]) -> Fraction:
    """Collapse rate of one embedded simplex; see simplex_rates."""
    return simplex_rates(g, [simplex])[0]


def annotate_geometric(
        g: GeometricComplex) -> Tuple[CellComplex, Dict[int, ExtRational]]:
    """Build the cell complex of an embedded one and derive all rates.

    Vertices keep their ids; higher simplices get fresh ids in order of
    (dimension, sorted vertex tuple).  Boundary signs respect the given
    tuple orientations.  The complex is assembled first, so a simplicial
    fault is InvalidComplex before any rate is derived.
    """
    g.check()
    b = SimplicialBuilder()
    for vid in sorted(g.vertices):
        b.add_vertex(vid)
    ordered = sorted((tuple(s) for s in g.simplices),
                     key=lambda s: (len(s), tuple(sorted(s))))
    ids = [b.add_simplex(simplex) for simplex in ordered]
    return b.complex(), dict(zip(ids, simplex_rates(g, ordered)))
