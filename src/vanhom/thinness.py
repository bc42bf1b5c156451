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
(v0, v) and the minors (v0, row vertices, columns), each Laplace-expanded
once along its first row from the minors of the remaining rows; next to
them, per row set, the least leading exponent and the least precision of
a minor with no known term.  A simplex (v0, v1, ..., vk) so expands only
its own size-k minors, and at each smaller size reads those aggregates
off the row sets of its faces through v0.  The table lives for the call.
A minor of the call's largest size is never kept, and its aggregates
need only its leading term: it is read off the lowest product of each
Laplace term, and the minor is expanded in full only when those
products cancel below its precision.

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


# An integer series is ({exponent: coefficient}, precision): a
# PuiseuxSeries with its exponents and precision multiplied by a common
# denominator D and its coefficients by a common multiple L.  An infinite
# precision stays INF, as in PuiseuxSeries.
_IntPrecision = Union[int, _Infinity]
_IntSeries = Tuple[Dict[int, int], _IntPrecision]


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
    return terms, p if p is INF else p.numerator * (d // p.denominator)


def _canonical(acc: Dict[int, int], prec: _IntPrecision) -> _IntSeries:
    if prec is INF:  # spares a comparison with INF (a Python call) per term
        return {e: c for e, c in acc.items() if c}, prec
    return {e: c for e, c in acc.items() if c and e < prec}, prec


def _difference(a: _IntSeries, b: _IntSeries) -> _IntSeries:
    (ta, pa), (tb, pb) = a, b
    if not tb and pb is INF:  # b is exact zero; series are never mutated
        return a
    if a is b:  # one shared coordinate: every term cancels
        return {}, pa
    acc = dict(ta)
    for e, c in tb.items():
        acc[e] = acc.get(e, 0) - c
    return _canonical(acc, min(pa, pb))


def _expand(top: Sequence[_IntSeries], cols: Tuple[int, ...],
            below: Dict[Tuple[int, ...], _IntSeries]) -> _IntSeries:
    """One minor by Laplace expansion along its first row.

    top is that row of the matrix; below holds the minors of the remaining
    rows one size smaller, by columns.  low is a leading exponent, or the
    precision of a series without terms.  Terms at or past the precision
    are dropped once, at the end: the sum's precision is at most that of
    every product, so this drops what dropping after each step would.
    """
    acc: Dict[int, int] = {}
    prec: _IntPrecision = INF
    for k, col in enumerate(cols):
        ta, pa = top[col]
        tb, pb = below[cols[:k] + cols[k + 1:]]
        if pa is not INF or pb is not INF:  # else the product is exact
            low_a = min(ta) if ta else pa
            low_b = min(tb) if tb else pb
            prec = min(prec, pb + low_a, pa + low_b)
        sign = -1 if k % 2 else 1
        for ea, ca in ta.items():
            ca *= sign
            for eb, cb in tb.items():
                e = ea + eb
                acc[e] = acc.get(e, 0) + ca * cb
    return _canonical(acc, prec)


def _leading_term(top: Sequence[_IntSeries], cols: Tuple[int, ...],
                  below: Dict[Tuple[int, ...], _IntSeries]) -> _IntSeries:
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
    for k, col in enumerate(cols):
        ta, pa = top[col]
        tb, pb = below[cols[:k] + cols[k + 1:]]
        low_a = min(ta) if ta else pa
        low_b = min(tb) if tb else pb
        if pa is not INF or pb is not INF:
            prec = min(prec, pb + low_a, pa + low_b)
        if ta and tb:
            e = low_a + low_b
            if lead is None or e < lead:
                lead, coeff = e, 0
            if e == lead:
                c = ta[low_a] * tb[low_b]
                coeff += -c if k % 2 else c
    if lead is None or (prec is not INF and lead >= prec):
        return {}, prec
    if coeff:
        return {lead: coeff}, prec
    return _expand(top, cols, below)


class _MinorTable:
    """The minors of the row sets drawn from one family of rows.

    rows maps a row key (a vertex, for one base vertex) to its integer
    series, ncols entries each.  A row set, a tuple of keys, gets its
    minors {columns: series}, expanded from those of its tail, and over
    all of them the least leading exponent and the least precision of a
    minor with no known term, once and on first use.  A row set of size
    largest is no tail, so only its aggregates are kept, and each of its
    minors is read off its leading term (_leading_term).  Filling the
    table never raises: only valuations judges what it holds.
    """

    def __init__(self, rows: Dict[object, Sequence[_IntSeries]], ncols: int,
                 largest: int):
        self.rows = rows
        self.ncols = ncols
        self.largest = largest
        self._sets: Dict[tuple, Tuple[Optional[dict], _IntPrecision,
                                      _IntPrecision]] = {}

    def _row_set(self, keys: tuple):
        entry = self._sets.get(keys)
        if entry is None:
            top = self.rows[keys[0]]
            if len(keys) == 1:
                minors = {(j,): top[j] for j in range(self.ncols)}
            else:
                below = self._row_set(keys[1:])[0]
                # the aggregates of a minor need only its leading term
                expand = (_expand if len(keys) < self.largest
                          else _leading_term)
                minors = {cols: expand(top, cols, below)
                          for cols in itertools.combinations(
                              range(self.ncols), len(keys))}
            lows = [min(terms) for terms, _ in minors.values() if terms]
            floors = [prec for terms, prec in minors.values()
                      if not terms and prec is not INF]
            entry = self._sets[keys] = (
                minors if len(keys) < self.largest else None,
                min(lows, default=INF), min(floors, default=INF))
        return entry

    def valuations(self, keys: tuple) -> List[_IntPrecision]:
        """nu_1..nu_r of the matrix with these rows (see the module
        docstring), in the integer exponents; r = min(rows, columns)."""
        r = min(len(keys), self.ncols)
        out: List[_IntPrecision] = []
        prev = 0
        for size in range(1, r + 1):
            sets = [self._row_set(subset)
                    for subset in itertools.combinations(keys, size)]
            best = min([low for _, low, _ in sets if low is not INF],
                       default=INF)
            pending = min([floor for _, _, floor in sets
                           if floor is not INF], default=INF)
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
    vertices, columns) expanded once, in a table keyed by base vertex (see
    the module docstring).  Equal rates share one Fraction.  Simplices are
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
    largest = max(map(len, simplices), default=1) - 1
    tables: Dict[int, _MinorTable] = {}
    # a table goes once its base vertex has rated its last simplex
    last = {simplex[0]: i for i, simplex in enumerate(simplices)}
    rates = []
    shared: Dict[int, Fraction] = {}  # integer rate -> rate
    for i, simplex in enumerate(simplices):
        table = tables.get(simplex[0])
        if table is None:
            table = tables[simplex[0]] = _MinorTable({}, n, largest)
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
