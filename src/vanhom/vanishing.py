"""Vanishing homology of a rate-annotated complex, absolute and relative.

The degree-j vanishing homology at a velocity counts cycles that can be
carried on thin cells, up to boundaries of the ambient complex.  Two
independent computations are provided:

* the engine (:func:`vanishing_betti`, :func:`sweep`): the rank of the
  map induced on ordinary homology by including level j of the thinness
  filtration into level j+1, counted off the pivots of one reduction per
  boundary matrix with its cells ordered by rate;

* the chain route (:func:`vanishing_betti_oracle`): work inside the chain
  subspaces spanned by thin cells, closed up by one round of boundaries,
  and take homology there.

Both must agree everywhere; the test suite leans on that.

The relative theory of a pair (complex, subcomplex S) is the short exact
sequence of chain complexes 0 -> A -> P -> Q -> 0.  P is the thin chain
complex of the chain route, A = P meet C(S) its chains on S (the attached
complex), and Q = pi(P) its projection onto the cells outside S (the
relative complex, with boundary pi o d).  The attached, absolute and
relative groups are the homology of A, P and Q, and the long exact
sequence connects them.  Excision drops a set W from the interior of S
without changing the relative groups.  It runs on the integer kernel of
:mod:`vanhom.homology`: each space is an independent set of integer
chains, and every dimension, map rank and internal check is a rank of
integer columns.  Only the oracle side (the chain-subspace complexes and
:func:`vanishing_betti_oracle`) uses :class:`Subspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cells import CellComplex, CellSet, NotFaceClosed
from .homology import (Graded, IntColumn, Subspace, _boundary_columns,
                       _combine, _image_dims, _integer_rank, _integer_reduce,
                       _pivot_levels, chain_boundary, rank_of, restrict_chain,
                       unit_chains)
from .puiseux import INF, Velocity
from .thinness import RateAnnotation, critical_rates, is_thin, rate_of


class InvalidExcision(ValueError):
    """The excised set is not removable: it must sit inside the
    subcomplex and contain every cell it is a face of."""


@dataclass(frozen=True)
class VanishingBettiTable:
    """Per-degree dimensions of vanishing homology at one velocity."""

    velocity: Velocity
    dims: Dict[int, int]
    euler: int

    def as_dict(self) -> dict:
        return {"velocity": str(self.velocity),
                "betti": {str(j): self.dims[j] for j in sorted(self.dims)},
                "euler": self.euler}


def _euler_from_dims(dims: Dict[int, int]) -> int:
    # degree 0 never contributes; the alternating sum starts in degree 1
    return sum((-1) ** j * dim for j, dim in dims.items() if j >= 1)


def _graded(c: CellComplex, a: RateAnnotation, level) -> Graded:
    """The cells of each dimension by level.

    level maps a rate to an integer, in the order of the rates; vertices
    get -1, below every cut.
    """
    graded: Graded = [[] for _ in range(max(c.dim, 0) + 1)]
    for cell in c.cells():
        graded[cell.dim].append(
            (level(rate_of(c, a, cell.id)) if cell.dim else -1, cell.id))
    return [sorted(cells) for cells in graded]


def vanishing_betti(c: CellComplex, a: RateAnnotation,
                    v: Velocity) -> VanishingBettiTable:
    """Vanishing homology dimensions at one cut.

    Thin cells sit at level 1 and thick ones at 0; each boundary matrix is
    reduced once, on its thin columns only.
    """
    graded = _graded(c, a, lambda rate: int(v.contains_rate(rate)))
    dims = _image_dims(graded, {j: _pivot_levels(c, graded, j, 1)
                                for j in range(1, len(graded))}, 1)
    return VanishingBettiTable(v, dims, _euler_from_dims(dims))


def vanishing_euler(t: VanishingBettiTable) -> int:
    """Alternating sum of the positive-degree dimensions."""
    return _euler_from_dims(t.dims)


# -- chain route ---------------------------------------------------------


class ChainSubspaceComplex:
    """A chain complex carved out of a cell complex by chain subspaces.

    One subspace of the degree-j chain space per degree; the boundary
    operator must map each into the one below (checked, not assumed).
    """

    def __init__(self, c: CellComplex, spaces: Dict[int, Subspace]):
        self.complex = c
        self.spaces = dict(spaces)

    def space(self, j: int) -> Subspace:
        return self.spaces.get(j, Subspace())

    def assert_boundary_closed(self):
        for j, space in sorted(self.spaces.items()):
            if j < 1:
                continue
            below = self.space(j - 1)
            images = [chain_boundary(self.complex, vec)
                      for vec in space.basis()]
            if rank_of(below.basis() + images) != below.dim:
                raise AssertionError(
                    f"degree-{j} subspace is not closed under the boundary")

    def homology_dims(self) -> Dict[int, int]:
        """dim ker - dim im per degree, degrees 0..top."""
        top = max(self.spaces, default=-1)
        dims = {}
        for j in range(top + 1):
            space = self.space(j)
            out_rank = 0
            if j >= 1:
                out_rank = rank_of(chain_boundary(self.complex, vec)
                                   for vec in space.basis())
            in_rank = rank_of(chain_boundary(self.complex, vec)
                              for vec in self.space(j + 1).basis())
            dims[j] = space.dim - out_rank - in_rank
        return dims


def _thin_ids(c: CellComplex, a: RateAnnotation, v: Velocity,
              j: int) -> List[int]:
    return [cell.id for cell in c.cells_of_dim(j)
            if is_thin(c, a, cell.id, v)]


def thin_chain_complex(c: CellComplex, a: RateAnnotation,
                       v: Velocity) -> ChainSubspaceComplex:
    """Spans of thin cells, closed up by boundaries from one degree above.

    Degree j holds the chains on thin j-cells together with the boundaries
    of chains on thin (j+1)-cells; its homology is the vanishing homology.
    """
    d = c.dim
    spaces = {}
    for j in range(d + 1):
        vectors = unit_chains(_thin_ids(c, a, v, j))
        vectors += [chain_boundary(c, u)
                    for u in unit_chains(_thin_ids(c, a, v, j + 1))]
        spaces[j] = Subspace(vectors)
    return ChainSubspaceComplex(c, spaces)


def vanishing_betti_oracle(c: CellComplex, a: RateAnnotation,
                           v: Velocity) -> VanishingBettiTable:
    """Vanishing homology dimensions via the thin chain subcomplex."""
    if c.dim < 0:
        return VanishingBettiTable(v, {0: 0}, 0)
    prime = thin_chain_complex(c, a, v)
    prime.assert_boundary_closed()
    dims = prime.homology_dims()
    return VanishingBettiTable(v, dims, _euler_from_dims(dims))


# -- velocity sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepTable:
    """Vanishing dimensions as a step function of the velocity threshold.

    Thresholds run through non-strict velocities only.  breakpoints are the
    distinct finite rates; interval i covers thresholds in
    (breakpoints[i-1], breakpoints[i]] (the first interval is unbounded
    below, the last one unbounded above).
    """

    breakpoints: Tuple[Fraction, ...]
    dims: Dict[int, Tuple[int, ...]]

    def value(self, degree: int, threshold: Fraction) -> int:
        row = self.dims[degree]
        for i, bp in enumerate(self.breakpoints):
            if threshold <= bp:
                return row[i]
        return row[-1]

    def intervals(self, degree: int) -> List[Tuple[Optional[Fraction],
                                                   Optional[Fraction], int]]:
        row = self.dims[degree]
        edges: List[Optional[Fraction]] = [None, *self.breakpoints, None]
        return [(edges[i], edges[i + 1], row[i]) for i in range(len(row))]


def sweep(c: CellComplex, a: RateAnnotation,
          degrees: Optional[Sequence[int]] = None) -> SweepTable:
    """Evaluate the vanishing dimensions across all velocity thresholds.

    The dimensions can only change where the threshold crosses a rate that
    is present.  Each boundary matrix is reduced once, on all its columns,
    and each interval's value is a count of pivots at its right end; the
    last interval is read at a cut above every finite rate.
    """
    bps = critical_rates(c, a)
    # a cell's level is the position of its rate among the breakpoints, so
    # the cut at breakpoint i is level i and the cut past them all, where
    # only the INF cells are thin, is level len(bps)
    index = {rate: i for i, rate in enumerate(bps)}
    index[INF] = len(bps)
    graded = _graded(c, a, index.__getitem__)
    pivots = {j: _pivot_levels(c, graded, j) for j in range(1, len(graded))}
    values = [_image_dims(graded, pivots, cut)
              for cut in range(len(bps) + 1)]
    if degrees is None:
        degrees = range(len(graded))
    return SweepTable(tuple(bps),
                      {j: tuple(row.get(j, 0) for row in values)
                       for j in degrees})


# -- pairs ---------------------------------------------------------------


@dataclass(frozen=True)
class PairReport:
    """Vanishing homology of a pair (complex, subcomplex).

    absolute: the whole complex; relative: the pair; attached: the chain
    complex of thin chains attached to the subcomplex, the third player in
    the long exact sequence.  exact records whether that sequence closed.
    """

    velocity: Velocity
    absolute: Dict[int, int]
    relative: Dict[int, int]
    attached: Dict[int, int]
    exact: bool

    def as_dict(self) -> dict:
        def tab(d):
            return {str(j): d[j] for j in sorted(d)}
        return {"velocity": str(self.velocity),
                "absolute": tab(self.absolute),
                "relative": tab(self.relative),
                "attached": tab(self.attached),
                "exact": self.exact}


@dataclass(frozen=True)
class LesNode:
    """Exactness record at one spot of the long exact sequence."""

    degree: int
    space: str
    dim: int
    rank_in: int
    rank_out: int
    ok: bool


@dataclass(frozen=True)
class LesReport:
    velocity: Velocity
    nodes: List[LesNode]
    exact: bool

    def as_dict(self) -> dict:
        return {"velocity": str(self.velocity),
                "exact": self.exact,
                "nodes": [{"degree": n.degree, "space": n.space,
                           "dim": n.dim, "rank_in": n.rank_in,
                           "rank_out": n.rank_out, "ok": n.ok}
                          for n in self.nodes]}


def attached_chain_complex(c: CellComplex, a: RateAnnotation, sub: CellSet,
                           v: Velocity) -> ChainSubspaceComplex:
    """Thin chains attached to a subcomplex.

    Degree j holds the chains of the ambient thin complex (thin j-chains
    plus boundaries of thin (j+1)-chains) that lie in the subcomplex.  This
    is the piece of the ambient thin complex that the pair quotients away.
    """
    sub = frozenset(sub)
    if not c.is_face_closed(sub):
        raise NotFaceClosed("subcomplex is not closed under faces")
    pair = _Pair(c, a, sub, v)
    return ChainSubspaceComplex(c, {j: Subspace(pair.attached[j])
                                    for j in pair.degrees})


def _independent(columns: List[IntColumn]) -> List[IntColumn]:
    """An independent subset of the columns with the same span."""
    independent, _ = _integer_reduce(columns)
    return [columns[i] for i in independent]


def _image_and_kernel(basis: List[IntColumn], images: List[IntColumn]
                      ) -> Tuple[List[IntColumn], List[IntColumn]]:
    """A linear map given by the images of an independent basis: an
    independent subset of the images (spanning the map's image) and the
    independent basis combinations whose images vanish (its kernel)."""
    independent, combos = _integer_reduce(images, kernel=True)
    return [images[i] for i in independent], _combine(basis, combos)


def _require(part: List[IntColumn], space: List[IntColumn], space_rank: int,
             failure: str):
    """Raise AssertionError(failure) unless part lies in the span of space.

    U lies in W exactly when rank(U and W) = rank W.
    """
    if _integer_rank(part + space) != space_rank:
        raise AssertionError(failure)


class _Pair:
    """One pair (complex, subcomplex S) at one velocity, as integer ranks.

    The pair is the short exact sequence of chain complexes
    0 -> A -> P -> Q -> 0, with pi the projection onto the cells outside
    S.  Per degree j:

    * absolute: P_j, the thin j-chains plus the boundaries of thin
      (j+1)-chains;
    * attached: A_j, the chains of P_j in S, the kernel of pi on P_j;
    * relative: Q_j = pi(P_j), with boundary pi o d.  Q is P/A, and pi
      commutes with d because the chains on S form a subcomplex.

    Each space is held as an independent integer spanning set.  One loop
    takes the cycles Z_j and boundaries B_j of all three complexes, and each
    group's dimension is |Z_j| - |B_j|.  Every map rank of the long exact
    sequence and every check is a rank of a union of such sets; a check
    that fails raises AssertionError naming the check, the degree and the
    velocity.
    """

    def __init__(self, c: CellComplex, a: RateAnnotation, sub: CellSet,
                 v: Velocity):
        self.velocity = v
        self.outside = c.cell_ids() - sub
        d = max(c.dim, 0)
        self.degrees = range(d + 1)
        thin = {j: _thin_ids(c, a, v, j) for j in range(d + 2)}
        prime, attached, quotient = {}, {}, {}
        for j in self.degrees:
            prime[j] = _independent([{cid: 1} for cid in thin[j]]
                                    + _boundary_columns(c, thin[j + 1]))
            quotient[j], attached[j] = _image_and_kernel(
                prime[j], [self.project(x) for x in prime[j]])
        self.attached = attached

        def boundary(x):
            return chain_boundary(c, x)

        def relative_boundary(x):
            return self.project(chain_boundary(c, x))

        self.cycles: Dict[str, Dict[int, List[IntColumn]]] = {}
        self.bounds: Dict[str, Dict[int, List[IntColumn]]] = {}
        self.dims: Dict[str, Dict[int, int]] = {}
        for name, spaces, bd in (("absolute", prime, boundary),
                                 ("attached", attached, boundary),
                                 ("relative", quotient, relative_boundary)):
            cycles, bounds = {}, {}
            for j in self.degrees:
                bounds[j - 1], cycles[j] = _image_and_kernel(
                    spaces[j], [bd(x) for x in spaces[j]])
                if j:
                    self._check(bounds[j - 1], spaces[j - 1],
                                f"{name} chains are not closed under the "
                                f"boundary", j)
            bounds[d] = []
            self.cycles[name], self.bounds[name] = cycles, bounds
            self.dims[name] = {j: len(cycles[j]) - len(bounds[j])
                               for j in self.degrees}
        for j in self.degrees:
            self._check(self.bounds["relative"][j],
                        self.cycles["relative"][j],
                        "relative boundary is not a relative cycle", j)

    def project(self, x: IntColumn) -> IntColumn:
        return restrict_chain(x, self.outside)

    def _check(self, part: List[IntColumn], space: List[IntColumn],
               what: str, j: int):
        _require(part, space, len(space),
                 f"degree-{j} {what} at {self.velocity}")

    def les(self) -> List[LesNode]:
        """The long exact sequence's nodes, each checked for exactness.

        H_j(A) -> H_j(P) -> H_j(Q) -> H_(j-1)(A).  A map's rank is the rank
        its images add to the target's boundaries: incl_j through Z(A_j)
        over B(P_j), quot_j through pi Z(P_j) over B(Q_j), conn_j through
        L_(j-1) over B(A_(j-1)), where L_j, the boundaries in P_j that pi
        kills, are the boundaries of lifts of relative cycles.
        """
        za, zp, zq = (self.cycles[name]
                      for name in ("attached", "absolute", "relative"))
        ba, bp, bq = (self.bounds[name]
                      for name in ("attached", "absolute", "relative"))
        lifts = {-1: []}
        incl, quot, conn, composite = {}, {}, {}, {}
        for j in self.degrees:
            _, lifts[j] = _image_and_kernel(
                bp[j], [self.project(x) for x in bp[j]])
            zp_projected = [self.project(x) for x in zp[j]]
            # each class of one group must be a class of the next
            self._check(za[j], zp[j],
                        "attached cycle is not an absolute cycle", j)
            self._check(zp_projected, zq[j],
                        "absolute cycle is not a relative cycle", j)
            self._check(lifts[j - 1], za.get(j - 1, []),
                        "relative cycle has a boundary that is not an "
                        "attached cycle", j)
            incl[j] = _integer_rank(bp[j] + za[j]) - len(bp[j])
            quot[j] = _integer_rank(bq[j] + zp_projected) - len(bq[j])
            conn[j] = _integer_rank(ba[j - 1] + lifts[j - 1]) - len(ba[j - 1])
            # composites through each group: incl after conn_(j+1) is zero
            # when L_j bounds in P_j, quot after incl when pi Z(A_j) bounds
            # in Q_j; conn after quot is zero by construction, since the
            # absolute cycles have no boundary
            composite[j, "attached"] = (
                _integer_rank(bp[j] + lifts[j]) == len(bp[j]))
            composite[j, "absolute"] = (_integer_rank(
                bq[j] + [self.project(x) for x in za[j]]) == len(bq[j]))
            composite[j, "relative"] = True
        nodes = []
        for j in reversed(self.degrees):
            for space, rank_in, rank_out in (
                    ("attached", conn.get(j + 1, 0), incl[j]),
                    ("absolute", incl[j], quot[j]),
                    ("relative", quot[j], conn[j])):
                dim = self.dims[space][j]
                nodes.append(LesNode(
                    j, space, dim, rank_in, rank_out,
                    composite[j, space] and rank_in + rank_out == dim))
        return nodes


def relative_vanishing(c: CellComplex, a: RateAnnotation, sub: CellSet,
                       v: Velocity) -> PairReport:
    """Vanishing homology of the pair (complex, subcomplex) at a velocity.

    The subcomplex must be face-closed.  The report carries the absolute,
    relative and attached dimensions and whether the connecting long exact
    sequence checks out.
    """
    sub = frozenset(sub)
    if not c.is_face_closed(sub):
        raise NotFaceClosed("subcomplex is not closed under faces")
    pair = _Pair(c, a, sub, v)
    nodes = pair.les()
    return PairReport(velocity=v, absolute=pair.dims["absolute"],
                      relative=pair.dims["relative"],
                      attached=pair.dims["attached"],
                      exact=all(n.ok for n in nodes))


def les_check(c: CellComplex, a: RateAnnotation, sub: CellSet,
              v: Velocity) -> LesReport:
    """Build the pair's long exact sequence and verify exactness.

    At every node the composite of the two adjacent maps must vanish and
    the ranks must fill the middle dimension.
    """
    sub = frozenset(sub)
    if not c.is_face_closed(sub):
        raise NotFaceClosed("subcomplex is not closed under faces")
    nodes = _Pair(c, a, sub, v).les()
    return LesReport(velocity=v, nodes=nodes,
                     exact=all(n.ok for n in nodes))


# -- excision ------------------------------------------------------------


@dataclass(frozen=True)
class ExcisionReport:
    velocity: Velocity
    full: Dict[int, int]
    excised: Dict[int, int]
    equal: bool

    def as_dict(self) -> dict:
        def tab(d):
            return {str(j): d[j] for j in sorted(d)}
        return {"velocity": str(self.velocity), "full": tab(self.full),
                "excised": tab(self.excised), "equal": self.equal}


def excision_check(c: CellComplex, a: RateAnnotation, sub: CellSet,
                   cut: CellSet, v: Velocity) -> ExcisionReport:
    """Compare the pair's homology before and after removing a cut set.

    The cut must sit inside the subcomplex and be closed under cofaces
    (every cell having a face in the cut is itself in the cut), which keeps
    the remainder a complex and the shrunken subcomplex face-closed.
    """
    sub, cut = frozenset(sub), frozenset(cut)
    if not c.is_face_closed(sub):
        raise NotFaceClosed("subcomplex is not closed under faces")
    if not cut <= sub:
        raise InvalidExcision("cut set escapes the subcomplex")
    for cell in c.cells():
        if cell.id in cut:
            continue
        if any(face in cut for _, face in cell.boundary):
            raise InvalidExcision(
                f"cell {cell.id} is outside the cut but has a face in it")
    full = _Pair(c, a, sub, v).dims["relative"]
    rest = c.restrict(c.cell_ids() - cut)
    excised = _Pair(rest, a, sub - cut, v).dims["relative"]
    degrees = range(max(c.dim, 0) + 1)
    full_dims = {j: full.get(j, 0) for j in degrees}
    excised_dims = {j: excised.get(j, 0) for j in degrees}
    return ExcisionReport(velocity=v, full=full_dims, excised=excised_dims,
                          equal=full_dims == excised_dims)
