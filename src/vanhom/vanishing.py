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

The relative theory works with the counterparts of those chain spaces for
a pair (complex, subcomplex A): thin chains that are attached to A, the
relative cycle condition, and the induced long exact sequence connecting
the attached, absolute and relative groups.  Excision drops a set W from
the interior of A without changing the relative groups.  It runs on the
integer kernel of :mod:`vanhom.homology`: each space is an independent
set of integer chains, and every dimension, map rank and internal check
is a rank of integer columns.  Only the oracle side (the chain-subspace
complexes and :func:`vanishing_betti_oracle`) uses :class:`Subspace`.
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

    Degree j holds the thin j-cells lying in the subcomplex, plus the
    subcomplex-projected boundaries of thin (j+1)-chains whose boundary
    already vanishes on every thick j-cell outside the subcomplex.  This is
    the piece of the ambient thin complex that the pair quotients away.
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


def _kernel(basis: List[IntColumn],
            images: List[IntColumn]) -> List[IntColumn]:
    """The basis combinations whose images vanish, as independent chains.

    Images past the end of the basis only take part in the relations, so
    with them the result spans the part of the basis span that the map
    sends into their span.
    """
    _, combos = _integer_reduce(images, kernel=True)
    return _combine(basis, combos)


def _require(part: List[IntColumn], space: List[IntColumn], space_rank: int,
             failure: str):
    """Raise AssertionError(failure) unless part lies in the span of space.

    U lies in W exactly when rank(U and W) = rank W.
    """
    if _integer_rank(part + space) != space_rank:
        raise AssertionError(failure)


class _Pair:
    """One pair (complex, subcomplex) at one velocity, as integer ranks.

    Each space is held as an independent integer spanning set, per degree j:

    * prime: P_j, the thin j-chains plus the boundaries of thin
      (j+1)-chains;
    * bounds: B_j, the boundaries of thin (j+1)-chains;
    * attached: A_j, the thin j-chains in the subcomplex plus the
      subcomplex part of the boundary of each thin (j+1)-chain whose
      boundary misses the thick j-cells outside the subcomplex;
    * zrel: the relative cycles {x in P_j : dx in A_(j-1)}, an integer
      kernel of [dP_j | A_(j-1)].

    The relative boundaries are R_j = B_j + A_j.  Every dimension, every
    map rank of the long exact sequence and every check is a rank of a
    union of such sets; a check that fails raises AssertionError naming
    the check, the degree and the velocity.
    """

    def __init__(self, c: CellComplex, a: RateAnnotation, sub: CellSet,
                 v: Velocity):
        self.complex = c
        self.velocity = v
        d = max(c.dim, 0)
        self.degrees = range(d + 1)
        thin = {j: _thin_ids(c, a, v, j) for j in range(d + 2)}
        self.prime: Dict[int, List[IntColumn]] = {}
        self.bounds: Dict[int, List[IntColumn]] = {}
        self.attached: Dict[int, List[IntColumn]] = {}
        self.zrel: Dict[int, List[IntColumn]] = {}
        for j in self.degrees:
            units = [{cid: 1} for cid in thin[j]]
            above = _boundary_columns(c, thin[j + 1])
            self.bounds[j] = _independent(above)
            self.prime[j] = _independent(units + self.bounds[j])
            thin_here = frozenset(thin[j])
            bad = frozenset(cell.id for cell in c.cells_of_dim(j)
                            if cell.id not in sub
                            and cell.id not in thin_here)
            free = _kernel(above, [restrict_chain(col, bad) for col in above])
            self.attached[j] = _independent(
                [{cid: 1} for cid in thin[j] if cid in sub]
                + [restrict_chain(col, sub) for col in free])
        for j in self.degrees:
            images = [chain_boundary(c, x) for x in self.prime[j]]
            self.zrel[j] = _kernel(self.prime[j],
                                   images + self.attached.get(j - 1, []))

    def _failure(self, what: str, j: int) -> str:
        return f"degree-{j} {what} at {self.velocity}"

    def _check_closed(self):
        """The boundary maps P_j into P_(j-1) and A_j into A_(j-1)."""
        for name, spaces in (("absolute", self.prime),
                             ("attached", self.attached)):
            for j in self.degrees[1:]:
                below = spaces[j - 1]
                _require([chain_boundary(self.complex, x) for x in spaces[j]],
                         below, len(below), self._failure(
                             f"{name} chains are not closed under the "
                             f"boundary", j))

    def _relative_bounds(self, j: int) -> Tuple[List[IntColumn], int]:
        """R_j as a spanning set, and its rank, checked to lie in Zrel_j."""
        rel_bounds = self.bounds[j] + self.attached[j]
        _require(rel_bounds, self.zrel[j], len(self.zrel[j]),
                 self._failure("relative boundary is not a relative cycle",
                               j))
        return rel_bounds, _integer_rank(rel_bounds)

    def relative_dims(self) -> Dict[int, int]:
        """dim Zrel_j - rank R_j per degree."""
        self._check_closed()
        return {j: len(self.zrel[j]) - self._relative_bounds(j)[1]
                for j in self.degrees}

    def les(self) -> Tuple[Dict[str, Dict[int, int]], List[LesNode]]:
        """The three dimension tables and the long exact sequence's nodes.

        The groups in degree j are Z(A_j)/dA_(j+1), Z(P_j)/B_j and
        Zrel_j/R_j.  A map's rank is the rank its images add to the
        target's boundaries: incl_j through Z(A_j) over B_j, quot_j through
        Z(P_j) over R_j, conn_j through dZrel_j over dA_j.
        """
        self._check_closed()
        c, degrees = self.complex, self.degrees

        def bd(vectors):
            return [chain_boundary(c, x) for x in vectors]

        abs_cycles, att_cycles, att_bd, rel_bd = {}, {}, {}, {}
        for j in degrees:
            abs_cycles[j] = _kernel(self.prime[j], bd(self.prime[j]))
            images = bd(self.attached[j])
            independent, combos = _integer_reduce(images, kernel=True)
            att_cycles[j] = _combine(self.attached[j], combos)
            att_bd[j] = [images[i] for i in independent]
            rel_bd[j] = bd(self.zrel[j])
        dims: Dict[str, Dict[int, int]] = {
            "attached": {}, "absolute": {}, "relative": {}}
        incl, quot, conn, composite = {}, {}, {}, {}
        for j in degrees:
            bounds, zrel = self.bounds[j], self.zrel[j]
            za, zp = att_cycles[j], abs_cycles[j]
            rel_bounds, rel_rank = self._relative_bounds(j)
            # each class of one group must be a class of the next
            _require(za, zp, len(zp), self._failure(
                "attached cycle is not an absolute cycle", j))
            _require(zp, zrel, len(zrel), self._failure(
                "absolute cycle is not a relative cycle", j))
            below = att_cycles.get(j - 1, [])
            _require(rel_bd[j], below, len(below), self._failure(
                "relative cycle has a boundary that is not an attached "
                "cycle", j))
            dims["attached"][j] = len(za) - len(att_bd.get(j + 1, []))
            dims["absolute"][j] = len(zp) - len(bounds)
            dims["relative"][j] = len(zrel) - rel_rank
            incl[j] = _integer_rank(bounds + za) - len(bounds)
            quot[j] = _integer_rank(rel_bounds + zp) - rel_rank
            conn[j] = _integer_rank(att_bd[j] + rel_bd[j]) - len(att_bd[j])
            # composites through each group: incl after conn_(j+1) is zero
            # when dZrel_(j+1) bounds in P_j, quot after incl when
            # Z(A_j) lies in R_j; conn after quot is zero by construction,
            # since the absolute cycles have no boundary
            above = rel_bd.get(j + 1, [])
            composite[j, "attached"] = (
                _integer_rank(bounds + above) == len(bounds))
            composite[j, "absolute"] = (
                _integer_rank(rel_bounds + za) == rel_rank)
            composite[j, "relative"] = True
        nodes = []
        for j in reversed(degrees):
            for space, rank_in, rank_out in (
                    ("attached", conn.get(j + 1, 0), incl[j]),
                    ("absolute", incl[j], quot[j]),
                    ("relative", quot[j], conn[j])):
                dim = dims[space][j]
                nodes.append(LesNode(
                    j, space, dim, rank_in, rank_out,
                    composite[j, space] and rank_in + rank_out == dim))
        return dims, nodes


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
    dims, nodes = _Pair(c, a, sub, v).les()
    return PairReport(velocity=v, absolute=dims["absolute"],
                      relative=dims["relative"], attached=dims["attached"],
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
    _, nodes = _Pair(c, a, sub, v).les()
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
    full = _Pair(c, a, sub, v).relative_dims()
    rest = c.restrict(c.cell_ids() - cut)
    excised = _Pair(rest, a, sub - cut, v).relative_dims()
    degrees = range(max(c.dim, 0) + 1)
    full_dims = {j: full.get(j, 0) for j in degrees}
    excised_dims = {j: excised.get(j, 0) for j in degrees}
    return ExcisionReport(velocity=v, full=full_dims, excised=excised_dims,
                          equal=full_dims == excised_dims)
