"""Vanishing homology of a rate-annotated complex, absolute and relative.

The degree-j vanishing homology at a velocity counts cycles that can be
carried on thin cells, up to boundaries of the ambient complex.  Two
independent computations are provided:

* the engine (:func:`vanishing_betti`, :func:`sweep`): the rank of the
  map induced on ordinary homology by including level j of the thinness
  filtration into level j+1, counted off the pivots of one reduction per
  boundary matrix with its cells ordered by rate; the matrices are
  reduced top-down, and each skips the columns of the pivot rows found
  one degree up (clearing), which would add no pivot;

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
:mod:`vanhom.homology`: each complex's cycles are its boundaries B plus
one representative per vanishing class R, every dimension is |R|, and
each map of the long exact sequence reduces its images and the target's
R against the echelon basis of the target's B, kept from the reduction
that found B, which gives its rank and checks that its images are
cycles; no basis is reduced twice.  Only the oracle side (the
chain-subspace complexes and :func:`vanishing_betti_oracle`) uses
:class:`Subspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cells import CellComplex, CellSet, NotFaceClosed
from .homology import (Chain, Graded, IntColumn, Subspace, _boundary_columns,
                       _combine, _image_dims, _integer_reduce, _pivot_levels,
                       chain_boundary, rank_of, unit_chains)
from .puiseux import INF, Velocity
from .thinness import RateAnnotation, critical_rates, is_thin, rate_of


class InvalidExcision(ValueError):
    """The excised set is not removable: it must sit inside the
    subcomplex and contain every cell it is a face of."""


def _by_degree(dims: Dict[int, int]) -> Dict[str, int]:
    return {str(j): dims[j] for j in sorted(dims)}


@dataclass(frozen=True)
class VanishingBettiTable:
    """Per-degree dimensions of vanishing homology at one velocity."""

    velocity: Velocity
    dims: Dict[int, int]
    euler: int

    def as_dict(self) -> dict:
        return {"velocity": str(self.velocity),
                "betti": _by_degree(self.dims), "euler": self.euler}


def _euler_from_dims(dims: Dict[int, int]) -> int:
    # degree 0 never contributes; the alternating sum starts in degree 1
    return sum((-1) ** j * dim for j, dim in dims.items() if j >= 1)


def _graded(c: CellComplex, a: RateAnnotation, level) -> Graded:
    """The cells of each dimension by level, under the face law.

    level maps a rate to an integer, in the order of the rates, and is
    applied once per rate object (a bool is a 0/1 level); vertices get -1,
    below every cut.  The first cell by id without a rate raises
    MissingRate.  After the rates, the first cell by id with a face that
    is not a cell one dimension down raises NotFaceClosed: every engine
    route grades first, so this is the law's one check.
    """
    cells = c.cells()
    graded: Graded = [[] for _ in range(max(c.dim, 0) + 1)]
    # loading shares one rate object per distinct rate text; an entry
    # holds its rate, so its id is not reused while the memo lives
    levels: Dict[int, tuple] = {}
    for cell in cells:
        if cell.dim:
            try:
                rate = a[cell.id]
            except KeyError:
                rate = rate_of(c, a, cell.id)  # raises MissingRate
            known = levels.get(id(rate))
            if known is None:
                known = levels[id(rate)] = (level(rate), rate)
            graded[cell.dim].append((known[0], cell.id))
        else:
            graded[0].append((-1, cell.id))
    ids = [{cid for _, cid in dim_cells} for dim_cells in graded]
    for cell in cells:
        if cell.dim:
            below = ids[cell.dim - 1]
            for _, face in cell.boundary:
                if face not in below:
                    raise NotFaceClosed(f"cell {cell.id} has a face that is "
                                        f"not a {cell.dim - 1}-cell")
    return [sorted(cells) for cells in graded]


def vanishing_betti(c: CellComplex, a: RateAnnotation,
                    v: Velocity) -> VanishingBettiTable:
    """Vanishing homology dimensions at one cut.

    Thin cells sit at level 1 and thick ones at 0; each boundary matrix is
    reduced once, top-down with clearing, on its thin columns only.
    """
    graded = _graded(c, a, v.contains_rate)
    clear: set = set()
    dims = _image_dims(graded, {j: _pivot_levels(c, graded, j, 1, clear)
                                for j in reversed(range(1, len(graded)))}, 1)
    return VanishingBettiTable(v, dims, _euler_from_dims(dims))


# -- chain route ---------------------------------------------------------


class ChainSubspaceComplex:
    """A chain complex carved out of a cell complex by chain subspaces.

    One subspace of the degree-j chain space per degree; the boundary
    operator must map each into the one below, and homology_dims checks it.
    """

    def __init__(self, c: CellComplex, spaces: Dict[int, Subspace]):
        self.complex = c
        self.spaces = dict(spaces)

    def space(self, j: int) -> Subspace:
        return self.spaces.get(j, Subspace())

    def assert_boundary_closed(self) -> Dict[int, List[Chain]]:
        """Check the boundary images of each space against the rows the
        space below already holds; returns the images by degree."""
        images = {j: [chain_boundary(self.complex, x) for x in space.basis()]
                  for j, space in sorted(self.spaces.items()) if j >= 1}
        for j, chains in images.items():
            if not all(self.space(j - 1).contains(x) for x in chains):
                raise AssertionError(
                    f"degree-{j} subspace is not closed under the boundary")
        return images

    def homology_dims(self) -> Dict[int, int]:
        """dim ker - dim im per degree, degrees 0..top; checks closure."""
        top = max(self.spaces, default=-1)
        # rank d on each degree: its out rank, and the in rank one below
        ranks = {j: rank_of(chains)
                 for j, chains in self.assert_boundary_closed().items()}
        return {j: self.space(j).dim - ranks.get(j, 0) - ranks.get(j + 1, 0)
                for j in range(top + 1)}


# the oracle picks its thin cells here, independently of the engine's _graded
def _thin_ids(c: CellComplex, a: RateAnnotation, v: Velocity,
              j: int) -> List[int]:
    return [cell.id for cell in c.cells_of_dim(j)
            if is_thin(c, a, cell.id, v)]


def thin_chain_complex(c: CellComplex, a: RateAnnotation,
                       v: Velocity) -> ChainSubspaceComplex:
    """Spans of thin cells, closed up by boundaries from one degree above.

    Degree j holds the chains on thin j-cells together with the boundaries
    of chains on thin (j+1)-cells; its homology is the vanishing homology.
    As for vanishing_betti_oracle, the complex must pass validate.
    """
    spaces = {}
    for j in range(max(c.dim, 0) + 1):
        vectors = unit_chains(_thin_ids(c, a, v, j))
        vectors += [chain_boundary(c, u)
                    for u in unit_chains(_thin_ids(c, a, v, j + 1))]
        spaces[j] = Subspace(vectors)
    return ChainSubspaceComplex(c, spaces)


def vanishing_betti_oracle(c: CellComplex, a: RateAnnotation,
                           v: Velocity) -> VanishingBettiTable:
    """Vanishing homology dimensions via the thin chain subcomplex.

    It assumes a complex that passes validate, and deliberately does not
    share the engine's face-law check: on a triangle whose boundary is its
    edges plus a vertex, all rated 0, it gives {0: 0, 1: 1, 2: 0} at T^0.
    """
    dims = thin_chain_complex(c, a, v).homology_dims()
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
    is present.  Each boundary matrix is reduced once, top-down with
    clearing, and each interval's value is a count of pivots at its right
    end; the last interval is read at a cut above every finite rate.
    """
    bps = critical_rates(c, a)
    # a cell's level is the position of its rate among the breakpoints, so
    # the cut at breakpoint i is level i and the cut past them all, where
    # only the INF cells are thin, is level len(bps)
    index = {rate: i for i, rate in enumerate(bps + [INF])}
    graded = _graded(c, a, index.__getitem__)
    clear: set = set()
    pivots = {j: _pivot_levels(c, graded, j, None, clear)
              for j in reversed(range(1, len(graded)))}
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
        return {"velocity": str(self.velocity),
                "absolute": _by_degree(self.absolute),
                "relative": _by_degree(self.relative),
                "attached": _by_degree(self.attached),
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


def _class_rank(images: List[IntColumn], bounds: Dict[int, IntColumn],
                reps: List[IntColumn], failure: str) -> int:
    """The rank of the images' classes in Z/B, once they are known cycles.

    bounds is an echelon basis {lowest key: chain} of B, and B plus reps,
    independent together, span Z.  One reduction of images + reps against
    a copy of bounds gives both: its new pivots among the images count the
    rank the images add to B, and there are |reps| new pivots exactly when
    the images lie in Z; otherwise it raises AssertionError(failure).  With
    a chain space's echelon basis as bounds and no reps it checks that the
    images lie in that space, and with {} and no reps that every image is
    zero.  Each key that leads a single-entry chain of bounds is first
    dropped from the images and reps: that subtracts a chain of B, which
    over the rationals leaves every rank as it is, and costs no step.
    """
    units = {low for low, x in bounds.items() if len(x) == 1}
    columns = images + reps
    if units:
        columns = [x if units.isdisjoint(x) else
                   {k: v for k, v in x.items() if k not in units}
                   for x in columns]
    pivots, _ = _integer_reduce(columns, echelon=dict(bounds))
    if len(pivots) != len(reps):
        raise AssertionError(failure)
    return sum(index < len(images) for index in pivots)


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

    Chains are keyed with the cells outside S first, so pi keeps the keys
    below ``split``.  P_j is an echelon basis (each chain led by its own
    lowest key): the thin j-cells' unit chains, and the rank(pi_K o
    d_(j+1)|T_(j+1)) chains (the engine's projected term) that the build
    reduces from the thin (j+1)-cells' boundaries on the thick j-cells K.
    Its chains led by a key in S span A_j, the others project onto Q_j.

    Cycles are boundaries plus one representative per class, top-down:
    the chains of C_j led by a key that B_j does not lead span a
    complement W_j of B_j, and dC_j = dW_j since dB_j = 0.  One reduction
    of dW_j gives B_(j-1) (its independent images, ``bounds``, and their
    echelon basis, ``leads``) and the representatives R_j (its kernel
    combinations of W_j), and Z_j = B_j + R_j.  Every check and map
    reduces its images (and R) once against a basis held here
    (_class_rank); a failed check raises AssertionError naming the check,
    the degree and the velocity.  Q_j shares each chain of P_j that has no
    key in S, and only the cells outside S get a relative boundary column.
    """

    def __init__(self, c: CellComplex, a: RateAnnotation, sub: CellSet,
                 v: Velocity):
        sub = frozenset(sub)
        if not c.is_face_closed(sub):
            raise NotFaceClosed("subcomplex is not closed under faces")
        graded = _graded(c, a, v.contains_rate)
        self.velocity = v
        self.cells = sorted(c.cell_ids() - sub) + sorted(sub)
        self.split = split = len(self.cells) - len(sub)
        key = {cid: k for k, cid in enumerate(self.cells)}
        faces = _boundary_columns(c, self.cells, key)
        d = max(c.dim, 0)
        self.degrees = range(d + 1)
        thin = [[key[cid] for level, cid in cells if level == 1]
                for cells in graded] + [[]]
        thick = set(range(len(self.cells))).difference(*thin)
        # each space C_j as an echelon basis {lowest key: chain}
        chains = self.chains = {"absolute": {}, "attached": {},
                                "relative": {}}
        for j in self.degrees:
            prime = chains["absolute"][j] = {k: {k: 1} for k in thin[j]}
            _integer_reduce([{k: x for k, x in faces[t].items() if k in thick}
                             for t in thin[j + 1]], echelon=prime)
            chains["attached"][j] = {low: x for low, x in prime.items()
                                     if low >= split}
            # a chain with no key in S is its own projection
            chains["relative"][j] = {
                low: x if max(x) < split else self.project(x)
                for low, x in prime.items() if low < split}
        # the relative chains are keyed below split
        relative_faces = [x if max(x, default=-1) < split else self.project(x)
                          for x in faces[:split]]

        self.reps: Dict[str, Dict[int, List[IntColumn]]] = {}
        self.bounds: Dict[str, Dict[int, List[IntColumn]]] = {}
        self.leads: Dict[str, Dict[int, Dict[int, IntColumn]]] = {}
        self.dims: Dict[str, Dict[int, int]] = {}
        for name, bd in (("absolute", faces), ("attached", faces),
                         ("relative", relative_faces)):
            spaces = chains[name]
            reps, bounds, leads = {}, {d: []}, {d: {}}
            for j in reversed(self.degrees):
                free = [x for low, x in spaces[j].items()
                        if low not in leads[j]]
                images = _combine(bd, free)
                leads[j - 1] = {}
                independent, combos = _integer_reduce(
                    images, kernel=True, echelon=leads[j - 1])
                bounds[j - 1] = [images[i] for i in independent]
                reps[j] = _combine(free, combos)
            for j in self.degrees[1:]:
                _class_rank(bounds[j - 1], spaces[j - 1], [], self._failure(
                    f"{name} chains are not closed under the boundary", j))
            self.reps[name], self.bounds[name] = reps, bounds
            self.leads[name] = leads
            self.dims[name] = {j: len(reps[j]) for j in self.degrees}
        for j in self.degrees:
            _class_rank(_combine(relative_faces, self.bounds["relative"][j]),
                        {}, [], self._failure(
                            "relative boundary is not a relative cycle", j))

    def project(self, x: IntColumn) -> IntColumn:
        return {k: coeff for k, coeff in x.items() if k < self.split}

    def cell_chain(self, x: IntColumn) -> IntColumn:
        """A keyed chain written on cell ids."""
        return {self.cells[k]: coeff for k, coeff in x.items()}

    def _failure(self, what: str, j: int) -> str:
        return f"degree-{j} {what} at {self.velocity}"

    def les(self) -> List[LesNode]:
        """The long exact sequence's nodes, each checked for exactness.

        H_j(A) -> H_j(P) -> H_j(Q) -> H_(j-1)(A).  A map's rank is the rank
        its images add to the target's boundaries: incl_j through Z(A_j)
        over B(P_j), quot_j through pi Z(P_j) over B(Q_j), conn_j through
        L_(j-1) over B(A_(j-1)), where L_j, the boundaries in P_j that pi
        kills (the boundaries of lifts of relative cycles), are spanned by
        the chains of B(P_j)'s echelon basis led by a key in S.  Reducing
        the images and the target's R against the target's echelon basis
        of B gives the rank and checks that the images are cycles.

        The composite of the two maps at a node vanishes by construction,
        so a node is exact when rank_in + rank_out = dim: L_j is built from
        B(P_j), so incl after conn is zero; pi kills every chain of A, so
        quot after incl is zero; and an absolute cycle is its own lift and
        has no boundary, so conn after quot is zero.
        """
        (ba, bp, _), (la, lp, lq), (ra, rp, rq) = (
            [table[name] for name in ("attached", "absolute", "relative")]
            for table in (self.bounds, self.leads, self.reps))
        incl, quot, conn = {}, {}, {}
        for j in self.degrees:
            incl[j] = _class_rank(ba[j] + ra[j], lp[j], rp[j], self._failure(
                "attached cycle is not an absolute cycle", j))
            quot[j] = _class_rank(
                [self.project(x) for x in bp[j] + rp[j]], lq[j], rq[j],
                self._failure("absolute cycle is not a relative cycle", j))
            lifts = [x for low, x in lp[j - 1].items() if low >= self.split]
            conn[j] = _class_rank(
                lifts, la[j - 1], ra.get(j - 1, []), self._failure(
                    "relative cycle has a boundary that is not an attached "
                    "cycle", j))
        nodes = []
        for j in reversed(self.degrees):
            for space, rank_in, rank_out in (
                    ("attached", conn.get(j + 1, 0), incl[j]),
                    ("absolute", incl[j], quot[j]),
                    ("relative", quot[j], conn[j])):
                dim = self.dims[space][j]
                nodes.append(LesNode(j, space, dim, rank_in, rank_out,
                                     rank_in + rank_out == dim))
        return nodes


def relative_vanishing(c: CellComplex, a: RateAnnotation, sub: CellSet,
                       v: Velocity) -> PairReport:
    """Vanishing homology of the pair (complex, subcomplex) at a velocity.

    The complex must pass validate (dd = 0) and the subcomplex must be
    face-closed; a face of the wrong dimension or outside the subcomplex
    raises NotFaceClosed.  The report carries the absolute, relative and
    attached dimensions and whether the long exact sequence checks out.
    """
    pair = _Pair(c, a, sub, v)
    nodes = pair.les()
    return PairReport(velocity=v, absolute=pair.dims["absolute"],
                      relative=pair.dims["relative"],
                      attached=pair.dims["attached"],
                      exact=all(n.ok for n in nodes))


def les_check(c: CellComplex, a: RateAnnotation, sub: CellSet,
              v: Velocity) -> LesReport:
    """Build the pair's long exact sequence and verify exactness.

    At every node the ranks of the two adjacent maps must fill the middle
    dimension.  Their composite vanishes by construction: the connecting
    map's images are combinations of absolute boundaries, the projection
    kills every attached chain, and an absolute cycle has no boundary.
    The complex and subcomplex must be as for relative_vanishing
    (NotFaceClosed for a face of the wrong dimension).
    """
    nodes = _Pair(c, a, sub, v).les()
    return LesReport(velocity=v, nodes=nodes,
                     exact=all(n.ok for n in nodes))


# -- excision ------------------------------------------------------------


@dataclass(frozen=True)
class ExcisionReport:
    """Relative dimensions before (full) and after (excised) a cut."""

    velocity: Velocity
    full: Dict[int, int]
    excised: Dict[int, int]
    equal: bool

    def as_dict(self) -> dict:
        return {"velocity": str(self.velocity), "full": _by_degree(self.full),
                "excised": _by_degree(self.excised), "equal": self.equal}


def excision_check(c: CellComplex, a: RateAnnotation, sub: CellSet,
                   cut: CellSet, v: Velocity) -> ExcisionReport:
    """The pair's relative dimensions before and after removing a cut set.

    The complex and subcomplex must be as for relative_vanishing
    (NotFaceClosed for a face of the wrong dimension).  The cut must sit
    inside the subcomplex and be closed under cofaces (every cell having a
    face in the cut is itself in the cut).  Then excision is an identity,
    so the excised pair is not built and equal holds: both pairs have the
    cells X-S outside their subcomplex, with the same boundaries once
    faces in S are dropped (no cell outside S has a face in the cut), and
    _Pair keys them alike.
    """
    sub, cut = frozenset(sub), frozenset(cut)
    if not cut <= sub:
        raise InvalidExcision("cut set escapes the subcomplex")
    for cell in c.cells():
        if cell.id in cut:
            continue
        if any(face in cut for _, face in cell.boundary):
            raise InvalidExcision(
                f"cell {cell.id} is outside the cut but has a face in it")
    full = _Pair(c, a, sub, v).dims["relative"]
    return ExcisionReport(velocity=v, full=full, excised=dict(full),
                          equal=True)
