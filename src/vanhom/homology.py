"""Exact homology of cell complexes over the rationals.

Nothing here is a numerical estimate; there are two exact routes.

* The engine route works on integer boundary matrices, whose columns
  :func:`_boundary_columns` builds with each face at the row its caller
  keys it to.  Boundary coefficients are integers, so
  :func:`_integer_reduce` eliminates sparse integer columns fraction-free
  (gcd-normalised, after Bareiss 1968): it gives their rank over the
  rationals, the input columns that are independent with the row key of
  each one's pivot and, on request, primitive integer kernel
  combinations.  The rank of the map induced on homology by including one
  level of a filtration into the next is a cell count combined with such
  ranks, and at every cut those ranks are counts of the pivots of one
  level-ordered reduction per boundary matrix (:func:`_pivot_levels`,
  :func:`_image_dims`).  Those reductions run top-down with clearing: d_j
  skips the columns of the cells that are pivot rows of d_(j+1), which
  would reduce to zero.  The pair theory in :mod:`vanhom.vanishing` is
  the short exact sequence 0 -> A -> P -> Q -> 0 of chain complexes; one
  such elimination per complex and degree, top-down, of the boundaries of
  a complement of the boundaries found so far gives the boundaries one
  degree down (independent images) and one cycle per vanishing class
  (kernel combinations); every dimension counts those cycles, and every
  map rank and check reduces its images and those cycles once, starting
  from the echelon basis of the boundaries that elimination left.

* The oracle route works with chain subspaces of sparse chains with
  Fraction entries, each held by :class:`Subspace` as an echelon basis:
  rows keyed by their lowest key and scaled to lead with 1.  A rank is
  the dimension of a span, and :func:`kernel_basis` reads vanishing
  combinations off the span of the vectors extended by unit keys; sums,
  intersections, kernels and preimages are spans of such chains.  Only
  the chain-subspace oracle is built on it, independently of the engine
  route.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .cells import CellComplex

Chain = Dict[int, Fraction]
IntColumn = Dict[int, int]


def chain_boundary(c: CellComplex, chain: Chain) -> Chain:
    """Apply the boundary operator to a sparse chain.

    Integer chains give integer chains, rational chains rational ones.
    """
    out: Chain = {}
    for cid, coeff in chain.items():
        for k, face in c.cell(cid).boundary:
            new = out.get(face, 0) + coeff * k
            if new:
                out[face] = new
            else:
                out.pop(face, None)
    return out


def _add_scaled(target: Chain, coeff: Fraction, source: Chain) -> Chain:
    out = dict(target)
    for key, value in source.items():
        new = out.get(key, 0) + coeff * value
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


class Subspace:
    """A subspace of a chain space, held as an echelon basis.

    The rows are kept as {lowest key: row}, each row scaled so that its
    lead coefficient is 1.  A vector is reduced by walking its keys from
    the lowest up: where a row leads at the key, the row is subtracted,
    and otherwise the key is set aside.  A row only adds keys above the one
    it clears, so what is set aside is never touched again.
    """

    def __init__(self, vectors: Iterable[Chain] = ()):
        self._rows: Dict[int, Chain] = {}
        for vec in vectors:
            vec = self._reduce(vec)
            if vec:
                lead = min(vec)
                scale = Fraction(1) / vec[lead]
                self._rows[lead] = {k: v * scale for k, v in vec.items()}

    def _reduce(self, vec: Chain) -> Chain:
        """What is left of vec, keys ascending and without zero entries,
        once every key that leads a row is cleared."""
        vec, left = {k: v for k, v in vec.items() if v}, {}
        while vec:
            low = min(vec)
            row = self._rows.get(low)
            if row is None:
                left[low] = vec.pop(low)
            else:
                vec = _add_scaled(vec, -vec[low], row)
        return left

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> List[Chain]:
        """The rows, by ascending lowest key."""
        return [self._rows[lead] for lead in sorted(self._rows)]

    def contains(self, vec: Chain) -> bool:
        return not self._reduce(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis())

    def __add__(self, other: "Subspace") -> "Subspace":
        return Subspace(self.basis() + other.basis())

    def intersection(self, other: "Subspace") -> "Subspace":
        mine = self.basis()
        return Subspace(_combine(mine, kernel_basis(mine + other.basis())))

    def map_kernel(self, f: Callable[[Chain], Chain]) -> "Subspace":
        """Kernel of a linear map restricted to this subspace."""
        basis = self.basis()
        combos = kernel_basis([f(v) for v in basis])
        return Subspace(_combine(basis, combos))

    def map_preimage(self, f: Callable[[Chain], Chain],
                     target: "Subspace") -> "Subspace":
        """The part of this subspace that f sends into target."""
        basis = self.basis()
        combos = kernel_basis([f(v) for v in basis] + target.basis())
        return Subspace(_combine(basis, combos))


def rank_of(vectors: Iterable[Chain]) -> int:
    return Subspace(vectors).dim


def kernel_basis(vectors: Sequence[Chain]) -> List[Chain]:
    """Basis of vanishing combinations of the given vectors.

    Each result maps input index to coefficient.  Vector i of n is
    extended by a unit at key top + n - 1 - i, above every key of the
    vectors; the rows of the span that lead at top or above have no chain
    part, so they are the combinations.  A vector that depends on earlier
    ones leads its row at its own unit, the lowest in the row: each
    combination holds its vector's index with coefficient 1 and earlier
    indices only, so they are independent.
    """
    top = 1 + max((key for vec in vectors for key in vec), default=0)
    unit = top + len(vectors) - 1  # the unit key of vector 0
    space = Subspace({**vec, unit - i: Fraction(1)}
                     for i, vec in enumerate(vectors))
    return [{unit - key: v for key, v in space._rows[lead].items()}
            for lead in sorted(space._rows, reverse=True) if lead >= top]


def _combine(basis: Sequence[Chain], combos: Iterable[Chain]) -> List[Chain]:
    """The chain sum of coeff * basis[idx] over each combination.

    Indices past the end of the basis are skipped: a kernel combination of
    basis vectors followed by other vectors yields its basis part.  Integer
    inputs give integer chains, and a combination {idx: 1} a copy of
    basis[idx].
    """
    out = []
    for combo in combos:
        if len(combo) == 1:
            (idx, coeff), = combo.items()
            if coeff == 1 and idx < len(basis):
                out.append(dict(basis[idx]))
                continue
        vec: Chain = {}
        for idx, coeff in combo.items():
            if idx < len(basis):
                for key, value in basis[idx].items():
                    vec[key] = vec.get(key, 0) + coeff * value
        out.append({key: value for key, value in vec.items() if value})
    return out


def unit_chains(ids: Iterable[int]) -> List[Chain]:
    return [{cid: Fraction(1)} for cid in sorted(ids)]


# -- integer elimination -------------------------------------------------


def _boundary_columns(c: CellComplex, ids: Iterable[int],
                      key: Dict[int, int]) -> List[IntColumn]:
    """Integer boundary columns of the given cells, face f at row key[f].

    Repeated faces are summed, so a CW boundary such as a + b - a + b
    gives {key[b]: 2}; faces whose coefficients cancel are dropped.
    """
    out = []
    for cid in ids:
        col: IntColumn = {}
        for k, face in c.cell(cid).boundary:
            row = key[face]
            col[row] = col.get(row, 0) + k
        out.append({row: k for row, k in col.items() if k})
    return out


def _subtract(out: IntColumn, b: int, source: IntColumn) -> None:
    """out -= b * source, in place and without zero entries."""
    for key, v in source.items():
        new = out.get(key, 0) - b * v
        if new:
            out[key] = new
        else:
            del out[key]


def _integer_reduce(columns: Iterable[IntColumn], kernel: bool = False,
                    echelon: Optional[Dict[int, IntColumn]] = None
                    ) -> Tuple[Dict[int, int], List[IntColumn]]:
    """Fraction-free elimination of sparse integer columns.

    After Bareiss (1968): a column is reduced at its lowest row key against
    the stored pivot column there, as a*column - b*pivot, and its content
    gcd is divided out after every step.  Each step cancels the lowest key, so a column
    either runs out or lands on a free key and becomes the pivot there.
    Integers only, no back-reduction.  A pivot led by 1 or -1 needs no gcd
    and flips only the sign, which is applied once at the end; steps work
    in place on the column the first one copied, and one against a
    single-entry pivot only removes the key.

    Returns {input index: pivot key} for the input columns that became
    pivots, in input order (they are independent and span what all the
    columns span; their count is the rank over the rationals) and, with
    ``kernel=True``, one integer kernel combination {input index:
    coefficient} per column that ran out.  The combination rides along
    through the same steps, the gcd is divided out of the column and the
    combination jointly, so every combination is primitive; each holds its
    own column's index and earlier ones only, so they are independent and
    span the kernel.  A column only takes in earlier ones, so the pivots
    among the first k columns with keys below m count the rank of that
    block.  Input columns are not changed.

    ``echelon``, a dict {lowest key: column} of columns each led by its own
    lowest key, seeds the pivots, each with an empty combination, and each
    new pivot column is added to it in input order: it ends up an echelon
    basis of everything spanned, keyed by the lowest keys of the span's
    nonzero chains whatever the input order.  What it held is not reduced
    again; the pivots returned are the new ones, counting what the columns
    add to its span, and a kernel combination sums to a chain of that span.
    """
    if echelon is None:
        echelon = {}
    combos: Dict[int, Optional[IntColumn]] = {}  # of the new pivots
    independent: Dict[int, int] = {}
    kernels: List[IntColumn] = []
    for index, col in enumerate(columns):
        combo = {index: 1} if kernel else None
        owned = False  # whether col is a dict this loop made
        sign = 1  # the reduced column is sign * col, its combination too
        while col:
            low = min(col)
            pivot = echelon.get(low)
            if pivot is None:
                break
            lead = pivot[low]
            if lead == 1 or lead == -1:  # the step is lead * (col - b*pivot)
                a, b = 1, lead * col[low]
                sign *= lead
            else:
                g = gcd(lead, sign * col[low])
                a, b = lead // g * sign, sign * col[low] // g
                sign = 1
            if a != 1:
                col = {key: a * v for key, v in col.items()}
                if combo is not None:
                    combo = {key: a * v for key, v in combo.items()}
            elif not owned:
                col = dict(col)
            owned = True
            if len(pivot) == 1:
                del col[low]
            else:
                _subtract(col, b, pivot)
            if combo is None:
                content = gcd(*col.values())
            else:
                held = combos.get(low)  # None for a seeded pivot
                if held:
                    _subtract(combo, b, held)
                content = gcd(*col.values(), *combo.values())
            if content > 1:
                col = {key: v // content for key, v in col.items()}
                if combo is not None:
                    combo = {key: v // content for key, v in combo.items()}
        if sign < 0:
            col = {key: -v for key, v in col.items()}
            if combo is not None:
                combo = {key: -v for key, v in combo.items()}
        if col:
            echelon[low] = col
            combos[low] = combo
            independent[index] = low
        elif combo is not None:
            # the column ran out: its combination is a kernel vector
            kernels.append(combo)
    return independent, kernels


# -- one reduction read at every cut -------------------------------------

# the cells of each dimension as (level, id), ascending; the cut at level
# t holds the cells of level t and above
Graded = List[List[Tuple[int, int]]]


def _pivot_levels(c: CellComplex, graded: Graded, j: int,
                  cut: Optional[int] = None,
                  clear: Optional[Set[int]] = None) -> List[Tuple[int, int]]:
    """Reduce d_j once: the (column level, row level) of each pivot.

    Columns run by descending level and row keys by ascending level, so at
    any cut the columns in it and the rows below it are leading runs, and
    the pivots inside such a block count its rank.  With a cut, only the
    columns in it are reduced.  graded is from vanishing._graded.

    clear, when given, holds the pivot-row cells of d_(j+1), reduced the
    same way: their columns are skipped, and it is refilled with those of
    d_j (clearing, Chen and Kerber 2011).  The reduced column at pivot row
    r is a boundary led by r, so r's column reduces to zero against the
    columns before it, which are in any cut that holds r.
    """
    keys = {cid: key for key, (_, cid) in enumerate(graded[j - 1])}
    skip = clear or ()
    cols = [(level, cid) for level, cid in reversed(graded[j])
            if (cut is None or level >= cut) and cid not in skip]
    pivots, _ = _integer_reduce(
        _boundary_columns(c, [cid for _, cid in cols], keys))
    if clear is not None:
        clear.clear()
        clear.update(graded[j - 1][key][1] for key in pivots.values())
    return [(cols[col][0], graded[j - 1][key][0])
            for col, key in pivots.items()]


def _image_dims(graded: Graded, pivots: Dict[int, List[Tuple[int, int]]],
                cut: int) -> Dict[int, int]:
    """Per degree j, the rank of the map induced on homology by including
    level j of the filtration at the cut into level j+1.

    With T the cells in the cut and K the others, a cycle on T_j bounds
    in level j+1 when it is the boundary of a chain on T_(j+1) that pi_K,
    the projection onto K_j, kills; so the rank is, with pivots[j] the
    pivot levels of d_j,
    |T_j| - rank d_j|T_j - rank d_(j+1)|T_(j+1) + rank(pi_K o d_(j+1)|T_(j+1)).
    """
    def ranks(j):  # rank d_j|T_j and the rank of its rows in K
        thin = [row for col, row in pivots.get(j, ()) if col >= cut]
        return len(thin), sum(1 for row in thin if row < cut)

    dims = {}
    for j, cells in enumerate(graded):
        size = sum(1 for level, _ in cells if level >= cut)
        (rank, _), (above, projected) = ranks(j), ranks(j + 1)
        dims[j] = size - rank - above + projected
    return dims
