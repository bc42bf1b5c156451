"""Exact homology of cell complexes over the rationals.

Nothing here is a numerical estimate; there are two exact routes.

* The engine route works on integer boundary matrices.  Boundary
  coefficients are integers, so :func:`_integer_reduce` eliminates sparse
  integer columns fraction-free (gcd-normalised, after Bareiss 1968): it
  gives their rank over the rationals, the input columns that are
  independent with the row key of each one's pivot and, on request,
  primitive integer kernel combinations.  :func:`betti` (the ordinary
  Betti number of a face-closed cell set) and :func:`image_betti` (the
  rank of the map induced on homology by including one cell set into a
  larger one) are a cell count combined with such ranks.  The same ranks
  between the levels of a filtration, at every cut, are counts of the
  pivots of one level-ordered reduction per boundary matrix
  (:func:`_pivot_levels`).  The pair theory in :mod:`vanhom.vanishing` is
  the short exact sequence 0 -> A -> P -> Q -> 0 of chain complexes; one
  such elimination per complex and degree gives the cycles (kernel
  combinations) and the boundaries (independent images), and every
  dimension, map rank and check is a rank of their integer chains.

* The oracle route works with chain subspaces: sparse chains with
  Fraction entries, kept as reduced echelon bases by :class:`Subspace`,
  which makes dimensions, sums, intersections, kernels and preimages
  cheap and deterministic.  Only the chain-subspace oracle is built on
  it, independently of the engine route.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .cells import CellComplex, CellSet, NotFaceClosed

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


def restrict_chain(chain: Chain, keep: CellSet) -> Chain:
    """Project a chain onto the coordinates of a cell set."""
    return {cid: coeff for cid, coeff in chain.items() if cid in keep}


def _add_scaled(target: Chain, coeff: Fraction, source: Chain) -> Chain:
    out = dict(target)
    for key, value in source.items():
        new = out.get(key, Fraction(0)) + coeff * value
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


class _Eliminator:
    """Incremental reduced echelon form over sparse Fraction vectors.

    Rows are kept fully reduced with pivot coefficient one, ordered by
    pivot key; combination tracking ties every row back to the input
    vectors, which yields kernels for free.
    """

    def __init__(self, track: bool = False):
        self.rows: List[Tuple[int, Chain, Optional[Chain]]] = []
        self.track = track
        self.count = 0

    def _reduce(self, vec: Chain, combo: Optional[Chain]):
        for pivot, basis_vec, basis_combo in self.rows:
            coeff = vec.get(pivot)
            if coeff:
                vec = _add_scaled(vec, -coeff, basis_vec)
                if combo is not None:
                    combo = _add_scaled(combo, -coeff, basis_combo)
        return vec, combo

    def add(self, vec: Chain) -> Optional[Chain]:
        """Insert a vector; returns its input combination if dependent.

        The returned dict maps input indices to coefficients of a vanishing
        combination (with this vector's own index included), or None when
        the vector was independent and the rank grew.
        """
        index = self.count
        self.count += 1
        combo = {index: Fraction(1)} if self.track else None
        vec, combo = self._reduce(dict(vec), combo)
        if not vec:
            return combo if self.track else {}
        pivot = min(vec)
        scale = Fraction(1) / vec[pivot]
        vec = {k: v * scale for k, v in vec.items()}
        if combo is not None:
            combo = {k: v * scale for k, v in combo.items()}
        updated = []
        for p, bvec, bcombo in self.rows:
            c = bvec.get(pivot)
            if c:
                bvec = _add_scaled(bvec, -c, vec)
                if bcombo is not None:
                    bcombo = _add_scaled(bcombo, -c, combo)
            updated.append((p, bvec, bcombo))
        updated.append((pivot, vec, combo))
        updated.sort(key=lambda row: row[0])
        self.rows = updated
        return None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> List[Chain]:
        return [vec for _, vec, _ in self.rows]

    def residual(self, vec: Chain) -> Chain:
        reduced, _ = self._reduce(dict(vec), None)
        return reduced


def rank_of(vectors: Iterable[Chain]) -> int:
    elim = _Eliminator()
    for vec in vectors:
        elim.add(vec)
    return elim.rank


def kernel_basis(vectors: Sequence[Chain]) -> List[Chain]:
    """Basis of vanishing combinations of the given vectors.

    Each result maps input index to coefficient; results are independent.
    """
    elim = _Eliminator(track=True)
    out = []
    for vec in vectors:
        combo = elim.add(vec)
        if combo is not None:
            out.append(combo)
    return out


class Subspace:
    """A subspace of a chain space, held as a reduced echelon basis."""

    def __init__(self, vectors: Iterable[Chain] = ()):
        self._elim = _Eliminator()
        for vec in vectors:
            self._elim.add(vec)

    @property
    def dim(self) -> int:
        return self._elim.rank

    def basis(self) -> List[Chain]:
        return self._elim.basis()

    def contains(self, vec: Chain) -> bool:
        return not self._elim.residual(vec)

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


def _combine(basis: Sequence[Chain], combos: Iterable[Chain]) -> List[Chain]:
    """The chain sum of coeff * basis[idx] over each combination.

    Indices past the end of the basis are skipped: a kernel combination of
    basis vectors followed by other vectors yields its basis part.  Integer
    inputs give integer chains.
    """
    out = []
    for combo in combos:
        vec: Chain = {}
        for idx, coeff in combo.items():
            if idx < len(basis):
                for key, value in basis[idx].items():
                    vec[key] = vec.get(key, 0) + coeff * value
        out.append({key: value for key, value in vec.items() if value})
    return out


def unit_chains(ids: Iterable[int]) -> List[Chain]:
    return [{cid: Fraction(1)} for cid in sorted(ids)]


# -- Betti numbers -------------------------------------------------------


def _require_face_closed(c: CellComplex, s: CellSet, what: str):
    if not c.is_face_closed(s):
        raise NotFaceClosed(f"{what} is not closed under faces")


def _ids_of_dim(c: CellComplex, s: CellSet, j: int) -> List[int]:
    return [cid for cid in sorted(s) if c.cell(cid).dim == j]


def _boundary_columns(c: CellComplex, ids: Iterable[int]) -> List[IntColumn]:
    """Integer boundary columns of the given cells.

    Repeated faces are summed, so a CW boundary such as a + b - a + b
    gives {b: 2}; faces whose coefficients cancel are dropped.
    """
    out = []
    for cid in ids:
        col: IntColumn = {}
        for k, face in c.cell(cid).boundary:
            col[face] = col.get(face, 0) + k
        out.append({face: k for face, k in col.items() if k})
    return out


def _sub_scaled(a: int, col: IntColumn, b: int,
                pivot: IntColumn) -> IntColumn:
    """a*col - b*pivot, without zero entries."""
    out = dict(col) if a == 1 else {key: a * v for key, v in col.items()}
    for key, v in pivot.items():
        new = out.get(key, 0) - b * v
        if new:
            out[key] = new
        else:
            del out[key]
    return out


def _integer_reduce(columns: Iterable[IntColumn], kernel: bool = False
                    ) -> Tuple[Dict[int, int], List[IntColumn]]:
    """Fraction-free elimination of sparse integer columns.

    After Bareiss (1968): a column is reduced at its lowest row key against
    the stored pivot column there, as a*column - b*pivot, and its content
    gcd is divided out after every step.  Each step cancels the lowest key,
    so a column either runs out or lands on a free key and becomes the
    pivot there.  Integers only, no back-reduction.

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
    block.
    """
    pivots: Dict[int, Tuple[IntColumn, Optional[IntColumn]]] = {}
    independent: Dict[int, int] = {}
    kernels: List[IntColumn] = []
    for index, col in enumerate(columns):
        combo = {index: 1} if kernel else None
        while col:
            low = min(col)
            if low not in pivots:
                pivots[low] = (col, combo)
                independent[index] = low
                break
            pivot, pivot_combo = pivots[low]
            g = gcd(pivot[low], col[low])
            a, b = pivot[low] // g, col[low] // g
            col = _sub_scaled(a, col, b, pivot)
            if combo is None:
                content = gcd(*col.values())
            else:
                combo = _sub_scaled(a, combo, b, pivot_combo)
                content = gcd(*col.values(), *combo.values())
            if content > 1:
                col = {key: v // content for key, v in col.items()}
                if combo is not None:
                    combo = {key: v // content for key, v in combo.items()}
        else:
            # the column ran out: its combination is a kernel vector
            if combo is not None:
                kernels.append(combo)
    return independent, kernels


def _integer_rank(columns: Iterable[IntColumn]) -> int:
    """Rank over the rationals of sparse integer columns."""
    return len(_integer_reduce(columns)[0])


def cycle_space(c: CellComplex, s: CellSet, j: int) -> Subspace:
    """Cycles of degree j supported on a face-closed cell set."""
    ids = _ids_of_dim(c, s, j)
    if j == 0:
        return Subspace(unit_chains(ids))
    units = unit_chains(ids)
    combos = kernel_basis([chain_boundary(c, u) for u in units])
    return Subspace(_combine(units, combos))


def boundary_space(c: CellComplex, s: CellSet, j: int) -> Subspace:
    """Boundaries of degree j: images of the (j+1)-cells in the set."""
    return Subspace(chain_boundary(c, {cid: Fraction(1)})
                    for cid in _ids_of_dim(c, s, j + 1))


def betti(c: CellComplex, s: CellSet, j: int) -> int:
    """Ordinary rational Betti number of the subcomplex on s.

    n_j - rank d_j - rank d_(j+1), all on the cells of s.
    """
    s = frozenset(s)
    _require_face_closed(c, s, "cell set")
    cells = _ids_of_dim(c, s, j)
    return (len(cells) - _integer_rank(_boundary_columns(c, cells))
            - _integer_rank(_boundary_columns(c, _ids_of_dim(c, s, j + 1))))


def image_betti(c: CellComplex, small: CellSet, big: CellSet, j: int) -> int:
    """Rank of the induced map on degree-j homology from small into big.

    It is dim Z_j(small) minus the part of Z_j(small) that bounds in big.
    Boundaries are cycles, so that part is B_j(big) meet C_j(small): the
    boundaries that vanish under the projection pi onto the j-cells of big
    outside small.  Hence, with ranks of integer boundary matrices,

        n_j(small) - rank d_j|small_j - rank d_(j+1)|big_(j+1)
                   + rank(pi o d_(j+1)|big_(j+1)).
    """
    small, big = frozenset(small), frozenset(big)
    c.require_nested(small, big)
    _require_face_closed(c, small, "the smaller cell set")
    _require_face_closed(c, big, "the larger cell set")
    cells = _ids_of_dim(c, small, j)
    if not cells:
        return 0  # no j-cells, no degree-j homology to map
    outside = frozenset(_ids_of_dim(c, big, j)).difference(small)
    above = _boundary_columns(c, _ids_of_dim(c, big, j + 1))
    projected = [{face: k for face, k in col.items() if face in outside}
                 for col in above]
    return (len(cells) - _integer_rank(_boundary_columns(c, cells))
            - _integer_rank(above) + _integer_rank(projected))


# -- one reduction read at every cut -------------------------------------

# the cells of each dimension as (level, id), ascending; the cut at level
# t holds the cells of level t and above
Graded = List[List[Tuple[int, int]]]


def _pivot_levels(c: CellComplex, graded: Graded, j: int,
                  cut: Optional[int] = None) -> List[Tuple[int, int]]:
    """Reduce d_j once: the (column level, row level) of each pivot.

    Columns run by descending level and row keys by ascending level, so at
    any cut the columns in it and the rows below it are leading runs, and
    the pivots inside such a block count its rank.  With a cut, only the
    columns in it are reduced.  Every j-cell's faces must be (j-1)-cells.
    """
    keys = {cid: key for key, (_, cid) in enumerate(graded[j - 1])}
    for _, cid in graded[j]:
        if any(face not in keys for _, face in c.cell(cid).boundary):
            raise NotFaceClosed(f"cell {cid} has a face that is not a "
                                f"{j - 1}-cell")
    cols = [(level, cid) for level, cid in reversed(graded[j])
            if cut is None or level >= cut]
    pivots, _ = _integer_reduce(
        {keys[face]: k for face, k in col.items()}
        for col in _boundary_columns(c, [cid for _, cid in cols]))
    return [(cols[col][0], graded[j - 1][key][0])
            for col, key in pivots.items()]


def _image_dims(graded: Graded, pivots: Dict[int, List[Tuple[int, int]]],
                cut: int) -> Dict[int, int]:
    """Per degree j, the rank of the map induced on homology by including
    level j of the filtration at the cut into level j+1.

    That is image_betti's |T_j| - rank d_j|T_j - rank d_(j+1)|T_(j+1)
    + rank(pi_K o d_(j+1)|T_(j+1)), with T the cells in the cut and K the
    others; pivots[j] holds the pivot levels of d_j.
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
