"""Exact homology of cell complexes over the rationals.

Nothing here is a numerical estimate; there are two exact routes.

* The engine route works on integer boundary matrices.  Boundary
  coefficients are integers, so :func:`_integer_reduce` eliminates sparse
  integer columns fraction-free (gcd-normalised, after Bareiss 1968): it
  gives their rank over the rationals, the input columns that are
  independent and, on request, primitive integer kernel combinations.
  :func:`betti` (the ordinary Betti number of a face-closed cell set) and
  :func:`image_betti` (the rank of the map induced on homology by
  including one cell set into a larger one) are a cell count combined
  with such ranks, and the pair theory in :mod:`vanhom.vanishing` holds
  every space as an independent integer spanning set and reads every
  dimension and check off such ranks.

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


# -- matrices ------------------------------------------------------------


class RationalMatrix:
    """A matrix over the rationals with explicit row and column keys."""

    def __init__(self, rows: Sequence[int], cols: Sequence[int],
                 entries: Dict[Tuple[int, int], Fraction]):
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.entries = {k: Fraction(v) for k, v in entries.items() if v != 0}

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def entry(self, row: int, col: int) -> Fraction:
        return self.entries.get((row, col), Fraction(0))

    def column(self, col: int) -> Chain:
        return {r: v for (r, c), v in self.entries.items() if c == col}

    def columns(self) -> List[Chain]:
        out: Dict[int, Chain] = {c: {} for c in self.cols}
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return [out[c] for c in self.cols]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              {(c, r): v for (r, c), v in self.entries.items()})

    def rank(self) -> int:
        return rank_of(self.columns())

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)


def boundary_matrix(c: CellComplex, j: int,
                    domain: Optional[CellSet] = None,
                    codomain: Optional[CellSet] = None,
                    project: bool = False) -> RationalMatrix:
    """Degree-j boundary matrix, columns indexed by j-cells.

    With ``project=True`` entries whose face falls outside the codomain are
    dropped (the boundary followed by projection onto the codomain's
    span); otherwise such an entry is an error.
    """
    domain = frozenset(domain) if domain is not None else c.cell_ids()
    codomain = frozenset(codomain) if codomain is not None else c.cell_ids()
    cols = [cid for cid in sorted(domain) if c.cell(cid).dim == j]
    rows = [cid for cid in sorted(codomain) if c.cell(cid).dim == j - 1]
    rowset = frozenset(rows)
    entries: Dict[Tuple[int, int], Fraction] = {}
    for cid in cols:
        for k, face in c.cell(cid).boundary:
            if face not in rowset:
                if project:
                    continue
                raise NotFaceClosed(
                    f"face {face} of cell {cid} is outside the codomain")
            entries[(face, cid)] = (entries.get((face, cid), Fraction(0))
                                    + Fraction(k))
    return RationalMatrix(rows, cols, entries)


def rank(m: RationalMatrix) -> int:
    return m.rank()


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
                    ) -> Tuple[List[int], List[IntColumn]]:
    """Fraction-free elimination of sparse integer columns.

    After Bareiss (1968): a column is reduced at its lowest row key against
    the stored pivot column there, as a*column - b*pivot, and its content
    gcd is divided out after every step.  Each step cancels the lowest key,
    so a column either runs out or lands on a free key and becomes the
    pivot there.  Integers only, no back-reduction.

    Returns the indices of the input columns that became pivots (they are
    independent and span what all the columns span; their count is the
    rank over the rationals) and, with ``kernel=True``, one integer kernel
    combination {input index: coefficient} per column that ran out.  The
    combination rides along through the same steps, the gcd is divided out
    of the column and the combination jointly, so every combination is
    primitive; each holds its own column's index and earlier ones only, so
    they are independent and span the kernel.
    """
    pivots: Dict[int, Tuple[IntColumn, Optional[IntColumn]]] = {}
    independent: List[int] = []
    kernels: List[IntColumn] = []
    for index, col in enumerate(columns):
        combo = {index: 1} if kernel else None
        while col:
            low = min(col)
            if low not in pivots:
                pivots[low] = (col, combo)
                independent.append(index)
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
