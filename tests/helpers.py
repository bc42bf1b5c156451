"""Shared generators and independent mini-oracles for the test suite."""

import itertools
import re
import reprlib
from fractions import Fraction
from math import gcd
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from vanhom import (INF, Cell, CellComplex, CellSet, ChainSubspaceComplex,
                    ExcisionReport, ExtRational, GeometricComplex,
                    IndeterminateAtPrecision, LesNode, LesReport,
                    NotFaceClosed, PairReport,
                    PuiseuxSeries, RateAnnotation, SimplicialBuilder,
                    Subspace, VanishingBettiTable, Velocity, build_torus,
                    chain_boundary, constant, is_thin, rank_of, series,
                    t_power, unit_chains)
from vanhom.homology import (Chain, IntColumn, _boundary_columns, _combine,
                             _integer_reduce, kernel_basis)
from vanhom.cells import validate
from vanhom.document import (_PAIRS, FORMAT_TAG, ID_TEXT, ComplexDocument,
                             DocumentError, _check_label, _integer,
                             _parse_rate, _vertex_supports)
from vanhom.puiseux import (_EXP, _TAIL, _TERM, SeriesParseError,
                            _parse_exponent)
from vanhom.thinness import (_integer_series, _MinorTable, _scales,
                             simplex_rates)
from vanhom.vanishing import _euler_from_dims, _Pair

RATE_CHOICES = (Fraction(0), Fraction(1), Fraction(2), Fraction(3))


def random_complex(rng, max_vertices=6, max_cells=24, rates=RATE_CHOICES):
    """A random face-closed simplicial complex with random collapse rates.

    Edges are sprinkled over a small vertex set, triangles over complete
    edge triples, tetrahedra over complete triangle quadruples; everything
    positive-dimensional gets a random rate.
    """
    nv = rng.randint(3, max_vertices)
    b = SimplicialBuilder()
    for i in range(nv):
        b.add_vertex(i)
    count = nv
    present = set()

    def room():
        return count < max_cells

    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    rng.shuffle(pairs)
    for pair in pairs:
        if room() and rng.random() < 0.6:
            b.add_simplex(pair, rate=rng.choice(rates))
            present.add(frozenset(pair))
            count += 1
    triples = [(i, j, k)
               for i in range(nv) for j in range(i + 1, nv)
               for k in range(j + 1, nv)]
    rng.shuffle(triples)
    for (i, j, k) in triples:
        faces = [frozenset(p) for p in ((i, j), (j, k), (i, k))]
        if room() and all(f in present for f in faces) and rng.random() < 0.5:
            b.add_simplex((i, j, k), rate=rng.choice(rates))
            present.add(frozenset((i, j, k)))
            count += 1
    quads = [(i, j, k, l)
             for i in range(nv) for j in range(i + 1, nv)
             for k in range(j + 1, nv) for l in range(k + 1, nv)]
    rng.shuffle(quads)
    for quad in quads:
        faces = [frozenset(quad[:m] + quad[m + 1:]) for m in range(4)]
        if room() and all(f in present for f in faces) and rng.random() < 0.5:
            b.add_simplex(quad, rate=rng.choice(rates))
            count += 1
    return b.complex(), dict(b.rates)


def random_rate_torus(rng, n, rates=RATE_CHOICES):
    """build_torus(0, 2, n) with a random rate on every cell."""
    c, annotation = build_torus(0, 2, n)
    return c, {cid: rng.choice(rates) for cid in sorted(annotation)}


def projective_plane() -> CellComplex:
    """RP^2 as a CW complex: one vertex, one loop e, a 2-cell with boundary 2e.

    Rational Betti numbers (1, 0, 0); over the integers H_1 is Z/2.
    """
    return CellComplex([Cell(0, 0),
                        Cell(1, 1, ((-1, 0), (1, 0)), "e"),
                        Cell(2, 2, ((2, 1),), "f")])


def klein_bottle() -> CellComplex:
    """One vertex, loops a and b, a 2-cell glued along a + b - a + b.

    The 2-cell lists a twice with opposite signs and b twice, so its
    boundary is 2b.  Rational Betti numbers (1, 1, 0).
    """
    return CellComplex([Cell(0, 0),
                        Cell(1, 1, ((-1, 0), (1, 0)), "a"),
                        Cell(2, 1, ((-1, 0), (1, 0)), "b"),
                        Cell(3, 2, ((1, 1), (1, 2), (-1, 1), (1, 2)), "f")])


def random_subcomplex(rng, c: CellComplex, bias=0.45) -> CellSet:
    """Face closure of a random cell sample (possibly empty)."""
    seed = [cid for cid in c.cell_ids() if rng.random() < bias]
    return c.face_closure(seed)


def coface_closure(c: CellComplex, seed) -> CellSet:
    """The seed cells and every cell having a face among them, repeatedly."""
    cut = set(seed)
    changed = True
    while changed:
        changed = False
        for cell in c.cells():
            if cell.id in cut:
                continue
            if any(face in cut for _, face in cell.boundary):
                cut.add(cell.id)
                changed = True
    return frozenset(cut)


def vertex_support(c: CellComplex, cid: int) -> CellSet:
    """All vertices under a cell, via iterated faces: the reference for
    the one-pass supports the document loader derives."""
    return frozenset(i for i in c.face_closure([cid])
                     if c.cell(i).dim == 0)


def random_cut(rng, c: CellComplex, sub: CellSet):
    """A random removable set inside sub, or None if the draw fails.

    Grown as the coface closure of one seed cell; rejected when it leaks
    out of the subcomplex.
    """
    inside = sorted(sub)
    if not inside:
        return None
    cut = coface_closure(c, [rng.choice(inside)])
    if not cut <= sub:
        return None
    return cut


def component_count(c: CellComplex, s: CellSet) -> int:
    """Connected components of a face-closed set, by union-find."""
    parent = {cid: cid for cid in s if c.cell(cid).dim == 0}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cid in s:
        cell = c.cell(cid)
        if cell.dim != 1:
            continue
        ends = [face for _, face in cell.boundary]
        a, b = find(ends[0]), find(ends[-1])
        if a != b:
            parent[a] = b
    return len({find(x) for x in parent})


def classical_relative_betti(c: CellComplex, sub: CellSet, j: int) -> int:
    """Ordinary rational homology of the pair, straight from the quotient.

    Relative cycles are chains whose boundary falls into the subcomplex;
    relative boundaries are ordinary boundaries plus subcomplex chains.
    """
    sub = frozenset(sub)
    units = [{cid: Fraction(1)} for cid in sorted(c.cell_ids())
             if c.cell(cid).dim == j]
    target = Subspace({cid: Fraction(1)} for cid in sorted(sub)
                      if c.cell(cid).dim == j - 1)
    space = Subspace(units)
    if j == 0:
        rel_cycles = space
    else:
        rel_cycles = space.map_preimage(
            lambda x: chain_boundary(c, x), target)
    rel_bounds = Subspace(
        [chain_boundary(c, {cid: Fraction(1)})
         for cid in sorted(c.cell_ids()) if c.cell(cid).dim == j + 1]
        + [{cid: Fraction(1)} for cid in sorted(sub)
           if c.cell(cid).dim == j])
    meet = rel_bounds.intersection(rel_cycles)
    return rel_cycles.dim - meet.dim


def geometric_torus():
    """The product-of-triangles surface embedded over the Puiseux field.

    First factor: a rational triangle of unit size; second factor: the
    same triangle scaled by T^2.  Ambient dimension four.
    """
    gon = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
           (Fraction(-1), Fraction(-1))]
    scale = t_power(2)
    verts = {}
    for j in range(3):
        for i in range(3):
            ax, ay = gon[i]
            bx, by = gon[j]
            verts[3 * j + i] = (constant(ax), constant(ay),
                               scale * constant(bx), scale * constant(by))

    def v(i, j):
        return (j % 3) * 3 + (i % 3)

    by_set = {}
    for j in range(3):
        for i in range(3):
            for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i + 1, j + 1), v(i, j + 1))):
                by_set[frozenset(tri)] = tri
                for k in range(3):
                    face = tuple(x for idx, x in enumerate(tri) if idx != k)
                    by_set.setdefault(frozenset(face), face)
    simplices = sorted(by_set.values(), key=lambda s: (len(s), s))
    return GeometricComplex(ambient_dim=4, vertices=verts,
                            simplices=simplices)


def _cofactor_det(matrix):
    # Laplace expansion along the first row, in PuiseuxSeries arithmetic
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for k in range(n):
        minor = [[row[j] for j in range(n) if j != k] for row in matrix[1:]]
        piece = matrix[0][k] * _cofactor_det(minor)
        if k % 2:
            piece = -piece
        total = piece if total is None else total + piece
    return total


def reference_invariant_factor_valuations(matrix):
    """invariant_factor_valuations by cofactor expansion in PuiseuxSeries.

    Every minor of every size is expanded afresh, with no memoising and no
    integer scaling; the library's integer kernel must agree value for
    value and raise IndeterminateAtPrecision in the same cases.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    r = min(nrows, ncols)
    out = []
    prev = Fraction(0)
    for size in range(1, r + 1):
        best = INF
        pending_floor = INF
        for rows in itertools.combinations(range(nrows), size):
            for cols in itertools.combinations(range(ncols), size):
                det = _cofactor_det([[matrix[i][j] for j in cols]
                                     for i in rows])
                try:
                    val = det.valuation()
                except IndeterminateAtPrecision:
                    pending_floor = min(pending_floor, det.precision)
                    continue
                if val < best:
                    best = val
        if pending_floor is not INF and not best < pending_floor:
            raise IndeterminateAtPrecision(
                f"a size-{size} minor is undetermined below its truncation "
                f"and could dominate")
        if best is INF:
            out.extend([INF] * (r - size + 1))
            return out
        out.append(best - prev)
        prev = best
    return out


def embedded_slab():
    """One unit cube in 3-space, T^(3/2) thick, cut into six Kuhn tetrahedra.

    The coordinates are multi-term series with fractional exponents and
    rational coefficients, so the rates take several distinct values.
    """
    ux = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1))]
    uy = [(Fraction(0), Fraction(1)), (Fraction(2, 3), Fraction(-2)),
          (Fraction(5, 3), Fraction(1, 3))]
    uz = [(Fraction(3, 2), Fraction(1)), (Fraction(11, 6), Fraction(1))]

    def scaled(unit, value):
        return series([(e, value * c) for e, c in unit])

    def vid(i, j, k):
        return 4 * k + 2 * j + i

    verts = {vid(i, j, k): (scaled(ux, i), scaled(uy, j), scaled(uz, k))
             for i in (0, 1) for j in (0, 1) for k in (0, 1)}
    simplices = set()
    for order in itertools.permutations(range(3)):
        point = [0, 0, 0]
        path = [vid(*point)]
        for axis in order:
            point[axis] += 1
            path.append(vid(*point))
        for size in (2, 3, 4):
            simplices.update(itertools.combinations(path, size))
    return GeometricComplex(ambient_dim=3, vertices=verts,
                            simplices=sorted(simplices,
                                             key=lambda s: (len(s), s)))


def torus_pair(n):
    """build_torus(0, 2, n) with a meridian circle and a band around it.

    The band is the closure of the triangles in square columns 0 and 1;
    its cut (the band minus the meridians at columns 0 and 2) is
    removable.  Returns (complex, rates, meridian, band, cut).
    """
    c, rates = build_torus(0, 2, n)

    def column(prefix, col):
        return [cell.id for cell in c.cells()
                if cell.label.startswith(f"{prefix}({col},")]

    meridian = frozenset(column("v", 0) + column("u", 0))
    band = c.face_closure([cid for col in (0, 1) for prefix in ("t1", "t2")
                           for cid in column(prefix, col)])
    rim = meridian | frozenset(column("v", 2) + column("u", 2))
    return c, rates, meridian, band, band - rim


def quotient_complex(c: CellComplex, sub: CellSet) -> CellComplex:
    """X∖S: the cells outside sub, each with its faces in sub dropped."""
    return CellComplex(
        Cell(cell.id, cell.dim,
             tuple((k, f) for k, f in cell.boundary if f not in sub),
             cell.label)
        for cell in c.cells() if cell.id not in sub)


# -- reference routes of the earlier design ------------------------------
#
# Betti numbers and image ranks of cell sets, the thinness filtration as
# cell sets, minor valuations of PuiseuxSeries matrices and the attached
# chain complex.  The library computes the same numbers as pivot counts
# of one reduction per boundary matrix; the tests compare the two.


class NotNested(ValueError):
    """Expected one cell set inside another."""


def disjoint_union(a: CellComplex, b: CellComplex) -> CellComplex:
    """Side-by-side union; b's ids are shifted above a's."""
    shift = max(a.cell_ids(), default=-1) + 1
    cells = list(a.cells())
    for cell in b.cells():
        cells.append(Cell(cell.id + shift, cell.dim,
                          tuple((k, f + shift) for k, f in cell.boundary),
                          cell.label))
    return CellComplex(cells)


@dataclass(frozen=True)
class Filtration:
    """Nested cell sets X_0 = empty subset ... subset X_(d+1) = everything."""

    velocity: Velocity
    levels: Tuple[CellSet, ...]

    def __len__(self):
        return len(self.levels)

    def level(self, j: int) -> CellSet:
        return self.levels[j]


def filtration(c: CellComplex, a: RateAnnotation, v: Velocity) -> Filtration:
    """Level j keeps all cells of dim < j plus the thin cells of dim j.

    Cells of dimension above j never enter level j, thin or not.
    """
    d = c.dim
    levels = []
    for j in range(d + 2):
        keep = set()
        for cell in c.cells():
            if cell.dim < j:
                keep.add(cell.id)
            elif cell.dim == j and is_thin(c, a, cell.id, v):
                keep.add(cell.id)
        levels.append(frozenset(keep))
    return Filtration(velocity=v, levels=tuple(levels))


def invariant_factor_valuations(
        matrix: Sequence[Sequence[PuiseuxSeries]]) -> List[ExtRational]:
    """Successive minor-valuation differences nu_1..nu_r of a matrix.

    delta_i is the smallest valuation of an i-by-i minor determinant,
    delta_0 = 0, and nu_i = delta_i - delta_(i-1); r = min(#rows, #cols).
    Once every minor of some size cancels to exactly zero, the remaining
    entries are infinite.  A minor whose leading term is hidden by series
    truncation raises IndeterminateAtPrecision.

    The minors are Laplace-expanded along the first row over the integers,
    in the minor table simplex_rates keeps:
    with T = S^D every exponent and precision is an integer (valuations
    come out multiplied by D and are divided back), and rows multiplied by
    the coefficients' common denominator L scale a size-i minor by L^i,
    which moves no valuation and no zero test.  Sums and products keep
    the truncation rules of PuiseuxSeries, so the values, and the cases
    that raise, are those of cofactor expansion in PuiseuxSeries.
    """
    d, scale = _scales(x for row in matrix for x in row)
    rows = {i: [_integer_series(x, d, scale) for x in row]
            for i, row in enumerate(matrix)}
    ncols = len(matrix[0]) if matrix else 0
    table = _MinorTable(rows, ncols, [tuple(rows)])
    return [nu if nu is INF else Fraction(nu, d)
            for nu in table.valuations(tuple(rows))]


def restrict_chain(chain: Chain, keep: CellSet) -> Chain:
    """Project a chain onto the coordinates of a cell set."""
    return {cid: coeff for cid, coeff in chain.items() if cid in keep}


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    return Subspace(u.basis() + w.basis())


def contains_subspace(u: Subspace, w: Subspace) -> bool:
    """Whether w lies in u."""
    return all(u.contains(x) for x in w.basis())


def _ids_of_dim(c: CellComplex, s: CellSet, j: int) -> List[int]:
    return [cid for cid in sorted(s) if c.cell(cid).dim == j]


def _require_face_closed(c: CellComplex, s: CellSet, what: str):
    if not c.is_face_closed(s):
        raise NotFaceClosed(f"{what} is not closed under faces")


def _integer_rank(columns: Iterable[IntColumn]) -> int:
    """Rank over the rationals of sparse integer columns."""
    return len(_integer_reduce(columns)[0])


# -- the reference integer kernel ---------------------------------------
# The engine's elimination kernel as it was before its steps got fast
# paths: a gcd and a new dict per step.  The engine's kernel must return
# the same pivots, echelon columns and kernel combinations, and it takes
# the same steps, so a test can count the engine's elimination steps by
# running it on this one: _sub_scaled is called once per step of a
# column (and once more for its combination when kernel=True).


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


def reference_integer_reduce(columns: Iterable[IntColumn],
                             kernel: bool = False,
                             echelon: Optional[Dict[int, IntColumn]] = None
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
        while col:
            low = min(col)
            pivot = echelon.get(low)
            if pivot is None:
                echelon[low] = col
                combos[low] = combo
                independent[index] = low
                break
            g = gcd(pivot[low], col[low])
            a, b = pivot[low] // g, col[low] // g
            col = _sub_scaled(a, col, b, pivot)
            if combo is None:
                content = gcd(*col.values())
            else:
                combo = _sub_scaled(a, combo, b, combos.get(low, {}))
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
    cells, identity = _ids_of_dim(c, s, j), {cid: cid for cid in s}
    return (len(cells) - _integer_rank(_boundary_columns(c, cells, identity))
            - _integer_rank(_boundary_columns(c, _ids_of_dim(c, s, j + 1),
                                              identity)))


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
    if not small <= big:
        raise NotNested("expected the first cell set inside the second")
    _require_face_closed(c, small, "the smaller cell set")
    _require_face_closed(c, big, "the larger cell set")
    cells = _ids_of_dim(c, small, j)
    if not cells:
        return 0  # no j-cells, no degree-j homology to map
    outside = frozenset(_ids_of_dim(c, big, j)).difference(small)
    identity = {cid: cid for cid in big}
    above = _boundary_columns(c, _ids_of_dim(c, big, j + 1), identity)
    projected = [{face: k for face, k in col.items() if face in outside}
                 for col in above]
    return (len(cells) - _integer_rank(_boundary_columns(c, cells, identity))
            - _integer_rank(above) + _integer_rank(projected))


def vanishing_euler(t: VanishingBettiTable) -> int:
    """Alternating sum of the positive-degree dimensions."""
    return _euler_from_dims(t.dims)


def attached_chain_complex(c: CellComplex, a: RateAnnotation, sub: CellSet,
                           v: Velocity) -> ChainSubspaceComplex:
    """Thin chains attached to a subcomplex.

    Degree j holds the chains of the ambient thin complex (thin j-chains
    plus boundaries of thin (j+1)-chains) that lie in the subcomplex.  This
    is the piece of the ambient thin complex that the pair quotients away.
    """
    pair = _Pair(c, a, sub, v)
    return ChainSubspaceComplex(c, {
        j: Subspace(map(pair.cell_chain, pair.chains["attached"][j].values()))
        for j in pair.degrees})


# -- reference pair route ------------------------------------------------
#
# The pair theory as chain subspaces over Fraction: intersections, map
# kernels and preimages, and class coordinates solved against tracked
# eliminations.  The library computes the same reports as integer ranks;
# the two must agree report for report.


def _ref_thin_ids(c, a, v, j):
    return [cell.id for cell in c.cells_of_dim(j) if is_thin(c, a, cell.id, v)]


class _RefPairChains:
    """Chain subspaces for a pair, shared by the relative computations."""

    def __init__(self, c, a, sub, v):
        self.complex = c
        self.sub = frozenset(sub)
        d = max(c.dim, 0)
        self.degrees = range(d + 1)
        thin = {j: _ref_thin_ids(c, a, v, j) for j in range(d + 2)}
        self.bnd_thin = {
            j: [chain_boundary(c, u) for u in unit_chains(thin[j])]
            for j in range(d + 2)}
        # chains on thin cells whose boundary misses the thick cells
        # outside the subcomplex
        relfree = {}
        for j in range(d + 2):
            bad = frozenset(
                cell.id for cell in c.cells_of_dim(j - 1)
                if cell.id not in self.sub and not is_thin(c, a, cell.id, v))
            space = Subspace(unit_chains(thin[j]))
            relfree[j] = space.map_kernel(
                lambda x, bad=bad: restrict_chain(chain_boundary(c, x), bad))
        self.prime, self.attached, self.zrel, self.rel_bounds = {}, {}, {}, {}
        for j in self.degrees:
            self.prime[j] = Subspace(unit_chains(thin[j])
                                     + self.bnd_thin[j + 1])
        for j in self.degrees:
            in_sub = [{cid: Fraction(1)} for cid in thin[j]
                      if cid in self.sub]
            projected = [restrict_chain(chain_boundary(c, b), self.sub)
                         for b in relfree[j + 1].basis()]
            self.attached[j] = Subspace(in_sub + projected)
        for j in self.degrees:
            target = self.attached.get(j - 1, Subspace())
            self.zrel[j] = self.prime[j].map_preimage(
                lambda x: chain_boundary(c, x), target)
            self.rel_bounds[j] = subspace_sum(
                Subspace(self.bnd_thin[j + 1]), self.attached[j])

    def relative_dims(self):
        out = {}
        for j in self.degrees:
            meet = self.rel_bounds[j].intersection(self.zrel[j])
            out[j] = self.zrel[j].dim - meet.dim
        return out


class _RefHomologyCoords:
    """Representatives and class coordinates for one homology degree.

    The basis of the bounds and then that of the cycles are extended by
    units as in kernel_basis, so a cycle that depends on the vectors before
    it leads a row at its own unit; the other cycles are the
    representatives.  A chain of the span reduces to minus its coefficients
    on the independent vectors, at their units.
    """

    def __init__(self, bounds: Subspace, cycles: Subspace):
        vectors = bounds.basis() + cycles.basis()
        self._top = 1 + max((key for vec in vectors for key in vec),
                            default=0)
        unit = self._top + len(vectors) - 1  # the unit key of vector 0
        self._space = Subspace({**vec, unit - i: Fraction(1)}
                               for i, vec in enumerate(vectors))
        self.rep_units: List[int] = []
        self.reps: List[Chain] = []
        for i in range(bounds.dim, len(vectors)):
            if unit - i not in self._space._rows:
                self.rep_units.append(unit - i)
                self.reps.append(vectors[i])

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, cycle):
        left = self._space._reduce(cycle)
        if any(key >= self._top for key in cycle) or any(
                key < self._top for key in left):
            raise AssertionError("chain does not represent a class here")
        return [-left.get(key, Fraction(0)) for key in self.rep_units]


def _ref_matrix_rank(columns):
    return rank_of({i: v for i, v in enumerate(col) if v} for col in columns)


def _ref_apply(columns, vector, out_dim):
    out = [Fraction(0)] * out_dim
    for coeff, col in zip(vector, columns):
        if coeff:
            for i, v in enumerate(col):
                out[i] += coeff * v
    return out


class _RefPairComputation:
    """Everything about one pair at one velocity: dims, maps, exactness."""

    def __init__(self, c, a, sub, v):
        self.chains = pc = _RefPairChains(c, a, sub, v)
        ChainSubspaceComplex(c, pc.prime).assert_boundary_closed()
        ChainSubspaceComplex(c, pc.attached).assert_boundary_closed()

        def bd(x):
            return chain_boundary(c, x)

        self.attached_h: Dict[int, _RefHomologyCoords] = {}
        self.absolute_h: Dict[int, _RefHomologyCoords] = {}
        self.relative_h: Dict[int, _RefHomologyCoords] = {}
        for j in pc.degrees:
            above = pc.attached.get(j + 1, Subspace())
            self.attached_h[j] = _RefHomologyCoords(
                Subspace(bd(vec) for vec in above.basis()),
                pc.attached[j].map_kernel(bd))
            self.absolute_h[j] = _RefHomologyCoords(
                Subspace(pc.bnd_thin[j + 1]), pc.prime[j].map_kernel(bd))
            self.relative_h[j] = _RefHomologyCoords(pc.rel_bounds[j],
                                                    pc.zrel[j])
        # maps of the long sequence, as columns of class coordinates
        self.incl, self.quot, self.conn = {}, {}, {}
        for j in pc.degrees:
            self.incl[j] = [self.absolute_h[j].coords(rep)
                            for rep in self.attached_h[j].reps]
            self.quot[j] = [self.relative_h[j].coords(rep)
                            for rep in self.absolute_h[j].reps]
            if j >= 1:
                self.conn[j] = [self.attached_h[j - 1].coords(bd(rep))
                                for rep in self.relative_h[j].reps]
            else:
                self.conn[j] = [[] for _ in self.relative_h[j].reps]

    def dims(self, table):
        return {j: table[j].dim for j in self.chains.degrees}

    def nodes(self):
        out = []
        for j in reversed(list(self.chains.degrees)):
            incoming = self.conn.get(j + 1, [])
            out.append(self._node(j, "attached", self.attached_h[j].dim,
                                  incoming, self.incl[j]))
            out.append(self._node(j, "absolute", self.absolute_h[j].dim,
                                  self.incl[j], self.quot[j]))
            out.append(self._node(j, "relative", self.relative_h[j].dim,
                                  self.quot[j], self.conn[j]))
        return out

    def _node(self, degree, space, dim, incoming, outgoing):
        out_dim = len(outgoing[0]) if outgoing else 0
        composite_zero = all(
            not any(_ref_apply(outgoing, col, out_dim)) for col in incoming)
        rank_in = _ref_matrix_rank(incoming)
        rank_out = _ref_matrix_rank(outgoing)
        ok = composite_zero and (rank_in + rank_out == dim)
        return LesNode(degree, space, dim, rank_in, rank_out, ok)


def reference_pair(c, a, sub, v):
    """relative_vanishing and les_check by chain subspaces and class
    coordinates, from one computation: (PairReport, LesReport)."""
    comp = _RefPairComputation(c, a, frozenset(sub), v)
    nodes = comp.nodes()
    exact = all(n.ok for n in nodes)
    pair = PairReport(velocity=v, absolute=comp.dims(comp.absolute_h),
                      relative=comp.chains.relative_dims(),
                      attached=comp.dims(comp.attached_h), exact=exact)
    return pair, LesReport(velocity=v, nodes=nodes, exact=exact)


def reference_excision_check(c, a, sub, cut, v) -> ExcisionReport:
    """excision_check by subspace intersection; the cut must be removable."""
    sub, cut = frozenset(sub), frozenset(cut)
    full = _RefPairChains(c, a, sub, v).relative_dims()
    excised = _RefPairChains(c.restrict(c.cell_ids() - cut), a, sub - cut,
                             v).relative_dims()
    degrees = range(max(c.dim, 0) + 1)
    full_dims = {j: full.get(j, 0) for j in degrees}
    excised_dims = {j: excised.get(j, 0) for j in degrees}
    return ExcisionReport(velocity=v, full=full_dims, excised=excised_dims,
                          equal=full_dims == excised_dims)


_REF_TOKEN = re.compile(
    rf"\s*(O\(\s*T\s*(?:\^\s*(?P<oexp>{_EXP}))?\s*\)"
    rf"|T\s*\^\s*(?P<texp>{_EXP})"
    rf"|T"
    rf"|(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?"
    rf"|\*|\+|-)")


def _ref_tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SeriesParseError(f"unexpected input at {rest!r}")
        pos = m.end()
        tok = m.group(1)
        if tok.startswith("O"):
            oexp = m.group("oexp")
            tokens.append(("O", _parse_exponent(oexp)
                           if oexp is not None else Fraction(1)))
        elif m.group("texp") is not None:
            tokens.append(("T", _parse_exponent(m.group("texp"))))
        elif tok == "T":
            tokens.append(("T", Fraction(1)))
        elif m.group("num") is not None:
            den = m.group("den")
            if den is not None and int(den) == 0:
                raise SeriesParseError("zero denominator")
            tokens.append(("C", Fraction(int(m.group("num")),
                                         int(den) if den else 1)))
        else:
            tokens.append((tok, None))
    return tokens


def reference_parse_series(text: str):
    """parse_series by a regex tokenizer and a token state machine.

    The library parses in one pass of a term pattern; this route must
    accept and reject the same strings and give the same values.
    """
    tokens = _ref_tokenize(text)
    if not tokens:
        raise SeriesParseError("empty series")
    terms = []
    precision = INF
    sign = 1
    i = 0
    expect_term = True
    while i < len(tokens):
        kind, value = tokens[i]
        if expect_term:
            if kind == "-" and sign == 1:
                sign = -1
                i += 1
                continue
            if kind == "O":
                raise SeriesParseError("truncation must follow '+'")
            if kind == "C":
                coeff = sign * value
                exp = Fraction(0)
                if i + 1 < len(tokens) and tokens[i + 1][0] == "*":
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "T":
                        raise SeriesParseError("expected T after '*'")
                    exp = tokens[i + 2][1]
                    i += 2
            elif kind == "T":
                coeff = Fraction(sign)
                exp = value
            else:
                raise SeriesParseError(f"expected a term, got {kind!r}")
            terms.append((exp, coeff))
            sign = 1
            expect_term = False
            i += 1
        else:
            if kind == "+":
                if i + 1 < len(tokens) and tokens[i + 1][0] == "O":
                    if i + 2 != len(tokens):
                        raise SeriesParseError("truncation must come last")
                    precision = tokens[i + 1][1]
                    i += 2
                    break
                expect_term = True
            elif kind == "-":
                sign = -1
                expect_term = True
            else:
                raise SeriesParseError(f"expected '+' or '-', got {kind!r}")
            i += 1
    if expect_term and not (len(terms) == 0 and precision is not INF):
        raise SeriesParseError("dangling operator")
    if i != len(tokens):
        raise SeriesParseError("trailing input")
    seen = set()
    for exp, _ in terms:
        if exp in seen:
            raise SeriesParseError(f"duplicate exponent {exp}")
        seen.add(exp)
    # "0" and "0 + O(T^p)" come through as a single zero-coefficient term
    terms = [(e, c) for e, c in terms if c != 0]
    if precision is not INF and any(e >= precision for e, _ in terms):
        raise SeriesParseError("term at or beyond the stated truncation")
    return series(terms, precision=precision)


# -- the reference series parser ----------------------------------------
# parse_series as it was before it keyed its terms by integer pairs: one
# Fraction per coefficient, sign and exponent.  The library's parser must
# accept the same texts with the same values and refuse the others with
# the same message.


def _ref_fraction_exponent(text: str) -> Fraction:
    text = text.strip()
    if text.startswith("("):
        text = text[1:-1]
    try:
        return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise SeriesParseError(f"bad exponent {text!r}") from exc


def reference_fraction_parse_series(text: str) -> PuiseuxSeries:
    """parse_series with a Fraction built for every piece of a term."""
    terms: dict[Fraction, Fraction] = {}
    pos = 0
    while (m := _TERM.match(text, pos)) is not None:
        sign = m.group("sign") or ""
        if terms and not sign:
            raise SeriesParseError(
                f"expected '+' or '-' before {m.group().strip()!r}")
        if not terms and sign.startswith("+"):
            raise SeriesParseError(f"leading '+' in {m.group().strip()!r}")
        coeff = Fraction(-1 if sign.endswith("-") else 1)
        exp = Fraction(1)
        if m.group("num") is not None:
            den = int(m.group("den") or 1)
            if den == 0:
                raise SeriesParseError(
                    f"zero denominator in {m.group().strip()!r}")
            coeff *= Fraction(int(m.group("num")), den)
            if m.group("times") is None:
                exp = Fraction(0)
        exp_text = m.group("cexp") or m.group("texp")
        if exp_text is not None:
            exp = _ref_fraction_exponent(exp_text)
        if exp in terms:
            raise SeriesParseError(f"duplicate exponent {exp}")
        terms[exp] = coeff
        pos = m.end()
    tail = _TAIL.fullmatch(text, pos)
    if not terms or tail is None:
        rest = text[pos:].strip()
        raise SeriesParseError(
            f"unexpected input at {rest!r}" if rest else "empty series")
    precision: ExtRational = INF
    if tail.group("o") is not None:
        precision = _ref_fraction_exponent(tail.group("prec") or "1")
    # "0" and "0 + O(T^p)" come through as a single zero-coefficient term
    kept = [(e, c) for e, c in terms.items() if c != 0]
    if any(e >= precision for e, _ in kept):
        raise SeriesParseError("term at or beyond the stated truncation")
    return PuiseuxSeries(tuple(sorted(kept)), precision)


# -- the reference loader -----------------------------------------------
# _cells_from_data, _geometry_from_data and _read_document as they were
# before loading got its fast paths: every boundary pair through the
# checks that name it, a frozen dataclass per cell, the cells sorted for
# each walk, and coverage checked vertex by vertex.  The loader must find
# the same problems in the same order, and load the same document or
# raise the same text; only a missing "id", "dim" or "ambient_dim" is
# named differently (see test_document.REFERENCE_TEXTS).


@dataclass(frozen=True)
class _RefCell:
    id: int
    dim: int
    boundary: Tuple[Tuple[int, int], ...] = ()
    label: Optional[str] = None


def reference_cells_from_data(entries: list):
    """The complex the cell entries describe, and each entry's rate field."""
    cells, rates = [], {}
    for item in entries:
        if not isinstance(item, dict):
            # the entry can be as long as the document: echo a bounded part
            raise TypeError(
                f"cell entry {reprlib.repr(item)} is not an object")
        cid = item["id"]
        if type(cid) is not int:
            _integer(cid, "cell id")
        boundary = item.get("boundary", [])
        if not isinstance(boundary, (list, tuple)):
            raise TypeError(_PAIRS.format(cid))
        pairs = []  # checked and copied at once: the first bad pair is named
        for pair in boundary:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise TypeError(_PAIRS.format(cid))
            k, f = pair
            if type(k) is not int or type(f) is not int:
                _integer(k, "cell {}: boundary coefficient", cid=cid)
                _integer(f, "cell {}: face id", cid=cid)
            pairs.append((k, f))
        label = item.get("label")
        if "label" in item:
            _check_label(label, cid, TypeError)
        dim = item["dim"]
        if type(dim) is not int or dim < 0:
            _integer(dim, "cell {}: dim", 0, cid)
        cells.append(_RefCell(cid, dim, tuple(pairs), label))
        if "rate" in item:
            rates[cid] = item["rate"]
    return CellComplex(cells), rates


def reference_geometry_from_data(block, precision_cap) -> GeometricComplex:
    if not isinstance(block, dict):
        raise TypeError("geometry must be an object")
    ambient = _integer(block["ambient_dim"], "ambient_dim", 0)
    coords: Dict[int, Tuple[PuiseuxSeries, ...]] = {}
    vertices = block.get("vertices", {})
    if not isinstance(vertices, dict):
        raise TypeError("vertices must map vertex ids to coordinates")
    cap = None if precision_cap is None else Fraction(precision_cap)
    # grid rows and columns repeat their coordinates: parse each text once
    # and let equal texts share one (frozen) series
    parsed: Dict[str, PuiseuxSeries] = {}
    for key, texts in vertices.items():
        # only the canonical form, so no two keys name one vertex
        if not ID_TEXT.fullmatch(key):
            raise ValueError(
                f"vertex key {key!r} is not a canonical decimal integer")
        if not (isinstance(texts, list) and len(texts) == ambient
                and all(isinstance(text, str) for text in texts)):
            raise TypeError(
                f"vertex {key}: expected a list of {ambient} series strings")
        for text in texts:
            if text not in parsed:
                s = reference_fraction_parse_series(text)
                parsed[text] = s if cap is None else s.truncate(cap)
        coords[int(key)] = tuple(parsed[text] for text in texts)
    return GeometricComplex(ambient_dim=ambient, vertices=coords,
                            simplices=[])


def reference_read_document(data, precision_cap):
    """Check a document and build what it describes, in one pass."""
    if not isinstance(data, dict):
        return ["a document must be a JSON object"], {}, None, None, {}, {}
    problems = []
    if data.get("format") != FORMAT_TAG:
        problems.append(f"format tag must be {FORMAT_TAG!r}")
    if not isinstance(data.get("cells"), list):
        problems.append("missing cell list")
        return problems, {}, None, None, {}, {}
    try:
        c, fields = reference_cells_from_data(data["cells"])
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed cells: {exc}")
        return problems, {}, None, None, {}, {}
    report = validate(c)
    problems.extend(report.problems)

    rated: Dict[int, ExtRational] = {}
    parsed: dict = {}  # each distinct rate text, read once
    for cid, text in fields.items():
        if c.cell(cid).dim == 0:
            problems.append(f"vertex {cid} must not carry a rate")
            continue
        try:
            rated[cid] = _parse_rate(text, cid, parsed)
        except DocumentError as exc:
            problems.append(str(exc))

    geometry = None
    if "geometry" in data:
        try:
            geometry = reference_geometry_from_data(data["geometry"],
                                                    precision_cap)
        except (KeyError, TypeError, ValueError, SeriesParseError) as exc:
            problems.append(f"bad geometry: {exc}")
        if geometry is not None:
            for cell in c.cells_of_dim(0):
                if cell.id not in geometry.vertices:
                    problems.append(f"vertex {cell.id} has no coordinates")

    supports: Dict[int, List[int]] = {}
    under = _vertex_supports(c) if geometry is not None else {}
    for cell in c.cells():
        if cell.dim == 0 or cell.id in fields:
            continue  # a rate field that does not parse is named above
        if geometry is None:
            problems.append(f"cell {cell.id} has no rate and no geometry")
            continue
        if under[cell.id] is None:
            continue  # validate has named the broken face
        support = supports[cell.id] = sorted(under[cell.id])
        if len(support) != cell.dim + 1:
            problems.append(
                f"cell {cell.id} is not a simplex; cannot rate it from geometry")
        elif not all(vid in geometry.vertices for vid in support):
            problems.append(f"cell {cell.id} has vertices without coordinates")

    declared = data.get("subcomplexes", {})
    if not isinstance(declared, dict):
        problems.append("subcomplexes must map names to cell id lists")
        declared = {}
    subcomplexes: Dict[str, CellSet] = {}
    for name, ids in declared.items():
        if not (isinstance(ids, list)
                and all(type(i) is int for i in ids)):
            problems.append(f"subcomplex {name!r} must list cell ids")
            continue
        unknown = [i for i in ids if i not in c]
        if unknown:
            problems.append(f"subcomplex {name!r}: unknown cells {unknown}")
        else:
            subcomplexes[name] = frozenset(ids)
    return problems, subcomplexes, c, geometry, rated, supports


def reference_document_problems(data, precision_cap=None) -> List[str]:
    problems, subcomplexes, c, *_ = reference_read_document(data,
                                                            precision_cap)
    return problems + [f"subcomplex {name!r} is not closed under faces"
                       for name, ids in subcomplexes.items()
                       if not c.is_face_closed(ids)]


def reference_load_document(data, precision_cap=None) -> ComplexDocument:
    problems, subcomplexes, c, geometry, rates, supports = (
        reference_read_document(data, precision_cap))
    if problems:
        raise DocumentError("; ".join(problems))
    warnings = [f"cell {cid}: explicit rate overrides geometry"
                for cid in sorted(rates)] if geometry is not None else []
    if supports:
        rates.update(zip(supports,
                         simplex_rates(geometry, supports.values())))
    return ComplexDocument(complex=c, rates=dict(sorted(rates.items())),
                           subcomplexes=subcomplexes, name=data.get("name"),
                           warnings=warnings)
