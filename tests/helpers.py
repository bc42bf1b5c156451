"""Shared generators and independent mini-oracles for the test suite."""

import itertools
from fractions import Fraction

from vanhom import (INF, Cell, CellComplex, CellSet, GeometricComplex,
                    IndeterminateAtPrecision, SimplicialBuilder, Subspace,
                    build_torus, chain_boundary, constant, series, t_power)

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


def random_cut(rng, c: CellComplex, sub: CellSet):
    """A random removable set inside sub, or None if the draw fails.

    Grown as the coface closure of one seed cell; rejected when it leaks
    out of the subcomplex.
    """
    inside = sorted(sub)
    if not inside:
        return None
    seed = rng.choice(inside)
    cut = {seed}
    changed = True
    while changed:
        changed = False
        for cell in c.cells():
            if cell.id in cut:
                continue
            if any(face in cut for _, face in cell.boundary):
                cut.add(cell.id)
                changed = True
    cut = frozenset(cut)
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
