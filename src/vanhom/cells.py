"""Finite cell complexes with integer incidence data, and stock builders.

A complex is a finite set of cells, each with a dimension and a signed list
of codimension-one faces.  Nothing topological is stored beyond incidence;
the one structural law is that the composite of two boundary steps cancels
integrally.  Collapse-rate annotations live elsewhere (see thinness); this
module only knows ids, dimensions and boundaries.

Builders return small standard complexes used throughout: a cycle graph, a
product-of-two-circles triangulation, and two sphere caps glued along a
shrinking circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .puiseux import ExtRational

CellSet = FrozenSet[int]


class NotFaceClosed(ValueError):
    """A cell set omits a face of one of its members."""


class InvalidComplex(ValueError):
    """Incidence data violating the complex laws."""


class Cell:
    """One cell: id, dimension, and signed codimension-one faces.

    boundary holds (coefficient, face id) pairs; vertices have none.  A
    cell compares and hashes by its fields.  It is a slotted class rather
    than a frozen dataclass, since a document builds one per entry and a
    slotted cell costs a third as much to build: complexes share cells,
    so treat one as immutable.
    """

    __slots__ = ("id", "dim", "boundary", "label")

    def __init__(self, id: int, dim: int,
                 boundary: Tuple[Tuple[int, int], ...] = (),
                 label: Optional[str] = None):
        self.id = id
        self.dim = dim
        self.boundary = boundary
        self.label = label

    def _fields(self):
        return self.id, self.dim, self.boundary, self.label

    def __eq__(self, other):
        if type(other) is not Cell:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"Cell(id={self.id!r}, dim={self.dim!r}, "
                f"boundary={self.boundary!r}, label={self.label!r})")


class CellComplex:
    """A finite complex indexed by integer cell ids."""

    def __init__(self, cells: Iterable[Cell]):
        self._cells: Dict[int, Cell] = {}
        for cell in cells:
            if cell.id in self._cells:
                raise InvalidComplex(f"duplicate cell id {cell.id}")
            self._cells[cell.id] = cell
        # the cells in id order, sorted on first use: loading and every
        # engine route walk them in that order several times
        self._sorted: Optional[List[Cell]] = None

    def __len__(self):
        return len(self._cells)

    def __contains__(self, cid: int):
        return cid in self._cells

    def __iter__(self):
        return iter(sorted(self._cells))

    def cell(self, cid: int) -> Cell:
        return self._cells[cid]

    def cells(self) -> List[Cell]:
        if self._sorted is None:
            self._sorted = [self._cells[cid] for cid in sorted(self._cells)]
        return list(self._sorted)

    def cell_ids(self) -> CellSet:
        return frozenset(self._cells)

    def cells_of_dim(self, dim: int) -> List[Cell]:
        return [c for c in self.cells() if c.dim == dim]

    def ids_of_dim(self, dim: int) -> List[int]:
        return [c.id for c in self.cells_of_dim(dim)]

    @property
    def dim(self) -> int:
        """Top cell dimension; -1 for the empty complex."""
        if not self._cells:
            return -1
        return max(c.dim for c in self._cells.values())

    def f_vector(self) -> Tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for c in self._cells.values():
            counts[c.dim] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** c.dim for c in self._cells.values())

    # -- subsets ---------------------------------------------------------

    def is_face_closed(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return all(face in s
                   for cid in s
                   for _, face in self._cells[cid].boundary)

    def face_closure(self, s: Iterable[int]) -> CellSet:
        todo = list(s)
        out = set()
        while todo:
            cid = todo.pop()
            if cid in out:
                continue
            out.add(cid)
            todo.extend(face for _, face in self._cells[cid].boundary)
        return frozenset(out)

    def restrict(self, s: Iterable[int]) -> "CellComplex":
        """The subcomplex on a face-closed set of ids (cells are shared)."""
        s = frozenset(s)
        missing = s - self._cells.keys()
        if missing:
            raise KeyError(f"unknown cell ids {sorted(missing)}")
        if not self.is_face_closed(s):
            raise NotFaceClosed("cell set is not closed under faces")
        return CellComplex(self._cells[cid] for cid in sorted(s))


@dataclass
class ValidationReport:
    ok: bool
    problems: List[str]


def validate(c: CellComplex) -> ValidationReport:
    """Check the complex laws: face dimensions, and boundary-of-boundary.

    The second boundary must cancel integrally: for every cell s and every
    cell r two dimensions down, sum over faces t of coef(s,t)*coef(t,r) = 0.
    """
    problems = []
    cells, by_id = c.cells(), c._cells
    for cell in cells:
        for coeff, face in cell.boundary:
            found = by_id.get(face)
            if found is None:
                problems.append(f"cell {cell.id}: unknown face {face}")
                continue
            fdim = found.dim
            if fdim != cell.dim - 1:
                problems.append(
                    f"cell {cell.id} (dim {cell.dim}): face {face} has dim {fdim}")
            if coeff == 0:
                problems.append(f"cell {cell.id}: zero coefficient on face {face}")
        if cell.dim == 0 and cell.boundary:
            problems.append(f"vertex {cell.id} has a boundary")
    if not problems:
        for cell in cells:
            if cell.dim < 2:
                continue
            acc: Dict[int, int] = {}
            for coeff, face in cell.boundary:
                for coeff2, face2 in by_id[face].boundary:
                    acc[face2] = acc.get(face2, 0) + coeff * coeff2
            for rid, total in acc.items():
                if total != 0:
                    problems.append(
                        f"cell {cell.id}: double boundary does not cancel at {rid}")
    return ValidationReport(ok=not problems, problems=problems)


# -- simplicial assembly -------------------------------------------------


def _perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting seq (entries distinct)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class SimplicialBuilder:
    """Assembles a complex out of simplices given by vertex tuples.

    Faces must be added before the simplices they bound.  Boundary signs
    follow the orientation of the vertex tuple as given: dropping the i-th
    vertex contributes (-1)^i, corrected by the parity that matches the
    face's stored vertex order.  Rates are collected on the side for the
    thinness layer.
    """

    def __init__(self):
        self._cells: List[Cell] = []
        self._by_vertices: Dict[FrozenSet[int], int] = {}
        self._order: Dict[int, Tuple[int, ...]] = {}
        self.rates: Dict[int, ExtRational] = {}
        # the largest cell id so far; a new simplex gets the next one
        self._top_id = -1

    def add_vertex(self, vid: int, label: Optional[str] = None) -> int:
        key = frozenset([vid])
        if key in self._by_vertices:
            raise InvalidComplex(f"duplicate vertex {vid}")
        self._cells.append(Cell(vid, 0, (), label))
        self._by_vertices[key] = vid
        self._order[vid] = (vid,)
        self._top_id = max(self._top_id, vid)
        return vid

    def add_simplex(self, vertices: Sequence[int],
                    rate: Optional[ExtRational] = None,
                    label: Optional[str] = None) -> int:
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InvalidComplex(f"repeated vertex in simplex {vertices}")
        key = frozenset(vertices)
        if key in self._by_vertices:
            raise InvalidComplex(f"duplicate simplex on {sorted(key)}")
        boundary = []
        for i in range(len(vertices)):
            face = vertices[:i] + vertices[i + 1:]
            fid = self._by_vertices.get(frozenset(face))
            if fid is None:
                raise InvalidComplex(f"missing face {face} of {vertices}")
            stored = self._order[fid]
            relative = [stored.index(v) for v in face]
            boundary.append(((-1) ** i * _perm_sign(relative), fid))
        self._top_id += 1
        cid = self._top_id
        self._cells.append(Cell(cid, len(vertices) - 1, tuple(boundary), label))
        self._by_vertices[key] = cid
        self._order[cid] = vertices
        if rate is not None:
            self.rates[cid] = rate
        return cid

    def complex(self) -> CellComplex:
        return CellComplex(self._cells)


# -- builders ------------------------------------------------------------


def build_circle(n: int, rate) -> Tuple[CellComplex, Dict[int, ExtRational]]:
    """Cycle graph on n vertices, every edge annotated with one rate.

    Vertices get ids 0..n-1, edge i runs from vertex i to vertex i+1 mod n.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rate = Fraction(rate)
    b = SimplicialBuilder()
    for i in range(n):
        b.add_vertex(i, label=f"v{i}")
    for i in range(n):
        b.add_simplex((i, (i + 1) % n), rate=rate, label=f"e{i}")
    return b.complex(), dict(b.rates)


def build_torus(p, q, n: int) -> Tuple[CellComplex, Dict[int, ExtRational]]:
    """Product-of-two-circles triangulation with per-factor collapse rates.

    An n-by-n vertex grid with wraparound; each square splits into two
    triangles along the (i+1, j+1) diagonal.  Edges along the first factor
    shrink like T^p, along the second like T^q, diagonals inherit the
    slower rate min(p, q) and triangles the faster max(p, q).  The factor
    rates are sorted so p <= q.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    p, q = sorted((Fraction(p), Fraction(q)))
    b = SimplicialBuilder()

    def v(i, j):
        return (j % n) * n + (i % n)

    for j in range(n):
        for i in range(n):
            b.add_vertex(v(i, j), label=f"v({i},{j})")
    for j in range(n):
        for i in range(n):
            b.add_simplex((v(i, j), v(i + 1, j)), rate=p, label=f"h({i},{j})")
    for j in range(n):
        for i in range(n):
            b.add_simplex((v(i, j), v(i, j + 1)), rate=q, label=f"u({i},{j})")
    for j in range(n):
        for i in range(n):
            b.add_simplex((v(i, j), v(i + 1, j + 1)), rate=p, label=f"d({i},{j})")
    for j in range(n):
        for i in range(n):
            b.add_simplex((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                          rate=q, label=f"t1({i},{j})")
            b.add_simplex((v(i, j), v(i + 1, j + 1), v(i, j + 1)),
                          rate=q, label=f"t2({i},{j})")
    return b.complex(), dict(b.rates)


def build_pinched_spheres(r, n: int = 3):
    """Two sphere caps glued along a circle shrinking like T^r.

    Each cap is a cone over an n-gon ring, joined to the shared shrinking
    circle by a collar of 2n triangles; the n collar triangles that touch
    two circle vertices shrink with the circle, everything else keeps its
    size.  Returns (complex, rates, circle), where circle is the face-closed
    set of the shared-circle cells.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    r = Fraction(r)
    zero = Fraction(0)
    b = SimplicialBuilder()
    # ids: shared circle 0..n-1, upper ring n..2n-1, lower ring 2n..3n-1,
    # then the two cone apexes
    for i in range(n):
        b.add_vertex(i, label=f"a{i}")
    for i in range(n):
        b.add_vertex(n + i, label=f"rN{i}")
    for i in range(n):
        b.add_vertex(2 * n + i, label=f"rS{i}")
    apex = {"N": b.add_vertex(3 * n, label="apexN"),
            "S": b.add_vertex(3 * n + 1, label="apexS")}

    def a(i):
        return i % n

    circle_ids = [a(i) for i in range(n)]
    for i in range(n):
        eid = b.add_simplex((a(i), a(i + 1)), rate=r, label=f"ea{i}")
        circle_ids.append(eid)
    for side, base in (("N", n), ("S", 2 * n)):
        def ring(i):
            return base + (i % n)
        for i in range(n):
            b.add_simplex((ring(i), ring(i + 1)), rate=zero,
                          label=f"er{side}{i}")
        for i in range(n):
            b.add_simplex((apex[side], ring(i)), rate=zero,
                          label=f"sp{side}{i}")
        for i in range(n):
            b.add_simplex((ring(i), a(i)), rate=zero, label=f"cv{side}{i}")
            b.add_simplex((ring(i), a(i + 1)), rate=zero, label=f"cd{side}{i}")
        for i in range(n):
            b.add_simplex((apex[side], ring(i), ring(i + 1)), rate=zero,
                          label=f"fan{side}{i}")
            b.add_simplex((ring(i), a(i), a(i + 1)), rate=r,
                          label=f"thin{side}{i}")
            b.add_simplex((ring(i), ring(i + 1), a(i + 1)), rate=zero,
                          label=f"thick{side}{i}")
    return b.complex(), dict(b.rates), frozenset(circle_ids)
