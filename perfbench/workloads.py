"""Seeded workloads: the documents each workload writes and the CLI
commands it runs over them.

Everything here is a pure function of (workload, seed, tiny), so the
benchmark process and the worker process build identical command lists.
Each command carries a ``check``: a small tuple naming what its output
must be.  The answers themselves are computed by ``reference.py`` in the
benchmark process, never by the worker that times the commands.

Documents are built with the package's builders (``build_torus``,
``SimplicialBuilder``) and written with ``document_dict``; the program
under test only ever sees the written files and argv.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from vanhom import (CellComplex, GeometricComplex, SimplicialBuilder, Velocity,
                    build_pinched_spheres, build_torus, format_velocity,
                    series)

WORKLOADS = ("absolute", "sweep_pair")

# VANHOM_PRECISION cap for the geometric documents: above every leading
# exponent of the thick directions, below the thin ones, so deriving a
# rate for the first thin cell is undetermined and the CLI must exit 2.
GEOMETRIC_CAP = "1"


@dataclass
class Doc:
    """One document: its complex, the true rates and how they are known.

    ``rates`` are the reference rates.  A document with ``geometry`` is
    written without rates, so the program derives them; otherwise the
    rates are written into the cells.  ``torus`` is (p, q) when the
    complex is ``build_torus(p, q, n)``, whose dimensions have closed
    forms.
    """

    file: str
    complex: CellComplex
    rates: Dict[int, Fraction]
    title: str
    subcomplexes: Dict[str, frozenset] = field(default_factory=dict)
    geometry: Optional[GeometricComplex] = None
    torus: Optional[Tuple[Fraction, Fraction]] = None
    cut: List[int] = field(default_factory=list)
    bad_cut: List[int] = field(default_factory=list)


@dataclass
class Command:
    argv: List[str]
    check: tuple
    env: Dict[str, str] = field(default_factory=dict)


def velocity_text(q) -> str:
    return format_velocity(Velocity(Fraction(q)))


# -- generators ----------------------------------------------------------


def random_complex(rng: random.Random, nv: int, ntets: int, ntris: int,
                   max_rate: int):
    """Face closure of random tetrahedra and triangles on nv vertices.

    The shape (nv, ntets, ntris) is fixed by the caller so that the size
    and cost stay close from seed to seed; the seed picks which simplices
    and which rates 0..max_rate.
    """
    simplices = set()
    for quad in rng.sample(list(itertools.combinations(range(nv), 4)), ntets):
        for k in (2, 3, 4):
            simplices.update(itertools.combinations(quad, k))
    for tri in rng.sample(list(itertools.combinations(range(nv), 3)), ntris):
        for k in (2, 3):
            simplices.update(itertools.combinations(tri, k))
    b = SimplicialBuilder()
    for vid in range(nv):
        b.add_vertex(vid)
    for simplex in sorted(simplices, key=lambda s: (len(s), s)):
        b.add_simplex(simplex, rate=Fraction(rng.randint(0, max_rate)))
    return b.complex(), dict(b.rates)


def torus_doc(n: int, p=0, q=2) -> Doc:
    c, rates = build_torus(p, q, n)
    return Doc(f"torus-{p}-{q}-{n}.json", c, rates, f"torus({p},{q},{n})",
               torus=(Fraction(p), Fraction(q)))


def _torus_cells(c, prefix: str, column: int) -> List[int]:
    return [cell.id for cell in c.cells()
            if cell.label.startswith(f"{prefix}({column},")]


def torus_pair_doc(n: int) -> Doc:
    """build_torus(0, 2, n) with a meridian circle and a band around it.

    The band is the closure of the triangles in square columns 0 and 1;
    its boundary is the meridians at columns 0 and 2, and everything else
    in it (the open band) is a removable cut.
    """
    doc = torus_doc(n)
    c = doc.complex
    meridian = frozenset(_torus_cells(c, "v", 0) + _torus_cells(c, "u", 0))
    tris = [cid for col in (0, 1)
            for prefix in ("t1", "t2") for cid in _torus_cells(c, prefix, col)]
    band = c.face_closure(tris)
    rim = meridian | frozenset(_torus_cells(c, "v", 2)
                               + _torus_cells(c, "u", 2))
    doc.file = f"torus-pair-{n}.json"
    doc.subcomplexes = {"meridian": meridian, "band": band}
    doc.cut = sorted(band - rim)
    doc.bad_cut = [min(_torus_cells(c, "v", 2))]
    return doc


def random_torus_doc(rng: random.Random, n: int, max_rate: int) -> Doc:
    """The torus triangulation with a seeded random rate on every cell."""
    c, _ = build_torus(0, 2, n)
    rates = {cell.id: Fraction(rng.randint(0, max_rate))
             for cell in c.cells() if cell.dim > 0}
    return Doc(f"torus-random-{n}.json", c, rates, f"random-rate torus {n}")


def _unit(*terms):
    """Multiply a rational by a fixed multi-term unit series times T^shift."""
    def scaled(value, shift):
        return series([(shift + Fraction(e), Fraction(value) * Fraction(k))
                       for e, k in terms])
    return scaled


def geometric_torus_doc(n: int, p=Fraction(1, 2), q=Fraction(5, 2)) -> Doc:
    """build_torus(p, q, n) embedded in 4-space with Puiseux coordinates.

    Vertex (i, j) sits at (T^p u1 A_i, T^q u2 B_j) for two rational n-gons
    A, B and multi-term units u1, u2, so every simplex rate derived from
    the coordinates equals the builder's annotation.
    """
    c, rates = build_torus(p, q, n)
    u1 = _unit((0, 1), ("1/3", 2), ("4/3", -1))
    u2 = _unit((0, 1), ("1/4", -1), ("3/4", 3))
    vertices = {}
    for j in range(n):
        for i in range(n):
            ax, ay = i, i * i
            bx, by = 2 * j + 1, j * j - 3 * j
            vertices[j * n + i] = (u1(ax, p), u1(ay, p), u2(bx, q), u2(by, q))
    g = GeometricComplex(ambient_dim=4, vertices=vertices, simplices=[])
    return Doc(f"geo-torus-{n}.json", c, rates, f"embedded torus {n}",
               geometry=g, torus=(p, q))


def _affine_rank(points) -> int:
    rows = [[Fraction(x - y) for x, y in zip(pt, points[0])]
            for pt in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        k = next((k for k, row in enumerate(rows) if row[col]), None)
        if k is None:
            continue
        pivot = rows.pop(k)
        rank += 1
        rows = [[x - row[col] / pivot[col] * y for x, y in zip(row, pivot)]
                for row in rows]
    return rank


def slab_doc(a: int, b: int, s=Fraction(3, 2)) -> Doc:
    """An a-by-b grid of cubes, one layer thick, cut into Kuhn tetrahedra.

    The layer height is T^s (times a unit), so a simplex is thin exactly
    when its projection to the base plane loses a dimension: its rate is
    s then and 0 otherwise.  The reference rates come from that rule.
    """
    def vid(i, j, k):
        return k * (a + 1) * (b + 1) + j * (a + 1) + i

    simplices = set()
    for i in range(a):
        for j in range(b):
            for order in itertools.permutations(range(3)):
                point = [i, j, 0]
                path = [tuple(point)]
                for axis in order:
                    point[axis] += 1
                    path.append(tuple(point))
                ids = [vid(*pt) for pt in path]
                for k in (2, 3, 4):
                    simplices.update(tuple(sorted(sub))
                                     for sub in itertools.combinations(ids, k))
    grid = {vid(i, j, k): (i, j, k)
            for i in range(a + 1) for j in range(b + 1) for k in (0, 1)}
    builder = SimplicialBuilder()
    for v in sorted(grid):
        builder.add_vertex(v)
    rates = {}
    for simplex in sorted(simplices, key=lambda t: (len(t), t)):
        cid = builder.add_simplex(simplex)
        flat = [grid[v][:2] for v in simplex]
        flat_rank = _affine_rank(flat)
        rates[cid] = s if flat_rank < len(simplex) - 1 else Fraction(0)
    ux = _unit((0, 1), ("1/2", 1))
    uy = _unit((0, 1), ("2/3", -2), ("5/3", 1))
    uz = _unit((0, 1), ("1/3", 1))
    vertices = {v: (ux(i, 0), uy(j, 0), uz(k, s))
                for v, (i, j, k) in grid.items()}
    g = GeometricComplex(ambient_dim=3, vertices=vertices, simplices=[])
    return Doc(f"slab-{a}x{b}.json", builder.complex(), rates,
               f"slab {a}x{b}", geometry=g)


# -- workloads -----------------------------------------------------------


def _annotated(rng, tiny):
    docs, cmds = [], []
    for n in ((3, 4) if tiny else (4, 6, 8, 10)):
        d = torus_doc(n)
        docs.append(d)
        for sub in ("compute", "euler"):
            for q in (0, 2, 3):
                if sub == "euler" and q == 0 and n == 10:
                    continue
                cmds.append(Command([sub, d.file, "--velocity",
                                     velocity_text(q)], (sub, d.file)))
    shapes = ((8, 4, 3),) if tiny else \
        ((12, 20, 10), (15, 40, 18), (18, 60, 30))
    for k, (nv, nt, nr) in enumerate(shapes):
        c, rates = random_complex(rng, nv, nt, nr, max_rate=5)
        d = Doc(f"random-{k}.json", c, rates, f"random complex {k}")
        docs.append(d)
        cmds.append(Command(["compute", d.file, "--velocity", "T^0"],
                            ("compute", d.file)))
        cmds.append(Command(["compute", d.file, "--velocity", "T^2",
                             "--format", "tsv"], ("compute_tsv", d.file)))
        cmds.append(Command(["euler", d.file, "--velocity", ">T^3"],
                            ("euler", d.file)))
    return docs, cmds


def _sweep(rng, tiny):
    docs, cmds = [], []

    def add(d, tsv=False, degree=False):
        docs.append(d)
        cmds.append(Command(["sweep", d.file], ("sweep", d.file)))
        if tsv:
            cmds.append(Command(["sweep", d.file, "--format", "tsv"],
                                ("sweep_tsv", d.file)))
        if degree:
            cmds.append(Command(["sweep", d.file, "--degrees", "1"],
                                ("sweep", d.file, 1)))

    for n in ((3,) if tiny else (3, 4, 5, 6, 8)):
        add(torus_doc(n), tsv=n == 3, degree=n == 5)
    for n in ((3,) if tiny else (4, 5, 6)):
        add(random_torus_doc(rng, n, max_rate=8), tsv=n == 4)
    shapes = ((8, 4, 3),) if tiny else ((10, 12, 6), (12, 20, 10))
    for k, (nv, nt, nr) in enumerate(shapes):
        c, rates = random_complex(rng, nv, nt, nr, max_rate=5)
        add(Doc(f"random-{k}.json", c, rates, f"random complex {k}"))
    return docs, cmds


def _pair(rng, tiny):
    docs, cmds = [], []
    for n in ((3, 4) if tiny else (8, 16, 24, 32)):
        c, rates, circle = build_pinched_spheres(2, n)
        d = Doc(f"pinched-{n}.json", c, rates, f"pinched_spheres(2,{n})",
                subcomplexes={"circle": circle})
        docs.append(d)
        for sub in ("relative", "les"):
            cmds.append(Command([sub, d.file, "--velocity", "T^2",
                                 "--subcomplex", "circle"],
                                (sub, d.file, "pinched")))
    tori = {n: torus_pair_doc(n) for n in ((3, 4) if tiny else (4, 6, 8))}
    for n, d in tori.items():
        docs.append(d)
        for q in (0, 2):
            v = velocity_text(q)
            if n <= 6 or q == 0:
                cmds.append(Command(["relative", d.file, "--velocity", v,
                                     "--subcomplex", "meridian"],
                                    ("relative", d.file, f"meridian {v}")))
            if n <= 4:
                cmds.append(Command(["les", d.file, "--velocity", v,
                                     "--subcomplex", "meridian"],
                                    ("les", d.file, f"meridian {v}")))
    d = tori[4]
    for q in (0, 2):
        cmds.append(Command(["excise", d.file, "--velocity",
                             velocity_text(q), "--subcomplex", "band",
                             "--cut", ",".join(map(str, d.cut))],
                            ("excise", d.file)))
    cmds.append(Command(["excise", d.file, "--velocity", "T^2",
                         "--subcomplex", "band",
                         "--cut", ",".join(map(str, d.bad_cut))],
                        ("exit", 3)))
    return docs, cmds


def _geometric(rng, tiny):
    docs, cmds = [], []
    geos = [geometric_torus_doc(n)
            for n in ((3,) if tiny else (3, 5, 8))]
    geos += [slab_doc(a, b) for a, b in (((1, 1),) if tiny else
                                          ((2, 2), (3, 3)))]
    cap = {"VANHOM_PRECISION": GEOMETRIC_CAP}
    for k, d in enumerate(geos):
        docs.append(d)
        thin = velocity_text(max(d.rates.values()))
        cmds.append(Command(["validate", d.file], ("validate",)))
        cmds.append(Command(["rates", d.file], ("rates", d.file)))
        cmds.append(Command(["compute", d.file, "--velocity", thin],
                            ("compute", d.file)))
        if k % 2 == 0:
            cmds.append(Command(["validate", d.file], ("validate",), cap))
        cmds.append(Command(["rates", d.file], ("exit", 2), cap))
        cmds.append(Command(["compute", d.file, "--velocity", thin],
                            ("exit", 2), cap))
    examples = (("torus", 3), ("pinched", 4), ("circle", 5)) if tiny else \
        (("torus", 6), ("pinched", 8), ("circle", 12))
    for which, n in examples:
        cmds.append(Command(["example", which, "--n", str(n), "-o", "-"],
                            ("example", which, n)))
    return docs, cmds


def _absolute(rng, tiny):
    """Single-velocity commands: annotated and geometric documents."""
    docs, cmds = _annotated(rng, tiny)
    more_docs, more_cmds = _geometric(rng, tiny)
    return docs + more_docs, cmds + more_cmds


def _sweep_pair(rng, tiny):
    """Commands that recompute across velocities, or for a pair."""
    docs, cmds = _sweep(rng, tiny)
    more_docs, more_cmds = _pair(rng, tiny)
    return docs + more_docs, cmds + more_cmds


_BUILDERS = {"absolute": _absolute, "sweep_pair": _sweep_pair}


def build(workload: str, seed: int, tiny: bool = False):
    """The documents and the command list of one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, tiny)
