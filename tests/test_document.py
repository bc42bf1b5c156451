"""The document load path against per-cell references.

Loading parses each distinct coordinate text once and derives every
cell's vertex support from its faces' supports.  These tests compare that
path with the direct route: every coordinate parsed on its own, every
support taken by vertex_support and every rate by simplex_rate.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import vertex_support
from vanhom import (INF, Cell, CellComplex, DegenerateSimplex,
                    GeometricComplex, IndeterminateAtPrecision,
                    SeriesParseError, SimplicialBuilder,
                    build_pinched_spheres, document_dict, document_problems,
                    load_document, parse_series, simplex_rate)
from vanhom.document import _fraction, _read_document, _vertex_supports

# equal series under distinct texts ("T^2", "T^ 2", "T ^ 2"), truncated
# ones, and texts that a cap of 1 or 3/2 cuts short
TEXTS = ["0", "1", "-1", "T", "2*T", "T^2", "T^ 2", "T ^ 2", "-T + T^3",
         "1/2*T^(1/2)", "1 + T^3 + O(T^5)", "3 - T^(3/2)", "T^2 + O(T^4)",
         "2 + T^(1/3)", "-3/4*T^(5/2)"]
CAPS = [None, Fraction(1), Fraction(3, 2), Fraction(4)]


def random_geometric_document(seed):
    """A seeded simplicial complex whose coordinates repeat their texts.

    Every coordinate is drawn from a small pool, so a text appears at
    several vertices, and some equal series appear under distinct texts.
    """
    rng = random.Random(seed)
    nv = rng.randint(4, 7)
    ambient = rng.choice((2, 3))
    simplices = set()
    for tri in rng.sample(list(itertools.combinations(range(nv), 3)),
                          rng.randint(1, 4)):
        for k in (2, 3):
            simplices.update(itertools.combinations(tri, k))
    if ambient == 3:
        quad = tuple(sorted(rng.sample(range(nv), 4)))
        for k in (2, 3, 4):
            simplices.update(itertools.combinations(quad, k))
    b = SimplicialBuilder()
    for vid in range(nv):
        b.add_vertex(vid)
    for simplex in sorted(simplices, key=lambda s: (len(s), s)):
        b.add_simplex(simplex)
    data = document_dict(b.complex(), {})
    data["geometry"] = {
        "ambient_dim": ambient,
        "vertices": {str(vid): [rng.choice(TEXTS) for _ in range(ambient)]
                     for vid in range(nv)}}
    return data


def reference(data, cap):
    """Load outcome by the direct route: each coordinate parsed alone."""
    c = CellComplex(Cell(item["id"], item["dim"],
                         tuple(map(tuple, item["boundary"])))
                    for item in data["cells"])
    block = data["geometry"]
    coords = {}
    for key, texts in block["vertices"].items():
        point = [parse_series(text) for text in texts]
        if cap is not None:
            point = [s.truncate(cap) for s in point]
        coords[int(key)] = tuple(point)
    g = GeometricComplex(block["ambient_dim"], coords, [])
    supports = {cell.id: sorted(vertex_support(c, cell.id))
                for cell in c.cells() if cell.dim > 0}
    rates = {}
    for cid, support in supports.items():
        try:
            rates[cid] = simplex_rate(g, support)
        except (IndeterminateAtPrecision, DegenerateSimplex) as exc:
            return coords, supports, exc
    return coords, supports, rates


class TestSharedPieces:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("cap", CAPS)
    def test_load_matches_the_per_cell_reference(self, seed, cap):
        data = random_geometric_document(seed)
        problems, _, _, geometry, _, supports = _read_document(data, cap)
        assert problems == []
        coords, ref_supports, outcome = reference(data, cap)
        # every repeated text, capped or not, stands for the series it
        # parses to on its own
        assert geometry.vertices == coords
        assert supports == ref_supports
        if isinstance(outcome, Exception):
            with pytest.raises(type(outcome)) as caught:
                load_document(data, precision_cap=cap)
            assert str(caught.value) == str(outcome)
        else:
            assert load_document(data, precision_cap=cap).rates == outcome

    def test_seeds_reach_rates_and_undetermined_caps(self):
        # the comparison above is not vacuous: some seeds load, and some
        # caps hide a rate
        outcomes = [reference(random_geometric_document(seed), cap)[2]
                    for seed in range(40) for cap in CAPS]
        assert any(isinstance(o, dict) and o for o in outcomes)
        assert any(isinstance(o, IndeterminateAtPrecision) for o in outcomes)

    def test_repeated_texts_share_one_series(self):
        data = random_geometric_document(3)
        texts = [t for point in data["geometry"]["vertices"].values()
                 for t in point]
        assert len(set(texts)) < len(texts)
        _, _, _, geometry, _, _ = _read_document(data, Fraction(1))
        series = [s for point in geometry.vertices.values() for s in point]
        assert len({id(s) for s in series}) == len(set(texts))

    @staticmethod
    def circle(*rates):
        # a circle of len(rates) edges on as many vertices, rated in order
        n = len(rates)
        cells = [{"id": i, "dim": 0, "boundary": []} for i in range(n)]
        cells += [{"id": n + i, "dim": 1,
                   "boundary": [[-1, i], [1, (i + 1) % n]], "rate": rate}
                  for i, rate in enumerate(rates)]
        return {"format": "vanhom-complex/1", "cells": cells}

    def test_repeated_rate_texts_share_one_rate(self):
        rates = load_document(self.circle("1/2", 1, "1/2", 1, "inf")).rates
        assert rates == {5: Fraction(1, 2), 6: 1, 7: Fraction(1, 2), 8: 1,
                         9: INF}
        assert rates[5] is rates[7] and rates[6] is rates[8]

    def test_bool_and_float_rates_after_an_equal_integer(self):
        # True and 1.0 hash equal to 1, whose rate is parsed first
        assert document_problems(self.circle(1, True, 1.0)) == [
            "cell 4: rate must be a string or an integer, got bool True",
            "cell 5: rate must be a string or an integer, got float 1.0"]

    @pytest.mark.parametrize("bad", ["T^^2", "T + T", "1/0", ""])
    def test_bad_text_repeated_at_several_vertices(self, bad):
        data = random_geometric_document(5)
        vertices = data["geometry"]["vertices"]
        for key in list(vertices)[1::2]:
            vertices[key] = [bad] * len(vertices[key])
        with pytest.raises(SeriesParseError) as caught:
            parse_series(bad)
        expected = [f"bad geometry: {caught.value}"] + [
            f"cell {item['id']} has no rate and no geometry"
            for item in data["cells"] if item["dim"] > 0]
        assert document_problems(data) == expected
        assert document_problems(data, precision_cap=1) == expected


def face_graph(seed):
    """A random face graph: each cell's faces come mostly from the cells one
    dimension down, and otherwise from any id, an unknown one included
    (wrong dimensions, cycles, unknown faces)."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    dims = [rng.randint(0, 3) for _ in range(n)]
    cells = []
    for cid, dim in enumerate(dims):
        below = [f for f in range(n) if dims[f] == dim - 1]
        pool = below if rng.random() < 0.85 else range(n + 2)
        faces = rng.sample(pool, min(rng.randint(1, 3), len(pool)))
        cells.append(Cell(cid, dim, tuple((1, f) for f in faces)))
    return CellComplex(cells)


class TestBrokenFaceGraphs:
    def test_cells_naming_each_other_as_faces(self):
        # 1-cell 2 has face 3 and 1-cell 3 has face 2: each broken face is
        # named once, by the complex laws, and nothing is derived over it
        data = {"format": "vanhom-complex/1",
                "cells": [{"id": 0, "dim": 0, "boundary": []},
                          {"id": 1, "dim": 0, "boundary": []},
                          {"id": 2, "dim": 1, "boundary": [[1, 3]]},
                          {"id": 3, "dim": 1, "boundary": [[1, 2]]}],
                "geometry": {"ambient_dim": 1,
                             "vertices": {"0": ["0"], "1": ["T"]}}}
        assert document_problems(data) == [
            "cell 2 (dim 1): face 3 has dim 1",
            "cell 3 (dim 1): face 2 has dim 1"]

    @pytest.mark.parametrize("seed", range(60))
    def test_supports_equal_the_face_closure(self, seed):
        c = face_graph(seed)

        def graded(cid):
            # every face, all the way down, a known cell one dimension down
            dim = c.cell(cid).dim
            return all(f in c and c.cell(f).dim == dim - 1 and graded(f)
                       for _, f in c.cell(cid).boundary)

        derived = _vertex_supports(c)
        for cid in c:
            expected = vertex_support(c, cid) if graded(cid) else None
            assert derived[cid] == expected

    def test_face_graphs_reach_both_paths(self):
        # the seeds above derive many supports as unions of faces' supports,
        # and skip many cells over a broken face
        supports = [(c.cell(cid).dim, support)
                    for c in map(face_graph, range(60))
                    for cid, support in _vertex_supports(c).items()]
        assert sum(dim > 0 and bool(s) for dim, s in supports) >= 100
        assert sum(s is None for _, s in supports) >= 100


class Walked(list):
    """A list that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestReadOnce:
    @pytest.mark.parametrize("data", [
        random_geometric_document(0),
        TestSharedPieces.circle("1/2", 1, "inf")])
    def test_cells_and_boundaries_walked_once(self, data):
        data["cells"] = Walked(dict(item, boundary=Walked(item["boundary"]))
                               for item in data["cells"])
        assert document_problems(data) == []
        assert data["cells"].walks == 1
        assert {item["boundary"].walks for item in data["cells"]} == {1}

    def test_load_makes_no_face_closure_check(self, monkeypatch):
        c, rates, circle = build_pinched_spheres(2, 3)
        loose = frozenset([max(c)])  # a triangle without its faces
        data = document_dict(c, rates, subcomplexes={"circle": circle,
                                                     "loose": loose})
        assert document_problems(data) == [
            "subcomplex 'loose' is not closed under faces"]

        def fail(self, s):
            raise AssertionError("is_face_closed called while loading")

        monkeypatch.setattr(CellComplex, "is_face_closed", fail)
        doc = load_document(data)
        assert doc.subcomplexes == {"circle": circle, "loose": loose}

    @pytest.mark.parametrize("boundary, problem", [
        # a type fault in an earlier pair comes before a shape fault
        ([[1.5, 0], [1]],
         "cell 2: boundary coefficient must be an integer, got 1.5"),
        ([[1, "0"], [1, 1, 1]], "cell 2: face id must be an integer, got '0'"),
        ([[1], [1.5, 0]],
         "cell 2: boundary must list [coefficient, face] pairs"),
        ("01", "cell 2: boundary must list [coefficient, face] pairs")])
    def test_first_faulty_pair_is_named(self, boundary, problem):
        data = TestSharedPieces.circle(1, 1)
        data["cells"][2]["boundary"] = boundary
        assert document_problems(data) == [f"malformed cells: {problem}"]


class TestRationalText:
    @pytest.mark.parametrize("text", [
        "3", "-3", "+3", " 3/4 ", "0.25", "-1.5e2", "1E-3", ".5", "7.",
        "٣/٤"])
    def test_accepted_texts_read_as_before(self, text):
        assert _fraction(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1_0.5", "1.5_0", "1e1_0"])
    def test_digit_separators_are_rejected(self, text):
        with pytest.raises(ValueError):
            _fraction(text)


class TestLabels:
    """Writing accepts exactly the labels that loading accepts."""

    @pytest.mark.parametrize("label", ["a\tb", "a\rb", "a\nb", 5, ["a"]])
    def test_writing_refuses_a_label_that_loading_refuses(self, label):
        c = CellComplex([Cell(0, 0), Cell(1, 0, (), label)])
        problem = (f"cell 1: label must be a string without tab or line "
                   f"break, got {label!r}")
        with pytest.raises(ValueError) as caught:
            document_dict(c, {})
        assert str(caught.value) == problem
        data = document_dict(CellComplex([Cell(0, 0), Cell(1, 0)]), {})
        data["cells"][1]["label"] = label
        assert document_problems(data) == [f"malformed cells: {problem}"]

    def test_labels_round_trip(self):
        c, rates, circle = build_pinched_spheres(2, 3)
        loaded = load_document(document_dict(c, rates)).complex
        assert ([cell.label for cell in loaded.cells()]
                == [cell.label for cell in c.cells()])
        assert any(cell.label for cell in c.cells())
