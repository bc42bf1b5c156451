"""The document load path against per-cell references.

Loading parses each distinct coordinate text once and derives every
cell's vertex support from its faces' supports.  These tests compare that
path with the direct route: every coordinate parsed on its own, every
support taken by vertex_support and every rate by simplex_rate.
"""

import copy
import itertools
import random
import reprlib
from fractions import Fraction

import pytest

from helpers import (random_complex, reference_document_problems,
                     reference_load_document, vertex_support)
from vanhom import (INF, Cell, CellComplex, DegenerateSimplex,
                    GeometricComplex, IndeterminateAtPrecision,
                    SeriesParseError, SimplicialBuilder,
                    build_pinched_spheres, build_torus, document_dict,
                    document_problems, load_document, parse_series,
                    simplex_rate)
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


# -- the loader against the one it replaced -----------------------------

def annotated_document(rng):
    if rng.random() < 0.5:
        c, rates = build_torus(0, 2, 3)  # labelled cells
    else:
        c, rates = random_complex(rng)
    return document_dict(c, rates)


def pair_document(rng):
    c, rates, circle = build_pinched_spheres(rng.choice((1, 2)), 3)
    return document_dict(c, rates, subcomplexes={"circle": circle})


def geometric_document(rng):
    return random_geometric_document(rng.randrange(1000))


def pick(rng, data, dim=None):
    """A random cell entry, of the given dimension if there is one."""
    entries = [item for item in data["cells"]
               if dim is None or item["dim"] == dim]
    return rng.choice(entries or data["cells"])


def pick_pair(rng, data):
    return rng.choice([item for item in data["cells"] if item["boundary"]])


def replace_entry(rng, data):
    cells = data["cells"]
    cells[rng.randrange(len(cells))] = rng.choice(
        [[1, 2], "cell", 7, None, list(range(40))])


def pair_shape(rng, data):
    item = pick_pair(rng, data)
    boundary = item["boundary"]
    boundary[rng.randrange(len(boundary))] = rng.choice(
        [[1], [1, 0, 0], [], {"k": 1, "f": 0}, "10", 5, (1, 0)])


def pair_types(rng, data):
    item = pick_pair(rng, data)
    pair = rng.choice(item["boundary"])
    pair[rng.randrange(2)] = rng.choice([1.0, 1.5, True, False, "1", None])


def boundary_type(rng, data):
    pick(rng, data)["boundary"] = rng.choice(["[]", {"0": 1}, 3, None])


def missing_key(rng, data):
    if "geometry" in data and rng.random() < 0.3:
        del data["geometry"]["ambient_dim"]
    else:
        del pick(rng, data)[rng.choice(("id", "dim"))]


def id_and_dim(rng, data):
    pick(rng, data)[rng.choice(("id", "dim"))] = rng.choice(
        [1.0, "2", True, -1, None, [0]])


def label(rng, data):
    pick(rng, data)["label"] = rng.choice(
        ["a\tb", "a\nb", "x\ry", 5, None, ["a"], "ok \x00", "é"])


def rate_text(rng, data):
    item = pick(rng, data, dim=rng.choice((0, 1, 2)))
    item["rate"] = rng.choice(["1/0", "x", 1.5, True, None, "inf", "1_0",
                               "-3/4", 2, "٣", " 1 "])


def coordinate_text(rng, data):
    if "geometry" not in data:
        return rate_text(rng, data)
    vertices = data["geometry"]["vertices"]
    key = rng.choice(sorted(vertices))
    choice = rng.randrange(4)
    if choice == 0:
        point = vertices[key]
        point[rng.randrange(len(point))] = rng.choice(
            ["T^^2", "", "1/0*T", "T + T", "T^(1/0)", 3, "O(T)",
             "T^( -1 / 2 )", "0*T + O(T)"])
    elif choice == 1:
        vertices[key] = vertices[key][:-1]
    elif choice == 2:
        vertices["0" + key] = vertices.pop(key)
    else:
        data["geometry"]["ambient_dim"] = rng.choice([1.5, -1, "2", 9])


def uncovered_vertex(rng, data):
    if "geometry" not in data:
        return broken_face(rng, data)
    vertices = data["geometry"]["vertices"]
    del vertices[rng.choice(sorted(vertices))]


def non_simplex(rng, data):
    # a triangle whose boundary runs over one edge twice: the double
    # boundary cancels, but its support has two vertices
    item = pick(rng, data, dim=2)
    if item["dim"] != 2:
        return broken_face(rng, data)
    (k, f), *_ = item["boundary"]
    item["boundary"] = [[k, f], [-k, f]]
    item.pop("rate", None)


def broken_face(rng, data):
    item = pick_pair(rng, data)
    pair = rng.choice(item["boundary"])
    choice = rng.randrange(4)
    if choice == 0:
        pair[1] = 10_000  # unknown
    elif choice == 1:
        pair[1] = item["id"]  # wrong dimension
    elif choice == 2:
        pair[0] = 0
    else:
        pick(rng, data, dim=0)["boundary"] = [[1, item["id"]]]


def subcomplex(rng, data):
    ids = [item["id"] for item in data["cells"]]
    data.setdefault("subcomplexes", {})["s"] = rng.choice(
        [[max(ids)], [max(ids) + 5], "1", [1.0], [True], {}])
    if rng.random() < 0.2:
        data["subcomplexes"] = rng.choice([[], "s"])


def document_level(rng, data):
    choice = rng.randrange(5)
    if choice == 0:
        data["format"] = "vanhom-complex/2"
    elif choice == 1:
        data["cells"] = {}
    elif choice == 2:
        data["geometry"] = rng.choice([[1], {"ambient_dim": 1,
                                             "vertices": []}])
    elif choice == 3:
        data["cells"].append(dict(data["cells"][0]))  # a duplicate id
    else:
        pick(rng, data, dim=1)["rate"] = "1"  # overrides geometry


FAULTS = [replace_entry, pair_shape, pair_types, boundary_type, missing_key,
          id_and_dim, label, rate_text, coordinate_text, uncovered_vertex,
          non_simplex, broken_face, subcomplex, document_level]


def renamed(text, data):
    """A reference text with a missing key named the way loading names it
    now: the reference printed only the key's repr."""
    entries = [item for item in data.get("cells", ())
               if isinstance(item, dict)]
    for item in entries:
        if "id" not in item:
            text = text.replace("malformed cells: 'id'",
                                f"malformed cells: cell entry "
                                f"{reprlib.repr(item)} has no 'id'")
            break
    for item in entries:
        if "dim" not in item and "id" in item:
            text = text.replace("malformed cells: 'dim'",
                                f"malformed cells: cell {item['id']} "
                                f"has no 'dim'")
            break
    return text.replace("bad geometry: 'ambient_dim'",
                        "bad geometry: geometry has no 'ambient_dim'")


def loaded(load, data, cap):
    """What a load gives, as plain values, or its exception and text."""
    try:
        doc = load(data, precision_cap=cap)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc).__name__, str(exc)
    cells = [(cell.id, cell.dim, cell.boundary, cell.label)
             for cell in doc.complex.cells()]
    return (cells, doc.rates, doc.subcomplexes, doc.name, doc.warnings)


class TestReferenceLoader:
    """Loading finds what the loader it replaced finds, in the same
    order, and loads the same document or raises the same text."""

    KINDS = (annotated_document, geometric_document, pair_document)

    def test_faults_read_as_before(self):
        rng = random.Random(2424)
        seen = set()
        for trial in range(900):
            data = self.KINDS[trial % 3](rng)
            fault = rng.choice(FAULTS)
            fault(rng, data)
            cap = rng.choice([None, Fraction(1), Fraction(3, 2)])
            expected = [renamed(p, data) for p in
                        reference_document_problems(copy.deepcopy(data), cap)]
            assert document_problems(copy.deepcopy(data), cap) == expected
            kind, *text = ref = loaded(reference_load_document,
                                       copy.deepcopy(data), cap)
            if text and isinstance(text[0], str):
                ref = (kind, renamed(text[0], data))
            assert loaded(load_document, copy.deepcopy(data), cap) == ref
            seen.add((fault.__name__, bool(expected)))
        # every fault was injected, and nearly every one found a problem
        assert {name for name, _ in seen} == {f.__name__ for f in FAULTS}
        assert {name for name, found in seen if found} >= {
            f.__name__ for f in FAULTS if f is not document_level}

    def test_renamed_texts(self):
        data = TestSharedPieces.circle(1, 1)
        del data["cells"][1]["id"]
        assert document_problems(data) == [
            "malformed cells: cell entry {'boundary': [], 'dim': 0} has no "
            "'id'"]
        data = TestSharedPieces.circle(1, 1)
        del data["cells"][3]["dim"]
        assert document_problems(data) == [
            "malformed cells: cell 3 has no 'dim'"]
        data = random_geometric_document(0)
        del data["geometry"]["ambient_dim"]
        assert document_problems(data)[0] == (
            "bad geometry: geometry has no 'ambient_dim'")
