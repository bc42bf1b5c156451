"""End-to-end command line coverage, run in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from vanhom import (ChainSubspaceComplex, GeometricComplex, annotate_geometric,
                    document_dict, dumps_document, parse_series)
from vanhom import vanishing
from vanhom.cli import main

TAG = "vanhom-complex/1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, dict):
        payload = json.dumps(payload)
    path.write_text(payload, encoding="utf-8")
    return str(path)


@pytest.fixture
def torus_doc(tmp_path, capsys):
    path = str(tmp_path / "torus.json")
    code, _, _ = run(capsys, "example", "torus", "-o", path)
    assert code == 0
    return path


@pytest.fixture
def pinched_doc(tmp_path, capsys):
    path = str(tmp_path / "pinched.json")
    code, _, _ = run(capsys, "example", "pinched", "-o", path)
    assert code == 0
    return path


def edge_doc(geometry_vertex="T^5", rate=None):
    cell = {"id": 2, "dim": 1, "boundary": [[-1, 0], [1, 1]]}
    if rate is not None:
        cell["rate"] = rate
    return {"format": TAG,
            "cells": [{"id": 0, "dim": 0, "boundary": []},
                      {"id": 1, "dim": 0, "boundary": []},
                      cell],
            "geometry": {"ambient_dim": 1,
                         "vertices": {"0": ["0"],
                                      "1": [geometry_vertex]}}}


class TestCompute:
    def test_round_trip(self, torus_doc, capsys):
        code, out, _ = run(capsys, "compute", torus_doc, "--velocity", "T^2")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"velocity": "T^2",
                           "betti": {"0": 0, "1": 1, "2": 1},
                           "euler": 0}

    def test_strict_velocity(self, torus_doc, capsys):
        code, out, _ = run(capsys, "compute", torus_doc,
                           "--velocity", ">T^2")
        assert code == 0
        assert json.loads(out)["betti"] == {"0": 0, "1": 0, "2": 0}

    def test_oracle_agrees(self, torus_doc, capsys):
        _, default, _ = run(capsys, "compute", torus_doc,
                            "--velocity", "T^2")
        _, oracle, _ = run(capsys, "compute", torus_doc,
                           "--velocity", "T^2", "--oracle")
        assert default == oracle

    def test_tsv_and_degree_selection(self, torus_doc, capsys):
        code, out, _ = run(capsys, "compute", torus_doc, "--velocity", "T^2",
                           "--format", "tsv", "--degrees", "1..2")
        assert code == 0
        assert out == "1\t1\n2\t1\n"

    def test_single_degree(self, torus_doc, capsys):
        code, out, _ = run(capsys, "compute", torus_doc, "--velocity", "T^2",
                           "--degrees", "1")
        assert json.loads(out)["betti"] == {"1": 1}

    def test_euler(self, torus_doc, capsys):
        code, out, _ = run(capsys, "euler", torus_doc, "--velocity", "T^2")
        assert (code, out) == (0, "0\n")

    @pytest.mark.parametrize("degrees", ["0..1000", "-1", "3..1", "3",
                                         "1..", "..2", "0..1..2", "x",
                                         "\u0661", "0_1", "+1", " 1", "1 ",
                                         "01", "0..02", "-0", "1..+2"])
    def test_bad_degrees(self, torus_doc, capsys, degrees):
        code, out, err = run(capsys, "compute", torus_doc,
                             "--velocity", "T^2", "--degrees", degrees)
        assert (code, out) == (1, "")
        assert err == f"error: bad --degrees {degrees!r}\n"

    def test_full_degree_range(self, torus_doc, capsys):
        code, out, _ = run(capsys, "compute", torus_doc, "--velocity", "T^2",
                           "--format", "tsv", "--degrees", "0..2")
        assert (code, out) == (0, "0\t0\n1\t1\n2\t1\n")


class TestSweep:
    def test_json(self, torus_doc, capsys):
        code, out, _ = run(capsys, "sweep", torus_doc)
        assert code == 0
        assert json.loads(out) == {"breakpoints": ["0", "2"],
                                   "degrees": {"0": [0, 0, 0],
                                               "1": [2, 1, 0],
                                               "2": [1, 1, 0]}}

    def test_tsv(self, torus_doc, capsys):
        code, out, _ = run(capsys, "sweep", torus_doc, "--format", "tsv",
                           "--degrees", "1")
        assert code == 0
        assert out == ("1\t(-inf, 0]\t2\n"
                       "1\t(0, 2]\t1\n"
                       "1\t(2, inf)\t0\n")

    @pytest.mark.parametrize("degrees", ["0..1000", "-1", "3..1", "\u0661",
                                         "0_1", "+1", " 1", "01"])
    def test_bad_degrees(self, torus_doc, capsys, degrees):
        code, out, err = run(capsys, "sweep", torus_doc, "--degrees", degrees)
        assert (code, out) == (1, "")
        assert err == f"error: bad --degrees {degrees!r}\n"


class TestPairCommands:
    def test_relative(self, pinched_doc, capsys):
        code, out, _ = run(capsys, "relative", pinched_doc,
                           "--velocity", "T^2", "--subcomplex", "circle")
        assert code == 0
        payload = json.loads(out)
        assert payload["absolute"] == {"0": 0, "1": 1, "2": 0}
        assert payload["relative"] == {"0": 0, "1": 0, "2": 0}
        assert payload["attached"] == {"0": 0, "1": 1, "2": 0}
        assert payload["exact"] is True

    def test_les(self, pinched_doc, capsys):
        code, out, _ = run(capsys, "les", pinched_doc,
                           "--velocity", "T^2", "--subcomplex", "circle")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is True
        assert len(payload["nodes"]) == 9
        assert all(node["ok"] for node in payload["nodes"])

    def test_excise(self, tmp_path, capsys):
        # an arc of a hexagonal circle, cutting out its interior
        path = str(tmp_path / "circle.json")
        run(capsys, "example", "circle", "--n", "6", "-o", path)
        data = json.loads(open(path).read())
        data["subcomplexes"] = {"arc": [0, 1, 2, 3, 6, 7, 8]}
        path = write(tmp_path, "circle-sub.json", data)
        code, out, _ = run(capsys, "excise", path, "--velocity", "T^2",
                           "--subcomplex", "arc", "--cut", "1,6,7")
        assert code == 0
        payload = json.loads(out)
        assert payload["full"] == {"0": 0, "1": 1}
        assert payload["excised"] == {"0": 0, "1": 1}
        assert payload["equal"] is True

    def test_invalid_cut_exit_code(self, pinched_doc, capsys):
        data = json.loads(open(pinched_doc).read())
        circle_edge = next(
            cell["id"] for cell in data["cells"]
            if cell["dim"] == 1 and cell["id"] in data["subcomplexes"]["circle"])
        code, _, err = run(capsys, "excise", pinched_doc, "--velocity", "T^2",
                           "--subcomplex", "circle",
                           "--cut", str(circle_edge))
        assert code == 3
        assert "error" in err

    # ids are canonical decimal integers, as for document vertex keys:
    # int() would read 1_0 as 10 and an Arabic-Indic digit as 3
    @pytest.mark.parametrize("cut", ["1_0", "\u0663", "x", "1.5", "+1",
                                     " 1", "01", "-0", "1,,2", ",", "1,"])
    def test_bad_cut(self, pinched_doc, capsys, cut):
        code, out, err = run(capsys, "excise", pinched_doc, "--velocity",
                             "T^2", "--subcomplex", "circle", "--cut", cut)
        assert (code, out) == (1, "")
        assert err == f"error: bad --cut {cut!r}\n"

    def test_empty_cut(self, pinched_doc, capsys):
        code, out, _ = run(capsys, "excise", pinched_doc, "--velocity",
                           "T^2", "--subcomplex", "circle", "--cut", "")
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_unknown_subcomplex(self, pinched_doc, capsys):
        code, _, err = run(capsys, "relative", pinched_doc,
                           "--velocity", "T^2", "--subcomplex", "nope")
        assert code == 1
        assert "nope" in err


class TestValidate:
    def test_ok(self, torus_doc, capsys):
        assert run(capsys, "validate", torus_doc) == (0, "ok\n", "")

    def test_reports_problems(self, tmp_path, capsys):
        doc = {"format": "wrong",
               "cells": [{"id": 0, "dim": 1, "boundary": [[1, 5]]}]}
        path = write(tmp_path, "bad.json", doc)
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "format tag" in out
        assert "5" in out

    def test_vertex_rate_rejected(self, tmp_path, capsys):
        doc = {"format": TAG,
               "cells": [{"id": 0, "dim": 0, "boundary": [], "rate": "1"}]}
        path = write(tmp_path, "vrate.json", doc)
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "vertex 0" in out

    def test_missing_rate_reported(self, tmp_path, capsys):
        doc = {"format": TAG,
               "cells": [{"id": 0, "dim": 0, "boundary": []},
                         {"id": 1, "dim": 0, "boundary": []},
                         {"id": 2, "dim": 1,
                          "boundary": [[-1, 0], [1, 1]]}]}
        path = write(tmp_path, "norate.json", doc)
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "no rate" in out

    def test_loose_subcomplex_is_only_a_validation_problem(self, tmp_path,
                                                           capsys):
        data = edge_doc()
        data["subcomplexes"] = {"loose": [2]}
        path = write(tmp_path, "loose.json", data)
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert "closed under faces" in out
        # but computing on the document still works
        code, out, _ = run(capsys, "compute", path, "--velocity", "T^1")
        assert code == 0
        # and using the loose subcomplex is a precondition failure
        code, _, _ = run(capsys, "relative", path, "--velocity", "T^1",
                         "--subcomplex", "loose")
        assert code == 3


    # documented problem texts, each printed one a line with exit 1
    @pytest.mark.parametrize("doc, problems", [
        ({"format": TAG,
          "cells": [{"id": 0, "dim": 0, "boundary": [[1, 1]]},
                    {"id": 1, "dim": 0, "boundary": []},
                    {"id": 2, "dim": 1, "boundary": [[0, 0], [1, 1]],
                     "rate": "1"}]},
         ["cell 0 (dim 0): face 1 has dim 0", "vertex 0 has a boundary",
          "cell 2: zero coefficient on face 0"]),
        ({**edge_doc(), "geometry": {"ambient_dim": 1,
                                     "vertices": {"0": ["0"]}}},
         ["vertex 1 has no coordinates",
          "cell 2 has vertices without coordinates"]),
        ({"format": TAG,
          "cells": [{"id": v, "dim": 0, "boundary": []} for v in range(4)]
          + [{"id": 4 + i, "dim": 1, "boundary": [[-1, i], [1, (i + 1) % 4]]}
             for i in range(4)]
          + [{"id": 8, "dim": 2,
              "boundary": [[1, 4], [1, 5], [1, 6], [1, 7]]}],
          "geometry": {"ambient_dim": 2,
                       "vertices": {"0": ["0", "0"], "1": ["1", "0"],
                                    "2": ["1", "T"], "3": ["0", "T"]}}},
         ["cell 8 is not a simplex; cannot rate it from geometry"]),
        ({**edge_doc(rate="1"), "geometry": [1]},
         ["bad geometry: geometry must be an object"]),
        ({"format": TAG, "cells": [{"dim": 0}]},
         ["malformed cells: cell entry {'dim': 0} has no 'id'"]),
        ({"format": TAG, "cells": [{"id": 0, "dim": 0},
                                   {"id": 1, "boundary": []}]},
         ["malformed cells: cell 1 has no 'dim'"]),
        ({**edge_doc(), "geometry": {"vertices": {}}},
         ["bad geometry: geometry has no 'ambient_dim'",
          "cell 2 has no rate and no geometry"]),
    ], ids=["vertex with a boundary", "vertex without coordinates",
            "square over geometry", "geometry that is a list",
            "entry without an id", "entry without a dim",
            "geometry without ambient_dim"])
    def test_problem_texts(self, tmp_path, capsys, doc, problems):
        path = write(tmp_path, "bad.json", doc)
        assert run(capsys, "validate", path) == (
            1, "".join(f"{problem}\n" for problem in problems), "")


class TestGeometry:
    def test_rates_derived_from_coordinates(self, tmp_path, capsys):
        path = write(tmp_path, "edge.json", edge_doc())
        code, out, err = run(capsys, "rates", path)
        assert (code, out, err) == (0, "2\t1\t5\t-\n", "")

    def test_explicit_rate_wins_with_warning(self, tmp_path, capsys):
        path = write(tmp_path, "edge.json", edge_doc(rate="1"))
        code, out, err = run(capsys, "rates", path)
        assert code == 0
        assert out == "2\t1\t1\t-\n"
        assert "overrides geometry" in err

    def test_indeterminate_coordinates_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "edge.json",
                     edge_doc(geometry_vertex="0 + O(T^3)"))
        code, _, err = run(capsys, "rates", path)
        assert code == 2
        assert "error" in err

    def test_precision_cap_can_block_the_rate(self, tmp_path, capsys,
                                              monkeypatch):
        path = write(tmp_path, "edge.json", edge_doc())
        monkeypatch.setenv("VANHOM_PRECISION", "1")
        code, _, _ = run(capsys, "rates", path)
        assert code == 2
        monkeypatch.setenv("VANHOM_PRECISION", "6")
        code, out, _ = run(capsys, "rates", path)
        assert (code, out) == (0, "2\t1\t5\t-\n")

    def test_bad_precision_cap(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "edge.json", edge_doc())
        monkeypatch.setenv("VANHOM_PRECISION", "soon")
        code, _, _ = run(capsys, "rates", path)
        assert code == 1

    def test_unknown_face_is_reported(self, tmp_path, capsys):
        data = edge_doc(geometry_vertex="T")
        data["cells"][2]["boundary"] = [[-1, 0], [1, 7]]
        path = write(tmp_path, "edge.json", data)
        assert run(capsys, "validate", path) == (
            1, "cell 2: unknown face 7\n", "")
        for argv in (["rates"], ["compute", "--velocity", "T^1"]):
            assert run(capsys, argv[0], path, *argv[1:]) == (
                1, "", "error: cell 2: unknown face 7\n")

    def test_geometric_torus_matches_builder(self, tmp_path, torus_doc,
                                             capsys):
        g = helpers.geometric_torus()
        c, _ = annotate_geometric(g)
        doc = document_dict(c, {}, geometry=g)
        path = write(tmp_path, "gtorus.json", dumps_document(doc))
        code, out, _ = run(capsys, "compute", path, "--velocity", "T^2")
        assert code == 0
        _, reference, _ = run(capsys, "compute", torus_doc,
                              "--velocity", "T^2")
        assert json.loads(out)["betti"] == json.loads(reference)["betti"]


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "/no/such/file.json",
                           "--velocity", "T^2")
        assert code == 1
        assert "error" in err

    def test_bad_json(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", "{")
        code, _, _ = run(capsys, "compute", path, "--velocity", "T^2")
        assert code == 1

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["compute", "--velocity", "T^0"]])
    def test_deeply_nested_json(self, tmp_path, capsys, argv):
        # json.load recurses once per level and runs out of stack
        path = write(tmp_path, "deep.json", "[" * 100_000)
        assert run(capsys, argv[0], path, *argv[1:]) == (
            1, "", "error: JSON nesting is too deep to read\n")

    # a cell entry may be as long as the document: a bounded part of it
    # is shown, however long or deep it is
    @pytest.mark.parametrize("entry, shown", [
        (json.dumps(list(range(100_000))), "[0, 1, 2, 3, 4, 5, ...]"),
        ("[" * 900 + "]" * 900, "[[[[[[[...]]]]]]]")],
        ids=["100000 integers", "900 deep"])
    def test_long_cell_entry_is_echoed_in_part(self, tmp_path, capsys, entry,
                                               shown):
        path = write(tmp_path, "long.json",
                     '{"format": "%s", "cells": [%s]}' % (TAG, entry))
        problem = f"malformed cells: cell entry {shown} is not an object"
        assert run(capsys, "validate", path) == (1, f"{problem}\n", "")
        assert run(capsys, "compute", path, "--velocity", "T^0") == (
            1, "", f"error: {problem}\n")

    def test_bad_velocity(self, torus_doc, capsys):
        code, _, _ = run(capsys, "compute", torus_doc,
                         "--velocity", "banana")
        assert code == 1

    @pytest.mark.parametrize("which, flag", [("torus", "--p"),
                                             ("torus", "--q"),
                                             ("circle", "--rate")])
    def test_zero_denominator_in_an_example_rate(self, capsys, which, flag):
        code, out, err = run(capsys, "example", which, flag, "1/0")
        assert (code, out) == (1, "")
        assert err == f"error: bad {flag} '1/0'\n"

    # Fraction takes "_" between digits from Python 3.11 on, and 3.10
    # does not; rational text means the same on every supported version
    @pytest.mark.parametrize("text", ["1_0", "1/2_0"])
    def test_digit_separators_in_a_rate(self, tmp_path, capsys, text):
        path = write(tmp_path, "edge.json", edge_doc(rate=text))
        code, out, _ = run(capsys, "validate", path)
        assert (code, out) == (1, f"bad rate {text!r}\n")
        assert run(capsys, "rates", path) == (
            1, "", f"error: bad rate {text!r}\n")

    # json reads a number with a fraction or an exponent as a float, so
    # 0.10000000000000000001 would load as 1/10 and 1e400 as inf; two
    # edges of one circle, the second rated "1/10"
    @pytest.mark.parametrize("number, shown", [
        ("0.10000000000000000001", "float 0.1"), ("1e400", "float inf"),
        ("true", "bool True")])
    def test_rate_as_a_json_number_that_is_no_integer(self, tmp_path, capsys,
                                                       number, shown):
        text = ('{"format": "%s", "cells": ['
                '{"id": 0, "dim": 0, "boundary": []}, '
                '{"id": 1, "dim": 0, "boundary": []}, '
                '{"id": 2, "dim": 1, "boundary": [[-1, 0], [1, 1]], '
                '"rate": %s}, '
                '{"id": 3, "dim": 1, "boundary": [[1, 0], [-1, 1]], '
                '"rate": "1/10"}]}' % (TAG, number))
        path = write(tmp_path, "circle.json", text)
        problems = [f"cell 2: rate must be a string or an integer, got "
                    f"{shown}"]
        assert run(capsys, "validate", path) == (
            1, "".join(f"{problem}\n" for problem in problems), "")
        assert run(capsys, "rates", path) == (
            1, "", f"error: {'; '.join(problems)}\n")

    def test_rate_as_a_json_integer(self, tmp_path, capsys):
        path = write(tmp_path, "edge.json", edge_doc(rate=2))
        assert run(capsys, "rates", path) == (
            0, "2\t1\t2\t-\n", "warning: cell 2: explicit rate overrides "
                                 "geometry\n")

    @pytest.mark.parametrize("text", ["1_0", "1/2_0"])
    def test_digit_separators_in_the_precision_cap(self, tmp_path, capsys,
                                                   monkeypatch, text):
        path = write(tmp_path, "edge.json", edge_doc())
        monkeypatch.setenv("VANHOM_PRECISION", text)
        assert run(capsys, "rates", path) == (
            1, "", f"error: bad VANHOM_PRECISION {text!r}\n")

    @pytest.mark.parametrize("which, flag", [("torus", "--p"),
                                             ("torus", "--q"),
                                             ("pinched", "--rate")])
    def test_digit_separators_in_an_example_rate(self, capsys, which, flag):
        assert run(capsys, "example", which, flag, "1_0") == (
            1, "", f"error: bad {flag} '1_0'\n")

    # Fraction expands an exponent in full, and str() prints no integer of
    # more digits than sys.get_int_max_str_digits() allows
    @pytest.mark.parametrize("text", ["1e5000", "1e-5000"])
    def test_rate_beyond_the_digit_limit(self, tmp_path, capsys, text):
        path = write(tmp_path, "edge.json", edge_doc(rate=text))
        assert run(capsys, "validate", path) == (1, f"bad rate {text!r}\n",
                                                 "")
        for command in ("rates", "sweep"):
            assert run(capsys, command, path) == (
                1, "", f"error: bad rate {text!r}\n")

    def test_example_rate_beyond_the_digit_limit(self, capsys):
        assert run(capsys, "example", "circle", "--rate", "1e5000") == (
            1, "", "error: bad --rate '1e5000'\n")

    # rates prints the label as the last field of a tab-separated line
    @pytest.mark.parametrize("label", [["a", "b"], 7, None, "a\tb", "a\nb",
                                       "a\rb"])
    def test_label_that_is_no_tsv_field(self, tmp_path, capsys, label):
        doc = edge_doc(rate="1")
        doc["cells"][2]["label"] = label
        path = write(tmp_path, "edge.json", doc)
        problem = (f"malformed cells: cell 2: label must be a string without "
                   f"tab or line break, got {label!r}")
        assert run(capsys, "validate", path) == (1, f"{problem}\n", "")
        assert run(capsys, "rates", path) == (1, "", f"error: {problem}\n")

    def test_label_is_the_last_rates_field(self, tmp_path, capsys):
        doc = edge_doc(rate="1")
        doc["cells"][2]["label"] = "edge 2, é"
        path = write(tmp_path, "edge.json", doc)
        assert run(capsys, "rates", path)[:2] == (0, "2\t1\t1\tedge 2, é\n")

    def test_load_failure_on_structurally_bad_document(self, tmp_path,
                                                       capsys):
        doc = {"format": TAG,
               "cells": [{"id": 0, "dim": 1, "boundary": [[1, 9]]}]}
        path = write(tmp_path, "bad.json", doc)
        code, _, _ = run(capsys, "compute", path, "--velocity", "T^2")
        assert code == 1


class TestMalformedDocuments:
    CASES = [
        ("[1, 2]", "a document must be a JSON object"),
        ("null", "a document must be a JSON object"),
        (json.dumps({"format": TAG, "cells": [5]}),
         "cell entry 5 is not an object"),
        (json.dumps({"format": TAG, "cells": [], "subcomplexes": [1]}),
         "subcomplexes must map names"),
        (json.dumps({"format": TAG,
                     "cells": [{"id": 0, "dim": 0, "boundary": []}],
                     "subcomplexes": {"a": 5}}),
         "subcomplex 'a' must list cell ids"),
        (json.dumps({"format": TAG,
                     "cells": [{"id": 0, "dim": 0, "boundary": []}],
                     "geometry": {"ambient_dim": 1, "vertices": [1]}}),
         "vertices must map vertex ids"),
        # a float or a boolean is never read as an integer
        (json.dumps({"format": TAG,
                     "cells": [{"id": 1.9, "dim": 0, "boundary": []}]}),
         "cell id must be an integer, got 1.9"),
        (json.dumps(edge_doc() | {"cells": [
            {"id": 0, "dim": 0, "boundary": []},
            {"id": 1, "dim": 0, "boundary": []},
            {"id": 2, "dim": 1, "boundary": [[-1.5, 0], [1, 1]]}]}),
         "cell 2: boundary coefficient must be an integer, got -1.5"),
        (json.dumps({"format": TAG,
                     "cells": [{"id": 0, "dim": True, "boundary": []}]}),
         "cell 0: dim must be an integer >= 0, got True"),
        (json.dumps(edge_doc() | {"geometry": {
            "ambient_dim": 1.0, "vertices": {"0": ["0"], "1": ["T^5"]}}}),
         "ambient_dim must be an integer >= 0, got 1.0"),
        (json.dumps(edge_doc() | {"geometry": {
            "ambient_dim": 2, "vertices": {"0": ["0"], "1": ["T^5", "0"]}}}),
         "vertex 0: expected a list of 2 series strings"),
        (json.dumps({"format": TAG,
                     "cells": [{"id": 0, "dim": 0, "boundary": []}],
                     "subcomplexes": {"a": [0.0]}}),
         "subcomplex 'a' must list cell ids"),
        # text a user chose never makes a problem look like the one that
        # does not stop loading, a subcomplex not closed under faces
        (json.dumps({"format": TAG, "cells": [
            {"id": "closed under faces", "dim": 0, "boundary": []}]}),
         "cell id must be an integer, got 'closed under faces'"),
        (json.dumps({"format": TAG,
                     "cells": [{"id": 0, "dim": 0, "boundary": []}],
                     "subcomplexes": {"closed under faces": 7}}),
         "subcomplex 'closed under faces' must list cell ids"),
        (json.dumps({"format": TAG,
                     "cells": [{"id": 0, "dim": 0, "boundary": []}],
                     "subcomplexes": {"closed under faces": [9]}}),
         "subcomplex 'closed under faces': unknown cells [9]"),
        # a vertex key must be the canonical decimal form of its id, or
        # "1" and "01" would both name vertex 1 and one would be dropped
        (json.dumps(edge_doc() | {"geometry": {
            "ambient_dim": 1,
            "vertices": {"0": ["0"], "1": ["T^2"], "01": ["0"]}}}),
         "vertex key '01' is not a canonical decimal integer"),
        (json.dumps(edge_doc() | {"geometry": {
            "ambient_dim": 1, "vertices": {"0": ["0"], " 1": ["T^2"]}}}),
         "vertex key ' 1' is not a canonical decimal integer"),
        (json.dumps(edge_doc() | {"geometry": {
            "ambient_dim": 1, "vertices": {"0": ["0"], "1_0": ["T^2"]}}}),
         "vertex key '1_0' is not a canonical decimal integer"),
    ]

    @pytest.mark.parametrize("text, problem", CASES)
    def test_reported_as_document_problems(self, tmp_path, capsys, text,
                                           problem):
        path = write(tmp_path, "odd.json", text)
        code, out, err = run(capsys, "validate", path)
        assert code == 1
        assert problem in out
        assert "Traceback" not in out + err
        code, out, err = run(capsys, "compute", path, "--velocity", "T^0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert problem in err


class TestInternalChecks:
    def test_failed_subspace_check_exits_4(self, torus_doc, capsys,
                                           monkeypatch):
        def broken(self):
            raise AssertionError(
                "degree-1 subspace is not closed under the boundary")
        monkeypatch.setattr(ChainSubspaceComplex, "assert_boundary_closed",
                            broken)
        code, out, err = run(capsys, "compute", torus_doc,
                             "--velocity", "T^2", "--oracle")
        assert (code, out) == (4, "")
        assert err == ("error: internal check failed: degree-1 subspace "
                       "is not closed under the boundary\n")

    @pytest.mark.parametrize("check", [
        "absolute chains are not closed under the boundary",
        "attached chains are not closed under the boundary",
        "relative chains are not closed under the boundary",
        "relative boundary is not a relative cycle",
        "attached cycle is not an absolute cycle",
        "absolute cycle is not a relative cycle",
        "relative cycle has a boundary that is not an attached cycle"])
    def test_failed_pair_check_exits_4(self, pinched_doc, capsys,
                                       monkeypatch, check):
        failure = f"degree-1 {check} at T^2"
        class_rank = vanishing._class_rank

        def broken(images, bounds, cycles, message):
            if message == failure:
                raise AssertionError(message)
            return class_rank(images, bounds, cycles, message)
        monkeypatch.setattr(vanishing, "_class_rank", broken)
        code, out, err = run(capsys, "relative", pinched_doc, "--velocity",
                             "T^2", "--subcomplex", "circle")
        assert (code, out) == (4, "")
        assert err == f"error: internal check failed: {failure}\n"


class TestDeterminism:
    def test_compute_stdout_stable(self, torus_doc, capsys):
        first = run(capsys, "compute", torus_doc, "--velocity", "T^2")
        second = run(capsys, "compute", torus_doc, "--velocity", "T^2")
        assert first == second

    def test_example_bytes_stable(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run(capsys, "example", "pinched", "-o", a)
        run(capsys, "example", "pinched", "-o", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_example_stdout_matches_file(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        run(capsys, "example", "circle", "--n", "4", "-o", path)
        _, out, _ = run(capsys, "example", "circle", "--n", "4")
        assert out == open(path).read()

    def test_document_reload_is_identity(self, pinched_doc, capsys):
        from vanhom import load_document
        data = json.loads(open(pinched_doc).read())
        doc = load_document(data)
        again = document_dict(doc.complex, doc.rates,
                              subcomplexes=doc.subcomplexes, name=doc.name)
        assert dumps_document(again) == open(pinched_doc).read()


class TestParserReuse:
    # main() builds its parser once per process; a command must print the
    # same whatever ran before it in that process, argparse errors included
    SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from vanhom.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

    @classmethod
    def run_in_process(cls, commands, **env):
        env = dict(os.environ, **env)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", cls.SCRIPT, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_sequence_matches_commands_run_alone(self, pinched_doc):
        commands = [
            ["compute", pinched_doc, "--velocity", "T^2"],
            ["compute", pinched_doc],
            ["relative", pinched_doc, "--velocity", "T^2",
             "--subcomplex", "circle"],
            ["compute", pinched_doc, "--velocity", "T^2"],
        ]
        together = self.run_in_process(commands)
        alone = [self.run_in_process([argv])[0] for argv in commands]
        assert together == alone
        assert [code for code, _, _ in together] == [0, 2, 0, 0]
        assert "--velocity" in together[1][2]


class TestHashSeed:
    # stdout must not depend on the hash seed: the pair layer picks its
    # chains by membership in sets of keys, and loading reads each distinct
    # text once through dicts keyed by it
    def test_outputs_equal_under_two_hash_seeds(self, tmp_path, capsys):
        pinched, torus = str(tmp_path / "p8.json"), str(tmp_path / "t.json")
        assert run(capsys, "example", "pinched", "--n", "8",
                   "-o", pinched)[0] == 0
        assert run(capsys, "example", "torus", "--n", "6", "-o", torus)[0] == 0
        # a square of two triangles whose rates come from Puiseux
        # coordinates; the texts repeat from vertex to vertex
        xy = {0: ("0", "0"), 1: ("1", "0"), 2: ("0", "T^2"),
              3: ("1", "T^2")}
        g = GeometricComplex(2, {v: tuple(map(parse_series, p))
                                 for v, p in xy.items()},
                             [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3),
                              (0, 1, 3), (0, 3, 2)])
        c, _ = annotate_geometric(g)
        square = write(tmp_path, "g.json",
                       dumps_document(document_dict(c, {}, geometry=g)))
        pair = ["--velocity", "T^2", "--subcomplex", "circle"]
        commands = [["relative", pinched, *pair], ["les", pinched, *pair],
                    ["excise", pinched, *pair, "--cut", ""],
                    ["compute", torus, "--velocity", "T^2"],
                    ["sweep", torus], ["rates", square],
                    ["compute", square, "--velocity", "T^2"]]
        in_process = TestParserReuse.run_in_process
        first = in_process(commands, PYTHONHASHSEED="0")
        assert [code for code, _, _ in first] == [0] * len(commands)
        assert in_process(commands, PYTHONHASHSEED="1") == first
