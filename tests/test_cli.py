"""End-to-end command line coverage, run in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from vanhom import (ChainSubspaceComplex, annotate_geometric, document_dict,
                    dumps_document)
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
        require = vanishing._require

        def broken(part, space, space_rank, message):
            if message == failure:
                raise AssertionError(message)
            require(part, space, space_rank, message)
        monkeypatch.setattr(vanishing, "_require", broken)
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

    def run_in_process(self, commands):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
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
