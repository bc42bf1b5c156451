"""Malformed documents through the command line: exit codes, no tracebacks."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from vanhom.cli import main

TAG = "vanhom-complex/1"
DOCUMENTED_EXITS = {0, 1, 2, 3}


def triangle(rates=True, geometry=True):
    """A filled triangle: rates on the cells, coordinates, or both."""
    faces = {3: (0, 1), 4: (1, 2), 5: (0, 2)}
    cells = [{"id": v, "dim": 0, "boundary": []} for v in range(3)]
    cells += [{"id": e, "dim": 1, "boundary": [[-1, a], [1, b]]}
              for e, (a, b) in faces.items()]
    cells.append({"id": 6, "dim": 2, "boundary": [[1, 3], [1, 4], [-1, 5]]})
    doc = {"format": TAG, "cells": cells, "subcomplexes": {"edge": [0, 1, 3]}}
    if rates:
        for cell in cells[3:]:
            cell["rate"] = "3/2" if cell["id"] == 4 else "0"
    if geometry:
        doc["geometry"] = {"ambient_dim": 2,
                           "vertices": {"0": ["0", "0"],
                                        "1": ["1", "T^(1/2)"],
                                        "2": ["2 - T", "T^2 + O(T^4)"]}}
    return doc


SERIES_TEXT = st.sampled_from(
    ["0", "T", "T^(1/3) - 2*T", "0 + O(T^2)", "1 + O(T^0)", "T^^2",
     "O(T)", "T^(1/0)", "1/0", "inf", "3/2", "", "T + T"])
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=5),
    SERIES_TEXT, st.lists(st.integers(-2, 9), max_size=3),
    st.lists(st.lists(st.one_of(st.integers(-2, 9), st.floats()),
                      max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))


def slots(value):
    """Every (container, key) pair below a JSON value."""
    out = []
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.append((value, key))
        out.extend(slots(child))
    return out


@st.composite
def documents(draw):
    """A valid triangle document with up to three values replaced or
    deleted, or now and then a bare JSON value that is no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    doc = triangle(*draw(st.sampled_from(
        [(True, False), (False, True), (True, True)])))
    for _ in range(draw(st.integers(0, 3))):
        places = slots(doc)
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JUNK)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=documents())
def test_no_traceback_and_documented_exit(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for argv in (["validate", path], ["rates", path],
                     ["compute", path, "--velocity", "T^1"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()
