"""Reading and writing annotated complexes as JSON documents.

The on-disk format is tagged ``vanhom-complex/1``: a list of cells (id,
dimension, signed boundary, optional collapse rate, optional label),
optional named face-closed cell sets, and an optional geometry block
giving truncated Puiseux coordinates for every vertex.  Cells may take
their rate directly from the ``rate`` field or have it derived from the
geometry; an explicit rate wins over geometry, with a warning.

Loading reads each piece a document shares once: equal coordinate or
rate texts share one parsed value, and vertex supports come from the
faces' supports in one pass.  Rates are rational text (see _fraction).
Its cost is per cell, since every command loads its document afresh:
the entries and each boundary are walked once, a boundary pair that is
a list of two ints is taken without further checks, the cells are
sorted once, and vertex coverage is one set difference per document.

Writing is canonical and byte-stable: cells sorted by id, keys sorted,
rates as exact fraction strings.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .cells import Cell, CellComplex, CellSet, validate
from .puiseux import (INF, ExtRational, PuiseuxSeries, SeriesParseError,
                      format_series, parse_series)
from .thinness import GeometricComplex, simplex_rates

FORMAT_TAG = "vanhom-complex/1"
ID_TEXT = re.compile(r"0|-?[1-9][0-9]*")
_PAIRS = "cell {}: boundary must list [coefficient, face] pairs"
_LABEL_BREAK = re.compile("[\t\r\n]")
_ABSENT = object()  # an entry's missing field


class DocumentError(ValueError):
    """The document does not meet the format contract."""


@dataclass
class ComplexDocument:
    """A loaded document: complex, rates, named cell sets."""

    complex: CellComplex
    rates: Dict[int, ExtRational]
    subcomplexes: Dict[str, CellSet] = field(default_factory=dict)
    name: Optional[str] = None
    warnings: List[str] = field(default_factory=list)


def _fraction(text: str) -> Fraction:
    """Fraction(text), if str() can print it, without the '_' digit
    separators that Fraction takes from Python 3.11 on.

    Neither term has more digits than len(text) plus the exponent's size:
    that is bounded by the int-to-str digit limit before Fraction expands
    the exponent.
    """
    exp = re.search(r"[eE]([-+]?\d+)\s*\Z", text)
    digits = len(text) + (abs(int(exp[1])) if exp else 0)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if "_" in text or 0 < limit < digits:
        raise ValueError(f"invalid literal for Fraction: {text!r}")
    return Fraction(text)


def _parse_rate(text, cid: int, parsed: dict) -> ExtRational:
    # a JSON number with a fraction or an exponent arrives as a float,
    # already rounded: take only rational text or a real int, before
    # looking the text up among those parsed, as True and 1.0 hash like 1
    if type(text) is not int and not isinstance(text, str):
        raise DocumentError(f"cell {cid}: rate must be a string or an "
                            f"integer, got {type(text).__name__} {text!r}")
    if text not in parsed:
        try:
            parsed[text] = INF if text == "inf" else _fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rate {text!r}") from exc
    return parsed[text]


def _format_rate(rate: ExtRational) -> str:
    return "inf" if rate is INF else str(rate)


def _integer(value, what: str, least=None, cid=None) -> int:
    # JSON numbers arrive as int or float, and bool is an int subclass:
    # accept only a real int, so nothing is truncated or coerced
    if type(value) is not int or (least is not None and value < least):
        kind = "an integer" if least is None else f"an integer >= {least}"
        raise TypeError(f"{what.format(cid)} must be {kind}, got {value!r}")
    return value


def _check_label(label, cid: int, error) -> None:
    # a label is printed as a field of a TSV line
    if not isinstance(label, str) or _LABEL_BREAK.search(label):
        raise error(f"cell {cid}: label must be a string without tab or "
                    f"line break, got {reprlib.repr(label)}")


def _pair(pair, cid: int) -> Tuple[int, int]:
    """A boundary pair other than a list of two ints, checked."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TypeError(_PAIRS.format(cid))
    k, f = pair
    _integer(k, "cell {}: boundary coefficient", cid=cid)
    _integer(f, "cell {}: face id", cid=cid)
    return k, f


def _cells_from_data(entries: list) -> Tuple[CellComplex, Dict[int, tuple]]:
    """The complex the cell entries describe, and (dim, rate field) of each
    entry with a rate field.

    One walk over the entries, and one over each boundary: a pair that is
    a list of two ints, the common case, is taken at once, and any other
    goes through the checks that name the first bad pair.
    """
    cells, rates = [], {}
    for item in entries:
        if not isinstance(item, dict):
            # the entry can be as long as the document: echo a bounded part
            raise TypeError(
                f"cell entry {reprlib.repr(item)} is not an object")
        cid = item.get("id", _ABSENT)
        if type(cid) is not int:
            if cid is _ABSENT:
                raise ValueError(
                    f"cell entry {reprlib.repr(item)} has no 'id'")
            _integer(cid, "cell id")
        boundary = item.get("boundary", ())
        if not isinstance(boundary, (list, tuple)):
            raise TypeError(_PAIRS.format(cid))
        pairs = []
        for pair in boundary:
            if type(pair) is list and len(pair) == 2:
                k, f = pair
                if type(k) is int and type(f) is int:
                    pairs.append((k, f))
                    continue
            pairs.append(_pair(pair, cid))
        label = item.get("label", _ABSENT)
        if label is _ABSENT:
            label = None
        elif type(label) is not str or not label.isprintable():
            _check_label(label, cid, TypeError)
        dim = item.get("dim", _ABSENT)
        if type(dim) is not int or dim < 0:
            if dim is _ABSENT:
                raise ValueError(f"cell {cid} has no 'dim'")
            _integer(dim, "cell {}: dim", 0, cid)
        cells.append(Cell(cid, dim, tuple(pairs), label))
        rate = item.get("rate", _ABSENT)
        if rate is not _ABSENT:
            rates[cid] = dim, rate
    return CellComplex(cells), rates


def _geometry_from_data(block, precision_cap) -> GeometricComplex:
    if not isinstance(block, dict):
        raise TypeError("geometry must be an object")
    if "ambient_dim" not in block:
        raise ValueError("geometry has no 'ambient_dim'")
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
                s = parse_series(text)
                parsed[text] = s if cap is None else s.truncate(cap)
        coords[int(key)] = tuple(parsed[text] for text in texts)
    return GeometricComplex(ambient_dim=ambient, vertices=coords,
                            simplices=[])


def _vertex_supports(c: CellComplex) -> Dict[int, Optional[CellSet]]:
    """The vertex ids under every cell, in one pass up the dimensions.

    A vertex is its own support, and any other cell's is the union of its
    faces' supports.  A cell gets None unless every face of it is a known
    cell exactly one dimension down with a support of its own: validate
    names a broken face once, and nothing is derived over it.
    """
    cells = sorted(c.cells(), key=attrgetter("dim"))
    dims = {cell.id: cell.dim for cell in cells}
    supports: Dict[int, Optional[CellSet]] = {}
    for cell in cells:
        below = [supports[f] if dims.get(f) == cell.dim - 1 else None
                 for _, f in cell.boundary]
        if None in below:
            supports[cell.id] = None
        elif cell.dim == 0:
            supports[cell.id] = frozenset((cell.id,))
        else:
            supports[cell.id] = frozenset().union(*below)
    return supports


def _read_document(data, precision_cap):
    """Check a document and build what it describes, in one pass.

    Returns (problems, subcomplexes, complex, geometry, explicit rates,
    supports).  subcomplexes maps each declared subcomplex that lists
    known cells to its ids; its face closure is left to the caller.  The
    complex is None when the cells are too malformed to build one; the
    geometry is None when the document has none or it does not parse.
    supports maps each cell whose rate comes from the geometry to its
    vertex ids, in cell-id order, and skips a cell over a broken face.
    """
    if not isinstance(data, dict):
        return ["a document must be a JSON object"], {}, None, None, {}, {}
    problems = []
    if data.get("format") != FORMAT_TAG:
        problems.append(f"format tag must be {FORMAT_TAG!r}")
    if not isinstance(data.get("cells"), list):
        problems.append("missing cell list")
        return problems, {}, None, None, {}, {}
    try:
        c, fields = _cells_from_data(data["cells"])
    except (TypeError, ValueError) as exc:
        problems.append(f"malformed cells: {exc}")
        return problems, {}, None, None, {}, {}
    report = validate(c)
    problems.extend(report.problems)
    cells = c.cells()

    rated: Dict[int, ExtRational] = {}
    parsed: dict = {}  # each distinct rate text, read once
    for cid, (dim, text) in fields.items():
        if dim == 0:
            problems.append(f"vertex {cid} must not carry a rate")
            continue
        # True and 1.0 hash like 1: only a str is looked up before the
        # checks _parse_rate makes
        rate = parsed.get(text) if type(text) is str else None
        if rate is None:
            try:
                rate = _parse_rate(text, cid, parsed)
            except DocumentError as exc:
                problems.append(str(exc))
                continue
        rated[cid] = rate

    geometry = None
    uncovered: CellSet = frozenset()
    if "geometry" in data:
        try:
            geometry = _geometry_from_data(data["geometry"], precision_cap)
        except (TypeError, ValueError, SeriesParseError) as exc:
            problems.append(f"bad geometry: {exc}")
        if geometry is not None:
            known = geometry.vertices
            uncovered = frozenset(cell.id for cell in cells
                                  if cell.dim == 0 and cell.id not in known)
            problems.extend(f"vertex {vid} has no coordinates"
                            for vid in sorted(uncovered))

    supports: Dict[int, List[int]] = {}
    under = _vertex_supports(c) if geometry is not None else {}
    for cell in cells:
        if cell.dim == 0 or cell.id in fields:
            continue  # a rate field that does not parse is named above
        if geometry is None:
            problems.append(f"cell {cell.id} has no rate and no geometry")
            continue
        vertices = under[cell.id]
        if vertices is None:
            continue  # validate has named the broken face
        support = supports[cell.id] = sorted(vertices)
        if len(support) != cell.dim + 1:
            problems.append(
                f"cell {cell.id} is not a simplex; cannot rate it from geometry")
        elif uncovered and not uncovered.isdisjoint(vertices):
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


def document_problems(data: dict, precision_cap=None) -> List[str]:
    """Everything wrong with a document, without raising.

    Covers the format tag, cell structure, the complex laws, rate syntax,
    geometry coverage and the face-closure of declared subcomplexes.  Ids,
    dimensions, boundary coefficients and ambient_dim must be JSON
    integers, and a rate a string or a JSON integer; a float or a boolean
    is a problem, never truncated or rounded.  A face that is unknown or
    of the wrong dimension is named once, by the complex laws.
    """
    problems, subcomplexes, c, *_ = _read_document(data, precision_cap)
    return problems + [f"subcomplex {name!r} is not closed under faces"
                       for name, ids in subcomplexes.items()
                       if not c.is_face_closed(ids)]


def load_document(data: dict, precision_cap=None) -> ComplexDocument:
    """Build the annotated complex a document describes.

    Structural problems raise DocumentError.  A subcomplex that is not
    face-closed is not one: it loads as it is, unchecked, and using it
    downstream fails.  Rates missing from the cells are derived from the
    geometry, in cell-id order; deriving can raise IndeterminateAtPrecision
    or DegenerateSimplex for the first cell that fails.
    """
    problems, subcomplexes, c, geometry, rates, supports = _read_document(
        data, precision_cap)
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


def document_dict(c: CellComplex, rates: Dict[int, ExtRational],
                  subcomplexes: Optional[Dict[str, CellSet]] = None,
                  name: Optional[str] = None,
                  geometry: Optional[GeometricComplex] = None) -> dict:
    """The canonical JSON-ready form of an annotated complex.

    A label that loading would refuse, one that is not a string or that
    holds a tab or a line break, raises ValueError naming its cell.
    """
    cells = []
    for cell in c.cells():
        item: dict = {"id": cell.id, "dim": cell.dim,
                      "boundary": [[k, f] for k, f in cell.boundary]}
        if cell.id in rates:
            item["rate"] = _format_rate(rates[cell.id])
        if cell.label is not None:
            _check_label(cell.label, cell.id, ValueError)
            item["label"] = cell.label
        cells.append(item)
    out: dict = {"format": FORMAT_TAG, "cells": cells}
    if name is not None:
        out["name"] = name
    if subcomplexes:
        out["subcomplexes"] = {key: sorted(ids)
                               for key, ids in sorted(subcomplexes.items())}
    if geometry is not None:
        out["geometry"] = {
            "ambient_dim": geometry.ambient_dim,
            "vertices": {str(vid): [format_series(s) for s in point]
                         for vid, point in sorted(geometry.vertices.items())}}
    return out


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
