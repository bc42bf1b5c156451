"""Reading and writing annotated complexes as JSON documents.

The on-disk format is tagged ``vanhom-complex/1``: a list of cells (id,
dimension, signed boundary, optional collapse rate, optional label),
optional named face-closed cell sets, and an optional geometry block
giving truncated Puiseux coordinates for every vertex.  Cells may take
their rate directly from the ``rate`` field or have it derived from the
geometry; an explicit rate wins over geometry, with a warning.

Writing is canonical and byte-stable: cells sorted by id, keys sorted,
rates as exact fraction strings.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cells import Cell, CellComplex, CellSet, validate, vertex_support
from .puiseux import (INF, ExtRational, PuiseuxSeries, SeriesParseError,
                      format_series, parse_series)
from .thinness import GeometricComplex, simplex_rates

FORMAT_TAG = "vanhom-complex/1"


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


def _parse_rate(text) -> ExtRational:
    if text == "inf":
        return INF
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rate {text!r}") from exc


def _format_rate(rate: ExtRational) -> str:
    return "inf" if rate is INF else str(rate)


def _integer(value, what: str, least=None) -> int:
    # JSON numbers arrive as int or float, and bool is an int subclass:
    # accept only a real int, so nothing is truncated or coerced
    if type(value) is not int or (least is not None and value < least):
        kind = "an integer" if least is None else f"an integer >= {least}"
        raise TypeError(f"{what} must be {kind}, got {value!r}")
    return value


def _cells_from_data(data: dict) -> CellComplex:
    cells = []
    for item in data.get("cells", []):
        if not isinstance(item, dict):
            raise TypeError(f"cell entry {item!r} is not an object")
        cid = _integer(item["id"], "cell id")
        boundary = item.get("boundary", [])
        if not isinstance(boundary, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                for pair in boundary):
            raise TypeError(
                f"cell {cid}: boundary must list [coefficient, face] pairs")
        boundary = tuple(
            (_integer(k, f"cell {cid}: boundary coefficient"),
             _integer(f, f"cell {cid}: face id")) for k, f in boundary)
        cells.append(Cell(cid, _integer(item["dim"], f"cell {cid}: dim", 0),
                          boundary, item.get("label")))
    return CellComplex(cells)


def _geometry_from_data(block, precision_cap) -> GeometricComplex:
    if not isinstance(block, dict):
        raise TypeError("geometry must be an object")
    ambient = _integer(block["ambient_dim"], "ambient_dim", 0)
    coords: Dict[int, Tuple[PuiseuxSeries, ...]] = {}
    vertices = block.get("vertices", {})
    if not isinstance(vertices, dict):
        raise TypeError("vertices must map vertex ids to coordinates")
    for key, texts in vertices.items():
        # only the canonical form, so no two keys name one vertex
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise ValueError(
                f"vertex key {key!r} is not a canonical decimal integer")
        if not (isinstance(texts, list) and len(texts) == ambient
                and all(isinstance(text, str) for text in texts)):
            raise TypeError(
                f"vertex {key}: expected a list of {ambient} series strings")
        point = []
        for text in texts:
            s = parse_series(text)
            if precision_cap is not None:
                s = s.truncate(Fraction(precision_cap))
            point.append(s)
        coords[int(key)] = tuple(point)
    return GeometricComplex(ambient_dim=ambient, vertices=coords,
                            simplices=[])


def _read_document(data, precision_cap):
    """Check a document and build what it describes, in one pass.

    Returns (problems, open subcomplexes, complex, geometry, explicit
    rates).  The open subcomplexes are the problems of subcomplexes that
    are not closed under faces, kept apart from the others: the document
    still loads with them.  The complex is None when the cells are too
    malformed to build one; the geometry is None when the document has
    none or it does not parse.
    """
    if not isinstance(data, dict):
        return ["a document must be a JSON object"], [], None, None, {}
    problems, unclosed = [], []
    if data.get("format") != FORMAT_TAG:
        problems.append(f"format tag must be {FORMAT_TAG!r}")
    if not isinstance(data.get("cells"), list):
        problems.append("missing cell list")
        return problems, [], None, None, {}
    try:
        c = _cells_from_data(data)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed cells: {exc}")
        return problems, [], None, None, {}
    report = validate(c)
    problems.extend(report.problems)

    rated: Dict[int, ExtRational] = {}
    for item in data["cells"]:
        cid = item["id"]
        if "rate" in item:
            if c.cell(cid).dim == 0:
                problems.append(f"vertex {cid} must not carry a rate")
                continue
            try:
                rated[cid] = _parse_rate(item["rate"])
            except DocumentError as exc:
                problems.append(str(exc))

    geometry = None
    if "geometry" in data:
        try:
            geometry = _geometry_from_data(data["geometry"], precision_cap)
        except (KeyError, TypeError, ValueError, SeriesParseError) as exc:
            problems.append(f"bad geometry: {exc}")
        if geometry is not None:
            for cell in c.cells_of_dim(0):
                if cell.id not in geometry.vertices:
                    problems.append(f"vertex {cell.id} has no coordinates")

    for cell in c.cells():
        if cell.dim == 0 or cell.id in rated:
            continue
        if geometry is None:
            problems.append(f"cell {cell.id} has no rate and no geometry")
            continue
        support = vertex_support(c, cell.id)
        if len(support) != cell.dim + 1:
            problems.append(
                f"cell {cell.id} is not a simplex; cannot rate it from geometry")
        elif not all(vid in geometry.vertices for vid in support):
            problems.append(f"cell {cell.id} has vertices without coordinates")

    subcomplexes = data.get("subcomplexes", {})
    if not isinstance(subcomplexes, dict):
        problems.append("subcomplexes must map names to cell id lists")
        subcomplexes = {}
    for name, ids in subcomplexes.items():
        if not (isinstance(ids, list)
                and all(type(i) is int for i in ids)):
            problems.append(f"subcomplex {name!r} must list cell ids")
            continue
        unknown = [i for i in ids if i not in c]
        if unknown:
            problems.append(f"subcomplex {name!r}: unknown cells {unknown}")
        elif not c.is_face_closed(frozenset(ids)):
            unclosed.append(f"subcomplex {name!r} is not closed under faces")
    return problems, unclosed, c, geometry, rated


def document_problems(data: dict, precision_cap=None) -> List[str]:
    """Everything wrong with a document, without raising.

    Covers the format tag, cell structure, the complex laws, rate syntax,
    geometry coverage and the face-closure of declared subcomplexes.  Ids,
    dimensions, boundary coefficients and ambient_dim must be JSON
    integers; a float or a boolean is a problem, never truncated.
    """
    problems, unclosed, *_ = _read_document(data, precision_cap)
    return problems + unclosed


def load_document(data: dict, precision_cap=None) -> ComplexDocument:
    """Build the annotated complex a document describes.

    Structural problems raise DocumentError.  A subcomplex that is not
    face-closed is not one: it loads as it is, and using it downstream
    fails.  Rates missing from the cells are derived from the geometry, in
    cell-id order; deriving can raise IndeterminateAtPrecision or
    DegenerateSimplex for the first cell that fails.
    """
    problems, _, c, geometry, rates = _read_document(data, precision_cap)
    if problems:
        raise DocumentError("; ".join(problems))
    warnings = [f"cell {cid}: explicit rate overrides geometry"
                for cid in sorted(rates)] if geometry is not None else []
    derived = [cell.id for cell in c.cells()
               if cell.dim > 0 and cell.id not in rates]
    if derived:
        rates.update(zip(derived, simplex_rates(
            geometry, [sorted(vertex_support(c, cid)) for cid in derived])))
    subcomplexes = {name: frozenset(ids)
                    for name, ids in data.get("subcomplexes", {}).items()}
    return ComplexDocument(complex=c, rates=dict(sorted(rates.items())),
                           subcomplexes=subcomplexes, name=data.get("name"),
                           warnings=warnings)


def document_dict(c: CellComplex, rates: Dict[int, ExtRational],
                  subcomplexes: Optional[Dict[str, CellSet]] = None,
                  name: Optional[str] = None,
                  geometry: Optional[GeometricComplex] = None) -> dict:
    """The canonical JSON-ready form of an annotated complex."""
    cells = []
    for cell in c.cells():
        item: dict = {"id": cell.id, "dim": cell.dim,
                      "boundary": [[k, f] for k, f in cell.boundary]}
        if cell.id in rates:
            item["rate"] = _format_rate(rates[cell.id])
        if cell.label is not None:
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
