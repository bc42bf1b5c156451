"""Command line front end.

Subcommands work on vanhom-complex/1 JSON documents:

    validate   check a document and report every problem
    rates      list the collapse rate of every positive-dimensional cell
    compute    vanishing homology dimensions at one velocity
    euler      the vanishing Euler characteristic at one velocity
    sweep      dimensions across all velocity thresholds
    relative   pair dimensions against a named subcomplex
    les        the pair's long exact sequence, node by node
    excise     compare pair dimensions before and after cutting a set out
    example    write one of the stock complexes as a document

Exit codes: 0 on success, 1 for invalid input (bad document, bad velocity,
missing rates), 2 when series truncation leaves an answer undetermined,
3 for precondition violations (a set that is not face-closed, or a cut
that is not removable), 4 when an internal consistency check fails (a
chain space not closed under the boundary, a pair-theory class that is
not a class of the next group); the message names the check and, for the
pair theory, the degree and the velocity.
Output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .cells import InvalidComplex, NotFaceClosed
from .cells import build_circle, build_pinched_spheres, build_torus
from .document import (ID_TEXT, DocumentError, _format_rate, _fraction,
                       document_dict, document_problems, dumps_document,
                       load_document)
from .puiseux import IndeterminateAtPrecision, SeriesParseError, parse_velocity
from .thinness import DegenerateSimplex, MissingRate, rate_of
from .vanishing import (InvalidExcision, VanishingBettiTable, excision_check,
                        les_check, relative_vanishing, sweep, vanishing_betti,
                        vanishing_betti_oracle)

_INPUT_ERRORS = (DocumentError, SeriesParseError, InvalidComplex,
                 MissingRate, DegenerateSimplex, json.JSONDecodeError,
                 OSError, KeyError, ValueError)
_PRECONDITION_ERRORS = (NotFaceClosed, InvalidExcision)


def _precision_cap():
    text = os.environ.get("VANHOM_PRECISION")
    return None if text is None else _rational(text, "VANHOM_PRECISION")


def _read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise DocumentError("JSON nesting is too deep to read") from None


def _load(path: str):
    doc = load_document(_read(path), precision_cap=_precision_cap())
    for warning in doc.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return doc


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_degrees(text, c):
    """The degrees named by --degrees (see _DEGREES_HELP), None for all."""
    if text is None:
        return None
    lo, sep, hi = text.partition("..")
    hi = hi if sep else lo
    try:
        degrees = range(int(lo), int(hi) + 1)
    except ValueError:
        degrees = range(0)
    if not (ID_TEXT.fullmatch(lo) and ID_TEXT.fullmatch(hi) and degrees
            and 0 <= degrees[0] and degrees[-1] <= max(c.dim, 0)):
        raise ValueError(f"bad --degrees {text!r}")
    return degrees


def _subcomplex(doc, name: str):
    try:
        return doc.subcomplexes[name]
    except KeyError:
        raise DocumentError(f"document declares no subcomplex {name!r}") from None


def _interval_text(lo, hi) -> str:
    left = "(-inf" if lo is None else f"({lo}"
    right = "inf)" if hi is None else f"{hi}]"
    return f"{left}, {right}"


# -- subcommands ---------------------------------------------------------


def _cmd_validate(args) -> int:
    problems = document_problems(_read(args.file),
                                 precision_cap=_precision_cap())
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("ok")
    return 0


def _cmd_rates(args) -> int:
    doc = _load(args.file)
    c = doc.complex
    for cell in c.cells():
        if cell.dim == 0:
            continue
        rate = rate_of(c, doc.rates, cell.id)
        label = cell.label if cell.label is not None else "-"
        print(f"{cell.id}\t{cell.dim}\t{_format_rate(rate)}\t{label}")
    return 0


def _cmd_compute(args) -> int:
    doc = _load(args.file)
    v = parse_velocity(args.velocity)
    degrees = _parse_degrees(args.degrees, doc.complex)
    engine = vanishing_betti_oracle if args.oracle else vanishing_betti
    table = engine(doc.complex, doc.rates, v)
    dims = table.dims
    if degrees is not None:
        dims = {j: dims.get(j, 0) for j in degrees}
    if args.format == "tsv":
        for j in sorted(dims):
            print(f"{j}\t{dims[j]}")
    else:
        _emit(VanishingBettiTable(v, dims, table.euler).as_dict())
    return 0


def _cmd_euler(args) -> int:
    doc = _load(args.file)
    v = parse_velocity(args.velocity)
    print(vanishing_betti(doc.complex, doc.rates, v).euler)
    return 0


def _cmd_sweep(args) -> int:
    doc = _load(args.file)
    table = sweep(doc.complex, doc.rates,
                  degrees=_parse_degrees(args.degrees, doc.complex))
    if args.format == "tsv":
        for j in sorted(table.dims):
            for lo, hi, value in table.intervals(j):
                print(f"{j}\t{_interval_text(lo, hi)}\t{value}")
    else:
        _emit({"breakpoints": [str(bp) for bp in table.breakpoints],
               "degrees": {str(j): list(row)
                           for j, row in sorted(table.dims.items())}})
    return 0


def _cmd_pair(args) -> int:
    # relative and les differ only in the report they print
    report_of = relative_vanishing if args.command == "relative" else les_check
    doc = _load(args.file)
    v = parse_velocity(args.velocity)
    report = report_of(doc.complex, doc.rates,
                       _subcomplex(doc, args.subcomplex), v)
    _emit(report.as_dict())
    return 0


def _cmd_excise(args) -> int:
    doc = _load(args.file)
    v = parse_velocity(args.velocity)
    parts = args.cut.split(",") if args.cut else []
    if not all(ID_TEXT.fullmatch(part) for part in parts):
        raise ValueError(f"bad --cut {args.cut!r}")
    cut = frozenset(map(int, parts))
    report = excision_check(doc.complex, doc.rates,
                            _subcomplex(doc, args.subcomplex), cut, v)
    _emit(report.as_dict())
    return 0


def _rational(text: str, flag: str) -> Fraction:
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad {flag} {text!r}") from None


def _cmd_example(args) -> int:
    if args.which == "circle":
        c, rates = build_circle(args.n, _rational(args.rate, "--rate"))
        doc = document_dict(c, rates, name=f"circle({args.rate},{args.n})")
    elif args.which == "torus":
        c, rates = build_torus(_rational(args.p, "--p"),
                               _rational(args.q, "--q"), args.n)
        doc = document_dict(c, rates,
                            name=f"torus({args.p},{args.q},{args.n})")
    else:
        c, rates, circle = build_pinched_spheres(
            _rational(args.rate, "--rate"), args.n)
        doc = document_dict(c, rates, subcomplexes={"circle": circle},
                            name=f"pinched_spheres({args.rate},{args.n})")
    text = dumps_document(doc)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


_DEGREES_HELP = ("one degree or a range lo..hi like 0..2: decimal integers "
                 "without sign or leading zeros, with 0 <= lo <= hi <= the "
                 "top cell dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanhom",
        description="vanishing homology of collapsing cell complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("file", help="vanhom-complex/1 JSON document")
        return p

    def with_velocity(p):
        p.add_argument("--velocity", required=True,
                       help="T^q for rates >= q, or >T^q for rates > q")
        return p

    def with_subcomplex(p):
        p.add_argument("--subcomplex", required=True,
                       help="name of a declared subcomplex")
        return p

    p = with_file(sub.add_parser("validate", help="check a document"))
    p.set_defaults(func=_cmd_validate)

    p = with_file(sub.add_parser("rates", help="list per-cell rates"))
    p.set_defaults(func=_cmd_rates)

    p = with_velocity(with_file(sub.add_parser(
        "compute", help="vanishing homology dimensions")))
    p.add_argument("--degrees", help=_DEGREES_HELP)
    p.add_argument("--oracle", action="store_true",
                   help="use the chain-subspace oracle instead of the "
                        "pivot-count engine")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_compute)

    p = with_velocity(with_file(sub.add_parser(
        "euler", help="vanishing Euler characteristic")))
    p.set_defaults(func=_cmd_euler)

    p = with_file(sub.add_parser(
        "sweep", help="dimensions across all velocity thresholds"))
    p.add_argument("--degrees", help=_DEGREES_HELP)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_sweep)

    p = with_subcomplex(with_velocity(with_file(sub.add_parser(
        "relative", help="pair dimensions against a subcomplex"))))
    p.set_defaults(func=_cmd_pair)

    p = with_subcomplex(with_velocity(with_file(sub.add_parser(
        "les", help="long exact sequence of a pair"))))
    p.set_defaults(func=_cmd_pair)

    p = with_subcomplex(with_velocity(with_file(sub.add_parser(
        "excise", help="excision comparison for a pair"))))
    p.add_argument("--cut", required=True,
                   help="comma-separated cell ids to remove, each a "
                        "canonical decimal integer as in the vertex keys; "
                        "an empty string is an empty cut")
    p.set_defaults(func=_cmd_excise)

    p = sub.add_parser("example", help="write a stock complex")
    p.add_argument("which", choices=("circle", "torus", "pinched"))
    p.add_argument("--n", type=int, default=3, help="resolution (default 3)")
    p.add_argument("--rate", default="2",
                   help="collapse rate for circle/pinched (default 2)")
    p.add_argument("--p", default="0", help="first torus factor rate")
    p.add_argument("--q", default="2", help="second torus factor rate")
    p.add_argument("-o", "--output", default="-",
                   help="output path (default stdout)")
    p.set_defaults(func=_cmd_example)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on first use and shared by every later main() in the process;
    # parse_args leaves a parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except IndeterminateAtPrecision as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
