"""Outside-in span recorder for the traced run.

Nothing in ``vanhom`` knows it is traced.  ``Recorder.install`` replaces
the public functions of each layer module, and a few public methods, with
wrappers that record a span (name, start, end, parent) around the call.
A module that did ``from .homology import image_betti`` holds its own
binding, so every module attribute that still points at an original is
re-bound to its wrapper too; otherwise those calls would go unseen.

Per-cell and per-term helpers (``HOT``) get no span: their bodies are a
few microseconds, about what a span costs, so timing them would mostly
measure the recorder.  Series products and sums are only counted.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from math import comb

LAYERS = ("cli", "document", "puiseux", "cells", "thinness", "homology",
          "vanishing")

HOT = {"homology.chain_boundary", "homology.restrict_chain",
       "homology.unit_chains", "thinness.rate_of", "thinness.is_thin",
       "cells.vertex_support", "puiseux.series", "puiseux.constant",
       "puiseux.t_power", "puiseux.valuation", "puiseux.compare",
       "puiseux.velocity_contains"}

SPANNED_METHODS = {
    "cells": ("CellComplex.restrict",),
    "homology": ("Subspace.__init__", "Subspace.intersection",
                 "Subspace.map_kernel", "Subspace.map_preimage"),
}

COUNTED_METHODS = {
    "puiseux": (("PuiseuxSeries.__mul__", "series_mul"),
                ("PuiseuxSeries.__add__", "series_add")),
}


def _degree_label(args, kwargs):
    j = args[3] if len(args) > 3 else kwargs["j"]
    return f"homology.image_betti.d{j}"


def _materialize(args, kwargs):
    return (list(args[0]),) + args[1:], kwargs


def _note_rank_of(counts, args, kwargs, result):
    counts["rank_of_vectors"] += len(args[0])
    counts["rank_of_rank"] += result


def _note_kernel_basis(counts, args, kwargs, result):
    counts["kernel_basis_vectors"] += len(args[0])


def _note_sweep(counts, args, kwargs, result):
    counts["sweep_breakpoints"] += len(result.breakpoints)
    counts["sweep_intervals"] += len(result.breakpoints) + 1


def _note_minors(counts, args, kwargs, result):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    counts["minors"] += sum(comb(rows, k) * comb(cols, k)
                            for k in range(1, min(rows, cols) + 1))


# per-function extras: (label, prepare, note)
HOOKS = {
    "homology.image_betti": (_degree_label, None, None),
    "homology.rank_of": (None, _materialize, _note_rank_of),
    "homology.kernel_basis": (None, None, _note_kernel_basis),
    "vanishing.sweep": (None, None, _note_sweep),
    "thinness.invariant_factor_valuations": (None, None, _note_minors),
}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _span(self, name, fn):
        label, prepare, note = HOOKS.get(name, (None, None, None))
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = [label(args, kwargs) if label else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(counts, args, kwargs, result)
            return result
        return traced

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every layer's public functions and re-bind their imports."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"vanhom.{layer}"]
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in HOT
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped[obj] = self._span(name, obj)
            for path in SPANNED_METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._span(f"{layer}.{path}",
                                              getattr(cls, meth)))
            for path, key in COUNTED_METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._counter(key, getattr(cls, meth)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "vanhom" and not mod_name.startswith("vanhom."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def _has_ancestor(spans, parent, name) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, counts, passes: int) -> dict:
    """Per-layer numbers per traced pass.

    ``<name>_s`` is the inclusive time of the outermost calls of one
    function; ``<layer>.self_s`` sums span time minus the time of child
    spans over a layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive, calls, self_time = Counter(), Counter(), Counter()
    sweep_evals = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += end - start - child_time[i]
        if not _has_ancestor(spans, parent, name):
            inclusive[name] += end - start
        if (name == "vanishing.vanishing_betti"
                and _has_ancestor(spans, parent, "vanishing.sweep")):
            sweep_evals += 1

    def ratio(a, b):
        return a / b if b else 0.0

    per_pass = {
        "homology.image_betti_calls": sum(
            calls[f"homology.image_betti.d{j}"] for j in range(4)),
        "homology.kernel_basis_s": inclusive["homology.kernel_basis"],
        "homology.kernel_basis_vectors": counts["kernel_basis_vectors"],
        "homology.cycle_space_s": inclusive["homology.cycle_space"],
        "homology.boundary_space_s": inclusive["homology.boundary_space"],
        "homology.rank_of_s": inclusive["homology.rank_of"],
        "homology.rank_of_calls": calls["homology.rank_of"],
        "homology.rank_of_vectors": counts["rank_of_vectors"],
        "homology.subspace_build_s": inclusive["homology.Subspace.__init__"],
        "homology.intersection_s": inclusive["homology.Subspace.intersection"],
        "homology.map_kernel_s": inclusive["homology.Subspace.map_kernel"],
        "homology.map_preimage_s": inclusive["homology.Subspace.map_preimage"],
        "vanishing.vanishing_betti_s": inclusive["vanishing.vanishing_betti"],
        "vanishing.vanishing_betti_calls": calls["vanishing.vanishing_betti"],
        "vanishing.sweep_s": inclusive["vanishing.sweep"],
        "vanishing.sweep_breakpoints": counts["sweep_breakpoints"],
        "vanishing.sweep_evals": sweep_evals,
        "vanishing.relative_s": inclusive["vanishing.relative_vanishing"],
        "vanishing.les_s": inclusive["vanishing.les_check"],
        "vanishing.excision_s": inclusive["vanishing.excision_check"],
        "vanishing.relative_calls": calls["vanishing.relative_vanishing"],
        "thinness.simplex_rate_s": inclusive["thinness.simplex_rate"],
        "thinness.simplex_rate_calls": calls["thinness.simplex_rate"],
        "thinness.minors": counts["minors"],
        "thinness.filtration_s": inclusive["thinness.filtration"],
        "thinness.critical_rates_s": inclusive["thinness.critical_rates"],
        "puiseux.parse_s": inclusive["puiseux.parse_series"],
        "puiseux.parse_calls": calls["puiseux.parse_series"],
        "puiseux.series_mul_calls": counts["series_mul"],
        "puiseux.series_add_calls": counts["series_add"],
        "document.load_s": inclusive["document.load_document"],
        "document.problems_s": inclusive["document.document_problems"],
        "document.dumps_s": inclusive["document.dumps_document"],
        "cells.validate_s": inclusive["cells.validate"],
        "cells.restrict_s": inclusive["cells.CellComplex.restrict"],
    }
    for j in range(4):
        per_pass[f"homology.image_betti_s.d{j}"] = \
            inclusive[f"homology.image_betti.d{j}"]
    for layer in LAYERS:
        per_pass[f"{layer}.self_s"] = self_time[layer]
    out = {name: value / passes for name, value in per_pass.items()}
    out["homology.rank_yield"] = ratio(counts["rank_of_rank"],
                                       counts["rank_of_vectors"])
    out["vanishing.sweep_useful_ratio"] = ratio(counts["sweep_intervals"],
                                                sweep_evals)
    return out
