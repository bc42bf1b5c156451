"""Reference answers for every benchmark command, built without the engine.

Sources, by kind of document:

* ``build_torus(p, q, n)`` and its embeddings: the closed form of its
  vanishing dimensions, which does not depend on n;
* pinched spheres at T^2: every relative dimension is 0, and the
  absolute part comes from the oracle;
* random complexes, random-rate tori and the slab: the chain-subspace
  oracle ``vanishing_betti_oracle``, for a sweep at one threshold inside
  each interval rather than at the breakpoints the engine samples;
* pair commands: ``exact: true`` and ``equal: true``, the absolute part
  against the closed form, and agreement of the pair dimensions across
  torus sizes (they do not depend on n either);
* rates and ``example``: the rates the documents were built with and the
  cell counts of the stock complexes.

An ``Expect`` holds the exit code and a view of stdout to compare; the
benchmark computes them before any timing and outside set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from vanhom import INF, Velocity, parse_velocity, vanishing_betti_oracle


@dataclass
class Expect:
    code: int
    want: object = None
    view: Optional[Callable[[str], object]] = None
    group: Optional[str] = None

    def mismatch(self, code, stdout: str) -> Optional[str]:
        """Why this output is wrong, or None when it is right."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        if self.view is None:
            return None
        try:
            got = self.view(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({exc})"
        if got != self.want:
            return f"got {got!r}, expected {self.want!r}"
        return None


def _identity(text):
    return text


def _tab(dims: Dict[int, int]) -> Dict[str, int]:
    return {str(j): dims[j] for j in sorted(dims)}


def _euler(dims: Dict[int, int]) -> int:
    return sum((-1) ** j * d for j, d in dims.items() if j >= 1)


def _torus_dims(p, q, v: Velocity) -> Dict[int, int]:
    if v.contains_rate(p):
        return {0: 0, 1: 2, 2: 1}
    if v.contains_rate(q):
        return {0: 0, 1: 1, 2: 1}
    return {0: 0, 1: 0, 2: 0}


def dims(doc, v: Velocity) -> Dict[int, int]:
    if doc.torus is not None:
        return _torus_dims(*doc.torus, v)
    return dict(vanishing_betti_oracle(doc.complex, doc.rates, v).dims)


def _interval(lo, hi) -> str:
    left = "(-inf" if lo is None else f"({lo}"
    right = "inf)" if hi is None else f"{hi}]"
    return f"{left}, {right}"


def sweep_rows(doc):
    """Breakpoints, and the dimensions per degree on every interval."""
    bps = sorted({r for cid, r in doc.rates.items()
                  if doc.complex.cell(cid).dim > 0 and r is not INF})
    if bps:
        probes = [bps[0] - Fraction(1, 2)]
        probes += [(lo + hi) / 2 for lo, hi in zip(bps, bps[1:])]
        probes.append(bps[-1] + Fraction(1, 2))
    else:
        probes = [Fraction(0)]
    tables = [dims(doc, Velocity(t)) for t in probes]
    degrees = range(max(doc.complex.dim, 0) + 1)
    return bps, {j: [t.get(j, 0) for t in tables] for j in degrees}


def _sweep_tsv(bps, rows) -> str:
    edges = [None, *bps, None]
    return "".join(f"{j}\t{_interval(edges[i], edges[i + 1])}\t{value}\n"
                   for j in sorted(rows) for i, value in enumerate(rows[j]))


def _rates_text(doc) -> str:
    lines = []
    for cell in doc.complex.cells():
        if cell.dim == 0:
            continue
        rate = doc.rates[cell.id]
        label = cell.label if cell.label is not None else "-"
        lines.append(f"{cell.id}\t{cell.dim}\t"
                     f"{'inf' if rate is INF else rate}\t{label}\n")
    return "".join(lines)


def _example_view(text):
    data = json.loads(text)
    counts: Dict[int, int] = {}
    for item in data["cells"]:
        counts[item["dim"]] = counts.get(item["dim"], 0) + 1
    return {"format": data["format"], "name": data["name"],
            "f": [counts[d] for d in sorted(counts)],
            "rates": sorted({item["rate"] for item in data["cells"]
                             if "rate" in item}),
            "subcomplexes": {k: len(v) for k, v in
                             data.get("subcomplexes", {}).items()}}


def _example(which: str, n: int) -> dict:
    if which == "torus":
        return {"format": "vanhom-complex/1", "name": f"torus(0,2,{n})",
                "f": [n * n, 3 * n * n, 2 * n * n], "rates": ["0", "2"],
                "subcomplexes": {}}
    if which == "pinched":
        return {"format": "vanhom-complex/1",
                "name": f"pinched_spheres(2,{n})",
                "f": [3 * n + 2, 9 * n, 6 * n], "rates": ["0", "2"],
                "subcomplexes": {"circle": 2 * n}}
    return {"format": "vanhom-complex/1", "name": f"circle(2,{n})",
            "f": [n, n], "rates": ["2"], "subcomplexes": {}}


def _pair_view(text):
    data = json.loads(text)
    return {"absolute": data["absolute"], "relative": data["relative"],
            "exact": data["exact"]}


def _les_view(text):
    data = json.loads(text)
    return {"exact": data["exact"],
            "ok": all(node["ok"] for node in data["nodes"]),
            "relative": [node["dim"] for node in data["nodes"]
                         if node["space"] == "relative"]}


def _pair_group_view(text):
    data = json.loads(text)
    if "nodes" in data:
        return data["nodes"]
    return {"relative": data["relative"], "attached": data["attached"]}


def expect(doc, cmd) -> Expect:
    kind = cmd.check[0]
    argv = cmd.argv
    v = parse_velocity(argv[argv.index("--velocity") + 1]) \
        if "--velocity" in argv else None
    if kind == "compute":
        d = dims(doc, v)
        return Expect(0, {"velocity": str(v), "betti": _tab(d),
                          "euler": _euler(d)}, json.loads)
    if kind == "compute_tsv":
        d = dims(doc, v)
        return Expect(0, "".join(f"{j}\t{d[j]}\n" for j in sorted(d)),
                      _identity)
    if kind == "euler":
        return Expect(0, f"{_euler(dims(doc, v))}\n", _identity)
    if kind in ("sweep", "sweep_tsv"):
        bps, rows = sweep_rows(doc)
        if len(cmd.check) > 2:
            rows = {j: rows[j] for j in cmd.check[2:]}
        if kind == "sweep_tsv":
            return Expect(0, _sweep_tsv(bps, rows), _identity)
        return Expect(0, {"breakpoints": [str(b) for b in bps],
                          "degrees": {str(j): r for j, r in rows.items()}},
                      json.loads)
    if kind == "relative":
        d = _tab(dims(doc, v))
        if cmd.check[2] == "pinched":
            zeros = {j: 0 for j in d}
            return Expect(0, {"absolute": d, "relative": zeros,
                              "exact": True}, _pair_view)
        return Expect(0, {"absolute": d, "exact": True},
                      lambda text: {k: _pair_view(text)[k]
                                    for k in ("absolute", "exact")},
                      group=f"relative {cmd.check[2]}")
    if kind == "les":
        if cmd.check[2] == "pinched":
            return Expect(0, {"exact": True, "ok": True,
                              "relative": [0] * (doc.complex.dim + 1)},
                          _les_view)
        return Expect(0, {"exact": True, "ok": True},
                      lambda text: {k: _les_view(text)[k]
                                    for k in ("exact", "ok")},
                      group=f"les {cmd.check[2]}")
    if kind == "excise":
        return Expect(0, True, lambda text: json.loads(text)["equal"])
    if kind == "validate":
        return Expect(0, "ok\n", _identity)
    if kind == "rates":
        return Expect(0, _rates_text(doc), _identity)
    if kind == "example":
        return Expect(0, _example(cmd.check[1], cmd.check[2]), _example_view)
    if kind == "exit":
        return Expect(cmd.check[1], "", _identity)
    raise ValueError(f"unknown check {kind!r}")


def expectations(docs, cmds) -> List[Expect]:
    by_file = {d.file: d for d in docs}
    return [expect(by_file.get(cmd.argv[1]), cmd) for cmd in cmds]


def wrong_answers(expects: List[Expect], codes: list,
                  outputs: List[str]) -> Dict[int, str]:
    """Commands whose answer is wrong, each with the reason."""
    wrong = {}
    for i, e in enumerate(expects):
        why = e.mismatch(codes[i], outputs[i])
        if why is not None:
            wrong[i] = why
    for i, why in _group_mismatches(expects, outputs).items():
        wrong.setdefault(i, why)
    return wrong


def _group_mismatches(expects: List[Expect],
                      outputs: List[str]) -> Dict[int, str]:
    """Commands whose pair dimensions differ from the rest of their group.

    Pair dimensions of the torus with a meridian do not depend on the
    torus size; every member of a group that disagrees with the first
    member is reported, and the first too if any member disagrees.
    """
    groups: Dict[str, List[int]] = {}
    for i, e in enumerate(expects):
        if e.group is not None:
            groups.setdefault(e.group, []).append(i)
    bad: Dict[int, str] = {}
    for name, members in groups.items():
        views = {}
        for i in members:
            try:
                views[i] = _pair_group_view(outputs[i])
            except (ValueError, KeyError, TypeError):
                views[i] = None
        if len({json.dumps(views[i], sort_keys=True) for i in members}) > 1:
            for i in members:
                bad[i] = f"{name}: pair dimensions depend on the torus size"
    return bad
