"""The long-lived process that sets up a workload and runs its commands.

    python3 perfbench/worker.py --workload W --seed N --dir D [--tiny]
                                [--seconds S --trace 0|1 --result FILE
                                 --spans FILE]

It imports ``vanhom`` from the checkout's ``src``, writes the workload's
documents into D and prints ``ready``; everything up to that line is the
set-up the benchmark times.  Without ``--seconds`` it stops there.  With
it, the worker runs passes over the command list, each command through
``vanhom.cli.main(argv)`` with stdout and stderr captured: as many whole
passes as come closest to S seconds, and at least three.  With
``--trace 1`` it spends the first half of the time on untraced passes and
the second half on traced ones.  The result file holds
the timings, exit codes and the first pass's output; the benchmark checks
them.  A traced run also writes its spans to the --spans file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# an untraced run makes at least this many passes; run.py picks the tail
# percentile from it
MIN_PASSES = 3


def import_vanhom():
    """Import vanhom from this checkout's src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "vanhom" / "__init__.py").is_file():
        raise SystemExit(f"error: no vanhom package under {src}")
    sys.path.insert(0, str(src))
    import vanhom
    if Path(vanhom.__file__).resolve().parent != (src / "vanhom").resolve():
        raise SystemExit(f"error: vanhom imported from {vanhom.__file__}")


def write_documents(docs, directory: Path):
    from vanhom import document_dict, dumps_document
    for d in docs:
        rates = {} if d.geometry is not None else d.rates
        data = document_dict(d.complex, rates, subcomplexes=d.subcomplexes,
                             name=d.title, geometry=d.geometry)
        (directory / d.file).write_text(dumps_document(data),
                                        encoding="utf-8")


def run_pass(cli, cmds, recorder=None):
    """One pass over the command list; returns timings and raw outputs."""
    times, codes, outs, crashes = [], [], [], {}
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        os.environ.update(cmd.env)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(cmd.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed command, not a crash
                code = None
                crashes[i] = traceback.format_exc()
        times.append(time.perf_counter() - t0)
        for key in cmd.env:
            del os.environ[key]
        if "Traceback (most recent call last)" in err.getvalue():
            crashes[i] = err.getvalue()
        codes.append(code)
        outs.append(out.getvalue())
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.counts["emit_bytes"] += sum(len(o.encode()) for o in outs)
    return {"wall": wall, "times": times, "codes": codes,
            "crashes": crashes}, outs


def measure(cli, cmds, seconds: float, trace: bool):
    from tracer import Recorder, layer_metrics
    passes, first = [], None
    recorder = None
    phases = [(False, seconds / 2), (True, seconds / 2)] if trace \
        else [(False, seconds)]
    for traced, budget in phases:
        if traced:
            recorder = Recorder()
            recorder.install()
        least = 1 if trace else MIN_PASSES
        start, count = time.perf_counter(), 0
        while True:
            result, outs = run_pass(cli, cmds, recorder)
            if first is None:
                first = outs
            result["same"] = [a == b for a, b in zip(outs, first)]
            result["traced"] = traced
            passes.append(result)
            count += 1
            elapsed = time.perf_counter() - start
            # stop where the total comes closest to the budget
            if count >= least and elapsed + elapsed / count / 2 >= budget:
                break
    layers = None
    if recorder is not None:
        n = sum(p["traced"] for p in passes)
        layers = layer_metrics(recorder.spans, recorder.counts, n)
        layers["cli.emit_bytes"] = recorder.counts["emit_bytes"] / n
    return passes, first, layers, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    os.environ.pop("VANHOM_PRECISION", None)
    import_vanhom()
    import workloads
    from vanhom import cli
    docs, cmds = workloads.build(args.workload, args.seed, args.tiny)
    args.dir.mkdir(parents=True, exist_ok=True)
    write_documents(docs, args.dir)
    print("ready", flush=True)
    if args.seconds is None:
        return 0

    os.chdir(args.dir)
    passes, first, layers, recorder = measure(cli, cmds, args.seconds,
                                              bool(args.trace))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None and args.spans is not None:
        recorder.dump(args.spans)
    args.result.write_text(json.dumps({
        "passes": passes, "first": first, "layers": layers,
        "peak_rss_mb": peak_kb / 1024}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
