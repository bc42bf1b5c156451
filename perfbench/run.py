"""Reference-checked benchmark of the vanhom command line.

    python3 perfbench/run.py --workload absolute|sweep_pair
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark builds the workload's
documents and command list from the seed, computes the reference answer
of every command (closed forms and the chain-subspace oracle, see
reference.py), then starts the worker process several times: each start
imports vanhom and writes the documents, and the median of those start-up
times is ``setup_s``.  The last worker stays up and runs passes over the
command list through ``vanhom.cli.main`` for S seconds, one command at a
time (a closed loop with one client).  Every output is compared with its
reference; a pass's output must also match the first pass byte for byte.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from the
span recorder (tracer.py), taken on traced passes that follow untraced
ones in the same worker.  A run with any wrong answer exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_PASSES, import_vanhom

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170
# percentile levels, in per mille, that cmd_tail_s may report
TAIL_LEVELS = (500, 750, 900, 950, 990, 999)


def tail(times, per_pass: int):
    """(per-mille level, value) of the command-time tail.

    The level is the highest one with at least ten timings beyond it in
    MIN_PASSES passes, the fewest an untraced run makes.  It depends on
    the command list only, so runs that make more passes still report
    the same percentile; they have more timings beyond it.
    """
    n = per_pass * MIN_PASSES
    levels = [lv for lv in TAIL_LEVELS if n * (1000 - lv) >= 10 * 1000]
    if not levels:
        return 1000, max(times)
    cuts = statistics.quantiles(times, n=1000, method="inclusive")
    return levels[-1], cuts[levels[-1] - 1]


def _start(argv, deadline):
    """Start a worker and wait for its ``ready`` line; returns (proc, s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    waiting, _, _ = select.select([proc.stdout], [], [],
                                  max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if waiting else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        _finish(proc, 0)
        raise RuntimeError("worker failed to start")
    return proc, elapsed


def _finish(proc, deadline) -> int:
    """Wait for a worker until the deadline, then kill it; its exit code."""
    try:
        return proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_worker(args, workdir: Path, deadline):
    """Set up SETUP_RUNS times; the last worker also runs the workload."""
    base = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--dir", str(workdir / "docs")] + (["--tiny"] if args.tiny else [])
    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, elapsed = _start(base, deadline)
        setups.append(elapsed)
        if _finish(proc, deadline) != 0:
            raise RuntimeError("set-up worker failed")
    result = workdir / "result.json"
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    argv = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", str(result), "--spans", str(spans)]
    proc, elapsed = _start(argv, deadline)
    setups.append(elapsed)
    code = _finish(proc, deadline)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return setups, json.loads(result.read_text(encoding="utf-8"))


def check(expects, passes, wrong):
    """Failed command count over all passes, and the reasons.

    ``wrong`` holds the commands whose first-pass answer was wrong; later
    passes fail on their own for a traceback, another exit code or other
    bytes than the first pass.
    """
    failed, reasons = 0, []
    for p, result in enumerate(passes):
        crashes = {int(k): v for k, v in result["crashes"].items()}
        for i, e in enumerate(expects):
            why = wrong.get(i)
            if i in crashes:
                why = "traceback: " + crashes[i].strip().splitlines()[-1]
            elif result["codes"][i] != e.code:
                why = f"exit code {result['codes'][i]}, expected {e.code}"
            elif not result["same"][i]:
                why = "stdout differs from the first pass"
            if why is not None:
                failed += 1
                reasons.append((p, i, why))
    return failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="spoil one reference answer (self-test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    import_vanhom()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    from reference import expectations, wrong_answers
    from tracer import unit

    docs, cmds = workloads.build(args.workload, args.seed, args.tiny)
    expects = expectations(docs, cmds)
    if args.corrupt_reference:
        expects[0].want = ("corrupted", expects[0].want)

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, data = run_worker(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = data["passes"]
    wrong = wrong_answers(expects, passes[0]["codes"], data["first"])
    failed, reasons = check(expects, passes, wrong)
    attempted = len(passes) * len(cmds)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    times = sorted(t for p in plain for t in p["times"])
    wall = statistics.median(p["wall"] for p in plain)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(cmds)} commands a pass  {len(plain)} untraced and "
          f"{len(traced)} traced passes  python {platform.python_version()}"
          f"  nproc {os.cpu_count()}")
    for p, i, why in reasons[:10]:
        print(f"FAIL pass {p} command {i} {' '.join(cmds[i].argv)}: {why}")

    # name -> (value, unit, note); the JSON carries the ones with no note
    shown = {"fail_frac": (failed / attempted, "ratio",
                           f"{failed} of {attempted} commands failed")}
    if args.trace:
        layers = dict(data["layers"])
        layers["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        shown.update((name, (value, unit(name), None))
                     for name, value in sorted(layers.items()))
    else:
        level, tail_s = tail(times, len(cmds))
        beyond = sum(t > tail_s for t in times)
        shown.update({
            "setup_s": (statistics.median(setups), "s", None),
            "wall_s": (wall, "s", None),
            "cmd_p50_s": (statistics.median(times), "s",
                          f"median of {len(times)} command timings"),
            "cmd_tail_s": (tail_s, "s", f"p{level / 10:g} of {len(times)} "
                           f"command timings, {beyond} beyond it"),
            "peak_rss_mb": (data["peak_rss_mb"], "MB", None)})
    for name, (value, u, note) in shown.items():
        print(f"{name:40s} {value:.6g} {u}" + (f"  ({note})" if note else ""))
    metrics = {name: {"value": value, "unit": u}
               for name, (value, u, note) in shown.items() if not note}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
