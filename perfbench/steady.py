"""Repeat workloads and report how steady each end-to-end metric is.

Usage, from the root of the repository::

    python3 perfbench/steady.py --workloads paper-aware,out-of-core --runs 10
    python3 perfbench/steady.py --workloads out-of-core --seeds 0,0,7,7

Round ``i`` runs every workload once with seed ``i`` (or the ``i``-th of
``--seeds``), alternating the workload order from round to round.  For
each workload and end-to-end metric it prints the median, the quartiles
(:func:`statistics.quantiles`, ``n=4``), the quartile spread as a share
of the median, and that spread over the metric's bound.  It flags

* ``SPREAD`` — a spread over the bound (``setup_s`` excepted, as in the
  acceptance rule);
* ``SHIFT`` — the second half of the runs' median worse than the first
  half's by more than the bound;
* ``REPEAT`` — runs with the same seed that disagree on the assignment
  digest or on ``pc_cost``, ``imbalance`` or ``app_runtime_s``;
* ``FAILED`` — a run that exited non-zero or reported ``correct: false``.

The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmath import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("pc_cost", "imbalance", "app_runtime_s")


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["perfbench"]
    except (IndexError, ValueError, KeyError):
        result, record = None, {}
    return {"seed": seed, "code": proc.returncode, "result": result,
            "record": record, "stderr": proc.stderr[-2000:]}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def report(workload: str, runs: list, spec: dict) -> "list[str]":
    flags = []
    for run in runs:
        res = run["result"]
        if run["code"] != 0 or res is None or not res["correct"]:
            flags.append(f"FAILED {workload} seed={run['seed']} exit={run['code']} "
                         f"{run['record'].get('failures') or run['stderr'][-300:]}")
    ok = [run for run in runs if run["result"] is not None]
    if not ok:
        return flags
    print(f"\n== {workload}: {len(ok)} runs, seeds {[r['seed'] for r in ok]}")
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>7}{'sp/bd':>7}{'shift':>8}")
    half = len(ok) // 2
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [run["result"]["metrics"][name]["value"] for run in ok]
        med, q1, q3, spread = quartile_spread(values)
        shift = 0.0
        if half >= 1:
            shift = worse_by(statistics.median(values[:half]),
                             statistics.median(values[half:]), metric["better"])
        marks = []
        if name != "setup_s" and spread > bound:
            marks.append("SPREAD")
            flags.append(f"SPREAD {workload} {name} {spread:.4f} > {bound}")
        if shift > bound:
            marks.append("SHIFT")
            flags.append(f"SHIFT {workload} {name} {shift:+.4f} > {bound}")
        ratio = spread / bound if bound else float("inf")
        print(f"{name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{bound:>7.3g}{ratio:>7.2f}{shift:>+8.4f} {' '.join(marks)}")
    by_seed: dict = {}
    for run in ok:
        facts = (run["record"].get("digest"),) + tuple(
            run["result"]["metrics"][name]["value"] for name in DETERMINISTIC
        )
        by_seed.setdefault(run["seed"], set()).add(facts)
    for seed, facts in sorted(by_seed.items()):
        if len(facts) > 1:
            flags.append(f"REPEAT {workload} seed={seed}: {sorted(facts)}")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds, one per round (overrides --runs)")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(args.runs)))
    runs: dict = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            run = run_once(w, seed, args.seconds, 0)
            runs[w].append(run)
            res = run["result"] or {}
            print(f"round {i} {w} seed={seed} exit={run['code']} "
                  f"correct={res.get('correct')} "
                  f"wall_s={res.get('metrics', {}).get('wall_s', {}).get('value')}",
                  flush=True)
    flags = []
    for w in workloads:
        flags += report(w, runs[w], spec)
    print()
    for flag in flags:
        print(flag)
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
