"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-aware --seed 0 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  The line before it is a JSON record
of the run (host fingerprint, operation count, assignment digest, trace
file).  The exit code is 0 only when every operation passed the
correctness gate; 2 means the partitioner's sources are not present.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
#: Untraced requests a traced service run makes as its overhead baseline.
SERVICE_BASELINE_REQUESTS = 20


def fingerprint() -> dict:
    """The host facts a run is recorded with."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------
# memory of the timed phase
# ----------------------------------------------------------------------
def _reset_hwm(pid: "int | str" = "self") -> None:
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the peak then also covers set-up; still an upper bound


def _hwm_kb(pid: "int | str" = "self") -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children_maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# ----------------------------------------------------------------------
def timed_loop(wl, ctx, rec, seconds: float, min_ops: int):
    """Run operations for about ``seconds``: another one starts only while
    it is expected, at the mean pace so far, to end in time."""
    ops = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(ops) >= min_ops and elapsed * (len(ops) + 1) / len(ops) > seconds:
            return ops, elapsed
        ops.append(wl.op(ctx, rec))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the server it started and removes its
    # scratch directory: the ``finally`` below runs on SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; the service is stopped with SIGINT, so restore it.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (SRC / "repro" / "core" / "hyperpraw.py").is_file():
        print(f"perfbench: partitioner sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    host = fingerprint()

    from repro.bench.synthetic import SyntheticBenchmark
    from repro.core.metrics import evaluate_partition

    import benchmath
    from spans import Recorder, instrument
    from workloads import WORKLOADS, check_ops, op_parts

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    run_id = f"{wl.name}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    rec = Recorder(run_id)

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ctx = None
    try:
        # -- set-up, repeated; the last one's context is measured --------
        setup_roots, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            if ctx is not None:
                wl.close(ctx)
                ctx = None
            with rec.span("setup") as span:
                ctx = wl.setup(args.seed, rec, work)
            setup_roots.append(span[0])
            setup_times.append(span[4] - span[3])
        stages = wl.stage_contexts(ctx)
        wl.warm_up(ctx, rec)

        # -- timed phase --------------------------------------------------
        baseline_walls = None
        if args.trace:
            n = SERVICE_BASELINE_REQUESTS if wl.serves_requests else 1
            baseline, _ = timed_loop(wl, ctx, rec, 0.0, n)
            baseline_walls = [op.wall for op in baseline]
        server = ctx.get("proc")
        _reset_hwm()
        if server is not None:
            _reset_hwm(server.pid)
        if args.trace:
            with instrument(rec):
                ops, elapsed = timed_loop(wl, ctx, rec, seconds, wl.min_ops)
        else:
            ops, elapsed = timed_loop(wl, ctx, rec, seconds, wl.min_ops)
        parent_kb = _hwm_kb()
        child_kb = _hwm_kb(server.pid) if server is not None else 0

        # -- correctness gate and quality oracle (untimed) ----------------
        # Each stage has its own gate; an operation fails if any stage does.
        failures = [None] * len(ops)
        digests = []
        for i, (stage, sctx) in enumerate(stages):
            stage_failures, stage_digest = check_ops(
                stage, [op_parts(op)[i] for op in ops], sctx["hg"].num_vertices
            )
            failures = [f or g for f, g in zip(failures, stage_failures)]
            digests.append(stage_digest)
        digest = digests[0] if len(digests) == 1 else "+".join(map(str, digests))
        notes = []
        # 0 (never a real value) when no operation passed the gate.  A
        # workload of several stages reports the stages' summed cost and
        # runtime and their worst imbalance.
        pc_cost = imbalance = app_runtime = replay_s = 0.0
        good = next((op for op, f in zip(ops, failures) if f is None), None)
        if good is not None:
            pinned = json.loads((HERE / "pinned.json").read_text())
            for (stage, sctx), part, stage_digest in zip(stages, op_parts(good), digests):
                shg = sctx["hg"]
                quality = evaluate_partition(shg, part.assignment, stage.num_parts, sctx["C"])
                pc_cost += quality.pc_cost
                imbalance = max(imbalance, quality.imbalance)
                with rec.span("simcomm.replay") as replay:
                    app_runtime += SyntheticBenchmark(sctx["link"], model="blocking").run(
                        shg, part.assignment, stage.num_parts
                    ).runtime_s
                replay_s += replay[4] - replay[3]
                if quality.imbalance > stage.imbalance_bound + 1e-9:
                    notes.append(
                        f"{stage.name}: imbalance {quality.imbalance} "
                        f"over {stage.imbalance_bound}"
                    )
                want = pinned["digests"].get(stage.name)
                if args.seed == pinned["seed"] and stage_digest != want:
                    notes.append(f"{stage.name}: digest {stage_digest} != pinned {want}")
                ref = stage.reference_digest(sctx)
                if ref is not None and stage_digest != ref:
                    notes.append(
                        f"{stage.name}: digest {stage_digest} != direct library call {ref}"
                    )
        if notes:  # a run-level failure fails every operation sharing the digest
            failures = [f or "; ".join(notes) for f in failures]
        wl.close(ctx)
        ctx = None
        child_kb = max(child_kb, _children_maxrss_kb())

        attempted = len(ops)
        failed = sum(f is not None for f in failures)
        walls = [op.wall for op in ops]
        if args.trace:
            totals = [rec.layer_totals(op.root) for op in ops]
            setup_totals = [rec.layer_totals(root) for root in setup_roots]
            metrics = per_layer(setup_totals, ops, totals, baseline_walls, replay_s)
            metrics.update(wl.layers(ops, totals))
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            pins = sum(sctx["hg"].num_pins for _, sctx in stages)
            # A request's wall includes the client's turn-around between
            # requests; a batch operation's is the operation itself.
            wall = elapsed / attempted if wl.serves_requests else statistics.median(walls)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "pins_per_s": pins / wall,
                "latency_p50_s": statistics.median(walls),
                "latency_p90_s": benchmath.tail(walls, 0.9),
                "pc_cost": pc_cost,
                "imbalance": imbalance,
                "app_runtime_s": app_runtime,
                "peak_rss_mb": (parent_kb + child_kb) / 1024.0,
                "success_rate": benchmath.success_rate(attempted, failed),
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = sorted(set(units) - set(metrics))
        for name in missing:
            metrics[name] = 0.0  # a layer this workload bypasses
        trace_file = None
        if args.trace:
            trace_file = rec.write(
                WORK_ROOT / "traces" / f"{run_id}.json",
                workload=wl.name, seed=args.seed, host=host,
            )
        record = {
            "run_id": run_id,
            "workload": wl.name,
            "seed": args.seed,
            "host": host,
            "operations": attempted,
            "elapsed_s": elapsed,
            "setup_times_s": setup_times,
            "op_walls_s": walls,
            "digest": digest,
            "failures": sorted({f for f in failures if f}),
            "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        }
        print(json.dumps({"perfbench": record}))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        if ctx is not None:
            wl.close(ctx)
        shutil.rmtree(work, ignore_errors=True)


def per_layer(setup_totals, ops, totals, baseline_walls, replay_s) -> dict:
    """Per-layer metrics every workload derives from its spans."""

    def span_median(layer: str, key: str, source) -> float:
        return float(statistics.median(t.get(layer, {}).get(key, 0) for t in source))

    out = {
        "hypergraph.generate_s": span_median("hypergraph.generate", "s", setup_totals),
        "hypergraph.write_s": span_median("hypergraph.write", "s", setup_totals),
        "architecture.profile_s": span_median("architecture.profile", "s", setup_totals),
        "chunkstore.write_s": span_median("chunkstore.write", "s", setup_totals),
        "simcomm.replay_s": replay_s,
        "trace.overhead_s": statistics.median(op.wall for op in ops)
        - statistics.median(baseline_walls),
    }
    for metric, layer, key in (
        ("reader.ingest_s", "reader.ingest", "s"),
        ("chunkstore.open_s", "chunkstore.open", "s"),
        ("kernel.calls", "kernel", "calls"),
        ("kernel.s", "kernel", "s"),
        ("kernel.self_s", "kernel", "self_s"),
        ("dense_state.calls", "dense_state", "calls"),
        ("dense_state.s", "dense_state", "s"),
        ("lru_state.calls", "lru_state", "calls"),
        ("lru_state.s", "lru_state", "s"),
        ("pc_cost.calls", "pc_cost", "calls"),
        ("pc_cost.s", "pc_cost", "s"),
        ("hyperpraw.driver_self_s", "hyperpraw", "self_s"),
        ("restream.driver_self_s", "restream", "self_s"),
        ("parallel.phase1_s", "parallel.start", "s"),
        ("parallel.rounds", "parallel.exchange", "calls"),
        ("parallel.round_s", "parallel.exchange", "s"),
        ("parallel.stop_s", "parallel.stop", "s"),
        ("sharded.merge_s", "sharded.merge", "s"),
    ):
        out[metric] = span_median(layer, key, totals)
    return out


if __name__ == "__main__":
    sys.exit(main())
