#!/usr/bin/env python
"""Reproducible multi-worker cluster experiments in one command.

Launches N local ``hyperpraw-repro worker`` processes on deterministic
ports with deterministically derived seeds, partitions a matrix of
(suite instance x merge payload) runs through
:class:`repro.cluster.DistributedStreamer` over real loopback sockets,
tails the workers' JSONL logs into the run directory, and writes
``meta.json`` / ``summary.json`` artifacts — so a multi-node experiment
is one command and two JSON files (docs/cluster.md).

Typical invocations::

    # CI smoke: 3 loopback workers, golden-checked vs ShardedStreamer
    python scripts/run_experiments.py --workers 3 --loopback --check-golden

    # refresh the committed benchmark baseline
    python scripts/run_experiments.py --workers 3 --loopback \
        --payloads boundary full --bench-out BENCH_CLUSTER.json

    # verify a rerun reproduces the committed numbers: the cells rerun
    # at the baseline header's seed/scale/num_parts/chunk_size/scorer
    # (repro.bench.baseline owns the diff and the merge-write)
    python scripts/run_experiments.py --workers 3 --loopback \
        --payloads boundary full --diff-against BENCH_CLUSTER.json

    # drive pre-started remote workers instead of launching local ones
    python scripts/run_experiments.py --hosts hostA:7311 hostB:7311

    # compare the lean v2 wire (tailored rows + zlib) against the
    # legacy v1 broadcast, authenticated, through a flaky network
    python scripts/run_experiments.py --workers 2 --loopback \
        --wire lean v1 --netem clean flaky --psk-file cluster.key

Teardown is SIGINT first (workers exit their accept loop cleanly), then
SIGKILL after a grace period — a wedged worker can never wedge the
harness.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TESTS = REPO / "tests"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))  # netsim lives with the tests

import numpy as np  # noqa: E402

from netsim import NETEM_PROFILES, FaultyProxy, netem_profile  # noqa: E402
from repro.bench.baseline import CLUSTER, contents, diff, write  # noqa: E402
from repro.bench.streaming import assignment_digest  # noqa: E402
from repro.cluster import DistributedStreamer  # noqa: E402
from repro.cluster.protocol import load_psk  # noqa: E402
from repro.core.metrics import hyperedge_cut, imbalance  # noqa: E402
from repro.hypergraph.suite import STREAMING_INSTANCE, load_instance  # noqa: E402
from repro.streaming import (  # noqa: E402
    HypergraphChunkStream,
    OnePassStreamer,
    ShardedStreamer,
)
from repro.utils.rng import derive_seed  # noqa: E402

#: wire modes: what the coordinator puts on the socket per cell.
#: ``lean`` = tailored boundary rows + zlib frames (the v2 default);
#: ``v1``   = full-snapshot broadcast, uncompressed (the PR 6 wire).
WIRE_MODES = {
    "lean": {"tailored": True, "compress": True},
    "v1": {"tailored": False, "compress": False},
}

_LISTEN_TIMEOUT_S = 30.0
_SIGINT_GRACE_S = 5.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--loopback",
        action="store_true",
        help="launch --workers local worker processes and drive them "
        "over 127.0.0.1",
    )
    mode.add_argument(
        "--hosts",
        nargs="+",
        default=None,
        metavar="HOST:PORT",
        help="drive these pre-started workers instead of launching any",
    )
    parser.add_argument(
        "--workers", type=int, default=3, help="loopback worker count"
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="first loopback worker port (worker k binds base+k); 0 "
        "binds ephemeral ports read back from the 'listening' events",
    )
    parser.add_argument("--seed", type=int, default=20190805, help="master seed")
    parser.add_argument(
        "--instances",
        nargs="+",
        default=[STREAMING_INSTANCE],
        help="suite instances to partition",
    )
    parser.add_argument("--scale", type=float, default=0.05, help="instance scale")
    parser.add_argument("--num-parts", type=int, default=8)
    parser.add_argument("--chunk-size", type=int, default=128)
    parser.add_argument(
        "--workers-matrix",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="also matrix over these worker counts (each <= --workers; "
        "cells drive the first N fleet endpoints); default: just "
        "--workers",
    )
    parser.add_argument(
        "--payloads",
        nargs="+",
        choices=("boundary", "full"),
        default=["boundary"],
        help="merge payload modes to matrix over",
    )
    parser.add_argument(
        "--wire",
        nargs="+",
        choices=sorted(WIRE_MODES),
        default=["lean"],
        help="wire modes to matrix over: 'lean' ships tailored boundary "
        "rows in zlib frames, 'v1' reproduces the legacy uncompressed "
        "broadcast (assignments are bit-identical either way)",
    )
    parser.add_argument(
        "--netem",
        nargs="+",
        choices=sorted(NETEM_PROFILES),
        default=["clean"],
        help="netsim degradation profiles to matrix over; non-clean "
        "cells route every worker link through a tests/netsim.py "
        "FaultyProxy with that profile's latency/bandwidth shaping",
    )
    parser.add_argument(
        "--psk-file",
        default=None,
        metavar="PATH",
        help="pre-shared key file: loopback workers are launched with "
        "it and the coordinator authenticates every session",
    )
    parser.add_argument(
        "--scorer",
        choices=("eq1", "fennel"),
        default="eq1",
        help="OnePassStreamer scorer run on the workers",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="boundary restream round cap (default: streamer default)",
    )
    parser.add_argument(
        "--check-golden",
        action="store_true",
        help="also run ShardedStreamer(workers=N) on each matrix cell "
        "and require bit-identical assignments",
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        metavar="PATH",
        help="write the versioned benchmark baseline JSON here",
    )
    parser.add_argument(
        "--diff-against",
        default=None,
        metavar="PATH",
        help="rerun the matrix at this baseline's header settings and "
        "compare: cut/digest mismatch fails, wall-time drift only warns",
    )
    parser.add_argument(
        "--outdir",
        default=str(REPO / "logs" / "cluster"),
        help="run artifacts root (a timestamp-free, seed-keyed run dir "
        "is created inside)",
    )
    parser.add_argument(
        "--run-timeout-seconds",
        type=float,
        default=600.0,
        help="hard cap on a single matrix cell",
    )
    return parser.parse_args(argv)


def _port_free(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            s.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def _wait_listening(log_path: Path, proc, deadline: float) -> dict:
    """Poll a worker's JSONL log until its ``listening`` event appears."""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"worker exited with code {proc.returncode} before "
                f"listening (see {log_path})"
            )
        if log_path.exists():
            for line in log_path.read_text().splitlines():
                event = json.loads(line)
                if event.get("event") == "listening":
                    return event
        time.sleep(0.05)
    raise RuntimeError(f"worker never reported listening (see {log_path})")


class WorkerFleet:
    """N local worker subprocesses with deterministic seeds and logs."""

    def __init__(self, args, run_dir: Path):
        self.procs = []
        self.endpoints = []
        self.records = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        deadline = time.monotonic() + _LISTEN_TIMEOUT_S
        for k in range(args.workers):
            port = 0 if args.base_port == 0 else args.base_port + k
            if port and not _port_free(port):
                self.shutdown()
                raise RuntimeError(f"port {port} is busy; pick another --base-port")
            worker_seed = derive_seed(args.seed, "cluster-worker", k)
            log_path = run_dir / f"worker_{k}.jsonl"
            stdout_path = run_dir / f"worker_{k}_stdout.log"
            # The run dir is seed-keyed, not timestamped, so a rerun
            # reuses it: drop stale logs or _wait_listening would read
            # a dead port from the previous fleet's 'listening' event.
            log_path.unlink(missing_ok=True)
            argv = [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "worker",
                "--port",
                str(port),
                "--seed",
                str(worker_seed),
                "--log-file",
                str(log_path),
            ]
            if args.psk_file:
                argv += ["--psk-file", str(args.psk_file)]
            proc = subprocess.Popen(
                argv,
                stdout=open(stdout_path, "w"),
                stderr=subprocess.STDOUT,
                env=env,
            )
            self.procs.append(proc)
            self.records.append(
                {"index": k, "pid": proc.pid, "seed": worker_seed,
                 "log": log_path.name}
            )
        for k, proc in enumerate(self.procs):
            event = _wait_listening(run_dir / f"worker_{k}.jsonl", proc, deadline)
            self.endpoints.append(f"127.0.0.1:{event['port']}")
            self.records[k]["port"] = event["port"]

    def shutdown(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + _SIGINT_GRACE_S
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _run_cell(args, endpoints, instance: str, payload: str, wire: str,
              netem: str, psk) -> dict:
    """One matrix cell: distributed run (+ optional golden twin)."""
    hg = load_instance(instance, scale=args.scale)
    base_kwargs = dict(scorer=args.scorer)

    def streamer_kwargs():
        kw = dict(payload=payload, chunk_size=args.chunk_size)
        if args.max_iterations is not None:
            kw["boundary_max_iterations"] = args.max_iterations
        return kw

    proxies = []
    cell_endpoints = list(endpoints)
    if netem != "clean":
        # route every worker link through a per-cell fault proxy; the
        # shaping applies to this cell only and is torn down after it
        knobs = netem_profile(netem)
        for ep in endpoints:
            host, port = ep.rsplit(":", 1)
            proxies.append(FaultyProxy((host, int(port)), **knobs))
        cell_endpoints = [f"127.0.0.1:{p.port}" for p in proxies]
    try:
        stream = HypergraphChunkStream(hg, args.chunk_size)
        streamer = DistributedStreamer(
            OnePassStreamer(**base_kwargs),
            hosts=cell_endpoints,
            timeout=args.run_timeout_seconds,
            psk=psk,
            **WIRE_MODES[wire],
            **streamer_kwargs(),
        )
        t0 = time.perf_counter()
        result = streamer.partition_stream(
            stream, args.num_parts, seed=args.seed
        )
        wall = time.perf_counter() - t0
    finally:
        for proxy in proxies:
            proxy.close()
    md = result.metadata
    saved = md.get("broadcast_bytes_saved")
    record = {
        "instance": instance,
        "scale": args.scale,
        "workers": len(endpoints),
        "payload": payload,
        "wire": wire,
        "netem": netem,
        "scorer": args.scorer,
        "num_parts": args.num_parts,
        "chunk_size": args.chunk_size,
        "seed": args.seed,
        "wall_s": round(wall, 4),
        "cut": hyperedge_cut(hg, result.assignment, args.num_parts),
        "imbalance": round(imbalance(hg, result.assignment, args.num_parts), 6),
        "wire_bytes": md.get("cluster_wire_bytes"),
        "wire_versions": md.get("cluster_wire_versions"),
        "compressed_links": md.get("cluster_compress"),
        "broadcast_bytes_saved": int(sum(saved)) if saved else 0,
        "parallel_mode": md.get("parallel_mode"),
        "degraded_shards": md.get("degraded_shards"),
        "assignment_digest": assignment_digest(result.assignment),
    }
    if args.check_golden:
        golden_stream = HypergraphChunkStream(hg, args.chunk_size)
        golden = ShardedStreamer(
            OnePassStreamer(**base_kwargs),
            workers=len(endpoints),
            **streamer_kwargs(),
        ).partition_stream(golden_stream, args.num_parts, seed=args.seed)
        record["golden_match"] = bool(
            np.array_equal(result.assignment, golden.assignment)
        )
        record["golden_digest"] = assignment_digest(golden.assignment)
    return record


#: The fields of a summary record that BENCH_CLUSTER.json keeps.
BENCH_FIELDS = (
    "instance", "workers", "payload", "wire", "netem", "wall_s", "cut",
    "imbalance", "wire_bytes", "broadcast_bytes_saved", "assignment_digest",
)


def main(argv=None) -> int:
    args = parse_args(argv)
    baseline = None
    if args.diff_against:
        # The diff must rerun the baseline's own settings, not the CLI
        # defaults, or every knob left at its default reads as a drift.
        baseline = json.loads(Path(args.diff_against).read_text())
        for field in CLUSTER.header:
            setattr(args, field, baseline[field])
    run_dir = Path(args.outdir) / (
        f"w{args.workers}_seed{args.seed}_{args.scorer}"
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.time()

    fleet = None
    if args.loopback:
        fleet = WorkerFleet(args, run_dir)
        endpoints = fleet.endpoints
    else:
        endpoints = list(args.hosts)
    meta = {
        "argv": sys.argv[1:] if argv is None else list(argv),
        "seed": args.seed,
        "endpoints": endpoints,
        "workers": fleet.records if fleet else None,
        "python": sys.version.split()[0],
        "start_ts": t_start,
    }
    (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")

    counts = sorted(set(args.workers_matrix or [len(endpoints)]))
    if counts[-1] > len(endpoints) or counts[0] < 1:
        raise SystemExit(
            f"--workers-matrix must be within 1..{len(endpoints)}, got {counts}"
        )
    psk = load_psk(args.psk_file) if args.psk_file else None
    records, status, failures, drift = [], "ok", [], []
    cells = [
        (instance, nworkers, payload, wire, netem)
        for instance in args.instances
        for nworkers in counts
        for payload in args.payloads
        for wire in args.wire
        for netem in args.netem
    ]
    try:
        for instance, nworkers, payload, wire, netem in cells:
            record = _run_cell(
                args, endpoints[:nworkers], instance, payload, wire,
                netem, psk,
            )
            records.append(record)
            cell = (
                f"{instance} x w{nworkers} x {payload} x {wire} x {netem}"
            )
            print(
                f"[{cell}] wall={record['wall_s']}s "
                f"cut={record['cut']} wire={record['wire_bytes']}B "
                f"digest={record['assignment_digest']}"
                + (
                    f" golden_match={record['golden_match']}"
                    if "golden_match" in record
                    else ""
                )
            )
            if record.get("golden_match") is False:
                failures.append(
                    f"{cell}: assignment differs from "
                    f"ShardedStreamer golden"
                )
            if record.get("degraded_shards"):
                failures.append(
                    f"{cell}: shards "
                    f"{record['degraded_shards']} degraded to local "
                    f"— not a clean distributed measurement"
                )
        bench = {"records": [{f: r[f] for f in BENCH_FIELDS} for r in records]}
        if baseline is not None:
            drift = diff(CLUSTER, baseline, bench)
            failures.extend(drift)
    except Exception as exc:  # noqa: BLE001 — recorded in summary.json
        status = "error"
        failures.append(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        if failures:
            status = "failed"
        meta["end_ts"] = time.time()
        meta["duration_s"] = round(meta["end_ts"] - t_start, 3)
        (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        summary = {"status": status, "failures": failures, "records": records}
        (run_dir / "summary.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )
        if fleet is not None:
            fleet.shutdown()
        print(f"artifacts: {run_dir}")

    if args.bench_out:
        settings = {field: getattr(args, field) for field in CLUSTER.header}
        refused = write(
            args.bench_out, CLUSTER, contents(CLUSTER, settings, bench), failures
        )
        if refused:
            failures.append(refused)
        else:
            print(f"baseline written: {args.bench_out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if drift:
        print(f"regenerate deliberately with: {CLUSTER.regenerate}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
