"""The workloads: inputs from the seed, set-up, one operation, layers.

Each workload generates its hypergraph from the run seed, pins
``kernel="python"`` so a host with numba measures the same program, and
drives the partitioner only through public names.  Why each workload
exists, and which layer it exercises or bypasses, is in ``README.md``.

A workload object has

* ``setup(seed, rec, work)`` — everything before the timed phase; it
  returns the context the other calls use;
* ``op(ctx, rec)`` — one timed operation, returning an :class:`Op`;
* ``layers(ops, totals)`` — the per-layer metrics the traced run
  reports beyond what the spans give generically;
* ``close(ctx)`` — release what ``setup`` started;
* ``stage_contexts(ctx)`` — the stages an operation runs, each with its
  own hypergraph, part count, cost matrix and correctness gate.  A
  workload is its own single stage; :class:`OutOfCore` runs two.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.architecture.bandwidth import archer_like_bandwidth
from repro.architecture.cost import cost_matrix_from_bandwidth
from repro.architecture.profiling import RingProfiler
from repro.architecture.topology import archer_like_topology
from repro.core import HyperPRAW, HyperPRAWConfig
from repro.hypergraph import load_instance
from repro.hypergraph.io import write_hmetis
from repro.simcomm.network import LinkModel
from repro.streaming import (
    BufferedRestreamer,
    HypergraphChunkStream,
    OnePassStreamer,
    open_store,
    stream_hmetis,
    write_store,
)
from repro.utils.rng import derive_seed

from benchmath import min_samples_for

CORES_PER_NODE = 24
#: The simulated machine and the partitioner seed stay fixed, like the
#: hardware under a benchmark: drawn from the run seed they moved the
#: simulated application runtime by ~9% from seed to seed, which would
#: hide a quality regression of that size.
FIXED_SEED = 20190805


def instance_seed(seed: int) -> int:
    """The generator seed of the run's hypergraph."""
    return derive_seed(seed, "perfbench", "instance") % (1 << 31)


def profiled_machine(nodes: int, seed: int, rec):
    """Ground-truth ARCHER-like machine and its ring-profiled cost matrix."""
    with rec.span("architecture.profile"):
        topo = archer_like_topology(num_nodes=nodes)
        bw, lat = archer_like_bandwidth(topo).matrices(seed=seed)
        link = LinkModel(bw, lat)
        profile = RingProfiler(link, repeats=2, measurement_noise=0.03).profile(
            seed=seed + 1
        )
        return link, profile.cost_matrix()


def generate(name: str, scale: float, seed: int, rec):
    with rec.span("hypergraph.generate"):
        return load_instance(name, scale=scale, seed=seed)


@dataclass
class Op:
    """One timed operation's output and facts."""

    assignment: np.ndarray
    meta: dict
    wall: float
    root: int  # span id of the operation
    extra: dict = field(default_factory=dict)
    error: "str | None" = None
    #: One Op per stage when the workload runs several (see OutOfCore).
    parts: list = field(default_factory=list)


def op_parts(op: Op) -> "list[Op]":
    """The per-stage operations of ``op``: its parts, or ``op`` itself."""
    return op.parts or [op]


class Workload:
    name = ""
    num_nodes = 1
    #: Highest max/mean load the partitioner promises.
    imbalance_bound = 1.1
    #: Fewest timed operations a run makes, whatever ``--seconds`` says.
    min_ops = 1
    #: ``parallel_mode`` the operation must report (``None``: not checked).
    parallel_mode: "str | None" = None
    #: Operations are requests to a server rather than library calls.
    serves_requests = False

    @property
    def num_parts(self) -> int:
        return self.num_nodes * CORES_PER_NODE

    def close(self, ctx: dict) -> None:
        """Nothing to release by default."""

    def warm_up(self, ctx: dict, rec) -> None:
        """No warm-up by default: every batch operation starts cold."""

    def layers(self, ops: "list[Op]", totals: "list[dict]") -> dict:
        return {}

    def reference_digest(self, ctx: dict) -> "str | None":
        """Digest a direct library call gives for the same input."""
        return None

    def stage_contexts(self, ctx: dict) -> "list[tuple[Workload, dict]]":
        return [(self, ctx)]


class PaperAware(Workload):
    """In-memory HyperPRAW-aware on the sparsine stand-in (~1M pins)."""

    name = "paper-aware"
    #: Fixed pass budget.  Uncapped, the run takes 15 or 16 passes
    #: depending on the seed (the refinement phase ends when balance
    #: slips), so the work would follow the seed.  Four passes fix the
    #: work and keep an operation near 2 s, so that a run's median rests
    #: on several operations: this host's throughput swings by tens of
    #: percent over a few seconds.
    max_iterations = 4

    def setup(self, seed: int, rec, work: Path) -> dict:
        hg = generate("sparsine", 20, instance_seed(seed), rec)
        link, C = profiled_machine(self.num_nodes, FIXED_SEED, rec)
        return {"hg": hg, "link": link, "C": C, "seed": FIXED_SEED}

    def op(self, ctx: dict, rec) -> Op:
        cfg = HyperPRAWConfig(
            chunk_size=1024, kernel="python", max_iterations=self.max_iterations
        )
        with rec.span("op") as span, rec.span("hyperpraw"):
            result = HyperPRAW.aware(cfg).partition(
                ctx["hg"], self.num_parts, cost_matrix=ctx["C"], seed=ctx["seed"]
            )
        phases = [rec_.phase for rec_ in result.iterations]
        return Op(
            result.assignment,
            result.metadata,
            span[4] - span[3],
            span[0],
            extra={
                "tempering": phases.count("tempering"),
                "refinement": phases.count("refinement"),
            },
        )

    def layers(self, ops, totals):
        return {
            "hyperpraw.passes": _median(op.meta["iterations_run"] for op in ops),
            "hyperpraw.tempering_passes": _median(op.extra["tempering"] for op in ops),
            "hyperpraw.refinement_passes": _median(
                op.extra["refinement"] for op in ops
            ),
            "hyperpraw.rolled_back": _median(int(op.meta["rolled_back"]) for op in ops),
        }


class StreamCapped(Workload):
    """hMetis text ingest plus a capped, windowed BufferedRestreamer
    (the first stage of :class:`OutOfCore`)."""

    name = "stream-capped"
    #: Pass budget per window.  Left to converge, a window restream runs
    #: 2-4 passes depending on the seed; one pass per window, after the
    #: round-robin arrival placement, fixes the work.
    max_iterations = 1

    def setup(self, seed: int, rec, work: Path) -> dict:
        hg = generate("sparsine", 10, instance_seed(seed), rec)
        path = work / "sparsine.hgr"
        with rec.span("hypergraph.write"):
            write_hmetis(hg, path)
        link, C = profiled_machine(self.num_nodes, FIXED_SEED, rec)
        return {"hg": hg, "link": link, "C": C, "seed": FIXED_SEED, "path": path}

    def op(self, ctx: dict, rec) -> Op:
        cfg = HyperPRAWConfig(
            chunk_size=256, kernel="python", max_iterations=self.max_iterations
        )
        with rec.span("op") as span:
            with rec.span("reader.ingest") as ingest:
                stream = stream_hmetis(ctx["path"])
            with stream, rec.span("restream"):
                result = BufferedRestreamer(
                    cfg, buffer_size=8192, max_tracked_edges=stream.num_edges // 4
                ).partition_stream(
                    stream, self.num_parts, cost_matrix=ctx["C"], seed=ctx["seed"]
                )
        return Op(
            result.assignment,
            result.metadata,
            span[4] - span[3],
            span[0],
            extra={"ingest_s": ingest[4] - ingest[3], "pins": stream.num_pins},
        )

    def layers(self, ops, totals):
        return {
            "reader.pins_per_s": _median(op.extra["pins"] / op.extra["ingest_s"] for op in ops),
            "reader.peak_resident_pins": _median(
                op.meta["peak_resident_pins"] for op in ops
            ),
            "restream.passes": _median(op.meta["iterations_run"] for op in ops),
            "restream.batches": _median(op.meta["batches"] for op in ops),
            "lru_state.evictions": _median(op.meta["evictions"] for op in ops),
            "lru_state.peak_tracked_edges": _median(
                op.meta["peak_tracked_edges"] for op in ops
            ),
        }


class Sharded2W(Workload):
    """Chunk-store replay through the forked two-worker one-pass streamer
    (the second stage of :class:`OutOfCore`)."""

    name = "sharded-2w"
    num_nodes = 2
    imbalance_bound = 1.2  # OnePassStreamer's default balance_slack
    parallel_mode = "forked"
    workers = 2
    #: Presence-table cap as a share of the nets.  At E/4 the cap sits on
    #: this mesh's LRU cliff: the streamed working set (about one grid
    #: plane of nets) is close to E/4, and 2 of 32 seeds measured evicted
    #: 2.3x as often (541k-583k, against 228k-238k) and ran 2x as long.
    #: At E/8 every seed is past the cliff (462k-479k evictions), so the
    #: work no longer follows the seed and the eviction path runs hot on
    #: every run.
    cap_divisor = 8

    def setup(self, seed: int, rec, work: Path) -> dict:
        hg = generate("2cubes_sphere", 33, instance_seed(seed), rec)
        store = work / "2cubes_sphere.chunkstore"
        with rec.span("chunkstore.write"):
            write_store(HypergraphChunkStream(hg), store)
        link, C = profiled_machine(self.num_nodes, FIXED_SEED, rec)
        return {"hg": hg, "link": link, "C": C, "seed": FIXED_SEED, "store": store}

    def op(self, ctx: dict, rec) -> Op:
        with rec.span("op") as span:
            with rec.span("chunkstore.open"):
                stream = open_store(ctx["store"])
            with stream, rec.span("sharded"):
                result = OnePassStreamer(
                    workers=self.workers,
                    max_tracked_edges=stream.num_edges // self.cap_divisor,
                    kernel="python",
                ).partition_stream(
                    stream, self.num_parts, cost_matrix=ctx["C"], seed=ctx["seed"]
                )
        return Op(result.assignment, result.metadata, span[4] - span[3], span[0])

    def layers(self, ops, totals):
        def busy(op, t):
            active = t.get("parallel.start", {}).get("s", 0.0) + t.get(
                "parallel.exchange", {}
            ).get("s", 0.0)
            return op.meta["pass_seconds"] / (self.workers * active) if active else 0.0

        meta = lambda key: _median(op.meta[key] for op in ops)  # noqa: E731
        return {
            "lru_state.evictions": meta("evictions"),
            "lru_state.peak_tracked_edges": meta("peak_tracked_edges"),
            "sharded.merge_payload_bytes": meta("merge_payload_bytes"),
            "sharded.boundary_payload_bytes": meta("boundary_payload_bytes"),
            "sharded.boundary_vertices": meta("boundary_vertices"),
            "sharded.shard_pin_skew": meta("shard_pin_skew"),
            "sharded.busy_ratio": _median(busy(op, t) for op, t in zip(ops, totals)),
        }


class OutOfCore(Workload):
    """The two out-of-core paths in one operation: the ``stream-capped``
    stage, then the ``sharded-2w`` stage.

    One workload instead of two lets every run last 36 s within the
    benchmark's time limit; on a shared host whose throughput drifts,
    short runs of four workloads spread past their bounds.  Each stage keeps its own input, gate, pinned digest and
    quality oracle; the operation's wall is the two stages in turn.
    """

    name = "out-of-core"
    stages = (StreamCapped(), Sharded2W())

    def setup(self, seed: int, rec, work: Path) -> dict:
        return {"stages": [stage.setup(seed, rec, work) for stage in self.stages]}

    def close(self, ctx: dict) -> None:
        for stage, sctx in self.stage_contexts(ctx):
            stage.close(sctx)

    def stage_contexts(self, ctx: dict) -> "list[tuple[Workload, dict]]":
        return list(zip(self.stages, ctx["stages"]))

    def op(self, ctx: dict, rec) -> Op:
        with rec.span("op") as span:
            parts = [stage.op(sctx, rec) for stage, sctx in self.stage_contexts(ctx)]
        return Op(None, {}, span[4] - span[3], span[0], parts=parts)

    def layers(self, ops, totals):
        restream, sharded = ([op.parts[i] for op in ops] for i in range(2))
        out = self.stages[0].layers(restream, totals)
        out.update(self.stages[1].layers(sharded, totals))
        # Both stages keep an LRU presence table: count the operation's
        # evictions over both, and its larger peak.
        out["lru_state.evictions"] = _median(
            a.meta["evictions"] + b.meta["evictions"] for a, b in zip(restream, sharded)
        )
        out["lru_state.peak_tracked_edges"] = _median(
            max(a.meta["peak_tracked_edges"], b.meta["peak_tracked_edges"])
            for a, b in zip(restream, sharded)
        )
        return out


class ServiceReplay(Workload):
    """Closed-loop sync requests against the ``serve`` CLI in its own process."""

    name = "service-replay"
    serves_requests = True
    imbalance_bound = 1.2  # OnePassStreamer's default balance_slack
    #: Enough requests for ten samples beyond the p90.
    min_ops = min_samples_for(0.9)

    def setup(self, seed: int, rec, work: Path) -> dict:
        hg = generate("ABACUS_shell_hd", 0.6, instance_seed(seed), rec)
        path = work / "ABACUS_shell_hd.hgr"
        with rec.span("hypergraph.write"):
            write_hmetis(hg, path)
        body = path.read_bytes()
        # cost=archer: the service builds its cost matrix from the
        # machine realisation the request seed selects; replicate it for
        # the quality oracle and the simulated application.
        req_seed = FIXED_SEED
        with rec.span("architecture.profile"):
            topo = archer_like_topology(num_nodes=self.num_nodes)
            bw, lat = archer_like_bandwidth(topo).matrices(seed=req_seed)
            link = LinkModel(bw, lat)
            C = cost_matrix_from_bandwidth(bw[: self.num_parts, : self.num_parts])
        with rec.span("service.boot"):
            proc, url = _boot_server(work)
        ctx = {"hg": hg, "link": link, "C": C, "seed": req_seed, "body": body,
               "proc": proc, "url": url, "work": work}
        try:
            with rec.span("service.upload"):
                info = _request(f"{url}/v1/stores", body)
        except BaseException:
            self.close(ctx)
            raise
        ctx["query"] = (
            f"{url}/v1/partitions?store={info['digest']}&sync=1"
            f"&k={self.num_parts}&kernel=python&cost=archer&seed={req_seed}"
        )
        return ctx

    def close(self, ctx: dict) -> None:
        proc = ctx["proc"]
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def warm_up(self, ctx: dict, rec) -> None:
        """One untimed request: the first pays the server's lazy imports
        and cold store pages."""
        self.op(ctx, rec)

    def op(self, ctx: dict, rec) -> Op:
        with rec.span("service.request") as span:
            try:
                job = _request(ctx["query"], b"")
                text = _fetch(ctx["url"] + job["links"]["assignment"])
            except urllib.error.HTTPError as exc:
                job, text = {"http_status": exc.code}, None
            except OSError as exc:
                job, text = {"http_status": None, "reason": str(exc)}, None
        latency = span[4] - span[3]
        if text is None or job.get("status") != "done":
            status = job.get("http_status")
            return Op(
                np.empty(0, dtype=np.int64), {}, latency, span[0],
                extra={"rejected": status == 429},
                error=f"request failed: {job.get('error') or job}",
            )
        assignment = np.array(text.split(), dtype=np.int64)
        compute = job["metrics"]["wall_time_s"]
        job_s = job["finished_at"] - job["started_at"]
        return Op(
            assignment,
            job["metrics"],
            latency,
            span[0],
            extra={
                "compute_s": compute,
                "job_s": job_s,
                "queue_wait_s": job["started_at"] - job["created_at"],
                "http_overhead_s": latency - job_s,
                "rejected": False,
            },
        )

    def reference_digest(self, ctx: dict) -> str:
        store = ctx["work"] / "reference.chunkstore"
        write_store(stream_hmetis(ctx["body"]), store)
        with open_store(store) as stream:
            result = OnePassStreamer(kernel="python").partition_stream(
                stream, self.num_parts, cost_matrix=ctx["C"], seed=ctx["seed"]
            )
        return digest_of(result.assignment)

    def layers(self, ops, totals):
        good = [op for op in ops if op.error is None]
        med = lambda key: _median(op.extra[key] for op in good)  # noqa: E731
        out = {
            "service.errors": sum(op.error is not None for op in ops),
            "service.rejections": sum(op.extra.get("rejected", False) for op in ops),
        }
        if good:
            out.update({
                "service.compute_s": med("compute_s"),
                "service.job_s": med("job_s"),
                "service.pool_overhead_s": _median(
                    op.extra["job_s"] - op.extra["compute_s"] for op in good
                ),
                "service.queue_wait_s": med("queue_wait_s"),
                "service.http_overhead_s": med("http_overhead_s"),
                "lru_state.evictions": _median(op.meta["evictions"] for op in good),
                "lru_state.peak_tracked_edges": _median(
                    op.meta["peak_tracked_edges"] for op in good
                ),
            })
        return out


def digest_of(assignment: np.ndarray) -> str:
    """sha256 of an assignment as little-endian int64 part ids."""
    return hashlib.sha256(np.asarray(assignment, dtype="<i8").tobytes()).hexdigest()


def check_ops(wl: Workload, ops: "list[Op]", num_vertices: int) -> "tuple[list, str | None]":
    """Per-operation gate; returns each op's failure (or ``None``) and the
    digest every op must share."""
    failures: list = []
    first = None
    for op in ops:
        if op.error is not None:
            failures.append(op.error)
            continue
        a = op.assignment
        problem = None
        if a.shape != (num_vertices,):
            problem = f"assignment length {a.shape} != ({num_vertices},)"
        elif a.size and (a.min() < 0 or a.max() >= wl.num_parts):
            problem = f"part ids outside [0, {wl.num_parts})"
        elif op.meta.get("kernel_mode") != "python":
            problem = f"kernel_mode={op.meta.get('kernel_mode')!r}, not 'python'"
        elif wl.parallel_mode and op.meta.get("parallel_mode") != wl.parallel_mode:
            problem = (
                f"parallel_mode={op.meta.get('parallel_mode')!r}, "
                f"not {wl.parallel_mode!r}"
            )
        else:
            d = digest_of(a)
            if first is None:
                first = d
            elif d != first:
                problem = "assignment differs from the run's first operation"
        failures.append(problem)
    return failures, first


def _median(values) -> float:
    return float(statistics.median(list(values)))


def _boot_server(work: Path):
    """Start ``hyperpraw-repro serve`` on an ephemeral port; wait for its URL."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(work))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--workers", "1",
            "--cache-dir", str(work / "service-cache"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if not line.startswith("serving on "):
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise RuntimeError(f"service did not start: {line!r}")
    return proc, line.split()[2]


def _request(url: str, body: bytes) -> dict:
    req = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.load(resp)


def _fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read().decode()


WORKLOADS = {wl.name: wl for wl in (PaperAware(), OutOfCore(), ServiceReplay())}
