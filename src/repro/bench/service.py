"""Service scenario: requests-per-second and upload-to-result latency.

The HTTP layer (:mod:`repro.service`) exists to serve traffic, so its
bench measures traffic, not kernels — everything over a real socket
against an in-process :class:`~repro.service.app.PartitionService` on an
ephemeral port:

1. **Latency ladder** (:func:`compare_service`): each synthetic suite
   instance is rendered to hMetis bytes and pushed through the three
   paths a client pays for — ``POST /v1/stores`` (pure streamed text
   ingest into the digest-keyed chunk store), ``POST /v1/partitions``
   with a fresh body (upload-to-result: ingest + store publish + sync
   partition), and ``POST /v1/partitions?store=<digest>`` (the re-serve
   hot path: mmap store replay, no text parse).  ``replay_speedup`` =
   upload-to-result over replay-to-result — the figure that justifies
   digest reuse.
2. **Throughput** (:class:`ServiceThroughput`): concurrent client
   threads hammer the replay hot path on the smallest instance;
   ``rps`` is completed requests over wall time.
3. **Pool ladder** (:func:`compare_pools`): the same concurrent replay
   load against a thread-pool and a process-pool service, one after the
   other.  ``speedup`` is process rps over thread rps — the number that
   justifies forking past the GIL — and each run records a sha256 of
   the assignment it serves, so the ladder doubles as a bit-identity
   contract between the two pools.

Everything is stdlib ``urllib`` + ``threading`` — the bench must run
wherever the service runs, i.e. with no dependencies beyond the repo's.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from repro.engine.parallel import fork_available
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.suite import load_instance
from repro.service.app import PartitionService
from repro.service.handlers import ServiceConfig
from repro.utils.tables import format_kv, format_table

__all__ = [
    "ServiceRecord",
    "ServiceThroughput",
    "ServiceReport",
    "PoolRun",
    "PoolLadder",
    "compare_service",
    "compare_pools",
]

#: Default ladder: three differently-shaped suite instances (mesh,
#: banded shell, unstructured) — enough spread to see parse cost scale.
DEFAULT_INSTANCES = ("2cubes_sphere", "ABACUS_shell_hd", "sparsine")


def _post(url: str, data: "bytes | None") -> dict:
    req = urllib.request.Request(url, data=data, method="POST")
    with urllib.request.urlopen(req) as resp:
        return json.load(resp)


def _get_text(url: str) -> str:
    with urllib.request.urlopen(url) as resp:
        return resp.read().decode()


@dataclass(frozen=True)
class ServiceRecord:
    """One instance's latency figures, all over the wire.

    ``store_ingest_s`` is ``POST /v1/stores`` (parse + store publish);
    ``upload_partition_s`` is a body-carrying sync partition (the first
    request a client ever pays); ``replay_partition_s`` the same
    partition re-requested by digest (no parse).
    """

    instance: str
    num_vertices: int
    num_edges: int
    num_pins: int
    upload_bytes: int
    store_ingest_s: float
    upload_partition_s: float
    replay_partition_s: float

    @property
    def replay_speedup(self) -> float:
        """Upload-to-result over replay-to-result (>1 = reuse pays)."""
        return self.upload_partition_s / max(self.replay_partition_s, 1e-9)


@dataclass(frozen=True)
class ServiceThroughput:
    """Concurrent sync-partition throughput on the replay hot path."""

    instance: str
    threads: int
    requests: int
    wall_s: float
    errors: int

    @property
    def rps(self) -> float:
        return self.requests / max(self.wall_s, 1e-9)


@dataclass(frozen=True)
class PoolRun:
    """One pool's concurrent sync-replay throughput figure.

    ``assignment_digest`` is the sha256 of the assignment text the run
    served — both pools must serve the same bytes for the same seed.
    """

    pool: str
    threads: int
    requests: int
    wall_s: float
    errors: int
    assignment_digest: str

    @property
    def rps(self) -> float:
        return self.requests / max(self.wall_s, 1e-9)


@dataclass
class PoolLadder:
    """Thread-vs-process throughput under identical concurrent load."""

    instance: str
    k: int
    partitioner: str
    runs: "list[PoolRun]"

    def run(self, pool: str) -> PoolRun:
        for r in self.runs:
            if r.pool == pool:
                return r
        raise KeyError(f"no run for pool {pool!r}")

    @property
    def speedup(self) -> "float | None":
        """Process rps over thread rps; ``None`` without a process run."""
        try:
            process = self.run("process")
        except KeyError:
            return None
        return process.rps / max(self.run("thread").rps, 1e-9)

    @property
    def digests_match(self) -> bool:
        return len({r.assignment_digest for r in self.runs}) == 1

    def render(self) -> str:
        rows = [
            (
                r.pool,
                r.threads,
                r.requests,
                r.errors,
                f"{r.wall_s:.4f}",
                f"{r.rps:.2f}",
                r.assignment_digest[:12],
            )
            for r in self.runs
        ]
        speedup = self.speedup
        title = (
            f"pool ladder — {self.instance}, k={self.k}, "
            f"partitioner={self.partitioner}"
        )
        if speedup is not None:
            title += f", process/thread = {speedup:.2f}x"
        return format_table(
            ("pool", "threads", "requests", "errors", "wall_s", "rps", "digest"),
            rows,
            title=title,
        )


@dataclass
class ServiceReport:
    """Latency ladder + throughput, with the repo's text rendering."""

    k: int
    partitioner: str
    records: "list[ServiceRecord]"
    throughput: ServiceThroughput

    def record(self, instance: str) -> ServiceRecord:
        for r in self.records:
            if r.instance == instance:
                return r
        raise KeyError(f"no record for {instance!r}")

    def render(self) -> str:
        rows = [
            (
                r.instance,
                r.num_vertices,
                r.num_pins,
                r.upload_bytes,
                f"{r.store_ingest_s:.4f}",
                f"{r.upload_partition_s:.4f}",
                f"{r.replay_partition_s:.4f}",
                f"{r.replay_speedup:.2f}x",
            )
            for r in self.records
        ]
        table = format_table(
            (
                "instance",
                "vertices",
                "pins",
                "bytes",
                "store_s",
                "upload->result_s",
                "replay->result_s",
                "reuse",
            ),
            rows,
            title=(
                f"service latency ladder — k={self.k}, "
                f"partitioner={self.partitioner}, sync over HTTP"
            ),
        )
        t = self.throughput
        kv = format_kv(
            {
                "instance": t.instance,
                "client threads": t.threads,
                "requests": t.requests,
                "errors": t.errors,
                "wall [s]": t.wall_s,
                "requests/s": round(t.rps, 2),
            },
            title="service throughput — sync partitions via store replay",
        )
        return f"{table}\n\n{kv}"


def compare_service(
    instances: "tuple[str, ...] | None" = None,
    *,
    scale: float = 0.05,
    k: int = 8,
    partitioner: str = "onepass",
    chunk_size: int = 256,
    threads: int = 4,
    requests: int = 32,
    seed: int = 0,
    config: "ServiceConfig | None" = None,
) -> ServiceReport:
    """Run the full service scenario against an in-process server.

    Parameters
    ----------
    instances:
        suite instance names for the latency ladder (default
        :data:`DEFAULT_INSTANCES`).
    scale:
        suite loader scale (0.05 keeps a laptop run in seconds; CI
        smoke uses less).
    k / partitioner / chunk_size / seed:
        the partition request every measurement issues.
    threads / requests:
        throughput phase: total sync requests spread over concurrent
        client threads, all hitting the smallest instance's store.
    config:
        service overrides; the port is always forced ephemeral.

    Returns
    -------
    ServiceReport
        latency records per instance plus the throughput figure.
    """
    names = tuple(instances) if instances else DEFAULT_INSTANCES
    base_cfg = config or ServiceConfig()
    cfg = ServiceConfig(
        host=base_cfg.host,
        port=0,
        cache_dir=base_cfg.cache_dir,
        workers=base_cfg.workers,
        default_chunk_size=chunk_size,
        default_buffer_pins=base_cfg.default_buffer_pins,
        pool=base_cfg.pool,
    )
    # The scratch dir holds the rendered .hgr files; a failed run (bad
    # partition, socket error) must not leak it.
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-service-"))
    try:
        return _run_scenario(
            cfg, names, scale, k, partitioner, threads, requests, seed, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_scenario(
    cfg: ServiceConfig,
    names: "tuple[str, ...]",
    scale: float,
    k: int,
    partitioner: str,
    threads: int,
    requests: int,
    seed: int,
    scratch: Path,
) -> ServiceReport:
    """The measured body of :func:`compare_service` (scratch is owned
    by the caller)."""
    records: "list[ServiceRecord]" = []
    with PartitionService(cfg) as svc:
        partition_url = (
            f"{svc.url}/v1/partitions?k={k}&partitioner={partitioner}"
            f"&sync=1&seed={seed}"
        )
        smallest: "tuple[int, str, bytes] | None" = None
        for name in names:
            hg = load_instance(name, scale=scale)
            hgr = scratch / f"{name}.hgr"
            write_hmetis(hg, hgr)
            raw = hgr.read_bytes()
            if smallest is None or len(raw) < smallest[0]:
                smallest = (len(raw), name, raw)

            t0 = time.perf_counter()
            store = _post(f"{svc.url}/v1/stores?name={name}", raw)
            store_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            upload_job = _post(f"{partition_url}&name={name}", raw)
            upload_s = time.perf_counter() - t0
            assert upload_job["status"] == "done", upload_job

            t0 = time.perf_counter()
            replay_job = _post(f"{partition_url}&store={store['digest']}", None)
            replay_s = time.perf_counter() - t0
            assert replay_job["status"] == "done", replay_job

            records.append(
                ServiceRecord(
                    instance=name,
                    num_vertices=store["num_vertices"],
                    num_edges=store["num_edges"],
                    num_pins=store["num_pins"],
                    upload_bytes=len(raw),
                    store_ingest_s=store_s,
                    upload_partition_s=upload_s,
                    replay_partition_s=replay_s,
                )
            )

        # Throughput: hammer the replay hot path on the smallest input.
        _, small_name, small_raw = smallest
        digest = _post(f"{svc.url}/v1/stores?name={small_name}", small_raw)[
            "digest"
        ]
        url = f"{partition_url}&store={digest}"
        per_thread = -(-requests // threads)
        total = per_thread * threads
        errors = [0] * threads

        def client(i: int) -> None:
            for _ in range(per_thread):
                try:
                    _post(url, None)
                except Exception:  # noqa: BLE001 — counted, not raised
                    errors[i] += 1

        workers = [
            threading.Thread(target=client, args=(i,)) for i in range(threads)
        ]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0
        throughput = ServiceThroughput(
            instance=small_name,
            threads=threads,
            requests=total,
            wall_s=wall,
            errors=sum(errors),
        )
    return ServiceReport(
        k=k, partitioner=partitioner, records=records, throughput=throughput
    )


def compare_pools(
    instance: str = "2cubes_sphere",
    *,
    scale: float = 0.05,
    k: int = 8,
    partitioner: str = "onepass",
    chunk_size: int = 256,
    threads: int = 4,
    requests: int = 16,
    seed: int = 0,
    pools: "tuple[str, ...] | None" = None,
) -> PoolLadder:
    """Concurrent sync-replay throughput, thread pool vs process pool.

    Boots one service per pool (same workers, same store, same seeded
    partition request) and drives ``requests`` sync replays from
    ``threads`` client threads.  The thread pool serialises the numpy
    pass kernels behind the GIL; the process pool runs each request on
    one of ``threads`` persistent worker processes, all forked during
    the untimed warm-up (see :func:`_warm_pool`), so on a multi-core
    box its rps should pull ahead — that
    ratio is :attr:`PoolLadder.speedup`, asserted in CI (gated on
    ``os.cpu_count()``).  Defaults to ``("thread",)`` only where fork
    is unavailable.
    """
    if pools is None:
        pools = ("thread", "process") if fork_available() else ("thread",)
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-pools-"))
    try:
        hg = load_instance(instance, scale=scale)
        hgr = scratch / f"{instance}.hgr"
        write_hmetis(hg, hgr)
        raw = hgr.read_bytes()
        runs: "list[PoolRun]" = []
        for pool in pools:
            runs.append(
                _run_pool(
                    pool, instance, raw, k, partitioner, chunk_size,
                    threads, requests, seed, scratch,
                )
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return PoolLadder(
        instance=instance, k=k, partitioner=partitioner, runs=runs
    )


#: Concurrent warm-up rounds :func:`_warm_pool` tries before giving up.
#: On a 2-core box, four clients on the 956-pin ladder store needed 1 to
#: 16 rounds over 8 trials.
WARM_ROUNDS = 100


def _warm_pool(base_url: str, url: str, threads: int) -> int:
    """Fork one job worker per client thread before the timed phase.

    A process pool forks a worker only while every kept one is busy, so
    sequential warm-up requests would leave one worker and the timed
    phase would pay the other forks.  Each round sends ``threads``
    concurrent requests released together, until healthz counts
    ``threads`` forks (a thread pool counts none and stops after one
    round).  The pool keeps up to ``threads`` workers idle, so every
    fork counted stays alive for the timed phase.  Returns the count.
    """
    def started() -> int:
        health = json.loads(_get_text(f"{base_url}/v1/healthz"))
        return health["stats"]["job_workers_started"]

    for _ in range(WARM_ROUNDS):
        gate = threading.Barrier(threads)

        def client() -> None:
            gate.wait()
            _post(url, None)

        clients = [threading.Thread(target=client) for _ in range(threads)]
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        forks = started()
        if forks == 0 or forks >= threads:
            break
    return forks


def _run_pool(
    pool: str,
    instance: str,
    raw: bytes,
    k: int,
    partitioner: str,
    chunk_size: int,
    threads: int,
    requests: int,
    seed: int,
    scratch: Path,
) -> PoolRun:
    """One pool's measured leg of :func:`compare_pools`."""
    cfg = ServiceConfig(
        port=0,
        workers=threads,
        pool=pool,
        cache_dir=scratch / f"cache-{pool}",
        default_chunk_size=chunk_size,
    )
    with PartitionService(cfg) as svc:
        digest = _post(f"{svc.url}/v1/stores?name={instance}", raw)["digest"]
        url = (
            f"{svc.url}/v1/partitions?k={k}&partitioner={partitioner}"
            f"&sync=1&seed={seed}&store={digest}"
        )
        # Warm-up run also pins the determinism contract: the digest of
        # the assignment text must be identical across pools.
        warm = _post(url, None)
        assert warm["status"] == "done", warm
        text = _get_text(svc.url + warm["links"]["assignment"])
        assignment_digest = hashlib.sha256(text.encode()).hexdigest()
        _warm_pool(svc.url, url, threads)

        per_thread = -(-requests // threads)
        total = per_thread * threads
        errors = [0] * threads

        def client(i: int) -> None:
            for _ in range(per_thread):
                try:
                    _post(url, None)
                except Exception:  # noqa: BLE001 — counted, not raised
                    errors[i] += 1

        workers = [
            threading.Thread(target=client, args=(i,)) for i in range(threads)
        ]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0
    return PoolRun(
        pool=pool,
        threads=threads,
        requests=total,
        wall_s=wall,
        errors=sum(errors),
        assignment_digest=assignment_digest,
    )
