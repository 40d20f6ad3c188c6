"""The service's HTTP contract and route logic.

Two tables declare the contract once: :data:`ROUTES` (method, path
template, handler, public or not, body or not, accepted parameters) and
the query :class:`Knob` tables :data:`PARTITION_QUERY` and
:data:`UPLOAD_KNOBS`.  The router in :mod:`repro.service.app`,
admission, the ``route`` metric label, parameter validation, the job
links and :func:`~repro.service.openapi.openapi_spec` all read them.

:class:`ServiceHandlers` is the service's brain, deliberately decoupled
from :mod:`http.server` so tests and benchmarks can drive it without a
socket: every handler takes parsed query parameters (and, for uploads,
an iterable of body byte blocks) and returns ``(status, body)``.  The
HTTP adapter in :mod:`repro.service.app` owns wire concerns only.

The data path is the whole point: an upload's byte blocks are fed
*directly* into the streaming text readers
(:func:`~repro.streaming.reader.stream_hmetis` /
:func:`~repro.streaming.reader.stream_matrix_market` — which accept any
iterable byte source) while a SHA-256 runs over the same blocks, so the
service never materialises the file; the parsed stream is then published
into a digest-keyed persistent chunk store
(:mod:`repro.streaming.chunkstore`) and every partition run — including
re-partitions of the same upload with different ``k``/scorer via
``store=<digest>`` — replays the memory-mapped store instead of
re-parsing text.  The ``text_ingests`` / ``store_replays`` counters in
``GET /v1/healthz`` make that observable (and testable).
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.architecture.bandwidth import archer_like_bandwidth
from repro.architecture.cost import cost_matrix_from_bandwidth
from repro.architecture.topology import archer_like_topology
from repro.hypergraph.io import HypergraphFormatError
from repro.service.admission import AdmissionControl, keys_from_env
from repro.service.errors import (
    BadRequest,
    Conflict,
    InvalidUpload,
    NotFound,
    ServiceError,
    StoreEvicted,
    TooManyRequests,
)
from repro.service.jobs import (
    JOB_POOLS,
    POOL_CLOSED,
    WORKER_CRASHED,
    Job,
    JobStore,
)
from repro.service.metrics import MetricsRegistry
from repro.service.openapi import SERVICE_VERSION, openapi_spec
from repro.service.storecache import StoreCache
from repro.streaming.chunkstore import ChunkStoreError, open_store, write_store
from repro.streaming.reader import (
    DEFAULT_BUFFER_PINS,
    DEFAULT_CHUNK_SIZE,
    stream_hmetis,
    stream_matrix_market,
)
from repro.partitioning.families import (
    PARTITION_KNOBS,
    Knob,
    build_partitioner,
    family_names,
    partition_spec,
)

__all__ = [
    "ServiceConfig",
    "ServiceHandlers",
    "Route",
    "ROUTES",
    "PARTITION_QUERY",
    "UPLOAD_KNOBS",
    "PARTITIONERS",
    "UPLOAD_FORMATS",
    "json_safe",
]

#: Upload formats the service parses, mapped to their stream opener.
UPLOAD_FORMATS = {
    "hmetis": stream_hmetis,
    "mtx": stream_matrix_market,
}

#: Registered partitioners (the ``partitioner=`` request knob), taken
#: from the :data:`repro.partitioning.families.PARTITIONERS` registry —
#: registering a family there makes it servable with no service change.
PARTITIONERS = family_names()


def _knob_table(*knobs: Knob) -> "dict[str, Knob]":
    return {knob.name: knob for knob in knobs}


#: Query parameters that shape an upload's ingest.  ``chunk_size`` and
#: ``buffer_pins`` document the reader defaults; a service parses them
#: against its :class:`ServiceConfig` defaults instead.
UPLOAD_KNOBS = _knob_table(
    Knob("format", "choice", "hmetis", "upload format: hMetis (.hgr) or "
         "MatrixMarket coordinate (.mtx)", choices=tuple(UPLOAD_FORMATS)),
    Knob("model", "choice", "row-net", "hypergraph model for format=mtx "
         "(rejected otherwise)", choices=("row-net", "column-net")),
    Knob("chunk_size", "int", DEFAULT_CHUNK_SIZE, "vertices per streamed "
         "chunk (the ingest/replay granularity)", minimum=1),
    Knob("buffer_pins", "int", DEFAULT_BUFFER_PINS, "ingest spill-buffer "
         "capacity in pins — the resident-memory knob", minimum=1),
    Knob("pin_budget", "int", None, "cut chunk boundaries by resident pins "
         "instead of a fixed vertex count (hub-dominated graphs)", minimum=1),
    Knob("name", "str", None, "stream name recorded in the store"),
)

#: Every query parameter ``POST /v1/partitions`` accepts, in contract
#: order: ``k``, the partition knobs, the service's own, then the
#: upload ones.
PARTITION_QUERY = _knob_table(
    Knob("k", "int", None, "number of partitions", minimum=1, required=True),
    *PARTITION_KNOBS.values(),
    Knob("seed", "int", 20190805, "deterministic seed"),
    Knob("cost", "choice", "uniform", "communication cost matrix: uniform "
         "or an ARCHER-like profiled machine (architecture-aware)",
         choices=("uniform", "archer")),
    Knob("sync", "bool", False, "run on the request thread and return the "
         "finished job (small graphs); otherwise the job is queued"),
    Knob("store", "str", None, "partition a previous upload by digest "
         "instead of sending a body — replays the mmap chunk store, no "
         "text parse"),
    *UPLOAD_KNOBS.values(),
)


def template_parts(template: str) -> "tuple[str, str, str]":
    """``(prefix, name, suffix)`` around a route template's ``{name}``."""
    prefix, _, rest = template.partition("{")
    name, _, suffix = rest.partition("}")
    return prefix, name, suffix


@dataclass(frozen=True)
class Route:
    """One HTTP route: everything of its contract but the prose.

    ``template`` may hold one ``{name}`` segment, matched by a non-empty
    path segment and passed to ``handler`` (a :class:`ServiceHandlers`
    method name) by keyword.  ``params`` are the query parameters the
    route accepts; a route without any ignores the query, one with
    some rejects unknown names and its handler takes ``(params, body)``.
    ``body`` is ``True`` when the route reads a framed request body, or
    the name of a query parameter that stands in for it.  ``public``
    routes skip admission.
    """

    method: str
    template: str
    handler: str
    params: "dict[str, Knob]" = field(default_factory=dict)
    body: "bool | str" = False
    public: bool = False

    def call(self, api: "ServiceHandlers", params: dict, body, args: dict):
        """Run the handler: ``(status, body)`` or ``(status,
        content_type, blocks)``."""
        handler = getattr(api, self.handler)
        if not self.params:
            return handler(**args)
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise BadRequest(
                f"unknown parameter(s) for {self.method} {self.template}: "
                f"{', '.join(unknown)} (accepted: "
                f"{', '.join(sorted(self.params))})"
            )
        return handler(params, body)


#: The service's routes, in contract order: with :data:`PARTITION_QUERY`
#: the one declaration of the HTTP surface.  The router, admission, the
#: ``route`` metric label, the job links and the OpenAPI document are
#: all read from it.
ROUTES = (
    Route("POST", "/v1/partitions", "create_partition", PARTITION_QUERY,
          body="store"),
    Route("GET", "/v1/partitions/{job_id}", "get_partition"),
    Route("GET", "/v1/partitions/{job_id}/assignment", "get_assignment"),
    Route("POST", "/v1/stores", "create_store", UPLOAD_KNOBS, body=True),
    Route("GET", "/v1/healthz", "healthz", public=True),
    Route("GET", "/v1/metrics", "metrics", public=True),
    Route("GET", "/v1/openapi.json", "openapi", public=True),
)

_BY_HANDLER = {route.handler: route for route in ROUTES}
_AT: "dict[str, dict[str, Route]]" = {}
for _route in ROUTES:
    _AT.setdefault(_route.template, {})[_route.method] = _route
_FIXED = {path: routes for path, routes in _AT.items() if "{" not in path}
_TEMPLATED = [
    (*template_parts(template), template, routes)
    for template, routes in _AT.items()
    if "{" in template
]


def resolve(path: str) -> "tuple[str, dict[str, Route], dict | None]":
    """``(label, routes, args)`` for a normalised request path.

    ``label`` is the matched template — the low-cardinality ``route``
    metric label — or ``"other"``; ``routes`` maps each method the path
    supports to its :class:`Route`; ``args`` holds the template's path
    argument.  An unmatched path — one below a templated route
    (``/v1/partitions/<id>/x``) too — has no routes and ``args`` of
    ``None``, so every method on it is a 404.
    """
    routes = _FIXED.get(path)
    if routes is not None:
        return path, routes, {}
    for prefix, name, suffix, template, routes in _TEMPLATED:
        value = path[len(prefix): len(path) - len(suffix)]
        if (
            path.startswith(prefix) and path.endswith(suffix)
            and value and "/" not in value
        ):
            return template, routes, {name: value}
    return "other", {}, None


#: Blocks per slice when streaming an assignment body.
_ASSIGNMENT_SLICE = 1 << 16


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (everything per-request rides on the query).

    Attributes
    ----------
    host / port:
        bind address; port ``0`` asks the OS for an ephemeral port
        (tests and benchmarks use this).
    cache_dir:
        root directory for digest-keyed chunk stores; ``None`` creates a
        private temporary directory that lives as long as the service.
        A persistent directory survives restarts: re-uploads of known
        bytes skip straight to the stored chunks.
    workers:
        partition workers draining the async job queue.
    pool:
        how partition jobs execute: ``"process"`` (long-lived forked
        worker processes — N concurrent jobs use N cores),
        ``"thread"`` (inline, GIL-sharing) or ``"auto"`` (process
        where ``fork`` exists).
    max_queue_depth:
        backpressure bound on queued-not-yet-running jobs; beyond it
        ``POST /v1/partitions`` answers ``429 queue_full`` with a
        ``Retry-After`` hint.  ``None`` disables the bound.
    api_keys:
        accepted API keys; empty falls back to the ``REPRO_API_KEYS``
        environment variable, and if that is empty too the service is
        open (no auth, no rate limiting — the PR 5 behaviour).
    rate_limit / rate_burst:
        per-key token bucket: sustained requests/second and burst cap.
        ``rate_limit=None`` keeps auth without throttling.
    store_budget_bytes:
        LRU byte budget for the digest-keyed store directory; coldest
        unpinned stores are evicted beyond it (``None``: unbounded).
    default_chunk_size / default_buffer_pins:
        ingest defaults when an upload does not pass ``chunk_size`` /
        ``buffer_pins`` — the resident-memory knobs of the out-of-core
        bound.
    max_body_bytes:
        reject uploads whose ``Content-Length`` exceeds this (``None``
        disables the cap).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    cache_dir: "str | Path | None" = None
    workers: int = 2
    pool: str = "auto"
    max_queue_depth: "int | None" = None
    api_keys: "tuple" = ()
    rate_limit: "float | None" = None
    rate_burst: float = 10.0
    store_budget_bytes: "int | None" = None
    default_chunk_size: int = DEFAULT_CHUNK_SIZE
    default_buffer_pins: int = DEFAULT_BUFFER_PINS
    max_body_bytes: "int | None" = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.pool not in JOB_POOLS:
            raise ValueError(
                f"pool must be one of {JOB_POOLS}, got {self.pool!r}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0 or None, got {self.max_queue_depth}"
            )
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError(
                f"rate_limit must be > 0 or None, got {self.rate_limit}"
            )
        if self.rate_burst < 1:
            raise ValueError(f"rate_burst must be >= 1, got {self.rate_burst}")
        if self.store_budget_bytes is not None and self.store_budget_bytes < 0:
            raise ValueError(
                f"store_budget_bytes must be >= 0 or None, "
                f"got {self.store_budget_bytes}"
            )
        if self.default_chunk_size < 1:
            raise ValueError(
                f"default_chunk_size must be >= 1, got {self.default_chunk_size}"
            )
        if self.default_buffer_pins < 1:
            raise ValueError(
                f"default_buffer_pins must be >= 1, got {self.default_buffer_pins}"
            )


# ----------------------------------------------------------------------
# parameter parsing
# ----------------------------------------------------------------------
def _normalise_digest(raw: str) -> str:
    """Canonical ``"sha256:<hex>"`` form (bare hex accepted)."""
    value = raw.lower()
    if value.startswith("sha256:"):
        value = value[len("sha256:"):]
    if len(value) != 64 or any(c not in "0123456789abcdef" for c in value):
        raise BadRequest(
            f"store must be a sha256 digest ('sha256:<64 hex>'), got {raw!r}"
        )
    return f"sha256:{value}"


def json_safe(obj):
    """Recursively coerce ``obj`` into JSON-serialisable builtins.

    NumPy scalars become Python scalars, arrays become lists, and
    anything else unserialisable falls back to ``str`` — partitioner
    metadata goes straight into job documents without per-field
    curation.
    """
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _cost_matrix(kind: str, k: int, seed: int) -> "np.ndarray | None":
    """The communication cost matrix a request partitions against.

    ``uniform`` (``None``) makes Eq. 1's communication term
    architecture-oblivious; ``archer`` profiles an ARCHER-like machine
    of ``ceil(k / 24)`` nodes and normalises its first ``k`` units'
    bandwidths into the paper's cost matrix — the architecture-aware
    configuration, deterministic per seed.
    """
    if kind == "uniform":
        return None
    topo = archer_like_topology(num_nodes=max(1, -(-k // 24)))
    bw, _lat = archer_like_bandwidth(topo).matrices(seed=seed)
    return cost_matrix_from_bandwidth(bw[:k, :k])


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
class ServiceHandlers:
    """Implements every documented route against a config and a job pool.

    Parameters
    ----------
    config:
        the :class:`ServiceConfig`; ``cache_dir=None`` allocates a
        private temp directory removed by :meth:`close`.

    Notes
    -----
    All handlers return ``(status, body_dict)`` except
    :meth:`get_assignment`, which returns ``(status, content_type,
    block_iterator)`` so the HTTP layer can stream the assignment
    without building one giant string.  Handlers raise
    :class:`~repro.service.errors.ServiceError` for every client-visible
    failure.
    """

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config or ServiceConfig()
        self.jobs = JobStore(
            self.config.workers,
            pool=self.config.pool,
            max_queue_depth=self.config.max_queue_depth,
        )
        self._started_at = time.time()
        self._stats_lock = threading.Lock()
        self.stats = {
            "uploads": 0,
            "text_ingests": 0,
            "store_replays": 0,
            # pass-kernel observability (docs/performance.md): seconds
            # spent inside pass_kernel across all finished runs, and how
            # many runs each kernel implementation served.
            "pass_seconds": 0.0,
            "kernel_python_runs": 0,
            "kernel_njit_runs": 0,
            # operational counters (this layer): admission rejections
            # (401/403/429), LRU store evictions, pool workers that died
            # mid-job, pool worker processes forked.
            "rejected_requests": 0,
            "evictions": 0,
            "jobs_crashed": 0,
            "job_workers_started": 0,
        }
        if self.config.cache_dir is None:
            self._own_cache = Path(tempfile.mkdtemp(prefix="repro-service-"))
            cache_root = self._own_cache
        else:
            self._own_cache = None
            cache_root = Path(self.config.cache_dir).expanduser().resolve()
        self.stores_dir = cache_root / "stores"
        self.stores_dir.mkdir(parents=True, exist_ok=True)
        self.store_cache = StoreCache(
            self.stores_dir, budget_bytes=self.config.store_budget_bytes
        )
        self.admission = AdmissionControl(
            tuple(self.config.api_keys) or keys_from_env(),
            rate=self.config.rate_limit,
            burst=self.config.rate_burst,
        )
        self.metrics_registry = self._build_metrics()
        # The query table with this service's ingest defaults.
        self.query = {
            **PARTITION_QUERY,
            "chunk_size": replace(
                UPLOAD_KNOBS["chunk_size"],
                default=self.config.default_chunk_size,
            ),
            "buffer_pins": replace(
                UPLOAD_KNOBS["buffer_pins"],
                default=self.config.default_buffer_pins,
            ),
        }

    def _args(self, params: dict, *names: str) -> dict:
        """The named query parameters parsed in order; bad values are 400s."""
        try:
            return {n: self.query[n].parse(params.get(n)) for n in names}
        except ValueError as exc:
            raise BadRequest(str(exc)) from None

    def _build_metrics(self) -> MetricsRegistry:
        """Wire every observable into the ``/v1/metrics`` registry.

        Stats-dict counters are exposed through scrape-time callables so
        there is exactly one source of truth shared with ``healthz``;
        only signals with no other home (per-route latency, rejection
        reasons) are registry-owned.
        """
        reg = MetricsRegistry()
        reg.gauge(
            "repro_uptime_seconds",
            "Seconds since the service started.",
            lambda: time.time() - self._started_at,
        )
        reg.gauge(
            "repro_queue_depth",
            "Partition jobs accepted but not yet running.",
            self.jobs.queue_depth,
        )
        reg.gauge(
            "repro_store_bytes",
            "Total bytes of digest-keyed chunk stores on disk.",
            self.store_cache.total_bytes,
        )
        reg.gauge(
            "repro_stores", "Chunk stores currently on disk.",
            self.store_cache.known,
        )
        reg.gauge(
            "repro_store_evictions_total",
            "Chunk stores evicted by the byte budget.",
            lambda: self.store_cache.evictions,
            kind="counter",
        )
        reg.gauge(
            "repro_job_workers_started_total",
            "Job worker processes the process pool has forked.",
            lambda: self.jobs.workers_started,
            kind="counter",
        )
        for key, help_text in (
            ("uploads", "Upload bodies received."),
            ("text_ingests", "Uploads parsed by the streaming text readers."),
            ("store_replays", "Partition runs served by mmap store replay."),
            ("kernel_python_runs", "Partition runs served by the python kernel."),
            ("kernel_njit_runs", "Partition runs served by the njit kernel."),
            ("rejected_requests", "Requests refused by admission control."),
            ("jobs_crashed", "Partition jobs whose pool worker died mid-job."),
        ):
            reg.gauge(
                f"repro_{key}_total",
                help_text,
                lambda k=key: self._stat(k),
                kind="counter",
            )
        reg.gauge(
            "repro_pass_seconds_total",
            "Seconds spent inside pass_kernel across finished runs.",
            lambda: self._stat("pass_seconds"),
            kind="counter",
        )
        self.request_latency = reg.histogram(
            "repro_request_seconds",
            "Request latency by route, in seconds.",
        )
        self.rejections = reg.counter(
            "repro_rejections_total",
            "Admission refusals by reason (unauthorized/forbidden/"
            "rate_limited/queue_full).",
        )
        return reg

    def _stat(self, key: str):
        with self._stats_lock:
            return self.stats[key]

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, headers, *, public: bool = False) -> None:
        """Gate one request; raises 401/403/429 and counts the refusal."""
        try:
            self.admission.admit(headers, public=public)
        except ServiceError as exc:
            self._bump("rejected_requests")
            self.rejections.inc(reason=exc.code)
            raise

    def observe_request(self, method: str, route: str, seconds: float) -> None:
        """Record one served request in the per-route latency histogram."""
        self.request_latency.observe(seconds, method=method, path=route)

    def close(self) -> None:
        """Stop the worker pool and drop a service-owned cache directory."""
        self.jobs.close()
        if self._own_cache is not None:
            shutil.rmtree(self._own_cache, ignore_errors=True)

    # ------------------------------------------------------------------
    # store plumbing
    # ------------------------------------------------------------------
    def store_dir(self, digest: str) -> Path:
        """The chunk-store directory for a source digest."""
        return self.store_cache.path_for(digest)

    def _bump(self, key: str) -> None:
        with self._stats_lock:
            self.stats[key] += 1

    @staticmethod
    def _store_info(stream, digest: str, **extra) -> dict:
        """The StoreInfo document (spec schema) for any chunk stream.

        The single place the shape is spelled out: upload-sourced and
        store-sourced ``source`` documents must never diverge.
        """
        info = {
            "digest": digest,
            "name": stream.name,
            "num_vertices": stream.num_vertices,
            "num_edges": stream.num_edges,
            "num_pins": stream.num_pins,
            "num_chunks": stream.num_chunks,
            "chunk_size": stream.chunk_size,
            "pin_budget": stream.pin_budget,
        }
        info.update(extra)
        return info

    def _store_summary(self, digest: str) -> dict:
        """StoreInfo fields read from an existing store's manifest.

        An evicted digest gets ``409 store_evicted`` (the bytes were
        here; re-upload restores them under the same digest) — a plain
        404 means the digest was never ingested at all.
        """
        try:
            stream = open_store(self.store_dir(digest))
        except ChunkStoreError as exc:
            if self.store_cache.was_evicted(digest):
                raise StoreEvicted(
                    f"store {digest!r} was evicted by the byte budget; "
                    "re-upload the same bytes to restore it"
                ) from exc
            raise NotFound(f"no chunk store for digest {digest!r}") from exc
        self.store_cache.touch(digest)
        with stream:
            return self._store_info(stream, digest)

    def _publish_store(self, stream, digest: str) -> bool:
        """Persist ``stream`` under its digest key; ``False`` if present.

        Written to a hidden sibling then renamed into place, so
        concurrent identical uploads race safely: one rename wins, the
        loser discards its copy, readers only ever see complete stores.
        """
        store_dir = self.store_dir(digest)
        if store_dir.exists():
            self.store_cache.touch(digest)
            return False
        tmp = self.stores_dir / f".ingest-{uuid.uuid4().hex}"
        write_store(stream, tmp, digest=digest)
        try:
            tmp.rename(store_dir)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            self.store_cache.touch(digest)
            return False
        self.store_cache.added(digest)
        return True

    def ingest_upload(self, params: dict, body) -> dict:
        """Stream ``body`` through a text reader into the chunk store.

        The blocks are hashed as they are parsed — one pass, bounded
        resident pins, no temp copy of the text — and the parsed stream
        is published under its digest.  Returns the StoreInfo dict
        (``created`` says whether a new store was written).

        Raises
        ------
        BadRequest
            missing body or ill-formed parameters.
        InvalidUpload
            the parser rejected the bytes (message passed through).
        """
        if body is None:
            raise BadRequest(
                "an upload body is required (or reference a previous "
                "upload with store=<digest>)"
            )
        kwargs = self._args(
            params, "format", "chunk_size", "buffer_pins", "pin_budget", "name"
        )
        fmt = kwargs.pop("format")
        if fmt == "mtx":
            kwargs.update(self._args(params, "model"))
        elif "model" in params:
            raise BadRequest("model only applies to format=mtx uploads")

        hasher = hashlib.sha256()
        received = 0

        def hashed_blocks():
            nonlocal received
            for block in body:
                if block:
                    hasher.update(block)
                    received += len(block)
                    yield block

        self._bump("uploads")
        try:
            stream = UPLOAD_FORMATS[fmt](hashed_blocks(), **kwargs)
        except HypergraphFormatError as exc:
            raise InvalidUpload(str(exc)) from exc
        self._bump("text_ingests")
        with stream:
            digest = f"sha256:{hasher.hexdigest()}"
            created = self._publish_store(stream, digest)
            return self._store_info(
                stream,
                digest,
                created=created,
                upload_bytes=received,
                peak_resident_pins=int(stream.peak_resident_pins),
            )

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def create_store(self, params: dict, body) -> "tuple[int, dict]":
        """``POST /v1/stores`` — upload straight into the chunk store."""
        info = self.ingest_upload(params, body)
        return (201 if info["created"] else 200), info

    def create_partition(self, params: dict, body) -> "tuple[int, dict]":
        """``POST /v1/partitions`` — upload (or store reference) to job.

        The body streams through ingest into the digest-keyed store;
        the partition itself always replays the store.  With ``sync=1``
        the job runs on the request thread and the finished record is
        returned with status 200; otherwise the job is queued and a 202
        points the client at the poll URL.
        """
        spec = self._partition_spec(params)
        if spec["store"] is not None:
            digest = spec["store"]
            source = self._store_summary(digest)  # NotFound if absent
            source["created"] = False
            source["via"] = "store"
        else:
            source = self.ingest_upload(params, body)
            source["via"] = "upload"
            digest = source["digest"]
        if spec["k"] > source["num_vertices"]:
            raise BadRequest(
                f"cannot split {source['num_vertices']} vertices into "
                f"{spec['k']} parts"
            )
        request_doc = {  # the validated request, minus its wire details
            key: value
            for key, value in spec.items()
            if key not in ("gamma", "shard_payload", "shard_by", "sync", "store")
        }
        request_doc["source"] = source
        job = self.jobs.create(request_doc, digest=digest)
        fn = self._job_fn(digest, spec)
        # Pin the store across the job's whole life: the replay may run
        # in a forked worker, and the LRU evictor must not tear the
        # store out from under an open mmap.  The pin is released by
        # _job_complete, which the pool fires in the parent process.
        self.store_cache.pin(digest)
        self.store_cache.touch(digest)
        if spec["sync"]:
            self.jobs.run(job, fn, on_complete=self._job_complete)
            return 200, self._job_doc(job)
        if not self.jobs.try_submit(job, fn, on_complete=self._job_complete):
            self.store_cache.unpin(digest)
            depth = self.jobs.queue_depth()
            self._bump("rejected_requests")
            self.rejections.inc(reason="queue_full")
            raise TooManyRequests(
                f"job queue is full ({depth} queued, bound "
                f"{self.jobs.max_queue_depth}); retry later or use "
                "sync=1 to run on the request thread",
                retry_after=max(1, depth // max(1, self.jobs.workers)),
                code="queue_full",
            )
        return 202, self._job_doc(job)

    def _job_complete(self, job: Job) -> None:
        """Parent-side accounting after a job reaches a terminal state.

        With the process pool, everything the job function touches is a
        forked copy — stats mutated in the child are lost — so replay
        and kernel accounting read the job record here, in the parent.
        """
        if job.digest is not None:
            self.store_cache.unpin(job.digest)
        with self._stats_lock:
            if job.error is not None and job.error.get("code") == POOL_CLOSED:
                return
            self.stats["store_replays"] += 1
            if job.status != "done" or not isinstance(job.metrics, dict):
                if job.error is not None and (
                    job.error.get("code") == WORKER_CRASHED
                ):
                    self.stats["jobs_crashed"] += 1
                return
            mode = job.metrics.get("kernel_mode", "python")
            self.stats["pass_seconds"] += float(
                job.metrics.get("pass_seconds", 0.0)
            )
            self.stats[f"kernel_{mode}_runs"] = (
                self.stats.get(f"kernel_{mode}_runs", 0) + 1
            )

    @staticmethod
    def _job_doc(job: Job) -> dict:
        """The ``Job`` document, its links read from the route table."""
        links = {"self": "get_partition", "assignment": "get_assignment"}
        return {**job.to_json(), "links": {
            rel: _BY_HANDLER[handler].template.format(job_id=job.id)
            for rel, handler in links.items()
        }}

    def get_partition(self, job_id: str) -> "tuple[int, dict]":
        """``GET /v1/partitions/<id>`` — poll a job's status/metrics."""
        job = self.jobs.get(job_id)
        if job is None:
            raise NotFound(f"no partition job {job_id!r}")
        return 200, self._job_doc(job)

    def get_assignment(self, job_id: str):
        """``GET /v1/partitions/<id>/assignment`` — the vector, streamed.

        Returns ``(200, "text/plain", block_iterator)``; line ``v``
        holds the partition id of vertex ``v``.  The iterator yields
        bounded slices so the HTTP layer never builds the full body.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise NotFound(f"no partition job {job_id!r}")
        if job.status != "done":
            raise Conflict(
                f"job {job_id} is {job.status}; the assignment exists "
                "only once status is 'done'"
            )
        assignment = job.assignment

        def blocks():
            for lo in range(0, assignment.size, _ASSIGNMENT_SLICE):
                part = assignment[lo : lo + _ASSIGNMENT_SLICE]
                yield ("\n".join(map(str, part)) + "\n").encode()

        return 200, "text/plain; charset=utf-8", blocks()

    def healthz(self) -> "tuple[int, dict]":
        """``GET /v1/healthz`` — liveness plus observable counters."""
        stores = sum(
            1 for p in self.stores_dir.glob("*.chunkstore") if p.is_dir()
        )
        with self._stats_lock:
            stats = dict(self.stats)
        stats["pass_seconds"] = round(stats["pass_seconds"], 6)
        stats["evictions"] = self.store_cache.evictions
        stats["job_workers_started"] = self.jobs.workers_started
        return 200, {
            "status": "ok",
            "version": SERVICE_VERSION,
            "uptime_s": time.time() - self._started_at,
            "workers": self.jobs.workers,
            "pool": self.jobs.pool,
            "queue_depth": self.jobs.queue_depth(),
            "auth": self.admission.enabled,
            "jobs": self.jobs.counts(),
            "stores": stores,
            "store_bytes": self.store_cache.total_bytes(),
            "stats": stats,
        }

    def metrics(self):
        """``GET /v1/metrics`` — the registry in Prometheus text format.

        Returns ``(200, content_type, block_iterator)`` like the other
        streamed route; the body is the standard text exposition every
        scraper parses.
        """
        body = self.metrics_registry.render().encode()
        return 200, "text/plain; version=0.0.4; charset=utf-8", iter((body,))

    def openapi(self) -> "tuple[int, dict]":
        """``GET /v1/openapi.json`` — the API contract."""
        return 200, openapi_spec()

    # ------------------------------------------------------------------
    # partition spec + job body
    # ------------------------------------------------------------------
    def _partition_spec(self, params: dict) -> dict:
        """Validate the partitioning knobs (400 on any bad value).

        The knobs go through :func:`partition_spec`, which reads the
        live family registry, so a family registered at runtime is
        immediately servable; ``k``, ``seed``, ``cost``, ``sync`` and
        ``store`` are the service's own.
        """
        try:
            spec = partition_spec(params)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        spec.update(self._args(params, "k", "seed", "cost", "sync", "store"))
        if spec["store"] is not None:
            spec["store"] = _normalise_digest(spec["store"])
        return spec

    def _job_fn(self, digest: str, spec: dict):
        """The deferred partition body: :func:`_run_job` bound
        to the digest's store directory and the validated spec.

        A :func:`functools.partial` of a module-level function, so the
        process pool can pickle it to a worker: both arguments are a
        ``Path`` and a JSON-like dict.  The body is *side-effect-free on
        the service*: with the process pool it runs in a worker process
        that serves many jobs, so all stats accounting happens in
        :meth:`_job_complete` (parent side) from the returned metrics.
        """
        return functools.partial(_run_job, self.store_dir(digest), spec)


def _run_job(store_dir: Path, spec: dict):
    """Replay the chunk store at ``store_dir``, partition it per ``spec``
    and return ``(assignment, k, metrics)``.

    Every run opens its own :class:`ChunkStoreStream` (mmap replay — the
    text parser never runs here), so concurrent jobs over one upload
    share pages, not Python state, and a worker that serves many jobs
    carries nothing from one to the next: the partitioner, the cost
    matrix and the stream are built afresh from the arguments, and the
    stream is closed before the result is returned.
    """
    with open_store(store_dir) as stream:
        partitioner = build_partitioner(spec, stream.num_vertices)
        result = partitioner.partition_stream(
            stream,
            spec["k"],
            cost_matrix=_cost_matrix(spec["cost"], spec["k"], spec["seed"]),
            seed=spec["seed"],
        )
        metrics = json_safe(result.metadata)
        metrics["algorithm"] = result.algorithm
        metrics["num_vertices"] = stream.num_vertices
        metrics["num_edges"] = stream.num_edges
        metrics["num_pins"] = stream.num_pins
        metrics["peak_resident_pins"] = int(stream.peak_resident_pins)
    return result.assignment, spec["k"], metrics
