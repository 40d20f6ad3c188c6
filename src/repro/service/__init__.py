"""Streaming partition service: the library as HTTP traffic.

HyperPRAW's premise is that partitioning is a *preprocessing service*
for parallel applications — a hypergraph comes in, an architecture-aware
assignment comes out.  This package is that deployment shape (ROADMAP
item (b); the standalone-component framing of HYPE, arXiv:1810.11319,
and the limited-memory streaming of arXiv:2103.05394), built entirely on
the stdlib (``http.server`` + threads) so the repo's no-new-dependencies
rule holds:

* :mod:`~repro.service.app` — :class:`PartitionService`, the threading
  HTTP server; request bodies are framed (``Content-Length`` or
  chunked) into byte-block iterators and fed *directly* into the
  streaming readers, so an upload is parsed as it arrives and is never
  materialised — the service inherits the readers' O(buffer + chunk)
  resident-pin bound.
* :mod:`~repro.service.handlers` — the one declaration of the HTTP
  contract, two tables: :data:`~repro.service.handlers.ROUTES` (method,
  path template, handler, public or not, body or not, accepted query
  parameters) and the query :class:`~repro.partitioning.families.Knob`
  tables beside the partition knobs.  The router, admission, the
  ``route`` metric label, validation and the OpenAPI document are all
  read from them.  :class:`ServiceHandlers` is the route
  logic: uploads land in a **digest-keyed persistent chunk store**
  (:mod:`repro.streaming.chunkstore`), every partition run replays the
  memory-mapped store, and ``store=<digest>`` re-partitions skip text
  parsing entirely (observable via the ``text_ingests`` /
  ``store_replays`` counters).
* :mod:`~repro.service.jobs` — :class:`JobStore`: async partition jobs
  polled by id, executed by :class:`ProcessJobPool` (long-lived forked
  worker processes, reused across jobs — N concurrent jobs use N cores,
  a dead worker marks its job ``failed`` instead of hanging the poller)
  or :class:`ThreadJobPool` (inline, the fallback where ``fork`` is
  unavailable); ``sync=1`` runs on the request thread through the same
  pool.
* :mod:`~repro.service.admission` — API-key auth (``REPRO_API_KEYS`` /
  ``--api-key-file``) and per-key token-bucket rate limiting; with the
  queue-depth backpressure in :class:`JobStore` these are the 401 / 403
  / 429 admission layer.
* :mod:`~repro.service.storecache` — byte-budgeted LRU eviction for the
  store directory, pin-protected against in-flight replays, with a
  ``409 store_evicted`` re-upload path.
* :mod:`~repro.service.metrics` — the Prometheus-text registry behind
  ``GET /v1/metrics`` (queue depth, per-route latency histograms,
  evictions, rejections, kernel runs).
* :mod:`~repro.service.openapi` — the OpenAPI document served at
  ``/v1/openapi.json``, generated from the two tables plus its prose
  (summaries, responses, schemas) and diffed against
  ``docs/service.md`` by the test suite.
* :mod:`~repro.service.errors` — the error taxonomy and JSON envelope.

Routes: ``POST /v1/partitions``, ``GET /v1/partitions/<id>``,
``GET /v1/partitions/<id>/assignment``, ``POST /v1/stores``,
``GET /v1/healthz``, ``GET /v1/metrics``, ``GET /v1/openapi.json`` —
full reference in ``docs/service.md``; quickstart in
``examples/service_quickstart.py``; CLI entry ``hyperpraw-repro serve``.
"""

from repro.service.admission import AdmissionControl, TokenBucket
from repro.service.app import PartitionService, make_server, serve
from repro.service.errors import (
    BadRequest,
    Conflict,
    Forbidden,
    InvalidUpload,
    LengthRequired,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServiceError,
    StoreEvicted,
    TooManyRequests,
    Unauthorized,
    error_body,
)
from repro.service.handlers import (
    PARTITIONERS,
    ServiceConfig,
    ServiceHandlers,
    UPLOAD_FORMATS,
    json_safe,
)
from repro.service.jobs import (
    JOB_POOLS,
    JOB_STATUSES,
    Job,
    JobStore,
    ProcessJobPool,
    ThreadJobPool,
)
from repro.service.metrics import MetricsRegistry
from repro.service.openapi import openapi_spec
from repro.service.storecache import StoreCache

__all__ = [
    "PartitionService",
    "make_server",
    "serve",
    "ServiceConfig",
    "ServiceHandlers",
    "PARTITIONERS",
    "UPLOAD_FORMATS",
    "json_safe",
    "Job",
    "JobStore",
    "ThreadJobPool",
    "ProcessJobPool",
    "JOB_STATUSES",
    "JOB_POOLS",
    "AdmissionControl",
    "TokenBucket",
    "StoreCache",
    "MetricsRegistry",
    "openapi_spec",
    "ServiceError",
    "BadRequest",
    "InvalidUpload",
    "NotFound",
    "MethodNotAllowed",
    "LengthRequired",
    "PayloadTooLarge",
    "Conflict",
    "StoreEvicted",
    "Unauthorized",
    "Forbidden",
    "TooManyRequests",
    "error_body",
]
