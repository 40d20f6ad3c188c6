"""The service's API contract: a handwritten OpenAPI 3.0 document.

This dict is the **single source of truth** for the HTTP surface:
``GET /v1/openapi.json`` serves it verbatim, ``docs/service.md`` is
diffed against it by ``tests/test_docs.py`` (every route, method,
status code and schema field in the doc must match the spec, and vice
versa), and the service tests assert the routes it declares are the
routes the app dispatches.

It is deliberately *handwritten* — no framework introspection — so the
contract changes only when a human edits this file, and a drifted
implementation fails tests instead of silently republishing itself.
The one exception is the partition knobs: their parameters are
generated from :data:`repro.partitioning.families.PARTITION_KNOBS`, the
same table the service validates ``POST /v1/partitions`` against.
"""

from __future__ import annotations

import copy

from repro.partitioning.families import PARTITION_KNOBS, family_names

__all__ = ["openapi_spec", "OPENAPI_VERSION", "SERVICE_VERSION"]

OPENAPI_VERSION = "3.0.3"

#: The service's own version: reported in the spec's ``info.version``
#: and by ``GET /v1/healthz``.  Single-sourced here; a test pins it to
#: the ``version=`` in setup.py so a one-sided bump fails CI.
SERVICE_VERSION = "0.8.0"

_ERROR_SCHEMA = {
    "type": "object",
    "description": "Error envelope returned by every non-2xx response.",
    "properties": {
        "error": {
            "type": "object",
            "properties": {
                "code": {
                    "type": "string",
                    "description": "stable machine-readable error code",
                },
                "message": {
                    "type": "string",
                    "description": "human-readable diagnostic (parser "
                    "messages pass through verbatim)",
                },
            },
            "required": ["code", "message"],
        }
    },
    "required": ["error"],
}

_STORE_INFO_SCHEMA = {
    "type": "object",
    "description": "A persisted, digest-keyed binary chunk store.",
    "properties": {
        "digest": {
            "type": "string",
            "description": "sha256:<hex> over the uploaded source bytes; "
            "the reuse key for store=<digest> re-partitions",
        },
        "created": {
            "type": "boolean",
            "description": "true when this request wrote a new store, "
            "false when the digest was already present",
        },
        "name": {"type": "string", "description": "stream/instance name"},
        "num_vertices": {"type": "integer"},
        "num_edges": {"type": "integer"},
        "num_pins": {"type": "integer"},
        "num_chunks": {"type": "integer"},
        "chunk_size": {"type": "integer"},
        "pin_budget": {"type": "integer", "nullable": True},
        "upload_bytes": {
            "type": "integer",
            "description": "raw bytes received (absent on store= reuse)",
        },
        "peak_resident_pins": {
            "type": "integer",
            "description": "ingest high-water mark of pins resident in "
            "memory — the out-of-core bound the service guarantees",
        },
    },
    "required": ["digest", "num_vertices", "num_edges", "num_pins"],
}

_JOB_SCHEMA = {
    "type": "object",
    "description": "A partition job's lifecycle record.",
    "properties": {
        "id": {"type": "string", "description": "opaque job identifier"},
        "status": {
            "type": "string",
            "enum": ["queued", "running", "done", "failed"],
        },
        "request": {
            "type": "object",
            "description": "validated request echo: k, partitioner, "
            "scorer, kernel, workers, buffer_fraction, buffer_size, "
            "max_tracked_edges, max_iterations, seed, cost, and the "
            "source StoreInfo",
        },
        "digest": {
            "type": "string",
            "description": "chunk-store key of the job's input",
        },
        "created_at": {"type": "number"},
        "started_at": {"type": "number", "nullable": True},
        "finished_at": {"type": "number", "nullable": True},
        "error": {
            "type": "object",
            "nullable": True,
            "description": "{code, message} when status is failed",
        },
        "metrics": {
            "type": "object",
            "nullable": True,
            "description": "JSON-safe partitioner metadata when done: "
            "algorithm, wall_time_s, imbalance, monitored_pc_cost, "
            "peak_tracked_edges, peak_resident_pins, num_vertices, "
            "num_edges, num_pins, ...",
        },
        "links": {
            "type": "object",
            "description": "self + assignment URLs",
            "properties": {
                "self": {"type": "string"},
                "assignment": {"type": "string"},
            },
        },
    },
    "required": ["id", "status", "request", "links"],
}

_HEALTH_SCHEMA = {
    "type": "object",
    "description": "Service liveness and observable counters.",
    "properties": {
        "status": {"type": "string", "enum": ["ok"]},
        "version": {"type": "string"},
        "uptime_s": {"type": "number"},
        "workers": {"type": "integer"},
        "pool": {
            "type": "string",
            "enum": ["process", "thread"],
            "description": "how partition jobs execute: one forked child "
            "per job (process) or inline on the worker thread (thread)",
        },
        "queue_depth": {
            "type": "integer",
            "description": "jobs accepted but not yet running — the "
            "backpressure signal behind 429 queue_full",
        },
        "auth": {
            "type": "boolean",
            "description": "true when API keys are configured (requests "
            "to non-public routes need X-API-Key)",
        },
        "jobs": {
            "type": "object",
            "description": "job count per status (queued/running/done/failed)",
        },
        "stores": {
            "type": "integer",
            "description": "chunk stores currently in the cache",
        },
        "store_bytes": {
            "type": "integer",
            "description": "bytes of chunk stores on disk, the quantity "
            "the LRU byte budget bounds",
        },
        "stats": {
            "type": "object",
            "description": "uploads, text_ingests, store_replays counters "
            "— store_replays without text_ingests is the digest-reuse "
            "hit path — plus pass-kernel observability: pass_seconds "
            "(cumulative seconds inside pass_kernel across finished "
            "runs) and kernel_python_runs / kernel_njit_runs — plus "
            "operational counters: rejected_requests (admission "
            "refusals), evictions (stores reclaimed by the byte budget) "
            "and jobs_crashed (pool workers that died mid-job)",
        },
    },
    "required": ["status", "jobs", "stats"],
}


def _q(name, schema, description, required=False):
    param = {
        "name": name,
        "in": "query",
        "schema": schema,
        "description": description,
    }
    if required:
        param["required"] = True
    return param


_UPLOAD_PARAMETERS = [
    _q(
        "format",
        {"type": "string", "enum": ["hmetis", "mtx"], "default": "hmetis"},
        "upload format: hMetis (.hgr) or MatrixMarket coordinate (.mtx)",
    ),
    _q(
        "model",
        {"type": "string", "enum": ["row-net", "column-net"], "default": "row-net"},
        "hypergraph model for format=mtx (rejected otherwise)",
    ),
    _q(
        "chunk_size",
        {"type": "integer", "default": 1024, "minimum": 1},
        "vertices per streamed chunk (the ingest/replay granularity)",
    ),
    _q(
        "buffer_pins",
        {"type": "integer", "default": 65536, "minimum": 1},
        "ingest spill-buffer capacity in pins — the resident-memory knob",
    ),
    _q(
        "pin_budget",
        {"type": "integer", "minimum": 1},
        "cut chunk boundaries by resident pins instead of a fixed "
        "vertex count (hub-dominated graphs)",
    ),
    _q("name", {"type": "string"}, "stream name recorded in the store"),
]


def _knob_parameter(knob):
    """The OpenAPI query parameter for one :data:`PARTITION_KNOBS` entry."""
    if knob.kind == "bool":
        schema = {"type": "string", "enum": ["1", "0"]}
    elif knob.kind == "choice":
        schema = {"type": "string", "enum": list(knob.options())}
    else:
        schema = {"type": "integer" if knob.kind == "int" else "number"}
    if knob.default is not None:
        schema["default"] = (
            str(int(knob.default)) if knob.kind == "bool" else knob.default
        )
    if knob.minimum is not None:
        schema["minimum"] = knob.minimum
    description = knob.description.format(choices=", ".join(knob.options()))
    return _q(knob.name, schema, description)


_PARTITION_PARAMETERS = [
    _q(
        "k",
        {"type": "integer", "minimum": 1},
        "number of partitions",
        required=True,
    ),
    *(_knob_parameter(knob) for knob in PARTITION_KNOBS.values()),
    _q("seed", {"type": "integer", "default": 20190805}, "deterministic seed"),
    _q(
        "cost",
        {"type": "string", "enum": ["uniform", "archer"], "default": "uniform"},
        "communication cost matrix: uniform or an ARCHER-like profiled "
        "machine (architecture-aware)",
    ),
    _q(
        "sync",
        {"type": "string", "enum": ["1", "0"], "default": "0"},
        "run on the request thread and return the finished job (small "
        "graphs); otherwise the job is queued",
    ),
    _q(
        "store",
        {"type": "string"},
        "partition a previous upload by digest instead of sending a "
        "body — replays the mmap chunk store, no text parse",
    ),
] + _UPLOAD_PARAMETERS

_UPLOAD_BODY = {
    "description": "The hypergraph text bytes (hMetis or MatrixMarket "
    "coordinate), raw in the request body; Content-Length or chunked "
    "transfer encoding required.  The service parses the body as it "
    "arrives — the file is never materialised.",
    "required": False,
    "content": {
        "text/plain": {"schema": {"type": "string", "format": "binary"}},
        "application/octet-stream": {
            "schema": {"type": "string", "format": "binary"}
        },
    },
}


def _error_response(description):
    return {
        "description": description,
        "content": {
            "application/json": {
                "schema": {"$ref": "#/components/schemas/Error"}
            }
        },
    }


def _json_response(description, ref):
    return {
        "description": description,
        "content": {
            "application/json": {"schema": {"$ref": ref}}
        },
    }


def _auth_responses():
    """The admission-control responses shared by every protected route.

    Only reported when the service is configured with API keys; an open
    service never returns them.
    """
    return {
        "401": _error_response(
            "no API key presented (code unauthorized); send X-API-Key "
            "or Authorization: Bearer"
        ),
        "403": _error_response("unknown API key (code forbidden)"),
        "429": _error_response(
            "over the per-key rate limit (code rate_limited); the "
            "Retry-After header says when to retry"
        ),
    }


_SPEC = {
    "openapi": OPENAPI_VERSION,
    "info": {
        "title": "HyperPRAW streaming partition service",
        "version": SERVICE_VERSION,
        "description": (
            "Upload a hypergraph (hMetis or MatrixMarket), stream it "
            "through the out-of-core readers into an architecture-aware "
            "streaming partitioner, and poll for the assignment.  "
            "Uploads land in a digest-keyed persistent chunk store, so "
            "re-partitioning the same bytes with different parameters "
            "replays memory-mapped chunks instead of re-parsing text."
        ),
    },
    "paths": {
        "/v1/partitions": {
            "post": {
                "operationId": "createPartition",
                "summary": "Upload a hypergraph (or reference a stored "
                "digest) and start a partition job",
                "parameters": copy.deepcopy(_PARTITION_PARAMETERS),
                "requestBody": copy.deepcopy(_UPLOAD_BODY),
                "responses": {
                    "200": _json_response(
                        "sync=1: the finished job record (status done "
                        "or failed)",
                        "#/components/schemas/Job",
                    ),
                    "202": _json_response(
                        "job accepted and queued; poll links.self",
                        "#/components/schemas/Job",
                    ),
                    "400": _error_response(
                        "bad parameter or malformed upload "
                        "(codes bad_request / invalid_upload)"
                    ),
                    "404": _error_response("store= digest has no chunk store"),
                    "409": _error_response(
                        "store= digest was evicted by the byte budget "
                        "(code store_evicted); re-upload the same bytes "
                        "to restore it"
                    ),
                    "411": _error_response(
                        "body without Content-Length or chunked framing"
                    ),
                    "413": _error_response(
                        "body exceeds the configured max_body_bytes cap"
                    ),
                    **_auth_responses(),
                    "429": _error_response(
                        "over the per-key rate limit (code rate_limited) "
                        "or the job queue is at max_queue_depth (code "
                        "queue_full); the Retry-After header says when "
                        "to retry"
                    ),
                },
            }
        },
        "/v1/partitions/{job_id}": {
            "get": {
                "operationId": "getPartition",
                "summary": "Poll a partition job's status and metrics",
                "parameters": [
                    {
                        "name": "job_id",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                        "description": "id returned by POST /v1/partitions",
                    }
                ],
                "responses": {
                    "200": _json_response(
                        "the job record", "#/components/schemas/Job"
                    ),
                    "404": _error_response("unknown job id"),
                    **_auth_responses(),
                },
            }
        },
        "/v1/partitions/{job_id}/assignment": {
            "get": {
                "operationId": "getAssignment",
                "summary": "Stream the finished assignment, one partition "
                "id per line (line v = vertex v)",
                "parameters": [
                    {
                        "name": "job_id",
                        "in": "path",
                        "required": True,
                        "schema": {"type": "string"},
                        "description": "id of a job with status done",
                    }
                ],
                "responses": {
                    "200": {
                        "description": "the assignment vector as "
                        "newline-separated integers, streamed",
                        "content": {
                            "text/plain": {"schema": {"type": "string"}}
                        },
                    },
                    "404": _error_response("unknown job id"),
                    "409": _error_response(
                        "job exists but is not done (queued, running or "
                        "failed)"
                    ),
                    **_auth_responses(),
                },
            }
        },
        "/v1/stores": {
            "post": {
                "operationId": "createStore",
                "summary": "Upload a hypergraph into the digest-keyed "
                "chunk store without partitioning it",
                "parameters": copy.deepcopy(_UPLOAD_PARAMETERS),
                "requestBody": copy.deepcopy(_UPLOAD_BODY),
                "responses": {
                    "201": _json_response(
                        "a new chunk store was written",
                        "#/components/schemas/StoreInfo",
                    ),
                    "200": _json_response(
                        "identical bytes were already stored (created: "
                        "false)",
                        "#/components/schemas/StoreInfo",
                    ),
                    "400": _error_response(
                        "bad parameter or malformed upload"
                    ),
                    "411": _error_response(
                        "body without Content-Length or chunked framing"
                    ),
                    "413": _error_response(
                        "body exceeds the configured max_body_bytes cap"
                    ),
                    **_auth_responses(),
                },
            }
        },
        "/v1/healthz": {
            "get": {
                "operationId": "healthz",
                "summary": "Liveness, job counts and ingest/replay counters",
                "responses": {
                    "200": _json_response(
                        "service is up", "#/components/schemas/Health"
                    )
                },
            }
        },
        "/v1/metrics": {
            "get": {
                "operationId": "metrics",
                "summary": "Operational metrics in Prometheus text format",
                "responses": {
                    "200": {
                        "description": "the metrics exposition: healthz "
                        "counters plus queue depth, store bytes, "
                        "evictions, admission rejections and per-route "
                        "request latency histograms "
                        "(repro_request_seconds)",
                        "content": {
                            "text/plain": {"schema": {"type": "string"}}
                        },
                    }
                },
            }
        },
        "/v1/openapi.json": {
            "get": {
                "operationId": "openapi",
                "summary": "This document",
                "responses": {
                    "200": {
                        "description": "the OpenAPI contract",
                        "content": {
                            "application/json": {"schema": {"type": "object"}}
                        },
                    }
                },
            }
        },
    },
    "components": {
        "schemas": {
            "Error": _ERROR_SCHEMA,
            "StoreInfo": _STORE_INFO_SCHEMA,
            "Job": _JOB_SCHEMA,
            "Health": _HEALTH_SCHEMA,
        }
    },
}


def openapi_spec() -> dict:
    """A deep copy of the service's OpenAPI document.

    Returns
    -------
    dict
        the full OpenAPI 3.0 spec; a fresh copy each call, so callers
        (including the route handler serialising it) can never mutate
        the contract.  The ``partitioner`` enum is re-read from the
        live :data:`repro.partitioning.families.PARTITIONERS` registry
        on every call, so a family registered at runtime shows up in
        the served contract immediately.
    """
    spec = copy.deepcopy(_SPEC)
    for param in spec["paths"]["/v1/partitions"]["post"]["parameters"]:
        if param["name"] == "partitioner":
            param["schema"]["enum"] = list(family_names())
    return spec
