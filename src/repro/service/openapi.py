"""The service's API contract: the OpenAPI 3.0 document.

``GET /v1/openapi.json`` serves it verbatim, ``docs/service.md`` is
diffed against it by ``tests/test_docs.py`` (every route, method,
status code and schema field in the doc must match the spec, and vice
versa), and the service tests assert the routes it declares are the
routes the app dispatches.

The wire contract is not written here: every path, method, query and
path parameter, request body and operation id is generated from
:data:`repro.service.handlers.ROUTES` and the :class:`Knob` tables it
references — the same tables the service routes, admits and validates
with.  This module keeps only the prose, keyed by route handler: the
summaries, the responses and the schemas.
"""

from __future__ import annotations

import copy

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
            "description": "how partition jobs execute: on long-lived "
            "forked job workers, each reused for job after job with up to "
            "`workers` of them kept idle (process; stats."
            "job_workers_started counts the forks), or inline on the "
            "worker thread (thread)",
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


def _query_parameter(knob):
    """The OpenAPI query parameter for one :class:`Knob`."""
    if knob.kind == "bool":
        schema = {"type": "string", "enum": ["1", "0"]}
    elif knob.kind == "choice":
        schema = {"type": "string", "enum": list(knob.options())}
    else:
        types = {"int": "integer", "float": "number", "str": "string"}
        schema = {"type": types[knob.kind]}
    if knob.default is not None:
        schema["default"] = (
            str(int(knob.default)) if knob.kind == "bool" else knob.default
        )
    if knob.minimum is not None:
        schema["minimum"] = knob.minimum
    param = {
        "name": knob.name,
        "in": "query",
        "schema": schema,
        "description": knob.description.format(
            choices=", ".join(knob.options())
        ),
    }
    if knob.required:
        param["required"] = True
    return param


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


def _json_response(description, ref):
    return {
        "description": description,
        "content": {"application/json": {"schema": {"$ref": ref}}},
    }


def _error_response(description):
    return _json_response(description, "#/components/schemas/Error")


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


#: The prose of each route, keyed by its handler: the summary, any
#: path parameter's description, and the responses.
_OPERATIONS = {
    "create_partition": {
        "summary": "Upload a hypergraph (or reference a stored digest) and "
        "start a partition job",
        "responses": {
            "200": _json_response(
                "sync=1: the finished job record (status done or failed)",
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
                "store= digest was evicted by the byte budget (code "
                "store_evicted); re-upload the same bytes to restore it"
            ),
            "411": _error_response(
                "body without Content-Length or chunked framing"
            ),
            "413": _error_response(
                "body exceeds the configured max_body_bytes cap"
            ),
            **_auth_responses(),
            "429": _error_response(
                "over the per-key rate limit (code rate_limited) or the job "
                "queue is at max_queue_depth (code queue_full); the "
                "Retry-After header says when to retry"
            ),
        },
    },
    "get_partition": {
        "summary": "Poll a partition job's status and metrics",
        "job_id": "id returned by POST /v1/partitions",
        "responses": {
            "200": _json_response("the job record", "#/components/schemas/Job"),
            "404": _error_response("unknown job id"),
            **_auth_responses(),
        },
    },
    "get_assignment": {
        "summary": "Stream the finished assignment, one partition id per "
        "line (line v = vertex v)",
        "job_id": "id of a job with status done",
        "responses": {
            "200": {
                "description": "the assignment vector as newline-separated "
                "integers, streamed",
                "content": {"text/plain": {"schema": {"type": "string"}}},
            },
            "404": _error_response("unknown job id"),
            "409": _error_response(
                "job exists but is not done (queued, running or failed)"
            ),
            **_auth_responses(),
        },
    },
    "create_store": {
        "summary": "Upload a hypergraph into the digest-keyed chunk store "
        "without partitioning it",
        "responses": {
            "201": _json_response(
                "a new chunk store was written",
                "#/components/schemas/StoreInfo",
            ),
            "200": _json_response(
                "identical bytes were already stored (created: false)",
                "#/components/schemas/StoreInfo",
            ),
            "400": _error_response("bad parameter or malformed upload"),
            "411": _error_response(
                "body without Content-Length or chunked framing"
            ),
            "413": _error_response(
                "body exceeds the configured max_body_bytes cap"
            ),
            **_auth_responses(),
        },
    },
    "healthz": {
        "summary": "Liveness, job counts and ingest/replay counters",
        "responses": {
            "200": _json_response(
                "service is up", "#/components/schemas/Health"
            )
        },
    },
    "metrics": {
        "summary": "Operational metrics in Prometheus text format",
        "responses": {
            "200": {
                "description": "the metrics exposition: healthz counters "
                "plus queue depth, store bytes, evictions, admission "
                "rejections and per-route request latency histograms "
                "(repro_request_seconds)",
                "content": {"text/plain": {"schema": {"type": "string"}}},
            }
        },
    },
    "openapi": {
        "summary": "This document",
        "responses": {
            "200": {
                "description": "the OpenAPI contract",
                "content": {
                    "application/json": {"schema": {"type": "object"}}
                },
            }
        },
    },
}

_INFO = {
    "title": "HyperPRAW streaming partition service",
    "version": SERVICE_VERSION,
    "description": (
        "Upload a hypergraph (hMetis or MatrixMarket), stream it through "
        "the out-of-core readers into an architecture-aware streaming "
        "partitioner, and poll for the assignment.  Uploads land in a "
        "digest-keyed persistent chunk store, so re-partitioning the same "
        "bytes with different parameters replays memory-mapped chunks "
        "instead of re-parsing text."
    ),
}

_SCHEMAS = {
    "Error": _ERROR_SCHEMA,
    "StoreInfo": _STORE_INFO_SCHEMA,
    "Job": _JOB_SCHEMA,
    "Health": _HEALTH_SCHEMA,
}


def _operation(route, path_arg: str) -> dict:
    """One route's operation: the table's contract plus the prose;
    ``path_arg`` names the template's path parameter (empty if none)."""
    prose = _OPERATIONS[route.handler]
    head, *tail = route.handler.split("_")
    op = {
        "operationId": head + "".join(word.title() for word in tail),
        "summary": prose["summary"],
    }
    parameters = [
        {
            "name": path_arg,
            "in": "path",
            "required": True,
            "schema": {"type": "string"},
            "description": prose[path_arg],
        }
    ] if path_arg else []
    parameters += [_query_parameter(knob) for knob in route.params.values()]
    if parameters:
        op["parameters"] = parameters
    if route.body:
        op["requestBody"] = _UPLOAD_BODY
    op["responses"] = prose["responses"]
    return op


def openapi_spec() -> dict:
    """The service's OpenAPI document, built from the route table.

    Returns
    -------
    dict
        the full OpenAPI 3.0 spec; a fresh copy each call, so callers
        (including the route handler serialising it) can never mutate
        the contract.  Knob choices are read live, so a family
        registered at runtime in
        :data:`repro.partitioning.families.PARTITIONERS` shows up in
        the ``partitioner`` enum immediately.
    """
    # Deferred: the handlers serve this document.
    from repro.service.handlers import ROUTES, template_parts

    paths: "dict[str, dict]" = {}
    for route in ROUTES:
        paths.setdefault(route.template, {})[route.method.lower()] = (
            _operation(route, template_parts(route.template)[1])
        )
    return copy.deepcopy(
        {
            "openapi": OPENAPI_VERSION,
            "info": _INFO,
            "paths": paths,
            "components": {"schemas": _SCHEMAS},
        }
    )
