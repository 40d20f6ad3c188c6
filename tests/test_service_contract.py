"""The service's HTTP contract, pinned from the outside.

Two pins guard the route and parameter tables:

* the OpenAPI document's digest — the served contract must not drift
  when the code that builds it changes;
* a route golden (``tests/data/service_routes.json``): for every spec
  path plus an unknown path, trailing slashes and a path below a job,
  every method, both body framings and three admission states, the
  status, error code and ``route`` label the request adds to
  ``repro_request_seconds``.  It fixes the order of the checks
  (admission, route match, method, body framing, handler).
"""

import hashlib
import http.client
import json
import re
from pathlib import Path

from repro.service import PartitionService, ServiceConfig, openapi_spec

GOLDEN = Path(__file__).resolve().parent / "data" / "service_routes.json"

_COUNT = re.compile(
    r'repro_request_seconds_count\{method="(?P<method>[^"]*)",'
    r'path="(?P<route>[^"]*)"\} (?P<count>\d+)'
)

#: sha256 of ``json.dumps(openapi_spec(), sort_keys=True)``.
SPEC_SHA256 = "39ebcf9f384e285b11045bb7eac94438a9b0f5743b87c2e45c6aa7027e7b7051"

KEY = "k-golden"

PATHS = (
    "/v1/partitions",
    "/v1/partitions/nojob",
    "/v1/partitions/nojob/assignment",
    "/v1/stores",
    "/v1/healthz",
    "/v1/metrics",
    "/v1/openapi.json",
    "/v2/other",
    "/v1/healthz/",
    "/v1/partitions/",
    "/v1/partitions/nojob/x",
)
METHODS = ("GET", "POST", "PUT", "DELETE")
#: ``unframed`` sends no body headers at all; ``empty`` sends
#: ``Content-Length: 0``.
FRAMINGS = ("unframed", "empty")


def _observed(svc) -> dict:
    """``{(method, route): count}`` of ``repro_request_seconds``."""
    counts = {}
    for line in svc.api.request_latency.samples():
        match = _COUNT.fullmatch(line)
        if match:
            counts[match["method"], match["route"]] = int(match["count"])
    return counts


def _send(svc, method, path, framing, headers, wait):
    before = _observed(svc)
    conn = http.client.HTTPConnection("127.0.0.1", svc.port, timeout=30)
    try:
        conn.putrequest(method, path)
        for name, value in headers.items():
            conn.putheader(name, value)
        if framing == "empty":
            conn.putheader("Content-Length", "0")
        conn.endheaders()
        resp = conn.getresponse()
        body = resp.read()
    finally:
        conn.close()
    code = None
    if resp.getheader("Content-Type") == "application/json":
        doc = json.loads(body)
        if resp.status >= 400:
            code = doc["error"]["code"]

    def added():
        grown = [
            route
            for (m, route), n in _observed(svc).items()
            if n > before.get((m, route), 0)
        ]
        return grown or None

    (route,) = wait(added, timeout=10, message=f"{method} {path} label")
    return [resp.status, code, route]


def observe_routes(tmp_path, wait) -> dict:
    """Drive every case and return the golden's ``{case: [status,
    code, route]}``; a case is ``"<state> <framing> <method> <path>"``."""
    table = {}
    states = (
        ("open", (), {}),
        ("keyed-nokey", (KEY,), {}),
        ("keyed-key", (KEY,), {"X-API-Key": KEY}),
    )
    for state, keys, headers in states:
        cfg = ServiceConfig(
            port=0, workers=1, cache_dir=tmp_path / state, api_keys=keys
        )
        with PartitionService(cfg) as svc:
            for path in PATHS:
                for method in METHODS:
                    for framing in FRAMINGS:
                        table[f"{state} {framing} {method} {path}"] = _send(
                            svc, method, path, framing, headers, wait
                        )
    return table


def test_spec_digest_pinned():
    spec = json.dumps(openapi_spec(), sort_keys=True).encode()
    assert hashlib.sha256(spec).hexdigest() == SPEC_SHA256


def test_route_golden(tmp_path, monkeypatch, wait_for):
    monkeypatch.delenv("REPRO_API_KEYS", raising=False)
    golden = json.loads(GOLDEN.read_text())
    observed = observe_routes(tmp_path, wait_for)
    assert observed.keys() == golden.keys()
    drifted = {
        case: (golden[case], got)
        for case, got in observed.items()
        if got != golden[case]
    }
    assert not drifted
