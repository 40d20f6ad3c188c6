"""End-to-end tests for the streaming partition service (repro.service).

Everything here drives a real in-process :class:`PartitionService` bound
to an ephemeral port over actual HTTP — upload → poll → assignment for
every registered partitioner, the malformed-upload 4xx paths, digest
reuse hitting the chunk store with **no second text parse** (asserted by
wrapping the parser in a call counter), concurrent uploads on the job
pool, and the out-of-core bound: at a small ``chunk_size`` the service
partitions an upload while its peak resident pins stay a fraction of the
pin count — the file is never materialised.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro.service.app as app_mod
import repro.service.handlers as handlers_mod
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.service import PartitionService, ServiceConfig, openapi_spec


# ----------------------------------------------------------------------
# fixtures + HTTP helpers
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    """An in-process server on an ephemeral port with its own cache."""
    svc = PartitionService(
        ServiceConfig(port=0, workers=2, cache_dir=tmp_path / "cache")
    )
    with svc:
        yield svc


@pytest.fixture
def tiny_hgr(tiny_hypergraph, tmp_path):
    """The 6-vertex conftest hypergraph as hMetis bytes."""
    path = tmp_path / "tiny.hgr"
    write_hmetis(tiny_hypergraph, path)
    return path.read_bytes()


@pytest.fixture
def random_hgr(small_random, tmp_path):
    """A scaled sparsine instance (a few thousand pins) as hMetis bytes."""
    path = tmp_path / "sparsine.hgr"
    write_hmetis(small_random, path)
    return path.read_bytes(), small_random


def _request(url, data=None, method=None):
    """``(status, json_or_text)`` for any response, 4xx/5xx included."""
    req = urllib.request.Request(
        url, data=data, method=method or ("POST" if data is not None else "GET")
    )
    try:
        with urllib.request.urlopen(req) as resp:
            body = resp.read()
            status = resp.status
    except urllib.error.HTTPError as err:
        body = err.read()
        status = err.code
    try:
        return status, json.loads(body)
    except json.JSONDecodeError:
        return status, body.decode()


def _wait(svc, job, wait, timeout=120):
    """Poll a job to a terminal state via the bounded ``wait_for`` fixture."""

    def _terminal():
        status, doc = _request(svc.url + job["links"]["self"])
        assert status == 200
        return doc if doc["status"] in ("done", "failed") else None

    return wait(
        _terminal,
        timeout=timeout,
        interval=0.05,
        message=f"job {job['id']} to finish",
    )


def _assignment_lines(svc, job):
    status, text = _request(svc.url + job["links"]["assignment"])
    assert status == 200
    return text.splitlines()


# ----------------------------------------------------------------------
# upload -> poll -> result, every registered partitioner
# ----------------------------------------------------------------------
class TestPartitionLifecycle:
    @pytest.mark.parametrize("partitioner", ["onepass", "buffered", "sharded"])
    def test_upload_poll_assignment(self, service, tiny_hgr, partitioner, wait_for):
        # chunk_size=2 gives the 6-vertex graph 3 chunks, so sharded
        # runs genuinely fan out over 2 workers instead of clamping.
        status, job = _request(
            f"{service.url}/v1/partitions?k=2&partitioner={partitioner}"
            "&max_iterations=5&chunk_size=2",
            data=tiny_hgr,
        )
        assert status == 202
        assert job["status"] in ("queued", "running", "done")
        done = _wait(service, job, wait_for)
        assert done["status"] == "done", done["error"]
        assert done["metrics"]["algorithm"].startswith("stream")
        assert done["metrics"]["num_vertices"] == 6
        lines = _assignment_lines(service, done)
        assert len(lines) == 6
        assert set(lines) <= {"0", "1"}

    def test_sync_returns_finished_job(self, service, tiny_hgr):
        status, job = _request(
            f"{service.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
        )
        assert status == 200
        assert job["status"] == "done"
        assert job["digest"].startswith("sha256:")
        assert job["request"]["source"]["num_pins"] == 10
        assert "wall_time_s" in job["metrics"]

    def test_kernel_knob_echoed_and_observable(self, service, tiny_hgr):
        """kernel= is validated, echoed, and surfaces in healthz stats."""
        status, job = _request(
            f"{service.url}/v1/partitions?k=2&sync=1&kernel=python",
            data=tiny_hgr,
        )
        assert status == 200
        assert job["request"]["kernel"] == "python"
        # Streaming partitioners run the LRU presence table, which
        # always resolves to the python kernel — honestly reported.
        assert job["metrics"]["kernel_mode"] == "python"
        assert job["metrics"]["pass_seconds"] >= 0.0
        _, health = _request(f"{service.url}/v1/healthz")
        assert health["stats"]["kernel_python_runs"] >= 1
        assert health["stats"]["pass_seconds"] >= 0.0
        status, body = _request(
            f"{service.url}/v1/partitions?k=2&sync=1&kernel=bogus",
            data=tiny_hgr,
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_chunked_transfer_encoding_upload(self, service, tiny_hgr):
        conn = http.client.HTTPConnection("127.0.0.1", service.port)
        blocks = iter([tiny_hgr[:9], tiny_hgr[9:]])
        conn.request(
            "POST",
            "/v1/partitions?k=2&sync=1",
            body=blocks,
            encode_chunked=True,
            headers={"Transfer-Encoding": "chunked"},
        )
        resp = conn.getresponse()
        job = json.load(resp)
        assert resp.status == 200
        assert job["status"] == "done"
        conn.close()

    def test_seed_determinism_across_replays(self, service, tiny_hgr):
        _, first = _request(
            f"{service.url}/v1/partitions?k=2&sync=1&seed=7", data=tiny_hgr
        )
        _, second = _request(
            f"{service.url}/v1/partitions?k=2&sync=1&seed=7"
            f"&store={first['digest']}",
            method="POST",
        )
        assert _assignment_lines(service, first) == _assignment_lines(
            service, second
        )


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
class TestErrorPaths:
    def _error(self, status_body):
        status, body = status_body
        return status, body["error"]["code"]

    def test_malformed_upload_400(self, service):
        status, code = self._error(
            _request(f"{service.url}/v1/partitions?k=2&sync=1", data=b"junk\n")
        )
        assert (status, code) == (400, "invalid_upload")

    @pytest.mark.parametrize(
        "body",
        [b"1 2\n1 \xff2\n", b"1 3 1\nnan 1 2\n", b"1 3 1\ninf 1 2\n"],
        ids=["non-utf8", "nan-weight", "inf-weight"],
    )
    def test_invalid_text_or_weights_400(self, service, body):
        status, code = self._error(
            _request(f"{service.url}/v1/partitions?k=2&sync=1", data=body)
        )
        assert (status, code) == (400, "invalid_upload")

    def test_missing_k_400(self, service, tiny_hgr):
        status, code = self._error(
            _request(f"{service.url}/v1/partitions", data=tiny_hgr)
        )
        assert (status, code) == (400, "bad_request")

    def test_unknown_parameter_400(self, service, tiny_hgr):
        status, code = self._error(
            _request(f"{service.url}/v1/partitions?k=2&wat=1", data=tiny_hgr)
        )
        assert (status, code) == (400, "bad_request")

    def test_k_exceeding_vertices_400(self, service, tiny_hgr):
        status, code = self._error(
            _request(f"{service.url}/v1/partitions?k=99", data=tiny_hgr)
        )
        assert (status, code) == (400, "bad_request")

    def test_fennel_restreamer_conflict_400(self, service, tiny_hgr):
        status, code = self._error(
            _request(
                f"{service.url}/v1/partitions?k=2&partitioner=buffered"
                "&scorer=fennel",
                data=tiny_hgr,
            )
        )
        assert (status, code) == (400, "bad_request")

    def test_unknown_store_digest_404(self, service):
        status, code = self._error(
            _request(
                f"{service.url}/v1/partitions?k=2&store={'0' * 64}",
                method="POST",
            )
        )
        assert (status, code) == (404, "not_found")

    def test_unknown_job_404(self, service):
        status, code = self._error(
            _request(f"{service.url}/v1/partitions/nope")
        )
        assert (status, code) == (404, "not_found")

    def test_unknown_route_404(self, service):
        status, code = self._error(_request(f"{service.url}/v2/other"))
        assert (status, code) == (404, "not_found")

    def test_method_not_allowed_405(self, service):
        status, code = self._error(
            _request(f"{service.url}/v1/healthz", method="POST", data=b"")
        )
        assert (status, code) == (405, "method_not_allowed")
        status, code = self._error(_request(f"{service.url}/v1/partitions"))
        assert (status, code) == (405, "method_not_allowed")

    def test_body_without_framing_411(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port)
        # putrequest/endheaders sends neither Content-Length nor chunked
        # framing (plain conn.request would add Content-Length: 0).
        conn.putrequest("POST", "/v1/partitions?k=2")
        conn.endheaders()
        resp = conn.getresponse()
        body = json.load(resp)
        assert resp.status == 411
        assert body["error"]["code"] == "length_required"
        conn.close()

    def test_oversized_upload_413(self, tmp_path, tiny_hgr):
        svc = PartitionService(
            ServiceConfig(
                port=0,
                workers=1,
                cache_dir=tmp_path / "c",
                max_body_bytes=8,
            )
        )
        with svc:
            status, code = (
                _request(f"{svc.url}/v1/stores", data=tiny_hgr)[0],
                _request(f"{svc.url}/v1/stores", data=tiny_hgr)[1]["error"]["code"],
            )
        assert (status, code) == (413, "payload_too_large")

    def test_truncated_body_400(self, service, tiny_hgr):
        """A body shorter than its declared Content-Length must never be
        stored/partitioned as if complete."""
        with socket.create_connection(("127.0.0.1", service.port)) as s:
            s.sendall(
                b"POST /v1/partitions?k=2&sync=1 HTTP/1.0\r\n"
                b"Content-Length: 100000\r\n\r\n" + tiny_hgr
            )
            s.shutdown(socket.SHUT_WR)
            resp = b""
            while chunk := s.recv(4096):
                resp += chunk
        assert b"400" in resp.split(b"\r\n", 1)[0]
        assert b"body truncated" in resp
        _, health = _request(f"{service.url}/v1/healthz")
        assert health["stores"] == 0, "truncated upload must not be stored"

    def test_assignment_before_done_409(self, service, tiny_hgr):
        # Handler-level: a created-but-never-run job is durably queued.
        job = service.api.jobs.create({"k": 2})
        status, body = _request(
            f"{service.url}/v1/partitions/{job.id}/assignment"
        )
        assert status == 409
        assert body["error"]["code"] == "conflict"

    def test_failed_job_reports_error(self, service, tiny_hgr):
        # k=5 passes the |V|>=k check but the one-pass balance cap makes
        # a 6-vertex/5-part split infeasible -> the job itself fails.
        status, job = _request(
            f"{service.url}/v1/partitions?k=5&sync=1&partitioner=onepass",
            data=tiny_hgr,
        )
        assert status == 200
        if job["status"] == "failed":  # cap-dependent; either is legal
            assert job["error"]["message"]


class TestUploadFraming:
    """Malformed upload framing, sent raw to one service: every case is
    a 4xx JSON error envelope within a bounded time, never a 500."""

    BODY = b"1 3\n1 2 3\n"  # a valid 3-vertex upload, 0xa bytes

    CASES = [
        ("bad-hex-size", b"Transfer-Encoding: chunked", b"zz\r\n" + BODY, 411),
        ("negative-size", b"Transfer-Encoding: chunked",
         b"-2\r\nab\r\n0\r\n\r\n", 411),
        ("prefixed-size", b"Transfer-Encoding: chunked",
         b"0xa\r\n" + BODY + b"\r\n0\r\n\r\n", 411),
        ("truncated-chunk", b"Transfer-Encoding: chunked",
         b"20\r\n" + BODY, 400),
        ("missing-crlf", b"Transfer-Encoding: chunked",
         b"a\r\n" + BODY + b"junk\r\n0\r\n\r\n", 411),
        ("past-max-body", b"Transfer-Encoding: chunked",
         b"1000\r\n" + BODY, 413),
        ("long-content-length", b"Content-Length: 100", BODY, 400),
    ]

    @pytest.fixture(scope="class")
    def capped(self, tmp_path_factory):
        cfg = ServiceConfig(
            port=0,
            workers=1,
            pool="thread",
            cache_dir=tmp_path_factory.mktemp("framing"),
            max_body_bytes=1024,
        )
        with PartitionService(cfg) as svc:
            yield svc

    @pytest.mark.parametrize(
        "header,body,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_bad_framing_is_a_json_4xx(self, capped, header, body, expected):
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", capped.port), timeout=10) as s:
            s.sendall(
                b"POST /v1/partitions?k=2&sync=1 HTTP/1.0\r\n"
                + header + b"\r\n\r\n" + body
            )
            s.shutdown(socket.SHUT_WR)
            resp = b""
            while chunk := s.recv(4096):
                resp += chunk
        assert time.monotonic() - started < 10
        head, _, payload = resp.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == expected, resp
        error = json.loads(payload)["error"]
        assert set(error) == {"code", "message"}

    def test_well_framed_chunks_still_accepted(self, capped):
        with socket.create_connection(("127.0.0.1", capped.port), timeout=10) as s:
            s.sendall(
                b"POST /v1/partitions?k=2&sync=1 HTTP/1.0\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"4;ext=1\r\n" + self.BODY[:4] + b"\r\n"
                b"6\r\n" + self.BODY[4:] + b"\r\n0\r\n\r\n"
            )
            s.shutdown(socket.SHUT_WR)
            resp = b""
            while chunk := s.recv(4096):
                resp += chunk
        head, _, payload = resp.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 200, resp
        assert json.loads(payload)["status"] == "done"

    def test_stalled_body_released_at_read_timeout(
        self, capped, tiny_hgr, monkeypatch
    ):
        """A client that declares a body, sends part and goes silent gets
        a 400 once the read timeout passes, and frees its handler thread."""
        monkeypatch.setattr(app_mod, "READ_TIMEOUT_S", 0.3)

        def handler_threads():
            return {
                t
                for t in threading.enumerate()
                if t.name.endswith("(process_request_thread)")
            }

        before = handler_threads()
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", capped.port), timeout=10) as s:
            s.sendall(
                b"POST /v1/stores HTTP/1.0\r\nContent-Length: 100\r\n\r\n"
                + self.BODY[:4]
            )
            resp = b""
            while chunk := s.recv(4096):
                resp += chunk
        assert time.monotonic() - started < 1.0
        head, _, payload = resp.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 400, resp
        assert json.loads(payload)["error"]["message"].startswith(
            "body stalled: received"
        )
        deadline = time.monotonic() + 1.0
        while handler_threads() - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not handler_threads() - before

        status, store = _request(f"{capped.url}/v1/stores", data=tiny_hgr)
        assert status in (200, 201), store
        assert store["digest"]


# ----------------------------------------------------------------------
# digest reuse: the store is hit, the parser is not
# ----------------------------------------------------------------------
class TestDigestReuse:
    def test_repartition_by_digest_skips_text_parse(
        self, service, tiny_hgr, monkeypatch
    ):
        calls = []
        real = handlers_mod.UPLOAD_FORMATS["hmetis"]

        def counting(source, **kwargs):
            calls.append(1)
            return real(source, **kwargs)

        monkeypatch.setitem(handlers_mod.UPLOAD_FORMATS, "hmetis", counting)

        status, store = _request(f"{service.url}/v1/stores", data=tiny_hgr)
        assert status == 201 and store["created"] is True
        assert len(calls) == 1

        # Re-partitions with different k / scorer / partitioner: all
        # replay the mmap store; the text parser never runs again.
        for query in (
            f"k=2&sync=1&store={store['digest']}",
            f"k=3&sync=1&scorer=fennel&store={store['digest']}",
            f"k=2&sync=1&partitioner=buffered&store={store['digest']}",
        ):
            status, job = _request(
                f"{service.url}/v1/partitions?{query}", method="POST"
            )
            assert status == 200
            assert job["status"] == "done", job["error"]
        assert len(calls) == 1, "digest reuse must not re-parse text"

        _, health = _request(f"{service.url}/v1/healthz")
        assert health["stats"]["text_ingests"] == 1
        assert health["stats"]["store_replays"] == 3
        assert health["stores"] == 1

    def test_identical_upload_is_deduplicated(self, service, tiny_hgr):
        status1, store1 = _request(f"{service.url}/v1/stores", data=tiny_hgr)
        status2, store2 = _request(f"{service.url}/v1/stores", data=tiny_hgr)
        assert (status1, store1["created"]) == (201, True)
        assert (status2, store2["created"]) == (200, False)
        assert store1["digest"] == store2["digest"]
        _, health = _request(f"{service.url}/v1/healthz")
        assert health["stores"] == 1


# ----------------------------------------------------------------------
# concurrency on the job pool
# ----------------------------------------------------------------------
class TestConcurrentUploads:
    def test_parallel_uploads_all_complete(self, service, tmp_path, wait_for):
        rng = np.random.default_rng(0)
        uploads = []
        for i in range(5):
            n = 12 + i
            edges = [
                sorted(set(rng.integers(0, n, size=3).tolist()))
                for _ in range(10)
            ]
            path = tmp_path / f"g{i}.hgr"
            write_hmetis(Hypergraph(n, edges, name=f"g{i}"), path)
            uploads.append((n, path.read_bytes()))

        jobs = [None] * len(uploads)
        errors = []

        def upload(i, raw):
            try:
                status, job = _request(
                    f"{service.url}/v1/partitions?k=2&max_iterations=5",
                    data=raw,
                )
                assert status == 202, job
                jobs[i] = job
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append((i, exc))

        threads = [
            threading.Thread(target=upload, args=(i, raw))
            for i, (_, raw) in enumerate(uploads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        for (n, _), job in zip(uploads, jobs):
            done = _wait(service, job, wait_for)
            assert done["status"] == "done", done["error"]
            assert len(_assignment_lines(service, done)) == n
        _, health = _request(f"{service.url}/v1/healthz")
        assert health["jobs"]["done"] == len(uploads)
        assert health["jobs"]["failed"] == 0
        # Five distinct graphs -> five distinct digests in the store.
        assert health["stores"] == len(uploads)


# ----------------------------------------------------------------------
# the out-of-core bound over HTTP
# ----------------------------------------------------------------------
class TestMemoryBound:
    def test_upload_is_never_materialised(self, service, random_hgr):
        raw, hg = random_hgr
        status, job = _request(
            f"{service.url}/v1/partitions?k=4&sync=1"
            "&chunk_size=32&buffer_pins=64&pin_budget=256",
            data=raw,
        )
        assert status == 200
        assert job["status"] == "done", job["error"]
        source = job["request"]["source"]
        assert source["num_pins"] == hg.num_pins
        # Ingest bound: spill buffer + one pin-budgeted chunk, not the
        # pin list.  The margin (4x) keeps the assertion robust to hub
        # buckets while still ruling out any full materialisation.
        assert source["peak_resident_pins"] < hg.num_pins / 4
        # Replay bound: the partition run streams mmap chunks, never the
        # whole store at once.
        assert job["metrics"]["peak_resident_pins"] < hg.num_pins / 4


# ----------------------------------------------------------------------
# the partitioner-family registry is the single service surface
# ----------------------------------------------------------------------
#: Bad partition knobs and the 400 message each gets; the strings were
#: recorded from the service before the knob table existed, and the CLI
#: prints the same text.
_BAD_KNOBS = [
    (
        {"scorer": "fennel", "partitioner": "buffered"},
        "scorer=fennel is only available with partitioner=onepass "
        "(the restreamers score with Eq. 1)",
    ),
    (
        {"partitioner": "sharded", "workers": "1"},
        "partitioner=sharded needs workers >= 2",
    ),
    ({"gamma": "0"}, "gamma must be in (1.0, 16.0], got 0.0"),
    ({"kernel": "x"}, "kernel must be one of auto, python, njit, got 'x'"),
    ({"workers": "0"}, "workers must be >= 1, got 0"),
    (
        {"refine": "maybe"},
        "refine must be one of 1/true/yes/0/false/no, got 'maybe'",
    ),
]


@pytest.mark.parametrize("knobs, message", _BAD_KNOBS)
def test_bad_knob_same_message_over_http_and_cli(
    service, tiny_hgr, capsys, knobs, message
):
    from repro.experiments.cli import main

    query = "&".join(f"{name}={value}" for name, value in knobs.items())
    status, body = _request(
        f"{service.url}/v1/partitions?k=2&sync=1&{query}", data=tiny_hgr
    )
    assert status == 400
    assert body["error"]["message"] == message
    argv = ["stream", "--partitioner", "onepass"]
    for name, value in knobs.items():
        argv += ["--" + name.replace("_", "-"), value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


class TestFamilyRegistry:
    """Registering a family makes it servable — no service change."""

    def test_every_registered_family_servable(self, service, tiny_hgr):
        from repro.partitioning.families import family_names

        for name in family_names():
            status, job = _request(
                f"{service.url}/v1/partitions?k=2&sync=1"
                f"&partitioner={name}&chunk_size=2&max_iterations=5",
                data=tiny_hgr,
            )
            assert status == 200, (name, job)
            assert job["status"] == "done", (name, job.get("error"))
            assert job["request"]["partitioner"] == name
            lines = _assignment_lines(service, job)
            assert len(lines) == 6 and set(lines) <= {"0", "1"}, name

    def test_refine_knob_polishes_any_family(self, service, tiny_hgr):
        status, job = _request(
            f"{service.url}/v1/partitions?k=2&sync=1&partitioner=minmax"
            "&chunk_size=2&refine=1&refine_passes=2",
            data=tiny_hgr,
        )
        assert status == 200
        assert job["status"] == "done", job.get("error")
        assert job["metrics"]["algorithm"].endswith("+fm")
        assert job["request"]["refine"] is True
        assert job["request"]["refine_passes"] == 2

    def test_openapi_enum_matches_registry(self, service):
        from repro.partitioning.families import family_names

        status, spec = _request(f"{service.url}/v1/openapi.json")
        assert status == 200
        params = spec["paths"]["/v1/partitions"]["post"]["parameters"]
        enum = next(p for p in params if p["name"] == "partitioner")[
            "schema"
        ]["enum"]
        assert tuple(enum) == family_names()

    def test_dynamic_family_immediately_servable(
        self, tmp_path, tiny_hgr, monkeypatch
    ):
        """A family registered at runtime is servable on the next
        request and appears in the served OpenAPI enum — the validation
        and the spec both read the live registry, never a snapshot."""
        import dataclasses

        from repro.partitioning import families as fam

        toy = dataclasses.replace(fam.PARTITIONERS["onepass"], name="toy")
        monkeypatch.setitem(fam.PARTITIONERS, "toy", toy)
        # thread pool: jobs must see the monkeypatched registry
        svc = PartitionService(
            ServiceConfig(
                port=0, workers=1, pool="thread", cache_dir=tmp_path / "dyn"
            )
        )
        with svc:
            status, spec = _request(f"{svc.url}/v1/openapi.json")
            params = spec["paths"]["/v1/partitions"]["post"]["parameters"]
            enum = next(p for p in params if p["name"] == "partitioner")[
                "schema"
            ]["enum"]
            assert "toy" in enum
            status, job = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1&partitioner=toy",
                data=tiny_hgr,
            )
            assert status == 200
            assert job["status"] == "done", job.get("error")
            assert job["request"]["partitioner"] == "toy"
            lines = _assignment_lines(svc, job)
            assert len(lines) == 6 and set(lines) <= {"0", "1"}


# ----------------------------------------------------------------------
# meta endpoints
# ----------------------------------------------------------------------
class TestMetaEndpoints:
    def test_healthz(self, service):
        status, health = _request(f"{service.url}/v1/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["pool"] in ("process", "thread")
        assert health["queue_depth"] == 0
        assert health["auth"] is False
        assert health["store_bytes"] == 0
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}
        assert set(health["stats"]) == {
            "uploads",
            "text_ingests",
            "store_replays",
            "pass_seconds",
            "kernel_python_runs",
            "kernel_njit_runs",
            "rejected_requests",
            "evictions",
            "jobs_crashed",
        }

    def test_version_single_sourced(self, service):
        """healthz, the spec and setup.py must agree on one version."""
        from repro.service.openapi import SERVICE_VERSION

        _, health = _request(f"{service.url}/v1/healthz")
        assert health["version"] == SERVICE_VERSION
        assert openapi_spec()["info"]["version"] == SERVICE_VERSION
        setup_text = (
            Path(__file__).resolve().parent.parent / "setup.py"
        ).read_text()
        assert f'version="{SERVICE_VERSION}"' in setup_text

    def test_openapi_served_verbatim(self, service):
        status, spec = _request(f"{service.url}/v1/openapi.json")
        assert status == 200
        assert spec == openapi_spec()

    def test_spec_routes_all_dispatch(self, service, tiny_hgr):
        """Every path x method in the spec is actually routed.

        A spec'd route that 404s would mean the contract drifted from
        the app; parameters here are chosen so each route returns one of
        its *documented* status codes.
        """
        _, seed_job = _request(
            f"{service.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
        )
        digest = seed_job["digest"]
        spec = openapi_spec()
        live = {
            ("post", "/v1/partitions"): lambda: _request(
                f"{service.url}/v1/partitions?k=2&sync=1&store={digest}",
                method="POST",
            ),
            ("get", "/v1/partitions/{job_id}"): lambda: _request(
                f"{service.url}/v1/partitions/{seed_job['id']}"
            ),
            ("get", "/v1/partitions/{job_id}/assignment"): lambda: _request(
                f"{service.url}/v1/partitions/{seed_job['id']}/assignment"
            ),
            ("post", "/v1/stores"): lambda: _request(
                f"{service.url}/v1/stores", data=tiny_hgr
            ),
            ("get", "/v1/healthz"): lambda: _request(
                f"{service.url}/v1/healthz"
            ),
            ("get", "/v1/metrics"): lambda: _request(
                f"{service.url}/v1/metrics"
            ),
            ("get", "/v1/openapi.json"): lambda: _request(
                f"{service.url}/v1/openapi.json"
            ),
        }
        spec_routes = {
            (method, path)
            for path, ops in spec["paths"].items()
            for method in ops
        }
        assert spec_routes == set(live), "spec routes != exercised routes"
        for (method, path), call in live.items():
            status, _body = call()
            documented = spec["paths"][path][method]["responses"]
            assert str(status) in documented, (method, path, status)


# ----------------------------------------------------------------------
# the bench scenario (tier-1 smoke: it must run and make sense)
# ----------------------------------------------------------------------
class TestServiceBench:
    def test_compare_service_smoke(self):
        from repro.bench.service import compare_service

        report = compare_service(
            instances=("2cubes_sphere",),
            scale=0.03,
            k=4,
            chunk_size=64,
            threads=2,
            requests=4,
        )
        assert len(report.records) == 1
        record = report.records[0]
        assert record.num_pins > 0
        assert record.store_ingest_s > 0
        assert record.upload_partition_s > 0
        assert record.replay_partition_s > 0
        assert report.throughput.errors == 0
        assert report.throughput.rps > 0
        rendered = report.render()
        assert "service latency ladder" in rendered
        assert "requests/s" in rendered
