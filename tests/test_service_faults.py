"""Fault injection for the hardened service layer.

Every scenario the ops layer promises to survive, driven for real and
bounded by the ``wait_for`` deadline (no test may rely on unbounded
polling):

* a pool worker SIGKILLed mid-job marks the job ``failed`` with the
  stable ``worker_crashed`` code — the poller never hangs — and the
  next job forks a fresh worker;
* a full job queue answers ``429 queue_full`` with a ``Retry-After``
  header, and the refused job leaves no record behind;
* LRU eviction cannot reclaim a store pinned by an in-flight replay
  (the race is made deterministic with an explicit pin and with a
  queued job holding the request-path pin);
* missing / unknown / throttled API keys answer 401 / 403 / 429 with
  envelopes matching the codes ``openapi.py`` documents.
"""

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.parallel import fork_available
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.service import (
    NotFound,
    PartitionService,
    ServiceConfig,
    ServiceHandlers,
    openapi_spec,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process pool needs the fork start method"
)


def stall():
    time.sleep(120)  # far beyond any test deadline
    return [0], 1, {}


def _request(url, data=None, method=None, headers=None):
    req = urllib.request.Request(
        url,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            body = resp.read()
            status = resp.status
            resp_headers = dict(resp.headers)
    except urllib.error.HTTPError as err:
        body = err.read()
        status = err.code
        resp_headers = dict(err.headers)
    try:
        return status, json.loads(body), resp_headers
    except json.JSONDecodeError:
        return status, body.decode(), resp_headers


@pytest.fixture
def tiny_hgr(tiny_hypergraph, tmp_path):
    path = tmp_path / "tiny.hgr"
    write_hmetis(tiny_hypergraph, path)
    return path.read_bytes()


@pytest.fixture
def other_hgr(tmp_path):
    """A second, differently-shaped hypergraph (distinct digest)."""
    hg = Hypergraph(8, [[0, 1, 2, 3], [4, 5], [5, 6, 7], [0, 7]], name="other")
    path = tmp_path / "other.hgr"
    write_hmetis(hg, path)
    return path.read_bytes()


# ----------------------------------------------------------------------
# worker death
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerCrash:
    def test_sigkilled_worker_fails_job_not_hangs(
        self, tmp_path, tiny_hgr, wait_for
    ):
        """SIGKILL the forked worker mid-job: the job must reach
        ``failed`` with the stable ``worker_crashed`` code within the
        deadline, and the crash must be visible in healthz."""
        cfg = ServiceConfig(
            port=0, workers=1, pool="process", cache_dir=tmp_path / "c"
        )
        with PartitionService(cfg) as svc:
            jobs = svc.api.jobs
            job = jobs.create({"k": 1})
            jobs.submit(job, stall, on_complete=svc.api._job_complete)
            pid = wait_for(
                lambda: jobs.active_pid(job.id),
                timeout=30,
                message="worker child to start",
            )
            os.kill(pid, signal.SIGKILL)

            def _failed():
                status, doc, _ = _request(
                    f"{svc.url}/v1/partitions/{job.id}"
                )
                assert status == 200
                return doc if doc["status"] in ("done", "failed") else None

            doc = wait_for(_failed, timeout=30, message="job to fail")
            assert doc["status"] == "failed"
            assert doc["error"]["code"] == "worker_crashed"
            assert "signal 9" in doc["error"]["message"]
            _, health, _ = _request(f"{svc.url}/v1/healthz")
            assert health["stats"]["jobs_crashed"] == 1
            # The service survives: the next job runs normally.
            status, job2, _ = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
            )
            assert status == 200 and job2["status"] == "done"
            # The dead worker was dropped and the next job forked a new one.
            _, health, _ = _request(f"{svc.url}/v1/healthz")
            assert health["stats"]["job_workers_started"] == 2


# ----------------------------------------------------------------------
# queue overflow
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_429_with_retry_after(self, tmp_path, tiny_hgr):
        """``max_queue_depth=0`` refuses every async job: 429 with the
        documented ``queue_full`` code and a Retry-After header."""
        cfg = ServiceConfig(
            port=0,
            workers=1,
            pool="thread",
            max_queue_depth=0,
            cache_dir=tmp_path / "c",
        )
        with PartitionService(cfg) as svc:
            status, body, headers = _request(
                f"{svc.url}/v1/partitions?k=2", data=tiny_hgr
            )
            assert status == 429
            assert body["error"]["code"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
            # sync=1 bypasses the queue and still succeeds.
            status, job, _ = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
            )
            assert status == 200 and job["status"] == "done"
            _, health, _ = _request(f"{svc.url}/v1/healthz")
            assert health["stats"]["rejected_requests"] == 1

    def test_refused_job_is_forgotten(self):
        """A job refused with 429 leaves no ``queued`` record behind: it
        is not counted, and polling its id answers 404."""
        api = ServiceHandlers(
            ServiceConfig(workers=1, pool="thread", max_queue_depth=0)
        )
        try:
            job = api.jobs.create({"k": 2})
            assert not api.jobs.try_submit(job, stall)
            assert api.jobs.counts()["queued"] == 0
            with pytest.raises(NotFound):
                api.get_partition(job.id)
        finally:
            api.close()

    def test_refused_request_leaves_no_job(self, tmp_path, tiny_hgr):
        cfg = ServiceConfig(
            port=0, workers=1, pool="thread", max_queue_depth=0,
            cache_dir=tmp_path / "c",
        )
        with PartitionService(cfg) as svc:
            status, _body, _ = _request(
                f"{svc.url}/v1/partitions?k=2", data=tiny_hgr
            )
            assert status == 429
            _, health, _ = _request(f"{svc.url}/v1/healthz")
            assert health["jobs"] == {
                "queued": 0, "running": 0, "done": 0, "failed": 0
            }

    def test_429_documented_for_the_route(self):
        spec = openapi_spec()
        responses = spec["paths"]["/v1/partitions"]["post"]["responses"]
        assert "429" in responses
        assert "queue_full" in responses["429"]["description"]


# ----------------------------------------------------------------------
# eviction vs in-flight replay
# ----------------------------------------------------------------------
class TestEvictionRace:
    def test_pinned_store_survives_budget_pressure(self, tmp_path):
        """The mechanism itself: a pinned digest is never evicted, the
        unpin applies the deferred eviction."""
        api = ServiceHandlers(
            ServiceConfig(
                cache_dir=tmp_path / "c", workers=1, store_budget_bytes=1
            )
        )
        try:
            hg_a = Hypergraph(6, [[0, 1, 2], [3, 4, 5]], name="a")
            hg_b = Hypergraph(6, [[0, 1], [2, 3], [4, 5]], name="b")
            paths = {}
            for name, hg in (("a", hg_a), ("b", hg_b)):
                p = tmp_path / f"{name}.hgr"
                write_hmetis(hg, p)
                paths[name] = p
            info_a = api.ingest_upload({}, [paths["a"].read_bytes()])
            digest_a = info_a["digest"]
            api.store_cache.pin(digest_a)  # the in-flight replay's pin
            api.ingest_upload({}, [paths["b"].read_bytes()])
            # Budget is 1 byte, but A is pinned and B is freshest: both
            # must still be on disk.
            assert api.store_dir(digest_a).is_dir()
            assert not api.store_cache.was_evicted(digest_a)
            api.store_cache.unpin(digest_a)
            # Pin released -> the deferred eviction lands.
            assert not api.store_dir(digest_a).exists()
            assert api.store_cache.was_evicted(digest_a)
        finally:
            api.close()

    def test_inflight_replay_wins_over_eviction(
        self, tmp_path, tiny_hgr, other_hgr, wait_for
    ):
        """End to end: queue a replay of store A, bust the budget with
        upload B while A's job is in flight — the job must finish
        ``done`` (its pin blocked the evictor), and only then is A
        evictable."""
        cfg = ServiceConfig(
            port=0,
            workers=1,
            pool="thread",
            store_budget_bytes=1,  # any second store exceeds the budget
            cache_dir=tmp_path / "c",
        )
        with PartitionService(cfg) as svc:
            status, store_a, _ = _request(
                f"{svc.url}/v1/stores", data=tiny_hgr
            )
            assert status == 201
            digest_a = store_a["digest"]
            # Hold the single worker so A's job is genuinely in flight
            # (queued, pin taken) while B's upload lands.
            release = time.time() + 1.0

            def hold_worker():
                time.sleep(max(0.0, release - time.time()))
                return [0], 1, {}

            blocker = svc.api.jobs.create({"blocker": True})
            svc.api.jobs.submit(blocker, hold_worker)
            status, job, _ = _request(
                f"{svc.url}/v1/partitions?k=2&store={digest_a}",
                method="POST",
            )
            assert status == 202  # A is now pinned by the queued job
            status, _store_b, _ = _request(
                f"{svc.url}/v1/stores", data=other_hgr
            )
            assert status == 201  # B lands while A's job is pinned
            # The evictor ran at B's publish; pinned A must have survived.
            assert svc.api.store_dir(digest_a).is_dir()

            def _terminal():
                s, doc, _ = _request(svc.url + job["links"]["self"])
                assert s == 200
                return doc if doc["status"] in ("done", "failed") else None

            doc = wait_for(_terminal, timeout=60, message="replay to finish")
            assert doc["status"] == "done", doc["error"]

            # The job's unpin releases the deferred eviction: A goes.
            def _evicted():
                _, health, _ = _request(f"{svc.url}/v1/healthz")
                return health["stats"]["evictions"] >= 1 or None

            wait_for(_evicted, timeout=30, message="store eviction")
            status, body, _ = _request(
                f"{svc.url}/v1/partitions?k=2&store={digest_a}&sync=1",
                method="POST",
            )
            assert (status, body["error"]["code"]) == (409, "store_evicted")

    def test_evicted_store_restored_by_reupload(self, tmp_path, tiny_hgr, other_hgr):
        cfg = ServiceConfig(
            port=0,
            workers=1,
            store_budget_bytes=1,
            cache_dir=tmp_path / "c",
        )
        with PartitionService(cfg) as svc:
            _, store_a, _ = _request(f"{svc.url}/v1/stores", data=tiny_hgr)
            _, _store_b, _ = _request(f"{svc.url}/v1/stores", data=other_hgr)
            status, body, _ = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1&store={store_a['digest']}",
                method="POST",
            )
            assert (status, body["error"]["code"]) == (409, "store_evicted")
            # Re-upload the same bytes: same digest, store restored.
            status, again, _ = _request(f"{svc.url}/v1/stores", data=tiny_hgr)
            assert status == 201 and again["digest"] == store_a["digest"]
            status, job, _ = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1&store={store_a['digest']}",
                method="POST",
            )
            assert status == 200 and job["status"] == "done"


# ----------------------------------------------------------------------
# credentials
# ----------------------------------------------------------------------
class TestAuth:
    @pytest.fixture
    def authed(self, tmp_path):
        cfg = ServiceConfig(
            port=0,
            workers=1,
            cache_dir=tmp_path / "c",
            api_keys=("k-good",),
            rate_limit=1000.0,
            rate_burst=2,
        )
        with PartitionService(cfg) as svc:
            yield svc

    def test_missing_key_401(self, authed, tiny_hgr):
        status, body, _ = _request(
            f"{authed.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
        )
        assert (status, body["error"]["code"]) == (401, "unauthorized")

    def test_unknown_key_403(self, authed, tiny_hgr):
        status, body, _ = _request(
            f"{authed.url}/v1/partitions?k=2&sync=1",
            data=tiny_hgr,
            headers={"X-API-Key": "k-wrong"},
        )
        assert (status, body["error"]["code"]) == (403, "forbidden")

    def test_good_key_admitted_both_header_forms(self, authed, tiny_hgr):
        for headers in (
            {"X-API-Key": "k-good"},
            {"Authorization": "Bearer k-good"},
        ):
            status, job, _ = _request(
                f"{authed.url}/v1/partitions?k=2&sync=1",
                data=tiny_hgr,
                headers=headers,
            )
            assert status == 200 and job["status"] == "done"

    def test_throttled_key_429_with_retry_after(self, authed, tiny_hgr):
        svc = PartitionService(
            ServiceConfig(
                port=0,
                workers=1,
                api_keys=("k-good",),
                rate_limit=0.5,
                rate_burst=1,
            )
        )
        with svc:
            first = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1",
                data=tiny_hgr,
                headers={"X-API-Key": "k-good"},
            )
            assert first[0] == 200
            status, body, headers = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1",
                data=tiny_hgr,
                headers={"X-API-Key": "k-good"},
            )
            assert (status, body["error"]["code"]) == (429, "rate_limited")
            assert int(headers["Retry-After"]) >= 1

    def test_public_routes_skip_auth(self, authed):
        for path in ("/v1/healthz", "/v1/metrics", "/v1/openapi.json"):
            status, _body, _ = _request(authed.url + path)
            assert status == 200, path

    def test_envelopes_match_spec(self, authed, tiny_hgr):
        """The live 401/403/429 statuses are documented for the route,
        and every envelope is the spec's Error shape."""
        responses = openapi_spec()["paths"]["/v1/partitions"]["post"][
            "responses"
        ]
        cases = [
            (None, 401),
            ({"X-API-Key": "k-wrong"}, 403),
        ]
        for headers, expected in cases:
            status, body, _ = _request(
                f"{authed.url}/v1/partitions?k=2&sync=1",
                data=tiny_hgr,
                headers=headers,
            )
            assert status == expected
            assert str(status) in responses
            assert set(body) == {"error"}
            assert set(body["error"]) == {"code", "message"}

    def test_rejections_counted(self, authed, tiny_hgr):
        _request(f"{authed.url}/v1/partitions?k=2&sync=1", data=tiny_hgr)
        _, health, _ = _request(f"{authed.url}/v1/healthz")
        assert health["auth"] is True
        assert health["stats"]["rejected_requests"] == 1
