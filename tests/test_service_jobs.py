"""Lifecycle-edge tests for the job layer (repro.service.jobs).

The thread pool hid these edges behind the GIL; the process pool makes
them real: results crossing a pipe, pools racing shutdown, and the two
execution pools having to be observably identical.  Covered here:

* double-poll of a done job returns a stable, identical document;
* ``sync=1`` racing pool shutdown still terminates (sync runs bypass
  the queue; async submits after close fail fast with ``pool_closed``);
* a job result larger than one pipe/response buffer arrives whole;
* ``ThreadJobPool`` and ``ProcessJobPool`` produce bit-identical
  assignments on all three partitioners.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine.parallel import fork_available
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.service import PartitionService, ServiceConfig
from repro.service import jobs as jobs_module
from repro.service.jobs import JobStore, resolve_pool

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process pool needs the fork start method"
)


def _request(url, data=None, method=None):
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


@pytest.fixture
def tiny_hgr(tiny_hypergraph, tmp_path):
    path = tmp_path / "tiny.hgr"
    write_hmetis(tiny_hypergraph, path)
    return path.read_bytes()


# ----------------------------------------------------------------------
# pool resolution
# ----------------------------------------------------------------------
class TestResolvePool:
    def test_auto_prefers_process_where_fork_exists(self):
        expected = "process" if fork_available() else "thread"
        assert resolve_pool("auto") == expected

    def test_explicit_values_pass_through(self):
        assert resolve_pool("thread") == "thread"
        if fork_available():
            assert resolve_pool("process") == "process"

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="pool must be one of"):
            resolve_pool("fibers")

    def test_config_validates_pool(self):
        with pytest.raises(ValueError, match="pool must be one of"):
            ServiceConfig(pool="fibers")


# ----------------------------------------------------------------------
# lifecycle edges
# ----------------------------------------------------------------------
class TestLifecycleEdges:
    def test_double_poll_of_done_job_is_stable(self, tmp_path, tiny_hgr):
        cfg = ServiceConfig(port=0, workers=1, cache_dir=tmp_path / "c")
        with PartitionService(cfg) as svc:
            status, job = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
            )
            assert status == 200 and job["status"] == "done"
            polls = [
                _request(svc.url + job["links"]["self"]) for _ in range(2)
            ]
            assert polls[0] == (200, polls[1][1])
            assert polls[0][1] == polls[1][1]
            # Terminal fields do not drift between polls.
            assert polls[0][1]["finished_at"] == job["finished_at"]
            assert polls[0][1]["metrics"] == job["metrics"]

    def test_sync_racing_pool_shutdown_still_terminates(
        self, tmp_path, tiny_hgr
    ):
        """``sync=1`` bypasses the queue, so it works even once the pool
        is closed; an async submit after close fails fast with
        ``pool_closed`` instead of stranding the job on a dead queue."""
        cfg = ServiceConfig(port=0, workers=1, cache_dir=tmp_path / "c")
        with PartitionService(cfg) as svc:
            svc.api.jobs.close()  # the race, made deterministic
            status, job = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
            )
            assert status == 200
            assert job["status"] == "done", job["error"]
            status, job = _request(
                f"{svc.url}/v1/partitions?k=2", data=tiny_hgr
            )
            assert status == 202
            status, doc = _request(svc.url + job["links"]["self"])
            assert status == 200
            assert doc["status"] == "failed"
            assert doc["error"]["code"] == "pool_closed"

    def test_result_larger_than_one_buffer(self, tmp_path):
        """A 70k-vertex assignment (> _ASSIGNMENT_SLICE lines, > one
        pipe buffer from a forked worker) arrives complete."""
        n = 70_000
        edges = [[i, i + 1, i + 2] for i in range(0, 60, 3)]
        path = tmp_path / "wide.hgr"
        write_hmetis(Hypergraph(n, edges, name="wide"), path)
        cfg = ServiceConfig(port=0, workers=1, cache_dir=tmp_path / "c")
        with PartitionService(cfg) as svc:
            status, job = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1&chunk_size=8192",
                data=path.read_bytes(),
            )
            assert status == 200
            assert job["status"] == "done", job["error"]
            status, text = _request(svc.url + job["links"]["assignment"])
            assert status == 200
            lines = text.splitlines()
            assert len(lines) == n
            assert set(lines) <= {"0", "1"}


# ----------------------------------------------------------------------
# retention: finished jobs are bounded
# ----------------------------------------------------------------------
class TestRetention:
    def test_oldest_finished_jobs_are_dropped(self, monkeypatch, tmp_path, tiny_hgr):
        """Past MAX_FINISHED_JOBS a finished job's id answers 404, while
        healthz still counts it."""
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
        cfg = ServiceConfig(port=0, workers=1, pool="thread", cache_dir=tmp_path / "c")
        with PartitionService(cfg) as svc:
            docs = [
                _request(f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr)[1]
                for _ in range(4)
            ]
            assert [doc["status"] for doc in docs] == ["done"] * 4
            polls = [_request(svc.url + doc["links"]["self"]) for doc in docs]
            assert [status for status, _ in polls] == [404, 404, 200, 200]
            assert "no partition job" in polls[0][1]["error"]["message"]
            _, health = _request(f"{svc.url}/v1/healthz")
            assert health["jobs"] == {"queued": 0, "running": 0, "done": 4, "failed": 0}

    def test_unfinished_jobs_are_never_dropped(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        store = JobStore(workers=1, pool="thread")
        try:
            waiting = store.create({})
            finished = []
            for _ in range(3):
                finished.append(store.create({}))
                store.run(finished[-1], lambda: ([0], 1, {}))
            assert store.get(waiting.id) is waiting
            assert [store.get(job.id) for job in finished] == [None, None, finished[-1]]
            assert store.counts() == {"queued": 1, "running": 0, "done": 3, "failed": 0}
        finally:
            store.close()


# ----------------------------------------------------------------------
# pool equality: thread == process, bit for bit
# ----------------------------------------------------------------------
@needs_fork
class TestPoolEquality:
    @pytest.mark.parametrize("partitioner", ["onepass", "buffered", "sharded"])
    def test_pools_bit_identical(self, tmp_path, tiny_hgr, partitioner):
        """The execution pool is an implementation detail: same upload,
        same seed => byte-identical assignment from both pools."""
        results = {}
        for pool in ("thread", "process"):
            cfg = ServiceConfig(
                port=0, workers=2, pool=pool, cache_dir=tmp_path / pool
            )
            with PartitionService(cfg) as svc:
                assert svc.api.jobs.pool == pool
                status, job = _request(
                    f"{svc.url}/v1/partitions?k=2&sync=1&seed=11"
                    f"&partitioner={partitioner}&max_iterations=5"
                    "&chunk_size=2",
                    data=tiny_hgr,
                )
                assert status == 200
                assert job["status"] == "done", job["error"]
                status, text = _request(svc.url + job["links"]["assignment"])
                assert status == 200
                results[pool] = (text, job["metrics"]["algorithm"])
        assert results["thread"] == results["process"]

    def test_error_shape_identical_across_pools(self):
        """In-child exceptions report the same {code, message} envelope
        the thread pool produces."""

        def boom():
            raise ValueError("nope")

        docs = {}
        for pool in ("thread", "process"):
            store = JobStore(workers=1, pool=pool)
            try:
                job = store.create({})
                store.run(job, boom)
                docs[pool] = (job.status, job.error)
            finally:
                store.close()
        assert docs["thread"] == docs["process"]
        assert docs["thread"] == ("failed", {"code": "ValueError", "message": "nope"})
