"""Lifecycle-edge tests for the job layer (repro.service.jobs).

The thread pool hid these edges behind the GIL; the process pool makes
them real: results crossing a pipe, pools racing shutdown, and the two
execution pools having to be observably identical.  Covered here:

* double-poll of a done job returns a stable, identical document;
* ``sync=1`` racing pool shutdown still terminates (sync runs bypass
  the queue; async submits after close fail fast with ``pool_closed``);
* a job result larger than one pipe/response buffer arrives whole;
* ``ThreadJobPool`` and ``ProcessJobPool`` produce bit-identical
  assignments on all three partitioners;
* the process pool's workers persist: one fork serves every job,
  requests alternated on one worker match a direct library call, and
  no exit path — an unpicklable job, ``close()``, SIGINT or SIGKILL to
  the ``serve`` CLI — leaves a worker running.
"""

import json
import multiprocessing as mp
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.engine.parallel import fork_available
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.partitioning.families import build_partitioner, partition_spec
from repro.service import PartitionService, ServiceConfig
from repro.service import jobs as jobs_module
from repro.service.jobs import JobStore, resolve_pool
from repro.streaming.chunkstore import open_store

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process pool needs the fork start method"
)
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads process state from /proc"
)


def boom():
    raise ValueError("nope")


def stall():
    time.sleep(120)  # far beyond any test deadline
    return [0], 1, {}


def worker_pid():
    """A job whose metrics name the process that ran it."""
    return [0], 1, {"pid": os.getpid()}


def _proc_stat(pid: int) -> "list[str] | None":
    """The fields of ``/proc/<pid>/stat`` after the command name, from
    the state on; ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> "list[int]":
    """Pids whose parent is ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                out.append(int(entry))
    return out


def _not_running(pid: int) -> bool:
    """Gone, or a zombie left for init to reap."""
    fields = _proc_stat(pid)
    return fields is None or fields[0] == "Z"


def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


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


# ----------------------------------------------------------------------
# persistent workers: one fork serves many jobs, none outlives the pool
# ----------------------------------------------------------------------
@needs_fork
class TestPersistentWorkers:
    def test_one_worker_serves_every_job(self):
        store = JobStore(workers=1, pool="process")
        try:
            pids = set()
            for _ in range(3):
                job = store.create({})
                store.run(job, worker_pid)
                assert job.status == "done", job.error
                pids.add(job.metrics["pid"])
            assert len(pids) == 1 and os.getpid() not in pids
            assert store.workers_started == 1
        finally:
            store.close()
        (pid,) = pids
        assert _reaped(pid)

    def test_pool_ladder_warms_one_worker_per_client(self, tmp_path, tiny_hgr):
        """The pool ladder's untimed warm-up forks a worker per client
        thread, so its timed phase forks none."""
        from repro.bench.service import _warm_pool

        cfg = ServiceConfig(
            port=0, workers=2, pool="process", cache_dir=tmp_path / "c"
        )
        with PartitionService(cfg) as svc:
            _, store = _request(f"{svc.url}/v1/stores", tiny_hgr)
            url = (
                f"{svc.url}/v1/partitions?k=2&sync=1&store={store['digest']}"
            )
            assert _warm_pool(svc.url, url, 2) == 2
            for _ in range(4):
                assert _request(url, b"")[1]["status"] == "done"
            _, health = _request(f"{svc.url}/v1/healthz")
            assert health["stats"]["job_workers_started"] == 2

    def test_unpicklable_job_fails_and_forks_nothing(self):
        def local():  # a local function cannot be pickled
            return [0], 1, {}

        with pytest.raises(Exception) as expected:
            pickle.dumps(local)
        before = set(mp.active_children())
        store = JobStore(workers=1, pool="process")
        try:
            job = store.create({})
            store.run(job, local)
            assert job.status == "failed"
            assert job.error == {
                "code": type(expected.value).__name__,
                "message": str(expected.value),
            }
            assert store.workers_started == 0
            assert set(mp.active_children()) == before
            # The pool still serves a picklable job afterwards.
            job = store.create({})
            store.run(job, worker_pid)
            assert job.status == "done", job.error
        finally:
            store.close()
        assert set(mp.active_children()) == before

    def test_close_reaps_idle_and_busy_workers(self, wait_for):
        """One worker running a job and one idle: ``close()`` kills and
        reaps both, and the running job fails ``worker_crashed``."""
        store = JobStore(workers=1, pool="process")
        busy_job = store.create({})
        runner = threading.Thread(target=store.run, args=(busy_job, stall))
        try:
            runner.start()
            busy_pid = wait_for(
                lambda: store.active_pid(busy_job.id), message="worker to start"
            )
            # The kept worker is busy, so this job forks a second one,
            # which stays idle afterwards.
            idle_job = store.create({})
            store.run(idle_job, worker_pid)
            idle_pid = idle_job.metrics["pid"]
            assert idle_pid != busy_pid
            t0 = time.monotonic()
        finally:
            store.close()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert time.monotonic() - t0 < 30
        assert busy_job.status == "failed"
        assert busy_job.error["code"] == "worker_crashed"
        assert _reaped(idle_pid) and _reaped(busy_pid)
        assert store.workers_started == 2

    def test_alternated_requests_match_library(self, tmp_path, tiny_hgr):
        """Two different requests alternated on one worker each give the
        direct library call's assignment: no state carries between jobs
        (the sharded one also forks shard workers from the job worker)."""
        requests = [
            {"k": "2", "partitioner": "onepass", "seed": "11"},
            {"k": "3", "partitioner": "sharded", "seed": "5",
             "max_iterations": "4"},
        ]
        cfg = ServiceConfig(
            port=0, workers=1, pool="process", cache_dir=tmp_path / "c"
        )
        with PartitionService(cfg) as svc:
            status, info = _request(
                f"{svc.url}/v1/stores?chunk_size=2", data=tiny_hgr
            )
            assert status == 201
            expected = []
            for params in requests:
                with open_store(svc.api.store_dir(info["digest"])) as stream:
                    result = build_partitioner(
                        partition_spec(params), stream.num_vertices
                    ).partition_stream(
                        stream, int(params["k"]), seed=int(params["seed"])
                    )
                expected.append(result.assignment.tolist())
            served = []
            for params in requests * 2:
                query = "&".join(f"{k}={v}" for k, v in params.items())
                status, job = _request(
                    f"{svc.url}/v1/partitions?sync=1&store={info['digest']}"
                    f"&{query}",
                    method="POST",
                )
                assert status == 200 and job["status"] == "done", job
                status, text = _request(svc.url + job["links"]["assignment"])
                served.append([int(line) for line in text.split()])
            assert served == expected * 2
            assert svc.api.jobs.workers_started == 1

    def test_workers_started_counts_forks_not_jobs(self, tmp_path, tiny_hgr):
        cfg = ServiceConfig(
            port=0, workers=1, pool="process", cache_dir=tmp_path / "c"
        )
        with PartitionService(cfg) as svc:
            for _ in range(5):
                status, job = _request(
                    f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
                )
                assert status == 200 and job["status"] == "done"
            _, health = _request(f"{svc.url}/v1/healthz")
            assert health["stats"]["job_workers_started"] == 1
            _, text = _request(f"{svc.url}/v1/metrics")
            assert "repro_job_workers_started_total 1" in text.splitlines()

    @needs_proc
    def test_worker_holds_no_inherited_socket(self, tmp_path, tiny_hgr):
        """A worker forked mid-request drops the service's sockets: its
        only socket is its own pipe, so no client connection outlives
        the service closing it."""
        cfg = ServiceConfig(
            port=0, workers=1, pool="process", cache_dir=tmp_path / "c"
        )
        with PartitionService(cfg) as svc:
            status, job = _request(
                f"{svc.url}/v1/partitions?k=2&sync=1", data=tiny_hgr
            )
            assert status == 200
            (pid,) = [
                child.pid for child in mp.active_children()
                if child.name == "partition-job-worker"
            ]
            sockets = [
                name for name in os.listdir(f"/proc/{pid}/fd")
                if os.readlink(f"/proc/{pid}/fd/{name}").startswith("socket:")
            ]
            assert len(sockets) == 1


# ----------------------------------------------------------------------
# the serve CLI leaves no worker behind
# ----------------------------------------------------------------------
@needs_fork
@needs_proc
class TestServeShutdown:
    @pytest.fixture
    def server(self, tmp_path, tiny_hgr):
        """A ``serve`` process that has run one job, with its worker pids."""
        src = Path(jobs_module.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve", "--port",
             "0", "--workers", "1", "--cache-dir", str(tmp_path / "c")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            url = line.split()[2]
            status, job = _request(f"{url}/v1/partitions?k=2&sync=1", data=tiny_hgr)
            assert status == 200 and job["status"] == "done"
            workers = _children(proc.pid)
            assert len(workers) == 1
            yield proc, workers
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_sigint_reaps_workers(self, server, wait_for):
        proc, workers = server
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
        wait_for(
            lambda: all(_not_running(pid) for pid in workers),
            timeout=10, message="workers to exit",
        )

    def test_sigkilled_server_workers_exit_on_eof(self, server, wait_for):
        proc, workers = server
        proc.kill()
        proc.wait(timeout=30)
        wait_for(
            lambda: all(_not_running(pid) for pid in workers),
            timeout=10, message="orphaned workers to exit",
        )
