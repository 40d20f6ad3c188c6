"""Asynchronous partition jobs: records, execution pools, and the store.

``POST /v1/partitions`` returns before the partitioner runs; the work
lands here.  :class:`Job` is the persistent record a client polls
(``GET /v1/partitions/<id>``); :class:`JobStore` owns the records plus a
fixed pool of worker threads draining a FIFO queue.  What a worker does
with a popped job is delegated to an **execution pool**:

* :class:`ProcessJobPool` (the default wherever ``fork`` exists) runs
  each job on a long-lived forked worker process, forked on first
  demand and reused for every later job — N concurrent partition jobs
  really use N cores instead of time-slicing one GIL, a job pays a pipe
  round trip instead of a fork, and a worker that *dies* mid-job
  (OOM-kill, SIGKILL) marks the job ``failed`` with the stable error
  code ``worker_crashed`` instead of hanging a poller.
* :class:`ThreadJobPool` runs the job function inline on the worker
  thread — the tested fallback where fork is unavailable, bit-identical
  in results (partition runs are seeded and deterministic).

Lifecycle::

    queued ──► running ──► done
                   └─────► failed

Jobs are kept in memory (the hypergraph bytes themselves live in the
on-disk chunk store, keyed by digest — see :mod:`repro.service.handlers`):
every queued and running job, and the :data:`MAX_FINISHED_JOBS` most
recently finished ones; ``sync`` requests execute the same job
function through the same pool on the request thread and return the
finished record.  ``on_complete`` callbacks always run in the *parent*
process — that is where the service's stats and store pins live.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import stat
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler

import numpy as np

from repro.engine.parallel import fork_available

__all__ = [
    "Job",
    "JobStore",
    "ThreadJobPool",
    "ProcessJobPool",
    "JOB_STATUSES",
    "JOB_POOLS",
    "MAX_FINISHED_JOBS",
    "resolve_pool",
]

#: Every state a job can report, in lifecycle order.
JOB_STATUSES = ("queued", "running", "done", "failed")

#: Accepted ``ServiceConfig.pool`` values; ``auto`` resolves at runtime.
JOB_POOLS = ("auto", "process", "thread")

#: Stable error code for a pool worker that died without reporting.
WORKER_CRASHED = "worker_crashed"

#: Stable error code for a job submitted after the pool shut down.
POOL_CLOSED = "pool_closed"

#: Finished (``done``/``failed``) jobs a store keeps for polling.  Past
#: it the oldest finished job is dropped, and its id answers 404, so a
#: long-lived service's memory stays bounded; queued and running jobs
#: are never dropped.
MAX_FINISHED_JOBS = 256

#: Seconds a closing pool waits for a signalled worker to exit before
#: SIGKILL; bounds :meth:`ProcessJobPool.close`.
_REAP_TIMEOUT_S = 5.0


def resolve_pool(pool: str) -> str:
    """The execution pool a config value actually gets on this platform.

    ``auto`` prefers the process pool (real multi-core partition
    throughput) and falls back to threads where ``fork`` does not exist;
    an explicit ``process`` on a fork-less platform raises rather than
    silently serialising.
    """
    if pool not in JOB_POOLS:
        raise ValueError(f"pool must be one of {JOB_POOLS}, got {pool!r}")
    if pool == "auto":
        return "process" if fork_available() else "thread"
    if pool == "process" and not fork_available():
        raise ValueError(
            "pool='process' requires the 'fork' start method; use "
            "pool='auto' to fall back to threads on this platform"
        )
    return pool


@dataclass
class Job:
    """One partition request's full lifecycle record.

    Attributes
    ----------
    id:
        opaque hex identifier, unique per service instance.
    status:
        one of :data:`JOB_STATUSES`.
    request:
        the validated request parameters, echoed back to the client.
    digest:
        ``"sha256:..."`` of the uploaded source bytes — the key under
        which the ingest landed in the chunk store, reusable via
        ``POST /v1/partitions?store=<digest>``.
    created_at / started_at / finished_at:
        UNIX timestamps; ``None`` until the phase is reached.
    error:
        ``{"code", "message"}`` when ``status == "failed"``; ``code`` is
        the raising exception's type name, or one of the pool's stable
        codes (``worker_crashed``, ``pool_closed``).
    metrics:
        JSON-safe run metrics (partitioner metadata, timings, peak
        resident pins) when ``status == "done"``.
    assignment:
        the partition vector (``int`` array, length ``num_vertices``);
        streamed to clients line by line, never inlined in job JSON.
    num_parts:
        the ``k`` the assignment maps into.
    """

    id: str
    request: dict
    digest: "str | None" = None
    status: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: "float | None" = None
    finished_at: "float | None" = None
    error: "dict | None" = None
    metrics: "dict | None" = None
    assignment: "np.ndarray | None" = None
    num_parts: "int | None" = None

    def to_json(self) -> dict:
        """The client-facing job document (spec: ``Job`` schema) but its
        ``links``, which the service adds from its route table."""
        return {
            "id": self.id,
            "status": self.status,
            "request": self.request,
            "digest": self.digest,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "metrics": self.metrics,
        }

    def finish_ok(self, assignment, num_parts, metrics) -> None:
        """Fill the success fields (shared by both pools)."""
        self.assignment = np.asarray(assignment)
        self.num_parts = int(num_parts)
        self.metrics = metrics
        self.status = "done"

    def finish_failed(self, code: str, message: str) -> None:
        """Fill the failure fields (shared by both pools)."""
        self.error = {"code": code, "message": message}
        self.status = "failed"


class ThreadJobPool:
    """Run job functions inline on the calling thread (GIL-sharing).

    The tested fallback where ``fork`` is unavailable, and the explicit
    choice for embedders who want zero process overhead.  A job function
    takes no arguments and returns ``(assignment, num_parts, metrics)``;
    any exception marks the job ``failed`` with the exception's type
    name as the stable code (the service never dies with a job).
    """

    mode = "thread"
    #: Worker processes forked: never any.
    started = 0

    def execute(self, job: Job, fn) -> None:
        try:
            assignment, num_parts, metrics = fn()
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            job.finish_failed(type(exc).__name__, str(exc))
        else:
            job.finish_ok(assignment, num_parts, metrics)

    def active_pid(self, job_id: str) -> "int | None":
        """Thread jobs have no child process to target."""
        return None

    def close(self) -> None:
        """Nothing to tear down."""


def _drop_inherited_sockets(keep: int) -> None:
    """Point every inherited socket fd but ``keep`` at ``/dev/null``.

    A worker is forked from a live service, so it inherits the listening
    socket, in-flight client connections, the service's end of its own
    pipe and the pipes of workers forked before it.  Holding them would
    keep those connections open after the service closes them: a client
    reading a close-delimited response would wait for the worker to
    exit, and no worker would see EOF when the service dies.  ``dup2``
    keeps each fd number allocated, so the stale objects that own them
    close ``/dev/null``, never an unrelated file.  Where
    ``/proc/self/fd`` does not exist this does nothing.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                if fd not in (keep, null) and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own fd, closed by now
    finally:
        os.close(null)


def _serve_jobs(conn) -> None:
    """Child body of a :class:`_JobWorker`: run each received job callable.

    Every job is a pickled zero-argument callable; every reply is a
    pickled ``(ok, payload)`` — ``(True, result)``, or ``(False,
    (exc_type_name, message))`` when the call (or pickling its result)
    raised, so the parent keeps the thread pool's ``{code, message}``
    shape.  The loop ends at EOF, when the service closes the pipe or
    dies.  SIGINT is ignored: a terminal's Ctrl-C reaches the service
    too, and the service shuts its workers down itself.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _drop_inherited_sockets(conn.fileno())
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            reply = ForkingPickler.dumps((True, ForkingPickler.loads(message)()))
        except BaseException as exc:  # noqa: BLE001 — reported, the worker lives on
            reply = ForkingPickler.dumps((False, (type(exc).__name__, str(exc))))
        conn.send_bytes(reply)


class _JobWorker:
    """One long-lived forked child that runs jobs sent over a duplex pipe.

    The child is **not** daemonic: partition jobs legally fork their own
    shard workers (``workers>=2`` sharded streaming), and daemonic
    processes may not have children.
    """

    def __init__(self) -> None:
        ctx = mp.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_serve_jobs, args=(child_conn,),
            name="partition-job-worker", daemon=False,
        )
        self.proc.start()
        child_conn.close()

    def call(self, message: bytes) -> "tuple[str, object]":
        """Run one pickled job: ``("ok", result)``, ``("error", (code,
        message))`` or, when the child died without replying,
        ``("crashed", detail)`` with the child closed and reaped.

        Never hangs on a killed child: the kernel closes the child's end
        of the pipe on process death, so ``recv`` sees EOF at once.
        """
        try:
            self.conn.send_bytes(message)
            ok, payload = self.conn.recv()
        except (EOFError, OSError):
            self.conn.close()
            self.reap(kill=False)
            code = self.proc.exitcode
            return "crashed", (
                f"killed by signal {-code}" if code is not None and code < 0
                else f"exit code {code}"
            )
        return ("ok" if ok else "error"), payload

    def reap(self, *, kill: bool = True) -> None:
        """Reap the child within a bounded time, terminating it first
        unless ``kill=False`` (a dying child then reports its own exit
        status)."""
        if kill and self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=_REAP_TIMEOUT_S)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()

    def close(self) -> None:
        """Close the pipe, then kill and reap the child."""
        self.conn.close()
        self.reap()


class ProcessJobPool:
    """Run jobs on long-lived forked worker processes.

    Partition jobs are CPU-bound and mostly interpreter-bound (chunk
    loops, scoring); threads serialise on the GIL, so N sync requests on
    N cores would run at ~1-core speed.  Each job instead runs on a
    forked worker that owns a whole core.  A worker is forked on first
    demand and then reused: it loops on a duplex pipe, receiving a
    pickled job callable and sending back its outcome, so a job pays a
    pickle and a pipe round trip instead of a fork, and starts warm.
    The pool keeps up to ``keep`` idle workers (the store's worker
    count); more are forked only while every kept worker is busy, and
    the surplus is reaped when its job ends.  Inputs reach a job as
    small picklable arguments (a store path and the request spec); the
    chunk store itself is memory-mapped in the worker, and only the
    result (assignment array + JSON-safe metrics) crosses back, however
    large (the pipe framing handles multi-megabyte assignments).

    Crash detection is the contract: a worker that dies without
    reporting (SIGKILL, OOM) marks its job ``failed`` with the stable
    code ``worker_crashed`` *immediately* (pipe EOF, no timeout, no hung
    poller); the dead worker is dropped and the next job forks a fresh
    one.  In-child exceptions keep the exact ``{code, message}`` shape
    the thread pool produces, so clients cannot tell the pools apart on
    the error path either.  A job callable that cannot be pickled fails
    in the parent, before any worker is involved.

    After :meth:`close` the pool forks nothing more: a late ``sync`` job
    runs on the calling thread, as in the thread pool, so no worker can
    outlive the service.
    """

    mode = "process"

    def __init__(self, keep: int = 1) -> None:
        self._keep = keep
        self._lock = threading.Lock()
        self._idle: "list[_JobWorker]" = []
        self._busy: "dict[str, _JobWorker]" = {}
        self._closed = False
        #: Worker processes forked so far.
        self.started = 0

    def execute(self, job: Job, fn) -> None:
        message = ForkingPickler.dumps(fn)
        worker = self._acquire(job.id)
        if worker is None:
            ThreadJobPool().execute(job, fn)
            return
        outcome = "crashed"
        try:
            outcome, payload = worker.call(message)
        finally:
            self._release(job.id, worker, outcome != "crashed")
        if outcome == "ok":
            assignment, num_parts, metrics = payload
            job.finish_ok(assignment, num_parts, metrics)
        elif outcome == "error":
            job.finish_failed(*payload)
        else:
            job.finish_failed(
                WORKER_CRASHED,
                f"partition worker died mid-job ({payload}); the job was "
                "not retried",
            )

    def _acquire(self, job_id: str) -> "_JobWorker | None":
        """An idle worker, or a newly forked one; ``None`` once closed.

        The fork happens under the lock, so :meth:`close` sees every
        worker that exists.
        """
        with self._lock:
            if self._closed:
                return None
            if self._idle:
                worker = self._idle.pop()
            else:
                worker = _JobWorker()
                self.started += 1
            self._busy[job_id] = worker
            return worker

    def _release(self, job_id: str, worker: _JobWorker, healthy: bool) -> None:
        """Keep ``worker`` idle, or reap it when it died, the pool is
        closed or enough workers are already idle."""
        with self._lock:
            if (
                self._busy.pop(job_id, None) is worker  # else close() took it
                and healthy
                and len(self._idle) < self._keep
            ):
                self._idle.append(worker)
                return
        worker.close()

    def active_pid(self, job_id: str) -> "int | None":
        """The worker pid currently running ``job_id`` (fault injection)."""
        with self._lock:
            worker = self._busy.get(job_id)
        return worker.proc.pid if worker is not None else None

    def close(self) -> None:
        """Kill and reap every worker, busy or idle (service shutdown)."""
        with self._lock:
            self._closed = True
            idle, busy = self._idle, list(self._busy.values())
            self._idle, self._busy = [], {}
        for worker in idle:
            worker.close()
        for worker in busy:
            worker.reap()  # its job thread sees EOF and closes the pipe


class JobStore:
    """Thread-safe job registry plus a fixed worker pool.

    Parameters
    ----------
    workers:
        worker thread count (>= 1).  Each worker pops one queued job at
        a time and drives it through the execution pool to completion;
        queue order is FIFO, so the pool bounds concurrent partition
        runs at ``workers``.
    pool:
        execution pool: ``"process"`` (long-lived forked workers, up
        to ``workers`` of them kept idle — real multi-core
        throughput), ``"thread"`` (inline), or ``"auto"``
        (process where fork exists, thread otherwise).  See
        :func:`resolve_pool`.
    max_queue_depth:
        admission bound on *queued* (not yet running) jobs; ``None``
        disables the bound.  :meth:`try_submit` refuses beyond it — the
        handlers turn that refusal into ``429 + Retry-After``
        backpressure instead of letting the queue grow without bound.

    Notes
    -----
    A job function takes no arguments and returns
    ``(assignment, num_parts, metrics)``; any exception it raises marks
    the job ``failed`` (the service never dies with a worker).  The
    optional ``on_complete`` callback passed to :meth:`submit` /
    :meth:`run` fires in the parent process after the job reaches a
    terminal state — stats accounting and store unpinning belong there,
    because in process mode the job function runs in a worker process
    and its side effects never reach the service.  In process mode the
    job function must also be picklable (a module-level function or a
    :func:`functools.partial` of one); one that is not fails the job
    with the pickling error's type and message.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        pool: str = "auto",
        max_queue_depth: "int | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0 or None, got {max_queue_depth}"
            )
        self.workers = int(workers)
        self.pool = resolve_pool(pool)
        self.max_queue_depth = max_queue_depth
        self._pool_impl = (
            ProcessJobPool(keep=self.workers)
            if self.pool == "process" else ThreadJobPool()
        )
        self._jobs: "dict[str, Job]" = {}
        #: Ids of the kept finished jobs, oldest first.
        self._finished: "deque[str]" = deque()
        #: Dropped finished jobs per status, so :meth:`counts` still
        #: covers every job the service has seen.
        self._dropped = dict.fromkeys(JOB_STATUSES, 0)
        self._lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"partition-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def create(self, request: dict, *, digest: "str | None" = None) -> Job:
        """Register a new ``queued`` job (not yet scheduled)."""
        job = Job(id=uuid.uuid4().hex[:16], request=request, digest=digest)
        with self._lock:
            self._jobs[job.id] = job
        return job

    def submit(self, job: Job, fn, *, on_complete=None) -> Job:
        """Queue ``fn`` to run ``job`` on the worker pool (async path).

        After :meth:`close`, the job is immediately marked ``failed``
        with the stable code ``pool_closed`` (and ``on_complete`` still
        fires) — a poller always reaches a terminal state, never a job
        stranded on a queue nobody drains.
        """
        with self._lock:
            closed = self._closed
        if closed:
            job.started_at = job.finished_at = time.time()
            job.finish_failed(
                POOL_CLOSED, "the job pool is shut down; job was not queued"
            )
            self._retire(job)
            if on_complete is not None:
                on_complete(job)
            return job
        self._queue.put((job, fn, on_complete))
        return job

    def try_submit(self, job: Job, fn, *, on_complete=None) -> bool:
        """Submit unless the queue is at ``max_queue_depth`` (backpressure).

        Returns ``False`` when the bound would be exceeded: nothing is
        queued and the job is forgotten (its id answers 404, and it no
        longer counts in :meth:`counts`); the caller owns the 429
        response.
        """
        if (
            self.max_queue_depth is not None
            and self.queue_depth() >= self.max_queue_depth
        ):
            with self._lock:
                self._jobs.pop(job.id, None)
            return False
        self.submit(job, fn, on_complete=on_complete)
        return True

    def run(self, job: Job, fn, *, on_complete=None) -> Job:
        """Run ``fn`` through the pool on the calling thread (``sync=1``).

        Bypasses the queue entirely (no backpressure interaction, works
        even during shutdown): in process mode this takes an idle worker
        (forking one if every kept worker is busy) and blocks the
        request thread on its pipe — which releases the GIL, so N
        concurrent sync requests genuinely run on N cores.
        """
        self._execute(job, fn, on_complete)
        return job

    def get(self, job_id: str) -> "Job | None":
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> dict:
        """``{status: n}`` over every job the service has seen."""
        with self._lock:
            out = dict(self._dropped)
            for job in self._jobs.values():
                out[job.status] += 1
        return out

    def queue_depth(self) -> int:
        """Jobs accepted but not yet picked up by a worker (approximate)."""
        return self._queue.qsize()

    def active_pid(self, job_id: str) -> "int | None":
        """The worker pid running ``job_id``, if any (process pool)."""
        return self._pool_impl.active_pid(job_id)

    @property
    def workers_started(self) -> int:
        """Worker processes the pool has forked (``0`` for threads)."""
        return self._pool_impl.started

    def close(self) -> None:
        """Stop the workers after the queue drains (idempotent).

        Already-queued jobs finish; *new* submissions fail fast with
        ``pool_closed``; then every worker process, idle or still
        running a job at the 30s join deadline, is killed and reaped, so
        shutdown is bounded.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=30)
        self._threads = []
        self._pool_impl.close()

    def _retire(self, job: Job) -> None:
        """Keep finished ``job``, dropping the oldest finished jobs past
        :data:`MAX_FINISHED_JOBS`."""
        with self._lock:
            if job.id not in self._jobs:
                return
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                dropped = self._jobs.pop(self._finished.popleft())
                self._dropped[dropped.status] += 1

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, fn, on_complete = item
            self._execute(job, fn, on_complete)

    def _execute(self, job: Job, fn, on_complete=None) -> None:
        job.status = "running"
        job.started_at = time.time()
        try:
            self._pool_impl.execute(job, fn)
        except Exception as exc:  # noqa: BLE001 — never kill a worker thread
            job.finish_failed(type(exc).__name__, str(exc))
        finally:
            job.finished_at = time.time()
        self._retire(job)
        if on_complete is not None:
            try:
                on_complete(job)
            except Exception:  # noqa: BLE001 — accounting must not kill jobs
                pass
