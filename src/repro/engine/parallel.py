"""Multiprocessing fan-out for sharded streaming.

The sharded streamer (:mod:`repro.streaming.sharded`) splits a chunk
stream into contiguous chunk ranges and runs one kernel-driven stream
per range.  This module owns the process plumbing:

* :func:`run_tasks` — execute a list of zero-argument callables, one per
  shard, either in forked worker processes (the parallel path) or
  sequentially in-process.  Fork is used deliberately: the callables
  close over live stream/partitioner objects (spill-file handles,
  presence tables) that are fork-inheritable but not picklable, and the
  per-shard *results* — plain numpy arrays and scalars — are all that
  crosses a pipe.  Where fork is unavailable (non-POSIX platforms) the
  tasks run sequentially: same shard structure, same merge, same
  results, no parallelism.
* :func:`stitch_shards` — the one phase-1 stitch every family shares:
  disjoint :class:`ShardPlacement` results become one assignment, summed
  loads and one metadata block (:func:`run_shards` forks, then stitches).
* :func:`merge_shard_tables` — reconcile per-shard presence tables into
  one summed table plus the set of *boundary* hyperedges (nets touched
  by two or more shards — exactly the pins a shard could not see while
  streaming blind of its neighbours).
* :class:`ShardRounds` — persistent shard workers driven through
  barrier-synchronised message rounds.  The v2 sharded streamer keeps
  each worker (and its full local presence table) *alive* after the
  initial stream, so the boundary restream runs sharded too: per pass
  the driver broadcasts a snapshot (alpha, global loads, merged boundary
  rows), every worker restreams its own boundary vertices against it,
  and the driver merges the returned deltas at the barrier.  Only
  boundary information ever crosses a pipe.

Determinism: shard execution order never matters (shards are disjoint,
rounds are barrier-synchronised, and results are merged by shard index),
and the caller hands each shard a generator spawned from one
``SeedSequence``, so ``workers=N`` runs are reproducible for a fixed
seed.  Results *do* differ across different ``N`` (the shard structure
changes), not across runs.  The sequential (fork-less) fallback drives
the same generators through the same rounds in shard order, so it
produces identical results without parallelism.
"""

from __future__ import annotations

import multiprocessing as mp
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "fork_available",
    "run_tasks",
    "ShardPlacement",
    "stitch_shards",
    "run_shards",
    "shard_bounds",
    "merge_shard_tables",
    "ShardRounds",
]


def fork_available() -> bool:
    """Whether the fork start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def _resolve_mode(workers: int, num_tasks: int) -> str:
    """``"forked"`` or ``"sequential"`` — the mode a run will actually use.

    Emits a single structured :class:`RuntimeWarning` when parallelism
    was *requested* (``workers > 1`` over more than one task) but fork is
    unavailable, so the silent degradation to sequential execution is
    visible to callers — and surfaced in run metadata — instead of
    benches misreporting sequential numbers as parallel ones.
    """
    if workers <= 1 or num_tasks <= 1:
        return "sequential"
    if fork_available():
        return "forked"
    warnings.warn(
        f"engine.parallel: workers={workers} requested but the 'fork' "
        f"start method is unavailable on this platform; running "
        f"{num_tasks} shards sequentially in-process (identical results, "
        "no parallelism)",
        RuntimeWarning,
        stacklevel=3,
    )
    return "sequential"


def _child(task, conn) -> None:
    try:
        conn.send((True, task()))
    except BaseException as exc:  # surface worker crashes to the parent
        try:
            conn.send((False, repr(exc)))
        finally:
            conn.close()
    else:
        conn.close()


def run_tasks(tasks, workers: int) -> "tuple[list, str]":
    """Run ``tasks`` (zero-arg callables); returns ``(results, mode)``.

    With ``workers > 1`` and fork available, each task runs in its own
    forked process and its (picklable) result travels back over a pipe;
    otherwise the tasks run sequentially in-process.  ``results`` keep
    the task order and ``mode`` is ``"forked"`` or ``"sequential"``, the
    way the tasks actually ran.  A worker exception is re-raised in the
    parent as ``RuntimeError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if _resolve_mode(workers, len(tasks)) == "sequential":
        return [task() for task in tasks], "sequential"
    ctx = mp.get_context("fork")
    procs = []
    for task in tasks:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child, args=(task, child_conn), daemon=True)
        proc.start()
        child_conn.close()
        procs.append((proc, parent_conn))
    results = []
    errors = []
    for proc, conn in procs:
        try:
            ok, payload = conn.recv()
        except EOFError:
            ok, payload = False, "worker exited without a result"
        finally:
            conn.close()
        proc.join()
        results.append(payload if ok else None)
        if not ok:
            errors.append(payload)
    if errors:
        raise RuntimeError(f"sharded streaming worker failed: {errors[0]}")
    return results, "forked"


class ShardPlacement(NamedTuple):
    """One shard's placed vertex ids (array or slice), their parts, its
    loads, and its pass counters (``None`` where its state keeps none)."""

    ids: "np.ndarray | slice"
    parts: np.ndarray
    loads: np.ndarray
    kernel_mode: "str | None" = None
    pass_seconds: float = 0.0
    peak_tracked_edges: "int | None" = None
    evictions: "int | None" = None

    @classmethod
    def from_state(cls, ids, parts, state, stats: dict) -> "ShardPlacement":
        """The placement a kernel state and its pass ``stats`` end with."""
        return cls(
            ids, parts, state.loads.copy(), stats["kernel_mode"],
            stats["pass_seconds"], getattr(state, "peak_tracked_edges", None),
            getattr(state, "evictions", None),
        )


def stitch_shards(
    shards: "list[ShardPlacement]", num_vertices: int, num_parts: int, *,
    workers: int = 1, parallel_mode: str = "sequential", loads=None,
) -> "tuple[np.ndarray, np.ndarray, dict]":
    """Stitch disjoint placements into ``(assignment, loads, metadata)``.

    Loads sum in shard order onto ``loads`` (in place) if given, else
    onto zeros.  ``metadata`` is the block every family reports:
    ``pass_seconds`` and ``evictions`` sum over shards (pass time
    overlaps under fork: a utilisation meter, not a latency).  The
    defaults describe a one-shard in-process run.
    """
    assignment = np.full(num_vertices, -1, dtype=np.int64)
    if loads is None:
        loads = np.zeros(num_parts, dtype=np.float64)
    for shard in shards:
        assignment[shard.ids] = shard.parts
        loads += shard.loads
    peaks = [s.peak_tracked_edges for s in shards]
    evictions = [s.evictions for s in shards]
    mean = loads.sum() / num_parts
    return assignment, loads, {
        "workers": workers,
        "shards": len(shards),
        "parallel_mode": parallel_mode,
        "kernel_mode": shards[0].kernel_mode,
        "pass_seconds": sum(s.pass_seconds for s in shards),
        "peak_tracked_edges": None if None in peaks else max(peaks),
        "evictions": None if None in evictions else int(sum(evictions)),
        "imbalance": float(loads.max() / mean) if mean else 1.0,
    }


def run_shards(tasks, workers: int, num_vertices: int, num_parts: int):
    """:func:`run_tasks` over one task per shard, then :func:`stitch_shards`.

    Each task returns ``(placement, extra)``; ``extra`` is what its family
    reduces itself.  Returns ``(assignment, metadata, extras)``."""
    results, mode = run_tasks(tasks, workers)
    assignment, _, metadata = stitch_shards(
        [placement for placement, _ in results], num_vertices, num_parts,
        workers=workers, parallel_mode=mode,
    )
    return assignment, metadata, [extra for _, extra in results]


def shard_bounds(stream, ranges: "list[tuple[int, int]]"):
    """``(vertex_bounds, shard_weights)`` of contiguous chunk ranges."""
    bounds = [
        (stream.chunk_bounds(lo)[0], stream.chunk_bounds(hi - 1)[1])
        for lo, hi in ranges
    ]
    weights = stream.vertex_weights
    return bounds, [float(weights[a:b].sum()) for a, b in bounds]


def _serve_rounds(gen_fn, conn) -> None:
    """Child-process loop: drive one shard generator over a pipe.

    Sends the generator's first yield, then alternates ``recv`` (a round
    message) with ``send`` (the next yield, or the generator's return
    value when it finishes).  Every payload travels as ``(ok, value)``
    so worker crashes surface in the parent.
    """
    try:
        gen = gen_fn()
        conn.send((True, next(gen)))
        while True:
            msg = conn.recv()
            try:
                out = gen.send(msg)
            except StopIteration as stop:
                conn.send((True, stop.value))
                break
            conn.send((True, out))
    except EOFError:
        pass  # driver hung up (e.g. tearing down after another crash)
    except BaseException as exc:
        try:
            conn.send((False, repr(exc)))
        except OSError:
            pass
    finally:
        conn.close()


class ShardRounds:
    """Drive shard generators through barrier-synchronised rounds.

    Each task is a zero-argument callable returning a *generator*: the
    generator's first yield is its phase-1 result, every subsequent
    ``yield`` answers one round message, and its ``return`` value answers
    the final (stop) message.  With ``workers > 1`` and fork available
    each generator runs in its own forked process and messages travel
    over duplex pipes; otherwise the generators are driven sequentially
    in shard order — same messages, same order, identical results.

    Usage::

        pool = ShardRounds(tasks, workers)
        first = pool.start()               # phase-1 results, in order
        while ...:
            replies = pool.exchange(msgs)  # one barrier round
        finals = pool.stop(msgs)           # generator return values
        pool.close()                       # idempotent teardown

    A worker exception is re-raised in the driver as ``RuntimeError``
    (after terminating the remaining workers).
    """

    def __init__(self, tasks, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._tasks = list(tasks)
        #: ``"forked"`` or ``"sequential"`` — how the rounds actually run
        #: (a fork-less fallback warns once; see :func:`_resolve_mode`).
        self.mode = _resolve_mode(workers, len(self._tasks))
        self._forked = self.mode == "forked"
        self._gens: "list | None" = None
        self._procs: list = []
        self._conns: list = []

    def run_metadata(self) -> dict:
        """Pool facts the driver should surface in result metadata."""
        return {"parallel_mode": self.mode}

    # ------------------------------------------------------------------
    def start(self) -> list:
        """Launch every shard; return their phase-1 results in order."""
        if not self._forked:
            self._gens = [task() for task in self._tasks]
            return [next(gen) for gen in self._gens]
        ctx = mp.get_context("fork")
        for task in self._tasks:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_serve_rounds, args=(task, child_conn), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        return self._collect()

    def exchange(self, messages: list) -> list:
        """One barrier round: send ``messages[k]`` to shard ``k``, collect
        every shard's reply (in shard order)."""
        return self._round(messages)

    def stop(self, messages: list) -> list:
        """Final round: send ``messages[k]``, collect each generator's
        *return* value, and tear the pool down."""
        if self._forked:
            outs = self._round(messages)
            self.close()
            return outs
        outs = []
        for gen, msg in zip(self._gens, messages):
            try:
                gen.send(msg)
            except StopIteration as stop_exc:
                outs.append(stop_exc.value)
            else:
                raise RuntimeError(
                    "shard generator yielded instead of finishing on stop"
                )
        return outs

    def close(self) -> None:
        """Tear down pipes and processes (idempotent)."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        self._conns, self._procs = [], []

    def __enter__(self) -> "ShardRounds":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _round(self, messages: list) -> list:
        if not self._forked:
            return [
                gen.send(msg) for gen, msg in zip(self._gens, messages)
            ]
        # Send everything first so the shards compute concurrently, then
        # collect at the barrier in shard order (deterministic merges).
        for conn, msg in zip(self._conns, messages):
            conn.send(msg)
        return self._collect()

    def _collect(self) -> list:
        outs, errors = [], []
        for conn in self._conns:
            try:
                ok, payload = conn.recv()
            except EOFError:
                ok, payload = False, "worker exited without a result"
            outs.append(payload if ok else None)
            if not ok:
                errors.append(payload)
        if errors:
            self.close()
            raise RuntimeError(f"sharded streaming worker failed: {errors[0]}")
        return outs


def merge_shard_tables(
    tables: "list[tuple[np.ndarray, np.ndarray]]", num_parts: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Sum per-shard presence tables; flag multi-shard (boundary) nets.

    ``tables`` holds each shard's ``(edge_ids, counts)`` export (counts
    ``len(edge_ids) x p``).  Returns ``(edges, counts, boundary_edges)``
    with ``edges`` sorted ascending (a deterministic merge order) and
    ``boundary_edges`` the subset tracked by two or more shards.
    """
    if not tables:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty((0, num_parts), dtype=np.int64), empty
    all_edges = np.concatenate([t[0] for t in tables])
    if all_edges.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty((0, num_parts), dtype=np.int64), empty
    all_counts = np.concatenate([t[1] for t in tables], axis=0)
    edges, inverse = np.unique(all_edges, return_inverse=True)
    counts = np.zeros((edges.size, num_parts), dtype=all_counts.dtype)
    np.add.at(counts, inverse, all_counts)
    # Within one shard edge ids are unique, so occurrence count across
    # the concatenation == number of shards tracking the net.
    occurrences = np.bincount(inverse, minlength=edges.size)
    boundary = edges[occurrences >= 2]
    return edges, counts, boundary
