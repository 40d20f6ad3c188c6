"""Bounded-buffer HyperPRAW-style restreaming.

:class:`BufferedRestreamer` keeps a window of the most recent
``buffer_size`` arrived vertices.  Arriving vertices are first placed
round-robin — the streaming analogue of Algorithm 1 line 1 — and whenever
the window fills (and once more at end of stream) the whole window is
**re-streamed** under Algorithm 1's schedule — the one outer loop,
:func:`repro.core.schedule.run_schedule`, that in-memory HyperPRAW runs
too.  Re-streamed vertices are then frozen; their pin counts stay in the
presence state so later windows coordinate with them.

Convergence knob: with ``buffer_size=None`` (unbounded) and an unbounded
presence table the entire stream is one window and the algorithm **is**
in-memory HyperPRAW — same passes, same schedule, same rollback, same
assignments (a property the test suite asserts exactly).  Shrinking the
buffer trades quality for memory, degenerating toward the round-robin
baseline as ``buffer_size -> 0``; quality therefore improves monotonically
with the buffer, which the streaming benchmark scenario tracks.

The window pass is the shared engine kernel
(:func:`repro.engine.kernel.pass_kernel`) in restream mode over the
stream's presence state (:func:`~repro.streaming.state.presence_state`).
With no ``max_tracked_edges`` cap that is the dense ``(E x p)`` matrix
in-memory HyperPRAW runs over, which is what makes the unbounded
configuration reproduce it exactly; under a cap it is the bounded LRU
table.  With ``config.chunk_size`` set, window passes run
in the kernel's vectorised chunk-restream mode instead: each window is
split into ``chunk_size`` sub-blocks, the whole sub-block is lifted out
in one batch and scored with one matmul against the block-start table
(live loads) — the same speed/staleness trade the in-memory
``HyperPRAWConfig.chunk_size`` makes, so the unbounded-buffer chunked
configuration reproduces chunked in-memory HyperPRAW exactly (tested).  The monitored cost uses the per-hyperedge identity
``PC(P) = sum_e w_e c_e^T C c_e``, which needs only table rows (and
equals Eq. 5 exactly when nothing has been evicted).

With ``workers > 1`` the stream is split into contiguous chunk-range
shards restreamed by forked workers and reconciled by
:class:`~repro.streaming.sharded.ShardedStreamer`.

Restreaming is exactly the access pattern the persistent chunk store
(:mod:`repro.streaming.chunkstore`) exists for: every extra window pass
re-iterates chunks, so feeding this partitioner a store replayed with
:func:`~repro.streaming.chunkstore.open_store` turns each pass into
memory-mapped reads instead of spill-file loads — and a *fresh*
invocation skips text ingest altogether.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import StreamPartitioner
from repro.core.config import HyperPRAWConfig
from repro.core.result import IterationRecord, PartitionResult
from repro.core.schedule import (
    ScheduleOutcome,
    TemperingSchedule,
    initial_alpha_from_counts,
    run_schedule,
)
from repro.engine import (
    HyperPRAWScorer,
    ShardPlacement,
    VertexBlock,
    move_back,
    pass_kernel,
    resolve_kernel,
    stitch_shards,
    stream_windows,
)
from repro.streaming.reader import DEFAULT_CHUNK_SIZE, ChunkStream
from repro.streaming.state import presence_state, resolve_cost_matrix

__all__ = ["BufferedRestreamer"]


class BufferedRestreamer(StreamPartitioner):
    """Bounded-buffer restreaming partitioner (HyperPRAW over a window).

    Parameters
    ----------
    config:
        the HyperPRAW schedule parameters (tolerance, tempering,
        refinement, presence threshold...).  ``stream_order`` must be
        ``"natural"`` — a streamed input arrives in vertex order.
        ``config.workers`` is the default worker count;
        ``config.chunk_size`` switches window restreams to the kernel's
        vectorised chunk mode (sub-blocks lifted out in one batch, one
        matmul each); ``config.kernel`` requests the inner-loop
        implementation (the compiled kernel needs the dense table and
        vertex mode, so a capped run resolves to python — see
        ``kernel_mode`` metadata).
    buffer_size:
        window capacity in vertices; ``None`` buffers the whole stream
        (exactly in-memory HyperPRAW, the convergence anchor).
    chunk_size:
        chunking used when adapting an in-memory hypergraph.
    max_tracked_edges:
        presence-table cap (``None`` = unbounded / exact).
    workers:
        parallel sharded streaming worker count; ``None`` defers to
        ``config.workers`` (default 1 = plain single-worker streaming).
    """

    name = "stream-buffered"

    def __init__(
        self,
        config: "HyperPRAWConfig | None" = None,
        *,
        buffer_size: "int | None" = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_tracked_edges: "int | None" = None,
        workers: "int | None" = None,
    ) -> None:
        self.config = config or HyperPRAWConfig()
        if self.config.stream_order != "natural":
            raise ValueError(
                "BufferedRestreamer requires stream_order='natural' "
                "(a stream arrives in vertex order)"
            )
        if buffer_size is not None and buffer_size < 1:
            raise ValueError(
                f"buffer_size must be >= 1 or None, got {buffer_size}"
            )
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 or None, got {workers}")
        self.buffer_size = buffer_size
        self.chunk_size = int(chunk_size)
        self.max_tracked_edges = max_tracked_edges
        self.workers = int(workers) if workers is not None else self.config.workers

    # ------------------------------------------------------------------
    def partition_stream(
        self,
        stream: ChunkStream,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Ingest, window, restream, freeze — over the whole stream."""
        if self.workers > 1:
            from repro.streaming.sharded import ShardedStreamer

            return ShardedStreamer(
                self,
                workers=self.workers,
                payload=self.config.shard_payload,
                shard_by=self.config.shard_by,
            ).partition_stream(
                stream, num_parts, cost_matrix=cost_matrix, seed=seed
            )
        self._check_args(stream, num_parts)
        t_start = time.perf_counter()
        cfg = self.config
        p = num_parts
        C, aware = resolve_cost_matrix(cost_matrix, p)
        edge_w = stream.edge_weights if cfg.use_edge_weights else None
        local = np.full(stream.num_vertices, -1, dtype=np.int64)
        history: "list[IterationRecord] | None" = (
            [] if cfg.record_history else None
        )
        state, stats = self._run_shard(
            iter(stream),
            p,
            C,
            local,
            stream_counts=(stream.num_vertices, stream.num_edges),
            shard_weight=stream.total_vertex_weight,
            edge_weights=edge_w,
            history=history,
        )
        assignment, _, shared = stitch_shards(
            [ShardPlacement.from_state(slice(None), local, state, stats)],
            stream.num_vertices, p,
        )

        return PartitionResult(
            assignment=assignment,
            num_parts=p,
            algorithm=self.name,
            iterations=history or [],
            metadata={
                **shared,
                "converged": stats["converged"],
                "rolled_back": stats["rolled_back"],
                "iterations_run": stats["iterations"],
                "batches": stats["batches"],
                "buffer_size": self.buffer_size,
                "score_mode": self._score_mode(),
                "final_alpha": stats["final_alpha"],
                "final_pc_cost": float(stats["final_cost"]),
                "max_tracked_edges": self.max_tracked_edges,
                "peak_resident_pins": stream.peak_resident_pins,
                "architecture_aware": aware,
                "imbalance_tolerance": cfg.imbalance_tolerance,
                "wall_time_s": time.perf_counter() - t_start,
            },
        )

    # ------------------------------------------------------------------
    # sharding contract (see repro.streaming.sharded.ShardedStreamer)
    # ------------------------------------------------------------------
    def _shard_profile(self) -> dict:
        """Scorer/schedule parameters for the sharded driver's merge and
        boundary restream (the same config the windows run under)."""
        cfg = self.config
        return {
            "alpha_mode": cfg.alpha_initial,
            "scorer": "eq1",
            "presence_threshold": cfg.presence_threshold,
            "max_tracked_edges": self.max_tracked_edges,
            "imbalance_tolerance": cfg.imbalance_tolerance,
            "alpha_update": cfg.alpha_update,
            "refinement": cfg.refinement,
            "refinement_factor": cfg.refinement_factor,
            "max_iterations": cfg.max_iterations,
            "use_edge_weights": cfg.use_edge_weights,
        }

    def _shard_spec(self) -> dict:
        """JSON-safe recipe for rebuilding this base on another host.

        Decoded by :func:`repro.cluster.protocol.base_from_spec`: a
        remote worker reconstructs an equivalent single-worker base and
        runs the same ``_run_shard`` over its socket-fed chunk range.
        ``chunk_size``/``workers`` are deliberately omitted — the worker
        never adapts an in-memory hypergraph and never re-shards.
        """
        from dataclasses import asdict

        return {
            "kind": "buffered",
            "config": asdict(self.config),
            "buffer_size": self.buffer_size,
            "max_tracked_edges": self.max_tracked_edges,
        }

    def _run_shard(
        self,
        chunks,
        num_parts: int,
        C: np.ndarray,
        assignment: np.ndarray,
        *,
        stream_counts: "tuple[int, int]",
        shard_weight: float,
        edge_weights: "np.ndarray | None" = None,
        history: "list[IterationRecord] | None" = None,
        rng=None,
    ):
        """Window-and-restream one shard's chunks (the whole stream when
        running single-worker); the sharded driver calls this per worker
        with a shard-local chunk range.

        ``stream_counts`` are the *global* ``(|V|, |E|)`` (alpha is a
        property of the instance, not the shard); ``shard_weight`` scopes
        the expected loads to the shard.  ``rng`` is the shard's spawned
        generator — unused by the deterministic schedule, accepted so
        stochastic variants can be threaded through without changing the
        sharding contract.
        """
        del rng  # deterministic restreaming; see docstring
        p = num_parts
        state = presence_state(
            p, stream_counts[1], np.full(p, shard_weight / p),
            self.max_tracked_edges,
        )
        alpha0 = initial_alpha_from_counts(
            stream_counts[0], stream_counts[1], p, self.config.alpha_initial
        )
        # Resolve the kernel once per shard (one fallback warning at
        # most): the capped LRU table always resolves to python.
        kernel_mode = resolve_kernel(
            self.config.kernel,
            state,
            HyperPRAWScorer(
                C, alpha0, state.expected_loads, self.config.presence_threshold
            ),
            self._score_mode(),
        )
        stats = self._stream_shard(
            chunks, state, C, alpha0, edge_weights, assignment, history,
            kernel_mode,
        )
        return state, stats

    def _score_mode(self) -> str:
        """``"chunk"`` when ``config.chunk_size`` enables the vectorised
        window restream, else the exact ``"vertex"`` mode."""
        return "chunk" if self.config.chunk_size is not None else "vertex"

    def _stream_shard(
        self,
        chunks,
        state,
        C: np.ndarray,
        alpha0: float,
        edge_weights: "np.ndarray | None",
        assignment: np.ndarray,
        history: "list[IterationRecord] | None",
        kernel_mode: str,
    ) -> dict:
        """Round-robin-place, window and restream one shard's chunks."""
        p = state.num_parts
        stats = {
            "batches": 0,
            "iterations": 0,
            "rolled_back": False,
            "converged": True,
            "final_cost": 0.0,
            "final_alpha": alpha0,
            "kernel_mode": kernel_mode,
            "pass_seconds": 0.0,
        }

        deferred = getattr(state, "place_deferred", False)

        def arrivals():
            # Algorithm 1 line 1, streamed: arrivals start round-robin.
            # A deferred state takes the chunk's pins in one batch and its
            # loads through one unbuffered add, the same float additions
            # in the same order as placing vertex by vertex.
            for chunk in chunks:
                parts = chunk.ids % p
                if deferred:
                    state.insert_block(chunk.vertex_edges, chunk.vertex_ptr, parts)
                    np.add.at(state.loads, parts, chunk.vertex_weights)
                else:
                    for i in range(chunk.num_vertices):
                        state.place(
                            chunk.edges_of(i), int(parts[i]), chunk.vertex_weights[i]
                        )
                assignment[chunk.ids] = parts
                yield chunk

        # The window bound is on vertices, not chunks: arriving chunks are
        # split so a stream chunked coarser than the buffer cannot
        # silently widen the window.
        for window in stream_windows(arrivals(), self.buffer_size):
            outcome = self._restream_window(
                window, state, C, alpha0, edge_weights, assignment, history,
                stats["iterations"], kernel_mode,
            )
            stats["batches"] += 1
            stats["iterations"] += outcome.iterations
            stats["rolled_back"] = stats["rolled_back"] or outcome.rolled_back
            stats["converged"] = stats["converged"] and outcome.converged
            stats["final_cost"] = outcome.cost
            stats["final_alpha"] = outcome.alpha
            stats["pass_seconds"] += outcome.pass_seconds
        return stats

    # ------------------------------------------------------------------
    def _restream_window(
        self,
        win: VertexBlock,
        state,
        C: np.ndarray,
        alpha0: float,
        edge_weights: "np.ndarray | None",
        assignment: np.ndarray,
        history: "list[IterationRecord] | None",
        iteration_offset: int,
        kernel_mode: str = "python",
    ) -> ScheduleOutcome:
        """Run the HyperPRAW schedule over one window, then leave the
        window at the pass the schedule keeps."""
        cfg = self.config
        # chunk mode: sub-block views for the kernel's lift + matmul path
        size = cfg.chunk_size or max(1, win.num_vertices)
        blocks = [
            win.slice(a, min(a + size, win.num_vertices))
            for a in range(0, win.num_vertices, size)
        ]
        score_mode = self._score_mode()

        def step(alpha: float) -> float:
            scorer = HyperPRAWScorer(
                C, alpha, state.expected_loads, cfg.presence_threshold
            )
            pass_kernel(
                blocks, state, scorer, assignment, restream=True,
                score_mode=score_mode, kernel=kernel_mode,
            )
            return state.imbalance()

        outcome = run_schedule(
            TemperingSchedule(
                alpha=alpha0,
                tempering_update=cfg.alpha_update,
                refinement_factor=cfg.refinement_factor,
            ),
            step,
            lambda: state.pc_cost(C, edge_weights=edge_weights),
            lambda: assignment[win.ids].copy(),
            tolerance=cfg.imbalance_tolerance,
            max_iterations=cfg.max_iterations,
            refinement=cfg.refinement,
            history=history,
            iteration_offset=iteration_offset,
        )
        if outcome.restore:
            move_back(state, win, assignment, outcome.best)
        return outcome
