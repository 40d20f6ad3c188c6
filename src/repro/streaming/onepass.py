"""One-pass streaming placement with the architecture-aware value function.

Each vertex is placed exactly once, as its chunk arrives, at the argmax of
the HyperPRAW value function (Eq. 1) evaluated against the stream's
presence state (:func:`~repro.streaming.state.presence_state`: the dense
count table, or the capped LRU table under ``max_tracked_edges``) — this
is the single-pass min-max streamer family of arXiv:2103.05394, with two
HyperPRAW-specific ingredients: the cost-matrix communication term
``-N(v) * (C @ X)_i`` and the tempered load penalty
``-alpha * W(i)/E(i)``.  A FENNEL-style hard balance cap guards against
the degenerate all-in-one placement on hub-dominated streams.

Unlike the restreamers there is no second chance: quality depends on how
much of each vertex's neighbourhood has already arrived.  The streamed
suite instances show the expected gap to in-memory HyperPRAW (bounded in
the ``bench.streaming`` scenario); what the one-pass streamer buys is
O(buffer) memory and a single pass over the file.

The pass itself is the shared engine kernel
(:func:`repro.engine.kernel.pass_kernel` in place-only mode); with
``workers > 1`` the stream is split into contiguous chunk-range shards
processed by forked workers and reconciled by
:class:`~repro.streaming.sharded.ShardedStreamer`.  Any chunk stream
feeds it — a text reader, an in-memory adapter, or a persistent binary
chunk store replayed with
:func:`~repro.streaming.chunkstore.open_store` (ingest once, stream
many: the store path skips the text parser entirely).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import StreamPartitioner
from repro.core.result import PartitionResult
from repro.core.schedule import initial_alpha_from_counts
from repro.engine import (
    FennelScorer,
    HyperPRAWScorer,
    ShardPlacement,
    check_knobs,
    pass_kernel,
    stitch_shards,
)
from repro.streaming.reader import DEFAULT_CHUNK_SIZE, ChunkStream
from repro.streaming.state import presence_state, resolve_cost_matrix

__all__ = ["OnePassStreamer"]


class OnePassStreamer(StreamPartitioner):
    """Single-pass bounded-memory streaming partitioner.

    Parameters
    ----------
    chunk_size:
        vertices per arriving chunk when adapting an in-memory hypergraph
        (disk streams carry their own chunking).
    alpha:
        load-penalty scale: ``"paper"`` (default), ``"fennel"`` or an
        explicit float; see
        :func:`repro.core.schedule.initial_alpha_from_counts`.  The
        paper's strong load prior keeps a single greedy pass balanced
        from the first chunk, and on the synthetic suite that also wins
        on communication cost (the same finding the in-memory
        reproduction made for the restreamer's first pass); the literal
        FENNEL value relies on later passes that a one-pass streamer
        never gets.
    presence_threshold:
        Eq. 3 threshold on ``X_j(v)`` (as in HyperPRAW).
    balance_slack:
        hard cap on any partition's load as a multiple of the balanced
        share (``None`` disables; default 1.2 as in the FENNEL baseline).
    max_tracked_edges:
        presence-table cap (``None`` = unbounded / exact).
    score_mode:
        ``"vertex"`` (default) scores each vertex against the live state —
        exact and chunk-size invariant.  ``"chunk"`` scores a whole chunk
        against the chunk-start state with one matmul
        (:func:`~repro.core.value.block_value_terms`) — faster, with
        intra-chunk staleness in the communication term.
    scorer:
        value function: ``"eq1"`` (default) is HyperPRAW's
        architecture-aware Eq. 1; ``"fennel"`` swaps in the FENNEL
        neighbour-count score with the power-law load penalty — the
        single-pass baseline HyperPRAW descends from, now available
        against bounded out-of-core state (pair with ``alpha="fennel"``
        for the literal formula).
    gamma:
        FENNEL load-penalty exponent (only used with
        ``scorer="fennel"``).
    workers:
        parallel sharded streaming: split the stream into ``workers``
        contiguous chunk ranges (pin-balanced; see ``shard_by``), place
        each in a forked worker against its own presence table, merge
        boundary-only payloads, and restream the boundary vertices
        across the same worker pool.  ``1`` (default) is the plain
        sequential streamer.
    shard_payload:
        ``"boundary"`` (default) or ``"full"`` — what sharded workers
        ship at the merge (see :class:`~repro.streaming.sharded.
        ShardedStreamer`).
    shard_by:
        ``"pins"`` (default) or ``"chunks"`` — how sharded worker
        ranges are balanced.
    kernel:
        inner-loop implementation request (``"auto"``/``"python"``/
        ``"njit"``).  An uncapped vertex-mode run places into the dense
        table and can run the compiled kernel; the capped LRU table has
        no compiled path (its eviction order is part of the contract),
        so there an explicit ``"njit"`` warns once and falls back.  The
        resolved mode is reported as ``kernel_mode`` metadata.
    """

    name = "stream-onepass"

    def __init__(
        self,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        alpha: "str | float" = "paper",
        presence_threshold: int = 1,
        balance_slack: "float | None" = 1.2,
        max_tracked_edges: "int | None" = None,
        score_mode: str = "vertex",
        scorer: str = "eq1",
        gamma: float = 1.5,
        workers: int = 1,
        shard_payload: str = "boundary",
        shard_by: str = "pins",
        kernel: str = "auto",
    ) -> None:
        check_knobs(
            chunk_size=chunk_size, score_mode=score_mode, kernel=kernel,
            workers=workers,
        )
        if presence_threshold < 1:
            raise ValueError(
                f"presence_threshold must be >= 1, got {presence_threshold}"
            )
        if balance_slack is not None and balance_slack <= 1.0:
            raise ValueError(f"balance_slack must be > 1, got {balance_slack}")
        if scorer not in ("eq1", "fennel"):
            raise ValueError(
                f"scorer must be 'eq1' or 'fennel', got {scorer!r}"
            )
        if gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        self.chunk_size = int(chunk_size)
        self.alpha = alpha
        self.presence_threshold = int(presence_threshold)
        self.balance_slack = balance_slack
        self.max_tracked_edges = max_tracked_edges
        self.score_mode = score_mode
        self.scorer = scorer
        self.gamma = float(gamma)
        self.workers = int(workers)
        self.shard_payload = shard_payload
        self.shard_by = shard_by
        self.kernel = kernel

    # ------------------------------------------------------------------
    def partition_stream(
        self,
        stream: ChunkStream,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Place every vertex of ``stream`` in a single pass."""
        if self.workers > 1:
            from repro.streaming.sharded import ShardedStreamer

            return ShardedStreamer(
                self,
                workers=self.workers,
                payload=self.shard_payload,
                shard_by=self.shard_by,
            ).partition_stream(
                stream, num_parts, cost_matrix=cost_matrix, seed=seed
            )
        self._check_args(stream, num_parts)
        t_start = time.perf_counter()
        p = num_parts
        C, aware = resolve_cost_matrix(cost_matrix, p)
        local = np.full(stream.num_vertices, -1, dtype=np.int64)
        state, stats = self._run_shard(
            iter(stream),
            p,
            C,
            local,
            stream_counts=(stream.num_vertices, stream.num_edges),
            shard_weight=stream.total_vertex_weight,
        )
        assignment, _, shared = stitch_shards(
            [ShardPlacement.from_state(slice(None), local, state, stats)],
            stream.num_vertices, p,
        )

        return PartitionResult(
            assignment=assignment,
            num_parts=p,
            algorithm=self.name,
            metadata={
                **shared,
                "single_pass": True,
                "score_mode": self.score_mode,
                "scorer": self.scorer,
                "alpha": stats["alpha"],
                "balance_slack": self.balance_slack,
                "max_tracked_edges": self.max_tracked_edges,
                "monitored_pc_cost": state.pc_cost(
                    C, edge_weights=stream.edge_weights
                ),
                "peak_resident_pins": stream.peak_resident_pins,
                "architecture_aware": aware,
                "wall_time_s": time.perf_counter() - t_start,
            },
        )

    # ------------------------------------------------------------------
    # sharding contract (see repro.streaming.sharded.ShardedStreamer)
    # ------------------------------------------------------------------
    def _shard_profile(self) -> dict:
        """Scorer/schedule parameters for the sharded driver's merge and
        boundary restream.  The one-pass streamer has no schedule of its
        own, so the boundary fix-up borrows the paper-default
        :class:`~repro.core.config.HyperPRAWConfig` schedule — but keeps
        this streamer's *value function* (``scorer``/``gamma``), so a
        FENNEL-scored run is polished under the FENNEL objective."""
        from repro.core.config import HyperPRAWConfig

        cfg = HyperPRAWConfig()
        return {
            "alpha_mode": self.alpha,
            "scorer": self.scorer,
            "gamma": self.gamma,
            "presence_threshold": self.presence_threshold,
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
        ``chunk_size``/``workers``/``shard_*`` are deliberately omitted —
        the worker never adapts an in-memory hypergraph and never
        re-shards.
        """
        return {
            "kind": "onepass",
            "alpha": self.alpha,
            "presence_threshold": self.presence_threshold,
            "balance_slack": self.balance_slack,
            "max_tracked_edges": self.max_tracked_edges,
            "score_mode": self.score_mode,
            "scorer": self.scorer,
            "gamma": self.gamma,
            "kernel": self.kernel,
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
        edge_weights=None,
        rng=None,
    ):
        """Place one shard's worth of chunks (the whole stream when
        running single-worker); the sharded driver calls this per worker
        with a shard-local chunk range.

        ``stream_counts`` are the *global* ``(|V|, |E|)`` (alpha is a
        property of the instance, not the shard); ``shard_weight`` scopes
        the expected loads and the balance cap to the shard.  ``rng`` is
        the shard's spawned generator — unused by this deterministic
        streamer, accepted so stochastic scorers can be threaded through
        later without changing the sharding contract.
        """
        del edge_weights, rng  # deterministic placement; see docstring
        p = num_parts
        state = presence_state(
            p, stream_counts[1], np.full(p, shard_weight / p),
            self.max_tracked_edges,
        )
        alpha = initial_alpha_from_counts(
            stream_counts[0], stream_counts[1], p, self.alpha
        )
        cap = (
            self.balance_slack * shard_weight / p
            if self.balance_slack is not None
            else None
        )
        if self.scorer == "fennel":
            scorer = FennelScorer(alpha, self.gamma)
        else:
            scorer = HyperPRAWScorer(
                C, alpha, state.expected_loads, self.presence_threshold
            )
        t_pass = time.perf_counter()
        kernel_mode = pass_kernel(
            chunks,
            state,
            scorer,
            assignment,
            restream=False,
            score_mode=self.score_mode,
            cap=cap,
            kernel=self.kernel,
        )
        return state, {
            "alpha": alpha,
            "kernel_mode": kernel_mode,
            "pass_seconds": time.perf_counter() - t_pass,
        }
