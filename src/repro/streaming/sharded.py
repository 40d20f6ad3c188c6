"""Parallel sharded streaming, v2 (ROADMAP items (a), (f), (g), (h)).

:class:`ShardedStreamer` scales a streaming partitioner across CPU cores
in three phases, every one of them sharded:

1. **Shard** — the chunk stream is split into contiguous chunk ranges,
   with a *straggler guard*: when the uniform chunk-count split leaves
   per-shard pin totals skewed beyond :data:`ShardedStreamer.
   PIN_SKEW_THRESHOLD` (hub-heavy prefixes), it is replaced by the
   pin-balanced cut (:func:`repro.engine.blocks.shard_ranges_by_pins`);
   near-uniform streams keep their boundaries, because a moved cut
   changes what every worker streams blind of for almost no balance
   gain.  Each shard is streamed by its *base* partitioner
   (:class:`~repro.streaming.restream.BufferedRestreamer` by default, or
   a :class:`~repro.streaming.onepass.OnePassStreamer`) in a forked
   worker process, against its own snapshot presence table and a
   shard-scoped load target (``shard_weight / p``) — workers never
   synchronise while streaming, which is where the speedup comes from
   and why they stream blind of each other's placements.
2. **Merge, boundary-only** — workers detect their boundary nets
   *locally*: a net whose locally observed pin count falls short of its
   global degree (``stream.edge_degrees``, O(|E|) scalar metadata
   recorded at ingest and persisted by the chunk store) must have pins
   in another shard.  Only those presence-table rows, the load vector
   and the shard's assignment slice cross the pipe (``payload="full"``
   ships whole tables, for measurement); the driver sums loads and
   reconciles the shipped rows — nets shipped by two or more shards are
   the *boundary* hyperedges, exactly the pins each worker scored with
   incomplete information.  Payload bytes are surfaced in the result
   metadata.
3. **Sharded boundary restream** — boundary vertices partition by chunk
   range like everything else, so the fix-up runs across the *same*
   worker pool instead of one serial worker: per pass the driver
   broadcasts a snapshot (alpha, global loads, merged boundary rows),
   every worker restreams its own boundary vertices against it (its
   interior nets stay in its local table, never shipped), and the driver
   merges the returned deltas at the barrier.  The rounds run under
   Algorithm 1's schedule (:func:`repro.core.schedule.run_schedule`, the
   outer loop in-memory HyperPRAW and the buffered windows share), and a
   rollback is a ``stop`` message that asks every worker to move its
   boundary vertices back.  A single fixed-alpha pass is *not* enough:
   from a balanced merged state the communication term dominates and
   collapses the partition, exactly the failure mode Algorithm 1's
   tempering exists to prevent.

With ``workers=1`` there is one shard covering the whole stream, no
boundary nets and no merge adjustments: the run is operation-for-
operation identical to the base partitioner (asserted by golden tests).
And because the boundary restream is defined by barrier rounds against
snapshots, the fork-less sequential fallback produces identical results
— payload mode changes *bytes shipped*, never assignments (asserted by
the invariant tests).

Stream source: any :class:`~repro.streaming.reader.ChunkStream` works,
but a persistent chunk store
(:class:`~repro.streaming.chunkstore.ChunkStoreStream`) is the natural
partner — each forked worker's ``stream.iter_range`` memory-maps the
store directly in its own process, so shards replay raw binary chunks
with no text parsing and no spill-file re-reads per fork, and the store
manifest carries both the per-chunk pin counts (pin-balanced shards) and
the per-edge degrees (local boundary detection).

Determinism: each shard receives a generator spawned from one
``SeedSequence`` (``seed -> spawn(workers)``), so runs are reproducible
for a fixed ``(seed, workers)``.  Results differ across *worker counts*
— the shard structure changes what each worker sees — not across runs.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core.base import Partitioner, StreamPartitioner
from repro.core.schedule import (
    TemperingSchedule,
    initial_alpha_from_counts,
    run_schedule,
)
from repro.engine import (
    FennelScorer,
    HyperPRAWScorer,
    ShardPlacement,
    ShardRounds,
    VertexBlock,
    check_knobs,
    concat_blocks,
    merge_shard_tables,
    move_back,
    pass_kernel,
    segment_reduce,
    shard_bounds,
    shard_ranges,
    shard_ranges_by_pins,
    stitch_shards,
)
from repro.core.metrics import table_comm_cost
from repro.core.result import PartitionResult
from repro.streaming.reader import DEFAULT_CHUNK_SIZE, ChunkStream
from repro.streaming.state import resolve_cost_matrix
from repro.utils.rng import seed_sequence, spawn_generators

__all__ = ["ShardedStreamer", "shard_stream_task"]


def _boundary_scorer(
    C: np.ndarray, alpha: float, expected_loads: np.ndarray, profile: dict
):
    """The boundary restream's value function, matched to the base's.

    A FENNEL-scored base must be polished with the FENNEL objective —
    fixing it up under Eq. 1 would contaminate the baseline the scorer
    knob exists to reproduce.  Profiles that predate the ``scorer`` key
    default to Eq. 1 (every base before the knob existed).
    """
    if profile.get("scorer") == "fennel":
        return FennelScorer(alpha, profile["gamma"])
    return HyperPRAWScorer(
        C, alpha, expected_loads, profile["presence_threshold"]
    )


class ShardedStreamer(StreamPartitioner):
    """Parallel sharded wrapper around a streaming partitioner.

    Parameters
    ----------
    base:
        the per-shard partitioner — anything implementing the sharding
        contract (``_run_shard`` / ``_shard_profile``):
        :class:`BufferedRestreamer` (default) or
        :class:`OnePassStreamer`.
    workers:
        number of shards / forked worker processes.  Clamped (with a
        warning) to the stream's chunk count.  On platforms without the
        ``fork`` start method the shards run sequentially in-process
        (identical results, no parallelism).
    boundary_max_iterations:
        cap on boundary-restream schedule passes.  The merge already
        leaves the partition globally consistent and balanced; the
        boundary restream is quality polish whose per-pass barrier eats
        into the parallel speedup, and measured on ``stream_powerlaw_xl``
        the default of 8 captures the cut quality of an unbounded
        schedule to within a fraction of a percent at a quarter of its
        cost.  ``None`` defers to the base partitioner's
        ``max_iterations`` profile; ``0`` disables the fix-up entirely.
    chunk_size:
        chunking used when adapting an in-memory hypergraph.
    payload:
        ``"boundary"`` (default) ships only locally detected boundary
        presence-table rows over the worker pipes; ``"full"`` ships
        whole tables (the v1 behaviour, kept for measurement — the
        assignment is identical either way, only
        ``merge_payload_bytes`` changes).
    shard_by:
        ``"pins"`` (default) guards against stragglers: the chunk-count
        split is replaced with the pin-balanced cut when its per-shard
        pin skew exceeds :data:`PIN_SKEW_THRESHOLD` (and falls back to
        chunk counts when the stream cannot report per-chunk pins);
        ``"chunks"`` always uses the chunk-count split.
    tailored:
        ``True`` (default) ships each shard only the merged presence
        rows for boundary nets *that shard touches* each restream round
        (after a one-time announce round where every shard reports its
        touched set), instead of broadcasting the full boundary
        snapshot.  Bit-identical by construction — each shard overlays
        exactly the rows it would have selected from the broadcast —
        and the per-worker row counts / bytes saved land in the run
        metadata (``tailored_rows`` / ``broadcast_bytes_saved``).
        ``False`` keeps the v1 full-snapshot broadcast, for
        measurement and for the equivalence tests.
    """

    name = "stream-sharded"

    #: default boundary-restream pass cap (see ``boundary_max_iterations``)
    DEFAULT_BOUNDARY_MAX_ITERATIONS = 8

    #: ``shard_by="pins"`` is a *straggler guard*: the chunk-count split
    #: is replaced with the pin-balanced one only when its per-shard pin
    #: skew (max/mean) exceeds this threshold.  Shard boundaries are
    #: also quality-sensitive (a moved cut changes what every worker
    #: streams blind of), so near-uniform streams — where pin balancing
    #: buys almost nothing — keep their boundaries; hub-heavy prefixes
    #: (the motivating case, e.g. ``stream_powerlaw_xl`` at skew ~1.5)
    #: get rebalanced.
    PIN_SKEW_THRESHOLD = 1.25

    def __init__(
        self,
        base: "Partitioner | None" = None,
        *,
        workers: int = 1,
        boundary_max_iterations: "int | None" = DEFAULT_BOUNDARY_MAX_ITERATIONS,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        payload: str = "boundary",
        shard_by: str = "pins",
        tailored: bool = True,
    ) -> None:
        if base is None:
            from repro.streaming.restream import BufferedRestreamer

            base = BufferedRestreamer()
        if not hasattr(base, "_run_shard") or not hasattr(base, "_shard_profile"):
            raise TypeError(
                f"{type(base).__name__} does not implement the sharding "
                "contract (_run_shard/_shard_profile)"
            )
        check_knobs(chunk_size=chunk_size, workers=workers)
        if boundary_max_iterations is not None and boundary_max_iterations < 0:
            raise ValueError(
                "boundary_max_iterations must be >= 0 or None, "
                f"got {boundary_max_iterations}"
            )
        if payload not in ("boundary", "full"):
            raise ValueError(
                f"payload must be 'boundary' or 'full', got {payload!r}"
            )
        if shard_by not in ("pins", "chunks"):
            raise ValueError(
                f"shard_by must be 'pins' or 'chunks', got {shard_by!r}"
            )
        self.base = base
        self.workers = int(workers)
        self.boundary_max_iterations = boundary_max_iterations
        self.chunk_size = int(chunk_size)
        self.payload = payload
        self.shard_by = shard_by
        self.tailored = bool(tailored)

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def _shard_ranges(
        self, stream: ChunkStream
    ) -> "tuple[list[tuple[int, int]], list[int] | None, str]":
        """Shard the chunk index range; returns ``(ranges, pins, how)``.

        ``pins`` is the per-shard pin total when the stream reports
        per-chunk pins, else ``None``.  ``how`` records which split won:
        ``"pins"`` when the chunk-count split would straggle (pin skew
        over :data:`PIN_SKEW_THRESHOLD`) and the pin-balanced cut
        replaced it, ``"chunks"`` otherwise.  ``workers`` greater than
        the chunk count is clamped silently, as in every family — empty
        shards would only fork idle processes, and the result metadata
        records ``workers`` (requested) beside ``shards`` (actual).
        """
        n = stream.num_chunks
        workers = min(self.workers, max(1, n))
        chunk_pins = stream.chunk_pins() if self.shard_by == "pins" else None
        ranges = shard_ranges(n, workers)
        if chunk_pins is None or len(chunk_pins) != n:
            return ranges, None, "chunks"

        def shard_pins(rs):
            return [int(np.sum(chunk_pins[lo:hi])) for lo, hi in rs]

        def skew(totals):
            mean = sum(totals) / len(totals)
            return max(totals) / mean if mean else 1.0

        pins = shard_pins(ranges)
        if skew(pins) <= self.PIN_SKEW_THRESHOLD:
            # Straggler guard only: the uniform split is already close
            # to pin-balanced, and moving a shard boundary for marginal
            # gain churns what every worker streams blind of.
            return ranges, pins, "chunks"
        ranges = shard_ranges_by_pins(chunk_pins, workers)
        return ranges, shard_pins(ranges), "pins"

    def partition_stream(
        self,
        stream: ChunkStream,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Shard, stream in parallel, merge boundary-only payloads, then
        restream the boundary across the same worker pool."""
        self._check_args(stream, num_parts)
        t_start = time.perf_counter()
        p = num_parts
        C, aware = resolve_cost_matrix(cost_matrix, p)
        profile = self.base._shard_profile()
        ranges, shard_pins, sharded_by = self._shard_ranges(stream)
        nshards = len(ranges)
        seed_root = seed_sequence(seed)
        rngs = spawn_generators(seed_root, nshards)
        counts = (stream.num_vertices, stream.num_edges)
        edge_w = stream.edge_weights if profile["use_edge_weights"] else None
        vertex_bounds, shard_weights = shard_bounds(stream, ranges)
        boundary_ship = self.payload == "boundary" and nshards > 1
        edge_degrees = None
        if boundary_ship:
            # Local boundary detection needs global degrees; degreed
            # readers record them at ingest, anything else pays one
            # extra (read-only) counting pass.
            edge_degrees = stream.edge_degrees
            if edge_degrees is None:
                edge_degrees = stream.compute_edge_degrees()
        total_weight = stream.total_vertex_weight
        shard_ctx = {
            "ranges": ranges,
            "vertex_bounds": vertex_bounds,
            "shard_weights": shard_weights,
            "num_parts": p,
            "C": C,
            "counts": counts,
            "edge_w": edge_w,
            "rngs": rngs,
            "profile": profile,
            "edge_degrees": edge_degrees,
            "boundary_ship": boundary_ship,
            "total_weight": total_weight,
        }
        pool = self._make_pool(stream, seed_root, shard_ctx)
        try:
            results = pool.start()

            # Phase 2: merge — loads sum exactly; shipped rows reconcile;
            # nets shipped by two or more shards flag the boundary.
            _, global_loads, _ = stitch_shards(
                [
                    ShardPlacement(slice(*b), res["assignment"], res["loads"])
                    for b, res in zip(vertex_bounds, results)
                ],
                stream.num_vertices,
                p,
            )
            all_edges, all_counts, boundary = merge_shard_tables(
                [(res["edges"], res["table"]) for res in results], p
            )
            merge_payload_bytes = sum(res["payload_bytes"] for res in results)
            full_payload_bytes = sum(
                res["full_payload_bytes"] for res in results
            )

            # Phase 3: sharded boundary restream — snapshot-table rounds
            # with a merge barrier per pass, schedule run by the driver.
            max_boundary = (
                self.boundary_max_iterations
                if self.boundary_max_iterations is not None
                else profile["max_iterations"]
            )
            boundary_iterations = 0
            boundary_payload_bytes = 0
            rollback = False
            sels: "list[np.ndarray] | None" = None
            broadcast_saved = [0] * nshards
            # Merged global rows for the boundary nets — the restream
            # rounds' shared snapshot, and the driver's share of the
            # monitored cost either way.
            bound_counts = all_counts[
                np.searchsorted(all_edges, boundary)
            ].copy()
            if nshards > 1 and boundary.size and max_boundary > 0:
                # What the v1 full-snapshot broadcast would ship to one
                # shard each round — the yardstick tailoring is measured
                # against (broadcast_bytes_saved metadata).
                snapshot_bytes = (
                    boundary.nbytes
                    + bound_counts.nbytes
                    + global_loads.nbytes
                )
                if self.tailored:
                    # One-time announce round: every shard reports which
                    # boundary rows it touches; each later round ships
                    # only those rows instead of the full snapshot.
                    announce = pool.exchange(
                        [("boundary", {"boundary_edges": boundary})]
                        * nshards
                    )
                    sels = [reply["edge_sel"] for reply in announce]
                    for reply in announce:
                        boundary_payload_bytes += (
                            boundary.nbytes + reply["payload_bytes"]
                        )
                record_best = False
                damp = True  # over tolerance until a pass proves otherwise
                replies: list = []

                def step(alpha: float) -> float:
                    nonlocal record_best, damp, replies, global_loads
                    nonlocal boundary_payload_bytes
                    loads_snap = global_loads.copy()
                    base_ctl = {
                        "alpha": alpha,
                        "loads": loads_snap,
                        "record_best": record_best,
                        "damp": damp,
                    }
                    if sels is not None:
                        messages = [
                            (
                                "pass",
                                dict(base_ctl, rows=bound_counts[sels[k]]),
                            )
                            for k in range(nshards)
                        ]
                    else:
                        ctl = dict(
                            base_ctl,
                            boundary_edges=boundary,
                            boundary_counts=bound_counts.copy(),
                        )
                        messages = [("pass", ctl)] * nshards
                    record_best = False
                    replies = pool.exchange(messages)
                    for k, reply in enumerate(replies):
                        global_loads += reply["delta_loads"]
                        sel = sels[k] if sels is not None else reply["edge_sel"]
                        bound_counts[sel] += reply["delta_counts"]
                        if sels is not None:
                            sent = (
                                messages[k][1]["rows"].nbytes
                                + loads_snap.nbytes
                            )
                            broadcast_saved[k] += snapshot_bytes - sent
                        else:
                            sent = snapshot_bytes
                        boundary_payload_bytes += (
                            sent + reply["payload_bytes"]
                        )
                    # Capped tables can under-report phase-1 rows, so a
                    # real move off an undercounted part may dip below
                    # zero — clamp, exactly as the bounded state does.
                    np.maximum(bound_counts, 0, out=bound_counts)
                    imb = float(
                        global_loads.max() / (global_loads.sum() / p)
                    )
                    # Damping is a tempering-phase device: once within
                    # tolerance, refinement's comm-driven moves are small
                    # and should score undamped (damping there just
                    # suppresses cut improvements); it re-engages the
                    # moment balance is lost again.
                    damp = imb > profile["imbalance_tolerance"]
                    return imb

                def cost() -> float:
                    return table_comm_cost(
                        bound_counts, C, boundary, edge_w
                    ) + sum(reply["interior_cost"] for reply in replies)

                def snapshot() -> None:
                    # Workers record their boundary parts at the start of
                    # the next round, before that pass moves anything.
                    nonlocal record_best
                    record_best = True

                outcome = run_schedule(
                    TemperingSchedule(
                        alpha=initial_alpha_from_counts(
                            counts[0], counts[1], p, profile["alpha_mode"]
                        ),
                        tempering_update=profile["alpha_update"],
                        refinement_factor=profile["refinement_factor"],
                    ),
                    step,
                    cost,
                    snapshot,
                    tolerance=profile["imbalance_tolerance"],
                    max_iterations=max_boundary,
                    refinement=profile["refinement"],
                )
                boundary_iterations = outcome.iterations
                rollback = outcome.restore

            finals = pool.stop(
                [("stop", {"rollback": rollback, "boundary_edges": boundary})]
                * nshards
            )
        finally:
            pool.close()

        boundary_vertices = 0
        interior_cost = 0.0
        for fin in finals:
            if bound_counts.shape[0]:
                bound_counts[fin["edge_sel"]] += fin["delta_counts"]
            boundary_vertices += fin["boundary_vertices"]
            interior_cost += fin["interior_cost"]
        if bound_counts.shape[0]:
            np.maximum(bound_counts, 0, out=bound_counts)
        # Phase-1 stats ride with each shard's final placement; the
        # final loads add each shard's rollback delta to the rounds'.
        run_meta = pool.run_metadata()
        assignment, _, shared = stitch_shards(
            [
                ShardPlacement(
                    slice(*b), fin["assignment"], fin["delta_loads"],
                    res["stats"]["kernel_mode"], res["stats"]["pass_seconds"],
                    fin["peak_tracked"], fin["evictions"],
                )
                for b, res, fin in zip(vertex_bounds, results, finals)
            ],
            stream.num_vertices,
            p,
            workers=self.workers,
            parallel_mode=run_meta["parallel_mode"],
            loads=global_loads,
        )

        monitored_cost = (
            table_comm_cost(bound_counts, C, boundary, stream.edge_weights)
            + interior_cost
        )

        return PartitionResult(
            assignment=assignment,
            num_parts=p,
            algorithm=self.name,
            metadata={
                **shared,
                "base_algorithm": self.base.name,
                "shard_chunk_ranges": ranges,
                "sharded_by": sharded_by,
                "shard_pins": shard_pins,
                "shard_pin_skew": (
                    float(max(shard_pins) / (sum(shard_pins) / len(shard_pins)))
                    if shard_pins and sum(shard_pins)
                    else None
                ),
                "payload": self.payload,
                "tailored": self.tailored,
                "tailored_rows": (
                    [int(sel.size) for sel in sels]
                    if sels is not None
                    else None
                ),
                "broadcast_bytes_saved": (
                    [int(b) for b in broadcast_saved]
                    if sels is not None
                    else None
                ),
                "merge_payload_bytes": int(merge_payload_bytes),
                "merge_full_payload_bytes": int(full_payload_bytes),
                "boundary_payload_bytes": int(boundary_payload_bytes),
                "boundary_edges": int(boundary.size),
                "boundary_vertices": int(boundary_vertices),
                "boundary_iterations": int(boundary_iterations),
                "max_tracked_edges": profile["max_tracked_edges"],
                "monitored_pc_cost": monitored_cost,
                "peak_resident_pins": stream.peak_resident_pins,
                "architecture_aware": aware,
                "wall_time_s": time.perf_counter() - t_start,
                **run_meta,
            },
        )

    # ------------------------------------------------------------------
    def _make_pool(self, stream: ChunkStream, seed, ctx: dict):
        """Build the round-driving pool for this run (override point).

        The default is the forked/sequential :class:`~repro.engine.
        parallel.ShardRounds` over in-process shard generators; the
        distributed streamer (:mod:`repro.cluster`) overrides this to
        drive the *same* generators on remote workers over sockets.
        ``ctx`` carries everything a shard needs (see
        ``partition_stream``); ``seed`` is the resolved root
        ``SeedSequence`` the per-shard ``ctx["rngs"]`` were spawned
        from, so remote pools can ship its entropy and re-derive the
        identical per-shard generators on other hosts.
        """
        del seed  # the spawned generators in ctx already encode it
        tasks = self._local_tasks(stream, ctx)
        return ShardRounds(tasks, self.workers)

    def _local_tasks(self, stream: ChunkStream, ctx: dict) -> list:
        """Zero-arg callables returning the per-shard generators.

        Each task closes over the live stream object — fork-inherited,
        never pickled — and exchanges only plain arrays and scalars.
        """

        def make(k):
            lo, hi = ctx["ranges"][k]
            v_lo, v_hi = ctx["vertex_bounds"][k]
            return lambda: shard_stream_task(
                self.base,
                stream,
                lo=lo,
                hi=hi,
                v_lo=v_lo,
                v_hi=v_hi,
                num_parts=ctx["num_parts"],
                C=ctx["C"],
                counts=ctx["counts"],
                shard_weight=ctx["shard_weights"][k],
                total_weight=ctx["total_weight"],
                nshards=len(ctx["ranges"]),
                edge_w=ctx["edge_w"],
                final_edge_weights=stream.edge_weights,
                rng=ctx["rngs"][k],
                profile=ctx["profile"],
                edge_degrees=ctx["edge_degrees"],
                boundary_ship=ctx["boundary_ship"],
            )

        return [make(k) for k in range(len(ctx["ranges"]))]


def shard_stream_task(
    base,
    stream: ChunkStream,
    *,
    lo: int,
    hi: int,
    v_lo: int,
    v_hi: int,
    num_parts: int,
    C: np.ndarray,
    counts: "tuple[int, int]",
    shard_weight: float,
    total_weight: float,
    nshards: int,
    edge_w: "np.ndarray | None",
    final_edge_weights: "np.ndarray | None",
    rng,
    profile: dict,
    edge_degrees: "np.ndarray | None",
    boundary_ship: bool,
):
    """One shard's generator: stream, ship, then answer restream rounds.

    Protocol (driven by :class:`~repro.engine.parallel.ShardRounds` in
    the forked path, or by a remote :mod:`repro.cluster` worker over a
    socket): the first yield is the phase-1 payload; each
    ``("pass", ctl)`` message answers with that round's deltas;
    ``("stop", ctl)`` triggers the optional rollback and returns the
    final payload.  Everything the shard needs arrives as explicit
    arguments — ``stream`` only has to provide ``iter_range`` and
    ``num_vertices`` — which is what lets a worker process on another
    host run the *same* code against a socket-fed chunk stream and
    produce bit-identical results.
    """
    p = num_parts

    local = np.full(stream.num_vertices, -1, dtype=np.int64)
    state, stats = base._run_shard(
        stream.iter_range(lo, hi),
        p,
        C,
        local,
        stream_counts=counts,
        shard_weight=shard_weight,
        edge_weights=edge_w,
        rng=rng,
    )
    edges, table = state.export_table()
    loads_bytes = state.loads.nbytes
    full_bytes = edges.nbytes + table.nbytes + loads_bytes
    if boundary_ship:
        # Local boundary detection: a net whose locally observed
        # pins fall short of its global degree has pins in some
        # other shard.  LRU undercounts only widen the candidate
        # set (safe), and single-shard candidates are discarded
        # by the driver's occurrence >= 2 rule.
        ship = table.sum(axis=1) < edge_degrees[edges]
        ship_edges, ship_table = edges[ship], table[ship]
    else:
        ship_edges, ship_table = edges, table
    msg = yield {
        "assignment": local[v_lo:v_hi],
        "loads": state.loads.copy(),
        "edges": ship_edges,
        "table": ship_table,
        "payload_bytes": int(
            ship_edges.nbytes + ship_table.nbytes + loads_bytes
        ),
        "full_payload_bytes": int(full_bytes),
        "stats": stats,
    }

    # -------- sharded boundary restream rounds --------
    block: "VertexBlock | None" = None
    scaled_block: "VertexBlock | None" = None
    my_edges = np.empty(0, dtype=np.int64)
    my_sel = np.empty(0, dtype=np.int64)
    pin_rows = np.empty(0, dtype=np.int64)
    pin_owner = np.empty(0, dtype=np.int64)
    best: "np.ndarray | None" = None
    loads_after = state.loads.copy()

    boundary = np.empty(0, dtype=np.int64)

    def build_block(boundary_edges):
        """One-time boundary block setup (announce round or lazy v1)."""
        nonlocal block, scaled_block, my_edges, my_sel, pin_rows, pin_owner
        nonlocal boundary
        boundary = boundary_edges
        block = _boundary_block(stream, boundary, lo, hi)
        # Boundary nets with pins in this shard are exactly
        # the boundary nets its boundary vertices touch.
        my_edges = (
            np.intersect1d(boundary, block.vertex_edges)
            if block.num_vertices
            else np.empty(0, dtype=np.int64)
        )
        my_sel = np.searchsorted(boundary, my_edges)
        # Per-pin scatter indices for move_deltas: which
        # boundary row and which block vertex each pin of
        # the block belongs to.
        pin_mask = np.isin(block.vertex_edges, my_edges)
        pin_rows = np.searchsorted(my_edges, block.vertex_edges[pin_mask])
        pin_owner = np.repeat(
            np.arange(block.num_vertices, dtype=np.int64),
            np.diff(block.vertex_ptr),
        )[pin_mask]
        # The fix-up scores against global targets, not the
        # shard-scoped ones phase 1 streamed with.
        state.expected_loads = np.full(p, total_weight / p)
        # Mean-field damping: every shard restreams against
        # the same loads snapshot simultaneously, so each
        # scores its own moves scaled by the shard count —
        # anticipating that the other shards make similar
        # moves — or the synchronised overshoot oscillates
        # and tempering never reaches tolerance.  Deltas are
        # normalised back before they reach the driver.
        scaled_block = replace(
            block, vertex_weights=block.vertex_weights * nshards
        )

    def move_deltas(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Boundary-row deltas from the block's actual moves.

        Derived from the assignment change, *not* from table
        rows: a capped LRU table can evict an overlaid boundary
        row mid-pass, and a row-difference would then report
        ``-snapshot`` and erase real pins from the driver's
        merged counts.  Moves are eviction-proof.
        """
        delta = np.zeros((my_edges.size, p), dtype=np.int64)
        if pin_rows.size:
            np.subtract.at(delta, (pin_rows, prev[pin_owner]), 1)
            np.add.at(delta, (pin_rows, new[pin_owner]), 1)
        return delta

    tailored = False
    while msg[0] in ("boundary", "pass"):
        if msg[0] == "boundary":
            # Announce round (tailored mode): build the block once and
            # report the touched boundary rows; every later round ships
            # only those rows back.
            tailored = True
            build_block(msg[1]["boundary_edges"])
            msg = yield {
                "edge_sel": my_sel,
                "payload_bytes": int(my_sel.nbytes),
            }
            continue
        ctl = msg[1]
        if block is None:
            build_block(ctl["boundary_edges"])
        if ctl["record_best"] and block.num_vertices:
            best = local[block.ids].copy()
        # Overlay the driver's merged snapshot: global counts for
        # the boundary nets this shard touches, global loads.  A
        # tailored round ships exactly those rows (``rows``); a v1
        # broadcast ships the full snapshot and we select our slice.
        rows = ctl["rows"] if tailored else ctl["boundary_counts"][my_sel]
        state.set_rows(my_edges, rows)
        state.loads[:] = ctl["loads"]
        prev = local[block.ids].copy() if block.num_vertices else None
        damp = ctl["damp"]
        if block.num_vertices:
            scorer = _boundary_scorer(
                C, ctl["alpha"], state.expected_loads, profile
            )
            pass_kernel(
                (scaled_block if damp else block,),
                state, scorer, local, restream=True,
                score_mode="vertex",
            )
        if damp:
            # Normalise the scaled movement back to true weight.
            state.loads[:] = ctl["loads"] + (
                state.loads - ctl["loads"]
            ) / nshards
        loads_after = state.loads.copy()
        delta_counts = (
            move_deltas(prev, local[block.ids])
            if block.num_vertices
            else np.zeros((0, p), dtype=np.int64)
        )
        reply = {
            "delta_loads": loads_after - ctl["loads"],
            "delta_counts": delta_counts,
            "interior_cost": state.pc_cost(
                C, edge_weights=edge_w, exclude_edges=boundary
            ),
            "payload_bytes": int(
                delta_counts.nbytes + loads_after.nbytes
            ),
        }
        if not tailored:
            # v1 rounds ship the row selector every pass; tailored
            # rounds announced it once, so the driver already has it.
            reply["edge_sel"] = my_sel
            reply["payload_bytes"] += int(my_sel.nbytes)
        msg = yield reply

    # -------- stop: optional rollback, final payload --------
    ctl = msg[1]
    boundary = ctl["boundary_edges"]
    prev = (
        local[block.ids].copy()
        if block is not None and block.num_vertices
        else None
    )
    if ctl["rollback"] and best is not None:
        move_back(state, block, local, best)
    return {
        "assignment": local[v_lo:v_hi],
        "delta_loads": state.loads - loads_after,
        "edge_sel": my_sel,
        "delta_counts": (
            move_deltas(prev, local[block.ids])
            if prev is not None
            else np.zeros((0, p), dtype=np.int64)
        ),
        "interior_cost": state.pc_cost(
            C,
            edge_weights=final_edge_weights,
            exclude_edges=boundary,
        ),
        "boundary_vertices": (
            int(block.num_vertices) if block is not None else 0
        ),
        "evictions": state.evictions,
        "peak_tracked": state.peak_tracked_edges,
    }


def _boundary_block(
    stream: ChunkStream, boundary_edges: np.ndarray, lo: int, hi: int
) -> VertexBlock:
    """Collect this shard's vertices incident to a boundary net.

    One extra (cheap, read-only) pass over chunks ``[lo, hi)``;
    ``boundary_edges`` must be sorted ascending (as
    :func:`~repro.engine.parallel.merge_shard_tables` returns it).
    """
    hits: "list[VertexBlock]" = []
    for chunk in stream.iter_range(lo, hi):
        if chunk.vertex_edges.size == 0:
            continue
        hit = np.isin(chunk.vertex_edges, boundary_edges)
        if not hit.any():
            continue
        vert_hit = segment_reduce(np.logical_or, hit, chunk.vertex_ptr, False)
        hits.append(chunk.take(np.flatnonzero(vert_hit)))
    return concat_blocks(hits)
