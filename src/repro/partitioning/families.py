"""Competitor partitioner families on the shared engine, plus the registry.

HyperPRAW's claim is that architecture-aware restreaming beats
architecture-blind streaming — which needs external competitors to beat,
not just its own ablations.  This module adds the two families ROADMAP
item 4 names, a quality-polish stage, and the registry that makes any of
them reachable from the Python API, the ``stream`` CLI and the service
``partitioner=`` knob with one entry:

* :class:`NeighborhoodExpansion` (``hype``) — HYPE-style neighbourhood
  expansion (Mayer et al.): visit vertices in fringe-expansion order
  (:func:`~repro.engine.blocks.expansion_order`), score with the
  external-neighbour-minimisation
  :class:`~repro.engine.scorers.HypeScorer`, and let the kernel's hard
  balance cap provide HYPE's part-size bound — parts fill neighbourhood
  by neighbourhood.
* :class:`MinMaxStreamer` (``minmax``) — the limited-memory min-max
  streaming family of Taşyaran et al. (arXiv:2103.05394): a greedy
  min-max net-connectivity objective
  (:class:`~repro.engine.scorers.MinMaxScorer` over
  :class:`MinMaxState`, a presence view over the capped-LRU
  :class:`~repro.streaming.state.StreamingState` that inherits its
  eviction order and adds a connectivity counter), plus a
  similarity-ordered buffered variant (``buffer_size=``) that reorders
  each arrival window so vertices sharing nets are placed consecutively.
  Both run under the same ``max_tracked_edges`` bound as
  ``OnePassStreamer`` so memory-fairness comparisons are honest.
* :class:`PolishedStreamer` / :func:`refine_partition` — a
  post-streaming FM-style boundary refinement (Mt-KaHyPar lineage):
  propose positive-gain single-vertex moves in parallel over the
  :mod:`repro.engine.parallel` worker pool against a frozen snapshot,
  then apply them sequentially (re-validated, balance-capped) — so the
  result is identical for any worker count, forked or sequential.
  Attachable to *any* partitioner's output via ``refine=``.

The :data:`PARTITIONERS` registry is the single source of truth for
"what can the repo run": the service validates ``partitioner=`` against
it, the OpenAPI enum is generated from it, the ``stream`` CLI offers it,
and ``tests/test_invariants.py`` introspects it so every registered
family gets the randomized invariant matrix automatically.  Beside it,
:data:`PARTITION_KNOBS` declares every knob that shapes a run (name,
type, choices or bounds, default, description) once:
:func:`partition_spec` validates raw strings against it for the
service and the CLI, the OpenAPI parameters are generated from it, and
:func:`build_partitioner` turns the validated spec into a partitioner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.base import Partitioner, StreamPartitioner
from repro.core.metrics import cut_edges, cut_from_counts
from repro.core.result import PartitionResult
from repro.engine import (
    DenseKernelState,
    HypeScorer,
    InMemorySource,
    MinMaxScorer,
    ShardPlacement,
    check_knobs,
    concat_blocks,
    expansion_order,
    pass_kernel,
    run_shards,
    run_tasks,
    segment_reduce,
    shard_bounds,
    shard_ranges,
    shard_ranges_by_pins,
    stream_windows,
)
from repro.hypergraph.model import Hypergraph
from repro.streaming.reader import DEFAULT_CHUNK_SIZE, assemble
from repro.streaming.state import (
    StreamingState,
    presence_state,
    resolve_cost_matrix,
)

__all__ = [
    "FamilySpec",
    "PARTITIONERS",
    "Knob",
    "PARTITION_KNOBS",
    "partition_spec",
    "family_names",
    "get_family",
    "build_partitioner",
    "NeighborhoodExpansion",
    "MinMaxStreamer",
    "MinMaxState",
    "RefineConfig",
    "refine_partition",
    "refine_blocks",
    "PolishedStreamer",
]


# ----------------------------------------------------------------------
# (i) HYPE-style neighbourhood expansion
# ----------------------------------------------------------------------
class NeighborhoodExpansion(Partitioner):
    """HYPE-style greedy neighbourhood-expansion partitioner.

    Visits vertices in fringe-expansion order and places each at the
    argmax of the external-neighbour-minimisation score under a hard
    balance cap: with no load term in the score, a part absorbs its seed
    vertex's whole neighbourhood until the cap forbids it, and the
    expansion spills into the next part — HYPE's grow-one-part-at-a-time
    behaviour expressed through the shared engine kernel.

    Parameters
    ----------
    balance_slack:
        hard cap on any part's load as a multiple of the balanced share
        (HYPE's part-size bound; must be > 1).
    expansion_penalty:
        weight on external neighbours in the score (``lambda`` of
        :class:`~repro.engine.scorers.HypeScorer`).
    chunk_size:
        vertices per kernel block (chunk-mode granularity).
    max_expand_net:
        hub-net guard for the fringe order (see
        :func:`~repro.engine.blocks.expansion_order`).
    max_tracked_edges:
        ``None`` (default) runs against the exact dense table; an
        integer swaps in the same capped-LRU
        :class:`~repro.streaming.state.StreamingState` the out-of-core
        streamers use under a cap (both built by
        :func:`~repro.streaming.state.presence_state`) — the fringe
        order is exactly the access pattern that stresses its eviction
        policy differently from sequential arrival.
    score_mode / kernel:
        kernel scoring mode and implementation, as in the streamers.
    workers:
        splits the expansion order into pin-balanced contiguous slices
        placed by forked workers on independent states (the phase-1
        stitch of :func:`~repro.engine.parallel.stitch_shards`: disjoint
        vertex ranges, summed loads, per-shard caps that add up to the
        global cap).  ``1`` is a one-shard run of the same path.
    """

    name = "hype"

    def __init__(
        self,
        *,
        balance_slack: float = 1.05,
        expansion_penalty: float = 1.0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_expand_net: "int | None" = 256,
        max_tracked_edges: "int | None" = None,
        score_mode: str = "vertex",
        kernel: str = "auto",
        workers: int = 1,
    ) -> None:
        if balance_slack <= 1.0:
            raise ValueError(f"balance_slack must be > 1, got {balance_slack}")
        check_knobs(
            chunk_size=chunk_size, score_mode=score_mode, kernel=kernel,
            workers=workers,
        )
        self.balance_slack = float(balance_slack)
        self.expansion_penalty = float(expansion_penalty)
        self.chunk_size = int(chunk_size)
        self.max_expand_net = max_expand_net
        self.max_tracked_edges = max_tracked_edges
        self.score_mode = score_mode
        self.kernel = kernel
        self.workers = int(workers)

    # ------------------------------------------------------------------
    def partition(
        self,
        hg: Hypergraph,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Grow ``num_parts`` parts over ``hg`` by neighbourhood expansion."""
        del seed  # fully deterministic: order and score are seed-free
        self._check_args(hg, num_parts)
        t_start = time.perf_counter()
        p = num_parts
        # The score never reads C — HYPE is architecture-blind; resolve
        # only to validate the argument.
        resolve_cost_matrix(cost_matrix, p)
        order = expansion_order(hg, max_expand_net=self.max_expand_net)
        total_weight = hg.total_vertex_weight()
        scorer = HypeScorer(self.expansion_penalty)

        degs = np.diff(hg.vertex_ptr)
        # one "chunk" per kernel block of the expansion order, so worker
        # cuts land on block boundaries (pin-balanced, contiguous).
        block_pins = [
            int(degs[order[s : s + self.chunk_size]].sum())
            for s in range(0, order.size, self.chunk_size)
        ]
        ranges = shard_ranges_by_pins(block_pins, self.workers)
        bounds = [
            (lo * self.chunk_size, min(hi * self.chunk_size, order.size))
            for lo, hi in ranges
        ]

        def make_task(a: int, b: int):
            part_order = order[a:b]

            def task():
                shard_weight = float(hg.vertex_weights[part_order].sum())
                state = presence_state(
                    p, hg.num_edges, np.full(p, max(shard_weight, 1e-12) / p),
                    self.max_tracked_edges,
                )
                local = np.full(hg.num_vertices, -1, dtype=np.int64)
                cap = self.balance_slack * shard_weight / p
                t_pass = time.perf_counter()
                kernel_mode = pass_kernel(
                    InMemorySource(
                        hg, order=part_order, block_size=self.chunk_size
                    ).blocks(),
                    state,
                    scorer,
                    local,
                    restream=False,
                    score_mode=self.score_mode,
                    cap=cap,
                    kernel=self.kernel,
                )
                stats = {
                    "kernel_mode": kernel_mode,
                    "pass_seconds": time.perf_counter() - t_pass,
                }
                placement = ShardPlacement.from_state(
                    part_order, local[part_order], state, stats
                )
                return placement, None

            return task

        assignment, shared, _ = run_shards(
            [make_task(a, b) for a, b in bounds], self.workers,
            hg.num_vertices, p,
        )
        return PartitionResult(
            assignment=assignment,
            num_parts=p,
            algorithm=self.name,
            metadata={
                **shared,
                "single_pass": True,
                "expansion_penalty": self.expansion_penalty,
                "balance_slack": self.balance_slack,
                "max_expand_net": self.max_expand_net,
                "score_mode": self.score_mode,
                "max_tracked_edges": self.max_tracked_edges,
                "architecture_aware": False,
                "total_weight": total_weight,
                "wall_time_s": time.perf_counter() - t_start,
            },
        )

    def partition_stream(
        self,
        stream,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Serve a chunk stream by materialising it first.

        HYPE needs random access for its fringe; replayed chunk stores
        are rebuilt into an in-memory hypergraph
        (:func:`~repro.streaming.reader.assemble`) and partitioned
        there.  ``peak_resident_pins`` consequently reports the full pin
        count — the honest number for a family that is not out-of-core.
        """
        hg = assemble(stream)
        result = self.partition(
            hg, num_parts, cost_matrix=cost_matrix, seed=seed
        )
        result.metadata["materialised_stream"] = True
        result.metadata["peak_resident_pins"] = int(hg.num_pins)
        return result


# ----------------------------------------------------------------------
# (ii) limited-memory min-max streaming
# ----------------------------------------------------------------------
class MinMaxState(StreamingState):
    """Capped-LRU presence view with a live per-part connectivity counter.

    The base table's LRU policy, unchanged, plus two deltas serving the
    min-max objective:

    * :meth:`gather`/:meth:`gather_block` read net **presence** — how
      many of the vertex's incident nets already have a pin in each
      part — instead of summed pin counts;
    * ``connectivity[i]`` tracks the number of *tracked* (net, part)
      incidences, the per-part connectivity load the objective caps.

    Under LRU eviction both keep the table's documented lower-bound
    semantics: an evicted net's incidences leave the counter, exactly as
    its counts leave the table.
    """

    def __init__(
        self,
        num_parts: int,
        *,
        expected_loads: np.ndarray,
        max_tracked_edges: "int | None" = None,
    ) -> None:
        super().__init__(
            num_parts,
            expected_loads=expected_loads,
            max_tracked_edges=max_tracked_edges,
        )
        self.connectivity = np.zeros(num_parts, dtype=np.int64)

    def _read(self, rows: np.ndarray) -> np.ndarray:
        return np.minimum(rows, 1)  # counts never go below zero

    def _evict(self, slot: int) -> None:
        # the evicted net's incidences leave the counter with its row
        self.connectivity -= self._table[slot] > 0
        super()._evict(slot)

    def _shift(self, slots: np.ndarray, part: int, delta: int) -> None:
        # a pin landing on an empty (net, part), or the last one leaving
        before = self._table[slots, part]
        self.connectivity[part] += delta * np.count_nonzero(
            before == (0 if delta > 0 else 1)
        )
        super()._shift(slots, part, delta)

    def _recount(self) -> None:
        _, slots = self._tracked()
        self.connectivity[:] = (self._table[slots] > 0).sum(axis=0)

    def seed_table(self, edges: np.ndarray, counts: np.ndarray) -> None:
        super().seed_table(edges, counts)
        self._recount()

    def set_rows(self, edges: np.ndarray, counts: np.ndarray) -> None:
        super().set_rows(edges, counts)
        self._recount()


class MinMaxStreamer(StreamPartitioner):
    """Limited-memory min-max streaming partitioner (Taşyaran et al.).

    Single-pass placement at the argmax of the greedy min-max
    connectivity score, against :class:`MinMaxState` under the same
    ``max_tracked_edges`` capped-LRU bound as ``OnePassStreamer``.

    Parameters
    ----------
    chunk_size:
        vertices per arriving chunk when adapting an in-memory
        hypergraph.
    balance_slack:
        hard balance cap multiple (> 1).
    tie_penalty:
        load tie-break weight of the scorer.
    max_tracked_edges:
        presence-table cap (``None`` = unbounded / exact).
    buffer_size:
        ``None`` (default) places strictly in arrival order.  An integer
        enables the **similarity-ordered buffered variant**: vertices
        accumulate into windows of at least this many, and each window
        is reordered so vertices sharing their lowest incident net are
        placed consecutively (the cheap deterministic proxy for
        arXiv:2103.05394's similarity-based reordering) before the
        normal kernel pass places the window.
    score_mode / kernel:
        kernel scoring mode and implementation, as in the streamers.
    workers:
        splits the chunk stream into pin-balanced contiguous ranges
        streamed by forked workers on independent states (phase-1
        sharding: disjoint vertex ranges, summed loads, per-shard caps).
        ``1`` is a one-shard run of the same path.
    """

    name = "stream-minmax"

    def __init__(
        self,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        balance_slack: float = 1.1,
        tie_penalty: float = 1e-3,
        max_tracked_edges: "int | None" = None,
        buffer_size: "int | None" = None,
        score_mode: str = "vertex",
        kernel: str = "auto",
        workers: int = 1,
    ) -> None:
        check_knobs(
            chunk_size=chunk_size, score_mode=score_mode, kernel=kernel,
            workers=workers,
        )
        if balance_slack <= 1.0:
            raise ValueError(f"balance_slack must be > 1, got {balance_slack}")
        if buffer_size is not None and buffer_size < 1:
            raise ValueError(
                f"buffer_size must be >= 1 or None, got {buffer_size}"
            )
        self.chunk_size = int(chunk_size)
        self.balance_slack = float(balance_slack)
        self.tie_penalty = float(tie_penalty)
        self.max_tracked_edges = max_tracked_edges
        self.buffer_size = buffer_size
        self.score_mode = score_mode
        self.kernel = kernel
        self.workers = int(workers)

    # ------------------------------------------------------------------
    def partition_stream(
        self,
        stream,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Place every vertex of ``stream`` in a single min-max pass.

        The stream is cut into ``workers`` pin-balanced chunk ranges
        (one range at ``workers=1``), each placed on its own state.
        """
        del seed  # deterministic: the min-max greedy has no randomness
        self._check_args(stream, num_parts)
        t_start = time.perf_counter()
        p = num_parts
        # min-max is architecture-blind; C only feeds monitoring
        C, _ = resolve_cost_matrix(cost_matrix, p)
        chunk_pins = stream.chunk_pins()
        if chunk_pins is None or len(chunk_pins) != stream.num_chunks:
            ranges = shard_ranges(stream.num_chunks, self.workers)
        else:
            ranges = shard_ranges_by_pins(chunk_pins, self.workers)
        vertex_bounds, shard_weights = shard_bounds(stream, ranges)
        single = len(ranges) == 1

        def make_task(k: int):
            lo, hi = ranges[k]
            a, b = vertex_bounds[k]

            def task():
                local = np.full(stream.num_vertices, -1, dtype=np.int64)
                state, stats = self._run_shard(
                    stream.iter_range(lo, hi), p, local,
                    shard_weight=shard_weights[k],
                )
                placement = ShardPlacement.from_state(
                    slice(a, b), local[a:b], state, stats
                )
                cost = None
                if single:  # only a lone shard's table sees every pin
                    cost = state.pc_cost(C, edge_weights=stream.edge_weights)
                return placement, (int(state.connectivity.max()), cost)

            return task

        assignment, shared, extras = run_shards(
            [make_task(k) for k in range(len(ranges))], self.workers,
            stream.num_vertices, p,
        )
        return PartitionResult(
            assignment=assignment,
            num_parts=p,
            algorithm=self.name,
            metadata={
                **shared,
                "single_pass": True,
                "objective": "minmax-connectivity",
                "score_mode": self.score_mode,
                "balance_slack": self.balance_slack,
                "buffer_size": self.buffer_size,
                "similarity_ordered": self.buffer_size is not None,
                "max_tracked_edges": self.max_tracked_edges,
                "max_connectivity": max(conn for conn, _ in extras),
                "monitored_pc_cost": extras[0][1],
                "peak_resident_pins": stream.peak_resident_pins,
                "architecture_aware": False,
                "wall_time_s": time.perf_counter() - t_start,
            },
        )

    # ------------------------------------------------------------------
    def _run_shard(
        self,
        chunks,
        num_parts: int,
        assignment: np.ndarray,
        *,
        shard_weight: float,
    ) -> "tuple[MinMaxState, dict]":
        p = num_parts
        state = MinMaxState(
            p,
            expected_loads=np.full(p, max(shard_weight, 1e-12) / p),
            max_tracked_edges=self.max_tracked_edges,
        )
        scorer = MinMaxScorer(
            state.connectivity, state.expected_loads, self.tie_penalty
        )
        cap = self.balance_slack * shard_weight / p
        t_pass = time.perf_counter()
        if self.buffer_size is not None:
            chunks = self._similarity_windows(chunks)
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
            "kernel_mode": kernel_mode,
            "pass_seconds": time.perf_counter() - t_pass,
        }

    def _similarity_windows(self, chunks):
        """Window the arrivals and reorder each window by net similarity.

        Vertices are grouped by their lowest incident net id (stable,
        deterministic): vertices sharing that net become consecutive, so
        the presence rows they score against are the rows the previous
        placement just updated — the locality the buffered variants of
        arXiv:2103.05394 engineer with their similarity orders.
        """
        for window in stream_windows(chunks, self.buffer_size, split=False):
            key = segment_reduce(
                np.minimum, window.vertex_edges, window.vertex_ptr,
                np.iinfo(np.int64).max,
            )
            yield window.take(np.lexsort((window.ids, key)))


# ----------------------------------------------------------------------
# (iii) FM-style boundary refinement polish
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RefineConfig:
    """Knobs of the post-streaming boundary polish.

    Attributes
    ----------
    passes:
        maximum propose/apply rounds (a round applying zero moves stops
        early).
    balance_slack:
        hard cap multiple a move may not push its target part over
        (moves out of an *overloaded* part are additionally allowed when
        they strictly reduce the overload).
    workers:
        size of the :func:`repro.engine.parallel.run_tasks` pool the
        propose phase fans out over.  Results are identical for every
        worker count: proposals are computed against a frozen snapshot
        and applied sequentially in a deterministic order.
    min_gain:
        strict gain threshold a proposal must exceed (in weighted-cut
        units).
    """

    passes: int = 4
    balance_slack: float = 1.1
    workers: int = 1
    min_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        if self.balance_slack <= 1.0:
            raise ValueError(
                f"balance_slack must be > 1, got {self.balance_slack}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.min_gain < 0:
            raise ValueError(f"min_gain must be >= 0, got {self.min_gain}")


def _propose_moves(blocks, counts, assignment, edge_weights, cut_flags, min_gain):
    """Scan a shard of blocks against frozen counts; return candidates.

    A vertex is a candidate only if one of its nets is currently cut
    (``cut_flags``); for those, the exact weighted-cut delta of moving
    it to each other part is computed vectorised, and the best strictly
    positive move is proposed as ``(gain, v, src, dst, w_v, edges)``.
    """
    moves = []
    for block in blocks:
        for i in range(block.num_vertices):
            edges = block.edges_of(i)
            if edges.size == 0 or not cut_flags[edges].any():
                continue
            v = int(block.ids[i])
            a = int(assignment[v])
            rows = counts[edges]
            nnz = np.count_nonzero(rows, axis=1)
            own = rows[:, a]
            # cut state after moving v from a to each candidate target
            nnz_after = nnz[:, None] - (own == 1)[:, None] + (rows == 0)
            diff = (nnz >= 2)[:, None].astype(np.float64) - (nnz_after >= 2)
            if edge_weights is None:
                gains = diff.sum(axis=0)
            else:
                gains = (diff * edge_weights[edges][:, None]).sum(axis=0)
            gains[a] = -np.inf
            b = int(np.argmax(gains))
            gain = float(gains[b])
            if gain > min_gain:
                moves.append(
                    (gain, v, a, b, float(block.vertex_weights[i]), edges)
                )
    return moves


def _apply_moves(moves, counts, assignment, loads, edge_weights, cap, min_gain):
    """Apply proposals best-gain first, re-validated against live state."""
    applied = 0
    for gain0, v, a, b, w_v, edges in sorted(
        moves, key=lambda m: (-m[0], m[1])
    ):
        if int(assignment[v]) != a:  # defensive: one proposal per vertex
            continue
        rows = counts[edges]
        nnz = np.count_nonzero(rows, axis=1)
        own = rows[:, a]
        nnz_after = nnz - (own == 1) + (rows[:, b] == 0)
        diff = ((nnz >= 2).astype(np.float64) - (nnz_after >= 2)).astype(
            np.float64
        )
        if edge_weights is None:
            gain = float(diff.sum())
        else:
            gain = float((diff * edge_weights[edges]).sum())
        if gain <= min_gain:
            continue
        if loads[b] + w_v > cap and not (
            loads[a] > cap and loads[b] + w_v < loads[a]
        ):
            continue
        counts[edges, a] -= 1
        counts[edges, b] += 1
        loads[a] -= w_v
        loads[b] += w_v
        assignment[v] = b
        applied += 1
    return applied


def refine_blocks(
    blocks,
    assignment: np.ndarray,
    num_parts: int,
    *,
    num_edges: int,
    edge_weights: "np.ndarray | None" = None,
    refine: "RefineConfig | None" = None,
) -> "tuple[np.ndarray, dict]":
    """FM-style boundary refinement over a list of vertex blocks.

    Each pass proposes positive-gain single-vertex moves in parallel
    against a frozen snapshot of the dense per-edge counts (forked
    workers see a copy-on-write snapshot; the sequential fallback sees
    the same unmutated arrays), then applies them sequentially in
    best-gain order, re-validating every move against the live counts
    and the balance cap.  The propose/apply split is what makes the
    result independent of the worker count.

    ``assignment`` is mutated in place and also returned, together with
    a stats dict (``cut_before``/``cut_after`` in weighted-cut units).
    """
    refine = refine or RefineConfig()
    blocks = list(blocks)
    state = DenseKernelState.empty(num_edges, num_parts)
    counts, loads = state.edge_counts, state.loads
    for block in blocks:
        parts = assignment[block.ids]
        state.insert_block(block.vertex_edges, block.vertex_ptr, parts)
        loads += np.bincount(
            parts, weights=block.vertex_weights, minlength=num_parts
        )
    total = float(loads.sum())
    cap = refine.balance_slack * total / num_parts
    cut_before = cut_from_counts(counts, edge_weights)

    block_pins = [b.num_pins for b in blocks]
    ranges = (
        shard_ranges_by_pins(block_pins, refine.workers) if blocks else []
    )
    t_start = time.perf_counter()
    total_moves = 0
    passes_run = 0
    for _ in range(refine.passes):
        passes_run += 1
        cut_flags = cut_edges(counts)
        tasks = [
            (
                lambda lo=lo, hi=hi: _propose_moves(
                    blocks[lo:hi],
                    counts,
                    assignment,
                    edge_weights,
                    cut_flags,
                    refine.min_gain,
                )
            )
            for lo, hi in ranges
        ]
        proposals, parallel_mode = run_tasks(tasks, refine.workers)
        moves = [m for sub in proposals for m in sub]
        applied = _apply_moves(
            moves, counts, assignment, loads, edge_weights, cap, refine.min_gain
        )
        total_moves += applied
        if applied == 0:
            break
    mean = loads.sum() / num_parts
    stats = {
        "refine_passes": passes_run,
        "refine_moves": total_moves,
        "refine_cut_before": cut_before,
        "refine_cut_after": cut_from_counts(counts, edge_weights),
        "refine_seconds": time.perf_counter() - t_start,
        "refine_workers": refine.workers,
        "refine_parallel_mode": parallel_mode,
        "imbalance": float(loads.max() / mean) if mean else 1.0,
    }
    return assignment, stats


def refine_partition(
    hg: Hypergraph,
    assignment: np.ndarray,
    num_parts: int,
    *,
    refine: "RefineConfig | None" = None,
) -> "tuple[np.ndarray, dict]":
    """Polish an in-memory partition with FM-style boundary moves.

    Returns a *new* assignment array (the input is not mutated) and the
    refinement stats of :func:`refine_blocks`.
    """
    refined = np.array(assignment, dtype=np.int64, copy=True)
    blocks = InMemorySource(hg, block_size=512).blocks()
    return refine_blocks(
        blocks,
        refined,
        num_parts,
        num_edges=hg.num_edges,
        edge_weights=hg.edge_weights,
        refine=refine,
    )


class PolishedStreamer(Partitioner):
    """Attach the FM-style boundary polish to any partitioner via ``refine=``.

    Runs the wrapped partitioner, then refines its assignment
    (:func:`refine_blocks`) and reports the polish under ``refine_*``
    metadata keys.  Works on both faces: ``partition`` polishes against
    the in-memory hypergraph, ``partition_stream`` re-replays the
    (re-iterable) chunk stream to build the polish's block list — the
    polish is a shared-memory stage (dense ``E x p`` counts), which is
    the Mt-KaHyPar-lineage trade: memory for quality, after the bounded
    streaming pass has done the placement.
    """

    def __init__(
        self, base: Partitioner, *, refine: "RefineConfig | None" = None
    ) -> None:
        if not hasattr(base, "partition"):
            raise TypeError(f"base must be a Partitioner, got {type(base)!r}")
        self.base = base
        self.refine = refine or RefineConfig()
        self.name = f"{base.name}+fm"

    def partition(
        self,
        hg: Hypergraph,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        result = self.base.partition(
            hg, num_parts, cost_matrix=cost_matrix, seed=seed
        )
        refined, stats = refine_partition(
            hg, result.assignment, num_parts, refine=self.refine
        )
        return self._wrap(result, refined, num_parts, stats)

    def partition_stream(
        self,
        stream,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        result = self.base.partition_stream(
            stream, num_parts, cost_matrix=cost_matrix, seed=seed
        )
        # copies: stream chunks may reuse or unmap their buffers
        blocks = [concat_blocks([b]) for b in stream]
        refined = np.array(result.assignment, dtype=np.int64, copy=True)
        refined, stats = refine_blocks(
            blocks,
            refined,
            num_parts,
            num_edges=stream.num_edges,
            edge_weights=stream.edge_weights,
            refine=self.refine,
        )
        return self._wrap(result, refined, num_parts, stats)

    def _wrap(self, result, refined, num_parts, stats) -> PartitionResult:
        return PartitionResult(
            assignment=refined,
            num_parts=num_parts,
            algorithm=self.name,
            iterations=result.iterations,
            metadata={**result.metadata, "refined": True, **stats},
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FamilySpec:
    """One registered partitioner family.

    Attributes
    ----------
    name:
        registry key — the ``partitioner=`` value the service accepts
        and the OpenAPI enum advertises.
    summary:
        one-line description (docs, CLI help).
    build:
        ``(spec, num_vertices) -> Partitioner`` — instantiate from a
        spec validated by :func:`partition_spec`.
    make:
        ``(hg, workers) -> Partitioner`` — the default-configuration
        factory the invariant matrix and benches use (``hg`` sizes
        windows; ``workers`` exercises the family's parallel path).
    imbalance_bound:
        hard bound on ``max/mean`` load the invariant matrix asserts at
        ``workers=1``.
    sharded_imbalance_bound:
        the (possibly looser) bound asserted at ``workers > 1``.
    """

    name: str
    summary: str
    build: Callable
    make: Callable
    imbalance_bound: float
    sharded_imbalance_bound: float

    def bound(self, workers: int) -> float:
        return (
            self.imbalance_bound
            if workers <= 1
            else self.sharded_imbalance_bound
        )


def _invariant_config():
    from repro.core.config import HyperPRAWConfig

    return HyperPRAWConfig(record_history=False, max_iterations=40)


def _build_onepass(spec: dict, num_vertices: int):
    from repro.streaming.onepass import OnePassStreamer

    return OnePassStreamer(
        scorer=spec["scorer"],
        gamma=spec["gamma"],
        kernel=spec["kernel"],
        workers=spec["workers"],
        shard_payload=spec["shard_payload"],
        shard_by=spec["shard_by"],
        max_tracked_edges=spec["max_tracked_edges"],
    )


def _build_buffered(spec: dict, num_vertices: int):
    from repro.core.config import HyperPRAWConfig
    from repro.streaming.restream import BufferedRestreamer

    config = HyperPRAWConfig(
        max_iterations=spec["max_iterations"],
        record_history=False,
        shard_payload=spec["shard_payload"],
        shard_by=spec["shard_by"],
        kernel=spec["kernel"],
    )
    buffer_size = spec["buffer_size"] or max(
        1, int(round(spec["buffer_fraction"] * num_vertices))
    )
    return BufferedRestreamer(
        config,
        buffer_size=buffer_size,
        max_tracked_edges=spec["max_tracked_edges"],
        workers=spec["workers"],
    )


def _build_hype(spec: dict, num_vertices: int):
    return NeighborhoodExpansion(
        kernel=spec["kernel"],
        workers=spec["workers"],
        max_tracked_edges=spec["max_tracked_edges"],
    )


def _build_minmax(spec: dict, num_vertices: int):
    return MinMaxStreamer(
        kernel=spec["kernel"],
        workers=spec["workers"],
        max_tracked_edges=spec["max_tracked_edges"],
        buffer_size=spec["buffer_size"],
    )


def _make_onepass(hg, workers: int = 1):
    from repro.streaming.onepass import OnePassStreamer

    return OnePassStreamer(chunk_size=32, workers=workers)


def _make_buffered(hg, workers: int = 1):
    from repro.streaming.restream import BufferedRestreamer

    return BufferedRestreamer(
        _invariant_config(),
        buffer_size=max(1, hg.num_vertices // 4),
        chunk_size=32,
        workers=workers,
    )


def _make_sharded(hg, workers: int = 1):
    from repro.streaming.restream import BufferedRestreamer
    from repro.streaming.sharded import ShardedStreamer

    return ShardedStreamer(
        BufferedRestreamer(
            _invariant_config(), buffer_size=max(1, hg.num_vertices // 4)
        ),
        workers=workers,
        chunk_size=32,
    )


def _make_hype(hg, workers: int = 1):
    return NeighborhoodExpansion(chunk_size=32, workers=workers)


def _make_minmax(hg, workers: int = 1):
    return MinMaxStreamer(chunk_size=32, workers=workers)


#: The partitioner registry: ``partitioner=`` knob -> family.  Order is
#: presentation order (docs, OpenAPI enum, CLI help).
PARTITIONERS: "dict[str, FamilySpec]" = {
    spec.name: spec
    for spec in (
        FamilySpec(
            name="onepass",
            summary=(
                "single-pass Eq. 1 / FENNEL streaming placement over the "
                "capped-LRU presence table"
            ),
            build=_build_onepass,
            make=_make_onepass,
            imbalance_bound=1.2,
            sharded_imbalance_bound=1.25,
        ),
        FamilySpec(
            name="buffered",
            summary=(
                "windowed HyperPRAW restreaming (BufferedRestreamer) — "
                "exact HyperPRAW at unbounded buffer"
            ),
            build=_build_buffered,
            make=_make_buffered,
            imbalance_bound=1.1,
            sharded_imbalance_bound=1.25,
        ),
        FamilySpec(
            name="sharded",
            summary=(
                "the buffered restreamer fanned out over forked workers "
                "with boundary-only merges"
            ),
            build=_build_buffered,
            make=_make_sharded,
            imbalance_bound=1.25,
            sharded_imbalance_bound=1.25,
        ),
        FamilySpec(
            name="hype",
            summary=(
                "HYPE-style neighbourhood expansion: fringe-ordered "
                "external-neighbour minimisation under a hard cap"
            ),
            build=_build_hype,
            make=_make_hype,
            imbalance_bound=1.1,
            sharded_imbalance_bound=1.1,
        ),
        FamilySpec(
            name="minmax",
            summary=(
                "limited-memory min-max connectivity streaming "
                "(similarity-ordered buffered variant via buffer_size)"
            ),
            build=_build_minmax,
            make=_make_minmax,
            imbalance_bound=1.15,
            sharded_imbalance_bound=1.15,
        ),
    )
}


def family_names() -> "tuple[str, ...]":
    """Registered ``partitioner=`` choices, in presentation order."""
    return tuple(PARTITIONERS)


def get_family(name: str) -> FamilySpec:
    """Look up a registered family; raise ``ValueError`` on unknowns."""
    try:
        return PARTITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {name!r}; registered: {family_names()}"
        ) from None


# ----------------------------------------------------------------------
# the partition knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Knob:
    """One partition knob: a service query parameter, the OpenAPI
    parameter generated from it and the CLI flag generated from it.

    ``kind`` is ``"int"`` (at least ``minimum``), ``"float"`` (inside
    ``bounds = (lo, hi]``), ``"choice"`` (one of ``choices``; a callable
    is read live, like the family registry), ``"bool"`` or ``"str"``
    (taken verbatim).  A ``None`` default means the knob is optional, or
    (``workers``) that :func:`partition_spec` fills it in from another
    knob; a ``required`` knob has no default.
    """

    name: str
    kind: str
    default: object = None
    description: str = ""
    choices: "tuple | Callable[[], tuple]" = ()
    minimum: "int | None" = None
    bounds: "tuple[float, float] | None" = None
    required: bool = False

    def options(self) -> "tuple[str, ...]":
        return tuple(self.choices() if callable(self.choices) else self.choices)

    def parse(self, raw: "str | None"):
        """A raw query or flag string (``None``: absent) -> the value.

        Raises ``ValueError`` carrying the message the service answers
        with a 400.
        """
        if raw is None:
            if self.required:
                raise ValueError(f"{self.name} ({self.description}) is required")
            return self.default
        name = self.name
        if self.kind == "str":
            return raw
        if self.kind == "bool":
            if raw in ("", "0", "false", "no", "1", "true", "yes"):
                return raw in ("1", "true", "yes")
            raise ValueError(
                f"{name} must be one of 1/true/yes/0/false/no, got {raw!r}"
            )
        if self.kind == "choice":
            if raw not in self.options():
                options = ", ".join(self.options())
                raise ValueError(f"{name} must be one of {options}, got {raw!r}")
            return raw
        number = int if self.kind == "int" else float
        try:
            value = number(raw)
        except ValueError:
            noun = "an integer" if number is int else "a number"
            raise ValueError(f"{name} must be {noun}, got {raw!r}") from None
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"{name} must be >= {self.minimum}, got {value}")
        lo, hi = self.bounds or (-np.inf, np.inf)
        if not lo < value <= hi:
            raise ValueError(f"{name} must be in ({lo}, {hi}], got {value}")
        return value


#: Every knob that shapes a partition run, in presentation order.  The
#: service's ``POST /v1/partitions``, its OpenAPI parameters and the
#: ``stream``/``cluster`` CLI flags are all generated from this table.
PARTITION_KNOBS: "dict[str, Knob]" = {
    knob.name: knob
    for knob in (
        Knob("partitioner", "choice", "onepass", "registered streaming "
             "partitioner (the repro.partitioning.families registry: "
             "{choices})", choices=family_names),
        Knob("scorer", "choice", "eq1", "value function (fennel is "
             "onepass-only)", choices=("eq1", "fennel")),
        Knob("gamma", "float", 1.5, "FENNEL load-penalty exponent "
             "(scorer=fennel)", bounds=(1.0, 16.0)),
        Knob("kernel", "choice", "auto", "pass-kernel implementation; njit "
             "needs numba and a supported state/scorer combo, otherwise the "
             "run falls back to python (the resolved mode is reported as "
             "metrics.kernel_mode)", choices=("auto", "python", "njit")),
        Knob("workers", "int", None, "parallel sharded streaming workers "
             "(default 1; sharded defaults to 2 and requires >= 2)",
             minimum=1),
        Knob("shard_payload", "choice", "boundary", "what sharded workers "
             "ship at the merge", choices=("boundary", "full")),
        Knob("shard_by", "choice", "pins", "how sharded worker ranges are "
             "balanced", choices=("pins", "chunks")),
        Knob("buffer_fraction", "float", 0.25, "BufferedRestreamer window "
             "as a fraction of |V| (buffered/sharded)", bounds=(0.0, 1.0)),
        Knob("buffer_size", "int", None, "explicit BufferedRestreamer "
             "window in vertices (overrides buffer_fraction)", minimum=1),
        Knob("max_tracked_edges", "int", None, "presence-table cap (absent "
             "= unbounded / exact)", minimum=1),
        Knob("max_iterations", "int", 20, "restreaming pass cap per window",
             minimum=1),
        Knob("refine", "bool", False, "polish the result with FM-style "
             "boundary refinement (attachable to any partitioner; reported "
             "as refine_* metrics)"),
        Knob("refine_passes", "int", 4, "maximum refinement propose/apply "
             "rounds (refine=1)", minimum=1),
    )
}


def partition_spec(params) -> dict:
    """Validate raw knob strings into a spec for :func:`build_partitioner`.

    ``params`` maps knob names to strings; absent names take the
    :data:`PARTITION_KNOBS` defaults and other names are ignored.  Adds
    the cross-field rules: ``scorer=fennel`` needs ``partitioner=onepass``,
    and ``sharded`` defaults to ``workers=2`` and needs ``workers >= 2``.
    Raises ``ValueError`` naming the first bad knob.
    """
    spec = {
        name: knob.parse(params.get(name))
        for name, knob in PARTITION_KNOBS.items()
    }
    sharded = spec["partitioner"] == "sharded"
    if spec["scorer"] == "fennel" and spec["partitioner"] != "onepass":
        raise ValueError(
            "scorer=fennel is only available with partitioner=onepass "
            "(the restreamers score with Eq. 1)"
        )
    if spec["workers"] is None:
        spec["workers"] = 2 if sharded else 1
    if sharded and spec["workers"] < 2:
        raise ValueError("partitioner=sharded needs workers >= 2")
    return spec


def build_partitioner(spec: dict, num_vertices: int) -> Partitioner:
    """Instantiate the requested family from a :func:`partition_spec`.

    When the spec carries ``refine`` truthy, the built partitioner is
    wrapped in :class:`PolishedStreamer` — the polish is attachable to
    *any* registered family.
    """
    partitioner = get_family(spec["partitioner"]).build(spec, num_vertices)
    if spec.get("refine"):
        partitioner = PolishedStreamer(
            partitioner,
            refine=RefineConfig(
                passes=spec["refine_passes"], workers=spec["workers"]
            ),
        )
    return partitioner
