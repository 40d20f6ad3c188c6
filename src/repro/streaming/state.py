"""Bounded partition state for the streaming partitioners.

In-memory HyperPRAW's :class:`~repro.engine.states.DenseKernelState`
keeps the full ``(E x p)`` hyperedge-partition count matrix — exactly the
structure an out-of-core run cannot afford.  :class:`StreamingState` keeps the same
two ingredients of the value function in bounded form:

* ``loads`` — per-partition vertex-weight totals (``p`` floats, exact);
* a **capped per-hyperedge presence table**: per-partition pin counts for
  at most ``max_tracked_edges`` hyperedges, with least-recently-referenced
  eviction.  Streaming partitioners reference a hyperedge whenever one of
  its pins arrives or is re-placed, so under the locality that makes
  streaming partitioning work at all (arXiv:2103.05394's limited-memory
  streamers make the same bet with their capped connectivity structures),
  the hot nets stay resident and the stale ones fall off.

With ``max_tracked_edges=None`` the table is unbounded and the state is
an exact sparse mirror of the dense state — the configuration under which
:class:`~repro.streaming.restream.BufferedRestreamer` reproduces
in-memory HyperPRAW bit for bit.

Evicted counts are simply lost: a later ``remove`` for an evicted
hyperedge is clamped at zero rather than recreating phantom negative
counts, so the table always holds a *lower bound* on each tracked net's
true per-partition pin counts.

The LRU policy is written once, in two slot primitives that are the
only code adding, dropping or reordering tracked nets:
:meth:`StreamingState._lookup` (slots of tracked nets, -1 elsewhere;
touching them or not) and :meth:`StreamingState._acquire` (slots in
order, created as needed, evicting the least-recently-used net through
:meth:`StreamingState._evict`).  Every public method is a numpy
operation over those slots.  A subclass may change how a row reads
(``_read``), how a column moves (``_shift``) and what an eviction drops
(``_evict``); min-max's :class:`~repro.partitioning.families.MinMaxState`
does exactly that.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.architecture.cost import (
    is_uniform_cost,
    uniform_cost_matrix,
    validate_cost_matrix,
)
from repro.core.metrics import table_comm_cost
from repro.engine.blocks import segment_row_sum

__all__ = ["StreamingState", "resolve_cost_matrix"]


def resolve_cost_matrix(
    cost_matrix: "np.ndarray | None", num_parts: int
) -> "tuple[np.ndarray, bool]":
    """Validate / default the cost matrix; returns ``(C, aware)``.

    Mirrors the labelling rule of :class:`~repro.core.hyperpraw.HyperPRAW`:
    ``aware`` is True only for a genuinely non-uniform matrix.
    """
    if cost_matrix is None:
        return uniform_cost_matrix(num_parts), False
    C = validate_cost_matrix(cost_matrix, num_units=num_parts)
    return C, not is_uniform_cost(C)


class StreamingState:
    """Mutable bounded state: partition loads + capped edge-presence table.

    Parameters
    ----------
    num_parts:
        partition count ``p``.
    expected_loads:
        target load per partition (``E(k)`` in Eq. 1).
    max_tracked_edges:
        cap on simultaneously tracked hyperedges; ``None`` tracks all
        referenced hyperedges (exact, memory O(distinct edges seen)).
    """

    def __init__(
        self,
        num_parts: int,
        *,
        expected_loads: np.ndarray,
        max_tracked_edges: "int | None" = None,
    ) -> None:
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if max_tracked_edges is not None and max_tracked_edges < 1:
            raise ValueError(
                f"max_tracked_edges must be >= 1 or None, got {max_tracked_edges}"
            )
        self.num_parts = int(num_parts)
        self.loads = np.zeros(num_parts, dtype=np.float64)
        self.expected_loads = np.asarray(expected_loads, dtype=np.float64)
        if self.expected_loads.shape != (num_parts,):
            raise ValueError(
                f"expected_loads must have shape ({num_parts},), "
                f"got {self.expected_loads.shape}"
            )
        if (self.expected_loads <= 0).any():
            raise ValueError("expected_loads must be strictly positive")
        self.max_tracked_edges = max_tracked_edges
        initial = max_tracked_edges if max_tracked_edges is not None else 1024
        # one row per slot, plus a last row that stays zero: slot -1, the
        # slot of an untracked net, reads it
        self._table = np.zeros((initial + 1, num_parts), dtype=np.int64)
        self._slots: "OrderedDict[int, int]" = OrderedDict()
        self.evictions = 0
        self.peak_tracked_edges = 0

    # ------------------------------------------------------------------
    @property
    def num_tracked_edges(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------------
    # the LRU policy.  The edges of one call are distinct (a vertex's
    # nets, a table's rows), so the slots returned index distinct rows.
    # ------------------------------------------------------------------
    def _lookup(
        self, edges: np.ndarray, touch: bool, part: "int | None" = None
    ) -> "list[int]":
        """Slots of ``edges``, -1 where untracked; ``touch`` marks the
        tracked ones most recently used, in edge order.  Given ``part``,
        a net holding no pin on ``part`` reads -1 and is not touched."""
        slots = self._slots
        held = self._table.item
        found = []
        for e in edges.tolist():
            slot = slots.get(e, -1)
            if slot >= 0 and part is not None and held(slot, part) <= 0:
                slot = -1
            if touch and slot >= 0:
                slots.move_to_end(e)
            found.append(slot)
        return found

    def _acquire(self, edges: np.ndarray) -> "list[int]":
        """Slots of ``edges`` in order, touching each and creating the
        missing ones; once the table is full, each new net takes the
        slot of the LRU net, whose row :meth:`_evict` drops.

        A net can be evicted by a later edge of the same call when the
        call holds more edges than the cap; its slot then belongs to
        that later edge, and its own entry reads -1.  Its pins would
        have been zeroed by the eviction, so a caller that updates the
        live slots in one batch ends with the per-pin table.
        """
        slots = self._slots
        cap = self.max_tracked_edges
        out = []
        for e in edges.tolist():
            slot = slots.get(e)
            if slot is not None:
                slots.move_to_end(e)
            else:
                if cap is not None and len(slots) >= cap:
                    _, slot = slots.popitem(last=False)
                    self._evict(slot)
                else:
                    slot = len(slots)
                    if slot == len(self._table) - 1:
                        grown = np.zeros((2 * slot + 1, self.num_parts), np.int64)
                        grown[:slot] = self._table[:slot]
                        self._table = grown
                slots[e] = slot
            out.append(slot)
        self.peak_tracked_edges = max(self.peak_tracked_edges, len(slots))
        if cap is not None and len(out) > cap:
            # only a slot's last occurrence still holds its net
            last = {slot: k for k, slot in enumerate(out)}
            out = [slot if last[slot] == k else -1 for k, slot in enumerate(out)]
        return out

    def _evict(self, slot: int) -> None:
        """Drop the row of the LRU net just untracked from ``slot``."""
        self._table[slot] = 0
        self.evictions += 1

    # ------------------------------------------------------------------
    # what a subclass may change: how a row reads, how a column moves
    # ------------------------------------------------------------------
    def _read(self, rows: np.ndarray) -> np.ndarray:
        """What a gather sums per net (int64): its per-partition pin counts."""
        return rows

    def _shift(self, slots: np.ndarray, part: int, delta: int) -> None:
        """Add ``delta`` (+1 or -1) pins on ``part`` to each tracked slot."""
        column = self._table[:, part]
        column[slots] += delta

    def _tracked(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(edges, slots)`` of every tracked net, in LRU order."""
        n = len(self._slots)
        return (
            np.fromiter(self._slots.keys(), dtype=np.int64, count=n),
            np.fromiter(self._slots.values(), dtype=np.int64, count=n),
        )

    # ------------------------------------------------------------------
    # hot-path operations
    # ------------------------------------------------------------------
    def gather(self, edges: np.ndarray) -> np.ndarray:
        """``X_j(v)``: summed per-partition counts over ``edges`` (int64).

        Untracked (never seen or evicted) hyperedges contribute zero.
        Referencing counts as a read *touches* the nets for LRU purposes —
        a net that keeps scoring placements is a net worth keeping.
        """
        slots = self._lookup(edges, touch=True)
        return self._read(self._table.take(slots, axis=0)).sum(axis=0)

    def gather_block(
        self, rows_all: np.ndarray, vertex_ptr: np.ndarray
    ) -> np.ndarray:
        """Stacked neighbour counts for a whole chunk (``m x p``).

        ``rows_all`` is the chunk's concatenated incident-edge array and
        ``vertex_ptr`` its local CSR offsets; row ``i`` of the result is
        :meth:`gather` of vertex ``i``'s edges, evaluated against the
        chunk-start table in one vectorised pass (touching the distinct
        nets in ascending id order).
        """
        uniq, inverse = np.unique(rows_all, return_inverse=True)
        slots = self._lookup(uniq, touch=True)
        per_edge = self._read(self._table.take(slots, axis=0))
        return segment_row_sum(per_edge, inverse, vertex_ptr)

    def place(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Record a (new or re-placed) pin of every ``edges`` on ``part``."""
        live = [slot for slot in self._acquire(edges) if slot >= 0]
        self._shift(np.array(live, dtype=np.int64), part, 1)
        self.loads[part] += weight

    def remove(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Lift a vertex off ``part``; untracked edges are a clamped no-op.

        Only the nets that still hold a pin on ``part`` are touched.
        """
        held = [slot for slot in self._lookup(edges, True, part) if slot >= 0]
        self._shift(np.array(held, dtype=np.int64), part, -1)
        self.loads[part] -= weight

    # ------------------------------------------------------------------
    # engine protocol: block operations + shard reconciliation
    # ------------------------------------------------------------------
    #: the kernel must route every placement through :meth:`place` so the
    #: LRU table sees references in arrival order (no batched inserts).
    place_deferred = False

    def lift_block(
        self, edges: np.ndarray, ptr: np.ndarray, old: np.ndarray, weights: np.ndarray
    ) -> None:
        """Remove a whole block (chunk-mode restreaming), vertex by vertex."""
        for i in range(old.size):
            self.remove(edges[ptr[i] : ptr[i + 1]], int(old[i]), weights[i])

    def export_table(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(edge_ids, counts)`` of every tracked net, sorted by edge id.

        The sorted order makes cross-process merges deterministic; the
        arrays are copies, safe to pickle across a worker pipe.
        """
        edges, slots = self._tracked()
        order = np.argsort(edges)
        return edges[order], self._table[slots[order]]

    def seed_table(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-insert per-edge counts (the sharded merge step).

        Rows are inserted in the given order through the normal slot
        machinery, so a capped table evicts deterministically when the
        merged net set exceeds ``max_tracked_edges``.
        """
        slots = np.array(self._acquire(edges), dtype=np.int64)
        live = slots >= 0
        self._table[slots[live]] += counts[live]

    def rows(self, edges: np.ndarray) -> np.ndarray:
        """Current count rows for ``edges`` (``len(edges) x p`` copy).

        Untracked edges yield zero rows.  A bookkeeping read — delta
        computation for the sharded boundary exchange — so it does *not*
        touch the LRU order.
        """
        return self._table.take(self._lookup(edges, touch=False), axis=0)

    def set_rows(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Overwrite the rows for ``edges`` with ``counts``.

        The sharded boundary restream overlays the driver's merged
        global counts onto each worker's local table at the start of
        every round; rows are (re)acquired through the normal slot
        machinery, creating them if needed.
        """
        slots = np.array(self._acquire(edges), dtype=np.int64)
        live = slots >= 0
        self._table[slots[live]] = counts[live]

    # ------------------------------------------------------------------
    # pass-level queries
    # ------------------------------------------------------------------
    def imbalance(self) -> float:
        """max-load / mean-load over placed weight (1.0 when nothing placed)."""
        mean = self.loads.sum() / self.num_parts
        if mean == 0:
            return 1.0
        return float(self.loads.max() / mean)

    def pc_cost(
        self,
        cost_matrix: np.ndarray,
        *,
        edge_weights: "np.ndarray | None" = None,
        exclude_edges: "np.ndarray | None" = None,
    ) -> float:
        """Monitored partitioning communication cost over *tracked* nets.

        Eq. 5 rewritten per hyperedge: ``PC(P) = sum_e w_e c_e^T C c_e``
        with ``c_e`` the per-partition pin counts of ``e`` — so the table
        rows are all that is needed.  Exact when the table is unbounded;
        a lower-bound estimate once eviction has discarded nets.
        ``exclude_edges`` drops those nets from the sum — the sharded
        boundary exchange accounts boundary rows at the driver, so
        workers report only their *interior* contribution.
        """
        edges, slots = self._tracked()
        if exclude_edges is not None and exclude_edges.size:
            keep = ~np.isin(edges, exclude_edges)
            edges, slots = edges[keep], slots[keep]
        return table_comm_cost(
            self._table[slots], cost_matrix, edges, edge_weights
        )
