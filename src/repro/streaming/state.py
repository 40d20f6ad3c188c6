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
        self._table = np.zeros((max(1, initial), num_parts), dtype=np.int64)
        self._slots: "OrderedDict[int, int]" = OrderedDict()
        self.evictions = 0
        self.peak_tracked_edges = 0

    # ------------------------------------------------------------------
    @property
    def num_tracked_edges(self) -> int:
        return len(self._slots)

    def _acquire(self, edge: int) -> int:
        """Slot of ``edge``, creating (and evicting LRU) as needed."""
        slots = self._slots
        slot = slots.get(edge)
        if slot is not None:
            slots.move_to_end(edge)
            return slot
        if (
            self.max_tracked_edges is not None
            and len(slots) >= self.max_tracked_edges
        ):
            _, slot = slots.popitem(last=False)
            self._table[slot] = 0
            self.evictions += 1
        else:
            slot = len(slots)
            if slot >= self._table.shape[0]:
                grown = np.zeros(
                    (self._table.shape[0] * 2, self.num_parts), dtype=np.int64
                )
                grown[: self._table.shape[0]] = self._table
                self._table = grown
        slots[edge] = slot
        self.peak_tracked_edges = max(self.peak_tracked_edges, len(slots))
        return slot

    # ------------------------------------------------------------------
    # hot-path operations
    # ------------------------------------------------------------------
    def gather(self, edges: np.ndarray) -> np.ndarray:
        """``X_j(v)``: summed per-partition counts over ``edges`` (int64).

        Untracked (never seen or evicted) hyperedges contribute zero.
        Referencing counts as a read *touches* the nets for LRU purposes —
        a net that keeps scoring placements is a net worth keeping.
        """
        X = np.zeros(self.num_parts, dtype=np.int64)
        slots = self._slots
        table = self._table
        for e in edges.tolist():
            slot = slots.get(e)
            if slot is not None:
                slots.move_to_end(e)
                X += table[slot]
        return X

    def gather_block(
        self, rows_all: np.ndarray, vertex_ptr: np.ndarray
    ) -> np.ndarray:
        """Stacked neighbour counts for a whole chunk (``m x p``).

        ``rows_all`` is the chunk's concatenated incident-edge array and
        ``vertex_ptr`` its local CSR offsets; row ``i`` of the result is
        :meth:`gather` of vertex ``i``'s edges, evaluated against the
        chunk-start table in one vectorised pass.
        """
        m = vertex_ptr.size - 1
        p = self.num_parts
        X = np.zeros((m, p), dtype=np.int64)
        if rows_all.size == 0:
            return X
        uniq, inverse = np.unique(rows_all, return_inverse=True)
        slots = self._slots
        slot_arr = np.empty(uniq.size, dtype=np.int64)
        for k, e in enumerate(uniq.tolist()):
            slot = slots.get(e)
            if slot is None:
                slot_arr[k] = -1
            else:
                slots.move_to_end(e)
                slot_arr[k] = slot
        counts_uniq = np.zeros((uniq.size, p), dtype=np.int64)
        tracked = slot_arr >= 0
        counts_uniq[tracked] = self._table[slot_arr[tracked]]
        seg = counts_uniq[inverse]
        degs = np.diff(vertex_ptr)
        nonzero = degs > 0
        if nonzero.any():
            X[nonzero] = np.add.reduceat(seg, vertex_ptr[:-1][nonzero], axis=0)
        return X

    def place(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Record a (new or re-placed) pin of every ``edges`` on ``part``."""
        for e in edges.tolist():
            slot = self._acquire(e)
            # no caching of _table across iterations: _acquire may grow it
            self._table[slot, part] += 1
        self.loads[part] += weight

    def remove(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Lift a vertex off ``part``; untracked edges are a clamped no-op."""
        slots = self._slots
        table = self._table
        for e in edges.tolist():
            slot = slots.get(e)
            if slot is not None and table[slot, part] > 0:
                slots.move_to_end(e)
                table[slot, part] -= 1
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
        n = len(self._slots)
        if n == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, self.num_parts), dtype=np.int64),
            )
        edges = np.fromiter(self._slots.keys(), dtype=np.int64, count=n)
        slots = np.fromiter(self._slots.values(), dtype=np.int64, count=n)
        order = np.argsort(edges)
        return edges[order], self._table[slots[order]].copy()

    def seed_table(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Bulk-insert per-edge counts (the sharded merge step).

        Rows are inserted in the given order through the normal slot
        machinery, so a capped table evicts deterministically when the
        merged net set exceeds ``max_tracked_edges``.
        """
        for k in range(edges.size):
            slot = self._acquire(int(edges[k]))
            self._table[slot] += counts[k]

    def rows(self, edges: np.ndarray) -> np.ndarray:
        """Current count rows for ``edges`` (``len(edges) x p`` copy).

        Untracked edges yield zero rows.  A bookkeeping read — delta
        computation for the sharded boundary exchange — so it does *not*
        touch the LRU order.
        """
        out = np.zeros((edges.size, self.num_parts), dtype=np.int64)
        slots = self._slots
        for k, e in enumerate(edges.tolist()):
            slot = slots.get(e)
            if slot is not None:
                out[k] = self._table[slot]
        return out

    def set_rows(self, edges: np.ndarray, counts: np.ndarray) -> None:
        """Overwrite the rows for ``edges`` with ``counts``.

        The sharded boundary restream overlays the driver's merged
        global counts onto each worker's local table at the start of
        every round; rows are (re)acquired through the normal slot
        machinery, creating them if needed.
        """
        for k in range(edges.size):
            slot = self._acquire(int(edges[k]))
            self._table[slot] = counts[k]

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
        n = len(self._slots)
        edges = np.fromiter(self._slots.keys(), dtype=np.int64, count=n)
        slots = np.fromiter(self._slots.values(), dtype=np.int64, count=n)
        if exclude_edges is not None and exclude_edges.size:
            keep = ~np.isin(edges, exclude_edges)
            edges, slots = edges[keep], slots[keep]
        return table_comm_cost(
            self._table[slots], cost_matrix, edges, edge_weights
        )
