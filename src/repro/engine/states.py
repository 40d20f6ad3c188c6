"""Kernel-facing partition state adapters.

The pass kernel mutates whatever state object it is handed through a
small duck-typed protocol:

``loads`` / ``num_parts``
    live per-partition loads (mutated in place) and the partition count;
``gather(edges)`` / ``gather_block(edges, ptr)``
    neighbour counts of one vertex / a whole block;
``remove(edges, part, weight)`` / ``place(edges, part, weight)``
    move one vertex out of / into the running state;
``lift_block(edges, ptr, old, weights)``
    remove a whole block in one batch (chunk-mode restreaming);
``place_deferred`` (+ ``insert_block``)
    ``True`` lets the kernel batch a chunk's pin-count updates at block
    end (loads still update live per placement) — the dense fast path.

Two states implement it, plus one presence view:

* :class:`DenseKernelState` (here) — the exact ``(E x p)`` count matrix,
  built from a round-robin assignment for HyperPRAW or zero-initialised
  for place-only streams (FENNEL);
* :class:`~repro.streaming.state.StreamingState` — the bounded, capped
  LRU presence table of the out-of-core partitioners
  (``place_deferred = False``: its table must see every placement in
  arrival order for the eviction policy to mean anything);
* :class:`~repro.partitioning.families.MinMaxState` — min-max's view
  over that same table: gathers read net presence instead of pin
  counts, and a per-part connectivity counter rides along.  It inherits
  the LRU policy and the eviction order unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.engine.blocks import segment_row_sum

__all__ = ["DenseKernelState"]


class DenseKernelState:
    """Exact dense counts + loads, in kernel-protocol form.

    Moving a vertex touches only the ``deg(v)`` rows of its incident
    hyperedges, and the kernel lifts a vertex out before scoring it, so
    its neighbour counts (Eq. 4's ``X``) never include itself.

    Parameters
    ----------
    num_parts:
        partition count ``p``.
    edge_counts:
        ``(E x p)`` per-hyperedge partition pin counts, mutated in place.
    loads:
        length-``p`` partition loads, mutated in place.
    """

    place_deferred = True
    #: the kernel may hand :meth:`gather` a reused output buffer
    gather_accepts_out = True

    def __init__(
        self, num_parts: int, edge_counts: np.ndarray, loads: np.ndarray
    ) -> None:
        if not edge_counts.flags.c_contiguous:
            raise ValueError("edge_counts must be C-contiguous (flat view needed)")
        self.num_parts = int(num_parts)
        self.edge_counts = edge_counts
        self.loads = loads
        self._flat = edge_counts.reshape(-1)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_edges: int, num_parts: int) -> "DenseKernelState":
        """Zero counts/loads — the state of a place-only stream's start."""
        return cls(
            num_parts,
            np.zeros((num_edges, num_parts), dtype=np.int64),
            np.zeros(num_parts, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # per-vertex operations
    # ------------------------------------------------------------------
    def gather(self, edges: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """``X_j(v)``: per-partition counts summed over ``edges`` (length ``p``).

        ``out`` is an optional length-``p`` float64 buffer the sum is
        written into (same reduction, no fresh allocation).
        """
        return self.edge_counts[edges].sum(axis=0, dtype=np.float64, out=out)

    def remove(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Lift one vertex (incident ``edges``, ``weight``) off ``part``."""
        self.edge_counts[edges, part] -= 1
        self.loads[part] -= weight

    def place(self, edges: np.ndarray, part: int, weight: float) -> None:
        """Place one vertex (incident ``edges``, ``weight``) onto ``part``."""
        self.edge_counts[edges, part] += 1
        self.loads[part] += weight

    def imbalance(self) -> float:
        """max-load / mean-load (1.0 when nothing is placed)."""
        mean = self.loads.sum() / self.num_parts
        if mean == 0:
            return 1.0
        return float(self.loads.max() / mean)

    # ------------------------------------------------------------------
    # block operations (the vectorised chunk path)
    # ------------------------------------------------------------------
    def gather_block(self, edges: np.ndarray, ptr: np.ndarray) -> np.ndarray:
        """Stacked :meth:`gather` of a whole block (``m x p``).

        ``edges`` is the block's concatenated incident-edge array and
        ``ptr`` its local CSR offsets (``m + 1`` entries).  The sum is
        one sparse incidence product (``csr(ones, edges, ptr) @
        edge_counts``, :func:`~repro.engine.blocks.segment_row_sum`), in
        the count matrix's dtype, so no count row is copied per pin.
        """
        return segment_row_sum(self.edge_counts, edges, ptr)

    def _scatter(self, edges, ptr, parts, sign: int) -> None:
        """Add ``sign`` to the count of every (edge, part) pin of a block.

        One unbuffered ``np.add.at`` over the flat keys, so a repeated
        key adds once per occurrence.  The value carries the count
        matrix's dtype: numpy's fast ``ufunc.at`` path (numpy >= 1.25)
        is skipped for a Python int against HyperPRAW's int32 counts,
        and the slow path is slower than sorting the keys.
        """
        keys = edges * self.num_parts + np.repeat(parts, np.diff(ptr))
        np.add.at(self._flat, keys, self._flat.dtype.type(sign))

    def lift_block(
        self, edges: np.ndarray, ptr: np.ndarray, old: np.ndarray, weights: np.ndarray
    ) -> None:
        """Remove a whole block (counts *and* loads) in one batch."""
        self._scatter(edges, ptr, old, -1)
        self.loads -= np.bincount(old, weights=weights, minlength=self.num_parts)

    def insert_block(
        self, edges: np.ndarray, ptr: np.ndarray, new: np.ndarray
    ) -> None:
        """Re-insert a block's pin counts (loads were updated live)."""
        self._scatter(edges, ptr, new, +1)
