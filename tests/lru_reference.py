"""Per-pin reference implementation of the capped presence table.

A frozen copy of the original, one-edge-at-a-time
:class:`~repro.streaming.state.StreamingState` and
:class:`~repro.partitioning.families.MinMaxState`: every method walks
its edges in order and applies the LRU policy to each pin on its own.
``tests/test_state_oracle.py`` drives these and the library's
vectorised classes through the same random operation sequences and
compares them after every step, so the eviction order, the touch rules
and the min-max connectivity counter cannot drift.  Only the table
operations are copied; loads, ``imbalance`` and ``pc_cost`` are not
part of the LRU policy.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.engine.blocks import segment_reduce


class ReferenceState:
    """Loads plus a capped per-edge count table, one pin at a time."""

    def __init__(self, num_parts, *, expected_loads, max_tracked_edges=None):
        self.num_parts = int(num_parts)
        self.loads = np.zeros(num_parts, dtype=np.float64)
        self.expected_loads = np.asarray(expected_loads, dtype=np.float64)
        self.max_tracked_edges = max_tracked_edges
        initial = max_tracked_edges if max_tracked_edges is not None else 1024
        self._table = np.zeros((max(1, initial), num_parts), dtype=np.int64)
        self._slots = OrderedDict()
        self.evictions = 0
        self.peak_tracked_edges = 0

    def _acquire(self, edge):
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

    def _value(self, row):
        return row

    def gather(self, edges):
        X = np.zeros(self.num_parts, dtype=np.int64)
        for e in edges.tolist():
            slot = self._slots.get(e)
            if slot is not None:
                self._slots.move_to_end(e)
                X += self._value(self._table[slot])
        return X

    def gather_block(self, rows_all, vertex_ptr):
        p = self.num_parts
        if rows_all.size == 0:
            return np.zeros((vertex_ptr.size - 1, p), dtype=np.int64)
        uniq, inverse = np.unique(rows_all, return_inverse=True)
        per_edge = np.zeros((uniq.size, p), dtype=np.int64)
        for k, e in enumerate(uniq.tolist()):
            slot = self._slots.get(e)
            if slot is not None:
                self._slots.move_to_end(e)
                per_edge[k] = self._value(self._table[slot])
        return segment_reduce(np.add, per_edge[inverse], vertex_ptr)

    def place(self, edges, part, weight):
        for e in edges.tolist():
            slot = self._acquire(e)
            self._table[slot, part] += 1
        self.loads[part] += weight

    def remove(self, edges, part, weight):
        for e in edges.tolist():
            slot = self._slots.get(e)
            if slot is not None and self._table[slot, part] > 0:
                self._slots.move_to_end(e)
                self._table[slot, part] -= 1
        self.loads[part] -= weight

    def lift_block(self, edges, ptr, old, weights):
        for i in range(old.size):
            self.remove(edges[ptr[i] : ptr[i + 1]], int(old[i]), weights[i])

    def export_table(self):
        n = len(self._slots)
        edges = np.fromiter(self._slots.keys(), dtype=np.int64, count=n)
        slots = np.fromiter(self._slots.values(), dtype=np.int64, count=n)
        order = np.argsort(edges)
        return edges[order], self._table[slots[order]].copy()

    def seed_table(self, edges, counts):
        for k in range(edges.size):
            slot = self._acquire(int(edges[k]))
            self._table[slot] += counts[k]

    def rows(self, edges):
        out = np.zeros((edges.size, self.num_parts), dtype=np.int64)
        for k, e in enumerate(edges.tolist()):
            slot = self._slots.get(e)
            if slot is not None:
                out[k] = self._table[slot]
        return out

    def set_rows(self, edges, counts):
        for k in range(edges.size):
            slot = self._acquire(int(edges[k]))
            self._table[slot] = counts[k]


class ReferenceMinMaxState(ReferenceState):
    """Presence reads plus the live per-part connectivity counter."""

    def __init__(self, num_parts, *, expected_loads, max_tracked_edges=None):
        super().__init__(
            num_parts,
            expected_loads=expected_loads,
            max_tracked_edges=max_tracked_edges,
        )
        self.connectivity = np.zeros(num_parts, dtype=np.int64)

    def _value(self, row):
        return row > 0

    def _acquire(self, edge):
        slots = self._slots
        if (
            edge not in slots
            and self.max_tracked_edges is not None
            and len(slots) >= self.max_tracked_edges
        ):
            lru_slot = next(iter(slots.values()))
            self.connectivity -= self._table[lru_slot] > 0
        return super()._acquire(edge)

    def place(self, edges, part, weight):
        for e in edges.tolist():
            slot = self._acquire(e)
            if self._table[slot, part] == 0:
                self.connectivity[part] += 1
            self._table[slot, part] += 1
        self.loads[part] += weight

    def remove(self, edges, part, weight):
        for e in edges.tolist():
            slot = self._slots.get(e)
            if slot is not None and self._table[slot, part] > 0:
                self._slots.move_to_end(e)
                self._table[slot, part] -= 1
                if self._table[slot, part] == 0:
                    self.connectivity[part] -= 1
        self.loads[part] -= weight

    def _recount(self):
        n = len(self._slots)
        slots = np.fromiter(self._slots.values(), dtype=np.int64, count=n)
        self.connectivity[:] = (self._table[slots] > 0).sum(axis=0)

    def seed_table(self, edges, counts):
        super().seed_table(edges, counts)
        self._recount()

    def set_rows(self, edges, counts):
        super().set_rows(edges, counts)
        self._recount()
