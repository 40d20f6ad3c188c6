"""Differential oracle for the capped presence table.

:mod:`lru_reference` keeps the original per-pin implementation of the
LRU table.  Here seeded random sequences of every table operation
(``place``, ``remove``, ``lift_block``, ``gather``, ``gather_block``,
``rows``, ``set_rows``, ``seed_table``, ``export_table``) run against
both it and the library's :class:`~repro.streaming.state.StreamingState`
/ :class:`~repro.partitioning.families.MinMaxState`.  After every step
the return values, the LRU order, the slot of every tracked net, its
row, ``evictions``, ``peak_tracked_edges``, the loads and (min-max) the
connectivity counter must agree.

Caps 1-3 sit below the vertices' degrees (up to 6), so a single
``place`` evicts nets it acquired a moment earlier — the case a batched
update has to get right.
"""

import numpy as np
import pytest

from lru_reference import ReferenceMinMaxState, ReferenceState
from repro.partitioning.families import MinMaxState
from repro.streaming.state import StreamingState

P = 3
NUM_EDGES = 14
NUM_VERTICES = 24
STEPS = 300
CAPS = (1, 2, 3, None)
OPS = (
    "place", "remove", "lift_block", "gather", "gather_block", "rows",
    "set_rows", "seed_table", "export_table",
)


def _vertices(rng):
    """Distinct sorted nets per vertex, degree 1..6."""
    return [
        np.sort(rng.choice(NUM_EDGES, size=int(rng.integers(1, 7)), replace=False))
        for _ in range(NUM_VERTICES)
    ]


def _block(rng, vertices):
    picked = rng.choice(NUM_VERTICES, size=int(rng.integers(1, 5)), replace=False)
    edges = [vertices[v] for v in picked]
    ptr = np.concatenate(([0], np.cumsum([e.size for e in edges])))
    return picked, np.concatenate(edges), ptr


def _step(rng, vertices, placed, states):
    """Apply one random operation to every state; returns the results."""
    op = OPS[int(rng.integers(len(OPS)))]
    v = int(rng.integers(NUM_VERTICES))
    edges = vertices[v]
    if op == "place":
        part = int(rng.integers(P))
        placed[v] = part
        return [s.place(edges, part, 1.0) for s in states]
    if op == "remove":
        # usually the vertex's own part; sometimes another, to exercise
        # the clamp at zero
        part = placed.get(v, int(rng.integers(P)))
        if rng.random() < 0.3:
            part = int(rng.integers(P))
        return [s.remove(edges, part, 1.0) for s in states]
    if op == "lift_block":
        picked, rows_all, ptr = _block(rng, vertices)
        old = np.array([placed.get(int(u), 0) for u in picked], dtype=np.int64)
        weights = np.ones(picked.size)
        return [s.lift_block(rows_all, ptr, old, weights) for s in states]
    if op == "gather":
        return [s.gather(edges) for s in states]
    if op == "gather_block":
        _, rows_all, ptr = _block(rng, vertices)
        return [s.gather_block(rows_all, ptr) for s in states]
    table_edges = rng.choice(
        NUM_EDGES, size=int(rng.integers(0, 6)), replace=False
    ).astype(np.int64)
    counts = rng.integers(0, 3, size=(table_edges.size, P)).astype(np.int64)
    if op == "rows":
        return [s.rows(table_edges) for s in states]
    if op == "set_rows":
        return [s.set_rows(table_edges, counts) for s in states]
    if op == "seed_table":
        return [s.seed_table(table_edges, counts) for s in states]
    return [s.export_table() for s in states]


def _assert_same(ref, new, results, where):
    want, got = results
    if isinstance(want, tuple):
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w, err_msg=where)
    elif want is None:
        assert got is None, where
    else:
        np.testing.assert_array_equal(got, want, err_msg=where)
        assert got.dtype == want.dtype, where
    # the LRU order and the slot of every tracked net
    assert list(new._slots.items()) == list(ref._slots.items()), where
    tracked = np.fromiter(ref._slots.values(), dtype=np.int64)
    np.testing.assert_array_equal(
        new._table[tracked], ref._table[tracked], err_msg=where
    )
    assert (new.evictions, new.peak_tracked_edges) == (
        ref.evictions, ref.peak_tracked_edges,
    ), where
    np.testing.assert_array_equal(new.loads, ref.loads, err_msg=where)
    if hasattr(ref, "connectivity"):
        np.testing.assert_array_equal(
            new.connectivity, ref.connectivity, err_msg=where
        )


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize(
    ("reference", "library"),
    ((ReferenceState, StreamingState), (ReferenceMinMaxState, MinMaxState)),
    ids=("streaming", "minmax"),
)
def test_matches_per_pin_reference(reference, library, cap, seed):
    rng = np.random.default_rng(seed)
    vertices = _vertices(rng)
    assert max(e.size for e in vertices) > (cap or 0)
    kwargs = {"expected_loads": np.ones(P), "max_tracked_edges": cap}
    ref, new = reference(P, **kwargs), library(P, **kwargs)
    placed: dict = {}
    for step in range(STEPS):
        results = _step(rng, vertices, placed, (ref, new))
        _assert_same(ref, new, results, f"cap={cap} seed={seed} step={step}")
    if cap is not None:
        assert new.evictions > 0  # the cap really bit
