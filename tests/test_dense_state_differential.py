"""Differential test: uncapped streams on the dense table vs the dict state.

Every stream driver run without a ``max_tracked_edges`` cap places into
:class:`~repro.engine.states.DenseKernelState`, built by
:func:`~repro.streaming.state.presence_state`.  The frozen per-pin dict
state of ``tests/lru_reference.py`` (``ReferenceState`` with no cap) is
the table those runs used to keep.  Each row of the matrix runs one
driver twice, once per state, swapped in through the helper, and
compares what a run ends with: the assignment, the loads, the tracked
net count, the evictions, the rows shipped to the sharded merge (and
their bytes) and the monitored PC cost.

One more row pins the anchor equivalence: in-memory HyperPRAW and an
unbounded :class:`~repro.streaming.restream.BufferedRestreamer` run the
same passes at the same costs, bit for bit.
"""

import warnings

import numpy as np
import pytest

import repro.engine.parallel as parallel
import repro.streaming.onepass as onepass
import repro.streaming.restream as restream
import repro.streaming.sharded as sharded
from lru_reference import ReferenceState
from repro.architecture.cost import uniform_cost_matrix
from repro.core import HyperPRAW, HyperPRAWConfig
from repro.core.metrics import table_comm_cost
from repro.engine import DenseKernelState
from repro.hypergraph.model import Hypergraph
from repro.streaming import BufferedRestreamer, OnePassStreamer, presence_state
from test_invariants import FAMILIES, _instance as invariant_instance

P = 4


def _instance(family: str) -> Hypergraph:
    """The randomised instances of the invariant suite, plus an
    edge-weighted one so the monitored cost carries weights."""
    if family != "weighted":
        return invariant_instance(family)
    base = invariant_instance("uniform")
    weights = np.random.default_rng(5).integers(1, 9, base.num_edges)
    return Hypergraph(
        base.num_vertices,
        [edge.tolist() for edge in base.iter_edges()],
        edge_weights=weights.astype(float),
        name="inv-weighted",
    )


@pytest.fixture(scope="module", params=FAMILIES + ("weighted",))
def instance(request):
    return _instance(request.param)


class DictState(ReferenceState):
    """The frozen dict state plus the pass-level queries the drivers call,
    written as the dict-backed state priced them: over the tracked nets
    in table order."""

    def imbalance(self) -> float:
        mean = self.loads.sum() / self.num_parts
        return 1.0 if mean == 0 else float(self.loads.max() / mean)

    def pc_cost(self, cost_matrix, *, edge_weights=None, exclude_edges=None):
        n = len(self._slots)
        edges = np.fromiter(self._slots.keys(), dtype=np.int64, count=n)
        slots = np.fromiter(self._slots.values(), dtype=np.int64, count=n)
        if exclude_edges is not None and exclude_edges.size:
            keep = ~np.isin(edges, exclude_edges)
            edges, slots = edges[keep], slots[keep]
        return table_comm_cost(self._table[slots], cost_matrix, edges, edge_weights)


def _cfg(**kw) -> HyperPRAWConfig:
    return HyperPRAWConfig(record_history=False, max_iterations=30, **kw)


#: name -> (factory, forked): every uncapped stream driver.  ``forked``
#: is ``None`` for single-worker runs, else whether fork is allowed.
DRIVERS = {
    "onepass-vertex": (lambda: OnePassStreamer(chunk_size=32), None),
    "onepass-chunk": (
        lambda: OnePassStreamer(chunk_size=32, score_mode="chunk"), None,
    ),
    "restream-windowed": (
        lambda: BufferedRestreamer(_cfg(), buffer_size=64, chunk_size=32), None,
    ),
    "restream-windowed-chunk": (
        lambda: BufferedRestreamer(
            _cfg(chunk_size=16), buffer_size=64, chunk_size=32
        ),
        None,
    ),
    "restream-unbounded": (
        lambda: BufferedRestreamer(_cfg(), buffer_size=None, chunk_size=32), None,
    ),
    "sharded-onepass-forked": (
        lambda: OnePassStreamer(chunk_size=32, workers=2), True,
    ),
    "sharded-onepass-sequential": (
        lambda: OnePassStreamer(chunk_size=32, workers=2), False,
    ),
    "sharded-restream-forked": (
        lambda: BufferedRestreamer(
            _cfg(), buffer_size=64, chunk_size=32, workers=2
        ),
        True,
    ),
    "sharded-restream-sequential": (
        lambda: BufferedRestreamer(
            _cfg(), buffer_size=64, chunk_size=32, workers=2
        ),
        False,
    ),
}


def _run(name: str, hg: Hypergraph, state_cls, monkeypatch):
    """One driver run on ``state_cls``; returns ``(result, states, merges)``:
    the states built in this process and the tables each merge received."""
    make, forked = DRIVERS[name]
    built, merges = [], []

    def factory(num_parts, num_edges, expected_loads, max_tracked_edges=None):
        assert max_tracked_edges is None
        if state_cls is DictState:
            state = DictState(num_parts, expected_loads=expected_loads)
        else:
            state = presence_state(num_parts, num_edges, expected_loads)
        built.append(state)
        return state

    merge = sharded.merge_shard_tables

    def recording_merge(tables, num_parts):
        merges.append([(e.copy(), c.copy()) for e, c in tables])
        return merge(tables, num_parts)

    with monkeypatch.context() as m:
        for module in (onepass, restream):
            m.setattr(module, "presence_state", factory)
        m.setattr(sharded, "merge_shard_tables", recording_merge)
        if forked is False:
            m.setattr(parallel, "fork_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = make().partition(hg, P, seed=3)
    if forked is not None:
        assert len(merges) == 1
    return result, built, merges


#: metadata that must agree exactly between the two states
EXACT_METADATA = (
    "peak_tracked_edges",
    "evictions",
    "iterations_run",
    "rolled_back",
    "merge_payload_bytes",
    "boundary_payload_bytes",
    "boundary_edges",
    "boundary_iterations",
)


@pytest.mark.parametrize("name", list(DRIVERS))
def test_dense_state_matches_dict_state(name, instance, monkeypatch):
    dense, dense_states, dense_merges = _run(
        name, instance, DenseKernelState, monkeypatch
    )
    ref, ref_states, ref_merges = _run(name, instance, DictState, monkeypatch)

    assert np.array_equal(dense.assignment, ref.assignment)
    for key in EXACT_METADATA:
        assert dense.metadata.get(key) == ref.metadata.get(key), key
    assert dense.metadata["evictions"] == 0
    assert isinstance(dense.metadata["peak_tracked_edges"], int)
    for key in ("monitored_pc_cost", "final_pc_cost"):
        if key in ref.metadata:
            assert dense.metadata[key] == pytest.approx(
                ref.metadata[key], rel=1e-12
            ), key

    assert [type(s) for s in dense_states] == [DenseKernelState] * len(ref_states)
    for d, r in zip(dense_states, ref_states):
        assert np.array_equal(d.loads, r.loads)
        assert d.peak_tracked_edges == r.peak_tracked_edges
        assert d.evictions == r.evictions == 0
        d_edges, d_rows = d.export_table()
        r_edges, r_rows = r.export_table()
        assert np.array_equal(d_edges, r_edges)
        assert np.array_equal(d_rows, r_rows)
        assert d_rows.dtype == r_rows.dtype == np.int64
        C = uniform_cost_matrix(P)
        assert d.pc_cost(C, edge_weights=instance.edge_weights) == pytest.approx(
            r.pc_cost(C, edge_weights=instance.edge_weights), rel=1e-12
        )

    assert len(dense_merges) == len(ref_merges)
    for d_tables, r_tables in zip(dense_merges, ref_merges):
        assert len(d_tables) == len(r_tables)
        for (d_edges, d_rows), (r_edges, r_rows) in zip(d_tables, r_tables):
            assert np.array_equal(d_edges, r_edges)
            assert np.array_equal(d_rows, r_rows)
            assert d_rows.dtype == r_rows.dtype


@pytest.mark.parametrize("chunk_size", (None, 32))
def test_inmemory_hyperpraw_equals_unbounded_restream(instance, chunk_size):
    """The matrix row for the anchor equivalence: same assignment, same
    passes, and the same Eq. 5 cost after every pass, bit for bit."""
    cfg = HyperPRAWConfig(record_history=True, max_iterations=30, chunk_size=chunk_size)
    ref = HyperPRAW(cfg).partition(instance, P)
    streamed = BufferedRestreamer(cfg, buffer_size=None, chunk_size=40).partition(
        instance, P
    )
    assert np.array_equal(ref.assignment, streamed.assignment)
    assert streamed.metadata["iterations_run"] == ref.metadata["iterations_run"]
    assert len(ref.iterations) == len(streamed.iterations) > 0
    for a, b in zip(ref.iterations, streamed.iterations):
        assert (a.iteration, a.alpha, a.imbalance, a.pc_cost, a.phase) == (
            b.iteration, b.alpha, b.imbalance, b.pc_cost, b.phase
        )
