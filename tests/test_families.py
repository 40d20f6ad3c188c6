"""Family-specific pins: goldens, LRU equivalence, refinement laws.

The invariant matrix (``tests/test_invariants.py``) asserts what every
registered partitioner must satisfy; this suite pins what each *family*
of :mod:`repro.partitioning.families` specifically promises:

* golden fixtures — tiny hand-traced hypergraphs with exact expected
  assignments for the HYPE-style expansion and the min-max streamer
  (the traces are written out in comments, so a behaviour change shows
  up as a readable diff, not just a digest flip);
* capped-LRU equivalence — a presence-table cap that never fills is
  bit-identical to the unbounded table, and a tight cap degrades
  quality boundedly while keeping every invariant;
* :class:`~repro.partitioning.families.MinMaxState` unit laws — the
  live connectivity counter under place/remove/eviction/overlay;
* refinement laws — the FM polish never worsens the weighted cut, is
  identical for every worker count, and respects its balance cap;
* stream adapters — ``assemble`` (HYPE's stream path) rebuilds the exact
  CSR.
"""

import numpy as np
import pytest

from repro.architecture.cost import uniform_cost_matrix
from repro.core.metrics import evaluate_partition
from repro.hypergraph.generators import random_uniform_hypergraph
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.partitioning.families import (
    MinMaxState,
    MinMaxStreamer,
    NeighborhoodExpansion,
    PolishedStreamer,
    RefineConfig,
    build_partitioner,
    get_family,
    partition_spec,
    refine_partition,
)
from repro.streaming import OnePassStreamer, stream_hmetis
from repro.streaming.reader import assemble

P = 2


def _cut(hg, assignment, num_parts):
    return evaluate_partition(
        hg, assignment, num_parts, uniform_cost_matrix(num_parts)
    ).hyperedge_cut


def _instance(seed=5):
    return random_uniform_hypergraph(200, 260, 4.0, seed=seed, name="fam")


class TestGoldenFixtures:
    """Hand-traced expected assignments on tiny fixtures."""

    def test_minmax_golden_trace(self):
        # Nets: e0={0} e1={0} (ballast part0), e2..e4={1} (ballast
        # part1), e5={2,3} (the pair that must co-locate), e6={4},
        # e7={5}.  W=6, p=2, slack 1.1 -> cap 3.3 (max 3 per part).
        # Greedy min-max trace (score_i = X_i - conn_i - eps*load_i/3):
        #   v0: all-zero tie            -> part0   conn=[2,0]
        #   v1: -2 vs 0                 -> part1   conn=[2,3]
        #   v2: -2 vs -3                -> part0   conn=[3,3]
        #   v3: X0=1 breaks the conn tie -> part0  (e5 stays uncut)
        #   v4: conn tie, load tie-break -> part1
        #   v5: part0 is over the cap    -> part1
        hg = Hypergraph(
            6, [[0], [0], [1], [1], [1], [2, 3], [4], [5]], name="mm-golden"
        )
        expected = [0, 1, 0, 0, 1, 1]
        for chunk_size in (1, 2, 6):  # vertex mode: chunking-invariant
            r = MinMaxStreamer(chunk_size=chunk_size).partition(hg, 2)
            assert r.assignment.tolist() == expected, chunk_size
        r = MinMaxStreamer(chunk_size=2).partition(hg, 2)
        assert _cut(hg, r.assignment, 2) == 0  # e5 not cut
        assert r.metadata["imbalance"] == pytest.approx(1.0)
        # part1 holds nets e2,e3,e4,e6,e7; part0 holds e0,e1,e5
        assert r.metadata["max_connectivity"] == 5

    def test_hype_golden_trace(self):
        # Two triangles joined by one bridge net.  Cap 1.05*6/2 = 3.15
        # forces a 3/3 split; the expansion order seeds at the lowest
        # degree vertex (v0) and the external-neighbour score keeps each
        # triangle whole, so the only reachable outcome is {012|345}
        # with exactly the bridge cut.
        hg = Hypergraph(6, [[0, 1, 2], [3, 4, 5], [2, 3]], name="hype-golden")
        expected = [0, 0, 0, 1, 1, 1]
        for chunk_size in (1, 2, 6):
            r = NeighborhoodExpansion(chunk_size=chunk_size).partition(hg, 2)
            assert r.assignment.tolist() == expected, chunk_size
        r = NeighborhoodExpansion(chunk_size=2).partition(hg, 2)
        assert _cut(hg, r.assignment, 2) == 1  # only the bridge
        assert r.metadata["imbalance"] == pytest.approx(1.0)
        assert r.metadata["architecture_aware"] is False

    def test_hype_cap_spills_into_next_part(self):
        # One clique over all vertices: without the cap everything would
        # land on part0; the cap forces an exact 2/2 spill.
        hg = Hypergraph(4, [[0, 1, 2, 3]], name="hype-cap")
        r = NeighborhoodExpansion().partition(hg, 2)
        loads = np.bincount(r.assignment, minlength=2)
        assert sorted(loads.tolist()) == [2, 2]


class TestMinMaxStateLaws:
    """The live connectivity counter, under every mutation path."""

    def _state(self, max_tracked_edges=None):
        return MinMaxState(
            2, expected_loads=np.ones(2), max_tracked_edges=max_tracked_edges
        )

    def test_place_and_remove_track_presence_transitions(self):
        s = self._state()
        e = np.array([3, 7], dtype=np.int64)
        s.place(e, 0, 1.0)
        assert s.connectivity.tolist() == [2, 0]
        s.place(np.array([3], dtype=np.int64), 0, 1.0)  # 1 -> 2: no change
        assert s.connectivity.tolist() == [2, 0]
        s.place(np.array([3], dtype=np.int64), 1, 1.0)  # new part incidence
        assert s.connectivity.tolist() == [2, 1]
        s.remove(np.array([3], dtype=np.int64), 0, 1.0)  # 2 -> 1: no change
        assert s.connectivity.tolist() == [2, 1]
        s.remove(np.array([3], dtype=np.int64), 0, 1.0)  # 1 -> 0: retire
        assert s.connectivity.tolist() == [1, 1]
        assert s.loads.tolist() == [0.0, 1.0]

    def test_gather_returns_presence_not_pin_counts(self):
        s = self._state()
        e = np.array([5], dtype=np.int64)
        for _ in range(3):
            s.place(e, 0, 1.0)
        # summed pin counts would be 3; presence is 1
        assert s.gather(np.array([5, 9], dtype=np.int64)).tolist() == [1, 0]
        X = s.gather_block(
            np.array([5, 9, 5], dtype=np.int64),
            np.array([0, 2, 3], dtype=np.int64),
        )
        assert X.tolist() == [[1, 0], [1, 0]]

    def test_eviction_retires_connectivity(self):
        s = self._state(max_tracked_edges=1)
        s.place(np.array([0], dtype=np.int64), 0, 1.0)
        assert s.connectivity.tolist() == [1, 0]
        s.place(np.array([1], dtype=np.int64), 1, 1.0)  # evicts net 0
        assert s.evictions == 1
        # net 0's part0 incidence left the counter with its row
        assert s.connectivity.tolist() == [0, 1]
        assert s.gather(np.array([0], dtype=np.int64)).tolist() == [0, 0]

    def test_overlay_recounts(self):
        s = self._state()
        s.set_rows(
            np.array([2, 4], dtype=np.int64),
            np.array([[3, 0], [1, 2]], dtype=np.int64),
        )
        assert s.connectivity.tolist() == [2, 1]
        # seed_table accumulates into existing rows: row 2 -> [3, 1]
        s.seed_table(
            np.array([2], dtype=np.int64), np.array([[0, 1]], dtype=np.int64)
        )
        assert s.connectivity.tolist() == [2, 2]
        # set_rows overwrites: row 2 -> [0, 1]
        s.set_rows(
            np.array([2], dtype=np.int64), np.array([[0, 1]], dtype=np.int64)
        )
        assert s.connectivity.tolist() == [1, 2]


class TestCappedLRUEquivalence:
    """The presence-table cap: exact when idle, bounded when tight."""

    def test_roomy_cap_is_bit_identical_to_unbounded(self):
        hg = _instance()
        exact = MinMaxStreamer(chunk_size=32).partition(hg, 4)
        roomy = MinMaxStreamer(
            chunk_size=32, max_tracked_edges=hg.num_edges
        ).partition(hg, 4)
        assert np.array_equal(exact.assignment, roomy.assignment)
        assert roomy.metadata["evictions"] == 0
        assert roomy.metadata["peak_tracked_edges"] <= hg.num_edges

    def test_tight_cap_keeps_invariants_and_bounds_quality(self):
        hg = _instance()
        exact = MinMaxStreamer(chunk_size=32).partition(hg, 4)
        capped = MinMaxStreamer(
            chunk_size=32, max_tracked_edges=16
        ).partition(hg, 4)
        assert capped.metadata["evictions"] > 0  # the pressure is real
        assert capped.metadata["peak_tracked_edges"] <= 16
        assert (capped.assignment >= 0).all()
        loads = np.bincount(capped.assignment, minlength=4).astype(float)
        assert loads.max() / loads.mean() <= 1.15 + 1e-9
        # forgetting nets costs quality boundedly, not catastrophically
        cut_exact = _cut(hg, exact.assignment, 4)
        cut_capped = _cut(hg, capped.assignment, 4)
        assert cut_capped <= 2.0 * max(cut_exact, 1.0)

    def test_hype_capped_table_stays_valid(self):
        hg = _instance()
        capped = NeighborhoodExpansion(
            chunk_size=32, max_tracked_edges=16
        ).partition(hg, 4)
        assert capped.metadata["evictions"] > 0
        assert capped.metadata["peak_tracked_edges"] <= 16
        loads = np.bincount(capped.assignment, minlength=4).astype(float)
        assert loads.max() / loads.mean() <= 1.05 + 1e-9

    def test_similarity_buffer_reorders_deterministically(self):
        hg = _instance()
        make = lambda: MinMaxStreamer(chunk_size=32, buffer_size=64)
        a, b = make().partition(hg, 4), make().partition(hg, 4)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.metadata["similarity_ordered"] is True
        plain = MinMaxStreamer(chunk_size=32).partition(hg, 4)
        assert plain.metadata["similarity_ordered"] is False


class TestRefinementLaws:
    """The FM polish: monotone, balanced, worker-count invariant."""

    def test_polish_never_worsens_the_cut(self):
        hg = _instance()
        base = OnePassStreamer(chunk_size=32).partition(hg, 4)
        refined, stats = refine_partition(hg, base.assignment, 4)
        assert stats["refine_cut_after"] <= stats["refine_cut_before"]
        assert _cut(hg, refined, 4) <= _cut(hg, base.assignment, 4)
        assert stats["imbalance"] <= 1.1 + 1e-9
        assert not np.shares_memory(refined, base.assignment)

    def test_refine_workers_never_change_the_answer(self):
        hg = _instance(seed=6)
        base = OnePassStreamer(chunk_size=32).partition(hg, 4)
        outs = [
            refine_partition(
                hg, base.assignment, 4, refine=RefineConfig(workers=w)
            )
            for w in (1, 2, 4)
        ]
        for refined, stats in outs[1:]:
            assert np.array_equal(refined, outs[0][0])
            assert stats["refine_moves"] == outs[0][1]["refine_moves"]

    def test_min_gain_filters_moves(self):
        hg = _instance()
        base = OnePassStreamer(chunk_size=32).partition(hg, 4)
        _, loose = refine_partition(hg, base.assignment, 4)
        _, strict = refine_partition(
            hg, base.assignment, 4, refine=RefineConfig(min_gain=1e9)
        )
        assert strict["refine_moves"] == 0
        assert strict["refine_cut_after"] == strict["refine_cut_before"]
        assert loose["refine_moves"] >= strict["refine_moves"]

    def test_polished_streamer_wraps_any_family(self):
        hg = _instance()
        polished = PolishedStreamer(MinMaxStreamer(chunk_size=32))
        assert polished.name == "stream-minmax+fm"
        r = polished.partition(hg, 4)
        assert r.algorithm == "stream-minmax+fm"
        assert r.metadata["refined"] is True
        assert r.metadata["refine_cut_after"] <= r.metadata["refine_cut_before"]
        base = MinMaxStreamer(chunk_size=32).partition(hg, 4)
        assert _cut(hg, r.assignment, 4) <= _cut(hg, base.assignment, 4)

    def test_refine_config_validation(self):
        with pytest.raises(ValueError, match="passes"):
            RefineConfig(passes=0)
        with pytest.raises(ValueError, match="balance_slack"):
            RefineConfig(balance_slack=1.0)
        with pytest.raises(ValueError, match="workers"):
            RefineConfig(workers=0)
        with pytest.raises(ValueError, match="min_gain"):
            RefineConfig(min_gain=-0.5)


class TestStreamAdapters:
    """assemble and the streamed entry points."""

    def test_assemble_roundtrips_the_csr(self, tmp_path):
        hg = _instance()
        path = tmp_path / "fam.hgr"
        write_hmetis(hg, path, write_weights=True)
        with stream_hmetis(path, chunk_size=48) as stream:
            rebuilt = assemble(stream)
        assert rebuilt.num_vertices == hg.num_vertices
        assert rebuilt.num_edges == hg.num_edges
        assert np.array_equal(rebuilt.edge_ptr, hg.edge_ptr)
        assert np.array_equal(rebuilt.edge_pins, hg.edge_pins)
        assert np.allclose(rebuilt.vertex_weights, hg.vertex_weights)
        assert np.allclose(rebuilt.edge_weights, hg.edge_weights)

    def test_streamed_equals_in_memory(self, tmp_path):
        hg = _instance()
        path = tmp_path / "fam.hgr"
        write_hmetis(hg, path, write_weights=True)
        for make in (
            lambda: MinMaxStreamer(chunk_size=48),
            lambda: NeighborhoodExpansion(chunk_size=48),
        ):
            direct = make().partition(hg, 4)
            with stream_hmetis(path, chunk_size=48) as stream:
                streamed = make().partition_stream(stream, 4)
            assert np.array_equal(direct.assignment, streamed.assignment)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="balance_slack"):
            NeighborhoodExpansion(balance_slack=0.9)
        with pytest.raises(ValueError, match="chunk_size"):
            MinMaxStreamer(chunk_size=0)
        with pytest.raises(ValueError, match="buffer_size"):
            MinMaxStreamer(buffer_size=0)
        with pytest.raises(ValueError, match="score_mode"):
            NeighborhoodExpansion(score_mode="banana")
        with pytest.raises(ValueError, match="workers"):
            MinMaxStreamer(workers=0)
        with pytest.raises(ValueError, match="tie_penalty"):
            MinMaxStreamer(tie_penalty=-1.0).partition(_instance(), 2)

    def test_registry_lookup_and_refine_wrapping(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            get_family("nope")
        spec = partition_spec(
            {"partitioner": "minmax", "refine": "1", "refine_passes": "2"}
        )
        built = build_partitioner(spec, 100)
        assert isinstance(built, PolishedStreamer)
        assert built.name == "stream-minmax+fm"
