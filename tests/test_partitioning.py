"""Tests for the baseline partitioners (simple, FENNEL, multilevel RB).

The FENNEL baseline is ``OnePassStreamer(scorer="fennel", alpha="fennel")``.
"""

import numpy as np
import pytest

from repro.architecture.cost import uniform_cost_matrix
from repro.core.metrics import hyperedge_cut, imbalance, partition_loads
from repro.hypergraph.model import Hypergraph
from repro.partitioning.multilevel import MultilevelRB
from repro.partitioning.multilevel.coarsen import (
    coarsen_hierarchy,
    contract,
    heavy_connectivity_matching,
)
from repro.partitioning.multilevel.driver import induced_subhypergraph
from repro.partitioning.multilevel.fm import fm_refine, initial_gains
from repro.partitioning.multilevel.initial import bisection_cut, greedy_growing_bisection
from repro.partitioning.simple import (
    ContiguousPartitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
)
from repro.streaming import OnePassStreamer


def _fennel(**kwargs) -> OnePassStreamer:
    return OnePassStreamer(scorer="fennel", alpha="fennel", **kwargs)


class TestSimplePartitioners:
    def test_round_robin(self, tiny_hypergraph):
        res = RoundRobinPartitioner().partition(tiny_hypergraph, 3)
        assert res.assignment.tolist() == [0, 1, 2, 0, 1, 2]

    def test_random_seeded(self, small_random):
        a = RandomPartitioner().partition(small_random, 4, seed=1).assignment
        b = RandomPartitioner().partition(small_random, 4, seed=1).assignment
        c = RandomPartitioner().partition(small_random, 4, seed=2).assignment
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_contiguous_blocks(self, tiny_hypergraph):
        res = ContiguousPartitioner().partition(tiny_hypergraph, 3)
        assert res.assignment.tolist() == [0, 0, 1, 1, 2, 2]

    def test_contiguous_weight_aware(self):
        hg = Hypergraph(4, [[0, 1]], vertex_weights=[10, 1, 1, 1])
        res = ContiguousPartitioner().partition(hg, 2)
        # vertex 0 alone carries most weight; boundary lands right after it
        loads = partition_loads(hg, res.assignment, 2)
        assert loads[0] == 10.0

    def test_part_sizes(self, tiny_hypergraph):
        res = RoundRobinPartitioner().partition(tiny_hypergraph, 4)
        assert res.part_sizes().sum() == 6


class TestFennel:
    def test_valid_and_balanced(self, small_random):
        res = _fennel().partition(small_random, 8)
        assert res.assignment.min() >= 0 and res.assignment.max() < 8
        assert imbalance(small_random, res.assignment, 8) <= 1.25

    def test_beats_random_on_structure(self, two_cluster_hypergraph):
        hg = two_cluster_hypergraph
        fennel_cut = hyperedge_cut(
            hg, _fennel().partition(hg, 2).assignment, 2
        )
        rand_cut = hyperedge_cut(
            hg, RandomPartitioner().partition(hg, 2, seed=0).assignment, 2
        )
        assert fennel_cut <= rand_cut

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            _fennel(gamma=1.0)
        with pytest.raises(ValueError):
            _fennel(balance_slack=1.0)


class TestMatching:
    def test_symmetric_and_complete(self, small_mesh):
        match = heavy_connectivity_matching(small_mesh, seed=0)
        for v, m in enumerate(match):
            assert match[m] == v  # symmetric (self-matched included)

    def test_matches_connected_pairs(self, two_cluster_hypergraph):
        match = heavy_connectivity_matching(two_cluster_hypergraph, seed=0)
        for v, m in enumerate(match):
            if m != v:
                # matched vertices share at least one hyperedge
                shared = set(two_cluster_hypergraph.edges_of(v)) & set(
                    two_cluster_hypergraph.edges_of(m)
                )
                assert shared


class TestContract:
    def test_preserves_total_weight(self, small_mesh):
        match = heavy_connectivity_matching(small_mesh, seed=0)
        level = contract(small_mesh, match)
        assert level.hypergraph.total_vertex_weight() == pytest.approx(
            small_mesh.total_vertex_weight()
        )

    def test_vertex_map_valid(self, small_mesh):
        match = heavy_connectivity_matching(small_mesh, seed=0)
        level = contract(small_mesh, match)
        vm = level.vertex_map
        assert vm.shape == (small_mesh.num_vertices,)
        assert vm.min() >= 0
        assert vm.max() == level.hypergraph.num_vertices - 1

    def test_matched_pairs_merge(self):
        hg = Hypergraph(4, [[0, 1], [2, 3], [1, 2]])
        match = np.array([1, 0, 3, 2])
        level = contract(hg, match)
        assert level.hypergraph.num_vertices == 2
        # nets {0,1} and {2,3} collapse to singletons and are dropped;
        # net {1,2} becomes the single coarse net {0,1}
        assert level.hypergraph.num_edges == 1

    def test_parallel_nets_merge_weights(self):
        hg = Hypergraph(4, [[0, 2], [1, 3]], edge_weights=[2, 5])
        match = np.array([1, 0, 3, 2])
        level = contract(hg, match)
        assert level.hypergraph.num_edges == 1
        assert level.hypergraph.edge_weights[0] == 7.0

    def test_hierarchy_shrinks(self, small_mesh):
        levels = coarsen_hierarchy(small_mesh, min_vertices=40, seed=0)
        assert levels
        sizes = [small_mesh.num_vertices] + [
            l.hypergraph.num_vertices for l in levels
        ]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestInitialBisection:
    def test_bisection_cut_counts(self, tiny_hypergraph):
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        # cut edges: {2,3} and {0,5} => 2
        assert bisection_cut(tiny_hypergraph, side) == 2.0

    def test_greedy_growing_hits_target(self, small_mesh):
        target = small_mesh.total_vertex_weight() / 2
        side = greedy_growing_bisection(small_mesh, target, seed=0)
        w0 = small_mesh.vertex_weights[side == 0].sum()
        assert abs(w0 - target) <= small_mesh.vertex_weights.max() + 1e-9

    def test_separates_clusters(self, two_cluster_hypergraph):
        side = greedy_growing_bisection(
            two_cluster_hypergraph, 5.0, trials=4, seed=0
        )
        assert bisection_cut(two_cluster_hypergraph, side) <= 1.0


class TestFM:
    def test_gains_match_definition(self, tiny_hypergraph):
        from repro.partitioning.multilevel.fm import _side_counts

        side = np.array([0, 0, 1, 1, 1, 0], dtype=np.int8)
        counts = _side_counts(tiny_hypergraph, side)
        gains = initial_gains(tiny_hypergraph, side, counts)
        # Moving a vertex and recomputing the cut must change it by -gain.
        base = bisection_cut(tiny_hypergraph, side)
        for v in range(6):
            flipped = side.copy()
            flipped[v] = 1 - flipped[v]
            assert bisection_cut(tiny_hypergraph, flipped) == pytest.approx(
                base - gains[v]
            )

    def test_never_worsens_cut(self, small_mesh):
        rng = np.random.default_rng(0)
        side = rng.integers(0, 2, small_mesh.num_vertices).astype(np.int8)
        before = bisection_cut(small_mesh, side)
        half = small_mesh.total_vertex_weight() / 2
        refined, after = fm_refine(small_mesh, side, (half, half), slack=1.1)
        assert after <= before + 1e-9
        assert after == pytest.approx(bisection_cut(small_mesh, refined))

    def test_respects_balance_caps(self, small_mesh):
        rng = np.random.default_rng(1)
        side = rng.integers(0, 2, small_mesh.num_vertices).astype(np.int8)
        half = small_mesh.total_vertex_weight() / 2
        refined, _ = fm_refine(small_mesh, side, (half, half), slack=1.05)
        w0 = small_mesh.vertex_weights[refined == 0].sum()
        assert w0 <= half * 1.05 + 1e-9
        assert (small_mesh.total_vertex_weight() - w0) <= half * 1.05 + 1e-9

    def test_repairs_degenerate_start(self, two_cluster_hypergraph):
        """FM must rebalance an all-on-one-side start."""
        hg = two_cluster_hypergraph
        side = np.zeros(hg.num_vertices, dtype=np.int8)
        refined, cut = fm_refine(hg, side, (5.0, 5.0), slack=1.1, max_passes=6)
        loads = [
            hg.vertex_weights[refined == 0].sum(),
            hg.vertex_weights[refined == 1].sum(),
        ]
        assert min(loads) > 0
        assert cut <= 1.0  # optimal separates the clusters

    def test_slack_validation(self, tiny_hypergraph):
        with pytest.raises(ValueError):
            fm_refine(tiny_hypergraph, np.zeros(6, dtype=np.int8), (3, 3), slack=1.0)


class TestInducedSubhypergraph:
    def test_extracts_pins_and_drops_small_nets(self, tiny_hypergraph):
        mask = np.array([True, True, True, False, False, False])
        sub, ids = induced_subhypergraph(tiny_hypergraph, mask)
        assert ids.tolist() == [0, 1, 2]
        # edges: {0,1,2} kept; {2,3}->{2} dropped; {3,4,5} dropped; {0,5}->{0} dropped
        assert sub.num_edges == 1
        assert sub.edge(0).tolist() == [0, 1, 2]

    def test_weights_carried(self):
        hg = Hypergraph(
            4, [[0, 1, 2], [1, 2, 3]], vertex_weights=[1, 2, 3, 4], edge_weights=[7, 9]
        )
        sub, ids = induced_subhypergraph(hg, np.array([False, True, True, True]))
        assert sub.vertex_weights.tolist() == [2.0, 3.0, 4.0]
        assert sub.edge_weights.tolist() == [7.0, 9.0]

    def test_bad_mask(self, tiny_hypergraph):
        with pytest.raises(ValueError):
            induced_subhypergraph(tiny_hypergraph, np.ones(3, dtype=bool))


class TestMultilevelRB:
    def test_valid_assignment(self, small_mesh):
        res = MultilevelRB().partition(small_mesh, 8, seed=0)
        assert res.assignment.shape == (small_mesh.num_vertices,)
        assert set(np.unique(res.assignment)) <= set(range(8))

    def test_balance(self, small_mesh):
        res = MultilevelRB(imbalance_tolerance=1.1).partition(small_mesh, 8, seed=0)
        assert imbalance(small_mesh, res.assignment, 8) <= 1.25

    def test_beats_random_cut(self, small_mesh):
        ml_cut = hyperedge_cut(
            small_mesh, MultilevelRB().partition(small_mesh, 8, seed=0).assignment, 8
        )
        rnd_cut = hyperedge_cut(
            small_mesh,
            RandomPartitioner().partition(small_mesh, 8, seed=0).assignment,
            8,
        )
        assert ml_cut < rnd_cut

    def test_separates_clusters(self, two_cluster_hypergraph):
        res = MultilevelRB().partition(two_cluster_hypergraph, 2, seed=0)
        assert hyperedge_cut(two_cluster_hypergraph, res.assignment, 2) <= 1.0

    def test_non_power_of_two_parts(self, small_mesh):
        res = MultilevelRB().partition(small_mesh, 6, seed=0)
        sizes = res.part_sizes()
        assert (sizes > 0).all()
        assert imbalance(small_mesh, res.assignment, 6) <= 1.3

    def test_deterministic_given_seed(self, small_random):
        a = MultilevelRB().partition(small_random, 4, seed=5).assignment
        b = MultilevelRB().partition(small_random, 4, seed=5).assignment
        assert np.array_equal(a, b)

    def test_single_part(self, tiny_hypergraph):
        res = MultilevelRB().partition(tiny_hypergraph, 1)
        assert np.all(res.assignment == 0)

    def test_ignores_cost_matrix(self, small_random):
        c = uniform_cost_matrix(4) * 1.5
        np.fill_diagonal(c, 0)
        a = MultilevelRB().partition(small_random, 4, seed=1, cost_matrix=c).assignment
        b = MultilevelRB().partition(small_random, 4, seed=1).assignment
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultilevelRB(imbalance_tolerance=0.5)
