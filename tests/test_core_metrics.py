"""Tests for partition quality metrics (paper Section 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.architecture.cost import uniform_cost_matrix
from repro.core.metrics import (
    connectivity_minus_one,
    edge_partition_counts,
    evaluate_partition,
    hyperedge_cut,
    imbalance,
    partition_loads,
    partitioning_comm_cost,
    soed,
)
from repro.hypergraph.model import Hypergraph


@pytest.fixture
def parted(tiny_hypergraph):
    """tiny hypergraph with assignment [0,0,1,1,2,2] over 3 parts.

    Edge spans: {0,1,2}->parts{0,1}; {2,3}->{1}; {3,4,5}->{1,2,2};
    {0,5}->{0,2}.
    """
    return tiny_hypergraph, np.array([0, 0, 1, 1, 2, 2]), 3


class TestEdgePartitionCounts:
    def test_exact_counts(self, parted):
        hg, a, p = parted
        counts = edge_partition_counts(hg, a, p)
        assert counts.tolist() == [
            [2, 1, 0],
            [0, 2, 0],
            [0, 1, 2],
            [1, 0, 1],
        ]

    def test_row_sums_are_cardinalities(self, parted):
        hg, a, p = parted
        counts = edge_partition_counts(hg, a, p)
        assert np.array_equal(counts.sum(axis=1), hg.cardinalities())

    def test_shape_validation(self, tiny_hypergraph):
        with pytest.raises(ValueError):
            edge_partition_counts(tiny_hypergraph, np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError):
            edge_partition_counts(tiny_hypergraph, np.full(6, 5), 2)


class TestCutMetrics:
    def test_hyperedge_cut(self, parted):
        hg, a, p = parted
        # edges 0, 2, 3 are cut; edge 1 is internal to part 1
        assert hyperedge_cut(hg, a, p) == 3.0

    def test_soed(self, parted):
        hg, a, p = parted
        # lambda = [2, 1, 2, 2]; SOED sums lambda of cut edges = 2+2+2
        assert soed(hg, a, p) == 6.0

    def test_connectivity_minus_one(self, parted):
        hg, a, p = parted
        assert connectivity_minus_one(hg, a, p) == 3.0

    def test_soed_equals_cut_plus_connectivity(self, parted):
        hg, a, p = parted
        assert soed(hg, a, p) == hyperedge_cut(hg, a, p) + connectivity_minus_one(
            hg, a, p
        )

    def test_single_partition_zero_cut(self, tiny_hypergraph):
        a = np.zeros(6, dtype=int)
        assert hyperedge_cut(tiny_hypergraph, a, 1) == 0.0
        assert soed(tiny_hypergraph, a, 1) == 0.0

    def test_weights_respected(self, parted):
        hg, a, p = parted
        weighted = hg.with_weights(edge_weights=[10, 1, 100, 1000])
        assert hyperedge_cut(weighted, a, p) == 1110.0
        assert hyperedge_cut(weighted, a, p, use_edge_weights=False) == 3.0


class TestLoadsAndImbalance:
    def test_loads(self, parted):
        hg, a, p = parted
        assert partition_loads(hg, a, p).tolist() == [2.0, 2.0, 2.0]

    def test_perfect_balance(self, parted):
        hg, a, p = parted
        assert imbalance(hg, a, p) == pytest.approx(1.0)

    def test_worst_imbalance(self, tiny_hypergraph):
        a = np.zeros(6, dtype=int)
        assert imbalance(tiny_hypergraph, a, 3) == pytest.approx(3.0)

    def test_weighted_loads(self, tiny_hypergraph):
        hg = tiny_hypergraph.with_weights(vertex_weights=[1, 1, 1, 1, 1, 7])
        a = np.array([0, 0, 0, 1, 1, 1])
        loads = partition_loads(hg, a, 2)
        assert loads.tolist() == [3.0, 9.0]
        assert imbalance(hg, a, 2) == pytest.approx(1.5)


class TestPCCost:
    def test_uniform_cost_counts_cross_pairs(self, parted):
        """With the uniform matrix, PC equals the number of ordered
        cross-partition neighbour pairs: sum_e (|e|^2 - sum_k n_k^2)."""
        hg, a, p = parted
        counts = edge_partition_counts(hg, a, p)
        cards = hg.cardinalities()
        expected = float((cards**2 - (counts**2).sum(axis=1)).sum())
        got = partitioning_comm_cost(hg, a, p, uniform_cost_matrix(p))
        assert got == pytest.approx(expected)

    def test_single_partition_is_zero(self, tiny_hypergraph):
        a = np.zeros(6, dtype=int)
        assert partitioning_comm_cost(tiny_hypergraph, a, 1, uniform_cost_matrix(1)) == 0.0

    def test_costlier_links_raise_pc(self, parted):
        hg, a, p = parted
        cheap = uniform_cost_matrix(p)
        pricey = cheap * 2.0
        np.fill_diagonal(pricey, 0.0)
        assert partitioning_comm_cost(hg, a, p, pricey) == pytest.approx(
            2 * partitioning_comm_cost(hg, a, p, cheap)
        )

    def test_placement_sensitivity(self, tiny_hypergraph):
        """Moving a cut pair onto a cheap link lowers PC."""
        hg = tiny_hypergraph
        cost = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        )
        a_cheap = np.array([0, 0, 1, 1, 1, 0])  # cut pairs mostly 0<->1
        a_dear = np.array([0, 0, 2, 2, 2, 0])  # same shape but 0<->2
        assert partitioning_comm_cost(hg, a_cheap, 3, cost) < partitioning_comm_cost(
            hg, a_dear, 3, cost
        )


class TestEvaluatePartition:
    def test_bundle_consistent(self, parted):
        hg, a, p = parted
        q = evaluate_partition(hg, a, p, uniform_cost_matrix(p), algorithm="x")
        assert q.algorithm == "x"
        assert q.hyperedge_cut == hyperedge_cut(hg, a, p)
        assert q.soed == soed(hg, a, p)
        assert q.imbalance == pytest.approx(1.0)
        assert set(q.as_dict()) >= {"pc_cost", "soed", "hyperedge_cut"}


@st.composite
def partitioned_hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    num_edges = draw(st.integers(min_value=1, max_value=12))
    edges = [
        draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=1,
                max_size=min(6, n),
            )
        )
        for _ in range(num_edges)
    ]
    p = draw(st.integers(min_value=1, max_value=5))
    assignment = draw(
        st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    )
    return Hypergraph(n, edges), np.asarray(assignment), p


@settings(max_examples=60, deadline=None)
@given(partitioned_hypergraphs())
def test_metric_invariants(case):
    hg, a, p = case
    counts = edge_partition_counts(hg, a, p)
    cut = hyperedge_cut(hg, a, p, counts=counts)
    s = soed(hg, a, p, counts=counts)
    conn = connectivity_minus_one(hg, a, p, counts=counts)
    # invariants: 0 <= cut <= |E|, soed = cut + conn, conn >= cut for
    # unweighted (every cut edge has lambda-1 >= 1), soed >= 2*cut.
    assert 0 <= cut <= hg.num_edges
    assert s == pytest.approx(cut + conn)
    assert conn >= cut - 1e-9
    assert s >= 2 * cut - 1e-9
    # PC with uniform costs equals ordered cross pairs and is non-negative.
    pc = partitioning_comm_cost(hg, a, p, uniform_cost_matrix(p), counts=counts)
    cards = hg.cardinalities()
    assert pc == pytest.approx(float((cards**2 - (counts**2).sum(axis=1)).sum()))
    assert imbalance(hg, a, p) >= 1.0 - 1e-12
