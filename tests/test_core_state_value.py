"""Tests for the dense kernel state and the value function."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.architecture.cost import uniform_cost_matrix
from repro.core.metrics import edge_partition_counts, partition_loads
from repro.core.value import assignment_values, best_partition
from repro.engine import DenseKernelState
from repro.hypergraph.model import Hypergraph


def dense_state(hg, num_parts, assignment):
    """The dense kernel state HyperPRAW starts from, for ``assignment``."""
    return DenseKernelState(
        num_parts,
        edge_partition_counts(hg, assignment, num_parts),
        partition_loads(hg, assignment, num_parts),
    )


def move(hg, state, assignment, v, part):
    """Lift vertex ``v`` off its part and place it on ``part``."""
    edges = hg.edges_of(v)
    weight = hg.vertex_weights[v]
    state.remove(edges, int(assignment[v]), weight)
    state.place(edges, part, weight)
    assignment[v] = part


def assert_consistent(hg, state, assignment):
    """The incremental counters equal a fresh recomputation."""
    p = state.num_parts
    assert np.array_equal(
        state.edge_counts, edge_partition_counts(hg, assignment, p)
    ), "edge counts drifted"
    assert np.allclose(state.loads, partition_loads(hg, assignment, p)), "loads drifted"


class TestDenseKernelState:
    def test_initial_state_matches_metrics(self, tiny_hypergraph):
        a = np.array([0, 1, 0, 1, 0, 1])
        state = dense_state(tiny_hypergraph, 2, a)
        assert_consistent(tiny_hypergraph, state, a)

    def test_remove_place_roundtrip(self, tiny_hypergraph):
        a = np.array([0, 1, 0, 1, 0, 1])
        state = dense_state(tiny_hypergraph, 2, a)
        move(tiny_hypergraph, state, a, 2, 1)
        assert a[2] == 1
        assert_consistent(tiny_hypergraph, state, a)

    def test_neighbour_counts_exclude_removed_vertex(self, tiny_hypergraph):
        # assignment [0,0,1,1,2,2]; removing vertex 0 and asking for X:
        # edge {0,1,2}: neighbours 1(p0), 2(p1); edge {0,5}: 5(p2).
        state = dense_state(tiny_hypergraph, 3, np.array([0, 0, 1, 1, 2, 2]))
        edges = tiny_hypergraph.edges_of(0)
        state.remove(edges, 0, tiny_hypergraph.vertex_weights[0])
        assert state.gather(edges).tolist() == [1, 1, 1]

    def test_isolated_vertex_neighbours_zero(self):
        hg = Hypergraph(4, [[0, 1]])
        state = dense_state(hg, 2, np.zeros(4, dtype=int))
        edges = hg.edges_of(3)
        state.remove(edges, 0, hg.vertex_weights[3])
        assert state.gather(edges).tolist() == [0, 0]

    def test_imbalance(self, tiny_hypergraph):
        state = dense_state(tiny_hypergraph, 2, np.zeros(6, dtype=int))
        assert state.imbalance() == pytest.approx(2.0)
        assert DenseKernelState.empty(3, 2).imbalance() == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)), min_size=1, max_size=60))
    def test_incremental_matches_recompute(self, moves):
        """After arbitrary move sequences the incremental counters equal a
        fresh recomputation — the core soundness property of the stream."""
        hg = Hypergraph(
            10,
            [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8], [8, 9, 0], [1, 5, 9]],
        )
        a = np.arange(10) % 4
        state = dense_state(hg, 4, a)
        for v, part in moves:
            move(hg, state, a, v, part)
        assert_consistent(hg, state, a)


class TestValueFunction:
    def test_prefers_neighbour_partition(self):
        """All else equal, the vertex goes where its neighbours are."""
        X = np.array([5.0, 0.0, 0.0])
        cost = uniform_cost_matrix(3)
        loads = np.ones(3)
        expected = np.ones(3)
        j = best_partition(X, cost, loads, expected, alpha=0.1)
        assert j == 0

    def test_load_term_breaks_ties(self):
        X = np.zeros(3)
        cost = uniform_cost_matrix(3)
        loads = np.array([5.0, 1.0, 5.0])
        j = best_partition(X, cost, loads, np.ones(3), alpha=1.0)
        assert j == 1

    def test_huge_alpha_forces_balance(self):
        X = np.array([10.0, 0.0])
        cost = uniform_cost_matrix(2)
        loads = np.array([100.0, 0.0])
        j = best_partition(X, cost, loads, np.ones(2), alpha=1e9)
        assert j == 1

    def test_cost_matrix_steers_choice(self):
        """Neighbours in partition 0; candidate partitions 1 and 2 are
        empty, but 1 has a cheap link to 0 — the vertex should prefer 1
        over 2 when it cannot join 0 (0 is overloaded)."""
        cost = np.array(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
        )
        X = np.array([8.0, 0.0, 0.0])
        loads = np.array([50.0, 1.0, 1.0])
        values = assignment_values(X, cost, loads, np.ones(3) * 10, alpha=10.0)
        assert values[1] > values[2]

    def test_matches_eq1_by_hand(self):
        """V_i = -N_i * T_i - alpha*W_i/E_i on a worked example."""
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = np.array([3.0, 1.0])  # neighbours in both partitions
        loads = np.array([4.0, 2.0])
        expected = np.array([3.0, 3.0])
        alpha = 0.5
        values = assignment_values(X, cost, loads, expected, alpha)
        # N = 2/2 = 1; T_0 = X_1*C(0,1) = 1; T_1 = X_0*C(1,0) = 3
        assert values[0] == pytest.approx(-1.0 * 1.0 - 0.5 * 4 / 3)
        assert values[1] == pytest.approx(-1.0 * 3.0 - 0.5 * 2 / 3)

    def test_presence_threshold(self):
        """Threshold 2 ignores partitions with a single neighbour in the
        N_i scaling (literal Eq. 3 reading)."""
        cost = uniform_cost_matrix(4)
        X = np.array([1.0, 1.0, 1.0, 0.0])
        loads = np.zeros(4)
        v1 = assignment_values(X, cost, loads, np.ones(4), 0.0, presence_threshold=1)
        v2 = assignment_values(X, cost, loads, np.ones(4), 0.0, presence_threshold=2)
        # threshold 2 => N = 0 => communication term vanishes entirely
        assert np.allclose(v2, 0.0)
        assert not np.allclose(v1, 0.0)

    def test_out_buffer_reused(self):
        out = np.empty(3)
        res = assignment_values(
            np.ones(3), uniform_cost_matrix(3), np.ones(3), np.ones(3), 1.0, out=out
        )
        assert res is out
