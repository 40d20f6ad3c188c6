"""Brute-force oracles for the Section 5.2 metrics.

Each oracle is a plain loop over nets or vertices, written from the
metric's definition; the vectorised implementations in
:mod:`repro.core.metrics` must agree with them on the randomized
hypergraphs of ``tests/test_invariants.py``, weighted and unweighted,
with isolated vertices and (for the count-table functions) empty nets.
"""

import numpy as np
import pytest
from test_invariants import FAMILIES, _instance

from repro.core import metrics
from repro.core.metrics import (
    connectivity_minus_one,
    cut_from_counts,
    edge_partition_counts,
    hyperedge_cut,
    imbalance,
    partitioning_comm_cost,
    soed,
    table_comm_cost,
)
from repro.hypergraph.model import Hypergraph

P = 5


def oracle_net_sums(hg, assignment, w):
    """``(cut, SOED, lambda - 1)`` by one loop over nets."""
    cut = soed_ = lam1 = 0.0
    for e in range(hg.num_edges):
        lam = len({int(assignment[v]) for v in hg.edge(e)})
        cut += w[e] * (lam > 1)
        soed_ += w[e] * lam * (lam > 1)
        lam1 += w[e] * (lam - 1)
    return cut, soed_, lam1


def oracle_pc_cost(hg, assignment, C, w):
    """Eq. 5: each vertex pays ``C(own part, part of u)`` per neighbour
    ``u`` on each shared net (with multiplicity, net-weighted)."""
    return sum(
        w[e] * C[assignment[v], assignment[u]]
        for v in range(hg.num_vertices)
        for e in hg.edges_of(v)
        for u in hg.edge(e)
    )


def oracle_pair_cost(rows, C, w):
    """``sum_e w_e sum_{i,j} c_ei c_ej C(i, j)`` by explicit loops."""
    return sum(
        w[e] * row[i] * row[j] * C[i, j]
        for e, row in enumerate(rows)
        for i in range(len(row))
        for j in range(len(row))
    )


def oracle_imbalance(hg, assignment):
    loads = [0.0] * P
    for v in range(hg.num_vertices):
        loads[assignment[v]] += hg.vertex_weights[v]
    mean = sum(loads) / P
    return 1.0 if mean == 0 else max(loads) / mean


@pytest.fixture(
    params=[(f, w, i) for f in FAMILIES for w in (0, 1) for i in (0, 1)],
    ids=lambda c: f"{c[0]}{'-weighted' * c[1]}{'-isolated' * c[2]}",
)
def case(request):
    family, weighted, isolated = request.param
    hg = _instance(family)
    if isolated:  # seven vertices no net touches
        hg = Hypergraph.from_csr_arrays(
            hg.num_vertices + 7, hg.edge_ptr, hg.edge_pins
        )
    rng = np.random.default_rng(len(family) + 2 * weighted + isolated)
    if weighted:
        hg = hg.with_weights(
            vertex_weights=rng.uniform(0.5, 3.0, hg.num_vertices),
            edge_weights=rng.integers(1, 6, hg.num_edges).astype(float),
        )
    C = rng.uniform(1.0, 4.0, (P, P))
    C = C + C.T
    np.fill_diagonal(C, 0.0)
    return hg, rng.integers(0, P, hg.num_vertices), C


@pytest.mark.parametrize("use_w", [True, False])
def test_metrics_match_oracles(case, use_w):
    hg, a, C = case
    w = hg.edge_weights if use_w else np.ones(hg.num_edges)
    counts = edge_partition_counts(hg, a, P)
    cut, soed_, lam1 = oracle_net_sums(hg, a, w)
    assert hyperedge_cut(hg, a, P, use_edge_weights=use_w) == pytest.approx(cut)
    assert cut_from_counts(counts, w if use_w else None) == pytest.approx(cut)
    assert soed(hg, a, P, use_edge_weights=use_w) == pytest.approx(soed_)
    assert connectivity_minus_one(
        hg, a, P, use_edge_weights=use_w
    ) == pytest.approx(lam1)
    pc = oracle_pc_cost(hg, a, C, w)
    assert oracle_pair_cost(counts, C, w) == pytest.approx(pc)
    assert partitioning_comm_cost(
        hg, a, P, C, use_edge_weights=use_w
    ) == pytest.approx(pc)
    assert table_comm_cost(
        counts, C, np.arange(hg.num_edges), w if use_w else None
    ) == pytest.approx(pc)


def test_imbalance_matches_oracle(case):
    hg, a, _ = case
    lopsided = np.zeros(hg.num_vertices, dtype=np.int64)
    lopsided[-1] = 2  # three empty parts
    for parts in (a, lopsided):
        assert imbalance(hg, parts, P) == pytest.approx(oracle_imbalance(hg, parts))


def test_count_tables_with_empty_nets():
    """Presence-table rows may be all zero (an evicted or unseen net):
    such a net is uncut and costs nothing."""
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 3, (40, P))
    rows[::4] = 0
    rows[1::9] = 0
    rows[1::9, 2] = 4  # single-part nets
    w = rng.integers(1, 5, 40).astype(float)
    spans = [np.count_nonzero(r) > 1 for r in rows]
    assert cut_from_counts(rows, w) == pytest.approx(w[spans].sum())
    assert cut_from_counts(rows) == sum(spans)
    C = rng.uniform(0.0, 3.0, (P, P))
    edges = rng.permutation(60)[:40]  # the table's rows are these edge ids
    by_id = np.zeros(60)
    by_id[edges] = w
    assert table_comm_cost(rows, C, edges, by_id) == pytest.approx(
        oracle_pair_cost(rows, C, w)
    )
    assert table_comm_cost(rows[:0], C, edges[:0]) == 0.0


def test_table_cost_across_row_blocks(monkeypatch):
    """Weighted rows of an edge subset priced in one block and in 186
    blocks of 7 rows: both match the brute-force sum."""
    rng = np.random.default_rng(23)
    rows = rng.integers(0, 4, (1300, P))
    edges = rng.permutation(2000)[:1300]
    by_id = rng.uniform(0.5, 3.0, 2000)
    C = rng.uniform(0.0, 3.0, (P, P))
    want = oracle_pair_cost(rows, C, by_id[edges])
    whole = table_comm_cost(rows, C, edges, by_id)
    assert whole == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(metrics, "_COST_MACS", 7 * P * P)
    blocked = table_comm_cost(rows, C, edges, by_id)
    assert blocked == pytest.approx(want, rel=1e-12)
    assert blocked == pytest.approx(whole, rel=1e-14)


@pytest.mark.parametrize("use_w", [True, False])
def test_pc_cost_from_counts_across_row_blocks(use_w, monkeypatch):
    """``partitioning_comm_cost`` over 1,100 nets priced in 64-row
    blocks, with and without a count table handed in, equals the vertex
    oracle and the table price."""
    monkeypatch.setattr(metrics, "_COST_MACS", 64 * P * P)
    rng = np.random.default_rng(29)
    num_vertices, num_edges = 400, 1100
    sizes = rng.integers(1, 6, num_edges)
    pins = np.concatenate(
        [rng.choice(num_vertices, s, replace=False) for s in sizes]
    )
    hg = Hypergraph.from_csr_arrays(
        num_vertices, np.concatenate(([0], np.cumsum(sizes))), pins
    ).with_weights(edge_weights=rng.uniform(0.5, 3.0, num_edges))
    a = rng.integers(0, P, num_vertices)
    C = rng.uniform(1.0, 4.0, (P, P))
    np.fill_diagonal(C, 0.0)
    w = hg.edge_weights if use_w else np.ones(num_edges)
    counts = edge_partition_counts(hg, a, P)
    want = oracle_pc_cost(hg, a, C, w)
    table = table_comm_cost(counts, C, None, w if use_w else None)
    assert table == pytest.approx(want, rel=1e-12)
    for given in (None, counts):
        assert partitioning_comm_cost(
            hg, a, P, C, counts=given, use_edge_weights=use_w
        ) == table
