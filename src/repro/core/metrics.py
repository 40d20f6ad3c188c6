"""Partition quality metrics (paper Section 5.2).

The paper reports three quality metrics plus balance:

* **hyperedge cut** — number (or weight) of hyperedges spanning more than
  one partition (Figure 4A);
* **SOED** (sum of external degrees) — for each cut hyperedge, the number
  of partitions it touches, summed (Figure 4B);
* **partitioning communication cost** ``PC(P)`` (Eq. 5) — the cut
  structure weighted by the machine's pairwise communication costs
  (Figure 4C); this is also the refinement phase's monitored metric;
* **imbalance** — max partition load over mean partition load.

Everything is computed from one intermediate, the ``(E x p)`` hyperedge-
partition pin-count matrix of :func:`edge_partition_counts`, so a single
O(pins) pass feeds all metrics.  The connectivity-1 metric
(:func:`connectivity_minus_one`) is included for completeness — it is the
objective Zoltan/PaToH actually minimise — though the paper does not plot
it.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from repro.hypergraph.model import Hypergraph
from repro.utils.validation import check_square_matrix

__all__ = [
    "edge_partition_counts",
    "partition_loads",
    "imbalance",
    "hyperedge_cut",
    "cut_edges",
    "cut_from_counts",
    "soed",
    "connectivity_minus_one",
    "partitioning_comm_cost",
    "table_comm_cost",
    "PartitionQuality",
    "evaluate_partition",
]


def _check_assignment(hg: Hypergraph, assignment: np.ndarray, num_parts: int) -> np.ndarray:
    assignment = np.asarray(assignment)
    if assignment.shape != (hg.num_vertices,):
        raise ValueError(
            f"assignment must have shape ({hg.num_vertices},), got {assignment.shape}"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= num_parts):
        raise ValueError(
            f"assignment values outside [0, {num_parts})"
        )
    return assignment.astype(np.int64, copy=False)


def edge_partition_counts(
    hg: Hypergraph, assignment: np.ndarray, num_parts: int
) -> np.ndarray:
    """``counts[e, k]`` = number of pins of hyperedge ``e`` in partition ``k``.

    One vectorised bincount over all pins; this matrix is the shared
    intermediate for every other metric and for the stream state.
    """
    assignment = _check_assignment(hg, assignment, num_parts)
    edge_ids = np.repeat(
        np.arange(hg.num_edges, dtype=np.int64), np.diff(hg.edge_ptr)
    )
    keys = edge_ids * num_parts + assignment[hg.edge_pins]
    flat = np.bincount(keys, minlength=hg.num_edges * num_parts)
    return flat.reshape(hg.num_edges, num_parts).astype(np.int32)


def partition_loads(
    hg: Hypergraph, assignment: np.ndarray, num_parts: int
) -> np.ndarray:
    """Total vertex weight per partition, ``L(p)`` in the paper."""
    assignment = _check_assignment(hg, assignment, num_parts)
    return np.bincount(
        assignment, weights=hg.vertex_weights, minlength=num_parts
    )


def imbalance(hg: Hypergraph, assignment: np.ndarray, num_parts: int) -> float:
    """Total imbalance: max partition load over mean partition load.

    The paper's Section 4 definition — 1.0 is perfect balance; the
    algorithm accepts partitions with imbalance <= tolerance.
    """
    loads = partition_loads(hg, assignment, num_parts)
    mean = loads.sum() / num_parts
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def _lambdas(counts: np.ndarray) -> np.ndarray:
    """Connectivity of each hyperedge: number of partitions it touches."""
    return (counts > 0).sum(axis=1)


def cut_edges(counts: np.ndarray) -> np.ndarray:
    """Mask of the hyperedges whose count rows span more than one partition."""
    return _lambdas(counts) > 1


def cut_from_counts(
    counts: np.ndarray, edge_weights: "np.ndarray | None" = None
) -> float:
    """(Weighted) hyperedge cut straight from ``(E x p)`` count rows."""
    cut = cut_edges(counts)
    if edge_weights is None:
        return float(cut.sum())
    return float(edge_weights[cut].sum())


def hyperedge_cut(
    hg: Hypergraph,
    assignment: np.ndarray,
    num_parts: int,
    *,
    use_edge_weights: bool = True,
    counts: "np.ndarray | None" = None,
) -> float:
    """Weight of hyperedges spanning more than one partition (Fig. 4A)."""
    if counts is None:
        counts = edge_partition_counts(hg, assignment, num_parts)
    return cut_from_counts(counts, hg.edge_weights if use_edge_weights else None)


def soed(
    hg: Hypergraph,
    assignment: np.ndarray,
    num_parts: int,
    *,
    use_edge_weights: bool = True,
    counts: "np.ndarray | None" = None,
) -> float:
    """Sum of external degrees (Fig. 4B).

    For every hyperedge touching ``lambda > 1`` partitions, it is incident-
    but-not-contained in each of them, contributing ``lambda`` (times its
    weight).  Uncut hyperedges contribute nothing.
    """
    if counts is None:
        counts = edge_partition_counts(hg, assignment, num_parts)
    lam = _lambdas(counts)
    contrib = np.where(lam > 1, lam, 0).astype(np.float64)
    if use_edge_weights:
        contrib *= hg.edge_weights
    return float(contrib.sum())


def connectivity_minus_one(
    hg: Hypergraph,
    assignment: np.ndarray,
    num_parts: int,
    *,
    use_edge_weights: bool = True,
    counts: "np.ndarray | None" = None,
) -> float:
    """The classic ``lambda - 1`` connectivity metric (Zoltan's objective)."""
    if counts is None:
        counts = edge_partition_counts(hg, assignment, num_parts)
    lam = _lambdas(counts).astype(np.float64) - 1.0
    if use_edge_weights:
        lam *= hg.edge_weights
    return float(lam.sum())


def partitioning_comm_cost(
    hg: Hypergraph,
    assignment: np.ndarray,
    num_parts: int,
    cost_matrix: np.ndarray,
    *,
    counts: "np.ndarray | None" = None,
    use_edge_weights: bool = True,
) -> float:
    """Partitioning communication cost ``PC(P)`` (Eq. 5, Fig. 4C).

    ``PC(P) = sum_i sum_{v in P_i} T_i(v)`` with
    ``T_i(v) = sum_j X_j(v) * C(i, j)``.  Since ``C(i, i) = 0``, a vertex's
    neighbours in its own partition contribute nothing, so the metric
    aggregates the *costed* volume of cross-partition communication.

    Summed per hyperedge instead of per vertex, each net ``e`` with
    per-partition pin counts ``c_e`` contributes ``w_e c_e^T C c_e``, so
    the price is :func:`table_comm_cost` over the ``(E x p)`` count table
    (``counts``, computed from ``assignment`` when not given).
    """
    assignment = _check_assignment(hg, assignment, num_parts)
    cost_matrix = check_square_matrix("cost_matrix", cost_matrix, num_parts)
    if counts is None:
        counts = edge_partition_counts(hg, assignment, num_parts)
    return table_comm_cost(
        counts, cost_matrix, edge_weights=hg.edge_weights if use_edge_weights else None
    )


#: Multiply-adds per matrix product in :func:`table_comm_cost`.  Rows are
#: priced in blocks of ``_COST_MACS // p**2`` (455 at p=24), which bounds
#: the float temporaries whatever the table's size and keeps each product
#: on one thread: OpenBLAS, numpy's wheel BLAS, threads a product above
#: 2^18 multiply-adds, and with every core busy (forked sharded workers)
#: a threaded product's threads wait on each other: a 16,000 x 48 table
#: in 512-row blocks took 5-286 ms per call, in 113-row blocks 4-5 ms.
_COST_MACS = 1 << 18


def table_comm_cost(
    counts: np.ndarray,
    cost_matrix: np.ndarray,
    edges: "np.ndarray | None" = None,
    edge_weights: "np.ndarray | None" = None,
) -> float:
    """``sum_e w_e c_e^T C c_e`` over count-table rows (Eq. 5 per net).

    ``counts[i]`` holds the per-partition pin counts of hyperedge
    ``edges[i]`` (of hyperedge ``i`` when ``edges`` is ``None``);
    ``edge_weights`` (indexed by edge id) scales each row.  Over the
    whole ``(E x p)`` table this is :func:`partitioning_comm_cost`; over
    a presence table it is the streaming states' and the sharded
    driver's PC-cost figure, exact when the rows cover every net.

    Each block of rows is priced as the row sums of ``(c @ C) * c``,
    and the per-net prices are summed once at the end, so the blocking
    does not change the order of that sum.
    """
    if counts.shape[0] == 0:
        return 0.0
    rows = max(1, _COST_MACS // counts.shape[1] ** 2)
    per_edge = np.empty(counts.shape[0], dtype=np.float64)
    for lo in range(0, counts.shape[0], rows):
        c = counts[lo : lo + rows].astype(np.float64)
        np.einsum("ep,ep->e", c @ cost_matrix, c, out=per_edge[lo : lo + c.shape[0]])
    if edge_weights is not None:
        per_edge *= edge_weights if edges is None else edge_weights[edges]
    return float(per_edge.sum())


@dataclass(frozen=True)
class PartitionQuality:
    """Bundle of all quality metrics for one partition."""

    algorithm: str
    num_parts: int
    hyperedge_cut: float
    soed: float
    connectivity_minus_one: float
    pc_cost: float
    imbalance: float

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate_partition(
    hg: Hypergraph,
    assignment: np.ndarray,
    num_parts: int,
    cost_matrix: np.ndarray,
    *,
    algorithm: str = "unknown",
    use_edge_weights: bool = True,
) -> PartitionQuality:
    """Compute every Section 5.2 metric in one pass."""
    counts = edge_partition_counts(hg, assignment, num_parts)
    return PartitionQuality(
        algorithm=algorithm,
        num_parts=num_parts,
        hyperedge_cut=hyperedge_cut(
            hg, assignment, num_parts, counts=counts, use_edge_weights=use_edge_weights
        ),
        soed=soed(
            hg, assignment, num_parts, counts=counts, use_edge_weights=use_edge_weights
        ),
        connectivity_minus_one=connectivity_minus_one(
            hg, assignment, num_parts, counts=counts, use_edge_weights=use_edge_weights
        ),
        pc_cost=partitioning_comm_cost(
            hg,
            assignment,
            num_parts,
            cost_matrix,
            counts=counts,
            use_edge_weights=use_edge_weights,
        ),
        imbalance=imbalance(hg, assignment, num_parts),
    )
