"""Per-instance statistics — the columns of the paper's Table 1.

Table 1 reports, per hypergraph: vertices, hyperedges, total NNZ (pins),
average cardinality and the hyperedge/vertex ratio.  We add a few extra
shape descriptors (cardinality quantiles, degree statistics) that the
generator calibration and the test suite use to verify the stand-ins match
their targets.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from repro.hypergraph.model import Hypergraph

__all__ = ["HypergraphStats", "compute_stats"]


@dataclass(frozen=True)
class HypergraphStats:
    """Summary statistics of a hypergraph instance.

    The first five fields replicate Table 1; the rest are auxiliary shape
    descriptors.
    """

    name: str
    num_vertices: int
    num_edges: int
    num_pins: int
    avg_cardinality: float
    edge_vertex_ratio: float
    max_cardinality: int
    median_cardinality: float
    avg_degree: float
    max_degree: int
    isolated_vertices: int

    def as_dict(self) -> dict:
        return asdict(self)


def compute_stats(hg: Hypergraph) -> HypergraphStats:
    """Compute :class:`HypergraphStats` for ``hg`` in O(pins)."""
    cards = hg.cardinalities()
    degrees = hg.degrees()
    return HypergraphStats(
        name=hg.name,
        num_vertices=hg.num_vertices,
        num_edges=hg.num_edges,
        num_pins=hg.num_pins,
        avg_cardinality=float(cards.mean()) if cards.size else 0.0,
        edge_vertex_ratio=hg.num_edges / hg.num_vertices,
        max_cardinality=int(cards.max()) if cards.size else 0,
        median_cardinality=float(np.median(cards)) if cards.size else 0.0,
        avg_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        isolated_vertices=int((degrees == 0).sum()),
    )
