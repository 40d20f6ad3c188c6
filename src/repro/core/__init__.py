"""Core contribution: the HyperPRAW restreaming partitioner.

This package implements the paper's Section 4 in full:

* :class:`~repro.core.hyperpraw.HyperPRAW` — Algorithm 1: round-robin
  initialisation, repeated greedy streams driven by the value function of
  Eq. 1, FENNEL-style alpha tempering while over the imbalance tolerance,
  and the refinement phase (Section 4.3 / 6.1) that keeps restreaming
  while the partitioning-communication-cost metric improves, rolling back
  one pass when it degrades.
* :mod:`~repro.core.value` — the vertex assignment value function
  (Eqs. 1–4).
* :mod:`~repro.core.schedule` — initial alpha choices, the tempering /
  refinement update rules and :func:`~repro.core.schedule.run_schedule`,
  the outer loop every restreaming driver shares.
* :mod:`~repro.core.metrics` — partition quality metrics: hyperedge cut,
  SOED, connectivity-1, imbalance, and the paper's partitioning
  communication cost (Eq. 5).
* :mod:`~repro.core.result` / :mod:`~repro.core.base` — result containers
  and the partitioner interface shared with the baselines in
  :mod:`repro.partitioning`.
"""

from repro.core.base import Partitioner
from repro.core.config import HyperPRAWConfig
from repro.core.hyperpraw import HyperPRAW
from repro.core.metrics import (
    PartitionQuality,
    edge_partition_counts,
    partition_loads,
    imbalance,
    hyperedge_cut,
    soed,
    connectivity_minus_one,
    partitioning_comm_cost,
    evaluate_partition,
)
from repro.core.result import PartitionResult, IterationRecord

__all__ = [
    "Partitioner",
    "HyperPRAWConfig",
    "HyperPRAW",
    "PartitionQuality",
    "edge_partition_counts",
    "partition_loads",
    "imbalance",
    "hyperedge_cut",
    "soed",
    "connectivity_minus_one",
    "partitioning_comm_cost",
    "evaluate_partition",
    "PartitionResult",
    "IterationRecord",
]
