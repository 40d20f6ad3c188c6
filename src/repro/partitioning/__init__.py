"""Baseline partitioners.

The paper benchmarks HyperPRAW against Zoltan's multilevel recursive
bisection; we re-implement that family from scratch plus cheaper
baselines used in tests and ablations:

* :class:`~repro.partitioning.multilevel.MultilevelRB` — multilevel
  recursive bisection: heavy-connectivity coarsening, greedy hypergraph
  growing initial bisection, Fiduccia–Mattheyses boundary refinement at
  every level (the Zoltan/PaToH/hMetis algorithm family).
* :mod:`~repro.partitioning.simple` — random, round-robin and contiguous-
  chunk assignments (controls and worst/best-case references).

The out-of-core streamers of :mod:`repro.streaming` —
:class:`~repro.streaming.onepass.OnePassStreamer` and
:class:`~repro.streaming.restream.BufferedRestreamer` — are re-exported
here: they implement the same ``partition(hg, ...)`` interface (streaming
the hypergraph to themselves chunk by chunk) and belong in the same
roster for experiments, even though their native entry point is
``partition_stream`` over a disk-backed chunk stream.  The single-pass
FENNEL baseline generalised to hypergraphs is
``OnePassStreamer(scorer="fennel", alpha="fennel")``.  So is
:class:`~repro.cluster.coordinator.DistributedStreamer`, the multi-node
variant that drives the same sharded protocol over TCP workers
(docs/cluster.md).

:mod:`~repro.partitioning.families` adds the competitor families that run
on the same engine — HYPE-style neighbourhood expansion
(:class:`~repro.partitioning.families.NeighborhoodExpansion`),
limited-memory min-max streaming
(:class:`~repro.partitioning.families.MinMaxStreamer`) and the FM-style
post-streaming polish (:class:`~repro.partitioning.families.PolishedStreamer`)
— together with :data:`~repro.partitioning.families.PARTITIONERS`, the
registry the service, CLI and invariant tests all introspect.
"""

from repro.partitioning.multilevel import MultilevelRB
from repro.partitioning.simple import (
    RandomPartitioner,
    RoundRobinPartitioner,
    ContiguousPartitioner,
)
from repro.streaming import BufferedRestreamer, OnePassStreamer, ShardedStreamer
from repro.cluster import DistributedStreamer
from repro.partitioning.families import (
    PARTITIONERS,
    FamilySpec,
    MinMaxStreamer,
    NeighborhoodExpansion,
    PolishedStreamer,
    RefineConfig,
    build_partitioner,
    family_names,
    get_family,
    refine_partition,
)

__all__ = [
    "MultilevelRB",
    "RandomPartitioner",
    "RoundRobinPartitioner",
    "ContiguousPartitioner",
    "OnePassStreamer",
    "BufferedRestreamer",
    "ShardedStreamer",
    "DistributedStreamer",
    "NeighborhoodExpansion",
    "MinMaxStreamer",
    "PolishedStreamer",
    "RefineConfig",
    "refine_partition",
    "FamilySpec",
    "PARTITIONERS",
    "family_names",
    "get_family",
    "build_partitioner",
]
