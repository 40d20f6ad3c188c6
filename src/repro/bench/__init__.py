"""The paper's synthetic runtime benchmark and the multi-job experiment runner.

Section 5.3: *"The benchmark is a null-compute simulation based on the
input hypergraph ... for each hyperedge on a given hypergraph, a message is
sent to and from each vertex in the hyperedge if the vertices are located
in different partitions."*  It is purely communication-bound, so the
partition placement — and, on a heterogeneous machine, *which links* the
cut traffic lands on — fully determines runtime.

* :class:`~repro.bench.synthetic.SyntheticBenchmark` — builds the
  per-timestep traffic matrix implied by a partition and runs it through
  the :mod:`repro.simcomm` cluster simulator.
* :class:`~repro.bench.runner.ExperimentRunner` — the paper's evaluation
  protocol: several simulated job allocations (different bandwidth
  realisations), ring-profiling per job, partitioning per strategy, and
  repeated benchmark iterations with per-iteration network jitter.
* :func:`~repro.bench.streaming.run_contenders` — the one contender
  runner behind the Section 5.2 comparisons: it times, grades and
  digests a list of partitioners on one instance against the first (the
  anchor), into one :class:`~repro.bench.streaming.Report`.  Three
  contender lists use it:

  - :func:`~repro.bench.streaming.compare_streaming` — streamed vs
    in-memory HyperPRAW;
  - :func:`~repro.bench.streaming.compare_sharded` — sharded streaming
    at a ladder of worker counts;
  - :func:`~repro.bench.streaming.compare_families` — every registered
    partitioner family head to head.
* :func:`~repro.bench.service.compare_service` — the HTTP traffic
  scenario: upload-to-result latency, digest-reuse speedup and sync
  requests-per-second against an in-process
  :mod:`repro.service` server.
* :func:`~repro.bench.service.compare_pools` — the same concurrent
  replay load against a thread-pool and a process-pool service; the
  rps ratio is the figure behind the service's ``--pool process``
  default.
"""

from repro.bench.synthetic import SyntheticBenchmark, BenchmarkOutcome, partition_traffic
from repro.bench.runner import ExperimentRunner, JobContext, RunRecord
from repro.bench.streaming import (
    Contender,
    Record,
    Report,
    compare_families,
    compare_sharded,
    compare_streaming,
    run_contenders,
)
from repro.bench.service import (
    PoolLadder,
    PoolRun,
    ServiceRecord,
    ServiceReport,
    ServiceThroughput,
    compare_pools,
    compare_service,
)

__all__ = [
    "SyntheticBenchmark",
    "BenchmarkOutcome",
    "partition_traffic",
    "ExperimentRunner",
    "JobContext",
    "RunRecord",
    "Contender",
    "Record",
    "Report",
    "run_contenders",
    "compare_streaming",
    "compare_sharded",
    "compare_families",
    "PoolLadder",
    "PoolRun",
    "ServiceRecord",
    "ServiceReport",
    "ServiceThroughput",
    "compare_pools",
    "compare_service",
]
