"""The unified stream-pass engine.

Every partitioner in the repository that streams vertices — in-memory
HyperPRAW, the FENNEL baseline, both out-of-core streamers and the
parallel sharded streamer — is a thin driver around one loop:

::

    VertexBlocks  ─────────────────►  pass_kernel  ◄─────  Scorer
    (in-memory CSR,                     (visit → score          (Eq. 1 /
     disk chunk stream,                  → place)                FENNEL)
     windows, shard ranges)                 │
                                            ▼
                                      KernelState
                              (dense E×p counts  |  bounded
                               LRU presence table)

* :mod:`~repro.engine.blocks` — :class:`VertexBlock` (the currency,
  which every chunk stream yields), its three layout operations
  (``slice``, ``take``, :func:`concat_blocks`), :func:`stream_windows`
  (window assembly), the in-memory :class:`InMemorySource` and
  shard-range splitting;
* :mod:`~repro.engine.kernel` — :func:`pass_kernel`, the single
  remaining implementation of Algorithm 1's pass body, with per-vertex
  (exact) and per-chunk (vectorised matmul) scoring modes, and
  :func:`move_back`, the rollback to a recorded pass;
* :mod:`~repro.engine.njit_kernel` — the optional numba-compiled twin
  of the vertex-exact loop (``kernel="auto"|"python"|"njit"``, resolved
  by :func:`resolve_kernel` with a warned python fallback);
* :mod:`~repro.engine.scorers` — the pluggable value functions;
* :mod:`~repro.engine.states` — the dense kernel state (the bounded one
  is :class:`repro.streaming.state.StreamingState`);
* :mod:`~repro.engine.parallel` — forked-worker fan-out, the phase-1
  shard stitch every sharded family shares, and the presence-table
  merge behind parallel sharded streaming.
"""

from repro.engine.blocks import (
    InMemorySource,
    VertexBlock,
    concat_blocks,
    expansion_order,
    segment_gather_index,
    segment_reduce,
    shard_ranges,
    shard_ranges_by_pins,
    stream_windows,
)
from repro.engine.kernel import (
    apply_balance_cap,
    check_knobs,
    move_back,
    pass_kernel,
)
from repro.engine.njit_kernel import (
    KERNEL_CHOICES,
    NUMBA_AVAILABLE,
    njit_supported,
    resolve_kernel,
)
from repro.engine.parallel import (
    ShardPlacement,
    ShardRounds,
    fork_available,
    merge_shard_tables,
    run_shards,
    run_tasks,
    shard_bounds,
    stitch_shards,
)
from repro.engine.scorers import (
    FennelScorer,
    HyperPRAWScorer,
    HypeScorer,
    MinMaxScorer,
)
from repro.engine.states import DenseKernelState

__all__ = [
    "VertexBlock",
    "InMemorySource",
    "concat_blocks",
    "stream_windows",
    "expansion_order",
    "segment_gather_index",
    "segment_reduce",
    "shard_ranges",
    "shard_ranges_by_pins",
    "pass_kernel",
    "check_knobs",
    "apply_balance_cap",
    "move_back",
    "KERNEL_CHOICES",
    "NUMBA_AVAILABLE",
    "njit_supported",
    "resolve_kernel",
    "HyperPRAWScorer",
    "FennelScorer",
    "HypeScorer",
    "MinMaxScorer",
    "DenseKernelState",
    "fork_available",
    "run_tasks",
    "ShardPlacement",
    "stitch_shards",
    "run_shards",
    "shard_bounds",
    "merge_shard_tables",
    "ShardRounds",
]
