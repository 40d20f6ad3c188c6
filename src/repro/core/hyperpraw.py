"""HyperPRAW: architecture-aware hypergraph restreaming (Algorithm 1).

The algorithm, as published:

1. Initialise with a round-robin assignment (``v -> v mod p``).
2. Repeat up to ``N`` streaming passes.  Each pass visits every vertex,
   lifts it out of the running state, scores every partition with the
   value function ``V_i(v) = -N_i(v) T_i(v) - alpha W(i)/E(i)`` (Eq. 1)
   and re-places the vertex at the argmax.
3. After each pass, while the load imbalance exceeds the tolerance,
   multiply ``alpha`` by the tempering update (1.7) and stream again.
4. Once within tolerance, the **refinement phase** begins: keep streaming
   (updating ``alpha`` by the refinement factor — 0.95 relaxes balance
   pressure) while the partitioning communication cost (Eq. 5) improves;
   when a pass makes it worse, roll back to the previous pass's partition
   and stop.  With ``refinement`` disabled the algorithm instead stops at
   the first pass within tolerance (Figure 3's "no refinement" baseline).

Architecture awareness enters *only* through the cost matrix ``C``:
**HyperPRAW-aware** receives the profiled matrix of Section 4.2;
**HyperPRAW-basic** receives the uniform matrix (every distinct pair costs
1), making it a pure communication-volume restreamer.

Complexity per pass: ``O(sum_v deg(v) * p)`` — each vertex move touches
its incident hyperedges' partition counters, and scoring is one ``p x p``
mat-vec.

The pass body lives in :func:`repro.engine.kernel.pass_kernel` and the
outer loop (tempering, refinement, rollback) in
:func:`repro.core.schedule.run_schedule`, both shared with the streaming
partitioners; this class supplies the dense in-memory state and prices
each pass with Eq. 5.
"""

from __future__ import annotations

import time

import numpy as np

from repro.architecture.cost import (
    is_uniform_cost,
    uniform_cost_matrix,
    validate_cost_matrix,
)
from repro.core.base import Partitioner
from repro.core.config import HyperPRAWConfig
from repro.core.metrics import (
    edge_partition_counts,
    partition_loads,
    partitioning_comm_cost,
)
from repro.core.result import IterationRecord, PartitionResult
from repro.core.schedule import TemperingSchedule, initial_alpha, run_schedule
from repro.engine import (
    DenseKernelState,
    HyperPRAWScorer,
    InMemorySource,
    pass_kernel,
    resolve_kernel,
)
from repro.hypergraph.model import Hypergraph
from repro.utils.rng import as_generator

__all__ = ["HyperPRAW"]


class HyperPRAW(Partitioner):
    """The paper's restreaming partitioner.

    Parameters
    ----------
    config:
        algorithm parameters; defaults to the paper's winning
        configuration (refinement factor 0.95).
    variant:
        optional label override; otherwise the name reflects whether a
        non-uniform cost matrix was supplied at :meth:`partition` time.

    Examples
    --------
    >>> from repro.hypergraph import load_instance
    >>> from repro.core import HyperPRAW
    >>> hg = load_instance("sparsine", scale=0.1)
    >>> result = HyperPRAW().partition(hg, 8)
    >>> result.assignment.shape == (hg.num_vertices,)
    True
    """

    def __init__(self, config: "HyperPRAWConfig | None" = None, *, variant: str | None = None):
        self.config = config or HyperPRAWConfig()
        self._variant = variant
        self.name = variant or "hyperpraw"

    # ------------------------------------------------------------------
    @classmethod
    def basic(cls, config: "HyperPRAWConfig | None" = None) -> "HyperPRAW":
        """HyperPRAW-basic: ignores any supplied cost matrix (uniform costs)."""
        obj = cls(config, variant="hyperpraw-basic")
        obj._force_uniform = True
        return obj

    @classmethod
    def aware(cls, config: "HyperPRAWConfig | None" = None) -> "HyperPRAW":
        """HyperPRAW-aware: requires a cost matrix at partition time."""
        return cls(config, variant="hyperpraw-aware")

    _force_uniform = False

    # ------------------------------------------------------------------
    def partition(
        self,
        hg: Hypergraph,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Run Algorithm 1 on ``hg``.

        ``cost_matrix`` selects the variant: ``None`` (or a
        :meth:`basic`-constructed instance) uses uniform costs.
        """
        self._check_args(hg, num_parts)
        cfg = self.config
        if self._force_uniform or cost_matrix is None:
            C = uniform_cost_matrix(num_parts)
            aware = False
        else:
            C = validate_cost_matrix(cost_matrix, num_units=num_parts)
            aware = not is_uniform_cost(C)
        if self._variant is None:
            # A literally uniform matrix fed to an `aware()`-constructed
            # instance is legal (flat machines exist): the explicit variant
            # label is kept while behaviour coincides with basic, which
            # tests assert explicitly.  Only unlabelled instances get their
            # name derived from the matrix actually supplied.
            self.name = "hyperpraw-aware" if aware else "hyperpraw-basic"

        t_start = time.perf_counter()
        p = num_parts
        # Algorithm 1 line 1: round-robin initialisation.
        assignment = np.arange(hg.num_vertices, dtype=np.int64) % p
        state = DenseKernelState(
            p,
            edge_partition_counts(hg, assignment, p),
            partition_loads(hg, assignment, p),
        )
        expected_loads = np.full(p, hg.total_vertex_weight() / p)
        schedule = TemperingSchedule(
            alpha=initial_alpha(hg, p, cfg.alpha_initial),
            tempering_update=cfg.alpha_update,
            refinement_factor=cfg.refinement_factor,
        )
        order = np.arange(hg.num_vertices, dtype=np.int64)
        if cfg.stream_order == "shuffled":
            as_generator(seed).shuffle(order)
        source = InMemorySource(hg, order=order, block_size=cfg.chunk_size)
        score_mode = "chunk" if cfg.chunk_size is not None else "vertex"

        def scorer(alpha: float) -> HyperPRAWScorer:
            return HyperPRAWScorer(C, alpha, expected_loads, cfg.presence_threshold)

        # Resolve the kernel once up front (one fallback warning at most);
        # scorer construction is per pass but its type never changes.
        kernel_mode = resolve_kernel(
            cfg.kernel, state, scorer(schedule.alpha), score_mode
        )

        def step(alpha: float) -> float:
            pass_kernel(
                source.blocks(),
                state,
                scorer(alpha),
                assignment,
                restream=True,
                score_mode=score_mode,
                kernel=kernel_mode,
            )
            return state.imbalance()

        def cost() -> float:
            return partitioning_comm_cost(
                hg,
                assignment,
                p,
                C,
                counts=state.edge_counts,
                use_edge_weights=cfg.use_edge_weights,
            )

        history: list[IterationRecord] = []
        outcome = run_schedule(
            schedule,
            step,
            cost,
            assignment.copy,
            tolerance=cfg.imbalance_tolerance,
            max_iterations=cfg.max_iterations,
            refinement=cfg.refinement,
            history=history if cfg.record_history else None,
        )

        return PartitionResult(
            assignment=outcome.best if outcome.restore else assignment,
            num_parts=p,
            algorithm=self.name,
            iterations=history,
            metadata={
                "converged": outcome.converged,
                "rolled_back": outcome.rolled_back,
                "iterations_run": outcome.iterations,
                "final_alpha": outcome.alpha,
                "final_pc_cost": outcome.cost,
                "architecture_aware": aware,
                "imbalance_tolerance": cfg.imbalance_tolerance,
                "chunk_size": cfg.chunk_size,
                "kernel_mode": kernel_mode,
                "pass_seconds": outcome.pass_seconds,
                "wall_time_s": time.perf_counter() - t_start,
            },
        )
