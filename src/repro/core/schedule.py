"""Alpha initialisation and tempering schedule (Sections 4 and 6.1).

The workload-imbalance weight ``alpha`` starts low — early streams
partition almost purely on communication cost — and is multiplied by the
update parameter (paper value 1.7) after every pass while the partition is
still over the imbalance tolerance.  Once within tolerance the *refinement
phase* takes over and alpha is instead multiplied by the refinement factor
each pass: 1.0 freezes it, the paper's best value 0.95 *relaxes* balance
pressure, searching for an acceptable solution that is maximally
imbalanced (paper Section 7's intuition).

Initial value
-------------
The paper cites FENNEL's suggestion but prints
``alpha = sqrt(p) * |E| / sqrt(|V|)``, which differs from FENNEL's
``sqrt(k) * m / n^{3/2}`` by a factor of ``|V|``.  Empirically the printed
form reproduces the paper's Figure 3 exactly: the load term dominates from
the first pass, the stream stays within tolerance, and the monitored PC
cost *descends monotonically* across refinement passes.  The literal
FENNEL value starts so low that early passes collapse into a near-one-
partition assignment (imbalance ~p) and PC *rises* during tempering —
nothing like the published histories.  ``"paper"`` is therefore the
default; ``"fennel"`` remains available and an ablation benchmark compares
the two.

Outer loop
----------
:func:`run_schedule` is Algorithm 1's outer loop, written once for every
restreaming driver: in-memory :class:`~repro.core.hyperpraw.HyperPRAW`,
the windows of :class:`~repro.streaming.restream.BufferedRestreamer` and
the boundary rounds of :class:`~repro.streaming.sharded.ShardedStreamer`.
Each caller supplies only how to run one pass, how to price the current
partition and how to remember it; the driver owns the schedule, the
best-pass bookkeeping and the decision to roll back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.result import IterationRecord
from repro.hypergraph.model import Hypergraph

__all__ = [
    "initial_alpha",
    "initial_alpha_from_counts",
    "TemperingSchedule",
    "ScheduleOutcome",
    "run_schedule",
]


def initial_alpha_from_counts(
    num_vertices: int, num_edges: int, num_parts: int, mode="fennel"
) -> float:
    """Starting value for the imbalance weight, from bare counts.

    The streaming partitioners know ``|V|`` and ``|E|`` from the file
    header long before any hypergraph object exists, so the formula is
    exposed on counts; :func:`initial_alpha` is the in-memory wrapper.

    Parameters
    ----------
    mode:
        ``"fennel"`` — ``sqrt(p) * |E| / |V|^{3/2}`` (default);
        ``"paper"`` — ``sqrt(p) * |E| / sqrt(|V|)`` as literally printed;
        any positive float — used verbatim.
    """
    if isinstance(mode, (int, float)) and not isinstance(mode, bool):
        if mode <= 0:
            raise ValueError(f"explicit alpha must be > 0, got {mode}")
        return float(mode)
    v, e, p = num_vertices, num_edges, num_parts
    if mode == "fennel":
        return math.sqrt(p) * e / v**1.5
    if mode == "paper":
        return math.sqrt(p) * e / math.sqrt(v)
    raise ValueError(f"mode must be 'fennel', 'paper' or a float, got {mode!r}")


def initial_alpha(hg: Hypergraph, num_parts: int, mode="fennel") -> float:
    """Starting value for the imbalance weight (see
    :func:`initial_alpha_from_counts` for the formulas)."""
    return initial_alpha_from_counts(hg.num_vertices, hg.num_edges, num_parts, mode)


@dataclass
class TemperingSchedule:
    """Stateful alpha schedule.

    Attributes
    ----------
    alpha:
        current weight (applied to the *next* pass).
    tempering_update:
        multiplier while over the imbalance tolerance (paper: 1.7).
    refinement_factor:
        multiplier once within tolerance (paper: 1.0 or 0.95).
    """

    alpha: float
    tempering_update: float = 1.7
    refinement_factor: float = 0.95

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.tempering_update <= 0:
            raise ValueError(
                f"tempering_update must be > 0, got {self.tempering_update}"
            )
        if self.refinement_factor <= 0:
            raise ValueError(
                f"refinement_factor must be > 0, got {self.refinement_factor}"
            )

    def after_pass(self, *, within_tolerance: bool) -> float:
        """Advance the schedule after a completed pass; returns new alpha.

        Over tolerance the update pushes balance harder (x1.7); within
        tolerance the refinement factor applies.
        """
        if within_tolerance:
            self.alpha *= self.refinement_factor
        else:
            self.alpha *= self.tempering_update
        return self.alpha


@dataclass(frozen=True)
class ScheduleOutcome:
    """How :func:`run_schedule` ended.

    Attributes
    ----------
    iterations:
        passes run.
    converged:
        the schedule stopped on its own (first pass within tolerance
        without refinement, or refinement stopped improving) rather than
        on the pass budget.
    rolled_back:
        refinement stopped improving, so the last pass is discarded.
    best:
        what ``snapshot()`` returned for the best pass within tolerance;
        ``None`` when no pass was within tolerance.
    restore:
        the partition must move back to ``best`` because a later pass
        changed it (a rollback, or a budget that ran out after a pass
        left tolerance).
    cost:
        cost of the pass kept: the best one, or the final pass when
        tolerance was never reached.
    alpha:
        the schedule's alpha after the last update.
    pass_seconds:
        wall time spent inside ``step``.
    """

    iterations: int
    converged: bool
    rolled_back: bool
    best: Any
    restore: bool
    cost: float
    alpha: float
    pass_seconds: float


def run_schedule(
    schedule: TemperingSchedule,
    step: "Callable[[float], float]",
    cost: "Callable[[], float]",
    snapshot: "Callable[[], Any]",
    *,
    tolerance: float,
    max_iterations: int,
    refinement: bool = True,
    history: "list[IterationRecord] | None" = None,
    iteration_offset: int = 0,
) -> ScheduleOutcome:
    """Algorithm 1's outer loop: temper, refine, roll back.

    Each pass calls ``step(alpha)``, which restreams once and returns
    the imbalance.  Over ``tolerance`` alpha is tempered and the loop
    goes on.  Within it, ``cost()`` prices the pass: without
    ``refinement`` the first such pass is the answer; with it, every
    improving pass is remembered through ``snapshot()`` and alpha is
    refined, and the first pass that does not improve ends the loop with
    a rollback.  When the budget runs out the best pass within tolerance
    is kept, and the final pass only if there is none.

    ``cost()`` runs only for passes within tolerance, for every pass
    when ``history`` is given, and once at the end when no pass reached
    tolerance.  ``history`` receives one :class:`IterationRecord` per
    pass, numbered from ``iteration_offset + 1``.
    """
    best: Any = None
    best_cost = math.inf
    best_iteration = 0
    pass_cost: "float | None" = None
    converged = rolled_back = False
    pass_seconds = 0.0
    it = 0
    for it in range(1, max_iterations + 1):
        alpha = schedule.alpha
        t_pass = time.perf_counter()
        imb = step(alpha)
        pass_seconds += time.perf_counter() - t_pass
        within = imb <= tolerance
        pass_cost = cost() if within or history is not None else None
        if history is not None:
            history.append(
                IterationRecord(
                    iteration=iteration_offset + it,
                    alpha=alpha,
                    imbalance=imb,
                    pc_cost=pass_cost,
                    phase="refinement" if within else "tempering",
                )
            )
        if not within:
            schedule.after_pass(within_tolerance=False)
            continue
        if not refinement or pass_cost < best_cost:
            best, best_cost, best_iteration = snapshot(), pass_cost, it
            if not refinement:
                converged = True
                break
            schedule.after_pass(within_tolerance=True)
            continue
        converged = rolled_back = True
        break
    if best_iteration == 0:
        best_cost = pass_cost if pass_cost is not None else cost()
    return ScheduleOutcome(
        iterations=it,
        converged=converged,
        rolled_back=rolled_back,
        best=best,
        restore=0 < best_iteration < it,
        cost=float(best_cost),
        alpha=schedule.alpha,
        pass_seconds=pass_seconds,
    )
