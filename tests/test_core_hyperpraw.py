"""Tests for the HyperPRAW restreaming algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.architecture.cost import uniform_cost_matrix
from repro.core.config import HyperPRAWConfig
from repro.core.hyperpraw import HyperPRAW
from repro.core.metrics import evaluate_partition, imbalance
from repro.core.schedule import TemperingSchedule, initial_alpha, run_schedule
from repro.hypergraph.model import Hypergraph
from repro.hypergraph.suite import load_instance


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = HyperPRAWConfig()
        assert cfg.alpha_update == 1.7
        assert cfg.refinement_factor == 0.95
        assert cfg.refinement is True

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperPRAWConfig(imbalance_tolerance=0.9)
        with pytest.raises(ValueError):
            HyperPRAWConfig(max_iterations=0)
        with pytest.raises(ValueError):
            HyperPRAWConfig(alpha_update=0)
        with pytest.raises(ValueError):
            HyperPRAWConfig(stream_order="zigzag")
        with pytest.raises(ValueError):
            HyperPRAWConfig(presence_threshold=0)

    def test_with_(self):
        cfg = HyperPRAWConfig().with_(refinement_factor=1.0)
        assert cfg.refinement_factor == 1.0
        assert HyperPRAWConfig().refinement_factor == 0.95

    def test_paper_presets(self):
        assert HyperPRAWConfig.paper_no_refinement().refinement is False
        assert HyperPRAWConfig.paper_refinement_100().refinement_factor == 1.0
        assert HyperPRAWConfig.paper_refinement_095().refinement_factor == 0.95


class TestSchedule:
    def test_initial_alpha_modes(self):
        hg = Hypergraph(100, [[i, i + 1] for i in range(99)])
        paper = initial_alpha(hg, 4, "paper")
        fennel = initial_alpha(hg, 4, "fennel")
        assert paper == pytest.approx(2 * 99 / 10)
        assert fennel == pytest.approx(2 * 99 / 1000)
        assert initial_alpha(hg, 4, 0.5) == 0.5
        with pytest.raises(ValueError):
            initial_alpha(hg, 4, "magic")
        with pytest.raises(ValueError):
            initial_alpha(hg, 4, -1.0)

    def test_tempering_phases(self):
        sched = TemperingSchedule(alpha=1.0, tempering_update=1.7, refinement_factor=0.95)
        sched.after_pass(within_tolerance=False)
        assert sched.alpha == pytest.approx(1.7)
        sched.after_pass(within_tolerance=True)
        assert sched.alpha == pytest.approx(1.7 * 0.95)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TemperingSchedule(alpha=0.0)
        with pytest.raises(ValueError):
            TemperingSchedule(alpha=1.0, tempering_update=-1)


#: Scripted ``(imbalance, cost)`` passes against tolerance 1.1, starting
#: at alpha 1 with tempering x2 and refinement x0.5; the pass budget is
#: the script length.  Columns: script,
#: refinement, alphas used, final alpha, converged, rolled_back, best
#: pass (``None`` = none within tolerance), restore, kept cost.
SCHEDULE_CASES = {
    "tempering_until_within": (
        [(1.5, 9.0), (1.3, 8.0), (1.05, 7.0)], True,
        [1.0, 2.0, 4.0], 2.0, False, False, 3, False, 7.0,
    ),
    "refinement_improves_to_budget": (
        [(1.05, 10.0), (1.0, 9.0), (1.02, 8.0)], True,
        [1.0, 0.5, 0.25], 0.125, False, False, 3, False, 8.0,
    ),
    "refinement_stalls_rolls_back": (
        [(1.2, 20.0), (1.05, 10.0), (1.0, 9.0), (1.0, 9.5), (1.0, 1.0)], True,
        [1.0, 2.0, 1.0, 0.5], 0.5, True, True, 3, True, 9.0,
    ),
    "no_refinement_stops_at_first_within": (
        [(1.3, 5.0), (1.08, 4.0), (1.0, 3.0)], False,
        [1.0, 2.0], 2.0, True, False, 2, False, 4.0,
    ),
    "never_within_keeps_final": (
        [(1.5, 5.0), (1.4, 4.0), (1.3, 3.0)], True,
        [1.0, 2.0, 4.0], 8.0, False, False, None, False, 3.0,
    ),
    "budget_ends_outside_restores_best": (
        [(1.2, 20.0), (1.05, 10.0), (1.0, 9.0), (1.3, 5.0)], True,
        [1.0, 2.0, 1.0, 0.5], 1.0, False, False, 3, True, 9.0,
    ),
}


class TestRunSchedule:
    @staticmethod
    def drive(script, refinement, *, record, offset=0):
        passes = []
        cost_calls = []
        snapshots = []

        def step(alpha):
            passes.append(alpha)
            return script[len(passes) - 1][0]

        def cost():
            cost_calls.append(len(passes))
            return script[len(passes) - 1][1]

        def snapshot():
            snapshots.append(len(passes))
            return f"pass {len(passes)}"

        history = [] if record else None
        out = run_schedule(
            TemperingSchedule(alpha=1.0, tempering_update=2.0, refinement_factor=0.5),
            step,
            cost,
            snapshot,
            tolerance=1.1,
            max_iterations=len(script),
            refinement=refinement,
            history=history,
            iteration_offset=offset,
        )
        return out, passes, history, cost_calls, snapshots

    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_scripted_passes(self, case):
        (script, refinement, alphas, final_alpha, converged, rolled_back,
         best, restore, kept_cost) = SCHEDULE_CASES[case]
        out, passes, history, _, snapshots = self.drive(
            script, refinement, record=True, offset=10
        )
        n = len(alphas)
        assert passes == alphas
        assert out.iterations == n
        assert out.alpha == final_alpha
        assert (out.converged, out.rolled_back) == (converged, rolled_back)
        assert out.best == (None if best is None else f"pass {best}")
        assert out.restore is restore
        assert out.cost == kept_cost
        assert [h.iteration for h in history] == list(range(11, 11 + n))
        assert [h.alpha for h in history] == alphas
        assert [h.phase for h in history] == [
            "refinement" if imb <= 1.1 else "tempering" for imb, _ in script[:n]
        ]
        assert [h.pc_cost for h in history] == [c for _, c in script[:n]]
        if best is not None:
            assert snapshots[-1] == best

    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_cost_priced_only_within_tolerance(self, case):
        script, refinement, alphas, *_ = SCHEDULE_CASES[case]
        out, _, history, cost_calls, _ = self.drive(script, refinement, record=False)
        within = [i + 1 for i, (imb, _) in enumerate(script[: len(alphas)]) if imb <= 1.1]
        assert history is None
        assert cost_calls == (within or [len(alphas)])
        assert out.cost == SCHEDULE_CASES[case][-1]


class TestBasicBehaviour:
    def test_assignment_is_valid(self, small_random):
        res = HyperPRAW.basic().partition(small_random, 8)
        assert res.assignment.shape == (small_random.num_vertices,)
        assert res.assignment.min() >= 0
        assert res.assignment.max() < 8
        assert res.num_parts == 8

    def test_respects_imbalance_tolerance(self, small_random):
        cfg = HyperPRAWConfig(imbalance_tolerance=1.1)
        res = HyperPRAW.basic(cfg).partition(small_random, 8)
        assert res.metadata["converged"]
        assert imbalance(small_random, res.assignment, 8) <= 1.1 + 1e-9

    def test_single_partition(self, tiny_hypergraph):
        res = HyperPRAW.basic().partition(tiny_hypergraph, 1)
        assert np.all(res.assignment == 0)

    def test_deterministic(self, small_random):
        a = HyperPRAW.basic().partition(small_random, 6).assignment
        b = HyperPRAW.basic().partition(small_random, 6).assignment
        assert np.array_equal(a, b)

    def test_too_many_parts_rejected(self, tiny_hypergraph):
        with pytest.raises(ValueError):
            HyperPRAW.basic().partition(tiny_hypergraph, 7)
        with pytest.raises(ValueError):
            HyperPRAW.basic().partition(tiny_hypergraph, 0)

    def test_handles_isolated_vertices(self):
        hg = Hypergraph(8, [[0, 1], [1, 2]])  # vertices 3..7 isolated
        res = HyperPRAW.basic().partition(hg, 4)
        assert imbalance(hg, res.assignment, 4) <= 1.5

    def test_history_recorded(self, small_random):
        res = HyperPRAW.basic().partition(small_random, 6)
        assert len(res.iterations) == res.metadata["iterations_run"]
        assert res.iterations[0].iteration == 1
        phases = {r.phase for r in res.iterations}
        assert phases <= {"tempering", "refinement"}

    def test_history_disabled(self, small_random):
        cfg = HyperPRAWConfig(record_history=False)
        res = HyperPRAW.basic(cfg).partition(small_random, 6)
        assert res.iterations == []

    def test_finds_cluster_structure(self, two_cluster_hypergraph):
        """Two dense clusters + one bridge: the bisection must separate
        the clusters (only the bridge edge cut)."""
        res = HyperPRAW.basic().partition(two_cluster_hypergraph, 2)
        a = res.assignment
        assert len(set(a[:5].tolist())) == 1
        assert len(set(a[5:].tolist())) == 1
        assert a[0] != a[5]


class TestVariants:
    def test_basic_ignores_cost_matrix(self, small_random, archer_machine_24):
        _, _, cost = archer_machine_24
        with_cost = HyperPRAW.basic().partition(small_random, 24, cost_matrix=cost)
        without = HyperPRAW.basic().partition(small_random, 24)
        assert np.array_equal(with_cost.assignment, without.assignment)
        assert with_cost.metadata["architecture_aware"] is False

    def test_aware_uses_cost_matrix(self, small_mesh, archer_machine_24):
        _, _, cost = archer_machine_24
        aware = HyperPRAW.aware().partition(small_mesh, 24, cost_matrix=cost)
        basic = HyperPRAW.basic().partition(small_mesh, 24)
        assert aware.metadata["architecture_aware"] is True
        assert not np.array_equal(aware.assignment, basic.assignment)

    def test_aware_on_flat_machine_equals_basic(self, small_random, flat_machine_8):
        """Control: with a homogeneous machine the cost matrix is uniform
        and the two variants must coincide exactly."""
        _, _, cost = flat_machine_8
        aware = HyperPRAW(variant="hyperpraw-aware").partition(
            small_random, 8, cost_matrix=np.round(cost, 12)
        )
        basic = HyperPRAW.basic().partition(small_random, 8)
        assert np.array_equal(aware.assignment, basic.assignment)

    def test_aware_lowers_pc_cost(self, small_mesh, archer_machine_24):
        """The aware variant optimises PC cost; it must not lose to basic
        on the metric it targets."""
        _, _, cost = archer_machine_24
        aware = HyperPRAW.aware().partition(small_mesh, 24, cost_matrix=cost)
        basic = HyperPRAW.basic().partition(small_mesh, 24)
        q_aware = evaluate_partition(small_mesh, aware.assignment, 24, cost)
        q_basic = evaluate_partition(small_mesh, basic.assignment, 24, cost)
        assert q_aware.pc_cost <= q_basic.pc_cost * 1.02

    def test_invalid_cost_matrix_rejected(self, small_random):
        bad = np.ones((8, 8))  # non-zero diagonal
        with pytest.raises(ValueError):
            HyperPRAW.aware().partition(small_random, 8, cost_matrix=bad)


class TestRefinement:
    def test_refinement_improves_over_none(self, small_mesh, archer_machine_24):
        """Figure 3's headline: refinement reaches lower PC cost."""
        _, _, cost = archer_machine_24
        none = HyperPRAW.aware(HyperPRAWConfig.paper_no_refinement()).partition(
            small_mesh, 24, cost_matrix=cost
        )
        ref = HyperPRAW.aware(HyperPRAWConfig.paper_refinement_095()).partition(
            small_mesh, 24, cost_matrix=cost
        )
        assert ref.metadata["final_pc_cost"] <= none.metadata["final_pc_cost"] + 1e-9

    def test_no_refinement_stops_at_tolerance(self, small_random):
        cfg = HyperPRAWConfig.paper_no_refinement()
        res = HyperPRAW.basic(cfg).partition(small_random, 6)
        # last recorded pass is the first within tolerance
        within = [r for r in res.iterations if r.phase == "refinement"]
        assert len(within) == 1

    def test_rollback_returns_best_pass(self, small_mesh, archer_machine_24):
        """When refinement rolls back, the returned PC cost equals the
        minimum over all in-tolerance passes."""
        _, _, cost = archer_machine_24
        res = HyperPRAW.aware().partition(small_mesh, 24, cost_matrix=cost)
        if res.metadata["rolled_back"]:
            in_tol = [r.pc_cost for r in res.iterations if r.phase == "refinement"]
            assert res.metadata["final_pc_cost"] == pytest.approx(min(in_tol))

    def test_max_iterations_cap(self, small_random):
        cfg = HyperPRAWConfig(max_iterations=3)
        res = HyperPRAW.basic(cfg).partition(small_random, 6)
        assert res.metadata["iterations_run"] <= 3

    def test_history_series(self, small_random):
        res = HyperPRAW.basic().partition(small_random, 6)
        iters, costs = res.history_series()
        assert iters == [r.iteration for r in res.iterations]
        assert res.final_pc_cost() == costs[-1]


class TestStreamOrder:
    def test_shuffled_is_seed_deterministic(self, small_random):
        cfg = HyperPRAWConfig(stream_order="shuffled")
        a = HyperPRAW.basic(cfg).partition(small_random, 6, seed=3).assignment
        b = HyperPRAW.basic(cfg).partition(small_random, 6, seed=3).assignment
        c = HyperPRAW.basic(cfg).partition(small_random, 6, seed=4).assignment
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
