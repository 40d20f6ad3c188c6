"""The benchmark's own arithmetic and trace format (no workload is run)."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchmath  # noqa: E402
from spans import Recorder, instrument, validate_trace  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_samples_beyond_nearest_rank():
    assert benchmath.samples_beyond(100, 0.9) == 10
    assert benchmath.samples_beyond(99, 0.9) == 9
    assert benchmath.samples_beyond(110, 0.9) == 11
    assert benchmath.samples_beyond(0, 0.9) == 0


def test_min_samples_for_ten_beyond():
    assert benchmath.min_samples_for(0.9) == 100
    assert benchmath.min_samples_for(0.5) == 20
    assert benchmath.min_samples_for(0.99) == 1000


def test_percentile_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert benchmath.percentile(samples, 0.9) == 90
    assert benchmath.percentile(samples, 0.5) == 50
    assert benchmath.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        benchmath.percentile([], 0.5)


def test_tail_reports_p90_only_with_ten_beyond():
    many = [float(i) for i in range(100)]
    assert benchmath.tail(many, 0.9) == 89.0
    few = [3.0, 1.0, 2.0, 100.0]  # one slow sample must not become "the tail"
    assert benchmath.tail(few, 0.9) == statistics.median(few)


def test_quartile_spread_matches_acceptance_rule():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    med, q1, q3, spread = benchmath.quartile_spread(values)
    eq1, _, eq3 = statistics.quantiles(values, n=4)
    assert (med, q1, q3) == (statistics.median(values), eq1, eq3)
    assert spread == pytest.approx((eq3 - eq1) / med)
    assert benchmath.quartile_spread([4.0]) == (4.0, 4.0, 4.0, 0.0)


# ----------------------------------------------------------------------
# success_rate counting
# ----------------------------------------------------------------------
def test_success_rate():
    assert benchmath.success_rate(10, 0) == 1.0
    assert benchmath.success_rate(4, 1) == 0.75
    assert benchmath.success_rate(3, 3) == 0.0
    with pytest.raises(ValueError):
        benchmath.success_rate(0, 0)
    with pytest.raises(ValueError):
        benchmath.success_rate(2, 3)


def test_gate_counts_every_kind_of_failure():
    from workloads import Op, Sharded2W, check_ops, digest_of

    wl = Sharded2W()  # p = 48, must report parallel_mode == "forked"
    good = np.arange(10) % wl.num_parts
    ok_meta = {"kernel_mode": "python", "parallel_mode": "forked"}
    ops = [
        Op(good, ok_meta, 1.0, 0),
        Op(good.copy(), ok_meta, 1.0, 1),
        Op(good[:9], ok_meta, 1.0, 2),  # wrong length
        Op(good + wl.num_parts, ok_meta, 1.0, 3),  # part id out of range
        Op(good, {"kernel_mode": "njit", "parallel_mode": "forked"}, 1.0, 4),
        Op(good, {"kernel_mode": "python", "parallel_mode": "sequential"}, 1.0, 5),
        Op(good[::-1].copy(), ok_meta, 1.0, 6),  # differs from the first op
        Op(np.empty(0, dtype=np.int64), {}, 1.0, 7, error="request failed"),
    ]
    failures, digest = check_ops(wl, ops, 10)
    assert [f is None for f in failures] == [True, True] + [False] * 6
    assert digest == digest_of(good)
    failed = sum(f is not None for f in failures)
    assert benchmath.success_rate(len(ops), failed) == 0.25


def test_multi_stage_workload_gates_each_stage():
    from workloads import WORKLOADS, Op, op_parts

    ooc = WORKLOADS["out-of-core"]
    assert [stage.name for stage in ooc.stages] == ["stream-capped", "sharded-2w"]
    # every stage the gate checks has a digest pinned at the pinned seed
    pinned = json.loads((Path(__file__).resolve().parents[1] / "pinned.json").read_text())
    gated = {"paper-aware", "service-replay"} | {stage.name for stage in ooc.stages}
    assert gated == set(pinned["digests"])
    single = Op(np.zeros(3, dtype=np.int64), {}, 1.0, 0)
    assert op_parts(single) == [single]
    both = Op(None, {}, 2.0, 1, parts=[single, single])
    assert op_parts(both) == [single, single]


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_disjoint_nested_and_overlapping_children():
    assert benchmath.self_time(0.0, 10.0, []) == 10.0
    assert benchmath.self_time(0.0, 10.0, [(1, 2), (4, 6)]) == pytest.approx(7.0)
    # overlapping children cover their union once: [1, 5]
    assert benchmath.self_time(0.0, 10.0, [(1, 3), (2, 5)]) == pytest.approx(6.0)
    # a child nested in another child adds nothing
    assert benchmath.self_time(0.0, 10.0, [(1, 8), (2, 3)]) == pytest.approx(3.0)
    # children spilling past the parent are clipped to it
    assert benchmath.self_time(2.0, 6.0, [(0, 3), (5, 9)]) == pytest.approx(2.0)
    assert benchmath.self_time(0.0, 1.0, [(2, 3)]) == 1.0


def _recorder(rows) -> Recorder:
    rec = Recorder("test-run")
    rec.spans = [list(row) for row in rows]
    return rec


def test_layer_totals_self_time_and_nesting():
    rec = _recorder([
        (0, None, "op", 0.0, 10.0),
        (1, 0, "kernel", 1.0, 9.0),
        (2, 1, "lru_state", 2.0, 4.0),
        (3, 2, "lru_state", 2.5, 3.0),  # nested in a same-layer call
        (4, 1, "lru_state", 3.5, 6.0),  # overlaps span 2
        (5, 0, "pc_cost", 9.0, 9.5),
    ])
    totals = rec.layer_totals(0)
    assert totals["kernel"] == {"calls": 1, "s": 8.0, "self_s": pytest.approx(4.0)}
    assert totals["lru_state"]["calls"] == 2
    assert totals["lru_state"]["s"] == pytest.approx(4.5)
    assert totals["pc_cost"]["calls"] == 1
    assert "op" not in totals
    assert rec.layer_totals(5) == {}


# ----------------------------------------------------------------------
# trace-file schema
# ----------------------------------------------------------------------
def test_trace_file_round_trips_and_validates(tmp_path):
    rec = Recorder("run-1")
    with rec.span("op"):
        with rec.span("kernel"):
            pass
        traced = rec.wrap(lambda x: x + 1, "pc_cost")
        assert traced(1) == 2
    path = rec.write(tmp_path / "traces" / "run-1.json", workload="w", seed=3)
    doc = json.loads(path.read_text())
    validate_trace(doc)
    assert doc["run_id"] == "run-1"
    assert doc["meta"] == {"workload": "w", "seed": 3}
    assert [row[2] for row in doc["spans"]] == ["op", "kernel", "pc_cost"]
    assert [row[1] for row in doc["spans"]] == [None, 0, 0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema="other/1"),
        lambda d: d.update(run_id=""),
        lambda d: d.update(fields=["name"]),
        lambda d: d["spans"].append([9, 42, "x", 0.0, 1.0]),  # unknown parent
        lambda d: d["spans"].append([9, None, "x", 2.0, 1.0]),  # ends first
        lambda d: d["spans"].append([9, 0, "x", -1.0, 0.5]),  # escapes parent
        lambda d: d["spans"].append([9, None, "", 0.0, 1.0]),  # no name
    ],
)
def test_trace_validation_rejects(mutate):
    doc = _recorder([(0, None, "op", 0.0, 10.0)]).to_document()
    validate_trace(doc)
    mutate(doc)
    with pytest.raises(ValueError):
        validate_trace(doc)


def test_instrument_wraps_and_restores():
    from repro.engine.parallel import ShardRounds
    from repro.streaming.state import StreamingState
    import repro.core.hyperpraw as hyperpraw

    before = (StreamingState.__dict__["place"], ShardRounds.__dict__["start"],
              hyperpraw.pass_kernel)
    rec = Recorder("run-2")
    with instrument(rec):
        assert StreamingState.__dict__["place"] is not before[0]
        state = StreamingState(2, expected_loads=np.ones(2))
        state.place(np.array([0, 1]), 1, 1.0)
    after = (StreamingState.__dict__["place"], ShardRounds.__dict__["start"],
             hyperpraw.pass_kernel)
    assert after == before
    assert [row[2] for row in rec.spans] == ["lru_state"]
