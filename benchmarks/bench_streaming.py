"""Benchmark: streamed vs in-memory partitioning (quality/memory/runtime).

Runs :func:`repro.bench.streaming.compare_streaming` on the registry's
streaming stress instance and attaches the quality gaps and the memory
figures to ``extra_info``, so ``pytest benchmarks/ --benchmark-only``
reports how much the out-of-core path costs relative to the in-memory
anchor — and how much the vectorised ``chunk_size`` hot path speeds up
the in-memory restreamer itself.

``test_ingest_vs_replay`` runs the chunk-store ladder
(:func:`repro.bench.streaming.compare_replay`) on the same instance and
asserts the acceptance criterion for the persistent binary chunk store:
a memory-mapped store replay must beat re-ingesting the text file by at
least 3x (in practice it is orders of magnitude — replay is page faults,
re-ingest is a full parse).

``test_sharded_scaling`` runs the parallel sharded streaming ladder
(:func:`repro.bench.streaming.compare_sharded`).  The worker counts come
from ``REPRO_BENCH_WORKERS`` (comma-separated, default ``1,2,4``), so CI
can exercise the multiprocessing path cheaply with ``1,2`` while a
dedicated box measures the full ladder.  Meaningful speedup needs real
cores: on a single-CPU machine expect ~1.0x (fork overhead included),
which is why the scaling assertion lives in the bench report, not in a
hard test.

``test_sharded_boundary_payload`` is the acceptance scenario for the v2
boundary-only merge payloads: on a *boundary-sparse* instance (the
banded ``ABACUS_shell_hd`` mesh — most nets live entirely inside one
shard's contiguous vertex range) shipping only locally detected boundary
rows must cut the merge payload at least 2x against full-table shipping,
at identical assignments.

``test_cluster_baseline_diff`` and ``test_streaming_baseline_diff`` run
the cheap subset of ``python -m repro.bench.baseline --diff-against`` on
the committed ``BENCH_CLUSTER.json`` and ``BENCH_STREAMING.json``
(docs/cluster.md, docs/performance.md): cut and assignment digest must
reproduce exactly, wall drift only warns.  The cluster rerun goes
through forked ``ShardedStreamer`` sharding, which the loopback contract
makes bit-identical to the cluster runs, so no socket is opened.  The
cluster test also gates the lean wire: on every clean multi-worker cell
benchmarked under both wire modes, the tailored+compressed v2 frames
must put >= 2x fewer bytes on the socket than the legacy v1 broadcast.
``REPRO_BENCH_FULL=1`` reruns every baseline row.
"""

import os

from repro.bench.streaming import (
    compare_replay,
    compare_sharded,
    compare_streaming,
)
from repro.hypergraph.suite import STREAMING_INSTANCE, load_instance

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
WORKERS = tuple(
    int(w)
    for w in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4").split(",")
    if w.strip()
)


def test_streaming_comparison(benchmark, bench_ctx):
    scale = 1.0 if FULL else 0.05
    hg = load_instance(STREAMING_INSTANCE, scale=scale)
    job = bench_ctx.one_job()
    report = benchmark.pedantic(
        lambda: compare_streaming(
            hg,
            bench_ctx.num_parts,
            cost_matrix=job.cost_matrix,
            chunk_size=512 if FULL else 128,
            max_iterations=bench_ctx.max_iterations,
            seed=bench_ctx.seed,
        ),
        rounds=1,
        iterations=1,
    )
    anchor = report.records[0]
    benchmark.extra_info["instance_pins"] = report.num_pins
    benchmark.extra_info["inmemory_wall_s"] = round(anchor.wall_time_s, 4)
    for record in report.records[1:]:
        key = record.algorithm.replace(" ", "")
        benchmark.extra_info[f"gap[{key}]"] = round(record.quality_gap, 4)
    chunked = report.records[1]
    benchmark.extra_info["chunked_speedup"] = round(
        anchor.wall_time_s / chunked.wall_time_s, 2
    )
    print()
    print(report.render())


def test_ingest_vs_replay(benchmark, bench_ctx):
    scale = 1.0 if FULL else 0.05
    hg = load_instance(STREAMING_INSTANCE, scale=scale)
    report = benchmark.pedantic(
        lambda: compare_replay(hg, chunk_size=512 if FULL else 128),
        rounds=1,
        iterations=1,
    )
    for record in report.records:
        benchmark.extra_info[f"wall_s[{record.step}]"] = round(
            record.wall_time_s, 5
        )
    benchmark.extra_info["replay_speedup"] = round(report.replay_speedup, 1)
    benchmark.extra_info["store_bytes"] = report.store_bytes
    # The acceptance criterion for the persistent chunk store: replaying
    # the binary store must beat re-parsing the text file by >= 3x.
    assert report.replay_speedup >= 3.0
    print()
    print(report.render())


def test_sharded_scaling(benchmark, bench_ctx):
    scale = 1.0 if FULL else 0.05
    hg = load_instance(STREAMING_INSTANCE, scale=scale)
    job = bench_ctx.one_job()
    report = benchmark.pedantic(
        lambda: compare_sharded(
            hg,
            bench_ctx.num_parts,
            workers=WORKERS,
            cost_matrix=job.cost_matrix,
            chunk_size=512 if FULL else 128,
            max_iterations=bench_ctx.max_iterations,
            seed=bench_ctx.seed,
        ),
        rounds=1,
        iterations=1,
    )
    for record in report.records:
        benchmark.extra_info[f"speedup[w={record.workers}]"] = round(
            record.speedup, 2
        )
        benchmark.extra_info[f"cut_drift[w={record.workers}]"] = round(
            record.cut_drift, 4
        )
        benchmark.extra_info[f"payload_B[w={record.workers}]"] = (
            record.merge_payload_bytes
        )
        if record.pin_skew is not None:
            benchmark.extra_info[f"pin_skew[w={record.workers}]"] = round(
                record.pin_skew, 3
            )
        # sanity, not scaling: every worker count must produce a full,
        # boundary-repaired assignment within the balance tolerance
        assert record.quality.imbalance <= 1.25 + 1e-9
        assert abs(record.cut_drift) <= 0.05
    print()
    print(report.render())


def test_sharded_boundary_payload(benchmark, bench_ctx):
    """Boundary-only payloads on a boundary-sparse instance: >= 2x less."""
    scale = 1.0 if FULL else 0.3
    hg = load_instance("ABACUS_shell_hd", scale=scale)
    w = max(2, max(WORKERS))
    report = benchmark.pedantic(
        lambda: compare_sharded(
            hg,
            bench_ctx.num_parts,
            workers=(w,),
            chunk_size=512 if FULL else 64,
            max_iterations=bench_ctx.max_iterations,
            seed=bench_ctx.seed,
        ),
        rounds=1,
        iterations=1,
    )
    record = report.record(w)
    benchmark.extra_info["merge_payload_bytes"] = record.merge_payload_bytes
    benchmark.extra_info["full_payload_bytes"] = record.full_payload_bytes
    benchmark.extra_info["payload_reduction"] = round(
        record.payload_reduction, 2
    )
    if record.pin_skew is not None:
        benchmark.extra_info["pin_skew"] = round(record.pin_skew, 3)
    # Acceptance: boundary-only merge payloads beat full-table shipping
    # by >= 2x where the shard structure leaves most nets interior.
    assert record.payload_reduction >= 2.0
    print()
    print(report.render())


def test_cluster_baseline_diff(benchmark, baseline_diff):
    """BENCH_CLUSTER.json must reproduce: digest exactly, wall with slack."""
    # Cheap subset: the boundary-sparse mesh at every worker count plus
    # the power-law instance sequentially, boundary payload, lean wire.
    baseline, _ = baseline_diff(
        "BENCH_CLUSTER.json",
        lambda r: r["payload"] == "boundary"
        and r["wire"] == "lean"
        and r["netem"] == "clean"
        and (r["instance"] != STREAMING_INSTANCE or r["workers"] == 1),
    )

    # The lean-wire acceptance gate: tailored rows + zlib frames must
    # cut the bytes on the wire at least 2x against the legacy v1
    # broadcast on every multi-worker clean cell where both were
    # benchmarked (the assignments are bit-identical by contract, so
    # this is pure wire savings, not an algorithm change).
    by_cell = {
        (r["instance"], r["workers"], r["payload"], r["wire"]): r
        for r in baseline["records"]
        if r["netem"] == "clean"
    }
    lean_vs_v1 = [
        (key, lean, by_cell[key[:3] + ("v1",)])
        for key, lean in by_cell.items()
        if key[3] == "lean" and key[1] >= 2 and key[:3] + ("v1",) in by_cell
    ]
    for key, lean, legacy in lean_vs_v1:
        ratio = legacy["wire_bytes"] / max(1, lean["wire_bytes"])
        benchmark.extra_info[f"wire_ratio[{key[0]} x w{key[1]}]"] = round(
            ratio, 2
        )
        assert ratio >= 2.0, (
            f"{key[:3]}: lean wire {lean['wire_bytes']}B is only "
            f"{ratio:.2f}x smaller than the v1 broadcast "
            f"{legacy['wire_bytes']}B — the tailored+compressed wire "
            f"must stay >= 2x leaner"
        )


def test_streaming_baseline_diff(baseline_diff):
    """BENCH_STREAMING.json must reproduce: digest exactly, wall w/ slack."""
    # Cheap subset: one full ladder still exercises every contender
    # (in-memory, chunked, onepass, buffered vertex + chunk-restream).
    baseline_diff(
        "BENCH_STREAMING.json", lambda r: r["instance"] == "2cubes_sphere"
    )
