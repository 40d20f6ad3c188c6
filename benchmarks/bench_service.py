"""Benchmark: the streaming partition service over a real socket.

Runs :func:`repro.bench.service.compare_service` against an in-process
:class:`~repro.service.app.PartitionService` on an ephemeral port and
attaches the traffic figures to ``extra_info``: per-instance
upload-to-result and replay-to-result latency (the digest-reuse
speedup), and sync requests-per-second on the replay hot path with
concurrent client threads.

``test_pool_ladder`` runs :func:`repro.bench.service.compare_pools`
(thread pool vs process pool under the same concurrent replay load) and
asserts the bit-identity contract between the two pools; the speedup is
reported, not asserted — CI enforces the ratio separately on multi-core
boxes via ``python -m repro.bench.baseline --diff-against
BENCH_SERVICE.json --assert-speedup 1.3``.

``test_service_baseline_diff`` runs the cheap subset of that diff
(docs/performance.md): parsed store shapes and the pool ladder's
assignment digests must reproduce exactly, and the pools must serve
identical bytes; latency drift only warns — CI boxes are not benchmark
boxes.  The default subset reruns only the pool-ladder instance;
``REPRO_BENCH_FULL=1`` reruns the whole latency ladder.

Reduced sizes by default (CI smoke finishes in seconds);
``REPRO_BENCH_FULL=1`` scales the ladder up and
``REPRO_BENCH_CLIENTS=N`` sets the throughput phase's client thread
count (default 4).
"""

import os

import pytest

from repro.bench.service import compare_pools, compare_service
from repro.engine.parallel import fork_available

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", "4"))


def test_service_traffic(benchmark):
    report = benchmark.pedantic(
        lambda: compare_service(
            scale=0.3 if FULL else 0.05,
            k=8,
            chunk_size=512 if FULL else 128,
            threads=CLIENTS,
            requests=64 if FULL else 16,
        ),
        rounds=1,
        iterations=1,
    )
    for record in report.records:
        benchmark.extra_info[f"upload_s[{record.instance}]"] = round(
            record.upload_partition_s, 4
        )
        benchmark.extra_info[f"replay_s[{record.instance}]"] = round(
            record.replay_partition_s, 4
        )
        benchmark.extra_info[f"reuse[{record.instance}]"] = round(
            record.replay_speedup, 2
        )
    benchmark.extra_info["rps"] = round(report.throughput.rps, 2)
    benchmark.extra_info["rps_threads"] = report.throughput.threads
    # The service must actually serve: every request completes, and the
    # digest-reuse path must never lose to re-uploading the text.
    assert report.throughput.errors == 0
    assert all(r.replay_partition_s > 0 for r in report.records)
    print()
    print(report.render())


def test_pool_ladder(benchmark):
    """Thread vs process pool: identical bytes, measured throughput."""
    ladder = benchmark.pedantic(
        lambda: compare_pools(
            scale=0.3 if FULL else 0.05,
            k=8,
            chunk_size=512 if FULL else 128,
            threads=CLIENTS,
            requests=64 if FULL else 8,
        ),
        rounds=1,
        iterations=1,
    )
    for run in ladder.runs:
        benchmark.extra_info[f"rps[{run.pool}]"] = round(run.rps, 2)
        assert run.errors == 0
    if ladder.speedup is not None:
        benchmark.extra_info["pool_speedup"] = round(ladder.speedup, 2)
    # The pool is an implementation detail: same store, same seed =>
    # the same assignment bytes from every pool.  (The >=1.3x speedup
    # acceptance runs in CI via python -m repro.bench.baseline
    # --assert-speedup, gated on actual core count.)
    assert ladder.digests_match, [
        (r.pool, r.assignment_digest) for r in ladder.runs
    ]
    print()
    print(ladder.render())


def test_service_baseline_diff(baseline_diff):
    """BENCH_SERVICE.json must reproduce: digests exactly, wall w/ slack."""
    # Cheap subset: the pool-ladder instance alone still pins the
    # cross-pool digest contract and one latency row in seconds.
    _, fresh = baseline_diff(
        "BENCH_SERVICE.json", lambda r: r["instance"] == "ABACUS_shell_hd"
    )
    pools = {r["pool"] for r in fresh["pool_ladder"]["runs"]}
    if fork_available() and "process" not in pools:
        pytest.fail("fork available but the ladder has no process run")
