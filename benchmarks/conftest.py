"""Shared configuration for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper via
its :mod:`repro.experiments` driver and reports the wall-clock cost of
doing so through pytest-benchmark.  The *simulated* results (speedups,
costs) are attached to the benchmark's ``extra_info`` so
``pytest benchmarks/ --benchmark-only`` both times the reproduction and
prints what it reproduced.

Benchmarks default to a reduced world (one or two simulated nodes, scaled
instances, single job) so the whole harness completes in minutes; the
``REPRO_BENCH_FULL=1`` environment variable switches to the full
4-node / scale-1.0 / 3-job configuration used for EXPERIMENTS.md.

The ``baseline_diff`` fixture reruns a committed ``BENCH_*.json`` through
:mod:`repro.bench.baseline` — the same rerun and diff as
``python -m repro.bench.baseline --diff-against`` — on a cheap subset of
its rows (every row with ``REPRO_BENCH_FULL=1``).
"""

import os
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentContext

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def bench_ctx() -> ExperimentContext:
    """Benchmark world: reduced by default, full with REPRO_BENCH_FULL=1."""
    if FULL:
        return ExperimentContext(num_nodes=4, scale=1.0, num_jobs=3, iterations=2)
    return ExperimentContext(
        num_nodes=2,
        scale=0.3,
        num_jobs=1,
        iterations=1,
        timesteps=5,
        max_iterations=60,
    )


@pytest.fixture
def baseline_diff(benchmark):
    """``check(name, subset)``: rerun the committed baseline ``name`` on
    the rows ``subset`` keeps and fail on any diff failure; the timed
    fields land in ``extra_info``.  Returns ``(baseline, fresh)``."""
    from repro.bench import baseline

    def check(name, subset):
        path = REPO / name
        if not path.exists():
            pytest.skip(f"no committed {name} baseline")
        spec, base = baseline.load(path)
        fresh = benchmark.pedantic(
            lambda: baseline.rerun(spec, base, None if FULL else subset),
            rounds=1,
            iterations=1,
        )
        for table in spec.tables:
            for row in table.rows(fresh):
                for field in table.timed:
                    key = " x ".join(map(str, table.row_key(row)))
                    benchmark.extra_info[f"{field}[{key}]"] = row[field]
        failures = baseline.diff(spec, base, fresh)
        assert not failures, "\n".join(
            failures + [f"regenerate deliberately with: {spec.regenerate}"]
        )
        return base, fresh

    return check
