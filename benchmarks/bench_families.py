"""Benchmark: the partitioner-family head-to-head and its baseline diff.

``test_families_comparison`` runs
:func:`repro.bench.streaming.compare_families` on the streaming stress
instance and attaches every family's cut, imbalance and resident-pin
figures to ``extra_info``; it also asserts the acceptance criterion for
the FM polish stage: ``hyperpraw+fm`` may never *worsen* the anchor's
hyperedge cut, and must stay inside the refinement balance cap.

``test_families_baseline_diff`` runs the cheap subset of
``python -m repro.bench.baseline --diff-against BENCH_FAMILIES.json``
(docs/performance.md): every row's cut and assignment digest must
reproduce exactly, wall-time drift only warns — CI boxes are not
benchmark boxes.  The default subset reruns one instance's table;
``REPRO_BENCH_FULL=1`` reruns them all.
"""

import os

from repro.bench.streaming import compare_families
from repro.hypergraph.suite import STREAMING_INSTANCE, load_instance

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def test_families_comparison(benchmark, bench_ctx):
    scale = 1.0 if FULL else 0.05
    hg = load_instance(STREAMING_INSTANCE, scale=scale)
    report = benchmark.pedantic(
        lambda: compare_families(
            hg,
            bench_ctx.num_parts,
            chunk_size=512 if FULL else 128,
            max_iterations=bench_ctx.max_iterations,
            seed=bench_ctx.seed,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["instance_pins"] = hg.num_pins
    for record in report.records:
        key = record.label.replace(" ", "")
        benchmark.extra_info[f"cut[{key}]"] = float(
            record.quality.hyperedge_cut
        )
        benchmark.extra_info[f"imbalance[{key}]"] = round(
            float(record.quality.imbalance), 4
        )
        if record.peak_resident_pins is not None:
            benchmark.extra_info[f"resident_pins[{key}]"] = (
                record.peak_resident_pins
            )
    anchor = report.record("hyperpraw")
    polished = report.record("hyperpraw+fm")
    # Acceptance for the polish stage: strictly never worse than the
    # anchor on cut, and within the refinement balance cap.
    assert polished.quality.hyperedge_cut <= anchor.quality.hyperedge_cut
    assert polished.quality.imbalance <= 1.1 + 1e-9
    print()
    print(report.render())


def test_families_baseline_diff(baseline_diff):
    """BENCH_FAMILIES.json must reproduce: digest exactly, wall w/ slack."""
    # Cheap subset: one full table still exercises every family
    # (anchor, polish, onepass, hype, minmax x2, hype and minmax on two
    # workers) in a few seconds.
    baseline_diff(
        "BENCH_FAMILIES.json", lambda r: r["instance"] == "2cubes_sphere"
    )
