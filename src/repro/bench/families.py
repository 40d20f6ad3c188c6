"""Head-to-head comparison of the registered partitioner families.

:func:`compare_families` runs every competitor family of
:mod:`repro.partitioning.families` — plus the in-memory HyperPRAW anchor
and its FM-polished twin — on one suite instance and scores all of them
with the *same* in-memory metrics, so the table answers the question the
paper's claim hinges on: where does architecture-aware restreaming sit
against real external competitors, at what memory and wall cost?

Contenders:

* ``hyperpraw`` — the in-memory restreamer, the quality anchor;
* ``hyperpraw+fm`` — the anchor polished by the FM-style boundary
  refinement (:func:`repro.partitioning.families.refine_partition`) —
  the row the refinement acceptance criterion reads (its cut must not
  exceed the anchor's, and on real instances it should beat it);
* ``stream-onepass`` — the single-pass Eq. 1 streamer, streamed from an
  hMetis file so ``peak_resident_pins`` is the honest out-of-core bound;
* ``hype`` — HYPE-style neighbourhood expansion (in-memory by nature;
  its resident pins are the full pin count);
* ``minmax`` — limited-memory min-max streaming, same file stream;
* ``minmax-buffered`` — its similarity-ordered buffered variant;
* ``hype-w2`` and ``minmax-w2`` — HYPE and min-max sharded over two
  workers, so the baseline pins each family's phase-1 sharding too.

Every row carries a sha256 digest of the assignment: the committed
``BENCH_FAMILIES.json`` (recorded and diffed by
``python -m repro.bench.baseline``) doubles as a determinism contract,
and its cheap subset runs in CI from ``benchmarks/bench_families.py``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.architecture.cost import uniform_cost_matrix
from repro.core.config import HyperPRAWConfig
from repro.core.hyperpraw import HyperPRAW
from repro.bench.streaming import assignment_digest
from repro.core.metrics import PartitionQuality, evaluate_partition
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.partitioning.families import (
    MinMaxStreamer,
    NeighborhoodExpansion,
    RefineConfig,
    refine_partition,
)
from repro.streaming import OnePassStreamer, stream_hmetis
from repro.utils.tables import format_table

__all__ = ["FamilyRecord", "FamilyReport", "compare_families"]


@dataclass(frozen=True)
class FamilyRecord:
    """One family's quality / memory / runtime row."""

    algorithm: str
    quality: PartitionQuality
    wall_time_s: float
    #: pins resident during the run (None = in-memory, the full count)
    peak_resident_pins: "int | None"
    peak_tracked_edges: "int | None"
    #: sha256[:16] of the int64 assignment — the determinism anchor the
    #: committed BENCH_FAMILIES.json baseline diffs against
    assignment_digest: str
    kernel_mode: "str | None" = None
    #: weighted cut before/after the FM polish (polished rows only)
    refine_cut_before: "float | None" = None
    refine_cut_after: "float | None" = None
    refine_moves: "int | None" = None


@dataclass
class FamilyReport:
    """All families on one instance, with a paper-style rendering."""

    instance: str
    num_parts: int
    num_pins: int
    chunk_size: int
    records: "list[FamilyRecord]"

    def record(self, algorithm: str) -> FamilyRecord:
        for r in self.records:
            if r.algorithm == algorithm:
                return r
        raise KeyError(f"no record for {algorithm!r}")

    def render(self) -> str:
        rows = []
        for r in self.records:
            rows.append(
                (
                    r.algorithm,
                    r.quality.hyperedge_cut,
                    r.quality.pc_cost,
                    r.quality.imbalance,
                    r.wall_time_s,
                    "full" if r.peak_resident_pins is None else r.peak_resident_pins,
                    "dense" if r.peak_tracked_edges is None else r.peak_tracked_edges,
                )
            )
        return format_table(
            (
                "algorithm",
                "cut",
                "pc_cost",
                "imbalance",
                "wall_s",
                "resident_pins",
                "tracked_edges",
            ),
            rows,
            title=(
                f"partitioner families — {self.instance}, "
                f"p={self.num_parts}, {self.num_pins} pins, "
                f"chunk={self.chunk_size}"
            ),
        )


def compare_families(
    hg: Hypergraph,
    num_parts: int,
    *,
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    buffer_pins: "int | None" = None,
    max_tracked_edges: "int | None" = None,
    max_iterations: int = 20,
    refine_passes: int = 4,
    kernel: str = "auto",
    seed: int = 0,
) -> FamilyReport:
    """Run the family head-to-head on ``hg``.

    The streamers are fed from a temporary hMetis file (weights
    included) so their ``peak_resident_pins`` report the real
    out-of-core figure; every partition is scored with the full
    in-memory :func:`~repro.core.metrics.evaluate_partition`.
    ``refine_passes`` sizes the polish of the ``hyperpraw+fm`` row.
    """
    if buffer_pins is None:
        buffer_pins = max(1024, 8 * chunk_size)
    C = uniform_cost_matrix(num_parts) if cost_matrix is None else cost_matrix
    records: "list[FamilyRecord]" = []

    def record(algorithm, assignment, wall, metadata, peak_pins, stats=None):
        quality = evaluate_partition(
            hg, assignment, num_parts, C, algorithm=algorithm
        )
        digest = assignment_digest(assignment)
        stats = stats or {}
        records.append(
            FamilyRecord(
                algorithm=algorithm,
                quality=quality,
                wall_time_s=wall,
                peak_resident_pins=peak_pins,
                peak_tracked_edges=metadata.get("peak_tracked_edges"),
                assignment_digest=digest,
                kernel_mode=metadata.get("kernel_mode"),
                refine_cut_before=stats.get("refine_cut_before"),
                refine_cut_after=stats.get("refine_cut_after"),
                refine_moves=stats.get("refine_moves"),
            )
        )

    # -- the in-memory anchor and its polished twin --------------------
    cfg = HyperPRAWConfig(
        max_iterations=max_iterations, record_history=False, kernel=kernel
    )
    t0 = time.perf_counter()
    anchor = HyperPRAW(cfg).partition(
        hg, num_parts, cost_matrix=cost_matrix, seed=seed
    )
    record(
        "hyperpraw",
        anchor.assignment,
        time.perf_counter() - t0,
        anchor.metadata,
        None,
    )
    t0 = time.perf_counter()
    refined, stats = refine_partition(
        hg,
        anchor.assignment,
        num_parts,
        refine=RefineConfig(passes=refine_passes),
    )
    record(
        "hyperpraw+fm",
        refined,
        time.perf_counter() - t0,
        anchor.metadata,
        None,
        stats=stats,
    )

    # -- the streamed families, fed from a real file -------------------
    with tempfile.TemporaryDirectory(prefix="repro-bench-families-") as tmp:
        path = os.path.join(tmp, f"{hg.name}.hgr")
        # fmt 11: streamed contenders must see the same weights as the
        # in-memory anchor, or the comparison grades two different inputs
        write_hmetis(hg, path, write_weights=True)

        def streamed(label, make_partitioner):
            stream = stream_hmetis(
                path, chunk_size=chunk_size, buffer_pins=buffer_pins
            )
            with stream:
                t0 = time.perf_counter()
                result = make_partitioner().partition_stream(
                    stream, num_parts, cost_matrix=cost_matrix, seed=seed
                )
                record(
                    label,
                    result.assignment,
                    time.perf_counter() - t0,
                    result.metadata,
                    int(
                        result.metadata.get(
                            "peak_resident_pins", stream.peak_resident_pins
                        )
                    ),
                )

        streamed(
            "stream-onepass",
            lambda: OnePassStreamer(
                chunk_size=chunk_size,
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
            ),
        )
        streamed(
            "hype",
            lambda: NeighborhoodExpansion(
                chunk_size=chunk_size,
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
            ),
        )
        streamed(
            "minmax",
            lambda: MinMaxStreamer(
                chunk_size=chunk_size,
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
            ),
        )
        streamed(
            "minmax-buffered",
            lambda: MinMaxStreamer(
                chunk_size=chunk_size,
                buffer_size=max(1, hg.num_vertices // 4),
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
            ),
        )
        for label, family in (
            ("hype-w2", NeighborhoodExpansion),
            ("minmax-w2", MinMaxStreamer),
        ):
            streamed(
                label,
                lambda family=family: family(
                    chunk_size=chunk_size,
                    max_tracked_edges=max_tracked_edges,
                    kernel=kernel,
                    workers=2,
                ),
            )

    return FamilyReport(
        instance=hg.name,
        num_parts=num_parts,
        num_pins=hg.num_pins,
        chunk_size=chunk_size,
        records=records,
    )
