"""Streamed vs in-memory comparison scenario.

The out-of-core subsystem (:mod:`repro.streaming`) buys bounded memory
with some combination of quality and wall time; this scenario measures
exactly that trade on a suite instance:

1. the instance is written to a temporary hMetis file and every streamed
   run re-reads it chunk by chunk through :func:`repro.streaming.reader.
   stream_hmetis`, so the reported *peak resident pins* are the real
   out-of-core figure, not a simulation;
2. contenders: in-memory HyperPRAW (the quality anchor), in-memory
   HyperPRAW with the vectorised ``chunk_size`` hot path, the single-pass
   :class:`~repro.streaming.onepass.OnePassStreamer`, and
   :class:`~repro.streaming.restream.BufferedRestreamer` at a ladder of
   buffer sizes (quality should climb the ladder toward the anchor);
3. every partition is scored with the full in-memory metrics
   (:func:`~repro.core.metrics.evaluate_partition`) — streamed runs don't
   get to grade their own homework with the bounded monitored cost.

``quality_gap`` is the relative PC-cost excess over the in-memory anchor
(0.0 means identical quality).

:func:`compare_sharded` is the companion scaling scenario for parallel
sharded streaming (:class:`~repro.streaming.sharded.ShardedStreamer`):
the same instance streamed at a ladder of worker counts, reporting
wall-clock speedup over one worker, the quality drift (hyperedge cut
and PC cost) the shard/merge/boundary-restream pipeline introduces, the
merge payload bytes actually shipped over the worker pipes against what
full-table shipping would have cost (``payload_reduction``), and the
per-shard pin skew the pin-balanced ``shard_ranges`` achieve.

:func:`compare_replay` is the ingest-vs-replay ladder for the persistent
binary chunk store (:mod:`repro.streaming.chunkstore`): text ingest,
spill replay, text *re*-ingest (what every fresh invocation pays without
a store), store conversion, store open and memory-mapped store replay —
with ``replay_speedup`` (text re-ingest over store replay) as the
headline number.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.architecture.cost import uniform_cost_matrix
from repro.core.config import HyperPRAWConfig
from repro.core.hyperpraw import HyperPRAW
from repro.core.metrics import PartitionQuality, evaluate_partition
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.streaming import (
    BufferedRestreamer,
    OnePassStreamer,
    ShardedStreamer,
    stream_hmetis,
)
from repro.utils.tables import format_table

__all__ = [
    "StreamingRecord",
    "StreamingReport",
    "compare_streaming",
    "ShardedRecord",
    "ShardedReport",
    "compare_sharded",
    "ReplayRecord",
    "ReplayReport",
    "compare_replay",
    "assignment_digest",
]


def assignment_digest(assignment: np.ndarray) -> str:
    """First 16 hex digits of the sha256 of the int64 assignment bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class StreamingRecord:
    """One contender's quality / memory / runtime row."""

    algorithm: str
    quality: PartitionQuality
    quality_gap: float
    wall_time_s: float
    peak_resident_pins: "int | None"
    peak_tracked_edges: "int | None"
    #: sha256[:16] of the int64 assignment — the determinism anchor the
    #: committed BENCH_STREAMING.json baseline diffs against
    assignment_digest: "str | None" = None
    #: which pass kernel actually ran ("python" | "njit")
    kernel_mode: "str | None" = None

    @property
    def pc_cost(self) -> float:
        return self.quality.pc_cost


@dataclass
class StreamingReport:
    """All contenders on one instance, with the paper-style rendering."""

    instance: str
    num_parts: int
    num_pins: int
    chunk_size: int
    records: "list[StreamingRecord]"

    def record(self, algorithm: str) -> StreamingRecord:
        for r in self.records:
            if r.algorithm == algorithm:
                return r
        raise KeyError(f"no record for {algorithm!r}")

    def gap(self, algorithm: str) -> float:
        return self.record(algorithm).quality_gap

    def render(self) -> str:
        rows = []
        for r in self.records:
            rows.append(
                (
                    r.algorithm,
                    r.quality.pc_cost,
                    f"{r.quality_gap * 100:+.1f}%",
                    r.quality.hyperedge_cut,
                    r.quality.imbalance,
                    r.wall_time_s,
                    "full" if r.peak_resident_pins is None else r.peak_resident_pins,
                    "dense" if r.peak_tracked_edges is None else r.peak_tracked_edges,
                )
            )
        return format_table(
            (
                "algorithm",
                "pc_cost",
                "gap",
                "cut",
                "imbalance",
                "wall_s",
                "resident_pins",
                "tracked_edges",
            ),
            rows,
            title=(
                f"streamed vs in-memory — {self.instance}, p={self.num_parts}, "
                f"{self.num_pins} pins, chunk={self.chunk_size}"
            ),
        )


def compare_streaming(
    hg: Hypergraph,
    num_parts: int,
    *,
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    buffer_pins: "int | None" = None,
    buffer_fractions: "tuple[float, ...]" = (0.125, 0.5, 1.0),
    pin_budget: "int | None" = None,
    max_tracked_edges: "int | None" = None,
    max_iterations: int = 100,
    kernel: str = "auto",
    seed: int = 0,
) -> StreamingReport:
    """Run the full streamed-vs-in-memory comparison on ``hg``.

    ``buffer_fractions`` are :class:`BufferedRestreamer` window sizes as
    fractions of ``|V|`` (1.0 buffers everything — the convergence check).
    ``buffer_pins`` is the readers' ingest buffer; the default scales with
    the chunk size so the reported peak resident pins reflect the
    out-of-core bound even on laptop-sized instances.  ``pin_budget``
    switches the streamed contenders to pin-budgeted chunk boundaries.
    ``kernel`` selects the pass-kernel implementation (docs/performance.md)
    for every contender.

    The buffered restreamers run twice per fraction: once scoring
    vertex-by-vertex (the historical path) and once with the chunked
    restream scorer (``chunk_size`` sub-blocks per window) — the
    ``stream-buffered-chunk`` rows are the headline of the compiled-speed
    PR's ladder.
    """
    if buffer_pins is None:
        buffer_pins = max(1024, 8 * chunk_size)
    C = uniform_cost_matrix(num_parts) if cost_matrix is None else cost_matrix
    records: "list[StreamingRecord]" = []

    def run(algorithm: str, fn, peak_pins=None):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        quality = evaluate_partition(
            hg, result.assignment, num_parts, C, algorithm=algorithm
        )
        digest = assignment_digest(result.assignment)
        records.append(
            StreamingRecord(
                algorithm=algorithm,
                quality=quality,
                quality_gap=0.0,  # filled in below, once the anchor exists
                wall_time_s=wall,
                peak_resident_pins=(
                    peak_pins() if callable(peak_pins) else peak_pins
                ),
                peak_tracked_edges=result.metadata.get("peak_tracked_edges"),
                assignment_digest=digest,
                kernel_mode=result.metadata.get("kernel_mode"),
            )
        )
        return result

    cfg = HyperPRAWConfig(
        max_iterations=max_iterations, record_history=False, kernel=kernel
    )
    run(
        "hyperpraw (in-memory)",
        lambda: HyperPRAW(cfg).partition(hg, num_parts, cost_matrix=cost_matrix, seed=seed),
    )
    chunked_cfg = cfg.with_(chunk_size=chunk_size)
    run(
        f"hyperpraw (chunk={chunk_size})",
        lambda: HyperPRAW(chunked_cfg).partition(
            hg, num_parts, cost_matrix=cost_matrix, seed=seed
        ),
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as tmp:
        path = os.path.join(tmp, f"{hg.name}.hgr")
        # fmt 11: streamed contenders must see the same weights as the
        # in-memory anchor, or the comparison grades two different inputs
        write_hmetis(hg, path, write_weights=True)

        def streamed(make_partitioner, label, stream_chunk):
            stream = stream_hmetis(
                path,
                chunk_size=stream_chunk,
                buffer_pins=buffer_pins,
                pin_budget=pin_budget,
            )
            with stream:
                run(
                    label,
                    lambda: make_partitioner().partition_stream(
                        stream, num_parts, cost_matrix=cost_matrix, seed=seed
                    ),
                    peak_pins=lambda: stream.peak_resident_pins,
                )

        streamed(
            lambda: OnePassStreamer(
                chunk_size=chunk_size,
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
            ),
            "stream-onepass",
            chunk_size,
        )
        for frac in buffer_fractions:
            buffer = max(1, int(round(frac * hg.num_vertices)))
            streamed(
                lambda: BufferedRestreamer(
                    cfg,
                    buffer_size=buffer,
                    max_tracked_edges=max_tracked_edges,
                ),
                f"stream-buffered ({frac:g}|V|)",
                chunk_size,
            )
        # Same window ladder with the chunked restream scorer: one
        # block-terms matmul per chunk_size sub-block instead of a
        # per-vertex python loop over the window.
        for frac in buffer_fractions:
            buffer = max(1, int(round(frac * hg.num_vertices)))
            streamed(
                lambda: BufferedRestreamer(
                    chunked_cfg,
                    buffer_size=buffer,
                    max_tracked_edges=max_tracked_edges,
                ),
                f"stream-buffered-chunk ({frac:g}|V|)",
                chunk_size,
            )

    # Normalise: gaps are relative to the in-memory anchor.
    anchor = records[0].quality.pc_cost
    records = [
        StreamingRecord(
            algorithm=r.algorithm,
            quality=r.quality,
            quality_gap=(r.quality.pc_cost - anchor) / anchor if anchor else 0.0,
            wall_time_s=r.wall_time_s,
            peak_resident_pins=r.peak_resident_pins,
            peak_tracked_edges=r.peak_tracked_edges,
            assignment_digest=r.assignment_digest,
            kernel_mode=r.kernel_mode,
        )
        for r in records
    ]
    return StreamingReport(
        instance=hg.name,
        num_parts=num_parts,
        num_pins=hg.num_pins,
        chunk_size=chunk_size,
        records=records,
    )


# ----------------------------------------------------------------------
# parallel sharded streaming scaling scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedRecord:
    """One worker count's wall-clock / quality / payload row."""

    workers: int
    quality: PartitionQuality
    wall_time_s: float
    speedup: float
    cut_drift: float
    boundary_vertices: int
    boundary_iterations: int
    #: bytes actually shipped over the worker pipes at the merge
    merge_payload_bytes: int = 0
    #: bytes full-table shipping would have cost on the same run
    full_payload_bytes: int = 0
    #: max/mean per-shard pin count (1.0 = perfectly pin-balanced);
    #: ``None`` when the stream could not report per-chunk pins
    pin_skew: "float | None" = None

    @property
    def pc_cost(self) -> float:
        return self.quality.pc_cost

    @property
    def payload_reduction(self) -> float:
        """How much boundary-only shipping saved vs full tables."""
        if not self.merge_payload_bytes:
            return float("inf") if self.full_payload_bytes else 1.0
        return self.full_payload_bytes / self.merge_payload_bytes


@dataclass
class ShardedReport:
    """Worker-count scaling of the sharded streamer on one instance."""

    instance: str
    num_parts: int
    num_pins: int
    chunk_size: int
    base_algorithm: str
    records: "list[ShardedRecord]"

    def record(self, workers: int) -> ShardedRecord:
        for r in self.records:
            if r.workers == workers:
                return r
        raise KeyError(f"no record for workers={workers}")

    def render(self) -> str:
        rows = [
            (
                r.workers,
                r.wall_time_s,
                f"{r.speedup:.2f}x",
                r.quality.pc_cost,
                r.quality.hyperedge_cut,
                f"{r.cut_drift * 100:+.1f}%",
                r.quality.imbalance,
                r.boundary_vertices,
                r.boundary_iterations,
                r.merge_payload_bytes,
                f"{r.payload_reduction:.2f}x",
                "n/a" if r.pin_skew is None else f"{r.pin_skew:.3f}",
            )
            for r in self.records
        ]
        return format_table(
            (
                "workers",
                "wall_s",
                "speedup",
                "pc_cost",
                "cut",
                "cut_drift",
                "imbalance",
                "boundary_v",
                "boundary_it",
                "payload_B",
                "vs_full",
                "pin_skew",
            ),
            rows,
            title=(
                f"sharded streaming scaling — {self.instance}, "
                f"p={self.num_parts}, {self.num_pins} pins, "
                f"base={self.base_algorithm}, chunk={self.chunk_size}"
            ),
        )


# ----------------------------------------------------------------------
# chunk-store ingest-vs-replay ladder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayRecord:
    """One step of the ingest-vs-replay ladder."""

    step: str
    wall_time_s: float
    pins_per_s: float


@dataclass
class ReplayReport:
    """The chunk-store ladder on one instance: how much replay saves."""

    instance: str
    num_pins: int
    chunk_size: int
    store_bytes: int
    records: "list[ReplayRecord]"

    def record(self, step: str) -> ReplayRecord:
        for r in self.records:
            if r.step == step:
                return r
        raise KeyError(f"no record for {step!r}")

    @property
    def replay_speedup(self) -> float:
        """Text re-ingest wall time over memory-mapped store replay."""
        replay = self.record("store-replay").wall_time_s
        if replay == 0.0:
            return float("inf")
        return self.record("text-reingest").wall_time_s / replay

    def render(self) -> str:
        reingest = self.record("text-reingest").wall_time_s
        rows = [
            (
                r.step,
                r.wall_time_s,
                f"{reingest / r.wall_time_s:.1f}x" if r.wall_time_s else "inf",
                f"{r.pins_per_s:,.0f}",
            )
            for r in self.records
        ]
        return format_table(
            ("step", "wall_s", "vs_text_reingest", "pins/s"),
            rows,
            title=(
                f"chunk-store ingest vs replay — {self.instance}, "
                f"{self.num_pins} pins, chunk={self.chunk_size}, "
                f"store={self.store_bytes} bytes"
            ),
        )


def compare_replay(
    hg: Hypergraph,
    *,
    chunk_size: int = 512,
    buffer_pins: "int | None" = None,
    pin_budget: "int | None" = None,
) -> ReplayReport:
    """Measure what the persistent chunk store saves on ``hg``.

    Ladder steps, each a timed full pass of the same pin structure:

    * ``text-ingest`` — first parse of the hMetis file into spill files;
    * ``spill-replay`` — one chunk iteration over the live spill stream
      (what each extra restream pass costs *within* one invocation);
    * ``text-reingest`` — parsing the file again (what a *fresh*
      invocation pays without a store);
    * ``store-write`` — materialising the store from the spill stream;
    * ``store-open`` — manifest read + validation;
    * ``store-replay`` — one memory-mapped chunk iteration over the
      store (what a fresh invocation pays *with* a store).

    ``buffer_pins`` defaults like :func:`compare_streaming`'s so the
    ingest figures reflect the out-of-core configuration.
    """
    from repro.streaming.chunkstore import open_store

    if buffer_pins is None:
        buffer_pins = max(1024, 8 * chunk_size)
    records: "list[ReplayRecord]" = []

    def timed(step: str, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        records.append(
            ReplayRecord(
                step=step,
                wall_time_s=wall,
                pins_per_s=hg.num_pins / wall if wall else float("inf"),
            )
        )
        return out

    def drain(stream):
        # Touch every pin array so memory-mapped replays actually fault
        # their pages in — otherwise the mmap path would time an almost
        # empty loop over lazy views, not a real replay pass.
        touched = 0
        for chunk in stream:
            touched += int(chunk.vertex_edges.sum())
        return stream

    kwargs = dict(
        chunk_size=chunk_size, buffer_pins=buffer_pins, pin_budget=pin_budget
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-replay-") as tmp:
        path = os.path.join(tmp, f"{hg.name}.hgr")
        write_hmetis(hg, path, write_weights=True)
        store_dir = os.path.join(tmp, f"{hg.name}.chunkstore")
        with timed("text-ingest", lambda: stream_hmetis(path, **kwargs)) as stream:
            timed("spill-replay", lambda: drain(stream))
            timed("store-write", lambda: stream.save(store_dir))
        with timed("text-reingest", lambda: stream_hmetis(path, **kwargs)):
            pass
        store = timed("store-open", lambda: open_store(store_dir))
        timed("store-replay", lambda: drain(store))
        store_bytes = int(store.manifest["data_bytes"])

    # Ladder order for the rendering; timings were taken in run order.
    order = (
        "text-ingest",
        "spill-replay",
        "text-reingest",
        "store-write",
        "store-open",
        "store-replay",
    )
    records = sorted(records, key=lambda r: order.index(r.step))
    return ReplayReport(
        instance=hg.name,
        num_pins=hg.num_pins,
        chunk_size=chunk_size,
        store_bytes=store_bytes,
        records=records,
    )


def compare_sharded(
    hg: Hypergraph,
    num_parts: int,
    *,
    workers: "tuple[int, ...]" = (1, 2, 4),
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    buffer_fraction: float = 0.25,
    pin_budget: "int | None" = None,
    max_tracked_edges: "int | None" = None,
    max_iterations: int = 100,
    payload: str = "boundary",
    shard_by: str = "pins",
    kernel: str = "auto",
    seed: int = 0,
) -> ShardedReport:
    """Stream ``hg`` at a ladder of worker counts, sharing one spill file.

    The base partitioner is a :class:`BufferedRestreamer` windowing
    ``buffer_fraction * |V|`` vertices; ``cut_drift`` is each run's
    relative hyperedge-cut excess over the single-worker run (the
    acceptance metric for the sharded pipeline), and ``speedup`` its
    single-worker wall-clock ratio.  Each record also carries the merge
    payload bytes the run actually shipped, what full-table shipping
    would have cost (``payload_reduction``), and the per-shard pin skew
    (``payload`` / ``shard_by`` select the v2 knobs under test).
    """
    C = uniform_cost_matrix(num_parts) if cost_matrix is None else cost_matrix
    cfg = HyperPRAWConfig(
        max_iterations=max_iterations, record_history=False, kernel=kernel
    )
    buffer = max(1, int(round(buffer_fraction * hg.num_vertices)))
    records: "list[ShardedRecord]" = []
    base_name = ""

    with tempfile.TemporaryDirectory(prefix="repro-bench-sharded-") as tmp:
        path = os.path.join(tmp, f"{hg.name}.hgr")
        write_hmetis(hg, path, write_weights=True)
        for w in workers:
            stream = stream_hmetis(
                path, chunk_size=chunk_size, pin_budget=pin_budget
            )
            with stream:
                base = BufferedRestreamer(
                    cfg, buffer_size=buffer, max_tracked_edges=max_tracked_edges
                )
                sharded = ShardedStreamer(
                    base, workers=w, payload=payload, shard_by=shard_by
                )
                base_name = base.name
                t0 = time.perf_counter()
                result = sharded.partition_stream(
                    stream, num_parts, cost_matrix=cost_matrix, seed=seed
                )
                wall = time.perf_counter() - t0
            quality = evaluate_partition(
                hg, result.assignment, num_parts, C, algorithm=f"workers={w}"
            )
            md = result.metadata
            records.append(
                ShardedRecord(
                    workers=w,
                    quality=quality,
                    wall_time_s=wall,
                    speedup=0.0,  # filled in below, once the anchor exists
                    cut_drift=0.0,
                    boundary_vertices=md["boundary_vertices"],
                    boundary_iterations=md["boundary_iterations"],
                    merge_payload_bytes=md["merge_payload_bytes"],
                    full_payload_bytes=md["merge_full_payload_bytes"],
                    pin_skew=md["shard_pin_skew"],
                )
            )

    # Anchor on the lowest worker count in the ladder (workers=1 when
    # present) — not on list position, which would follow whatever order
    # the caller passed.
    anchor = min(records, key=lambda r: r.workers)
    records = [
        ShardedRecord(
            workers=r.workers,
            quality=r.quality,
            wall_time_s=r.wall_time_s,
            speedup=anchor.wall_time_s / r.wall_time_s if r.wall_time_s else 0.0,
            cut_drift=(
                (r.quality.hyperedge_cut - anchor.quality.hyperedge_cut)
                / anchor.quality.hyperedge_cut
                if anchor.quality.hyperedge_cut
                else 0.0
            ),
            boundary_vertices=r.boundary_vertices,
            boundary_iterations=r.boundary_iterations,
            merge_payload_bytes=r.merge_payload_bytes,
            full_payload_bytes=r.full_payload_bytes,
            pin_skew=r.pin_skew,
        )
        for r in records
    ]
    return ShardedReport(
        instance=hg.name,
        num_parts=num_parts,
        num_pins=hg.num_pins,
        chunk_size=chunk_size,
        base_algorithm=base_name,
        records=records,
    )
