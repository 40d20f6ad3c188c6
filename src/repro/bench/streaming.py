"""One contender runner for the streamed, sharded and family comparisons.

Every comparison here scores a list of partitioners (*contenders*) with
the same in-memory Section 5.2 metrics against an anchor, the first
contender.  :func:`run_contenders` does that work once for all of them:

1. the instance is written to a temporary hMetis file and every streamed
   contender re-reads it chunk by chunk through
   :func:`repro.streaming.reader.stream_hmetis`, so the reported *peak
   resident pins* are the real out-of-core figure, not a simulation;
2. each contender is timed around its one ``partition`` or
   ``partition_stream`` call and scored with the full in-memory metrics
   (:func:`~repro.core.metrics.evaluate_partition`) — streamed runs don't
   get to grade their own homework with the bounded monitored cost;
3. every row carries a digest of its assignment, the determinism anchor
   the committed ``BENCH_*.json`` baselines diff against;
4. the :class:`Report` derives every column measured against the anchor
   (``gap``, ``speedup``, ``cut_drift``) from its first record.

Three contender lists use it:

* :func:`compare_streaming` — streamed vs in-memory: in-memory HyperPRAW
  (the quality anchor), its vectorised ``chunk_size`` twin, the
  single-pass :class:`~repro.streaming.onepass.OnePassStreamer` and
  :class:`~repro.streaming.restream.BufferedRestreamer` at a ladder of
  buffer sizes (quality should climb the ladder toward the anchor);
* :func:`compare_sharded` — parallel sharded streaming
  (:class:`~repro.streaming.sharded.ShardedStreamer`) at a ladder of
  worker counts: wall-clock speedup over the fewest workers, the cut
  drift the shard/merge/boundary-restream pipeline introduces, the merge
  payload bytes actually shipped against what full-table shipping would
  have cost (``vs_full``), and the per-shard pin skew;
* :func:`compare_families` — the competitor head-to-head: the anchor,
  its FM-polished twin, onepass, HYPE-style expansion and the
  limited-memory min-max streamers, plain and sharded over two workers.

:func:`compare_replay` is the ingest-vs-replay ladder for the persistent
binary chunk store (:mod:`repro.streaming.chunkstore`): text ingest,
spill replay, text *re*-ingest (what every fresh invocation pays without
a store), store conversion, store open and memory-mapped store replay —
with ``replay_speedup`` (text re-ingest over store replay) as the
headline number.  It grades no partition, so it keeps its own record.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.architecture.cost import uniform_cost_matrix
from repro.core.config import HyperPRAWConfig
from repro.core.hyperpraw import HyperPRAW
from repro.core.metrics import PartitionQuality, evaluate_partition
from repro.core.result import PartitionResult
from repro.hypergraph.io import write_hmetis
from repro.hypergraph.model import Hypergraph
from repro.partitioning.families import (
    MinMaxStreamer,
    NeighborhoodExpansion,
    RefineConfig,
    refine_partition,
)
from repro.streaming import (
    BufferedRestreamer,
    OnePassStreamer,
    ShardedStreamer,
    stream_hmetis,
)
from repro.utils.tables import format_table

__all__ = [
    "Contender",
    "Record",
    "Report",
    "run_contenders",
    "compare_streaming",
    "compare_sharded",
    "compare_families",
    "ReplayRecord",
    "ReplayReport",
    "compare_replay",
    "assignment_digest",
]

#: the window of every sharded run, as a fraction of ``|V|``
SHARDED_BUFFER_FRACTION = 0.25


def assignment_digest(assignment: np.ndarray) -> str:
    """First 16 hex digits of the sha256 of the int64 assignment bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def _buffer_pins(chunk_size: int) -> int:
    """The readers' ingest buffer: it scales with the chunk size, so the
    reported peak resident pins reflect the out-of-core bound even on
    laptop-sized instances."""
    return max(1024, 8 * chunk_size)


@dataclass(frozen=True)
class Contender:
    """One row of a comparison: its label and a factory for its partitioner.

    ``make(anchor)`` builds the partitioner just before it runs;
    ``anchor`` is the first contender's result (``None`` while the first
    is built), so a row can polish the anchor's partition.  A
    ``streamed`` contender runs ``partition_stream`` over the instance's
    hMetis file; the others run ``partition`` on the hypergraph.
    """

    label: str
    make: Callable
    streamed: bool = False


@dataclass(frozen=True)
class Record:
    """One contender's quality / memory / runtime row."""

    label: str
    quality: PartitionQuality
    wall_s: float
    #: pins resident during the run (``None`` = in-memory, the full count)
    peak_resident_pins: "int | None"
    #: sha256[:16] of the int64 assignment (:func:`assignment_digest`)
    digest: str
    metadata: dict

    @property
    def peak_tracked_edges(self) -> "int | None":
        return self.metadata.get("peak_tracked_edges")

    @property
    def kernel_mode(self) -> "str | None":
        """Which pass kernel actually ran (``"python"`` | ``"njit"``)."""
        return self.metadata.get("kernel_mode")

    @property
    def payload_reduction(self) -> float:
        """Sharded runs: full-table merge bytes over the bytes shipped."""
        shipped = self.metadata["merge_payload_bytes"]
        full = self.metadata["merge_full_payload_bytes"]
        if not shipped:
            return float("inf") if full else 1.0
        return full / shipped


def _relative(value: float, anchor: float) -> float:
    return (value - anchor) / anchor if anchor else 0.0


@dataclass
class Report:
    """Every contender on one instance; the first record is the anchor."""

    title: str
    #: the columns :meth:`render` prints, names from :data:`COLUMNS`
    columns: tuple
    records: "list[Record]"

    def record(self, label: str) -> Record:
        for r in self.records:
            if r.label == label:
                return r
        raise KeyError(f"no record for {label!r}")

    def gap(self, label: str) -> float:
        """Relative PC-cost excess over the anchor (0.0 = same quality)."""
        anchor = self.records[0].quality.pc_cost
        return _relative(self.record(label).quality.pc_cost, anchor)

    def cut_drift(self, label: str) -> float:
        """Relative hyperedge-cut excess over the anchor."""
        anchor = self.records[0].quality.hyperedge_cut
        return _relative(self.record(label).quality.hyperedge_cut, anchor)

    def speedup(self, label: str) -> float:
        """The anchor's wall time over this row's."""
        wall = self.record(label).wall_s
        return self.records[0].wall_s / wall if wall else 0.0

    def render(self) -> str:
        rows = [
            tuple(COLUMNS[c](self, r) for c in self.columns)
            for r in self.records
        ]
        return format_table(self.columns, rows, title=self.title)


#: column name -> its cell, from the report and one of its records
COLUMNS = {
    "algorithm": lambda rep, r: r.label,
    "workers": lambda rep, r: r.metadata["workers"],
    "wall_s": lambda rep, r: r.wall_s,
    "speedup": lambda rep, r: f"{rep.speedup(r.label):.2f}x",
    "pc_cost": lambda rep, r: r.quality.pc_cost,
    "gap": lambda rep, r: f"{rep.gap(r.label) * 100:+.1f}%",
    "cut": lambda rep, r: r.quality.hyperedge_cut,
    "cut_drift": lambda rep, r: f"{rep.cut_drift(r.label) * 100:+.1f}%",
    "imbalance": lambda rep, r: r.quality.imbalance,
    "resident_pins": lambda rep, r: (
        "full" if r.peak_resident_pins is None else r.peak_resident_pins
    ),
    "tracked_edges": lambda rep, r: (
        "dense" if r.peak_tracked_edges is None else r.peak_tracked_edges
    ),
    "boundary_v": lambda rep, r: r.metadata["boundary_vertices"],
    "boundary_it": lambda rep, r: r.metadata["boundary_iterations"],
    "payload_B": lambda rep, r: r.metadata["merge_payload_bytes"],
    "vs_full": lambda rep, r: f"{r.payload_reduction:.2f}x",
    "pin_skew": lambda rep, r: (
        "n/a"
        if r.metadata["shard_pin_skew"] is None
        else f"{r.metadata['shard_pin_skew']:.3f}"
    ),
}


def run_contenders(
    hg: Hypergraph,
    num_parts: int,
    contenders: "list[Contender]",
    *,
    title: str,
    columns: tuple,
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    pin_budget: "int | None" = None,
    seed: int = 0,
) -> Report:
    """Run, time, grade and digest every contender on ``hg``, in order.

    Streamed contenders read ``chunk_size``-vertex chunks (or
    ``pin_budget``-pin chunks) of a temporary hMetis file.  A streamed
    row's peak resident pins come from its result metadata when the
    partitioner reports them, else from the stream.
    """
    C = uniform_cost_matrix(num_parts) if cost_matrix is None else cost_matrix
    records: "list[Record]" = []
    anchor = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, f"{hg.name}.hgr")
        # fmt 11: streamed contenders must see the same weights as the
        # in-memory anchor, or the comparison grades two different inputs
        write_hmetis(hg, path, write_weights=True)
        for contender in contenders:
            partitioner = contender.make(anchor)
            opened = (
                stream_hmetis(
                    path,
                    chunk_size=chunk_size,
                    buffer_pins=_buffer_pins(chunk_size),
                    pin_budget=pin_budget,
                )
                if contender.streamed
                else contextlib.nullcontext()
            )
            with opened as stream:
                t0 = time.perf_counter()
                if stream is None:
                    result = partitioner.partition(
                        hg, num_parts, cost_matrix=cost_matrix, seed=seed
                    )
                else:
                    result = partitioner.partition_stream(
                        stream, num_parts, cost_matrix=cost_matrix, seed=seed
                    )
                wall = time.perf_counter() - t0
                peak_pins = (
                    None
                    if stream is None
                    else int(
                        result.metadata.get(
                            "peak_resident_pins", stream.peak_resident_pins
                        )
                    )
                )
            if anchor is None:
                anchor = result
            records.append(
                Record(
                    label=contender.label,
                    quality=evaluate_partition(
                        hg,
                        result.assignment,
                        num_parts,
                        C,
                        algorithm=contender.label,
                    ),
                    wall_s=wall,
                    peak_resident_pins=peak_pins,
                    digest=assignment_digest(result.assignment),
                    metadata=result.metadata,
                )
            )
    return Report(title=title, columns=columns, records=records)


def _title(head: str, hg: Hypergraph, num_parts: int, chunk_size: int, *extra):
    fields = (hg.name, f"p={num_parts}", f"{hg.num_pins} pins", *extra)
    return f"{head} — {', '.join(fields)}, chunk={chunk_size}"


def compare_streaming(
    hg: Hypergraph,
    num_parts: int,
    *,
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    buffer_fractions: "tuple[float, ...]" = (0.125, 0.5, 1.0),
    pin_budget: "int | None" = None,
    max_tracked_edges: "int | None" = None,
    max_iterations: int = 100,
    kernel: str = "auto",
    seed: int = 0,
) -> Report:
    """Run the full streamed-vs-in-memory comparison on ``hg``.

    ``buffer_fractions`` are :class:`BufferedRestreamer` window sizes as
    fractions of ``|V|`` (1.0 buffers everything — the convergence check).
    ``pin_budget`` switches the streamed contenders to pin-budgeted chunk
    boundaries.  ``kernel`` selects the pass-kernel implementation
    (docs/performance.md) for every contender.

    The buffered restreamers run twice per fraction: once scoring
    vertex-by-vertex (the historical path) and once with the chunked
    restream scorer — one block-terms matmul per ``chunk_size``
    sub-block of the window instead of a per-vertex python loop.
    """
    cfg = HyperPRAWConfig(
        max_iterations=max_iterations, record_history=False, kernel=kernel
    )
    chunked = cfg.with_(chunk_size=chunk_size)
    contenders = [
        Contender("hyperpraw (in-memory)", lambda _: HyperPRAW(cfg)),
        Contender(f"hyperpraw (chunk={chunk_size})", lambda _: HyperPRAW(chunked)),
        Contender(
            "stream-onepass",
            lambda _: OnePassStreamer(
                chunk_size=chunk_size,
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
            ),
            streamed=True,
        ),
    ]

    def buffered(head: str, window_cfg: HyperPRAWConfig, frac: float) -> Contender:
        buffer = max(1, int(round(frac * hg.num_vertices)))
        return Contender(
            f"{head} ({frac:g}|V|)",
            lambda _: BufferedRestreamer(
                window_cfg, buffer_size=buffer, max_tracked_edges=max_tracked_edges
            ),
            streamed=True,
        )

    contenders += [buffered("stream-buffered", cfg, f) for f in buffer_fractions]
    contenders += [
        buffered("stream-buffered-chunk", chunked, f) for f in buffer_fractions
    ]
    return run_contenders(
        hg,
        num_parts,
        contenders,
        title=_title("streamed vs in-memory", hg, num_parts, chunk_size),
        columns=(
            "algorithm", "pc_cost", "gap", "cut", "imbalance", "wall_s",
            "resident_pins", "tracked_edges",
        ),
        cost_matrix=cost_matrix,
        chunk_size=chunk_size,
        pin_budget=pin_budget,
        seed=seed,
    )


def compare_sharded(
    hg: Hypergraph,
    num_parts: int,
    *,
    workers: "tuple[int, ...]" = (1, 2, 4),
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    pin_budget: "int | None" = None,
    max_tracked_edges: "int | None" = None,
    max_iterations: int = 100,
    payload: str = "boundary",
    shard_by: str = "pins",
    kernel: str = "auto",
    seed: int = 0,
) -> Report:
    """Stream ``hg`` sharded at a ladder of worker counts.

    The base partitioner is a :class:`BufferedRestreamer` windowing
    :data:`SHARDED_BUFFER_FRACTION` of ``|V|``.  The ladder runs in
    ascending order, so the anchor is the fewest workers: ``cut_drift``
    is each row's relative hyperedge-cut excess over it (the acceptance
    metric for the sharded pipeline) and ``speedup`` its wall-clock
    ratio.  Each row labelled ``workers=N`` also reports the merge
    payload bytes the run shipped, what full-table shipping would have
    cost (``vs_full``) and the per-shard pin skew (``payload`` /
    ``shard_by`` select the knobs under test).
    """
    cfg = HyperPRAWConfig(
        max_iterations=max_iterations, record_history=False, kernel=kernel
    )
    buffer = max(1, int(round(SHARDED_BUFFER_FRACTION * hg.num_vertices)))

    def sharded(w: int) -> Contender:
        return Contender(
            f"workers={w}",
            lambda _: ShardedStreamer(
                BufferedRestreamer(
                    cfg, buffer_size=buffer, max_tracked_edges=max_tracked_edges
                ),
                workers=w,
                payload=payload,
                shard_by=shard_by,
            ),
            streamed=True,
        )

    return run_contenders(
        hg,
        num_parts,
        [sharded(w) for w in sorted(workers)],
        title=_title(
            "sharded streaming scaling", hg, num_parts, chunk_size,
            f"base={BufferedRestreamer.name}",
        ),
        columns=(
            "workers", "wall_s", "speedup", "pc_cost", "cut", "cut_drift",
            "imbalance", "boundary_v", "boundary_it", "payload_B", "vs_full",
            "pin_skew",
        ),
        cost_matrix=cost_matrix,
        chunk_size=chunk_size,
        pin_budget=pin_budget,
        seed=seed,
    )


@dataclass(frozen=True)
class _Polish:
    """The anchor's partition after the FM boundary polish; its row times
    the polish alone."""

    anchor: PartitionResult
    passes: int

    def partition(self, hg, num_parts, *, cost_matrix=None, seed=None):
        refined, stats = refine_partition(
            hg,
            self.anchor.assignment,
            num_parts,
            refine=RefineConfig(passes=self.passes),
        )
        return PartitionResult(
            assignment=refined,
            num_parts=num_parts,
            algorithm="hyperpraw+fm",
            metadata={**self.anchor.metadata, **stats},
        )


def compare_families(
    hg: Hypergraph,
    num_parts: int,
    *,
    cost_matrix: "np.ndarray | None" = None,
    chunk_size: int = 512,
    max_tracked_edges: "int | None" = None,
    max_iterations: int = 20,
    refine_passes: int = 4,
    kernel: str = "auto",
    seed: int = 0,
) -> Report:
    """Run the family head-to-head on ``hg``.

    Contenders: ``hyperpraw`` (the in-memory anchor); ``hyperpraw+fm``,
    the anchor polished by ``refine_passes`` rounds of FM-style boundary
    refinement (its cut must not exceed the anchor's); and, streamed from
    the file, ``stream-onepass``, ``hype`` (HYPE-style expansion — in
    memory by nature, so it reports the full pin count), ``minmax``, the
    similarity-ordered ``minmax-buffered``, and ``hype-w2`` and
    ``minmax-w2``, which shard HYPE and min-max over two workers.
    """
    cfg = HyperPRAWConfig(
        max_iterations=max_iterations, record_history=False, kernel=kernel
    )

    def family(label: str, cls, **knobs) -> Contender:
        return Contender(
            label,
            lambda _: cls(
                chunk_size=chunk_size,
                max_tracked_edges=max_tracked_edges,
                kernel=kernel,
                **knobs,
            ),
            streamed=True,
        )

    contenders = [
        Contender("hyperpraw", lambda _: HyperPRAW(cfg)),
        Contender("hyperpraw+fm", lambda anchor: _Polish(anchor, refine_passes)),
        family("stream-onepass", OnePassStreamer),
        family("hype", NeighborhoodExpansion),
        family("minmax", MinMaxStreamer),
        family(
            "minmax-buffered",
            MinMaxStreamer,
            buffer_size=max(1, hg.num_vertices // 4),
        ),
        family("hype-w2", NeighborhoodExpansion, workers=2),
        family("minmax-w2", MinMaxStreamer, workers=2),
    ]
    return run_contenders(
        hg,
        num_parts,
        contenders,
        title=_title("partitioner families", hg, num_parts, chunk_size),
        columns=(
            "algorithm", "cut", "pc_cost", "imbalance", "wall_s",
            "resident_pins", "tracked_edges",
        ),
        cost_matrix=cost_matrix,
        chunk_size=chunk_size,
        seed=seed,
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

    The readers use the contenders' ingest buffer, so the ingest figures
    reflect the out-of-core configuration.
    """
    from repro.streaming.chunkstore import open_store

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

    kwargs = dict(chunk_size=chunk_size, buffer_pins=_buffer_pins(chunk_size))
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
