"""Out-of-core chunked hypergraph ingestion.

The in-memory readers of :mod:`repro.hypergraph.io` materialise the full
pin structure before any partitioner runs, which caps the instance size at
available RAM.  This module reads the same formats **without ever holding
the whole pin array in memory**:

1. **Ingest** (one pass over the source file): the text is cut into
   blocks of whole lines, ``2 * buffer_pins`` characters at most (a pin
   takes at least two, a digit and a separator), by the one tokenizer of
   :mod:`repro.hypergraph.io` (:func:`~repro.hypergraph.io.token_blocks`).
   Each block is validated with array checks that report the earliest
   bad line, and its pins go to a bounded in-memory buffer that buckets
   them by destination vertex chunk (``v // chunk_size``) and spills to
   per-chunk temporary files on disk.  Peak resident pins during ingest
   is the buffer size, independent of the file size.
2. **Iteration**: chunks are loaded one at a time from their spill files
   and yielded as :class:`~repro.engine.blocks.VertexBlock` CSR slices
   (vertex -> incident hyperedge ids, exactly the direction the
   streaming partitioners consume).  A stream is re-iterable —
   restreaming passes re-read the spill files rather than caching
   chunks.

Per-vertex and per-hyperedge *scalar* metadata (weights, the drop-empty
renumbering map) is O(|V| + |E|) and is kept in memory: the assignment
vector itself is already O(|V|), so the memory bound this module
guarantees is on the O(pins) incidence structure, which dominates real
instances (the paper's Table 1 instances have 4–400 pins per vertex).

:func:`assemble` concatenates a stream back into an in-memory
:class:`~repro.hypergraph.model.Hypergraph`; equivalence tests use it to
check that chunked and whole-file reads agree bit for bit.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.engine.blocks import VertexBlock, concat_blocks
from repro.hypergraph.io import (
    HypergraphFormatError,
    parse_numbers,
    raise_first_failure,
    text_source,
    token_blocks,
)
from repro.hypergraph.model import Hypergraph

__all__ = [
    "ChunkStream",
    "HmetisChunkStream",
    "MatrixMarketChunkStream",
    "HypergraphChunkStream",
    "stream_hmetis",
    "stream_matrix_market",
    "assemble",
    "DEFAULT_CHUNK_SIZE",
]

#: Default vertices per chunk — large enough to amortise NumPy call
#: overhead in the partitioners, small enough that a chunk's pins are a
#: tiny fraction of any interesting instance.
DEFAULT_CHUNK_SIZE = 1024

#: Default ingest buffer, in pins (16 bytes each).
DEFAULT_BUFFER_PINS = 1 << 16

#: Storage sub-buckets per chunk when a pin budget is active: spill
#: bucketing happens during the one ingest pass, before per-vertex pin
#: counts are known, so pins are bucketed at a finer vertex granularity
#: and the buckets are regrouped into budget-respecting chunks afterwards.
_PIN_BUDGET_SUBDIVISION = 16


def _pin_budget_groups(
    unit_pins, unit_sizes, pin_budget: int, max_vertices: int
) -> "tuple[np.ndarray, list[tuple[int, int]]]":
    """Greedily group consecutive units into pin-budgeted chunks.

    Each chunk takes at least one unit and extends while its pins stay
    within ``pin_budget`` *and* its vertices within ``max_vertices`` —
    so a single unit over budget (an irreducible hub) becomes a chunk of
    its own rather than an error.  Returns the vertex-index chunk
    boundaries and the ``(unit_lo, unit_hi)`` range of each chunk.
    """
    if pin_budget < 1:
        raise ValueError(f"pin_budget must be >= 1, got {pin_budget}")
    starts = [0]
    ranges: "list[tuple[int, int]]" = []
    n = len(unit_pins)
    u = 0
    vpos = 0
    while u < n:
        lo = u
        pins = int(unit_pins[u])
        verts = int(unit_sizes[u])
        u += 1
        while (
            u < n
            and pins + unit_pins[u] <= pin_budget
            and verts + unit_sizes[u] <= max_vertices
        ):
            pins += int(unit_pins[u])
            verts += int(unit_sizes[u])
            u += 1
        vpos += verts
        starts.append(vpos)
        ranges.append((lo, u))
    return np.asarray(starts, dtype=np.int64), ranges


# ----------------------------------------------------------------------
# spill store
# ----------------------------------------------------------------------
class _SpillStore:
    """Buckets (vertex, edge) pin pairs into per-chunk spill files.

    Pins pass through a fixed in-memory buffer; whenever it fills, pairs
    are sorted by destination chunk and appended to each chunk's binary
    file in one write per touched chunk.  ``peak_buffered_pins`` records
    the buffer high-water mark for the memory-bound assertions in tests.
    """

    def __init__(self, num_chunks: int, chunk_size: int, buffer_pins: int) -> None:
        self._chunk_size = chunk_size
        self._dir = Path(tempfile.mkdtemp(prefix="repro-stream-"))
        self._paths = [self._dir / f"chunk-{c:06d}.bin" for c in range(num_chunks)]
        self._buf = np.empty((max(1, buffer_pins), 2), dtype=np.int64)
        self._fill = 0
        self.peak_buffered_pins = 0
        #: spilled (raw, pre-dedup) pins per bucket — drives pin-budget
        #: chunk grouping after ingest.
        self.pins_per_chunk = np.zeros(num_chunks, dtype=np.int64)
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self._dir), ignore_errors=True
        )

    @property
    def num_buckets(self) -> int:
        return len(self._paths)

    def add(self, vertices: np.ndarray, edges: np.ndarray) -> None:
        """Append (vertex, edge) pin pairs, flushing as the buffer fills."""
        pos, n = 0, vertices.size
        cap = self._buf.shape[0]
        while pos < n:
            take = min(cap - self._fill, n - pos)
            self._buf[self._fill : self._fill + take, 0] = vertices[pos : pos + take]
            self._buf[self._fill : self._fill + take, 1] = edges[pos : pos + take]
            self._fill += take
            pos += take
            self.peak_buffered_pins = max(self.peak_buffered_pins, self._fill)
            if self._fill == cap:
                self.flush()

    def flush(self) -> None:
        if self._fill == 0:
            return
        pairs = self._buf[: self._fill]
        chunk_ids = pairs[:, 0] // self._chunk_size
        self.pins_per_chunk += np.bincount(
            chunk_ids, minlength=self.pins_per_chunk.size
        )
        order = np.argsort(chunk_ids, kind="stable")
        pairs = pairs[order]
        chunk_ids = chunk_ids[order]
        # One append per touched chunk: split at run boundaries.
        boundaries = np.flatnonzero(chunk_ids[1:] != chunk_ids[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [pairs.shape[0]]))
        for lo, hi in zip(starts, stops):
            with open(self._paths[int(chunk_ids[lo])], "ab") as fh:
                fh.write(pairs[lo:hi].tobytes())
        self._fill = 0

    def load(self, chunk: int) -> "tuple[np.ndarray, np.ndarray]":
        path = self._paths[chunk]
        if not path.exists():
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        raw = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
        return raw[:, 0], raw[:, 1]

    def cleanup(self) -> None:
        self._finalizer()


def _unique_pairs(
    major: np.ndarray, minor: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Sort ``(major, minor)`` pairs and drop repeated pairs."""
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    if major.size:
        keep = np.empty(major.size, dtype=bool)
        keep[0] = True
        keep[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
        major, minor = major[keep], minor[keep]
    return major, minor


def _chunk_from_pairs(
    start: int,
    stop: int,
    vertices: np.ndarray,
    edges: np.ndarray,
    weights: np.ndarray,
) -> VertexBlock:
    """Assemble the block ``[start, stop)`` from unordered (vertex, edge) pairs."""
    # Per-edge duplicate pins collapse, mirroring the Hypergraph model.
    vertices, edges = _unique_pairs(vertices, edges)
    counts = np.bincount(vertices - start, minlength=stop - start)
    ptr = np.zeros(stop - start + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return VertexBlock(
        ids=np.arange(start, stop, dtype=np.int64),
        vertex_ptr=ptr,
        vertex_edges=edges,
        vertex_weights=np.asarray(weights, dtype=np.float64),
    )


# ----------------------------------------------------------------------
# stream base
# ----------------------------------------------------------------------
class ChunkStream:
    """Chunk blocks (:class:`~repro.engine.blocks.VertexBlock`, one per
    chunk) plus global stream metadata.

    Subclasses set ``name``, ``num_vertices``, ``num_edges``, ``num_pins``,
    ``chunk_size``, ``edge_weights`` and ``total_vertex_weight`` during
    construction (the header of both supported formats declares the counts
    up front; the single ingest pass fills in the rest before the first
    chunk is yielded).  Streams are re-iterable: every ``iter()`` replays
    the chunks in vertex order, which is what gives the buffered
    restreamer its extra passes without any in-memory caching.
    """

    name: str = "stream"
    num_vertices: int = 0
    num_edges: int = 0
    num_pins: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    edge_weights: np.ndarray
    vertex_weights: np.ndarray
    total_vertex_weight: float = 0.0
    #: High-water mark of pins resident in memory at once (ingest buffer
    #: or a loaded chunk) — the quantity the out-of-core bound is about.
    peak_resident_pins: int = 0
    #: Optional pin budget per chunk; when set, chunk boundaries are cut
    #: by resident pins rather than a fixed vertex count.
    pin_budget: "int | None" = None
    #: Global per-hyperedge pin counts (deduplicated), ``None`` when the
    #: source cannot provide them cheaply.  O(|E|) scalar metadata like
    #: ``edge_weights`` — within the documented memory bound.  The
    #: sharded streamer uses them for *local* boundary detection: a net
    #: whose locally observed pins fall short of its global degree must
    #: have pins in another shard.
    edge_degrees: "np.ndarray | None" = None
    #: Explicit chunk boundaries (vertex indices, length num_chunks + 1)
    #: when chunking is non-uniform (pin-budgeted); ``None`` = uniform
    #: ``chunk_size`` arithmetic.
    _chunk_starts: "np.ndarray | None" = None
    #: The text file this stream was ingested from, when there is one —
    #: :meth:`save` records its digest so store replays can validate
    #: cache freshness.
    source_path: "Path | None" = None

    @property
    def num_chunks(self) -> int:
        """Number of chunks one full iteration yields."""
        if self._chunk_starts is not None:
            return len(self._chunk_starts) - 1
        return -(-self.num_vertices // self.chunk_size)

    def chunk_bounds(self, c: int) -> "tuple[int, int]":
        """Global vertex range ``[start, stop)`` covered by chunk ``c``."""
        if self._chunk_starts is not None:
            return int(self._chunk_starts[c]), int(self._chunk_starts[c + 1])
        start = c * self.chunk_size
        return start, min(start + self.chunk_size, self.num_vertices)

    def chunk_starts(self) -> np.ndarray:
        """All chunk boundaries as one array (length ``num_chunks + 1``)."""
        if self._chunk_starts is not None:
            return self._chunk_starts
        return np.minimum(
            np.arange(self.num_chunks + 1, dtype=np.int64) * self.chunk_size,
            self.num_vertices,
        )

    def chunk_pins(self) -> "np.ndarray | None":
        """Per-chunk pin counts (length ``num_chunks``), ``None`` if unknown.

        Pin-balanced sharding (:func:`repro.engine.blocks.
        shard_ranges_by_pins`) uses these to cut shard boundaries by
        cumulative pins instead of chunk count, so hub-heavy prefixes no
        longer straggle.
        """
        return None

    def compute_edge_degrees(self) -> np.ndarray:
        """Per-edge global pin counts, counted with one extra pass.

        Fallback for streams that did not record :attr:`edge_degrees` at
        ingest (e.g. a chunk store written before the field existed);
        the result is cached on the stream.
        """
        if self.edge_degrees is None:
            degrees = np.zeros(self.num_edges, dtype=np.int64)
            for chunk in self:
                if chunk.vertex_edges.size:
                    degrees += np.bincount(
                        chunk.vertex_edges, minlength=self.num_edges
                    )
            self.edge_degrees = degrees
        return self.edge_degrees

    def iter_range(self, lo: int, hi: int) -> Iterator[VertexBlock]:
        """Yield chunks ``lo <= c < hi`` only (sharded streaming)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[VertexBlock]:
        return self.iter_range(0, self.num_chunks)

    def save(self, path: "str | Path") -> Path:
        """Materialise this stream as a persistent binary chunk store.

        One extra pass over the chunks writes the store described in
        ``docs/formats.md`` — raw little-endian CSR arrays plus a JSON
        manifest — so later invocations replay it with
        :func:`~repro.streaming.chunkstore.open_store` (memory-mapped,
        zero-copy) instead of re-ingesting text into temp spill files.

        Parameters
        ----------
        path:
            store directory, created if needed; overwritten if it
            already holds a store.

        Returns
        -------
        pathlib.Path
            the store directory.
        """
        from repro.streaming.chunkstore import write_store

        # A replayed store stream has a recorded digest but no source
        # file; pass it through so re-saving never downgrades to null.
        return write_store(
            self,
            path,
            source_path=self.source_path,
            digest=getattr(self, "source_digest", None),
        )

    def close(self) -> None:
        """Release any temporary spill files (idempotent)."""

    def __enter__(self) -> "ChunkStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _note_resident(self, pins: int) -> None:
        self.peak_resident_pins = max(self.peak_resident_pins, pins)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, pins={self.num_pins}, "
            f"chunks={self.num_chunks}x{self.chunk_size})"
        )


class _SpilledChunkStream(ChunkStream):
    """Shared machinery for file-backed streams: spill store + iteration.

    With a ``pin_budget``, pins are spilled into storage buckets
    ``_PIN_BUDGET_SUBDIVISION`` times finer than ``chunk_size`` (bucketing
    happens during the single ingest pass, before pin counts are known);
    after ingest the buckets are regrouped into emitted chunks holding at
    most ``pin_budget`` pins each (and at most ``chunk_size`` vertices),
    so hub-dominated vertex ranges yield many small chunks instead of one
    pin-heavy one.  A single bucket over budget — an irreducible hub
    vertex's neighbourhood — is emitted alone, best effort.

    The constructor runs the subclass's one ingest pass, ``_ingest(label,
    texts)``, over ``source`` as runs of whole lines.

    ``source`` is a path, an open file, ``bytes`` or an iterable of byte
    blocks (an HTTP request body: the upload never materialises), see
    :func:`~repro.hypergraph.io.text_source`; ``chunk_size`` is vertices
    per chunk, ``buffer_pins`` the spill buffer's capacity (the
    resident-memory knob), ``pin_budget`` cuts chunks by pins instead,
    and ``name`` defaults to the file stem or ``"stream"``.
    """

    def __init__(
        self,
        source: "str | Path | object",
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        buffer_pins: int = DEFAULT_BUFFER_PINS,
        pin_budget: "int | None" = None,
        name: "str | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if buffer_pins < 1:
            raise ValueError(f"buffer_pins must be >= 1, got {buffer_pins}")
        if pin_budget is not None and pin_budget < 1:
            raise ValueError(f"pin_budget must be >= 1 or None, got {pin_budget}")
        self.chunk_size = int(chunk_size)
        self.pin_budget = pin_budget
        self._storage_size = (
            self.chunk_size
            if pin_budget is None
            else max(1, self.chunk_size // _PIN_BUDGET_SUBDIVISION)
        )
        self._buffer_pins = int(buffer_pins)
        self._spill: "_SpillStore | None" = None
        self._edge_remap: "np.ndarray | None" = None
        self._chunk_buckets: "list[tuple[int, int]] | None" = None
        self.vertex_weights = np.empty(0)
        # A text block of 2 * buffer_pins characters holds at most
        # buffer_pins pins (a digit and a separator each).
        label = f"<{name}>" if name else None
        with text_source(
            source, label=label, block_chars=2 * self._buffer_pins
        ) as (texts, label, source_path):
            self.name = name or (source_path.stem if source_path else "stream")
            self.source_path = source_path
            # A parser error mid-stream must not leak the spill directory:
            # close (idempotent) before re-raising.
            try:
                self._ingest(label, texts)
            except BaseException:
                self.close()
                raise

    def _make_spill(self, num_vertices: int) -> _SpillStore:
        num_buckets = max(1, -(-num_vertices // self._storage_size))
        self._spill = _SpillStore(num_buckets, self._storage_size, self._buffer_pins)
        return self._spill

    def _finalise_chunks(self) -> None:
        """Regroup storage buckets into pin-budgeted chunks (post-ingest)."""
        if self.pin_budget is None:
            return
        spill = self._spill
        sizes = [
            min(self._storage_size, self.num_vertices - b * self._storage_size)
            for b in range(spill.num_buckets)
        ]
        self._chunk_starts, self._chunk_buckets = _pin_budget_groups(
            spill.pins_per_chunk, sizes, self.pin_budget, self.chunk_size
        )

    def chunk_pins(self) -> "np.ndarray | None":
        """Per-chunk spilled pin counts (exact once ingest deduplicated)."""
        if self._spill is None:
            return None
        per_bucket = self._spill.pins_per_chunk
        if self._chunk_buckets is None:
            return per_bucket.copy()
        return np.asarray(
            [int(per_bucket[lo:hi].sum()) for lo, hi in self._chunk_buckets],
            dtype=np.int64,
        )

    def iter_range(self, lo: int, hi: int) -> Iterator[VertexBlock]:
        if self._spill is None:
            raise RuntimeError("stream is closed")
        self._note_resident(self._spill.peak_buffered_pins)
        for c in range(lo, hi):
            start, stop = self.chunk_bounds(c)
            if self._chunk_buckets is None:
                vertices, edges = self._spill.load(c)
            else:
                b_lo, b_hi = self._chunk_buckets[c]
                loaded = [self._spill.load(b) for b in range(b_lo, b_hi)]
                vertices = np.concatenate([v for v, _ in loaded])
                edges = np.concatenate([e for _, e in loaded])
            if self._edge_remap is not None:
                edges = self._edge_remap[edges]
            chunk = _chunk_from_pairs(
                start, stop, vertices, edges, self.vertex_weights[start:stop]
            )
            self._note_resident(chunk.num_pins)
            yield chunk

    def close(self) -> None:
        if self._spill is not None:
            self._spill.cleanup()
            self._spill = None


# ----------------------------------------------------------------------
# hMetis
# ----------------------------------------------------------------------
class HmetisChunkStream(_SpilledChunkStream):
    """One-pass chunked reader for the hMetis format.

    The one hMetis parser (:func:`repro.hypergraph.io.read_hmetis` is
    :func:`assemble` over it): the source is tokenized in blocks of whole
    lines, each block's pins go to the spill store in one call, and
    malformed input raises :class:`HypergraphFormatError` naming the
    first bad line.  :func:`stream_hmetis` is this class; its parameters
    are :class:`_SpilledChunkStream`'s, and ``.save(path)`` persists the
    stream as a binary chunk store.
    """

    def _ingest(self, path: str, texts) -> None:
        blocks = token_blocks(texts)
        block = next(filter(len, blocks), None)
        if block is None:
            raise HypergraphFormatError(f"{path}: empty file")
        lineno, header = int(block.lines[0]), block.tokens[: block.counts[0]].tolist()
        if len(header) not in (2, 3):
            raise HypergraphFormatError(
                f"{path}:{lineno}: header must be '|E| |V| [fmt]', got {' '.join(header)!r}"
            )
        try:
            num_edges, num_vertices = int(header[0]), int(header[1])
            fmt = int(header[2]) if len(header) == 3 else 0
        except ValueError as exc:
            raise HypergraphFormatError(f"{path}:{lineno}: non-integer header") from exc
        if fmt not in (0, 1, 10, 11):
            raise HypergraphFormatError(f"{path}:{lineno}: unknown fmt {fmt}")
        if num_edges < 0:
            raise HypergraphFormatError(
                f"{path}:{lineno}: num_edges must be >= 0, got {num_edges}"
            )
        if num_vertices < 1:
            raise HypergraphFormatError(
                f"{path}:{lineno}: num_vertices must be >= 1, got {num_vertices}"
            )
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.edge_weights = np.ones(num_edges, dtype=np.float64)
        self.edge_degrees = np.zeros(num_edges, dtype=np.int64)
        self.vertex_weights = np.ones(num_vertices, dtype=np.float64)
        spill = self._make_spill(num_vertices)

        # Data lines after the header: num_edges hyperedge lines, then
        # (fmt 10/11) num_vertices vertex-weight lines; the rest is ignored.
        edges_seen = 0
        weights_seen = 0
        body_lines = 0
        for block in chain([block.slice(1, len(block))], blocks):
            n = len(block)
            body_lines += n
            ne = min(n, num_edges - edges_seen)
            if ne:
                self._add_edges(path, block.slice(0, ne), edges_seen, fmt in (1, 11))
                edges_seen += ne
            nw = min(n - ne, num_vertices - weights_seen) if fmt in (10, 11) else 0
            if nw:
                lines = block.slice(ne, ne + nw)
                weights, bad = parse_numbers(lines.tokens[lines.starts[:-1]], np.float64)
                raise_first_failure(path, lines, [(bad, "bad vertex weight")])
                self.vertex_weights[weights_seen : weights_seen + nw] = weights
                weights_seen += nw
            del block  # one parsed block resident at a time

        if edges_seen < num_edges:
            raise HypergraphFormatError(
                f"{path}: expected {num_edges} hyperedge lines, found {body_lines}"
            )
        if fmt in (10, 11) and weights_seen < num_vertices:
            raise HypergraphFormatError(
                f"{path}: expected {num_vertices} vertex-weight lines, "
                f"found {weights_seen}"
            )
        for label, weights in (
            ("edge_weights", self.edge_weights),
            ("vertex_weights", self.vertex_weights),
        ):
            if not (np.isfinite(weights) & (weights > 0)).all():
                raise HypergraphFormatError(
                    f"{path}: {label} must be finite and strictly positive"
                )
        spill.flush()
        self._finalise_chunks()
        self.total_vertex_weight = float(self.vertex_weights.sum())
        self._note_resident(spill.peak_buffered_pins)

    def _add_edges(self, path: str, lines, first_edge: int, weighted: bool) -> None:
        """Validate a block of hyperedge lines and spill their pins.

        Pins are 1-based; the leading weight (fmt 1/11) may be fractional,
        since :func:`~repro.hypergraph.io.write_hmetis` writes non-integral
        weights as floats.  Each net's pins are spilled sorted and without
        repeats.
        """
        n = len(lines)
        heads = lines.starts[:-1]
        owners = lines.owners()
        checks = []
        if weighted:
            weights, bad = parse_numbers(lines.tokens[heads], np.float64)
            checks += [
                (lines.counts < 2, "weighted hyperedge needs weight + >=1 pin"),
                (bad, lambda i: f"bad hyperedge weight {lines.tokens[heads[i]]!r}"),
            ]
            is_pin = np.ones(owners.size, dtype=bool)
            is_pin[heads] = False
            owners = owners[is_pin]
            pins, bad = parse_numbers(lines.tokens[is_pin], np.int64)
        else:
            pins, bad = parse_numbers(lines.tokens, np.int64)
        outside = (pins < 1) | (pins > self.num_vertices)
        raise_first_failure(path, lines, checks + [
            (lines.any_by_line(bad, owners), "non-integer token in hyperedge line"),
            (lines.any_by_line(outside, owners), f"pin outside 1..{self.num_vertices}"),
        ])
        pins -= 1
        if ((owners[1:] == owners[:-1]) & (pins[1:] <= pins[:-1])).any():
            owners, pins = _unique_pairs(owners, pins)
        self._spill.add(pins, owners + first_edge)
        if weighted:
            self.edge_weights[first_edge : first_edge + n] = weights
        self.edge_degrees[first_edge : first_edge + n] = np.bincount(owners, minlength=n)
        self.num_pins += pins.size


# ----------------------------------------------------------------------
# MatrixMarket
# ----------------------------------------------------------------------
_MM_FIELDS = ("real", "integer", "complex", "pattern")
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


class MatrixMarketChunkStream(_SpilledChunkStream):
    """One-pass chunked reader for MatrixMarket coordinate files.

    Interprets the matrix under the row-net / column-net model exactly as
    :func:`repro.hypergraph.io.read_matrix_market` (which goes through
    ``scipy.io.mmread``): symmetric/skew/hermitian storage is expanded to
    both triangles, explicit values are irrelevant (any stored entry is a
    pin) and all-zero nets are dropped with renumbering.  Dense ``array``
    files are rejected — streaming them would make every column a full
    net, defeating the point of out-of-core ingestion.
    :func:`stream_matrix_market` is this class: ``model`` is
    ``"row-net"`` (columns are vertices, rows are nets, the default) or
    ``"column-net"``, and the other parameters are
    :class:`_SpilledChunkStream`'s.
    """

    def __init__(self, source, *, model: str = "row-net", **kwargs) -> None:
        if model not in ("row-net", "column-net"):
            raise ValueError(
                f"model must be 'row-net' or 'column-net', got {model!r}"
            )
        self.model = model
        super().__init__(source, **kwargs)

    def _ingest(self, path: str, texts) -> None:
        # Runs hold whole lines, so the first holds the whole banner.
        texts = iter(texts)
        banner, _, rest = next(texts, "").partition("\n")
        tokens = banner.split()
        if not tokens or not tokens[0].lower().startswith("%%matrixmarket"):
            raise HypergraphFormatError(
                f"{path}:1: not a MatrixMarket file (missing %%MatrixMarket banner)"
            )
        fields = [t.lower() for t in tokens[1:]]
        if len(fields) < 4 or fields[0] != "matrix":
            raise HypergraphFormatError(
                f"{path}:1: banner must be "
                f"'%%MatrixMarket matrix <format> <field> <symmetry>'"
            )
        mm_format, mm_field, mm_symmetry = fields[1], fields[2], fields[3]
        if mm_format != "coordinate":
            raise HypergraphFormatError(
                f"{path}:1: only 'coordinate' format is streamable, got {mm_format!r}"
            )
        if mm_field not in _MM_FIELDS:
            raise HypergraphFormatError(f"{path}:1: unknown field {mm_field!r}")
        if mm_symmetry not in _MM_SYMMETRIES:
            raise HypergraphFormatError(
                f"{path}:1: unknown symmetry {mm_symmetry!r}"
            )
        symmetric = mm_symmetry != "general"

        blocks = token_blocks(chain([rest], texts), first_line=2)
        block = next(filter(len, blocks), None)
        if block is None:
            raise HypergraphFormatError(f"{path}: missing size line")
        lineno, tokens = int(block.lines[0]), block.tokens[: block.counts[0]].tolist()
        if len(tokens) != 3:
            raise HypergraphFormatError(
                f"{path}:{lineno}: size line must be 'rows cols nnz'"
            )
        try:
            num_rows, num_cols, nnz = (int(t) for t in tokens)
        except ValueError as exc:
            raise HypergraphFormatError(
                f"{path}:{lineno}: non-integer size line"
            ) from exc
        if min(num_rows, num_cols, nnz) < 0:
            raise HypergraphFormatError(
                f"{path}:{lineno}: negative count in size line"
            )
        if symmetric and num_rows != num_cols:
            raise HypergraphFormatError(
                f"{path}:{lineno}: {mm_symmetry} matrix must be square, "
                f"got {num_rows} x {num_cols}"
            )

        # Row-net: columns are vertices, rows are nets; column-net flips.
        row_net = self.model == "row-net"
        self.num_vertices = num_cols if row_net else num_rows
        raw_edges = num_rows if row_net else num_cols
        if self.num_vertices < 1:
            raise HypergraphFormatError(
                f"{path}: matrix has no {'columns' if row_net else 'rows'}"
            )
        spill = self._make_spill(self.num_vertices)
        self.vertex_weights = np.ones(self.num_vertices, dtype=np.float64)
        edge_seen = np.zeros(raw_edges, dtype=bool)

        entries = 0
        for block in chain([block.slice(1, len(block))], blocks):
            # Only 'row col' are read; a value column is never looked at.
            # A one-token line fails its count check before its
            # coordinates, which then come from the next token.
            n, heads = len(block), block.starts[:-1]
            seconds = np.minimum(heads + 1, block.tokens.size - 1)
            rows, bad_rows = parse_numbers(block.tokens[heads], np.int64)
            cols, bad_cols = parse_numbers(block.tokens[seconds], np.int64)
            inside = (1 <= rows) & (rows <= num_rows) & (1 <= cols) & (cols <= num_cols)
            raise_first_failure(path, block, [
                (entries + np.arange(n) >= nnz, f"more than the declared {nnz} entries"),
                (block.counts < 2, "entry needs at least 'row col'"),
                (bad_rows | bad_cols, "non-integer coordinate"),
                (~inside, lambda i: f"entry ({int(block.tokens[heads[i]])}, "
                 f"{int(block.tokens[seconds[i]])}) outside {num_rows} x {num_cols}"),
            ])
            entries += n
            v, e = (cols - 1, rows - 1) if row_net else (rows - 1, cols - 1)
            if symmetric:  # an off-diagonal entry's mirror is spilled next
                keep = np.column_stack((np.ones(n, dtype=bool), rows != cols)).ravel()
                v, e = (np.column_stack(pair).ravel()[keep] for pair in ((v, e), (e, v)))
            spill.add(v, e)
            edge_seen[e] = True
            del block  # one parsed block resident at a time
        if entries < nnz:
            raise HypergraphFormatError(
                f"{path}: expected {nnz} entries, found {entries}"
            )
        spill.flush()
        self._finalise_chunks()

        # Drop all-zero nets with renumbering, as from_sparse(drop_empty=True).
        if edge_seen.all():
            self.num_edges = raw_edges
        else:
            remap = np.cumsum(edge_seen, dtype=np.int64) - 1
            remap[~edge_seen] = -1
            self._edge_remap = remap
            self.num_edges = int(edge_seen.sum())
        self.edge_weights = np.ones(self.num_edges, dtype=np.float64)
        self.total_vertex_weight = float(self.num_vertices)
        # Coordinate files may legally repeat an entry (mmread sums them;
        # the hypergraph keeps one pin), so the running entry count
        # overstates pins.  Recount deduplicated, one spill bucket at a
        # time — still bounded memory.  The same pass yields the exact
        # per-bucket pin counts (overwriting the raw spilled tallies used
        # for pin-budget grouping) and the global per-edge degrees.
        self.num_pins = 0
        self.edge_degrees = np.zeros(self.num_edges, dtype=np.int64)
        for c in range(spill.num_buckets):
            vertices, edges = spill.load(c)
            spill.pins_per_chunk[c] = 0
            if vertices.size:
                pairs = np.unique(vertices * np.int64(raw_edges) + edges)
                uniq_edges = pairs % raw_edges
                if self._edge_remap is not None:
                    uniq_edges = self._edge_remap[uniq_edges]
                self.edge_degrees += np.bincount(
                    uniq_edges, minlength=self.num_edges
                )
                spill.pins_per_chunk[c] = pairs.size
                self.num_pins += int(pairs.size)
        self._note_resident(spill.peak_buffered_pins)


# ----------------------------------------------------------------------
# in-memory adapter
# ----------------------------------------------------------------------
class HypergraphChunkStream(ChunkStream):
    """Adapter presenting an in-memory hypergraph as a chunk stream.

    Chunks are zero-copy views of the hypergraph's CSR arrays.  This is
    how the streaming partitioners implement the standard
    ``partition(hg, ...)`` interface — the *algorithm state* stays bounded
    even though the instance happens to be resident — and it is the
    reference the disk readers are tested against.
    """

    def __init__(
        self,
        hg: Hypergraph,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        *,
        pin_budget: "int | None" = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.hg = hg
        self.name = hg.name
        self.chunk_size = int(chunk_size)
        self.pin_budget = pin_budget
        self.num_vertices = hg.num_vertices
        self.num_edges = hg.num_edges
        self.num_pins = hg.num_pins
        self.edge_weights = hg.edge_weights
        self.edge_degrees = np.diff(hg.edge_ptr)
        self.vertex_weights = hg.vertex_weights
        self.total_vertex_weight = hg.total_vertex_weight()
        self._whole = VertexBlock.of(hg)
        if pin_budget is not None:
            # Degrees are known up front in memory, so boundaries are cut
            # at vertex granularity directly.
            degs = np.diff(hg.vertex_ptr)
            self._chunk_starts, _ = _pin_budget_groups(
                degs, np.ones(hg.num_vertices, dtype=np.int64),
                pin_budget, self.chunk_size,
            )

    def chunk_pins(self) -> np.ndarray:
        """Exact per-chunk pin counts from the resident CSR pointers."""
        return np.diff(self.hg.vertex_ptr[self.chunk_starts()])

    def iter_range(self, lo: int, hi: int) -> Iterator[VertexBlock]:
        for c in range(lo, hi):
            chunk = self._whole.slice(*self.chunk_bounds(c))
            self._note_resident(chunk.num_pins)
            yield chunk


# ----------------------------------------------------------------------
# public constructors + assembly
# ----------------------------------------------------------------------
#: The public constructors of the two text streams.
stream_hmetis = HmetisChunkStream
stream_matrix_market = MatrixMarketChunkStream


def assemble(stream: ChunkStream) -> Hypergraph:
    """Materialise a chunk stream into an in-memory hypergraph.

    Deliberately O(pins) in memory — it exists so tests can assert that
    chunked reads concatenate to exactly what the whole-file readers
    produce, and for families that need random access (HYPE's fringe
    serves chunk streams through it).
    """
    whole = concat_blocks(list(stream))
    vptr, vedges = whole.vertex_ptr, whole.vertex_edges
    if vptr.size - 1 != stream.num_vertices:
        raise ValueError(
            f"stream yielded {vptr.size - 1} vertices, header declared "
            f"{stream.num_vertices}"
        )
    # Invert vertex->edges into the edge->pins CSR the model stores.
    owners = np.repeat(
        np.arange(stream.num_vertices, dtype=np.int64), np.diff(vptr)
    )
    order = np.argsort(vedges, kind="stable")
    pins = owners[order]
    counts = np.bincount(vedges, minlength=stream.num_edges)
    eptr = np.zeros(stream.num_edges + 1, dtype=np.int64)
    np.cumsum(counts, out=eptr[1:])
    return Hypergraph.from_csr_arrays(
        stream.num_vertices,
        eptr,
        pins,
        vertex_weights=whole.vertex_weights,
        edge_weights=stream.edge_weights,
        name=stream.name,
    )
