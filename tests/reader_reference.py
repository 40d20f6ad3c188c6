"""Frozen per-line text readers: the reference for the block tokenizer.

A copy of the hMetis, MatrixMarket and PaToH readers as they were before
the readers parsed whole-line blocks: one line at a time through
``io.TextIOWrapper``, one ``np.unique`` and one spill ``add`` per net,
one ``add`` per MatrixMarket entry.  ``tests/test_reader_differential.py``
asserts that the block readers produce the same chunks, metadata,
memory high-water marks and error messages.  Do not edit this module to
follow the live readers; it is the behaviour they are held to.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.hypergraph.io import HypergraphFormatError
from repro.hypergraph.model import Hypergraph
from repro.streaming.reader import (
    DEFAULT_BUFFER_PINS,
    DEFAULT_CHUNK_SIZE,
    _PIN_BUDGET_SUBDIVISION,
    _SpilledChunkStream,
)


def _data_lines(text):
    lines = text.splitlines() if isinstance(text, str) else text
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        yield lineno, line.split()


class HmetisHeader:
    __slots__ = ("num_edges", "num_vertices", "fmt", "has_edge_weights", "has_vertex_weights")

    def __init__(self, num_edges, num_vertices, fmt):
        self.num_edges = num_edges
        self.num_vertices = num_vertices
        self.fmt = fmt
        self.has_edge_weights = fmt in (1, 11)
        self.has_vertex_weights = fmt in (10, 11)


def parse_hmetis_header(path, lineno, header):
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
    return HmetisHeader(num_edges, num_vertices, fmt)


def parse_hmetis_edge_line(path, lineno, tokens, header):
    weight = 1.0
    pin_tokens = tokens
    if header.has_edge_weights:
        if len(tokens) < 2:
            raise HypergraphFormatError(
                f"{path}:{lineno}: weighted hyperedge needs weight + >=1 pin"
            )
        try:
            weight = float(tokens[0])
        except ValueError as exc:
            raise HypergraphFormatError(
                f"{path}:{lineno}: bad hyperedge weight {tokens[0]!r}"
            ) from exc
        pin_tokens = tokens[1:]
    try:
        values = [int(t) for t in pin_tokens]
    except ValueError as exc:
        raise HypergraphFormatError(
            f"{path}:{lineno}: non-integer token in hyperedge line"
        ) from exc
    if not values:
        raise HypergraphFormatError(f"{path}:{lineno}: empty hyperedge")
    if min(values) < 1 or max(values) > header.num_vertices:
        raise HypergraphFormatError(
            f"{path}:{lineno}: pin outside 1..{header.num_vertices}"
        )
    return weight, [v - 1 for v in values]


def parse_hmetis_vertex_weight(path, lineno, tokens):
    try:
        return float(tokens[0])
    except (ValueError, IndexError) as exc:
        raise HypergraphFormatError(f"{path}:{lineno}: bad vertex weight") from exc


def read_patoh(path, *, name=None):
    path = Path(path)
    lines = list(_data_lines(path.read_text()))
    if not lines:
        raise HypergraphFormatError(f"{path}: empty file")
    lineno, header = lines[0]
    if len(header) not in (4, 5):
        raise HypergraphFormatError(
            f"{path}:{lineno}: header must be 'base |V| |E| pins [fmt]'"
        )
    base, num_vertices, num_edges, num_pins = (int(x) for x in header[:4])
    fmt = int(header[4]) if len(header) == 5 else 0
    if base not in (0, 1):
        raise HypergraphFormatError(f"{path}:{lineno}: base must be 0 or 1")
    body = lines[1:]
    if len(body) < num_edges:
        raise HypergraphFormatError(
            f"{path}: expected {num_edges} net lines, found {len(body)}"
        )
    has_net_w = fmt in (2, 3)
    edges = []
    edge_weights = np.ones(num_edges, dtype=np.float64)
    total_pins = 0
    for e in range(num_edges):
        lineno, tokens = body[e]
        values = [int(t) for t in tokens]
        if has_net_w:
            edge_weights[e] = values[0]
            values = values[1:]
        pins = [v - base for v in values]
        if not pins:
            raise HypergraphFormatError(f"{path}:{lineno}: empty net")
        if min(pins) < 0 or max(pins) >= num_vertices:
            raise HypergraphFormatError(
                f"{path}:{lineno}: pin outside range for base {base}"
            )
        total_pins += len(pins)
        edges.append(pins)
    if total_pins != num_pins:
        raise HypergraphFormatError(
            f"{path}: header claims {num_pins} pins, nets contain {total_pins}"
        )
    vertex_weights = None
    if fmt in (1, 3):
        wtokens = []
        for lineno, tokens in body[num_edges:]:
            wtokens.extend(tokens)
        if len(wtokens) < num_vertices:
            raise HypergraphFormatError(
                f"{path}: expected {num_vertices} cell weights, found {len(wtokens)}"
            )
        vertex_weights = np.asarray([float(t) for t in wtokens[:num_vertices]])
    return Hypergraph(
        num_vertices,
        edges,
        vertex_weights=vertex_weights,
        edge_weights=edge_weights if has_net_w else None,
        name=name or path.stem,
    )


class _ByteBlockReader(io.RawIOBase):
    def __init__(self, blocks):
        self._blocks = blocks
        self._pending = memoryview(b"")

    def readable(self):
        return True

    def readinto(self, buf):
        while not self._pending:
            try:
                block = next(self._blocks)
            except StopIteration:
                return 0
            self._pending = memoryview(bytes(block))
        n = min(len(buf), len(self._pending))
        buf[:n] = self._pending[:n]
        self._pending = self._pending[n:]
        return n


def _open_text_source(source, *, label=None):
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        return open(path, "r", encoding="utf-8"), str(path), path, True
    if isinstance(source, io.TextIOBase):
        return source, label or "<stream>", None, False
    if isinstance(source, (bytes, bytearray, memoryview)):
        blocks: Iterator[bytes] = iter((bytes(source),))
    elif hasattr(source, "read"):
        blocks = iter(lambda: source.read(1 << 16), b"")
    elif hasattr(source, "__iter__"):
        blocks = iter(source)
    else:
        raise TypeError(
            "source must be a path, an open file, bytes, or an iterable "
            f"of bytes blocks, got {type(source).__name__}"
        )
    fh = io.TextIOWrapper(
        io.BufferedReader(_ByteBlockReader(blocks)), encoding="utf-8"
    )
    return fh, label or "<stream>", None, True


class _SpillStore:
    def __init__(self, num_chunks, chunk_size, buffer_pins):
        self._chunk_size = chunk_size
        self._dir = Path(tempfile.mkdtemp(prefix="repro-stream-"))
        self._paths = [self._dir / f"chunk-{c:06d}.bin" for c in range(num_chunks)]
        self._buf = np.empty((max(1, buffer_pins), 2), dtype=np.int64)
        self._fill = 0
        self.peak_buffered_pins = 0
        self.pins_per_chunk = np.zeros(num_chunks, dtype=np.int64)
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self._dir), ignore_errors=True
        )

    @property
    def num_buckets(self):
        return len(self._paths)

    def add(self, vertices, edge_id):
        pos, n = 0, vertices.size
        cap = self._buf.shape[0]
        while pos < n:
            take = min(cap - self._fill, n - pos)
            self._buf[self._fill : self._fill + take, 0] = vertices[pos : pos + take]
            self._buf[self._fill : self._fill + take, 1] = edge_id
            self._fill += take
            pos += take
            self.peak_buffered_pins = max(self.peak_buffered_pins, self._fill)
            if self._fill == cap:
                self.flush()

    def flush(self):
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
        boundaries = np.flatnonzero(chunk_ids[1:] != chunk_ids[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [pairs.shape[0]]))
        for lo, hi in zip(starts, stops):
            with open(self._paths[int(chunk_ids[lo])], "ab") as fh:
                fh.write(pairs[lo:hi].tobytes())
        self._fill = 0

    def load(self, chunk):
        path = self._paths[chunk]
        if not path.exists():
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        raw = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
        return raw[:, 0], raw[:, 1]

    def cleanup(self):
        self._finalizer()


class _ReferenceStream(_SpilledChunkStream):
    """The per-line constructor; iteration is the live stream's."""

    def __init__(
        self,
        source,
        *,
        chunk_size=DEFAULT_CHUNK_SIZE,
        buffer_pins=DEFAULT_BUFFER_PINS,
        pin_budget=None,
        name=None,
    ):
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
        self._spill = None
        self._edge_remap = None
        self._chunk_buckets = None
        self.vertex_weights = np.empty(0)
        fh, label, source_path, owns = _open_text_source(
            source, label=f"<{name}>" if name else None
        )
        self.name = name or (source_path.stem if source_path else "stream")
        self.source_path = source_path
        try:
            self._ingest(label, fh)
        except UnicodeDecodeError as exc:
            self.close()
            raise HypergraphFormatError(
                f"{label}: not valid UTF-8 text ({exc.reason})"
            ) from exc
        except BaseException:
            self.close()
            raise
        finally:
            if owns:
                fh.close()

    def _make_spill(self, num_vertices):
        num_buckets = max(1, -(-num_vertices // self._storage_size))
        self._spill = _SpillStore(num_buckets, self._storage_size, self._buffer_pins)
        return self._spill


class ReferenceHmetisStream(_ReferenceStream):
    def _ingest(self, path, fh):
        lines = _data_lines(fh)
        first = next(lines, None)
        if first is None:
            raise HypergraphFormatError(f"{path}: empty file")
        lineno, tokens = first
        header = parse_hmetis_header(path, lineno, tokens)
        num_edges, num_vertices = header.num_edges, header.num_vertices
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

        edges_seen = 0
        weights_seen = 0
        body_lines = 0
        for lineno, tokens in lines:
            body_lines += 1
            if edges_seen < num_edges:
                weight, pins = parse_hmetis_edge_line(path, lineno, tokens, header)
                self.edge_weights[edges_seen] = weight
                arr = np.unique(np.asarray(pins, dtype=np.int64))
                spill.add(arr, edges_seen)
                self.num_pins += arr.size
                self.edge_degrees[edges_seen] = arr.size
                edges_seen += 1
            elif header.has_vertex_weights and weights_seen < num_vertices:
                self.vertex_weights[weights_seen] = parse_hmetis_vertex_weight(
                    path, lineno, tokens
                )
                weights_seen += 1

        if edges_seen < num_edges:
            raise HypergraphFormatError(
                f"{path}: expected {num_edges} hyperedge lines, found {body_lines}"
            )
        if header.has_vertex_weights and weights_seen < num_vertices:
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


_MM_FIELDS = ("real", "integer", "complex", "pattern")
_MM_SYMMETRIES = ("general", "symmetric", "skew-symmetric", "hermitian")


class ReferenceMatrixMarketStream(_ReferenceStream):
    def __init__(self, source, *, model="row-net", **kwargs):
        if model not in ("row-net", "column-net"):
            raise ValueError(
                f"model must be 'row-net' or 'column-net', got {model!r}"
            )
        self.model = model
        super().__init__(source, **kwargs)

    def _ingest(self, path, fh):
        banner = fh.readline()
        tokens = banner.strip().split()
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

        lines = _data_lines(fh)
        size_line = next(lines, None)
        if size_line is None:
            raise HypergraphFormatError(f"{path}: missing size line")
        lineno, tokens = size_line
        if len(tokens) != 3:
            raise HypergraphFormatError(
                f"{path}:{lineno + 1}: size line must be 'rows cols nnz'"
            )
        try:
            num_rows, num_cols, nnz = (int(t) for t in tokens)
        except ValueError as exc:
            raise HypergraphFormatError(
                f"{path}:{lineno + 1}: non-integer size line"
            ) from exc
        if min(num_rows, num_cols, nnz) < 0:
            raise HypergraphFormatError(
                f"{path}:{lineno + 1}: negative count in size line"
            )
        if symmetric and num_rows != num_cols:
            raise HypergraphFormatError(
                f"{path}:{lineno + 1}: {mm_symmetry} matrix must be square, "
                f"got {num_rows} x {num_cols}"
            )

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
        pair = np.empty(1, dtype=np.int64)
        for lineno, tokens in lines:
            if entries >= nnz:
                raise HypergraphFormatError(
                    f"{path}:{lineno + 1}: more than the declared {nnz} entries"
                )
            if len(tokens) < 2:
                raise HypergraphFormatError(
                    f"{path}:{lineno + 1}: entry needs at least 'row col'"
                )
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise HypergraphFormatError(
                    f"{path}:{lineno + 1}: non-integer coordinate"
                ) from exc
            if not (1 <= i <= num_rows and 1 <= j <= num_cols):
                raise HypergraphFormatError(
                    f"{path}:{lineno + 1}: entry ({i}, {j}) outside "
                    f"{num_rows} x {num_cols}"
                )
            entries += 1
            v, e = (j - 1, i - 1) if row_net else (i - 1, j - 1)
            pair[0] = v
            spill.add(pair, e)
            edge_seen[e] = True
            self.num_pins += 1
            if symmetric and i != j:
                v2, e2 = (i - 1, j - 1) if row_net else (j - 1, i - 1)
                pair[0] = v2
                spill.add(pair, e2)
                edge_seen[e2] = True
                self.num_pins += 1
        if entries < nnz:
            raise HypergraphFormatError(
                f"{path}: expected {nnz} entries, found {entries}"
            )
        spill.flush()
        self._finalise_chunks()

        if edge_seen.all():
            self.num_edges = raw_edges
        else:
            remap = np.cumsum(edge_seen, dtype=np.int64) - 1
            remap[~edge_seen] = -1
            self._edge_remap = remap
            self.num_edges = int(edge_seen.sum())
        self.edge_weights = np.ones(self.num_edges, dtype=np.float64)
        self.total_vertex_weight = float(self.num_vertices)
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
