"""Persistent binary chunk store: ingest once, restream many times.

The text parsers dominate out-of-core ingest time, and HyperPRAW's whole
premise is *restreaming* — the partitioner walks the vertex stream many
times — yet the spill files of :mod:`repro.streaming.reader` are
run-private temp files rebuilt from text on every invocation.  This
module makes the on-disk representation of the stream a first-class,
persistent artefact (the design axis Taşyaran et al. and HYPE treat
explicitly):

* :func:`write_store` serialises any
  :class:`~repro.streaming.reader.ChunkStream` into a directory holding
  one flat binary data file of raw little-endian numpy CSR arrays — per
  chunk, the ``starts`` pointer array and the ``edge_ids`` incidence
  array, plus the global weight vectors — described by a JSON manifest
  (format version, source digest, chunking parameters, per-chunk byte
  offsets).  ``ChunkStream.save(path)`` is sugar for it.
* :class:`ChunkStoreStream` replays a store through **memory-mapped
  zero-copy reads**: every chunk yielded is a set of array views into
  one ``np.memmap`` of the data file, so a restream pass costs page
  faults instead of text parsing, and forked sharded workers each map
  the store directly for their ``iter_range`` with no pickling and no
  re-ingest.
* :func:`cached_stream` is the convert-once contract behind the CLI's
  ``--cache``: open the store if its recorded source digest and chunking
  parameters match, otherwise ingest from text and materialise it.

Format invariants (spec in ``docs/formats.md``): all integers are
``<i8`` (little-endian int64), all weights ``<f8``; a store whose
manifest version is unknown or whose data file does not match the
manifest's recorded byte count is rejected with :class:`ChunkStoreError`
rather than silently misread.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.hypergraph.io import HypergraphFormatError
from repro.engine.blocks import VertexBlock
from repro.streaming.reader import ChunkStream

__all__ = [
    "CHUNKSTORE_VERSION",
    "MANIFEST_NAME",
    "DATA_NAME",
    "ChunkStoreError",
    "ChunkStoreStream",
    "write_store",
    "open_store",
    "source_digest",
    "store_dir_for",
    "cached_stream",
]

#: Current (and only) chunk-store format version.  Readers reject any
#: other value: the format carries no compatibility shims, so a version
#: bump means "re-convert from source".
CHUNKSTORE_VERSION = 1

#: Marker distinguishing our manifests from arbitrary JSON files.
FORMAT_MARKER = "hyperpraw-chunkstore"

MANIFEST_NAME = "manifest.json"
DATA_NAME = "chunks.bin"

_INT = np.dtype("<i8")
_FLOAT = np.dtype("<f8")


class ChunkStoreError(HypergraphFormatError):
    """A chunk store is missing, corrupt, truncated or incompatible."""


def source_digest(path: "str | Path") -> str:
    """SHA-256 digest (``"sha256:..."``) of a source file's bytes.

    Parameters
    ----------
    path:
        the file to digest (streamed in 1 MiB blocks, so arbitrarily
        large sources never load whole).

    Returns
    -------
    str
        ``"sha256:<hex>"`` — the form stored in store manifests and
        compared by :func:`open_store`/:func:`cached_stream`.
    """
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return f"sha256:{h.hexdigest()}"


def _stat_record(path: "str | Path") -> dict:
    """``{size, mtime_ns}`` of ``path`` — the cheap freshness fingerprint."""
    st = Path(path).stat()
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}


def store_dir_for(path: "str | Path", cache_dir: "str | Path") -> Path:
    """The per-source store directory :func:`cached_stream` uses.

    Keyed by basename *plus* a hash of the absolute source path, so two
    different files that share a name never thrash one cache slot.
    """
    path = Path(path).expanduser()
    tag = hashlib.sha256(str(path.resolve()).encode()).hexdigest()[:12]
    return Path(cache_dir).expanduser() / f"{path.name}.{tag}.chunkstore"


def write_store(
    stream: ChunkStream,
    path: "str | Path",
    *,
    source_path: "str | Path | None" = None,
    digest: "str | None" = None,
) -> Path:
    """Materialise ``stream`` as a persistent binary chunk store.

    One pass over the stream's chunks writes each chunk's CSR arrays
    (``starts``/``edge_ids``) plus the global weight vectors back to
    back into ``chunks.bin``; the manifest — written last, so a torn
    write never looks like a valid store — records the format version,
    the source digest, the chunking parameters and every section's byte
    offset.

    Parameters
    ----------
    stream:
        any re-iterable chunk stream (a disk reader, an in-memory
        adapter, or another store).
    path:
        store directory, created if needed; an existing store there is
        overwritten.
    source_path:
        the original text file, if any; its :func:`source_digest` is
        recorded so replays can validate cache freshness.  ``None``
        (e.g. an in-memory adapter) records ``null``.
    digest:
        an already-known source digest to record verbatim — skips
        re-hashing ``source_path`` and lets a replayed store
        (:class:`ChunkStoreStream`) propagate its recorded digest when
        re-saved.  Takes precedence over ``source_path`` for the digest
        (``source_path``, when given, still contributes the
        ``source_stat`` freshness record).

    Returns
    -------
    pathlib.Path
        the store directory, ready for :func:`open_store`.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest_path = path / MANIFEST_NAME
    # A stale manifest must not survive a partial rewrite of the data
    # file: remove it first so a crash mid-write leaves a rejectable
    # (manifest-less) directory instead of a plausible-looking store.
    manifest_path.unlink(missing_ok=True)
    data_path = path / DATA_NAME
    offset = 0
    chunks_meta: "list[dict]" = []
    with open(data_path, "wb") as fh:

        def put(arr: np.ndarray, dtype: np.dtype) -> dict:
            nonlocal offset
            raw = np.ascontiguousarray(arr, dtype=dtype)
            fh.write(raw.tobytes())
            section = {"offset": offset, "count": int(raw.size)}
            offset += raw.size * dtype.itemsize
            return section

        for c, chunk in enumerate(stream):
            start, stop = stream.chunk_bounds(c)
            chunks_meta.append(
                {
                    "start": int(start),
                    "stop": int(stop),
                    "num_pins": int(chunk.num_pins),
                    "starts": put(chunk.vertex_ptr, _INT),
                    "edge_ids": put(chunk.vertex_edges, _INT),
                }
            )
        vertex_weights = put(stream.vertex_weights, _FLOAT)
        edge_weights = put(stream.edge_weights, _FLOAT)
        # Optional section (additive field, no version bump): global
        # per-edge pin counts, the prerequisite for the sharded
        # streamer's local boundary detection on replay.
        edge_degrees = (
            put(stream.edge_degrees, _INT)
            if stream.edge_degrees is not None
            else None
        )

    manifest = {
        "format": FORMAT_MARKER,
        "version": CHUNKSTORE_VERSION,
        "name": stream.name,
        "source_digest": (
            digest
            if digest is not None
            else source_digest(source_path)
            if source_path is not None
            else None
        ),
        # Optional freshness shortcut: lets cached_stream skip hashing
        # an unchanged source (additive field, no version bump needed).
        "source_stat": (
            _stat_record(source_path) if source_path is not None else None
        ),
        "num_vertices": int(stream.num_vertices),
        "num_edges": int(stream.num_edges),
        "num_pins": int(stream.num_pins),
        "chunk_size": int(stream.chunk_size),
        "pin_budget": (
            int(stream.pin_budget) if stream.pin_budget is not None else None
        ),
        "total_vertex_weight": float(stream.total_vertex_weight),
        "data_file": DATA_NAME,
        "data_bytes": offset,
        "vertex_weights": vertex_weights,
        "edge_weights": edge_weights,
        "edge_degrees": edge_degrees,
        "chunks": chunks_meta,
    }
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return path


class ChunkStoreStream(ChunkStream):
    """Replay a persistent chunk store with memory-mapped zero-copy reads.

    A drop-in :class:`~repro.streaming.reader.ChunkStream`: every chunk's
    ``vertex_ptr``/``vertex_edges``/``vertex_weights`` are views into one
    read-only ``np.memmap`` of the data file, so restream passes and
    ``iter_range`` shards never parse text and never copy pin arrays.
    The map is (re)opened lazily per process — a forked sharded worker
    that calls :meth:`iter_range` maps the store itself rather than
    inheriting a parent's pages through a pipe.

    Parameters
    ----------
    path:
        store directory written by :func:`write_store`.
    expected_digest:
        when given, the manifest's recorded source digest must equal it
        (cache-freshness validation); a store converted from an unknown
        source (``null`` digest) fails the check.
    name:
        override the stream name recorded in the manifest.

    Raises
    ------
    ChunkStoreError
        missing/unreadable manifest, unknown format or version,
        truncated or resized data file, or digest mismatch.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        expected_digest: "str | None" = None,
        name: "str | None" = None,
    ) -> None:
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError as exc:
            raise ChunkStoreError(f"{self.path}: no chunk store (missing "
                                  f"{MANIFEST_NAME})") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise ChunkStoreError(
                f"{manifest_path}: unreadable manifest: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_MARKER:
            raise ChunkStoreError(
                f"{manifest_path}: not a {FORMAT_MARKER} manifest"
            )
        version = manifest.get("version")
        if version != CHUNKSTORE_VERSION:
            raise ChunkStoreError(
                f"{manifest_path}: unsupported chunk-store version {version!r} "
                f"(this reader understands version {CHUNKSTORE_VERSION}); "
                "re-convert from the source file"
            )
        self.manifest = manifest
        self.source_digest = manifest.get("source_digest")
        if expected_digest is not None and self.source_digest != expected_digest:
            raise ChunkStoreError(
                f"{self.path}: source digest mismatch — store records "
                f"{self.source_digest!r}, expected {expected_digest!r} "
                "(the source file changed; re-convert)"
            )
        try:
            self._data_path = self.path / manifest.get("data_file", DATA_NAME)
            declared = int(manifest["data_bytes"])
            try:
                actual = self._data_path.stat().st_size
            except OSError as exc:
                raise ChunkStoreError(
                    f"{self._data_path}: missing data file"
                ) from exc
            if actual != declared:
                raise ChunkStoreError(
                    f"{self._data_path}: data file is {actual} bytes, manifest "
                    f"declares {declared} (truncated or corrupt store)"
                )

            self.name = name or manifest["name"]
            self.num_vertices = int(manifest["num_vertices"])
            self.num_edges = int(manifest["num_edges"])
            self.num_pins = int(manifest["num_pins"])
            self.chunk_size = int(manifest["chunk_size"])
            self.pin_budget = (
                int(manifest["pin_budget"])
                if manifest.get("pin_budget") is not None
                else None
            )
            self.total_vertex_weight = float(manifest["total_vertex_weight"])
            chunks = manifest["chunks"]
            self._chunks_meta = chunks
            # Explicit boundaries: stores round-trip pin-budgeted (non-
            # uniform) chunkings, never falling back to chunk_size
            # arithmetic.
            self._chunk_starts = np.asarray(
                [c["start"] for c in chunks]
                + [chunks[-1]["stop"] if chunks else self.num_vertices],
                dtype=np.int64,
            )
            # Chunks tile [0, num_vertices) in order, each with one
            # pointer per vertex plus one, so replay can trust their ranges.
            bounds = self._chunk_starts
            stops = np.asarray([c["stop"] for c in chunks], dtype=np.int64)
            pointers = np.asarray([c["starts"]["count"] for c in chunks], dtype=np.int64)
            if (
                bounds[0] != 0
                or bounds[-1] != self.num_vertices
                or (stops != bounds[1:]).any()
                or (np.diff(bounds) < 0).any()
                or (pointers != np.diff(bounds) + 1).any()
            ):
                raise ChunkStoreError(
                    f"{manifest_path}: chunks do not tile [0, {self.num_vertices}) "
                    "in order with one starts entry per vertex plus one"
                )
            for section, dtype in (
                ("vertex_weights", _FLOAT),
                ("edge_weights", _FLOAT),
            ):
                self._check_section(manifest[section], dtype, declared, section)
            for c, meta in enumerate(chunks):
                self._check_section(
                    meta["starts"], _INT, declared, f"chunk {c} starts"
                )
                self._check_section(
                    meta["edge_ids"], _INT, declared, f"chunk {c} edge_ids"
                )
            self._mm: "np.ndarray | None" = None
            self._mm_pid: "int | None" = None
            self.vertex_weights = self._section(
                manifest["vertex_weights"], _FLOAT
            )
            self.edge_weights = self._section(manifest["edge_weights"], _FLOAT)
            # Optional (older stores lack it; compute_edge_degrees is the
            # fallback for consumers that need degrees).
            degrees_meta = manifest.get("edge_degrees")
            if degrees_meta is not None:
                self._check_section(degrees_meta, _INT, declared, "edge_degrees")
                self.edge_degrees = self._section(degrees_meta, _INT)
        except ChunkStoreError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            # A right-version manifest with missing/ill-typed fields is
            # just as corrupt as a truncated file: same error family, so
            # cached_stream can fall back to reconverting.
            raise ChunkStoreError(
                f"{manifest_path}: malformed manifest ({exc!r})"
            ) from exc

    def _check_section(
        self, section: dict, dtype: np.dtype, data_bytes: int, label: str
    ) -> None:
        lo = int(section["offset"])
        hi = lo + int(section["count"]) * dtype.itemsize
        if lo < 0 or hi > data_bytes:
            raise ChunkStoreError(
                f"{self._data_path}: {label} section [{lo}, {hi}) exceeds the "
                f"{data_bytes}-byte data file (corrupt manifest)"
            )

    # ------------------------------------------------------------------
    def _data(self) -> np.ndarray:
        """The process-local read-only map of the data file.

        A plain ``ndarray`` view of the ``np.memmap`` (same bytes, no
        copy; the view keeps the map open): slicing a ``memmap`` runs
        its Python-level ``__array_finalize__``, about 4x the cost of a
        plain slice, and the vertex-mode kernel slices once per vertex.
        """
        if self._mm is None or self._mm_pid != os.getpid():
            self._mm = np.memmap(self._data_path, dtype=np.uint8, mode="r").view(
                np.ndarray
            )
            self._mm_pid = os.getpid()
        return self._mm

    def _section(self, section: dict, dtype: np.dtype) -> np.ndarray:
        lo = int(section["offset"])
        count = int(section["count"])
        return self._data()[lo : lo + count * dtype.itemsize].view(dtype)

    def chunk_pins(self) -> np.ndarray:
        """Per-chunk pin counts, straight from the manifest."""
        return np.asarray(
            [int(c["num_pins"]) for c in self._chunks_meta], dtype=np.int64
        )

    def iter_range(self, lo: int, hi: int) -> Iterator[VertexBlock]:
        """Yield chunks ``lo <= c < hi`` as zero-copy memmap views."""
        for c in range(lo, hi):
            meta = self._chunks_meta[c]
            start, stop = int(meta["start"]), int(meta["stop"])
            chunk = VertexBlock(
                ids=np.arange(start, stop, dtype=np.int64),
                vertex_ptr=self._section(meta["starts"], _INT),
                vertex_edges=self._section(meta["edge_ids"], _INT),
                vertex_weights=self.vertex_weights[start:stop],
            )
            self._note_resident(chunk.num_pins)
            yield chunk

    def close(self) -> None:
        """Drop this process's map (views already handed out stay valid)."""
        self._mm = None
        self._mm_pid = None


def open_store(
    path: "str | Path",
    *,
    expected_digest: "str | None" = None,
    name: "str | None" = None,
) -> ChunkStoreStream:
    """Open a chunk store for replay.

    Parameters
    ----------
    path:
        store directory written by :func:`write_store`.
    expected_digest:
        optional :func:`source_digest` the manifest must match.
    name:
        override the stream name recorded in the manifest.

    Returns
    -------
    ChunkStoreStream
        a re-iterable, shardable stream over the stored chunks.

    Raises
    ------
    ChunkStoreError
        if the store is missing, corrupt, truncated, of an unknown
        version, or fails the digest check.
    """
    return ChunkStoreStream(path, expected_digest=expected_digest, name=name)


def cached_stream(
    path: "str | Path",
    cache_dir: "str | Path",
    *,
    opener,
    **opener_kwargs,
) -> "tuple[ChunkStoreStream, bool]":
    """Open ``path`` through a chunk-store cache (convert once, replay after).

    Looks in :func:`store_dir_for` (a per-source directory keyed by
    basename plus a hash of the absolute path).  The cached store is
    replayed only when it is *fresh* — the source's recorded
    ``(size, mtime)`` fingerprint matches, or failing that its full
    :func:`source_digest` does — *and* its chunking parameters
    (``chunk_size``, ``pin_budget``) match the request; otherwise the
    file is re-ingested through ``opener`` and the store rewritten.  An
    unchanged source therefore costs one ``stat`` on the hit path, not a
    re-read of the file.

    Parameters
    ----------
    path:
        the text source file (hMetis or MatrixMarket).
    cache_dir:
        directory holding per-file stores, created if needed.
    opener:
        text-ingest constructor (:func:`~repro.streaming.reader.
        stream_hmetis` or :func:`~repro.streaming.reader.
        stream_matrix_market`).
    opener_kwargs:
        forwarded to ``opener`` on a miss; ``chunk_size``/``pin_budget``
        also participate in cache validation.

    Returns
    -------
    tuple[ChunkStoreStream, bool]
        the replayable store stream and whether the cache was *hit*
        (``True`` = the text parser never ran).
    """
    path = Path(path).expanduser()
    store_dir = store_dir_for(path, cache_dir)
    want_chunk = opener_kwargs.get("chunk_size")
    want_budget = opener_kwargs.get("pin_budget")
    digest: "str | None" = None
    try:
        stream = open_store(store_dir)
    except ChunkStoreError:
        pass
    else:
        # Freshness: an unchanged (size, mtime) fingerprint trusts the
        # store without re-reading the source; a changed one falls back
        # to the full digest (touch without edit, mtime-only changes).
        fresh = stream.source_digest is not None and stream.manifest.get(
            "source_stat"
        ) == _stat_record(path)
        if not fresh:
            digest = source_digest(path)
            fresh = stream.source_digest == digest
        if (
            fresh
            and (want_chunk is None or stream.chunk_size == want_chunk)
            and stream.pin_budget == want_budget
        ):
            return stream, True
        stream.close()
    if digest is None:
        digest = source_digest(path)
    with opener(path, **opener_kwargs) as text_stream:
        # The digest is already in hand — record it verbatim (plus the
        # source's stat fingerprint) rather than re-hashing the file.
        write_store(text_stream, store_dir, source_path=path, digest=digest)
    return open_store(store_dir, expected_digest=digest), False
