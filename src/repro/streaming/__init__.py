"""Out-of-core streaming: partition hypergraphs without loading them whole.

Everything else in this reproduction assumes the hypergraph fits in
memory; this package removes that assumption, opening the scenario axis
the paper's restreaming formulation was born for (and that the follow-up
literature — the limited-memory streamers of arXiv:2103.05394, the
massive-scale placement of HYPE, arXiv:1810.11319 — makes explicit):

* :mod:`~repro.streaming.reader` — one-pass chunked ingestion of hMetis
  and MatrixMarket sources.  Pins spill to per-chunk temporary files
  through a bounded buffer and come back as
  :class:`~repro.engine.blocks.VertexBlock` CSR slices, so peak resident
  pin memory is O(chunk + buffer) regardless of file size.  Parses with
  the block tokenizer of :mod:`repro.hypergraph.io`.  Sources need not be
  files: the readers accept any byte source — an open file, ``bytes``,
  or an iterable of byte blocks — which is how the HTTP service
  (:mod:`repro.service`) parses uploads straight off the socket without
  materialising them.
* :mod:`~repro.streaming.state` — :func:`presence_state`, the state a
  stream places into: the dense ``(E x p)`` count matrix when nothing
  caps the tracked nets, else :class:`StreamingState`, exact
  per-partition loads plus a capped, LRU-evicting per-hyperedge presence
  table (the bounded stand-in for that matrix).
* :mod:`~repro.streaming.onepass` — :class:`OnePassStreamer`: place each
  vertex once, on arrival, with the architecture-aware value function
  (Eq. 1).
* :mod:`~repro.streaming.restream` — :class:`BufferedRestreamer`: buffer
  a window of recent vertices and re-stream it under HyperPRAW's
  schedule (:func:`repro.core.schedule.run_schedule`).  With an
  unbounded buffer and table it reproduces in-memory HyperPRAW
  assignment-for-assignment; quality degrades gracefully as the buffer
  shrinks.

* :mod:`~repro.streaming.sharded` — :class:`ShardedStreamer`: parallel
  sharded streaming (ROADMAP item (a)).  Contiguous chunk ranges are
  streamed by forked workers against snapshot presence tables, a merge
  step reconciles loads/presence and flags multi-shard (boundary) nets,
  and barrier-synchronised rounds across the same workers restream the
  boundary vertices under the same schedule.  Both
  streaming partitioners surface it through a ``workers=N`` knob.

* :mod:`~repro.streaming.chunkstore` — the **persistent binary chunk
  store** (ingest once, restream many): ``ChunkStream.save(path)``
  materialises any stream as raw little-endian CSR arrays under a JSON
  manifest, and :class:`ChunkStoreStream` replays it with memory-mapped
  zero-copy reads — restream passes and forked sharded workers skip the
  text parser entirely.  :func:`cached_stream` is the convert-on-miss /
  replay-on-hit contract behind the CLI's ``--cache``.

All stream passes run on the shared engine
(:func:`repro.engine.kernel.pass_kernel`); the readers additionally
support *pin-budgeted* chunk boundaries (``pin_budget=...``) so
hub-dominated graphs keep bounded resident pins per chunk.

Both partitioners also implement the standard ``partition(hg, ...)``
interface via :class:`HypergraphChunkStream`, so they slot into the
experiment runner, benchmarks and CLI next to every other algorithm.
"""

from repro.streaming.reader import (
    DEFAULT_CHUNK_SIZE,
    ChunkStream,
    HmetisChunkStream,
    HypergraphChunkStream,
    MatrixMarketChunkStream,
    assemble,
    stream_hmetis,
    stream_matrix_market,
)
from repro.streaming.chunkstore import (
    CHUNKSTORE_VERSION,
    ChunkStoreError,
    ChunkStoreStream,
    cached_stream,
    open_store,
    source_digest,
    write_store,
)
from repro.streaming.state import (
    StreamingState,
    presence_state,
    resolve_cost_matrix,
)
from repro.streaming.onepass import OnePassStreamer
from repro.streaming.restream import BufferedRestreamer
from repro.streaming.sharded import ShardedStreamer

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ChunkStream",
    "HmetisChunkStream",
    "MatrixMarketChunkStream",
    "HypergraphChunkStream",
    "stream_hmetis",
    "stream_matrix_market",
    "assemble",
    "CHUNKSTORE_VERSION",
    "ChunkStoreError",
    "ChunkStoreStream",
    "write_store",
    "open_store",
    "source_digest",
    "cached_stream",
    "StreamingState",
    "presence_state",
    "resolve_cost_matrix",
    "OnePassStreamer",
    "BufferedRestreamer",
    "ShardedStreamer",
]
