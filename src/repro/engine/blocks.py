"""Vertex blocks — the input side of the pass kernel.

Every stream-pass loop in the repository consumes the same currency: a
group of vertices with their incident hyperedge lists in local CSR form
plus their weights.  :class:`VertexBlock` is that currency, and this
module owns its layout:

* the out-of-core readers of :mod:`repro.streaming.reader`, the chunk
  store and the cluster worker yield one block per chunk (``ids =
  arange(start, stop)``);
* :meth:`VertexBlock.slice` cuts rebased zero-copy views,
  :meth:`VertexBlock.take` gathers rows in any order and
  :func:`concat_blocks` joins blocks into fresh arrays — every window,
  sub-block and gather is built from these three;
* :func:`stream_windows` groups arriving blocks into the windows the
  buffered restreamer and the similarity-ordered min-max streamer
  restream;
* :class:`InMemorySource` — blocks over an in-memory
  :class:`~repro.hypergraph.model.Hypergraph`, in natural or arbitrary
  (e.g. shuffled, or :func:`expansion_order`) vertex order.
  Natural-order blocks are zero-copy views of the CSR arrays;
  arbitrary orders gather per block;
* :func:`shard_ranges` splits a chunk index range into contiguous
  per-worker shards; each worker then draws its blocks from
  ``stream.iter_range`` (see :mod:`repro.engine.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.hypergraph.model import Hypergraph

__all__ = [
    "VertexBlock",
    "InMemorySource",
    "concat_blocks",
    "stream_windows",
    "expansion_order",
    "segment_gather_index",
    "segment_reduce",
    "shard_ranges",
    "shard_ranges_by_pins",
]


def segment_gather_index(global_starts: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Flat indices gathering variable-length segments from a CSR array.

    For segment ``i`` starting at ``global_starts[i]`` with length
    ``degs[i]``, the result indexes the concatenation of all segments:
    ``source[segment_gather_index(starts, degs)]`` is the segments laid
    out back to back — the one-fancy-index replacement for a per-segment
    slicing loop.
    """
    total = int(degs.sum())
    local_ptr = np.zeros(degs.size + 1, dtype=np.int64)
    np.cumsum(degs, out=local_ptr[1:])
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(local_ptr[:-1], degs)
        + np.repeat(global_starts, degs)
    )


def segment_reduce(ufunc, values: np.ndarray, ptr: np.ndarray, fill=0) -> np.ndarray:
    """``ufunc`` reduced over each CSR segment ``values[ptr[i]:ptr[i+1]]``.

    Row ``i`` of the result reduces segment ``i`` along axis 0; an empty
    segment gets ``fill`` (``ufunc.reduceat`` mis-handles those).
    """
    out = np.full((ptr.size - 1, *values.shape[1:]), fill, dtype=values.dtype)
    nonzero = np.diff(ptr) > 0
    if nonzero.any():
        out[nonzero] = ufunc.reduceat(values, ptr[:-1][nonzero], axis=0)
    return out


@dataclass(frozen=True)
class VertexBlock:
    """A group of vertices in local CSR form.

    ``vertex_edges[vertex_ptr[i]:vertex_ptr[i+1]]`` are the global
    hyperedge ids incident to the block's ``i``-th vertex, whose global id
    is ``ids[i]``; ``vertex_ptr[0]`` is 0.  Blocks read from a stream are
    contiguous (``ids = arange(start, stop)``) with each vertex's edges
    sorted ascending; windows and reordered blocks carry any ids.
    """

    ids: np.ndarray
    vertex_ptr: np.ndarray
    vertex_edges: np.ndarray
    vertex_weights: np.ndarray

    @classmethod
    def of(cls, hg: Hypergraph) -> "VertexBlock":
        """The whole hypergraph as one natural-order block (no copies)."""
        return cls(
            ids=np.arange(hg.num_vertices, dtype=np.int64),
            vertex_ptr=hg.vertex_ptr,
            vertex_edges=hg.vertex_edges,
            vertex_weights=hg.vertex_weights,
        )

    @property
    def num_vertices(self) -> int:
        return int(self.ids.size)

    @property
    def num_pins(self) -> int:
        return int(self.vertex_edges.size)

    def edges_of(self, i: int) -> np.ndarray:
        """Incident global hyperedge ids of the block's ``i``-th vertex."""
        return self.vertex_edges[self.vertex_ptr[i] : self.vertex_ptr[i + 1]]

    def slice(self, a: int, b: int) -> "VertexBlock":
        """Rows ``[a, b)`` as views; only a non-zero pointer is rebased."""
        ptr = self.vertex_ptr[a : b + 1]
        base = ptr[0]
        return VertexBlock(
            ids=self.ids[a:b],
            vertex_ptr=ptr - base if base else ptr,
            vertex_edges=self.vertex_edges[base : ptr[-1]],
            vertex_weights=self.vertex_weights[a:b],
        )

    def take(self, rows: np.ndarray) -> "VertexBlock":
        """Rows ``rows`` in that order, gathered into new arrays."""
        starts = self.vertex_ptr[rows]
        degs = self.vertex_ptr[rows + 1] - starts
        ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(degs, out=ptr[1:])
        return VertexBlock(
            ids=self.ids[rows],
            vertex_ptr=ptr,
            vertex_edges=self.vertex_edges[segment_gather_index(starts, degs)],
            vertex_weights=self.vertex_weights[rows],
        )


def concat_blocks(blocks: Sequence[VertexBlock]) -> VertexBlock:
    """Join blocks end to end into one block of fresh arrays.

    Always copies (a lone block too), so the result outlives any
    memory-mapped or reused buffer its inputs viewed; ids and edges come
    out ``int64``, weights ``float64``.
    """
    sizes = [b.num_vertices for b in blocks]
    ptr = np.zeros(sum(sizes) + 1, dtype=np.int64)
    pos = offset = 0
    for b, n in zip(blocks, sizes):
        ptr[pos + 1 : pos + n + 1] = b.vertex_ptr[1:] + offset
        pos += n
        offset += b.num_pins

    def join(arrays, dtype) -> np.ndarray:
        return np.concatenate([np.empty(0, dtype=dtype), *arrays])

    return VertexBlock(
        ids=join([b.ids for b in blocks], np.int64),
        vertex_ptr=ptr,
        vertex_edges=join([b.vertex_edges for b in blocks], np.int64),
        vertex_weights=join([b.vertex_weights for b in blocks], np.float64),
    )


def stream_windows(
    blocks: Iterable[VertexBlock], size: "int | None", *, split: bool = True
) -> Iterator[VertexBlock]:
    """Group arriving blocks into windows, each yielded as one block.

    A window closes once it holds ``size`` vertices (``None``: the whole
    stream is one window), and whatever is held closes at end of stream;
    each is one :func:`concat_blocks` copy.  With ``split`` an arriving
    block is cut at the window boundary, so no window exceeds ``size``;
    without it blocks stay whole and a window closes on the block that
    reaches ``size``.  Blocks are drawn lazily: the next block is pulled
    only after every window before it has been consumed.
    """
    held: "list[VertexBlock]" = []
    count = 0
    for block in blocks:
        if split and size is not None:
            while count + block.num_vertices > size:
                room = size - count
                held.append(block.slice(0, room))
                block = block.slice(room, block.num_vertices)
                yield concat_blocks(held)
                held, count = [], 0
        held.append(block)
        count += block.num_vertices
        if size is not None and count >= size:
            yield concat_blocks(held)
            held, count = [], 0
    if count:
        yield concat_blocks(held)


class InMemorySource:
    """Blocks over an in-memory hypergraph, in a given vertex order.

    Parameters
    ----------
    hg:
        the hypergraph.
    order:
        visit order (any permutation of ``arange(|V|)``); ``None`` is
        natural order.  Natural-order blocks are zero-copy CSR views.
    block_size:
        vertices per block; ``None`` yields one block covering the whole
        order (the right granularity for per-vertex scoring, where block
        boundaries are invisible).
    """

    def __init__(
        self,
        hg: Hypergraph,
        *,
        order: "np.ndarray | None" = None,
        block_size: "int | None" = None,
    ) -> None:
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1 or None, got {block_size}")
        self.whole = VertexBlock.of(hg)
        natural = order is None or bool(np.array_equal(order, self.whole.ids))
        self.order = None if natural else order
        self.block_size = block_size

    def blocks(self) -> Iterator[VertexBlock]:
        n = self.whole.num_vertices
        size = self.block_size or max(1, n)
        for a in range(0, n, size):
            if self.order is None:
                yield self.whole.slice(a, min(a + size, n))
            else:
                yield self.whole.take(self.order[a : a + size])


def expansion_order(
    hg: Hypergraph, *, max_expand_net: "int | None" = 256
) -> np.ndarray:
    """HYPE-style neighbourhood-expansion visit order (a permutation).

    Grows a fringe the way HYPE grows a part: seed at the lowest-degree
    unvisited vertex, then repeatedly pop the fringe vertex with the
    fewest incident nets (the cheapest external neighbourhood) and push
    its hyperedge neighbours.  When the fringe runs dry — a connected
    component is exhausted — the next lowest-degree unvisited vertex
    seeds a new expansion.  Every hyperedge is expanded through at most
    once (its first touch queues all its pins), so the whole order costs
    ``O(pins + |V| log |V|)``.

    Parameters
    ----------
    hg:
        the hypergraph.
    max_expand_net:
        nets with more pins than this are never expanded through —
        HYPE's own guard against hub nets turning the fringe into the
        whole graph in one step (``None`` expands through everything).

    Returns
    -------
    np.ndarray
        a permutation of ``arange(num_vertices)`` in expansion order.
    """
    import heapq

    n = hg.num_vertices
    degrees = np.diff(hg.vertex_ptr)
    net_sizes = np.diff(hg.edge_ptr)
    order = np.empty(n, dtype=np.int64)
    queued = np.zeros(n, dtype=bool)
    edge_done = np.zeros(hg.num_edges, dtype=bool)
    seeds = np.argsort(degrees, kind="stable")
    vptr, vedges = hg.vertex_ptr, hg.vertex_edges
    eptr, epins = hg.edge_ptr, hg.edge_pins
    heap: "list[tuple[int, int]]" = []
    seed_pos = 0
    for pos in range(n):
        if not heap:
            while queued[seeds[seed_pos]]:
                seed_pos += 1
            v = int(seeds[seed_pos])
            queued[v] = True
            heapq.heappush(heap, (int(degrees[v]), v))
        _, v = heapq.heappop(heap)
        order[pos] = v
        for e in vedges[vptr[v] : vptr[v + 1]].tolist():
            if edge_done[e]:
                continue
            edge_done[e] = True
            if max_expand_net is not None and net_sizes[e] > max_expand_net:
                continue
            for u in epins[eptr[e] : eptr[e + 1]].tolist():
                if not queued[u]:
                    queued[u] = True
                    heapq.heappush(heap, (int(degrees[u]), u))
    return order


def shard_ranges(num_chunks: int, workers: int) -> "list[tuple[int, int]]":
    """Split ``[0, num_chunks)`` into ``workers`` contiguous chunk ranges.

    Ranges are near-equal (first ``num_chunks % workers`` shards get one
    extra chunk) and empty shards are dropped, so the result may be
    shorter than ``workers`` on tiny streams.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    base, extra = divmod(num_chunks, workers)
    ranges = []
    lo = 0
    for k in range(workers):
        hi = lo + base + (1 if k < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def shard_ranges_by_pins(
    chunk_pins, workers: int
) -> "list[tuple[int, int]]":
    """Split chunks into contiguous ranges balancing *pins*, not counts.

    Streaming cost is proportional to pins, and chunk pin counts can be
    wildly skewed (hub-heavy prefixes), so equal chunk *counts* leave
    stragglers.  Each cut lands where the cumulative pin count reaches a
    fair share of what remains, with every shard guaranteed at least one
    chunk.  ``workers`` is clamped to the chunk count, so the result has
    exactly ``min(workers, len(chunk_pins))`` ranges.

    Parameters
    ----------
    chunk_pins:
        per-chunk pin counts, in chunk order (see
        ``ChunkStream.chunk_pins``).
    workers:
        requested shard count.

    Returns
    -------
    list[tuple[int, int]]
        contiguous ``(lo, hi)`` chunk-index ranges covering every chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pins = np.asarray(chunk_pins, dtype=np.int64)
    n = int(pins.size)
    if n == 0:
        return []
    workers = min(workers, n)
    total = int(pins.sum())
    if total <= 0:
        return shard_ranges(n, workers)
    cum = np.cumsum(pins)
    ranges: "list[tuple[int, int]]" = []
    lo = 0
    for k in range(workers):
        remaining = workers - k
        if remaining == 1:
            hi = n
        else:
            done = int(cum[lo - 1]) if lo else 0
            target = done + (total - done) / remaining
            hi = int(np.searchsorted(cum, target, side="left")) + 1
            # Cut at whichever adjacent chunk boundary lies closer to
            # the fair share — always taking the crossing chunk would
            # hand a hub-heavy prefix a systematic overshoot, the very
            # skew this function exists to remove.
            if hi - 1 > lo and (cum[hi - 1] - target) > (target - cum[hi - 2]):
                hi -= 1
            # every shard takes >= 1 chunk, and leaves >= 1 per remainder
            hi = max(hi, lo + 1)
            hi = min(hi, n - (remaining - 1))
        ranges.append((lo, hi))
        lo = hi
    return ranges
