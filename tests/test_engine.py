"""Tests for the unified stream-pass engine (repro.engine).

The load-bearing property: collapsing the four historical pass loops
onto one kernel changed *nothing* — the golden hashes below were
computed with the pre-engine (seed-state) implementations of HyperPRAW,
FennelStreaming and BufferedRestreamer, and the refactored partitioners
must reproduce them byte for byte (FENNEL now runs as
``OnePassStreamer(scorer="fennel", alpha="fennel")``, same digest).  The
HYPE and min-max table pins their phase-1 sharding at workers 1, 2 and
4.  Around that: the block sources, the
dense kernel state, shard-range splitting and the table merge.
"""

import hashlib
import socket
import threading

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.architecture.cost import uniform_cost_matrix
from repro.core import HyperPRAW, HyperPRAWConfig, edge_partition_counts
from repro.engine import (
    NUMBA_AVAILABLE,
    DenseKernelState,
    FennelScorer,
    HyperPRAWScorer,
    InMemorySource,
    VertexBlock,
    apply_balance_cap,
    concat_blocks,
    fork_available,
    merge_shard_tables,
    move_back,
    pass_kernel,
    run_tasks,
    segment_reduce,
    segment_row_sum,
    shard_ranges,
    stream_windows,
)
from repro.hypergraph.io import read_matrix_market, write_hmetis
from repro.hypergraph.suite import load_instance
from repro.partitioning.families import PARTITIONERS
from repro.streaming import (
    BufferedRestreamer,
    HypergraphChunkStream,
    OnePassStreamer,
    StreamingState,
    open_store,
    stream_hmetis,
    stream_matrix_market,
)


def _digest(assignment: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def _fennel(**kwargs) -> OnePassStreamer:
    """The single-pass FENNEL baseline."""
    return OnePassStreamer(scorer="fennel", alpha="fennel", **kwargs)


@pytest.fixture(scope="module")
def instance():
    return load_instance("sparsine", scale=0.15)


@pytest.fixture(scope="module")
def mesh_instance():
    return load_instance("2cubes_sphere", scale=0.3)


class TestSeedStateGoldens:
    """Refactored partitioners reproduce the pre-engine assignments."""

    def test_hyperpraw_sparsine(self, instance):
        r = HyperPRAW(HyperPRAWConfig()).partition(instance, 8)
        assert _digest(r.assignment) == "2d6fa4e732279d36"

    def test_hyperpraw_mesh(self, mesh_instance):
        r = HyperPRAW(HyperPRAWConfig(record_history=False)).partition(
            mesh_instance, 4
        )
        assert _digest(r.assignment) == "9ea26121193ea3a6"

    def test_fennel_sparsine(self, instance):
        r = _fennel().partition(instance, 8)
        assert _digest(r.assignment) == "f0d6772baeeed45d"

    def test_buffered_restreamer_sparsine(self, instance):
        r = BufferedRestreamer(
            HyperPRAWConfig(record_history=False), buffer_size=50
        ).partition(instance, 4)
        assert _digest(r.assignment) == "00dde5dda85b2cd1"

    def test_onepass_sparsine(self, instance):
        r = OnePassStreamer(chunk_size=31).partition(instance, 8)
        assert _digest(r.assignment) == "fef8eed11a7839f5"


#: registry ``make`` at p=4, seed=7 on the invariant matrix's instances:
#: (instance, family) -> digests at workers 1, 2 and 4.
SHARDED_FAMILY_GOLDENS = {
    ("uniform", "hype"): (
        "12cd3cc76ae75809", "74177749e89dd4b4", "a4f45928ffc68852",
    ),
    ("uniform", "minmax"): (
        "512675a92fcb1471", "b5d6a91e3edb33fd", "89614b323eadf08e",
    ),
    ("powerlaw", "hype"): (
        "e5293736ff1459c6", "1176759f5c105a03", "b99fbc0d124c0371",
    ),
    ("powerlaw", "minmax"): (
        "75baa206e05b3a5b", "20ec331614fd5c9c", "917fdd93cb70c6dc",
    ),
    ("mesh", "hype"): (
        "55106760381c4fd3", "e89ca295b7047e1d", "1e8c37d80e56012c",
    ),
    ("mesh", "minmax"): (
        "f9f64d9d0c1a75b1", "6aa4f4a3119a8834", "9b127868293afed4",
    ),
}


class TestShardedFamilyGoldens:
    """HYPE and min-max phase-1 sharding reproduce their pinned
    assignments at every worker count."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize(("family", "name"), list(SHARDED_FAMILY_GOLDENS))
    def test_registry_family(self, family, name, workers):
        from test_invariants import _instance

        hg = _instance(family)
        r = PARTITIONERS[name].make(hg, workers).partition(hg, 4, seed=7)
        want = SHARDED_FAMILY_GOLDENS[family, name][(1, 2, 4).index(workers)]
        assert _digest(r.assignment) == want

    @pytest.mark.parametrize(
        ("workers", "want"),
        ((1, "59fe539e1b42d841"), (2, "4f6c87ee75ca5a3a")),
    )
    def test_capped_buffered_minmax(self, workers, want):
        from repro.partitioning.families import MinMaxStreamer
        from test_invariants import _instance

        hg = _instance("mesh")
        r = MinMaxStreamer(
            max_tracked_edges=40,
            buffer_size=64,
            chunk_size=32,
            workers=workers,
        ).partition(hg, 4, seed=7)
        assert _digest(r.assignment) == want


#: capped streamers on the invariant matrix's mesh (max vertex degree 17)
#: at p=4, seed=7: caps 1-3 force a vertex's own nets to evict each other
#: inside one ``place``; cap 100 is roomy.  Each entry is
#: ``(assignment digest, evictions, peak_tracked_edges)``.
CAPPED_GOLDENS = {
    "onepass-vertex": {
        1: ("13ef55ab2cdb5662", 1711, 1),
        2: ("0e3dc8f566cf87e1", 1697, 2),
        3: ("6a67b30a419a5f47", 1646, 3),
        100: ("897e74a111a5d031", 712, 100),
    },
    "onepass-chunk": {
        1: ("99897bb6a60b5552", 1711, 1),
        2: ("439f25e69f37a99c", 1701, 2),
        3: ("684f271f27bcd289", 1676, 3),
        100: ("e452cfcbf2deaed7", 502, 100),
    },
    "buffered-rollback": {
        1: ("b7f1d0e4600b46ce", 5340, 1),
        2: ("131abdc2e61fa0eb", 5420, 2),
        3: ("5bc61e53e4a76727", 5511, 3),
        100: ("1aa97806be679978", 3136, 100),
    },
    "sharded-2w": {
        1: ("13ef55ab2cdb5662", 1710, 1),
        2: ("14e3b0eed510d7c1", 1695, 2),
        3: ("c733d36ba65685be", 1644, 3),
        100: ("08569407aad810ab", 1126, 100),
    },
    "minmax": {
        1: ("8de28aabb824db09", 1711, 1),
        2: ("399ac8354516c536", 1697, 2),
        3: ("213912493edfda2b", 1646, 3),
        100: ("de32f9b9b2e03848", 712, 100),
    },
}


def _capped_streamer(name: str, cap: int):
    from repro.partitioning.families import MinMaxStreamer

    if name == "onepass-vertex":
        return OnePassStreamer(max_tracked_edges=cap, chunk_size=32)
    if name == "onepass-chunk":
        return OnePassStreamer(
            max_tracked_edges=cap, chunk_size=32, score_mode="chunk"
        )
    if name == "buffered-rollback":
        # chunk-mode windows lift whole sub-blocks (lift_block), and
        # every cap rolls a window back (move_back)
        return BufferedRestreamer(
            HyperPRAWConfig(record_history=False, chunk_size=8),
            buffer_size=64,
            chunk_size=32,
            max_tracked_edges=cap,
        )
    if name == "sharded-2w":
        # export_table at the merge; only the roomy cap leaves boundary
        # nets for the set_rows overlay rounds
        return OnePassStreamer(max_tracked_edges=cap, chunk_size=32, workers=2)
    return MinMaxStreamer(max_tracked_edges=cap, chunk_size=32)


class TestCappedGoldens:
    """The capped LRU table's eviction order, pinned end to end: the
    assignment, the eviction count and the peak table size of every
    streamer that runs on it."""

    @pytest.mark.parametrize("cap", (1, 2, 3, 100))
    @pytest.mark.parametrize("name", list(CAPPED_GOLDENS))
    def test_capped_run(self, name, cap):
        from test_invariants import _instance

        hg = _instance("mesh")
        r = _capped_streamer(name, cap).partition(hg, 4, seed=7)
        m = r.metadata
        got = (_digest(r.assignment), m["evictions"], m["peak_tracked_edges"])
        assert got == CAPPED_GOLDENS[name][cap]
        if name == "buffered-rollback":
            assert m["rolled_back"]


#: below 32 vertices a pin-budgeted text stream buckets single vertices,
#: so its chunk boundaries equal the in-memory stream's
CS = 16


def _ship_to_worker(stream, lo, hi):
    """Ship chunks ``[lo, hi)`` as the coordinator frames them and ingest
    them the way a cluster worker does."""
    from repro.cluster.coordinator import chunk_frames
    from repro.cluster.protocol import send_message
    from repro.cluster.worker import ClusterWorker

    hello = dict(
        ship="chunks", lo=lo, hi=hi, num_vertices=stream.num_vertices,
        v_lo=stream.chunk_bounds(lo)[0], v_hi=stream.chunk_bounds(hi - 1)[1],
        edge_weights=stream.edge_weights,
    )
    a, b = socket.socketpair()
    with a, b:
        def ship():
            for frame in chunk_frames(stream, lo, hi):
                send_message(a, frame)
            send_message(a, {"type": "ingest_done"})

        sender = threading.Thread(target=ship)
        sender.start()
        shard = ClusterWorker()._ingest(b, hello)
        sender.join()
    return list(shard.iter_range(lo, hi))


def _store(path, tmp_path):
    return open_store(stream_hmetis(path, chunk_size=CS).save(tmp_path / "s"))


#: name -> (blocks from the hMetis ``path``, the same blocks from the
#: in-memory ``ref`` hypergraph's HypergraphChunkStream)
BLOCK_PRODUCERS = {
    "hmetis-spilling": lambda path, ref, tmp: (
        stream_hmetis(path, chunk_size=CS, buffer_pins=7),
        HypergraphChunkStream(ref, CS),
    ),
    "store-replay": lambda path, ref, tmp: (
        _store(path, tmp), HypergraphChunkStream(ref, CS)
    ),
    "store-range": lambda path, ref, tmp: (
        _store(path, tmp).iter_range(2, 5),
        HypergraphChunkStream(ref, CS).iter_range(2, 5),
    ),
    "pin-budget": lambda path, ref, tmp: (
        stream_hmetis(path, chunk_size=CS, pin_budget=40),
        HypergraphChunkStream(ref, CS, pin_budget=40),
    ),
    "cluster-shipped": lambda path, ref, tmp: (
        _ship_to_worker(stream_hmetis(path, chunk_size=CS), 1, 4),
        HypergraphChunkStream(ref, CS).iter_range(1, 4),
    ),
}


class TestVertexBlocks:
    @pytest.mark.parametrize("producer", [*BLOCK_PRODUCERS, "matrix-market"])
    def test_every_producer_yields_the_same_blocks(self, producer, tmp_path):
        hg = load_instance("sparsine", scale=0.05)
        if producer == "matrix-market":
            path = tmp_path / "g.mtx"
            scipy.io.mmwrite(str(path), sp.coo_matrix(hg.incidence_matrix()))
            got = stream_matrix_market(path, chunk_size=CS)
            want = HypergraphChunkStream(read_matrix_market(path), CS)
        else:
            w = np.random.default_rng(3).integers(1, 4, hg.num_vertices)
            hg = hg.with_weights(vertex_weights=w.astype(float))
            path = tmp_path / "g.hgr"
            write_hmetis(hg, path, write_weights=True)
            got, want = BLOCK_PRODUCERS[producer](path, hg, tmp_path)
        got, want = list(got), list(want)
        assert len(got) == len(want) > 1
        for g, r in zip(got, want):
            for field in ("ids", "vertex_ptr", "vertex_edges", "vertex_weights"):
                assert np.array_equal(getattr(g, field), getattr(r, field))

    @pytest.mark.parametrize("block_size", [None, 64])
    def test_natural_order_blocks_are_views(self, instance, block_size):
        source = InMemorySource(
            instance,
            order=np.arange(instance.num_vertices, dtype=np.int64),
            block_size=block_size,
        )
        for block in source.blocks():
            assert np.shares_memory(block.vertex_edges, instance.vertex_edges)

    def test_slice_take_concat(self, instance):
        whole = VertexBlock.of(instance)
        n = whole.num_vertices
        parts = [whole.slice(a, min(a + 50, n)) for a in range(0, n, 50)]
        assert all(p.vertex_ptr[0] == 0 for p in parts)
        joined = concat_blocks(parts)
        for field in ("ids", "vertex_ptr", "vertex_edges", "vertex_weights"):
            assert np.array_equal(getattr(joined, field), getattr(whole, field))
        assert not np.shares_memory(joined.vertex_edges, whole.vertex_edges)
        rows = np.random.default_rng(2).permutation(n)[:40]
        taken = whole.take(rows)
        for i, v in enumerate(rows):
            assert np.array_equal(taken.edges_of(i), instance.edges_of(v))
        assert np.array_equal(taken.vertex_weights, instance.vertex_weights[rows])
        assert list(concat_blocks([]).vertex_ptr) == [0]

    def test_stream_windows(self, instance):
        chunks = list(HypergraphChunkStream(instance, 30))
        n = instance.num_vertices
        split = list(stream_windows(iter(chunks), 47))
        assert {w.num_vertices for w in split[:-1]} == {47}
        assert np.array_equal(concat_blocks(split).ids, np.arange(n))
        whole = list(stream_windows(iter(chunks), 47, split=False))
        assert {w.num_vertices for w in whole[:-1]} == {60}
        assert sum(w.num_vertices for w in whole) == n
        assert [w.num_vertices for w in stream_windows(chunks, None)] == [n]

    def test_in_memory_source_natural_covers_csr(self, instance):
        blocks = list(InMemorySource(instance, block_size=64).blocks())
        assert sum(b.num_vertices for b in blocks) == instance.num_vertices
        assert sum(b.num_pins for b in blocks) == instance.num_pins
        v = 0
        for b in blocks:
            for i in range(b.num_vertices):
                assert b.ids[i] == v
                assert np.array_equal(b.edges_of(i), instance.edges_of(v))
                v += 1

    def test_in_memory_source_single_block_default(self, instance):
        blocks = list(InMemorySource(instance).blocks())
        assert len(blocks) == 1
        assert blocks[0].num_pins == instance.num_pins

    def test_in_memory_source_shuffled_order(self, instance):
        order = np.arange(instance.num_vertices, dtype=np.int64)
        np.random.default_rng(0).shuffle(order)
        blocks = list(InMemorySource(instance, order=order, block_size=33).blocks())
        seen = np.concatenate([b.ids for b in blocks])
        assert np.array_equal(seen, order)
        b = blocks[0]
        for i in range(b.num_vertices):
            assert np.array_equal(b.edges_of(i), instance.edges_of(int(b.ids[i])))

    def test_shard_ranges(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(2, 4) == [(0, 1), (1, 2)]
        assert shard_ranges(5, 1) == [(0, 5)]
        with pytest.raises(ValueError):
            shard_ranges(5, 0)


class TestDenseKernelState:
    def test_block_ops_match_vertex_ops(self, instance):
        p = 4
        a = DenseKernelState.empty(instance.num_edges, p)
        b = DenseKernelState.empty(instance.num_edges, p)
        rng = np.random.default_rng(1)
        parts = rng.integers(p, size=60)
        for v in range(60):
            a.place(instance.edges_of(v), int(parts[v]), 1.0)
            b.place(instance.edges_of(v), int(parts[v]), 1.0)
        block = next(iter(InMemorySource(instance, block_size=60).blocks()))
        # batch lift == per-vertex remove
        a.lift_block(
            block.vertex_edges, block.vertex_ptr, parts.astype(np.int64),
            block.vertex_weights,
        )
        for v in range(60):
            b.remove(instance.edges_of(v), int(parts[v]), 1.0)
        assert np.array_equal(a.edge_counts, b.edge_counts)
        assert np.allclose(a.loads, b.loads)
        # batch insert == per-vertex place (loads live in kernel, so the
        # helper updates counts only)
        a.insert_block(block.vertex_edges, block.vertex_ptr, parts.astype(np.int64))
        for v in range(60):
            b.place(instance.edges_of(v), int(parts[v]), 1.0)
        assert np.array_equal(a.edge_counts, b.edge_counts)

    def test_gather_block_matches_gather(self, instance):
        p = 3
        state = DenseKernelState.empty(instance.num_edges, p)
        for v in range(100):
            state.place(instance.edges_of(v), v % p, 1.0)
        block = next(iter(InMemorySource(instance, block_size=50).blocks()))
        X = state.gather_block(block.vertex_edges, block.vertex_ptr)
        for i in range(block.num_vertices):
            assert np.array_equal(
                X[i].astype(np.float64), state.gather(block.edges_of(i))
            )

    @pytest.mark.parametrize("kind", ["dense", "bounded"])
    def test_move_back_restores_recorded_pass(self, instance, kind):
        """A restream pass then ``move_back`` leaves state and assignment
        exactly as they were when the pass was recorded."""
        p = 4
        if kind == "dense":
            state = DenseKernelState.empty(instance.num_edges, p)
        else:
            state = StreamingState(p, expected_loads=np.ones(p))

        def table():
            if kind == "dense":
                return state.edge_counts.copy()
            return state.export_table()[1]

        assignment = np.full(instance.num_vertices, -1, dtype=np.int64)
        blocks = list(InMemorySource(instance, block_size=64).blocks())
        scorer = HyperPRAWScorer(uniform_cost_matrix(p), 5.0, np.ones(p))
        pass_kernel(blocks, state, scorer, assignment, restream=False)
        best, counts, loads = assignment.copy(), table(), state.loads.copy()
        scorer = HyperPRAWScorer(uniform_cost_matrix(p), 0.01, np.ones(p))
        pass_kernel(blocks, state, scorer, assignment, restream=True)
        assert not np.array_equal(assignment, best)
        window = VertexBlock(
            ids=np.arange(instance.num_vertices, dtype=np.int64),
            vertex_ptr=instance.vertex_ptr,
            vertex_edges=instance.vertex_edges,
            vertex_weights=instance.vertex_weights,
        )
        move_back(state, window, assignment, best[window.ids])
        assert np.array_equal(assignment, best)
        assert np.array_equal(table(), counts)
        assert np.allclose(state.loads, loads)

    def test_rejects_non_contiguous_counts(self):
        counts = np.zeros((10, 4), dtype=np.int64)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            DenseKernelState(2, counts, np.zeros(2))


def _random_block(rng, num_edges: int, m: int, *, repeat: bool):
    """``(edges, ptr)`` of an ``m``-vertex block over random nets: past a
    single vertex every third one has no nets, and with ``repeat`` the
    last vertex with nets holds one of them twice."""
    degs = rng.integers(2, 7, size=m)
    if m > 1:
        degs[::3] = 0
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(degs, out=ptr[1:])
    edges = np.concatenate(
        [np.empty(0, np.int64)]
        + [rng.choice(num_edges, size=d, replace=False) for d in degs]
    )
    if repeat:
        i = int(np.flatnonzero(degs)[-1])
        edges[ptr[i + 1] - 1] = edges[ptr[i]]
    return edges, ptr


def _dense_state(instance, dtype, p: int = 5) -> DenseKernelState:
    """HyperPRAW's int32 round-robin state, or a place-only int64 one."""
    rng = np.random.default_rng(7)
    assignment = rng.integers(p, size=instance.num_vertices)
    if dtype == np.int32:
        state = DenseKernelState(
            p,
            edge_partition_counts(instance, assignment, p),
            np.zeros(p, dtype=np.float64),
        )
    else:
        state = DenseKernelState.empty(instance.num_edges, p)
        for v in range(instance.num_vertices):
            state.place(instance.edges_of(v), int(assignment[v]), 1.0)
    assert state.edge_counts.dtype == dtype
    return state


def _unique_scatter(state: DenseKernelState, edges, ptr, parts, sign: int) -> None:
    """The sort-and-merge scatter that ``DenseKernelState._scatter`` replaced."""
    keys = edges * state.num_parts + np.repeat(parts, np.diff(ptr))
    uniq, cnt = np.unique(keys, return_counts=True)
    state.edge_counts.reshape(-1)[uniq] += sign * cnt.astype(state.edge_counts.dtype)


class TestDenseBlockPath:
    """The incidence-product sum and the ``ufunc.at`` scatter against
    the reduceat, per-vertex and sort-based forms they replaced."""

    DTYPES = [np.int32, np.int64]
    SIZES = [1, 2, 40]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("repeat", [False, True])
    def test_segment_row_sum_matches_reduceat(self, dtype, m, repeat):
        rng = np.random.default_rng(m)
        table = rng.integers(0, 9, size=(30, 4)).astype(dtype)
        index, ptr = _random_block(rng, 30, m, repeat=repeat)
        got = segment_row_sum(table, index, ptr)
        want = segment_reduce(np.add, table[index], ptr)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert not got[np.diff(ptr) == 0].any()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", SIZES)
    def test_gather_block_rows_match_gather(self, instance, dtype, m):
        state = _dense_state(instance, dtype)
        rng = np.random.default_rng(m)
        edges, ptr = _random_block(rng, instance.num_edges, m, repeat=True)
        X = state.gather_block(edges, ptr)
        assert X.dtype == dtype
        for i in range(m):
            want = state.gather(edges[ptr[i] : ptr[i + 1]])
            assert np.array_equal(X[i].astype(np.float64), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", SIZES)
    def test_block_scatter_matches_vertex_ops(self, instance, dtype, m):
        """Distinct nets per vertex, as every real block has them: the
        per-vertex fancy-index update applies each net once."""
        a, b = _dense_state(instance, dtype), _dense_state(instance, dtype)
        rng = np.random.default_rng(m)
        edges, ptr = _random_block(rng, instance.num_edges, m, repeat=False)
        old = rng.integers(a.num_parts, size=m)
        new = rng.integers(a.num_parts, size=m)
        weights = rng.integers(1, 4, size=m).astype(np.float64)
        for i in range(m):  # the block sits on ``old`` first
            a.place(edges[ptr[i] : ptr[i + 1]], int(old[i]), weights[i])
            b.place(edges[ptr[i] : ptr[i + 1]], int(old[i]), weights[i])
        a.lift_block(edges, ptr, old, weights)
        a.insert_block(edges, ptr, new)
        a.loads += np.bincount(new, weights=weights, minlength=a.num_parts)
        for i in range(m):
            b.remove(edges[ptr[i] : ptr[i + 1]], int(old[i]), weights[i])
            b.place(edges[ptr[i] : ptr[i + 1]], int(new[i]), weights[i])
        assert np.array_equal(a.edge_counts, b.edge_counts)
        assert np.array_equal(a.loads, b.loads)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", SIZES)
    def test_block_scatter_matches_unique_scatter(self, instance, dtype, m):
        a, b = _dense_state(instance, dtype), _dense_state(instance, dtype)
        rng = np.random.default_rng(m)
        edges, ptr = _random_block(rng, instance.num_edges, m, repeat=True)
        old = rng.integers(a.num_parts, size=m)
        new = rng.integers(a.num_parts, size=m)
        a.lift_block(edges, ptr, old, np.ones(m))
        a.insert_block(edges, ptr, new)
        _unique_scatter(b, edges, ptr, old, -1)
        _unique_scatter(b, edges, ptr, new, +1)
        assert a.edge_counts.dtype == dtype
        assert np.array_equal(a.edge_counts, b.edge_counts)


class TestKernel:
    def test_chunk_mode_equals_vertex_mode_when_exact(self, instance):
        """With block_size=1 there is no staleness: chunk == vertex."""
        p = 4
        C = uniform_cost_matrix(p)
        results = []
        for mode, size in (("vertex", None), ("chunk", 1)):
            state = DenseKernelState.empty(instance.num_edges, p)
            assignment = np.full(instance.num_vertices, -1, dtype=np.int64)
            pass_kernel(
                InMemorySource(instance, block_size=size).blocks(),
                state,
                HyperPRAWScorer(C, 1.0, np.full(p, instance.num_vertices / p)),
                assignment,
                restream=False,
                score_mode=mode,
            )
            results.append(assignment)
        assert np.array_equal(results[0], results[1])

    def test_fennel_chunked_is_valid_and_bounded(self, mesh_instance):
        from repro.core.metrics import evaluate_partition

        p = 4
        C = uniform_cost_matrix(p)
        exact = _fennel().partition(mesh_instance, p)
        chunked = _fennel(score_mode="chunk", chunk_size=64).partition(
            mesh_instance, p
        )
        q_exact = evaluate_partition(mesh_instance, exact.assignment, p, C)
        q_chunk = evaluate_partition(mesh_instance, chunked.assignment, p, C)
        assert (chunked.assignment >= 0).all()
        assert q_chunk.pc_cost <= q_exact.pc_cost * 1.5
        assert q_chunk.imbalance <= 1.2 + 1e-9

    def test_cap_masks_full_partitions(self):
        values = np.array([5.0, 1.0, 3.0])
        loads = np.array([10.0, 0.0, 2.0])
        from repro.engine import apply_balance_cap

        apply_balance_cap(values, loads, 1.0, cap=5.0)
        assert values[0] == -np.inf
        assert values[1] == 1.0
        # all-full fallback: only the emptiest survives
        values = np.array([5.0, 1.0, 3.0])
        loads = np.array([10.0, 6.0, 8.0])
        apply_balance_cap(values, loads, 1.0, cap=5.0)
        assert values[1] == 1.0
        assert values[0] == -np.inf and values[2] == -np.inf

    def test_rejects_bad_score_mode(self, instance):
        with pytest.raises(ValueError, match="score_mode"):
            pass_kernel(
                (),
                DenseKernelState.empty(1, 2),
                FennelScorer(1.0, 1.5),
                np.zeros(1, dtype=np.int64),
                score_mode="wat",
            )


class TestParallelHelpers:
    def test_run_tasks_sequential_and_forked(self):
        tasks = [lambda k=k: k * k for k in range(4)]
        assert run_tasks(tasks, 1) == ([0, 1, 4, 9], "sequential")
        forked = "forked" if fork_available() else "sequential"
        assert run_tasks(tasks, 4) == ([0, 1, 4, 9], forked)
        assert run_tasks(tasks[:1], 4) == ([0], "sequential")

    def test_run_tasks_propagates_worker_failure(self):
        def boom():
            raise RuntimeError("shard exploded")

        with pytest.raises(RuntimeError, match="worker failed"):
            run_tasks([boom, lambda: 1], 2)

    def test_merge_shard_tables(self):
        t1 = (np.array([0, 2, 5]), np.array([[1, 0], [2, 1], [0, 3]]))
        t2 = (np.array([2, 7]), np.array([[1, 1], [4, 0]]))
        edges, counts, boundary = merge_shard_tables([t1, t2], 2)
        assert edges.tolist() == [0, 2, 5, 7]
        assert counts.tolist() == [[1, 0], [3, 2], [0, 3], [4, 0]]
        assert boundary.tolist() == [2]

    def test_merge_empty(self):
        edges, counts, boundary = merge_shard_tables([], 3)
        assert edges.size == 0 and counts.shape == (0, 3) and boundary.size == 0


class TestScorerEquivalence:
    """The kernel scorers agree with the reference value functions."""

    def test_hyperpraw_scorer_matches_assignment_values(self, instance):
        from repro.core.value import assignment_values

        p = 6
        rng = np.random.default_rng(3)
        C = uniform_cost_matrix(p)
        loads = rng.uniform(1, 10, p)
        expected = np.full(p, 5.0)
        X = rng.integers(0, 9, p).astype(np.float64)
        scorer = HyperPRAWScorer(C, 2.5, expected, presence_threshold=1)
        out = np.empty(p)
        scorer.vertex_values(X, loads, out)
        ref = assignment_values(X, C, loads, expected, 2.5)
        assert np.allclose(out, ref)

    def test_block_terms_match_vertex_terms(self):
        p = 4
        rng = np.random.default_rng(4)
        C = rng.uniform(0, 2, (p, p))
        np.fill_diagonal(C, 0.0)
        C = (C + C.T) / 2
        scorer = HyperPRAWScorer(C, 1.0, np.ones(p), presence_threshold=2)
        X = rng.integers(0, 5, (7, p)).astype(np.float64)
        M = scorer.block_terms(X)
        loads = np.zeros(p)
        out = np.empty(p)
        for i in range(7):
            scorer.vertex_values(X[i], loads, out)
            assert np.allclose(M[i], out)


def _run_vertex_kernel(instance, scorer_kind, restream, cap, kernel):
    """One vertex-mode pass with a chosen kernel; returns mode/out/state."""
    p = 4
    n = instance.num_vertices
    state = DenseKernelState.empty(instance.num_edges, p)
    assignment = np.full(n, -1, dtype=np.int64)
    if restream:
        rng = np.random.default_rng(5)
        assignment[:] = rng.integers(p, size=n)
        for v in range(n):
            state.place(instance.edges_of(v), int(assignment[v]), 1.0)
    if scorer_kind == "eq1":
        scorer = HyperPRAWScorer(
            uniform_cost_matrix(p), 1.7, np.full(p, n / p), presence_threshold=1
        )
    else:
        scorer = FennelScorer(1.2, 1.5)
    mode = pass_kernel(
        InMemorySource(instance, block_size=37).blocks(),
        state,
        scorer,
        assignment,
        restream=restream,
        score_mode="vertex",
        cap=cap,
        kernel=kernel,
    )
    return mode, assignment, state


class TestKernelModes:
    """The kernel= knob: njit bit-identity, fallback, observability.

    The bit-identity suite runs only where numba is installed (the CI
    ``numba`` job); the fallback and metadata tests run everywhere.
    Note the seed-state goldens above run with the default
    ``kernel="auto"``, so on a numba box they *also* pin that the
    compiled kernel reproduces the historical assignments byte for
    byte.
    """

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    @pytest.mark.parametrize("scorer_kind", ["eq1", "fennel"])
    @pytest.mark.parametrize("restream", [False, True])
    @pytest.mark.parametrize("capped", [False, True])
    def test_njit_bit_identical_to_python(
        self, instance, scorer_kind, restream, capped
    ):
        cap = 1.05 * instance.num_vertices / 4 if capped else None
        m_py, a_py, s_py = _run_vertex_kernel(
            instance, scorer_kind, restream, cap, "python"
        )
        m_nj, a_nj, s_nj = _run_vertex_kernel(
            instance, scorer_kind, restream, cap, "njit"
        )
        assert (m_py, m_nj) == ("python", "njit")
        assert _digest(a_py) == _digest(a_nj)
        assert np.array_equal(s_py.edge_counts, s_nj.edge_counts)
        # bitwise float equality, not allclose: same op order is the claim
        assert np.array_equal(s_py.loads, s_nj.loads)

    def test_explicit_njit_on_lru_table_warns_and_falls_back(self, instance):
        """The capped StreamingState always runs python; explicit njit
        says so once."""
        streamer = OnePassStreamer(
            chunk_size=32, kernel="njit", max_tracked_edges=instance.num_edges // 2
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            r = streamer.partition(instance, 4)
        assert r.metadata["kernel_mode"] == "python"

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_uncapped_streams_run_the_compiled_kernel(self, instance):
        """Uncapped vertex-mode streams place into the dense table, so
        ``kernel="auto"`` compiles them, with the python path's answer."""
        for make in (
            lambda kernel: OnePassStreamer(chunk_size=32, kernel=kernel),
            lambda kernel: BufferedRestreamer(
                HyperPRAWConfig(record_history=False, kernel=kernel),
                buffer_size=64,
            ),
        ):
            auto = make("auto").partition(instance, 4)
            python = make("python").partition(instance, 4)
            assert auto.metadata["kernel_mode"] == "njit"
            assert python.metadata["kernel_mode"] == "python"
            assert _digest(auto.assignment) == _digest(python.assignment)

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_njit_without_numba_warns_and_falls_back(self, instance):
        cfg = HyperPRAWConfig(record_history=False, kernel="njit")
        with pytest.warns(RuntimeWarning, match="numba is not installed"):
            r = HyperPRAW(cfg).partition(instance, 4)
        assert r.metadata["kernel_mode"] == "python"
        # and the fallback is the exact python-path assignment
        explicit = HyperPRAW(
            HyperPRAWConfig(record_history=False, kernel="python")
        ).partition(instance, 4)
        assert np.array_equal(r.assignment, explicit.assignment)

    def test_kernel_metadata_surfaced(self, instance):
        r = HyperPRAW(HyperPRAWConfig(record_history=False)).partition(
            instance, 4
        )
        assert r.metadata["kernel_mode"] in ("python", "njit")
        assert r.metadata["pass_seconds"] > 0.0
        # uncapped vertex-mode streams compile under kernel="auto"
        streamed = "njit" if NUMBA_AVAILABLE else "python"
        r2 = OnePassStreamer(chunk_size=32).partition(instance, 4)
        assert r2.metadata["kernel_mode"] == streamed
        assert r2.metadata["pass_seconds"] >= 0.0
        r3 = BufferedRestreamer(
            HyperPRAWConfig(record_history=False), buffer_size=64
        ).partition(instance, 4)
        assert r3.metadata["kernel_mode"] == streamed
        assert r3.metadata["pass_seconds"] > 0.0

    def test_invalid_kernel_rejected_everywhere(self, instance):
        with pytest.raises(ValueError, match="kernel"):
            HyperPRAWConfig(kernel="wat")
        with pytest.raises(ValueError, match="kernel"):
            OnePassStreamer(kernel="wat")
        with pytest.raises(ValueError, match="kernel"):
            pass_kernel(
                (),
                DenseKernelState.empty(1, 2),
                FennelScorer(1.0, 1.5),
                np.zeros(1, dtype=np.int64),
                kernel="wat",
            )

    def test_chunked_restream_matches_chunked_inmemory(self, mesh_instance):
        """Unbounded-buffer chunk restream == chunked in-memory HyperPRAW.

        The chunk-restream anchor: scores freeze at sub-block start in
        both, loads update identically, so the streamed path must land
        on the in-memory chunked assignment bit for bit.
        """
        cfg = HyperPRAWConfig(
            record_history=False, chunk_size=64, max_iterations=15
        )
        anchor = HyperPRAW(cfg).partition(mesh_instance, 4)
        streamed = BufferedRestreamer(cfg, buffer_size=None).partition(
            mesh_instance, 4
        )
        assert np.array_equal(anchor.assignment, streamed.assignment)
        assert streamed.metadata["score_mode"] == "chunk"

    def test_cap_out_and_scratch_buffers_preserve_semantics(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=8)
        loads = rng.uniform(0, 10, 8)
        expected = values.copy()
        apply_balance_cap(expected, loads, 0.7, cap=6.0)
        got = values.copy()
        out = np.empty(8, dtype=bool)
        scratch = np.empty(8)
        apply_balance_cap(got, loads, 0.7, cap=6.0, out=out, scratch=scratch)
        assert np.array_equal(got, expected)
        assert np.array_equal(out, np.isneginf(got))
