"""Tests for the persistent binary chunk store (repro.streaming.chunkstore).

The load-bearing property, golden-hash style as in tests/test_engine.py:
replaying a store must be *invisible* to every streaming partitioner —
store-fed assignments equal text-fed assignments digest-for-digest for
the one-pass streamer, the buffered restreamer and both sharded
variants.  Around that: structural round-trips (weights and pin-budgeted
chunk boundaries included), manifest-version and truncated-file
rejection, digest validation and the convert-once cache contract.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro.core import HyperPRAWConfig
from repro.hypergraph.io import read_hmetis, write_hmetis
from repro.hypergraph.suite import load_instance
from repro.streaming import (
    CHUNKSTORE_VERSION,
    BufferedRestreamer,
    ChunkStoreError,
    HypergraphChunkStream,
    OnePassStreamer,
    ShardedStreamer,
    assemble,
    cached_stream,
    open_store,
    source_digest,
    stream_hmetis,
)
from repro.streaming.chunkstore import DATA_NAME, MANIFEST_NAME, store_dir_for


def _digest(assignment: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


@pytest.fixture(scope="module")
def instance():
    return load_instance("sparsine", scale=0.2)


@pytest.fixture(scope="module")
def corpus(instance, tmp_path_factory):
    """``(hgr_path, store_path)`` for the module's shared instance."""
    tmp = tmp_path_factory.mktemp("store")
    path = tmp / "inst.hgr"
    write_hmetis(instance, path, write_weights=True)
    with stream_hmetis(path, chunk_size=64) as stream:
        store = stream.save(tmp / "inst.chunkstore")
    return path, store


class TestRoundTrip:
    def test_store_assembles_identically(self, corpus):
        path, store = corpus
        ref = read_hmetis(path)
        back = assemble(open_store(store))
        assert back == ref
        assert np.array_equal(back.vertex_weights, ref.vertex_weights)
        assert np.array_equal(back.edge_weights, ref.edge_weights)

    def test_manifest_metadata(self, corpus):
        path, store = corpus
        stream = open_store(store)
        assert stream.source_digest == source_digest(path)
        assert stream.chunk_size == 64
        assert stream.pin_budget is None
        assert stream.num_chunks == len(stream.manifest["chunks"])

    def test_pin_budgeted_boundaries_roundtrip(self, instance, tmp_path):
        path = tmp_path / "pb.hgr"
        write_hmetis(instance, path, write_weights=True)
        with stream_hmetis(path, chunk_size=64, pin_budget=100) as stream:
            bounds = [stream.chunk_bounds(c) for c in range(stream.num_chunks)]
            store = stream.save(tmp_path / "pb.chunkstore")
        replay = open_store(store)
        assert replay.pin_budget == 100
        assert [
            replay.chunk_bounds(c) for c in range(replay.num_chunks)
        ] == bounds
        assert assemble(replay) == read_hmetis(path)

    def test_save_in_memory_adapter(self, instance, tmp_path):
        store = HypergraphChunkStream(instance, 128).save(tmp_path / "mem")
        replay = open_store(store)
        assert replay.source_digest is None
        assert assemble(replay) == instance
        # an unknown-source store can never satisfy a digest check
        with pytest.raises(ChunkStoreError, match="digest"):
            open_store(store, expected_digest="sha256:deadbeef")

    def test_iter_range_matches_full(self, corpus):
        _, store = corpus
        stream = open_store(store)
        full = [c.vertex_edges.tolist() for c in stream]
        lo, hi = 1, stream.num_chunks - 1
        part = [c.vertex_edges.tolist() for c in stream.iter_range(lo, hi)]
        assert part == full[lo:hi]

    def test_reiterable_and_closeable(self, corpus):
        _, store = corpus
        stream = open_store(store)
        first = [c.vertex_edges.tolist() for c in stream]
        stream.close()  # drops the map; the next iteration reopens it
        second = [c.vertex_edges.tolist() for c in stream]
        assert first == second

    def test_replayed_blocks_are_plain_views_of_the_map(self, corpus):
        """Every replayed array is a base-class ``ndarray`` (no ``memmap``
        slicing cost per vertex) that shares the map's bytes: no copy."""
        _, store = corpus
        stream = open_store(store)
        data = stream._data()
        arrays = [stream.vertex_weights, stream.edge_weights]
        for block in stream:
            arrays += [block.vertex_ptr, block.vertex_edges, block.vertex_weights]
        for array in arrays:
            assert type(array) is np.ndarray
            assert not array.flags.owndata
            assert np.shares_memory(array, data)
        assert isinstance(data.base, np.memmap)


class TestPartitionerEquality:
    """Store replay is byte-identical to the text path (golden-hash style)."""

    def _both(self, corpus, make_partitioner, num_parts, seed=None):
        path, store = corpus
        with stream_hmetis(path, chunk_size=64) as text:
            from_text = make_partitioner().partition_stream(
                text, num_parts, seed=seed
            )
        from_store = make_partitioner().partition_stream(
            open_store(store), num_parts, seed=seed
        )
        return from_text, from_store

    def test_onepass(self, corpus):
        a, b = self._both(corpus, OnePassStreamer, 8)
        assert _digest(a.assignment) == _digest(b.assignment)

    def test_buffered(self, corpus):
        make = lambda: BufferedRestreamer(
            HyperPRAWConfig(record_history=False), buffer_size=50
        )
        a, b = self._both(corpus, make, 4)
        assert _digest(a.assignment) == _digest(b.assignment)

    def test_sharded_onepass(self, corpus):
        make = lambda: ShardedStreamer(OnePassStreamer(), workers=2)
        a, b = self._both(corpus, make, 4, seed=11)
        assert _digest(a.assignment) == _digest(b.assignment)

    def test_sharded_buffered(self, corpus):
        make = lambda: ShardedStreamer(
            BufferedRestreamer(
                HyperPRAWConfig(record_history=False), buffer_size=50
            ),
            workers=2,
        )
        a, b = self._both(corpus, make, 4, seed=11)
        assert _digest(a.assignment) == _digest(b.assignment)


class TestRejection:
    """Corrupt, stale or incompatible stores fail loudly, never misread."""

    def _copy_store(self, store, tmp_path):
        import shutil

        dst = tmp_path / "copy.chunkstore"
        shutil.copytree(store, dst)
        return dst

    def test_missing_store(self, tmp_path):
        with pytest.raises(ChunkStoreError, match="no chunk store"):
            open_store(tmp_path / "nowhere")

    def test_unknown_version_rejected(self, corpus, tmp_path):
        _, store = corpus
        dst = self._copy_store(store, tmp_path)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        manifest["version"] = CHUNKSTORE_VERSION + 1
        (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ChunkStoreError, match="version"):
            open_store(dst)

    def test_foreign_json_rejected(self, corpus, tmp_path):
        _, store = corpus
        dst = self._copy_store(store, tmp_path)
        (dst / MANIFEST_NAME).write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ChunkStoreError, match="manifest"):
            open_store(dst)

    def test_truncated_data_rejected(self, corpus, tmp_path):
        _, store = corpus
        dst = self._copy_store(store, tmp_path)
        data = dst / DATA_NAME
        raw = data.read_bytes()
        data.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ChunkStoreError, match="truncated|corrupt"):
            open_store(dst)

    def test_section_past_end_rejected(self, corpus, tmp_path):
        _, store = corpus
        dst = self._copy_store(store, tmp_path)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        manifest["chunks"][0]["edge_ids"]["offset"] = manifest["data_bytes"]
        (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ChunkStoreError, match="exceeds"):
            open_store(dst)

    def test_digest_mismatch_rejected(self, corpus):
        _, store = corpus
        with pytest.raises(ChunkStoreError, match="digest mismatch"):
            open_store(store, expected_digest="sha256:deadbeef")

    def test_missing_manifest_keys_rejected(self, corpus, tmp_path):
        _, store = corpus
        dst = self._copy_store(store, tmp_path)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        del manifest["data_bytes"]
        (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
        # same error family as truncation, so cached_stream can fall
        # back to reconverting instead of crashing with KeyError
        with pytest.raises(ChunkStoreError, match="malformed manifest"):
            open_store(dst)

    def test_resaved_store_keeps_digest(self, corpus, tmp_path):
        path, store = corpus
        resaved = open_store(store).save(tmp_path / "resaved.chunkstore")
        assert open_store(resaved).source_digest == source_digest(path)


class TestCachedStream:
    """Convert once, replay after — the CLI --cache contract."""

    def test_miss_then_hit(self, instance, tmp_path):
        path = tmp_path / "c.hgr"
        write_hmetis(instance, path, write_weights=True)
        cache = tmp_path / "cache"
        first, hit1 = cached_stream(
            path, cache, opener=stream_hmetis, chunk_size=64
        )
        second, hit2 = cached_stream(
            path, cache, opener=stream_hmetis, chunk_size=64
        )
        assert (hit1, hit2) == (False, True)
        assert assemble(second) == read_hmetis(path)

    def test_source_change_invalidates(self, instance, tmp_path):
        path = tmp_path / "c.hgr"
        write_hmetis(instance, path, write_weights=True)
        cache = tmp_path / "cache"
        cached_stream(path, cache, opener=stream_hmetis, chunk_size=64)
        path.write_text(path.read_text() + "% trailing comment\n")
        stream, hit = cached_stream(
            path, cache, opener=stream_hmetis, chunk_size=64
        )
        assert not hit
        assert stream.source_digest == source_digest(path)

    def test_chunking_change_invalidates(self, instance, tmp_path):
        path = tmp_path / "c.hgr"
        write_hmetis(instance, path, write_weights=True)
        cache = tmp_path / "cache"
        cached_stream(path, cache, opener=stream_hmetis, chunk_size=64)
        stream, hit = cached_stream(
            path, cache, opener=stream_hmetis, chunk_size=32
        )
        assert not hit
        assert stream.chunk_size == 32

    def test_corrupt_store_is_reconverted(self, instance, tmp_path):
        path = tmp_path / "c.hgr"
        write_hmetis(instance, path, write_weights=True)
        cache = tmp_path / "cache"
        cached_stream(path, cache, opener=stream_hmetis, chunk_size=64)
        manifest = store_dir_for(path, cache) / MANIFEST_NAME
        broken = json.loads(manifest.read_text())
        del broken["chunks"]
        manifest.write_text(json.dumps(broken))
        stream, hit = cached_stream(
            path, cache, opener=stream_hmetis, chunk_size=64
        )
        assert not hit
        assert assemble(stream) == read_hmetis(path)

    def test_tilde_cache_dir_expands(self, instance, tmp_path, monkeypatch):
        # a README-style "~/cache" must land under $HOME, not create a
        # literal "~" directory in the CWD
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.hgr"
        write_hmetis(instance, path, write_weights=True)
        cached_stream(path, "~/cache", opener=stream_hmetis, chunk_size=64)
        assert store_dir_for(path, tmp_path / "cache").is_dir()
        assert not (tmp_path / "~").exists()

    def test_same_basename_different_dirs_coexist(self, instance, tmp_path):
        # two sources sharing a filename must get distinct cache slots —
        # one slot would digest-mismatch and reconvert on every switch
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_hmetis(instance, a / "g.hgr", write_weights=True)
        write_hmetis(instance, b / "g.hgr")  # different bytes, same name
        cache = tmp_path / "cache"
        assert store_dir_for(a / "g.hgr", cache) != store_dir_for(
            b / "g.hgr", cache
        )
        for src in (a / "g.hgr", b / "g.hgr"):
            _, hit = cached_stream(src, cache, opener=stream_hmetis)
            assert not hit
        for src in (a / "g.hgr", b / "g.hgr"):
            _, hit = cached_stream(src, cache, opener=stream_hmetis)
            assert hit

    def test_hit_path_skips_rehashing(self, instance, tmp_path, monkeypatch):
        # an unchanged (size, mtime) fingerprint must short-circuit the
        # full-file sha256 — the whole point of replaying a huge source
        import repro.streaming.chunkstore as chunkstore

        path = tmp_path / "c.hgr"
        write_hmetis(instance, path, write_weights=True)
        cache = tmp_path / "cache"
        cached_stream(path, cache, opener=stream_hmetis, chunk_size=64)

        def boom(_):
            raise AssertionError("source was re-hashed on a fresh hit")

        monkeypatch.setattr(chunkstore, "source_digest", boom)
        stream, hit = cached_stream(
            path, cache, opener=stream_hmetis, chunk_size=64
        )
        assert hit
        assert assemble(stream) == read_hmetis(path)


class TestManifestTiling:
    """Seeded mutations of the manifest's chunk ranges are rejected at
    open, or replay exactly as before: no mis-tiled store reaches the
    partitioners."""

    MUTATIONS = 600

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tiling")
        path = tmp / "cubes.hgr"
        write_hmetis(load_instance("2cubes_sphere", scale=0.02), path)
        with stream_hmetis(path, chunk_size=64) as stream:
            return stream.save(tmp / "cubes.chunkstore")

    def _replay(self, store):
        with open_store(store) as stream:
            return [
                (c.ids.tolist(), c.vertex_ptr.tolist(), c.vertex_edges.tolist())
                for c in stream
            ], assemble(stream)

    def test_reversed_chunk_is_rejected(self, store, tmp_path):
        dst = tmp_path / "copy.chunkstore"
        shutil.copytree(store, dst)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        manifest["chunks"][0].update(start=90, stop=41)
        (dst / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ChunkStoreError, match="do not tile"):
            open_store(dst)

    def test_seeded_mutations_are_rejected_or_replay_identically(
        self, store, tmp_path
    ):
        dst = tmp_path / "copy.chunkstore"
        shutil.copytree(store, dst)
        manifest = json.loads((dst / MANIFEST_NAME).read_text())
        reference = self._replay(store)
        # Where the tiling lives: every chunk's range and its pointer
        # section's length, and the vertex count they must cover.
        leaves = [("num_vertices",)]
        for c in range(len(manifest["chunks"])):
            leaves += [("chunks", c, "start"), ("chunks", c, "stop")]
            leaves += [("chunks", c, "starts", "count")]
        rng = np.random.default_rng(20261025)
        rejected = 0
        for i in range(self.MUTATIONS):
            mutated = json.loads(json.dumps(manifest))
            for k in rng.choice(len(leaves), size=rng.integers(1, 3), replace=False):
                *parents, key = leaves[k]
                node = mutated
                for step in parents:
                    node = node[step]
                node[key] = int(max(0, node[key] + rng.integers(-70, 71)))
            (dst / MANIFEST_NAME).write_text(json.dumps(mutated))
            try:
                open_store(dst).close()
            except ChunkStoreError:
                rejected += 1
                continue
            chunks, hg = self._replay(dst)
            assert chunks == reference[0], f"mutation {i} replayed differently"
            assert hg == reference[1]
        assert rejected > self.MUTATIONS // 2
