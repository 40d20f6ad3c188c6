"""Tests for the out-of-core chunked readers (repro.streaming.reader).

The load-bearing property: chunked reads concatenate to *exactly* what the
in-memory readers produce — same structure, same weights, same strict
validation errors — while never holding the full pin array in memory.
"""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.hypergraph.io import (
    HypergraphFormatError,
    read_hmetis,
    read_matrix_market,
    read_patoh,
    write_hmetis,
)
from repro.hypergraph.model import Hypergraph
from repro.hypergraph.suite import load_instance
from repro.streaming import (
    HypergraphChunkStream,
    assemble,
    stream_hmetis,
    stream_matrix_market,
)


@pytest.fixture
def weighted_hypergraph():
    return Hypergraph(
        4,
        [[0, 1], [1, 2, 3], [0, 3]],
        vertex_weights=[1, 2, 3, 4],
        edge_weights=[10, 20, 30],
        name="weighted",
    )


def _assert_stream_matches(stream, reference):
    back = assemble(stream)
    assert back == reference
    assert back.name == reference.name
    assert np.array_equal(back.vertex_weights, reference.vertex_weights)
    assert np.array_equal(back.edge_weights, reference.edge_weights)


class TestHmetisStream:
    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 10_000])
    def test_concatenates_to_read_hmetis(self, tiny_hypergraph, tmp_path, chunk_size):
        path = tmp_path / "tiny.hgr"
        write_hmetis(tiny_hypergraph, path)
        _assert_stream_matches(
            stream_hmetis(path, chunk_size=chunk_size), tiny_hypergraph
        )

    def test_weighted_fmt11(self, weighted_hypergraph, tmp_path):
        path = tmp_path / "weighted.hgr"
        write_hmetis(weighted_hypergraph, path, write_weights=True)
        _assert_stream_matches(stream_hmetis(path, chunk_size=2), weighted_hypergraph)

    def test_fmt1_edge_weights_only(self, tmp_path):
        path = tmp_path / "ew.hgr"
        path.write_text("2 3 1\n9 1 2\n4 2 3\n")
        stream = stream_hmetis(path, chunk_size=2)
        assert stream.edge_weights.tolist() == [9.0, 4.0]
        _assert_stream_matches(
            stream, Hypergraph(3, [[0, 1], [1, 2]], edge_weights=[9, 4], name="ew")
        )

    def test_fmt10_vertex_weights_only(self, tmp_path):
        path = tmp_path / "vw.hgr"
        path.write_text("2 3 10\n1 2\n2 3\n5\n6\n7\n")
        stream = stream_hmetis(path, chunk_size=2)
        assert stream.vertex_weights.tolist() == [5.0, 6.0, 7.0]
        assert stream.total_vertex_weight == 18.0
        _assert_stream_matches(
            stream,
            Hypergraph(3, [[0, 1], [1, 2]], vertex_weights=[5, 6, 7], name="vw"),
        )

    def test_comments_and_duplicate_pins(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("% header comment\n2 4\n1 2 2 1\n% mid comment\n3 4\n")
        _assert_stream_matches(
            stream_hmetis(path, chunk_size=3),
            Hypergraph(4, [[0, 1], [2, 3]], name="c"),
        )

    def test_fractional_edge_weights_roundtrip(self, tmp_path):
        # write_hmetis emits non-integral weights as floats; both readers
        # must round-trip the library's own output
        hg = Hypergraph(3, [[0, 1], [1, 2]], edge_weights=[1.5, 2.25], name="frac")
        path = tmp_path / "frac.hgr"
        write_hmetis(hg, path, write_weights=True)
        assert read_hmetis(path).edge_weights.tolist() == [1.5, 2.25]
        _assert_stream_matches(stream_hmetis(path, chunk_size=2), hg)

    def test_bad_edge_weight_token(self, tmp_path):
        path = tmp_path / "badw.hgr"
        path.write_text("1 3 1\nx 1 2\n")
        with pytest.raises(HypergraphFormatError, match="hyperedge weight"):
            stream_hmetis(path)
        with pytest.raises(HypergraphFormatError, match="hyperedge weight"):
            read_hmetis(path)

    def test_suite_instance_roundtrip(self, small_random, tmp_path):
        path = tmp_path / "inst.hgr"
        write_hmetis(small_random, path)
        _assert_stream_matches(
            stream_hmetis(
                path, chunk_size=50, buffer_pins=128, name=small_random.name
            ),
            small_random,
        )

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty"),
            ("1\n1 2\n", "header"),
            ("2 3\n1 2\n", "expected 2 hyperedge"),
            ("1 3\n1 9\n", "pin outside"),
            ("1 3 7\n1 2\n", "unknown fmt"),
            ("1 3\nx y\n", "non-integer"),
            ("1 3 1\n5\n", "weighted hyperedge"),
            ("2 3 10\n1 2\n2 3\n5\n", "vertex-weight"),
            ("-1 3\n1 2\n", "num_edges must be >= 0"),
        ],
    )
    def test_malformed_raises_like_read_hmetis(self, tmp_path, text, match):
        path = tmp_path / "bad.hgr"
        path.write_text(text)
        with pytest.raises(HypergraphFormatError, match=match):
            stream_hmetis(path)
        with pytest.raises(HypergraphFormatError, match=match):
            read_hmetis(path)

    def test_reiterable(self, tiny_hypergraph, tmp_path):
        path = tmp_path / "h.hgr"
        write_hmetis(tiny_hypergraph, path)
        stream = stream_hmetis(path, chunk_size=2)
        first = [c.vertex_edges.tolist() for c in stream]
        second = [c.vertex_edges.tolist() for c in stream]
        assert first == second

    def test_closed_stream_raises(self, tiny_hypergraph, tmp_path):
        path = tmp_path / "h.hgr"
        write_hmetis(tiny_hypergraph, path)
        stream = stream_hmetis(path)
        stream.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(stream)


class TestSpillCleanupOnError:
    """A parser raising mid-ingest must not leak the spill directory."""

    def _spill_dirs(self, root):
        return [d for d in root.iterdir() if d.name.startswith("repro-stream-")]

    def test_hmetis_failure_cleans_spill(self, tmp_path, monkeypatch):
        spill_root = tmp_path / "spill"
        spill_root.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(spill_root))
        path = tmp_path / "bad.hgr"
        # valid header, one good edge line, then a malformed pin: the
        # spill store exists (and holds pins) by the time the parser dies
        path.write_text("2 9\n1 2 3\n4 x\n")
        with pytest.raises(HypergraphFormatError):
            stream_hmetis(path, buffer_pins=1)
        assert self._spill_dirs(spill_root) == []

    def test_matrix_market_failure_cleans_spill(self, tmp_path, monkeypatch):
        spill_root = tmp_path / "spill"
        spill_root.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(spill_root))
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 3\n1 1 1\n2 2 1\n9 9 1\n"  # third entry out of range
        )
        with pytest.raises(HypergraphFormatError):
            stream_matrix_market(path, buffer_pins=1)
        assert self._spill_dirs(spill_root) == []


class TestMatrixMarketStream:
    def _roundtrip(self, matrix, tmp_path, chunk_size=5, **mm_kwargs):
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), matrix, **mm_kwargs)
        for model in ("row-net", "column-net"):
            ref = read_matrix_market(path, model=model)
            _assert_stream_matches(
                stream_matrix_market(path, model=model, chunk_size=chunk_size), ref
            )

    def test_general(self, tmp_path):
        self._roundtrip(sp.random(9, 13, density=0.25, random_state=0), tmp_path)

    def test_symmetric(self, tmp_path):
        m = sp.random(11, 11, density=0.2, random_state=1)
        self._roundtrip((m + m.T).tocoo(), tmp_path, symmetry="symmetric")

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 4 5\n1 1\n1 3\n2 2\n3 1\n3 4\n"
        )
        _assert_stream_matches(
            stream_matrix_market(path, chunk_size=2), read_matrix_market(path)
        )

    def test_empty_rows_dropped_with_renumbering(self, tmp_path):
        # row 2 of 4 is all-zero: from_sparse drops and renumbers nets.
        m = sp.coo_array(
            (np.ones(4), ([0, 0, 2, 3], [0, 2, 1, 2])), shape=(4, 3)
        )
        self._roundtrip(m, tmp_path, chunk_size=1)

    def test_duplicate_entries_counted_once(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 1.0\n1 1 2.0\n2 1 1.0\n2 2 1.0\n"
        )
        stream = stream_matrix_market(path, chunk_size=1)
        ref = read_matrix_market(path)
        assert stream.num_pins == ref.num_pins == 3
        _assert_stream_matches(stream, ref)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("not a banner\n1 1 0\n", "banner"),
            ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n", "coordinate"),
            ("%%MatrixMarket matrix coordinate real general\n", "size line"),
            ("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n", "size line"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", "expected 2 entries"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n", "outside"),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n", "more than"),
            ("%%MatrixMarket matrix coordinate real wat\n1 1 1\n1 1 1\n", "symmetry"),
            ("%%MatrixMarket matrix coordinate real general\n-2 3 1\n1 1\n", "negative"),
            ("%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 2\n", "square"),
        ],
    )
    def test_malformed_raises(self, tmp_path, text, match):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(HypergraphFormatError, match=match):
            stream_matrix_market(path)


class TestMemoryBound:
    """The out-of-core claim: the full pin array is never materialised."""

    def test_counting_reader_bounds_resident_pins(self, tmp_path):
        hg = load_instance("sparsine", scale=0.5)
        path = tmp_path / "big.hgr"
        write_hmetis(hg, path)
        chunk_size, buffer_pins = 64, 512
        stream = stream_hmetis(path, chunk_size=chunk_size, buffer_pins=buffer_pins)
        # Counting reader: walk every chunk, tracking the largest pin
        # population handed out at once.
        max_chunk_pins = 0
        total = 0
        for chunk in stream:
            max_chunk_pins = max(max_chunk_pins, chunk.num_pins)
            total += chunk.num_pins
        assert total == hg.num_pins  # nothing lost ...
        # ... yet no single resident structure approached the full array:
        assert max_chunk_pins < hg.num_pins / 4
        assert stream.peak_resident_pins <= buffer_pins + max_chunk_pins
        assert stream.peak_resident_pins < hg.num_pins / 4

    def test_partition_under_memory_bound(self, tmp_path):
        """A suite instance is partitioned end-to-end under the bound."""
        from repro.streaming import OnePassStreamer

        hg = load_instance("sparsine", scale=0.5)
        path = tmp_path / "big.hgr"
        write_hmetis(hg, path)
        stream = stream_hmetis(path, chunk_size=64, buffer_pins=512)
        result = OnePassStreamer().partition_stream(stream, 8)
        assert result.assignment.size == hg.num_vertices
        assert (result.assignment >= 0).all()
        assert stream.peak_resident_pins < hg.num_pins / 4
        assert result.metadata["peak_resident_pins"] == stream.peak_resident_pins


class TestPinBudget:
    """Pin-budgeted chunk boundaries (ROADMAP item (e)): the resident
    bound is cut by pins, not vertices, so hub-dominated vertex ranges
    split into many small chunks."""

    def test_hmetis_pin_budget_bounds_chunks(self, tmp_path):
        hg = load_instance("stream_powerlaw_xl", scale=0.05)
        path = tmp_path / "hub.hgr"
        write_hmetis(hg, path)
        budget = max(64, hg.num_pins // 40)
        unbudgeted = stream_hmetis(path, chunk_size=256)
        budgeted = stream_hmetis(path, chunk_size=256, pin_budget=budget)
        plain_max = max(c.num_pins for c in unbudgeted)
        budget_max = 0
        total = 0
        for chunk in budgeted:
            budget_max = max(budget_max, chunk.num_pins)
            total += chunk.num_pins
        assert total == hg.num_pins  # nothing lost
        # a chunk may exceed the budget only through one irreducible
        # storage bucket (a hub vertex's own pins)
        bucket_max = int(budgeted._spill.pins_per_chunk.max())
        assert budget_max <= max(budget, bucket_max)
        assert budget_max < plain_max  # the hub chunk actually split
        assert budgeted.num_chunks > unbudgeted.num_chunks

    def test_budgeted_stream_assembles_identically(self, tmp_path):
        hg = load_instance("sparsine", scale=0.3)
        path = tmp_path / "s.hgr"
        write_hmetis(hg, path)
        _assert_stream_matches(
            stream_hmetis(path, chunk_size=64, pin_budget=100, name=hg.name), hg
        )

    def test_budgeted_matrix_market_assembles_identically(self, tmp_path):
        m = sp.random(40, 30, density=0.2, random_state=5)
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), m)
        ref = read_matrix_market(path)
        _assert_stream_matches(
            stream_matrix_market(path, chunk_size=16, pin_budget=32), ref
        )

    def test_in_memory_pin_budget(self):
        hg = load_instance("stream_powerlaw_xl", scale=0.05)
        stream = HypergraphChunkStream(hg, 256, pin_budget=128)
        max_deg = int((hg.vertex_ptr[1:] - hg.vertex_ptr[:-1]).max())
        chunks = list(stream)
        assert sum(c.num_pins for c in chunks) == hg.num_pins
        assert max(c.num_pins for c in chunks) <= max(128, max_deg)
        assert assemble(HypergraphChunkStream(hg, 256, pin_budget=128)) == hg

    def test_chunk_bounds_consistent_with_iteration(self, tmp_path):
        hg = load_instance("sparsine", scale=0.2)
        path = tmp_path / "s.hgr"
        write_hmetis(hg, path)
        stream = stream_hmetis(path, chunk_size=64, pin_budget=80)
        for c, chunk in enumerate(stream):
            start, stop = stream.chunk_bounds(c)
            assert np.array_equal(chunk.ids, np.arange(start, stop))
        assert stream.chunk_bounds(stream.num_chunks - 1)[1] == hg.num_vertices

    def test_iter_range_matches_full_iteration(self, tmp_path):
        hg = load_instance("sparsine", scale=0.2)
        path = tmp_path / "s.hgr"
        write_hmetis(hg, path)
        stream = stream_hmetis(path, chunk_size=32)
        full = [c.vertex_edges.tolist() for c in stream]
        lo, hi = 2, stream.num_chunks - 1
        part = [c.vertex_edges.tolist() for c in stream.iter_range(lo, hi)]
        assert part == full[lo:hi]

    def test_rejects_bad_budget(self, tmp_path):
        path = tmp_path / "t.hgr"
        path.write_text("1 2\n1 2\n")
        with pytest.raises(ValueError, match="pin_budget"):
            stream_hmetis(path, pin_budget=0)


class TestHypergraphChunkStream:
    def test_views_cover_hypergraph(self, tiny_hypergraph):
        stream = HypergraphChunkStream(tiny_hypergraph, chunk_size=4)
        back = assemble(stream)
        assert back == tiny_hypergraph

    def test_chunk_shapes(self, tiny_hypergraph):
        stream = HypergraphChunkStream(tiny_hypergraph, chunk_size=4)
        chunks = list(stream)
        assert [c.num_vertices for c in chunks] == [4, 2]
        assert chunks[0].ids[0] == 0 and chunks[1].ids[0] == 4
        assert sum(c.num_pins for c in chunks) == tiny_hypergraph.num_pins


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    num_edges = draw(st.integers(min_value=0, max_value=12))
    edges = []
    for _ in range(num_edges):
        size = draw(st.integers(min_value=1, max_value=min(5, n)))
        edges.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                )
            )
        )
    return Hypergraph(n, edges)


@settings(max_examples=40, deadline=None)
@given(hg=small_hypergraphs(), chunk_size=st.integers(min_value=1, max_value=8))
def test_stream_read_equivalence_property(hg, chunk_size, tmp_path_factory):
    """Any hypergraph: write -> stream -> assemble gives it back."""
    path = tmp_path_factory.mktemp("prop") / "h.hgr"
    write_hmetis(hg, path)
    stream = stream_hmetis(path, chunk_size=chunk_size, buffer_pins=7)
    assert assemble(stream) == hg


class TestByteSources:
    """The file-object / byte-iterable entry point (service data path).

    Whatever shape the bytes arrive in — a path, an open text or binary
    file, one ``bytes`` blob, or an iterator of arbitrarily-split blocks
    (an HTTP request body) — the stream must be identical to the
    path-fed reference, with the same strict validation.
    """

    def _sources(self, raw):
        yield "bytes", raw
        yield "blocks", (raw[i : i + 7] for i in range(0, len(raw), 7))
        yield "empty-blocks", iter([b"", raw[:10], b"", raw[10:], b""])

    def test_hmetis_all_sources_match_path(self, tiny_hypergraph, tmp_path):
        path = tmp_path / "h.hgr"
        write_hmetis(tiny_hypergraph, path)
        raw = path.read_bytes()
        ref = tiny_hypergraph
        for label, source in self._sources(raw):
            got = assemble(stream_hmetis(source, chunk_size=2))
            assert got == ref, label
        with open(path, "rb") as fh:
            assert assemble(stream_hmetis(fh, chunk_size=2)) == ref
            assert not fh.closed, "caller-owned file must stay open"
        with open(path, "r") as fh:
            assert assemble(stream_hmetis(fh, chunk_size=2)) == ref
            assert not fh.closed

    def test_matrix_market_from_blocks(self, tmp_path):
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), sp.random(9, 13, density=0.25, random_state=0))
        raw = path.read_bytes()
        ref = read_matrix_market(path)
        blocks = (raw[i : i + 11] for i in range(0, len(raw), 11))
        got = assemble(stream_matrix_market(blocks, chunk_size=3))
        assert got.num_vertices == ref.num_vertices
        assert got.num_pins == ref.num_pins
        assert np.array_equal(got.vertex_edges, ref.vertex_edges)

    def test_non_path_source_has_no_source_path(self, tiny_hypergraph, tmp_path):
        path = tmp_path / "h.hgr"
        write_hmetis(tiny_hypergraph, path)
        stream = stream_hmetis(path.read_bytes())
        assert stream.source_path is None
        assert stream.name == "stream"
        named = stream_hmetis(path.read_bytes(), name="upload-7")
        assert named.name == "upload-7"

    def test_malformed_bytes_raise_with_stream_label(self):
        with pytest.raises(HypergraphFormatError, match=r"<stream>"):
            stream_hmetis(b"not a header\n")
        with pytest.raises(HypergraphFormatError, match=r"<job-1>"):
            stream_hmetis(b"not a header\n", name="job-1")

    def test_rejects_unusable_source(self):
        with pytest.raises(TypeError, match="source must be"):
            stream_hmetis(12345)


class TestInvalidTextAndWeights:
    """Bytes that are not UTF-8 text and weights that are not finite
    positive numbers are format errors, never a crash or a NaN cost."""

    BAD_UTF8_HMETIS = b"1 2\n1 \xff2\n"
    BAD_UTF8_MTX = (
        b"%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 \xff1\n"
    )

    def test_hmetis_non_utf8(self, tmp_path):
        with pytest.raises(HypergraphFormatError, match="<stream>: not valid UTF-8"):
            stream_hmetis(self.BAD_UTF8_HMETIS)
        path = tmp_path / "bad.hgr"
        path.write_bytes(self.BAD_UTF8_HMETIS)
        with pytest.raises(HypergraphFormatError, match=f"{path}: not valid UTF-8"):
            read_hmetis(path)

    def test_matrix_market_non_utf8(self, tmp_path):
        with pytest.raises(HypergraphFormatError, match="<stream>: not valid UTF-8"):
            stream_matrix_market(self.BAD_UTF8_MTX)
        path = tmp_path / "bad.mtx"
        path.write_bytes(self.BAD_UTF8_MTX)
        with pytest.raises(HypergraphFormatError, match="not valid UTF-8"):
            stream_matrix_market(path)

    @pytest.mark.parametrize(
        "text,label",
        [
            ("1 3 1\nnan 1 2\n", "edge_weights"),
            ("1 3 1\ninf 1 2\n", "edge_weights"),
            ("1 3 1\n-inf 1 2\n", "edge_weights"),
            ("1 2 10\n1 2\nnan\n1\n", "vertex_weights"),
            ("1 2 10\n1 2\n1\ninf\n", "vertex_weights"),
        ],
    )
    def test_hmetis_non_finite_weights(self, tmp_path, text, label):
        match = f"{label} must be finite and strictly positive"
        with pytest.raises(HypergraphFormatError, match=match):
            stream_hmetis(text.encode())
        path = tmp_path / "w.hgr"
        path.write_text(text)
        with pytest.raises(HypergraphFormatError, match=match):
            read_hmetis(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hypergraph_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="vertex_weights must be finite"):
            Hypergraph(2, [[0, 1]], vertex_weights=[bad, 1.0])
        with pytest.raises(ValueError, match="edge_weights must be finite"):
            Hypergraph(2, [[0, 1]], edge_weights=[bad])


class TestReaderFuzz:
    """Every truncation and seeded byte replacements of a small valid
    file either parse or raise :class:`HypergraphFormatError`.

    Bytes are replaced, never inserted, and the files stay small: a
    corrupted header can then never declare a vertex count large enough
    to matter, since the readers allocate O(|V| + |E|) from the header.
    """

    # Two-digit header counts, so a replaced digit can make them negative.
    HMETIS = (
        b"10 12 11\n2 1 2 3\n1 3 4\n3 4 5 6\n1 1 6\n2 7 8\n1 8 9 10\n"
        b"4 10 11\n1 11 12\n2 12 1\n1 5 9\n"
        b"1\n2\n1\n3\n1\n2\n1\n1\n2\n1\n3\n1\n"
    )
    MTX = (
        b"%%MatrixMarket matrix coordinate real symmetric\n"
        b"% comment\n12 12 10\n1 1 1.0\n2 1 -2.5\n3 2 4\n4 4 1e-3\n"
        b"5 3 7\n7 5 2\n9 8 1\n10 10 3\n12 11 5\n12 6 1\n"
    )
    #: fmt 3: a weight leads each net, cell weights follow the nets.
    PATOH = (
        b"1 12 10 23 3\n2 1 2 3\n1 3 4\n3 4 5 6\n1 1 6\n2 7 8\n1 8 9 10\n"
        b"4 10 11\n1 11 12\n2 12 1\n1 5 9\n1 2 1 3 1 2\n1 1 2 1 3 1\n"
    )
    ALPHABET = b"-+.0123456789 \n%e"
    #: 20261028 found a negative row count and 20261048 a non-square
    #: symmetric matrix, both crashing the MatrixMarket reader.
    SEEDS = {"hmetis": (20261019,), "mtx": (20261028, 20261048), "patoh": (20261025,)}
    REPLACEMENTS = 300

    def _truncations(self, raw):
        for cut in range(len(raw)):
            yield f"truncated at {cut}", raw[:cut]

    def _replacements(self, raw, seed):
        rng = np.random.default_rng(seed)
        for i in range(self.REPLACEMENTS):
            data = bytearray(raw)
            for pos in rng.choice(len(raw), size=rng.integers(1, 4), replace=False):
                # half the bytes from the formats' own alphabet
                if rng.random() < 0.5:
                    data[pos] = self.ALPHABET[rng.integers(len(self.ALPHABET))]
                else:
                    data[pos] = int(rng.integers(0, 256))
            yield f"replacement {i} (seed {seed})", bytes(data)

    @pytest.mark.parametrize(
        "fmt,opener",
        [("hmetis", stream_hmetis), ("mtx", stream_matrix_market)],
        ids=["hmetis-stream_hmetis", "mtx-stream_matrix_market"],
    )
    def test_every_case_parses_or_raises_format_error(self, fmt, opener):
        raw = self.HMETIS if fmt == "hmetis" else self.MTX
        with opener(raw) as stream:  # the seed file itself is valid
            assert assemble(stream).num_pins > 0
        cases = list(self._truncations(raw))
        for seed in self.SEEDS[fmt]:
            cases += self._replacements(raw, seed)
        for label, data in cases:
            try:
                with opener(data, chunk_size=2, buffer_pins=3) as stream:
                    assemble(stream)
            except HypergraphFormatError:
                pass
            except Exception as exc:  # noqa: BLE001 — the fault under test
                pytest.fail(f"{fmt} {label}: {data!r} raised {exc!r}")

    def test_every_patoh_case_parses_or_raises_format_error(self, tmp_path):
        path = tmp_path / "fuzz.patoh"
        path.write_bytes(self.PATOH)  # the seed file itself is valid
        assert read_patoh(path).num_pins == 23
        cases = list(self._truncations(self.PATOH))
        for seed in self.SEEDS["patoh"]:
            cases += self._replacements(self.PATOH, seed)
        for label, data in cases:
            path.write_bytes(data)
            try:
                read_patoh(path)
            except HypergraphFormatError:
                pass
            except Exception as exc:  # noqa: BLE001 — the fault under test
                pytest.fail(f"patoh {label}: {data!r} raised {exc!r}")
