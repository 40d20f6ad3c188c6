"""Tests for hypergraph file formats (hMetis, PaToH, MatrixMarket)."""

import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.hypergraph.io import (
    HypergraphFormatError,
    read_hmetis,
    read_matrix_market,
    read_patoh,
    write_hmetis,
    write_patoh,
)
from repro.hypergraph.model import Hypergraph


@pytest.fixture
def weighted_hypergraph():
    return Hypergraph(
        4,
        [[0, 1], [1, 2, 3], [0, 3]],
        vertex_weights=[1, 2, 3, 4],
        edge_weights=[10, 20, 30],
        name="weighted",
    )


class TestHmetis:
    def test_roundtrip_unweighted(self, tiny_hypergraph, tmp_path):
        path = tmp_path / "h.hmetis"
        write_hmetis(tiny_hypergraph, path)
        back = read_hmetis(path)
        assert back.num_vertices == tiny_hypergraph.num_vertices
        assert back.to_edge_list() == tiny_hypergraph.to_edge_list()

    def test_roundtrip_weighted(self, weighted_hypergraph, tmp_path):
        path = tmp_path / "w.hmetis"
        write_hmetis(weighted_hypergraph, path, write_weights=True)
        back = read_hmetis(path)
        assert np.array_equal(back.edge_weights, weighted_hypergraph.edge_weights)
        assert np.array_equal(back.vertex_weights, weighted_hypergraph.vertex_weights)

    def test_reads_reference_format(self, tmp_path):
        # The canonical hMetis example: 4 hyperedges over 7 vertices.
        text = "4 7\n1 2\n1 7 5 6\n5 6 4\n2 3 4\n"
        path = tmp_path / "ref.hgr"
        path.write_text(text)
        hg = read_hmetis(path)
        assert hg.num_edges == 4
        assert hg.num_vertices == 7
        assert hg.edge(1).tolist() == [0, 4, 5, 6]  # 1-based -> 0-based

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("% comment\n1 3\n% another\n1 2 3\n")
        hg = read_hmetis(path)
        assert hg.num_edges == 1

    def test_edge_weight_format(self, tmp_path):
        path = tmp_path / "ew.hgr"
        path.write_text("2 3 1\n9 1 2\n4 2 3\n")
        hg = read_hmetis(path)
        assert hg.edge_weights.tolist() == [9.0, 4.0]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty"),
            ("1\n1 2\n", "header"),
            ("2 3\n1 2\n", "expected 2 hyperedge"),
            ("1 3\n1 9\n", "pin outside"),
            ("1 3 7\n1 2\n", "unknown fmt"),
            ("1 3\nx y\n", "non-integer"),
        ],
    )
    def test_malformed_raises(self, tmp_path, text, match):
        path = tmp_path / "bad.hgr"
        path.write_text(text)
        with pytest.raises(HypergraphFormatError, match=match):
            read_hmetis(path)


class TestPatoh:
    def test_roundtrip(self, tiny_hypergraph, tmp_path):
        path = tmp_path / "h.patoh"
        write_patoh(tiny_hypergraph, path)
        back = read_patoh(path)
        assert back.to_edge_list() == tiny_hypergraph.to_edge_list()

    def test_one_based(self, tmp_path):
        path = tmp_path / "p1.patoh"
        path.write_text("1 3 2 4\n1 2\n2 3\n")
        hg = read_patoh(path)
        assert hg.edge(0).tolist() == [0, 1]
        assert hg.edge(1).tolist() == [1, 2]

    def test_pin_count_checked(self, tmp_path):
        path = tmp_path / "bad.patoh"
        path.write_text("0 3 2 5\n0 1\n1 2\n")
        with pytest.raises(HypergraphFormatError, match="pins"):
            read_patoh(path)

    def test_bad_base(self, tmp_path):
        path = tmp_path / "b.patoh"
        path.write_text("2 3 1 2\n0 1\n")
        with pytest.raises(HypergraphFormatError, match="base"):
            read_patoh(path)

    def test_weights(self, tmp_path):
        path = tmp_path / "w.patoh"
        path.write_text("0 3 2 4 3\n5 0 1\n7 1 2\n1.5 2\n3\n")
        hg = read_patoh(path)
        assert hg.edge_weights.tolist() == [5.0, 7.0]
        assert hg.vertex_weights.tolist() == [1.5, 2.0, 3.0]

    @pytest.mark.parametrize(
        "text,where",
        [
            ("0 3 one 2\n0 1\n", ":1: non-integer header"),
            ("0 3 1 2\n0 x\n", ":2: non-integer token in net line"),
            ("0 3 1 2 1\n0 1\n1 z 1\n", ":3: bad cell weight"),
            ("0 3 1 2 1\n0 1\n1\nnan 1\n", ":4: cell weights must be finite and positive"),
            ("0 3 1 2 2\n0 0 1\n", ":2: net weights must be strictly positive"),
            ("0 0 1 1\n0\n", ":1: header needs |V| >= 1"),
            ("0 3 1 2 7\n0 1\n", ":1: unknown fmt 7"),
        ],
    )
    def test_bad_input_is_a_format_error_naming_the_line(self, tmp_path, text, where):
        path = tmp_path / "bad.patoh"
        path.write_text(text)
        with pytest.raises(HypergraphFormatError, match=re.escape(f"{path}{where}")):
            read_patoh(path)

    def test_non_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.patoh"
        path.write_bytes(b"0 3 1 2\n0 \xff1\n")
        with pytest.raises(HypergraphFormatError, match="not valid UTF-8"):
            read_patoh(path)


class TestMatrixMarket:
    def test_row_net_from_mtx(self, tmp_path):
        m = sp.csr_array(np.array([[1.0, 0, 2.0], [0, 3.0, 0]]))
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), m)
        hg = read_matrix_market(path)
        assert hg.num_vertices == 3
        assert hg.num_edges == 2
        assert hg.edge(0).tolist() == [0, 2]

    def test_column_net(self, tmp_path):
        m = sp.csr_array(np.array([[1.0, 1.0], [0.0, 1.0]]))
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), m)
        hg = read_matrix_market(path, model="column-net")
        assert hg.num_vertices == 2
        assert hg.num_edges == 2
