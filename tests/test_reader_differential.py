"""The block readers against the frozen per-line readers.

``tests/reader_reference.py`` keeps the hMetis, MatrixMarket and PaToH
readers as they were when they parsed one line at a time.  Every input
here goes through both; they must agree on every yielded block, the
stream metadata, the chunk pin counts and the resident-pin high-water
mark, or raise the same exception with the same message.  Sources are
fed as a path, as one ``bytes`` object and as blocks of 1, 7 and 4096
bytes, with several spill-buffer sizes and with and without a pin
budget, so block and decode boundaries fall everywhere.
"""

import itertools

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro.hypergraph.io as hio
import test_streaming_reader as reader_tests
from reader_reference import (
    ReferenceHmetisStream,
    ReferenceMatrixMarketStream,
    read_patoh as reference_read_patoh,
)
from repro.hypergraph.io import read_patoh
from repro.hypergraph.suite import load_instance
from repro.streaming import stream_hmetis, stream_matrix_market
from repro.streaming.reader import DEFAULT_BUFFER_PINS

DELIVERIES = ("path", "bytes", 1, 7, 4096)
BUFFERS = (1, 16, DEFAULT_BUFFER_PINS)
BUDGETS = (None, 6)


def _source(data: bytes, delivery, tmp_path):
    if delivery == "path":
        path = tmp_path / "source.txt"
        path.write_bytes(data)
        return path
    if delivery == "bytes":
        return data
    return (data[i : i + delivery] for i in range(0, len(data), delivery))


def _outcome(opener, source, **kwargs):
    """Everything a reader exposes, or the exception it raised."""
    try:
        stream = opener(source, chunk_size=4, **kwargs)
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return ("raised", type(exc), str(exc))
    with stream:
        blocks = [
            (
                b.ids.tobytes(),
                b.vertex_ptr.tobytes(),
                b.vertex_edges.tobytes(),
                b.vertex_weights.tobytes(),
            )
            for b in stream
        ]
        return (
            "ok",
            blocks,
            stream.num_vertices,
            stream.num_edges,
            stream.num_pins,
            stream.total_vertex_weight,
            np.asarray(stream.edge_weights).tobytes(),
            np.asarray(stream.edge_degrees).tobytes(),
            stream.chunk_pins().tobytes(),
            stream.peak_resident_pins,
        )


def _mismatches(new, reference, data, tmp_path, configs):
    out = []
    for delivery, buffer_pins, pin_budget in configs:
        kwargs = {"buffer_pins": buffer_pins, "pin_budget": pin_budget}
        got = _outcome(new, _source(data, delivery, tmp_path), **kwargs)
        want = _outcome(reference, _source(data, delivery, tmp_path), **kwargs)
        if got != want:
            out.append((delivery, buffer_pins, pin_budget, got[:3], want[:3]))
    return out


FULL = list(itertools.product(DELIVERIES, BUFFERS, BUDGETS))


def _rotating(i):
    """One configuration per fuzz case, cycling through all of them."""
    return [FULL[i % len(FULL)]]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _hmetis_instance(weighted):
    hg = load_instance("sparsine", scale=0.12)
    if weighted:
        rng = np.random.default_rng(3)
        hg = hg.with_weights(
            vertex_weights=rng.integers(1, 9, hg.num_vertices),
            edge_weights=rng.random(hg.num_edges) + 0.5,
        )
    return hg


HMETIS_VALID = {
    "fmt0": b"4 7\n1 2\n1 7 5 6\n5 6 4\n2 3 4\n",
    "fmt1": b"2 3 1\n9 1 2\n4.5 2 3\n",
    "fmt10": b"2 3 10\n1 2\n2 3\n5\n6\n7\n",
    "fmt11": b"3 4 11\n10 1 2\n20 2 3 4\n1.5e1 1 4\n1\n2\n3\n4\n",
    "comments-blank-crlf": b"% c\r\n\r\n2 4\r\n# mid\r\n1 2 2 1\r\n  \r\n3 4\r\n",
    "lone-cr": b"2 4\r1 2\r3 4\r",
    "no-final-newline": b"2 4\n1 2\n3 4",
    "unsorted-duplicates": b"3 6\n6 1 3 1\n2 2 2\n5 4 6 5 1\n",
    "odd-tokens": "2 12 11\n+3 1_0 007 ٣\n２ +1 12\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n1_1\n１２\n".encode(),
    "unicode-space": "2 4\n1 2　3\n2\x0b4\x0c\n".encode(),
    "trailing-ignored": b"1 3\n1 2\nthis is ignored\n",
    "weights-extra-tokens": b"1 2 10\n1 2\n3 junk\n4\n",
}

HMETIS_MALFORMED = {
    "empty": b"",
    "comments-only": b"% nothing\n\n",
    "short-header": b"1\n1 2\n",
    "missing-edges": b"2 3\n1 2\n",
    "pin-outside": b"1 3\n1 9\n",
    "pin-zero": b"2 3\n1 2\n0 1\n",
    "huge-pin": b"2 3\n1 2\n1 99999999999999999999\n",
    "unknown-fmt": b"1 3 7\n1 2\n",
    "non-integer": b"1 3\nx y\n",
    "non-integer-header": b"a 3\n1 2\n",
    "weighted-short": b"1 3 1\n5\n",
    "bad-edge-weight": b"1 3 1\nx 1 2\n",
    "missing-weights": b"2 3 10\n1 2\n2 3\n5\n",
    "bad-vertex-weight": b"1 2 10\n1 2\n1\nz\n",
    "negative-edges": b"-1 3\n1 2\n",
    "no-vertices": b"1 0\n1\n",
    "nan-edge-weight": b"1 3 1\nnan 1 2\n",
    "inf-edge-weight": b"1 3 1\ninf 1 2\n",
    "minus-inf-edge-weight": b"1 3 1\n-inf 1 2\n",
    "nan-vertex-weight": b"1 2 10\n1 2\nnan\n1\n",
    "inf-vertex-weight": b"1 2 10\n1 2\n1\ninf\n",
    "spill-cleanup": b"2 9\n1 2 3\n4 x\n",
    "zero-edge-weight": b"1 3 1\n0 1 2\n",
    "two-errors": b"3 3\n1 2\n1 x\n1 9\n",
    "error-after-nan": b"2 3 1\nnan 1 2\n1 1 9\n",
    "bad-utf8": b"1 2\n1 \xff2\n",
    "utf8-after-error": b"2 3\n1 9\n1 \xff\n",
    "truncated-utf8": b"1 2\n1 2\xc3",
}


def _hmetis_big_cases():
    weighted, plain = _hmetis_instance(True), _hmetis_instance(False)
    out = {}
    for label, hg, flag in (("big-fmt11", weighted, True), ("big-fmt0", plain, False)):
        lines = [f"{hg.num_edges} {hg.num_vertices}{' 11' if flag else ''}"]
        for e in range(hg.num_edges):
            pins = " ".join(str(int(v) + 1) for v in hg.edge(e))
            lines.append(f"{float(hg.edge_weights[e])!r} {pins}" if flag else pins)
        if flag:
            lines.extend(str(int(w)) for w in hg.vertex_weights)
        out[label] = ("\n".join(lines) + "\n").encode()
    text = out["big-fmt0"]
    # Errors and undecodable bytes far apart: which is reported depends
    # on what was decoded when the error line was read.
    out["big-early-error-late-utf8"] = text.replace(b"\n", b"\n0 ", 2)[:-1] + b"\xff\n"
    out["big-late-error-early-utf8"] = (
        text[:40] + b"\xff" + text[41:-2] + b"x\n"
    )
    return out


MTX_VALID = {
    "general": None,
    "symmetric": None,
    "skew-symmetric": None,
    "pattern": b"%%MatrixMarket matrix coordinate pattern general\n3 4 5\n1 1\n1 3\n2 2\n3 1\n3 4\n",
    "duplicates": b"%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1.0\n1 1 2.0\n2 1 1.0\n2 2 1.0\n",
    "empty-rows": b"%%MatrixMarket matrix coordinate integer general\n4 3 4\n1 1 1\n1 3 1\n3 2 1\n4 3 1\n",
    "comments-blank-crlf": b"%%MatrixMarket matrix coordinate real general\r\n% c\r\n\r\n2 2 2\r\n1 2 5\r\n# x\r\n2 1 7\r\n",
    "odd-tokens": "%%MatrixMarket matrix coordinate real symmetric\n12 12 3\n+3 1_0 1\n007 ٣ 2\n１２ 12 3\n".encode(),
    "value-ignored": b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 not-a-number\n",
    "hermitian": b"%%MatrixMarket matrix coordinate complex hermitian\n3 3 2\n2 1 1 1\n3 3 2 0\n",
}

MTX_MALFORMED = {
    "no-banner": b"not a banner\n1 1 0\n",
    "blank-banner": b"\n%%MatrixMarket matrix coordinate real general\n1 1 0\n",
    "array": b"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
    "short-banner": b"%%MatrixMarket matrix coordinate\n1 1 0\n",
    "bad-field": b"%%MatrixMarket matrix coordinate text general\n1 1 0\n",
    "bad-symmetry": b"%%MatrixMarket matrix coordinate real wat\n1 1 1\n1 1 1\n",
    "missing-size": b"%%MatrixMarket matrix coordinate real general\n",
    "short-size": b"%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
    "non-integer-size": b"%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 1\n",
    "missing-entries": b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
    "outside": b"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
    "huge-outside": b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n99999999999999999999 1 1\n",
    "too-many": b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",
    "negative": b"%%MatrixMarket matrix coordinate real general\n-2 3 1\n1 1\n",
    "not-square": b"%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 2\n",
    "one-token": b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1\n2\n",
    "one-token-last": b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1\n",
    "non-integer": b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1\n1.0 2\n",
    "no-columns": b"%%MatrixMarket matrix coordinate real general\n2 0 0\n",
    "bad-utf8": b"%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 \xff1\n",
    "utf8-in-banner": b"%%MatrixMarket matrix \xffcoordinate real general\n1 1 0\n",
    "spill-cleanup": b"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n2 2 1\n9 9 1\n",
}


def _mtx_cases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mtx")
    out = dict(MTX_VALID)
    m = sp.random(9, 13, density=0.25, random_state=0)
    s = sp.random(11, 11, density=0.2, random_state=1)
    for label, matrix, symmetry in (
        ("general", m, "general"),
        ("symmetric", (s + s.T).tocoo(), "symmetric"),
        ("skew-symmetric", (s - s.T).tocoo(), "skew-symmetric"),
    ):
        path = tmp / f"{label}.mtx"
        scipy.io.mmwrite(str(path), matrix, symmetry=symmetry)
        out[label] = path.read_bytes()
    big = sp.random(300, 200, density=0.05, random_state=2)
    path = tmp / "big.mtx"
    scipy.io.mmwrite(str(path), big)
    out["big"] = path.read_bytes()
    return out


def _mtx(model):
    return (
        lambda source, **kw: stream_matrix_market(source, model=model, **kw),
        lambda source, **kw: ReferenceMatrixMarketStream(source, model=model, **kw),
    )


# ----------------------------------------------------------------------
# the differential suite
# ----------------------------------------------------------------------
class TestHmetisAgainstReference:
    @pytest.mark.parametrize(
        "case", sorted(HMETIS_VALID) + sorted(HMETIS_MALFORMED)
    )
    def test_small_cases(self, case, tmp_path):
        data = HMETIS_VALID.get(case, HMETIS_MALFORMED.get(case))
        assert _mismatches(stream_hmetis, ReferenceHmetisStream, data, tmp_path, FULL) == []

    def test_valid_cases_parse(self, tmp_path):
        for case, data in HMETIS_VALID.items():
            with stream_hmetis(data) as stream:
                assert stream.num_pins > 0, case

    @pytest.mark.parametrize("case", sorted(_hmetis_big_cases()))
    def test_large_cases(self, case, tmp_path):
        data = _hmetis_big_cases()[case]
        configs = [
            (delivery, buffer_pins, budget)
            for delivery, buffer_pins, budget in FULL
            if delivery != 1 and buffer_pins != 1
        ]
        assert _mismatches(stream_hmetis, ReferenceHmetisStream, data, tmp_path, configs) == []

    def test_fuzz_corpus(self, tmp_path):
        fuzz = reader_tests.TestReaderFuzz()
        raw = fuzz.HMETIS
        cases = list(fuzz._truncations(raw))
        for seed in fuzz.SEEDS["hmetis"]:
            cases += fuzz._replacements(raw, seed)
        for i, (label, data) in enumerate(cases):
            found = _mismatches(
                stream_hmetis, ReferenceHmetisStream, data, tmp_path, _rotating(i)
            )
            assert found == [], f"{label}: {data!r}"


class TestMatrixMarketAgainstReference:
    @pytest.fixture(scope="class")
    def cases(self, tmp_path_factory):
        return _mtx_cases(tmp_path_factory)

    @pytest.mark.parametrize("model", ["row-net", "column-net"])
    def test_valid_cases(self, cases, model, tmp_path):
        new, reference = _mtx(model)
        for case, data in cases.items():
            configs = FULL if case != "big" else [
                config for config in FULL if config[0] != 1 and config[1] != 1
            ]
            assert _mismatches(new, reference, data, tmp_path, configs) == [], case

    @pytest.mark.parametrize("case", sorted(MTX_MALFORMED))
    def test_malformed_cases(self, case, tmp_path):
        new, reference = _mtx("row-net")
        assert _mismatches(new, reference, MTX_MALFORMED[case], tmp_path, FULL) == []

    def test_fuzz_corpus(self, tmp_path):
        fuzz = reader_tests.TestReaderFuzz()
        raw = fuzz.MTX
        cases = list(fuzz._truncations(raw))
        for seed in fuzz.SEEDS["mtx"]:
            cases += fuzz._replacements(raw, seed)
        new, reference = _mtx("row-net")
        for i, (label, data) in enumerate(cases):
            found = _mismatches(new, reference, data, tmp_path, _rotating(i))
            assert found == [], f"{label}: {data!r}"


class TestPatohAgainstReference:
    VALID = {
        "fmt0": b"0 4 3 7\n0 1 2\n1 3\n2 3\n",
        "base1": b"1 3 2 4\n1 2\n2 3\n",
        "fmt1-cells": b"0 3 2 4 1\n0 1\n1 2\n1 2\n3\n",
        "fmt2-nets": b"0 3 2 4 2\n5 0 1\n7 1 2\n",
        "fmt3-both": b"% c\n0 3 2 4 3\n5 0 1\n\n7 1 2\n1.5 2 3\n",
        "duplicates": b"0 3 2 5\n0 1 1\n2 0\n",
        "crlf-odd-tokens": "0 3 2 4\r\n+0 ١\r\n0_1 2\r\n".encode(),
    }
    MALFORMED = {
        "empty": b"",
        "short-header": b"0 3 2\n0 1\n",
        "bad-base": b"2 3 1 2\n0 1\n",
        "missing-nets": b"0 3 2 2\n0 1\n",
        "pins-mismatch": b"0 3 2 5\n0 1\n1 2\n",
        "pin-outside": b"0 3 1 2\n0 3\n",
        "empty-net": b"0 3 1 0 2\n4\n",
        "missing-cells": b"0 3 1 2 1\n0 1\n1 2\n",
    }

    def _result(self, reader, path):
        try:
            hg = reader(path)
        except Exception as exc:  # noqa: BLE001 — compared, not swallowed
            return ("raised", type(exc), str(exc))
        return (
            "ok",
            hg.num_vertices,
            hg.edge_ptr.tobytes(),
            hg.edge_pins.tobytes(),
            hg.vertex_weights.tobytes(),
            hg.edge_weights.tobytes(),
            hg.name,
        )

    @pytest.mark.parametrize("case", sorted(VALID) + sorted(MALFORMED))
    def test_agrees(self, case, tmp_path):
        path = tmp_path / "graph.patoh"
        path.write_bytes(self.VALID.get(case, self.MALFORMED.get(case)))
        got = self._result(read_patoh, path)
        assert got == self._result(reference_read_patoh, path)
        assert (got[0] == "ok") == (case in self.VALID)


def test_suite_detects_shifted_line_numbers(tmp_path, monkeypatch):
    """A reader that reports each line one too late must fail the suite."""
    tokenize = hio.tokenize

    def shifted(text, first_line=1):
        return tokenize(text, first_line + 1)

    monkeypatch.setattr(hio, "tokenize", shifted)
    found = [
        case
        for case, data in HMETIS_MALFORMED.items()
        if _mismatches(
            stream_hmetis, ReferenceHmetisStream, data, tmp_path, [("bytes", 16, None)]
        )
    ]
    assert "pin-outside" in found and "bad-edge-weight" in found


def test_whitespace_table_covers_unicode():
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    assert max(spaces) < hio._SPACE.size - 1
    assert np.flatnonzero(hio._SPACE).tolist() == spaces


@settings(max_examples=300, deadline=None)
@given(
    text=st.text(alphabet="12x \t\n%#\x0b\x1c\x85\xa0 　", max_size=60),
    first_line=st.integers(min_value=1, max_value=5),
)
def test_tokenize_matches_splitting_line_by_line(text, first_line):
    block = hio.tokenize(text, first_line)
    want = [
        (lineno, line.split())
        for lineno, line in enumerate(text.split("\n"), start=first_line)
        if line.split() and line.split()[0][0] not in "%#"
    ]
    got = [block.tokens[block.starts[i] : block.starts[i + 1]].tolist() for i in range(len(block))]
    assert list(zip(block.lines.tolist(), got)) == want
