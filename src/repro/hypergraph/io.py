"""Hypergraph file formats.

The paper's dataset (Schlag 2017, Zenodo record 291466) ships hypergraphs in
the **hMetis** text format and sparse matrices in **MatrixMarket** form that
are converted with the row-net model.  We implement:

* :func:`read_hmetis` / :func:`write_hmetis` — the hMetis format, including
  the ``fmt`` flag combinations for hyperedge and/or vertex weights;
* :func:`read_patoh` / :func:`write_patoh` — the PaToH format (used by the
  PaToH baseline family the paper cites);
* :func:`read_matrix_market` — MatrixMarket ``.mtx`` to hypergraph via the
  row-net or column-net model;
* :func:`save_json` / :func:`load_json` — a lossless round-trip format for
  caching generated instances.

All readers are strict: malformed headers or out-of-range pins raise
``HypergraphFormatError`` with line information rather than silently
producing a broken structure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from repro.hypergraph.model import Hypergraph

__all__ = [
    "HypergraphFormatError",
    "HmetisHeader",
    "parse_hmetis_header",
    "parse_hmetis_edge_line",
    "parse_hmetis_vertex_weight",
    "read_hmetis",
    "write_hmetis",
    "read_patoh",
    "write_patoh",
    "read_matrix_market",
    "save_json",
    "load_json",
]


class HypergraphFormatError(ValueError):
    """Raised when a hypergraph file violates its format specification."""


def _data_lines(text):
    """Yield (lineno, tokens) for non-comment, non-blank lines.

    hMetis and PaToH both use ``%`` comment lines.  ``text`` may be a
    whole-file string or any iterable of lines (e.g. an open file object) —
    the latter is what :mod:`repro.streaming.reader` passes so that large
    files are never held in memory at once.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        yield lineno, line.split()


# ----------------------------------------------------------------------
# hMetis
# ----------------------------------------------------------------------
class HmetisHeader:
    """Parsed hMetis header: counts plus the ``fmt`` weight flags.

    Used by the one-pass hMetis reader in :mod:`repro.streaming.reader`
    (which :func:`read_hmetis` assembles).
    """

    __slots__ = ("num_edges", "num_vertices", "fmt", "has_edge_weights", "has_vertex_weights")

    def __init__(self, num_edges, num_vertices, fmt):
        self.num_edges = num_edges
        self.num_vertices = num_vertices
        self.fmt = fmt
        self.has_edge_weights = fmt in (1, 11)
        self.has_vertex_weights = fmt in (10, 11)


def parse_hmetis_header(path, lineno: int, header: "list[str]") -> HmetisHeader:
    """Validate and parse the ``|E| |V| [fmt]`` header line."""
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


def parse_hmetis_edge_line(
    path, lineno: int, tokens: "list[str]", header: HmetisHeader
) -> "tuple[float, list[int]]":
    """Validate one hyperedge line; returns ``(weight, zero_based_pins)``.

    Pins are integers; the leading weight (fmt 1/11) may be fractional —
    :func:`write_hmetis` emits non-integral weights as floats, so the
    library's own files must round-trip.
    """
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


def parse_hmetis_vertex_weight(path, lineno: int, tokens: "list[str]") -> float:
    """Validate one vertex-weight line."""
    try:
        return float(tokens[0])
    except (ValueError, IndexError) as exc:
        raise HypergraphFormatError(f"{path}:{lineno}: bad vertex weight") from exc


def read_hmetis(path: "str | Path", *, name: str | None = None) -> Hypergraph:
    """Read an hMetis hypergraph file.

    Format: header ``|E| |V| [fmt]`` where ``fmt`` is ``1`` (hyperedge
    weights), ``10`` (vertex weights) or ``11`` (both); then one line per
    hyperedge (``[weight] pin...`` with 1-based pins); then, if vertex
    weights are present, one weight per line.  Parsed by the streaming
    reader (:func:`repro.streaming.reader.stream_hmetis`) and assembled
    in memory, so both entry points share one parser.
    """
    # Deferred: the streaming reader imports this module's helpers.
    from repro.streaming.reader import assemble, stream_hmetis

    with stream_hmetis(path, name=name) as stream:
        return assemble(stream)


def write_hmetis(hg: Hypergraph, path: "str | Path", *, write_weights: bool = False) -> None:
    """Write ``hg`` in hMetis format (1-based pins).

    ``write_weights=True`` emits fmt 11 with both weight sections; otherwise
    an unweighted fmt-0 file is produced.
    """
    path = Path(path)
    out = []
    fmt = " 11" if write_weights else ""
    out.append(f"{hg.num_edges} {hg.num_vertices}{fmt}")
    for e in range(hg.num_edges):
        pins = " ".join(str(int(v) + 1) for v in hg.edge(e))
        if write_weights:
            out.append(f"{_fmt_weight(hg.edge_weights[e])} {pins}")
        else:
            out.append(pins)
    if write_weights:
        out.extend(_fmt_weight(w) for w in hg.vertex_weights)
    path.write_text("\n".join(out) + "\n")


def _fmt_weight(w: float) -> str:
    return str(int(w)) if float(w).is_integer() else repr(float(w))


# ----------------------------------------------------------------------
# PaToH
# ----------------------------------------------------------------------
def read_patoh(path: "str | Path", *, name: str | None = None) -> Hypergraph:
    """Read a PaToH hypergraph file.

    Header: ``base |V| |E| pins [fmt]`` where ``base`` is the pin index base
    (0 or 1).  Then one line per net listing its pins.  Weight variants
    (fmt 1/2/3) are accepted but only unit weights are produced for fmt 0;
    fmt>0 files carry cell (vertex) weights appended to the net section
    which we parse when fmt is 1 or 3.
    """
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
        wtokens: list[str] = []
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


def write_patoh(hg: Hypergraph, path: "str | Path") -> None:
    """Write ``hg`` in 0-based unweighted PaToH format."""
    path = Path(path)
    out = [f"0 {hg.num_vertices} {hg.num_edges} {hg.num_pins}"]
    for e in range(hg.num_edges):
        out.append(" ".join(str(int(v)) for v in hg.edge(e)))
    path.write_text("\n".join(out) + "\n")


# ----------------------------------------------------------------------
# MatrixMarket
# ----------------------------------------------------------------------
def read_matrix_market(
    path: "str | Path", *, model: str = "row-net", name: str | None = None
) -> Hypergraph:
    """Read a MatrixMarket sparse matrix and convert via row/column-net model."""
    path = Path(path)
    matrix = scipy.io.mmread(str(path))
    return Hypergraph.from_sparse(
        sp.csr_array(matrix), model=model, name=name or path.stem
    )


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def save_json(hg: Hypergraph, path: "str | Path") -> None:
    """Serialise losslessly to JSON (structure, weights, name)."""
    payload = {
        "name": hg.name,
        "num_vertices": hg.num_vertices,
        "edge_ptr": hg.edge_ptr.tolist(),
        "edge_pins": hg.edge_pins.tolist(),
        "vertex_weights": hg.vertex_weights.tolist(),
        "edge_weights": hg.edge_weights.tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def load_json(path: "str | Path") -> Hypergraph:
    """Inverse of :func:`save_json`."""
    payload = json.loads(Path(path).read_text())
    return Hypergraph.from_csr_arrays(
        payload["num_vertices"],
        np.asarray(payload["edge_ptr"], dtype=np.int64),
        np.asarray(payload["edge_pins"], dtype=np.int64),
        vertex_weights=np.asarray(payload["vertex_weights"]),
        edge_weights=np.asarray(payload["edge_weights"]),
        name=payload["name"],
    )
