"""Hypergraph file formats.

The paper's dataset (Schlag 2017, Zenodo record 291466) ships hypergraphs in
the **hMetis** text format and sparse matrices in **MatrixMarket** form that
are converted with the row-net model.  We implement:

* :func:`read_hmetis` / :func:`write_hmetis` — the hMetis format, including
  the ``fmt`` flag combinations for hyperedge and/or vertex weights;
* :func:`read_patoh` / :func:`write_patoh` — the PaToH format (used by the
  PaToH baseline family the paper cites);
* :func:`read_matrix_market` — MatrixMarket ``.mtx`` to hypergraph via the
  row-net or column-net model.

Every text reader (PaToH here, hMetis and MatrixMarket in
:mod:`repro.streaming.reader`) uses one tokenizer: :func:`text_source`
decodes a source, :func:`token_blocks` splits blocks of whole lines into
tokens at once, :func:`parse_numbers` converts them in one ``np.array``
call (which follows ``int()``/``float()``: ``+3``, ``1_0`` and Unicode
digits parse), and :func:`raise_first_failure` reports the earliest bad
line.  All readers are strict: malformed input raises
``HypergraphFormatError`` with line information.  :func:`read_matrix_market`
goes through ``scipy.io.mmread``, the independent reference the streaming
MatrixMarket reader is tested against.
"""

from __future__ import annotations

import codecs
import contextlib
import io
import os
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.io
import scipy.sparse as sp

from repro.hypergraph.model import Hypergraph

__all__ = [
    "HypergraphFormatError",
    "TokenBlock",
    "text_source",
    "token_blocks",
    "tokenize",
    "parse_numbers",
    "raise_first_failure",
    "read_hmetis",
    "write_hmetis",
    "read_patoh",
    "write_patoh",
    "read_matrix_market",
]


class HypergraphFormatError(ValueError):
    """Raised when a hypergraph file violates its format specification."""


# ----------------------------------------------------------------------
# the block tokenizer
# ----------------------------------------------------------------------
#: Bytes decoded per step: ``io.TextIOWrapper``'s chunk, so bad UTF-8
#: surfaces after the same lines as it does in a file read line by line.
_DECODE_BYTES = 8192

#: ``str.isspace()`` by code point (``str.split()``'s whitespace).  None
#: lies above U+3000; higher code points map to U+3001, not whitespace.
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


def _text_blocks(blocks, decoder, label: str, block_chars) -> Iterator[str]:
    """Decode ``blocks`` into runs of whole lines (universal newlines).

    Bytes are decoded ``_DECODE_BYTES`` at a time.  A run ends at the
    last line end within ``block_chars`` characters (a longer line is a
    run of its own; ``None`` makes one run).  When decoding fails, the
    complete lines before the bad bytes are yielded first, so a format
    error on an earlier line wins, as it does when lines are read one by
    one; then :class:`HypergraphFormatError` is raised.
    """
    newlines = io.IncrementalNewlineDecoder(decoder, translate=True)
    held, pos = "", 0
    try:
        for block in blocks:
            for lo in range(0, len(block), _DECODE_BYTES):
                held += newlines.decode(block[lo : lo + _DECODE_BYTES])
                while block_chars is not None and len(held) - pos >= block_chars:
                    end = (
                        held.rfind("\n", pos, pos + block_chars) + 1
                        or held.find("\n", pos + block_chars) + 1
                    )
                    if not end:
                        break
                    yield held[pos:end]
                    pos = end
                held, pos = held[pos:], 0
        yield held + newlines.decode(b"" if decoder else "", final=True)
    except UnicodeDecodeError as exc:
        end = held.rfind("\n") + 1
        if end:
            yield held[:end]
        raise HypergraphFormatError(
            f"{label}: not valid UTF-8 text ({exc.reason})"
        ) from exc


@contextlib.contextmanager
def text_source(source, *, label: "str | None" = None, block_chars: "int | None" = None):
    """Open ``source`` as decoded runs of whole lines for :func:`token_blocks`.

    ``source`` is a path, an open text or binary file, ``bytes``, or an
    iterable of ``bytes`` blocks (an HTTP request body, a pipe); bytes
    are UTF-8.  Runs hold at most ``block_chars`` characters unless one
    line is longer (``None``: the whole text is one run).  Yields
    ``(texts, label, source_path)``: ``label`` is what error messages
    cite, ``source_path`` is ``None`` unless ``source`` is a path.  Only
    a file opened here is closed.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    path = None
    with contextlib.ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            path = Path(source)
            label = str(path)
            fh = stack.enter_context(open(path, "rb"))
            blocks = iter(partial(fh.read, _DECODE_BYTES), b"")
        elif isinstance(source, io.TextIOBase):
            blocks, decoder = iter(partial(source.read, _DECODE_BYTES), ""), None
        elif isinstance(source, (bytes, bytearray, memoryview)):
            blocks = (source,)
        elif hasattr(source, "read"):
            blocks = iter(partial(source.read, 1 << 16), b"")
        elif hasattr(source, "__iter__"):
            blocks = source
        else:
            raise TypeError(
                "source must be a path, an open file, bytes, or an iterable "
                f"of bytes blocks, got {type(source).__name__}"
            )
        label = label or "<stream>"
        yield _text_blocks(blocks, decoder, label, block_chars), label, path


class TokenBlock:
    """Data lines (not blank, not a comment) split into tokens at once.

    ``lines[i]`` is data line ``i``'s 1-based line number and ``counts[i]``
    its token count; its tokens (an object array of ``str``) are
    ``tokens[starts[i]:starts[i + 1]]``.
    """

    __slots__ = ("lines", "counts", "tokens", "starts")

    def __init__(self, lines: np.ndarray, counts: np.ndarray, tokens: np.ndarray) -> None:
        self.lines, self.counts, self.tokens = lines, counts, tokens
        self.starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.starts[1:])

    def __len__(self) -> int:
        return self.counts.size

    def slice(self, lo: int, hi: int) -> "TokenBlock":
        """Data lines ``lo <= i < hi`` as a block of their own."""
        return TokenBlock(
            self.lines[lo:hi],
            self.counts[lo:hi],
            self.tokens[self.starts[lo] : self.starts[hi]],
        )

    def owners(self) -> np.ndarray:
        """The data-line index of every token."""
        return np.repeat(np.arange(len(self)), self.counts)

    def any_by_line(self, mask: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Per data line, whether ``mask`` holds for any of its entries
        (``owners`` gives each entry's data line)."""
        return np.bincount(owners[mask], minlength=len(self)) > 0


def tokenize(text: str, first_line: int = 1) -> TokenBlock:
    """Split whole lines of ``text``, numbered from ``first_line``.

    Tokens are ``str.split()``'s; a line whose first token starts with
    ``%`` or ``#`` is a comment.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    space = _SPACE[np.minimum(codes, _SPACE.size - 1)]
    head = ~space
    head[1:] &= space[:-1]
    starts = np.flatnonzero(head)
    line = np.searchsorted(np.flatnonzero(codes == 10), starts)
    first = np.ones(starts.size, dtype=bool)
    first[1:] = line[1:] != line[:-1]
    heads = np.flatnonzero(first)
    counts = np.diff(np.append(heads, starts.size))
    tokens = np.array(text.split(), dtype=object)
    lead = codes[starts[heads]]
    data = (lead != ord("%")) & (lead != ord("#"))
    if not data.all():
        tokens = tokens[np.repeat(data, counts)]
        heads, counts = heads[data], counts[data]
    return TokenBlock(first_line + line[heads], counts, tokens)


def token_blocks(texts, *, first_line: int = 1) -> Iterator[TokenBlock]:
    """Tokenize runs of whole lines (from :func:`text_source`), numbering
    lines from ``first_line``."""
    for text in texts:
        yield tokenize(text, first_line)
        first_line += text.count("\n")


def parse_numbers(tokens: np.ndarray, dtype) -> "tuple[np.ndarray, np.ndarray]":
    """Convert ``tokens`` as ``int()``/``float()`` do, in one call.

    Returns the values and the mask of tokens that do not parse.  Only
    then are tokens converted one by one, to find which; an integer past
    the dtype's range saturates, so a range check rejects it.
    """
    try:
        return np.array(tokens, dtype=dtype), np.zeros(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        pass
    cast = int if np.issubdtype(dtype, np.integer) else float
    values = np.zeros(len(tokens), dtype=dtype)
    bad = np.zeros(len(tokens), dtype=bool)
    for k, token in enumerate(tokens):
        try:
            value = cast(token)
        except ValueError:
            bad[k] = True
            continue
        if cast is int:
            info = np.iinfo(dtype)
            value = min(max(value, int(info.min)), int(info.max))
        values[k] = value
    return values, bad


def raise_first_failure(label: str, block: TokenBlock, checks) -> None:
    """Raise :class:`HypergraphFormatError` for the earliest failing line.

    ``checks`` are ``(line_mask, message)`` pairs in the order one line
    is checked; ``message`` is text or a function of the data-line index.
    """
    failing = np.zeros(len(block), dtype=bool)
    for mask, _ in checks:
        failing |= mask
    if failing.any():
        i = int(np.argmax(failing))
        message = next(message for mask, message in checks if mask[i])
        message = message(i) if callable(message) else message
        raise HypergraphFormatError(f"{label}:{block.lines[i]}: {message}")


# ----------------------------------------------------------------------
# hMetis
# ----------------------------------------------------------------------
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
    (0 or 1).  Then one line per net listing its pins, led by the net's
    weight when fmt is 2 or 3.  When fmt is 1 or 3, the cell (vertex)
    weights follow the nets, any number per line.
    """
    path = Path(path)
    with text_source(path) as (texts, label, _):
        (block,) = token_blocks(texts)
    if not len(block):
        raise HypergraphFormatError(f"{label}: empty file")
    lineno, header = int(block.lines[0]), block.tokens[: block.counts[0]].tolist()
    if len(header) not in (4, 5):
        raise HypergraphFormatError(
            f"{label}:{lineno}: header must be 'base |V| |E| pins [fmt]'"
        )
    try:
        base, num_vertices, num_edges, num_pins = (int(x) for x in header[:4])
        fmt = int(header[4]) if len(header) == 5 else 0
    except ValueError as exc:
        raise HypergraphFormatError(f"{label}:{lineno}: non-integer header") from exc
    if base not in (0, 1):
        raise HypergraphFormatError(f"{label}:{lineno}: base must be 0 or 1")
    if num_vertices < 1 or min(num_edges, num_pins) < 0:
        raise HypergraphFormatError(
            f"{label}:{lineno}: header needs |V| >= 1 and |E|, pins >= 0"
        )
    if fmt not in (0, 1, 2, 3):
        raise HypergraphFormatError(f"{label}:{lineno}: unknown fmt {fmt}")
    body = block.slice(1, len(block))
    if len(body) < num_edges:
        raise HypergraphFormatError(
            f"{label}: expected {num_edges} net lines, found {len(body)}"
        )
    nets = body.slice(0, num_edges)
    has_net_w = fmt in (2, 3)
    values, bad = parse_numbers(nets.tokens, np.int64)
    owners = nets.owners()
    is_pin = np.ones(values.size, dtype=bool)
    net_w = np.ones(num_edges)
    if has_net_w:
        is_pin[nets.starts[:-1]] = False
        net_w = values[nets.starts[:-1]]
    pins = values[is_pin] - base
    outside = (pins < 0) | (pins >= num_vertices)
    raise_first_failure(label, nets, [
        (nets.any_by_line(bad, owners), "non-integer token in net line"),
        (nets.counts <= has_net_w, "empty net"),
        (nets.any_by_line(outside, owners[is_pin]), f"pin outside range for base {base}"),
        (net_w <= 0, "net weights must be strictly positive"),
    ])
    if pins.size != num_pins:
        raise HypergraphFormatError(
            f"{label}: header claims {num_pins} pins, nets contain {pins.size}"
        )
    vertex_weights = None
    if fmt in (1, 3):
        cells = body.slice(num_edges, len(body))
        if cells.tokens.size < num_vertices:
            raise HypergraphFormatError(
                f"{label}: expected {num_vertices} cell weights, "
                f"found {cells.tokens.size}"
            )
        owners = cells.owners()[:num_vertices]
        vertex_weights, bad = parse_numbers(cells.tokens[:num_vertices], np.float64)
        unfit = ~(np.isfinite(vertex_weights) & (vertex_weights > 0))
        raise_first_failure(label, cells, [
            (cells.any_by_line(bad, owners), "bad cell weight"),
            (cells.any_by_line(unfit, owners), "cell weights must be finite and positive"),
        ])
    edge_ptr = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(nets.counts - has_net_w, out=edge_ptr[1:])
    return Hypergraph.from_csr_arrays(
        num_vertices,
        edge_ptr,
        pins,
        vertex_weights=vertex_weights,
        edge_weights=net_w.astype(np.float64) if has_net_w else None,
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
