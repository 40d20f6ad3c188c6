"""CSR-backed hypergraph model.

Design notes
------------
The streaming partitioner visits every vertex once per pass and needs, per
vertex, the pin lists of all incident hyperedges.  The multilevel baseline
needs the same plus fast hyperedge iteration.  Both directions are therefore
stored in compressed-sparse-row form:

* ``edge_ptr``/``edge_pins``  — hyperedge ``e`` pins are
  ``edge_pins[edge_ptr[e]:edge_ptr[e+1]]`` (sorted, duplicate-free);
* ``vertex_ptr``/``vertex_edges`` — hyperedges incident to vertex ``v`` are
  ``vertex_edges[vertex_ptr[v]:vertex_ptr[v+1]]`` (sorted).

The structure is immutable after construction: the partitioners never mutate
the hypergraph, only their own assignment state, which keeps hypergraphs
shareable across experiments without defensive copying.  Weights default to
one (the paper assumes unit vertex work and unit hyperedge traffic; its
"further work" section discusses weighted hyperedges, which we support).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_positive

__all__ = ["Hypergraph"]


class Hypergraph:
    """Immutable hypergraph ``H = (V, E)`` with CSR incidence in both
    directions.

    Parameters
    ----------
    num_vertices:
        size of the vertex set ``V``; vertices are ``0 .. num_vertices-1``.
        Isolated vertices (in no hyperedge) are allowed — the paper's
        datasets contain them and the streaming partitioner must still place
        them.
    edges:
        iterable of pin lists.  Pins are de-duplicated and sorted; empty
        hyperedges are rejected (they model no communication and break the
        cut metrics' invariants).
    vertex_weights / edge_weights:
        optional positive weights (computation load per vertex, traffic per
        hyperedge).  Default is 1 for both, matching the paper's setup.
    name:
        optional label used in reports.

    Notes
    -----
    Construction is O(total pins) using NumPy bulk operations; no Python
    per-pin loops.
    """

    __slots__ = (
        "name",
        "num_vertices",
        "num_edges",
        "edge_ptr",
        "edge_pins",
        "vertex_ptr",
        "vertex_edges",
        "vertex_weights",
        "edge_weights",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Sequence[int]],
        *,
        vertex_weights: Sequence[float] | None = None,
        edge_weights: Sequence[float] | None = None,
        name: str = "hypergraph",
    ) -> None:
        check_positive("num_vertices", num_vertices)
        self.name = str(name)
        self.num_vertices = int(num_vertices)

        ptr = [0]
        flat: list[np.ndarray] = []
        for i, pins in enumerate(edges):
            arr = np.unique(np.asarray(pins, dtype=np.int64))
            if arr.size == 0:
                raise ValueError(f"hyperedge {i} is empty")
            if arr[0] < 0 or arr[-1] >= num_vertices:
                raise ValueError(
                    f"hyperedge {i} has pins outside [0, {num_vertices}): "
                    f"min={arr[0]}, max={arr[-1]}"
                )
            flat.append(arr)
            ptr.append(ptr[-1] + arr.size)
        self.num_edges = len(flat)
        self.edge_ptr = np.asarray(ptr, dtype=np.int64)
        self.edge_pins = (
            np.concatenate(flat) if flat else np.empty(0, dtype=np.int64)
        )

        self.vertex_ptr, self.vertex_edges = self._build_vertex_incidence()
        self.vertex_weights = self._check_weights(
            vertex_weights, self.num_vertices, "vertex_weights"
        )
        self.edge_weights = self._check_weights(
            edge_weights, self.num_edges, "edge_weights"
        )
        # Freeze the arrays: the partitioners rely on hypergraph immutability.
        for arr in (
            self.edge_ptr,
            self.edge_pins,
            self.vertex_ptr,
            self.vertex_edges,
            self.vertex_weights,
            self.edge_weights,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_vertex_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Invert edge->pins into vertex->edges with a counting sort."""
        nnz = self.edge_pins.size
        counts = np.bincount(self.edge_pins, minlength=self.num_vertices)
        vptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=vptr[1:])
        vedges = np.empty(nnz, dtype=np.int64)
        if nnz:
            edge_ids = np.repeat(
                np.arange(self.num_edges, dtype=np.int64),
                np.diff(self.edge_ptr),
            )
            # Stable sort by pin vertex keeps per-vertex edge lists sorted
            # by edge id, which tests and the coarsener rely on.
            order = np.argsort(self.edge_pins, kind="stable")
            vedges[:] = edge_ids[order]
        return vptr, vedges

    @staticmethod
    def _check_weights(weights, n: int, label: str) -> np.ndarray:
        if weights is None:
            return np.ones(n, dtype=np.float64)
        arr = np.asarray(weights, dtype=np.float64)
        if arr.shape != (n,):
            raise ValueError(f"{label} must have shape ({n},), got {arr.shape}")
        if not (np.isfinite(arr) & (arr > 0)).all():
            raise ValueError(f"{label} must be finite and strictly positive")
        return arr.copy()

    # ------------------------------------------------------------------
    # alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_csr_arrays(
        cls,
        num_vertices: int,
        edge_ptr: np.ndarray,
        edge_pins: np.ndarray,
        *,
        vertex_weights=None,
        edge_weights=None,
        name: str = "hypergraph",
    ) -> "Hypergraph":
        """Build from raw CSR arrays (pins may be unsorted / duplicated).

        This is the fast path used by the generators: it avoids a Python
        loop over hyperedges by de-duplicating all pins in one vectorised
        pass.
        """
        edge_ptr = np.asarray(edge_ptr, dtype=np.int64)
        edge_pins = np.asarray(edge_pins, dtype=np.int64)
        if edge_ptr.ndim != 1 or edge_ptr.size < 1 or edge_ptr[0] != 0:
            raise ValueError("edge_ptr must be 1-D, start at 0")
        if (np.diff(edge_ptr) < 0).any():
            raise ValueError("edge_ptr must be non-decreasing")
        if edge_ptr[-1] != edge_pins.size:
            raise ValueError(
                f"edge_ptr[-1]={edge_ptr[-1]} must equal len(edge_pins)={edge_pins.size}"
            )
        num_edges = edge_ptr.size - 1
        if edge_pins.size and (
            edge_pins.min() < 0 or edge_pins.max() >= num_vertices
        ):
            raise ValueError("edge_pins contain out-of-range vertices")

        # Vectorised per-edge dedup: sort (edge_id, pin) pairs, drop repeats.
        edge_ids = np.repeat(np.arange(num_edges, dtype=np.int64), np.diff(edge_ptr))
        order = np.lexsort((edge_pins, edge_ids))
        e_sorted = edge_ids[order]
        p_sorted = edge_pins[order]
        if e_sorted.size:
            keep = np.empty(e_sorted.size, dtype=bool)
            keep[0] = True
            keep[1:] = (e_sorted[1:] != e_sorted[:-1]) | (
                p_sorted[1:] != p_sorted[:-1]
            )
            e_sorted = e_sorted[keep]
            p_sorted = p_sorted[keep]
        new_counts = np.bincount(e_sorted, minlength=num_edges)
        if (new_counts == 0).any():
            empty = int(np.flatnonzero(new_counts == 0)[0])
            raise ValueError(f"hyperedge {empty} is empty")
        new_ptr = np.zeros(num_edges + 1, dtype=np.int64)
        np.cumsum(new_counts, out=new_ptr[1:])

        obj = cls.__new__(cls)
        obj.name = str(name)
        obj.num_vertices = int(num_vertices)
        obj.num_edges = int(num_edges)
        obj.edge_ptr = new_ptr
        obj.edge_pins = p_sorted
        obj.vertex_ptr, obj.vertex_edges = Hypergraph._build_vertex_incidence(obj)
        obj.vertex_weights = cls._check_weights(
            vertex_weights, obj.num_vertices, "vertex_weights"
        )
        obj.edge_weights = cls._check_weights(
            edge_weights, obj.num_edges, "edge_weights"
        )
        for arr in (
            obj.edge_ptr,
            obj.edge_pins,
            obj.vertex_ptr,
            obj.vertex_edges,
            obj.vertex_weights,
            obj.edge_weights,
        ):
            arr.setflags(write=False)
        return obj

    @classmethod
    def from_sparse(
        cls,
        matrix,
        *,
        model: str = "row-net",
        name: str | None = None,
        drop_empty: bool = True,
    ) -> "Hypergraph":
        """Interpret a sparse matrix as a hypergraph.

        Under the **row-net** model (Catalyurek & Aykanat 1999) each matrix
        *column* is a vertex and each *row* a hyperedge containing the
        columns with a non-zero in that row; **column-net** is the
        transpose.  This is how the paper's dataset derives hypergraphs from
        sparse-matrix collections.

        Parameters
        ----------
        matrix:
            any scipy sparse matrix or dense 2-D array.
        model:
            ``"row-net"`` or ``"column-net"``.
        drop_empty:
            silently drop all-zero rows (nets with no pins).  When False,
            an all-zero row raises.
        """
        if model not in ("row-net", "column-net"):
            raise ValueError(f"model must be 'row-net' or 'column-net', got {model!r}")
        csr = sp.csr_array(matrix)
        if model == "column-net":
            csr = sp.csr_array(csr.T)
        num_rows, num_cols = csr.shape
        indptr = csr.indptr.astype(np.int64)
        indices = csr.indices.astype(np.int64)
        if drop_empty:
            lengths = np.diff(indptr)
            keep = lengths > 0
            if not keep.all():
                new_ptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
                np.cumsum(lengths[keep], out=new_ptr[1:])
                indptr = new_ptr
        return cls.from_csr_arrays(
            num_cols,
            indptr,
            indices,
            name=name or f"sparse-{model}",
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_pins(self) -> int:
        """Total number of (hyperedge, vertex) incidences — the dataset
        tables call this NNZ."""
        return int(self.edge_pins.size)

    def edge(self, e: int) -> np.ndarray:
        """Read-only view of the sorted pin list of hyperedge ``e``."""
        return self.edge_pins[self.edge_ptr[e] : self.edge_ptr[e + 1]]

    def edges_of(self, v: int) -> np.ndarray:
        """Read-only view of the sorted incident-hyperedge list of ``v``."""
        return self.vertex_edges[self.vertex_ptr[v] : self.vertex_ptr[v + 1]]

    def cardinalities(self) -> np.ndarray:
        """Hyperedge sizes |e| as an int64 array of length ``num_edges``."""
        return np.diff(self.edge_ptr)

    def degrees(self) -> np.ndarray:
        """Vertex degrees (number of incident hyperedges)."""
        return np.diff(self.vertex_ptr)

    def iter_edges(self) -> Iterator[np.ndarray]:
        """Iterate over pin-list views, hyperedge by hyperedge."""
        for e in range(self.num_edges):
            yield self.edge(e)

    def to_edge_list(self) -> list[list[int]]:
        """Materialise pin lists as Python lists (for I/O and tests)."""
        return [self.edge(e).tolist() for e in range(self.num_edges)]

    def incidence_matrix(self) -> sp.csr_array:
        """Sparse ``num_edges x num_vertices`` 0/1 incidence matrix."""
        data = np.ones(self.num_pins, dtype=np.float64)
        return sp.csr_array(
            (data, self.edge_pins.astype(np.int32), self.edge_ptr),
            shape=(self.num_edges, self.num_vertices),
        )

    def total_vertex_weight(self) -> float:
        return float(self.vertex_weights.sum())

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def with_weights(
        self,
        *,
        vertex_weights=None,
        edge_weights=None,
        name: str | None = None,
    ) -> "Hypergraph":
        """Return a copy sharing structure but with new weights."""
        obj = Hypergraph.__new__(Hypergraph)
        obj.name = name or self.name
        obj.num_vertices = self.num_vertices
        obj.num_edges = self.num_edges
        obj.edge_ptr = self.edge_ptr
        obj.edge_pins = self.edge_pins
        obj.vertex_ptr = self.vertex_ptr
        obj.vertex_edges = self.vertex_edges
        obj.vertex_weights = self._check_weights(
            vertex_weights if vertex_weights is not None else self.vertex_weights,
            self.num_vertices,
            "vertex_weights",
        )
        obj.edge_weights = self._check_weights(
            edge_weights if edge_weights is not None else self.edge_weights,
            self.num_edges,
            "edge_weights",
        )
        obj.vertex_weights.setflags(write=False)
        obj.edge_weights.setflags(write=False)
        return obj

    def without_singleton_edges(self) -> "Hypergraph":
        """Drop hyperedges of cardinality 1.

        Singletons cannot be cut, so they contribute nothing to any metric;
        the multilevel baseline removes them before coarsening (as Zoltan
        and PaToH do).
        """
        keep = self.cardinalities() > 1
        if keep.all():
            return self
        kept_ids = np.flatnonzero(keep)
        lengths = np.diff(self.edge_ptr)[kept_ids]
        new_ptr = np.zeros(kept_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_ptr[1:])
        pins = np.concatenate(
            [self.edge(e) for e in kept_ids]
        ) if kept_ids.size else np.empty(0, dtype=np.int64)
        return Hypergraph.from_csr_arrays(
            self.num_vertices,
            new_ptr,
            pins,
            vertex_weights=self.vertex_weights,
            edge_weights=self.edge_weights[kept_ids],
            name=f"{self.name}-nosingletons",
        )

    # ------------------------------------------------------------------
    # dunder / diagnostics
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.num_edges == other.num_edges
            and np.array_equal(self.edge_ptr, other.edge_ptr)
            and np.array_equal(self.edge_pins, other.edge_pins)
            and np.array_equal(self.vertex_weights, other.vertex_weights)
            and np.array_equal(self.edge_weights, other.edge_weights)
        )

    def __hash__(self):  # structures are compared by value, not identity
        return hash(
            (self.num_vertices, self.num_edges, self.num_pins, self.edge_pins.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"Hypergraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, pins={self.num_pins})"
        )

    def validate(self) -> None:
        """Re-check all structural invariants; raises AssertionError on
        corruption.  Used by tests and after deserialisation."""
        assert self.edge_ptr[0] == 0 and self.edge_ptr[-1] == self.edge_pins.size
        assert (np.diff(self.edge_ptr) >= 1).all(), "empty hyperedge"
        assert self.vertex_ptr[-1] == self.edge_pins.size
        for e in range(self.num_edges):
            pins = self.edge(e)
            assert (np.diff(pins) > 0).all(), f"edge {e} pins not strictly sorted"
        # both directions describe the same incidence set
        inc_a = set(zip(self.edge_pins.tolist(), np.repeat(
            np.arange(self.num_edges), np.diff(self.edge_ptr)).tolist()))
        pairs_b = []
        for v in range(self.num_vertices):
            for e in self.edges_of(v):
                pairs_b.append((v, int(e)))
        assert inc_a == set(pairs_b), "incidence directions disagree"
