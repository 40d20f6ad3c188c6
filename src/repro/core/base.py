"""Partitioner interface.

Every algorithm in the library — HyperPRAW, the multilevel baseline, the
streaming and trivial baselines — implements one method::

    partition(hg, num_parts, *, cost_matrix=None, seed=None) -> PartitionResult

``cost_matrix`` is the machine's communication-cost matrix; architecture-
blind algorithms ignore it (they are free to — the paper's Zoltan and
HyperPRAW-basic runs use uniform costs *during* partitioning, and the cost
matrix only enters their evaluation afterwards).

A :class:`StreamPartitioner` natively partitions a vertex chunk stream
(``partition_stream``); its ``partition`` streams a hypergraph to it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.result import PartitionResult
from repro.hypergraph.model import Hypergraph

__all__ = ["Partitioner", "StreamPartitioner"]


class Partitioner(abc.ABC):
    """Abstract base class for all partitioners.

    Subclasses set :attr:`name` (used in reports and figures) and
    implement :meth:`partition`.
    """

    #: short identifier used in experiment tables
    name: str = "abstract"

    @abc.abstractmethod
    def partition(
        self,
        hg: Hypergraph,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Partition ``hg`` into ``num_parts`` parts.

        Parameters
        ----------
        hg:
            the hypergraph to partition.
        num_parts:
            number of partitions (compute units).
        cost_matrix:
            optional ``num_parts x num_parts`` communication-cost matrix;
            architecture-aware algorithms fold it into their objective.
        seed:
            RNG seed for algorithms with stochastic components.
        """

    # ------------------------------------------------------------------
    @staticmethod
    def _check_args(hg, num_parts: int) -> None:
        """Validate ``num_parts`` against a hypergraph or a chunk stream."""
        if num_parts < 1:
            raise ValueError(f"num_parts must be >= 1, got {num_parts}")
        if num_parts > hg.num_vertices:
            raise ValueError(
                f"cannot split {hg.num_vertices} vertices into {num_parts} parts"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StreamPartitioner(Partitioner):
    """A partitioner whose native entry point is :meth:`partition_stream`;
    :meth:`partition` streams it a hypergraph, ``chunk_size`` vertices per
    chunk (the adapter path)."""

    chunk_size: int

    def partition(
        self,
        hg: Hypergraph,
        num_parts: int,
        *,
        cost_matrix: "np.ndarray | None" = None,
        seed=None,
    ) -> PartitionResult:
        """Stream an in-memory hypergraph chunk by chunk (adapter path)."""
        from repro.streaming.reader import HypergraphChunkStream

        self._check_args(hg, num_parts)
        stream = HypergraphChunkStream(hg, self.chunk_size)
        return self.partition_stream(
            stream, num_parts, cost_matrix=cost_matrix, seed=seed
        )

    @abc.abstractmethod
    def partition_stream(
        self, stream, num_parts: int, *, cost_matrix=None, seed=None
    ) -> PartitionResult:
        """Partition a :class:`~repro.streaming.reader.ChunkStream`."""
