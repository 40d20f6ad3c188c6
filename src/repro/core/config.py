"""HyperPRAW configuration.

All Algorithm 1 parameters in one frozen dataclass, with the paper's
defaults.  The experiment drivers construct three canonical variants:

* ``aware``  — profiled cost matrix, refinement 0.95 (the headline
  configuration);
* ``basic``  — uniform cost matrix, otherwise identical;
* ``no-refinement`` / ``refinement 1.0`` — the Figure 3 ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["HyperPRAWConfig"]


@dataclass(frozen=True)
class HyperPRAWConfig:
    """Parameters of the HyperPRAW restreaming algorithm (Algorithm 1).

    Attributes
    ----------
    imbalance_tolerance:
        maximum accepted max/mean load ratio (Algorithm 1's
        ``imbalance_tolerance``).  The paper does not print its value; 1.1
        (10% slack) is the conventional hypergraph-partitioning default
        and Zoltan's too, keeping the comparison fair.
    max_iterations:
        hard cap ``N`` on restreaming passes.
    alpha_initial:
        ``"paper"``, ``"fennel"`` or an explicit float — see
        :func:`repro.core.schedule.initial_alpha`.  The default is the
        paper's printed formula: it keeps the stream balanced from the
        first pass, giving the monotone PC-cost descent of Figure 3
        (the literal FENNEL form starts so low that early passes collapse
        into a degenerate, maximally imbalanced partition).
    alpha_update:
        tempering multiplier while over tolerance (paper: 1.7).
    refinement_factor:
        alpha multiplier during refinement (paper compares 1.0 and 0.95;
        0.95 wins and is the default).
    refinement:
        ``False`` reproduces the "no refinement" baseline: stop at the
        first pass within tolerance.
    presence_threshold:
        Eq. 3 threshold on ``X_j(v)`` — 1 for the prose reading (default),
        2 for the literal formula.
    stream_order:
        ``"natural"`` (vertex id order, the streaming convention) or
        ``"shuffled"`` (one fixed random order drawn from ``seed``).
    use_edge_weights:
        honour hyperedge weights in the monitored PC-cost metric.
    record_history:
        keep per-pass :class:`~repro.core.result.IterationRecord` entries
        (Figure 3 needs them; disable for large sweeps).
    chunk_size:
        ``None`` (default) streams one vertex at a time, exactly as
        published.  A positive value switches each pass to the vectorised
        chunk-scoring hot path of :func:`repro.core.value.block_value_terms`:
        vertices are processed in blocks scored against the block-start
        state (the whole block lifted out, communication terms from one
        matmul, load penalties updated per placement).  Faster, at the
        price of intra-block staleness: each vertex scores without the
        not-yet-replaced block members' old counts and loads — an opt-in
        speed/fidelity trade, benchmarked in ``bench/streaming``.
    workers:
        parallel sharded streaming worker count, consumed by the
        streaming partitioners (:class:`~repro.streaming.restream.
        BufferedRestreamer` and friends): the stream is split into
        ``workers`` contiguous chunk-range shards processed by forked
        worker processes against snapshot presence tables, merged with
        boundary-only payloads, and the boundary vertices restreamed
        across the same worker pool (barrier rounds).  ``1`` (default)
        is plain sequential streaming.  Results are reproducible for a
        fixed seed at a fixed ``workers``; they differ *across* worker
        counts (the shard structure changes).
    shard_payload:
        what sharded workers ship back at the merge: ``"boundary"``
        (default) sends only locally detected boundary presence-table
        rows, ``"full"`` whole tables (same assignments, more bytes —
        kept for measurement).
    shard_by:
        sharded streaming boundary placement: ``"pins"`` (default)
        rebalances shards by cumulative pin count when the uniform
        chunk-count split would straggle (per-shard pin skew over
        ``ShardedStreamer.PIN_SKEW_THRESHOLD``), ``"chunks"`` always
        splits by chunk count.
    kernel:
        inner-loop implementation: ``"auto"`` (default — the compiled
        numba kernel when installed and the state/scorer/mode
        combination supports it, otherwise silently python),
        ``"python"`` (the bit-for-bit reference loop) or ``"njit"``
        (request the compiled kernel; falls back to python with a
        :class:`RuntimeWarning` when it cannot be honoured).  The mode
        a run actually used is reported as ``kernel_mode`` metadata.
    """

    imbalance_tolerance: float = 1.1
    max_iterations: int = 100
    alpha_initial: "str | float" = "paper"
    alpha_update: float = 1.7
    refinement_factor: float = 0.95
    refinement: bool = True
    presence_threshold: int = 1
    stream_order: str = "natural"
    use_edge_weights: bool = True
    record_history: bool = True
    chunk_size: "int | None" = None
    workers: int = 1
    shard_payload: str = "boundary"
    shard_by: str = "pins"
    kernel: str = "auto"

    def __post_init__(self):
        from repro.engine.kernel import check_knobs

        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )
        check_knobs(kernel=self.kernel, workers=self.workers)
        if self.shard_payload not in ("boundary", "full"):
            raise ValueError(
                "shard_payload must be 'boundary' or 'full', "
                f"got {self.shard_payload!r}"
            )
        if self.shard_by not in ("pins", "chunks"):
            raise ValueError(
                f"shard_by must be 'pins' or 'chunks', got {self.shard_by!r}"
            )
        if self.imbalance_tolerance < 1.0:
            raise ValueError(
                f"imbalance_tolerance must be >= 1.0, got {self.imbalance_tolerance}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.alpha_update <= 0:
            raise ValueError(f"alpha_update must be > 0, got {self.alpha_update}")
        if self.refinement_factor <= 0:
            raise ValueError(
                f"refinement_factor must be > 0, got {self.refinement_factor}"
            )
        if self.presence_threshold < 1:
            raise ValueError(
                f"presence_threshold must be >= 1, got {self.presence_threshold}"
            )
        if self.stream_order not in ("natural", "shuffled"):
            raise ValueError(
                f"stream_order must be 'natural' or 'shuffled', got {self.stream_order!r}"
            )

    # ------------------------------------------------------------------
    def with_(self, **changes) -> "HyperPRAWConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)

    @classmethod
    def paper_refinement_095(cls) -> "HyperPRAWConfig":
        """The paper's winning configuration (refinement 0.95)."""
        return cls(refinement=True, refinement_factor=0.95)

    @classmethod
    def paper_refinement_100(cls) -> "HyperPRAWConfig":
        """Figure 3's 'refinement 1.0' variant (alpha frozen in refinement)."""
        return cls(refinement=True, refinement_factor=1.0)

    @classmethod
    def paper_no_refinement(cls) -> "HyperPRAWConfig":
        """Figure 3's 'no refinement' variant: stop at tolerance."""
        return cls(refinement=False)
