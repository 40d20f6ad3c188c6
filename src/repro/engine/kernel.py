"""The one stream-pass loop (visit -> score -> place) everything shares.

Algorithm 1's body — visit each vertex, score every partition, (re)place
the vertex at the argmax — used to be implemented four separate times
(``HyperPRAW._stream_pass``/``_stream_pass_chunked``,
``BufferedRestreamer._window_pass``, ``OnePassStreamer._place_*`` and
the former ``FennelStreaming``'s inline loop).  :func:`pass_kernel` is
the single remaining implementation; the variation lives in its inputs:

* **blocks** — any iterable of :class:`~repro.engine.blocks.VertexBlock`
  (in-memory order, out-of-core chunks, a restream window, a shard);
* **state** — dense exact counts or the bounded capped presence table
  (see :mod:`repro.engine.states`);
* **scorer** — Eq. 1 or FENNEL (see :mod:`repro.engine.scorers`);
* **restream** — lift each vertex out before scoring (restreaming) or
  score it as a first-time arrival (one-pass placement);
* **score_mode** — ``"vertex"`` scores each vertex against the live
  state (exact, block-size invariant); ``"chunk"`` scores a whole block
  against the block-start state with one matmul (the ~2.4x vectorised
  hot path, at the price of intra-block staleness in the neighbour
  term — the load penalty always tracks live loads).  Both modes
  support both ``restream`` settings: chunk-mode restreaming lifts the
  whole block out in one batch (``lift_block``) before the matmul.
  Chunk mode then chooses the block's parts in rounds: it guesses up to
  :data:`CHOICE_WINDOW` vertices against the loads as they stand,
  re-scores each guess against the loads the earlier guesses imply
  (one ``cumsum``), and keeps the guesses up to and including the first
  one the re-score changes.  That one is exact too: the loads it was
  re-scored against are the ones its kept predecessors leave.  Each
  row gets the same elementwise float operations on the same loads as
  a vertex-at-a-time loop, so the parts are the same bit for bit;
* **cap** — optional FENNEL-style hard balance cap;
* **kernel** — ``"python"`` (the reference loop below), ``"njit"`` (the
  optional compiled twin for dense-state vertex scoring — see
  :mod:`~repro.engine.njit_kernel`) or ``"auto"``; the resolved mode is
  returned so drivers can record it as ``kernel_mode`` metadata.

The per-vertex floating-point operation order is preserved from the
historical loops, so refactored partitioners reproduce their previous
assignments bit for bit (pinned by golden-hash tests), and the compiled
kernel reproduces the python path op for op.  Per-pass scratch arrays
(``values``, the chunk placement buffer, the choice rounds' value,
implied-load and balance-cap rows, and the gather buffer) are allocated
once per call and reused across every vertex and block.
"""

from __future__ import annotations

import numpy as np

from repro.engine.njit_kernel import resolve_kernel, run_njit_block

__all__ = ["pass_kernel", "check_knobs", "apply_balance_cap", "move_back"]

#: Vertices one chunk-mode choice round guesses ahead.  On ``paper-aware``
#: (p=24, 1,024-vertex blocks) a round keeps ~34 of 64 guesses; a window
#: of 32 keeps ~25 and 128 keeps ~37, for more work per round.
CHOICE_WINDOW = 64


def check_knobs(
    *, chunk_size: int = 1, score_mode: str = "vertex", kernel: str = "auto",
    workers: int = 1,
) -> None:
    """Reject bad values of the knobs the pass drivers share."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if score_mode not in ("vertex", "chunk"):
        raise ValueError(
            f"score_mode must be 'vertex' or 'chunk', got {score_mode!r}"
        )
    if kernel not in ("auto", "python", "njit"):
        raise ValueError(
            f"kernel must be 'auto', 'python' or 'njit', got {kernel!r}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def apply_balance_cap(
    values: np.ndarray,
    loads: np.ndarray,
    weight,
    cap: float,
    out: "np.ndarray | None" = None,
    scratch: "np.ndarray | None" = None,
) -> None:
    """Mask partitions the hard balance cap forbids (in place).

    ``values`` is one vertex's length-``p`` row with its ``weight``, or
    one row per vertex (``n x p``) with a column of weights (``n x 1``);
    ``loads`` is one length-``p`` vector shared by every row, or one row
    of loads per value row.  In each row, sets ``values[j] = -inf``
    wherever placing the vertex would push ``loads[j]`` over ``cap``;
    when *every* partition of a row is over cap, only that row's
    emptiest survives (a stream must always be able to place).

    ``out`` (bool) and ``scratch`` (float64), shaped like ``values``,
    are optional preallocated work arrays; passing both makes the call
    allocation-free on the hot path.  The masked result is identical
    either way — the buffers change where the intermediates live, not
    the float comparisons (``loads + weight > cap``, never the
    rearranged ``loads > cap - weight``).  A single row skips the
    per-row reductions: vertex mode calls this once per vertex.
    """
    summed = np.add(loads, weight, out=scratch)
    full = np.greater(summed, cap, out=out)
    # Everything over cap (tiny p or huge vertex): fall back to the
    # emptiest partition rather than dead-ending.
    if full.ndim == 1:
        if full.all():
            full = np.not_equal(loads, loads.min(), out=out)
    else:
        stuck = full.all(axis=1)
        if stuck.any():
            rows = np.broadcast_to(loads, full.shape)[stuck]
            full[stuck] = rows != rows.min(axis=1, keepdims=True)
    values[full] = -np.inf


def pass_kernel(
    blocks,
    state,
    scorer,
    assignment: np.ndarray,
    *,
    restream: bool = False,
    score_mode: str = "vertex",
    cap: "float | None" = None,
    kernel: str = "python",
) -> str:
    """Run one pass of visit -> score -> place over ``blocks``.

    Parameters
    ----------
    blocks:
        iterable of :class:`~repro.engine.blocks.VertexBlock` in stream
        order (an :class:`~repro.engine.blocks.InMemorySource`'s
        ``blocks()``, a chunk stream itself, a single restream window,
        ...).
    state:
        kernel state (see :mod:`repro.engine.states` for the protocol);
        its ``loads`` and counts are mutated in place.
    scorer:
        value function (see :mod:`repro.engine.scorers`).
    assignment:
        length-``|V|`` partition vector indexed by *global* vertex id,
        updated in place; when ``restream`` is set it must hold each
        visited vertex's current partition on entry (the vertex is
        lifted out before scoring).
    restream:
        ``True`` re-places already-assigned vertices (HyperPRAW
        restreaming); ``False`` scores first-time arrivals.
    score_mode:
        ``"vertex"`` (exact, live state) or ``"chunk"`` (one matmul per
        block against the block-start state, parts chosen in guess and
        re-score rounds against the live loads — the vectorised hot
        path).  A scorer reading live state besides the loads declares
        ``choice_window = 1`` and gets one vertex per round.
    cap:
        optional hard balance cap passed to :func:`apply_balance_cap`.
    kernel:
        ``"python"`` (default — the reference loop, bit-for-bit stable),
        ``"njit"`` (the optional compiled fast path; falls back to
        python with a :class:`RuntimeWarning` when numba is missing or
        the combination is unsupported) or ``"auto"`` (compiled when
        available, silently python otherwise).

    Returns
    -------
    str
        the kernel mode the pass actually ran (``"python"`` or
        ``"njit"``) — drivers surface it as ``kernel_mode`` run
        metadata; the pass's effects are the in-place updates to
        ``state`` and ``assignment``.
    """
    check_knobs(score_mode=score_mode)
    mode = resolve_kernel(kernel, state, scorer, score_mode)
    loads = state.loads
    p = state.num_parts

    if mode == "njit":
        for block in blocks:
            run_njit_block(block, state, scorer, assignment, restream, cap)
        return mode

    if score_mode == "vertex":
        values = np.empty(p, dtype=np.float64)
        cap_mask = np.empty(p, dtype=bool) if cap is not None else None
        cap_scratch = np.empty(p, dtype=np.float64) if cap is not None else None
        # States advertising gather(out=) get a reused length-p buffer;
        # the bounded LRU table builds its rows itself.
        gather_out = (
            np.empty(p, dtype=np.float64)
            if getattr(state, "gather_accepts_out", False)
            else None
        )
        for block in blocks:
            ids = block.ids
            ptr = block.vertex_ptr
            edges_all = block.vertex_edges
            weights = block.vertex_weights
            for i in range(ids.size):
                v = ids[i]
                edges = edges_all[ptr[i] : ptr[i + 1]]
                w_v = weights[i]
                if restream:
                    state.remove(edges, assignment[v], w_v)
                if edges.size:
                    X = (
                        state.gather(edges)
                        if gather_out is None
                        else state.gather(edges, out=gather_out)
                    )
                else:
                    X = None
                scorer.vertex_values(X, loads, values)
                if cap is not None:
                    apply_balance_cap(
                        values, loads, w_v, cap, out=cap_mask, scratch=cap_scratch
                    )
                j = int(values.argmax())
                state.place(edges, j, w_v)
                assignment[v] = j
        return mode

    # ------------------------------------------------------------------
    # chunk mode: neighbour terms frozen at block start, one matmul per
    # block; each vertex is chosen against the loads (and, for
    # non-deferred states, the presence table) its predecessors left.
    # ------------------------------------------------------------------
    deferred = getattr(state, "place_deferred", False)
    window = getattr(scorer, "choice_window", CHOICE_WINDOW)
    rows = np.empty((window, p), dtype=np.float64)
    implied = np.empty((window, p), dtype=np.float64)
    later = np.arange(1, window)
    row_mask = np.empty((window, p), dtype=bool) if cap is not None else None
    row_sums = np.empty((window, p), dtype=np.float64) if cap is not None else None

    def choose(terms, row_loads, w, n):
        """Argmax of each of ``n`` rows scored against ``row_loads``."""
        vals = rows[:n]
        scorer.block_values(terms, row_loads, vals)
        if cap is not None:
            apply_balance_cap(
                vals, row_loads, w[:, None], cap, out=row_mask[:n], scratch=row_sums[:n]
            )
        return vals.argmax(axis=1)

    new_buf = np.empty(0, dtype=np.int64)
    for block in blocks:
        ids = block.ids
        ptr = block.vertex_ptr
        edges_all = block.vertex_edges
        weights = block.vertex_weights
        m = ids.size
        if m == 0:
            continue
        if restream:
            old = assignment[ids]
            state.lift_block(edges_all, ptr, old, weights)
        X = state.gather_block(edges_all, ptr)
        terms = scorer.block_terms(X)
        if new_buf.size < m:
            new_buf = np.empty(m, dtype=np.int64)
        new = new_buf[:m]
        pos = 0
        while pos < m:
            # One round: guess the next n vertices against the loads as
            # they stand, then re-score row i against the loads guesses
            # 0..i-1 imply (a cumsum, so each column is the same chain of
            # += a per-vertex loop would run).  Rows up to and including
            # the first disagreement are exact; keep them, place them,
            # and start the next round after them.
            n = min(window, m - pos)
            t = terms[pos : pos + n]
            w = weights[pos : pos + n]
            choice = choose(t, loads, w, n)
            k = 1
            if n > 1:
                steps = implied[:n]
                steps[0] = loads
                steps[1:] = 0.0
                steps[later[: n - 1], choice[:-1]] = w[:-1]
                np.cumsum(steps, axis=0, out=steps)
                verified = choose(t, steps, w, n)
                wrong = np.flatnonzero(verified != choice)
                k = int(wrong[0]) + 1 if wrong.size else n
                choice = verified
            new[pos : pos + k] = choice[:k]
            if deferred:
                if n > 1:
                    loads[:] = steps[k - 1]
                loads[choice[k - 1]] += w[k - 1]
            else:
                for i in range(pos, pos + k):
                    state.place(edges_all[ptr[i] : ptr[i + 1]], int(new[i]), weights[i])
            pos += k
        if deferred:
            state.insert_block(edges_all, ptr, new)
        assignment[ids] = new
    return mode


def move_back(state, block, assignment: np.ndarray, best: np.ndarray) -> None:
    """Return ``block``'s vertices to the parts in ``best`` (a rollback).

    ``best`` is ``assignment[block.ids]`` as recorded at the pass being
    restored; only vertices that moved since are lifted off their
    current part and re-placed, through the state's per-vertex
    ``remove``/``place``, so any kernel-protocol state stays consistent.
    """
    current = assignment[block.ids]
    for i in np.flatnonzero(current != best):
        edges = block.edges_of(i)
        weight = block.vertex_weights[i]
        state.remove(edges, int(current[i]), weight)
        state.place(edges, int(best[i]), weight)
        assignment[block.ids[i]] = int(best[i])
