"""Per-vertex reference implementation of the chunk-mode choice loop.

A frozen copy of :func:`~repro.engine.kernel.pass_kernel`'s original
chunk mode: after the block's neighbour terms are frozen, every vertex
is scored on its own against the live loads, masked by the balance cap,
argmaxed and placed before the next one is scored.  The scorers' old
per-vertex ``chunk_values`` and the one-row ``apply_balance_cap`` are
copied here too, so the library's bulk loop is checked against code it
does not share.  ``tests/test_choice_loop.py`` drives both over the
same random blocks and compares the chosen parts, the loads bit for bit
and the state tables.
"""

from __future__ import annotations

import numpy as np

from repro.engine import FennelScorer, HyperPRAWScorer, HypeScorer, MinMaxScorer


def chunk_values(scorer, terms, loads, out):
    """One block vertex's values: its term row and the live loads."""
    if isinstance(scorer, HyperPRAWScorer):
        np.multiply(scorer._alpha_inv_expected, loads, out=out)
        np.subtract(terms, out, out=out)
    elif isinstance(scorer, FennelScorer):
        penalty = scorer.alpha * scorer.gamma * np.power(loads, scorer.gamma - 1.0)
        np.subtract(terms, penalty, out=out)
    elif isinstance(scorer, HypeScorer):
        out[:] = terms
    elif isinstance(scorer, MinMaxScorer):
        np.multiply(loads, scorer._inv_expected, out=out)
        out *= -scorer.tie_penalty
        out -= scorer._conn
        out += terms
    else:
        raise TypeError(f"no reference values for {type(scorer).__name__}")


def balance_cap(values, loads, weight, cap):
    """Mask one vertex's over-cap partitions; all full keeps the emptiest."""
    full = loads + weight > cap
    if full.all():
        full = loads != loads.min()
    values[full] = -np.inf


def chunk_pass(blocks, state, scorer, assignment, *, restream=False, cap=None):
    """One chunk-mode pass, choosing and placing one vertex at a time."""
    loads = state.loads
    values = np.empty(state.num_parts, dtype=np.float64)
    deferred = getattr(state, "place_deferred", False)
    for block in blocks:
        ids = block.ids
        ptr = block.vertex_ptr
        edges_all = block.vertex_edges
        weights = block.vertex_weights
        m = ids.size
        if m == 0:
            continue
        if restream:
            state.lift_block(edges_all, ptr, assignment[ids], weights)
        terms = scorer.block_terms(state.gather_block(edges_all, ptr))
        new = np.empty(m, dtype=np.int64)
        for i in range(m):
            chunk_values(scorer, terms[i], loads, values)
            if cap is not None:
                balance_cap(values, loads, weights[i], cap)
            j = int(np.argmax(values))
            new[i] = j
            if deferred:
                loads[j] += weights[i]
            else:
                state.place(edges_all[ptr[i] : ptr[i + 1]], j, weights[i])
        if deferred:
            state.insert_block(edges_all, ptr, new)
        assignment[ids] = new
