"""Differential test for the chunk-mode choice loop.

:func:`~repro.engine.kernel.pass_kernel` chooses a block's parts in
rounds: it guesses a window of vertices against the loads as they
stand, re-scores each guess against the loads its predecessors' guesses
imply, and keeps the guesses up to the first one that changes.
:mod:`chunk_reference` keeps the original loop, which scores and places
one vertex at a time.  Both run the same passes over the same random
blocks here, and must agree on every chosen part, on the loads bit for
bit, and on the state's tables (dense counts; the capped table's rows,
LRU order and evictions; min-max's connectivity).

The cases cover every scorer, the three kernel states, restreaming on
and off, the balance cap off, binding, and so tight that every part is
full, unit and non-unit vertex weights, blocks shorter and longer than
the choice window, and integer-valued scores, where exact ties leave
the choice to ``argmax``'s first-index rule.
"""

import numpy as np
import pytest

from chunk_reference import chunk_pass
from repro.core.metrics import edge_partition_counts, partition_loads
from repro.engine import (
    DenseKernelState,
    FennelScorer,
    HyperPRAWScorer,
    HypeScorer,
    InMemorySource,
    MinMaxScorer,
    pass_kernel,
)
from repro.engine.kernel import CHOICE_WINDOW
from repro.hypergraph.model import Hypergraph
from repro.partitioning.families import MinMaxState
from repro.streaming.state import StreamingState

P = 4
NUM_VERTICES = 300
NUM_EDGES = 70
#: the capped tables track fewer nets than the instance has
TRACKED = 12
#: block sizes below and above the choice window
BLOCKS = (5, 2 * CHOICE_WINDOW + 22)

#: (scorer, state); "dense-rr" starts from a round-robin int32 count
#: table as HyperPRAW does, the others from an empty state
PAIRS = [
    ("eq1", "dense"),
    ("eq1", "dense-rr"),
    ("eq1", "capped"),
    ("eq1", "minmax"),
    ("fennel", "dense"),
    ("fennel", "capped"),
    ("hype", "dense"),
    ("hype", "capped"),
    ("minmax", "minmax"),
]


def _hypergraph(weighted: bool, num_edges: int = NUM_EDGES) -> Hypergraph:
    rng = np.random.default_rng(5 + weighted)
    sizes = rng.integers(2, 9, num_edges)
    pins = np.concatenate(
        [np.sort(rng.choice(NUM_VERTICES, s, replace=False)) for s in sizes]
    )
    hg = Hypergraph.from_csr_arrays(
        NUM_VERTICES, np.concatenate(([0], np.cumsum(sizes))), pins
    )
    if weighted:
        hg = hg.with_weights(vertex_weights=rng.uniform(0.5, 3.0, NUM_VERTICES))
    return hg


def _state(kind: str, hg: Hypergraph, expected: np.ndarray):
    """A fresh state and the assignment it starts from."""
    if kind == "dense-rr":
        start = np.arange(hg.num_vertices, dtype=np.int64) % P
        counts = edge_partition_counts(hg, start, P)
        return DenseKernelState(P, counts, partition_loads(hg, start, P)), start
    start = np.zeros(hg.num_vertices, dtype=np.int64)
    if kind == "dense":
        return DenseKernelState.empty(hg.num_edges, P), start
    cls = MinMaxState if kind == "minmax" else StreamingState
    return cls(P, expected_loads=expected, max_tracked_edges=TRACKED), start


def _scorer(kind: str, state, expected: np.ndarray):
    if kind == "eq1":
        C = np.array([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]])
        return HyperPRAWScorer(C.astype(float), 2.0, expected)
    if kind == "fennel":
        # alpha * gamma = 0.5 and gamma - 1 = 1: scores are multiples of
        # 0.5 under unit weights, so exact ties are common
        return FennelScorer(0.25, 2.0)
    if kind == "hype":
        return HypeScorer(1.0)
    return MinMaxScorer(state.connectivity, expected)


def _tables(state) -> dict:
    if isinstance(state, DenseKernelState):
        return {"counts": state.edge_counts.copy()}
    edges, rows = state.export_table()
    out = {
        "edges": edges,
        "rows": rows,
        "lru": np.array(list(state._slots.items())),
        "evictions": state.evictions,
        "peak": state.peak_tracked_edges,
    }
    if isinstance(state, MinMaxState):
        out["connectivity"] = state.connectivity.copy()
    return out


@pytest.mark.parametrize("block_size", BLOCKS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("cap", ["off", "binding", "all-full"])
@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_bulk_choice_matches_per_vertex_loop(pair, cap, weighted, block_size):
    scorer_kind, state_kind = pair
    hg = _hypergraph(weighted)
    expected = np.full(P, hg.vertex_weights.sum() / P)
    limit = {
        "off": None,
        "binding": 1.02 * hg.vertex_weights.sum() / P,
        "all-full": 0.0,
    }[cap]
    order = np.random.default_rng(block_size).permutation(hg.num_vertices)
    source = InMemorySource(hg, order=order, block_size=block_size)
    (lib, a_lib), (ref, a_ref) = (
        _state(state_kind, hg, expected) for _ in range(2)
    )
    s_lib = _scorer(scorer_kind, lib, expected)
    s_ref = _scorer(scorer_kind, ref, expected)
    passes = (True, True) if state_kind == "dense-rr" else (False, True)
    for restream in passes:
        pass_kernel(
            source.blocks(), lib, s_lib, a_lib,
            restream=restream, score_mode="chunk", cap=limit,
        )
        chunk_pass(source.blocks(), ref, s_ref, a_ref, restream=restream, cap=limit)
        assert np.array_equal(a_lib, a_ref)
        assert lib.loads.tobytes() == ref.loads.tobytes()
        got, want = _tables(lib), _tables(ref)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key


def test_rounds_keep_several_guesses_and_reject_some():
    """Not vacuous: on an Eq. 1 restream some guesses are wrong (more
    rounds than windows), yet a round keeps many of them (far fewer
    rounds than vertices)."""
    hg = _hypergraph(False, num_edges=NUM_VERTICES)
    expected = np.full(P, NUM_VERTICES / P)
    state, a = _state("dense-rr", hg, expected)
    scorer = _scorer("eq1", state, expected)
    calls = []
    real = scorer.block_values
    scorer.block_values = lambda *args: calls.append(1) or real(*args)
    block = 100
    pass_kernel(
        InMemorySource(hg, block_size=block).blocks(), state, scorer, a,
        restream=True, score_mode="chunk",
    )
    rounds = len(calls) // 2  # a guess and a verify per round
    windows = NUM_VERTICES // block * -(-block // CHOICE_WINDOW)
    assert windows < rounds < NUM_VERTICES // 4


def test_ties_resolve_to_the_first_part():
    """Identical vertices with no neighbours tie on every part whose load
    is equal; both loops must pick the lowest such part each time."""
    n = 3 * CHOICE_WINDOW + 1
    hg = Hypergraph.from_csr_arrays(n, np.array([0]), np.array([], dtype=np.int64))
    source = InMemorySource(hg, block_size=n)
    picks = []
    for run in (pass_kernel, chunk_pass):
        state = DenseKernelState.empty(0, P)
        a = np.zeros(n, dtype=np.int64)
        kwargs = {"score_mode": "chunk"} if run is pass_kernel else {}
        run(source.blocks(), state, FennelScorer(0.25, 2.0), a, **kwargs)
        picks.append(a)
    assert np.array_equal(picks[0], picks[1])
    assert np.array_equal(picks[0], np.arange(n) % P)
