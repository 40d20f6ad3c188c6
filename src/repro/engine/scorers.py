"""Pluggable vertex scorers for the pass kernel.

A scorer turns a vertex's neighbour counts ``X`` and the live partition
loads into the length-``p`` value vector the kernel argmaxes over.  Four
families cover every partitioner in the repository:

* :class:`HyperPRAWScorer` — the paper's Eq. 1,
  ``V_i = -N(v) (C @ X)_i - alpha W(i)/E(i)``; used by HyperPRAW, both
  out-of-core streamers and the sharded boundary restream.
* :class:`FennelScorer` — FENNEL's
  ``|N(v) cap S_i| - alpha gamma |S_i|^{gamma-1}``.
* :class:`HypeScorer` — HYPE's external-neighbour minimisation,
  ``X_i - lambda (T - X_i)`` with ``T = sum_j X_j``; balance comes from
  the kernel's hard cap, matching HYPE's fixed part-size bound.
* :class:`MinMaxScorer` — the greedy min-max connectivity objective of
  the limited-memory streamers (arXiv:2103.05394): place where the
  projected per-part net-connectivity stays smallest.  Pairs with a
  state whose ``gather`` returns net *presence* counts and that
  maintains a live ``connectivity`` vector (see
  ``repro.partitioning.families.MinMaxState``).

Each scorer exposes the same three entry points:

``vertex_values(X, loads, out)``
    exact per-vertex scoring against the live state (``X`` is ``None``
    for isolated vertices);
``block_terms(X_block)``
    the per-block, state-independent part of the score for a whole block
    at once (one matmul for HyperPRAW) — the vectorised hot path;
``block_values(terms, loads, out)``
    finish rows of a block: combine their precomputed term rows with the
    load penalty of ``loads`` — one length-``p`` vector shared by every
    row, or one row of loads per term row.  The kernel's choice loop
    (:func:`~repro.engine.kernel.pass_kernel`) calls it on a window of
    rows at a time, and each row gets the same elementwise float
    operations a lone vertex would.

A scorer that reads live state besides ``loads`` (min-max's
connectivity, which every ``place`` moves) declares ``choice_window =
1``: the kernel then chooses one vertex per round and places it before
scoring the next.

The floating-point operation order of ``vertex_values`` deliberately
mirrors the historical inlined loops (``HyperPRAW._stream_pass`` and
friends) so the refactor is assignment-for-assignment reproducible —
the golden-hash tests in ``tests/test_engine.py`` pin this.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HyperPRAWScorer", "FennelScorer", "HypeScorer", "MinMaxScorer"]


class HyperPRAWScorer:
    """Eq. 1 value function with a fixed ``alpha`` (one pass's worth).

    Parameters
    ----------
    cost_matrix:
        ``(p x p)`` architecture cost matrix ``C`` (Section 4.2).
    alpha:
        load-penalty scale for this pass (the tempering schedule hands
        the kernel a fresh scorer per pass).
    expected_loads:
        target load per partition, ``E(k)`` in Eq. 1 (length ``p``).
    presence_threshold:
        Eq. 3 threshold: a partition counts as holding a neighbour only
        when its pin count ``X_j(v)`` reaches this value.
    """

    def __init__(
        self,
        cost_matrix: np.ndarray,
        alpha: float,
        expected_loads: np.ndarray,
        presence_threshold: int = 1,
    ) -> None:
        self.cost_matrix = cost_matrix
        self.alpha = float(alpha)
        self.presence_threshold = int(presence_threshold)
        self.num_parts = expected_loads.shape[0]
        self._inv_expected = 1.0 / expected_loads
        self._alpha_inv_expected = alpha / expected_loads
        self._pen = np.empty(self.num_parts, dtype=np.float64)

    def vertex_values(
        self, X: "np.ndarray | None", loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the vertex's length-``p`` Eq. 1 values into ``out``.

        ``X`` is the vertex's per-partition neighbour-count vector
        (``None`` for an isolated vertex: the communication term
        vanishes); ``loads`` the live partition loads.
        """
        if X is None:
            out[:] = 0.0
        else:
            X = np.asarray(X, dtype=np.float64)
            n_neigh = int(np.count_nonzero(X >= self.presence_threshold))
            np.matmul(self.cost_matrix, X, out=out)
            out *= -(n_neigh / self.num_parts)
        pen = self._pen
        np.multiply(loads, self._inv_expected, out=pen)
        pen *= self.alpha
        out -= pen

    def block_terms(self, X: np.ndarray) -> np.ndarray:
        """Per-block communication terms — the vectorised hot path.

        ``X`` stacks a whole block's neighbour counts (``m x p``);
        returns the ``m x p`` state-independent part of Eq. 1 (one
        matmul), to be combined with loads by :meth:`block_values`.
        """
        # Lazy: repro.core's package init imports this package back.
        from repro.core.value import block_value_terms

        T, n_neigh = block_value_terms(
            X, self.cost_matrix, presence_threshold=self.presence_threshold
        )
        return T * (-(n_neigh / self.num_parts))[:, None]

    def block_values(
        self, terms: np.ndarray, loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Finish block rows: precomputed term rows minus the load penalty."""
        np.multiply(self._alpha_inv_expected, loads, out=out)
        np.subtract(terms, out, out=out)


class FennelScorer:
    """FENNEL's neighbour-count score with the power-law load penalty.

    Parameters
    ----------
    alpha:
        penalty scale (FENNEL's ``alpha``).
    gamma:
        penalty exponent, must be > 1 (the marginal-cost derivative
        ``alpha * gamma * load^(gamma-1)`` is what the score subtracts).
    """

    def __init__(self, alpha: float, gamma: float) -> None:
        if gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        self.alpha = float(alpha)
        self.gamma = float(gamma)

    def _penalty(self, loads: np.ndarray) -> np.ndarray:
        return self.alpha * self.gamma * np.power(loads, self.gamma - 1.0)

    def vertex_values(
        self, X: "np.ndarray | None", loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the vertex's length-``p`` FENNEL scores into ``out``.

        ``X`` is the per-partition neighbour-count vector (``None`` for
        an isolated vertex); ``loads`` the live partition loads.
        """
        if X is None:
            out[:] = 0.0
        else:
            out[:] = X
        out -= self._penalty(loads)

    def block_terms(self, X: np.ndarray) -> np.ndarray:
        """FENNEL's block term is the neighbour counts themselves (``m x p``)."""
        return np.asarray(X, dtype=np.float64)

    def block_values(
        self, terms: np.ndarray, loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Finish block rows: neighbour-count rows minus the load penalty."""
        np.subtract(terms, self._penalty(loads), out=out)


class HypeScorer:
    """HYPE's external-neighbour minimisation score (Mayer et al.).

    HYPE grows each part from a fringe, preferring the candidate whose
    neighbourhood leaks least outside the part.  Against the engine's
    per-partition neighbour counts ``X`` that objective is
    ``score_i = X_i - lambda (T - X_i)`` with ``T = sum_j X_j``: the
    neighbours already inside part ``i`` minus ``lambda`` times the
    neighbours that would become external.  There is no load term —
    exactly as in HYPE, parts fill to a hard size bound (the kernel's
    balance cap) and the expansion then spills into the next part.
    Pair with :func:`~repro.engine.blocks.expansion_order` so the visit
    order is neighbourhood expansion rather than arrival order.

    Parameters
    ----------
    expansion_penalty:
        ``lambda`` >= 0, the weight on external neighbours.  Any
        positive value keeps the argmax on the densest part while making
        the *scores* reflect the external-neighbour count (reported by
        diagnostics and tie-broken by the cap fallback).
    """

    def __init__(self, expansion_penalty: float = 1.0) -> None:
        if expansion_penalty < 0:
            raise ValueError(
                f"expansion_penalty must be >= 0, got {expansion_penalty}"
            )
        self.expansion_penalty = float(expansion_penalty)

    def vertex_values(
        self, X: "np.ndarray | None", loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the vertex's length-``p`` expansion scores into ``out``."""
        if X is None:
            out[:] = 0.0
            return
        lam = self.expansion_penalty
        np.multiply(X, 1.0 + lam, out=out)
        out -= lam * float(np.asarray(X).sum())

    def block_terms(self, X: np.ndarray) -> np.ndarray:
        """Block scores are state-independent: counts dressed per vertex."""
        X = np.asarray(X, dtype=np.float64)
        lam = self.expansion_penalty
        return (1.0 + lam) * X - lam * X.sum(axis=1, keepdims=True)

    def block_values(
        self, terms: np.ndarray, loads: np.ndarray, out: np.ndarray
    ) -> None:
        """No load term — the hard cap is the balance mechanism."""
        np.copyto(out, terms)


class MinMaxScorer:
    """Greedy min-max net-connectivity objective (arXiv:2103.05394).

    The limited-memory streamers of Taşyaran et al. place each vertex
    where the *maximum* per-part connectivity (distinct nets with a pin
    in the part) grows least.  Placing ``v`` on part ``i`` raises its
    connectivity by ``k_v - X_i`` where ``X_i`` counts how many of
    ``v``'s nets already touch ``i`` — so minimising the projected
    connectivity is ``argmax_i (X_i - conn_i)`` (``k_v`` is constant
    across parts).  A small load tie-break steers between
    connectivity-equal parts; hard balance comes from the kernel cap.

    The scorer must be paired with a state whose ``gather`` returns net
    *presence* counts (not summed pin counts) and that maintains
    ``connectivity`` live — ``repro.partitioning.families.MinMaxState``.
    The arrays are shared by reference, so the scorer always sees the
    state's current connectivity without a callback protocol.

    The connectivity moves with every placement, so the scorer declares
    ``choice_window = 1``: the kernel places each block vertex before it
    scores the next.

    Parameters
    ----------
    connectivity:
        live length-``p`` per-part distinct-net counters (mutated by the
        paired state as placements happen).
    expected_loads:
        target load per partition (tie-break normalisation).
    tie_penalty:
        weight of the load tie-break; small enough that connectivity
        always dominates (default ``1e-3``).
    """

    #: one vertex per choice round (see the module docstring)
    choice_window = 1

    def __init__(
        self,
        connectivity: np.ndarray,
        expected_loads: np.ndarray,
        tie_penalty: float = 1e-3,
    ) -> None:
        if tie_penalty < 0:
            raise ValueError(f"tie_penalty must be >= 0, got {tie_penalty}")
        self._conn = connectivity
        self._inv_expected = 1.0 / np.asarray(expected_loads, dtype=np.float64)
        self.tie_penalty = float(tie_penalty)

    def vertex_values(
        self, X: "np.ndarray | None", loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Write the vertex's length-``p`` min-max scores into ``out``."""
        np.multiply(loads, self._inv_expected, out=out)
        out *= -self.tie_penalty
        out -= self._conn
        if X is not None:
            out += X

    def block_terms(self, X: np.ndarray) -> np.ndarray:
        """Presence counts frozen at block start (``m x p``)."""
        return np.asarray(X, dtype=np.float64)

    def block_values(
        self, terms: np.ndarray, loads: np.ndarray, out: np.ndarray
    ) -> None:
        """Finish block rows against the live connectivity and ``loads``."""
        np.multiply(loads, self._inv_expected, out=out)
        out *= -self.tie_penalty
        out -= self._conn
        out += terms
