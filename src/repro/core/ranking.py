"""Batched Eq. 20 scoring for the general rounds of Algorithm 2.

Rounds 2+ of the ``"proposed"`` method (:mod:`repro.core.sparsifier`)
rank their off-subgraph candidates by approximate trace reduction
through :class:`ApproxRanker`, whose ``score_batch(edge_ids)`` returns
one score per candidate.  Round 1 scores against the spanning tree with
no solve at all (Eqs. 13-15,
:func:`~repro.core.tree_phase.tree_truncated_trace_reduction`); the
exact Eq. 11 and its per-candidate loops live in the test suite's
oracles.

The ranker scores a whole block of candidates with array operations
over flat *(candidate, node)* entries (:mod:`repro.core.ball_join`):
balls grow one BFS level at a time for every candidate at once, the
edges of ``G`` between each candidate's two balls come from one join,
and one ``bincount`` reduces the numerators.  The joins also carry over
from round to round in a :class:`~repro.core.ball_join.JoinStore`: the
tree phase seeds it, and :meth:`ApproxRanker.reuse_joins` drops only
the joins whose balls may have grown and regrows those before scoring,
so every stored candidate goes straight to the s-value stage.  Each
candidate's reduction reads only its own entries in a fixed order, so
scores are **chunk-stable**: independent of how candidates are split
into batches and of where their joins came from, which is what lets
the sparsifier score a round in batches of its own choosing.  From the
same stored joins, :meth:`ApproxRanker.score_bounds` bounds every
Eq. 20 score from above (Cauchy-Schwarz over the joined edges'
approximate resistances), so the sparsifier scores only the candidates
its picking walk can reach.  Similarity marking grows the same joins at
radius ``gamma`` (:func:`~repro.core.ball_join.grown_joins`).
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import gather_ranges, unique_slots
from repro.core.ball_join import (
    BLOCK_ENTRIES,
    LookupTable,
    ball_joins,
    ball_tables,
    block_spans,
    grown_joins,
    run_in_blocks,
)
from repro.graph.bfs import ball_sets
from repro.graph.graph import Graph

__all__ = ["ApproxRanker"]


class ApproxRanker:
    """Production ranker: SPAI-based approximate trace reduction (Eq. 20).

    For a candidate ``(p, q)`` with ``u = z~_p - z~_q`` (columns of
    ``Z`` in the factor's ordering), ``R_S(p, q) ~ u . u`` and every
    ball node ``a`` gets ``s_a = z~_a . u``; the numerator sums
    ``w_ij (s_i - s_j)^2`` over the edges of ``G`` joining the beta-balls
    of ``p`` and ``q`` in the current subgraph ``S``.  A block of
    candidates is scored at once:

    1. each candidate's join comes from the round's
       :class:`~repro.core.ball_join.JoinStore` (:meth:`reuse_joins`),
       in blocks cut from the stored join lengths.  Candidates past the
       store's cap grow their endpoints' balls together and are joined
       in spans cut from the grown balls' exact counts
       (:func:`repro.core.ball_join.grown_joins`), without being stored;
    2. ``s`` is evaluated only at the joined edges' endpoints, as dot
       products of ``Z`` columns with ``u`` filled into a dense
       per-candidate table (:meth:`~repro.core.ball_join.LookupTable.dots`);
    3. one ``bincount`` per span reduces the numerators.

    :meth:`score_bounds` gives, for every candidate with a stored join,
    an upper bound on its score that holds for the computed floats.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    subgraph : Graph
        The current subgraph ``S`` (BFS balls are grown here).
    factor : repro.linalg.cholesky.CholeskyFactor
        Factor of the regularized ``L_S`` — provides the ordering that
        maps original nodes to columns of ``Z``.
    Z : scipy.sparse.csc_matrix
        Output of :func:`repro.linalg.spai.sparse_approximate_inverse`
        on ``factor.L``.
    beta : int, optional
        BFS truncation depth (paper default 5).

    Notes
    -----
    Scores are chunk-stable (independent of how candidates are split
    into batches), and they are the same bits with or without a join
    store.
    """

    def __init__(
        self, graph: Graph, subgraph: Graph, factor, Z, beta: int = 5,
    ) -> None:
        if beta < 1:
            raise ValueError(f"ball radius beta must be >= 1, got {beta}")
        self.graph = graph
        self.beta = int(beta)
        self._iperm = np.asarray(factor.iperm, dtype=np.int64)
        self._Z = Z
        self._z_indptr = np.asarray(Z.indptr, dtype=np.int64)
        self._z_indices = np.asarray(Z.indices, dtype=np.int64)
        self._z_data = Z.data
        sub_indptr, sub_nbr, _ = subgraph.adjacency()
        self._sub_adjacency = (sub_indptr, sub_nbr)
        self._joins = None
        # Entries a joined edge costs the s-value stage: itself, and the
        # Z columns of its endpoints, mostly shared with the candidate's
        # other joined edges.
        self._per_id = 1.0 + len(self._z_indices) / graph.n

    def reuse_joins(self, joins, edge_ids) -> None:
        """Score from *joins*, brought up to this ranker's subgraph.

        The store drops the joins of departed candidates and those whose
        balls may have grown since it was last used
        (:meth:`~repro.core.ball_join.JoinStore.retain`); the joins it
        lacks are then grown here in candidate order, until it is full,
        from one ball per distinct endpoint
        (:func:`~repro.core.ball_join.ball_tables`).  Call it before
        scoring the round.

        Parameters
        ----------
        joins : repro.core.ball_join.JoinStore
            The store carried over from the previous round (the tree
            phase seeds it), or an empty one.  It must have been grown
            in a subgraph of this ranker's.
        edge_ids : array_like of int
            This round's candidates.
        """
        graph = self.graph
        missing = joins.retain(self._sub_adjacency, edge_ids, self.beta)
        self._joins = joins
        positions = LookupTable(graph.n, len(missing), np.int32, -1)
        chunks = ball_tables(graph.u[missing], graph.v[missing], graph.n,
                             self._grow_balls)
        for start, _, p_ball, q_ball, ptr, (members,) in chunks:
            work, join = ball_joins(graph, ptr, members, p_ball, q_ball)
            for lo, hi in block_spans(work):
                owner, eids = join(lo, hi, positions)
                joins.append(missing[start + lo:start + hi], owner, eids)
                if joins.full:
                    break
            if joins.full:
                break
        del positions, chunks  # free the table before the store merges
        joins.commit()

    def _grow_balls(self, nodes):
        """The beta-balls of *nodes* in ``S``, for :func:`ball_tables`."""
        indptr, neighbors = self._sub_adjacency
        ptr, members = ball_sets(indptr, neighbors, nodes, self.beta)
        members = members.astype(np.int32)
        work = len(members) + int(np.sum(indptr[members + 1]
                                         - indptr[members]))
        return ptr, (members,), work

    def score_batch(self, edge_ids) -> np.ndarray:
        """Approximate trace reduction (Eq. 20) per candidate edge.

        Parameters
        ----------
        edge_ids : array_like of int
            Candidate off-subgraph edge ids (into ``graph``'s arrays).

        Returns
        -------
        numpy.ndarray
            Approximate trace reduction, aligned with *edge_ids*.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return np.empty(0)
        graph = self.graph
        joins = self._joins
        slots = (joins.slots(edge_ids) if joins is not None
                 else np.full(len(edge_ids), -1))
        heads = graph.u[edge_ids]
        tails = graph.v[edge_ids]
        w_cand = graph.w[edge_ids]
        u_table = LookupTable(graph.n, len(edge_ids), np.float64, 0.0)
        out = np.empty(len(edge_ids))

        def reduce(pick, owner, eids):
            out[pick] = self._reduce(heads[pick], tails[pick], w_cand[pick],
                                     owner, eids, u_table)

        # Stored joins, in blocks cut from their lengths.
        held = np.flatnonzero(slots >= 0)
        if len(held):
            lengths = joins.ptr[slots[held] + 1] - joins.ptr[slots[held]]
            for lo, hi in block_spans(self._costs(lengths)):
                reduce(held[lo:hi], *joins.entries(slots[held[lo:hi]]))
        # Joins the store lacks (past its cap, or no store) are grown as
        # they are scored, and not stored.
        grown = np.flatnonzero(slots < 0)
        if len(grown) == 0:
            return out
        positions = LookupTable(graph.n, len(grown), np.int32, -1)

        def score_block(start, stop):
            block = grown[start:stop]
            work, join = grown_joins(graph, self._sub_adjacency,
                                     heads[block], tails[block], self.beta)
            for lo, hi in block_spans(work):
                reduce(block[lo:hi], *join(lo, hi, positions))
            return work.sum()

        run_in_blocks(len(grown), score_block, graph)
        return out

    def score_bounds(self, edge_ids) -> np.ndarray:
        """Upper bounds on the :meth:`score_batch` scores of *edge_ids*.

        By Cauchy-Schwarz, ``(s_i - s_j)^2 <= R~_(i,j) R~_c`` for every
        joined edge ``(i, j)`` of a candidate ``c``, where
        ``R~ = |z~_i - z~_j|^2`` is an edge's approximate resistance, so
        the score is at most ``w_c R~_c / (1 + w_c R~_c)`` times the sum
        of ``w_e R~_e`` over the candidate's join.  The terms are
        enlarged to cover the rounding of both computations
        (``docs/architecture.md``, "Exact pruning of rounds 2+"), so
        every score is at most its bound as computed floats.  Call this
        after :meth:`reuse_joins`: the sums read the round's stored
        joins.

        Parameters
        ----------
        edge_ids : array_like of int
            Candidate off-subgraph edge ids.

        Returns
        -------
        numpy.ndarray
            One bound per candidate, ``+inf`` where the store holds no
            join (past its cap, or no store).
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        bounds = np.full(len(edge_ids), np.inf)
        joins = self._joins
        slots = (joins.slots(edge_ids) if joins is not None
                 else np.full(len(edge_ids), -1))
        held = np.flatnonzero(slots >= 0)
        if len(held) == 0:
            return bounds
        slots = slots[held]
        resistance, leverage, margin = self._leverages()
        sums = np.empty(len(held))
        lengths = joins.ptr[slots + 1] - joins.ptr[slots]
        for lo, hi in block_spans(1.0 + lengths):
            owner, eids = joins.entries(slots[lo:hi])
            sums[lo:hi] = np.bincount(owner, weights=leverage[eids],
                                      minlength=hi - lo)
        held_ids = edge_ids[held]
        t = self.graph.w[held_ids] * resistance[held_ids]
        with np.errstate(over="ignore", invalid="ignore"):
            held_bounds = t / (1.0 + t) * sums * margin
        # Overflow makes inf / inf: such a candidate is simply scored.
        held_bounds[np.isnan(held_bounds)] = np.inf
        bounds[held] = held_bounds
        return bounds

    def _leverages(self):
        """Per-edge terms of :meth:`score_bounds`, over all of ``G``.

        Returns ``(resistance, leverage, margin)``: ``R~_e`` and
        ``w_e (R~_e^(1/2) + g (|z~_i| + |z~_j|))^2`` for every edge of
        ``G``, and the relative margin of the bound, with ``g`` and the
        margin derived from the longest ``Z`` column.  The differences
        are taken in blocks of about
        :data:`~repro.core.ball_join.BLOCK_ENTRIES` entries.
        """
        graph = self.graph
        n, m = graph.n, graph.edge_count
        lengths = np.diff(self._z_indptr)
        longest = int(lengths.max()) if len(lengths) else 0
        eps = np.finfo(np.float64).eps / 2  # unit roundoff
        # An s-value sums at most `longest` products: its rounding error
        # is at most gamma_K |z~_a| |u|, and gamma_K <= 2 K eps.
        g = 2 * longest * eps
        # The rounding of both computations, as one relative factor
        # (1 - eps)^-M <= 1 + 2 M eps; a join has at most m edges.
        margin = 1.0 + 4 * (6 * longest + 2 * m + 20) * eps
        column_sq = np.bincount(np.repeat(np.arange(n), lengths),
                                weights=self._z_data * self._z_data,
                                minlength=n)
        norms = np.sqrt(column_sq)[self._iperm]
        cols_u, cols_v = self._iperm[graph.u], self._iperm[graph.v]
        resistance = np.empty(m)
        for lo, hi in block_spans(1.0 + lengths[cols_u] + lengths[cols_v]):
            diff = self._Z[:, cols_u[lo:hi]] - self._Z[:, cols_v[lo:hi]]
            resistance[lo:hi] = np.bincount(
                np.repeat(np.arange(hi - lo), np.diff(diff.indptr)),
                weights=diff.data * diff.data, minlength=hi - lo)
        rho = np.sqrt(resistance) + g * (norms[graph.u] + norms[graph.v])
        return resistance, graph.w * rho * rho, margin

    def _costs(self, lengths):
        """Entries the s-value stage materializes per join length."""
        return 1.0 + lengths * self._per_id

    def _reduce(self, p, q, w_pq, owner, eids, u_table):
        """Eq. 20 scores of a span from its candidates' joined edges.

        *owner* and *eids* are the joins as entries grouped by candidate,
        ascending edge ids within a candidate; the candidate's numerator
        sums over them in that order.  Spans of grown joins are cut by
        join-stage counts, so the s-value stage is cut again here, by
        the joins' lengths.
        """
        if len(p) + len(eids) * self._per_id <= BLOCK_ENTRIES:
            return self._reduce_span(p, q, w_pq, owner, eids, u_table)
        lengths = np.bincount(owner, minlength=len(p))
        spans = block_spans(self._costs(lengths))
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        scores = np.empty(len(p))
        for lo, hi in spans:
            a, b = bounds[lo], bounds[hi]
            scores[lo:hi] = self._reduce_span(
                p[lo:hi], q[lo:hi], w_pq[lo:hi], owner[a:b] - lo, eids[a:b],
                u_table)
        return scores

    def _reduce_span(self, p, q, w_pq, owner, eids, u_table):
        """:meth:`_reduce` for a span whose s-value stage fits one block."""
        graph = self.graph
        n = graph.n
        u_owner, u_rows, u_values, resistance = self._differences(p, q)
        # s_a = z~_a . u at each joined edge's endpoints, once per
        # (candidate, node).  (s_i - s_j)^2 has the same bits as
        # (s_j - s_i)^2, so the endpoints need no orientation.
        keys, slot, _ = unique_slots(np.concatenate(
            [owner * n + graph.u[eids], owner * n + graph.v[eids]]))
        s_values = self._inner_products(
            *np.divmod(keys, n), u_table, u_owner, u_rows, u_values
        )
        diffs = s_values[slot[: len(eids)]] - s_values[slot[len(eids):]]
        numerator = np.bincount(
            owner, weights=graph.w[eids] * diffs * diffs, minlength=len(p)
        )
        return w_pq * numerator / (1.0 + w_pq * resistance)

    def _differences(self, p, q):
        """``u = z~_p - z~_q`` per candidate and ``R_S(p, q) ~ u . u``.

        Returns ``u`` as entries ``(owner, row, value)`` sorted by
        ``(owner, row)`` plus the resistance per candidate.
        """
        n = self.graph.n
        count = len(p)
        owner_keys = np.arange(count) * n
        (p_lengths, p_rows, p_values), (q_lengths, q_rows, q_values) = map(
            self._columns, (p, q))
        keys = np.concatenate([
            np.repeat(owner_keys, p_lengths) + p_rows,
            np.repeat(owner_keys, q_lengths) + q_rows,
        ])
        keys, slot, _ = unique_slots(keys)
        # Accumulating +z~_p before -z~_q per row reproduces the dense
        # scatter ``u[rows_p] += z~_p; u[rows_q] -= z~_q`` exactly.
        u_values = np.bincount(slot, weights=np.concatenate(
            [p_values, -q_values]
        ))
        u_owner, u_rows = np.divmod(keys, n)
        resistance = np.bincount(u_owner, weights=u_values * u_values,
                                 minlength=count)
        return u_owner, u_rows, u_values, resistance

    def _inner_products(self, owner, nodes, u_table, u_owner, u_rows,
                        u_values):
        """``z~_a . u`` for entries ``(owner, a)`` sorted by owner.

        Each sum runs over ``z~_a``'s stored entries in ascending row
        order from ``0.0`` (:meth:`LookupTable.dots`).
        """
        lengths, rows, values = self._columns(nodes)
        return u_table.dots(u_owner, u_rows, u_values, owner, lengths,
                            rows, values)

    def _columns(self, nodes):
        """The ``Z`` columns of *nodes*, concatenated.

        Returns ``(lengths, rows, values)``: each column's entry count,
        and the row index and value of every entry, column by column in
        storage (ascending row) order.
        """
        return gather_ranges(self._z_indptr, self._iperm[nodes],
                             self._z_indices, self._z_data)
