"""Batched edge-ranking engine for Algorithm 2.

Every round of :func:`~repro.core.sparsifier.trace_reduction_sparsify`
spends its time ranking off-subgraph candidate edges by (approximate)
trace reduction.  This module turns that per-edge scoring into a staged
engine with a uniform **batch API**:

* :class:`EdgeRanker` — the protocol every ranker implements:
  ``prepare(edge_ids)`` warms per-round state, ``score_batch(edge_ids)``
  returns one criticality score per candidate;
* :class:`TreePhaseRanker` — round 1, the solve-free tree-phase
  truncated trace reduction (Eqs. 13-15);
* :class:`ExactRanker` — Eq. (11) through exact solves (validation);
* :class:`ApproxRanker` — Eq. (20), the production path.

Both truncated rankers score a whole block of candidates with array
operations over flat *(candidate, node)* entries
(:mod:`repro.core.ball_join`): balls grow one BFS level at a time for
every candidate at once, the edges of ``G`` between each candidate's two
balls come from one join, and one ``bincount`` reduces the numerators.
Each candidate's reduction reads only its own entries in a fixed order,
so scores are independent of how candidates are chunked, which is what
makes the worker-pool execution in :mod:`repro.core.parallel`
deterministic.

:class:`BallCache` keeps single BFS balls across edge mutations with
touched-node invalidation; the incremental sparsifier
(:mod:`repro.incremental`) uses it as its locality engine.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.utils.arrays import concat_ranges, unique_slots
from repro.core.ball_join import LookupTable, ball_pair_edges, score_in_blocks
from repro.core.trace_reduction import exact_trace_reduction_batch
from repro.core.tree_phase import tree_truncated_trace_reduction
from repro.tree.lca import batch_tree_resistances
from repro.graph.bfs import BallFinder, ball_sets
from repro.graph.graph import Graph
from repro.graph.laplacian import regularized_laplacian
from repro.linalg.cholesky import cholesky

__all__ = [
    "EdgeRanker",
    "BallCache",
    "TreePhaseRanker",
    "ExactRanker",
    "ApproxRanker",
]


@runtime_checkable
class EdgeRanker(Protocol):
    """Protocol of one ranking stage of Algorithm 2.

    A ranker scores candidate edges of a fixed original graph against a
    fixed current subgraph.  Implementations must be **chunk-stable**:
    ``score_batch`` of a concatenation equals the concatenation of
    ``score_batch`` of the pieces, bit for bit.  That property is what
    lets :func:`repro.core.parallel.score_edges` shard candidates across
    worker processes without changing the result.
    """

    def prepare(self, edge_ids) -> None:
        """Warm any caches needed to score *edge_ids* (idempotent)."""

    def score_batch(self, edge_ids) -> np.ndarray:
        """Return one criticality score per candidate edge id."""


class BallCache:
    """BFS balls around single nodes, kept across adjacency changes.

    A ball around ``a`` computed on one adjacency is still correct on
    the next unless some endpoint of an inserted or deleted edge lies
    within ``beta`` hops of ``a`` in the old or the new adjacency.  The
    cache therefore persists across changes and only drops entries
    inside the balls of touched endpoints (the exact rule — and why it
    is safe — is spelled out in ``docs/architecture.md``).

    Parameters
    ----------
    beta : int
        BFS truncation depth; all cached balls use this radius.

    Notes
    -----
    Call :meth:`attach_subgraph` whenever the adjacency changes,
    passing ``invalidate=<touched nodes>`` (every node whose incident
    edge set changed since the previous attach).
    """

    def __init__(self, beta: int) -> None:
        if beta < 1:
            raise ValueError(f"beta must be >= 1, got {beta}")
        self.beta = int(beta)
        self._balls: dict = {}
        self._finder: BallFinder | None = None
        self._sub_indptr = None
        self._sub_nbr = None

    def __len__(self) -> int:
        return len(self._balls)

    def attach_subgraph(self, indptr, neighbors, invalidate=None) -> None:
        """Point ball queries at a (possibly new) subgraph adjacency.

        Parameters
        ----------
        indptr, neighbors : numpy.ndarray
            CSR adjacency of the current subgraph ``S``.
        invalidate : array_like of int, optional
            Nodes whose incident edge set changed since the previous
            attach (the endpoints of inserted or deleted edges).  Omit
            only on the first attach or when the adjacency is
            unchanged; re-attaching a *changed* adjacency with cached
            entries and no touched set raises ``ValueError`` — silently
            serving stale balls would yield wrong results.

        Raises
        ------
        ValueError
            When the adjacency differs from the previously attached one,
            entries are cached, and ``invalidate`` was not given.
        """
        old_finder = self._finder
        changed = (
            old_finder is not None
            and not (
                np.array_equal(self._sub_indptr, indptr)
                and np.array_equal(self._sub_nbr, neighbors)
            )
        )
        if changed and invalidate is None and self._balls:
            raise ValueError(
                "attach_subgraph: the adjacency changed but invalidate= "
                "was not given; cached balls would silently go stale. "
                "Pass the touched nodes (endpoints of every inserted or "
                "deleted edge), or an empty array if the change truly "
                "touches no cached entry."
            )
        self._finder = BallFinder(indptr, neighbors)
        self._sub_indptr = indptr
        self._sub_nbr = neighbors
        if invalidate is None:
            return
        invalidate = np.asarray(invalidate, dtype=np.int64)
        stale: set = set()
        for node in invalidate:
            # A cached entry for ``a`` is stale iff a touched node is
            # within beta hops of ``a`` in the OLD or the NEW adjacency
            # (the adjacency is symmetric, so that is the union of the
            # touched node's balls in both).  Insertions only shrink
            # distances (old ball subset of new); deletions *grow*
            # distances, and only the old ball reaches the entries whose
            # routes ran through the removed edges.
            stale.update(self._finder.ball_nodes(int(node), self.beta).tolist())
            if changed and old_finder is not None:
                stale.update(
                    old_finder.ball_nodes(int(node), self.beta).tolist()
                )
        for node in stale:
            self._balls.pop(node, None)

    def ball(self, node: int) -> np.ndarray:
        """Sorted beta-ball around *node* in the current subgraph."""
        nodes = self._balls.get(node)
        if nodes is None:
            if self._finder is None:
                raise RuntimeError("attach_subgraph() before ball()")
            nodes = self._finder.ball_nodes(node, self.beta)
            self._balls[node] = nodes
        return nodes


class TreePhaseRanker:
    """Round-1 ranker: solve-free tree-phase criticality (Eqs. 13-15).

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    forest : repro.tree.rooted.RootedForest
        Rooted spanning forest ``T`` (the initial subgraph).
    beta : int, optional
        BFS truncation depth (paper default 5).
    """

    def __init__(self, graph: Graph, forest, beta: int = 5) -> None:
        self.graph = graph
        self.forest = forest
        self.beta = int(beta)
        self._resistances: np.ndarray | None = None

    def prepare(self, edge_ids) -> None:
        """Batch-compute tree resistances and warm shared structures.

        One Tarjan offline-LCA DFS covers the whole candidate set, so
        per-chunk ``score_batch`` calls (serial or in forked workers)
        skip the O(n) DFS; the Euler intervals and CSR adjacencies are
        materialized here too so workers inherit them copy-on-write.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return
        if self._resistances is None:
            self._resistances = np.full(self.graph.edge_count, np.nan)
        missing = edge_ids[np.isnan(self._resistances[edge_ids])]
        if len(missing):
            resist, _ = batch_tree_resistances(
                self.forest, self.graph.u[missing], self.graph.v[missing]
            )
            self._resistances[missing] = resist
        self.forest.euler_intervals()
        self.forest.tree.adjacency()
        self.graph.adjacency()

    def score_batch(self, edge_ids) -> np.ndarray:
        """Tree-phase truncated trace reduction per candidate edge.

        Parameters
        ----------
        edge_ids : array_like of int
            Off-tree candidate edge ids.

        Returns
        -------
        numpy.ndarray
            Truncated trace reduction (Eq. 15), aligned with
            *edge_ids*.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if len(edge_ids) == 0:
            return np.empty(0)
        self.prepare(edge_ids)
        crit, _, _ = tree_truncated_trace_reduction(
            self.graph, self.forest, edge_ids=edge_ids, beta=self.beta,
            resistances=self._resistances[edge_ids],
        )
        return crit


class ExactRanker:
    """Validation ranker: Eq. (11) verbatim through exact solves.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    solve : callable
        ``solve(rhs) -> x`` with the (regularized) subgraph Laplacian,
        e.g. ``CholeskyFactor.solve``.
    """

    def __init__(self, graph: Graph, solve) -> None:
        self.graph = graph
        self._solve = solve

    @classmethod
    def from_subgraph(
        cls, graph: Graph, subgraph: Graph, shift: float
    ) -> "ExactRanker":
        """Factor ``L_S + shift I`` and build the ranker from it."""
        factor = cholesky(regularized_laplacian(subgraph, shift))
        return cls(graph, factor.solve)

    def prepare(self, edge_ids) -> None:
        """No per-round caches; nothing to warm."""

    def score_batch(self, edge_ids) -> np.ndarray:
        """Exact trace reduction per candidate edge (one solve each)."""
        return exact_trace_reduction_batch(
            self.graph, self._solve, np.asarray(edge_ids, dtype=np.int64)
        )


class ApproxRanker:
    """Production ranker: SPAI-based approximate trace reduction (Eq. 20).

    For a candidate ``(p, q)`` with ``u = z~_p - z~_q`` (columns of
    ``Z`` in the factor's ordering), ``R_S(p, q) ~ u . u`` and every
    ball node ``a`` gets ``s_a = z~_a . u``; the numerator sums
    ``w_ij (s_i - s_j)^2`` over the edges of ``G`` joining the beta-balls
    of ``p`` and ``q`` in the current subgraph ``S``.  A block of
    candidates is scored at once:

    1. the balls of the block's endpoints grow together, one BFS level
       at a time (:func:`repro.graph.bfs.ball_sets`);
    2. one join finds each candidate's ball-to-ball edges
       (:func:`repro.core.ball_join.ball_pair_edges`);
    3. ``s`` is evaluated only at those edges' endpoints, reading ``u``
       through a dense per-candidate table;
    4. one ``bincount`` reduces the numerators.

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
    Scores are chunk-stable (independent of how candidates are split),
    so any sharding of the candidate list across worker processes
    reproduces the serial result exactly.
    """

    def __init__(
        self, graph: Graph, subgraph: Graph, factor, Z, beta: int = 5,
    ) -> None:
        if beta < 1:
            raise ValueError(f"ball radius beta must be >= 1, got {beta}")
        self.graph = graph
        self.beta = int(beta)
        self._iperm = np.asarray(factor.iperm, dtype=np.int64)
        self._z_indptr = np.asarray(Z.indptr, dtype=np.int64)
        self._z_indices = np.asarray(Z.indices, dtype=np.int64)
        self._z_data = Z.data
        sub_indptr, sub_nbr, _ = subgraph.adjacency()
        self._sub_adjacency = (sub_indptr, sub_nbr)

    def prepare(self, edge_ids) -> None:
        """Warm the graph adjacency every block reads (idempotent).

        The sparsifier driver calls this in the parent process before
        forking workers so the arrays are shared read-only.
        """
        self.graph.adjacency()

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
        heads = graph.u[edge_ids]
        tails = graph.v[edge_ids]
        w_cand = graph.w[edge_ids]
        tables = (LookupTable(graph.n, len(edge_ids), np.int32, -1),
                  LookupTable(graph.n, len(edge_ids), np.float64, 0.0))
        return score_in_blocks(
            len(edge_ids),
            lambda start, stop: self._score_block(
                heads[start:stop], tails[start:stop], w_cand[start:stop],
                tables,
            ),
            graph,
        )

    def _score_block(self, p, q, w_pq, tables):
        graph = self.graph
        n = graph.n
        adjacency = graph.adjacency()
        positions, u_table = tables
        count = len(p)
        ends, which, _ = unique_slots(np.concatenate([p, q]))
        ptr, members = ball_sets(*self._sub_adjacency, ends, self.beta)
        p_owner, p_nodes = _ball_entries(ptr, members, which[:count])
        q_owner, q_nodes = _ball_entries(ptr, members, which[count:])
        src, nbr, _, eids = ball_pair_edges(
            adjacency, positions, p_owner, p_nodes, q_owner, q_nodes
        )
        owner = p_owner[src]
        u_owner, u_rows, u_values, resistance = self._differences(p, q)
        # s_a = z~_a . u at each joined edge's endpoints, once per
        # (candidate, node).
        keys, slot, _ = unique_slots(
            np.concatenate([owner * n + p_nodes[src], owner * n + q_nodes[nbr]])
        )
        s_values, gathered = self._inner_products(
            keys // n, keys % n, u_table, u_owner, u_rows, u_values
        )
        diffs = s_values[slot[: len(src)]] - s_values[slot[len(src):]]
        numerator = np.bincount(
            owner, weights=graph.w[eids] * diffs * diffs, minlength=count
        )
        scores = w_pq * numerator / (1.0 + w_pq * resistance)
        incidences = int(np.sum(adjacency[0][p_nodes + 1] - adjacency[0][p_nodes]))
        return scores, len(members) + incidences + gathered

    def _differences(self, p, q):
        """``u = z~_p - z~_q`` per candidate and ``R_S(p, q) ~ u . u``.

        Returns ``u`` as entries ``(owner, row, value)`` sorted by
        ``(owner, row)`` plus the resistance per candidate.
        """
        n = self.graph.n
        count = len(p)
        (p_owner, p_flat), (q_owner, q_flat) = map(self._columns, (p, q))
        keys = np.concatenate([
            p_owner * n + self._z_indices[p_flat],
            q_owner * n + self._z_indices[q_flat],
        ])
        keys, slot, _ = unique_slots(keys)
        # Accumulating +z~_p before -z~_q per row reproduces the dense
        # scatter ``u[rows_p] += z~_p; u[rows_q] -= z~_q`` exactly.
        u_values = np.bincount(slot, weights=np.concatenate(
            [self._z_data[p_flat], -self._z_data[q_flat]]
        ))
        u_owner, u_rows = np.divmod(keys, n)
        resistance = np.bincount(u_owner, weights=u_values * u_values,
                                 minlength=count)
        return u_owner, u_rows, u_values, resistance

    def _inner_products(self, owner, nodes, u_table, u_owner, u_rows,
                        u_values):
        """``z~_a . u`` for entries ``(owner, a)`` sorted by owner."""
        entry, flat = self._columns(nodes)
        (u_at,) = u_table.lookup(
            u_owner, u_rows, u_values,
            [(owner[entry], self._z_indices[flat])],
        )
        s_values = np.bincount(entry, weights=self._z_data[flat] * u_at,
                               minlength=len(nodes))
        return s_values, len(flat)

    def _columns(self, nodes):
        """Storage positions of the ``Z`` columns of *nodes*.

        Returns ``(entry, flat)``: for every stored entry, the index of
        its node in *nodes* and its position in ``Z.indices`` /
        ``Z.data``, column by column in storage (ascending row) order.
        """
        cols = self._iperm[nodes]
        starts = self._z_indptr[cols]
        lengths = self._z_indptr[cols + 1] - starts
        return (np.repeat(np.arange(len(nodes)), lengths),
                concat_ranges(starts, lengths))


def _ball_entries(ptr, members, which):
    """Entries ``(owner, node)`` of ball ``which[k]`` for every owner ``k``."""
    starts = ptr[which]
    lengths = ptr[which + 1] - starts
    owner = np.repeat(np.arange(len(which)), lengths)
    return owner, members[concat_ranges(starts, lengths)]
