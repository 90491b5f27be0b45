"""Spectrally-similar edge exclusion (Algorithm 2, steps 8/20).

When an off-subgraph edge ``(p, q)`` is recovered, edges that would fix
the same spectral deficiency — those joining the neighborhood of ``p``
to the neighborhood of ``q`` in the current subgraph — are *marked* and
skipped for the rest of the recovery (feGRASS's similarity strategy
[13]; see DESIGN.md, substitution 5).  Physically: after ``(p, q)`` is
added, the potential difference its neighbors see collapses, so a
parallel edge nearby has little additional trace reduction.

Those edges are the ball-pair join of the Eq. 20 scorer at radius
``gamma``, so :meth:`SimilarityMarker.similar_edges` grows them with
the scorer's engine (:func:`~repro.core.ball_join.grown_joins`), for a
whole batch of candidates at once; the picking walk
(:func:`~repro.core.sparsifier._pick_edges`) then marks them one pick at
a time through :meth:`SimilarityMarker.mark_similar`.
"""

from __future__ import annotations

import numpy as np

from repro.core.ball_join import LookupTable, block_spans, grown_joins
from repro.graph.graph import Graph

__all__ = ["SimilarityMarker"]


class SimilarityMarker:
    """Tracks marked (excluded) edges across recovery rounds.

    Parameters
    ----------
    graph:
        The original graph (marks live on its edge ids).
    gamma:
        Similarity ball radius in hops (default 2).

    Marks persist across densification rounds, matching Algorithm 2
    where an edge once marked is never recovered.
    """

    def __init__(self, graph: Graph, gamma: int = 2) -> None:
        if gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {gamma}")
        self.graph = graph
        self.gamma = gamma
        self.marked = np.zeros(graph.edge_count, dtype=bool)
        self._adjacency = None

    def attach_subgraph(self, subgraph: Graph) -> None:
        """Point the similarity balls at the current subgraph ``S``.

        Called once per densification round; balls use the round-start
        subgraph (adding edges mid-round does not regrow adjacency).
        """
        self._adjacency = subgraph.adjacency()[:2]

    def similar_edges(self, edge_ids):
        """The edges each candidate would mark if it were picked.

        For a candidate ``(p, q)``, every edge of ``G`` joining
        ``ball(p, gamma)`` to ``ball(q, gamma)`` in ``S``, the candidate
        itself included.  The balls of all candidates grow together and
        are joined in spans (:func:`~repro.core.ball_join.grown_joins`).

        Parameters
        ----------
        edge_ids : array_like of int
            Candidate edge ids.

        Returns
        -------
        ptr : numpy.ndarray
            ``int64`` offsets: the edges of ``edge_ids[k]`` are
            ``eids[ptr[k]:ptr[k + 1]]``.
        eids : numpy.ndarray
            Edge ids, ascending and distinct per candidate.
        """
        if self._adjacency is None:
            raise RuntimeError("call attach_subgraph() before similar_edges()")
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        graph = self.graph
        ptr = np.zeros(len(edge_ids) + 1, dtype=np.int64)
        if len(edge_ids) == 0:
            return ptr, np.empty(0, dtype=np.int64)
        work, join = grown_joins(graph, self._adjacency, graph.u[edge_ids],
                                 graph.v[edge_ids], self.gamma)
        positions = LookupTable(graph.n, len(edge_ids), np.int32, -1)
        lengths, parts = [], []
        for lo, hi in block_spans(work):
            owner, eids = join(lo, hi, positions)
            lengths.append(np.bincount(owner, minlength=hi - lo))
            parts.append(eids)
        np.cumsum(np.concatenate(lengths), out=ptr[1:])
        return ptr, np.concatenate(parts)

    def mark_similar(self, edge_ids) -> int:
        """Mark a pick's similar edges (:meth:`similar_edges`).

        Parameters
        ----------
        edge_ids : array_like of int
            Distinct edge ids.

        Returns
        -------
        int
            The number of newly marked edges.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        newly = len(edge_ids) - int(np.count_nonzero(self.marked[edge_ids]))
        self.marked[edge_ids] = True
        return newly
