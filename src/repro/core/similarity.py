"""Spectrally-similar edge exclusion (Algorithm 2, steps 8/20).

When an off-subgraph edge ``(p, q)`` is recovered, edges that would fix
the same spectral deficiency — those joining the neighborhood of ``p``
to the neighborhood of ``q`` in the current subgraph — are *marked* and
skipped for the rest of the recovery (feGRASS's similarity strategy
[13]; see DESIGN.md, substitution 5).  Physically: after ``(p, q)`` is
added, the potential difference its neighbors see collapses, so a
parallel edge nearby has little additional trace reduction.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import concat_ranges
from repro.graph.bfs import BallFinder
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
        self._finder = None
        self._stamp = np.zeros(graph.n, dtype=np.int64)
        self._clock = 0
        g_indptr, g_nbr, g_eid = graph.adjacency()
        self._g_indptr = g_indptr
        self._g_nbr = g_nbr
        self._g_eid = g_eid

    def attach_subgraph(self, subgraph: Graph) -> None:
        """Point the similarity balls at the current subgraph ``S``.

        Called once per densification round; balls use the round-start
        subgraph (adding edges mid-round does not regrow adjacency).
        """
        indptr, nbr, _ = subgraph.adjacency()
        self._finder = BallFinder(indptr, nbr)

    def is_marked(self, edge_id: int) -> bool:
        """True when the edge has been excluded."""
        return bool(self.marked[edge_id])

    def mark_similar(self, p: int, q: int) -> int:
        """Mark all edges joining ``ball(p, gamma)`` to ``ball(q, gamma)``.

        Returns the number of newly marked edges.
        """
        if self._finder is None:
            raise RuntimeError("call attach_subgraph() before mark_similar()")
        nodes_p, _, _ = self._finder.ball(p, self.gamma)
        nodes_q, _, _ = self._finder.ball(q, self.gamma)
        self._clock += 1
        clock = self._clock
        self._stamp[nodes_q] = clock
        starts = self._g_indptr[nodes_p]
        lengths = self._g_indptr[nodes_p + 1] - starts
        flat = concat_ranges(starts, lengths)
        if len(flat) == 0:
            return 0
        nbrs = self._g_nbr[flat]
        eids = self._g_eid[flat]
        hits = np.unique(eids[self._stamp[nbrs] == clock])
        newly = int(np.count_nonzero(~self.marked[hits]))
        self.marked[hits] = True
        return newly
