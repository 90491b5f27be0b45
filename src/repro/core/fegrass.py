"""feGRASS baseline — effective-resistance-based sparsification [13].

feGRASS builds the maximum effective weight spanning tree, scores every
off-tree edge by its *stretch* ``w_pq R_T(p, q)`` (one batched LCA
query gives the tree effective resistances of all off-tree edges,
Sec. 2 of the paper), and recovers the top edges in a single pass with
similarity exclusion.
No linear solves are needed at all, which is why feGRASS is fast but —
as the paper's Table 1 argument goes — less effective than
densification-based methods that re-rank against the growing subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import BaseSparsifierConfig, shared_artifact
from repro.core.similarity import SimilarityMarker
from repro.core.sparsifier import SparsifierResult, _pick_edges, _ranked
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.tree.lca import batch_tree_resistances
from repro.tree.rooted import RootedForest
from repro.tree.spanning import mewst

__all__ = ["FegrassConfig"]


@dataclass(kw_only=True)
class FegrassConfig(BaseSparsifierConfig):
    """Knobs of the feGRASS baseline."""

    gamma: int = 2
    use_similarity: bool = True

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.GraphError` on bad knobs."""
        super().validate()
        if self.gamma < 0:
            raise GraphError(f"gamma must be >= 0, got {self.gamma!r}")


def _run(graph: Graph, config: FegrassConfig,
         artifacts=None) -> SparsifierResult:
    """The registered ``"fegrass"`` runner (*config* already validated)."""
    tree_ids = shared_artifact(
        artifacts, "tree", ("mewst",), lambda: mewst(graph)
    )
    forest = shared_artifact(
        artifacts, "forest", ("mewst",),
        lambda: RootedForest(graph, tree_ids),
    )
    edge_mask = forest.tree_edge_mask()
    candidates = np.flatnonzero(~edge_mask)
    budget = int(round(config.edge_fraction * graph.n))
    budget = min(budget, len(candidates))
    recovered: list = []
    if budget > 0 and len(candidates):
        def _stretch():
            # Off-tree stretches depend only on the MEWST, so a session
            # sweeping fractions reuses one batched LCA query.
            resistances, _ = batch_tree_resistances(
                forest, graph.u[candidates], graph.v[candidates]
            )
            return resistances

        resistances = shared_artifact(
            artifacts, "tree_stretch", ("mewst",), _stretch
        )
        crit = graph.w[candidates] * resistances
        marker = SimilarityMarker(graph, gamma=config.gamma)
        marker.attach_subgraph(forest.tree)
        recovered, _ = _pick_edges(_ranked(candidates, crit), marker,
                                   budget, config.use_similarity)
        edge_mask[recovered] = True

    return SparsifierResult(
        graph=graph,
        edge_mask=edge_mask,
        tree_edge_ids=tree_ids,
        recovered_edge_ids=np.asarray(recovered, dtype=np.int64),
        config=config,
        rounds_log=[{"round": 1, "phase": "fegrass", "added": len(recovered)}],
    )
