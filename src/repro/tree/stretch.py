"""Stretch diagnostics for spanning trees.

The *stretch* of an off-tree edge ``e = (p, q)`` with respect to a tree
``T`` is ``w_e * R_T(p, q)``.  Low total stretch is the classic quality
measure for the spanning tree underlying a spectral sparsifier: it
equals ``Trace(L_T^{-1} L_G) - n`` up to regularization, which is
exactly the quantity Algorithm 2 attacks.  Used by the tree-choice
ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.tree.lca import batch_tree_resistances
from repro.tree.rooted import RootedForest

__all__ = ["edge_stretches", "total_stretch"]


def edge_stretches(graph: Graph, forest: RootedForest) -> np.ndarray:
    """Stretch ``w_e * R_T(e)`` for every edge of *graph*.

    Tree edges have stretch exactly 1 (their tree path is themselves);
    they are included so the result aligns with the graph's edge arrays.
    """
    resistances, _ = batch_tree_resistances(forest, graph.u, graph.v)
    return graph.w * resistances


def total_stretch(graph: Graph, forest: RootedForest) -> float:
    """Sum of stretches over all edges."""
    return float(edge_stretches(graph, forest).sum())
