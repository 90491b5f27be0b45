"""Spanning trees/forests, rooted structure, LCA resistances and stretch."""

from repro.tree.spanning import (
    maximum_spanning_forest,
    effective_weights,
    mewst,
    bfs_spanning_forest,
)
from repro.tree.rooted import RootedForest
from repro.tree.lca import batch_tree_resistances
from repro.tree.stretch import edge_stretches, total_stretch

__all__ = [
    "maximum_spanning_forest",
    "effective_weights",
    "mewst",
    "bfs_spanning_forest",
    "RootedForest",
    "batch_tree_resistances",
    "edge_stretches",
    "total_stretch",
]
