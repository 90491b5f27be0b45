"""Tree effective resistances through lowest common ancestors.

The paper (Sec. 3.2) computes tree effective resistances for *all*
off-tree edges in one pass over the spanning forest, citing Tarjan's
offline LCA [9].  Here the pass is binary lifting over the forest's
``2**k``-th ancestor tables: lift the deeper endpoint of every query to
its partner's depth, then lift both while their ancestors differ, one
array operation per table.  LCAs are unique, so any correct algorithm
returns the same nodes, and the resistances
``rdist[p] + rdist[q] - 2 rdist[lca]`` are the same floats.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError, NotATreeError
from repro.tree.rooted import RootedForest

__all__ = ["batch_tree_resistances"]


def batch_tree_resistances(forest: RootedForest, qu, qv):
    """Tree effective resistances for many node pairs at once.

    Parameters
    ----------
    forest:
        The rooted spanning forest.
    qu, qv:
        Integer query endpoint arrays of the same shape.  Both
        endpoints of each query must lie in the same component.

    Returns
    -------
    (resistances, lcas)
        ``R_T(qu[k], qv[k])`` and ``lca(qu[k], qv[k])`` per query.

    Raises
    ------
    GraphError
        When a query node is not an integer in ``[0, n)``.
    NotATreeError
        When a query spans two components.
    """
    qu, qv = _query_nodes(qu, forest.n), _query_nodes(qv, forest.n)
    if qu.shape != qv.shape:
        raise ValueError("query arrays must have the same shape")
    labels = forest.component_labels
    if np.any(labels[qu] != labels[qv]):
        raise NotATreeError("an LCA query spans two components")
    lcas = _lift(forest, qu, qv)
    rdist = forest.rdist
    resistances = rdist[qu] + rdist[qv] - 2.0 * rdist[lcas]
    return resistances, lcas


def _query_nodes(nodes, n: int) -> np.ndarray:
    """Query nodes as ``int64``, or GraphError when any is not a node."""
    nodes = np.asarray(nodes)
    if nodes.size == 0:
        return nodes.astype(np.int64)
    if nodes.dtype.kind not in "iu":
        raise GraphError(
            f"LCA query nodes must be integers, got dtype {nodes.dtype}"
        )
    if nodes.min() < 0 or nodes.max() >= n:
        raise GraphError(f"LCA query node out of range for n={n}")
    return nodes.astype(np.int64)


def _lift(forest: RootedForest, qu, qv) -> np.ndarray:
    """LCAs of same-component query pairs by binary lifting."""
    depth = forest.depth
    deeper = depth[qu] >= depth[qv]
    a = np.where(deeper, qu, qv)
    b = np.where(deeper, qv, qu)
    gap = depth[a] - depth[b]
    for k, up in enumerate(forest.ancestors):
        lift = (gap >> k) & 1 == 1
        a[lift] = up[a[lift]]
    for up in reversed(forest.ancestors):
        up_a, up_b = up[a], up[b]
        differ = up_a != up_b
        a[differ] = up_a[differ]
        b[differ] = up_b[differ]
    return np.where(a == b, a, forest.parent[a])
