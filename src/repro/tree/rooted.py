"""Rooted spanning forest structure.

:class:`RootedForest` wraps a spanning forest of a graph with parent
pointers, hop depths and *resistive* root distances (sum of ``1/w``
along the root path).  Those give tree effective resistances

    ``R_T(p, q) = rdist[p] + rdist[q] - 2 rdist[lca(p, q)]``

(Eq. 4 restricted to trees; :func:`repro.tree.lca.batch_tree_resistances`
answers them in batches), and the Euler intervals locate tree paths;
the tree phase of Algorithm 2 consumes both.

Everything is array code.  Rooting is one breadth-first search from all
roots at once; depths and the ``2**k``-th ancestor tables (which answer
LCA queries by binary lifting) come from pointer jumping; ``rdist``
comes from one compiled Dijkstra over the parent -> child edges, in
which each node adds its edge term to its parent's finished value
exactly as a per-node walk from the root would, so the floats match
that walk bit for bit.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import depth_first_order, dijkstra

from repro.exceptions import NotATreeError
from repro.graph.bfs import bfs_forest
from repro.graph.components import connected_components, component_roots
from repro.graph.graph import Graph
from repro.utils.arrays import forest_depths

__all__ = ["RootedForest"]


class RootedForest:
    """A spanning forest of *graph* rooted at each component's min node.

    Parameters
    ----------
    graph:
        The parent graph.
    tree_edge_ids:
        Distinct integer ids (into the parent graph's edge arrays) of
        the forest edges.  Must be acyclic and span every component of
        the induced node set.

    Attributes
    ----------
    parent : numpy.ndarray
        Parent node of each node (``-1`` at roots).
    parent_edge : numpy.ndarray
        Global edge id of the (parent, node) edge (``-1`` at roots).
    depth : numpy.ndarray
        Hop distance from the component root.
    rdist : numpy.ndarray
        Resistive distance from the root: sum of ``1/w`` on the path.
    ancestors : list of numpy.ndarray
        ``ancestors[k][x]`` is the ``2**k``-th ancestor of ``x``
        (``-1`` above the root); every depth is below
        ``2**len(ancestors)``.

    Raises
    ------
    NotATreeError
        When the ids are not integers, fall outside ``[0, m)``, repeat,
        close a cycle, or (with *validate_spanning*) leave a component
        of the graph split.
    """

    def __init__(self, graph: Graph, tree_edge_ids, validate_spanning=True):
        tree_edge_ids = _checked_edge_ids(tree_edge_ids, graph.edge_count)
        self.graph = graph
        self.edge_ids = tree_edge_ids
        self.tree = graph.subgraph(tree_edge_ids)
        count, labels = connected_components(self.tree)
        if len(tree_edge_ids) != graph.n - count:
            raise NotATreeError(
                f"{len(tree_edge_ids)} edges cannot be a spanning forest of "
                f"{graph.n} nodes with {count} components"
            )
        if validate_spanning:
            graph_count, _ = connected_components(graph)
            if count != graph_count:
                raise NotATreeError(
                    f"forest has {count} components but the graph has "
                    f"{graph_count}: the forest does not span every component"
                )
        self.component_count = count
        self.component_labels = labels
        self.roots = component_roots(labels)

        indptr, nbr, _ = self.tree.adjacency()
        _, parent = bfs_forest(indptr, nbr, self.roots)
        self.parent = parent
        self.depth, self.ancestors = forest_depths(parent)

        # Each forest edge hangs its child below the other endpoint.
        heads = graph.u[tree_edge_ids]
        tails = graph.v[tree_edge_ids]
        child = np.where(parent[tails] == heads, tails, heads)
        self.parent_edge = np.full(graph.n, -1, dtype=np.int64)
        self.parent_edge[child] = tree_edge_ids

        # rdist by one compiled Dijkstra from all roots over the
        # parent -> child edges weighted 1/w.  A node's one in-edge comes
        # from its parent, so its distance is the parent's finished sum
        # plus its own term, one addition, just as a walk down from the
        # root would make it.
        below = np.flatnonzero(parent >= 0)
        steps = sp.csr_matrix(
            (1.0 / graph.w[self.parent_edge[below]], (parent[below], below)),
            shape=(graph.n, graph.n),
        )
        self.rdist = dijkstra(steps, indices=self.roots, min_only=True)
        self._tin = None
        self._tout = None

    # ------------------------------------------------------------------
    # membership helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Node count of the parent graph."""
        return self.graph.n

    def tree_edge_mask(self) -> np.ndarray:
        """Boolean mask over the parent graph's edges (True = in forest)."""
        mask = np.zeros(self.graph.edge_count, dtype=bool)
        mask[self.edge_ids] = True
        return mask

    def renumbered(self, graph: Graph, edge_ids) -> "RootedForest":
        """This forest over *graph*, which holds the same forest edges,
        with the same endpoints and weights, at ids *edge_ids*.

        The ids must keep the edges' order: the k-th smallest old id
        and the k-th smallest new id name the same edge, as when both
        graphs list their edges in ``(u, v)`` order.  Rooting reads only
        the forest's own edges in that order, so every node-indexed
        array but ``parent_edge`` carries over unchanged, and the result
        equals a fresh ``RootedForest(graph, edge_ids)`` whenever the
        forest still spans *graph*.
        """
        forest = copy.copy(self)
        forest.graph = graph
        forest.edge_ids = np.asarray(edge_ids, dtype=np.int64)
        rank = np.empty(self.graph.edge_count, dtype=np.int64)
        rank[self.edge_ids] = np.arange(len(self.edge_ids))
        below = self.parent_edge >= 0
        forest.parent_edge = self.parent_edge.copy()
        forest.parent_edge[below] = forest.edge_ids[
            rank[self.parent_edge[below]]]
        return forest

    # ------------------------------------------------------------------
    # Euler tour intervals (subtree membership in O(1))
    # ------------------------------------------------------------------
    def euler_intervals(self):
        """DFS entry/exit times ``(tin, tout)`` for subtree tests.

        Node ``x`` lies in the subtree rooted at ``c`` iff
        ``tin[c] <= tin[x] < tout[c]``.  Used by the tree phase to test
        in O(1) whether a tree edge lies on the path between two nodes.
        ``tin`` is the preorder of a DFS that takes the roots in
        ascending order and each node's children in the order of its
        row in ``tree.adjacency()``; ``tout = tin + subtree size``.
        """
        if self._tin is None:
            n = self.n
            indptr, nbr, _ = self.tree.adjacency()
            owner = np.repeat(np.arange(n), np.diff(indptr))
            is_child = self.parent[nbr] == owner
            # Children grouped by parent in row order; the super-root
            # ``n`` has the roots as its children.
            kids = np.concatenate([nbr[is_child], self.roots])
            owner = np.concatenate([owner[is_child],
                                    np.full(len(self.roots), n)])
            # Preorder of the tree, and of its mirror image, whose
            # preorder is the tree's postorder reversed.  A node comes
            # after its ancestors and before its own subtree in
            # preorder, after its subtree in postorder, so
            # size = post - pre + 1 + (depth below the super-root).
            pre = _preorder(kids, owner, n)
            post = n - _preorder(kids[::-1], owner[::-1], n)
            size = post - pre + self.depth + 2
            self._tin = pre - 1
            self._tout = self._tin + size
        return self._tin, self._tout

    # ------------------------------------------------------------------
    # LCA
    # ------------------------------------------------------------------
    def lca_naive(self, p: int, q: int) -> int:
        """LCA by climbing parent pointers (reference implementation)."""
        if self.component_labels[p] != self.component_labels[q]:
            raise NotATreeError("nodes are in different components")
        depth = self.depth
        parent = self.parent
        while depth[p] > depth[q]:
            p = parent[p]
        while depth[q] > depth[p]:
            q = parent[q]
        while p != q:
            p = parent[p]
            q = parent[q]
        return int(p)


def _checked_edge_ids(tree_edge_ids, edge_count: int) -> np.ndarray:
    """Sorted ``int64`` copy of forest edge ids, or NotATreeError."""
    ids = np.asarray(tree_edge_ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise NotATreeError(
            f"tree edge ids must be integers, got dtype {ids.dtype}"
        )
    ids = np.sort(ids.astype(np.int64).ravel())
    if ids.size and (ids[0] < 0 or ids[-1] >= edge_count):
        raise NotATreeError(
            f"tree edge ids must lie in [0, {edge_count}), got "
            f"{ids[0] if ids[0] < 0 else ids[-1]}"
        )
    if np.any(ids[1:] == ids[:-1]):
        raise NotATreeError("tree edge ids repeat")
    return ids


def _preorder(kids, owner, n):
    """Preorder position of nodes ``0..n-1`` below the super-root ``n``.

    *kids* lists every node's children contiguously, in visiting order,
    with ``owner`` their parents.  scipy's DFS scans a row from its
    start each time it returns to a node, so it runs on the
    first-child / next-sibling form of the tree, whose rows hold at
    most two entries (first child, then next sibling) and whose
    preorder is the tree's own.
    """
    size = n + 1
    first = np.ones(len(kids), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    first_child = np.full(size, -1, dtype=np.int64)
    first_child[owner[first]] = kids[first]
    next_sibling = np.full(size, -1, dtype=np.int64)
    next_sibling[kids[:-1][~first[1:]]] = kids[1:][~first[1:]]
    links = np.stack([first_child, next_sibling], axis=1)
    present = links >= 0
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    lcrs = sp.csr_matrix((np.ones(int(indptr[-1])), links[present], indptr),
                         shape=(size, size))
    visit = depth_first_order(lcrs, n, directed=True,
                              return_predecessors=False)
    position = np.empty(size, dtype=np.int64)
    position[visit] = np.arange(size)
    return position[:n]
