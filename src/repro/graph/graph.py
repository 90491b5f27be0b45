"""Weighted undirected graph with array storage and cached CSR adjacency.

The :class:`Graph` class is the central data structure of the package.
It stores each undirected edge exactly once with ``u < v`` in three
parallel numpy arrays, and lazily builds a CSR-style adjacency
(``indptr``, ``neighbors``, ``edge_ids``) used by all traversal kernels.

Graphs are treated as immutable: algorithms that "add edges to a
subgraph" (Algorithm 2 of the paper) instead keep a boolean mask over the
parent graph's edge array and call :meth:`Graph.subgraph` when they need
an explicit adjacency for the current subgraph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError

__all__ = ["Graph"]


class Graph:
    """A weighted undirected graph (possibly disconnected, no self loops).

    Parameters
    ----------
    n:
        Number of nodes.  Nodes are the integers ``0..n-1``.
    u, v:
        Edge endpoint arrays.  Stored canonically with ``u < v``;
        inputs with ``u > v`` are swapped automatically.
    w:
        Positive edge weights (conductances, in circuit terms).
    validate:
        When true (default), check invariants: endpoints in range,
        no self loops, no duplicate edges, strictly positive weights.
    """

    __slots__ = ("n", "u", "v", "w", "_indptr", "_nbr", "_eid")

    def __init__(self, n, u, v, w, validate=True):
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        w = np.asarray(w, dtype=np.float64).ravel()
        if not (len(u) == len(v) == len(w)):
            raise GraphError(
                f"edge arrays disagree in length: {len(u)}, {len(v)}, {len(w)}"
            )
        swap = u > v
        if np.any(swap):
            u = u.copy()
            v = v.copy()
            u[swap], v[swap] = v[swap], u[swap]
        self.n = int(n)
        self.u = u
        self.v = v
        self.w = w
        self._indptr = None
        self._nbr = None
        self._eid = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n, edges, validate=True) -> "Graph":
        """Build a graph from an iterable of ``(u, v, w)`` triples."""
        edges = list(edges)
        if not edges:
            return cls(n, [], [], [], validate=validate)
        u, v, w = zip(*edges)
        return cls(n, u, v, w, validate=validate)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.n <= 0:
            raise GraphError(f"graph needs at least one node, got n={self.n}")
        if self.edge_count == 0:
            return
        if self.u.min() < 0 or self.v.max() >= self.n:
            raise GraphError("edge endpoint out of range")
        if np.any(self.u == self.v):
            raise GraphError("self loops are not allowed")
        if np.any(~np.isfinite(self.w)) or np.any(self.w <= 0):
            raise GraphError("edge weights must be finite and positive")
        keys = self.u * self.n + self.v
        if len(np.unique(keys)) != len(keys):
            raise GraphError("duplicate edges detected")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """Number of (undirected) edges."""
        return len(self.u)

    def weighted_degrees(self) -> np.ndarray:
        """Per-node sum of incident edge weights (the Laplacian diagonal)."""
        deg = np.zeros(self.n, dtype=np.float64)
        np.add.at(deg, self.u, self.w)
        np.add.at(deg, self.v, self.w)
        return deg

    def degrees(self) -> np.ndarray:
        """Per-node number of incident edges."""
        deg = np.bincount(self.u, minlength=self.n)
        deg += np.bincount(self.v, minlength=self.n)
        return deg

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def adjacency(self):
        """Return CSR adjacency ``(indptr, neighbors, edge_ids)``.

        ``neighbors[indptr[i]:indptr[i+1]]`` lists the neighbors of node
        ``i`` and ``edge_ids`` gives, in the same positions, the index of
        the connecting edge into :attr:`u`/:attr:`v`/:attr:`w`.
        The result is cached on first use.
        """
        if self._indptr is None:
            m = self.edge_count
            heads = np.concatenate([self.u, self.v])
            tails = np.concatenate([self.v, self.u])
            eids = np.concatenate([np.arange(m), np.arange(m)])
            order = np.argsort(heads, kind="stable")
            counts = np.bincount(heads, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._indptr = indptr
            self._nbr = tails[order]
            self._eid = eids[order]
        return self._indptr, self._nbr, self._eid

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbors of *node* as an array (convenience accessor)."""
        indptr, nbr, _ = self.adjacency()
        return nbr[indptr[node] : indptr[node + 1]]

    # ------------------------------------------------------------------
    # derived graphs / matrices
    # ------------------------------------------------------------------
    def subgraph(self, edge_mask) -> "Graph":
        """Return the subgraph on the same node set keeping masked edges.

        *edge_mask* is either a boolean mask of length ``edge_count`` or
        an integer array of edge ids.
        """
        edge_mask = np.asarray(edge_mask)
        if edge_mask.dtype == bool:
            if len(edge_mask) != self.edge_count:
                raise GraphError("edge mask length mismatch")
            ids = np.flatnonzero(edge_mask)
        else:
            ids = edge_mask.astype(np.int64)
        return Graph(
            self.n, self.u[ids], self.v[ids], self.w[ids], validate=False
        )

    def reweighted(self, new_w) -> "Graph":
        """Return a graph with identical topology but new weights."""
        new_w = np.asarray(new_w, dtype=np.float64)
        if len(new_w) != self.edge_count:
            raise GraphError("weight array length mismatch")
        return Graph(self.n, self.u, self.v, new_w, validate=True)

    def to_scipy_adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency matrix in CSR form."""
        m = self.edge_count
        rows = np.concatenate([self.u, self.v])
        cols = np.concatenate([self.v, self.u])
        data = np.concatenate([self.w, self.w])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def edge_key_set(self) -> set:
        """Set of ``(u, v)`` tuples with ``u < v`` (for tests/small graphs)."""
        return set(zip(self.u.tolist(), self.v.tolist()))

    def edge_lookup(self) -> dict:
        """Dict mapping ``(u, v)`` with ``u < v`` to the edge id."""
        return {
            (int(a), int(b)): i
            for i, (a, b) in enumerate(zip(self.u, self.v))
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.edge_count})"
