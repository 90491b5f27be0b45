"""The numpy vector tier — the default, and the historical code path.

Every operation delegates to (or restates verbatim) the vectorized
micro-kernels the package has always run —
:mod:`repro.core._kernels` and :func:`repro.utils.arrays.concat_ranges`,
the CSR layer gather of
:meth:`repro.graph.bfs.BallFinder.ball_nodes`, the column gather of
:func:`repro.linalg.spai.extract_columns` and the sparse matvec behind
the JL probes — so selecting ``kernels="vector"`` is bit-identical to
every release before the kernel layer existed, by construction.  The
loops run inside numpy's compiled C vector routines; the numba tier
exists to fuse them further.
"""

from __future__ import annotations

import numpy as np

from repro.core._kernels import ball_pair_edge_sum, ball_pair_edge_sum_flat
from repro.kernels.base import KernelSet
from repro.utils.arrays import concat_ranges

__all__ = ["VectorKernels"]


class VectorKernels(KernelSet):
    """Vectorized numpy kernels (the pre-kernel-layer code path)."""

    name = "vector"
    description = "numpy vector kernels (the default, historical path)"
    compiled_kernels = False

    def concat_ranges(self, starts, lengths) -> np.ndarray:
        """Two-cumsum range concatenation (the historical kernel)."""
        return concat_ranges(starts, lengths)

    def select_ball_pair_edges(self, sources, nbrs, eids, in_q_stamp, clock):
        """Stamp mask + ``np.unique`` first-occurrence dedup."""
        mask = in_q_stamp[nbrs] == clock
        if not np.any(mask):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        eids = eids[mask]
        ueids, first = np.unique(eids, return_index=True)
        return ueids, sources[mask][first], nbrs[mask][first]

    def expand_frontier(self, indptr, neighbors, frontier, stamp, clock):
        """One CSR gather + stamp filter + ``np.unique`` per layer."""
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        flat = concat_ranges(starts, lengths)
        if len(flat) == 0:
            return np.empty(0, dtype=np.int64)
        nbrs = neighbors[flat]
        fresh = np.unique(nbrs[stamp[nbrs] != clock])
        stamp[fresh] = clock
        return fresh

    def gather_csc_columns(self, indptr, indices, data, cols):
        """One ``concat_ranges`` pass over the requested columns."""
        starts = indptr[cols].astype(np.int64)
        lengths = indptr[cols + 1].astype(np.int64) - starts
        flat = concat_ranges(starts, lengths)
        out_indptr = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum(lengths, out=out_indptr[1:])
        return out_indptr, indices[flat].astype(np.int64), data[flat]

    def probe_rhs(self, incidence, q) -> np.ndarray:
        """scipy's compiled CSC matvec (the historical expression)."""
        return incidence.T @ q

    # The compositions delegate straight to the historical kernels so
    # the default path executes literally the pre-layer code.
    def ball_pair_edge_sum_flat(
        self, sources, nbrs, eids, weights, in_q_stamp, clock, values
    ) -> float:
        """Verbatim :func:`repro.core._kernels.ball_pair_edge_sum_flat`."""
        return ball_pair_edge_sum_flat(
            sources, nbrs, eids, weights, in_q_stamp, clock, values
        )

    def ball_pair_edge_sum(
        self, indptr, neighbors, edge_ids, weights, nodes_p,
        in_q_stamp, clock, values,
    ) -> float:
        """Verbatim :func:`repro.core._kernels.ball_pair_edge_sum`."""
        return ball_pair_edge_sum(
            indptr, neighbors, edge_ids, weights, nodes_p,
            in_q_stamp, clock, values,
        )
