"""The hot-path kernel protocol.

Profiling ``bench_table1`` charges most of the pipeline's wall clock to
a handful of tight per-edge loops: the restricted Laplacian quadratic
form behind the criticality scores (Eqs. 15/20), the beta-ball BFS
frontier expansion, the SPAI column gather and the Hutchinson probe
right-hand sides of the JL resistance sketch.  :class:`KernelSet` names
exactly those operations so they can be swapped as a unit — the pure
Python reference loops (:mod:`repro.kernels.reference`), the numpy
vector implementations the package has always shipped
(:mod:`repro.kernels.vector`, the default), and optional
numba-compiled fused loops (:mod:`repro.kernels.numba_kernels`,
auto-detected at import probe exactly like the CHOLMOD backend).

**The parity contract.**  Every tier must produce *bit-identical*
output — not merely close.  That is achievable because the tiers only
compete on exact work (selection, deduplication, gathering, graph
traversal: all integer or order-preserving operations), while every
floating-point *reduction* is pinned to one shared expression evaluated
on identically ordered arrays (:func:`restricted_quadratic_form`) or to
a fixed sequential accumulation order (:meth:`KernelSet.probe_rhs`
follows scipy's CSC matvec order).  ``tests/kernels`` enforces the
contract differentially — kernel by kernel on adversarial inputs and
end to end on every registered method's ``RunRecord`` fingerprint.

Like linalg backends, kernel sets are stateless and hashable by name.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelSet", "KERNEL_CAPABILITY_FLAGS", "restricted_quadratic_form"]

#: Capability flags every kernel set reports through ``capabilities()``.
KERNEL_CAPABILITY_FLAGS = ("available", "compiled_kernels")


def restricted_quadratic_form(weights, ueids, usrc, unbr, values):
    """``sum w_e (values[i] - values[j])^2`` over pre-selected edges.

    The one floating-point reduction of the scoring kernels, shared by
    every tier: *ueids* must be the deduplicated edge ids in ascending
    order with *usrc*/*unbr* the first-seen orientation of each —
    exactly what :meth:`KernelSet.select_ball_pair_edges` returns.
    Because every tier feeds identically ordered arrays into this one
    numpy expression, the scores are bit-identical across tiers by
    construction.
    """
    if len(ueids) == 0:
        return 0.0
    diffs = values[usrc] - values[unbr]
    return float(np.sum(weights[ueids] * diffs * diffs))


class KernelSet:
    """One pluggable implementation of the package's hot-path kernels.

    Subclasses override the tier-specific operations; the base class
    supplies the compositions (:meth:`ball_pair_edge_sum_flat` and
    :meth:`ball_pair_edge_sum` are selection + the shared reduction)
    so a tier only implements the exact-arithmetic parts.

    Class attributes
    ----------------
    name:
        Registry key (``"python"``, ``"vector"``, ``"numba"``).
    description:
        One line for CLI/markdown listings.
    compiled_kernels:
        True when the tier's loops are JIT/AOT-compiled as fused native
        code (numba) rather than interpreted Python or generic numpy
        vector calls.
    """

    name = "base"
    description = ""
    compiled_kernels = False

    # ------------------------------------------------------------------
    # availability / introspection
    # ------------------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether this tier can run in this environment."""
        return True

    @classmethod
    def capabilities(cls) -> dict:
        """The tier's capability flags as a plain (JSON-safe) dict."""
        return {
            "available": bool(cls.is_available()),
            "compiled_kernels": bool(cls.compiled_kernels),
        }

    # ------------------------------------------------------------------
    # tier-specific kernels (exact arithmetic only)
    # ------------------------------------------------------------------
    def concat_ranges(self, starts, lengths) -> np.ndarray:
        """Concatenate integer ranges ``[starts[k], starts[k]+lengths[k])``.

        Zero-length ranges contribute nothing; the result is one
        ``int64`` array.  See
        :func:`repro.utils.arrays.concat_ranges` for the reference
        semantics.
        """
        raise NotImplementedError

    def select_ball_pair_edges(self, sources, nbrs, eids, in_q_stamp, clock):
        """Select and dedupe the ball-to-ball edges of Eq. 15/20.

        From the flattened incidence triples of the ball around ``p``,
        keep the entries whose neighbor is stamped as belonging to the
        ball around ``q`` (``in_q_stamp[x] == clock``) and collapse the
        two orientations of an undirected edge to its first occurrence.

        Returns
        -------
        (ueids, usrc, unbr) : tuple of numpy.ndarray
            Unique qualifying edge ids in **ascending order**, with the
            source/neighbor of each edge's **first occurrence** in the
            input order — the exact contract
            :func:`restricted_quadratic_form` consumes.
        """
        raise NotImplementedError

    def expand_frontier(self, indptr, neighbors, frontier, stamp, clock):
        """Expand one BFS layer over a stamped CSR adjacency.

        Visits the neighbors of *frontier*, stamps every node not yet
        carrying *clock*, and returns the fresh nodes as a **sorted**
        ``int64`` array (empty when the layer adds nothing).
        """
        raise NotImplementedError

    def gather_csc_columns(self, indptr, indices, data, cols):
        """Gather many columns of a CSC matrix in one pass.

        Returns ``(out_indptr, out_indices, out_data)`` where column
        ``cols[k]`` occupies ``[out_indptr[k], out_indptr[k+1])``;
        *out_indices* is ``int64`` and *out_data* a fresh array.  See
        :func:`repro.linalg.spai.extract_columns`.
        """
        raise NotImplementedError

    def probe_rhs(self, incidence, q) -> np.ndarray:
        """``incidence.T @ q`` — one Hutchinson probe right-hand side.

        *incidence* is the ``m x n`` CSR matrix ``W^{1/2} B``; the
        result must follow scipy's CSC matvec accumulation order
        (columns of ``incidence.T`` in ascending order, entries within
        a column in storage order), which pins the floating-point sum
        bit-for-bit across tiers.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # compositions shared by every tier
    # ------------------------------------------------------------------
    def ball_pair_edge_sum_flat(
        self, sources, nbrs, eids, weights, in_q_stamp, clock, values
    ) -> float:
        """The scoring kernel on pre-flattened incidence triples.

        Tier-specific selection plus the shared reduction; bit-identical
        to :func:`repro.core._kernels.ball_pair_edge_sum_flat` on every
        tier.
        """
        ueids, usrc, unbr = self.select_ball_pair_edges(
            sources, nbrs, eids, in_q_stamp, clock
        )
        return restricted_quadratic_form(weights, ueids, usrc, unbr, values)

    def ball_pair_edge_sum(
        self, indptr, neighbors, edge_ids, weights, nodes_p,
        in_q_stamp, clock, values,
    ) -> float:
        """The scoring kernel from a CSR adjacency and a ball node set.

        Flattens the incidence ranges of *nodes_p* through
        :meth:`concat_ranges`, then applies
        :meth:`ball_pair_edge_sum_flat`; bit-identical to
        :func:`repro.core._kernels.ball_pair_edge_sum` on every tier.
        """
        starts = indptr[nodes_p]
        lengths = indptr[nodes_p + 1] - starts
        flat = self.concat_ranges(starts, lengths)
        if len(flat) == 0:
            return 0.0
        return self.ball_pair_edge_sum_flat(
            np.repeat(nodes_p, lengths), neighbors[flat], edge_ids[flat],
            weights, in_q_stamp, clock, values,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, KernelSet) and other.name == self.name

    def __hash__(self) -> int:
        return hash((KernelSet, self.name))
