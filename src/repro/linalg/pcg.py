"""Preconditioned conjugate gradient solver.

The package's workhorse iterative solver: the paper's Tables 1-3 all
measure PCG iteration counts / times with the factored sparsifier
Laplacian as preconditioner.  Implemented from scratch (not scipy's
``cg``) so the iteration count, residual history and convergence
criterion exactly match the paper's setup (relative residual
``||r|| <= rtol * ||b||``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConvergenceError

__all__ = ["pcg", "PCGResult"]


@dataclass
class PCGResult:
    """Outcome of a PCG solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    rhs_norm: float
    residual_history: list = field(default_factory=list)

    @property
    def relative_residual(self) -> float:
        """Final ``||b - A x|| / ||b||`` (0 for a zero right-hand side)."""
        if self.rhs_norm == 0:
            return 0.0
        return self.residual_norm / self.rhs_norm


def _as_operator(A):
    if sp.issparse(A):
        matrix = sp.csr_matrix(A)
        return matrix.dot
    if callable(A):
        return A
    raise TypeError(f"A must be sparse or callable, got {type(A)!r}")


def pcg(
    A,
    b,
    M_solve=None,
    rtol=1e-3,
    maxiter=None,
    x0=None,
    record_history=False,
    raise_on_fail=False,
):
    """Solve ``A x = b`` by preconditioned conjugate gradients.

    Parameters
    ----------
    A:
        SPD sparse matrix or matvec callable.
    b:
        Right-hand side vector.
    M_solve:
        Preconditioner application ``r -> M^{-1} r`` (e.g.
        ``CholeskyFactor.solve``); ``None`` for plain CG.  It must be
        SPD: once ``r @ M^{-1} r <= 0`` the solve stops unconverged.
    rtol:
        Convergence when ``||r||_2 <= rtol * ||b||_2`` (paper uses 1e-3
        for Table 1 and 1e-6 for transient analysis).
    maxiter:
        Iteration cap (default ``10 n``).
    x0:
        Initial guess (default zero).
    record_history:
        Keep per-iteration residual norms.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    """
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    matvec = _as_operator(A)
    if maxiter is None:
        maxiter = 10 * n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - matvec(x)
    rhs_norm = float(np.linalg.norm(b))
    tol = rtol * rhs_norm
    history = []

    res_norm = float(np.linalg.norm(r))
    if record_history:
        history.append(res_norm)
    if res_norm <= tol or rhs_norm == 0.0:
        return PCGResult(x, 0, True, res_norm, rhs_norm, history)

    z = M_solve(r) if M_solve is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    converged = False
    for iterations in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0 or rz <= 0:
            break  # A or the preconditioner is not SPD; bail out
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res_norm = float(np.linalg.norm(r))
        if record_history:
            history.append(res_norm)
        if res_norm <= tol:
            converged = True
            break
        z = M_solve(r) if M_solve is not None else r
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"PCG did not reach rtol={rtol} in {iterations} iterations "
            f"(relative residual {res_norm / max(rhs_norm, 1e-300):.3e})"
        )
    return PCGResult(x, iterations, converged, res_norm, rhs_norm, history)
