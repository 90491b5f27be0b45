"""Generalized eigenvalue tools: lambda_max and relative condition number.

With the footnote-1 regularization (identical diagonal shift on ``L_G``
and ``L_S``) the smallest generalized eigenvalue of the pencil
``(L_G, L_S)`` is pinned at 1, so the relative condition number is
simply ``kappa(L_G, L_S) = lambda_max(L_S^{-1} L_G)`` — Eq. (5) of the
paper.  We compute it with ARPACK's generalized Lanczos using the
factored ``L_S`` as the inner solver, falling back to power iteration
when ARPACK has trouble converging.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import ConvergenceError
from repro.utils.rng import as_rng

__all__ = [
    "generalized_lambda_max",
    "power_iteration_lambda_max",
    "relative_condition_number",
]


def power_iteration_lambda_max(A, B_solve, B=None, tol=1e-4, maxiter=1000, seed=0):
    """Largest eigenvalue of the pencil ``(A, B)`` by power iteration.

    Parameters
    ----------
    A:
        Sparse SPD matrix.
    B_solve:
        Callable applying ``B^{-1}`` (e.g. a Cholesky factor's solve).
    B:
        The matrix ``B`` itself (optional but recommended: enables the
        generalized Rayleigh quotient ``x^T A x / x^T B x``, which
        converges monotonically from below).
    tol:
        Relative change stopping criterion on the eigenvalue estimate.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    rng = as_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    value = 0.0
    for _ in range(maxiter):
        y = B_solve(A @ x)
        norm = float(np.linalg.norm(y))
        if norm == 0:
            raise ConvergenceError("power iteration collapsed to zero")
        y /= norm
        if B is not None:
            new_value = float(y @ (A @ y)) / float(y @ (B @ y))
        else:
            new_value = float(x @ B_solve(A @ x))
        x = y
        if abs(new_value - value) <= tol * max(abs(new_value), 1.0):
            return new_value
        value = new_value
    return value


def generalized_lambda_max(A, B, B_solve, tol=1e-8, maxiter=20000, seed=0,
                           refine_steps=8):
    """``lambda_max`` of the symmetric pencil ``(A, B)``.

    Runs ARPACK's generalized Lanczos (with ``Minv`` supplied by the
    factored ``B`` and a *seeded* start vector, so results are
    deterministic), then polishes the returned eigenvector with a few
    power-iteration steps — the generalized Rayleigh quotient converges
    monotonically from below, which guards against an under-converged
    ARPACK estimate on ill-conditioned pencils.  Falls back to plain
    power iteration if ARPACK fails.
    """
    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    n = A.shape[0]
    if n <= 2:
        dense_a = A.toarray()
        dense_b = B.toarray()
        values = np.linalg.eigvals(np.linalg.solve(dense_b, dense_a))
        return float(np.max(values.real))
    rng = as_rng(seed)
    v0 = rng.standard_normal(n)
    minv = spla.LinearOperator((n, n), matvec=B_solve)
    # ARPACK tests convergence only once its basis is full, so every
    # call pays at least ncv + 2 solves.  A 12-vector basis took 22-52
    # solves (polish included) on every method's pencils of the Table-1
    # cases and full NLR, tree-only pencils too, where 64 vectors took
    # 74 on each; kappa agreed to 1e-12 relative (sweep in CHANGES.md).
    ncv = int(min(n - 1, 12))
    try:
        values, vectors = spla.eigsh(
            A,
            k=1,
            M=B,
            Minv=minv,
            which="LA",
            tol=tol,
            maxiter=maxiter,
            v0=v0,
            ncv=ncv,
            return_eigenvectors=True,
        )
        estimate = float(values[0])
        x = vectors[:, 0]
    except (spla.ArpackNoConvergence, RuntimeError, ValueError):
        return power_iteration_lambda_max(
            A, B_solve, B=B, tol=max(tol, 1e-8), maxiter=20000, seed=seed
        )
    for _ in range(refine_steps):
        x = B_solve(A @ x)
        norm = float(np.linalg.norm(x))
        if norm == 0:
            break
        x /= norm
        rayleigh = float(x @ (A @ x)) / float(x @ (B @ x))
        estimate = max(estimate, rayleigh)
    return estimate


def relative_condition_number(L_G, L_S_factor, L_S, tol=1e-5, seed=0):
    """``kappa(L_G, L_S) = lambda_max(L_S^{-1} L_G)`` (Eq. 5).

    Parameters
    ----------
    L_G:
        Regularized Laplacian of the original graph.
    L_S_factor:
        :class:`~repro.linalg.cholesky.CholeskyFactor` of the
        regularized subgraph Laplacian.
    L_S:
        The regularized subgraph Laplacian itself.

    Notes
    -----
    Valid because both Laplacians carry the *same* diagonal shift, which
    pins ``lambda_min`` at 1 (paper footnote 1); tests verify this
    against dense generalized spectra on small graphs.
    """
    return generalized_lambda_max(L_G, L_S, L_S_factor.solve, tol=tol, seed=seed)
