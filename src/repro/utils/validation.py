"""Argument validation helper for sparse-matrix inputs."""

from __future__ import annotations

import scipy.sparse as sp

__all__ = ["check_square_sparse"]


def check_square_sparse(name: str, matrix) -> None:
    """Raise ``TypeError``/``ValueError`` unless *matrix* is square sparse."""
    if not sp.issparse(matrix):
        raise TypeError(f"{name} must be a scipy sparse matrix, got {type(matrix)!r}")
    rows, cols = matrix.shape
    if rows != cols:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
