"""Sparse linear algebra: Cholesky, SPAI (Algorithm 1), PCG, eigen-tools.

There is one factorization: :func:`cholesky` is scipy's SuperLU in
symmetric mode, and it raises
:class:`~repro.exceptions.FactorizationError` when SuperLU pivots
asymmetrically rather than falling back to another factorization.
"""

from repro.linalg.cholesky import CholeskyFactor, cholesky
from repro.linalg.spai import sparse_approximate_inverse
from repro.linalg.pcg import pcg, PCGResult
from repro.linalg.eigen import (
    generalized_lambda_max,
    relative_condition_number,
    power_iteration_lambda_max,
)

__all__ = [
    "CholeskyFactor",
    "cholesky",
    "sparse_approximate_inverse",
    "pcg",
    "PCGResult",
    "generalized_lambda_max",
    "relative_condition_number",
    "power_iteration_lambda_max",
]
