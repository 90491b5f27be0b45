"""Sparse linear algebra: Cholesky, SPAI (Algorithm 1), PCG, eigen-tools."""

from repro.linalg.ordering import (
    natural_ordering,
    rcm_ordering,
    minimum_degree_ordering,
)
from repro.linalg.etree import elimination_tree, ereach, postorder
from repro.linalg.triangular import solve_lower_csc, solve_upper_from_lower_csc
from repro.linalg.cholesky import CholeskyFactor, cholesky
from repro.linalg.spai import sparse_approximate_inverse
from repro.linalg.pcg import pcg, PCGResult
from repro.linalg.eigen import (
    generalized_lambda_max,
    relative_condition_number,
    power_iteration_lambda_max,
)

__all__ = [
    "natural_ordering",
    "rcm_ordering",
    "minimum_degree_ordering",
    "elimination_tree",
    "ereach",
    "postorder",
    "solve_lower_csc",
    "solve_upper_from_lower_csc",
    "CholeskyFactor",
    "cholesky",
    "sparse_approximate_inverse",
    "pcg",
    "PCGResult",
    "generalized_lambda_max",
    "relative_condition_number",
    "power_iteration_lambda_max",
]
