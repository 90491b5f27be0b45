"""The linear-algebra backend protocol.

Nearly all of the trace-reduction pipeline's time is spent in five
kernels — Cholesky factorization, triangular solves, PCG, the JL
effective-resistance sketches and Algorithm 1's sparse approximate
inverse.  :class:`LinalgBackend` names exactly those five operations so
they can be swapped as a unit: the default :class:`~repro.backends.scipy_backend.ScipyBackend`
(compiled SuperLU factorization), the pure-numpy reference
:class:`~repro.backends.numpy_backend.NumpyBackend`, and an optional
CHOLMOD backend auto-detected at import
(:class:`~repro.backends.cholmod_backend.CholmodBackend`).

Selection is per call: ``BaseSparsifierConfig.backend``,
``repro.sparsify(..., backend=...)`` and the ``--backend`` CLI flag all
name a registered backend; the chosen name is recorded in
``RunRecord.environment`` for provenance.

Backends are stateless and hashable by name, so artifact-cache keys can
include the backend name and two processes using the same backend will
agree on what they cached.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.pcg import pcg as _pcg
from repro.linalg.spai import sparse_approximate_inverse
from repro.linalg.triangular import (
    solve_lower_csc,
    solve_upper_from_lower_csc,
)

__all__ = ["LinalgBackend", "BACKEND_CAPABILITY_FLAGS"]

#: Capability flags every backend reports through :meth:`capabilities`.
BACKEND_CAPABILITY_FLAGS = (
    "available",
    "compiled_factorization",
    "persistent_factors",
)


class LinalgBackend:
    """One pluggable implementation of the package's linalg kernels.

    Subclasses override :meth:`factorize` (and optionally the other
    kernels); the base class supplies reference implementations built
    on the package's from-scratch numpy routines, which every backend
    is expected to match within numerical tolerance.

    Class attributes
    ----------------
    name:
        Registry key (``"scipy"``, ``"numpy"``, ``"cholmod"``).
    description:
        One line for CLI/markdown listings.
    compiled_factorization:
        True when :meth:`factorize` calls into compiled sparse solver
        code (SuperLU, CHOLMOD) rather than the pure-numpy path.
    persistent_factors:
        True when the factors returned by :meth:`factorize` survive a
        pickle round-trip with bit-identical solve behavior — the
        requirement for the on-disk artifact cache to persist them.
    """

    name = "base"
    description = ""
    compiled_factorization = False
    persistent_factors = False

    # ------------------------------------------------------------------
    # availability / introspection
    # ------------------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can run in this environment."""
        return True

    @classmethod
    def supports_persistent_factors(cls) -> bool:
        """Whether :meth:`factorize` output pickles with bitwise solves.

        The disk artifact cache consults this before persisting a
        factor.  The default returns the ``persistent_factors`` class
        attribute; backends whose factor objects wrap third-party
        handles (CHOLMOD) override it with a runtime probe so the flag
        reports what the installed library actually supports.
        """
        return bool(cls.persistent_factors)

    @classmethod
    def capabilities(cls) -> dict:
        """The backend's capability flags as a plain (JSON-safe) dict."""
        return {
            "available": bool(cls.is_available()),
            "compiled_factorization": bool(cls.compiled_factorization),
            "persistent_factors": bool(cls.supports_persistent_factors()),
        }

    # ------------------------------------------------------------------
    # the five kernels
    # ------------------------------------------------------------------
    def factorize(self, matrix):
        """Cholesky-factor an SPD sparse matrix.

        Parameters
        ----------
        matrix:
            Square SPD scipy sparse matrix (regularized Laplacian in
            this package's use).

        Returns
        -------
        An object with the :class:`~repro.linalg.cholesky.CholeskyFactor`
        interface: ``L``, ``perm``, ``nnz``, ``solve(b)``,
        ``as_preconditioner()``.
        """
        raise NotImplementedError

    def solve_triangular(self, L, b, lower: bool = True) -> np.ndarray:
        """Solve ``L y = b`` (or ``L^T x = b`` when ``lower=False``).

        *L* is a lower-triangular CSC factor with the diagonal stored
        first in each column, as produced by :meth:`factorize`.
        """
        if lower:
            return solve_lower_csc(L, b)
        return solve_upper_from_lower_csc(L, b)

    def pcg(self, A, b, M_solve=None, **options):
        """Preconditioned conjugate gradients (see :func:`repro.linalg.pcg`)."""
        return _pcg(A, b, M_solve=M_solve, **options)

    def sketch_matvecs(self, factor, incidence, sketch_size: int, rng):
        """The JL effective-resistance sketch of Spielman–Srivastava.

        Draws ``sketch_size`` Rademacher probe vectors from *rng* (one
        per row, scaled by ``1/sqrt(k)``) and solves
        ``y_i = L^{-1} (B^T W^{1/2} q_i)`` through *factor*.  The loop
        order — draw, then solve, row by row — is part of the contract:
        it determines the RNG stream position, which the
        effective-resistance sampler records for bit-exact warm runs.

        Returns
        -------
        numpy.ndarray
            ``(sketch_size, n)`` array of sketch rows.
        """
        n = incidence.shape[1]
        m = incidence.shape[0]
        sketch = np.empty((sketch_size, n))
        scale = 1.0 / np.sqrt(sketch_size)
        for i in range(sketch_size):
            q = rng.choice((-scale, scale), size=m)
            sketch[i] = factor.solve(incidence.T @ q)
        return sketch

    def spai_columns(self, L, delta: float = 0.1, keep_threshold=None):
        """Algorithm 1: sparse approximate inverse of a Cholesky factor.

        See :func:`repro.linalg.spai.sparse_approximate_inverse`; the
        SPAI recurrence is already pure numpy, so all backends share
        one implementation and differ only through the factor they
        feed it.
        """
        return sparse_approximate_inverse(
            L, delta=delta, keep_threshold=keep_threshold
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, LinalgBackend) and other.name == self.name

    def __hash__(self) -> int:
        return hash((LinalgBackend, self.name))
