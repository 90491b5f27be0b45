"""Pluggable linear-algebra backends.

The trace-reduction pipeline funnels all of its heavy numerics through
five kernels (Cholesky factorization, triangular solves, PCG, JL
resistance sketches, SPAI columns); this package makes that set
swappable as a unit:

* ``"scipy"`` — the default: compiled SuperLU factorization, exactly
  the pre-backend code path (bit-identical output);
* ``"numpy"`` — the pure-numpy reference path (no compiled sparse
  solver code; factors persist in the on-disk artifact cache);
* ``"cholmod"`` — CHOLMOD via scikit-sparse, auto-detected at import
  probe; registered but unavailable when the library is missing.

Select per call with ``repro.sparsify(graph, backend="numpy")``, per
config with ``BaseSparsifierConfig.backend``, or from the shell with
``--backend``.  ``repro methods`` lists every backend with its
capability flags, and the chosen backend is recorded in
``RunRecord.environment``.
"""

from __future__ import annotations

from repro.backends.base import BACKEND_CAPABILITY_FLAGS, LinalgBackend
from repro.backends.cholmod_backend import CholmodBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.scipy_backend import ScipyBackend
from repro.exceptions import BackendError

__all__ = [
    "LinalgBackend",
    "ScipyBackend",
    "NumpyBackend",
    "CholmodBackend",
    "BACKEND_CAPABILITY_FLAGS",
    "DEFAULT_BACKEND",
    "get_backend",
    "list_backends",
    "available_backends",
    "backend_capabilities",
    "backend_description",
    "check_backend",
]

#: Name of the backend used when a config does not choose one.
DEFAULT_BACKEND = "scipy"

_BACKEND_CLASSES: dict[str, type] = {
    cls.name: cls for cls in (ScipyBackend, NumpyBackend, CholmodBackend)
}
_INSTANCES: dict[str, LinalgBackend] = {}


def list_backends() -> tuple:
    """Sorted names of every registered backend (available or not)."""
    return tuple(sorted(_BACKEND_CLASSES))


def available_backends() -> tuple:
    """Sorted names of the backends usable in this environment."""
    return tuple(
        name for name in list_backends()
        if _BACKEND_CLASSES[name].is_available()
    )


def backend_capabilities() -> dict:
    """Capability flags of every backend: ``{name: {flag: bool}}``."""
    return {
        name: _BACKEND_CLASSES[name].capabilities()
        for name in list_backends()
    }


def _registered_class(name: str) -> type:
    """The backend class registered under *name*, or a useful error."""
    if name not in _BACKEND_CLASSES:
        raise BackendError(
            f"unknown linalg backend {name!r}; registered backends: "
            f"{', '.join(list_backends())}"
        )
    return _BACKEND_CLASSES[name]


def backend_description(name: str) -> str:
    """One-line description of a backend (available or not)."""
    return _registered_class(name).description


def check_backend(name: str) -> str:
    """Validate a backend name, returning it; raise a useful error.

    Raises
    ------
    repro.exceptions.BackendError
        When *name* is not a registered backend, or is registered but
        unavailable on this machine (e.g. ``cholmod`` without
        scikit-sparse installed).
    """
    if not _registered_class(name).is_available():
        raise BackendError(
            f"linalg backend {name!r} is not available in this "
            f"environment; available backends: "
            f"{', '.join(available_backends())}"
        )
    return name


def get_backend(name: str = DEFAULT_BACKEND) -> LinalgBackend:
    """Return the (cached) backend instance registered under *name*."""
    check_backend(name)
    if name not in _INSTANCES:
        _INSTANCES[name] = _BACKEND_CLASSES[name]()
    return _INSTANCES[name]
