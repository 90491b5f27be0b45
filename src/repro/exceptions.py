"""Exception types used across the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ReproError):
    """Raised for malformed graphs (bad edges, negative weights, ...)."""


class NotATreeError(ReproError):
    """Raised when an operation requires a tree/forest but got cycles."""


class FactorizationError(ReproError):
    """Raised when a matrix factorization fails (not SPD, singular, ...)."""


class ConvergenceError(ReproError):
    """Raised when an iterative method fails to reach its tolerance."""


class SimulationError(ReproError):
    """Raised for inconsistent power-grid netlists or simulation setups."""


class UnknownMethodError(ReproError, ValueError):
    """Raised when a sparsifier method name is not in the registry.

    Also a :class:`ValueError` so callers of the pre-registry
    ``build_sparsifier_preconditioner`` keep working.
    """


class UnknownOptionError(ReproError):
    """Raised when a sparsifier option does not apply to the method."""


class CacheError(ReproError):
    """Raised for unusable on-disk artifact-cache configurations."""


class IncrementalError(ReproError):
    """Raised for invalid evolving-graph operations.

    Covers mutation of methods without the ``supports_incremental``
    capability, malformed edge batches (deleting an absent edge,
    inserting a duplicate), and unknown graph-session ids on the
    service's ``/graphs`` surface.
    """


class ServiceError(ReproError):
    """Raised for sparsification-service failures.

    Covers malformed job submissions, unknown job ids, invalid
    lifecycle transitions (e.g. cancelling a running job), and
    client-side transport errors (connection refused, non-2xx
    responses).
    """


class ServiceUnavailableError(ServiceError):
    """Raised when the service refuses new work (shutdown in progress).

    A distinct type so the HTTP layer can map it to 503 without
    sniffing message text.
    """


class ServiceConnectionError(ServiceError):
    """Raised when the daemon cannot be reached at the transport level.

    Connection refused, DNS failure, a socket reset mid-request — the
    daemon is *gone*, as opposed to reachable-but-unhappy (a non-2xx
    response, which stays a plain :class:`ServiceError`).  A distinct
    type so pollers like :meth:`ServiceClient.wait` can abort
    immediately instead of backing off against a dead socket.
    """


class PayloadTooLargeError(ServiceError):
    """Raised when a request body exceeds the daemon's size bound.

    A distinct type so the HTTP layer can map it to 413 without
    sniffing message text.
    """


class WorkerCrashError(ServiceError):
    """Raised when an execution worker dies mid-job (killed, OOM, ...).

    An *infrastructure* failure, not a failure of the job's own code:
    the scheduler retries the job (up to its retry budget) on a fresh
    worker before giving up, and promotes deduplicated followers of a
    permanently-crashed primary instead of failing them alongside it.
    """
