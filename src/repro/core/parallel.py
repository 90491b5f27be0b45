"""The fork worker pool of the shard-parallel pipeline.

:func:`parallel_map` maps independent tasks (one sparsification per
shard, :mod:`repro.core.sharding`) over a ``concurrent.futures``
process pool, falling back to a serial loop whenever a pool cannot
help or cannot be created.  Candidate scoring does not use it: a round
scores its candidates in a few small batches, each one direct
``score_batch`` call in the calling process.

Design points:

* **Shared read-only state.**  Pools use the ``fork`` start method and
  publish the task through a module-level slot, so workers inherit the
  shard graphs and sessions copy-on-write; nothing of size ``O(n)`` is
  pickled per task.
* **Determinism.**  Results are consumed in task order and each task is
  independent, so ``workers=k`` is bit-identical to ``workers=1`` for
  every ``k``.
* **Serial fallback.**  ``workers <= 1``, a single task, platforms
  without ``fork`` (e.g. Windows), calls from a multi-threaded process
  (forking one can deadlock the children), or a pool that fails to
  start or loses a worker all degrade to an in-process loop with
  identical results, emitting a ``RuntimeWarning`` when parallelism
  was requested but lost.
* **No orphaned children.**  An interrupt delivered to the parent
  while a pool is running (``KeyboardInterrupt`` from SIGINT, or a
  ``SystemExit`` raised by a SIGTERM handler such as the service
  daemon's) terminates and reaps every forked worker before the
  exception propagates — ``kill <driver-pid>`` never leaves detached
  children burning CPU on half-finished tasks.
"""

from __future__ import annotations

import os
import threading
import warnings

__all__ = [
    "resolve_workers",
    "parallel_map",
    "terminate_pool",
    "worker_context",
]

# Task handed to forked workers by inheritance; guarded by _POOL_LOCK
# so concurrent parallel_map callers (threads) serialize on pool usage
# instead of clobbering each other's slot.  See parallel_map().
_ACTIVE_TASK = None
_POOL_LOCK = threading.Lock()


def resolve_workers(workers: int) -> int:
    """Normalize a ``workers`` knob to an effective worker count.

    Parameters
    ----------
    workers : int
        ``1`` (serial), ``>1`` (that many processes) or ``0`` (one per
        available CPU).

    Returns
    -------
    int
        The effective worker count, at least 1.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        try:
            # Respects CPU affinity / container cgroup masks, unlike
            # os.cpu_count() (which reports the whole host).
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # platforms without sched_getaffinity
            return os.cpu_count() or 1
    return workers


#: Modules the forkserver preloads so every service worker process
#: forks with numpy/scipy/repro already imported (one import cost per
#: daemon, not per worker or per respawn after a crash).
FORKSERVER_PRELOAD = ("repro.service.executors", "repro.api")


def worker_context(prefer: tuple = ("forkserver", "spawn")):
    """A multiprocessing context safe to use from a *threaded* process.

    The fork pool of :func:`parallel_map` refuses to run under threads
    (forked children can inherit locks mid-flight and deadlock), which
    rules ``fork`` out for the service scheduler — its workers, HTTP
    handlers and signal plumbing are all threads.
    ``forkserver`` sidesteps the hazard: children fork from a dedicated
    single-threaded server process (started before it ever grows a
    thread), and :data:`FORKSERVER_PRELOAD` keeps their startup cheap.
    ``spawn`` is the portable fallback where no forkserver exists.

    Parameters
    ----------
    prefer : tuple of str
        Start methods to try, in order; the first one this platform
        supports wins (the platform default as a last resort).

    Returns
    -------
    multiprocessing.context.BaseContext
        The chosen context.
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    for name in prefer:
        if name not in available:
            continue
        context = multiprocessing.get_context(name)
        if name == "forkserver":
            try:
                context.set_forkserver_preload(list(FORKSERVER_PRELOAD))
            except Exception:  # pragma: no cover - server already up
                pass
        return context
    return multiprocessing.get_context()  # pragma: no cover - exotic


def _fork_context():
    """The ``fork`` multiprocessing context, or None when unsupported.

    Restricted to Linux: forking after BLAS/Accelerate threads have run
    is documented as crash-prone on macOS, and Windows has no ``fork``
    at all — both fall back to the (bit-identical) serial path.
    """
    import multiprocessing
    import sys

    if not sys.platform.startswith("linux"):
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def terminate_pool(pool) -> None:
    """Tear a running pool down *now*, leaving no orphaned children.

    Used on interrupt (SIGINT's ``KeyboardInterrupt``, a SIGTERM
    handler's ``SystemExit``): cancels whatever has not started,
    SIGTERMs every worker process and reaps it, so the parent can
    propagate the exception knowing nothing it forked survives it.
    """
    # Snapshot the worker handles first: shutdown(wait=False) drops the
    # executor's reference to them.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - already-reaped worker
            pass


def _pool_map(context, max_workers: int, fn, tasks) -> list:
    """``list(pool.map(fn, tasks))`` with interrupt-safe teardown.

    The execution step of :func:`parallel_map`.  ``OSError`` /
    ``BrokenProcessPool`` propagate to the caller (whose serial
    fallback handles them); interrupts terminate the children first
    (:func:`terminate_pool`) and then re-raise.
    """
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=max_workers, mp_context=context,
        initializer=_fresh_pool_state,
    )
    try:
        results = list(pool.map(fn, tasks))
    except (KeyboardInterrupt, SystemExit):
        terminate_pool(pool)
        raise
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def _fresh_pool_state() -> None:
    """Pool-worker initializer: replace the inherited pool lock.

    A forked worker inherits ``_POOL_LOCK`` in the *locked* state (the
    parent holds it while the pool runs), so a task that itself calls
    :func:`parallel_map` with ``workers > 1`` would deadlock on it.  A fresh lock restores re-entrancy from the
    worker's point of view — its nested calls simply fall back to
    their own (possibly serial) execution.
    """
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()


def _run_task(index: int):
    """Worker entry point: execute one indexed task of the active map."""
    return _ACTIVE_TASK(index)


def parallel_map(task, count: int, workers: int = 1) -> list:
    """Run ``task(i)`` for ``i in range(count)``, optionally forked.

    The shard-parallel sparsification pipeline
    (:mod:`repro.core.sharding`) maps independent per-shard runs over
    this: each task is heavy (a full sparsification), tasks share no
    mutable state, and results are consumed in index order — so the
    output is independent of the worker count.

    Parameters
    ----------
    task : callable
        ``task(index) -> picklable``.  Published to forked children
        through a module-level slot (never pickled), so closures over
        large read-only arrays are shared copy-on-write.
    count : int
        Number of task indices.
    workers : int
        ``1`` serial (default), ``>1`` that many worker processes,
        ``0`` one per CPU.  Without ``fork``, from a multi-threaded
        caller, or when the pool fails, the tasks run serially, with
        identical results.

    Returns
    -------
    list
        ``[task(0), ..., task(count - 1)]`` in index order.

    Notes
    -----
    Tasks may themselves call :func:`parallel_map`: pool workers start
    with fresh pool state
    (they are single-process from their own point of view), and the
    serial fallback runs outside the pool lock.
    """
    global _ACTIVE_TASK
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")

    def _serial() -> list:
        return [task(index) for index in range(count)]

    workers = resolve_workers(workers)
    if workers <= 1 or count <= 1:
        return _serial()
    context = _fork_context()
    if context is None:
        warnings.warn(
            "fork-based worker pool unavailable on this platform; "
            "running tasks serially (results are identical)",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial()
    if threading.active_count() > 1:
        # Forking a multi-threaded process can deadlock the children on
        # locks held by the other threads at fork time.
        warnings.warn(
            "refusing to fork from a multi-threaded process; "
            "running tasks serially (results are identical)",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial()

    from concurrent.futures.process import BrokenProcessPool

    failure = None
    with _POOL_LOCK:
        # Restore (not clear) the slot afterwards: a pool worker that
        # nests its own parallel_map must hand the slot back to the
        # task it inherited at fork, or its next outer task would find
        # the slot empty.
        previous = _ACTIVE_TASK
        _ACTIVE_TASK = task
        try:
            results = _pool_map(
                context, min(workers, count), _run_task, range(count)
            )
        except (OSError, BrokenProcessPool) as exc:
            failure = exc
        finally:
            _ACTIVE_TASK = previous
    if failure is not None:
        # Fall back *outside* the lock: the tasks are arbitrary caller
        # code and may themselves use the worker pool.
        warnings.warn(
            f"worker pool failed ({failure!r}); rerunning tasks serially "
            "(results are identical)",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial()
    return results
