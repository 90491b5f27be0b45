"""In-memory span tracer wrapped around the public entry points of repro.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
rebinds every public function, public method and constructor of the
traced layer modules (``LAYER_PACKAGES``) to a timing wrapper, including
the references other ``repro`` modules imported by name and the
dispatch tables that hold them; :meth:`Tracer.uninstall` puts the
originals back.  Wrappers record only inside a *root* span opened by the
benchmark (``with tracer.root("sparsify"): ...``), so set-up and output
checks stay untraced.

A span's self time is its duration minus the durations of its traced
children.  Each function maps to one metric bucket (``BUCKETS``); the
per-layer metrics are bucket sums of self time, so they add up, with the
roots' own self time, to the wall time of the roots.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from array import array
from contextlib import contextmanager
from fnmatch import fnmatchcase
from time import perf_counter

import numpy as np

#: Packages and modules whose public callables are traced.
LAYER_PACKAGES = (
    "repro.graph",
    "repro.tree",
    "repro.core.ranking",
    "repro.core.tree_phase",
    "repro.core.similarity",
    "repro.linalg",
    "repro.backends",
    "repro.incremental",
    "repro.powergrid",
    "repro.api.session",
)

#: ``module:qualname`` pattern -> metric bucket; the first match wins.
BUCKETS = (
    ("repro.core.tree_phase:*", "ranking.tree_phase_s"),
    ("repro.core.ranking:TreePhaseRanker.*", "ranking.tree_phase_s"),
    ("repro.core.ranking:ApproxRanker.*", "ranking.approx_s"),
    ("repro.core.ranking:BallCache.*", "ranking.balls_s"),
    ("repro.core.ranking:*", "ranking.other_s"),
    ("repro.core.similarity:*", "similarity.mark_s"),
    ("repro.backends*:*.factorize", "linalg.factorize_s"),
    ("repro.backends*:*.spai_columns", "linalg.spai_s"),
    ("repro.linalg.spai:*", "linalg.spai_s"),
    ("repro.linalg.cholesky:cholesky", "linalg.cholesky_s"),
    ("repro.linalg.pcg:pcg", "linalg.pcg_s"),
    ("repro.backends*:*.pcg", "linalg.pcg_s"),
    ("repro.linalg.eigen:*", "linalg.kappa_s"),
    ("repro.linalg.cholesky:CholeskyFactor.solve*", "linalg.trisolve_s"),
    ("repro.linalg.triangular:*", "linalg.trisolve_s"),
    ("repro.backends*:*.solve*", "linalg.trisolve_s"),
    ("repro.linalg*:*", "linalg.other_s"),
    ("repro.backends*:*", "linalg.other_s"),
    ("repro.graph.graph:Graph.subgraph", "graph.subgraph_s"),
    ("repro.graph.laplacian:*", "graph.laplacian_s"),
    ("repro.graph.bfs:*", "graph.bfs_s"),
    ("repro.graph*:*", "graph.other_s"),
    ("repro.tree.spanning:*", "tree.extract_s"),
    ("repro.tree.rooted:RootedForest.*", "tree.forest_s"),
    ("repro.tree*:*", "tree.other_s"),
    ("repro.incremental*:*", "incremental.self_s"),
    ("repro.powergrid.dc:*", "powergrid.dc_s"),
    ("repro.powergrid*:*", "powergrid.other_s"),
    ("repro.api*:*", "api.other_s"),
)

#: A span in the first bucket whose parent resolved to the second joins
#: the parent's bucket: the Cholesky inside a backend ``factorize`` call
#: is the round's factorization, not an evaluation-side factorization.
ABSORBED = {"linalg.cholesky_s": "linalg.factorize_s"}

ROOT_BUCKET = "api.other_s"


def _nnz(result) -> int:
    return int(getattr(result, "nnz", 0))


def _rounds(result, key):
    return sum(int(entry.get(key, 0)) for entry in result.rounds_log)


#: ``module:qualname`` pattern -> (before(args), after(args, result,
#: before) -> {counter: increment}).  Counts measured at the call.
COUNTERS = (
    ("repro.core.ranking:BallCache.ensure",
     lambda args: len(args[0]),
     lambda args, result, before: {
         "ranking.balls_requested": len(np.asarray(args[1]).reshape(-1)),
         "ranking.balls_built": len(args[0]) - before,
     }),
    ("repro.api.session:sparsify", None,
     lambda args, result, before: {
         "ranking.candidates": _rounds(result, "candidates"),
         "ranking.added": _rounds(result, "added"),
     }),
    ("repro.backends*:*.factorize", None,
     lambda args, result, before: {"linalg.factor_nnz": _nnz(result)}),
    ("repro.backends*:*.spai_columns", None,
     lambda args, result, before: {"linalg.spai_nnz": _nnz(result)}),
    ("repro.linalg.pcg:pcg", None,
     lambda args, result, before: {"linalg.pcg_calls": 1}),
    ("repro.core.similarity:SimilarityMarker.mark_similar", None,
     lambda args, result, before: {"similarity.marked": int(result)}),
    ("repro.incremental.evolving:EvolvingSparsifier.apply_batch", None,
     lambda args, result, before: {
         "incremental.rebuilds": int(bool(result["rebuild"])),
         "incremental.reranked_edges": int(result["reranked_edges"]),
     }),
    ("repro.powergrid.transient:simulate_transient_pcg", None,
     lambda args, result, before: {"powergrid.steps": int(result.steps)}),
)


def bucket_of(name: str) -> str:
    """The metric bucket of a ``module:qualname`` callable name."""
    for pattern, bucket in BUCKETS:
        if fnmatchcase(name, pattern):
            return bucket
    raise KeyError(f"no bucket for traced callable {name}")


def _counter_of(name: str):
    for pattern, before, after in COUNTERS:
        if fnmatchcase(name, pattern):
            return before, after
    return None


def _layer_modules():
    """Import and return every module under ``LAYER_PACKAGES``."""
    modules = []
    for name in LAYER_PACKAGES:
        module = importlib.import_module(name)
        modules.append(module)
        for info in pkgutil.walk_packages(getattr(module, "__path__", ()),
                                          prefix=name + "."):
            modules.append(importlib.import_module(info.name))
    return modules


def _traceable(fn) -> bool:
    return (inspect.isfunction(fn)
            and not inspect.isgeneratorfunction(fn)
            and not inspect.iscoroutinefunction(fn))


class Tracer:
    """Span recorder with installable wrappers; see the module docstring.

    Spans are kept in flat arrays (callable id, parent span, start, end,
    self time), indexed in entry order, so a parent always precedes its
    children.
    """

    def __init__(self) -> None:
        self.names: list = []          # callable id -> "module:qualname"
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts: dict = {}
        self._stack: list = []         # [span index, child time]
        self._undo: list = []          # (owner, attribute, original)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, fid: int) -> list:
        stack = self._stack
        index = len(self.fid)
        self.fid.append(fid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        index, child = frame
        duration = end - start
        self.start[index] = start
        self.end[index] = end
        self.self_time[index] = duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def root(self, kind: str):
        """Open a root span ``root:<kind>``; wrappers record inside it."""
        frame = self._open(self._name_id(f"root:{kind}"))
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter())

    def _wrap(self, fn, name: str):
        fid = self._name_id(name)
        counter = _counter_of(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            before = counter[0](args) if counter and counter[0] else None
            frame = tracer._open(fid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter())
            if counter:
                for key, value in counter[1](args, result, before).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, attribute, value) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every public callable of the layer modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped: dict = {}
        for module in _layer_modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != module.__name__:
                    continue
                if _traceable(obj):
                    wrapped[obj] = self._wrap(
                        obj, f"{module.__name__}:{obj.__qualname__}")
                elif inspect.isclass(obj) and not getattr(
                        obj, "_is_protocol", False):
                    self._install_class(module.__name__, obj)
        # Rebind module-level references (``from x import f``) and the
        # dispatch tables holding them, in every loaded repro module.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if _traceable(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if _traceable(item) and item in wrapped:
                            self._undo.append((value, key, item))
                            value[key] = wrapped[item]

    def _install_class(self, module_name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{module_name}:{cls.__qualname__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                if _traceable(raw.__func__):
                    self._patch(cls, attr,
                                type(raw)(self._wrap(raw.__func__, name)))
            elif _traceable(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if type(owner) is dict:
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyse(self) -> dict:
        """Self time per bucket, split by the kind of the enclosing root.

        Returns ``{root kind: {bucket: seconds}}``.
        """
        spans = len(self.fid)
        buckets = [None] * spans
        roots = [None] * spans
        table: dict = {}
        by_name = [None if name.startswith("root:") else bucket_of(name)
                   for name in self.names]
        for i in range(spans):
            parent = self.parent[i]
            if parent < 0:
                roots[i] = self.names[self.fid[i]].split(":", 1)[1]
                buckets[i] = ROOT_BUCKET
            else:
                roots[i] = roots[parent]
                bucket = by_name[self.fid[i]]
                if ABSORBED.get(bucket) == buckets[parent]:
                    bucket = buckets[parent]
                buckets[i] = bucket
            per_root = table.setdefault(roots[i], {})
            per_root[buckets[i]] = (per_root.get(buckets[i], 0.0)
                                    + self.self_time[i])
        return table

    def dump(self, path_prefix: str, extra: dict) -> None:
        """Write the spans (``.npz``) and an index (``.json``)."""
        np.savez_compressed(
            path_prefix + ".npz",
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
        )
        calls: dict = {}
        for i, fid in enumerate(self.fid):
            entry = calls.setdefault(self.names[fid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i]
            entry[2] += self.self_time[i]
        index = {
            "names": self.names,
            "spans": len(self.fid),
            "counts": self.counts,
            "calls": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(calls.items())},
            **extra,
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=1, sort_keys=True)
