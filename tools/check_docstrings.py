#!/usr/bin/env python
"""Docstring-coverage lint for the public API surface.

Walks the published surface — everything ``repro.api``,
``repro.core.sharding``, ``repro.graph.generators``,
``repro.incremental``, ``repro.partitioning``, ``repro.powergrid`` and
``repro.service`` export, ``repro.sparsify``, and every config class
the method registry exposes — and fails when any public object
(module, class, function, method or property) lacks a docstring.
``make docs-check`` runs this, so an undocumented addition to the
public API fails CI rather than shipping dark.

Only attributes *defined* by a class are checked on it (inherited
members are the parent's responsibility), dunders other than
``__init__`` are skipped, and ``__init__`` itself is exempt when the
class docstring carries the parameter documentation (the numpydoc
style this package uses).
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _missing_in_class(cls, label: str):
    """Yield ``label.member`` for each undocumented public member."""
    if not (inspect.getdoc(cls) or "").strip():
        yield label
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            target = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            target = member.__func__
        elif inspect.isfunction(member):
            target = member
        else:
            continue  # class attributes document through the class
        if not (inspect.getdoc(target) or "").strip():
            yield f"{label}.{name}"


def _missing(obj, label: str):
    if inspect.isclass(obj):
        yield from _missing_in_class(obj, label)
    elif callable(obj):
        if not (inspect.getdoc(obj) or "").strip():
            yield label
    elif inspect.ismodule(obj):
        if not (obj.__doc__ or "").strip():
            yield label


def public_surface():
    """The objects the lint covers, as ``(label, object)`` pairs."""
    import repro
    import repro.api
    import repro.core.sharding
    import repro.graph.generators
    import repro.incremental
    import repro.partitioning
    import repro.powergrid
    import repro.service
    from repro.api.registry import get_method, list_methods

    surface = [("repro", repro), ("repro.sparsify", repro.sparsify)]
    for name in repro.__all__:
        obj = getattr(repro, name)
        if not inspect.ismodule(obj):
            surface.append((f"repro.{name}", obj))
    for module in (repro.api, repro.core.sharding,
                   repro.graph.generators, repro.incremental,
                   repro.partitioning, repro.powergrid, repro.service):
        surface.append((module.__name__, module))
        for name in module.__all__:
            surface.append((f"{module.__name__}.{name}",
                            getattr(module, name)))
    for method in list_methods():
        spec = get_method(method)
        cls = spec.config_cls
        surface.append((f"{cls.__module__}.{cls.__name__}", cls))
    return surface


def main() -> int:
    failures = []
    seen = set()
    checked = 0
    for label, obj in public_surface():
        key = (label, id(obj))
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        failures.extend(_missing(obj, label))
    for item in sorted(set(failures)):
        print(f"MISSING DOCSTRING  {item}")
    print(
        f"docstring-check: {checked} public objects scanned, "
        f"{len(set(failures))} missing"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
