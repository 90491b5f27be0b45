#!/usr/bin/env python
"""Fail on module-level imports that their module never reads.

A name bound by a module-level ``import`` (inside a top-level ``try`` or
``if`` too) must be read somewhere in its module: in code, in an
annotation, or in a string annotation.  It may stay unread when it is
listed in the module's ``__all__`` (a re-export) or when a line of the
import statement carries ``# noqa: F401`` (an import kept for its side
effect, such as registering the sparsifier methods).  ``from __future__``
and star imports are skipped.

Uses the standard library's ``ast`` only, so it needs no linter
installed.  It checks ``src/`` by default; pass files or directories
to check others (``make docs-check`` passes ``src tests benchmarks
tools``)::

    python tools/check_imports.py [PATH ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
NOQA = "noqa: F401"


def _module_imports(tree):
    """Yield the module-level import statements of *tree*."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse)
            stack.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def _bound_names(node):
    """``name`` bound by each alias of an import statement."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.partition(".")[0]
        else:
            yield alias.name


def _read_names(tree):
    """Every name the module loads, string annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                continue
            names.update(node.id for node in ast.walk(parsed)
                         if isinstance(node, ast.Name))
    return names


def _exported(tree):
    """Names listed in a module-level ``__all__`` literal."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets) and node.value is not None:
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(path: Path):
    """``(line, name)`` of each module-level import *path* never reads."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = _read_names(tree) | _exported(tree)
    found = []
    for node in _module_imports(tree):
        statement = lines[node.lineno - 1:node.end_lineno]
        if any(NOQA in line for line in statement):
            continue
        found.extend((node.lineno, name) for name in _bound_names(node)
                     if name not in read)
    return sorted(found)


def main(argv) -> int:
    roots = [Path(arg) for arg in argv] or [REPO_ROOT / "src"]
    files = sorted(
        file for root in roots
        for file in ([root] if root.is_file() else root.rglob("*.py"))
    )
    failures = 0
    for file in files:
        for line, name in unused_imports(file):
            print(f"{file}:{line}: {name!r} imported but never read")
            failures += 1
    if failures:
        print(f"{failures} unused import(s); remove them, list the name "
              f"in __all__, or mark the line '# {NOQA}'")
        return 1
    print(f"imports ok: {len(files)} modules")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
