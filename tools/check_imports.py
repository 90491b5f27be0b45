#!/usr/bin/env python
"""Fail on module-level imports that their module never reads.

A name bound by a module-level ``import`` (inside a top-level ``try`` or
``if`` too) must be read somewhere in its module: in code, in an
annotation, or in a string annotation.  It may stay unread when it is
listed in the module's ``__all__`` (a re-export) or when a line of the
import statement carries ``# noqa: F401`` (an import kept for its side
effect, such as registering the sparsifier methods).  ``from __future__``
and star imports are skipped.

It also fails when a module imports a private module of a third-party
package (``scipy.sparse._sparsetools``, ``from numpy import _core``),
anywhere in the module: only ``src/repro/utils/arrays.py``, which wraps
scipy's compiled sparse kernels, may, so that dependency on a private
interface stays in one module.

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
#: The one module allowed to import private modules of other packages.
PRIVATE_IMPORTER = REPO_ROOT / "src" / "repro" / "utils" / "arrays.py"


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _third_party(top: str, path: Path) -> bool:
    """Whether the top-level module *top* comes from an installed package."""
    if top in sys.stdlib_module_names:
        return False
    local = (REPO_ROOT / "src" / top, REPO_ROOT / top, path.parent / top)
    return not any(base.is_dir() or base.with_suffix(".py").is_file()
                   for base in local)


def private_imports(path: Path):
    """``(line, module)`` of each private third-party module *path* imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module] + [f"{node.module}.{alias.name}"
                                       for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if (any(map(_is_private, parts))
                    and _third_party(parts[0], path)):
                found.append((node.lineno, module))
                break
    return found


def main(argv) -> int:
    roots = [Path(arg) for arg in argv] or [REPO_ROOT / "src"]
    files = sorted(
        file for root in roots
        for file in ([root] if root.is_file() else root.rglob("*.py"))
    )
    unused = private = 0
    for file in files:
        for line, name in unused_imports(file):
            print(f"{file}:{line}: {name!r} imported but never read")
            unused += 1
        if file.resolve() == PRIVATE_IMPORTER:
            continue
        for line, module in private_imports(file):
            print(f"{file}:{line}: imports the private module {module!r}")
            private += 1
    if unused:
        print(f"{unused} unused import(s); remove them, list the name "
              f"in __all__, or mark the line '# {NOQA}'")
    if private:
        print(f"{private} private import(s); only "
              f"{PRIVATE_IMPORTER.relative_to(REPO_ROOT)} may import a "
              f"private module of another package")
    if unused or private:
        return 1
    print(f"imports ok: {len(files)} modules")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
