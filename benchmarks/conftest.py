"""Shared benchmark infrastructure.

Every ``bench_*`` module regenerates one table or figure of the paper.
Tables are printed to stdout (visible with ``pytest -s``) and always
written to ``benchmarks/results/<name>.txt`` so that a plain
``pytest benchmarks/bench_*.py --benchmark-only`` run leaves the
regenerated artifacts on disk (the module names do not match pytest's
default ``test_*.py`` pattern, so they are passed explicitly).

Case sizes follow the registries in :mod:`repro.graph.suitesparse_like`
and :mod:`repro.powergrid.benchmarks`; scale them with the
``REPRO_SCALE`` environment variable (default 1.0 ~ 3-16k nodes per
case, a laptop-friendly shrink of the paper's 0.5-9M).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_records(name: str, records: list, section: str = None,
                 output=None) -> None:
    """Persist RunRecords as ``<repo>/<name>.json``.

    ``BENCH_*.json`` files at the repository root are the
    machine-readable performance trajectory: each benchmark run
    overwrites its file, and version control carries the history.

    With *section* set, the file holds a ``{section: [records]}`` dict
    instead of a flat list and only the named section is replaced —
    this is how the two application benchmarks share
    ``BENCH_apps.json`` without clobbering each other.  *output*
    overrides the destination path (the executable docs use a scratch
    path so ``make docs-check`` never rewrites the checked-in
    trajectory).
    """
    payload = [
        record.to_dict() if hasattr(record, "to_dict") else record
        for record in records
    ]
    path = Path(output) if output else REPO_ROOT / f"{name}.json"
    if section is not None:
        merged = {}
        if path.exists():
            try:
                on_disk = json.loads(path.read_text())
            except json.JSONDecodeError:
                on_disk = None
            if isinstance(on_disk, dict):
                merged = on_disk
        merged[section] = payload
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(payload)} run records to {path} "
              f"[section {section!r}]")
        return
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} run records to {path}")


@pytest.fixture(scope="session")
def scale() -> float:
    """Global case-size multiplier (REPRO_SCALE)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def run_once(benchmark, target):
    """Benchmark *target* with exactly one timed execution.

    The table benchmarks run full sparsification pipelines; repeating
    them for statistics would multiply the suite's runtime for no
    insight, so each is timed once (pytest-benchmark pedantic mode).
    """
    return benchmark.pedantic(target, rounds=1, iterations=1)
