"""Generate the markdown API reference from the live registries.

``docs/api-reference.md`` is never edited by hand: it is rendered from
the sparsifier method registry by :func:`api_reference_markdown`,
reachable as ``repro methods --markdown`` and written to disk by
``tools/gen_api_docs.py`` (which ``make docs-check`` runs in
``--check`` mode, so a registry change without a doc regeneration
fails CI).
"""

from __future__ import annotations

from repro.api.registry import get_method, list_methods

__all__ = [
    "api_reference_markdown",
    "GENERATED_MARKER",
    "FLAG_ALIASES",
    "flag_for",
]

#: First line of the generated file; the checker greps for it.
GENERATED_MARKER = (
    "<!-- GENERATED by tools/gen_api_docs.py from the method registry; "
    "do not edit by hand. -->"
)

#: CLI spelling of config fields that predates the registry.  This is
#: the single source of truth: ``repro.cli`` imports it, so the CLI
#: flags and the generated reference can never drift apart.
FLAG_ALIASES = {"edge_fraction": "fraction"}


def flag_for(option: str) -> str:
    """The CLI flag spelling of a config field (shared with the CLI
    parser itself, so the reference and the parser cannot drift)."""
    return "--" + FLAG_ALIASES.get(option, option).replace("_", "-")


def _fmt_default(value) -> str:
    return f"`{value!r}`"


def _method_section(name: str) -> list:
    spec = get_method(name)
    lines = [
        f"### `{name}`",
        "",
        spec.description or "(no description registered)",
        "",
        f"- config class: `{spec.config_cls.__name__}`",
        "- supports_incremental: "
        + ("yes" if spec.supports_incremental else "no"),
        "",
        "| option | CLI flag | type | default |",
        "|---|---|---|---|",
    ]
    for opt_name, opt in sorted(spec.options().items()):
        type_name = getattr(opt.type, "__name__", str(opt.type))
        lines.append(
            f"| `{opt_name}` | `{flag_for(opt_name)}` | {type_name} "
            f"| {_fmt_default(opt.default)} |"
        )
    lines.append("")
    return lines


def api_reference_markdown() -> str:
    """Render the full API reference as one markdown document."""
    lines = [
        GENERATED_MARKER,
        "# API reference",
        "",
        "Every sparsification method is published through the method",
        "registry (`repro.api`): one entry point",
        "(`repro.sparsify(graph, method, **options)`), one config",
        "dataclass per method (whose fields *are* the CLI flags), and",
        "whether `repro.EvolvingSparsifier` can maintain the method's",
        "result. Regenerate this file with `python tools/gen_api_docs.py`",
        "after touching a registration.",
        "",
        "## Sparsifier methods",
        "",
    ]
    for name in list_methods():
        lines.extend(_method_section(name))
    from repro.graph.generators import GENERATOR_REGISTRY

    lines.extend([
        "## Workload families",
        "",
        "Every synthetic graph family is published through the",
        "generator registry (`repro.GENERATOR_REGISTRY`), built by",
        "`repro.make_family_graph(family, n, seed=seed, **options)` and",
        "reachable as registered cases (`repro cases`, `repro sweep`,",
        "the service's registered-case graph source). See",
        "`docs/workloads.md` for the executable gallery.",
        "",
        "| family | kind | node contract | connectivity "
        "| options (defaults) |",
        "|---|---|---|---|---|",
    ])
    for name in sorted(GENERATOR_REGISTRY):
        spec = GENERATOR_REGISTRY[name]
        options = ", ".join(
            f"`{key}={value!r}`" for key, value in sorted(spec.defaults.items())
        ) or "—"
        lines.append(
            f"| `{name}` | {spec.kind} | {spec.node_contract} "
            f"| {spec.connectivity} | {options} |"
        )
    lines.extend([
        "",
        "## Run records",
        "",
        "Every front door emits `repro.RunRecord` objects (lossless",
        "JSON; see `docs/benchmarks.md` for the schema).",
        "`record.fingerprint()` strips only the wall-clock fields.",
        "",
        "## Service endpoints",
        "",
        "The sparsification daemon (`repro serve`, `repro.service`)",
        "speaks JSON over HTTP; `repro.service.ServiceClient` wraps",
        "every route. Identical in-flight submissions deduplicate onto",
        "one computation, and all jobs share one persistent artifact",
        "cache — see `docs/service.md` for the executable tour.",
    ])
    from repro.service.executors import EXECUTOR_NAMES
    from repro.service.http import ROUTES

    lines.extend([
        "",
        "Job execution is pluggable",
        f"(`--executor {'|'.join(EXECUTOR_NAMES)}`, default",
        f"`{EXECUTOR_NAMES[0]}`): `thread` runs jobs on the",
        "scheduler's worker threads, `process` pins them to worker",
        "processes by graph fingerprint and retries `--retries` times",
        "(default 1) when a worker dies mid-job.",
        "",
        "| verb | path | description |",
        "|---|---|---|",
    ])

    for verb, path, description in ROUTES:
        lines.append(f"| `{verb}` | `{path}` | {description} |")
    lines.append("")
    return "\n".join(lines)
