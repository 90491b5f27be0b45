"""The sparsifier method registry.

Every sparsification method is published as a :class:`MethodSpec` —
runner + configuration dataclass + capability flags — through the
:func:`register_sparsifier` decorator.  The registry is the single
source of truth consumed by :func:`repro.sparsify`,
:class:`repro.api.SparsifierSession`, the command-line interface
(whose per-method flags are generated from the registered config
dataclasses), the power-grid preconditioner builder and the
partitioning pipeline.  Adding a method means registering it once;
every front door picks it up.

This module deliberately imports nothing from :mod:`repro.core` so the
core sparsifier modules could themselves register without a cycle; the
actual registrations live in :mod:`repro.api.methods`.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, fields

from repro.exceptions import UnknownMethodError, UnknownOptionError

__all__ = [
    "MethodSpec",
    "OptionSpec",
    "register_sparsifier",
    "get_method",
    "list_methods",
    "sparsifier_methods",
    "methods_supporting",
]

_REGISTRY: dict[str, "MethodSpec"] = {}

#: Capability flags every :class:`MethodSpec` carries.
CAPABILITY_FLAGS = (
    "deterministic",
    "supports_rounds",
    "supports_workers",
    "supports_incremental",
)


@dataclass(frozen=True)
class OptionSpec:
    """One configurable option of a registered method (for the CLI)."""

    name: str
    type: type
    default: object


@dataclass(frozen=True)
class MethodSpec:
    """A registered sparsification method.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"proposed"`` or ``"grass"``.
    runner:
        ``runner(graph, config, artifacts=None) -> SparsifierResult``.
    config_cls:
        The method's configuration dataclass (a
        :class:`~repro.core.base.BaseSparsifierConfig` subclass).
    deterministic:
        True when equal configs imply bit-identical output (the
        randomized baselines qualify too: their streams are seeded by
        ``config.seed``).
    supports_rounds / supports_workers:
        Whether the method iterates densification rounds / has a
        ``workers`` option, which sizes the worker pool of a sharded
        run (one process per shard).
    supports_incremental:
        Whether the method's result carries the spanning forest and
        kept-edge structure :class:`repro.incremental.EvolvingSparsifier`
        maintains under edge mutations; methods without this flag
        raise :class:`~repro.exceptions.IncrementalError` on the
        evolving-graph surfaces.
    description:
        One line for ``repro.cli methods`` style listings.
    """

    name: str
    runner: typing.Callable
    config_cls: type
    deterministic: bool = True
    supports_rounds: bool = False
    supports_workers: bool = False
    supports_incremental: bool = False
    description: str = ""

    @property
    def capabilities(self) -> dict:
        """The capability flags as a plain dict."""
        return {flag: getattr(self, flag) for flag in CAPABILITY_FLAGS}

    def options(self) -> dict[str, OptionSpec]:
        """Config fields as ``{name: OptionSpec}`` with resolved types.

        Optional types (``int | None``) resolve to their non-``None``
        member so the CLI knows how to parse the flag value.
        """
        hints = typing.get_type_hints(self.config_cls)
        specs = {}
        for field in fields(self.config_cls):
            default = (
                field.default if field.default is not MISSING
                else field.default_factory()  # pragma: no cover - none yet
            )
            specs[field.name] = OptionSpec(
                name=field.name,
                type=_concrete_type(hints.get(field.name, str)),
                default=default,
            )
        return specs

    def option_names(self) -> tuple:
        """Sorted names of every option the method accepts."""
        return tuple(sorted(f.name for f in fields(self.config_cls)))

    def make_config(self, config=None, **options):
        """Build (or pass through) a validated config for this method.

        Raises
        ------
        repro.exceptions.UnknownOptionError
            For options the method's config dataclass does not define;
            the message names the methods that *do* accept them.
        """
        if config is not None:
            if options:
                raise UnknownOptionError(
                    "pass either a config object or keyword options, "
                    "not both"
                )
            if not isinstance(config, self.config_cls):
                raise UnknownOptionError(
                    f"method {self.name!r} expects a "
                    f"{self.config_cls.__name__}, got "
                    f"{type(config).__name__}"
                )
        else:
            known = {f.name for f in fields(self.config_cls)}
            unknown = sorted(set(options) - known)
            if unknown:
                raise UnknownOptionError(_unknown_option_message(
                    self, unknown
                ))
            config = self.config_cls(**options)
        if hasattr(config, "validate"):
            config.validate()
        return config


def _concrete_type(annotation):
    """Collapse ``X | None`` / ``Optional[X]`` annotations to ``X``."""
    args = [a for a in typing.get_args(annotation) if a is not type(None)]
    if typing.get_origin(annotation) in (typing.Union, _UNION_TYPE) and args:
        return args[0]
    return annotation


# types.UnionType backs the `int | None` syntax on Python >= 3.10.
try:
    from types import UnionType as _UNION_TYPE
except ImportError:  # pragma: no cover - Python < 3.10
    _UNION_TYPE = typing.Union


def _unknown_option_message(spec: MethodSpec, unknown: list) -> str:
    lines = [
        f"sparsifier method {spec.name!r} does not accept option(s) "
        f"{', '.join(map(repr, unknown))}; valid options: "
        f"{', '.join(spec.option_names())}."
    ]
    for name in unknown:
        supporters = methods_supporting(name)
        if supporters:
            lines.append(
                f"({name!r} is supported by: {', '.join(supporters)})"
            )
    return " ".join(lines)


def register_sparsifier(
    name: str,
    *,
    config_cls: type,
    deterministic: bool = True,
    supports_rounds: bool = False,
    supports_workers: bool = False,
    supports_incremental: bool = False,
    description: str = "",
):
    """Class the decorated runner as sparsifier method *name*.

    Usage::

        @register_sparsifier("proposed", config_cls=SparsifierConfig,
                             supports_rounds=True, supports_workers=True)
        def run_proposed(graph, config, artifacts=None):
            ...

    The decorator returns the runner unchanged; the resulting
    :class:`MethodSpec` is available via :func:`get_method`.
    Registering a name twice raises ``ValueError`` (replacing a method
    silently would make benchmark provenance ambiguous).
    """

    def decorator(runner):
        if name in _REGISTRY:
            raise ValueError(f"sparsifier method {name!r} already registered")
        _REGISTRY[name] = MethodSpec(
            name=name,
            runner=runner,
            config_cls=config_cls,
            deterministic=deterministic,
            supports_rounds=supports_rounds,
            supports_workers=supports_workers,
            supports_incremental=supports_incremental,
            description=description,
        )
        return runner

    return decorator


def get_method(name: str) -> MethodSpec:
    """Look up a registered method; raise with the valid names if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown sparsifier method {name!r}; registered methods: "
            f"{', '.join(list_methods())}"
        ) from None


def list_methods() -> tuple:
    """Sorted names of every registered method."""
    return tuple(sorted(_REGISTRY))


def sparsifier_methods() -> dict:
    """A copy of the registry as ``{name: MethodSpec}``."""
    return dict(_REGISTRY)


def methods_supporting(option: str) -> tuple:
    """Sorted names of the methods whose config defines *option*."""
    return tuple(sorted(
        name for name, spec in _REGISTRY.items()
        if option in spec.option_names()
    ))
