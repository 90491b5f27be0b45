"""Registry introspection: every method publishes options + capabilities."""

import pytest

from repro.api import (
    MethodSpec,
    get_method,
    list_methods,
    methods_supporting,
    register_sparsifier,
    sparsifier_methods,
)
from repro.api.registry import _REGISTRY, CAPABILITY_FLAGS
from repro.core import (
    ErSamplingConfig,
    FegrassConfig,
    GrassConfig,
    SparsifierConfig,
)
from repro.exceptions import UnknownMethodError, UnknownOptionError

EXPECTED = {
    "proposed": SparsifierConfig,
    "grass": GrassConfig,
    "fegrass": FegrassConfig,
    "er_sampling": ErSamplingConfig,
}


def test_all_four_methods_registered():
    assert set(list_methods()) == set(EXPECTED)
    for name, config_cls in EXPECTED.items():
        assert get_method(name).config_cls is config_cls


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_method_lists_options_and_capabilities(name):
    spec = get_method(name)
    options = spec.options()
    # Options mirror the config dataclass exactly.
    assert set(options) == set(spec.option_names())
    assert set(options) == {
        f.name for f in __import__("dataclasses").fields(spec.config_cls)
    }
    # The shared contract fields are always present.
    assert "edge_fraction" in options
    assert "seed" in options
    assert options["edge_fraction"].type is float
    assert options["seed"].type is int
    # Capability flags are complete booleans.
    caps = spec.capabilities
    assert set(caps) == set(CAPABILITY_FLAGS)
    assert all(isinstance(v, bool) for v in caps.values())
    assert spec.description


def test_capability_flags_match_reality():
    assert get_method("proposed").supports_rounds
    assert get_method("proposed").supports_workers
    assert get_method("grass").supports_rounds
    assert not get_method("grass").supports_workers
    assert not get_method("fegrass").supports_rounds
    assert not get_method("er_sampling").supports_rounds
    assert all(spec.deterministic for spec in sparsifier_methods().values())


def test_optional_types_resolve_to_concrete():
    assert get_method("er_sampling").options()["sketch_size"].type is int


def test_make_config_rejects_inapplicable_option():
    with pytest.raises(UnknownOptionError) as excinfo:
        get_method("fegrass").make_config(rounds=3)
    message = str(excinfo.value)
    assert "fegrass" in message and "'rounds'" in message
    assert "grass" in message and "proposed" in message  # who supports it


def test_make_config_rejects_config_plus_options():
    with pytest.raises(UnknownOptionError):
        get_method("proposed").make_config(SparsifierConfig(), rounds=2)


def test_make_config_rejects_wrong_config_type():
    with pytest.raises(UnknownOptionError):
        get_method("fegrass").make_config(SparsifierConfig())


def test_make_config_validates():
    from repro.exceptions import GraphError

    with pytest.raises(GraphError):
        get_method("proposed").make_config(rounds=0)


def test_configs_reject_positional_construction():
    """Deriving from BaseSparsifierConfig moved the shared fields to
    the front; keyword-only construction keeps old positional calls
    (e.g. ``GrassConfig(0.1, 3)`` meaning rounds=3) from silently
    re-binding to the new order."""
    for config_cls in EXPECTED.values():
        with pytest.raises(TypeError):
            config_cls(0.1)


def test_partition_preconditioner_forwards_reg_rel():
    """Regression: reg_rel must reach the sparsifier config (and the
    final factorization), not be swallowed by the helper."""
    from repro.graph import grid2d
    from repro.partitioning import build_partition_preconditioner

    graph = grid2d(8, 8, weights="uniform", seed=2)
    _, result = build_partition_preconditioner(
        graph, method="proposed", reg_rel=1e-4, rounds=1
    )
    assert result.config.reg_rel == 1e-4


def test_unknown_method_lists_registry():
    with pytest.raises(UnknownMethodError) as excinfo:
        get_method("magic")
    assert "proposed" in str(excinfo.value)


def test_methods_supporting():
    assert methods_supporting("workers") == ("proposed",)
    assert set(methods_supporting("rounds")) == {"grass", "proposed"}
    assert set(methods_supporting("edge_fraction")) == set(EXPECTED)
    assert methods_supporting("no_such_option") == ()


def test_register_and_duplicate_rejection():
    @register_sparsifier(
        "_test_method", config_cls=FegrassConfig, description="test stub"
    )
    def _stub(graph, config, artifacts=None):  # pragma: no cover
        raise NotImplementedError

    try:
        assert "_test_method" in list_methods()
        spec = get_method("_test_method")
        assert isinstance(spec, MethodSpec)
        assert spec.runner is _stub
        with pytest.raises(ValueError):
            register_sparsifier(
                "_test_method", config_cls=FegrassConfig
            )(_stub)
    finally:
        _REGISTRY.pop("_test_method", None)
    assert "_test_method" not in list_methods()
