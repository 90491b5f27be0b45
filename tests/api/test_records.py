"""RunRecord: lossless JSON round-trip and config reconstruction."""

import dataclasses
import json

import pytest

from repro.api import RunRecord, capture_environment, get_method, list_methods
from repro.api import sparsify
from repro.core import evaluate_sparsifier
from repro.exceptions import ReproError
from repro.graph import grid2d


@pytest.fixture(scope="module")
def grid():
    return grid2d(12, 12, weights="uniform", seed=7)


@pytest.mark.parametrize("method", sorted(list_methods()))
def test_config_roundtrips_through_json(grid, method):
    """config -> RunRecord -> JSON -> config must be equality-exact."""
    config = get_method(method).make_config(edge_fraction=0.08, seed=3)
    result = sparsify(grid, method=method, config=config)
    record = RunRecord.from_result(result, method=method, label="grid12")
    rebuilt = RunRecord.from_json(record.to_json())
    assert rebuilt == record
    assert rebuilt.to_config() == config
    assert type(rebuilt.to_config()) is type(config)


@pytest.mark.parametrize("removed", ["kernels", "cholesky_backend",
                                     "cache_max_nodes", "backend"])
def test_to_config_names_a_removed_option(grid, removed):
    """An older record's dropped option is a typed error naming the key."""
    result = sparsify(grid, method="proposed", edge_fraction=0.05)
    record = RunRecord.from_result(result, method="proposed")
    record.config[removed] = "auto"
    with pytest.raises(ReproError, match=repr(removed)):
        record.to_config()


@pytest.mark.parametrize("method", sorted(list_methods()))
def test_record_roundtrip_with_quality(grid, method):
    result = sparsify(grid, method=method, edge_fraction=0.1)
    quality = evaluate_sparsifier(grid, result.sparsifier)
    record = RunRecord.from_result(
        result, method=method, label="grid12",
        quality=quality, evaluate_seconds=0.25,
    )
    text = record.to_json()
    json.loads(text)  # valid JSON
    rebuilt = RunRecord.from_json(text)
    assert rebuilt == record
    assert rebuilt.quality["kappa"] == pytest.approx(quality.kappa)
    assert rebuilt.quality["pcg_iterations"] == quality.pcg_iterations
    assert rebuilt.timings == {
        "sparsify_seconds": result.setup_seconds,
        "evaluate_seconds": 0.25,
    }
    assert rebuilt.rounds_log == record.rounds_log
    assert rebuilt.graph["nodes"] == grid.n
    assert rebuilt.graph["sparsifier_edges"] == result.edge_count


def test_record_everything_is_json_native(grid):
    """No numpy scalars may survive into the record."""

    def check(value, path="record"):
        if isinstance(value, dict):
            for k, v in value.items():
                assert isinstance(k, str), f"non-str key at {path}"
                check(v, f"{path}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                check(v, f"{path}[{i}]")
        else:
            assert value is None or isinstance(
                value, (bool, int, float, str)
            ), f"non-JSON type {type(value)} at {path}"

    result = sparsify(grid, method="proposed", edge_fraction=0.1, rounds=2)
    quality = evaluate_sparsifier(grid, result.sparsifier)
    record = RunRecord.from_result(
        result, method="proposed", label="grid12", quality=quality
    )
    check(record.to_dict())


def test_environment_capture():
    env = capture_environment()
    assert set(env) == {"python", "platform", "numpy", "scipy", "repro"}
    assert all(env.values())
    import repro

    assert env["repro"] == repro.__version__


def test_from_dict_tolerates_missing_optionals():
    record = RunRecord.from_dict(
        {"method": "proposed", "graph": {}, "config": {}}
    )
    assert record.quality is None
    assert record.rounds_log == []
    assert record.schema_version == 3


def test_schema_version_present(grid):
    result = sparsify(grid, method="fegrass", edge_fraction=0.05)
    record = RunRecord.from_result(result, method="fegrass")
    assert json.loads(record.to_json())["schema_version"] == 3


def test_record_is_dataclass():
    assert dataclasses.is_dataclass(RunRecord)
