"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_cases_lists_everything(capsys):
    assert main(["cases"]) == 0
    out = capsys.readouterr().out
    for name in ("ecology2", "NLR", "ibmpg3t", "thupg2t"):
        assert name in out


def test_sparsify_named_case(capsys):
    code = main(
        ["sparsify", "--case", "ecology2", "--scale", "0.04",
         "--rounds", "2", "--fraction", "0.05"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kappa" in out
    assert "PCG iterations" in out


def test_sparsify_grass_baseline(capsys):
    code = main(
        ["sparsify", "--case", "tmt_sym", "--scale", "0.04",
         "--method", "grass", "--rounds", "2"]
    )
    assert code == 0
    assert "grass" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["fegrass", "er_sampling"])
def test_sparsify_single_pass_baselines(capsys, method):
    code = main(
        ["sparsify", "--case", "tmt_sym", "--scale", "0.04",
         "--method", method]
    )
    assert code == 0
    assert method in capsys.readouterr().out


@pytest.mark.parametrize(
    "method,flag,value",
    [
        ("fegrass", "--rounds", "2"),
        ("er_sampling", "--rounds", "2"),
        ("grass", "--workers", "2"),
        ("fegrass", "--delta", "0.2"),
        ("er_sampling", "--beta", "3"),
    ],
)
def test_inapplicable_option_is_hard_error(capsys, method, flag, value):
    """Regression: flags the method cannot honor used to be silently
    dropped; the registry-generated CLI must reject them."""
    code = main(
        ["sparsify", "--case", "tmt_sym", "--scale", "0.04",
         "--method", method, flag, value]
    )
    assert code == 2
    err = capsys.readouterr().err
    option = flag.lstrip("-").replace("-", "_")
    assert method in err and option in err
    assert "supported by" in err  # points at the methods that do accept it


def test_sparsify_mtx_file(tmp_path, capsys):
    from repro.graph import grid2d, write_graph_mtx

    path = tmp_path / "g.mtx"
    write_graph_mtx(path, grid2d(10, 10, seed=0))
    code = main(["sparsify", "--mtx", str(path), "--rounds", "1"])
    assert code == 0
    assert "100 nodes" in capsys.readouterr().out


def test_transient_command(capsys):
    code = main(
        ["transient", "--case", "ibmpg3t", "--scale", "0.08",
         "--t-end", "1e-9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "direct" in out and "pcg" in out
    assert "waveform deviation" in out


def test_partition_command(capsys):
    code = main(["partition", "--case", "ecology2", "--scale", "0.06"])
    assert code == 0
    out = capsys.readouterr().out
    assert "RelErr" in out


def test_requires_source_for_sparsify():
    with pytest.raises(SystemExit):
        main(["sparsify"])


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_transient_inapplicable_option_fails_fast(capsys):
    """The hard error must fire before the direct simulation runs."""
    import time

    start = time.perf_counter()
    code = main(
        ["transient", "--case", "ibmpg3t", "--scale", "0.08",
         "--method", "fegrass", "--rounds", "2"]
    )
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "rounds" in capsys.readouterr().err
    assert elapsed < 2.0  # no simulation happened


def test_methods_lists_registry(capsys):
    assert main(["methods"]) == 0
    out = capsys.readouterr().out
    for name in ("proposed", "grass", "fegrass", "er_sampling"):
        assert name in out
    assert "--fraction" in out


def test_sparsify_json_roundtrips(capsys):
    from repro.api import RunRecord

    code = main(
        ["sparsify", "--case", "ecology2", "--scale", "0.04",
         "--rounds", "2", "--json"]
    )
    assert code == 0
    record = RunRecord.from_json(capsys.readouterr().out)
    assert record.method == "proposed"
    assert record.config["rounds"] == 2
    assert record.quality["kappa"] > 1.0
    assert record.timings["sparsify_seconds"] > 0
    assert RunRecord.from_json(record.to_json()) == record


def test_sweep_command(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--case", "ecology2", "--scale", "0.04",
         "--methods", "proposed,fegrass", "--fractions", "0.02,0.05",
         "--rounds", "2", "--output", str(out_path)]
    )
    # --rounds applies to proposed only -> hard error covering fegrass.
    assert code == 2

    code = main(
        ["sweep", "--case", "ecology2", "--scale", "0.04",
         "--methods", "proposed,fegrass", "--fractions", "0.02,0.05",
         "--output", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "session artifacts" in out
    import json

    payload = json.loads(out_path.read_text())
    assert len(payload) == 4
    assert {entry["method"] for entry in payload} == {"proposed", "fegrass"}


def test_sweep_rejects_no_cache_with_cache_dir(capsys, tmp_path):
    code = main(
        ["sweep", "--case", "ecology2", "--scale", "0.04",
         "--no-cache", "--cache-dir", str(tmp_path)]
    )
    assert code == 2
    assert "contradict" in capsys.readouterr().err


def test_sweep_warm_run_reports_setup_skipped(capsys, tmp_path):
    argv = ["sweep", "--case", "ecology2", "--scale", "0.04",
            "--methods", "er_sampling", "--fractions", "0.05",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 loaded" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "warm run: setup skipped" in warm
    # Outcome columns identical; only wall-clock (Ts_s, the last
    # column) and the disk-stats lines may differ.
    strip = lambda text: [line.rsplit("|", 1)[0]
                          for line in text.splitlines() if "|" in line]
    assert strip(cold) == strip(warm)


def test_sparsify_shards_flag(capsys):
    code = main(
        ["sparsify", "--case", "ecology2", "--scale", "0.06",
         "--rounds", "2", "--shards", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "shards: 4" in out
    assert "boundary_policy=keep" in out
    assert "per-shard sparsify seconds" in out


def test_sparsify_shards_json_record(capsys):
    from repro.api import RunRecord

    code = main(
        ["sparsify", "--case", "ecology2", "--scale", "0.06",
         "--rounds", "2", "--shards", "2",
         "--boundary-policy", "sample", "--json"]
    )
    assert code == 0
    record = RunRecord.from_json(capsys.readouterr().out)
    assert record.config["shards"] == 2
    assert record.config["boundary_policy"] == "sample"
    assert record.sharding["shards"] == 2
    assert len(record.sharding["per_shard"]) == 2
    assert record.sharding["cut"]["kept_edges"] <= \
        record.sharding["cut"]["edges"]
    assert RunRecord.from_json(record.to_json()) == record


def test_sparsify_bad_boundary_policy_is_usage_error(capsys):
    code = main(
        ["sparsify", "--case", "ecology2", "--scale", "0.04",
         "--shards", "2", "--boundary-policy", "teleport"]
    )
    assert code == 2
    assert "boundary_policy" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--delta", "1.5"),
                                        ("--gamma", "-1")])
def test_sparsify_bad_delta_gamma_is_usage_error(capsys, flag, value):
    code = main(["sparsify", "--case", "ecology2", "--scale", "0.04",
                 flag, value])
    assert code == 2
    assert flag[2:] in capsys.readouterr().err


def test_sparsify_unknown_backend_is_usage_error(capsys):
    """The removed ``--backend`` flag is an argparse usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["sparsify", "--case", "ecology2", "--scale", "0.04",
              "--backend", "numpy"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--fraction", "inf"),
                                        ("--reg-rel", "nan")])
def test_sparsify_non_finite_value_is_usage_error(capsys, flag, value):
    code = main(["sparsify", "--case", "ecology2", "--scale", "0.04",
                 flag, value])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_methods_markdown_is_the_generated_reference(capsys):
    assert main(["methods"]) == 0
    assert "backend" not in capsys.readouterr().out
    assert main(["methods", "--markdown"]) == 0
    markdown = capsys.readouterr().out
    assert markdown.startswith("<!-- GENERATED")
    assert "## Sparsifier methods" in markdown


def test_partition_method_flag(capsys):
    code = main(
        ["partition", "--case", "ecology2", "--scale", "0.06",
         "--method", "fegrass", "--json"]
    )
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["sparsifier"]["method"] == "fegrass"
    assert payload["relative_error"] < 0.5


def test_transient_json(capsys):
    code = main(
        ["transient", "--case", "ibmpg3t", "--scale", "0.08",
         "--t-end", "1e-9", "--json"]
    )
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["direct"]["steps"] > 0
    assert payload["pcg"]["steps"] > 0
    assert payload["deviation_volts"] < 16e-3
    assert payload["sparsifier"]["method"] == "proposed"


# ----------------------------------------------------------------------
# evolving-graph service verbs (repro graphs / repro patch / repro jobs)
# ----------------------------------------------------------------------
def test_patch_requires_a_batch(capsys):
    assert main(["patch", "--graph", "graph-000001"]) == 2
    err = capsys.readouterr().err
    assert "at least one --insert or --delete" in err


def test_patch_rejects_malformed_edges(capsys):
    assert main(["patch", "--graph", "g", "--insert", "0,1"]) == 2
    assert "--insert takes U,V,W" in capsys.readouterr().err
    assert main(["patch", "--graph", "g", "--insert", "a,b,c"]) == 2
    assert "integer endpoints" in capsys.readouterr().err
    assert main(["patch", "--graph", "g", "--delete", "0,1,2"]) == 2
    assert "--delete takes U,V" in capsys.readouterr().err


def test_jobs_status_flag_validates_choices():
    with pytest.raises(SystemExit):
        main(["jobs", "--status", "bogus"])


def test_graphs_lifecycle_over_daemon(tmp_path, capsys):
    from repro.service import ServiceDaemon

    with ServiceDaemon(workers=1,
                       cache_dir=tmp_path / "cache") as daemon:
        url = daemon.url
        assert main(["graphs", "--url", url, "--create",
                     "--case", "ecology2", "--scale", "0.02",
                     "--fraction", "0.15"]) == 0
        assert "created graph-000001" in capsys.readouterr().out
        assert main(["patch", "--url", url,
                     "--graph", "graph-000001",
                     "--insert", "0,37,1.0", "--delete", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "graph-000001 batch 0" in out
        assert "+1/-1 edges" in out
        assert main(["graphs", "--url", url]) == 0
        assert "graph-000001" in capsys.readouterr().out
        assert main(["graphs", "--url", url,
                     "--show", "graph-000001", "--json"]) == 0
        import json as _json

        export = _json.loads(capsys.readouterr().out)
        assert set(export) == {"id", "summary", "record", "delta"}
        assert main(["graphs", "--url", url,
                     "--delete", "graph-000001"]) == 0
        assert "deleted graph-000001" in capsys.readouterr().out
        # Error surface: patching the deleted session is a 404.
        assert main(["patch", "--url", url,
                     "--graph", "graph-000001",
                     "--insert", "0,37,1.0"]) == 2
        assert "404" in capsys.readouterr().err


def test_jobs_filters_over_daemon(tmp_path, capsys):
    from repro.service import ServiceDaemon

    with ServiceDaemon(workers=1,
                       cache_dir=tmp_path / "cache") as daemon:
        url = daemon.url
        assert main(["submit", "--url", url, "--case", "ecology2",
                     "--scale", "0.02", "--method", "grass",
                     "--fraction", "0.1", "--wait"]) == 0
        capsys.readouterr()
        assert main(["jobs", "--url", url, "--status", "done",
                     "--limit", "5"]) == 0
        assert "job-000001" in capsys.readouterr().out
        assert main(["jobs", "--url", url,
                     "--status", "queued"]) == 0
        assert "job-000001" not in capsys.readouterr().out
