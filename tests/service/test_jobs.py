"""Tests for the service job model (spec/job JSON round-trips,
graph-source loading and validation)."""

import numpy as np
import pytest

from repro.exceptions import ServiceError, UnknownOptionError
from repro.graph import make_case, write_graph_mtx
from repro.service import Job, JobSpec, graph_source_key, load_graph_source


class TestGraphSource:
    def test_case_source_matches_make_case(self):
        graph, label = load_graph_source(
            {"case": "ecology2", "scale": 0.02}
        )
        expected, spec = make_case("ecology2", scale=0.02, seed=0)
        assert label == spec.name
        assert np.array_equal(graph.u, expected.u)
        assert np.array_equal(graph.w, expected.w)

    def test_mtx_path_source(self, tmp_path, small_grid):
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, small_grid)
        graph, label = load_graph_source({"mtx_path": str(path)})
        assert label == str(path)
        assert graph.n == small_grid.n
        assert np.allclose(np.sort(graph.w), np.sort(small_grid.w))

    def test_inline_mtx_source(self, tmp_path, small_grid):
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, small_grid)
        graph, label = load_graph_source({"mtx": path.read_text()})
        assert label == "upload"
        assert graph.n == small_grid.n

    @pytest.mark.parametrize("source", [
        {},                                       # no source at all
        {"case": "ecology2", "mtx": "x"},         # two sources
        {"case": "ecology2", "bogus": 1},         # unknown key
        {"mtx_path": "/does/not/exist.mtx"},      # missing file
        {"case": "no-such-case"},                 # unknown case
        {"mtx_path": "/x.mtx", "scale": 0.5},     # scale is case-only
        {"mtx": "%%x", "scale": 0.5},             # (silent no-op ban)
        "not-a-dict",
    ])
    def test_bad_sources_raise(self, source):
        with pytest.raises(ServiceError):
            load_graph_source(source)

    def test_source_key_hashes_inline_content(self, tmp_path, small_grid):
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, small_grid)
        text = path.read_text()
        key = graph_source_key({"mtx": text})
        assert text not in key                    # content is digested
        assert key == graph_source_key({"mtx": text})
        assert key != graph_source_key({"mtx": text + "\n%extra"})

    def test_source_key_is_order_insensitive(self):
        assert graph_source_key({"case": "ecology2", "scale": 0.1}) == \
            graph_source_key({"scale": 0.1, "case": "ecology2"})


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(
            graph={"case": "ecology2", "scale": 0.1},
            method="grass", options={"edge_fraction": 0.05},
            label="eco", priority=3, evaluate=True,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_validate_rejects_inapplicable_options(self):
        spec = JobSpec(graph={"case": "ecology2"}, method="fegrass",
                       options={"rounds": 3})
        with pytest.raises(UnknownOptionError):
            spec.validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            JobSpec.from_dict({"graph": {"case": "ecology2"},
                               "bogus": 1})
        with pytest.raises(ServiceError):
            JobSpec.from_dict({"method": "grass"})   # graph missing


class TestJob:
    def _job(self) -> Job:
        return Job(
            id="job-000007",
            spec=JobSpec(graph={"case": "ecology2"}, method="proposed",
                         options={"rounds": 2}),
            status="done", created_at=1.0, started_at=2.0,
            finished_at=3.0, record={"method": "proposed"},
            dedup_of="job-000006",
        )

    def test_json_round_trip(self):
        job = self._job()
        assert Job.from_json(job.to_json()) == job

    def test_listing_form_elides_record(self):
        data = self._job().to_dict(include_record=False)
        assert "record" not in data
        assert data["has_record"] is True

    def test_finished_flag_follows_status(self):
        job = self._job()
        for status, finished in [("queued", False), ("running", False),
                                 ("done", True), ("failed", True),
                                 ("cancelled", True)]:
            job.status = status
            assert job.finished is finished

    def test_unknown_status_rejected(self):
        data = self._job().to_dict()
        data["status"] = "exploded"
        with pytest.raises(ServiceError):
            Job.from_dict(data)
