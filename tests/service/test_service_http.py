"""End-to-end tests of the HTTP daemon + typed client + CLI verbs."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import RunRecord, sparsify
from repro.cli import main
from repro.exceptions import ServiceConnectionError, ServiceError
from repro.graph import make_case, write_graph_mtx
from repro.service import ServiceClient, ServiceDaemon, SparsifierService

SUBMIT = dict(case="ecology2", scale=0.02, method="grass",
              edge_fraction=0.1)


@pytest.fixture
def daemon(tmp_path):
    """A running daemon on an ephemeral port (1 worker, isolated cache)."""
    with ServiceDaemon(workers=1, cache_dir=tmp_path / "cache") as d:
        yield d


@pytest.fixture
def paused_daemon(tmp_path):
    """A daemon whose scheduler workers are paused: jobs only queue."""
    service = SparsifierService(
        workers=1, cache_dir=tmp_path / "cache", start=False
    )
    daemon = ServiceDaemon(service=service)
    daemon.start()
    yield daemon
    daemon.shutdown(drain=False, timeout=10.0)


class TestEndpoints:
    def test_healthz_schema(self, daemon):
        health = ServiceClient(daemon.url).health()
        assert health["status"] == "ok"
        assert set(health) == {"status", "version", "uptime_seconds",
                               "workers", "executor", "accepting"}
        import repro

        assert health["version"] == repro.__version__
        assert health["workers"] == 1
        assert health["accepting"] is True

    def test_stats_schema(self, daemon):
        stats = ServiceClient(daemon.url).stats()
        assert set(stats) >= {"queue_depth", "running", "jobs",
                              "submitted", "completed_runs",
                              "dedup_hits", "workers", "accepting",
                              "sessions", "uptime_seconds", "cache"}
        assert set(stats["jobs"]) == {"queued", "running", "done",
                                      "failed", "cancelled"}
        assert set(stats["cache"]) >= {"persistent", "hits", "misses",
                                       "stores", "evictions", "errors",
                                       "root"}

    def test_submit_poll_result_round_trip(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit(**SUBMIT)
        assert job["status"] in ("queued", "running")
        record = RunRecord.from_dict(client.result(job["id"],
                                                   timeout=120))
        graph, spec = make_case("ecology2", scale=0.02, seed=0)
        direct = RunRecord.from_result(
            sparsify(graph, "grass", edge_fraction=0.1),
            method="grass", label=spec.name,
        )
        # The wire round trip is lossless down to the fingerprint.
        assert record.fingerprint() == direct.fingerprint()
        final = client.job(job["id"])
        assert final["status"] == "done"
        assert final["record"] == record.to_dict()

    def test_inline_mtx_upload(self, daemon, tmp_path, small_grid):
        path = tmp_path / "g.mtx"
        write_graph_mtx(path, small_grid)
        client = ServiceClient(daemon.url)
        job = client.submit(mtx_file=path, method="grass",
                            edge_fraction=0.2, label="uploaded")
        record = client.result(job["id"], timeout=120)
        assert record["graph"]["label"] == "uploaded"
        assert record["graph"]["nodes"] == small_grid.n
        # Wire responses digest the upload out instead of echoing the
        # full text back on every poll.
        for shipped in (job, client.job(job["id"]),
                        client.jobs()[0]):
            assert "mtx" not in shipped["spec"]["graph"]
            assert "mtx_sha256" in shipped["spec"]["graph"]
            assert shipped["spec"]["graph"]["mtx_chars"] == len(
                path.read_text()
            )

    def test_malformed_json_fields_are_400_not_crashes(self, daemon):
        client = ServiceClient(daemon.url)
        for body in (
            {"graph": {"case": "ecology2"}, "priority": "abc"},
            {"graph": {"case": "ecology2"}, "options": "abc"},
            {"graph": None},
        ):
            with pytest.raises(ServiceError, match="400"):
                client._request("POST", "/jobs", body)
        # Explicit nulls degrade to the field defaults, not to a 500.
        job = client._request("POST", "/jobs", {
            "graph": {"case": "ecology2", "scale": 0.02},
            "method": "grass",
            "options": {"edge_fraction": 0.1},
            "priority": None, "evaluate": None, "label": None,
        })
        assert job["spec"]["priority"] == 0
        assert client.wait(job["id"], timeout=120)["status"] == "done"

    def test_concurrent_identical_submissions_share_one_run(
            self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        j1 = client.submit(**SUBMIT)
        j2 = client.submit(**SUBMIT)
        assert j2["dedup_of"] == j1["id"]
        assert client.stats()["dedup_hits"] == 1
        paused_daemon.service.start()
        r1 = client.result(j1["id"], timeout=120)
        r2 = client.result(j2["id"], timeout=120)
        assert r1 == r2
        stats = client.stats()
        assert stats["completed_runs"] == 1        # one underlying run
        assert stats["jobs"]["done"] == 2

    def test_cancel_queued_job(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit(**SUBMIT)
        cancelled = client.cancel(job["id"])
        assert cancelled["status"] == "cancelled"
        with pytest.raises(ServiceError, match="409"):
            client.result(job["id"], wait=False)

    def test_cancel_finished_job_is_409(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit(**SUBMIT)
        client.result(job["id"], timeout=120)
        with pytest.raises(ServiceError, match="409"):
            client.cancel(job["id"])

    def test_result_of_unfinished_job_is_409(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        job = client.submit(**SUBMIT)
        with pytest.raises(ServiceError, match="not finished"):
            client.result(job["id"], wait=False)

    def test_jobs_listing_elides_records(self, daemon):
        client = ServiceClient(daemon.url)
        job = client.submit(**SUBMIT)
        client.result(job["id"], timeout=120)
        listing = client.jobs()
        assert [j["id"] for j in listing] == [job["id"]]
        assert "record" not in listing[0]
        assert listing[0]["has_record"] is True

    def test_error_statuses(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError, match="404"):
            client.job("job-999999")
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/no-such-endpoint")
        with pytest.raises(ServiceError, match="400"):
            client.submit(case="no-such-case")
        with pytest.raises(ServiceError, match="400"):
            client.submit(**dict(SUBMIT, method="no-such-method"))
        with pytest.raises(ServiceError, match="400"):
            client._request("POST", "/jobs", {"graph": {}})

    @pytest.mark.parametrize("options", [
        {"method": "proposed", "delta": 1.5},
        {"method": "proposed", "gamma": -1},
        {"method": "grass", "gamma": -1},
    ])
    def test_bad_delta_gamma_jobs_are_400(self, daemon, options):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError, match="400"):
            client.submit(**dict(SUBMIT, **options))

    @pytest.mark.parametrize("options", [
        {"rounds": 2.5}, {"rounds": 2.0}, {"gamma": 1.5}, {"beta": True},
        {"use_similarity": "no"},
    ])
    def test_mistyped_options_are_400(self, daemon, options):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError, match="400.*must be"):
            client._request("POST", "/jobs", {
                "graph": {"case": "ecology2", "scale": 0.02},
                "method": "proposed", "options": options,
            })

    def test_removed_backend_option_is_400(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError, match="400.*backend"):
            client._request("POST", "/jobs", {
                "graph": {"case": "ecology2", "scale": 0.02},
                "method": "grass", "options": {"backend": "numpy"},
            })

    def test_client_source_arg_validation(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit()
        with pytest.raises(ServiceError, match="exactly one"):
            client.submit(case="ecology2", mtx_path="/x.mtx")
        # scale with a fixed-size MTX source is a hard error, not a
        # silent no-op (mirrors the CLI's inapplicable-flag contract) —
        # both client-side and server-side (raw graph dicts).
        with pytest.raises(ServiceError, match="scale"):
            client.submit(mtx_path="/x.mtx", scale=0.5)
        with pytest.raises(ServiceError, match="400"):
            client.submit(graph={"mtx_path": "/x.mtx", "scale": 0.5})
        # A missing local upload file is a clean ServiceError, not a
        # raw FileNotFoundError traceback.
        with pytest.raises(ServiceError, match="cannot read"):
            client.submit(mtx_file="/does/not/exist.mtx")

    def test_client_connection_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
        # The sharper transport-level type, still a ServiceError.
        with pytest.raises(ServiceConnectionError, match="cannot reach"):
            client.health()


def _raw_request(url, method, path, body=None):
    """Send one raw HTTP request (malformed bodies and all); return
    ``(status, parsed JSON body, headers)``."""
    headers = {"Accept": "application/json"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url + path, data=body, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status,
                    json.loads(response.read() or b"{}"),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), dict(exc.headers)


#: The documented error surface, one row per way a request can be
#: wrong: (verb, path, raw body, expected status, message fragment).
ERROR_MATRIX = [
    # malformed bodies
    ("POST", "/jobs", b"{not json", 400, "not valid JSON"),
    ("POST", "/jobs", b"[1, 2]", 400, "JSON object"),
    ("POST", "/jobs", b"", 400, "JSON object"),
    ("POST", "/jobs", b'{"graph": {"case": "ecology2"}, "nope": 1}',
     400, "unknown job field"),
    # unsupported verbs
    ("PUT", "/jobs", b"{}", 405, "method PUT is not supported"),
    ("PATCH", "/jobs/job-000001", b"{}", 405,
     "method PATCH is not supported"),
    # unknown endpoints and job ids
    ("POST", "/no-such", b"{}", 404, "no such endpoint"),
    ("GET", "/no-such", None, 404, "no such endpoint"),
    ("GET", "/jobs/job-999999", None, 404, "unknown job id"),
    ("GET", "/jobs/job-999999/result", None, 404, "unknown job id"),
    ("DELETE", "/jobs/job-999999", None, 404, "unknown job id"),
    ("DELETE", "/healthz", None, 404, "no such endpoint"),
    # bad query parameters
    ("GET", "/jobs?status=bogus", None, 400, "unknown status filter"),
    ("GET", "/jobs?limit=abc", None, 400, "must be an integer"),
    ("GET", "/jobs?limit=0", None, 400, "limit must be >= 1"),
    ("GET", "/jobs?nope=1", None, 400, "unknown query parameter"),
]


class TestErrorMatrix:
    @pytest.mark.parametrize(
        "verb,path,body,status,fragment", ERROR_MATRIX,
        ids=[f"{row[0]}-{row[1]}-{row[3]}" for row in ERROR_MATRIX],
    )
    def test_documented_4xx(self, daemon, verb, path, body, status,
                            fragment):
        got, payload, headers = _raw_request(daemon.url, verb, path,
                                             body)
        assert got == status
        assert fragment in payload["error"]
        # Every error is a JSON body — never an HTML error page.
        assert headers["Content-Type"] == "application/json"
        if status == 405:
            assert "Allow" in headers

    def test_oversized_body_is_413_with_bound_in_message(self,
                                                         tmp_path):
        with ServiceDaemon(workers=1, cache_dir=tmp_path / "cache",
                           max_body_bytes=1024) as daemon:
            big = json.dumps(
                {"graph": {"mtx": "x" * 4096}, "method": "grass"}
            ).encode()
            status, payload, _ = _raw_request(daemon.url, "POST",
                                              "/jobs", big)
            assert status == 413
            assert "at most 1024" in payload["error"]
            # The daemon is unharmed and still accepts normal jobs.
            client = ServiceClient(daemon.url)
            job = client.submit(**SUBMIT)
            assert client.wait(job["id"], timeout=120)["status"] == \
                "done"

    def test_shutting_down_daemon_is_503(self, paused_daemon):
        paused_daemon.service.shutdown(drain=False, timeout=5.0)
        status, payload, _ = _raw_request(
            paused_daemon.url, "POST", "/jobs",
            json.dumps({"graph": {"case": "ecology2",
                                  "scale": 0.02}}).encode(),
        )
        assert status == 503
        assert "shutting down" in payload["error"]

    def test_jobs_listing_filters(self, paused_daemon):
        client = ServiceClient(paused_daemon.url)
        queued = client.submit(**SUBMIT)
        cancelled = client.submit(**dict(SUBMIT, edge_fraction=0.2))
        client.cancel(cancelled["id"])
        assert [j["id"] for j in client.jobs(status="queued")] == \
            [queued["id"]]
        assert [j["id"] for j in client.jobs(status="cancelled")] == \
            [cancelled["id"]]
        assert client.jobs(status="done") == []
        assert [j["id"] for j in client.jobs(limit=1)] == \
            [cancelled["id"]]                  # the most recent one


class TestDaemonWentAway:
    def test_wait_aborts_immediately_when_daemon_dies(self, tmp_path):
        """A dead daemon must fail a waiting client *now*, not after
        the full wait timeout burns down against a dead socket."""
        service = SparsifierService(
            workers=1, cache_dir=tmp_path / "cache", start=False
        )
        daemon = ServiceDaemon(service=service)
        daemon.start()
        try:
            client = ServiceClient(daemon.url, timeout=10.0)
            job = client.submit(**SUBMIT)      # paused: queued forever

            def _kill_http():
                time.sleep(0.3)
                daemon._httpd.shutdown()
                daemon._httpd.server_close()

            killer = threading.Thread(target=_kill_http)
            killer.start()
            started = time.time()
            with pytest.raises(ServiceConnectionError,
                               match="went away"):
                client.wait(job["id"], timeout=120.0)
            # Aborted as soon as the connection was refused — far
            # inside the 120 s budget a queued-job poll would get.
            assert time.time() - started < 30.0
            killer.join()
        finally:
            service.shutdown(drain=False, timeout=10.0)


class TestCLIVerbs:
    def test_submit_and_jobs_and_cancel(self, daemon, capsys):
        url = daemon.url
        code = main([
            "submit", "--url", url, "--case", "ecology2",
            "--scale", "0.02", "--method", "grass", "--fraction", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "sparsify_seconds" in out

        assert main(["jobs", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "job-000001" in out
        assert "dedup hits" in out

        assert main(["jobs", "--url", url, "--job", "job-000001"]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["status"] == "done"

    def test_submit_json_emits_run_record(self, daemon, capsys):
        code = main([
            "submit", "--url", daemon.url, "--case", "ecology2",
            "--scale", "0.02", "--method", "grass", "--fraction", "0.1",
            "--json",
        ])
        assert code == 0
        record = RunRecord.from_json(capsys.readouterr().out)
        assert record.method == "grass"
        assert record.graph["label"] == "ecology2"

    def test_submit_no_wait_then_cancel(self, paused_daemon, capsys):
        url = paused_daemon.url
        assert main([
            "submit", "--url", url, "--case", "ecology2",
            "--scale", "0.02", "--no-wait",
        ]) == 0
        out = capsys.readouterr().out
        assert "submitted job-000001" in out
        assert main(["jobs", "--url", url, "--cancel",
                     "job-000001"]) == 0
        assert "cancelled job-000001" in capsys.readouterr().out

    def test_inapplicable_option_fails_client_side(self, daemon,
                                                   capsys):
        code = main([
            "submit", "--url", daemon.url, "--case", "ecology2",
            "--method", "fegrass", "--rounds", "3",
        ])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err
