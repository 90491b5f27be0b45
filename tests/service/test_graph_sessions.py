"""Evolving-graph sessions through the service, on both backends.

The scheduler holds the durable session description plus a replay
ledger of applied batches, while the live
:class:`~repro.incremental.EvolvingSparsifier` lives in the execution
backend.  Every test in the parity class runs under the thread AND the
process executor and asserts against a direct in-process replay of the
same stream — which makes the two backends byte-equal to each other by
transitivity, and proves batch dicts survive the process boundary.
"""

import pytest

from repro.api import RunRecord
from repro.exceptions import IncrementalError, ServiceError
from repro.incremental import EvolvingSparsifier
from repro.service import (
    EXECUTOR_NAMES,
    FaultInjector,
    ServiceClient,
    ServiceDaemon,
    SparsifierService,
    load_graph_source,
)

SOURCE = {"case": "ecology2", "scale": 0.02}
OPTS = {"edge_fraction": 0.15}
BATCHES = (
    {"insert": [[0, 37, 1.0]], "delete": [[0, 1]]},
    {"insert": [[5, 40, 2.0], [2, 50, 1.5]], "delete": []},
)


def _strip_seconds(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k not in ("seconds", "phases")}


def _local_replay():
    """The same stream applied directly, no service in between."""
    graph, label = load_graph_source(SOURCE, seed=0)
    evolving = EvolvingSparsifier(graph, "proposed", label=label,
                                  **OPTS)
    for batch in BATCHES:
        evolving.apply_batch(batch=batch)
    return evolving


@pytest.fixture(params=EXECUTOR_NAMES)
def executor(request):
    return request.param


@pytest.fixture
def service(executor, tmp_path):
    service = SparsifierService(
        workers=1, cache_dir=tmp_path / "cache", executor=executor,
    )
    yield service
    service.shutdown(drain=False, timeout=30.0)


class TestParity:
    def test_stream_matches_direct_replay(self, service):
        session = service.create_graph(SOURCE, options=OPTS)
        graph_id = session["id"]
        entries = [
            service.patch_graph(graph_id, batch=batch)["entry"]
            for batch in BATCHES
        ]
        export = service.graph_sparsifier(graph_id)

        local = _local_replay()
        assert export["summary"] == local.summary()
        assert [_strip_seconds(e) for e in entries] == [
            _strip_seconds(e) for e in local.record.entries
        ]
        assert RunRecord.from_dict(export["record"]).fingerprint() == \
            local.base_record.fingerprint()
        exported_delta = dict(export["delta"])
        local_delta = local.record.to_dict()
        assert [
            _strip_seconds(e) for e in exported_delta.pop("entries")
        ] == [_strip_seconds(e) for e in local_delta.pop("entries")]
        assert exported_delta == local_delta

    def test_sessions_are_described_and_listed(self, service):
        session = service.create_graph(SOURCE, options=OPTS,
                                       label="evolving")
        listed = service.graph_sessions()
        assert [s["id"] for s in listed] == [session["id"]]
        described = service.graph_session(session["id"])
        assert described["source"] == SOURCE
        assert described["summary"]["label"] == "evolving"
        assert described["summary"]["sparsifier_edges"] > 0

    def test_delete_frees_the_slot(self, service):
        session = service.create_graph(SOURCE, options=OPTS)
        gone = service.delete_graph(session["id"])
        assert gone["deleted"] is True
        assert service.graph_sessions() == []
        with pytest.raises(ServiceError, match="unknown graph id"):
            service.patch_graph(session["id"], batch=BATCHES[0])

    def test_unknown_graph_id_raises(self, service):
        with pytest.raises(ServiceError, match="unknown graph id"):
            service.graph_sparsifier("graph-999999")

    def test_non_incremental_method_is_rejected(self, service):
        with pytest.raises(IncrementalError,
                           match="does not support incremental"):
            service.create_graph(SOURCE, method="grass",
                                 options={"edge_fraction": 0.1})
        assert service.graph_sessions() == []   # no half-open session

    def test_bad_batch_leaves_session_replayable(self, service):
        session = service.create_graph(SOURCE, options=OPTS)
        graph_id = session["id"]
        with pytest.raises(IncrementalError, match="absent edge"):
            service.patch_graph(graph_id,
                                deletes=[(5000, 5001)])
        # The failed batch never entered the ledger: later patches and
        # exports behave as if it was never sent.
        entry = service.patch_graph(graph_id, batch=BATCHES[0])["entry"]
        assert entry["batch"] == 0
        assert service.stats()["graph_patches"] == 1

    def test_stats_count_sessions_and_patches(self, service):
        assert service.stats()["graph_sessions"] == 0
        session = service.create_graph(SOURCE, options=OPTS)
        service.patch_graph(session["id"], batch=BATCHES[0])
        stats = service.stats()
        assert stats["graph_sessions"] == 1
        assert stats["graph_patches"] == 1


class TestLimits:
    def test_session_limit_is_enforced(self, tmp_path):
        service = SparsifierService(
            workers=1, cache_dir=tmp_path / "cache", max_sessions=1,
        )
        try:
            service.create_graph(SOURCE, options=OPTS)
            with pytest.raises(ServiceError,
                               match="graph-session limit"):
                service.create_graph({"case": "ecology2",
                                      "scale": 0.03},
                                     options=OPTS)
        finally:
            service.shutdown(drain=False, timeout=30.0)


class TestCrashReplay:
    def test_killed_worker_replays_the_ledger(self, tmp_path):
        """A SIGKILLed worker must not lose session state: the retry

        ships the full ledger, so the fresh worker rebuilds the
        evolving sparsifier and the patch lands as if nothing died."""
        injector = FaultInjector(tmp_path / "faults")
        service = SparsifierService(
            workers=1, cache_dir=tmp_path / "cache",
            executor="process", faults_dir=injector.root,
        )
        try:
            session = service.create_graph(SOURCE, options=OPTS)
            graph_id = session["id"]
            service.patch_graph(graph_id, batch=BATCHES[0])
            injector.arm("kill-worker")
            result = service.patch_graph(graph_id, batch=BATCHES[1])
            assert service.stats()["worker_restarts"] >= 1
            local = _local_replay()
            assert result["summary"] == local.summary()
            export = service.graph_sparsifier(graph_id)
            assert RunRecord.from_dict(
                export["record"]
            ).fingerprint() == local.base_record.fingerprint()
        finally:
            service.shutdown(drain=False, timeout=30.0)


class TestHttpSurface:
    def test_full_lifecycle_over_http(self, tmp_path):
        with ServiceDaemon(workers=1,
                           cache_dir=tmp_path / "cache") as daemon:
            client = ServiceClient(daemon.url)
            session = client.create_graph(case="ecology2", scale=0.02,
                                          options=OPTS)
            graph_id = session["id"]
            patched = client.patch_graph(
                graph_id, inserts=[(0, 37, 1.0)], deletes=[(0, 1)]
            )
            assert patched["entry"]["inserted"] == 1
            assert patched["entry"]["deleted"] == 1
            assert [s["id"] for s in client.graphs()] == [graph_id]
            assert client.graph(graph_id)["id"] == graph_id
            export = client.graph_sparsifier(graph_id)
            assert set(export) == {"id", "summary", "record", "delta"}
            assert export["delta"]["entries"][0]["batch"] == 0
            assert client.delete_graph(graph_id)["deleted"] is True

    def test_http_error_mapping(self, tmp_path):
        with ServiceDaemon(workers=1,
                           cache_dir=tmp_path / "cache") as daemon:
            client = ServiceClient(daemon.url)
            with pytest.raises(ServiceError, match="404"):
                client.patch_graph("graph-999999",
                                   inserts=[(0, 1, 1.0)])
            with pytest.raises(ServiceError, match="404"):
                client.graph_sparsifier("graph-999999")
            with pytest.raises(ServiceError,
                               match="does not support incremental"):
                client.create_graph(case="ecology2", scale=0.02,
                                    method="grass",
                                    options={"edge_fraction": 0.1})
            session = client.create_graph(case="ecology2", scale=0.02,
                                          options=OPTS)
            with pytest.raises(ServiceError,
                               match="IncrementalError.*absent edge"):
                client.patch_graph(session["id"],
                                   deletes=[(5000, 5001)])
