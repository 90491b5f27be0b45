"""Tests for the edge-batch wire format and the delta log."""

import pytest

from repro.exceptions import IncrementalError
from repro.incremental import DeltaRecord, normalize_batch


class TestNormalizeBatch:
    def test_canonicalizes_endpoints(self):
        eb = normalize_batch([(3, 1, 2.0)], [(5, 2)])
        assert eb.inserts == ((1, 3, 2.0),)
        assert eb.deletes == ((2, 5),)
        assert eb.touched_nodes == (1, 2, 3, 5)

    def test_accepts_wire_dict(self):
        eb = normalize_batch(
            batch={"insert": [[0, 7, 1.5]], "delete": [[2, 1]]}
        )
        assert eb.inserts == ((0, 7, 1.5),)
        assert eb.deletes == ((1, 2),)

    def test_wire_dict_round_trips(self):
        eb = normalize_batch([(4, 0, 0.5), (1, 2, 3.0)], [(9, 8)])
        assert normalize_batch(batch=eb.to_dict()) == eb

    def test_batch_and_kwargs_conflict(self):
        with pytest.raises(IncrementalError, match="not both"):
            normalize_batch([(0, 1, 1.0)], batch={"insert": []})

    def test_rejects_non_dict_batch(self):
        with pytest.raises(IncrementalError, match="must be a dict"):
            normalize_batch(batch=[[0, 1, 1.0]])

    def test_rejects_unknown_keys(self):
        with pytest.raises(IncrementalError,
                           match="valid keys: delete, insert"):
            normalize_batch(batch={"inserts": [[0, 1, 1.0]]})

    def test_rejects_self_loop(self):
        with pytest.raises(IncrementalError, match="self loop"):
            normalize_batch([(3, 3, 1.0)])

    @pytest.mark.parametrize("weight",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_weights(self, weight):
        with pytest.raises(IncrementalError,
                           match="finite and positive"):
            normalize_batch([(0, 1, weight)])

    def test_rejects_malformed_entries(self):
        with pytest.raises(IncrementalError, match="triples"):
            normalize_batch([(0, 1)])
        with pytest.raises(IncrementalError, match="pairs"):
            normalize_batch(deletes=[(0, 1, 2.0)])

    def test_rejects_duplicates_across_orientations(self):
        with pytest.raises(IncrementalError, match="appears twice"):
            normalize_batch([(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(IncrementalError, match="appears twice"):
            normalize_batch(deletes=[(0, 1), (1, 0)])

    def test_same_edge_in_both_halves_is_a_reweight(self):
        # Delete-then-insert is the documented atomic re-weight.
        eb = normalize_batch([(0, 1, 2.0)], [(1, 0)])
        assert eb.inserts == ((0, 1, 2.0),)
        assert eb.deletes == ((0, 1),)


class TestDeltaRecord:
    def _record(self):
        record = DeltaRecord(
            method="proposed", label="g", config={"edge_fraction": 0.2},
            drift_budget=32.0, graph={"nodes": 64, "edges": 112},
        )
        record.append({"inserted": 1, "deleted": 0, "rebuild": False,
                       "drift_estimate": 1.5})
        record.append({"inserted": 0, "deleted": 2, "rebuild": True,
                       "drift_estimate": 40.0})
        return record

    def test_append_stamps_batch_index(self):
        record = self._record()
        assert [e["batch"] for e in record.entries] == [0, 1]
        assert record.batches == 2
        assert record.rebuilds == 1

    def test_json_round_trip_is_lossless(self):
        record = self._record()
        assert DeltaRecord.from_json(record.to_json()) == record

    def test_dict_round_trip_is_lossless(self):
        record = self._record()
        assert DeltaRecord.from_dict(record.to_dict()) == record
