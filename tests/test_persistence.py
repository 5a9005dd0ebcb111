"""Tests for index persistence (save / load with dataset fingerprinting)."""

import dataclasses
import pickle

import pytest

from repro import SeriesStore, create_method
from repro.core.integrity import CorruptionError
from repro.core.persistence import (
    IndexEnvelope,
    dataset_fingerprint,
    load_method,
    save_method,
)
from repro.workloads import random_walk_dataset


class TestFingerprint:
    def test_stable_for_same_data(self, small_dataset):
        assert dataset_fingerprint(small_dataset) == dataset_fingerprint(small_dataset)

    def test_changes_with_content(self):
        a = random_walk_dataset(100, 32, seed=1)
        b = random_walk_dataset(100, 32, seed=2)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_changes_with_shape(self):
        a = random_walk_dataset(100, 32, seed=1)
        b = random_walk_dataset(101, 32, seed=1)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


class TestSaveLoad:
    @pytest.mark.parametrize("method_name,params", [
        ("dstree", {"leaf_capacity": 25}),
        ("isax2+", {"leaf_capacity": 25}),
        ("va+file", {"coefficients": 8}),
    ])
    def test_roundtrip_preserves_answers(
        self, tmp_path, small_dataset, small_queries, method_name, params, brute_force_knn
    ):
        store = SeriesStore(small_dataset)
        method = create_method(method_name, store, **params)
        method.build()
        query = small_queries[0]
        before = method.knn_exact(query).nearest

        path = tmp_path / f"{method_name}.idx"
        envelope = save_method(method, path)
        assert isinstance(envelope, IndexEnvelope)
        assert envelope.method_name == method_name

        loaded = load_method(path, small_dataset)
        after = loaded.knn_exact(query).nearest
        assert after.position == before.position
        assert after.distance == pytest.approx(before.distance, abs=1e-6)
        # And the reloaded index stays exact.
        _, truth = brute_force_knn(small_dataset, query.series, k=1)
        assert after.distance == pytest.approx(truth[0], abs=1e-4)

    def test_save_requires_built_method(self, tmp_path, small_dataset):
        method = create_method("dstree", SeriesStore(small_dataset), leaf_capacity=25)
        with pytest.raises(ValueError):
            save_method(method, tmp_path / "unbuilt.idx")

    def test_save_does_not_detach_store(self, tmp_path, small_dataset, small_queries):
        store = SeriesStore(small_dataset)
        method = create_method("isax2+", store, leaf_capacity=25)
        method.build()
        save_method(method, tmp_path / "index.idx")
        # The original instance keeps working after a save.
        assert method.store is store
        assert method.knn_exact(small_queries[0]).neighbors

    def test_load_rejects_wrong_dataset(self, tmp_path, small_dataset):
        store = SeriesStore(small_dataset)
        method = create_method("va+file", store, coefficients=8)
        method.build()
        path = tmp_path / "index.idx"
        save_method(method, path)
        other = random_walk_dataset(small_dataset.count, small_dataset.length, seed=999)
        with pytest.raises(ValueError, match="fingerprint"):
            load_method(path, other)

    def test_load_rejects_garbage_file(self, tmp_path, small_dataset):
        path = tmp_path / "garbage.idx"
        import pickle

        path.write_bytes(pickle.dumps({"not": "an index"}))
        with pytest.raises(ValueError):
            load_method(path, small_dataset)

    def _forged(self, tmp_path, dataset, **changes):
        """A saved iSAX2+ index whose envelope fields were overwritten."""
        method = create_method("isax2+", SeriesStore(dataset), leaf_capacity=25)
        method.build()
        envelope = save_method(method, tmp_path / "index.idx")
        path = tmp_path / "forged.idx"
        path.write_bytes(pickle.dumps(dataclasses.replace(envelope, **changes)))
        return path

    def test_load_refuses_an_older_format_version_at_load(self, tmp_path, small_dataset):
        """A version-4 state has no ``tree``: refused when loaded, with the
        version found and the remedy — not an AttributeError at first query."""
        path = self._forged(tmp_path, small_dataset, format_version=4)
        with pytest.raises(ValueError, match=r"version 4\b.*rebuild and re-save"):
            load_method(path, small_dataset)

    def test_load_never_skips_the_state_checksum(self, tmp_path, small_dataset):
        """A zeroed ``state_checksum`` used to mean "pre-v3 file, skip the
        integrity check"; it is a mismatch like any other."""
        path = self._forged(tmp_path, small_dataset, state_checksum=0)
        with pytest.raises(CorruptionError):
            load_method(path, small_dataset)

    def test_envelope_summary(self, tmp_path, small_dataset):
        store = SeriesStore(small_dataset)
        method = create_method("va+file", store, coefficients=8)
        method.build()
        envelope = save_method(method, tmp_path / "index.idx")
        summary = envelope.summary()
        assert summary["method"] == "va+file"
        assert summary["bytes"] > 0

    def test_index_file_smaller_than_raw_data_for_summary_methods(
        self, tmp_path, small_dataset
    ):
        """Summary-only methods (VA+file) persist far less than the raw data."""
        store = SeriesStore(small_dataset)
        method = create_method("va+file", store, coefficients=8)
        method.build()
        path = tmp_path / "index.idx"
        save_method(method, path)
        assert path.stat().st_size < small_dataset.nbytes
