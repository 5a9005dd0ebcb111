"""Tests for the crash-consistent growable backend: WAL, recovery, snapshots.

The contract under test: ``extend()`` acks only after the WAL fsync and acked
rows survive any reopen; recovery treats torn tails as expected crash debris
(reported, truncated, never an exception) but damage at rest as corruption;
and a snapshot taken during ingest answers queries byte-identically to a
frozen store of the watermarked prefix — for every registered method.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro import Dataset, SeriesStore, create_method
from repro.core.growable import (
    MANIFEST_NAME,
    WAL_NAME,
    GrowableBackend,
    is_growable_dir,
    sweep_orphaned_tmp,
)
from repro.core.integrity import CorruptionError, invalidate_manifest_cache
from repro.core.queries import KnnQuery
from repro.core.wal import WriteAheadLog


def _rows(count, length=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, length)).astype(np.float32)


# ---------------------------------------------------------------------------
# WAL framing and replay
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "log.wal"
        first, second = _rows(5, seed=1), _rows(3, seed=2)
        with WriteAheadLog(path, length=16) as wal:
            wal.append(first, start_row=0)
            wal.append(second, start_row=5)
        records, report = WriteAheadLog(path, length=16).replay()
        assert [(s, r.shape[0]) for s, r in records] == [(0, 5), (5, 3)]
        np.testing.assert_array_equal(records[0][1], first)
        np.testing.assert_array_equal(records[1][1], second)
        assert report.clean and report.replayed_rows == 8

    def test_empty_append_is_a_noop(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path, length=16) as wal:
            wal.append(_rows(0), start_row=0)
        records, report = WriteAheadLog(path, length=16).replay()
        assert records == [] and report.clean

    def test_wrong_shape_rejected(self, tmp_path):
        with WriteAheadLog(tmp_path / "log.wal", length=16) as wal:
            with pytest.raises(ValueError, match="16"):
                wal.append(_rows(2, length=8), start_row=0)

    @pytest.mark.parametrize("cut", [1, 7, 40])
    def test_torn_tail_is_truncated_not_raised(self, tmp_path, cut):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path, length=16) as wal:
            wal.append(_rows(4, seed=1), start_row=0)
            wal.append(_rows(4, seed=2), start_row=4)
        whole = path.stat().st_size
        path.write_bytes(path.read_bytes()[: whole - cut])
        records, report = WriteAheadLog(path, length=16).replay()
        assert len(records) == 1  # the second record vanishes whole
        assert report.torn_bytes > 0 and report.torn_reason
        assert not report.clean
        # The repair is durable: a second replay is clean.
        records2, report2 = WriteAheadLog(path, length=16).replay()
        assert len(records2) == 1 and report2.clean

    def test_torn_tail_repair_false_leaves_file(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path, length=16) as wal:
            wal.append(_rows(4), start_row=0)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x07" * 11)
        records, report = WriteAheadLog(path, length=16).replay(repair=False)
        assert len(records) == 1 and report.torn_bytes == 11
        assert path.stat().st_size == size + 11  # untouched

    def test_header_damage_raises(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path, length=16) as wal:
            wal.append(_rows(2), start_row=0)
        raw = bytearray(path.read_bytes())
        raw[1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="header"):
            WriteAheadLog(path, length=16).replay()

    def test_length_mismatch_raises(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path, length=16) as wal:
            wal.append(_rows(2), start_row=0)
        with pytest.raises(CorruptionError, match="length"):
            WriteAheadLog(path, length=32).replay()

    def test_mid_log_damage_is_corruption_not_torn_tail(self, tmp_path):
        path = tmp_path / "log.wal"
        with WriteAheadLog(path, length=16) as wal:
            wal.append(_rows(4, seed=1), start_row=0)
            wal.append(_rows(4, seed=2), start_row=4)
        raw = bytearray(path.read_bytes())
        # Flip a payload byte of the FIRST record: an intact record follows,
        # so this is damage at rest and silently dropping it would lose data.
        raw[40 + 16 + 5] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="mid-log"):
            WriteAheadLog(path, length=16).replay()

    def test_truncate_resets_to_header_only(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path, length=16)
        wal.append(_rows(4), start_row=0)
        wal.truncate()
        records, report = wal.replay()
        assert records == [] and report.clean
        wal.append(_rows(2), start_row=4)
        records, _ = WriteAheadLog(path, length=16).replay()
        assert [(s, r.shape[0]) for s, r in records] == [(4, 2)]
        wal.close()

    def test_short_header_stub_is_swept(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(b"RW")  # writer died creating the log
        records, report = WriteAheadLog(path, length=16).replay()
        assert records == [] and report.torn_reason == "short header"
        assert path.stat().st_size == 0


# ---------------------------------------------------------------------------
# GrowableBackend: reads, checkpointing, recovery
# ---------------------------------------------------------------------------


class TestGrowableBackend:
    def test_reads_match_reference_across_checkpoints(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        reference = np.empty((0, 16), dtype=np.float32)
        for seed in range(4):
            batch = _rows(10 + seed, seed=seed)
            backend.extend(batch)
            reference = np.vstack([reference, batch])
            if seed % 2 == 0:
                backend.checkpoint()
        assert backend.count == reference.shape[0]
        np.testing.assert_array_equal(backend.values, reference)
        np.testing.assert_array_equal(backend.read_rows(7, 25), reference[7:25])
        picks = np.array([0, 11, 12, 41, 3])
        np.testing.assert_array_equal(backend.take(picks), reference[picks])
        np.testing.assert_array_equal(backend.read_rows(17, 18)[0], reference[17])
        sub = backend.slice(5, 30)
        np.testing.assert_array_equal(sub.values, reference[5:30])
        backend.close()

    def test_unclean_close_recovers_tail_from_wal(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        sealed = _rows(8, seed=1)
        backend.extend(sealed)
        backend.checkpoint()
        tail = _rows(5, seed=2)
        backend.extend(tail)
        backend.close()  # no checkpoint: the tail lives only in the WAL
        reopened = GrowableBackend(root)
        report = reopened.recovery
        assert report.sealed_rows == 8 and report.replayed_rows == 5
        assert reopened.count == 13
        np.testing.assert_array_equal(
            reopened.values, np.vstack([sealed, tail])
        )
        reopened.close()

    def test_replay_is_idempotent_after_lost_truncate(self, tmp_path):
        # A checkpoint that sealed its segment and manifest but died before
        # truncating the WAL must not double-apply the records on reopen.
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        rows = _rows(9, seed=3)
        backend.extend(rows)
        stale_wal = (root / WAL_NAME).read_bytes()
        backend.checkpoint()
        backend.close()
        (root / WAL_NAME).write_bytes(stale_wal)  # resurrect the un-truncated log
        reopened = GrowableBackend(root)
        report = reopened.recovery
        assert report.skipped_records == 1 and report.replayed_rows == 0
        assert not report.clean
        assert reopened.count == 9
        np.testing.assert_array_equal(reopened.values, rows)
        reopened.close()

    def test_acked_rows_survive_reopen_exactly(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        rows = _rows(20, seed=5)
        for i in range(0, 20, 4):
            backend.extend(rows[i : i + 4])
        backend.close()
        reopened = GrowableBackend(root)
        assert reopened.count == 20
        np.testing.assert_array_equal(reopened.values, rows)
        reopened.close()

    def test_length_mismatch_on_reopen_raises(self, tmp_path):
        root = tmp_path / "store"
        GrowableBackend(root, length=16, create=True).close()
        with pytest.raises(ValueError, match="length"):
            GrowableBackend(root, length=32)

    def test_manifest_damage_raises(self, tmp_path):
        root = tmp_path / "store"
        GrowableBackend(root, length=16, create=True).close()
        (root / MANIFEST_NAME).write_text(json.dumps({"format": "nonsense"}))
        with pytest.raises(CorruptionError):
            GrowableBackend(root)

    def test_extend_reopens_wal_after_close(self, tmp_path):
        # close() only releases the WAL append handle; a later extend
        # transparently reopens it and the durability contract still holds.
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        first = _rows(3, seed=20)
        backend.extend(first)
        backend.close()
        second = _rows(2, seed=21)
        backend.extend(second)
        backend.close()
        reopened = GrowableBackend(root)
        np.testing.assert_array_equal(reopened.values, np.vstack([first, second]))
        reopened.close()

    def test_snapshot_view_refuses_writes(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        backend.extend(_rows(6, seed=22))
        view = backend.slice(0, 4)
        with pytest.raises(ValueError, match="slice/snapshot"):
            view.extend(_rows(1))
        backend.close()

    def test_pickle_pins_watermark(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        rows = _rows(12, seed=6)
        backend.extend(rows)
        backend.checkpoint()
        blob = pickle.dumps(backend)
        backend.extend(_rows(4, seed=7))
        restored = pickle.loads(blob)
        assert restored.count == 12
        np.testing.assert_array_equal(restored.values, rows)
        assert not restored.mutable
        restored.close()
        backend.close()

    def test_verify_segments_detects_bit_rot(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        backend.extend(_rows(16, seed=8))
        backend.checkpoint()
        assert backend.verify_segments() == 16
        backend.close()
        segment = sorted(root.glob("segment-*.npy"))[0]
        raw = bytearray(segment.read_bytes())
        raw[-7] ^= 0x20
        segment.write_bytes(bytes(raw))
        # The verified-set caches process-wide on the sidecar's identity;
        # in-place data damage needs the cache dropped (same as test_integrity).
        invalidate_manifest_cache()
        reopened = GrowableBackend(root)
        with pytest.raises(CorruptionError):
            reopened.verify_segments()
        reopened.close()


class TestRecoverySweeps:
    def test_orphaned_tmp_files_swept_on_open(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        backend.extend(_rows(4))
        backend.close()
        orphan = root / "segment-000009.npy.1234-deadbeef.tmp"
        orphan.write_bytes(b"half-written segment")
        old = orphan.stat().st_mtime - 3600
        os.utime(orphan, (old, old))
        reopened = GrowableBackend(root)
        assert orphan.name in reopened.recovery.swept_tmp
        assert not orphan.exists()
        reopened.close()

    def test_recent_tmp_files_survive_sweep(self, tmp_path):
        # sweep_orphaned_tmp(before=...) must not race a live writer.
        root = tmp_path / "dir"
        root.mkdir()
        fresh = root / "live.npy.42-cafe.tmp"
        fresh.write_bytes(b"in-flight")
        cutoff = fresh.stat().st_mtime - 1.0
        assert sweep_orphaned_tmp(root, before=cutoff) == []
        assert fresh.exists()

    def test_unmanifested_segment_swept_on_open(self, tmp_path):
        # Crash between segment seal and manifest update: the stray segment's
        # rows are still in the WAL, so the file is deleted and replay wins.
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        rows = _rows(6, seed=9)
        backend.extend(rows)
        backend.close()
        stray = root / "segment-000000.npy"
        stray.write_bytes(b"\x93NUMPY not really")
        (root / "segment-000000.npy.crc").write_bytes(b"junk")
        reopened = GrowableBackend(root)
        assert "segment-000000.npy" in reopened.recovery.swept_segments
        assert reopened.count == 6
        np.testing.assert_array_equal(reopened.values, rows)
        reopened.close()

    def test_read_only_open_repairs_nothing(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        backend.extend(_rows(4, seed=10))
        backend.close()
        wal = root / WAL_NAME
        torn = wal.read_bytes() + b"\x01\x02\x03"
        wal.write_bytes(torn)
        ro = GrowableBackend(root, read_only=True)
        assert ro.count == 4  # torn tail ignored...
        assert wal.read_bytes() == torn  # ...but not repaired
        ro.close()
        owner = GrowableBackend(root)
        assert owner.recovery.torn_bytes == 3
        assert wal.stat().st_size == len(torn) - 3
        owner.close()


# ---------------------------------------------------------------------------
# Store / dataset integration
# ---------------------------------------------------------------------------


class TestStoreIntegration:
    def test_dataset_from_file_opens_directory(self, tmp_path):
        root = tmp_path / "store"
        backend = GrowableBackend(root, length=16, create=True)
        backend.extend(_rows(10, seed=11))
        backend.checkpoint()
        backend.close()
        dataset = Dataset.from_file(root)
        assert is_growable_dir(root)
        assert dataset.backend.kind == "growable"
        assert dataset.count == 10 and dataset.length == 16

    def test_to_growable_roundtrip(self, tmp_path):
        values = _rows(30, seed=12)
        dataset = Dataset(values=values, name="live")
        grown = dataset.to_growable(tmp_path / "store")
        assert grown.backend.kind == "growable"
        np.testing.assert_array_equal(np.asarray(grown.values), values)

    def test_store_extend_checkpoints_and_snapshots(self, tmp_path):
        dataset = Dataset(values=_rows(20, seed=13), name="live")
        store = SeriesStore(dataset.to_growable(tmp_path / "store"))
        assert store.watermark == 20
        snap = store.snapshot()
        store.extend(_rows(7, seed=14))
        assert store.count == 27 and snap.count == 20
        np.testing.assert_array_equal(
            np.asarray(snap.read_contiguous(0, 20)),
            np.asarray(store.read_contiguous(0, 20)),
        )
        assert store.checkpoint() == 7

    def test_frozen_store_refuses_extend(self):
        store = SeriesStore(Dataset(values=_rows(5), name="frozen"))
        with pytest.raises(ValueError, match="frozen"):
            store.extend(_rows(1))
        with pytest.raises(ValueError, match="checkpoint"):
            store.checkpoint()

    def test_dataset_values_not_cached_while_mutable(self, tmp_path):
        dataset = Dataset(values=_rows(5, seed=15), name="live").to_growable(
            tmp_path / "store"
        )
        before = np.asarray(dataset.values).copy()
        inner = dataset.backend
        inner.extend(_rows(3, seed=16))
        after = np.asarray(dataset.values)
        assert after.shape[0] == before.shape[0] + 3
        np.testing.assert_array_equal(after[:5], before)

    def test_fault_plan_reaches_the_write_path_only_when_writing(
        self, tmp_path, monkeypatch
    ):
        from repro.core.faults import FaultPlan

        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=7,transient=0.05")
        dataset = Dataset(values=_rows(20, seed=17), name="live").to_growable(
            tmp_path / "store"
        )
        state = dataset.backend._state
        # Reader stores (Dataset.values, conversions, queries) leave it alone.
        dataset.to_file(tmp_path / "copy.npy")
        np.asarray(dataset.values)
        SeriesStore(dataset).read_contiguous(0, 20)
        assert state.plan is None and state.wal.plan is None
        plan = FaultPlan(seed=3)
        store = SeriesStore(dataset, faults=plan)
        store.extend(_rows(2, seed=18))
        assert state.plan is plan and state.wal.plan is plan


# ---------------------------------------------------------------------------
# Snapshot-during-ingest equivalence: the acceptance criterion
# ---------------------------------------------------------------------------

METHOD_PARAMS = {
    "ads+": {"leaf_capacity": 25},
    "dstree": {"leaf_capacity": 25},
    "isax2+": {"leaf_capacity": 25},
    "m-tree": {"node_capacity": 8},
    "r*-tree": {"leaf_capacity": 20, "segments": 8},
    "sfa-trie": {"leaf_capacity": 50, "coefficients": 8},
    "va+file": {"coefficients": 8, "bits_per_dimension": 3},
    "stepwise": {},
    "ucr-suite": {},
    "mass": {},
    "flat": {},
    "sharded:flat": {"shards": 3, "workers": 1},
    "sharded:isax2+": {"shards": 3, "workers": 1, "leaf_capacity": 25},
}

_LENGTH = 32
_BASE_ROWS = 120


@pytest.fixture(scope="module")
def live_store(tmp_path_factory):
    """A growable store that keeps growing after the methods snapshot it."""
    from repro.workloads.generators import random_walk

    root = tmp_path_factory.mktemp("live") / "store"
    matrix = random_walk(_BASE_ROWS + 40, _LENGTH, seed=77)
    backend = GrowableBackend(root, length=_LENGTH, create=True)
    backend.extend(matrix[:_BASE_ROWS])
    backend.checkpoint()
    dataset = Dataset.from_file(root)
    store = SeriesStore(dataset)
    return store, matrix


@pytest.mark.parametrize("method_name", sorted(METHOD_PARAMS))
def test_snapshot_query_equals_frozen_prefix(method_name, live_store):
    """Queries against a snapshot are byte-identical to a frozen prefix —
    even while extend() keeps landing rows in the underlying store."""
    store, matrix = live_store
    watermark = store.watermark
    params = METHOD_PARAMS[method_name]

    snap_method = create_method(method_name, store.snapshot(), **params)
    snap_method.build()

    frozen = SeriesStore(
        Dataset(values=matrix[:watermark].copy(), name="frozen-prefix")
    )
    frozen_method = create_method(method_name, frozen, **params)
    frozen_method.build()

    # Concurrent ingest: rows landing after the snapshot must be invisible.
    store.extend(matrix[store.count : store.count + 5])

    rng = np.random.default_rng(99)
    for _ in range(3):
        query = KnnQuery(series=rng.standard_normal(_LENGTH), k=5)
        live = snap_method.knn_exact(query)
        cold = frozen_method.knn_exact(query)
        assert [(n.position, n.distance) for n in live.neighbors] == [
            (n.position, n.distance) for n in cold.neighbors
        ], method_name


EXTEND_METHODS = {
    name: METHOD_PARAMS[name]
    for name in (
        "flat", "dstree", "isax2+", "ads+", "sfa-trie", "sharded:flat", "sharded:isax2+"
    )
}


@pytest.mark.parametrize("method_name", sorted(EXTEND_METHODS))
def test_live_extend_matches_full_rebuild(method_name, tmp_path):
    """build(prefix) + store.extend + method.extend answers like build(all);
    a sharded method routes every extend to its tail shard."""
    from repro.workloads.generators import random_walk

    matrix = random_walk(150, _LENGTH, seed=55)
    root = tmp_path / "store"
    backend = GrowableBackend(root, length=_LENGTH, create=True)
    backend.extend(matrix[:100])
    store = SeriesStore(Dataset.from_file(root))
    params = EXTEND_METHODS[method_name]
    method = create_method(method_name, store, **params)
    method.build()

    for stop in (130, 150):
        old = store.count
        store.extend(matrix[old:stop])
        assert method.extend(old) == stop - old
        # Queries between extends already see every acked row.
        newest = method.knn_exact(KnnQuery(series=matrix[stop - 1].astype(np.float64), k=1))
        assert newest.nearest.position == stop - 1

    full = SeriesStore(Dataset(values=matrix.copy(), name="full"))
    rebuilt = create_method(method_name, full, **params)
    rebuilt.build()

    rng = np.random.default_rng(101)
    for _ in range(3):
        query = KnnQuery(series=rng.standard_normal(_LENGTH), k=5)
        live = method.knn_exact(query)
        cold = rebuilt.knn_exact(query)
        live_d = [n.distance for n in live.neighbors]
        cold_d = [n.distance for n in cold.neighbors]
        assert live_d == pytest.approx(cold_d, abs=1e-6), method_name


def test_engine_extend_end_to_end(tmp_path):
    from repro import SimilaritySearchEngine
    from repro.workloads.generators import random_walk

    matrix = random_walk(140, _LENGTH, seed=31)
    dataset = Dataset(values=matrix[:100].copy(), name="live").to_growable(
        tmp_path / "store"
    )
    engine = SimilaritySearchEngine(dataset)
    engine.build("flat")
    engine.extend(matrix[100:120])
    engine.extend(matrix[120:], checkpoint=True)
    result = engine.search(matrix[130], k=1)
    assert result.positions()[0] == 130
    assert engine.store.count == 140


def test_sharded_repartition_on_skewed_growth(tmp_path):
    from repro.workloads.generators import random_walk

    matrix = random_walk(400, _LENGTH, seed=42)
    root = tmp_path / "store"
    backend = GrowableBackend(root, length=_LENGTH, create=True)
    backend.extend(matrix[:100])
    store = SeriesStore(Dataset.from_file(root))
    method = create_method(
        "sharded:flat", store, shards=4, workers=1, repartition_factor=1.5
    )
    method.build()
    old = store.count
    store.extend(matrix[100:])  # tail shard would hold 325 of 400 rows
    method.extend(old)
    assert method.repartitions >= 1
    # After repartition the shards are balanced again and answers are exact.
    sizes = [shard.store.count for shard in method._shards]
    assert max(sizes) - min(sizes) <= 1
    full = SeriesStore(Dataset(values=matrix.copy(), name="full"))
    flat = create_method("flat", full)
    flat.build()
    query = KnnQuery(series=matrix[250].astype(np.float64), k=3)
    assert [n.position for n in method.knn_exact(query).neighbors] == [
        n.position for n in flat.knn_exact(query).neighbors
    ]
