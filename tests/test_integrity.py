"""Tests for end-to-end data integrity: sidecars, .rcz CRCs, atomic writes."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Dataset, SeriesStore
from repro.core.integrity import (
    CRC_SUFFIX,
    ChecksumAccumulator,
    CorruptionError,
    checksum,
    invalidate_manifest_cache,
    load_manifest,
    manifest_for,
)
from repro.core.persistence import (
    DatasetFileError,
    load_method,
    save_method,
)
from repro.core.quantize import read_rcz_info
from repro.core.registry import create_method
from repro.core.series import SeriesFileWriter


@pytest.fixture(autouse=True)
def _fresh_manifest_cache():
    # Manifests are cached process-wide by (path, mtime, size); tests that
    # corrupt files in place must never see a stale verified-set.
    invalidate_manifest_cache()
    yield
    invalidate_manifest_cache()


def _rows(count=300, length=32, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, length)).astype(np.float32)


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x40]))


class TestChecksumPrimitives:
    def test_checksum_matches_zlib_semantics(self):
        data = b"hello blocks"
        assert checksum(data) == checksum(data)
        assert checksum(data) != checksum(b"hello block!")

    def test_accumulator_is_chunking_invariant(self):
        rows = _rows(count=2500)
        whole = ChecksumAccumulator(block_rows=1024)
        whole.update(rows)
        pieces = ChecksumAccumulator(block_rows=1024)
        for start in range(0, 2500, 333):
            pieces.update(rows[start : start + 333])
        assert whole.digests() == pieces.digests()
        # Three blocks for 2500 rows at 1024 rows/block.
        assert len(whole.digests()) == 3


class TestSidecarManifests:
    def test_writer_emits_sidecar(self, tmp_path):
        rows = _rows()
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(rows)
        sidecar = path.with_name(path.name + CRC_SUFFIX)
        assert sidecar.exists()
        manifest = load_manifest(path)
        assert manifest.count == 300
        assert manifest.length == 32

    def test_manifest_for_missing_sidecar_is_none(self, tmp_path):
        path = tmp_path / "bare.f32"
        _rows().tofile(path)
        assert manifest_for(path) is None

    def test_rewritten_sidecar_with_same_mtime_and_size_is_not_cached(
        self, tmp_path
    ):
        # Regression: the manifest cache used to key on (path, mtime, size)
        # only.  A sidecar regenerated within the filesystem's mtime
        # granularity at the same byte size collided with the stale cache
        # entry — its verified-set then vouched for the *old* data.  The key
        # now folds in the sidecar's trailing self-CRC, so same-second
        # rewrites miss the cache.
        import os

        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows(seed=1))
        sidecar = path.with_name(path.name + CRC_SUFFIX)
        stat = sidecar.stat()
        stale = manifest_for(path)
        assert stale is not None

        # Rewrite data + sidecar (same geometry => same sidecar size), then
        # force the sidecar's mtime back to the first generation's.
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows(seed=2))
        os.utime(sidecar, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        fresh_stat = sidecar.stat()
        assert fresh_stat.st_mtime_ns == stat.st_mtime_ns
        assert fresh_stat.st_size == stat.st_size

        fresh = manifest_for(path)
        assert fresh is not None and fresh is not stale
        assert not np.array_equal(fresh.crcs, stale.crcs)
        # The fresh manifest verifies the fresh bytes end to end.
        store = SeriesStore(Dataset.from_file(path, length=32))
        np.testing.assert_allclose(
            store.read_contiguous(0, 300), _rows(seed=2)
        )

    def test_corrupt_sidecar_is_rejected(self, tmp_path):
        rows = _rows()
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(rows)
        sidecar = path.with_name(path.name + CRC_SUFFIX)
        _flip_byte(sidecar, sidecar.stat().st_size - 2)  # break the self-digest
        with pytest.raises(CorruptionError):
            load_manifest(path)

    def test_scan_detects_flipped_bit_in_raw_file(self, tmp_path):
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows())
        _flip_byte(path, 5000)
        store = SeriesStore(Dataset.from_file(path, length=32))
        with pytest.raises(CorruptionError) as excinfo:
            for _ in store.scan_chunks():
                pass
        assert excinfo.value.block is not None

    def test_scan_detects_flipped_bit_in_npy_file(self, tmp_path):
        dataset = Dataset(values=_rows(), name="npy-case")
        dataset = dataset.to_mmap(tmp_path / "data.npy")
        # Flip a data byte well past the .npy header.
        _flip_byte(tmp_path / "data.npy", 4096)
        store = SeriesStore(Dataset.from_file(tmp_path / "data.npy"))
        with pytest.raises(CorruptionError):
            for _ in store.scan_chunks():
                pass

    def test_random_access_reads_detect_corruption(self, tmp_path):
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows())
        _flip_byte(path, 128 * 10)  # a byte inside row 10
        store = SeriesStore(Dataset.from_file(path, length=32))
        with pytest.raises(CorruptionError):
            store.read_block(np.array([5, 10, 20]))
        invalidate_manifest_cache()
        with pytest.raises(CorruptionError):
            store.read_contiguous(10, 11)

    def test_verification_passes_on_healthy_file_and_caches(self, tmp_path):
        path = tmp_path / "data.f32"
        rows = _rows()
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(rows)
        store = SeriesStore(Dataset.from_file(path, length=32))
        data = store.read_contiguous(0, 300)
        np.testing.assert_allclose(data, rows)
        manifest = manifest_for(path)
        assert manifest is not None and manifest.verified
        # A fork shares the same manifest object (one verified-set/process).
        assert store.fork().read_contiguous(0, 300).shape == (300, 32)

    def test_verify_false_opts_out(self, tmp_path):
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows())
        _flip_byte(path, 5000)
        store = SeriesStore(Dataset.from_file(path, length=32), verify=False)
        # No verification: the corrupt bytes flow through (caller's choice).
        for _ in store.scan_chunks():
            pass

    def test_stale_sidecar_geometry_is_rejected(self, tmp_path):
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows())
        # Grow the data file after the sidecar was written.
        with open(path, "ab") as handle:
            handle.write(b"\0" * 128 * 4)
        with pytest.raises(CorruptionError, match="sidecar"):
            SeriesStore(Dataset.from_file(path, length=32)).read_contiguous(0, 10)


class TestCompressedChecksums:
    def test_rcz_v2_records_checksums(self, tmp_path):
        dataset = Dataset(values=_rows(), name="rcz-case")
        dataset.to_compressed(tmp_path / "data.rcz")
        info = read_rcz_info(tmp_path / "data.rcz")
        assert info.has_checksums

    def test_rcz_block_corruption_detected(self, tmp_path):
        dataset = Dataset(values=_rows(count=2000), name="rcz-corrupt")
        dataset.to_compressed(tmp_path / "data.rcz")
        info = read_rcz_info(tmp_path / "data.rcz")
        # Flip a byte inside the first block's payload.
        _flip_byte(tmp_path / "data.rcz", int(info.table["offset"][0]) + 3)
        store = SeriesStore(Dataset.from_file(tmp_path / "data.rcz"))
        with pytest.raises(CorruptionError) as excinfo:
            store.read_contiguous(0, 100)
        assert excinfo.value.block == 0


class TestAtomicWriters:
    def test_series_writer_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "data.f32"
        with SeriesFileWriter(path, length=32) as writer:
            writer.append(_rows())
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_series_writer_abandons_on_error(self, tmp_path):
        path = tmp_path / "data.f32"
        with pytest.raises(RuntimeError):
            with SeriesFileWriter(path, length=32) as writer:
                writer.append(_rows(count=10))
                raise RuntimeError("interrupted")
        # The target path never appeared, and the temp file is gone.
        assert not path.exists()
        assert not list(tmp_path.glob("*"))

    def test_compressed_writer_abandons_on_error(self, tmp_path):
        from repro.core.quantize import CompressedFileWriter

        path = tmp_path / "data.rcz"
        with pytest.raises(RuntimeError):
            with CompressedFileWriter(path, length=32) as writer:
                writer.append(_rows(count=10))
                raise RuntimeError("interrupted")
        assert not path.exists()
        assert not list(tmp_path.glob("*"))


class TestPersistenceIntegrity:
    def _saved(self, tmp_path):
        dataset = Dataset(values=_rows(count=200), name="persist")
        store = SeriesStore(dataset)
        method = create_method("flat", store)
        method.build()
        path = tmp_path / "index.bin"
        save_method(method, path)
        return dataset, path

    def test_round_trip_still_works(self, tmp_path):
        dataset, path = self._saved(tmp_path)
        method = load_method(path, dataset=dataset)
        assert method.is_built

    def test_truncated_index_file_is_refused(self, tmp_path):
        dataset, path = self._saved(tmp_path)
        envelope = pickle.loads(path.read_bytes())
        envelope.method_state = envelope.method_state[:-16]
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(CorruptionError, match="checksum mismatch"):
            load_method(path, dataset=dataset)

    def test_missing_dataset_file_is_typed(self, tmp_path):
        source = tmp_path / "data.f32"
        with SeriesFileWriter(source, length=32) as writer:
            writer.append(_rows())
        store = SeriesStore(Dataset.from_file(source, length=32))
        method = create_method("flat", store)
        method.build()
        index_path = tmp_path / "index.bin"
        save_method(method, index_path)
        source.unlink()
        source.with_name(source.name + CRC_SUFFIX).unlink()
        with pytest.raises(DatasetFileError) as excinfo:
            load_method(index_path)
        assert excinfo.value.path == str(source)
        assert excinfo.value.kind == "mmap"

    def test_truncated_dataset_file_is_typed(self, tmp_path):
        source = tmp_path / "data.f32"
        with SeriesFileWriter(source, length=32) as writer:
            writer.append(_rows())
        store = SeriesStore(Dataset.from_file(source, length=32))
        method = create_method("flat", store)
        method.build()
        index_path = tmp_path / "index.bin"
        save_method(method, index_path)
        with open(source, "r+b") as handle:
            handle.truncate(source.stat().st_size // 2)
        with pytest.raises(DatasetFileError, match="truncated"):
            load_method(index_path)
