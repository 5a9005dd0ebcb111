"""Compressed quantized-block storage: format, backend, bounds, pruned scans.

Three layers under test:

1. the ``.rcz`` container (``repro.core.quantize``) — chunk-invariant streamed
   writes, header/table validation, codec round-trips;
2. the :class:`~repro.core.backends.CompressedBackend` — every read seam
   serves the same dequantized float32 values, slices/forks/pickles travel by
   path, release keeps residency bounded;
3. the two-phase pruned scan — quantized lower bounds are *sound* (never
   above the true distance to the stored values), accounting splits logical
   from physical bytes, and the pruned flat scan stays byte-identical to the
   memory backend at any tile/block-size combination.
"""

import pickle

import numpy as np
import pytest

from repro import Dataset, SeriesStore, create_method
from repro.core.backends import CompressedBackend
from repro.core.quantize import (
    RCZ_SUFFIX,
    CompressedFileWriter,
    dequantize_block,
    quantize_block,
    quantized_lower_bounds,
    read_rcz_info,
    write_rcz_file,
)
from repro.core.queries import KnnQuery
from repro.workloads import random_walk_dataset

COUNT, LENGTH = 230, 24


@pytest.fixture(scope="module")
def walks() -> np.ndarray:
    return random_walk_dataset(COUNT, LENGTH, seed=11).values


@pytest.fixture(scope="module")
def rcz_path(walks, tmp_path_factory):
    path = tmp_path_factory.mktemp("rcz") / f"walks{RCZ_SUFFIX}"
    write_rcz_file(path, [walks], length=LENGTH, qdtype="int8", block_rows=64)
    return path


class TestFormat:
    def test_writer_is_chunk_invariant(self, walks, tmp_path):
        """Any append chunking produces byte-identical files (the writer
        re-buffers to block granularity)."""
        a, b, c = (tmp_path / f"{n}.rcz" for n in "abc")
        write_rcz_file(a, [walks], length=LENGTH, block_rows=64)
        write_rcz_file(b, [walks[:13], walks[13:64], walks[64:]], length=LENGTH, block_rows=64)
        write_rcz_file(
            c, [walks[i : i + 7] for i in range(0, COUNT, 7)], length=LENGTH, block_rows=64
        )
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_header_records_geometry(self, rcz_path):
        info = read_rcz_info(rcz_path)
        assert (info.count, info.length, info.block_rows) == (COUNT, LENGTH, 64)
        assert info.qdtype_name == "int8"
        assert info.codec == "zlib"
        # partial tail block: table rows must sum to the count
        assert int(info.table["rows"].sum()) == COUNT
        assert info.table["rows"][-1] == COUNT % 64

    def test_codec_round_trips(self, walks, tmp_path):
        """'none' and 'zlib' must serve identical values; zlib strictly smaller."""
        paths = {}
        for codec in ("none", "zlib"):
            path = tmp_path / f"{codec}.rcz"
            write_rcz_file(path, [walks], length=LENGTH, compression=codec, block_rows=64)
            paths[codec] = path
        plain = CompressedBackend(paths["none"]).values
        deflated = CompressedBackend(paths["zlib"]).values
        np.testing.assert_array_equal(np.asarray(plain), np.asarray(deflated))
        assert paths["zlib"].stat().st_size < paths["none"].stat().st_size

    def test_rejects_unknown_codec_and_qdtype(self, tmp_path):
        with pytest.raises(ValueError, match="codec"):
            CompressedFileWriter(tmp_path / "x.rcz", length=8, compression="snappy")
        with pytest.raises(ValueError, match="dtype"):
            CompressedFileWriter(tmp_path / "x.rcz", length=8, qdtype="int4")

    def test_rejects_corrupt_files(self, rcz_path, tmp_path):
        bad_magic = tmp_path / "magic.rcz"
        blob = bytearray(rcz_path.read_bytes())
        blob[:4] = b"NOPE"
        bad_magic.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not an .rcz|magic"):
            read_rcz_info(bad_magic)

        truncated = tmp_path / "short.rcz"
        truncated.write_bytes(rcz_path.read_bytes()[:40])
        with pytest.raises(ValueError):
            read_rcz_info(truncated)

    def test_zero_row_file_round_trips(self, tmp_path):
        path = tmp_path / "empty.rcz"
        count = write_rcz_file(path, [], length=8)
        assert count == 0
        info = read_rcz_info(path)
        assert (info.count, info.length) == (0, 8)

    def test_quantization_error_is_step_bounded(self, walks):
        for qdtype, bound in (("int8", 0.5 / 127), ("int16", 0.5 / 32767)):
            codes, scale, shift = quantize_block(walks, qdtype)
            stored = dequantize_block(codes, scale, shift)
            # half a quantization step per value (plus float32 rounding slack)
            step = float(scale)
            assert np.max(np.abs(stored - walks)) <= step * 0.5 + 1e-6
            assert step == pytest.approx(
                (walks.max() - walks.min()) / 2 * (bound * 2), rel=0.01
            )

    def test_constant_block_quantizes_exactly(self):
        flat = np.full((5, 8), 3.25, dtype=np.float32)
        codes, scale, shift = quantize_block(flat, "int8")
        np.testing.assert_array_equal(dequantize_block(codes, scale, shift), flat)


class TestCompressedBackend:
    @pytest.fixture(scope="class")
    def backend(self, rcz_path):
        return CompressedBackend(rcz_path)

    @pytest.fixture(scope="class")
    def stored(self, backend) -> np.ndarray:
        return np.array(backend.values)

    def test_geometry_and_describe(self, backend, rcz_path):
        assert (backend.count, backend.length) == (COUNT, LENGTH)
        assert backend.kind == "compressed"
        assert backend.supports_quantized_scan
        info = backend.describe()
        assert info["format"] == "rcz"
        assert info["qdtype"] == "int8"
        # stored payload bytes; the file adds the 64B header + 32B/block table
        table = read_rcz_info(rcz_path).table
        assert info["stored_bytes"] == int(table["nbytes"].sum())
        assert rcz_path.stat().st_size == 64 + info["stored_bytes"] + 32 * len(table)

    def test_read_seams_agree(self, backend, stored):
        fresh = CompressedBackend(backend.source_path)  # no materialized values
        np.testing.assert_array_equal(fresh.read_rows(60, 130), stored[60:130])
        picks = np.array([0, 63, 64, 65, COUNT - 1])
        np.testing.assert_array_equal(fresh.take(picks), stored[picks])
        np.testing.assert_array_equal(fresh.read_rows(100, 101)[0], stored[100])
        store = SeriesStore(Dataset.from_file(backend.source_path))
        np.testing.assert_array_equal(store.peek(10, 20), stored[10:20])

    def test_values_are_float32_and_read_only(self, backend):
        assert backend.values.dtype == np.float32
        assert not backend.values.flags.writeable

    def test_slice_and_fork_compose(self, rcz_path, stored):
        backend = CompressedBackend(rcz_path)
        inner = backend.slice(40, 200).slice(10, 30)
        np.testing.assert_array_equal(np.asarray(inner.values), stored[50:70])
        fork = inner.fork()
        assert fork is not inner
        np.testing.assert_array_equal(np.asarray(fork.values), stored[50:70])

    def test_pickles_by_path(self, rcz_path, stored):
        backend = CompressedBackend(rcz_path, start=50, stop=90)
        blob = pickle.dumps(backend)
        assert len(blob) < 1024  # path + range, never rows or decoded blocks
        reopened = pickle.loads(blob)
        np.testing.assert_array_equal(np.asarray(reopened.values), stored[50:90])

    def test_release_is_safe_and_rereadable(self, rcz_path, stored):
        backend = CompressedBackend(rcz_path, cache_blocks=2)
        first = np.array(backend.read_rows(0, 130))
        backend.release(0, 130)
        np.testing.assert_array_equal(np.array(backend.read_rows(0, 130)), first)
        np.testing.assert_array_equal(first, stored[:130])

    def test_quantized_parts_cover_exact_ranges(self, rcz_path, stored):
        backend = CompressedBackend(rcz_path)
        for start, stop in ((0, 64), (10, 50), (60, 130), (0, COUNT), (200, COUNT)):
            parts = backend.quantized_parts(start, stop)
            rebuilt = np.vstack(
                [dequantize_block(codes, scale, shift) for codes, scale, shift in parts]
            )
            np.testing.assert_array_equal(rebuilt, stored[start:stop])

    def test_physical_bytes_match_stored_payloads(self, rcz_path):
        backend = CompressedBackend(rcz_path)
        info = read_rcz_info(rcz_path)
        total_payload = int(info.table["nbytes"].sum())
        assert backend.physical_bytes(0, COUNT) == total_payload
        # one row still costs its whole covering block
        assert backend.physical_bytes(0, 1) == int(info.table["nbytes"][0])
        parts = backend.physical_bytes_for(np.array([0, 1, 70]))
        assert parts == int(info.table["nbytes"][0]) + int(info.table["nbytes"][1])

    def test_rejects_bad_ranges_and_missing_file(self, rcz_path, tmp_path):
        with pytest.raises(FileNotFoundError):
            CompressedBackend(tmp_path / "nope.rcz").count  # lazy open on first use
        with pytest.raises(ValueError):
            CompressedBackend(rcz_path, start=10, stop=5).count


class TestLowerBoundSoundness:
    def test_bounds_never_exceed_true_distances(self):
        """The filter's contract: lb <= squared distance to the *stored* values
        for every (query, row) pair — across magnitudes, offsets, and dtypes."""
        rng = np.random.default_rng(123)
        for trial in range(20):
            scale_mag = 10.0 ** rng.integers(-3, 4)
            offset = float(rng.normal() * scale_mag * 10)
            block = (rng.standard_normal((40, 16)) * scale_mag + offset).astype(
                np.float32
            )
            qdtype = "int8" if trial % 2 else "int16"
            codes, scale, shift = quantize_block(block, qdtype)
            stored = dequantize_block(codes, scale, shift).astype(np.float64)
            queries = rng.standard_normal((5, 16)) * scale_mag + offset
            # exact kernel the refinement uses
            true = (
                np.sum(stored * stored, axis=1)[np.newaxis, :]
                + np.sum(queries * queries, axis=1)[:, np.newaxis]
                - 2.0 * (queries @ stored.T)
            )
            np.clip(true, 0.0, None, out=true)
            bounds = quantized_lower_bounds(codes, scale, shift, queries)
            assert bounds.shape == (5, 40)
            assert np.all(bounds <= true + 1e-12)
            assert np.all(bounds >= 0.0)

    def test_bounds_are_tight_for_self_queries(self, walks):
        codes, scale, shift = quantize_block(walks[:32], "int16")
        stored = dequantize_block(codes, scale, shift).astype(np.float64)
        bounds = quantized_lower_bounds(codes, scale, shift, stored[:4])
        # distance of row i to itself is 0; the bound must sit at ~0, not at a
        # uselessly loose negative-clipped floor for everything
        assert np.all(np.diag(bounds[:4, :4]) <= 1e-6)
        assert bounds.max() > 1.0  # far rows keep a discriminating bound


class TestAccountingSplit:
    def test_physical_equals_logical_on_float_backends(self, walks, tmp_path):
        memory = SeriesStore(Dataset(values=walks, name="acct"))
        path = tmp_path / "acct.npy"
        Dataset(values=walks, name="acct").to_file(path)
        mmap = SeriesStore(Dataset.from_file(path), backend="mmap")
        for store in (memory, mmap):
            store.scan()
            store.read_block([1, 5, 9])
            store.read_contiguous(10, 40)
            store.read_contiguous(3, 4)
            assert store.counter.physical_bytes_read == store.counter.bytes_read > 0

    def test_scan_quantized_chunks_accounting(self, rcz_path):
        store = SeriesStore(
            Dataset.from_file(rcz_path, name="acct-rcz"), page_bytes=1024
        )
        info = read_rcz_info(rcz_path)
        physical = int(info.table["nbytes"].sum())
        tiles = [
            (start, stop, parts)
            for start, stop, parts in store.scan_quantized_chunks(chunk_rows=64)
        ]
        assert [t[:2] for t in tiles] == [
            (s, min(s + 64, COUNT)) for s in range(0, COUNT, 64)
        ]
        counter = store.counter
        assert counter.random_accesses == 1
        assert counter.series_read == COUNT
        assert counter.bytes_read == COUNT * LENGTH * 1  # int8 codes
        assert counter.physical_bytes_read == physical
        assert counter.sequential_pages == -(-physical // 1024)

    def test_scan_quantized_chunks_requires_compressed(self, walks):
        store = SeriesStore(Dataset(values=walks, name="plain"))
        assert not store.supports_quantized_scan
        with pytest.raises(ValueError, match="compressed"):
            list(store.scan_quantized_chunks())

    def test_pruned_flat_reads_fewer_physical_bytes(self, rcz_path, walks):
        """A dataset-row query with a tight radius must leave tiles unread."""
        store = SeriesStore(Dataset.from_file(rcz_path, name="pruned"))
        method = create_method("flat", store, tile_series=64)
        method.build()
        store.counter.reset()
        result = method.knn_exact(KnnQuery(series=walks[3], k=1))
        raw_bytes = COUNT * LENGTH * 4
        assert result.stats.series_examined < COUNT  # tiles were pruned
        assert result.stats.lower_bounds_computed == COUNT
        assert result.stats.physical_bytes_read < raw_bytes
        assert result.stats.physical_bytes_read < result.stats.bytes_read


class TestPrunedScanEquivalence:
    """Byte-identical answers for every tile/block-size combination."""

    @pytest.mark.parametrize("block_rows", [16, 64, 256])
    @pytest.mark.parametrize("tile", [1, 48, 64, 100, 1024])
    def test_flat_matches_memory_at_any_geometry(
        self, walks, tmp_path, block_rows, tile
    ):
        path = tmp_path / f"b{block_rows}.rcz"
        compressed = Dataset(values=walks, name="geom").to_compressed(
            path, qdtype="int8", block_rows=block_rows
        )
        reference = Dataset(values=np.array(compressed.values), name="geom-ref")
        mem = create_method("flat", SeriesStore(reference), tile_series=tile)
        comp = create_method("flat", SeriesStore(compressed), tile_series=tile)
        mem.build()
        comp.build()
        queries = np.vstack(
            [reference.values[0], reference.values[COUNT - 1], walks[7] + 0.25]
        ).astype(np.float64)
        for q in queries:
            a = mem.knn_exact(KnnQuery(series=q, k=3))
            b = comp.knn_exact(KnnQuery(series=q, k=3))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()
        for a, b in zip(
            mem.knn_exact_batch(queries, k=3), comp.knn_exact_batch(queries, k=3)
        ):
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()

    def test_dataset_to_compressed_round_trip(self, walks, tmp_path):
        dataset = Dataset(values=walks, name="roundtrip")
        compressed = dataset.to_compressed(tmp_path / "rt.rcz", qdtype="int16")
        assert compressed.backend.kind == "compressed"
        assert (compressed.count, compressed.length) == (COUNT, LENGTH)
        # int16 stored values sit within a half-step of the originals
        assert np.max(np.abs(np.asarray(compressed.values) - walks)) < 1e-3
        reopened = Dataset.from_file(tmp_path / "rt.rcz")
        np.testing.assert_array_equal(
            np.asarray(reopened.values), np.asarray(compressed.values)
        )
