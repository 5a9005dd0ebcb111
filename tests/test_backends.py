"""Storage-backend layer tests: memory/mmap equivalence, files, persistence.

The contract under test is the heart of the out-of-core refactor: the mmap
backend must be indistinguishable from the in-memory backend — byte-identical
answers and identical access counters for every registered method — while
never materializing the collection.
"""

import pickle

import numpy as np
import pytest

from repro import (
    Dataset,
    SeriesFileWriter,
    SeriesStore,
    SimilaritySearchEngine,
    create_method,
    load_method,
    save_method,
    write_series_file,
)
from repro.core.backends import MmapBackend, resolve_backend
from repro.core.persistence import dataset_fingerprint
from repro.core.queries import KnnQuery, RangeQuery
from repro.evaluation.hardware import measure_platform
from repro.workloads import random_walk_dataset, random_walk_to_file

METHOD_PARAMS = {
    "ads+": {"leaf_capacity": 25},
    "flat": {},
    "dstree": {"leaf_capacity": 25},
    "isax2+": {"leaf_capacity": 25},
    "m-tree": {"node_capacity": 8},
    "r*-tree": {"leaf_capacity": 20, "segments": 8},
    "sfa-trie": {"leaf_capacity": 50, "coefficients": 8},
    "va+file": {"coefficients": 8, "bits_per_dimension": 3},
    "stepwise": {},
    "ucr-suite": {},
    "mass": {},
}

COUNT, LENGTH = 240, 32


@pytest.fixture(scope="module")
def memory_dataset() -> Dataset:
    return random_walk_dataset(COUNT, LENGTH, seed=42, name="backend-eq")


@pytest.fixture(scope="module")
def mmap_dataset(memory_dataset, tmp_path_factory) -> Dataset:
    path = tmp_path_factory.mktemp("backends") / "backend-eq.npy"
    dataset = memory_dataset.to_mmap(path)
    assert dataset.backend is not None and dataset.backend.kind == "mmap"
    return dataset


@pytest.fixture(scope="module")
def compressed_dataset(memory_dataset, tmp_path_factory) -> Dataset:
    """The module dataset quantized to int16 .rcz (block smaller than count
    so multi-block reads, partial tail blocks, and slicing are exercised)."""
    path = tmp_path_factory.mktemp("backends-rcz") / "backend-eq.rcz"
    dataset = memory_dataset.to_compressed(path, qdtype="int16", block_rows=64)
    assert dataset.backend is not None and dataset.backend.kind == "compressed"
    return dataset


@pytest.fixture(scope="module")
def dequantized_dataset(compressed_dataset) -> Dataset:
    """The compressed collection's canonical float32 values, held in RAM.

    Quantization is lossy relative to the *original* floats, so "byte-identical
    to the memory backend" means: against a memory backend serving the same
    dequantized values the compressed backend stores.
    """
    return Dataset(
        values=np.array(compressed_dataset.values), name="backend-eq-dequantized"
    )


@pytest.fixture(scope="module")
def queries(memory_dataset):
    rng = np.random.default_rng(7)
    picks = [5, COUNT // 2, COUNT - 1]
    qs = [np.asarray(memory_dataset.values[i], dtype=np.float64) for i in picks]
    qs.append(np.cumsum(rng.standard_normal(LENGTH)))
    return qs


class TestStreamedWriter:
    def test_chunked_writes_match_one_shot(self, tmp_path):
        data = random_walk_dataset(100, 16, seed=3).values
        a = tmp_path / "oneshot.npy"
        b = tmp_path / "chunked.npy"
        write_series_file(a, [data])
        write_series_file(b, [data[:13], data[13:57], data[57:]])
        assert a.read_bytes() == b.read_bytes()

    def test_npy_readable_by_numpy(self, tmp_path):
        data = random_walk_dataset(37, 8, seed=4).values
        path = tmp_path / "data.npy"
        count, length = write_series_file(path, [data[:20], data[20:]])
        assert (count, length) == (37, 8)
        np.testing.assert_array_equal(np.load(path), data)

    def test_raw_f32_roundtrip(self, tmp_path):
        data = random_walk_dataset(25, 12, seed=5).values
        path = tmp_path / "data.f32"
        write_series_file(path, [data])
        assert path.stat().st_size == data.nbytes  # headerless
        reopened = Dataset.from_file(path, length=12)
        np.testing.assert_array_equal(np.asarray(reopened.values), data)

    def test_single_series_chunks_are_promoted(self, tmp_path):
        path = tmp_path / "rows.npy"
        with SeriesFileWriter(path, length=4) as writer:
            writer.append(np.arange(4, dtype=np.float32))
            writer.append(np.arange(4, 8, dtype=np.float32))
        assert np.load(path).shape == (2, 4)

    def test_rejects_mismatched_chunk_length(self, tmp_path):
        with SeriesFileWriter(tmp_path / "bad.npy", length=8) as writer:
            with pytest.raises(ValueError, match="length"):
                writer.append(np.zeros((2, 5), dtype=np.float32))
            writer.append(np.zeros((1, 8), dtype=np.float32))

    def test_append_after_close_fails(self, tmp_path):
        writer = SeriesFileWriter(tmp_path / "closed.npy", length=4)
        writer.append(np.zeros((1, 4), dtype=np.float32))
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.append(np.zeros((1, 4), dtype=np.float32))

    def test_zero_row_npy_round_trips(self, tmp_path):
        path = tmp_path / "empty.npy"
        with SeriesFileWriter(path, length=4) as writer:
            pass
        assert np.load(path).shape == (0, 4)
        ds = Dataset.from_file(path)
        assert (ds.count, ds.length) == (0, 4)

    def test_zero_row_raw_round_trips(self, tmp_path):
        path = tmp_path / "empty.f32"
        count, length = write_series_file(path, [], length=8)
        assert (count, length) == (0, 8)
        ds = Dataset.from_file(path, length=8)
        assert (ds.count, ds.length) == (0, 8)
        assert SeriesStore(ds).scan().shape == (0, 8)

    def test_empty_final_chunk_is_ignored(self, tmp_path):
        path = tmp_path / "walks.npy"
        with SeriesFileWriter(path, length=4) as writer:
            writer.append(np.zeros((3, 4), dtype=np.float32))
            writer.append(np.empty((0, 4), dtype=np.float32))
            writer.append(np.array([], dtype=np.float32))
        assert writer.count == 3
        assert np.load(path).shape == (3, 4)

    def test_unknown_length_empty_npy_still_fails(self, tmp_path):
        writer = SeriesFileWriter(tmp_path / "empty.npy")
        with pytest.raises(ValueError, match="length"):
            writer.close()

    def test_streamed_generator_is_chunk_invariant(self, tmp_path):
        dense = random_walk_dataset(90, 16, seed=9).values
        streamed = random_walk_to_file(
            tmp_path / "walks.npy", 90, 16, seed=9, chunk_size=17
        )
        np.testing.assert_array_equal(np.asarray(streamed.values), dense)


class TestMmapBackend:
    def test_values_are_lazy_and_read_only(self, mmap_dataset):
        values = mmap_dataset.backend.values
        assert isinstance(values.base, np.memmap) or isinstance(values, np.memmap)
        assert not values.flags.writeable

    def test_requires_length_for_raw(self, tmp_path):
        path = tmp_path / "raw.f32"
        path.write_bytes(np.zeros((4, 8), dtype=np.float32).tobytes())
        with pytest.raises(ValueError, match="length"):
            MmapBackend(path)
        assert MmapBackend(path, length=8).count == 4

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MmapBackend(tmp_path / "nope.npy")

    def test_rejects_wrong_dtype(self, tmp_path):
        path = tmp_path / "f64.npy"
        np.save(path, np.zeros((4, 8), dtype=np.float64))
        with pytest.raises(ValueError, match="dtype"):
            MmapBackend(path)

    def test_rejects_truncated_raw(self, tmp_path):
        path = tmp_path / "odd.f32"
        path.write_bytes(b"\x00" * 100)  # not a multiple of 8 * 4 bytes
        with pytest.raises(ValueError, match="multiple"):
            MmapBackend(path, length=8)

    def test_slice_is_zero_copy_and_picklable(self, mmap_dataset, memory_dataset):
        backend = mmap_dataset.backend.slice(50, 90)
        np.testing.assert_array_equal(
            np.asarray(backend.values), memory_dataset.values[50:90]
        )
        blob = pickle.dumps(backend)
        assert len(blob) < 1024  # a path + row range, never the rows themselves
        reopened = pickle.loads(blob)
        np.testing.assert_array_equal(
            np.asarray(reopened.values), memory_dataset.values[50:90]
        )

    def test_nested_slice_offsets_compose(self, mmap_dataset, memory_dataset):
        inner = mmap_dataset.backend.slice(40, 200).slice(10, 30)
        np.testing.assert_array_equal(
            np.asarray(inner.values), memory_dataset.values[50:70]
        )

    def test_fork_reopens_a_private_mapping(self, mmap_dataset):
        fork = mmap_dataset.backend.fork()
        assert fork is not mmap_dataset.backend
        np.testing.assert_array_equal(
            np.asarray(fork.values), np.asarray(mmap_dataset.backend.values)
        )

    def test_release_is_safe_and_rereadable(self, mmap_dataset, memory_dataset):
        backend = mmap_dataset.backend.fork()
        first = np.array(backend.read_rows(0, 64))
        backend.release(0, 64)
        np.testing.assert_array_equal(np.array(backend.read_rows(0, 64)), first)
        np.testing.assert_array_equal(first, memory_dataset.values[:64])

    def test_file_backed_dataset_pickles_by_path(self, mmap_dataset, memory_dataset):
        blob = pickle.dumps(mmap_dataset)
        assert len(blob) < 4096
        reopened = pickle.loads(blob)
        np.testing.assert_array_equal(np.asarray(reopened.values), memory_dataset.values)

    def test_resolve_backend_choices(self, mmap_dataset, memory_dataset):
        assert resolve_backend(memory_dataset).kind == "memory"
        assert resolve_backend(mmap_dataset).kind == "mmap"
        assert resolve_backend(mmap_dataset, "memory").kind == "memory"
        with pytest.raises(ValueError, match="file-backed"):
            resolve_backend(memory_dataset, "mmap")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(memory_dataset, "cloud")


class TestBackendEquivalence:
    """Every method answers byte-identically with identical counters."""

    @pytest.mark.parametrize("method_name", sorted(METHOD_PARAMS))
    def test_knn_answers_and_counters_match(
        self, method_name, memory_dataset, mmap_dataset, queries
    ):
        mem = create_method(
            method_name, SeriesStore(memory_dataset), **METHOD_PARAMS[method_name]
        )
        mm = create_method(
            method_name, SeriesStore(mmap_dataset), **METHOD_PARAMS[method_name]
        )
        mem.build()
        mm.build()
        assert mem.store.counter == mm.store.counter  # build accounting
        for q in queries:
            a = mem.knn_exact(KnnQuery(series=q, k=5))
            b = mm.knn_exact(KnnQuery(series=q, k=5))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()  # byte-identical
        assert mem.store.counter == mm.store.counter  # query accounting

    @pytest.mark.parametrize("method_name", sorted(METHOD_PARAMS))
    def test_sharded_answers_and_counters_match(
        self, method_name, memory_dataset, mmap_dataset, queries
    ):
        # workers=1 runs the identical fan-out sequentially, which keeps the
        # counters deterministic (with concurrent workers the cross-shard
        # shared-radius tightening order — and therefore the pruning work —
        # varies run to run, independent of the backend).
        params = dict(METHOD_PARAMS[method_name], shards=3, workers=1)
        mem = create_method(f"sharded:{method_name}", SeriesStore(memory_dataset), **params)
        mm = create_method(f"sharded:{method_name}", SeriesStore(mmap_dataset), **params)
        mem.build()
        mm.build()
        assert mem.store.counter == mm.store.counter
        for q in queries[:2]:
            a = mem.knn_exact(KnnQuery(series=q, k=5))
            b = mm.knn_exact(KnnQuery(series=q, k=5))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()
        assert mem.store.counter == mm.store.counter

    @pytest.mark.parametrize("method_name", ["flat", "dstree"])
    def test_sharded_concurrent_workers_on_mmap(
        self, method_name, memory_dataset, mmap_dataset, queries
    ):
        """Answers stay byte-identical across backends under real concurrency."""
        params = dict(METHOD_PARAMS[method_name], shards=3, workers=3)
        mem = create_method(f"sharded:{method_name}", SeriesStore(memory_dataset), **params)
        mm = create_method(f"sharded:{method_name}", SeriesStore(mmap_dataset), **params)
        mem.build()
        mm.build()
        try:
            stacked = np.vstack(queries)
            for a, b in zip(
                mem.knn_exact_batch(stacked, k=5), mm.knn_exact_batch(stacked, k=5)
            ):
                assert a.positions() == b.positions()
                assert a.distances() == b.distances()
        finally:
            mem.close()
            mm.close()

    @pytest.mark.parametrize("method_name", ["flat", "mass", "isax2+"])
    def test_batch_answers_match(
        self, method_name, memory_dataset, mmap_dataset, queries
    ):
        mem = create_method(
            method_name, SeriesStore(memory_dataset), **METHOD_PARAMS[method_name]
        )
        mm = create_method(
            method_name, SeriesStore(mmap_dataset), **METHOD_PARAMS[method_name]
        )
        mem.build()
        mm.build()
        stacked = np.vstack(queries)
        for a, b in zip(
            mem.knn_exact_batch(stacked, k=4), mm.knn_exact_batch(stacked, k=4)
        ):
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()
        assert mem.store.counter == mm.store.counter

    @pytest.mark.parametrize("method_name", ["flat", "va+file", "dstree"])
    def test_range_answers_match(
        self, method_name, memory_dataset, mmap_dataset, queries
    ):
        mem = create_method(
            method_name, SeriesStore(memory_dataset), **METHOD_PARAMS[method_name]
        )
        mm = create_method(
            method_name, SeriesStore(mmap_dataset), **METHOD_PARAMS[method_name]
        )
        mem.build()
        mm.build()
        query = RangeQuery(series=queries[0], radius=4.0)
        a, b = mem.range_exact(query), mm.range_exact(query)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()
        assert mem.store.counter == mm.store.counter

    def test_engine_backend_parameter(self, mmap_dataset, memory_dataset):
        out_of_core = SimilaritySearchEngine(mmap_dataset)
        in_ram = SimilaritySearchEngine(mmap_dataset, backend="memory")
        assert out_of_core.store.backend.kind == "mmap"
        assert in_ram.store.backend.kind == "memory"
        out_of_core.build("flat")
        in_ram.build("flat")
        q = memory_dataset.values[3]
        a = out_of_core.search(q, k=3)
        b = in_ram.search(q, k=3)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()


class TestCompressedEquivalence:
    """Every method answers byte-identically on the compressed backend.

    The reference is a memory backend over the *dequantized* values (see the
    ``dequantized_dataset`` fixture): distances and positions must match
    exactly — including for flat/mass, whose compressed path runs the
    two-phase pruned scan instead of the plain pass.  Access counters are not
    compared: the pruned scan is a different algorithm with different
    (smaller) I/O by design.
    """

    @pytest.mark.parametrize("method_name", sorted(METHOD_PARAMS))
    def test_knn_answers_match_memory(
        self, method_name, dequantized_dataset, compressed_dataset, queries
    ):
        mem = create_method(
            method_name, SeriesStore(dequantized_dataset), **METHOD_PARAMS[method_name]
        )
        comp = create_method(
            method_name, SeriesStore(compressed_dataset), **METHOD_PARAMS[method_name]
        )
        mem.build()
        comp.build()
        for q in queries:
            a = mem.knn_exact(KnnQuery(series=q, k=5))
            b = comp.knn_exact(KnnQuery(series=q, k=5))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()  # byte-identical

    @pytest.mark.parametrize("method_name", sorted(METHOD_PARAMS))
    def test_sharded_answers_match_memory(
        self, method_name, dequantized_dataset, compressed_dataset, queries
    ):
        params = dict(METHOD_PARAMS[method_name], shards=3, workers=1)
        mem = create_method(
            f"sharded:{method_name}", SeriesStore(dequantized_dataset), **params
        )
        comp = create_method(
            f"sharded:{method_name}", SeriesStore(compressed_dataset), **params
        )
        mem.build()
        comp.build()
        for q in queries[:2]:
            a = mem.knn_exact(KnnQuery(series=q, k=5))
            b = comp.knn_exact(KnnQuery(series=q, k=5))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()

    @pytest.mark.parametrize("method_name", ["flat", "mass", "isax2+"])
    def test_batch_answers_match_memory(
        self, method_name, dequantized_dataset, compressed_dataset, queries
    ):
        mem = create_method(
            method_name, SeriesStore(dequantized_dataset), **METHOD_PARAMS[method_name]
        )
        comp = create_method(
            method_name, SeriesStore(compressed_dataset), **METHOD_PARAMS[method_name]
        )
        mem.build()
        comp.build()
        stacked = np.vstack(queries)
        for a, b in zip(
            mem.knn_exact_batch(stacked, k=4), comp.knn_exact_batch(stacked, k=4)
        ):
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()

    @pytest.mark.parametrize("method_name", ["flat", "va+file"])
    def test_range_answers_match_memory(
        self, method_name, dequantized_dataset, compressed_dataset, queries
    ):
        mem = create_method(
            method_name, SeriesStore(dequantized_dataset), **METHOD_PARAMS[method_name]
        )
        comp = create_method(
            method_name, SeriesStore(compressed_dataset), **METHOD_PARAMS[method_name]
        )
        mem.build()
        comp.build()
        query = RangeQuery(series=queries[0], radius=4.0)
        a, b = mem.range_exact(query), comp.range_exact(query)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()

    def test_int8_is_lossy_vs_original_but_exact_over_stored(
        self, memory_dataset, tmp_path, queries
    ):
        """int8 quantization visibly perturbs the values (documented lossiness)
        yet answers over the *stored* collection stay exact."""
        path = tmp_path / "int8.rcz"
        compressed = memory_dataset.to_compressed(path, qdtype="int8", block_rows=64)
        stored = np.asarray(compressed.values)
        error = np.max(np.abs(stored - memory_dataset.values))
        assert 1e-4 < error < 0.1  # lossy, but bounded by the int8 step
        reference = Dataset(values=np.array(stored), name="int8-dequantized")
        mem = create_method("flat", SeriesStore(reference))
        comp = create_method("flat", SeriesStore(compressed))
        mem.build()
        comp.build()
        for q in queries:
            a = mem.knn_exact(KnnQuery(series=q, k=5))
            b = comp.knn_exact(KnnQuery(series=q, k=5))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()

    def test_resolve_backend_compressed(self, compressed_dataset, memory_dataset):
        assert resolve_backend(compressed_dataset).kind == "compressed"
        assert resolve_backend(compressed_dataset, "compressed").kind == "compressed"
        assert resolve_backend(compressed_dataset, "memory").kind == "memory"
        with pytest.raises(ValueError, match="to_compressed"):
            resolve_backend(memory_dataset, "compressed")

    def test_engine_serves_compressed(self, compressed_dataset, dequantized_dataset):
        engine = SimilaritySearchEngine(compressed_dataset)
        assert engine.store.backend.kind == "compressed"
        engine.build("flat")
        reference = SimilaritySearchEngine(dequantized_dataset)
        reference.build("flat")
        q = dequantized_dataset.values[7]
        a, b = engine.search(q, k=3), reference.search(q, k=3)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()


class TestCompressedPersistence:
    """Index round-trips over .rcz-backed stores (dataset-less reload)."""

    def test_roundtrip_reattaches_compressed_store(
        self, tmp_path, compressed_dataset, queries
    ):
        method = create_method(
            "isax2+", SeriesStore(compressed_dataset), leaf_capacity=25
        )
        method.build()
        path = tmp_path / "isax-rcz.idx"
        envelope = save_method(method, path)
        assert envelope.storage["kind"] == "compressed"
        assert envelope.storage["source_path"].endswith(".rcz")

        loaded = load_method(path)  # no dataset: the .rcz path reopens
        assert loaded.store.backend.kind == "compressed"
        assert loaded.store.supports_quantized_scan
        q = KnnQuery(series=queries[0], k=3)
        a, b = method.knn_exact(q), loaded.knn_exact(q)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()

    def test_sliced_compressed_roundtrip_reopens_the_row_range(
        self, tmp_path, compressed_dataset, queries
    ):
        sub = SeriesStore(compressed_dataset).slice(0, 120)
        method = create_method("flat", sub)
        method.build()
        path = tmp_path / "sliced-rcz.idx"
        envelope = save_method(method, path)
        assert (envelope.storage["start"], envelope.storage["stop"]) == (0, 120)
        loaded = load_method(path)
        assert loaded.store.count == 120
        assert loaded.store.backend.kind == "compressed"
        q = KnnQuery(series=queries[0], k=3)
        a, b = method.knn_exact(q), loaded.knn_exact(q)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()

    def test_fingerprint_identical_compressed_vs_dequantized(
        self, compressed_dataset, dequantized_dataset
    ):
        assert dataset_fingerprint(compressed_dataset) == dataset_fingerprint(
            dequantized_dataset
        )


class TestPersistenceWithBackends:
    def test_roundtrip_reattaches_mmap_store(self, tmp_path, mmap_dataset, queries):
        method = create_method("isax2+", SeriesStore(mmap_dataset), leaf_capacity=25)
        method.build()
        path = tmp_path / "isax.idx"
        envelope = save_method(method, path)
        assert envelope.storage["kind"] == "mmap"
        assert envelope.storage["source_path"] == mmap_dataset.metadata["source_path"]
        # The raw collection never lands in the index file.
        assert mmap_dataset.values[60:90].tobytes() not in envelope.method_state

        # Reload with *no dataset at all*: the recorded source path reopens.
        loaded = load_method(path)
        assert loaded.store.backend.kind == "mmap"
        q = KnnQuery(series=queries[0], k=3)
        assert loaded.knn_exact(q).positions() == method.knn_exact(q).positions()

    def test_roundtrip_with_explicit_dataset_still_works(
        self, tmp_path, mmap_dataset, memory_dataset, queries
    ):
        method = create_method("va+file", SeriesStore(mmap_dataset), coefficients=8)
        method.build()
        path = tmp_path / "va.idx"
        save_method(method, path)
        # Same bytes, different backend: the fingerprint matches either way.
        loaded = load_method(path, memory_dataset)
        assert loaded.store.backend.kind == "memory"
        q = KnnQuery(series=queries[0], k=3)
        assert loaded.knn_exact(q).positions() == method.knn_exact(q).positions()

    def test_sharded_roundtrip_reattaches_mmap_shards(
        self, tmp_path, mmap_dataset, queries
    ):
        method = create_method(
            "sharded:flat", SeriesStore(mmap_dataset), shards=3, workers=1
        )
        method.build()
        path = tmp_path / "sharded.idx"
        envelope = save_method(method, path)
        # Neither the full collection nor any shard's rows land in the file.
        assert mmap_dataset.values[10:40].tobytes() not in envelope.method_state

        loaded = load_method(path)
        assert loaded.store.backend.kind == "mmap"
        assert all(s.store.backend.kind == "mmap" for s in loaded._shards)
        q = KnnQuery(series=queries[0], k=5)
        a, b = method.knn_exact(q), loaded.knn_exact(q)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()

    def test_sliced_store_roundtrip_reopens_the_row_range(
        self, tmp_path, mmap_dataset, queries
    ):
        """An index built over a row range of the file reloads over that range."""
        sub = SeriesStore(mmap_dataset).slice(0, 120)
        method = create_method("flat", sub)
        method.build()
        path = tmp_path / "sliced.idx"
        envelope = save_method(method, path)
        assert (envelope.storage["start"], envelope.storage["stop"]) == (0, 120)
        loaded = load_method(path)
        assert loaded.store.count == 120
        q = KnnQuery(series=queries[0], k=3)
        a, b = method.knn_exact(q), loaded.knn_exact(q)
        assert a.positions() == b.positions()
        assert a.distances() == b.distances()

    def test_memory_saved_index_requires_dataset(self, tmp_path, memory_dataset):
        method = create_method("flat", SeriesStore(memory_dataset))
        method.build()
        path = tmp_path / "flat.idx"
        save_method(method, path)
        with pytest.raises(ValueError, match="source path"):
            load_method(path)

    def test_load_rejects_zero_page_bytes(self, tmp_path, memory_dataset):
        method = create_method("flat", SeriesStore(memory_dataset))
        method.build()
        path = tmp_path / "flat.idx"
        save_method(method, path)
        with pytest.raises(ValueError, match="page_bytes"):
            load_method(path, memory_dataset, page_bytes=0)
        with pytest.raises(ValueError, match="page_bytes"):
            load_method(path, memory_dataset, page_bytes=-1)

    def test_load_honors_explicit_and_recorded_page_bytes(
        self, tmp_path, memory_dataset
    ):
        method = create_method("flat", SeriesStore(memory_dataset, page_bytes=2048))
        method.build()
        path = tmp_path / "flat.idx"
        save_method(method, path)
        assert load_method(path, memory_dataset).store.page_bytes == 2048
        assert (
            load_method(path, memory_dataset, page_bytes=1024).store.page_bytes == 1024
        )

    def test_fingerprint_handles_tiny_counts(self):
        one = Dataset(values=np.ones((1, 8), dtype=np.float32), name="one")
        two = Dataset(values=np.ones((2, 8), dtype=np.float32), name="two")
        assert dataset_fingerprint(one) != dataset_fingerprint(two)
        assert dataset_fingerprint(one) == dataset_fingerprint(
            Dataset(values=np.ones((1, 8), dtype=np.float32), name="other-name")
        )

    def test_fingerprint_identical_across_backends(self, memory_dataset, mmap_dataset):
        assert dataset_fingerprint(memory_dataset) == dataset_fingerprint(mmap_dataset)


class TestMeasuredIO:
    def test_measure_io_accumulates_without_changing_counts(self, mmap_dataset):
        plain = SeriesStore(mmap_dataset)
        measured = SeriesStore(mmap_dataset, measure_io=True)
        for store in (plain, measured):
            store.scan()
            store.read_block([1, 5, 9])
            store.read_contiguous(10, 40)
            store.read_contiguous(3, 4)
        assert measured.counter.measured_io_seconds > 0.0
        assert plain.counter.measured_io_seconds == 0.0
        for field in ("sequential_pages", "random_accesses", "series_read", "bytes_read"):
            assert getattr(plain.counter, field) == getattr(measured.counter, field)

    def test_measured_io_reaches_query_stats(self, mmap_dataset):
        store = SeriesStore(mmap_dataset, measure_io=True)
        method = create_method("flat", store)
        method.build()
        result = method.knn_exact(
            KnnQuery(series=np.asarray(mmap_dataset.values[0], dtype=np.float64), k=2)
        )
        assert result.stats.measured_io_seconds > 0.0

    def test_measure_platform_returns_usable_model(self, mmap_dataset):
        store = SeriesStore(mmap_dataset)
        model = measure_platform(store, random_probes=8)
        assert model.sequential_mb_per_s > 0.0
        assert model.random_access_ms > 0.0
        assert model.page_bytes == store.page_bytes
        assert model.io_seconds(10, 10) > 0.0
        # Probing happened on a fork: this store's counters are untouched.
        assert store.counter.random_accesses == 0
