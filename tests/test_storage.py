"""Tests for the simulated storage layer and its accounting."""

import numpy as np
import pytest

from repro import Dataset, SeriesStore


@pytest.fixture()
def dataset():
    values = np.arange(64 * 32, dtype=np.float32).reshape(64, 32)
    return Dataset(values=values, name="storage-test")


class TestGeometry:
    def test_series_bytes_and_pages(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        assert store.series_bytes == 32 * 4
        assert store.series_per_page == 1024 // 128
        assert store.total_pages == 64 // 8

    def test_pages_for_series(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        assert store.pages_for_series(0) == 0
        assert store.pages_for_series(1) == 1
        assert store.pages_for_series(8) == 1
        assert store.pages_for_series(9) == 2

    def test_rejects_bad_page_size(self, dataset):
        with pytest.raises(ValueError):
            SeriesStore(dataset, page_bytes=0)


class TestAccounting:
    def test_scan_counts_full_file(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        data = store.scan()
        assert data.shape == (64, 32)
        assert store.counter.random_accesses == 1
        assert store.counter.sequential_pages == store.total_pages
        assert store.counter.series_read == 64

    def test_read_block_counts_one_seek(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        block = store.read_block([3, 5, 7])
        assert block.shape == (3, 32)
        assert store.counter.random_accesses == 1
        assert store.counter.sequential_pages == 1

    def test_read_block_empty(self, dataset):
        store = SeriesStore(dataset)
        block = store.read_block([])
        assert block.shape == (0, 32)
        assert store.counter.random_accesses == 0

    def test_read_contiguous(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        block = store.read_contiguous(10, 30)
        assert block.shape == (20, 32)
        assert store.counter.random_accesses == 1
        assert store.counter.sequential_pages == store.pages_for_series(20)
        assert store.read_contiguous(5, 5).shape == (0, 32)

    def test_read_one(self, dataset):
        store = SeriesStore(dataset)
        series = store.read_contiguous(7, 8)[0]
        assert np.array_equal(series, dataset.values[7])
        assert store.counter.random_accesses == 1
        assert store.counter.series_read == 1

    def test_peek_does_not_count(self, dataset):
        store = SeriesStore(dataset)
        store.peek(1, 4)
        assert store.counter.random_accesses == 0
        assert store.counter.sequential_pages == 0

    def test_snapshot_and_diff(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        store.scan()
        before = store.counter_snapshot()
        store.read_block([1, 2])
        delta = store.since(before)
        assert delta.random_accesses == 1
        assert delta.series_read == 2

    def test_reset(self, dataset):
        store = SeriesStore(dataset)
        store.scan()
        store.reset_counters()
        assert store.counter.random_accesses == 0
        assert store.counter.bytes_read == 0


class TestReadOnlyViews:
    """Reads return views into the dataset; callers must never mutate them."""

    def test_scan_returns_read_only_array(self, dataset):
        store = SeriesStore(dataset)
        data = store.scan()
        with pytest.raises(ValueError):
            data[0, 0] = 99.0

    def test_read_contiguous_view_is_read_only(self, dataset):
        store = SeriesStore(dataset)
        block = store.read_contiguous(3, 8)
        assert block.base is not None  # a view, not a copy
        with pytest.raises(ValueError):
            block[0, 0] = 99.0

    def test_read_one_view_is_read_only(self, dataset):
        store = SeriesStore(dataset)
        series = store.read_contiguous(5, 6)[0]
        with pytest.raises(ValueError):
            series[0] = 99.0

    def test_slice_peek_is_read_only(self, dataset):
        store = SeriesStore(dataset)
        block = store.peek(0, 4)
        with pytest.raises(ValueError):
            block[0, 0] = 99.0

    def test_dataset_array_is_frozen_by_the_store(self, dataset):
        SeriesStore(dataset)
        assert not dataset.values.flags.writeable

    def test_scan_chunks_accounts_exactly_like_scan(self, dataset):
        whole = SeriesStore(dataset, page_bytes=1024)
        chunked = SeriesStore(dataset, page_bytes=1024)
        whole.scan()
        blocks = [block for _, block in chunked.scan_chunks(chunk_rows=7)]
        assert whole.counter == chunked.counter
        np.testing.assert_array_equal(np.vstack(blocks), dataset.values)

    def test_scan_chunks_yields_positioned_blocks(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        starts = [start for start, _ in store.scan_chunks(chunk_rows=10)]
        assert starts == list(range(0, 64, 10))

    def test_slice_store_is_zero_copy_with_private_counters(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        sub = store.slice(8, 24)
        assert sub.count == 16
        assert sub.page_bytes == store.page_bytes
        assert np.shares_memory(sub.dataset.values, dataset.values)
        sub.scan()
        assert store.counter.random_accesses == 0  # parent untouched
        np.testing.assert_array_equal(sub.dataset.values, dataset.values[8:24])

    def test_values_survive_unchanged_after_queries(self, dataset):
        from repro.core.queries import KnnQuery
        from repro import create_method

        original = dataset.values.copy()
        store = SeriesStore(dataset)
        method = create_method("isax2+", store, leaf_capacity=8)
        method.build()
        method.knn_exact(KnnQuery(series=np.asarray(dataset.values[0], dtype=np.float64), k=3))
        np.testing.assert_array_equal(dataset.values, original)


class TestBuilderStreams:
    """scan_blocks / peek_chunks: the chunked reads behind streamed builds."""

    def test_scan_blocks_yields_float64_slices_with_scan_accounting(self, dataset):
        whole = SeriesStore(dataset, page_bytes=1024)
        chunked = SeriesStore(dataset, page_bytes=1024)
        whole.scan()
        pieces = list(chunked.scan_blocks(chunk_rows=7))
        assert whole.counter == chunked.counter
        for rows, block in pieces:
            assert isinstance(rows, slice)
            assert block.dtype == np.float64
        assembled = np.vstack([block for _, block in pieces])
        np.testing.assert_array_equal(assembled, dataset.values.astype(np.float64))
        covered = [r for rows, _ in pieces for r in range(rows.start, rows.stop)]
        assert covered == list(range(dataset.count))

    def test_peek_chunks_moves_no_counters(self, dataset):
        store = SeriesStore(dataset, page_bytes=1024)
        positions = np.array([1, 5, 6, 30, 31, 40], dtype=np.int64)
        blocks = list(store.peek_chunks(positions, chunk_rows=2))
        assert store.counter.random_accesses == 0
        assert store.counter.sequential_pages == 0
        assert store.counter.bytes_read == 0
        assembled = np.vstack([block for _, block in blocks])
        np.testing.assert_array_equal(
            assembled, dataset.values[positions].astype(np.float64)
        )

    def test_peek_chunks_slices_index_the_position_vector(self, dataset):
        store = SeriesStore(dataset)
        positions = np.array([3, 9, 27], dtype=np.int64)
        for rows, block in store.peek_chunks(positions, chunk_rows=2):
            np.testing.assert_array_equal(
                block, dataset.values[positions[rows]].astype(np.float64)
            )

    def test_peek_chunks_caps_chunks_by_row_span(self, dataset):
        # Scattered positions: the span cap must cut chunks so no single read
        # covers more than chunk_rows of store rows (bounded page residency).
        store = SeriesStore(dataset)
        positions = np.array([0, 1, 2, 60, 61], dtype=np.int64)
        chunks = list(store.peek_chunks(positions, chunk_rows=4))
        assert len(chunks) == 2  # the gap forces a cut despite count <= chunk_rows
        spans = [int(positions[r.stop - 1]) - int(positions[r.start]) for r, _ in chunks]
        assert all(span < 4 for span in spans)

    def test_peek_chunks_empty_positions(self, dataset):
        store = SeriesStore(dataset)
        assert list(store.peek_chunks(np.array([], dtype=np.int64))) == []

    def test_peek_chunks_duplicate_positions(self, dataset):
        """The same position may appear twice (degenerate split nodes): each
        occurrence must come back as its own row, once, in order — the span
        cap must neither drop nor double the duplicated rows."""
        store = SeriesStore(dataset)
        positions = np.array([5, 5, 6, 30, 30, 30], dtype=np.int64)
        chunks = list(store.peek_chunks(positions, chunk_rows=2))
        assembled = np.vstack([block for _, block in chunks])
        assert assembled.shape[0] == positions.size
        np.testing.assert_array_equal(
            assembled, dataset.values[positions].astype(np.float64)
        )
        # the yielded slices tile [0, len(positions)) exactly: no overlap, no gap
        covered = [i for rows, _ in chunks for i in range(rows.start, rows.stop)]
        assert covered == list(range(positions.size))
        assert store.counter.bytes_read == 0  # peek stays unaccounted

    def test_peek_chunks_positions_straddling_chunk_boundary(self, tmp_path, dataset):
        """Adjacent sorted positions that fall on either side of a chunk cut
        must each be read exactly once, and the release lookback must not make
        the straddled rows unreadable afterwards (mmap drops pages)."""
        path = tmp_path / "walks.npy"
        dataset.to_file(path)
        store = SeriesStore(Dataset.from_file(path), backend="mmap")
        # chunk_rows=3 puts the cut between 30 and 31 (adjacent rows)
        positions = np.array([28, 29, 30, 31, 32, 33], dtype=np.int64)
        chunks = list(store.peek_chunks(positions, chunk_rows=3))
        assert len(chunks) == 2
        assembled = np.vstack([block for _, block in chunks])
        np.testing.assert_array_equal(
            assembled, dataset.values[positions].astype(np.float64)
        )
        covered = [i for rows, _ in chunks for i in range(rows.start, rows.stop)]
        assert covered == list(range(positions.size))
        # the released rows are still servable on the next pass
        again = np.vstack([b for _, b in store.peek_chunks(positions, chunk_rows=3)])
        np.testing.assert_array_equal(again, assembled)

    def test_scan_blocks_matches_scan_chunks_on_mmap(self, tmp_path, dataset):
        path = tmp_path / "walks.npy"
        dataset.to_file(path)
        mm = SeriesStore(Dataset.from_file(path), backend="mmap")
        assembled = np.vstack([b for _, b in mm.scan_blocks(chunk_rows=9)])
        np.testing.assert_array_equal(assembled, dataset.values.astype(np.float64))
