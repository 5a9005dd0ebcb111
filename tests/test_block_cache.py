"""The compressed backend's decoded-block cache: what a read decodes.

Every multi-block read on a ``.rcz`` file goes through one fetch helper that
serves the cached blocks first and, on a miss, evicts the most recently used
block the read does not need (MRU for looping references), falling back to
the least recently used one.  These tests count zlib decodes by wrapping
:func:`repro.core.quantize.decode_payload` and pin the rules that keep a
repeated pass over more blocks than the cache holds from thrashing it —
while every read still serves exactly the bytes a fresh backend would.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, SeriesStore, create_method
from repro.core import quantize
from repro.core.backends import CompressedBackend
from repro.core.faults import TransientIOError
from repro.core.integrity import CorruptionError
from repro.core.queries import KnnQuery
from repro.core.quantize import read_rcz_info, write_rcz_file
from repro.workloads import random_walk_dataset

BLOCK_ROWS, LENGTH, SLOTS = 16, 16, 16


def _write(path, blocks: int, seed: int = 3):
    values = random_walk_dataset(blocks * BLOCK_ROWS, LENGTH, seed=seed).values
    write_rcz_file(path, [values], length=LENGTH, qdtype="int8", block_rows=BLOCK_ROWS)
    return path


@pytest.fixture(scope="module")
def one_over(tmp_path_factory):
    """``SLOTS + 1`` blocks: one more than the cache holds."""
    return _write(tmp_path_factory.mktemp("cache") / "one_over.rcz", SLOTS + 1)


@pytest.fixture(scope="module")
def twenty(tmp_path_factory):
    """20 blocks, 1.25x the cache."""
    return _write(tmp_path_factory.mktemp("cache") / "twenty.rcz", 20, seed=5)


@pytest.fixture
def decodes(monkeypatch):
    """A list that grows by one entry per block decode."""
    calls = []
    real = quantize.decode_payload

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantize, "decode_payload", counting)
    return calls


def _stored(path) -> np.ndarray:
    return np.array(CompressedBackend(path).read_rows(0, read_rcz_info(path).count))


class TestDecodeCounts:
    def test_warm_leaf_reads_decode_at_most_one_block(self, one_over, decodes):
        backend = CompressedBackend(one_over, cache_blocks=SLOTS)
        count = backend.count
        # leaf-style position sets: sorted, and every one touches every block
        leaves = [np.arange(offset, count, BLOCK_ROWS // 2) for offset in range(8)]
        backend.take(leaves[0])
        assert len(decodes) == SLOTS + 1
        for leaf in leaves[1:] * 2:
            before = len(decodes)
            backend.take(leaf)
            assert len(decodes) - before <= 1

    def test_second_pruned_flat_scan_stays_warm(self, twenty, decodes):
        store = SeriesStore(Dataset.from_file(twenty, name="twenty"))
        method = create_method("flat", store, tile_series=BLOCK_ROWS)
        method.build()
        query = KnnQuery(series=np.asarray(store.peek(37, 38))[0] + 0.25, k=1)
        method.knn_exact(query)
        before = len(decodes)
        method.knn_exact(query)
        assert len(decodes) - before <= 8

    @pytest.mark.parametrize("cache_blocks", [2, SLOTS])
    def test_one_read_decodes_each_block_once(self, twenty, decodes, cache_blocks):
        stored = _stored(twenty)
        decodes.clear()
        backend = CompressedBackend(twenty, cache_blocks=cache_blocks)
        count = backend.count
        positions = np.arange(1, count, 5)
        np.testing.assert_array_equal(backend.take(positions), stored[positions])
        assert len(decodes) == 20
        backend._cache.clear()
        np.testing.assert_array_equal(backend.read_rows(3, count - 3), stored[3 : count - 3])
        assert len(decodes) == 40
        backend._cache.clear()
        assert len(backend.quantized_parts(0, count)) == 20
        assert len(decodes) == 60

    def test_residency_never_exceeds_cache_blocks(self, twenty):
        backend = CompressedBackend(twenty, cache_blocks=5)
        count = backend.count
        rng = np.random.default_rng(0)
        for _ in range(30):
            start = int(rng.integers(0, count))
            stop = int(rng.integers(start, count + 1))
            backend.read_rows(start, stop)
            assert len(backend._cache) <= 5
            backend.take(np.sort(rng.choice(count, size=40, replace=False)))
            assert len(backend._cache) <= 5
            backend.quantized_parts(start, stop)
            assert len(backend._cache) <= 5


class TestIdenticalBytes:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["take", "read_rows", "quantized_parts"]),
                st.integers(0, 20 * BLOCK_ROWS),
                st.integers(0, 20 * BLOCK_ROWS),
                st.lists(st.integers(0, 20 * BLOCK_ROWS - 1), max_size=60),
            ),
            min_size=1,
            max_size=8,
        ),
        cache_blocks=st.integers(2, 6),
    )
    def test_reads_match_a_fresh_backend(self, twenty, ops, cache_blocks):
        backend = CompressedBackend(twenty, cache_blocks=cache_blocks)
        for op, a, b, positions in ops:
            start, stop = min(a, b), max(a, b)
            fresh = CompressedBackend(twenty)
            if op == "take":
                idx = np.array(positions, dtype=np.int64)
                np.testing.assert_array_equal(backend.take(idx), fresh.take(idx))
            elif op == "read_rows":
                np.testing.assert_array_equal(
                    backend.read_rows(start, stop), fresh.read_rows(start, stop)
                )
            else:
                got = backend.quantized_parts(start, stop)
                want = fresh.quantized_parts(start, stop)
                assert len(got) == len(want)
                for (codes, scale, shift), (w_codes, w_scale, w_shift) in zip(got, want):
                    np.testing.assert_array_equal(codes, w_codes)
                    assert (scale, shift) == (w_scale, w_shift)
            assert len(backend._cache) <= cache_blocks


class TestFaults:
    def test_corrupt_block_raises_on_first_decode_and_is_never_cached(self, tmp_path):
        path = _write(tmp_path / "bad.rcz", 20, seed=5)
        info = read_rcz_info(path)
        with open(path, "r+b") as handle:
            handle.seek(int(info.table["offset"][7]) + 3)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        backend = CompressedBackend(path)
        backend.read_rows(0, 7 * BLOCK_ROWS)  # blocks 0-6 cached, all clean
        with pytest.raises(CorruptionError) as excinfo:
            backend.take(np.arange(0, 10 * BLOCK_ROWS, 3))
        assert excinfo.value.block == 7
        assert 7 not in backend._cache
        with pytest.raises(CorruptionError):
            backend.read_rows(7 * BLOCK_ROWS, 7 * BLOCK_ROWS + 1)
        assert 7 not in backend._cache
        clean = CompressedBackend(_write(tmp_path / "ok.rcz", 20, seed=5))
        np.testing.assert_array_equal(
            backend.read_rows(8 * BLOCK_ROWS, 20 * BLOCK_ROWS),
            clean.read_rows(8 * BLOCK_ROWS, 20 * BLOCK_ROWS),
        )

    def test_transient_fault_mid_read_retries_into_identical_bytes(
        self, twenty, monkeypatch
    ):
        stored = _stored(twenty)
        store = SeriesStore(Dataset.from_file(twenty, name="transient"))
        store.peek(0, 6 * BLOCK_ROWS)  # warm: the next read starts with hits
        real = quantize.decode_payload
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # after one miss was decoded and cached
                raise TransientIOError("injected mid-read decode failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(quantize, "decode_payload", flaky)
        retries = store.counter.retries
        positions = np.arange(2, 12 * BLOCK_ROWS, 7)
        np.testing.assert_array_equal(store.read_block(positions), stored[positions])
        assert store.counter.retries > retries
        np.testing.assert_array_equal(store.peek(0, 20 * BLOCK_ROWS), stored)

