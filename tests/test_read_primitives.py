"""One primitive set under every backend, and no read that goes around it.

Every backend serves ``read_rows`` and ``take``; ``values``, slices and the
store's unaccounted ``peek`` are derived from them.  The property below checks
that all of these agree bytewise with an independently built reference on all
four backend kinds, across empty, one-row and boundary-crossing ranges (rcz
blocks, sealed segments, WAL-tail chunks) and unsorted, duplicated or empty
position arrays.  The regression tests at the end pin ``peek`` to the same
retry, short-read and checksum path as the accounted reads.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, SeriesStore
from repro.core.backends import MemoryBackend, MmapBackend
from repro.core.faults import FaultPlan
from repro.core.growable import GrowableBackend
from repro.core.integrity import CorruptionError, invalidate_manifest_cache
from repro.core.quantize import dequantize_block, quantize_block
from repro.core.series import SeriesFileWriter

COUNT, LENGTH = 300, 16
RCZ_BLOCK_ROWS = 32
#: growable layout: two sealed segments, then three WAL-tail chunks.
SEGMENT_ROWS = (70, 90)
TAIL_ROWS = (50, 40, 50)
KINDS = ("memory", "mmap", "compressed", "growable")


def _edges() -> list[int]:
    cuts = np.cumsum((0,) + SEGMENT_ROWS + TAIL_ROWS).tolist()
    cuts += list(range(0, COUNT + 1, RCZ_BLOCK_ROWS))
    near = {c + d for c in cuts for d in (-1, 0, 1)}
    return sorted(e for e in near if 0 <= e <= COUNT)


EDGES = _edges()
ROWS = st.one_of(st.sampled_from(EDGES), st.integers(0, COUNT))
POSITIONS = st.lists(
    st.one_of(st.sampled_from(EDGES[:-1]), st.integers(0, COUNT - 1)), max_size=40
)
SETTINGS = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(29)
    return np.cumsum(rng.standard_normal((COUNT, LENGTH)), axis=1).astype(np.float32)


@pytest.fixture(scope="module")
def kinds(data, tmp_path_factory):
    """``kind -> (backend, reference)`` over the same rows."""
    root = tmp_path_factory.mktemp("primitives")
    npy = root / "rows.npy"
    with SeriesFileWriter(npy, length=LENGTH) as writer:
        writer.append(data)

    rcz = Dataset(values=data, name="rows").to_compressed(
        root / "rows.rcz", block_rows=RCZ_BLOCK_ROWS
    )
    dequantized = np.vstack(
        [
            dequantize_block(*quantize_block(data[lo : lo + RCZ_BLOCK_ROWS], np.int8))
            for lo in range(0, COUNT, RCZ_BLOCK_ROWS)
        ]
    )

    growable = GrowableBackend(root / "store", length=LENGTH, create=True)
    lo = 0
    for rows in SEGMENT_ROWS:
        growable.extend(data[lo : lo + rows])
        growable.checkpoint()
        lo += rows
    for rows in TAIL_ROWS:
        growable.extend(data[lo : lo + rows])
        lo += rows

    built = {
        "memory": (MemoryBackend(data.copy()), data),
        "mmap": (MmapBackend(npy), data),
        "compressed": (rcz.backend, dequantized),
        "growable": (growable, data),
    }
    yield built
    growable.close()


def _store(backend) -> SeriesStore:
    return SeriesStore(Dataset(values=None, name=backend.kind, backend=backend), backend=backend)


def _same_bytes(got, want) -> None:
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_growable_fixture_spans_segments_and_tail(kinds):
    backend, _ = kinds["growable"]
    info = backend.describe()
    assert len(info["segments"]) == len(SEGMENT_ROWS)
    assert info["watermark"] - info["sealed_rows"] == sum(TAIL_ROWS) > max(TAIL_ROWS)


@pytest.mark.parametrize("kind", KINDS)
@SETTINGS
@given(a=ROWS, b=ROWS, positions=POSITIONS)
def test_every_read_agrees_with_the_reference(kind, kinds, a, b, positions):
    backend, reference = kinds[kind]
    start, stop = min(a, b), max(a, b)
    idx = np.array(positions, dtype=np.int64)
    fresh = backend.fork()  # no derived values: reads go to the pieces

    _same_bytes(fresh.read_rows(start, stop), reference[start:stop])
    _same_bytes(fresh.take(idx), reference[idx])
    _same_bytes(fresh.slice(start, stop).read_rows(0, stop - start), reference[start:stop])
    _same_bytes(_store(fresh).peek(start, stop), reference[start:stop])
    _same_bytes(fresh.values, reference)
    # once values exist, the compressed backend serves reads from them
    _same_bytes(fresh.read_rows(start, stop), reference[start:stop])
    _same_bytes(fresh.take(idx), reference[idx])


@pytest.mark.parametrize("kind", KINDS)
def test_values_are_read_only_rederived_and_never_pickled(kind, kinds):
    backend, reference = kinds[kind]
    fresh = backend.fork()
    pickled = len(pickle.dumps(fresh))
    first = fresh.values
    assert not first.flags.writeable
    _same_bytes(first, reference)
    assert len(pickle.dumps(fresh)) == pickled
    fresh.release()
    again = fresh.values
    _same_bytes(again, reference)
    if kind in ("compressed", "growable"):
        assert again is not first  # derived, so dropped by release()
    assert len(pickle.dumps(fresh)) == pickled


def test_growable_values_follow_extend(data, tmp_path):
    backend = GrowableBackend(tmp_path / "store", length=LENGTH, create=True)
    backend.extend(data[:100])
    backend.checkpoint()
    backend.extend(data[100:150])
    before = backend.values
    _same_bytes(before, data[:150])
    backend.extend(data[150:220])
    after = backend.values
    _same_bytes(after, data[:220])
    assert not after.flags.writeable
    _same_bytes(before, data[:150])  # a reader's earlier copy is untouched
    backend.close()


# --------------------------------------------------------------------------- #
# peek goes through the store's safeguards
# --------------------------------------------------------------------------- #
def test_peek_detects_a_flipped_byte(data, tmp_path):
    path = tmp_path / "rows.npy"
    with SeriesFileWriter(path, length=LENGTH) as writer:
        writer.append(data)
    offset = int(np.load(path, mmap_mode="r").offset)
    with open(path, "r+b") as handle:
        handle.seek(offset + 100 * LENGTH * 4)  # a byte inside row 100
        byte = handle.read(1)
        handle.seek(-1, 1)
        handle.write(bytes([byte[0] ^ 0x40]))
    invalidate_manifest_cache()
    try:
        store = SeriesStore(Dataset.from_file(path))
        with pytest.raises(CorruptionError):
            store.peek(96, 104)
    finally:
        invalidate_manifest_cache()


def test_peek_reads_what_the_accounted_read_reads_under_corruption(data):
    store = SeriesStore(Dataset(values=data), faults=FaultPlan(seed=1, corrupt=1.0))
    peeked = store.peek(0, 8)
    _same_bytes(peeked, np.asarray(store.read_contiguous(0, 8)))
    assert peeked.tobytes() != data[:8].tobytes()


def test_peek_retries_short_reads_without_accounting(data):
    store = SeriesStore(Dataset(values=data), faults=FaultPlan(seed=1, truncate=1.0))
    _same_bytes(store.peek(0, 8), data[:8])
    assert store.counter.retries > 0
    for field in ("random_accesses", "sequential_pages", "series_read", "bytes_read"):
        assert getattr(store.counter, field) == 0
