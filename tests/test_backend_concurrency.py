"""Concurrent fork()/release()/slice() on all four storage backends.

The backend contract promises that forks are independent readers, slices are
independent views, and release() is advisory — so hammering all three from a
thread pool while readers stream data must produce byte-identical results and
no errors.  This is the satellite coverage for the robustness PR: the sharded
executor's recovery path forks stores from worker threads while other workers
are mid-scan.  On a freshly opened growable store the readers also race on
the first-read verification of its sealed segment.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Dataset, SeriesStore
from repro.core.integrity import invalidate_manifest_cache

WORKERS = 8
ROUNDS = 12


@pytest.fixture(autouse=True)
def _fresh_manifest_cache():
    invalidate_manifest_cache()
    yield


def _dataset(tmp_path, kind):
    rng = np.random.default_rng(41)
    values = rng.standard_normal((512, 24)).astype(np.float32)
    base = Dataset(values=values, name=f"conc-{kind}")
    if kind == "memory":
        return base, values
    if kind == "mmap":
        return base.to_mmap(tmp_path / "conc.npy"), values
    if kind == "growable":
        base.to_growable(tmp_path / "conc.store").backend.close()
        return Dataset.from_file(tmp_path / "conc.store"), values
    dataset = base.to_compressed(tmp_path / "conc.rcz")
    # The compressed backend serves dequantized values; the reference is what
    # one clean sequential read returns.
    reference = SeriesStore(dataset).read_contiguous(0, 512)
    return dataset, reference


@pytest.mark.parametrize("kind", ["memory", "mmap", "compressed", "growable"])
def test_concurrent_fork_release_slice(tmp_path, kind):
    dataset, reference = _dataset(tmp_path, kind)
    store = SeriesStore(dataset)

    def worker(i):
        out = []
        for round_no in range(ROUNDS):
            op = (i + round_no) % 3
            if op == 0:
                reader = store.fork()
                data = reader.read_contiguous(0, 512)
                out.append(("fork", data))
                reader.backend.release()
            elif op == 1:
                lo = (i * 37 + round_no * 11) % 400
                hi = lo + 64
                view = store.slice(lo, hi)
                data = view.read_contiguous(0, hi - lo)
                out.append(("slice", lo, data))
                view.backend.release()
            else:
                store.backend.release()
                reader = store.fork()
                row = (i * 13 + round_no) % 512
                out.append(("row", reader.read_contiguous(row, row + 1)[0]))
        return out

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(worker, range(WORKERS)))

    for per_worker in results:
        for item in per_worker:
            if item[0] == "fork":
                np.testing.assert_array_equal(item[1], reference)
            elif item[0] == "slice":
                _, lo, data = item
                np.testing.assert_array_equal(data, reference[lo : lo + 64])


@pytest.mark.parametrize("kind", ["memory", "mmap", "compressed", "growable"])
def test_concurrent_forks_have_private_counters(tmp_path, kind):
    dataset, _ = _dataset(tmp_path, kind)
    store = SeriesStore(dataset)

    def worker(_):
        reader = store.fork()
        for _start, _chunk in reader.scan_chunks():
            pass
        return reader.counter

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        counters = list(pool.map(worker, range(WORKERS)))

    reads = {c.series_read for c in counters}
    assert reads == {512}
    # The parent counter was never touched by the workers.
    assert store.counter.series_read == 0
