"""Hardware cost models: turn access counts into simulated I/O time.

The paper runs every experiment on two servers — one with a RAID0 array of 10K
RPM SAS hard drives (high sequential throughput, expensive seeks) and one with
SATA SSDs (lower sequential throughput in their setup, but cheap random
accesses).  The relative performance of the methods flips between the two
machines (e.g. ADS+ and VA+file win on SSD, lose to scans on the HDD box), so
this module models both devices plus an in-memory baseline.  The constants are
calibrated to the figures reported in §4.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.stats import QueryStats
from ..core.storage import SeriesStore

__all__ = [
    "HardwareModel",
    "HDD",
    "SSD",
    "IN_MEMORY",
    "PLATFORMS",
    "measure_platform",
]


@dataclass(frozen=True)
class HardwareModel:
    """A simple storage device model.

    Attributes
    ----------
    name:
        Platform label used in reports.
    sequential_mb_per_s:
        Sustained sequential read throughput in MB/s.
    random_access_ms:
        Average cost of one random access (seek + rotational latency for HDDs,
        request latency for SSDs) in milliseconds.
    page_bytes:
        Page size assumed when converting sequential page counts to bytes.
    """

    name: str
    sequential_mb_per_s: float
    random_access_ms: float
    page_bytes: int = 65536

    def io_seconds(self, sequential_pages: int, random_accesses: int) -> float:
        """Simulated I/O time for the given access counts."""
        sequential_bytes = sequential_pages * self.page_bytes
        seq_seconds = sequential_bytes / (self.sequential_mb_per_s * 1024 * 1024)
        rand_seconds = random_accesses * (self.random_access_ms / 1000.0)
        return seq_seconds + rand_seconds

    def io_seconds_for(self, stats: QueryStats) -> float:
        """Simulated I/O time for a query's accounted accesses."""
        return self.io_seconds(stats.sequential_pages, stats.random_accesses)

    def price(self, stats: QueryStats) -> QueryStats:
        """Return ``stats`` with :attr:`QueryStats.io_seconds` filled in."""
        stats.io_seconds = self.io_seconds_for(stats)
        return stats


#: the paper's HDD server: 6x10K RPM SAS in RAID0, 1290 MB/s sequential.
HDD = HardwareModel(name="hdd", sequential_mb_per_s=1290.0, random_access_ms=6.0)

#: the paper's SSD server: 2xSATA2 SSD in RAID0, 330 MB/s sequential, fast seeks.
SSD = HardwareModel(name="ssd", sequential_mb_per_s=330.0, random_access_ms=0.15)

#: an in-memory platform (no I/O cost) for the smallest datasets.
IN_MEMORY = HardwareModel(name="memory", sequential_mb_per_s=10_000.0, random_access_ms=0.001)

PLATFORMS = {"hdd": HDD, "ssd": SSD, "memory": IN_MEMORY}


def measure_platform(
    store,
    name: str = "measured",
    max_sequential_rows: int = 1 << 16,
    random_probes: int = 64,
    seed: int = 0,
) -> HardwareModel:
    """Calibrate a :class:`HardwareModel` from *measured* wall-clock I/O.

    Instead of the paper's published device constants, this probes the actual
    storage serving ``store``: a streamed sequential pass (capped at
    ``max_sequential_rows`` rows) yields the sustained sequential throughput,
    and ``random_probes`` scattered single-series reads yield the average
    random-access latency.  Probing happens through a fork of the store with
    measurement enabled, so the store's own counters are untouched; on the
    mmap backend, each probed region's pages are dropped first so the numbers
    reflect page-fault-driven reads rather than a warm private cache (the OS
    page cache still applies — this calibrates the deployed configuration,
    not cold hardware).

    The returned model plugs into everything that accepts a platform
    (:func:`repro.evaluation.runner.run_experiment`, the CLI's cost
    reporting), putting *measured* time behind the same page-granular counts.
    """
    reader = SeriesStore(
        store.dataset,
        page_bytes=store.page_bytes,
        backend=store.backend.fork(),
        measure_io=True,
    )
    rows = min(reader.count, max(1, int(max_sequential_rows)))

    reader.backend.release(0, rows)
    before = reader.counter.measured_io_seconds
    scanned = 0
    for start, block in reader.scan_chunks():
        scanned += block.shape[0]
        if scanned >= rows:
            break
    seq_seconds = max(reader.counter.measured_io_seconds - before, 1e-9)
    seq_mb_per_s = (scanned * reader.series_bytes) / (1024 * 1024) / seq_seconds

    rng = np.random.default_rng(seed)
    probes = rng.integers(0, reader.count, size=max(1, int(random_probes)))
    before = reader.counter.measured_io_seconds
    for position in probes:
        reader.backend.release(int(position), int(position) + 1)
        reader.read_contiguous(int(position), int(position) + 1)
    rand_seconds = max(reader.counter.measured_io_seconds - before, 1e-12)
    rand_ms = rand_seconds / len(probes) * 1000.0

    return HardwareModel(
        name=name,
        sequential_mb_per_s=max(seq_mb_per_s, 1e-6),
        random_access_ms=max(rand_ms, 1e-9),
        page_bytes=store.page_bytes,
    )
