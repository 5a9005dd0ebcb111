"""Simulated memory buffer used during index construction.

The methods in the paper use internal buffers to manage raw data that does not
fit in memory during index building (§4.3.1 studies buffer-size sensitivity).
:class:`BufferPool` models that behaviour: callers append series to per-node
buffers; when the configured capacity is exceeded the pool "spills" the largest
buffers, which is accounted as sequential writes followed by later re-reads.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass

from .stats import AccessCounter

__all__ = ["BufferPool", "BufferStats"]


@dataclass
class BufferStats:
    """Spill accounting for one index build."""

    spills: int = 0
    series_spilled: int = 0
    series_buffered: int = 0
    peak_series_in_memory: int = 0


class BufferPool:
    """Tracks buffered series per index node and simulates spilling to disk.

    Thread safety: all mutating operations (:meth:`add`, :meth:`flush`,
    :meth:`flush_all`) and the spill machinery they drive are guarded by an
    ``RLock``, so a pool may be shared by concurrent builders (e.g. appends
    arriving while another thread builds).  Note the attached ``counter`` is
    charged *while holding the lock*, so spill accounting from concurrent
    users of one pool never interleaves mid-update; parallel shard builds
    avoid even that by giving every shard its own pool and counter and
    merging afterwards.

    Parameters
    ----------
    capacity_series:
        Maximum number of series the pool may hold in memory before spilling.
        ``None`` means unbounded (everything fits, no spills).
    series_bytes:
        On-disk size of one series, used to account spilled bytes.
    counter:
        Optional shared :class:`AccessCounter` that receives the simulated I/O
        caused by spills (one random access per spilled buffer plus sequential
        pages proportional to the spilled series).
    page_series:
        Number of series per page for the sequential-page accounting.
    """

    def __init__(
        self,
        capacity_series: int | None = None,
        series_bytes: int = 1024,
        counter: AccessCounter | None = None,
        page_series: int = 64,
    ) -> None:
        if capacity_series is not None and capacity_series <= 0:
            raise ValueError("capacity_series must be positive or None")
        self.capacity_series = capacity_series
        self.series_bytes = series_bytes
        self.counter = counter if counter is not None else AccessCounter()
        self.page_series = max(1, page_series)
        self.stats = BufferStats()
        self._lock = threading.RLock()
        self._buffers: dict[object, int] = {}
        self._in_memory = 0
        # Max-heap of (-count, sequence, key) candidates for the next spill.
        # Entries are pushed on every count change and invalidated lazily: an
        # entry is live only while the buffer still holds exactly that count.
        # This keeps each spill O(log n) where the old linear max() scan made
        # buffer-constrained builds quadratic in the number of nodes.
        self._spill_heap: list[tuple[int, int, object]] = []
        self._heap_sequence = 0

    @classmethod
    def for_store(
        cls, store, capacity_series: int | None, current: "BufferPool | None" = None
    ) -> "BufferPool":
        """An index build buffer charging ``store``'s live counter.

        Returns ``current`` while it still charges that counter; otherwise a
        fresh pool in the store's geometry — after a persistence reload or a
        re-attached store, spill I/O then lands on the live counter.
        """
        if current is not None and current.counter is store.counter:
            return current
        return cls(
            capacity_series=capacity_series,
            series_bytes=store.series_bytes,
            counter=store.counter,
            page_series=store.series_per_page,
        )

    # -- operations -----------------------------------------------------------
    def add(self, node_key: object, count: int = 1) -> None:
        """Buffer ``count`` series for ``node_key``, spilling if over capacity."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            new_count = self._buffers.get(node_key, 0) + count
            self._buffers[node_key] = new_count
            self._push_candidate(node_key, new_count)
            self._in_memory += count
            self.stats.series_buffered += count
            self.stats.peak_series_in_memory = max(
                self.stats.peak_series_in_memory, self._in_memory
            )
            if self.capacity_series is not None:
                while self._in_memory > self.capacity_series and self._buffers:
                    self._spill_largest()

    def flush(self, node_key: object) -> int:
        """Flush one node's buffer (e.g. when its leaf is finalized)."""
        with self._lock:
            count = self._buffers.pop(node_key, 0)
            self._in_memory -= count
            return count

    def flush_all(self) -> int:
        """Flush every buffer (end of the build)."""
        with self._lock:
            total = sum(self._buffers.values())
            self._buffers.clear()
            self._spill_heap.clear()
            self._in_memory = 0
            return total

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)  # locks are not picklable
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- internals --------------------------------------------------------------
    def _push_candidate(self, node_key: object, count: int) -> None:
        self._heap_sequence += 1
        heapq.heappush(self._spill_heap, (-count, self._heap_sequence, node_key))
        # Stale entries (old counts, flushed keys) accumulate; rebuild the heap
        # from the live buffers when they dominate, bounding memory at O(nodes).
        if len(self._spill_heap) > max(64, 4 * len(self._buffers)):
            self._spill_heap = [
                (-c, i, key) for i, (key, c) in enumerate(self._buffers.items())
            ]
            heapq.heapify(self._spill_heap)
            self._heap_sequence = len(self._spill_heap)

    def _spill_largest(self) -> None:
        node_key = None
        count = 0
        while self._spill_heap:
            neg_count, _, key = heapq.heappop(self._spill_heap)
            if self._buffers.get(key) == -neg_count:
                node_key, count = key, -neg_count
                break
        if node_key is None:
            # Every heap entry was stale; fall back to a direct scan.
            node_key = max(self._buffers, key=self._buffers.get)
            count = self._buffers[node_key]
        self._buffers.pop(node_key)
        self._in_memory -= count
        self.stats.spills += 1
        self.stats.series_spilled += count
        # Spilling costs one seek to the node's file plus a sequential write of
        # the buffered series; the spilled series will be re-read later, which
        # is modelled as the same cost again.  The write and read halves of the
        # round trip are charged to their own byte counters.
        pages = (count + self.page_series - 1) // self.page_series
        self.counter.random_accesses += 2
        self.counter.sequential_pages += 2 * pages
        self.counter.bytes_written += count * self.series_bytes
        self.counter.bytes_read += count * self.series_bytes

    # -- inspection ---------------------------------------------------------------
    @property
    def in_memory_series(self) -> int:
        return self._in_memory

    def buffered(self, node_key: object) -> int:
        return self._buffers.get(node_key, 0)
