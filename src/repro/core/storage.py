"""Raw-data storage with page-granular access accounting.

The paper's findings hinge on the *access pattern* each method induces on the
raw data file: full sequential scans (UCR Suite), skip-sequential scans with
many seeks (ADS+, VA+file), or clustered leaf reads (DSTree, iSAX2+, SFA).
The :class:`SeriesStore` counts every access at page granularity,
distinguishing sequential page reads from random accesses (seeks); the
hardware cost models in :mod:`repro.evaluation.hardware` turn those counts
into simulated I/O time.

Where the bytes actually live is delegated to a pluggable
:class:`~repro.core.backends.StorageBackend`: the in-memory backend preserves
the historical all-in-RAM behavior, and the mmap backend serves the same read
API from a memory-mapped dataset file without ever materializing the
collection — same counters, same answers, real out-of-core capacity.  With
``measure_io=True`` the store additionally times every backend read (faulting
the touched pages in), accumulating *measured* wall-clock I/O next to the
simulated accounting so the cost models can be calibrated against the actual
storage device (:func:`repro.evaluation.hardware.measure_platform`).
"""

from __future__ import annotations

import time

import numpy as np

from .backends import StorageBackend, resolve_backend, touch_pages
from .faults import (
    DEFAULT_RETRY_POLICY,
    FaultInjectingBackend,
    FaultPlan,
    RetryPolicy,
    TransientIOError,
)
from .integrity import SequentialVerifier, verify_positions, verify_row_range
from .series import SERIES_DTYPE, Dataset
from .stats import AccessCounter

__all__ = ["SeriesStore", "DEFAULT_PAGE_BYTES"]

#: default page size in bytes (a typical file-system block / RAID stripe unit).
DEFAULT_PAGE_BYTES = 65536

#: default streaming-scan chunk size in bytes (see :meth:`SeriesStore.scan_chunks`).
DEFAULT_SCAN_CHUNK_BYTES = 8 * 1024 * 1024

#: default chunk size for the *builder* streams (:meth:`SeriesStore.scan_blocks`,
#: :meth:`SeriesStore.peek_chunks`).  Smaller than the scan default because a
#: build pass double-buffers each chunk in float64 (2x) next to per-chunk
#: kernel temporaries, so the chunk size bounds roughly 4-6x its bytes of
#: transient residency.
DEFAULT_BUILD_CHUNK_BYTES = 4 * 1024 * 1024


class SeriesStore:
    """Page-oriented, accounted view over a :class:`~repro.core.series.Dataset`.

    The store exposes the access styles used by the methods in the paper:

    * :meth:`scan` — full sequential scan (UCR Suite, MASS, index build passes);
    * :meth:`scan_chunks` — the same scan as a bounded-memory chunk stream
      (identical accounting; the streaming form of out-of-core passes);
    * :meth:`read_groups` — several blocks (leaves, or the runs of a
      skip-sequential refinement) in one gather, each counted as one random
      access (seek) plus the sequential pages of the block; :meth:`read_block`
      is its one-block case;
    * :meth:`read_contiguous` — one row range (a single series is the
      one-row range), a seek plus its sequential pages.

    Every call updates the shared :class:`~repro.core.stats.AccessCounter`, which
    the experiment runner snapshots around each query.  Accounting is computed
    from the store's page geometry alone, so it is identical for every backend.

    Reads return *views* wherever NumPy indexing allows (:meth:`scan`,
    :meth:`read_contiguous`, and :meth:`peek`);
    only fancy-indexed block reads materialize copies.  Callers must therefore
    never mutate a returned block.  The store enforces this by serving reads
    from a frozen array (in-memory backend) or a read-only mapping (mmap
    backend), so an accidental in-place write raises instead of silently
    corrupting the collection every other reader shares.
    """

    def __init__(
        self,
        dataset: Dataset,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        backend: StorageBackend | str | None = None,
        measure_io: bool = False,
        faults: FaultPlan | str | None = None,
        retry: RetryPolicy | None = None,
        verify: bool | None = None,
    ) -> None:
        """``faults`` wraps the backend in deterministic fault injection (a
        :class:`~repro.core.faults.FaultPlan`, a spec string, or — when left
        ``None`` — whatever ``REPRO_FAULT_PLAN`` describes).  ``retry`` is
        the transient-fault :class:`~repro.core.faults.RetryPolicy` applied
        around every backend read (default: 4 attempts with jittered
        exponential backoff; ``RetryPolicy(attempts=1)`` disables retries).
        ``verify`` controls checksum verification against the backend's
        integrity data (``None``/``True``: verify whenever a ``.crc`` sidecar
        exists; ``False``: off)."""
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        self.dataset = dataset
        resolved = resolve_backend(dataset, backend)
        if isinstance(faults, str):
            faults = FaultPlan.from_spec(faults)
        if faults is None:
            faults = FaultPlan.from_env()
        if faults is not None and not isinstance(resolved, FaultInjectingBackend):
            resolved = FaultInjectingBackend(resolved, faults)
            # The write path's crash points live inside the WAL/checkpoint
            # sequence; growable backends take the plan directly.
            set_plan = getattr(resolved.inner, "set_fault_plan", None)
            if set_plan is not None:
                set_plan(faults)
        self.backend = resolved
        self.faults = resolved.plan if isinstance(resolved, FaultInjectingBackend) else None
        self.retry = DEFAULT_RETRY_POLICY if retry is None else retry
        self.verify = verify is not False
        self._manifest = self.backend.checksums() if self.verify else None
        self.page_bytes = int(page_bytes)
        self.measure_io = bool(measure_io)
        self.counter = AccessCounter()
        self._series_bytes = dataset.length * self.backend.dtype.itemsize
        self._series_per_page = max(1, self.page_bytes // self._series_bytes)

    # -- geometry ------------------------------------------------------------
    @property
    def count(self) -> int:
        return self.dataset.count

    @property
    def length(self) -> int:
        return self.dataset.length

    @property
    def series_bytes(self) -> int:
        """Size of one series on disk in bytes."""
        return self._series_bytes

    @property
    def series_per_page(self) -> int:
        """Number of series that fit in one page."""
        return self._series_per_page

    @property
    def total_pages(self) -> int:
        """Number of pages occupied by the raw data file."""
        return (self.count + self._series_per_page - 1) // self._series_per_page

    def pages_for_series(self, count: int) -> int:
        """Number of pages needed to hold ``count`` consecutive series."""
        if count <= 0:
            return 0
        return (count + self._series_per_page - 1) // self._series_per_page

    # -- measured I/O ----------------------------------------------------------
    def _serve(self, read):
        """Run one backend read, timing it (pages faulted in) when measuring."""
        if not self.measure_io:
            return read()
        start = time.perf_counter()
        block = read()
        touch_pages(block)
        self.counter.measured_io_seconds += time.perf_counter() - start
        return block

    # -- resilient reads -------------------------------------------------------
    def _retrying(self, op):
        """Run one backend read under the store's retry policy.

        Transient failures (injected or detected — see
        :meth:`RetryPolicy.is_transient`) are retried with jittered
        exponential backoff up to ``attempts`` total tries, counting each
        retry; permanent faults (corruption, missing files) propagate
        immediately.
        """
        policy = self.retry
        attempt = 1
        while True:
            try:
                return op()
            except Exception as exc:
                if attempt >= policy.attempts or not policy.is_transient(exc):
                    raise
                self.counter.retries += 1
                time.sleep(policy.delay_for(attempt))
                attempt += 1

    def _read_rows(self, start: int, stop: int) -> np.ndarray:
        """Retried ``backend.read_rows`` with short-read detection."""
        expected = max(0, min(int(stop), self.count) - max(0, int(start)))

        def op():
            block = self.backend.read_rows(start, stop)
            if int(block.shape[0]) != expected:
                raise TransientIOError(
                    f"short read: got {int(block.shape[0])} rows of "
                    f"[{start}, {stop}) (expected {expected})"
                )
            return block

        return self._retrying(op)

    def _take(self, idx: np.ndarray) -> np.ndarray:
        """Retried ``backend.take`` with short-read detection."""

        def op():
            block = self.backend.take(idx)
            if int(block.shape[0]) != int(idx.size):
                raise TransientIOError(
                    f"short read: got {int(block.shape[0])} of {int(idx.size)} rows"
                )
            return block

        return self._retrying(op)

    def _verify_range(self, start: int, stop: int) -> None:
        """Checksum-verify the manifest blocks covering rows ``start:stop``.

        Verification reads go through the (retried) backend read path — so
        damage anywhere between the file and the caller is seen — but touch
        no counters: each file block is checked at most once per process (the
        manifest's verified-set is shared across forks and slices), so the
        steady-state cost on hot paths is zero.
        """
        if self._manifest is not None:
            verify_row_range(
                self._manifest,
                self.backend.row_offset,
                self.count,
                start,
                stop,
                self._read_rows,
            )

    def _verify_positions(self, idx: np.ndarray) -> None:
        """Checksum-verify the manifest blocks containing the rows at ``idx``."""
        if self._manifest is not None:
            verify_positions(
                self._manifest,
                self.backend.row_offset,
                self.count,
                idx,
                self._read_rows,
            )

    # -- access styles ---------------------------------------------------------
    def _account_scan(self) -> None:
        self.counter.random_accesses += 1
        self.counter.sequential_pages += self.total_pages
        self.counter.series_read += self.count
        self.counter.bytes_read += self.count * self._series_bytes
        self.counter.physical_bytes_read += self.backend.physical_bytes(0, self.count)

    def scan(self) -> np.ndarray:
        """Full sequential scan of the raw file.

        Counted as one seek (positioning at the start of the file) plus the
        sequential pages of the whole file.  The returned array is the whole
        collection: an in-memory view, or — on the mmap backend — a lazy view
        into the mapping whose rows are paged in as they are touched.
        """
        self._account_scan()
        return self._serve(lambda: self.backend.values)

    def scan_chunks(self, chunk_rows: int | None = None, drop: bool = True):
        """The sequential scan as a generator of ``(start, block)`` row chunks.

        Accounted exactly like :meth:`scan` (one seek plus the sequential
        pages of the whole file, charged when iteration starts), so consumers
        can switch between the two forms without moving a single counter.
        The difference is residency: each yielded block covers ``chunk_rows``
        rows only, and with ``drop=True`` the mmap backend releases a chunk's
        pages after the next chunk is requested — a streaming pass over a
        collection far larger than RAM keeps its resident set bounded by the
        chunk size.  (``drop`` is a no-op for the in-memory backend.)
        """
        if chunk_rows is None:
            chunk_rows = max(1, DEFAULT_SCAN_CHUNK_BYTES // self._series_bytes)
        chunk_rows = max(1, int(chunk_rows))
        self._account_scan()
        # Verification rides the stream: digests accumulate over the chunks
        # the scan already produced (no second read) and each completed block
        # is checked as its last row passes, so a corrupt block raises before
        # any later chunk is served.
        verifier = (
            SequentialVerifier(self._manifest, self.backend.row_offset)
            if self._manifest is not None
            else None
        )
        for start in range(0, self.count, chunk_rows):
            stop = min(start + chunk_rows, self.count)
            block = self._serve(lambda s=start, e=stop: self._read_rows(s, e))
            if verifier is not None:
                verifier.feed(start, block)
            yield start, block
            if drop:
                # Release one chunk behind as well: the kernel's fault-around
                # happily re-maps already-released pages adjacent to a later
                # fault, so a strictly chunk-local drop slowly re-accumulates
                # residency along the scan.
                self.backend.release(max(0, start - chunk_rows), stop)

    def scan_blocks(self, chunk_rows: int | None = None):
        """Builder variant of :meth:`scan_chunks`: ``(slice, float64 block)``.

        Index bulk builds summarize in float64; yielding the conversion here
        keeps exactly one chunk's float64 staging buffer alive at a time (the
        whole-collection ``astype`` of the historical in-RAM builds is what
        made tree construction cost a multiple of the file in RSS).
        Accounting is exactly :meth:`scan_chunks`'s, i.e. exactly
        :meth:`scan`'s.
        """
        if chunk_rows is None:
            chunk_rows = max(1, DEFAULT_BUILD_CHUNK_BYTES // self._series_bytes)
        for start, block in self.scan_chunks(chunk_rows=chunk_rows):
            yield slice(start, start + block.shape[0]), block.astype(np.float64)

    def peek_chunks(self, positions: np.ndarray, chunk_rows: int | None = None):
        """Unaccounted chunked reads of the rows at ``positions``.

        The streaming counterpart of :meth:`peek` for index builders that
        revisit a node's rows (e.g. DSTree split scoring): yields
        ``(slice, float64 block)`` pairs where the slice indexes into
        ``positions`` and the block holds the corresponding rows.  Like
        :meth:`peek` it moves no counters — build passes are accounted once by
        the explicit scan.  On the mmap backend the consumed rows' pages are
        released with a one-chunk lookback, so residency stays bounded by the
        chunk size; ``positions`` is assumed ascending (index leaves keep
        their positions sorted), which makes the released spans contiguous.
        """
        idx = np.asarray(positions, dtype=np.int64)
        if chunk_rows is None:
            chunk_rows = max(1, DEFAULT_BUILD_CHUNK_BYTES // self._series_bytes)
        chunk_rows = max(1, int(chunk_rows))
        previous_low: int | None = None
        start = 0
        while start < idx.size:
            # Cap the chunk by *store-row span* as well as by count: reading a
            # sparse position set faults every touched page across its span,
            # so count-only chunks over well-scattered rows (a split node's
            # block) would hold a large slice of the file resident at once.
            stop = min(start + chunk_rows, idx.size)
            span_stop = int(np.searchsorted(idx, int(idx[start]) + chunk_rows, "left"))
            stop = max(start + 1, min(stop, span_stop))
            self._verify_positions(idx[start:stop])
            # Like peek: no simulated counters and no measured-I/O timing.
            yield slice(start, stop), self._take(idx[start:stop]).astype(np.float64)
            low, high = int(idx[start]), int(idx[stop - 1]) + 1
            self.backend.release(low if previous_low is None else previous_low, high)
            previous_low = low
            start = stop

    @property
    def supports_quantized_scan(self) -> bool:
        """Whether :meth:`scan_quantized_chunks` is available (compressed backend)."""
        return bool(getattr(self.backend, "supports_quantized_scan", False))

    def scan_quantized_chunks(self, chunk_rows: int | None = None):
        """Filtering pass over the *quantized* representation, tile by tile.

        Yields ``(start, stop, parts)`` per tile of ``chunk_rows`` rows, where
        ``parts`` is the backend's block-trimmed integer representation of the
        tile (``[(codes, scale, shift), ...]``, see
        :meth:`~repro.core.backends.CompressedBackend.quantized_parts`).  Tile
        boundaries match :meth:`scan_chunks` exactly, which is what lets a
        pruned two-phase scan refine a surviving tile with the *identical*
        kernel shape the plain scan would have used — byte-identical answers.

        Accounting mirrors :meth:`scan_chunks` but at the quantized
        representation's cost: one seek; sequential pages and physical bytes
        of the *stored* (compressed) stream; logical ``bytes_read`` of the
        integer codes.  Survivor refinement is accounted separately by the
        caller's :meth:`read_contiguous` calls (skip-sequential, like
        VA+file).  Decoded blocks are dropped with a one-chunk lookback, so a
        streamed pass stays RSS-bounded.
        """
        if not self.supports_quantized_scan:
            raise ValueError(
                f"the {self.backend.kind!r} backend stores no quantized "
                "representation; scan_quantized_chunks needs the compressed backend"
            )
        if chunk_rows is None:
            chunk_rows = max(1, DEFAULT_SCAN_CHUNK_BYTES // self._series_bytes)
        chunk_rows = max(1, int(chunk_rows))
        physical = self.backend.physical_bytes(0, self.count)
        self.counter.random_accesses += 1
        self.counter.sequential_pages += -(-physical // self.page_bytes)
        self.counter.series_read += self.count
        self.counter.bytes_read += (
            self.count * self.length * self.backend.quantized_itemsize
        )
        self.counter.physical_bytes_read += physical
        for start in range(0, self.count, chunk_rows):
            stop = min(start + chunk_rows, self.count)
            yield start, stop, self._retrying(
                lambda s=start, e=stop: self.backend.quantized_parts(s, e)
            )
            self.backend.release(max(0, start - chunk_rows), stop)

    def _accounted_take(
        self, idx: np.ndarray, groups: int, pages: int, sizes: np.ndarray | None
    ) -> np.ndarray:
        """One backend gather of ``idx``, charged as ``groups`` block reads."""
        self.counter.random_accesses += groups
        self.counter.sequential_pages += pages
        self.counter.series_read += int(idx.size)
        self.counter.bytes_read += int(idx.size) * self._series_bytes
        self.counter.physical_bytes_read += self.backend.physical_bytes_for(idx, sizes)
        self._verify_positions(idx)
        return self._serve(lambda: self._take(idx))

    def read_groups(self, positions: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Read several physical blocks with one gather.

        ``positions`` concatenates the groups and ``sizes[g]`` is the number of
        rows of group ``g``; each group is one physical block (an index leaf,
        or one run of consecutive rows of a skip-sequential scan).  Charged
        exactly like one :meth:`read_block` — for a run of consecutive rows,
        one :meth:`read_contiguous` — per non-empty group: a random access
        plus the sequential pages of the group, and the stored bytes of the
        blocks each group touches.  The rows come back in ``positions`` order
        and must be treated as read-only.
        """
        idx = np.asarray(positions, dtype=np.int64)
        if len(sizes) == 1 and sizes[0] == idx.size:
            return self.read_block(idx)  # scalar arithmetic for the common single block
        sizes = np.asarray(sizes, dtype=np.int64)
        if int(sizes.sum()) != idx.size:
            raise ValueError("group sizes must add up to the number of positions")
        if idx.size == 0:
            return np.empty((0, self.length), dtype=self.backend.dtype)
        pages = -(-sizes // self._series_per_page)
        return self._accounted_take(
            idx, int(np.count_nonzero(sizes)), int(pages.sum()), sizes
        )

    def read_block(self, positions: np.ndarray | list[int]) -> np.ndarray:
        """Read the series at ``positions`` as one contiguous block access.

        The caller guarantees the positions belong to one physical block (e.g.
        the series materialized in one index leaf): the one-group case of
        :meth:`read_groups`, counted as a single random access plus the
        sequential pages covering the block.
        """
        idx = np.asarray(positions, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, self.length), dtype=self.backend.dtype)
        return self._accounted_take(idx, 1, self.pages_for_series(int(idx.size)), None)

    def read_contiguous(self, start: int, stop: int) -> np.ndarray:
        """Read series ``start:stop`` from the raw file as one skip + block read.

        This is the access pattern of skip-sequential algorithms (ADS+ SIMS,
        VA+file refinement): every gap in the scan costs one seek.
        """
        if stop <= start:
            return np.empty((0, self.length), dtype=self.backend.dtype)
        count = stop - start
        self.counter.random_accesses += 1
        self.counter.sequential_pages += self.pages_for_series(count)
        self.counter.series_read += count
        self.counter.bytes_read += count * self._series_bytes
        self.counter.physical_bytes_read += self.backend.physical_bytes(start, stop)
        self._verify_range(start, stop)
        return self._serve(lambda: self._read_rows(start, stop))

    def peek(self, start: int, stop: int) -> np.ndarray:
        """Series ``start:stop`` *without* accounting: the unaccounted twin of
        :meth:`read_contiguous`, verified, retried and short-read-checked the
        same way but charging no access counter (retries still count).

        Used only for building summaries where the build pass is already
        accounted for with an explicit :meth:`scan`.
        """
        self._verify_range(start, stop)
        return self._read_rows(start, stop)

    # -- structure -------------------------------------------------------------
    def fork(self) -> "SeriesStore":
        """A reader view of this store with a private access counter.

        The fork shares the page geometry but counts accesses into a fresh
        :class:`AccessCounter`, which is the thread-safety contract of
        parallel execution: each worker thread reads through its own fork and
        the coordinator merges the forks' counters into this store's counter
        after joining (``counter.merge``), so no counter is ever mutated from
        two threads.  The data stays zero-copy: the in-memory backend is
        shared outright, while the mmap backend reopens the mapping so every
        worker reads through a private file handle.
        """
        return SeriesStore(
            self.dataset,
            page_bytes=self.page_bytes,
            backend=self.backend.fork(),
            measure_io=self.measure_io,
            retry=self.retry,
            verify=self.verify,
        )

    def __getstate__(self) -> dict:
        """Pickle as a task spec: geometry + backend handle, no live state.

        A store crossing a process boundary is an instruction to *read the
        same bytes over there*, not a transfer of accounting: the receiving
        worker accumulates into a fresh counter and ships the delta back in
        its task result (the cross-process form of the fork/merge protocol).
        The checksum manifest is dropped and rebuilt from the backend's
        integrity sidecar on arrival — shipping the CRC table would defeat
        the worker-side manifest cache and bloat every task.
        """
        state = dict(self.__dict__)
        state["_manifest"] = None
        state["counter"] = AccessCounter()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self.verify:
            self._manifest = self.backend.checksums()

    def slice(self, start: int, stop: int, name: str | None = None) -> "SeriesStore":
        """A store over the contiguous sub-range ``start:stop`` (zero-copy).

        This is the partitioning primitive of the sharded executor: the
        sub-store's dataset values are a view of this store's, its backend is
        the sliced backend (for mmap, a (path, row-range) handle that stays
        picklable with no raw data attached), and its counters are private.
        """
        sub_backend = self.backend.slice(start, stop)
        file_backed = sub_backend.source_path is not None
        sub_dataset = Dataset(
            # File-backed slices stay lazy (geometry from the backend): eagerly
            # grabbing .values would decode a compressed shard wholesale.
            values=None if file_backed else sub_backend.values,
            name=name or f"{self.dataset.name}[{start}:{stop}]",
            normalized=self.dataset.normalized,
            backend=sub_backend if file_backed else None,
        )
        return SeriesStore(
            sub_dataset,
            page_bytes=self.page_bytes,
            backend=sub_backend,
            measure_io=self.measure_io,
            retry=self.retry,
            verify=self.verify,
        )

    def describe_storage(self) -> dict:
        """Backend provenance plus page geometry (persistence envelopes)."""
        info = self.backend.describe()
        info["page_bytes"] = self.page_bytes
        return info

    # -- live ingest -----------------------------------------------------------
    @property
    def watermark(self) -> int:
        """The committed row count — what :meth:`snapshot` would pin now."""
        backend = getattr(self.backend, "inner", self.backend)
        return int(getattr(backend, "watermark", self.count))

    def extend(self, rows) -> int:
        """Durably append ``rows`` (growable backends only); returns the new count.

        The call acks — returns — only after the rows are fsynced to the
        write-ahead log; a crash after the return can never lose them.
        Running queries are unaffected: they read through snapshots or the
        pre-extend layout, both immutable.
        """
        backend = getattr(self.backend, "inner", self.backend)
        extend = getattr(backend, "extend", None)
        if extend is None:
            raise ValueError(
                f"the {self.backend.kind!r} backend is frozen; live ingest "
                "needs backend='growable' (see Dataset.to_growable)"
            )
        data = np.atleast_2d(np.asarray(rows, dtype=SERIES_DTYPE))
        new_count = extend(data)
        self.counter.bytes_written += int(data.nbytes)
        return int(new_count)

    def checkpoint(self) -> int:
        """Seal the growable tail into a segment file; returns rows sealed."""
        backend = getattr(self.backend, "inner", self.backend)
        checkpoint = getattr(backend, "checkpoint", None)
        if checkpoint is None:
            raise ValueError(
                f"the {self.backend.kind!r} backend has no checkpoint; live "
                "ingest needs backend='growable'"
            )
        return int(checkpoint())

    def snapshot(self, name: str | None = None) -> "SeriesStore":
        """A store pinned to the current committed row count (zero-copy).

        Rows are immutable once acked and the count only grows, so slicing
        ``[0, watermark)`` *is* a consistent snapshot: queries against it are
        byte-identical to querying a frozen store of that prefix, no matter
        how many :meth:`extend` calls land while they run.  For frozen
        backends this is simply a full-range slice.
        """
        stop = self.watermark
        return self.slice(0, stop, name=name or f"{self.dataset.name}@{stop}")

    # -- bookkeeping -----------------------------------------------------------
    def reset_counters(self) -> None:
        self.counter.reset()

    def counter_snapshot(self) -> AccessCounter:
        return self.counter.snapshot()

    def since(self, snapshot: AccessCounter) -> AccessCounter:
        return self.counter.diff(snapshot)
