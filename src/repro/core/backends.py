"""Pluggable storage backends: where the raw series bytes actually live.

The paper's headline experiments run on disk-resident collections up to 1TB —
far bigger than RAM — while this reproduction historically required the whole
collection as one in-memory ndarray.  This module separates *where the bytes
live* from *how accesses are accounted*: a :class:`StorageBackend` serves raw
row reads, and :class:`~repro.core.storage.SeriesStore` layers the paper's
page-granular accounting on top.  Four backends are provided:

* :class:`MemoryBackend` — the historical behavior: an in-memory frozen array.
* :class:`MmapBackend` — a memory-mapped ``.npy`` or raw-float32 file.  Reads
  are served straight from the mapping, so the collection is never
  materialized: the OS pages data in on demand and a dataset much larger than
  RAM can be built and queried out-of-core.  Backends are picklable by *path*
  (no raw data in the pickle) and :meth:`MmapBackend.fork` reopens the mapping
  with a private file handle, which is the per-worker contract of the parallel
  execution layer.
* :class:`CompressedBackend` — a ``.rcz`` file of per-block quantized
  (int8/int16), optionally DEFLATE-compressed series
  (:mod:`repro.core.quantize`).  The quantized blocks are the primary storage;
  the collection's canonical float32 values are their deterministic
  dequantization, served block-at-a-time through a small decoded-block cache.
  The backend additionally exposes the integer representation itself
  (:meth:`CompressedBackend.quantized_parts`), which is what the two-phase
  pruned-precision scans filter on before fetching full-precision survivors.
* :class:`~repro.core.growable.GrowableBackend` — a live store directory:
  one :class:`MmapBackend` per sealed segment and one :class:`MemoryBackend`
  per write-ahead-logged tail chunk.

Every backend serves one primitive set — :meth:`StorageBackend.read_rows`
and :meth:`StorageBackend.take`, plus ``quantized_parts`` on the compressed
backend — and everything else (:attr:`StorageBackend.values`, every store
access style) derives from it, so fault injection, retries and integrity
checks see every byte read.

Backends are deliberately accounting-free: every read primitive here is raw,
and the counters (and therefore the simulated I/O models) are identical for
every backend by construction, which is what makes memory/mmap answer- and
counter-equivalence testable.  The one backend-dependent quantity — *physical*
bytes stored for a row range — is reported by geometry-only queries
(:meth:`StorageBackend.physical_bytes`), so the logical/physical accounting
split stays deterministic too.
"""

from __future__ import annotations

import abc
import mmap as _mmap
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .series import RAW_SUFFIXES, SERIES_DTYPE

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "MmapBackend",
    "CompressedBackend",
    "resolve_backend",
    "touch_pages",
    "BACKEND_KINDS",
    "RAW_SUFFIXES",
]

#: the named backend kinds accepted wherever a backend is chosen by string.
#: ``growable`` (repro.core.growable) is the WAL-backed live-ingest backend.
BACKEND_KINDS = ("memory", "mmap", "compressed", "growable")


def touch_pages(array: np.ndarray) -> None:
    """Fault in every OS page backing ``array`` (one element read per page).

    Used by the measured-I/O calibration path: a memory-mapped read returns a
    view without touching the file, so timing it would measure nothing.
    Touching one element per page forces the actual page-ins while reading a
    negligible fraction of the data.
    """
    if array.size == 0:
        return
    arr = array if array.flags.c_contiguous else np.ascontiguousarray(array)
    flat = arr.reshape(-1)
    step = max(1, 4096 // flat.itemsize)
    float(flat[::step].sum())


class StorageBackend(abc.ABC):
    """Raw, accounting-free access to a collection of equal-length series.

    Every read primitive returns arrays that must be treated as read-only
    (in-memory reads are views into a frozen array; mapped reads are views
    into a read-only mapping).  Accounting lives entirely in
    :class:`~repro.core.storage.SeriesStore`, so swapping backends can never
    change a method's counters.
    """

    kind: str = "abstract"
    #: ``(count, array)`` behind the derived :attr:`values`; never pickled.
    _frozen: tuple[int, np.ndarray] | None = None

    # -- geometry ------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The whole collection as one read-only ``(count, length)`` array.

        Derived: one ``read_rows(0, count)``, frozen and cached until
        :meth:`release` or until the row count changes.  The in-memory and
        mmap backends return their own array instead — for mmap a lazy view
        into the mapping that reads only the rows a caller touches.
        """
        count, frozen = self.count, self._frozen
        if frozen is None or frozen[0] != count:
            data = np.ascontiguousarray(self.read_rows(0, count))
            data.setflags(write=False)
            frozen = self._frozen = (count, data)
        return frozen[1]

    @property
    def count(self) -> int:
        return int(self.values.shape[0])

    @property
    def length(self) -> int:
        return int(self.values.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def series_bytes(self) -> int:
        return int(self.length * self.dtype.itemsize)

    @property
    def source_path(self) -> str | None:
        """Path of the backing file (``None`` for in-memory backends)."""
        return None

    @property
    def row_offset(self) -> int:
        """Absolute file row this view starts at (0 for unsliced backends).

        Integrity manifests digest *file* blocks; a sliced shard backend maps
        its view rows to file rows through this offset when verifying.
        """
        return 0

    def checksums(self):
        """The backend's block-checksum manifest, if its file has one.

        Returns a shared :class:`~repro.core.integrity.ChecksumManifest`
        (cached process-wide, so forks and slices share one verified-set) or
        ``None`` when no sidecar exists.  In-memory backends have no stored
        bytes to verify and always return ``None``.  The compressed and
        growable backends verify internally and return ``None`` too: the
        compressed one checks each block's payload digest as it decodes it,
        and the growable one checks each sealed segment in full against the
        segment's own sidecar the first time the segment is read.
        """
        return None

    # -- physical geometry ----------------------------------------------------
    #: whether the backend stores a quantized representation that the pruned
    #: two-phase scans can filter on (see :meth:`CompressedBackend.quantized_parts`).
    supports_quantized_scan: bool = False

    def physical_bytes(self, start: int, stop: int) -> int:
        """Stored bytes backing rows ``start:stop`` (geometry only, no reads).

        Equal to the logical float32 bytes for uncompressed backends; the
        compressed backend reports the stored bytes of the covering blocks.
        """
        return max(0, int(stop) - int(start)) * self.series_bytes

    def physical_bytes_for(self, positions: np.ndarray, sizes: np.ndarray | None = None) -> int:
        """Stored bytes backing the rows at ``positions`` (geometry only).

        ``sizes`` splits ``positions`` into consecutive groups that are read
        separately (:meth:`SeriesStore.read_groups`): the result is the sum
        over the groups, as if each had been asked for on its own.
        """
        return int(np.asarray(positions).size) * self.series_bytes

    # -- raw reads -----------------------------------------------------------
    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` as a zero-copy view."""
        return self.values[start:stop]

    def take(self, positions: np.ndarray) -> np.ndarray:
        """The rows at ``positions`` (a copy, by fancy-indexing semantics)."""
        return self.values[positions]

    # -- structure -----------------------------------------------------------
    @abc.abstractmethod
    def slice(self, start: int, stop: int) -> "StorageBackend":
        """A zero-copy backend over the contiguous row range ``start:stop``.

        This is how the sharded executor partitions a collection: each shard
        store reads through a sliced backend, which for the mmap backend stays
        picklable by (path, row range) with no raw data attached.
        """

    @abc.abstractmethod
    def fork(self) -> "StorageBackend":
        """A reader handle for one worker.

        In-memory backends are stateless and return themselves; the mmap
        backend reopens the mapping so each worker reads through a private
        file handle.
        """

    def release(self, start: int = 0, stop: int | None = None) -> None:
        """Drop any cached residency for rows ``start:stop`` (best effort).

        A no-op for in-memory backends; the mmap backend advises the kernel
        that the pages are no longer needed, which is what keeps the resident
        set of a streaming scan bounded by the chunk size instead of the file
        size.  Any derived :attr:`values` copy is dropped too.  The compressed
        backend keeps its decoded blocks, which ``cache_blocks`` already bounds.
        """
        self._frozen = None

    def describe(self) -> dict:
        """Provenance metadata recorded in persistence envelopes."""
        return {
            "kind": self.kind,
            "source_path": self.source_path,
            "count": self.count,
            "length": self.length,
            "dtype": str(self.dtype),
        }

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_frozen", None)  # derived from the primitives on arrival
        return state


class MemoryBackend(StorageBackend):
    """The historical in-memory backend: one frozen ndarray.

    The constructor clears the array's ``WRITEABLE`` flag — reads hand out
    views, and freezing the backing array is what turns an accidental in-place
    write into an error instead of silent corruption of the collection every
    reader shares.
    """

    kind = "memory"

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=SERIES_DTYPE)
        if values.ndim != 2:
            raise ValueError(f"backend values must be 2-d; got ndim={values.ndim}")
        values.setflags(write=False)
        self._values = values

    @property
    def values(self) -> np.ndarray:
        return self._values

    def slice(self, start: int, stop: int) -> "MemoryBackend":
        return MemoryBackend(self._values[start:stop])

    def fork(self) -> "MemoryBackend":
        return self


class MmapBackend(StorageBackend):
    """A memory-mapped ``.npy`` or raw-float32 file, served without loading.

    Parameters
    ----------
    path:
        File to map.  ``.npy`` files carry their own shape; files with a raw
        suffix (``.f32``/``.raw``/``.bin``) are headerless little-endian
        float32 rows and require ``length``.
    length:
        Series length; mandatory for raw files, validated for ``.npy``.
    start / stop:
        Optional contiguous row range, making the backend a zero-copy slice
        of the file (used by the sharded executor).

    The mapping is opened lazily and dropped on pickling, so backends travel
    as (path, row range) only; unpickling (or :meth:`fork`) reopens the file.
    """

    kind = "mmap"

    def __init__(
        self,
        path: str | Path,
        *,
        length: int | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        self._path = os.fspath(path)
        self._length = int(length) if length is not None else None
        self._start = int(start)
        self._stop = int(stop) if stop is not None else None
        self._root: np.memmap | None = None
        self._view: np.ndarray | None = None
        self._open()  # validate eagerly; reopened lazily after unpickling

    # -- mapping lifecycle -----------------------------------------------------
    @property
    def is_raw(self) -> bool:
        return Path(self._path).suffix.lower() in RAW_SUFFIXES

    def _open(self) -> np.memmap:
        if self._root is not None:
            return self._root
        path = Path(self._path)
        if not path.exists():
            raise FileNotFoundError(f"dataset file not found: {path}")
        if self.is_raw:
            if self._length is None:
                raise ValueError(
                    f"raw series files ({'/'.join(RAW_SUFFIXES)}) need an explicit "
                    "series length"
                )
            itemsize = np.dtype(SERIES_DTYPE).itemsize
            row_bytes = self._length * itemsize
            size = path.stat().st_size
            if size % row_bytes != 0:
                raise ValueError(
                    f"{path}: size {size} is not a multiple of the "
                    f"{row_bytes}-byte rows implied by length={self._length}"
                )
            if size == 0:
                # Zero-byte files cannot be mapped; a frozen empty array keeps
                # the zero-row collection loadable through the same interface.
                root = np.empty((0, self._length), dtype=SERIES_DTYPE)
                root.setflags(write=False)
            else:
                root = np.memmap(
                    path, dtype=SERIES_DTYPE, mode="r", shape=(size // row_bytes, self._length)
                )
        else:
            root = np.load(path, mmap_mode="r")
            if not isinstance(root, np.memmap):
                raise ValueError(f"{path}: not a memory-mappable .npy array file")
            if root.ndim != 2:
                raise ValueError(f"{path}: expected a 2-d (count, length) array")
            if root.dtype != np.dtype(SERIES_DTYPE):
                raise ValueError(
                    f"{path}: expected dtype {np.dtype(SERIES_DTYPE)}, got {root.dtype}"
                )
            if self._length is not None and root.shape[1] != self._length:
                raise ValueError(
                    f"{path}: series length {root.shape[1]} != expected {self._length}"
                )
            self._length = int(root.shape[1])
        if self._stop is None:
            self._stop = int(root.shape[0])
        if not (0 <= self._start <= self._stop <= root.shape[0]):
            raise ValueError(
                f"{path}: row range [{self._start}, {self._stop}) out of bounds "
                f"for {root.shape[0]} rows"
            )
        self._root = root
        self._view = root[self._start : self._stop]
        return root

    @property
    def values(self) -> np.ndarray:
        if self._view is None:
            self._open()
        return self._view

    @property
    def source_path(self) -> str | None:
        return self._path

    @property
    def row_offset(self) -> int:
        return self._start

    def checksums(self):
        from .integrity import CorruptionError, manifest_for

        manifest = manifest_for(self._path)
        if manifest is None:
            return None
        root = self._open()
        if manifest.count != int(root.shape[0]) or manifest.length != self._length:
            raise CorruptionError(
                f"{self._path}: checksum manifest geometry "
                f"({manifest.count} x {manifest.length}) does not match the "
                f"file ({int(root.shape[0])} x {self._length}); the file "
                "changed after its sidecar was written",
                path=self._path,
            )
        return manifest

    def describe(self) -> dict:
        info = super().describe()
        info.update(format="raw-f32" if self.is_raw else "npy", start=self._start, stop=self._stop)
        return info

    # -- structure -------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "MmapBackend":
        if not (0 <= start <= stop <= self.count):
            raise ValueError(f"slice [{start}, {stop}) out of bounds for {self.count} rows")
        return MmapBackend(
            self._path,
            length=self._length,
            start=self._start + start,
            stop=self._start + stop,
        )

    def fork(self) -> "MmapBackend":
        return MmapBackend(
            self._path, length=self._length, start=self._start, stop=self._stop
        )

    def release(self, start: int = 0, stop: int | None = None) -> None:
        """Advise the kernel to drop the pages backing rows ``start:stop``.

        Read-only and file-backed, so dropping is always safe — a later read
        simply faults the page back in.  Best effort: platforms without
        ``madvise`` ignore the call.
        """
        root = self._open()
        handle = getattr(root, "_mmap", None)
        madvise = getattr(handle, "madvise", None)
        if handle is None or madvise is None:
            return
        row0 = self._start + max(0, start)
        row1 = self._start + (self.count if stop is None else min(stop, self.count))
        if row1 <= row0:
            return
        page = _mmap.PAGESIZE
        data_offset = int(getattr(root, "offset", 0)) % _mmap.ALLOCATIONGRANULARITY
        begin = data_offset + row0 * self.series_bytes
        end = data_offset + row1 * self.series_bytes
        begin -= begin % page
        end = min(len(handle), end + (-end) % page)
        if end <= begin:
            return
        try:
            madvise(_mmap.MADV_DONTNEED, begin, end - begin)
        except (OSError, ValueError):  # pragma: no cover - platform dependent
            pass

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_root"] = None  # mappings are reopened from the path on unpickle
        state["_view"] = None
        return state


class CompressedBackend(StorageBackend):
    """A ``.rcz`` file of quantized, optionally compressed series blocks.

    The quantized blocks are the *primary* storage: the collection's canonical
    float32 values are their deterministic dequantization
    (:func:`repro.core.quantize.dequantize_block`), so every read path —
    row reads, chunk scans, full materialization, any backend fork — serves
    bit-identical bytes.  Relative to the float data the file was written
    from, int8/int16 quantization is lossy; exactness claims are always with
    respect to the stored (dequantized) values.

    Parameters
    ----------
    path:
        The ``.rcz`` file (written by
        :class:`~repro.core.quantize.CompressedFileWriter` or
        :meth:`Dataset.to_compressed`).
    start / stop:
        Optional contiguous row range, making the backend a zero-copy slice
        of the file (the sharded executor's partitioning handle).  Blocks are
        file-global, so a non-block-aligned slice simply trims the decoded
        boundary blocks.
    cache_blocks:
        Decoded-block cache capacity: the residency bound.  At most
        ``cache_blocks`` decoded blocks (integer codes) stay resident,
        regardless of the collection size, and :meth:`release` never flushes
        them.  A read takes its cached blocks before decoding any missing
        ones, and a miss evicts the most recently used block the read does
        not need, else the least recently used one (see :meth:`_blocks`).

    Lazy-open and picklable by (path, row range): the header/table, file
    handle, block cache, and any derived values are all dropped from the
    pickle and rebuilt on first use, exactly like :class:`MmapBackend`.
    """

    kind = "compressed"
    supports_quantized_scan = True

    def __init__(
        self,
        path: str | Path,
        *,
        start: int = 0,
        stop: int | None = None,
        cache_blocks: int = 16,
    ) -> None:
        self._path = os.fspath(path)
        self._start = int(start)
        self._stop = int(stop) if stop is not None else None
        self._cache_blocks = max(2, int(cache_blocks))
        self._info = None
        self._handle = None
        self._cache: "OrderedDict[int, tuple]" = OrderedDict()
        self._open()  # validate eagerly; reopened lazily after unpickling

    # -- file lifecycle --------------------------------------------------------
    def _open(self):
        from .quantize import read_rcz_info

        if self._info is None:
            self._info = read_rcz_info(self._path)
            if self._stop is None:
                self._stop = self._info.count
            if not (0 <= self._start <= self._stop <= self._info.count):
                raise ValueError(
                    f"{self._path}: row range [{self._start}, {self._stop}) out of "
                    f"bounds for {self._info.count} rows"
                )
        if self._handle is None:
            self._handle = open(self._path, "rb")
        return self._info

    @property
    def info(self):
        """Parsed file geometry (:class:`repro.core.quantize.RczInfo`)."""
        return self._open()

    @property
    def source_path(self) -> str | None:
        return self._path

    @property
    def row_offset(self) -> int:
        return self._start

    @property
    def count(self) -> int:
        self._open()
        return self._stop - self._start

    @property
    def length(self) -> int:
        return self._open().length

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(SERIES_DTYPE)

    @property
    def quantized_itemsize(self) -> int:
        """Bytes per stored sample (1 for int8, 2 for int16): the *logical*
        size of the quantized representation a filtering pass reads."""
        return int(self._open().qdtype.itemsize)

    # -- block fetch -----------------------------------------------------------
    def _decode(self, index: int) -> tuple:
        """Read, verify and decode file-global block ``index`` (no caching)."""
        from .quantize import decode_payload

        info = self._open()
        entry = info.table[index]
        self._handle.seek(int(entry["offset"]))
        payload = self._handle.read(int(entry["nbytes"]))
        if info.has_checksums:
            # Verify the stored payload before decoding: every read path —
            # dequantized rows and the quantized filtering representation
            # alike — goes through this decode, so a flipped bit in any block
            # surfaces as a typed error, never as wrong values.
            from .integrity import CorruptionError, checksum

            expected = int(entry["crc"])
            actual = checksum(payload)
            if actual != expected:
                raise CorruptionError(
                    f"{self._path}: checksum mismatch in block {index} "
                    f"(expected {expected:#010x}, got {actual:#010x})",
                    path=self._path,
                    block=index,
                    expected=expected,
                    actual=actual,
                )
        codes = decode_payload(
            payload, info.codec, info.qdtype, int(entry["rows"]), info.length
        )
        return codes, np.float32(entry["scale"]), np.float32(entry["shift"])

    def _blocks(self, needed):
        """Yield ``(index, (codes, scale, shift))`` once per block in ``needed``.

        Cached blocks come first, then the misses in order.  A miss evicts the
        most recently used block this read does not need, else the least
        recently used one: MRU for looping references (the DBMIN rule), so a
        repeated pass over more blocks than the cache holds keeps most warm.
        """
        cache, needed = self._cache, [int(b) for b in needed]
        misses, keep = [b for b in needed if b not in cache], set(needed)
        for b in needed:
            if b in cache:
                cache.move_to_end(b)
                yield b, cache[b]
        for b in misses:
            block = self._decode(b)
            if len(cache) >= self._cache_blocks:
                del cache[next((v for v in reversed(cache) if v not in keep), next(iter(cache)))]
            cache[b] = block
            yield b, block

    def _parts(self, start: int, stop: int):
        """Yield ``(first_row, (codes, scale, shift))`` for the blocks of
        *absolute* rows ``start:stop``, each trimmed to the range."""
        rows = self._open().block_rows
        for b, (codes, scale, shift) in self._blocks(range(*self._block_range(start, stop))):
            lo = max(start, b * rows)
            yield lo, (codes[lo - b * rows : stop - b * rows], scale, shift)

    def _block_range(self, start: int, stop: int) -> tuple[int, int]:
        """File-global blocks covering *absolute* rows ``start:stop``."""
        rows = self._open().block_rows
        if stop <= start:
            return 0, 0
        return start // rows, (stop + rows - 1) // rows

    # -- raw reads -------------------------------------------------------------
    # While a derived `values` copy exists (methods that take the one-shot
    # `scan()` view pay the full decode once), reads are served from it.
    def read_rows(self, start: int, stop: int) -> np.ndarray:
        from .quantize import dequantize_block

        start = max(0, int(start))
        stop = min(self.count, int(stop))
        if stop <= start:
            return np.empty((0, self.length), dtype=SERIES_DTYPE)
        frozen = self._frozen
        if frozen is not None:
            return frozen[1][start:stop]
        a0 = start + self._start
        out = np.empty((stop - start, self.length), dtype=SERIES_DTYPE)
        for lo, (codes, scale, shift) in self._parts(a0, stop + self._start):
            out[lo - a0 : lo - a0 + codes.shape[0]] = dequantize_block(codes, scale, shift)
        return out

    def take(self, positions: np.ndarray) -> np.ndarray:
        from .quantize import dequantize_block

        idx = np.asarray(positions, dtype=np.int64)
        if idx.size == 0:
            return np.empty((0, self.length), dtype=SERIES_DTYPE)
        frozen = self._frozen
        if frozen is not None:
            return frozen[1][idx]
        rows = self._open().block_rows
        absolute = idx + self._start
        out = np.empty((idx.size, self.length), dtype=SERIES_DTYPE)
        blocks = absolute // rows
        for b, (codes, scale, shift) in self._blocks(np.unique(blocks)):
            mask = blocks == b
            out[mask] = dequantize_block(codes[absolute[mask] - b * rows], scale, shift)
        return out

    # -- quantized access ------------------------------------------------------
    def quantized_parts(self, start: int, stop: int) -> list[tuple]:
        """The integer representation of rows ``start:stop`` (view-relative).

        Returns ``[(codes, scale, shift), ...]`` covering the range in order,
        one entry per stored block (boundary blocks trimmed).  ``codes`` are
        read-only views into the decoded-block cache — the pruned scans bound
        distances on these, and the survivors' full-precision reads then hit
        the same cached blocks.
        """
        start = max(0, int(start))
        stop = min(self.count, int(stop))
        if stop <= start:
            return []
        parts = sorted(self._parts(start + self._start, stop + self._start), key=lambda p: p[0])
        return [part for _, part in parts]

    def physical_bytes(self, start: int, stop: int) -> int:
        info = self._open()
        a0 = self._start + max(0, int(start))
        a1 = self._start + min(self.count, int(stop))
        b0, b1 = self._block_range(a0, a1)
        return info.stored_bytes(b0, b1)

    def physical_bytes_for(self, positions: np.ndarray, sizes: np.ndarray | None = None) -> int:
        info = self._open()
        idx = np.asarray(positions, dtype=np.int64)
        if idx.size == 0:
            return 0
        blocks = (idx + self._start) // info.block_rows
        stride = len(info.table)
        if sizes is not None:
            # a stored block is fetched once per group that touches it
            blocks += np.repeat(np.arange(len(sizes)), sizes) * stride
        blocks = np.unique(blocks) % stride
        return int(info.table["nbytes"][blocks].astype(np.int64).sum())

    # -- structure -------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "CompressedBackend":
        if not (0 <= start <= stop <= self.count):
            raise ValueError(f"slice [{start}, {stop}) out of bounds for {self.count} rows")
        return CompressedBackend(
            self._path,
            start=self._start + start,
            stop=self._start + stop,
            cache_blocks=self._cache_blocks,
        )

    def fork(self) -> "CompressedBackend":
        return CompressedBackend(
            self._path,
            start=self._start,
            stop=self._stop,
            cache_blocks=self._cache_blocks,
        )

    def describe(self) -> dict:
        info = super().describe()
        rcz = self._open()
        info.update(
            format="rcz",
            start=self._start,
            stop=self._stop,
            qdtype=rcz.qdtype_name,
            block_rows=rcz.block_rows,
            compression=rcz.codec,
            stored_bytes=self.physical_bytes(0, self.count),
        )
        return info

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_info"] = None  # geometry is reparsed from the path on unpickle
        state["_handle"] = None
        state["_cache"] = OrderedDict()
        return state


def resolve_backend(dataset, backend=None) -> StorageBackend:
    """Resolve a backend choice for ``dataset``.

    ``backend`` may be a :class:`StorageBackend` instance (used as-is), one of
    the names in :data:`BACKEND_KINDS`, or ``None`` — which picks the
    dataset's attached file backend when it has one (``Dataset.from_file``)
    and the in-memory backend otherwise, so existing call sites keep today's
    behavior with zero changes.

    Choosing ``"memory"`` for a file-backed dataset materializes the
    collection into RAM (that is the point of comparing backends on the same
    data); choosing ``"mmap"`` or ``"compressed"`` requires a dataset already
    backed by the matching file kind — use :meth:`Dataset.from_file`,
    :meth:`Dataset.to_mmap`, or :meth:`Dataset.to_compressed` first.
    """
    if isinstance(backend, StorageBackend):
        return backend
    attached = getattr(dataset, "backend", None)
    if backend is None:
        return attached if attached is not None else MemoryBackend(dataset.values)
    kind = str(backend).lower()
    if kind == "memory":
        if attached is not None and attached.kind != "memory":
            return MemoryBackend(np.array(dataset.values, dtype=SERIES_DTYPE))
        return MemoryBackend(dataset.values)
    if kind == "mmap":
        if attached is not None and attached.kind == "mmap":
            return attached
        raise ValueError(
            "the mmap backend needs a file-backed dataset; open it with "
            "Dataset.from_file() or spill it with Dataset.to_mmap() first"
        )
    if kind == "compressed":
        if attached is not None and attached.kind == "compressed":
            return attached
        raise ValueError(
            "the compressed backend needs a .rcz-backed dataset; convert with "
            "Dataset.to_compressed() or open one with Dataset.from_file()"
        )
    if kind == "growable":
        if attached is not None and attached.kind == "growable":
            return attached
        raise ValueError(
            "the growable backend needs a store-directory-backed dataset; "
            "open one with Dataset.from_file() or spill with "
            "Dataset.to_growable() first"
        )
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_KINDS}")
