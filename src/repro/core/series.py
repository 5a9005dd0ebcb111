"""Data series containers and normalization.

A *data series* is an ordered sequence of real-valued points.  In the
similarity-search setting of the paper, a series of length ``n`` is treated as a
single point in an ``n``-dimensional space.  This module provides the light-weight
dataset container used throughout the library, plus z-normalization helpers.

All series are stored as single-precision floats (``float32``), matching the
paper's experimental setup ("All methods use single precision values").
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "SERIES_DTYPE",
    "RAW_SUFFIXES",
    "znormalize",
    "is_znormalized",
    "Dataset",
    "SeriesFileWriter",
    "write_series_file",
    "unique_tmp_path",
]

#: dtype used for every series in the library (the paper uses single precision).
SERIES_DTYPE = np.float32

#: file suffixes treated as headerless raw little-endian float32 row data
#: (anything else is read/written as a standard ``.npy`` array file).
RAW_SUFFIXES = (".f32", ".raw", ".bin")


def unique_tmp_path(path: str | Path) -> Path:
    """A collision-proof ``.tmp`` sibling for an atomic write of ``path``.

    The name embeds the writer's pid plus a random token, so a writer whose
    process died before ``abandon()`` could run can never collide with — or
    be mistaken for — a live writer targeting the same file.  Orphans keep
    the ``.tmp`` suffix so recovery sweeps
    (:func:`repro.core.growable.sweep_orphaned_tmp`) find them.
    """
    import secrets

    path = Path(path)
    return path.with_name(
        f"{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    )


def znormalize(series: np.ndarray, epsilon: float = 1e-8) -> np.ndarray:
    """Return a z-normalized copy of ``series`` (mean 0, standard deviation 1).

    Works on a single series (1-d array) or a batch of series (2-d array, one
    series per row).  Series with (near-)zero standard deviation are mapped to
    all-zeros rather than dividing by zero.

    Parameters
    ----------
    series:
        Input array of shape ``(n,)`` or ``(m, n)``.
    epsilon:
        Standard deviations below this threshold are treated as zero.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 1:
        mean = arr.mean()
        std = arr.std()
        if std < epsilon:
            return np.zeros_like(arr, dtype=SERIES_DTYPE)
        return ((arr - mean) / std).astype(SERIES_DTYPE)
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-d or 2-d array, got ndim={arr.ndim}")
    mean = arr.mean(axis=1, keepdims=True)
    std = arr.std(axis=1, keepdims=True)
    flat = std[:, 0] < epsilon
    std[flat, 0] = 1.0
    out = ((arr - mean) / std).astype(SERIES_DTYPE)
    out[flat] = 0.0
    return out


def is_znormalized(series: np.ndarray, atol: float = 1e-2) -> bool:
    """Check whether ``series`` (1-d or 2-d) is approximately z-normalized."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    means = arr.mean(axis=1)
    stds = arr.std(axis=1)
    # Constant (all-zero after normalization) series are accepted.
    ok_mean = np.abs(means) <= atol
    ok_std = (np.abs(stds - 1.0) <= atol) | (stds <= atol)
    return bool(np.all(ok_mean & ok_std))


class Dataset:
    """A collection of equal-length data series.

    The paper operates on multi-hundred-gigabyte raw files; this reproduction
    serves the collection through :class:`repro.core.storage.SeriesStore`,
    either from an in-memory array or from an attached file backend.

    Attributes
    ----------
    values:
        Array of shape ``(count, length)`` holding one series per row.  For a
        dataset constructed with ``values=None`` and a file backend, this is a
        *lazy* property: geometry (``count``/``length``) comes from the
        backend and the array materializes — through a checksum-verified
        :meth:`SeriesStore.scan <repro.core.storage.SeriesStore.scan>` — only
        when ``values`` itself is touched.  Streamed consumers
        (``scan_chunks`` and friends) never do, which is what keeps the
        compressed backend out-of-core.
    name:
        Human readable dataset name (used by the benchmark harness).
    normalized:
        Whether the rows are z-normalized.  The paper normalizes every dataset
        in advance; the workload generators in :mod:`repro.workloads` do the
        same by default.
    backend:
        Attached storage backend for file-backed datasets
        (``Dataset.from_file``); ``None`` for plain in-memory datasets.  When
        present the dataset pickles by path, not by bytes.
    """

    def __init__(
        self,
        values: np.ndarray | None = None,
        name: str = "dataset",
        normalized: bool = True,
        metadata: dict | None = None,
        backend: object | None = None,
    ) -> None:
        self.name = name
        self.normalized = normalized
        self.metadata = {} if metadata is None else metadata
        self.backend = backend
        if values is None:
            if backend is None:
                raise ValueError("Dataset needs values or a storage backend")
            if backend.length == 0:
                raise ValueError("Dataset series must contain at least one point")
            self._values = None
        else:
            values = np.asarray(values, dtype=SERIES_DTYPE)
            if values.ndim != 2:
                raise ValueError(
                    f"Dataset values must be 2-d (count, length); got ndim={values.ndim}"
                )
            if values.shape[1] == 0:
                raise ValueError("Dataset series must contain at least one point")
            self._values = values

    @property
    def values(self) -> np.ndarray:
        if self._values is not None:
            return self._values
        from .storage import SeriesStore

        values = SeriesStore(self).scan()
        # A live (growable) backend's row count still changes; serve its
        # current values without pinning a stale materialization.
        if not getattr(self.backend, "mutable", False):
            self._values = values
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Dataset(name={self.name!r}, count={self.count}, "
            f"length={self.length}, normalized={self.normalized})"
        )

    # -- basic geometry ----------------------------------------------------
    @property
    def count(self) -> int:
        """Number of series in the collection."""
        if self._values is None:
            return int(self.backend.count)
        return int(self._values.shape[0])

    @property
    def length(self) -> int:
        """Length (dimensionality) of each series."""
        if self._values is None:
            return int(self.backend.length)
        return int(self._values.shape[1])

    @property
    def nbytes(self) -> int:
        """Size of the raw (uncompressed) data in bytes (single precision)."""
        return self.count * self.length * int(np.dtype(SERIES_DTYPE).itemsize)

    @property
    def paper_equivalent_gb(self) -> float:
        """Raw size in gigabytes.

        The paper labels datasets by their on-disk size; the benchmark harness
        uses this property to print comparable labels for the scaled-down
        datasets used here.
        """
        return self.nbytes / float(1024**3)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> np.ndarray:
        return self.values[index]

    def iter_series(self):
        """Iterate over the series in storage order."""
        for row in self.values:
            yield row

    # -- pickling -----------------------------------------------------------
    # File-backed datasets travel by path: the values array is dropped from
    # the pickle and rebuilt lazily from the backend on first use, so shard
    # stores and persisted envelopes never embed (or rematerialize) the raw
    # collection.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        backend = state.get("backend")
        if backend is not None and getattr(backend, "source_path", None) is not None:
            state["_values"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_array(
        cls, values: np.ndarray, name: str = "dataset", normalize: bool = False
    ) -> "Dataset":
        """Build a dataset from an array, optionally z-normalizing each row."""
        arr = np.asarray(values, dtype=SERIES_DTYPE)
        if normalize:
            arr = znormalize(arr)
        return cls(values=arr, name=name, normalized=normalize or is_znormalized(arr))

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        *,
        length: int | None = None,
        name: str | None = None,
        normalized: bool = True,
        mmap: bool = True,
        metadata: dict | None = None,
    ) -> "Dataset":
        """Open a dataset file lazily, without loading the collection.

        ``path`` is a ``.npy`` array file, a headerless raw little-endian
        float32 file (``.f32``/``.raw``/``.bin``, which require ``length``),
        a compressed quantized-block file (``.rcz``, written by
        :meth:`to_compressed`), or a growable store *directory* (created by
        :meth:`to_growable` or live ingest) — opening the latter runs crash
        recovery and attaches a
        :class:`~repro.core.growable.GrowableBackend`.  With ``mmap=True``
        (the default) the returned dataset serves reads lazily through an
        attached backend (:class:`~repro.core.backends.MmapBackend` or
        :class:`~repro.core.backends.CompressedBackend`), so every store built
        on it runs out-of-core; ``mmap=False`` materializes the file into RAM
        (an ordinary in-memory dataset).
        """
        from .backends import CompressedBackend, MmapBackend
        from .quantize import RCZ_SUFFIX

        if Path(path).is_dir():
            from .growable import GrowableBackend

            backend = GrowableBackend(path, length=length)
        elif Path(path).suffix.lower() == RCZ_SUFFIX:
            backend = CompressedBackend(path)
            if length is not None and backend.length != int(length):
                raise ValueError(
                    f"{path}: series length {backend.length} != expected {length}"
                )
        else:
            backend = MmapBackend(path, length=length)
        meta = {
            "source_path": str(Path(path)),
            "format": backend.describe().get("format", backend.kind),
        }
        meta.update(metadata or {})
        dataset = cls(
            values=None,
            name=name or Path(path).stem,
            normalized=normalized,
            metadata=meta,
            backend=backend,
        )
        if mmap:
            return dataset
        return cls(
            values=np.array(dataset.values, dtype=SERIES_DTYPE),
            name=dataset.name,
            normalized=normalized,
            metadata=meta,
        )

    def to_file(self, path: str | Path) -> Path:
        """Write the collection to ``path`` (``.npy``, or raw f32 by suffix)."""
        from .storage import SeriesStore

        path = Path(path)
        with SeriesFileWriter(path, length=self.length) as writer:
            for _, chunk in SeriesStore(self).scan_chunks():
                writer.append(chunk)
        return path

    def to_compressed(
        self,
        path: str | Path,
        *,
        qdtype: str = "int8",
        block_rows: int | None = None,
        compression: str = "zlib",
        level: int = 6,
    ) -> "Dataset":
        """Quantize and compress the collection to a ``.rcz`` file, reopened lazily.

        Series are stored as fixed-``block_rows`` blocks of ``qdtype``
        (``"int8"``/``"int16"``) codes with per-block scale/shift, optionally
        ``compression``-packed (``"zlib"``/``"none"``; ``"lz4"`` when the
        package is installed).  Quantization is lossy relative to *this*
        dataset's float values; the returned dataset's canonical values are
        the deterministic dequantization, and every search on it is exact with
        respect to those stored values.  The conversion streams chunk by
        chunk, so collections larger than RAM convert in bounded memory.
        """
        from .quantize import DEFAULT_BLOCK_ROWS, CompressedFileWriter
        from .storage import SeriesStore

        path = Path(path)
        with CompressedFileWriter(
            path,
            length=self.length,
            qdtype=qdtype,
            block_rows=DEFAULT_BLOCK_ROWS if block_rows is None else int(block_rows),
            compression=compression,
            level=level,
        ) as writer:
            for _, chunk in SeriesStore(self).scan_chunks():
                writer.append(chunk)
        return Dataset.from_file(
            path,
            name=self.name,
            normalized=self.normalized,
            metadata=dict(self.metadata),
        )

    def to_growable(
        self, path: str | Path, *, checkpoint: bool = True
    ) -> "Dataset":
        """Spill the collection into a growable store directory at ``path``.

        Rows are ingested through the WAL (so the written store carries the
        full durability contract from its first byte) and, with
        ``checkpoint=True``, sealed into segment files so the log starts
        empty.  The returned dataset is the store reopened live — extendable
        via :meth:`SeriesStore.extend <repro.core.storage.SeriesStore>`.
        """
        from .growable import GrowableBackend
        from .storage import SeriesStore

        backend = GrowableBackend(path, length=self.length, create=True)
        for _, chunk in SeriesStore(self).scan_chunks():
            backend.extend(chunk)
        if checkpoint:
            backend.checkpoint()
        backend.close()
        return Dataset.from_file(
            path,
            length=self.length,
            name=self.name,
            normalized=self.normalized,
            metadata=dict(self.metadata),
        )

    def to_mmap(self, path: str | Path) -> "Dataset":
        """Spill the collection to ``path`` and reopen it memory-mapped.

        Convenience for serving an already-generated dataset through the mmap
        backend: the returned dataset has the same name, normalization flag,
        and metadata, with ``values`` now a lazy view into the written file.
        """
        self.to_file(path)
        return Dataset.from_file(
            path,
            length=self.length,
            name=self.name,
            normalized=self.normalized,
            metadata=dict(self.metadata),
        )

    def row_sample(self, positions) -> np.ndarray:
        """The rows at ``positions``, read through the backend when attached.

        Used by the persistence fingerprint: for a file-backed dataset only
        the sampled rows are read (no full materialization).
        """
        positions = np.asarray(positions, dtype=np.int64)
        if self.backend is not None:
            return self.backend.take(positions)
        return self.values[positions]

    def sample(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Return ``count`` series sampled without replacement."""
        if count > self.count:
            raise ValueError(
                f"cannot sample {count} series from a dataset of {self.count}"
            )
        rng = rng or np.random.default_rng()
        idx = rng.choice(self.count, size=count, replace=False)
        return self.values[idx].copy()


_NPY_MAGIC = b"\x93NUMPY\x01\x00"
#: fixed preamble size: large enough for any (count, length) digit width, so
#: the placeholder written at open time and the final header written at close
#: time occupy exactly the same bytes and the data offset never moves.
_NPY_PREAMBLE_BYTES = 128


def _npy_preamble(count: int, length: int) -> bytes:
    """A fixed-size ``.npy`` v1 preamble for a ``(count, length)`` f32 array."""
    header = (
        "{'descr': '%s', 'fortran_order': False, 'shape': (%d, %d), }"
        % (np.lib.format.dtype_to_descr(np.dtype(SERIES_DTYPE)), count, length)
    )
    used = len(_NPY_MAGIC) + 2 + len(header) + 1
    if used > _NPY_PREAMBLE_BYTES:  # pragma: no cover - needs absurd shapes
        raise ValueError(f"npy header for shape ({count}, {length}) does not fit")
    header = header + " " * (_NPY_PREAMBLE_BYTES - used) + "\n"
    return _NPY_MAGIC + struct.pack("<H", len(header)) + header.encode("latin1")


class SeriesFileWriter:
    """Streamed dataset-file writer: append chunks, never hold the collection.

    Writes either a standard ``.npy`` file (the shape is patched into a
    fixed-size header on close, so the row count need not be known up front)
    or a headerless raw float32 file (``.f32``/``.raw``/``.bin``).  Workload
    generators use this to synthesize collections larger than RAM chunk by
    chunk::

        with SeriesFileWriter("walks.npy", length=256) as writer:
            for chunk in chunks:          # each (m, 256)
                writer.append(chunk)

    The result is readable by :meth:`Dataset.from_file` (and, for ``.npy``,
    by plain :func:`numpy.load`).

    The writer streams into ``<path>.tmp`` and moves it into place atomically
    on close, so an interrupted run never leaves a truncated file at ``path``
    that parses as valid.  Unless ``checksums=False``, closing also writes a
    ``<path>.crc`` sidecar of per-block CRC-32 digests (see
    :mod:`repro.core.integrity`) that the storage layer verifies reads
    against; the sidecar is chunking-invariant, like the file bytes.
    """

    def __init__(
        self, path: str | Path, length: int | None = None, *, checksums: bool = True
    ) -> None:
        from .integrity import ChecksumAccumulator

        self.path = Path(path)
        self._length = int(length) if length is not None else None
        self._count = 0
        self._is_npy = self.path.suffix.lower() not in RAW_SUFFIXES
        self._crc = ChecksumAccumulator() if checksums else None
        self._tmp_path = unique_tmp_path(self.path)
        self._handle = open(self._tmp_path, "wb")
        if self._is_npy:
            # Placeholder preamble; rewritten with the final count on close.
            self._handle.write(_npy_preamble(0, self._length or 0))

    @property
    def count(self) -> int:
        """Rows written so far."""
        return self._count

    @property
    def length(self) -> int | None:
        return self._length

    def append(self, chunk: np.ndarray) -> int:
        """Write one ``(m, length)`` chunk (or a single 1-d series); returns ``m``."""
        if self._handle is None:
            raise ValueError("writer is closed")
        arr = np.ascontiguousarray(np.atleast_2d(np.asarray(chunk, dtype=SERIES_DTYPE)))
        if arr.ndim != 2:
            raise ValueError(f"chunks must be 2-d (m, length); got ndim={arr.ndim}")
        if arr.shape[1] == 0:
            # An empty chunk (e.g. the last block of an exactly-divided stream)
            # carries no rows and no geometry; writing nothing keeps the file
            # valid instead of poisoning the writer with length 0.
            return 0
        if self._length is None:
            self._length = int(arr.shape[1])
        elif arr.shape[1] != self._length:
            raise ValueError(
                f"chunk length {arr.shape[1]} != writer length {self._length}"
            )
        self._handle.write(arr.tobytes())
        if self._crc is not None:
            self._crc.update(arr)
        self._count += int(arr.shape[0])
        return int(arr.shape[0])

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            if self._is_npy:
                if self._length is None:
                    raise ValueError(
                        "cannot finalize a .npy series file of unknown length; "
                        "pass length= or append at least one chunk"
                    )
                # A zero-row file is valid: the fixed-size preamble records the
                # (0, length) shape and Dataset.from_file loads it back empty.
                self._handle.seek(0)
                self._handle.write(_npy_preamble(self._count, self._length))
        finally:
            handle, self._handle = self._handle, None
            handle.close()
        os.replace(self._tmp_path, self.path)
        if self._crc is not None:
            from .integrity import write_manifest

            write_manifest(
                self.path,
                block_rows=self._crc.block_rows,
                count=self._count,
                length=self._length or 0,
                crcs=self._crc.digests(),
            )

    def abandon(self) -> None:
        """Discard the half-written temp file; the target path is untouched."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        handle.close()
        try:
            os.unlink(self._tmp_path)
        except OSError:
            pass

    def __enter__(self) -> "SeriesFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Abandon the half-written temp without the empty-file finalize error.
            self.abandon()
            return
        self.close()


def write_series_file(
    path: str | Path, chunks, *, length: int | None = None
) -> tuple[int, int]:
    """Stream an iterable of series chunks to ``path``; returns ``(count, length)``."""
    with SeriesFileWriter(path, length=length) as writer:
        for chunk in chunks:
            writer.append(chunk)
        if writer.length is None:
            raise ValueError("no chunks were written and no length was given")
        return writer.count, writer.length
