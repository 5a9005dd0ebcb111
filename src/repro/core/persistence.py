"""Saving and loading built indexes.

Index construction is the expensive phase for most of the paper's methods, so a
library users would adopt needs a way to build once and reuse the structure
across sessions.  Built methods are serialized together with the fingerprint of
the dataset they were built on; loading verifies the fingerprint so a stale
index is never silently used against different data.

The envelope also records the *storage provenance* of the store the method was
built on — backend kind, source file path, page geometry, and (for the
compressed backend) the quantization parameters — so an index built over a
dataset file can be reloaded with no dataset object at all:
:func:`load_method` reopens the recorded file lazily and re-attaches a store
of the recorded backend kind (mmap or compressed).

The format is Python pickle.  Pickle is appropriate here because indexes are
local artifacts produced and consumed by the same trusted user; never load
index files from untrusted sources.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .integrity import CorruptionError, checksum
from .series import SERIES_DTYPE, Dataset
from .storage import DEFAULT_PAGE_BYTES, SeriesStore

__all__ = [
    "dataset_fingerprint",
    "save_method",
    "load_method",
    "IndexEnvelope",
    "DatasetFileError",
]

#: The one envelope version this build reads and writes.  Version 5 pickles
#: iSAX2+ with the shared ``IsaxTree`` (``method.tree``); a version-4 state
#: would unpickle without it and fail at the first query, so every other
#: version is refused at load.
_FORMAT_VERSION = 5


class DatasetFileError(ValueError):
    """The dataset file recorded in an index envelope is missing or wrong.

    Raised by :func:`load_method` before any backend is constructed, so the
    failure names the recorded file instead of surfacing later as an opaque
    short read.  Carries the offending ``path`` and the recorded backend
    ``kind`` for programmatic handling.
    """

    def __init__(self, message: str, *, path: str = "", kind: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.kind = kind


def dataset_fingerprint(dataset: Dataset) -> str:
    """A stable fingerprint of a dataset's shape and contents.

    Hashes the array shape plus a deterministic sample of rows (first, last,
    and a strided middle selection), which is enough to detect both shape
    changes and content changes without hashing gigabytes.  The sample is read
    through the dataset's storage backend, so fingerprinting a memory-mapped
    collection touches only the sampled rows — never the whole file — and the
    fingerprint is identical across backends (same bytes, same hash).
    """
    digest = hashlib.sha256()
    # Geometry from the dataset, not from `.values` — fingerprinting must not
    # materialize a lazily-backed (mmap/compressed) collection.
    digest.update(str((dataset.count, dataset.length)).encode())
    digest.update(str(np.dtype(SERIES_DTYPE)).encode())
    count = dataset.count
    if count > 0:
        # Degenerate counts (0, 1) must not index with -1: build the sample
        # positions from a set so first == last collapses cleanly.
        positions = sorted({0, count - 1, *range(0, count, max(1, count // 64))})
        sample = np.ascontiguousarray(dataset.row_sample(positions))
        digest.update(sample.tobytes())
    return digest.hexdigest()


@dataclass
class IndexEnvelope:
    """What gets written to disk: the method plus provenance metadata."""

    format_version: int
    method_name: str
    dataset_name: str
    dataset_fingerprint: str
    method_state: bytes
    #: storage provenance: backend kind, source path, page_bytes, geometry
    #: (``SeriesStore.describe_storage``).
    storage: dict = field(default_factory=dict)
    #: CRC-32 of ``method_state``; lets :func:`load_method` refuse a silently
    #: truncated or bit-rotted index file with a typed error instead of
    #: unpickling garbage.
    state_checksum: int = 0

    def summary(self) -> dict:
        info = {
            "method": self.method_name,
            "dataset": self.dataset_name,
            "fingerprint": self.dataset_fingerprint[:12],
            "bytes": len(self.method_state),
        }
        if self.storage:
            info["backend"] = self.storage.get("kind")
            if self.storage.get("source_path"):
                info["source_path"] = self.storage["source_path"]
        return info


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (uniquified tmp + os.replace).

    The same finalize protocol as the data-file writers: a crash at any
    point leaves either the previous complete file or no file — never a
    truncated envelope for ``load_method`` to trip over.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_method(method, path: str | Path) -> IndexEnvelope:
    """Serialize a built method to ``path`` and return the written envelope.

    The file is finalized atomically (tmp + ``os.replace``), so an
    interrupted save never leaves a torn index file behind.
    """
    if not getattr(method, "is_built", False):
        raise ValueError("only built methods can be saved")
    dataset = method.store.dataset
    storage = method.store.describe_storage()
    # The raw data is not stored inside the index file: the store is detached
    # before pickling and re-attached on load (the dataset travels separately,
    # or — for file-backed stores — is reopened from the recorded source path).
    store = method.store
    method.store = None
    try:
        state = pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        method.store = store
    envelope = IndexEnvelope(
        format_version=_FORMAT_VERSION,
        method_name=method.name,
        dataset_name=dataset.name,
        dataset_fingerprint=dataset_fingerprint(dataset),
        method_state=state,
        storage=storage,
        state_checksum=checksum(state),
    )
    _atomic_write_bytes(
        Path(path), pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    )
    return envelope


def _check_dataset_file(source: str, storage: dict) -> None:
    """Validate the recorded dataset file before any backend touches it.

    Existence is checked for every backend kind; for headerless raw-f32 files
    the size is also checked against the recorded row geometry (``.npy`` and
    ``.rcz`` carry self-describing headers their backends validate on open).
    """
    kind = str(storage.get("kind") or "")
    file = Path(source)
    if kind == "growable":
        # The source is a store *directory*; its manifest is the anchor.
        from .growable import MANIFEST_NAME

        if not file.is_dir() or not (file / MANIFEST_NAME).exists():
            raise DatasetFileError(
                f"recorded growable store not found: {source} (no "
                f"{MANIFEST_NAME}); the index is valid but its store "
                "directory moved or was deleted",
                path=str(source),
                kind=kind,
            )
        return
    if not file.is_file():
        raise DatasetFileError(
            f"recorded dataset file not found: {source} (backend {kind!r}); "
            "the index is valid but its data file moved or was deleted",
            path=str(source),
            kind=kind,
        )
    if storage.get("format") == "raw-f32":
        length = int(storage.get("length") or 0)
        stop = storage.get("stop")
        if stop is None:
            stop = int(storage.get("start") or 0) + int(storage.get("count") or 0)
        required = int(stop) * length * np.dtype(SERIES_DTYPE).itemsize
        actual = file.stat().st_size
        if length > 0 and actual < required:
            raise DatasetFileError(
                f"{source}: file holds {actual} bytes but the envelope records "
                f"rows up to {stop} of length {length} ({required} bytes); the "
                f"file was truncated or replaced after the index was saved "
                f"(backend {kind!r})",
                path=str(source),
                kind=kind,
            )


def load_method(
    path: str | Path,
    dataset: Dataset | None = None,
    page_bytes: int | None = None,
    backend=None,
):
    """Load a method saved with :func:`save_method` and re-attach its store.

    ``dataset`` may be omitted when the index was saved over a file-backed
    store: the recorded source path is reopened lazily (memory-mapped) and
    the re-attached store serves reads out-of-core exactly like the one the
    index was built on.  ``page_bytes`` overrides the recorded page geometry
    (it is validated like the :class:`~repro.core.storage.SeriesStore`
    constructor — zero is an error, not "use the default"); ``backend``
    overrides the backend choice (``"memory"``/``"mmap"`` or an instance).

    Raises ``ValueError`` when the file was produced by any other format
    version (indexes are rebuilt, not migrated), the dataset does not match
    the fingerprint recorded at save time, or no dataset is available;
    :class:`DatasetFileError` (a ``ValueError``) when the recorded dataset
    file is missing or smaller than the recorded geometry requires; and
    :class:`~repro.core.integrity.CorruptionError` when the pickled method
    state does not match the checksum recorded at save time (truncated or
    bit-rotted index file).
    """
    if page_bytes is not None and page_bytes <= 0:
        raise ValueError("page_bytes must be positive")
    with open(path, "rb") as handle:
        envelope = pickle.load(handle)
    if not isinstance(envelope, IndexEnvelope):
        raise ValueError("not an index file produced by repro.core.persistence")
    if envelope.format_version != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: index format version {envelope.format_version} is not "
            f"readable by this build (it reads version {_FORMAT_VERSION}); "
            "rebuild and re-save the index"
        )
    recorded = int(envelope.state_checksum)
    actual = checksum(envelope.method_state)
    if actual != recorded:
        raise CorruptionError(
            f"{path}: index state checksum mismatch (expected "
            f"{recorded:#010x}, got {actual:#010x}); the file is "
            "truncated or corrupted — rebuild and re-save the index",
            path=str(path),
            expected=recorded,
            actual=actual,
        )
    storage = envelope.storage
    if dataset is None:
        source = storage.get("source_path")
        if not source:
            raise ValueError(
                "no dataset given and the index file records no source path; "
                "pass the dataset the index was built on"
            )
        _check_dataset_file(source, storage)
        # Reopen exactly the recorded row range: an index built over a slice
        # of the file (e.g. a shard store) must not come back over the whole
        # file — the fingerprint check would reject it.  The backend kind is
        # recorded too, so a compressed index reopens compressed (with its
        # quantization geometry coming from the .rcz header itself).
        from .backends import CompressedBackend, MmapBackend

        if storage.get("kind") == "growable":
            from .growable import GrowableBackend

            # Pin the watermark recorded at save time: rows ingested since
            # then must stay invisible or the fingerprint check would reject
            # the reopened store.
            backend = GrowableBackend(
                source,
                length=storage.get("length"),
                start=storage.get("start", 0),
                stop=storage.get("stop"),
            )
        elif storage.get("kind") == "compressed":
            backend = CompressedBackend(
                source,
                start=storage.get("start", 0),
                stop=storage.get("stop"),
            )
        else:
            backend = MmapBackend(
                source,
                length=storage.get("length"),
                start=storage.get("start", 0),
                stop=storage.get("stop"),
            )
        dataset = Dataset(
            values=None,
            name=envelope.dataset_name,
            metadata={"source_path": str(source), "format": storage.get("format")},
            backend=backend,
        )
    fingerprint = dataset_fingerprint(dataset)
    if fingerprint != envelope.dataset_fingerprint:
        raise ValueError(
            "dataset fingerprint mismatch: the index was built on different data"
        )
    method = pickle.loads(envelope.method_state)
    if page_bytes is None:
        page_bytes = storage.get("page_bytes") or DEFAULT_PAGE_BYTES
    method.store = SeriesStore(dataset, page_bytes=page_bytes, backend=backend)
    return method
