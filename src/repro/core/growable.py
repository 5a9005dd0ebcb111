"""The growable backend: crash-consistent live collections.

Every other backend serves a *frozen* collection; this one grows.  A store
directory holds::

    MANIFEST.json            sealed-segment manifest (atomic rewrite + fsync)
    segment-000000.npy       sealed segments: ordinary .npy files written by
    segment-000000.npy.crc     the atomic SeriesFileWriter, with CRC sidecars
    wal.log                  the write-ahead log (repro.core.wal)

New rows arrive through :meth:`GrowableBackend.extend`: the batch is durably
logged (CRC-framed record, fsync before the ack returns) and then becomes
readable from an in-memory *tail buffer* — an append-only list of immutable
row chunks (one :class:`~repro.core.backends.MemoryBackend` each), never
reallocated, so concurrent snapshot readers are safe without copying.
:meth:`checkpoint` drains the tail into a sealed segment file via the
existing atomic writers and truncates the log; between checkpoints the WAL
bounds what recovery has to replay.

Recovery-on-open replays the WAL, skips records already sealed (a checkpoint
that died before truncating), discards a torn tail, sweeps orphaned ``*.tmp``
and unmanifested segment files, and reports all of it as a
:class:`~repro.core.wal.RecoveryReport` — never an exception for clean crash
debris.  The invariant the crash harness enforces: after SIGKILL at *any*
point, reopening restores an exact prefix of the acked row sequence at a
record boundary, containing at least every acked row (bit-exact).

Snapshot semantics: rows are immutable once acked and the row count only
grows, so a zero-copy :meth:`slice` with a pinned ``stop`` *is* a consistent
snapshot — :meth:`SeriesStore.snapshot <repro.core.storage.SeriesStore>`
pins the current watermark and queries against it are byte-identical to
querying a frozen store of that prefix, no matter how many ``extend`` calls
land mid-query.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
from pathlib import Path

import numpy as np

from .backends import MemoryBackend, MmapBackend, StorageBackend
from .integrity import CorruptionError, verify_row_range
from .series import SERIES_DTYPE, SeriesFileWriter
from .wal import RecoveryReport, WriteAheadLog

__all__ = [
    "GrowableBackend",
    "MANIFEST_NAME",
    "WAL_NAME",
    "is_growable_dir",
    "sweep_orphaned_tmp",
]

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
_MANIFEST_FORMAT = "repro-growable"
_MANIFEST_VERSION = 1
_SEGMENT_PREFIX = "segment-"


def is_growable_dir(path) -> bool:
    """Whether ``path`` is (or could be opened as) a growable store directory."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).exists()


def sweep_orphaned_tmp(directory, *, before: float | None = None) -> list[str]:
    """Unlink orphaned ``*.tmp`` files in ``directory``; returns their names.

    Writers stream into uniquified ``<name>.<pid>-<token>.tmp`` files and
    rename into place, so any ``*.tmp`` older than the current open belongs
    to a writer that died before ``abandon()`` could run.  ``before`` (a
    timestamp) protects files modified at or after the sweep started — a
    concurrently *live* writer's temp file is never mistaken for a dead one.
    """
    swept: list[str] = []
    directory = Path(directory)
    if not directory.is_dir():
        return swept
    for tmp in sorted(directory.glob("*.tmp")):
        try:
            if before is not None and tmp.stat().st_mtime >= before:
                continue
            tmp.unlink()
        except OSError:
            continue
        swept.append(tmp.name)
    return swept


class _Layout:
    """An immutable point-in-time view of the store's physical layout.

    One list of pieces — the sealed segments, then the tail chunks — each
    itself immutable, so reads proceed lock-free over whichever layout they
    picked up."""

    __slots__ = ("pieces", "bounds")

    def __init__(self, pieces: list[StorageBackend]) -> None:
        self.pieces = pieces
        self.bounds = np.zeros(len(pieces) + 1, dtype=np.int64)  # absolute rows
        self.bounds[1:] = np.cumsum([piece.count for piece in pieces])

    def spans(self, lo: int, hi: int):
        """``(piece, start, stop)`` for every piece overlapping absolute rows
        ``[lo, hi)``, in piece-relative coordinates."""
        for j, piece in enumerate(self.pieces):
            p0, p1 = int(self.bounds[j]), int(self.bounds[j + 1])
            if p0 < hi and p1 > lo:
                yield piece, max(lo, p0) - p0, min(hi, p1) - p0


class _GrowableState:
    """The shared mutable core every view of one store directory reads through."""

    def __init__(
        self,
        root: Path,
        length: int,
        wal: WriteAheadLog,
        segments: list[MmapBackend],
        tail_chunks: list[MemoryBackend],
        report: RecoveryReport,
        plan,
        read_only: bool,
    ) -> None:
        self.root = root
        self.length = length
        self.wal = wal
        self.segments = segments
        self.tail_chunks = tail_chunks
        self.report = report
        self.plan = plan
        self.read_only = read_only
        self.lock = threading.RLock()
        self.publish()

    def publish(self) -> None:
        """Replace the layout readers see; called under the lock after every
        change to the pieces, so a read never re-derives the bounds."""
        self.layout = _Layout(self.segments + self.tail_chunks)

    @property
    def sealed_rows(self) -> int:
        return sum(int(seg.count) for seg in self.segments)

    @property
    def total_rows(self) -> int:
        return int(self.layout.bounds[-1])


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` durably: unique tmp, fsync, rename, fsync dir."""
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    )
    with open(tmp, "wb") as handle:
        handle.write(json.dumps(payload, indent=1).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_path(path.parent)


class GrowableBackend(StorageBackend):
    """Chunked segment files + a WAL-backed tail buffer, behind the backend seam.

    Parameters
    ----------
    root:
        The store directory.  ``create=True`` initializes an empty store
        (requires ``length``); otherwise the directory must hold a manifest,
        and opening *is* recovery — see :attr:`recovery`.
    length:
        Series length; mandatory when creating, validated when opening.
    start / stop:
        Optional pinned row range making this view a zero-copy slice (and,
        with a pinned ``stop``, a consistent snapshot).  The live view
        (``start=0``, ``stop=None``) tracks the committed row count as it
        grows and is the only view that accepts :meth:`extend`.

    Views of one open share a single :class:`_GrowableState`; reads take its
    current published layout and run lock-free over immutable pieces.
    Pickling pins the current watermark and reopens read-only on unpickle
    (no sweeping, no WAL repair), which is the cross-process reader contract.
    """

    kind = "growable"

    def __init__(
        self,
        root: str | Path,
        *,
        length: int | None = None,
        create: bool = False,
        start: int = 0,
        stop: int | None = None,
        plan=None,
        read_only: bool = False,
        _state: _GrowableState | None = None,
    ) -> None:
        if _state is None:
            _state = _open_state(
                Path(root), length=length, create=create, plan=plan,
                read_only=read_only,
            )
        self._state = _state
        self._start = int(start)
        self._stop = int(stop) if stop is not None else None
        total = self._state.total_rows
        effective = total if self._stop is None else self._stop
        if not (0 <= self._start <= effective <= total):
            raise ValueError(
                f"row range [{self._start}, {effective}) out of bounds for "
                f"{total} rows"
            )

    # -- geometry --------------------------------------------------------------
    @property
    def mutable(self) -> bool:
        """Whether this view's row count can still change (the live view)."""
        return self._stop is None and not self._state.read_only

    @property
    def recovery(self) -> RecoveryReport:
        """What opening this store found and repaired."""
        return self._state.report

    @property
    def root(self) -> Path:
        return self._state.root

    @property
    def count(self) -> int:
        stop = self._state.total_rows if self._stop is None else self._stop
        return max(0, stop - self._start)

    @property
    def length(self) -> int:
        return self._state.length

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(SERIES_DTYPE)

    @property
    def source_path(self) -> str | None:
        return str(self._state.root)

    @property
    def row_offset(self) -> int:
        return self._start

    @property
    def watermark(self) -> int:
        """The committed (acked-durable) row count right now, store-absolute."""
        return self._state.total_rows

    # -- reads -----------------------------------------------------------------
    def _bounds(self) -> tuple[int, int, _Layout]:
        layout = self._state.layout
        stop = int(layout.bounds[-1]) if self._stop is None else self._stop
        return self._start, stop, layout

    def _gather(self, lo: int, hi: int, layout: _Layout) -> np.ndarray:
        """Rows ``[lo, hi)`` in absolute coordinates; zero-copy when one piece."""
        if hi <= lo:
            return np.empty((0, self.length), dtype=SERIES_DTYPE)
        parts = [piece.read_rows(a, b) for piece, a, b in layout.spans(lo, hi)]
        if len(parts) == 1:
            return parts[0]
        out = np.concatenate(parts, axis=0)
        out.setflags(write=False)
        return out

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        lo, hi, layout = self._bounds()
        a = lo + max(0, int(start))
        b = min(lo + int(stop), hi)
        return self._gather(a, b, layout)

    def take(self, positions: np.ndarray) -> np.ndarray:
        lo, hi, layout = self._bounds()
        idx = np.asarray(positions, dtype=np.int64)
        absolute = idx + lo
        if absolute.size and (absolute.min() < lo or absolute.max() >= hi):
            raise IndexError(
                f"positions out of range for view of {hi - lo} rows"
            )
        out = np.empty((absolute.size, self.length), dtype=SERIES_DTYPE)
        which = np.searchsorted(layout.bounds, absolute, side="right") - 1
        for j in np.unique(which):
            mask = which == j
            out[mask] = layout.pieces[j].take(absolute[mask] - layout.bounds[j])
        out.setflags(write=False)
        return out

    def set_fault_plan(self, plan) -> None:
        """Route the write path (WAL appends, checkpoints) through ``plan``.

        Read-side fault injection wraps the backend from the outside
        (:class:`~repro.core.faults.FaultInjectingBackend`); the write path's
        crash points live *inside* the WAL/checkpoint sequence, so the store
        hands the plan down here when it wraps a growable backend.
        """
        self._state.plan = plan
        self._state.wal.plan = plan

    # -- writes ----------------------------------------------------------------
    def _require_live(self, op: str) -> None:
        if self._state.read_only:
            raise ValueError(f"cannot {op}: store opened read-only")
        if self._stop is not None or self._start != 0:
            raise ValueError(
                f"cannot {op} through a slice/snapshot view; use the live store"
            )

    def extend(self, rows: np.ndarray) -> int:
        """Durably append ``rows``; returns the new committed row count.

        The rows are acked — WAL record written *and fsynced* — before they
        become readable, so a reader can never observe rows that a crash
        could take back.  The tail chunk is frozen and appended (never
        reallocated); snapshot readers holding older layouts are unaffected.
        """
        self._require_live("extend")
        data = np.ascontiguousarray(np.atleast_2d(rows), dtype=SERIES_DTYPE)
        if data.ndim != 2 or data.shape[1] != self.length:
            raise ValueError(
                f"extend rows must be (m, {self.length}); got {data.shape}"
            )
        if data.shape[0] == 0:
            return self._state.total_rows
        state = self._state
        with state.lock:
            start_row = state.total_rows
            state.wal.append(data, start_row)
            state.tail_chunks.append(MemoryBackend(data))
            state.publish()
            return start_row + int(data.shape[0])

    def checkpoint(self) -> int:
        """Seal the tail buffer into a segment file and truncate the WAL.

        Returns the number of rows sealed (0 when the tail is empty).  The
        sequence — write segment, fsync it, update manifest, fsync, truncate
        WAL — is crash-consistent at every point: replay skips records whose
        rows are already sealed, and sweep-on-open removes debris from
        crashes before the manifest update.
        """
        from .faults import crash_point

        self._require_live("checkpoint")
        state = self._state
        with state.lock:
            if not state.tail_chunks:
                return 0
            tail = list(state.tail_chunks)
            rows = int(sum(c.count for c in tail))
            name = f"{_SEGMENT_PREFIX}{len(state.segments):06d}.npy"
            path = state.root / name
            writer = SeriesFileWriter(path, length=state.length)
            try:
                mid = len(tail) // 2 if len(tail) > 1 else 0
                for chunk in tail[:mid]:
                    writer.append(chunk.values)
                crash_point(state.plan, "kill_mid_checkpoint")
                for chunk in tail[mid:]:
                    writer.append(chunk.values)
            except BaseException:
                writer.abandon()
                raise
            writer.close()
            _fsync_path(path)
            _fsync_path(state.root)
            crash_point(state.plan, "kill_after_checkpoint_segment")
            segment = MmapBackend(path, length=state.length)
            if int(segment.count) != rows:  # pragma: no cover - writer bug guard
                raise CorruptionError(
                    f"{path}: sealed {segment.count} rows, expected {rows}"
                )
            state.segments.append(segment)
            state.tail_chunks.clear()
            state.publish()
            _write_store_manifest(state)
            crash_point(state.plan, "kill_before_wal_truncate")
            state.wal.truncate()
            return rows

    # -- integrity -------------------------------------------------------------
    def verify_segments(self) -> int:
        """Verify every sealed segment against its CRC sidecar; returns rows checked.

        Raises :class:`~repro.core.integrity.CorruptionError` on damage.  The
        tail buffer needs no verification — its rows were CRC-checked when
        the WAL was replayed (or written by this very process).
        """
        checked = 0
        for seg in list(self._state.segments):
            manifest = seg.checksums()
            if manifest is None:
                raise CorruptionError(
                    f"{seg.source_path}: sealed segment has no .crc sidecar"
                )
            verify_row_range(
                manifest, 0, int(seg.count), 0, int(seg.count), seg.read_rows
            )
            checked += int(seg.count)
        return checked

    def checksums(self):
        # Segments carry their own sidecars (verify_segments); the composite
        # view spans files and has no single manifest.
        return None

    # -- structure -------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "GrowableBackend":
        if not (0 <= start <= stop <= self.count):
            raise ValueError(
                f"slice [{start}, {stop}) out of bounds for {self.count} rows"
            )
        return GrowableBackend(
            self._state.root,
            start=self._start + start,
            stop=self._start + stop,
            _state=self._state,
        )

    def fork(self) -> "GrowableBackend":
        return GrowableBackend(
            self._state.root,
            start=self._start,
            stop=self._stop,
            _state=self._state,
        )

    def release(self, start: int = 0, stop: int | None = None) -> None:
        super().release(start, stop)
        lo, hi, layout = self._bounds()
        a = lo + max(0, int(start))
        b = hi if stop is None else min(lo + int(stop), hi)
        for piece, p0, p1 in layout.spans(a, b):
            piece.release(p0, p1)

    def close(self) -> None:
        """Release the WAL append handle (reopened on the next extend)."""
        self._state.wal.close()

    def describe(self) -> dict:
        state = self._state
        info = super().describe()
        info.update(
            start=self._start,
            stop=self._stop if self._stop is not None else state.total_rows,
            sealed_rows=state.sealed_rows,
            segments=[
                {"file": Path(seg.source_path).name, "rows": int(seg.count)}
                for seg in state.segments
            ],
            wal_bytes=int(state.wal.size_bytes),
            watermark=state.total_rows,
        )
        return info

    # -- pickling --------------------------------------------------------------
    def __getstate__(self) -> dict:
        lo, hi, _ = self._bounds()
        return {
            "root": str(self._state.root),
            "length": self._state.length,
            "start": lo,
            "stop": hi,  # pin the watermark: unpickled readers see a snapshot
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["root"],
            length=state["length"],
            start=state["start"],
            stop=state["stop"],
            read_only=True,
        )


def _write_store_manifest(state: _GrowableState) -> None:
    _atomic_write_json(
        state.root / MANIFEST_NAME,
        {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "length": state.length,
            "segments": [
                {"file": Path(seg.source_path).name, "rows": int(seg.count)}
                for seg in state.segments
            ],
        },
    )


def _open_state(
    root: Path,
    *,
    length: int | None,
    create: bool,
    plan,
    read_only: bool,
) -> _GrowableState:
    """Open (= recover) or create the shared state for a store directory."""
    import time

    report = RecoveryReport()
    manifest_path = root / MANIFEST_NAME
    if not root.exists():
        if not create:
            raise FileNotFoundError(f"growable store not found: {root}")
        root.mkdir(parents=True, exist_ok=True)
    elif not root.is_dir():
        raise NotADirectoryError(f"growable store root is not a directory: {root}")

    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise CorruptionError(
                f"{manifest_path}: unreadable store manifest ({exc})"
            ) from exc
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise CorruptionError(f"{manifest_path}: not a growable store manifest")
        if int(manifest.get("version", 0)) != _MANIFEST_VERSION:
            raise CorruptionError(
                f"{manifest_path}: unsupported manifest version "
                f"{manifest.get('version')}"
            )
        stored_length = int(manifest["length"])
        if length is not None and int(length) != stored_length:
            raise ValueError(
                f"{root}: series length {stored_length} != expected {length}"
            )
        length = stored_length
    else:
        if not create:
            raise FileNotFoundError(
                f"{root}: no {MANIFEST_NAME}; not a growable store "
                "(pass create=True to initialize one)"
            )
        if length is None:
            raise ValueError("creating a growable store requires length=")
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "length": int(length),
            "segments": [],
        }
        if not read_only:
            _atomic_write_json(manifest_path, manifest)
    length = int(length)

    # Crash-debris sweep (the owning open only): orphaned temp files from
    # writers that died before abandon(), and sealed-but-unmanifested
    # segments from a crash between segment seal and manifest update (their
    # rows are still in the WAL, so deleting the file loses nothing).
    listed = [dict(entry) for entry in manifest.get("segments", [])]
    listed_names = {entry["file"] for entry in listed}
    if not read_only:
        # repro-lint: disable=no-wall-clock -- the sweep compares file
        # *mtimes*, which are civil-clock values; perf_counter has no epoch.
        report.swept_tmp = sweep_orphaned_tmp(root, before=time.time())
        for orphan in sorted(root.glob(f"{_SEGMENT_PREFIX}*.npy")):
            if orphan.name in listed_names:
                continue
            try:
                orphan.unlink()
                Path(str(orphan) + ".crc").unlink(missing_ok=True)
            except OSError:
                continue
            report.swept_segments.append(orphan.name)

    segments: list[MmapBackend] = []
    for entry in listed:
        seg_path = root / entry["file"]
        try:
            segment = MmapBackend(seg_path, length=length)
        except FileNotFoundError:
            raise CorruptionError(
                f"{seg_path}: segment listed in the manifest is missing"
            ) from None
        if int(segment.count) != int(entry["rows"]):
            raise CorruptionError(
                f"{seg_path}: segment holds {segment.count} rows, manifest "
                f"says {entry['rows']}"
            )
        segments.append(segment)
    sealed = sum(int(seg.count) for seg in segments)
    report.sealed_rows = sealed

    wal = WriteAheadLog(root / WAL_NAME, length, plan=plan)
    records, wal_report = wal.replay(repair=not read_only)
    report.torn_bytes = wal_report.torn_bytes
    report.torn_reason = wal_report.torn_reason

    tail_chunks: list[MemoryBackend] = []
    expected = sealed
    for start_row, rows in records:
        end = start_row + int(rows.shape[0])
        if end <= sealed:
            # Already sealed into a segment: a checkpoint completed but the
            # process died before truncating the log.  Replay is idempotent.
            report.skipped_records += 1
            continue
        if start_row != expected:
            raise CorruptionError(
                f"{root}: WAL record starts at row {start_row}, expected "
                f"{expected}; the log and segments disagree"
            )
        tail_chunks.append(MemoryBackend(rows))
        expected = end
    report.replayed_records = len(records) - report.skipped_records
    report.replayed_rows = expected - sealed

    return _GrowableState(
        root=root,
        length=length,
        wal=wal,
        segments=segments,
        tail_chunks=tail_chunks,
        report=report,
        plan=plan,
        read_only=read_only,
    )
