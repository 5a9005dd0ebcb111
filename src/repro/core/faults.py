"""Deterministic fault injection for chaos-testing the storage stack.

Real deployments of a disk-resident search system see transient I/O errors,
latency spikes, short reads, and flipped bits.  This module makes all of them
*reproducible*: a :class:`FaultPlan` is a small seeded description of how
often each fault fires, and a :class:`FaultInjectingBackend` wraps any
:class:`~repro.core.backends.StorageBackend` (memory/mmap/compressed/growable)
and injects the planned faults into the raw read primitives the whole library
is built on.  Chaos tests drive every scan, build, and sharded path through real
failures and assert that the retry/verification layers above produce either
the byte-identical fault-free answer or a typed error — never silently wrong
results.

Determinism model
-----------------
Every decision hashes ``(seed, fault kind, read site)``:

* **Corruption** is keyed by absolute file-row *region* only — it models
  damage at rest, so the same rows come back corrupted on every read, through
  every fork, for as long as the plan lives.  Integrity verification must
  catch it; retrying cannot.
* **Transient faults** (I/O errors, short reads) are keyed by read site plus
  the backend's *incarnation* — each :meth:`fork` gets a fresh incarnation.
  A faulty site fails a bounded number of consecutive attempts
  (``1..max_failures``) and then succeeds, so bounded in-place retries always
  converge; a re-forked reader (the sharded executor's recovery move)
  re-rolls its faults entirely.
* **Latency spikes** sleep without failing — they exercise deadlines.

Plans come from code (``SeriesStore(..., faults=FaultPlan(...))``), from a
compact spec string (``"seed=7,transient=0.2,latency=0.05"``), or from the
``REPRO_FAULT_PLAN`` environment variable, which applies the plan to every
store the process creates.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, fields, replace
from hashlib import blake2b

import numpy as np

from .backends import StorageBackend
from .integrity import CorruptionError

__all__ = [
    "FAULT_PLAN_ENV",
    "CRASH_POINTS",
    "TransientIOError",
    "FaultPlan",
    "FaultInjectingBackend",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "crash_point",
    "reset_crash_counters",
    "take_kill_budget",
]

#: environment variable holding a fault-plan spec applied to every new store.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: named process-kill sites on the ingest write path (WAL + checkpoint).
#: A plan with ``crash="kill_after_wal_write"`` SIGKILLs the process the
#: ``crash_hit``-th time execution reaches that point — modeling a power cut
#: at exactly that instant.  The crash-recovery harness drives an ingesting
#: child through each of these and asserts that reopening the store restores
#: every acked row bit-exact.
CRASH_POINTS = (
    # after the WAL record is written + fsynced, before the ack returns
    "kill_after_wal_write",
    # after the record bytes are buffered, before flush/fsync (torn tail)
    "kill_before_wal_fsync",
    # mid segment write during checkpoint (orphaned .tmp left behind)
    "kill_mid_checkpoint",
    # segment sealed, manifest not yet updated (orphaned segment file)
    "kill_after_checkpoint_segment",
    # manifest updated, WAL not yet truncated (replay must be idempotent)
    "kill_before_wal_truncate",
)

#: per-process hit counters for crash points.  Module-global (not on the
#: frozen plan) — safe because reaching the configured hit kills the process.
_crash_hits: dict[str, int] = {}
_crash_lock = threading.Lock()


def reset_crash_counters() -> None:
    """Forget crash-point hit counts (test isolation within one process)."""
    with _crash_lock:
        _crash_hits.clear()


def crash_point(plan: "FaultPlan | None", name: str) -> None:
    """SIGKILL the current process if ``plan`` schedules a crash at ``name``.

    The ``crash_hit``-th arrival at the named point dies; earlier arrivals
    pass through.  SIGKILL (not ``sys.exit``) so no ``finally:`` blocks,
    ``atexit`` hooks, or buffered writes soften the crash — exactly what a
    power cut looks like to the files underneath.
    """
    if plan is None or not plan.crash or plan.crash != name:
        return
    with _crash_lock:
        hit = _crash_hits.get(name, 0) + 1
        _crash_hits[name] = hit
    if hit >= int(plan.crash_hit):
        os.kill(os.getpid(), signal.SIGKILL)


def take_kill_budget(plan: "FaultPlan | None") -> bool:
    """Consume one unit of ``plan.kill_worker`` budget; True means "kill".

    Called by the sharded coordinator as it dispatches each process task: the
    first ``kill_worker`` dispatches get a kill flag (the worker SIGKILLs
    itself on arrival), later dispatches — including retries of the killed
    tasks — run normally.  Consuming the budget in the coordinator (not the
    workers) is what makes the fault transient: per-worker counters would die
    with the worker and every retry would be assassinated forever.  Shares the
    crash-point counter table, so :func:`reset_crash_counters` clears it.
    """
    if plan is None or int(plan.kill_worker) <= 0:
        return False
    with _crash_lock:
        spent = _crash_hits.get("kill_worker", 0)
        if spent >= int(plan.kill_worker):
            return False
        _crash_hits["kill_worker"] = spent + 1
    return True


class TransientIOError(IOError):
    """An injected (or detected) transient read failure; retrying may succeed."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of injected storage faults.

    Rates are per *read site* (one distinct read call shape), not per byte:
    ``transient=0.2`` makes roughly one in five read sites fail with a
    :class:`TransientIOError` for its first ``1..max_failures`` attempts.
    """

    seed: int = 0
    #: fraction of read sites that raise :class:`TransientIOError`.
    transient: float = 0.0
    #: fraction of read sites that sleep ``latency_seconds`` before serving.
    latency: float = 0.0
    latency_seconds: float = 0.002
    #: fraction of row-range read sites that return fewer rows than asked.
    truncate: float = 0.0
    #: fraction of file-row regions served with a flipped bit (damage at
    #: rest: the same regions are corrupt on every read and every fork).
    corrupt: float = 0.0
    #: corruption granularity in file rows.
    region_rows: int = 64
    #: a faulty site fails at most this many consecutive attempts.
    max_failures: int = 3
    #: named crash point (one of :data:`CRASH_POINTS`) — SIGKILL the process
    #: on the ``crash_hit``-th arrival.  Empty string disables crashing.
    crash: str = ""
    #: which arrival at the crash point dies (1 = the first).
    crash_hit: int = 1
    #: pretend ``fsync`` succeeded without flushing (a lying disk / volatile
    #: write cache): WAL appends skip flush+fsync, so a SIGKILL genuinely
    #: loses userspace-buffered bytes and recovery sees real torn tails.
    lie_fsync: int = 0
    #: SIGKILL budget for process-executor workers: the first ``kill_worker``
    #: shard tasks dispatched to a process pool assassinate their worker on
    #: arrival.  The budget is consumed coordinator-side (see
    #: :func:`take_kill_budget`), so retried tasks survive — modeling a worker
    #: lost mid-flight, not a poison-pill task.
    kill_worker: int = 0

    def __post_init__(self) -> None:
        for name in ("transient", "latency", "truncate", "corrupt"):
            rate = float(getattr(self, name))
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]; got {rate}")
        if int(self.region_rows) <= 0:
            raise ValueError("region_rows must be positive")
        if int(self.max_failures) <= 0:
            raise ValueError("max_failures must be positive")
        if self.crash and self.crash not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.crash!r}; expected one of {CRASH_POINTS}"
            )
        if int(self.crash_hit) < 1:
            raise ValueError("crash_hit must be at least 1")
        if int(self.kill_worker) < 0:
            raise ValueError("kill_worker must be non-negative")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``"seed=7,transient=0.2,latency=0.05"`` into a plan."""
        plan = cls()
        known = {f.name: f.type for f in fields(cls)}
        updates = {}
        for item in str(spec).split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault-plan item {item!r}; expected key=value")
            key, value = (part.strip() for part in item.split("=", 1))
            if key not in known:
                raise ValueError(
                    f"unknown fault-plan key {key!r}; expected one of {sorted(known)}"
                )
            if key == "crash":
                # "crash=kill_after_wal_write:3" folds the hit count in.
                if ":" in value:
                    value, _, hit = value.partition(":")
                    updates["crash_hit"] = int(hit)
                updates[key] = value.strip()
            elif key in (
                "seed",
                "region_rows",
                "max_failures",
                "crash_hit",
                "lie_fsync",
                "kill_worker",
            ):
                updates[key] = int(value)
            else:
                updates[key] = float(value)
        return replace(plan, **updates)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan described by ``REPRO_FAULT_PLAN``, or ``None`` if unset."""
        spec = os.environ.get(FAULT_PLAN_ENV, "").strip()
        return cls.from_spec(spec) if spec else None

    def describe(self) -> str:
        active = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }
        return "FaultPlan(" + ", ".join(f"{k}={v}" for k, v in active.items()) + ")"

    # -- deterministic rolls ---------------------------------------------------
    def roll(self, *parts) -> float:
        """A uniform [0, 1) value determined by ``(seed, *parts)``."""
        digest = blake2b(repr((self.seed,) + parts).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") / float(2**64)


class _Incarnations:
    """A shared counter handing each forked wrapper a fresh fault context."""

    def __init__(self) -> None:
        self._n = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._n += 1
            return self._n

    def __getstate__(self) -> dict:
        return {"_n": self._n}

    def __setstate__(self, state: dict) -> None:
        self._n = state["_n"]
        self._lock = threading.Lock()


class FaultInjectingBackend(StorageBackend):
    """Wrap any backend and inject the faults a :class:`FaultPlan` describes.

    Read primitives (``read_rows``/``take`` and the compressed backend's
    ``quantized_parts``) pass through the plan; geometry, accounting,
    slicing, and release delegate untouched, so the wrapper is invisible to
    counters.  ``fork()`` wraps a fork of the inner backend under a *new
    incarnation* — transient faults re-roll, which is what lets a re-forked
    shard recover — while ``slice()`` keeps the current incarnation (a shard
    partition is not a retry).
    """

    def __init__(
        self,
        inner: StorageBackend,
        plan: FaultPlan,
        *,
        _incarnations: _Incarnations | None = None,
        _incarnation: int | None = None,
    ) -> None:
        if isinstance(inner, FaultInjectingBackend):
            inner = inner.inner  # never stack injection layers
        self.inner = inner
        self.plan = plan
        self._incarnations = _incarnations or _Incarnations()
        self._incarnation = self._incarnations.next() if _incarnation is None else _incarnation
        self._attempts: dict[tuple, int] = {}
        self._attempts_lock = threading.Lock()

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.inner.kind

    # -- fault machinery -------------------------------------------------------
    def _faulty(self, kind: str, rate: float, site: tuple) -> bool:
        """Deterministically decide whether this site suffers ``kind`` now.

        A faulty site fails its first ``1..max_failures`` attempts within one
        incarnation, then succeeds — bounded retries always converge.
        """
        if rate <= 0.0:
            return False
        key = (kind, self._incarnation) + site
        if self.plan.roll(*key) >= rate:
            return False
        failures = 1 + int(
            self.plan.roll("n", *key) * (self.plan.max_failures - 1) + 0.5
        )
        with self._attempts_lock:
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
        return attempt <= failures

    def _enter(self, op: str, site: tuple) -> None:
        plan = self.plan
        if plan.latency and plan.roll("lat", op, self._incarnation, *site) < plan.latency:
            time.sleep(plan.latency_seconds)
        if self._faulty("io", plan.transient, (op,) + site):
            raise TransientIOError(
                f"injected transient I/O error in {op}{site} "
                f"(plan seed {plan.seed}, incarnation {self._incarnation})"
            )

    def _corrupt(self, data: np.ndarray, first_file_row: int) -> np.ndarray:
        """Flip one bit per planned corrupt *file-row region* inside ``data``.

        Keyed by absolute region only — damage at rest: identical on every
        read, every attempt, and every fork.  The inner read may hand out a
        read-only view; corrupted results are returned as a modified copy.
        """
        plan = self.plan
        if plan.corrupt <= 0.0 or data.ndim != 2 or data.shape[0] == 0:
            return data
        rows = int(data.shape[0])
        region = int(plan.region_rows)
        out = None
        first_region = first_file_row // region
        last_region = (first_file_row + rows - 1) // region
        for r in range(first_region, last_region + 1):
            if plan.roll("rot", r) >= plan.corrupt:
                continue
            if out is None:
                out = np.array(data, copy=True)
            lo = max(0, r * region - first_file_row)
            hi = min(rows, (r + 1) * region - first_file_row)
            bits = out[lo:hi].view(np.uint32)
            bits[:, 0] ^= np.uint32(1 << 13)  # one mantissa bit per row
        return data if out is None else out

    def _file_row(self, view_row: int) -> int:
        return int(view_row) + self.inner.row_offset

    # -- read primitives -------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        # One-shot whole-view materialization (the `scan()` path).  Faulting
        # it would mean copying the entire collection per access; the chaos
        # coverage for scans comes through the chunked/row primitives.
        return self.inner.values

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        site = (int(start), int(stop))
        self._enter("read_rows", site)
        data = self.inner.read_rows(start, stop)
        if self._faulty("cut", self.plan.truncate, ("read_rows",) + site):
            data = data[: max(0, data.shape[0] - max(1, data.shape[0] // 4))]
        return self._corrupt(data, self._file_row(max(0, int(start))))

    def take(self, positions: np.ndarray) -> np.ndarray:
        idx = np.asarray(positions, dtype=np.int64)
        digest = blake2b(idx.tobytes(), digest_size=8).hexdigest()
        site = (int(idx.size), digest)
        self._enter("take", site)
        data = self.inner.take(idx)
        if self._faulty("cut", self.plan.truncate, ("take",) + site):
            data = data[: max(0, data.shape[0] - 1)]
        if self.plan.corrupt and idx.size:
            # Per-row corruption by each row's own file region.
            out = None
            regions = (idx + self.inner.row_offset) // int(self.plan.region_rows)
            for r in np.unique(regions):
                if self.plan.roll("rot", int(r)) >= self.plan.corrupt:
                    continue
                if out is None:
                    out = np.array(data, copy=True)
                mask = (regions == r)[: out.shape[0]]
                bits = out[mask].view(np.uint32)
                bits[:, 0] ^= np.uint32(1 << 13)
                out[mask] = bits.view(np.float32)
            data = data if out is None else out
        return data

    def quantized_parts(self, start: int, stop: int):
        self._enter("quantized_parts", (int(start), int(stop)))
        return self.inner.quantized_parts(start, stop)

    # -- delegation ------------------------------------------------------------
    @property
    def count(self) -> int:
        return self.inner.count

    @property
    def length(self) -> int:
        return self.inner.length

    @property
    def dtype(self) -> np.dtype:
        return self.inner.dtype

    @property
    def source_path(self) -> str | None:
        return self.inner.source_path

    @property
    def row_offset(self) -> int:
        return self.inner.row_offset

    @property
    def supports_quantized_scan(self) -> bool:  # type: ignore[override]
        return self.inner.supports_quantized_scan

    def checksums(self):
        return self.inner.checksums()

    def physical_bytes(self, start: int, stop: int) -> int:
        return self.inner.physical_bytes(start, stop)

    def physical_bytes_for(self, positions: np.ndarray, sizes: np.ndarray | None = None) -> int:
        return self.inner.physical_bytes_for(positions, sizes)

    def release(self, start: int = 0, stop: int | None = None) -> None:
        self.inner.release(start, stop)

    def slice(self, start: int, stop: int) -> "FaultInjectingBackend":
        return FaultInjectingBackend(
            self.inner.slice(start, stop),
            self.plan,
            _incarnations=self._incarnations,
            _incarnation=self._incarnation,
        )

    def fork(self) -> "FaultInjectingBackend":
        return FaultInjectingBackend(
            self.inner.fork(), self.plan, _incarnations=self._incarnations
        )

    def describe(self) -> dict:
        info = self.inner.describe()
        info["faults"] = self.plan.describe()
        return info

    def __getattr__(self, name):
        # Anything not intercepted (e.g. `info`, `quantized_itemsize`)
        # delegates to the wrapped backend.
        return getattr(self.inner, name)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_attempts"] = {}
        state["_attempts_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attempts_lock = threading.Lock()


#: jitter source for retry backoff: a private Generator so backoff never
#: touches (or de-seeds) the interpreter-global RNG stream.  Unseeded by
#: design — jitter only scales sleep delays, never answers — and concurrent
#: draws can at worst degrade jitter quality, which is harmless here.
_JITTER_RNG = np.random.default_rng()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient read faults.

    ``attempts`` counts total tries (1 = no retry).  Delays grow as
    ``base_delay * multiplier**(attempt-1)`` capped at ``max_delay``, with up
    to ``jitter`` of each delay randomized away so synchronized workers
    de-correlate.  :meth:`is_transient` is the permanent/transient split:
    corruption and structural errors (missing files, bad permissions) are
    permanent — re-reading damaged bytes cannot help — while other
    :class:`OSError`/:class:`TimeoutError` failures are worth retrying.
    """

    attempts: int = 4
    base_delay: float = 0.002
    multiplier: float = 2.0
    max_delay: float = 0.1
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if int(self.attempts) < 1:
            raise ValueError("attempts must be at least 1")

    _PERMANENT = (
        CorruptionError,
        FileNotFoundError,
        PermissionError,
        IsADirectoryError,
        NotADirectoryError,
    )

    def is_transient(self, exc: BaseException) -> bool:
        if isinstance(exc, self._PERMANENT):
            return False
        return isinstance(exc, (OSError, TimeoutError))

    def delay_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** max(0, attempt - 1)
        )
        if self.jitter:
            delay *= 1.0 - self.jitter * float(_JITTER_RNG.random())
        return float(delay)


#: the storage layer's default: 4 attempts, 2/4/8 ms backoff with jitter.
DEFAULT_RETRY_POLICY = RetryPolicy()
