"""Parallel execution: worker pools, the shared pruning radius, batch dispatch.

One pipeline, two ways to reach a worker.  The sharded wrapper describes its
work as tasks and hands them to an :class:`Executor`; what the executor
decides is only where a task runs:

* :class:`ThreadExecutor` (``in_process = True``) runs tasks on a persistent
  thread pool in the caller's address space: no serialization, no copy of the
  dataset, and the NumPy kernels every hot path bottoms out in (distance
  tiles, lower-bound batches, FFTs, lexsorts) release the GIL and scale.
  Python-heavy tree descent (iSAX2+/DSTree/SFA-trie node routing) does *not*
  scale on threads — the GIL serializes it.
* :class:`ProcessExecutor` (``in_process = False``) runs the same tasks on a
  persistent warm ``multiprocessing`` pool, so descent scales too; tasks and
  results cross a pickle boundary, and a SIGKILLed worker is survived.

Both hand out the same cross-shard pruning handle, :class:`SharedRadius` —
one cell per in-flight query, owned by the executor (a plain list for
threads, a shared-memory array for processes) — and both report per-task
:class:`TaskOutcome` records from :meth:`Executor.map_outcomes`, so dispatch,
retry, merge and degradation are written once, above this module.

Also here:

* :func:`resolve_workers` — one rule for turning a ``workers=`` argument (or
  the ``REPRO_WORKERS`` environment variable) into a worker count;
* :func:`resolve_executor` — the same for ``executor=`` / ``REPRO_EXECUTOR``;
* :func:`chunk_slices` — deterministic contiguous partitioning shared by the
  shard planner and the inter-query batch chunker;
* :func:`parallel_map` / :func:`parallel_map_outcomes` — ordered thread maps,
  exception-propagating and exception-capturing;
* :func:`parallel_batch_search` — inter-query parallelism over any built
  :class:`~repro.indexes.base.SearchMethod`.

Accounting protocol (applies to every worker spawned here): workers never
mutate shared accounting state.  Each task reads through a *forked* store
(:meth:`~repro.core.storage.SeriesStore.fork` — same dataset, fresh
:class:`~repro.core.stats.AccessCounter`) and returns its counter delta; the
coordinating thread merges the deltas with ``AccessCounter.merge`` after the
join.  Results are always returned in submission order; scheduling never
reorders or changes answers (chunking a batch does change the GEMM tile
shape seen by the flat/MASS vectorized kernels, whose distances may move in
the final ulp — the caveat their batch path already documents).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "DEFAULT_WORKERS_ENV",
    "DEFAULT_EXECUTOR_ENV",
    "DEFAULT_START_METHOD_ENV",
    "EXECUTOR_KINDS",
    "default_workers",
    "resolve_workers",
    "default_executor_kind",
    "resolve_executor",
    "shared_process_executor",
    "shutdown_shared_executors",
    "chunk_slices",
    "parallel_map",
    "TaskOutcome",
    "parallel_map_outcomes",
    "Executor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SharedRadius",
    "parallel_batch_search",
]

#: environment variable overriding the default worker count.
DEFAULT_WORKERS_ENV = "REPRO_WORKERS"

#: environment variable selecting the default executor kind.
DEFAULT_EXECUTOR_ENV = "REPRO_EXECUTOR"

#: environment variable overriding the multiprocessing start method.
DEFAULT_START_METHOD_ENV = "REPRO_MP_START"

#: recognised ``executor=`` / ``REPRO_EXECUTOR`` spellings.
EXECUTOR_KINDS = ("thread", "process")


def default_workers() -> int:
    """Default worker count: ``REPRO_WORKERS`` if set, else the CPU count."""
    override = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
    if override:
        try:
            workers = int(override)
        except ValueError as exc:
            raise ValueError(
                f"{DEFAULT_WORKERS_ENV} must be an integer, got {override!r}"
            ) from exc
        if workers <= 0:
            raise ValueError(
                f"{DEFAULT_WORKERS_ENV} must be positive, got {workers} "
                "(use 1 to force sequential execution)"
            )
        return workers
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a ``workers=`` argument: ``None`` means the environment default."""
    if workers is None:
        return max(1, default_workers())
    count = int(workers)
    if count <= 0:
        raise ValueError("workers must be a positive integer (or None for the default)")
    return count


def chunk_slices(total: int, parts: int) -> list[slice]:
    """Split ``range(total)`` into ``parts`` contiguous, nearly equal slices.

    The first ``total % parts`` slices get one extra element, so the layout is
    a pure function of ``(total, parts)`` — shard boundaries and batch chunks
    are reproducible across runs and worker counts.
    """
    if total <= 0:
        return []
    parts = max(1, min(int(parts), total))
    base, extra = divmod(total, parts)
    slices = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        slices.append(slice(start, stop))
        start = stop
    return slices


def parallel_map(fn: Callable, items: Iterable, workers: int) -> list:
    """Apply ``fn`` to every item on a thread pool, preserving item order.

    With ``workers <= 1`` (or one item) this is a plain loop — zero threading
    overhead and an identical code path, which is what makes ``workers=1`` the
    exact sequential baseline.  Exceptions raised by any worker propagate to
    the caller, like the built-in ``map``.
    """
    work = list(items)
    if workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=min(int(workers), len(work))) as transient:
        return list(transient.map(fn, work))


@dataclass
class TaskOutcome:
    """What happened to one task of a fault-tolerant fan-out.

    Exactly one of three states: ``value`` holds the task's return value on
    success, ``error`` the exception it raised, and ``timed_out`` marks tasks
    that never completed before the fan-out's deadline.
    """

    value: object = None
    error: BaseException | None = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def parallel_map_outcomes(
    fn: Callable,
    items: Iterable,
    workers: int,
    pool: ThreadPoolExecutor | None = None,
    deadline: float | None = None,
) -> list[TaskOutcome]:
    """Fault-tolerant :func:`parallel_map`: capture per-task outcomes in order.

    Unlike :func:`parallel_map`, a task raising does not abort the fan-out —
    its exception is captured in its :class:`TaskOutcome` and every other task
    still runs, which is what lets the sharded executor fail or degrade one
    shard without losing the others' work.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp: tasks not
    finished by then are reported ``timed_out`` (queued tasks are cancelled;
    already-running tasks cannot be interrupted mid-kernel and are left to
    finish in the background, their late results discarded).  Outcomes are a
    consistent snapshot taken at the deadline — a task finishing afterwards
    never mutates what the caller sees.  With ``workers <= 1`` the tasks run
    sequentially and the deadline is checked between tasks.
    """
    work = list(items)
    if workers <= 1 or len(work) <= 1:
        outcomes = []
        for item in work:
            if deadline is not None and time.monotonic() >= deadline and outcomes:
                outcomes.append(TaskOutcome(timed_out=True))
                continue
            try:
                outcomes.append(TaskOutcome(value=fn(item)))
            # repro-lint: disable=no-bare-except -- sanctioned fault-capture
            # seam: the exception rides back typed in TaskOutcome.error for
            # the caller to classify (re-raise, retry, or degrade).
            except Exception as exc:
                outcomes.append(TaskOutcome(error=exc))
        return outcomes

    def run(item) -> TaskOutcome:
        try:
            return TaskOutcome(value=fn(item))
        # repro-lint: disable=no-bare-except -- sanctioned fault-capture
        # seam: same TaskOutcome.error contract as the sequential path.
        except Exception as exc:
            return TaskOutcome(error=exc)

    own: ThreadPoolExecutor | None = None
    executor = pool
    if executor is None:
        own = executor = ThreadPoolExecutor(max_workers=min(int(workers), len(work)))
    try:
        futures = [executor.submit(run, item) for item in work]
        if deadline is None:
            futures_wait(futures)
        else:
            futures_wait(futures, timeout=max(0.0, deadline - time.monotonic()))
            for future in futures:
                future.cancel()
    finally:
        if own is not None:
            # A deadline must not block on stragglers; without one every
            # future is already done and shutdown returns immediately.
            own.shutdown(wait=deadline is None, cancel_futures=True)
    return [
        future.result() if future.done() and not future.cancelled() else TaskOutcome(timed_out=True)
        for future in futures
    ]


class SharedRadius:
    """One query's monotonically tightening best-so-far squared radius.

    Concurrent shard searches publish their local pruning threshold here and
    read the global minimum to prune against answers found by *other* shards.
    The handle names one cell of a slot of cells its executor owns — a plain
    list for in-process workers, a shared-memory ``multiprocessing`` array for
    process workers — and pickles as the cell's index only: a pool worker
    resolves the index against the table its pool initializer installed.

    Updates are lock-guarded and monotone (the value only ever decreases), so
    a stale read is always a *looser* threshold — never incorrect, exactness
    does not depend on the interleaving.  Reads are one list load (atomic
    under the GIL) or one aligned 8-byte load (atomic on every supported
    platform), so the pruning hot path takes no lock.
    """

    __slots__ = ("_cells", "_lock", "index")

    def __init__(self, cells, lock, index: int) -> None:
        self._cells = cells
        self._lock = lock
        self.index = int(index)

    @property
    def value(self) -> float:
        """The current global threshold (squared distance)."""
        return self._cells[self.index]

    def tighten(self, value: float) -> bool:
        """Lower the shared threshold to ``value`` if it improves the current one."""
        cells, index = self._cells, self.index
        if not value < cells[index]:  # cheap lock-free rejection of stale updates
            return False
        with self._lock:
            if value < cells[index]:
                cells[index] = value
                return True
        return False

    def __reduce__(self):
        return _worker_radius, (self.index,)


# --------------------------------------------------------------------------- #
# Executor seam
# --------------------------------------------------------------------------- #

#: worker-process view of the coordinator's shared radius table, installed by
#: the pool initializer (shared ``multiprocessing`` synchronized objects can
#: only travel to children at spawn time, never inside task arguments).
_WORKER_RADIUS_TABLE = None


def _process_worker_init(radius_table, sys_paths: list[str]) -> None:
    """Pool initializer run once in each spawned worker process.

    Stashes the shared radius table in a module global and replays the
    parent's ``sys.path`` so spawned children resolve ``repro`` regardless of
    how the parent acquired it (``PYTHONPATH``, ``sys.path`` edits, editable
    installs).
    """
    global _WORKER_RADIUS_TABLE
    _WORKER_RADIUS_TABLE = radius_table
    for path in reversed(sys_paths):
        if path and path not in sys.path:
            sys.path.insert(0, path)


def _worker_radius(index: int) -> SharedRadius:
    """Unpickle a :class:`SharedRadius` inside a pool worker."""
    table = _WORKER_RADIUS_TABLE
    if table is None:
        raise RuntimeError(
            "a SharedRadius handle only unpickles inside a process-pool worker"
        )
    return SharedRadius(table.get_obj(), table.get_lock(), index)


class Executor:
    """Protocol for the sharded wrapper's fan-out backend.

    Implementations provide a fault-capturing :meth:`map_outcomes` (absolute
    monotonic ``deadline`` semantics identical to
    :func:`parallel_map_outcomes`) and own the cells behind the
    :class:`SharedRadius` handles of the queries in flight.
    """

    kind: str = ""
    #: whether tasks run in the caller's address space.  In-process executors
    #: are handed live objects by reference; the others get picklable plans.
    in_process: bool = True

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        #: registry-shared executors are reused across methods and must not be
        #: closed by any one of them; ``shutdown_shared_executors`` owns those.
        self.shared = False

    def map_outcomes(
        self, fn: Callable, items: Iterable, deadline: float | None = None
    ) -> list[TaskOutcome]:
        raise NotImplementedError

    def acquire_radii(self, count: int) -> list[SharedRadius | None]:
        """One fresh radius (at ``inf``) per query of a fan-out, in query order.

        In-process cells are a new list per call and are never reused, so a
        task that outlives its fan-out's deadline can only ever tighten the
        radius of the query it belongs to.  ``None`` entries (executors with
        a bounded table) mean "no sharing for this query": local-only
        pruning, identical answers.
        """
        cells = [math.inf] * count
        lock = threading.Lock()
        return [SharedRadius(cells, lock, index) for index in range(count)]

    def release_radii(self, radii: list[SharedRadius | None]) -> None:
        """Give back what :meth:`acquire_radii` handed out, once the fan-out returned."""

    def close(self) -> None:
        """Release pooled resources; the executor lazily recreates them on reuse."""


class ThreadExecutor(Executor):
    """The default executor: a lazily created, persistent thread pool.

    Shared memory, zero serialization: NumPy kernels scale, Python-level
    descent does not.  ``workers <= 1`` (or a single task) degenerates to a
    plain loop on the calling thread, which is what makes one worker the
    exact sequential baseline.
    """

    kind = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor | None:
        if self.workers <= 1:
            return None
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=self.workers, thread_name_prefix="repro-shard"
                    )
        return pool

    def map_outcomes(
        self, fn: Callable, items: Iterable, deadline: float | None = None
    ) -> list[TaskOutcome]:
        work = list(items)
        pool = self._ensure_pool() if len(work) > 1 else None
        return parallel_map_outcomes(fn, work, self.workers, pool=pool, deadline=deadline)

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


class ProcessExecutor(Executor):
    """A persistent warm ``multiprocessing`` pool for GIL-free shard work.

    Tasks and results cross a pickle boundary, so callers ship *plans* (method
    name + params + backend path/slice — never raw data) and get counters back
    as deltas.  The pool uses the ``spawn`` start method by default
    (``REPRO_MP_START`` overrides): spawn is fork-safe in threaded parents and
    behaves identically on every platform, at the cost of a one-time interpreter
    + import startup per worker — which is why the pool is persistent and
    worker-side index caches make repeated queries cheap.

    Cross-process pruning uses a fixed table of shared-memory radius slots
    created *before* the pool and handed to workers via the pool initializer
    (``multiprocessing`` synchronized objects cannot ride task arguments).
    Slots are recycled, so a slot released while a task that missed its
    fan-out's deadline is still running is held back until that task has
    finished: a straggler must never tighten the radius of the slot's next
    query.  A SIGKILLed worker surfaces as :class:`BrokenProcessPool` on every
    in-flight future; those tasks are reported as failed outcomes and the
    broken pool is discarded so the next dispatch transparently spawns a
    fresh one (the radius table survives — it belongs to the executor, not
    the pool).
    """

    kind = "process"
    in_process = False

    #: default number of concurrently shareable query radii; overflow queries
    #: silently fall back to local-only pruning (same answers, more work).
    RADIUS_SLOTS = 512

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
        radius_slots: int | None = None,
    ) -> None:
        super().__init__(workers)
        method = (
            start_method
            or os.environ.get(DEFAULT_START_METHOD_ENV, "").strip()
            or "spawn"
        )
        self.start_method = method
        self._ctx = multiprocessing.get_context(method)
        slots = int(radius_slots if radius_slots is not None else self.RADIUS_SLOTS)
        self._radius_table = self._ctx.Array("d", slots)
        self._free_slots = list(range(slots))
        #: tasks still running after their fan-out's deadline, and the slots
        #: released while any of them was: ``(stragglers, slots)`` pairs.
        self._stragglers: list[Future] = []
        self._held_slots: list[tuple[tuple[Future, ...], list[int]]] = []
        self._slot_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- pool lifecycle ----------------------------------------------------- #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=self._ctx,
                        initializer=_process_worker_init,
                        initargs=(self._radius_table, [p for p in sys.path if p]),
                    )
        return pool

    def _discard_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        # Unlike discarding a *broken* pool (whose workers are already dead),
        # a clean close waits: a worker still mid-spawn would otherwise try to
        # attach the radius table's semaphore after the parent unlinked it.
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- dispatch ----------------------------------------------------------- #

    def map_outcomes(
        self, fn: Callable, items: Iterable, deadline: float | None = None
    ) -> list[TaskOutcome]:
        work = list(items)
        if not work:
            return []
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(fn, item) for item in work]
        except BrokenProcessPool:
            # The pool died between dispatches (e.g. a worker was killed while
            # idle); replace it once and resubmit — a second break is reported
            # through the futures below like any mid-flight loss.
            self._discard_pool()
            pool = self._ensure_pool()
            futures = [pool.submit(fn, item) for item in work]
        if deadline is None:
            futures_wait(futures)
        else:
            futures_wait(futures, timeout=max(0.0, deadline - time.monotonic()))
            for future in futures:
                future.cancel()
            with self._slot_lock:
                self._stragglers = [
                    f for f in self._stragglers + futures if not f.done()
                ]
        outcomes: list[TaskOutcome] = []
        broken = False
        for future in futures:
            if not future.done() or future.cancelled():
                outcomes.append(TaskOutcome(timed_out=True))
                continue
            error = future.exception()
            if error is None:
                outcomes.append(TaskOutcome(value=future.result()))
            else:
                broken = broken or isinstance(error, BrokenProcessPool)
                outcomes.append(TaskOutcome(error=error))
        if broken:
            self._discard_pool()
        return outcomes

    # -- shared radius slots ------------------------------------------------ #

    def acquire_radii(self, count: int) -> list[SharedRadius | None]:
        with self._slot_lock:
            self._reclaim_slots()
            free = self._free_slots
            taken = [free.pop() for _ in range(min(count, len(free)))]
        cells, lock = self._radius_table.get_obj(), self._radius_table.get_lock()
        with lock:
            for index in taken:
                cells[index] = math.inf
        radii: list[SharedRadius | None] = [
            SharedRadius(cells, lock, index) for index in taken
        ]
        # Table exhausted: the remaining queries prune locally.
        return radii + [None] * (count - len(taken))

    def release_radii(self, radii: list[SharedRadius | None]) -> None:
        slots = [radius.index for radius in radii if radius is not None]
        with self._slot_lock:
            self._held_slots.append((tuple(self._stragglers), slots))
            self._reclaim_slots()

    def _reclaim_slots(self) -> None:
        """Free held slots whose stragglers have all finished (slot lock held)."""
        held = []
        for stragglers, slots in self._held_slots:
            if any(not future.done() for future in stragglers):
                held.append((stragglers, slots))
            else:
                self._free_slots.extend(slots)
        self._held_slots = held


def default_executor_kind() -> str:
    """Default executor kind: ``REPRO_EXECUTOR`` if set, else ``"thread"``."""
    kind = os.environ.get(DEFAULT_EXECUTOR_ENV, "").strip().lower()
    if not kind:
        return "thread"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"{DEFAULT_EXECUTOR_ENV} must be one of {EXECUTOR_KINDS}, got {kind!r}"
        )
    return kind


#: process executors shared across methods, keyed by (workers, start method).
#: Spawning a pool costs a fresh interpreter + imports per worker, so every
#: method asking for the same shape reuses one warm pool (and its worker-side
#: index caches) instead of respawning.
_SHARED_PROCESS_EXECUTORS: dict[tuple[int, str], ProcessExecutor] = {}
_SHARED_EXECUTORS_LOCK = threading.Lock()


def shared_process_executor(
    workers: int | None = None, start_method: str | None = None
) -> ProcessExecutor:
    """A process executor shared by every caller with the same shape."""
    count = resolve_workers(workers)
    method = (
        start_method
        or os.environ.get(DEFAULT_START_METHOD_ENV, "").strip()
        or "spawn"
    )
    key = (count, method)
    with _SHARED_EXECUTORS_LOCK:
        executor = _SHARED_PROCESS_EXECUTORS.get(key)
        if executor is None:
            executor = ProcessExecutor(count, start_method=method)
            executor.shared = True
            _SHARED_PROCESS_EXECUTORS[key] = executor
    return executor


def shutdown_shared_executors() -> None:
    """Close every registry-shared process executor (benchmarks, test teardown)."""
    with _SHARED_EXECUTORS_LOCK:
        executors = list(_SHARED_PROCESS_EXECUTORS.values())
        _SHARED_PROCESS_EXECUTORS.clear()
    for executor in executors:
        executor.shared = False
        executor.close()


def resolve_executor(
    executor: "str | Executor | None" = None, workers: int | None = None
) -> Executor:
    """Resolve an ``executor=`` argument into an :class:`Executor` instance.

    Accepts an executor instance (returned as-is, caller-owned), a kind string
    (``"thread"`` / ``"process"``), or ``None`` — which defers to the
    ``REPRO_EXECUTOR`` environment variable and defaults to ``"thread"``.
    Process executors come from the shared registry so repeated resolutions
    reuse one warm pool per worker count.
    """
    if isinstance(executor, Executor):
        return executor
    kind = executor.strip().lower() if isinstance(executor, str) else None
    if kind is None:
        kind = default_executor_kind()
    if kind == "thread":
        return ThreadExecutor(workers)
    if kind == "process":
        return shared_process_executor(workers)
    raise ValueError(
        f"unknown executor {executor!r} (expected one of {EXECUTOR_KINDS} or an Executor)"
    )


def parallel_batch_search(method, queries, k: int = 1, workers: int | None = None) -> list:
    """Answer a query batch with inter-query parallelism over ``method``.

    The batch is split into contiguous chunks (one per worker) and each chunk
    runs ``method.knn_exact_batch`` on its own thread with a *forked* store,
    so access accounting is worker-local; the forks are merged into the
    method's counter after the join.  Results come back in query order and
    match the sequential batch call — byte-identically for per-query-loop
    batch paths, to the final ulp for the flat/MASS GEMM kernels (tile-shape
    sensitivity, see :mod:`repro.indexes.sharded`).  Composes with the
    sharded wrapper: each chunk then fans out across shards (inter-query x
    intra-query parallelism).
    """
    import numpy as np

    count = resolve_workers(workers)
    qs = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    total = qs.shape[0]
    if count <= 1 or total <= 1:
        return method.knn_exact_batch(qs, k=k)
    slices = chunk_slices(total, count)

    def run_chunk(chunk: slice):
        reader = method.store.fork()
        with method.execution_context(store=reader):
            results = method.knn_exact_batch(qs[chunk], k=k)
        return results, reader.counter

    outputs = parallel_map(run_chunk, slices, count)
    results: list = []
    counter = method.store.counter
    for chunk_results, chunk_counter in outputs:
        counter.merge(chunk_counter)
        results.extend(chunk_results)
    return results
