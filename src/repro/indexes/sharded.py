"""Parallel sharded execution: any method, partitioned and run on all cores.

:class:`ShardedMethod` splits a :class:`~repro.core.storage.SeriesStore` into
``shards`` contiguous partitions, builds one instance of any registered
:class:`~repro.indexes.base.SearchMethod` per partition (concurrently), and
answers queries by fanning out over the shards on a pluggable
:class:`~repro.core.parallel.Executor`:

* **thread mode** (the default): shards run on a persistent thread pool in
  shared memory — zero serialization, and NumPy kernels that release the GIL
  scale across cores.  Python-heavy tree descent does not (the GIL serializes
  it), which is what process mode exists for.
* **process mode** (``executor="process"`` / ``REPRO_EXECUTOR=process``):
  shards run on a persistent warm process pool.  Tasks ship *plans* — method
  name + params + a picklable backend handle (path + row range), never raw
  data; in-memory collections are spilled once to a temporary ``.npy`` and
  shipped as mmap slices of the spill.  Each worker process rebuilds (or
  reuses, via a per-worker cache keyed by dataset fingerprint + shard slice +
  method signature) its shard's index, and returns answers plus
  :class:`~repro.core.stats.AccessCounter` / ``QueryStats`` deltas for
  post-join merging.

Query semantics are executor-independent:

* **k-NN**: every shard searches its partition; shards publish their local
  best-so-far into a shared monotone radius — an in-process
  :class:`~repro.core.parallel.SharedRadius` on threads, a shared-memory
  :class:`~repro.core.parallel.ProcessSharedRadius` slot on processes — that
  the other shards read to prune harder.  The per-shard
  :class:`~repro.core.answers.KnnAnswerSet` results are merged with the
  deterministic ``(distance, position)`` tie-break, so the merged answers are
  **byte-identical** to running the unsharded method — and identical for any
  worker count and either executor, including ``workers=1``.
* **batch k-NN**: the query batch is chunked and every (shard, chunk) pair is
  one task, so inter-query and intra-query parallelism compose; each query
  carries its own shared radius across shards, and shards with a vectorized
  batch path (flat, MASS) keep it per shard.  (For those two GEMM-based batch
  kernels the *distances* may differ from the unsharded batch call in the
  final ulp — BLAS blocking depends on tile shape — exactly the caveat the
  batch API already carries relative to per-query search; both executors use
  the same chunk layout, so thread and process answers stay byte-identical to
  each other.)
* **range / epsilon queries**: same fan-out, with concatenated match lists
  (range) or merged bounded answer sets (the M-tree's epsilon search).

Accounting follows the library's per-worker protocol: every task reads
through a *forked* shard store (fresh counter) — in process mode the fork
crosses a pickle boundary and its counter delta rides back in the task result
— and the coordinating thread merges the counters after the join, so
per-query stats are the exact sum of the per-shard stats in both modes.

The wrapper is itself a :class:`SearchMethod`, registered under the name
prefix ``"sharded:<inner>"`` (e.g. ``create_method("sharded:isax2+", store,
shards=4, workers=4, leaf_capacity=100)``), so engines, runners, benchmarks,
and persistence treat it like any other method.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core.answers import KnnAnswerSet, Neighbor, RangeAnswerSet
from ..core.faults import take_kill_budget
from ..core.integrity import CorruptionError
from ..core.parallel import (
    Executor,
    ProcessSharedRadius,
    SharedRadius,
    TaskOutcome,
    chunk_slices,
    resolve_executor,
    resolve_workers,
)
from ..core.queries import KnnQuery
from ..core.stats import QueryStats
from ..core.storage import SeriesStore
from .base import SearchMethod, SearchResult

__all__ = ["ShardedMethod", "SharedKnnAnswerSet"]


class SharedKnnAnswerSet(KnnAnswerSet):
    """A k-NN answer set whose pruning threshold is tightened across shards.

    The *content* of the set is purely local (each shard keeps its own top-k),
    but the :attr:`worst_squared_distance` read by the shard's pruning logic
    is the minimum of the local threshold and the shared radius — any object
    with the :class:`~repro.core.parallel.SharedRadius` ``value``/``tighten``
    API, including its shared-memory process variant.  The shared value is an
    upper bound on the final merged k-th distance, so pruning against it never
    discards a merged-top-k candidate; it only skips work another shard has
    already made redundant.  Admissions publish the local threshold back.
    """

    def __init__(self, k: int, shared) -> None:
        super().__init__(k)
        self._shared = shared

    @property
    def worst_squared_distance(self) -> float:
        local = KnnAnswerSet.worst_squared_distance.fget(self)
        return min(local, self._shared.value)

    def offer(self, position: int, squared_distance: float) -> bool:
        admitted = super().offer(position, squared_distance)
        if admitted:
            local = KnnAnswerSet.worst_squared_distance.fget(self)
            if local < float("inf"):
                self._shared.tighten(local)
        return admitted


@dataclass
class _Shard:
    """One partition: its global row range, its store, and its inner method."""

    index: int
    offset: int
    store: SeriesStore | None
    method: SearchMethod
    #: rows the shard indexes, ``[offset, offset + rows)``: what a detached
    #: shard (persistence drops the stores) is re-attached on.  Negative in
    #: index files saved before the count was recorded.
    rows: int = -1
    #: worker-cache key for process dispatch; ``None`` until first computed,
    #: reset whenever the shard's rows change (extend/repartition/re-attach).
    task_key: tuple | None = None


# --------------------------------------------------------------------------- #
# Process-mode shard tasks (coordinator side builds them, workers execute)
# --------------------------------------------------------------------------- #


@dataclass
class _ShardTask:
    """A picklable shard task plan: what to run, over which bytes.

    Ships a method name + params + a by-path store handle — never raw data —
    plus the operation payload (query arrays, k, shared-radius slot indices).
    ``key`` identifies the shard's built index in the per-worker cache;
    ``kill`` is the fault-injection flag consumed from the coordinator-side
    ``kill_worker`` budget (the worker SIGKILLs itself on arrival).
    """

    key: tuple
    store: SeriesStore
    method_name: str
    params: dict
    op: str
    payload: dict = field(default_factory=dict)
    kill: bool = False
    #: force a rebuild even on a warm cache.  Explicit ``build()`` tasks set
    #: this so build accounting is executor-independent (a build the user asked
    #: for always reads and charges its data); query tasks leave it off and
    #: reuse whatever the worker already built.
    fresh: bool = False


#: per-worker-process cache of built shard indexes.  Keyed by
#: (content fingerprint, shard row range, method name, params signature), so
#: repeated queries against an unchanged shard reuse the built index and only
#: the first task per (worker, shard) pays the build.  LRU-bounded so long
#: sweeps over many collections don't accumulate every index ever built.
_WORKER_METHODS: "OrderedDict[tuple, SearchMethod]" = OrderedDict()
_WORKER_CACHE_LIMIT = 32


def _params_signature(params: dict) -> tuple:
    return tuple(sorted((key, repr(value)) for key, value in params.items()))


def _content_key(store: SeriesStore) -> str:
    """Fingerprint of a shard's bytes: geometry + a deterministic row sample.

    Reads through the *unwrapped* backend so fault injection (transients,
    corruption) cannot destabilize cache keys — the key names bytes at rest,
    not what a faulty read happens to return.
    """
    backend = store.backend
    inner = getattr(backend, "inner", backend)
    digest = hashlib.sha256()
    count = int(store.count)
    digest.update(repr((count, int(store.length), str(inner.dtype))).encode())
    if count:
        positions = sorted({0, count - 1, *range(0, count, max(1, count // 64))})
        rows = inner.take(np.asarray(positions, dtype=np.int64))
        digest.update(np.ascontiguousarray(rows).tobytes())
    return digest.hexdigest()


def _slot_answer_factory(slots: list):
    """Answer-set factory wiring shared-radius slots to queries, in order.

    Mirrors the thread path's radius factory, including the contract check:
    ``_batch_answer_sets`` implementations must create exactly one answer set
    per query, in query order — violations raise rather than silently
    crossing radii between queries.  ``None`` slots (slot-table overflow, or
    no executor sharing) get a plain local answer set: less cross-shard
    pruning, identical answers.
    """
    pending = iter(slots)

    def factory(k: int) -> KnnAnswerSet:
        try:
            slot = next(pending)
        except StopIteration:
            raise RuntimeError(
                "_batch_answer_sets created more answer sets than "
                "queries; implementations must create exactly one "
                "answer set per query, in query order"
            ) from None
        if slot is None:
            return KnnAnswerSet(k)
        return SharedKnnAnswerSet(k, ProcessSharedRadius(slot))

    return factory


def _method_blob(method: SearchMethod) -> bytes:
    """Pickle a built method with its store detached (no raw data in transit)."""
    base_store = method._base_store
    method._base_store = None
    try:
        return pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        method._base_store = base_store


def _worker_method(task: _ShardTask) -> SearchMethod:
    """The (cached) built index for ``task``'s shard, bound to the task store.

    Cache hits rebind the cached method to the task's store — each task ships
    a fresh fork (fresh counter, fresh fault incarnation), so retried tasks
    re-roll transient faults exactly like thread-mode re-forks.
    """
    method = None if task.fresh else _WORKER_METHODS.get(task.key)
    if method is None:
        from ..core.registry import create_method

        method = create_method(task.method_name, task.store, **task.params)
        method.build()
        _WORKER_METHODS[task.key] = method
        _WORKER_METHODS.move_to_end(task.key)
        while len(_WORKER_METHODS) > _WORKER_CACHE_LIMIT:
            _WORKER_METHODS.popitem(last=False)
    else:
        _WORKER_METHODS.move_to_end(task.key)
        method.store = task.store
    return method


def _execute_shard_task(task: _ShardTask):
    """Process-pool entry point: run one shard task, return result + delta.

    Returns ``(result, counter_delta)`` where ``result`` is op-specific and
    ``counter_delta`` is the :class:`AccessCounter` accumulated by this task's
    store — the cross-process half of the fork/merge accounting protocol.
    Query deltas exclude any cache-miss build this task happened to pay
    (matching thread mode, where builds charge at build time, not per query);
    ``"build"`` tasks return the build's own delta.
    """
    if task.kill:
        os.kill(os.getpid(), signal.SIGKILL)
    dispatch_counter = task.store.counter_snapshot()
    method = _worker_method(task)
    store = method.store
    if task.op == "build":
        result = (_method_blob(method), method.index_stats)
        return result, store.since(dispatch_counter)
    payload = task.payload
    before = store.counter_snapshot()
    local = QueryStats(dataset_size=store.count)
    if task.op == "knn":
        # Unlimited factory bound to the query's one slot — mirrors the
        # thread path, where every answer set a shard makes for this query
        # shares the same radius.
        slot = payload["slots"][0]
        if slot is None:
            factory = KnnAnswerSet
        else:
            factory = lambda kk: SharedKnnAnswerSet(kk, ProcessSharedRadius(slot))  # noqa: E731
        with method.execution_context(answer_factory=factory):
            answers = method._knn_exact(payload["query"], int(payload["k"]), local)
        result = (answers, local)
    elif task.op == "batch":
        factory = _slot_answer_factory(payload["slots"])
        with method.execution_context(answer_factory=factory):
            result = method._batch_answer_sets(payload["queries"], int(payload["k"]))
    elif task.op == "range":
        answers = method._range_exact(payload["query"], payload["radius"], local)
        result = (answers, local)
    elif task.op == "approx":
        answers = method._knn_approximate(payload["query"], int(payload["k"]), local)
        result = (answers, local)
    elif task.op == "bounded":
        answers = method._knn_bounded(
            payload["query"], int(payload["k"]), local, payload["epsilon"]
        )
        result = (answers, local)
    else:
        raise ValueError(f"unknown shard task op {task.op!r}")
    return result, store.since(before)


class ShardedMethod(SearchMethod):
    """Partition-parallel wrapper around any registered search method.

    Parameters
    ----------
    store:
        The raw-data store over the full collection.
    inner:
        Registry name of the wrapped method (``"isax2+"``, ``"flat"``, ...).
        Wrapping another sharded method is rejected.
    shards:
        Number of contiguous partitions (default: the worker count).  Clamped
        to the collection size, so tiny collections never plan empty shards.
    workers:
        Pool width for builds and searches (default: ``REPRO_WORKERS`` or the
        CPU count).  ``workers=1`` runs the identical code path sequentially.
    executor:
        Fan-out backend: ``"thread"`` (default), ``"process"``, or an
        :class:`~repro.core.parallel.Executor` instance.  ``None`` defers to
        the ``REPRO_EXECUTOR`` environment variable.  Process mode answers
        byte-identically to thread mode; it wins when per-shard work is
        Python-bound (tree descent) and loses on small collections or
        GEMM-bound flat scans (task pickling + result shipping overhead).
    shard_attempts:
        How many times a failed shard task is executed before it counts as
        permanently failed (default 2: one retry).  Each attempt runs on a
        *fresh* fork of the shard store, so a worker that died mid-query is
        replaced wholesale rather than resumed — in process mode that
        includes a worker process lost to SIGKILL, whose shard re-executes on
        a fresh worker from a transparently respawned pool.
        :class:`CorruptionError` short-circuits the retries — re-reading
        damaged bytes cannot help.
    allow_partial:
        Off (the default), a permanently failed shard fails the whole query
        with the shard's original exception.  On, the query returns a
        *degraded* answer over the surviving shards, with
        ``QueryStats.degraded`` set and ``QueryStats.shards_failed`` counting
        the dropped partitions — correct for the data examined, possibly
        incomplete.
    deadline_seconds:
        Optional per-query time budget; shard tasks not finished in time are
        dropped as failed.  Only meaningful with ``allow_partial=True``
        (rejected otherwise), since a deadline exists to trade completeness
        for latency.
    inner_params / **params:
        Forwarded to every inner method's constructor.
    """

    name = "sharded"
    is_index = True
    supports_bulk_build = False

    def __init__(
        self,
        store: SeriesStore,
        inner: str = "flat",
        shards: int | None = None,
        workers: int | None = None,
        executor: "str | Executor | None" = None,
        shard_attempts: int = 2,
        allow_partial: bool = False,
        deadline_seconds: float | None = None,
        repartition_factor: float | None = 2.0,
        inner_params: dict | None = None,
        **params,
    ) -> None:
        inner_name = str(inner).lower()
        if inner_name.startswith("sharded"):
            raise ValueError("sharded methods cannot be nested")
        self.inner_name = inner_name
        merged = dict(inner_params or {})
        merged.update(params)
        self.inner_params = merged
        self.workers = resolve_workers(workers)
        resolved_executor = resolve_executor(executor, self.workers)
        self._executor_obj: Executor | None = resolved_executor
        #: the kind string re-resolved after unpickling (executors hold pools
        #: and shared-memory tables; only their kind crosses a pickle).
        self._executor_spec = resolved_executor.kind
        self.shard_attempts = int(shard_attempts)
        if self.shard_attempts < 1:
            raise ValueError("shard_attempts must be at least 1")
        self.allow_partial = bool(allow_partial)
        self.deadline_seconds = None if deadline_seconds is None else float(deadline_seconds)
        if self.deadline_seconds is not None:
            if self.deadline_seconds <= 0:
                raise ValueError("deadline_seconds must be positive")
            if not self.allow_partial:
                raise ValueError(
                    "deadline_seconds requires allow_partial=True: a deadline "
                    "trades completeness for latency, which only a degraded "
                    "answer can express"
                )
        self._requested_shards = int(shards) if shards is not None else self.workers
        if self._requested_shards <= 0:
            raise ValueError("shards must be a positive integer")
        self.repartition_factor = (
            None if not repartition_factor else float(repartition_factor)
        )
        if self.repartition_factor is not None and self.repartition_factor <= 1.0:
            raise ValueError("repartition_factor must exceed 1.0 (or be None)")
        self.repartitions = 0
        self._shards: list[_Shard] = []
        self._spill_dir: tempfile.TemporaryDirectory | None = None
        self._spill_store: SeriesStore | None = None
        self._spill_rows = -1
        super().__init__(store)
        self._shards = self._plan_shards(store)
        self.name = f"sharded:{self.inner_name}"
        self.index_stats.method = self.name
        self.supports_approximate = bool(
            self._shards and self._shards[0].method.supports_approximate
        )

    # -- executor ---------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The fan-out backend (lazily re-resolved after unpickling)."""
        obj = self._executor_obj
        if obj is None:
            obj = self._executor_obj = resolve_executor(
                self._executor_spec, self.workers
            )
        return obj

    @property
    def executor_kind(self) -> str:
        return self._executor_spec

    def _use_process(self) -> bool:
        return self.executor.kind == "process"

    # -- shard planning ---------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _plan_shards(self, store: SeriesStore, rows: int | None = None) -> list[_Shard]:
        from ..core.registry import create_method

        total = store.count if rows is None else int(rows)
        shards: list[_Shard] = []
        # chunk_slices clamps the part count to the row count, so a collection
        # smaller than the requested shard count plans fewer (never empty)
        # shards, and an empty collection plans none.
        for i, sl in enumerate(chunk_slices(total, self._requested_shards)):
            shard_store = self._shard_store(store, i, sl)
            method = create_method(self.inner_name, shard_store, **self.inner_params)
            shards.append(
                _Shard(i, sl.start, shard_store, method, rows=sl.stop - sl.start)
            )
        return shards

    def _shard_store(self, store: SeriesStore, index: int, sl: slice) -> SeriesStore:
        # Zero-copy partition through the backend layer: in-memory shards view
        # the parent array, mmap shards are (path, row-range) handles onto the
        # same file — both stay picklable and reopen cleanly per worker.
        return store.slice(sl.start, sl.stop, name=f"{store.dataset.name}#shard{index}")

    def _on_store_attached(self, store: SeriesStore | None) -> None:
        # Re-slice shard stores whenever the base store is (re-)attached —
        # this is how a persisted sharded index reconnects to live data.  The
        # shards keep the row ranges they indexed: tail-routed extends leave
        # them unbalanced, and rows past the indexed count stay unindexed
        # until :meth:`extend` absorbs them.
        if store is None or not getattr(self, "_shards", None):
            return
        shards = self._shards
        if shards[-1].rows < 0:  # an older index file: balanced slices, as it was attached then
            for shard, sl in zip(shards, chunk_slices(store.count, len(shards))):
                shard.offset, shard.rows = sl.start, sl.stop - sl.start
        indexed = shards[-1].offset + shards[-1].rows
        if indexed > store.count or any(shard.rows <= 0 for shard in shards):
            raise ValueError(
                f"cannot attach a store with {store.count} rows to a sharded "
                f"index built over {indexed} rows in {len(shards)} shards: "
                "the shards past its end would be left empty or stale; rebuild "
                "the index over the new collection instead"
            )
        self._invalidate_process_state()
        for shard in shards:
            sl = slice(shard.offset, shard.offset + shard.rows)
            shard.store = self._shard_store(store, shard.index, sl)
            shard.method.store = shard.store
            shard.task_key = None

    def _invalidate_process_state(self) -> None:
        """Forget the memory spill; worker caches key off content, not identity."""
        self._spill_store = None
        self._spill_rows = -1

    def close(self) -> None:
        """Release pooled resources (idempotent; the method stays usable).

        Closes the executor's pool unless it came from the shared registry
        (``REPRO_EXECUTOR``-driven process pools are reused across methods and
        owned by :func:`~repro.core.parallel.shutdown_shared_executors`), and
        removes the temporary memory-spill file if process dispatch created
        one.  The next parallel call lazily recreates what it needs.
        """
        executor = self._executor_obj
        if executor is not None and not executor.shared:
            executor.close()
        self._invalidate_process_state()
        spill_dir = self._spill_dir
        if spill_dir is not None:
            self._spill_dir = None
            spill_dir.cleanup()

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        # Executors hold pools and shared-memory tables; spills are per-process
        # temporaries.  Both are recreated lazily from the kind string.
        state["_executor_obj"] = None
        state["_spill_dir"] = None
        state["_spill_store"] = None
        state["_spill_rows"] = -1
        if state.get("_base_store") is None:
            # Persistence detaches the top store before pickling; detach the
            # shard stores too so no raw data lands in the index file.  The
            # stores are rebuilt by ``_on_store_attached`` when a store is
            # reassigned (which ``save_method`` does right after pickling).
            for shard in self._shards:
                shard.store = None
                shard.method.store = None
        return state

    # -- construction -----------------------------------------------------------
    def _build(self) -> None:
        """Build every shard concurrently and aggregate the index stats."""
        shard_stats = self._build_shards(self._shards)
        total = self.index_stats
        for stats in shard_stats:
            total.total_nodes += stats.total_nodes
            total.leaf_nodes += stats.leaf_nodes
            total.memory_bytes += stats.memory_bytes
            total.disk_bytes += stats.disk_bytes
            total.leaf_fill_factors.extend(stats.leaf_fill_factors)
            total.leaf_depths.extend(stats.leaf_depths)

    def _build_shards(self, shards: list[_Shard]) -> list:
        """Build ``shards`` on the active executor; returns per-shard stats.

        Thread mode builds in place.  Process mode fans the builds out to the
        pool — each worker builds its shard GIL-free, seeds its index cache,
        and ships the built method back (pickled, store detached) so the
        coordinator's copy is identical to a local build; counter deltas ride
        the task results.  Build failures always raise (``allow_partial``
        degrades *answers*; a missing shard index is a broken method, not a
        degraded one), though killed workers still get their ``shard_attempts``
        re-executions first.
        """
        if not shards:
            return []
        if self._use_process():
            units = [(shard, "build", {}) for shard in shards]
            successes = self._fan_out_process(units, stats=None, require_all=True)
            stats_list = []
            for shard, (blob, stats) in successes:
                method = pickle.loads(blob)
                method.store = shard.store
                shard.method = method
                stats_list.append(stats)
            return stats_list

        def build_one(shard: _Shard):
            shard.method.build()
            return shard.method.index_stats

        shard_stats = self.executor.map(build_one, shards)
        counter = self.store.counter
        for shard in shards:
            counter.merge(shard.store.counter)
        return shard_stats

    def _collect_footprint(self) -> None:
        """Aggregated in :meth:`_build`; nothing further to collect."""

    def extend(self, start: int, stop: int | None = None) -> int:
        """Bulk-insert newly ingested rows ``[start, stop)`` into the index.

        Appends route to the *tail* shard: its store is re-sliced to cover
        the new rows (zero-copy) and the inner method's own :meth:`extend`
        absorbs them, so every other shard — and any query running against
        it — is untouched.  A method planned over an *empty* collection has
        no shards yet; its first extend plans and builds them.  When
        sustained ingest skews the tail past ``repartition_factor`` times the
        mean shard size, the collection is re-partitioned into balanced
        contiguous shards and rebuilt (:meth:`repartition`), restoring
        parallel query speedup.
        """
        self._require_built()
        start = int(start)
        stop = self.store.count if stop is None else int(stop)
        if not (0 <= start <= stop <= self.store.count):
            raise ValueError(
                f"extend range [{start}, {stop}) out of bounds for "
                f"{self.store.count} rows"
            )
        if stop <= start:
            return 0
        if not self._shards:
            if start != 0:
                raise ValueError(
                    f"extend must start at the indexed row count 0; got {start}"
                )
            self._shards = self._plan_shards(self.store, rows=stop)
            self._build_shards(self._shards)
            self.supports_approximate = bool(
                self._shards and self._shards[0].method.supports_approximate
            )
            self._invalidate_process_state()
            self._maybe_repartition()
            return stop - start
        tail = self._shards[-1]
        local_old = int(tail.store.count)
        indexed = tail.offset + local_old
        if start != indexed:
            raise ValueError(
                f"extend must start at the indexed row count {indexed}; "
                f"got {start}"
            )
        tail.store = self._shard_store(
            self.store, tail.index, slice(tail.offset, stop)
        )
        tail.method.store = tail.store
        tail.rows = stop - tail.offset
        tail.method.extend(local_old, stop - tail.offset)
        tail.task_key = None  # the tail's rows changed: new worker-cache key
        self._invalidate_process_state()
        self._maybe_repartition()
        return stop - start

    def _maybe_repartition(self) -> None:
        if self.repartition_factor is None or len(self._shards) < 2:
            return
        total = sum(int(s.store.count) for s in self._shards)
        tail_rows = int(self._shards[-1].store.count)
        if tail_rows * len(self._shards) > self.repartition_factor * total:
            self.repartition()

    def repartition(self) -> None:
        """Re-plan balanced contiguous shards over the current store and rebuild.

        The heavyweight half of live ingest: amortized by the skew threshold,
        so steady appends pay per-row insert cost almost always and a full
        rebuild only when the tail has grown far past its siblings.
        """
        self._shards = self._plan_shards(self.store)
        self.repartitions += 1
        self._invalidate_process_state()
        self._build_shards(self._shards)

    # -- shard task helpers -------------------------------------------------------
    def _deadline(self) -> float | None:
        """Absolute monotonic deadline for one fan-out, or ``None``."""
        if self.deadline_seconds is None:
            return None
        return time.monotonic() + self.deadline_seconds

    def _run_with_attempts(self, execute, shard: _Shard, deadline: float | None):
        """Execute one shard task with re-fork-and-retry failure recovery.

        Each attempt forks the shard store afresh — the forked reader *is* the
        replaceable worker, so a failed execution is thrown away wholesale
        (partial counters included) and re-run from clean state.  Counters are
        only surfaced from the attempt that succeeds.  A
        :class:`CorruptionError` stops the retries immediately: the damage is
        at rest, and re-reading the same bytes cannot produce a different
        digest.  Returns ``(result, counter, extra_attempts)``; raises the
        last failure when every attempt is exhausted.
        """
        failure: Exception | None = None
        for attempt in range(self.shard_attempts):
            if attempt and deadline is not None and time.monotonic() >= deadline:
                break
            reader = shard.store.fork()
            try:
                result = execute(shard, reader)
            except CorruptionError as exc:
                failure = exc
                break
            # repro-lint: disable=no-bare-except -- sanctioned fault-capture
            # seam: the failure is stored and re-raised after the retry loop
            # (shard re-fork/re-execute up to shard_attempts, PR 7).
            except Exception as exc:
                failure = exc
                continue
            return result, reader.counter, attempt
        raise failure if failure is not None else TimeoutError(
            f"shard {shard.index} missed the fan-out deadline"
        )

    def _fan_out(self, run_shard, stats: QueryStats | None = None):
        """Run ``run_shard(shard, reader)`` per shard; merge forked counters.

        Every shard gets a forked store (private counter) for the duration of
        the call; after the ordered join the forks are merged into the current
        thread's store counter, so accounting rolls up exactly once whether
        this search runs standalone or nested under an outer execution
        context.

        Failure semantics: a shard task that raises is re-executed on a fresh
        fork up to ``shard_attempts`` times.  If it still fails (or misses the
        per-query deadline), either the original exception propagates
        (``allow_partial=False``) or the shard is dropped and the degradation
        is recorded in ``stats``.  Returns ``(shard, result)`` pairs for the
        shards that succeeded — callers must not assume one entry per shard.
        """
        deadline = self._deadline()

        def one(shard: _Shard):
            return self._run_with_attempts(run_shard, shard, deadline)

        outcomes = self.executor.map_outcomes(one, self._shards, deadline=deadline)
        counter = self.store.counter
        successes = []
        failed = 0
        reexecutions = 0
        for shard, outcome in zip(self._shards, outcomes):
            if outcome.ok:
                result, fork_counter, extra = outcome.value
                counter.merge(fork_counter)
                reexecutions += extra
                successes.append((shard, result))
            else:
                failed += 1
        if failed and not self.allow_partial:
            error = next((o.error for o in outcomes if o.error is not None), None)
            if error is not None:
                raise error
            raise TimeoutError(f"{failed} shard task(s) missed the fan-out deadline")
        if stats is not None:
            stats.retries += reexecutions
            if failed:
                stats.shards_failed += failed
                stats.degraded = True
        return successes

    # -- process-mode dispatch ------------------------------------------------
    def _task_key(self, shard: _Shard) -> tuple:
        if shard.task_key is None:
            shard.task_key = (
                _content_key(shard.store),
                shard.offset,
                shard.offset + int(shard.store.count),
                self.inner_name,
                _params_signature(self.inner_params),
            )
        return shard.task_key

    def _task_store(self, shard: _Shard) -> SeriesStore:
        """A picklable-by-path fork of the shard's store for task shipping.

        File-backed shards (mmap / compressed / growable, fault-wrapped or
        not) already pickle as (path, row-range) handles.  In-memory shards
        would pickle their raw rows — instead the full collection is spilled
        once to a temporary ``.npy`` and every shard ships as an mmap slice of
        the spill; the bytes are bit-identical and access accounting is pure
        page geometry, so answers and counters are unchanged.  Each dispatch
        forks the handle, giving retried tasks a fresh fault incarnation
        (transients re-roll) while corruption — keyed to absolute file regions
        — stays deterministic, exactly like thread-mode re-forks.
        """
        store = shard.store
        if store.backend.source_path is not None:
            return store.fork()
        return self._spill_slice(shard).fork()

    def _spill_slice(self, shard: _Shard) -> SeriesStore:
        base = self._ensure_spill()
        start = shard.offset
        stop = start + int(shard.store.count)
        return base.slice(
            start, stop, name=f"{self.store.dataset.name}#shard{shard.index}"
        )

    def _ensure_spill(self) -> SeriesStore:
        store = self.store
        if self._spill_store is not None and self._spill_rows == store.count:
            return self._spill_store
        if self._spill_dir is None:
            self._spill_dir = tempfile.TemporaryDirectory(prefix="repro-spill-")
        path = os.path.join(self._spill_dir.name, f"spill-{store.count}.npy")
        dataset = store.dataset.to_mmap(path)
        self._spill_store = SeriesStore(
            dataset,
            page_bytes=store.page_bytes,
            measure_io=store.measure_io,
            faults=store.faults,
            retry=store.retry,
            verify=store.verify,
        )
        self._spill_rows = store.count
        return self._spill_store

    def _shard_task(self, shard: _Shard, op: str, payload: dict) -> _ShardTask:
        return _ShardTask(
            key=self._task_key(shard),
            store=self._task_store(shard),
            method_name=self.inner_name,
            params=dict(self.inner_params),
            op=op,
            payload=payload,
            kill=take_kill_budget(self.store.faults),
            fresh=op == "build",
        )

    def _process_outcomes(self, units: list, deadline: float | None):
        """Dispatch ``(shard, op, payload)`` units with re-dispatch recovery.

        The process-mode counterpart of :meth:`_run_with_attempts`: a unit
        whose task fails — including every task in flight when a worker
        process is SIGKILLed and the pool breaks — is re-dispatched on a
        fresh store fork (new fault incarnation) up to ``shard_attempts``
        times; the executor transparently respawns a broken pool between
        rounds.  :class:`CorruptionError` and deadline misses do not retry.
        Returns ``(outcomes, extras)`` aligned with ``units``, where
        ``extras`` counts the re-dispatches behind each eventual success.
        """
        executor = self.executor
        outcomes: list[TaskOutcome | None] = [None] * len(units)
        extras = [0] * len(units)
        pending = list(range(len(units)))
        for attempt in range(self.shard_attempts):
            if attempt and deadline is not None and time.monotonic() >= deadline:
                break
            tasks = [
                self._shard_task(units[i][0], units[i][1], units[i][2])
                for i in pending
            ]
            results = executor.map_outcomes(
                _execute_shard_task, tasks, deadline=deadline
            )
            retry = []
            for i, outcome in zip(pending, results):
                outcomes[i] = outcome
                if (
                    outcome.ok
                    or outcome.timed_out
                    or isinstance(outcome.error, CorruptionError)
                ):
                    continue
                retry.append(i)
            if not retry:
                break
            for i in retry:
                extras[i] += 1
            pending = retry
        return outcomes, [
            extra if outcomes[i] is not None and outcomes[i].ok else 0
            for i, extra in enumerate(extras)
        ]

    def _fan_out_process(
        self,
        units: list,
        stats: QueryStats | None = None,
        require_all: bool = False,
    ):
        """Process-mode :meth:`_fan_out`: same merge/degrade semantics.

        Counter deltas from the task results are merged into the coordinating
        store's counter (the pickle-boundary half of the fork/merge protocol);
        failures degrade or raise exactly like the thread path.
        """
        deadline = self._deadline()
        outcomes, extras = self._process_outcomes(units, deadline)
        counter = self.store.counter
        successes = []
        failed = 0
        reexecutions = 0
        for (shard, _op, _payload), outcome, extra in zip(units, outcomes, extras):
            if outcome is not None and outcome.ok:
                result, delta = outcome.value
                counter.merge(delta)
                reexecutions += extra
                successes.append((shard, result))
            else:
                failed += 1
        if failed and (require_all or not self.allow_partial):
            error = next(
                (o.error for o in outcomes if o is not None and o.error is not None),
                None,
            )
            if error is not None:
                raise error
            raise TimeoutError(f"{failed} shard task(s) missed the fan-out deadline")
        if stats is not None:
            stats.retries += reexecutions
            if failed:
                stats.shards_failed += failed
                stats.degraded = True
        return successes

    def _shard_results(self, run_shard, op: str, payload: dict, stats):
        """``(shard, (answers, local_stats))`` pairs from the active executor."""
        if self._use_process():
            units = [(shard, op, payload) for shard in self._shards]
            return self._fan_out_process(units, stats)
        return self._fan_out(run_shard, stats)

    # -- search -------------------------------------------------------------------
    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        shared = SharedRadius()
        slots = self.executor.acquire_radius_slots(1)
        try:

            def run_shard(shard: _Shard, reader: SeriesStore):
                local = QueryStats(dataset_size=reader.count)
                factory = lambda kk: SharedKnnAnswerSet(kk, shared)  # noqa: E731
                with shard.method.execution_context(store=reader, answer_factory=factory):
                    answers = shard.method._knn_exact(query, k, local)
                return answers, local

            payload = {"query": query, "k": int(k), "slots": list(slots)}
            pairs = self._shard_results(run_shard, "knn", payload, stats)
        finally:
            self.executor.release_radius_slots(slots)
        merged = self._make_answer_set(k)
        for shard, (answers, local) in pairs:
            merged.merge(answers, position_offset=shard.offset)
            self._merge_query_stats(stats, local)
        return merged

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        """ng-approximate search: one descent per shard, merged."""

        def run_shard(shard: _Shard, reader: SeriesStore):
            local = QueryStats(dataset_size=reader.count)
            with shard.method.execution_context(store=reader):
                answers = shard.method._knn_approximate(query, k, local)
            return answers, local

        payload = {"query": query, "k": int(k)}
        merged = self._make_answer_set(k)
        for shard, (answers, local) in self._shard_results(
            run_shard, "approx", payload, stats
        ):
            merged.merge(answers, position_offset=shard.offset)
            self._merge_query_stats(stats, local)
        return merged

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        def run_shard(shard: _Shard, reader: SeriesStore):
            local = QueryStats(dataset_size=reader.count)
            with shard.method.execution_context(store=reader):
                answers = shard.method._range_exact(query, radius, local)
            return answers, local

        payload = {"query": query, "radius": float(radius)}
        merged = RangeAnswerSet(radius=radius)
        for shard, (answers, local) in self._shard_results(
            run_shard, "range", payload, stats
        ):
            merged.matches.extend(
                Neighbor(distance=n.distance, position=n.position + shard.offset)
                for n in answers.matches
            )
            self._merge_query_stats(stats, local)
        return merged

    def _batch_answer_sets(self, queries: np.ndarray, k: int):
        """Batch fan-out: (shard x query-chunk) tasks on one pool.

        Chunking the batch adds inter-query parallelism on top of the shard
        fan-out when there are more workers than shards; each shard applies
        its own (possibly vectorized) batch path to every chunk.  Every query
        gets its own shared radius, so — exactly like the single-query path —
        an answer found for query ``j`` in one shard tightens every other
        shard's pruning for query ``j``.  The radii are wired in through the
        answer-set factory, relying on the ``_batch_answer_sets`` contract
        that implementations create exactly one answer set per query, in
        query order (violations raise rather than silently crossing radii
        between queries).  Both executors use the same (shard x chunk) task
        layout, so the GEMM tile shapes — and therefore the flat/MASS batch
        distances — are identical in thread and process mode.
        """
        total = queries.shape[0]
        if total == 0:
            return [], []
        chunk_count = max(1, min(total, -(-self.workers // max(1, len(self._shards)))))
        chunks = chunk_slices(total, chunk_count)
        if self._use_process():
            return self._batch_answer_sets_process(queries, k, chunks)
        tasks = [(shard, sl) for sl in chunks for shard in self._shards]
        radii = [SharedRadius() for _ in range(total)]

        def radius_factory(sl: slice):
            pending = iter(range(sl.start, sl.stop))

            def factory(kk: int) -> SharedKnnAnswerSet:
                try:
                    j = next(pending)
                except StopIteration:
                    raise RuntimeError(
                        "_batch_answer_sets created more answer sets than "
                        "queries; implementations must create exactly one "
                        "answer set per query, in query order"
                    ) from None
                return SharedKnnAnswerSet(kk, radii[j])

            return factory

        deadline = self._deadline()

        def execute(task):
            def attempt(shard: _Shard, reader: SeriesStore):
                with shard.method.execution_context(
                    store=reader, answer_factory=radius_factory(task[1])
                ):
                    return shard.method._batch_answer_sets(queries[task[1]], k)

            return self._run_with_attempts(attempt, task[0], deadline)

        outcomes = self.executor.map_outcomes(execute, tasks, deadline=deadline)
        merged_sets = [self._make_answer_set(k) for _ in range(total)]
        merged_stats = [QueryStats(dataset_size=self.store.count) for _ in range(total)]
        counter = self.store.counter
        for (shard, sl), outcome in zip(tasks, outcomes):
            if not outcome.ok:
                if not self.allow_partial:
                    if outcome.error is not None:
                        raise outcome.error
                    raise TimeoutError(
                        f"shard {shard.index} missed the batch fan-out deadline"
                    )
                # Degrade exactly the queries this (shard, chunk) task served.
                for j in range(sl.start, sl.stop):
                    merged_stats[j].shards_failed += 1
                    merged_stats[j].degraded = True
                continue
            (sets, stats_list), fork_counter, extra = outcome.value
            counter.merge(fork_counter)
            for within, (answers, shard_stats) in enumerate(zip(sets, stats_list)):
                j = sl.start + within
                merged_sets[j].merge(answers, position_offset=shard.offset)
                self._merge_query_stats(merged_stats[j], shard_stats)
                merged_stats[j].retries += extra
        return merged_sets, merged_stats

    def _batch_answer_sets_process(self, queries: np.ndarray, k: int, chunks):
        """Process half of :meth:`_batch_answer_sets`: same tasks, same merge."""
        total = queries.shape[0]
        slots = self.executor.acquire_radius_slots(total)
        try:
            units = [
                (
                    shard,
                    "batch",
                    {"queries": queries[sl], "k": int(k), "slots": slots[sl]},
                )
                for sl in chunks
                for shard in self._shards
            ]
            deadline = self._deadline()
            outcomes, extras = self._process_outcomes(units, deadline)
        finally:
            self.executor.release_radius_slots(slots)
        task_spans = [(shard, sl) for sl in chunks for shard in self._shards]
        merged_sets = [self._make_answer_set(k) for _ in range(total)]
        merged_stats = [QueryStats(dataset_size=self.store.count) for _ in range(total)]
        counter = self.store.counter
        for (shard, sl), outcome, extra in zip(task_spans, outcomes, extras):
            if outcome is None or not outcome.ok:
                if not self.allow_partial:
                    error = outcome.error if outcome is not None else None
                    if error is not None:
                        raise error
                    raise TimeoutError(
                        f"shard {shard.index} missed the batch fan-out deadline"
                    )
                for j in range(sl.start, sl.stop):
                    merged_stats[j].shards_failed += 1
                    merged_stats[j].degraded = True
                continue
            (sets, stats_list), delta = outcome.value
            counter.merge(delta)
            for within, (answers, shard_stats) in enumerate(zip(sets, stats_list)):
                j = sl.start + within
                merged_sets[j].merge(answers, position_offset=shard.offset)
                self._merge_query_stats(merged_stats[j], shard_stats)
                merged_stats[j].retries += extra
        return merged_sets, merged_stats

    def knn_epsilon(self, query: KnnQuery, epsilon: float = 0.0) -> SearchResult:
        """Epsilon-approximate k-NN fan-out (inner method must support it).

        Each shard runs the inner bounded search; merged answers keep the
        per-shard ``(1 + epsilon)`` guarantee (with ``epsilon = 0`` the result
        is byte-identical to exact search).  Currently the M-tree is the one
        inner method offering this interface.
        """
        self._require_built()
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not all(hasattr(s.method, "_knn_bounded") for s in self._shards):
            raise NotImplementedError(
                f"{self.inner_name} does not support epsilon-approximate search"
            )
        before = self.store.counter_snapshot()
        stats = QueryStats(dataset_size=self.store.count)
        series = np.asarray(query.series, dtype=np.float64)
        start = time.perf_counter()

        def run_shard(shard: _Shard, reader: SeriesStore):
            local = QueryStats(dataset_size=reader.count)
            with shard.method.execution_context(store=reader):
                answers = shard.method._knn_bounded(series, query.k, local, epsilon)
            return answers, local

        payload = {"query": series, "k": int(query.k), "epsilon": float(epsilon)}
        merged = self._make_answer_set(query.k)
        for shard, (answers, local) in self._shard_results(
            run_shard, "bounded", payload, stats
        ):
            merged.merge(answers, position_offset=shard.offset)
            self._merge_query_stats(stats, local)
        stats.cpu_seconds = time.perf_counter() - start
        self._charge_delta(stats, self.store.since(before))
        return self._package_result(merged, stats)

    @staticmethod
    def _merge_query_stats(total: QueryStats, shard_stats: QueryStats) -> None:
        """Fold one shard's per-query stats into the merged totals.

        Every additive counter sums (``QueryStats.merge``); the dataset size
        stays the full collection's so pruning ratios read globally.
        """
        dataset_size = total.dataset_size
        total.merge(shard_stats)
        total.dataset_size = max(dataset_size, shard_stats.dataset_size)

    # -- description ----------------------------------------------------------------
    def describe(self) -> dict:
        info = super().describe()
        info.update(
            inner=self.inner_name,
            shards=self.shard_count,
            workers=self.workers,
            executor=self.executor_kind,
            shard_attempts=self.shard_attempts,
            allow_partial=self.allow_partial,
            deadline_seconds=self.deadline_seconds,
            repartition_factor=self.repartition_factor,
            repartitions=self.repartitions,
            inner_params=dict(self.inner_params),
        )
        return info
