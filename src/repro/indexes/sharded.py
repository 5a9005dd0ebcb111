"""Parallel sharded execution: any method, partitioned and run on all cores.

:class:`ShardedMethod` splits a :class:`~repro.core.storage.SeriesStore` into
``shards`` contiguous partitions, keeps one instance of any registered
:class:`~repro.indexes.base.SearchMethod` per partition, and does everything
— builds included — through one pipeline:

1. the operation is cut into ``(shard, op, payload)`` *units* (one per shard
   for a single query, one per shard x query-chunk for a batch);
2. each unit is materialised as a :class:`_ShardTask` for the
   :class:`~repro.core.parallel.Executor` the method holds;
3. the executor runs :func:`_execute_shard_task` on every task and reports a
   :class:`~repro.core.parallel.TaskOutcome` per task;
4. failed units are re-dispatched (fresh store fork, fresh fault incarnation)
   up to ``shard_attempts`` times, coordinator-side — the one retry policy
   that also survives a broken worker pool;
5. results and :class:`~repro.core.stats.AccessCounter` deltas are merged on
   the coordinating thread; units that never succeeded either raise or
   degrade the queries they served (``allow_partial``).

The executor decides only how step 2 materialises a task:

* **in process** (``executor="thread"``, the default): the task holds the
  shard's built index *by reference* and a fork of the shard's store.
  Nothing is pickled, fingerprinted or spilled.  NumPy kernels that release
  the GIL scale across cores; Python-heavy tree descent does not.
* **across a pickle boundary** (``executor="process"`` /
  ``REPRO_EXECUTOR=process``): the task is a *plan* — method name + params +
  a by-path store handle (path + row range), never raw data; in-memory
  collections are spilled once to a temporary ``.npy`` and shipped as mmap
  slices of the spill.  Each worker process builds (or reuses, from a
  per-worker cache keyed by content fingerprint + shard slice + method
  signature) the shard's index.  Descent scales too, and a SIGKILLed worker
  is replaced and its units re-dispatched.

Query semantics are the pipeline's, hence executor-independent:

* **k-NN**: every shard searches its partition; shards publish their local
  best-so-far into the query's :class:`~repro.core.parallel.SharedRadius`,
  which the other shards read to prune harder.  The per-shard
  :class:`~repro.core.answers.KnnAnswerSet` results are merged with the
  deterministic ``(distance, position)`` tie-break, so the merged answers are
  **byte-identical** to running the unsharded method — and identical for any
  worker count and either executor, including ``workers=1``.
* **batch k-NN**: the query batch is chunked and every (shard, chunk) pair is
  one unit, so inter-query and intra-query parallelism compose; each query
  carries its own shared radius across shards, and shards with a vectorized
  batch path (flat, MASS) keep it per shard.  (For those two GEMM-based batch
  kernels the *distances* may differ from the unsharded batch call in the
  final ulp — BLAS blocking depends on tile shape — exactly the caveat the
  batch API already carries relative to per-query search; the chunk layout
  does not depend on the executor.)
* **range / epsilon queries**: same fan-out, with concatenated match lists
  (range) or merged bounded answer sets (the M-tree's epsilon search).

Accounting follows the library's per-worker protocol: every task reads
through a *forked* shard store (fresh counter) and returns the counter delta
with its result; the coordinating thread merges the deltas after the join, so
per-query stats are the exact sum of the per-shard stats.

The wrapper is itself a :class:`SearchMethod`, registered under the name
prefix ``"sharded:<inner>"`` (e.g. ``create_method("sharded:isax2+", store,
shards=4, workers=4, leaf_capacity=100)``), so engines, runners, benchmarks,
and persistence treat it like any other method.
"""

from __future__ import annotations

import functools
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
from ..core.parallel import Executor, chunk_slices, resolve_executor, resolve_workers
from ..core.queries import KnnQuery
from ..core.registry import create_method
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
    API.  The shared value is an upper bound on the final merged k-th
    distance, so pruning against it never discards a merged-top-k candidate;
    it only skips work another shard has already made redundant.  Admissions
    publish the local threshold back.
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

    def __reduce__(self):
        # The radius matters only while shards search; a finished set crosses
        # a pickle boundary as its (purely local) content.
        state = {k: v for k, v in self.__dict__.items() if k != "_shared"}
        return object.__new__, (KnnAnswerSet,), state


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
# Shard tasks (the coordinator materialises them, workers execute them)
# --------------------------------------------------------------------------- #


@dataclass
class _ShardTask:
    """One unit of shard work: what to run, on which index, over which bytes.

    ``store`` is a fresh fork of the shard's store and ``payload`` the
    operation's arguments (query arrays, k, shared-radius handles).  The index
    comes one of two ways.  In process, ``method`` is the shard's built index
    by reference — such a task refuses to pickle.  Across a pickle boundary
    the task is a *plan*: ``method_name`` + ``params`` + a by-path ``store``
    handle — never raw data — and ``key`` names the shard's built index in
    the per-worker cache; ``kill`` is the fault-injection flag consumed from
    the coordinator-side ``kill_worker`` budget (the worker SIGKILLs itself on
    arrival).  A ``"build"`` op always builds: a build the user asked for
    reads and charges its data whatever a worker has cached, so construction
    accounting is executor-independent.
    """

    store: SeriesStore
    op: str
    payload: dict = field(default_factory=dict)
    method: SearchMethod | None = None
    key: tuple | None = None
    method_name: str = ""
    params: dict = field(default_factory=dict)
    kill: bool = False

    def __getstate__(self) -> dict:
        if self.method is not None:
            raise TypeError(
                "a shard task holding its index by reference is in-process only; "
                "ship a plan (method_name + params + by-path store) instead"
            )
        return dict(self.__dict__)


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


def _radius_answer_set(k: int, radius) -> KnnAnswerSet:
    """An answer set pruning against ``radius``; ``None`` means local-only
    pruning (the executor's radius table overflowed): more work, same answers."""
    return KnnAnswerSet(k) if radius is None else SharedKnnAnswerSet(k, radius)


def _batch_answer_factory(radii: list):
    """Answer-set factory wiring per-query shared radii to queries, in order.

    Relies on — and checks — the ``_batch_answer_sets`` contract: exactly one
    answer set per query, in query order.  Violations raise rather than
    silently crossing radii between queries.
    """
    pending = iter(radii)

    def factory(k: int) -> KnnAnswerSet:
        try:
            radius = next(pending)
        except StopIteration:
            raise RuntimeError(
                "_batch_answer_sets created more answer sets than "
                "queries; implementations must create exactly one "
                "answer set per query, in query order"
            ) from None
        return _radius_answer_set(k, radius)

    return factory


def _method_blob(method: SearchMethod) -> bytes:
    """Pickle a built method with its store detached (no raw data in transit)."""
    base_store = method._base_store
    method._base_store = None
    try:
        return pickle.dumps(method, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        method._base_store = base_store


def _task_method(task: _ShardTask) -> SearchMethod:
    """The index ``task`` runs on: its own reference, or this worker's copy.

    A plan resolves through the per-worker cache.  Hits rebind the cached
    index to the task's store — each task ships a fresh fork (fresh counter,
    fresh fault incarnation), so re-dispatched tasks re-roll transient faults;
    misses, and every ``"build"``, construct and build the index here.
    """
    if task.method is not None:
        return task.method
    method = None if task.op == "build" else _WORKER_METHODS.get(task.key)
    if method is None:
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
    """Run one shard task — on a pool thread or in a pool process alike.

    Returns ``(result, counter_delta)`` where ``result`` is op-specific and
    ``counter_delta`` is the :class:`AccessCounter` accumulated by this task's
    store fork — the worker half of the fork/merge accounting protocol.
    Query deltas exclude any cache-miss build a plan happened to pay (builds
    charge at build time, not per query); ``"build"`` tasks return the
    build's own delta.
    """
    if task.kill:
        os.kill(os.getpid(), signal.SIGKILL)
    store, op, payload = task.store, task.op, task.payload
    dispatched = store.counter_snapshot()
    method = _task_method(task)
    factory = None
    if op == "knn":
        # Every answer set the shard makes for this query shares its radius.
        factory = functools.partial(_radius_answer_set, radius=payload["radii"][0])
    elif op == "batch":
        factory = _batch_answer_factory(payload["radii"])
    with method.execution_context(store=store, answer_factory=factory):
        before = dispatched if op == "build" else store.counter_snapshot()
        if op == "build":
            # A plan's index was built on arrival and ships back store-detached;
            # one held by reference arrives unbuilt and goes back as it is.
            if task.method is None:
                result = (_method_blob(method), method.index_stats)
            else:
                result = (method, method.build())
        elif op == "batch":
            result = method._batch_answer_sets(payload["queries"], payload["k"])
        else:
            local = QueryStats(dataset_size=store.count)
            if op == "knn":
                answers = method._knn_exact(payload["query"], payload["k"], local)
            elif op == "range":
                answers = method._range_exact(payload["query"], payload["radius"], local)
            elif op == "approx":
                answers = method._knn_approximate(payload["query"], payload["k"], local)
            elif op == "bounded":
                answers = method._knn_bounded(
                    payload["query"], payload["k"], local, payload["epsilon"]
                )
            else:
                raise ValueError(f"unknown shard task op {op!r}")
            result = (answers, local)
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
        the ``REPRO_EXECUTOR`` environment variable.  The executor only
        decides where shard tasks run: answers, stats and counters are the
        same on both.  Processes win when per-shard work is Python-bound
        (tree descent) and lose on small collections or GEMM-bound flat scans
        (task pickling + result shipping overhead).
    shard_attempts:
        How many times a failed shard task is dispatched before it counts as
        permanently failed (default 2: one retry).  Each dispatch runs on a
        *fresh* fork of the shard store, so a failed execution is thrown away
        wholesale (partial counters included) rather than resumed — on the
        process executor that includes a worker lost to SIGKILL, whose tasks
        re-execute on a fresh worker from a transparently respawned pool.
        :class:`CorruptionError` short-circuits the retries — the damage is
        at rest, and re-reading the same bytes cannot help.
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

    # -- shard planning ---------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _plan_shards(self, store: SeriesStore, rows: int | None = None) -> list[_Shard]:
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
        """Build ``shards`` on the executor; returns per-shard index stats.

        Every dispatch builds a new index instance: in process it comes back
        by reference; a pool process (which also seeds its index cache) ships
        it back pickled, store detached, so the coordinator's copy is
        identical to a local build.  Build failures always raise, after their
        ``shard_attempts`` dispatches (``allow_partial`` degrades *answers*; a
        missing shard index is a broken method, not a degraded one), and
        builds run under no query deadline.
        """
        units = [(shard, "build", {}, ()) for shard in shards]
        stats_list = []
        for shard, (built, stats) in zip(shards, self._run_units(units, require_all=True)):
            shard.method = pickle.loads(built) if isinstance(built, bytes) else built
            shard.method.store = shard.store
            stats_list.append(stats)
        return stats_list

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

    # -- the shard-task pipeline ---------------------------------------------------
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
        page geometry, so answers and counters are unchanged.
        """
        store = shard.store
        if store.backend.source_path is None:
            store = self._ensure_spill().slice(
                shard.offset,
                shard.offset + int(store.count),
                name=f"{self.store.dataset.name}#shard{shard.index}",
            )
        return store.fork()

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
        """Materialise one unit for the executor this method holds.

        Either way the task reads through a fresh fork: a re-dispatched unit
        gets a new fault incarnation (transients re-roll) while corruption —
        keyed to absolute file regions — stays deterministic.
        """
        if self.executor.in_process:
            method = shard.method
            if op == "build":
                # A failed build can leave an index half-made, so every
                # dispatch builds a new instance, as a pool process does.
                method = create_method(self.inner_name, shard.store, **self.inner_params)
            return _ShardTask(shard.store.fork(), op, payload, method=method)
        return _ShardTask(
            self._task_store(shard),
            op,
            payload,
            key=self._task_key(shard),
            method_name=self.inner_name,
            params=dict(self.inner_params),
            kill=take_kill_budget(self.store.faults),
        )

    def _run_units(self, units: list, require_all: bool = False) -> list:
        """Dispatch ``(shard, op, payload, served)`` units; merge what comes back.

        ``served`` lists the :class:`QueryStats` of the queries a unit
        answers for.  A unit whose task fails — including every task in
        flight when a pool process is SIGKILLed and the pool breaks — is
        re-dispatched as a fresh task up to ``shard_attempts`` times (the
        executor respawns a broken pool between rounds); every re-dispatch
        behind an eventual success counts into the served queries'
        ``retries``.  :class:`CorruptionError` and deadline misses do not
        retry.  Counter deltas of successful tasks are merged into the
        current thread's store counter, so accounting rolls up exactly once
        whether this runs standalone or nested under an outer execution
        context.

        A unit that never succeeded either fails the call with its original
        exception (``require_all``, or ``allow_partial`` off) or marks its
        served queries degraded.  Returns one result per unit, ``None`` for
        the degraded ones.
        """
        deadline = None
        if self.deadline_seconds is not None and not require_all:
            deadline = time.monotonic() + self.deadline_seconds
        outcomes: list = [None] * len(units)
        redispatches = [0] * len(units)
        pending = list(range(len(units)))
        for attempt in range(self.shard_attempts):
            if attempt and deadline is not None and time.monotonic() >= deadline:
                break
            tasks = [self._shard_task(*units[i][:3]) for i in pending]
            dispatched = self.executor.map_outcomes(
                _execute_shard_task, tasks, deadline=deadline
            )
            failed = []
            for i, outcome in zip(pending, dispatched):
                outcomes[i] = outcome
                if not (
                    outcome.ok
                    or outcome.timed_out
                    or isinstance(outcome.error, CorruptionError)
                ):
                    failed.append(i)
                    redispatches[i] += 1
            if not failed:
                break
            pending = failed
        counter = self.store.counter
        results = []
        for (_shard, _op, _payload, served), outcome, extra in zip(
            units, outcomes, redispatches
        ):
            if outcome.ok:
                result, delta = outcome.value
                counter.merge(delta)
                for stats in served:
                    stats.retries += extra
                results.append(result)
                continue
            for stats in served:
                stats.shards_failed += 1
                stats.degraded = True
            results.append(None)
        lost = [outcome for outcome in outcomes if not outcome.ok]
        if lost and (require_all or not self.allow_partial):
            error = next((o.error for o in lost if o.error is not None), None)
            if error is not None:
                raise error
            raise TimeoutError(f"{len(lost)} shard task(s) missed the fan-out deadline")
        return results

    def _search_shards(self, op: str, payload: dict, stats: QueryStats) -> list:
        """One single-query op on every shard: ``(shard, answers)`` per
        surviving shard, with the shards' per-query stats folded into ``stats``."""
        units = [(shard, op, payload, (stats,)) for shard in self._shards]
        pairs = []
        for shard, result in zip(self._shards, self._run_units(units)):
            if result is not None:
                answers, local = result
                self._merge_query_stats(stats, local)
                pairs.append((shard, answers))
        return pairs

    def _merged_knn(self, op: str, payload: dict, stats: QueryStats) -> KnnAnswerSet:
        merged = self._make_answer_set(payload["k"])
        for shard, answers in self._search_shards(op, payload, stats):
            merged.merge(answers, position_offset=shard.offset)
        return merged

    # -- search -------------------------------------------------------------------
    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        radii = self.executor.acquire_radii(1)
        try:
            payload = {"query": query, "k": int(k), "radii": radii}
            return self._merged_knn("knn", payload, stats)
        finally:
            self.executor.release_radii(radii)

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        """ng-approximate search: one descent per shard, merged."""
        return self._merged_knn("approx", {"query": query, "k": int(k)}, stats)

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        payload = {"query": query, "radius": float(radius)}
        merged = RangeAnswerSet(radius=radius)
        for shard, answers in self._search_shards("range", payload, stats):
            merged.matches.extend(
                Neighbor(distance=n.distance, position=n.position + shard.offset)
                for n in answers.matches
            )
        return merged

    def _batch_answer_sets(self, queries: np.ndarray, k: int):
        """Batch fan-out: one unit per (shard, query-chunk) pair.

        Chunking the batch adds inter-query parallelism on top of the shard
        fan-out when there are more workers than shards; each shard applies
        its own (possibly vectorized) batch path to every chunk.  Every query
        gets its own shared radius, so — exactly like the single-query path —
        an answer found for query ``j`` in one shard tightens every other
        shard's pruning for query ``j``.  The chunk layout depends on the
        worker and shard counts only, so the GEMM tile shapes — and therefore
        the flat/MASS batch distances — are identical on every executor.
        """
        total = queries.shape[0]
        if total == 0:
            return [], []
        chunk_count = max(1, min(total, -(-self.workers // max(1, len(self._shards)))))
        spans = [
            (shard, sl)
            for sl in chunk_slices(total, chunk_count)
            for shard in self._shards
        ]
        merged_sets = [self._make_answer_set(k) for _ in range(total)]
        merged_stats = [QueryStats(dataset_size=self.store.count) for _ in range(total)]
        radii = self.executor.acquire_radii(total)
        try:
            units = [
                (
                    shard,
                    "batch",
                    {"queries": queries[sl], "k": int(k), "radii": radii[sl]},
                    merged_stats[sl],  # a failed unit degrades exactly these queries
                )
                for shard, sl in spans
            ]
            results = self._run_units(units)
        finally:
            self.executor.release_radii(radii)
        for (shard, sl), result in zip(spans, results):
            if result is None:
                continue
            for merged, stats, answers, shard_stats in zip(
                merged_sets[sl], merged_stats[sl], *result
            ):
                merged.merge(answers, position_offset=shard.offset)
                self._merge_query_stats(stats, shard_stats)
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
        payload = {"query": series, "k": int(query.k), "epsilon": float(epsilon)}
        merged = self._merged_knn("bounded", payload, stats)
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
