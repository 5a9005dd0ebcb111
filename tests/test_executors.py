"""Cross-executor equivalence and resilience tests for the executor seam.

The central contract of ``executor="process"``: answers are **byte-identical**
to thread mode and to the unsharded method — for every storage backend, every
worker count, and every query type — because process mode changes *where*
shard tasks run, never *what* they compute.  On top of the identity grid this
file covers the per-worker counter protocol across the pickle boundary
(satellite: conservation thread vs process), shard planning on collections
smaller than the worker count (satellite: never emit empty shards), and
SIGKILL-resilience of the warm process pool (satellite: shard re-execution on
a fresh worker, ``allow_partial`` degradation).

Process pools come from the shared registry (one warm pool per worker count),
so the whole module pays the spawn cost once per pool shape; the module
teardown shuts them down.
"""

import pickle

import numpy as np
import pytest

from repro import (
    Dataset,
    SeriesStore,
    SimilaritySearchEngine,
    available_methods,
    create_method,
    load_method,
    save_method,
)
from repro.core.faults import (
    FaultPlan,
    RetryPolicy,
    reset_crash_counters,
    take_kill_budget,
)
from repro.core.parallel import (
    ProcessExecutor,
    ThreadExecutor,
    default_executor_kind,
    resolve_executor,
    shutdown_shared_executors,
)
from repro.core.queries import KnnQuery, RangeQuery
from repro.evaluation.runner import run_experiment
from repro.workloads import random_walk_dataset, synth_rand_workload

METHOD_PARAMS = {
    "dstree": {"leaf_capacity": 10},
    "isax2+": {"leaf_capacity": 10},
    "ads+": {"leaf_capacity": 10},
    "va+file": {"coefficients": 8, "bits_per_dimension": 3},
    "sfa-trie": {"leaf_capacity": 15, "coefficients": 6},
    "ucr-suite": {},
    "mass": {},
    "flat": {},
    "stepwise": {},
    "m-tree": {"node_capacity": 8},
    "r*-tree": {"leaf_capacity": 8, "segments": 4},
}

BACKENDS = ("memory", "mmap", "compressed", "growable-snapshot")
WORKER_COUNTS = (1, 2, 5)
SHARDS = 3


def _tie_values():
    """Seeded rows with exact duplicates so answers contain distance ties."""
    base = random_walk_dataset(120, 24, seed=71).values
    return np.vstack([base, base[:20]])


@pytest.fixture(scope="module", autouse=True)
def _shared_pools():
    """Let the module share warm process pools; shut them down at the end."""
    yield
    shutdown_shared_executors()


@pytest.fixture(scope="module")
def queries():
    values = _tie_values()
    workload = synth_rand_workload(values.shape[1], count=2, seed=73)
    rows = [np.asarray(q.series, dtype=np.float64) for q in workload]
    rows.append(values[5])  # self-query: its duplicate ties at distance zero
    rows.append(values[125])  # self-query on the duplicated tail
    return np.vstack(rows)


@pytest.fixture(scope="module")
def backend_store(request, tmp_path_factory):
    """Factory for a fresh store of ``kind`` over the shared tie dataset."""
    root = tmp_path_factory.mktemp("executor-backends")
    values = _tie_values()
    counter = {"n": 0}

    def make(kind: str) -> SeriesStore:
        dataset = Dataset(values=values.copy(), name=f"exec-{kind}")
        counter["n"] += 1
        n = counter["n"]
        if kind == "memory":
            return SeriesStore(dataset)
        if kind == "mmap":
            return SeriesStore(dataset.to_mmap(root / f"data-{n}.npy"))
        if kind == "compressed":
            return SeriesStore(
                dataset.to_compressed(root / f"data-{n}.rcz", qdtype="int16")
            )
        if kind == "growable-snapshot":
            store = SeriesStore(dataset.to_growable(root / f"grow-{n}"))
            return store.snapshot()
        raise ValueError(kind)

    return make


def assert_identical(a, b):
    """Positions AND distances must agree exactly (byte-identical answers)."""
    assert a.positions() == b.positions()
    assert a.distances() == b.distances()


class TestCrossExecutorIdentity:
    """Thread vs process vs unsharded over backends x workers x query types."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_identity_grid(self, backend_store, queries, backend, workers):
        plain = create_method("dstree", backend_store(backend), leaf_capacity=10)
        plain.build()
        built = {}
        for executor in ("thread", "process"):
            method = create_method(
                "sharded:dstree",
                backend_store(backend),
                shards=SHARDS,
                workers=workers,
                executor=executor,
                leaf_capacity=10,
            )
            method.build()
            built[executor] = method

        radius = None
        for q in queries:
            expected = plain.knn_exact(KnnQuery(series=q, k=5))
            if radius is None:  # a radius catching a handful of rows
                radius = expected.distances()[-1] + 1e-6
            for method in built.values():
                assert_identical(expected, method.knn_exact(KnnQuery(series=q, k=5)))
            expected_range = plain.range_exact(RangeQuery(series=q, radius=radius))
            for method in built.values():
                got = method.range_exact(RangeQuery(series=q, radius=radius))
                assert expected_range.positions() == got.positions()
                assert expected_range.distances() == got.distances()

        expected_batch = plain.knn_exact_batch(queries, k=3)
        for method in built.values():
            got = method.knn_exact_batch(queries, k=3)
            for e, g in zip(expected_batch, got):
                assert_identical(e, g)
        for method in built.values():
            method.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_epsilon_identity(self, backend_store, queries, backend):
        plain = create_method("m-tree", backend_store(backend), node_capacity=8)
        plain.build()
        built = {}
        for executor in ("thread", "process"):
            method = create_method(
                "sharded:m-tree",
                backend_store(backend),
                shards=SHARDS,
                workers=2,
                executor=executor,
                node_capacity=8,
            )
            method.build()
            built[executor] = method
        for q in queries:
            knn = KnnQuery(series=q, k=3)
            # epsilon=0 is exact: all three agree byte-for-byte.
            expected = plain.knn_epsilon(knn, 0.0)
            for method in built.values():
                assert_identical(expected, method.knn_epsilon(knn, 0.0))
            # epsilon>0 answers depend only on the shard partitioning, which
            # both executors share — thread and process must agree exactly.
            assert_identical(
                built["thread"].knn_epsilon(knn, 0.3),
                built["process"].knn_epsilon(knn, 0.3),
            )
        for method in built.values():
            method.close()

    def test_every_registered_method_process_identical(self, queries):
        """The full method panel answers identically on a process pool."""
        assert sorted(METHOD_PARAMS) == sorted(available_methods())
        values = _tie_values()
        for name, params in METHOD_PARAMS.items():
            plain = create_method(
                name, SeriesStore(Dataset(values=values, name="panel")), **params
            )
            plain.build()
            sharded = create_method(
                f"sharded:{name}",
                SeriesStore(Dataset(values=values, name="panel")),
                shards=SHARDS,
                workers=2,
                executor="process",
                **params,
            )
            sharded.build()
            for q in queries:
                assert_identical(
                    plain.knn_exact(KnnQuery(series=q, k=5)),
                    sharded.knn_exact(KnnQuery(series=q, k=5)),
                )
            sharded.close()


class TestCounterConservation:
    """The fork/merge accounting protocol holds across the pickle boundary."""

    @pytest.mark.parametrize("method_name", ["isax2+", "dstree"])
    def test_totals_match_thread_mode(self, tmp_path, queries, method_name):
        """workers=1 orders the fan-out, so both executors do identical work
        and every merged counter field must agree exactly — including the
        build's buffer-spill write/read halves and per-query read traffic.
        (Explicit build tasks force a worker-side rebuild, so a warm pool
        cannot make the process build look cheaper than the thread build.)"""
        values = np.vstack([random_walk_dataset(130, 24, seed=911).values] * 2)
        path = tmp_path / "conserve.npy"
        Dataset(values=values, name="conserve").to_mmap(path)
        totals = {}
        for executor in ("thread", "process"):
            store = SeriesStore(Dataset.from_file(path, name="conserve"))
            method = create_method(
                f"sharded:{method_name}",
                store,
                shards=SHARDS,
                workers=1,
                executor=executor,
                **METHOD_PARAMS[method_name],
            )
            method.build()
            for q in queries:
                method.knn_exact(KnnQuery(series=q, k=3))
            totals[executor] = store.counter
            method.close()
        thread, process = totals["thread"], totals["process"]
        assert process.bytes_read == thread.bytes_read
        assert process.series_read == thread.series_read
        assert process.random_accesses == thread.random_accesses
        assert process.sequential_pages == thread.sequential_pages
        assert process.bytes_written == thread.bytes_written
        assert process.physical_bytes_read == thread.physical_bytes_read
        assert thread.bytes_read > 0

    def test_retries_round_trip_from_workers(self, tmp_path, queries):
        """Transient-fault retries happen inside worker processes and must
        surface in the coordinator's merged counter via the task-result delta."""
        values = _tie_values()
        dataset = Dataset(values=values, name="faulty").to_mmap(tmp_path / "f.npy")
        store = SeriesStore(dataset, faults="seed=11,transient=0.3")
        method = create_method(
            "sharded:flat", store, shards=2, workers=2, executor="process"
        )
        method.build()
        method.knn_exact(KnnQuery(series=queries[0], k=3))
        assert store.counter.retries > 0

    def test_worker_cache_serves_queries_without_rebuild(self):
        """The per-worker index cache (keyed by content fingerprint + shard
        slice + method signature) lets repeated query tasks reuse the built
        index instead of rebuilding: a warm cache hit reads nothing and
        rebinds the cached method to the task's fresh store fork.  Explicit
        build tasks always rebuild, so ``build()`` charges
        its cost identically in both executors.  A task holding its index by
        reference never touches the cache at all."""
        from repro.indexes.sharded import _ShardTask, _WORKER_METHODS, _task_method

        values = random_walk_dataset(40, 24, seed=917).values
        base = SeriesStore(Dataset(values=values, name="wcache"))
        key = ("unit-test-key", 0, 40, "dstree", ())
        _WORKER_METHODS.pop(key, None)
        try:
            plan = dict(key=key, method_name="dstree", params={"leaf_capacity": 10})
            task = _ShardTask(base.fork(), "knn", **plan)
            built = _task_method(task)  # cold: builds and reads every row
            assert task.store.counter.series_read == values.shape[0]

            warm = _ShardTask(base.fork(), "knn", **plan)
            cached = _task_method(warm)
            assert cached is built  # cache hit: no rebuild...
            assert warm.store.counter.series_read == 0  # ...and no reads
            assert cached.store is warm.store  # rebound to the fresh fork

            rebuild = _ShardTask(base.fork(), "build", **plan)
            rebuilt = _task_method(rebuild)
            assert rebuilt is not built  # explicit builds never shortcut
            assert rebuild.store.counter.series_read == values.shape[0]

            by_reference = _ShardTask(base.fork(), "knn", method=built)
            assert _task_method(by_reference) is built
            assert _WORKER_METHODS[key] is rebuilt  # cache untouched
            with pytest.raises(TypeError, match="in-process only"):
                pickle.dumps(by_reference)
        finally:
            _WORKER_METHODS.pop(key, None)

    def test_query_stats_retries_count_reexecutions(self, queries):
        """QueryStats.retries reports process-mode shard re-executions."""
        values = _tie_values()
        store = SeriesStore(Dataset(values=values, name="kill"))
        method = create_method(
            "sharded:flat", store, shards=2, workers=2, executor="process"
        )
        method.build()
        reset_crash_counters()
        store.faults = FaultPlan(kill_worker=1)
        result = method.knn_exact(KnnQuery(series=queries[0], k=3))
        assert result.stats.retries > 0
        store.faults = None


class TestSmallCollections:
    """Shard planning never emits empty shards (satellite regression suite)."""

    def test_zero_row_collection_plans_no_shards(self, queries):
        dataset = Dataset(values=np.empty((0, 24)), name="empty")
        method = create_method("sharded:flat", SeriesStore(dataset), shards=4)
        assert method.shard_count == 0
        method.build()  # an empty build is a no-op, not an error

    def test_zero_row_collection_bootstraps_on_extend(self):
        """A method planned over 0 rows grows shards on its first extend."""
        values = _tie_values()
        backing = np.empty((0, 24))
        dataset = Dataset(values=values[:6].copy(), name="boot")
        method = create_method(
            "sharded:flat", SeriesStore(Dataset(values=backing, name="boot")), shards=2
        )
        method.build()
        assert method.shard_count == 0
        # Reattach a store that has grown rows, then extend from 0.
        method.store = SeriesStore(dataset)
        assert method.extend(0, 6) == 6
        assert method.shard_count == 2
        result = method.knn_exact(KnnQuery(series=values[3], k=1))
        assert result.positions() == [3]

    @pytest.mark.parametrize("rows", [1, 3])  # 1 row, workers-1 rows
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_tiny_collections_clamp_shards(self, rows, executor):
        values = _tie_values()[:rows]
        workers = 4
        # dstree computes distances row-wise, so identity is exact even at
        # 1-row shards (flat's vectorized scan has the documented last-ulp
        # tile-shape caveat, which degenerate shard shapes would trip).
        plain = create_method(
            "dstree", SeriesStore(Dataset(values=values, name="tiny")), leaf_capacity=2
        )
        plain.build()
        method = create_method(
            "sharded:dstree",
            SeriesStore(Dataset(values=values, name="tiny")),
            shards=workers,
            workers=workers,
            executor=executor,
            leaf_capacity=2,
        )
        method.build()
        assert method.shard_count == rows  # clamped: every shard is non-empty
        assert all(s.store.count > 0 for s in method._shards)
        q = values[0] + 0.25
        assert_identical(
            plain.knn_exact(KnnQuery(series=q, k=rows)),
            method.knn_exact(KnnQuery(series=q, k=rows)),
        )
        method.close()

    def test_reattach_smaller_store_raises_instead_of_stale_shards(self):
        """Re-attaching a store with fewer rows than shards must fail loudly
        (previously the zip silently left stale tail shards in place)."""
        values = _tie_values()
        method = create_method(
            "sharded:flat", SeriesStore(Dataset(values=values, name="shrink")), shards=4
        )
        method.build()
        small = SeriesStore(Dataset(values=values[:2].copy(), name="shrink"))
        with pytest.raises(ValueError, match="empty"):
            method.store = small


class TestProcessResilience:
    """SIGKILLed workers: shard re-execution, pool respawn, degraded answers."""

    def test_kill_budget_is_coordinator_side(self):
        reset_crash_counters()
        plan = FaultPlan(kill_worker=2)
        assert take_kill_budget(plan) is True
        assert take_kill_budget(plan) is True
        assert take_kill_budget(plan) is False  # budget spent
        assert take_kill_budget(None) is False
        reset_crash_counters()

    def test_killed_worker_during_build_recovers(self, queries):
        """A worker SIGKILLed mid-build breaks the pool; the build re-executes
        the lost shards on a respawned pool and completes."""
        reset_crash_counters()
        values = _tie_values()
        store = SeriesStore(Dataset(values=values, name="kb"), faults="kill_worker=1")
        method = create_method(
            "sharded:flat", store, shards=2, workers=2, executor="process"
        )
        method.build()
        plain = create_method("flat", SeriesStore(Dataset(values=values, name="kb")))
        plain.build()
        assert_identical(
            plain.knn_exact(KnnQuery(series=queries[0], k=3)),
            method.knn_exact(KnnQuery(series=queries[0], k=3)),
        )
        reset_crash_counters()

    def test_killed_worker_during_query_reexecutes_shard(self, queries):
        reset_crash_counters()
        values = _tie_values()
        store = SeriesStore(Dataset(values=values, name="kq"))
        method = create_method(
            "sharded:flat", store, shards=2, workers=2, executor="process"
        )
        method.build()
        plain = create_method("flat", SeriesStore(Dataset(values=values, name="kq")))
        plain.build()
        store.faults = FaultPlan(kill_worker=1)
        result = method.knn_exact(KnnQuery(series=queries[0], k=3))
        assert result.stats.retries > 0
        assert not result.stats.degraded
        assert_identical(plain.knn_exact(KnnQuery(series=queries[0], k=3)), result)
        store.faults = None
        reset_crash_counters()

    def test_exhausted_attempts_degrade_with_allow_partial(self, queries):
        """When every attempt is killed, allow_partial returns a degraded
        answer flagging the dropped shards instead of failing the query."""
        reset_crash_counters()
        values = _tie_values()
        store = SeriesStore(Dataset(values=values, name="kd"))
        method = create_method(
            "sharded:flat",
            store,
            shards=2,
            workers=2,
            executor="process",
            shard_attempts=2,
            allow_partial=True,
        )
        method.build()
        store.faults = FaultPlan(kill_worker=1_000_000)
        result = method.knn_exact(KnnQuery(series=queries[0], k=3))
        assert result.stats.degraded
        assert result.stats.shards_failed > 0
        store.faults = None
        reset_crash_counters()

    def test_exhausted_attempts_raise_without_allow_partial(self, queries):
        reset_crash_counters()
        values = _tie_values()
        store = SeriesStore(Dataset(values=values, name="kr"))
        method = create_method(
            "sharded:flat", store, shards=2, workers=2, executor="process"
        )
        method.build()
        store.faults = FaultPlan(kill_worker=1_000_000)
        with pytest.raises(Exception):
            method.knn_exact(KnnQuery(series=queries[0], k=3))
        store.faults = None
        reset_crash_counters()


class TestOnePipeline:
    """Both executors run the same tasks through the same dispatch, retry,
    merge and degrade code; only the task's materialisation differs."""

    #: per inner method: a transient plan that, with store-level retries off,
    #: makes shard tasks fail often enough to re-dispatch and to degrade.
    PLANS = {
        "flat": "seed=11,transient=0.3",
        "dstree": "seed=23,transient=0.1",
        "m-tree": "seed=23,transient=0.1",
    }

    @pytest.fixture(scope="class")
    def fault_record(self, tmp_path_factory):
        """``record(executor, inner, allow_partial)``: what every query type
        returned under the inner method's fault plan, memoised."""
        path = tmp_path_factory.mktemp("one-pipeline") / "faulty.npy"
        Dataset(values=_tie_values(), name="faulty").to_mmap(path)
        batch = _tie_values()[[3, 50, 90, 130]] + 0.05
        records = {}

        def observe(out, op, call):
            try:
                results = call()
            except OSError as exc:  # the injected fault, out of attempts
                out.append((op, type(exc).__name__))
                return
            for result in results if isinstance(results, list) else [results]:
                stats = result.stats
                out.append(
                    (
                        op,
                        [(n.position, float(n.distance).hex()) for n in result.neighbors],
                        stats.retries,
                        stats.shards_failed,
                        stats.degraded,
                    )
                )

        def record(executor, inner, allow_partial):
            key = (executor, inner, allow_partial)
            if key in records:
                return records[key]
            # workers=1 orders the fan-out and keeps one warm worker cache, so
            # both executors issue the same reads under the same incarnations.
            method = create_method(
                f"sharded:{inner}",
                SeriesStore(Dataset.from_file(path, name="faulty")),
                shards=SHARDS,
                workers=1,
                executor=executor,
                shard_attempts=2 if allow_partial else 8,
                allow_partial=allow_partial,
                **METHOD_PARAMS[inner],
            )
            method.build()
            # Faults start after the build, and nothing below the shard task
            # retries: a transient error fails the task that met it.
            faulty = SeriesStore(
                Dataset.from_file(path, name="faulty"),
                faults=self.PLANS[inner],
                retry=RetryPolicy(attempts=1),
            )
            method.store = faulty
            out = []
            for q in batch:
                knn = KnnQuery(series=q, k=3)
                observe(out, "knn", lambda: method.knn_exact(knn))
                observe(
                    out,
                    "range",
                    lambda: method.range_exact(RangeQuery(series=q, radius=2.0)),
                )
                if method.supports_approximate:
                    observe(out, "approx", lambda: method.knn_approximate(knn))
                if inner == "m-tree":
                    observe(out, "epsilon", lambda: method.knn_epsilon(knn, 0.3))
            observe(out, "batch", lambda: method.knn_exact_batch(batch, k=3))
            counter = faulty.counter
            out.append(
                (
                    "counter",
                    counter.series_read,
                    counter.bytes_read,
                    counter.physical_bytes_read,
                    counter.random_accesses,
                    counter.sequential_pages,
                )
            )
            method.close()
            records[key] = out
            return out

        return record

    @pytest.mark.parametrize("allow_partial", [False, True])
    @pytest.mark.parametrize("inner", sorted(PLANS))
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_same_fault_plan_same_outcome(
        self, fault_record, executor, inner, allow_partial
    ):
        """Same seeded plan => equal retries, shards_failed, degraded flags,
        counter totals and byte-identical answers (or the same error) for
        knn, range, approximate, epsilon and batch queries."""
        other = "process" if executor == "thread" else "thread"
        got = fault_record(executor, inner, allow_partial)
        assert got == fault_record(other, inner, allow_partial)
        answered = [entry for entry in got[:-1] if len(entry) == 5]
        assert {"knn", "range", "batch"} <= {entry[0] for entry in answered}
        assert sum(entry[2] for entry in answered) > 0  # re-dispatches happened
        if allow_partial:
            assert any(entry[4] for entry in answered)  # some answers degraded
            assert not all(entry[4] for entry in answered)  # and some did not
        else:
            assert not any(entry[4] or entry[3] for entry in answered)

    def test_in_process_tasks_never_pickle_spill_or_fingerprint(
        self, monkeypatch, queries
    ):
        """On the thread executor a task holds the shard's index by reference:
        no content fingerprint, no memory spill, no pickle — for builds (incl.
        the first extend and a repartition) and every query type."""
        from repro.indexes import sharded as sharded_module

        def forbidden(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} reached from an in-process task")

            return spy

        monkeypatch.setattr(sharded_module, "_content_key", forbidden("_content_key"))
        monkeypatch.setattr(
            sharded_module.ShardedMethod, "_ensure_spill", forbidden("_ensure_spill")
        )
        monkeypatch.setattr(sharded_module.pickle, "dumps", forbidden("pickle.dumps"))
        values = _tie_values()
        store = SeriesStore(Dataset(values=values, name="by-ref"))  # would spill
        method = create_method(
            "sharded:m-tree", store, shards=SHARDS, workers=2, executor="thread",
            node_capacity=8,
        )
        method.build()
        plain = create_method(
            "m-tree", SeriesStore(Dataset(values=values, name="by-ref")), node_capacity=8
        )
        plain.build()
        for q in queries:
            knn = KnnQuery(series=q, k=3)
            assert_identical(plain.knn_exact(knn), method.knn_exact(knn))
            assert_identical(plain.knn_epsilon(knn, 0.0), method.knn_epsilon(knn, 0.0))
            ranged = RangeQuery(series=q, radius=3.0)
            assert (
                plain.range_exact(ranged).positions()
                == method.range_exact(ranged).positions()
            )
        for e, g in zip(plain.knn_exact_batch(queries, k=3), method.knn_exact_batch(queries, k=3)):
            assert_identical(e, g)
        method.repartition()
        assert_identical(
            plain.knn_exact(KnnQuery(series=queries[0], k=3)),
            method.knn_exact(KnnQuery(series=queries[0], k=3)),
        )
        method.close()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_every_build_dispatch_builds_a_new_index(self, queries, executor):
        """A build task never re-enters an index a previous dispatch touched
        (the M-tree's insert loop is not re-entrant): a second ``build()`` — or
        a re-dispatched build — starts from a fresh instance on both executors."""
        values = _tie_values()
        method = create_method(
            "sharded:m-tree",
            SeriesStore(Dataset(values=values, name="rebuild")),
            shards=2,
            workers=2,
            executor=executor,
            node_capacity=8,
        )
        method.build()
        first = [shard.method for shard in method._shards]
        method.build()
        assert all(a is not b.method for a, b in zip(first, method._shards))
        plain = create_method(
            "m-tree", SeriesStore(Dataset(values=values, name="rebuild")), node_capacity=8
        )
        plain.build()
        for q in queries:
            knn = KnnQuery(series=q, k=3)
            assert_identical(plain.knn_exact(knn), method.knn_exact(knn))
        method.close()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_straggler_of_a_timed_out_query_cannot_prune_the_next(
        self, tmp_path, executor
    ):
        """Query 1 misses its deadline on every shard and comes back degraded
        while its tasks are still running; they finish — having found *their*
        k-th distance (zero: query 1 is a row of the collection) — during
        query 2, which must still return the exact answer."""
        values = _tie_values()
        path = tmp_path / "slow.npy"
        Dataset(values=values, name="slow").to_mmap(path)
        # Every read sleeps: any task outlives a 0.1 s deadline.
        slow = FaultPlan(seed=3, latency=1.0, latency_seconds=0.3)
        method = create_method(
            "sharded:flat",
            SeriesStore(Dataset.from_file(path, name="slow"), faults=slow),
            shards=2,
            workers=2,
            executor=executor,
            allow_partial=True,
            deadline_seconds=0.1,
        )
        method.build()
        first = method.knn_exact(KnnQuery(series=values[5], k=1))
        assert first.stats.degraded and first.stats.shards_failed == 2
        method.deadline_seconds = None
        far = KnnQuery(series=values[100] + 5.0, k=3)
        second = method.knn_exact(far)
        plain = create_method("flat", SeriesStore(Dataset(values=values, name="slow")))
        plain.build()
        assert not second.stats.degraded
        assert_identical(plain.knn_exact(far), second)
        method.close()


class TestExecutorSeam:
    """The seam itself: resolution, env control, plumbing, persistence."""

    def test_default_kind_follows_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_kind() == "thread"
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert default_executor_kind() == "process"
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            default_executor_kind()

    def test_resolve_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(resolve_executor(None, 2), ThreadExecutor)
        assert isinstance(resolve_executor("thread", 2), ThreadExecutor)
        process = resolve_executor("process", 2)
        assert isinstance(process, ProcessExecutor)
        assert process is resolve_executor("process", 2)  # shared registry
        custom = ThreadExecutor(3)
        assert resolve_executor(custom) is custom
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("fiber", 2)
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        method = create_method(
            "sharded:flat",
            SeriesStore(Dataset(values=_tie_values()[:10], name="env")),
            shards=2,
        )
        assert method.executor_kind == "process"

    def test_engine_and_runner_plumbing(self, queries):
        values = _tie_values()
        engine = SimilaritySearchEngine(
            Dataset(values=values, name="eng"), executor="process"
        )
        engine.build("sharded:flat", shards=2, workers=2)
        assert engine.method.executor_kind == "process"
        baseline = SimilaritySearchEngine(Dataset(values=values, name="eng"))
        baseline.build("flat")
        got = engine.search(queries[0], k=3)
        expected = baseline.search(queries[0], k=3)
        assert expected.positions() == got.positions()

        dataset = Dataset(values=values, name="run")
        workload = synth_rand_workload(values.shape[1], count=2, seed=79)
        result = run_experiment(
            dataset,
            workload,
            "sharded:flat",
            method_params={"shards": 2, "workers": 2},
            executor="process",
        )
        thread_result = run_experiment(
            dataset,
            workload,
            "sharded:flat",
            method_params={"shards": 2, "workers": 2},
            executor="thread",
        )
        assert [
            [(n.position, n.distance) for n in row] for row in result.answers
        ] == [[(n.position, n.distance) for n in row] for row in thread_result.answers]
        with pytest.raises(ValueError, match="sharded"):
            run_experiment(dataset, workload, "flat", executor="process")

    def test_describe_reports_executor(self):
        method = create_method(
            "sharded:flat",
            SeriesStore(Dataset(values=_tie_values()[:10], name="desc")),
            shards=2,
            executor="process",
        )
        assert method.describe()["executor"] == "process"

    def test_process_method_survives_pickle_and_persistence(self, tmp_path, queries):
        values = _tie_values()
        dataset = Dataset(values=values, name="persist")
        method = create_method(
            "sharded:flat", SeriesStore(dataset), shards=2, workers=2, executor="process"
        )
        method.build()
        expected = method.knn_exact(KnnQuery(series=queries[0], k=3))
        clone = pickle.loads(pickle.dumps(method))
        assert clone.executor_kind == "process"
        path = tmp_path / "proc.idx"
        save_method(method, path)
        loaded = load_method(path, dataset)
        assert loaded.executor_kind == "process"
        assert_identical(expected, loaded.knn_exact(KnnQuery(series=queries[0], k=3)))
        assert_identical(expected, method.knn_exact(KnnQuery(series=queries[0], k=3)))
