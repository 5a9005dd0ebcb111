"""Tests for the parallel sharded execution engine.

Covers the ``ShardedMethod`` wrapper (partition-parallel builds, shard
fan-out with per-shard pruning, deterministic answer merging), the
``core.parallel`` helpers, the thread-safe ``BufferPool``, the engine/runner
``workers=`` dispatch, and persistence of sharded indexes.  The central
contract: ``ShardedMethod(m, shards=S, workers=W)`` returns exactly ``m``'s
answers — including distance ties, ``k`` larger than a shard, range and
epsilon queries — for every registered method and every worker count —
and per-query work counters that are the sum of the shards' own, whatever
the executor or worker count.
"""

import threading

import numpy as np
import pytest

from repro import (
    Dataset,
    SeriesStore,
    SimilaritySearchEngine,
    available_methods,
    create_method,
    load_method,
    parallel_batch_search,
    save_method,
)
from repro.core.answers import KnnAnswerSet
from repro.core.buffer import BufferPool
from repro.core.parallel import (
    chunk_slices,
    parallel_map,
    resolve_workers,
    shutdown_shared_executors,
)
from repro.core.queries import KnnQuery, RangeQuery
from repro.indexes.sharded import ShardedMethod
from repro.workloads import random_walk_dataset, synth_rand_workload

SHARDED_METHOD_PARAMS = {
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

#: methods whose batch path is a vectorized GEMM kernel — distances may move
#: in the final ulp between tile shapes (the documented batch-API caveat).
VECTOR_BATCH = {"flat", "mass"}

SHARDS = 3
WORKERS = 2


@pytest.fixture(scope="module")
def tie_dataset():
    """Seeded dataset with exact duplicates so k-NN answers contain ties."""
    base = random_walk_dataset(140, 32, seed=61).values
    values = np.vstack([base, base[:20]])  # the first 20 series appear twice
    return Dataset(values=values, name="sharded-ties")


@pytest.fixture(scope="module")
def queries(tie_dataset):
    workload = synth_rand_workload(tie_dataset.length, count=3, seed=63)
    rows = [q.series for q in workload]
    rows.append(tie_dataset.values[7])  # self-query: duplicates tie at zero
    rows.append(tie_dataset.values[150])  # self-query on the duplicated tail
    return np.vstack([np.asarray(q, dtype=np.float64) for q in rows])


@pytest.fixture(scope="module")
def built_pairs(tie_dataset):
    """(plain, sharded) instances of every registered method, built once."""
    pairs = {}
    for name, params in SHARDED_METHOD_PARAMS.items():
        plain = create_method(name, SeriesStore(tie_dataset), **params)
        plain.build()
        sharded = create_method(
            f"sharded:{name}",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=WORKERS,
            **params,
        )
        sharded.build()
        pairs[name] = (plain, sharded)
    return pairs


def assert_identical(a, b):
    """Positions AND distances must agree exactly (byte-identical answers)."""
    assert a.positions() == b.positions()
    assert a.distances() == b.distances()


class TestShardedEquivalence:
    def test_all_registered_methods_covered(self):
        assert sorted(SHARDED_METHOD_PARAMS) == sorted(available_methods())

    @pytest.mark.parametrize("method_name", sorted(SHARDED_METHOD_PARAMS))
    @pytest.mark.parametrize("k", [1, 5])
    def test_knn_byte_identical(self, built_pairs, queries, method_name, k):
        plain, sharded = built_pairs[method_name]
        for q in queries:
            assert_identical(
                plain.knn_exact(KnnQuery(series=q, k=k)),
                sharded.knn_exact(KnnQuery(series=q, k=k)),
            )

    @pytest.mark.parametrize("method_name", sorted(SHARDED_METHOD_PARAMS))
    def test_k_larger_than_shard(self, built_pairs, queries, method_name):
        """k = 70 exceeds each ~53-series shard, so every shard under-fills."""
        plain, sharded = built_pairs[method_name]
        q = KnnQuery(series=queries[0], k=70)
        assert_identical(plain.knn_exact(q), sharded.knn_exact(q))

    @pytest.mark.parametrize("method_name", sorted(SHARDED_METHOD_PARAMS))
    def test_batch_matches_plain_batch(self, built_pairs, queries, method_name):
        plain, sharded = built_pairs[method_name]
        b1 = plain.knn_exact_batch(queries, k=4)
        b2 = sharded.knn_exact_batch(queries, k=4)
        for x, y in zip(b1, b2):
            assert x.positions() == y.positions()
            if method_name in VECTOR_BATCH:
                np.testing.assert_allclose(
                    x.distances(), y.distances(), rtol=1e-9, atol=1e-6
                )
            else:
                assert x.distances() == y.distances()

    @pytest.mark.parametrize(
        "method_name", ["dstree", "isax2+", "va+file", "m-tree", "ucr-suite", "stepwise"]
    )
    @pytest.mark.parametrize("radius_factor", [0.5, 1.0, 1.5])
    def test_range_byte_identical(
        self, built_pairs, tie_dataset, queries, method_name, radius_factor
    ):
        plain, sharded = built_pairs[method_name]
        query = queries[1]
        diffs = tie_dataset.values.astype(np.float64) - query
        radius = float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).min())) * radius_factor + 1e-6
        r1 = plain.range_exact(RangeQuery(series=query, radius=radius))
        r2 = sharded.range_exact(RangeQuery(series=query, radius=radius))
        assert r1.positions() == r2.positions()
        assert r1.distances() == r2.distances()

    def test_epsilon_zero_byte_identical(self, built_pairs, queries):
        plain, sharded = built_pairs["m-tree"]
        q = KnnQuery(series=queries[3], k=5)
        assert_identical(plain.knn_epsilon(q, 0.0), sharded.knn_epsilon(q, 0.0))

    def test_epsilon_guarantee_holds_sharded(self, built_pairs, tie_dataset, queries):
        _, sharded = built_pairs["m-tree"]
        epsilon = 0.5
        for q in queries:
            knn = KnnQuery(series=q, k=3)
            result = sharded.knn_epsilon(knn, epsilon)
            diffs = tie_dataset.values.astype(np.float64) - np.asarray(q)
            exact_kth = float(
                np.sqrt(np.partition(np.einsum("ij,ij->i", diffs, diffs), 2)[2])
            )
            assert all(d <= (1 + epsilon) * exact_kth + 1e-9 for d in result.distances())

    def test_epsilon_unsupported_inner_raises(self, built_pairs, queries):
        _, sharded = built_pairs["flat"]
        with pytest.raises(NotImplementedError):
            sharded.knn_epsilon(KnnQuery(series=queries[0], k=1), 0.1)

    def test_approximate_search_merges_shard_leaves(self, built_pairs, queries):
        plain, sharded = built_pairs["isax2+"]
        assert sharded.supports_approximate
        result = sharded.knn_approximate(KnnQuery(series=queries[3], k=1))
        # The self-query's duplicate pair sits in some shard's leaf; the
        # merged multi-shard descent must find a zero-distance answer.
        assert result.distances()[0] == pytest.approx(0.0, abs=1e-6)
        assert plain.knn_approximate(KnnQuery(series=queries[3], k=1)).neighbors


class TestWorkerInvarianceAndStats:
    def test_worker_count_does_not_change_answers(self, tie_dataset, queries):
        """workers=1 and workers=4 return byte-identical answers."""
        results = []
        for workers in (1, 4):
            method = create_method(
                "sharded:dstree",
                SeriesStore(tie_dataset),
                shards=4,
                workers=workers,
                leaf_capacity=10,
            )
            method.build()
            for q in queries:
                results.append(method.knn_exact(KnnQuery(series=q, k=5)))
        half = len(results) // 2
        for a, b in zip(results[:half], results[half:]):
            assert_identical(a, b)

    def test_sequential_fanout_stats_deterministic(self, tie_dataset, queries):
        """Shards prune on their own answers only, so stats are reproducible
        whether the fan-out is ordered (one worker) or concurrent."""
        for workers in (1, 2):
            runs = []
            for _ in range(2):
                method = create_method(
                    "sharded:isax2+",
                    SeriesStore(tie_dataset),
                    shards=SHARDS,
                    workers=workers,
                    leaf_capacity=10,
                )
                method.build()
                runs.append(method.knn_exact(KnnQuery(series=queries[0], k=3)).stats)
            a, b = runs
            assert a.series_examined == b.series_examined
            assert a.leaves_visited == b.leaves_visited
            assert a.random_accesses == b.random_accesses

    def test_stats_totals_are_shard_sums(self, tie_dataset, queries):
        """Merged QueryStats are the exact sum of the per-shard searches."""
        sharded = create_method(
            "sharded:isax2+",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=1,
            leaf_capacity=10,
        )
        sharded.build()
        merged = sharded.knn_exact(KnnQuery(series=queries[0], k=3)).stats

        # Each shard searches exactly as it would on its own, and every shard
        # contributes at least its seeded leaf.
        independent_leaves = 0
        for shard in sharded._shards:
            result = shard.method.knn_exact(KnnQuery(series=queries[0], k=3))
            independent_leaves += result.stats.leaves_visited
        assert merged.leaves_visited == independent_leaves
        assert merged.leaves_visited >= sharded.shard_count
        assert 0 < merged.series_examined <= tie_dataset.count
        assert merged.dataset_size == tie_dataset.count
        # The store-level roll-up matches the per-query charge.
        before = sharded.store.counter.snapshot()
        result = sharded.knn_exact(KnnQuery(series=queries[1], k=3))
        delta = sharded.store.counter.diff(before)
        assert result.stats.random_accesses == delta.random_accesses
        assert result.stats.bytes_read == delta.bytes_read

    def test_shared_radius_tightens_pruning(self, tie_dataset):
        """Every shard prunes on its own answers: a self-query stays far below
        a full scan although only one shard holds the zero-distance match."""
        sharded = create_method(
            "sharded:dstree",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=1,
            leaf_capacity=10,
        )
        sharded.build()
        stats = sharded.knn_exact(KnnQuery(series=tie_dataset.values[7], k=1)).stats
        # Each shard scans its seeded leaf plus the leaves its own k-th
        # distance cannot rule out; together that is far below a full scan.
        assert stats.series_examined < tie_dataset.count / 2

    def test_large_batch_work_equals_independent_shard_work(self, tie_dataset):
        """The tail of a 600-query batch does exactly the work it does as a
        batch of its own, and exactly what the two shards, searched on their
        own, do for the same queries."""
        sharded = create_method(
            "sharded:dstree",
            SeriesStore(tie_dataset),
            shards=2,
            workers=2,
            executor="thread",
            leaf_capacity=10,
        )
        sharded.build()
        rng = np.random.default_rng(67)
        rows = rng.integers(0, tie_dataset.count, size=600)
        batch = tie_dataset.values[rows] + 0.01 * rng.standard_normal((600, 32))
        big = sharded.knn_exact_batch(batch, k=1)
        tail = sharded.knn_exact_batch(batch[512:], k=1)
        assert len(tail) == 88
        assert [r.stats.series_examined for r in big[512:]] == [
            r.stats.series_examined for r in tail
        ]
        per_shard = [
            [r.stats.series_examined for r in shard.method.knn_exact_batch(batch[512:], k=1)]
            for shard in sharded._shards
        ]
        independent = [sum(work) for work in zip(*per_shard)]
        assert [r.stats.series_examined for r in tail] == independent

    def test_build_stats_aggregate_shards(self, built_pairs, tie_dataset):
        plain, sharded = built_pairs["isax2+"]
        assert sharded.index_stats.leaf_nodes > 0
        assert len(sharded.index_stats.leaf_fill_factors) == sharded.index_stats.leaf_nodes
        assert sharded.index_stats.disk_bytes == plain.index_stats.disk_bytes
        assert sharded.index_stats.method == "sharded:isax2+"
        # Build I/O rolled up from every shard: at least one scan of the data.
        assert sharded.index_stats.sequential_pages > 0


#: the per-query work counters a shard's search charges.
WORK_COUNTERS = ("series_examined", "lower_bounds_computed", "nodes_visited", "leaves_visited")

#: the best-first trees plus ADS+: the methods whose pruning depends on the
#: answers found so far.
SHARDED_TREES = ["ads+", "dstree", "isax2+", "m-tree", "r*-tree", "sfa-trie"]


def _work(stats) -> tuple:
    return tuple(getattr(stats, name) for name in WORK_COUNTERS)


class TestDeterministicShardCounters:
    """Shards share nothing while they search, so a query's work counters are
    a pure function of the query and the shard layout.

    Only work counters are compared: a retried task is thrown away whole, so
    a transient fault plan moves ``retries`` but never these.
    """

    @pytest.fixture(scope="class", autouse=True)
    def _release_pools(self):
        yield
        shutdown_shared_executors()

    @pytest.mark.parametrize("method_name", SHARDED_TREES)
    def test_work_is_the_shard_sum_on_every_executor_and_worker_count(
        self, tie_dataset, queries, method_name
    ):
        params = SHARDED_METHOD_PARAMS[method_name]
        observed = set()
        for executor in ("thread", "process"):
            for workers in (1, 2, 4):
                sharded = create_method(
                    f"sharded:{method_name}",
                    SeriesStore(tie_dataset),
                    shards=SHARDS,
                    workers=workers,
                    executor=executor,
                    **params,
                )
                sharded.build()
                for _ in range(5):
                    observed.add(
                        tuple(
                            _work(sharded.knn_exact(KnnQuery(series=q, k=5)).stats)
                            for q in queries
                        )
                    )
                batch = sharded.knn_exact_batch(queries, k=5)
                observed.add(tuple(_work(result.stats) for result in batch))
        shard_sums = tuple(
            tuple(
                sum(counts)
                for counts in zip(
                    *(
                        _work(shard.method.knn_exact(KnnQuery(series=q, k=5)).stats)
                        for shard in sharded._shards
                    )
                )
            )
            for q in queries
        )
        assert observed == {shard_sums}
        assert all(work[0] for work in shard_sums)  # the searches did examine rows


class TestShardedConfiguration:
    def test_shards_clamped_to_collection(self):
        dataset = random_walk_dataset(10, 16, seed=3)
        method = create_method("sharded:flat", SeriesStore(dataset), shards=64, workers=2)
        method.build()
        assert method.shard_count == 10
        result = method.knn_exact(KnnQuery(series=dataset.values[4], k=3))
        assert result.positions()[0] == 4

    def test_nested_sharding_rejected(self, tie_dataset):
        with pytest.raises(ValueError):
            ShardedMethod(SeriesStore(tie_dataset), inner="sharded:flat")

    def test_unknown_inner_raises_keyerror(self, tie_dataset):
        with pytest.raises(KeyError):
            create_method("sharded:nope", SeriesStore(tie_dataset))

    def test_bare_sharded_name_with_inner_param(self, tie_dataset):
        method = create_method("sharded", SeriesStore(tie_dataset), inner="iSAX2+",
                               shards=2, workers=1, leaf_capacity=10)
        assert method.inner_name == "isax2+"  # inner= is case-insensitive
        with pytest.raises(ValueError):  # prefix and inner= must not conflict
            create_method("sharded:flat", SeriesStore(tie_dataset), inner="flat")

    def test_close_releases_and_recreates_pool(self, tie_dataset, queries):
        # Pinned to the thread executor: shared process executors are owned
        # by the registry and deliberately survive method.close().
        method = create_method(
            "sharded:flat",
            SeriesStore(tie_dataset),
            shards=2,
            workers=2,
            executor="thread",
        )
        method.build()
        first = method.knn_exact(KnnQuery(series=queries[0], k=3))
        assert method.executor._pool is not None
        method.close()
        assert method.executor._pool is None
        method.close()  # idempotent
        again = method.knn_exact(KnnQuery(series=queries[0], k=3))  # still usable
        assert_identical(first, again)

    def test_invalid_worker_and_shard_counts(self, tie_dataset):
        with pytest.raises(ValueError):
            create_method("sharded:flat", SeriesStore(tie_dataset), shards=0)
        with pytest.raises(ValueError):
            create_method("sharded:flat", SeriesStore(tie_dataset), workers=0)

    def test_append_rejects_already_indexed_rows(self, built_pairs):
        # Appends route to the tail shard and must pick up exactly where the
        # indexed rows end — re-appending row 0 is a contract violation.
        _, sharded = built_pairs["isax2+"]
        with pytest.raises(ValueError, match="indexed row count"):
            sharded.append(0)

    def test_describe_reports_topology(self, built_pairs):
        _, sharded = built_pairs["dstree"]
        info = sharded.describe()
        assert info["inner"] == "dstree"
        assert info["shards"] == SHARDS
        assert info["workers"] == WORKERS

    def test_persistence_roundtrip(self, tie_dataset, queries, tmp_path):
        sharded = create_method(
            "sharded:isax2+",
            SeriesStore(tie_dataset),
            shards=SHARDS,
            workers=WORKERS,
            leaf_capacity=10,
        )
        sharded.build()
        expected = sharded.knn_exact(KnnQuery(series=queries[0], k=5))
        path = tmp_path / "sharded.idx"
        envelope = save_method(sharded, path)
        # Shard stores are detached before pickling: no raw data in the file.
        assert tie_dataset.values[60:90].tobytes() not in envelope.method_state
        loaded = load_method(path, tie_dataset)
        assert_identical(expected, loaded.knn_exact(KnnQuery(series=queries[0], k=5)))
        # The live instance keeps working after the save detach/re-attach.
        assert_identical(expected, sharded.knn_exact(KnnQuery(series=queries[0], k=5)))

    def test_persistence_after_tail_routed_extends(self, tie_dataset, queries, tmp_path):
        """Save -> reopen -> query on a growable store whose index took extends.

        Tail routing leaves the shards unbalanced, so re-attaching must use the
        row ranges the shards indexed, not balanced slices of the new count.
        """
        values = tie_dataset.values
        base = Dataset(values=values[:90].copy(), name="grown")
        store = SeriesStore(base.to_growable(tmp_path / "store"))
        sharded = create_method(
            "sharded:isax2+", store, shards=SHARDS, workers=1, leaf_capacity=10,
            repartition_factor=None,
        )
        sharded.build()
        for start in range(90, values.shape[0], 25):
            old = store.count
            store.extend(values[start : start + 25])
            sharded.extend(old)
        ranges = [(shard.offset, shard.rows) for shard in sharded._shards]
        assert ranges[-1][1] > ranges[0][1]  # the tail grew: no longer balanced
        expected = [sharded.knn_exact(KnnQuery(series=q, k=5)) for q in queries]
        path = tmp_path / "grown.idx"
        save_method(sharded, path)
        # The live instance re-attaches on the same ranges after the save.
        assert [(s.offset, s.rows) for s in sharded._shards] == ranges
        assert_identical(expected[0], sharded.knn_exact(KnnQuery(series=queries[0], k=5)))
        sharded.close()
        store.backend.close()

        reopened = Dataset.from_file(tmp_path / "store", length=values.shape[1])
        try:
            loaded = load_method(path, dataset=reopened)
            assert [(s.offset, s.rows) for s in loaded._shards] == ranges
            for query, want in zip(queries, expected):
                assert_identical(want, loaded.knn_exact(KnnQuery(series=query, k=5)))
            plain = create_method(
                "isax2+", SeriesStore(Dataset(values=values.copy())), leaf_capacity=10
            )
            plain.build()
            assert_identical(plain.knn_exact(KnnQuery(series=queries[0], k=5)), expected[0])
        finally:
            reopened.backend.close()


class TestEngineAndRunnerWorkers:
    def test_engine_search_batch_workers_identical(self, tie_dataset, queries):
        engine = SimilaritySearchEngine(tie_dataset)
        engine.build("sharded:dstree", shards=SHARDS, workers=WORKERS, leaf_capacity=10)
        sequential = engine.search_batch(queries, k=3)
        parallel = engine.search_batch(queries, k=3, workers=4)
        for a, b in zip(sequential, parallel):
            assert_identical(a, b)

    def test_parallel_batch_search_plain_method(self, tie_dataset, queries):
        method = create_method("dstree", SeriesStore(tie_dataset), leaf_capacity=10)
        method.build()
        sequential = method.knn_exact_batch(queries, k=3)
        parallel = parallel_batch_search(method, queries, k=3, workers=3)
        for a, b in zip(sequential, parallel):
            assert_identical(a, b)

    def test_parallel_batch_search_accounting_rolls_up(self, tie_dataset, queries):
        method = create_method("dstree", SeriesStore(tie_dataset), leaf_capacity=10)
        method.build()
        before = method.store.counter.snapshot()
        results = parallel_batch_search(method, queries, k=3, workers=3)
        delta = method.store.counter.diff(before)
        # Worker-local counters were merged back: per-query charges sum to the
        # store-level delta.
        assert sum(r.stats.random_accesses for r in results) == delta.random_accesses
        assert sum(r.stats.bytes_read for r in results) == delta.bytes_read

    def test_runner_workers_matches_sequential(self, tie_dataset):
        from repro.evaluation import HDD, run_experiment

        workload = synth_rand_workload(tie_dataset.length, count=4, seed=71)
        base = run_experiment(tie_dataset, workload, "flat", platform=HDD)
        threaded = run_experiment(tie_dataset, workload, "flat", platform=HDD, workers=3)
        for a, b in zip(base.answers, threaded.answers):
            assert [n.position for n in a] == [n.position for n in b]

    def test_cli_sharded_run_and_workers(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--method",
                "sharded:isax2+",
                "--count",
                "200",
                "--length",
                "32",
                "--queries",
                "4",
                "--workers",
                "2",
                "--shards",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded:isax2+" in out

    def test_cli_rejects_unknown_sharded_inner(self, capsys):
        from repro.cli import main

        code = main(["run", "--method", "sharded:nope", "--count", "50", "--length", "16"])
        assert code == 2

    def test_cli_rejects_shards_on_unsharded_method(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "--method", "isax2+", "--count", "50", "--length", "16", "--shards", "4"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "sharded:isax2+" in out


class TestParallelPrimitives:
    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_chunk_slices_partition_exactly(self):
        for total, parts in [(10, 3), (7, 7), (5, 9), (100, 4), (1, 1)]:
            slices = chunk_slices(total, parts)
            assert slices[0].start == 0 and slices[-1].stop == total
            covered = [i for sl in slices for i in range(sl.start, sl.stop)]
            assert covered == list(range(total))
            sizes = [sl.stop - sl.start for sl in slices]
            assert max(sizes) - min(sizes) <= 1
        assert chunk_slices(0, 4) == []

    def test_parallel_map_orders_and_propagates(self):
        assert parallel_map(lambda x: x * x, range(20), workers=4) == [
            x * x for x in range(20)
        ]
        with pytest.raises(RuntimeError):
            parallel_map(lambda x: (_ for _ in ()).throw(RuntimeError("boom")), [1, 2], 2)

    def test_store_fork_isolates_counters(self, tie_dataset):
        store = SeriesStore(tie_dataset)
        fork = store.fork()
        fork.scan()
        assert store.counter.sequential_pages == 0
        assert fork.counter.sequential_pages > 0
        store.counter.merge(fork.counter)
        assert store.counter.sequential_pages == fork.counter.sequential_pages


class TestAnswerSetTieDeterminism:
    def test_position_breaks_distance_ties(self):
        answers = KnnAnswerSet(2)
        answers.offer(9, 1.0)
        answers.offer(4, 1.0)
        answers.offer(7, 1.0)  # ties at the k-th distance: smallest positions win
        assert answers.positions() == [4, 7]

    def test_tie_break_is_offer_order_independent(self):
        rng = np.random.default_rng(13)
        offers = [(int(p), float(d)) for p, d in zip(range(40), np.repeat([1.0, 2.0], 20))]
        expected = None
        for _ in range(5):
            rng.shuffle(offers)
            answers = KnnAnswerSet(25)
            for p, d in offers:
                answers.offer(p, d)
            got = answers.positions()
            expected = got if expected is None else expected
            assert got == expected
        assert expected == sorted(expected)

    def test_offer_batch_ties_match_scalar_loop(self):
        positions = np.arange(50)
        distances = np.repeat([3.0, 1.0, 2.0, 1.0, 3.0], 10)
        scalar = KnnAnswerSet(12)
        for p, d in zip(positions, distances):
            scalar.offer(int(p), float(d))
        batched = KnnAnswerSet(12)
        batched.offer_batch(positions, distances)
        assert scalar.positions() == batched.positions()
        assert scalar.distances() == batched.distances()

    def test_merge_with_offset_matches_single_set(self):
        rng = np.random.default_rng(17)
        distances = np.round(rng.random(60) * 4, 1)  # rounding creates ties
        reference = KnnAnswerSet(8)
        reference.offer_batch(np.arange(60), distances)
        merged = KnnAnswerSet(8)
        for start, stop in [(0, 20), (20, 45), (45, 60)]:
            part = KnnAnswerSet(8)
            part.offer_batch(np.arange(stop - start), distances[start:stop])
            merged.merge(part, position_offset=start)
        assert merged.positions() == reference.positions()
        assert merged.distances() == reference.distances()

    def test_squared_items_sorted(self):
        answers = KnnAnswerSet(3)
        answers.offer(5, 4.0)
        answers.offer(2, 1.0)
        answers.offer(9, 1.0)
        assert answers.squared_items() == [(1.0, 2), (1.0, 9), (4.0, 5)]


class TestBufferPoolThreadSafety:
    def test_concurrent_adds_account_exactly(self):
        pool = BufferPool(capacity_series=None)
        threads = [
            threading.Thread(
                target=lambda t=t: [pool.add(("node", t, i % 7)) for i in range(500)]
            )
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pool.stats.series_buffered == 2000
        assert pool.in_memory_series == 2000
        assert pool.flush_all() == 2000

    def test_concurrent_adds_with_spills_conserve_series(self):
        pool = BufferPool(capacity_series=50, series_bytes=8, page_series=16)
        threads = [
            threading.Thread(
                target=lambda t=t: [pool.add((t, i % 13), 2) for i in range(300)]
            )
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every buffered series is either still in memory or was spilled.
        assert pool.stats.series_buffered == 4 * 300 * 2
        assert pool.stats.series_spilled + pool.in_memory_series == pool.stats.series_buffered
        assert pool.in_memory_series <= 50 + 2  # at most one add over capacity
        assert pool.counter.bytes_written == pool.stats.series_spilled * 8

    def test_pool_survives_pickle(self):
        import pickle

        pool = BufferPool(capacity_series=10)
        pool.add("a", 3)
        clone = pickle.loads(pickle.dumps(pool))
        clone.add("b", 4)  # the lock was recreated
        assert clone.buffered("a") == 3
        assert clone.buffered("b") == 4
