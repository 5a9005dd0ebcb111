"""Build-equivalence suite for the bulk-load construction layer.

For every tree method, an index built over the whole collection and one grown
to the same collection through the public ``append()``/``extend()`` (built
over a prefix, the rest arriving in a grown store) must return identical
``knn_exact``/``knn_exact_batch`` results — including ties — and respect the
leaf capacity.
"""

import numpy as np
import pytest

from repro import Dataset, SeriesStore, create_method
from repro.core.queries import KnnQuery
from repro.workloads import random_walk_dataset, synth_rand_workload

#: every method with a bulk loader, with small leaves to force deep trees.
TREE_METHOD_PARAMS = {
    "isax2+": {"leaf_capacity": 10},
    "ads+": {"leaf_capacity": 10},
    "dstree": {"leaf_capacity": 10},
    "sfa-trie": {"leaf_capacity": 15, "coefficients": 6},
}


@pytest.fixture(scope="module")
def tie_dataset():
    """Seeded dataset with exact duplicates so k-th answers tie exactly."""
    base = random_walk_dataset(160, 32, seed=101).values
    values = np.vstack([base, base[:24]])  # the first 24 series appear twice
    return Dataset(values=values, name="bulk-ties")


@pytest.fixture(scope="module")
def queries(tie_dataset):
    workload = synth_rand_workload(tie_dataset.length, count=4, seed=103)
    out = [np.asarray(q.series, dtype=np.float64) for q in workload]
    out.append(np.asarray(tie_dataset.values[3], dtype=np.float64))  # hits a tie pair
    return np.vstack(out)


#: rows the grown tree is built over; the rest arrive through append/extend.
GROWN_PREFIX = 40


def build_pair(method_name, dataset, **overrides):
    """``(bulk, grown)``: one build over ``dataset`` vs. a prefix build grown
    to it — a few single-row ``append`` calls, then ``extend`` batches."""
    params = dict(TREE_METHOD_PARAMS[method_name])
    params.update(overrides)
    bulk = create_method(method_name, SeriesStore(dataset), **params)
    bulk.build()
    prefix = Dataset(values=dataset.values[:GROWN_PREFIX].copy(), name="prefix")
    grown = create_method(method_name, SeriesStore(prefix), **params)
    grown.build()
    grown.store = SeriesStore(dataset)
    for position in range(GROWN_PREFIX, GROWN_PREFIX + 3):
        grown.append(position)
    grown.extend(GROWN_PREFIX + 3, GROWN_PREFIX + 50)
    grown.extend(GROWN_PREFIX + 50)
    return bulk, grown


def assert_same_answers(a, b):
    """Distances must agree exactly; tied distances may permute positions.

    Two query-equivalent trees must return the same distance multiset.  Within
    one distance value the admitted positions must also match, except for the
    k-th (last) distance: when more candidates tie there than slots remain,
    either tree may legitimately admit a different member of the tie group
    (e.g. one copy of an exact-duplicate pair), so only the counts compare.
    """
    da, db = np.asarray(a.distances()), np.asarray(b.distances())
    assert da.shape == db.shape
    np.testing.assert_allclose(da, db, rtol=1e-9, atol=1e-9)
    groups_a, groups_b = {}, {}
    for p, d in zip(a.positions(), da):
        groups_a.setdefault(float(d), set()).add(p)
    for p, d in zip(b.positions(), db):
        groups_b.setdefault(float(d), set()).add(p)
    assert groups_a.keys() == groups_b.keys()
    boundary = float(da[-1]) if da.size else None
    for distance, members in groups_a.items():
        if distance == boundary:
            assert len(members) == len(groups_b[distance])
        else:
            assert members == groups_b[distance]


def collect_leaves(method):
    if method.name in ("isax2+", "ads+"):
        return method.tree.leaves()
    if method.name == "dstree":
        return method.root.leaves()
    return [
        leaf for child in method.root.children.values() for leaf in child.leaves()
    ]


class TestBuildEquivalence:
    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_knn_exact_matches(self, tie_dataset, queries, method_name):
        bulk, grown = build_pair(method_name, tie_dataset)
        for k in (1, 5, 12):
            for query in queries:
                assert_same_answers(
                    bulk.knn_exact(KnnQuery(series=query, k=k)),
                    grown.knn_exact(KnnQuery(series=query, k=k)),
                )

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_knn_exact_batch_matches(self, tie_dataset, queries, method_name):
        bulk, grown = build_pair(method_name, tie_dataset)
        for a, b in zip(
            bulk.knn_exact_batch(queries, k=5), grown.knn_exact_batch(queries, k=5)
        ):
            assert_same_answers(a, b)

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_every_position_in_exactly_one_leaf(self, tie_dataset, method_name):
        bulk, _ = build_pair(method_name, tie_dataset)
        positions = sorted(
            int(p) for leaf in collect_leaves(bulk) for p in leaf.position_block()
        )
        assert positions == list(range(tie_dataset.count))

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_leaf_capacity_respected(self, tie_dataset, method_name):
        bulk, grown = build_pair(method_name, tie_dataset)
        capacity = TREE_METHOD_PARAMS[method_name]["leaf_capacity"]
        for method in (bulk, grown):
            for leaf in collect_leaves(method):
                # Leaves at maximum resolution may legitimately overflow; the
                # random-walk data used here never exhausts the resolution.
                assert leaf.size <= capacity

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_footprint_stats_populated(self, tie_dataset, method_name):
        bulk, _ = build_pair(method_name, tie_dataset)
        assert bulk.index_stats.leaf_nodes == len(collect_leaves(bulk))
        assert bulk.index_stats.total_nodes > bulk.index_stats.leaf_nodes


class TestAppendAfterBulkBuild:
    """The insert path must keep working after a bulk build."""

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_append_matches_full_build(self, method_name):
        values = random_walk_dataset(150, 32, seed=107).values
        initial, extra = 140, 10
        params = TREE_METHOD_PARAMS[method_name]

        # Bulk-build over the first 140 series, then append the remaining 10
        # through the insert router (re-attaching a grown store,
        # the way persistence re-attaches stores on load).
        grown = create_method(
            method_name,
            SeriesStore(Dataset(values=values[:initial].copy(), name="prefix")),
            **params,
        )
        grown.build()
        grown.store = SeriesStore(Dataset(values=values.copy(), name="full"))
        for position in range(initial, initial + extra):
            grown.append(position)

        # Reference: one build over the full collection.
        reference = create_method(
            method_name,
            SeriesStore(Dataset(values=values.copy(), name="full")),
            **params,
        )
        reference.build()

        queries = np.vstack(
            [
                np.asarray(q.series, dtype=np.float64)
                for q in synth_rand_workload(32, count=3, seed=109)
            ]
            + [np.asarray(values[initial + 1], dtype=np.float64)]
        )
        for query in queries:
            assert_same_answers(
                grown.knn_exact(KnnQuery(series=query, k=5)),
                reference.knn_exact(KnnQuery(series=query, k=5)),
            )

        # Every appended position must be findable in some leaf.
        leaf_positions = {
            int(p) for leaf in collect_leaves(grown) for p in leaf.position_block()
        }
        assert set(range(initial + extra)) <= leaf_positions

    def test_queries_interleaved_with_appends_stay_exact(self):
        """Queries before an append populate the DSTree bound caches; the
        append must invalidate them or later queries over-prune (regression:
        26/80 queries returned wrong distances before the path invalidation).
        Rows arrive one at a time or a batch at a time; a batch invalidates
        every internal node it passes through.
        """
        rng = np.random.default_rng(307)
        base = random_walk_dataset(300, 32, seed=305).values
        # The appended series are shifted outliers: they widen the synopsis
        # ranges well past what the warmed caches recorded.
        outliers = (base[:40] * 0.5 + np.linspace(3, 6, 32)[None, :]).astype(
            base.dtype
        )
        values = np.vstack([base, outliers])
        initial = len(base)
        grown = create_method(
            "dstree",
            SeriesStore(Dataset(values=values[:initial].copy(), name="prefix")),
            leaf_capacity=5,
        )
        grown.build()
        # Queries near the outlier cluster: their true NNs are appended rows.
        queries = [outliers[i] + rng.normal(0, 0.8, 32) for i in range(0, 40, 2)]
        queries += [base[i] + rng.normal(0, 0.5, 32) for i in range(0, 40, 2)]
        queries = [np.asarray(q, dtype=np.float64) for q in queries]
        # Warm every node's cached bound matrices before appending.
        for query in queries:
            grown.knn_exact(KnnQuery(series=query, k=3))
        grown.store = SeriesStore(Dataset(values=values.copy(), name="full"))
        start = initial
        for batch in (1, 1, 16, 1, 21):
            grown.extend(start, start + batch)
            # A query right after the insert re-warms the caches the next
            # batch must invalidate again, and must already see the new row.
            probe = grown.knn_exact(KnnQuery(series=values[start].astype(np.float64), k=1))
            assert probe.nearest.position == start and probe.nearest.distance == 0.0
            start += batch
        assert start == len(values)

        reference = create_method(
            "dstree",
            SeriesStore(Dataset(values=values.copy(), name="full")),
            leaf_capacity=5,
        )
        reference.build()
        for query in queries:
            assert_same_answers(
                grown.knn_exact(KnnQuery(series=query, k=5)),
                reference.knn_exact(KnnQuery(series=query, k=5)),
            )

    @pytest.mark.parametrize("method_name", ["isax2+", "dstree"])
    def test_append_spills_charge_the_live_store_counter(self, method_name):
        """After a store re-attachment, append-time spill I/O must land on the
        new store's counter, not the discarded one (regression)."""
        values = random_walk_dataset(120, 32, seed=217).values
        initial = 80
        method = create_method(
            method_name,
            SeriesStore(Dataset(values=values[:initial].copy(), name="prefix")),
            leaf_capacity=5,
            buffer_capacity=4,
        )
        method.build()
        old_store = method.store
        before = old_store.counter.snapshot()
        method.store = SeriesStore(Dataset(values=values.copy(), name="full"))
        for position in range(initial, len(values)):
            method.append(position)
        assert method._buffer.counter is method.store.counter
        assert method._buffer.in_memory_series == 0
        # The discarded store's counter saw none of the append traffic.
        delta = old_store.counter.diff(before)
        assert delta.bytes_written == 0
        assert delta.random_accesses == 0
        # The tight buffer must have actually spilled during the appends.
        assert method._buffer.stats.spills > 0
        assert method.store.counter.bytes_written > 0

    def test_append_requires_built_index(self):
        dataset = random_walk_dataset(40, 32, seed=111)
        method = create_method("isax2+", SeriesStore(dataset), leaf_capacity=10)
        with pytest.raises(RuntimeError):
            method.append(0)

    def test_ads_append_rejects_gaps(self):
        dataset = random_walk_dataset(40, 32, seed=113)
        method = create_method("ads+", SeriesStore(dataset), leaf_capacity=10)
        method.build()
        with pytest.raises(ValueError):
            method.append(dataset.count + 3)

    def test_methods_without_append_raise(self):
        # flat grew an append path with the live-ingest work; ucr-suite is
        # still a pure scan with no build-time state to extend.
        dataset = random_walk_dataset(40, 32, seed=115)
        method = create_method("ucr-suite", SeriesStore(dataset))
        method.build()
        with pytest.raises(NotImplementedError):
            method.append(0)
