"""Tests for r-range queries and the M-tree's epsilon-approximate search."""

import numpy as np
import pytest

from repro import SeriesStore, create_method
from repro.core.distance import squared_euclidean_batch
from repro.core.faults import FaultPlan, RetryPolicy
from repro.core.queries import KnnQuery, RangeQuery
from repro.indexes.mtree import MTreeIndex
from repro.workloads import random_walk_dataset

RANGE_METHODS = {
    "ads+": {"leaf_capacity": 25},
    "dstree": {"leaf_capacity": 25},
    "isax2+": {"leaf_capacity": 25},
    "va+file": {"coefficients": 8, "bits_per_dimension": 3},
    "m-tree": {"node_capacity": 8},
    "r*-tree": {"leaf_capacity": 20, "segments": 8},
    "sfa-trie": {"leaf_capacity": 25},
    "ucr-suite": {},   # exercises the base-class full-scan fallback
    "stepwise": {},    # also uses the fallback
}


def brute_force_range(dataset, query, radius):
    distances = np.sqrt(squared_euclidean_batch(query, dataset.values))
    return set(np.flatnonzero(distances <= radius).tolist())


@pytest.fixture(scope="module")
def built_methods(small_dataset):
    methods = {}
    for name, params in RANGE_METHODS.items():
        store = SeriesStore(small_dataset)
        method = create_method(name, store, **params)
        method.build()
        methods[name] = method
    return methods


class TestRangeQueries:
    @pytest.mark.parametrize("method_name", sorted(RANGE_METHODS))
    @pytest.mark.parametrize("radius_factor", [0.5, 1.0, 1.5])
    def test_range_matches_brute_force(
        self, method_name, radius_factor, built_methods, small_dataset, small_queries
    ):
        method = built_methods[method_name]
        query = small_queries[0]
        # Pick a radius relative to the 1-NN distance so the answer set is
        # sometimes empty, sometimes small, sometimes larger.
        distances = np.sqrt(squared_euclidean_batch(query.series, small_dataset.values))
        radius = float(np.min(distances)) * radius_factor + 1e-6
        expected = brute_force_range(small_dataset, query.series, radius)
        result = method.range_exact(RangeQuery(series=query.series, radius=radius))
        assert set(result.positions()) == expected, method_name

    @pytest.mark.parametrize("method_name", sorted(RANGE_METHODS))
    def test_range_zero_radius_self_query(self, method_name, built_methods, small_dataset):
        method = built_methods[method_name]
        result = method.range_exact(RangeQuery(series=small_dataset[3], radius=1e-5))
        assert 3 in result.positions()

    def test_range_distances_sorted_and_within_radius(self, built_methods, small_dataset, small_queries):
        method = built_methods["dstree"]
        query = small_queries[1]
        distances = np.sqrt(squared_euclidean_batch(query.series, small_dataset.values))
        radius = float(np.partition(distances, 10)[10])
        result = method.range_exact(RangeQuery(series=query.series, radius=radius))
        got = result.distances()
        assert got == sorted(got)
        assert all(d <= radius + 1e-6 for d in got)
        assert len(result) == len(got)

    def test_indexed_range_prunes(self, built_methods, small_dataset):
        """Tree-based range search examines fewer series than the collection."""
        method = built_methods["dstree"]
        result = method.range_exact(RangeQuery(series=small_dataset[0], radius=0.5))
        assert result.stats.series_examined < small_dataset.count

    @pytest.mark.parametrize("method_name", ["dstree", "isax2+", "m-tree", "r*-tree", "sfa-trie"])
    def test_tree_range_reads_only_leaves_in_range(self, method_name, built_methods, small_dataset):
        """Every tree answers ranges through its bounds, not a full scan."""
        query = small_dataset.values[17].astype(np.float64) + 0.01
        distances = np.sqrt(squared_euclidean_batch(query, small_dataset.values))
        radius = float(np.partition(distances, 3)[3])
        result = built_methods[method_name].range_exact(RangeQuery(series=query, radius=radius))
        assert set(result.positions()) == brute_force_range(small_dataset, query, radius)
        assert 0 < result.stats.series_examined < small_dataset.count
        assert result.stats.leaves_visited == result.stats.random_accesses

    def test_ads_range_prunes_with_sims_bounds(self):
        """ADS+ refines only the series whose SIMS bound is within the radius."""
        dataset = random_walk_dataset(2000, 64, seed=5)
        method = create_method("ads+", SeriesStore(dataset), leaf_capacity=50)
        method.build()
        query = dataset.values[123].astype(np.float64)
        result = method.range_exact(RangeQuery(series=query, radius=0.5))
        assert set(result.positions()) == brute_force_range(dataset, query, 0.5)
        assert 123 in result.positions()
        assert result.stats.series_examined < dataset.count

    def test_range_requires_build(self, small_dataset):
        method = create_method("dstree", SeriesStore(small_dataset), leaf_capacity=25)
        with pytest.raises(RuntimeError):
            method.range_exact(RangeQuery(series=small_dataset[0], radius=1.0))


class TestEpsilonApproximate:
    @pytest.fixture(scope="class")
    def mtree(self, tiny_dataset):
        index = MTreeIndex(SeriesStore(tiny_dataset), node_capacity=8)
        index.build()
        return index

    def test_epsilon_zero_is_exact(self, mtree, tiny_dataset, tiny_queries):
        for query in tiny_queries:
            exact = mtree.knn_exact(query).nearest.distance
            approx = mtree.knn_epsilon(query, epsilon=0.0).nearest.distance
            assert approx == pytest.approx(exact, abs=1e-6)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_epsilon_guarantee_holds(self, mtree, tiny_queries, epsilon):
        """Returned distances never exceed (1 + epsilon) times the exact distance."""
        for query in tiny_queries:
            exact = mtree.knn_exact(query).nearest.distance
            approx = mtree.knn_epsilon(query, epsilon=epsilon).nearest.distance
            assert approx <= (1.0 + epsilon) * exact + 1e-6

    def test_larger_epsilon_prunes_more(self, mtree, tiny_queries):
        query = tiny_queries[0]
        tight = mtree.knn_epsilon(query, epsilon=0.0).stats.series_examined
        loose = mtree.knn_epsilon(query, epsilon=2.0).stats.series_examined
        assert loose <= tight

    def test_negative_epsilon_rejected(self, mtree, tiny_queries):
        with pytest.raises(ValueError):
            mtree.knn_epsilon(tiny_queries[0], epsilon=-0.1)

    def test_epsilon_with_k_greater_than_one(self, mtree, tiny_dataset, tiny_queries):
        query = KnnQuery(series=tiny_queries[0].series, k=3)
        exact = mtree.knn_exact(query).distances()
        approx = mtree.knn_epsilon(query, epsilon=0.25).distances()
        assert len(approx) == 3
        # The k-th approximate answer respects the epsilon bound on the k-th exact.
        assert approx[-1] <= (1.25) * exact[-1] + 1e-6


class TestEnvelopeAccounting:
    """Every public entry point charges a query the whole store-counter delta
    of its call — each field ``_charge_delta`` carries, not a hand-picked few.
    A plan under which every first read fails, and measured I/O, make
    ``retries`` and ``measured_io_seconds`` non-zero, so a dropped field
    cannot hide."""

    CARRIED = (
        "random_accesses",
        "sequential_pages",
        "bytes_read",
        "physical_bytes_read",
        "measured_io_seconds",
        "retries",
    )

    def _flaky(self, name, dataset, **params):
        store = SeriesStore(
            dataset,
            measure_io=True,
            faults=FaultPlan(seed=5, transient=1.0),
            retry=RetryPolicy(attempts=8, base_delay=0.0, max_delay=0.0),
        )
        method = create_method(name, store, **params)
        method.build()
        return method

    def _assert_stats_are_the_delta(self, method, call):
        before = method.store.counter_snapshot()
        stats = call().stats
        delta = method.store.since(before)
        assert delta.retries > 0 and delta.measured_io_seconds > 0.0
        assert delta.bytes_read > 0 and delta.physical_bytes_read > 0
        for name in self.CARRIED:
            assert getattr(stats, name) == getattr(delta, name), name

    def test_knn_approximate_charges_every_field(self, small_dataset, small_queries):
        method = self._flaky("isax2+", small_dataset, leaf_capacity=25)
        self._assert_stats_are_the_delta(
            method, lambda: method.knn_approximate(small_queries[0])
        )

    def test_range_exact_charges_every_field(self, small_dataset, small_queries):
        method = self._flaky("isax2+", small_dataset, leaf_capacity=25)
        query = RangeQuery(series=small_queries[0].series, radius=8.0)
        self._assert_stats_are_the_delta(method, lambda: method.range_exact(query))

    def test_mtree_knn_epsilon_charges_every_field(self, tiny_dataset, tiny_queries):
        method = self._flaky("m-tree", tiny_dataset, node_capacity=8)
        self._assert_stats_are_the_delta(
            method, lambda: method.knn_epsilon(tiny_queries[0], epsilon=0.25)
        )
