"""Tests for the iSAX2+ index and the ADS+ adaptive index."""

import numpy as np
import pytest

from repro import SeriesStore
from repro.core.queries import KnnQuery
from repro.indexes.ads import AdsPlusIndex
from repro.indexes.isax import Isax2PlusIndex


class TestIsax2Plus:
    @pytest.fixture()
    def index(self, small_dataset):
        store = SeriesStore(small_dataset)
        idx = Isax2PlusIndex(store, segments=16, cardinality=64, leaf_capacity=25)
        idx.build()
        return idx

    def test_requires_build_before_search(self, small_dataset):
        idx = Isax2PlusIndex(SeriesStore(small_dataset), leaf_capacity=25)
        with pytest.raises(RuntimeError):
            idx.knn_exact(KnnQuery(series=small_dataset[0]))

    def test_rejects_bad_leaf_capacity(self, small_dataset):
        with pytest.raises(ValueError):
            Isax2PlusIndex(SeriesStore(small_dataset), leaf_capacity=0)

    def test_every_series_stored_exactly_once(self, index, small_dataset):
        positions = []
        for child in index.tree.root.children.values():
            for leaf in child.leaves():
                positions.extend(leaf.positions)
        assert sorted(positions) == list(range(small_dataset.count))

    def test_leaves_respect_capacity(self, index):
        for child in index.tree.root.children.values():
            for leaf in child.leaves():
                assert leaf.size <= index.leaf_capacity or all(
                    c == index.cardinality for c in leaf.word.cardinalities
                )

    def test_exact_matches_brute_force(self, index, small_dataset, small_queries, brute_force_knn):
        for query in small_queries:
            truth_pos, truth_dist = brute_force_knn(small_dataset, query.series, k=1)
            result = index.knn_exact(query)
            assert result.nearest.distance == pytest.approx(truth_dist[0], abs=1e-4)

    def test_exact_knn5(self, index, small_dataset, small_queries, brute_force_knn):
        query = small_queries[0]
        truth_pos, truth_dist = brute_force_knn(small_dataset, query.series, k=5)
        result = index.knn_exact(KnnQuery(series=query.series, k=5))
        assert np.allclose(result.distances(), truth_dist, atol=1e-4)

    def test_approximate_no_worse_than_worst(self, index, small_dataset, small_queries):
        """The ng-approximate answer is a real distance from a real series."""
        query = small_queries[0]
        result = index.knn_approximate(query)
        assert result.neighbors
        pos = result.nearest.position
        diff = small_dataset.values[pos].astype(np.float64) - query.series
        assert result.nearest.distance == pytest.approx(float(np.sqrt(np.dot(diff, diff))), abs=1e-4)

    def test_query_self_finds_itself(self, index, small_dataset):
        result = index.knn_exact(KnnQuery(series=small_dataset[7]))
        assert result.nearest.position == 7
        assert result.nearest.distance == pytest.approx(0.0, abs=1e-4)

    def test_stats_populated(self, index, small_queries):
        result = index.knn_exact(small_queries[0])
        stats = result.stats
        assert stats.dataset_size == index.store.count
        assert stats.series_examined > 0
        assert stats.leaves_visited >= 1
        assert 0.0 <= stats.pruning_ratio <= 1.0

    def test_footprint(self, index):
        stats = index.index_stats
        assert stats.total_nodes > stats.leaf_nodes > 0
        assert stats.leaf_fill_factors
        assert stats.memory_bytes > 0

    def test_describe(self, index):
        info = index.describe()
        assert info["name"] == "isax2+"
        assert info["segments"] == 16


class TestAdsPlus:
    @pytest.fixture()
    def index(self, small_dataset):
        store = SeriesStore(small_dataset)
        idx = AdsPlusIndex(store, segments=16, cardinality=64, leaf_capacity=25)
        idx.build()
        return idx

    def test_exact_matches_brute_force(self, index, small_dataset, small_queries, brute_force_knn):
        for query in small_queries:
            _, truth_dist = brute_force_knn(small_dataset, query.series, k=1)
            result = index.knn_exact(query)
            assert result.nearest.distance == pytest.approx(truth_dist[0], abs=1e-4)

    def test_build_is_single_scan(self, small_dataset):
        store = SeriesStore(small_dataset)
        idx = AdsPlusIndex(store, leaf_capacity=25)
        idx.build()
        # ADS+ performs exactly one sequential pass over the raw file at build
        # time (it indexes summaries only).
        assert idx.index_stats.random_accesses == 1
        assert idx.index_stats.sequential_pages == store.total_pages

    def test_skip_sequential_accounting(self, index, small_queries):
        result = index.knn_exact(small_queries[0])
        # SIMS pays one random access per contiguous non-pruned run (plus the
        # approximate leaf read); with any pruning there are several skips.
        assert result.stats.random_accesses >= 1
        assert result.stats.lower_bounds_computed >= index.store.count

    def test_pruning_is_high_on_easy_queries(self, index, small_dataset):
        # A query equal to a stored series prunes almost everything.
        result = index.knn_exact(KnnQuery(series=small_dataset[3]))
        assert result.nearest.position == 3
        assert result.stats.pruning_ratio > 0.5

    def test_approximate_search(self, index, small_queries):
        result = index.knn_approximate(small_queries[0])
        assert result.neighbors
        assert result.stats.leaves_visited == 1

    def test_exact_knn3(self, index, small_dataset, small_queries, brute_force_knn):
        query = small_queries[1]
        _, truth_dist = brute_force_knn(small_dataset, query.series, k=3)
        result = index.knn_exact(KnnQuery(series=query.series, k=3))
        assert np.allclose(result.distances(), truth_dist, atol=1e-4)

    def test_describe_mentions_sims(self, index):
        assert index.describe()["exact_algorithm"] == "SIMS"

    def test_footprint_smaller_than_materialized_index(self, index):
        # ADS+ stores only summaries on disk.
        assert index.index_stats.disk_bytes < index.store.count * index.store.series_bytes
