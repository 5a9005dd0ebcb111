"""Tests for the M-tree and R*-tree indexes."""

import pickle

import numpy as np
import pytest

from repro import Dataset, SeriesStore
from repro.core.queries import KnnQuery
from repro.indexes.mtree import MTreeIndex
from repro.indexes.rstartree import RStarTreeIndex
from repro.workloads import random_walk_dataset


class TestMTree:
    @pytest.fixture()
    def index(self, tiny_dataset):
        store = SeriesStore(tiny_dataset)
        idx = MTreeIndex(store, node_capacity=8)
        idx.build()
        return idx

    def test_rejects_bad_capacity(self, tiny_dataset):
        with pytest.raises(ValueError):
            MTreeIndex(SeriesStore(tiny_dataset), node_capacity=1)

    def test_every_series_stored_exactly_once(self, index, tiny_dataset):
        positions = []
        for leaf in index.root.leaves():
            positions.extend(entry.position for entry in leaf.entries)
        assert sorted(positions) == list(range(tiny_dataset.count))

    def test_covering_radii_are_valid(self, index, tiny_dataset):
        """Every object in a subtree lies within its routing entry's radius."""

        def check(node):
            if node.is_leaf:
                return [
                    (p, index.store.peek(p, p + 1)[0].astype(np.float64))
                    for p in node.position_block().tolist()
                ]
            collected = []
            for entry in node.entries:
                subtree_objects = check(entry.subtree)
                for position, vector in subtree_objects:
                    dist = float(np.linalg.norm(vector - entry.vector))
                    assert dist <= entry.radius + 1e-6
                collected.extend(subtree_objects)
            return collected

        check(index.root)

    def test_exact_matches_brute_force(self, index, tiny_dataset, tiny_queries, brute_force_knn):
        for query in tiny_queries:
            _, truth_dist = brute_force_knn(tiny_dataset, query.series, k=1)
            result = index.knn_exact(query)
            assert result.nearest.distance == pytest.approx(truth_dist[0], abs=1e-4)

    def test_exact_knn5(self, index, tiny_dataset, tiny_queries, brute_force_knn):
        query = tiny_queries[0]
        _, truth_dist = brute_force_knn(tiny_dataset, query.series, k=5)
        result = index.knn_exact(KnnQuery(series=query.series, k=5))
        assert np.allclose(result.distances(), truth_dist, atol=1e-4)

    def test_query_self_finds_itself(self, index, tiny_dataset):
        result = index.knn_exact(KnnQuery(series=tiny_dataset[9]))
        assert result.nearest.position == 9

    def test_approximate_search(self, index, tiny_queries):
        result = index.knn_approximate(tiny_queries[0])
        assert result.neighbors

    def test_memory_resident_footprint(self, index, tiny_dataset):
        """Routing objects stay in memory; the data objects' series on disk."""
        assert index.index_stats.disk_bytes == tiny_dataset.count * index.store.series_bytes
        assert index.index_stats.memory_bytes > 0

    def test_leaf_entries_hold_no_vector(self, index):
        for node in index.root.iter_nodes():
            assert all((entry.vector is None) == node.is_leaf for entry in node.entries)

    @pytest.mark.parametrize("capacity", [4, 8, 16])
    def test_many_copies_of_one_series(self, capacity):
        """Splits among identical series leave no node empty and no leaf over capacity."""
        values = random_walk_dataset(60, 16, seed=1).values.copy()
        values[10:60] = values[10]
        index = MTreeIndex(SeriesStore(Dataset(values=values)), node_capacity=capacity)
        index.build()
        nodes = list(index.root.iter_nodes())
        assert all(0 < node.size <= capacity for node in nodes)
        positions = [p for leaf in index.root.leaves() for p in leaf.position_block().tolist()]
        assert sorted(positions) == list(range(60))
        result = index.knn_exact(KnnQuery(series=values[30].astype(np.float64), k=3))
        assert result.positions() == [10, 11, 12]
        assert result.distances() == [0.0, 0.0, 0.0]

    def test_built_tree_pickles_smaller_than_the_float64_collection(self):
        dataset = random_walk_dataset(20_000, 128, seed=29)
        index = MTreeIndex(SeriesStore(dataset), node_capacity=16)
        index.build()
        index.store = None
        assert len(pickle.dumps(index)) < dataset.count * dataset.length * 8


class TestRStarTree:
    @pytest.fixture()
    def index(self, small_dataset):
        store = SeriesStore(small_dataset)
        idx = RStarTreeIndex(store, segments=8, leaf_capacity=20, node_capacity=8)
        idx.build()
        return idx

    def test_rejects_bad_capacity(self, small_dataset):
        with pytest.raises(ValueError):
            RStarTreeIndex(SeriesStore(small_dataset), leaf_capacity=1)

    def test_every_series_stored_exactly_once(self, index, small_dataset):
        positions = []
        for leaf in index.root.leaves():
            positions.extend(leaf.positions)
        assert sorted(positions) == list(range(small_dataset.count))

    def test_mbrs_contain_their_points(self, index):
        for leaf in index.root.leaves():
            if not leaf.points:
                continue
            points = np.vstack(leaf.points)
            assert np.all(points >= leaf.lower[np.newaxis, :] - 1e-9)
            assert np.all(points <= leaf.upper[np.newaxis, :] + 1e-9)

    def test_parent_mbrs_contain_children(self, index):
        for node in index.root.iter_nodes():
            if node.is_leaf or node.lower is None:
                continue
            for child in node.children:
                assert np.all(child.lower >= node.lower - 1e-9)
                assert np.all(child.upper <= node.upper + 1e-9)

    def test_exact_matches_brute_force(self, index, small_dataset, small_queries, brute_force_knn):
        for query in small_queries:
            _, truth_dist = brute_force_knn(small_dataset, query.series, k=1)
            result = index.knn_exact(query)
            assert result.nearest.distance == pytest.approx(truth_dist[0], abs=1e-4)

    def test_exact_knn5(self, index, small_dataset, small_queries, brute_force_knn):
        query = small_queries[1]
        _, truth_dist = brute_force_knn(small_dataset, query.series, k=5)
        result = index.knn_exact(KnnQuery(series=query.series, k=5))
        assert np.allclose(result.distances(), truth_dist, atol=1e-4)

    def test_query_self_finds_itself(self, index, small_dataset):
        result = index.knn_exact(KnnQuery(series=small_dataset[33]))
        assert result.nearest.position == 33

    def test_approximate_search(self, index, small_queries):
        result = index.knn_approximate(small_queries[0])
        assert result.neighbors
        assert result.stats.leaves_visited == 1

    def test_leaves_respect_capacity(self, index):
        for leaf in index.root.leaves():
            assert leaf.size <= index.leaf_capacity

    def test_no_reinsert_variant_still_exact(self, small_dataset, small_queries, brute_force_knn):
        store = SeriesStore(small_dataset)
        idx = RStarTreeIndex(store, segments=8, leaf_capacity=20, reinsert_fraction=0.0)
        idx.build()
        _, truth_dist = brute_force_knn(small_dataset, small_queries[0].series, k=1)
        result = idx.knn_exact(small_queries[0])
        assert result.nearest.distance == pytest.approx(truth_dist[0], abs=1e-4)
