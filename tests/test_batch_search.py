"""Tests for the vectorized batch-query execution layer.

Covers the array-native lower-bound kernels (SAX, EAPCA, SFA), the
O(n + k log k) answer-set batch offers, and the ``search_batch`` /
``knn_exact_batch`` API: for every registered method the batch results must
match the per-query results, including ties and ``k > leaf_capacity``.
"""

import numpy as np
import pytest

from repro import Dataset, SeriesStore, SimilaritySearchEngine, available_methods, create_method
from repro.core.answers import KnnAnswerSet, RangeAnswerSet
from repro.core.distance import early_abandon_reordered, early_abandon_squared, squared_euclidean
from repro.core.queries import KnnQuery
from repro.indexes.isax import Isax2PlusIndex
from repro.summarization.eapca import (
    query_segment_stats,
    stack_synopses,
    synopses_lower_bounds,
)
from repro.summarization.sax import IsaxSummarizer, stack_words
from repro.workloads import random_walk_dataset, synth_rand_workload

BATCH_METHOD_PARAMS = {
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


@pytest.fixture(scope="module")
def batch_dataset():
    """Seeded dataset with deliberate exact duplicates (distance ties)."""
    base = random_walk_dataset(140, 32, seed=41).values
    values = np.vstack([base, base[:20]])  # the first 20 series appear twice
    return Dataset(values=values, name="batch-ties")


@pytest.fixture(scope="module")
def batch_queries(batch_dataset):
    workload = synth_rand_workload(batch_dataset.length, count=4, seed=43)
    queries = [q.series for q in workload]
    queries.append(batch_dataset.values[7])  # a self-query hits the tie pair
    return np.vstack([np.asarray(q, dtype=np.float64) for q in queries])


def assert_results_equivalent(single, batch):
    """Positions and distances must agree; exact ties may permute positions."""
    assert len(single) == len(batch)
    for a, b in zip(single, batch):
        da, db = np.asarray(a.distances()), np.asarray(b.distances())
        assert da.shape == db.shape
        np.testing.assert_allclose(da, db, rtol=1e-9, atol=1e-9)
        pa, pb = a.positions(), b.positions()
        if pa != pb:
            # Only exactly tied distances may swap positions between paths.
            for i, (x, y) in enumerate(zip(pa, pb)):
                if x != y:
                    tied_a = {p for p, d in zip(pa, da) if d == da[i]}
                    tied_b = {p for p, d in zip(pb, db) if d == db[i]}
                    assert tied_a == tied_b
        assert set(pa) == set(pb)


class TestSearchBatchEquivalence:
    @pytest.mark.parametrize("method_name", sorted(BATCH_METHOD_PARAMS))
    def test_batch_matches_per_query(self, batch_dataset, batch_queries, method_name):
        store = SeriesStore(batch_dataset)
        method = create_method(method_name, store, **BATCH_METHOD_PARAMS[method_name])
        method.build()
        k = 5
        single = [method.knn_exact(KnnQuery(series=q, k=k)) for q in batch_queries]
        batch = method.knn_exact_batch(batch_queries, k=k)
        assert_results_equivalent(single, batch)

    @pytest.mark.parametrize("method_name", ["isax2+", "dstree", "flat", "va+file"])
    def test_k_larger_than_leaf_capacity(self, batch_dataset, batch_queries, method_name):
        store = SeriesStore(batch_dataset)
        method = create_method(method_name, store, **BATCH_METHOD_PARAMS[method_name])
        method.build()
        k = 25  # larger than every leaf_capacity above
        single = [method.knn_exact(KnnQuery(series=q, k=k)) for q in batch_queries]
        batch = method.knn_exact_batch(batch_queries, k=k)
        assert_results_equivalent(single, batch)

    def test_all_registered_methods_covered(self):
        assert sorted(BATCH_METHOD_PARAMS) == sorted(available_methods())

    def test_engine_search_batch(self, batch_dataset, batch_queries):
        engine = SimilaritySearchEngine(batch_dataset)
        engine.build("flat")
        single = [engine.search(q, k=3) for q in batch_queries]
        batch = engine.search_batch(batch_queries, k=3)
        assert_results_equivalent(single, batch)

    def test_batch_is_exact_against_brute_force(self, batch_dataset, batch_queries):
        engine = SimilaritySearchEngine(batch_dataset)
        engine.build("flat")
        for q, result in zip(batch_queries, engine.search_batch(batch_queries, k=4)):
            truth = engine.brute_force(q, k=4)
            np.testing.assert_allclose(
                result.distances(), [n.distance for n in truth], atol=1e-8
            )

    def test_single_1d_query_accepted(self, batch_dataset, batch_queries):
        engine = SimilaritySearchEngine(batch_dataset)
        engine.build("flat")
        results = engine.search_batch(batch_queries[0], k=2)
        assert len(results) == 1
        assert len(results[0].neighbors) == 2


class TestBatchMindistKernels:
    def test_sax_batch_matches_scalar(self):
        """Acceptance check: batch MINDIST == per-word MINDIST to 1e-9."""
        dataset = random_walk_dataset(300, 64, seed=11)
        store = SeriesStore(dataset)
        index = Isax2PlusIndex(store, segments=8, cardinality=16, leaf_capacity=10)
        index.build()
        rng = np.random.default_rng(12)
        query = rng.standard_normal(64).cumsum()
        paa = index.summarizer.paa.transform(query)
        checked = 0
        for child in index.tree.root.children.values():
            for node in child.iter_nodes():
                if not node.children:
                    continue
                children, symbols, cardinalities = node.child_arrays()
                batch = index.summarizer.mindist_paa_to_words_batch(
                    paa, symbols, cardinalities
                )
                scalar = [
                    index.summarizer.mindist_paa_to_word(paa, c.word) for c in children
                ]
                np.testing.assert_allclose(batch, scalar, atol=1e-9)
                checked += len(children)
        assert checked > 0  # the tree must actually have internal fan-out

    def test_sax_batch_mixed_cardinalities(self):
        summarizer = IsaxSummarizer(series_length=32, segments=4, cardinality=64)
        rng = np.random.default_rng(7)
        paa_rows = rng.standard_normal((20, 4))
        cards = rng.choice([2, 4, 8, 16, 32, 64], size=(20, 4))
        words = [
            summarizer.word_from_paa(row, tuple(int(c) for c in card_row))
            for row, card_row in zip(paa_rows, cards)
        ]
        query_paa = rng.standard_normal(4)
        symbols, cardinalities = stack_words(words)
        batch = summarizer.mindist_paa_to_words_batch(query_paa, symbols, cardinalities)
        scalar = [summarizer.mindist_paa_to_word(query_paa, w) for w in words]
        np.testing.assert_allclose(batch, scalar, atol=1e-9)

    def test_eapca_batch_matches_scalar(self):
        dataset = random_walk_dataset(200, 48, seed=13)
        store = SeriesStore(dataset)
        method = create_method("dstree", store, leaf_capacity=10)
        method.build()
        rng = np.random.default_rng(14)
        query = rng.standard_normal(48).cumsum()
        checked = 0
        for node in method.root.iter_nodes():
            children, stacked = node.child_bound_arrays()
            if not children:
                continue
            means, stds, widths = query_segment_stats(query, children[0].boundaries)
            batch = synopses_lower_bounds(means, stds, widths, stacked)
            scalar = [c.synopsis.lower_bound(query) for c in children]
            np.testing.assert_allclose(batch, scalar, atol=1e-9)
            checked += len(children)
        assert checked > 0

    def test_eapca_stack_roundtrip(self):
        dataset = random_walk_dataset(60, 32, seed=15)
        store = SeriesStore(dataset)
        method = create_method("dstree", store, leaf_capacity=20)
        method.build()
        synopses = [n.synopsis for n in method.root.iter_nodes() if n.synopsis]
        same_boundaries = [
            s for s in synopses if s.boundaries.shape == synopses[0].boundaries.shape
            and np.array_equal(s.boundaries, synopses[0].boundaries)
        ]
        stacked = stack_synopses(same_boundaries)
        assert stacked[0].shape == (len(same_boundaries), len(synopses[0].segments))

    def test_sfa_prefix_batch_matches_scalar(self):
        dataset = random_walk_dataset(400, 32, seed=17)
        store = SeriesStore(dataset)
        method = create_method("sfa-trie", store, leaf_capacity=15, coefficients=6)
        method.build()
        rng = np.random.default_rng(18)
        query = rng.standard_normal(32).cumsum()
        query_dft = method.summarizer.dft_of(query)
        checked = 0
        for child in method.root.children.values():
            for node in child.iter_nodes():
                if not node.children:
                    continue
                children, prefixes = node.child_arrays()
                batch = method.summarizer.prefix_lower_bound_batch(query_dft, prefixes)
                scalar = [
                    method._prefix_lower_bound(query_dft, c) for c in children
                ]
                np.testing.assert_allclose(batch, scalar, atol=1e-9)
                checked += len(children)
        # Root children always exist; deeper fan-out depends on the data.
        children, prefixes = method.root.child_arrays()
        batch = method.summarizer.prefix_lower_bound_batch(query_dft, prefixes)
        scalar = [method._prefix_lower_bound(query_dft, c) for c in children]
        np.testing.assert_allclose(batch, scalar, atol=1e-9)


class TestVectorizedOfferBatch:
    def _reference(self, k, offers):
        """Reference implementation: the legacy per-element offer loop."""
        answers = KnnAnswerSet(k)
        for pos, sq in offers:
            answers.offer(int(pos), float(sq))
        return answers

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            k = int(rng.integers(1, 12))
            n = int(rng.integers(1, 300))
            # Unique positions per batch: a series has one distance to a query.
            positions = rng.permutation(n * 2)[:n]
            distances = np.round(rng.random(n) * 10, 2)  # rounding creates ties
            reference = self._reference(k, zip(positions, distances))
            answers = KnnAnswerSet(k)
            answers.offer_batch(positions, distances)
            np.testing.assert_allclose(
                reference.distances(), answers.distances(), atol=1e-12
            )

    def test_matches_reference_across_batches(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            k = int(rng.integers(1, 8))
            reference = KnnAnswerSet(k)
            answers = KnnAnswerSet(k)
            offset = 0
            for _ in range(4):
                n = int(rng.integers(1, 80))
                positions = np.arange(offset, offset + n)
                offset += n
                distances = np.round(rng.random(n) * 5, 2)
                for p, d in zip(positions, distances):
                    reference.offer(int(p), float(d))
                answers.offer_batch(positions, distances)
            np.testing.assert_allclose(
                reference.distances(), answers.distances(), atol=1e-12
            )

    def test_admission_count_and_threshold(self):
        answers = KnnAnswerSet(2)
        admitted = answers.offer_batch(np.arange(6), np.array([9.0, 4.0, 1.0, 16.0, 25.0, 36.0]))
        assert admitted == 2
        assert answers.positions() == [2, 1]
        assert answers.worst_squared_distance == 4.0
        # A second batch against the now-finite threshold.
        admitted = answers.offer_batch(np.array([7, 8]), np.array([0.25, 100.0]))
        assert admitted == 1
        assert answers.positions() == [7, 2]

    def test_duplicate_positions_across_batches(self):
        answers = KnnAnswerSet(3)
        answers.offer_batch(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        admitted = answers.offer_batch(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        assert admitted == 0
        assert answers.positions() == [1, 2, 3]

    def test_duplicate_positions_within_batch(self):
        # Position 5 holds the k smallest distances; the dedup must let the
        # other positions claim the remaining heap slots.
        answers = KnnAnswerSet(2)
        positions = np.array([5, 5, 5, 9])
        distances = np.array([1.0, 1.1, 1.2, 3.0])
        answers.offer_batch(positions, distances)
        assert answers.positions() == [5, 9]

    def test_non_finite_distances_keep_legacy_semantics(self):
        answers = KnnAnswerSet(3)
        answers.offer_batch(np.array([0, 1]), np.array([np.inf, 4.0]))
        # inf fills an under-occupied heap exactly like the scalar offer loop.
        assert answers.size == 2
        answers.offer_batch(np.array([2, 3]), np.array([1.0, 2.0]))
        assert answers.positions() == [2, 3, 1]

    def test_empty_batch(self):
        answers = KnnAnswerSet(2)
        assert answers.offer_batch(np.array([]), np.array([])) == 0
        assert answers.size == 0

    def test_mismatched_lengths_raise(self):
        answers = KnnAnswerSet(2)
        with pytest.raises(ValueError):
            answers.offer_batch(np.array([1, 2]), np.array([1.0]))

    def test_range_offer_batch(self):
        answers = RangeAnswerSet(radius=2.0)
        count = answers.offer_batch(
            np.array([0, 1, 2]), np.array([4.0, 4.41, 0.25])
        )
        assert count == 2
        assert [n.position for n in answers.neighbors()] == [2, 0]
        assert answers.offer_batch(np.array([]), np.array([])) == 0


class TestDistanceKernelFastPaths:
    def test_infinite_threshold_fast_path(self):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal(100), rng.standard_normal(100)
        exact = squared_euclidean(a, b)
        assert early_abandon_squared(a, b, float("inf")) == pytest.approx(exact, rel=1e-12)
        assert early_abandon_reordered(a, b, float("inf")) == pytest.approx(exact, rel=1e-12)

    def test_blocked_path_still_abandons(self):
        rng = np.random.default_rng(32)
        a, b = rng.standard_normal(128), rng.standard_normal(128) + 10.0
        exact = squared_euclidean(a, b)
        result = early_abandon_squared(a, b, threshold=1.0)
        assert result > 1.0  # abandoned with a partial sum above the threshold
        assert early_abandon_squared(a, b, threshold=exact + 1.0) == pytest.approx(exact)

    def test_short_series_block_bounds(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.5, 3.5])
        exact = squared_euclidean(a, b)
        assert early_abandon_squared(a, b, 100.0) == pytest.approx(exact)


class TestRunnerBatchDispatch:
    def test_batch_and_sequential_runner_agree(self):
        from repro.evaluation import HDD, run_experiment

        dataset = random_walk_dataset(150, 32, seed=51, name="runner-batch")
        workload = synth_rand_workload(32, count=4, seed=52)
        batched = run_experiment(dataset, workload, "flat", platform=HDD, batch=True)
        sequential = run_experiment(dataset, workload, "flat", platform=HDD, batch=False)
        for a, b in zip(batched.answers, sequential.answers):
            assert [n.position for n in a] == [n.position for n in b]
        # The shared scan is amortized, so the batch path reads far less.
        assert batched.sequential_pages <= sequential.sequential_pages
