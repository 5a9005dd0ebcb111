"""The fused refinement path against the loops it replaced.

Every refinement step is one store gather, one distance kernel call and one
answer-set offer (``SearchMethod._scan_groups``).  The per-run and per-leaf
loops that did the same work one block at a time are kept *here*, as the
reference: answers, distances (``float.hex``) and every counter must be equal,
on every backend and under the sharded wrapper.  The best-first trees coalesce
heap-top leaves, which may overshoot a serial traversal — by less than
``leaf_capacity`` series, with identical answers — and that bound is pinned
too, as is the number of accounted reads a query issues (so a regression to
per-run loops fails without timing anything).
"""

import heapq
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, SeriesStore, create_method
from repro.core.answers import RangeAnswerSet
from repro.core.distance import squared_euclidean_batch
from repro.core.parallel import shutdown_shared_executors
from repro.core.queries import KnnQuery, RangeQuery
from repro.indexes.ads.index import AdsPlusIndex
from repro.indexes.base import SearchMethod
from repro.indexes.stepwise.index import StepwiseIndex
from repro.indexes.vafile.index import VaPlusFileIndex
from repro.summarization.dhwt import haar_transform
from repro.workloads import random_walk_dataset, synth_rand_workload

BACKENDS = ("memory", "mmap", "compressed", "growable-snapshot")
METHOD_PARAMS = {
    "ads+": {"leaf_capacity": 10},
    "va+file": {"coefficients": 8, "bits_per_dimension": 3, "refinement_batch": 7},
    "stepwise": {},
}
TREE_PARAMS = {
    "isax2+": {"leaf_capacity": 12, "segments": 4},
    "dstree": {"leaf_capacity": 12},
    "sfa-trie": {"leaf_capacity": 12, "coefficients": 6},
}
K = 5


# --------------------------------------------------------------------------- #
# The reference loops (the code the fused path replaced)
# --------------------------------------------------------------------------- #
def _contiguous_runs(positions):
    """Yield (start, stop) pairs covering consecutive runs in sorted positions."""
    if positions.size == 0:
        return
    breaks = np.flatnonzero(np.diff(positions) > 1)
    start_idx = 0
    for b in breaks:
        yield positions[start_idx], positions[b] + 1
        start_idx = b + 1
    yield positions[start_idx], positions[-1] + 1


def _refine_runs(method, positions, query, answers, stats):
    for start, stop in _contiguous_runs(positions):
        block = method.store.read_contiguous(int(start), int(stop))
        distances = squared_euclidean_batch(query, block)
        answers.offer_batch(np.arange(start, stop), distances)
        stats.series_examined += int(stop - start)


def _scan_leaf(method, node, query, answers, stats):
    if node.size == 0:
        return
    positions = node.position_block()
    block = method.store.read_block(positions)
    answers.offer_batch(positions, squared_euclidean_batch(query, block))
    stats.series_examined += node.size
    stats.leaves_visited += 1
    stats.nodes_visited += 1


def reference_adsp_exact(self, query, k, stats):
    answers = self._make_answer_set(k)
    paa = self.summarizer.paa.transform(query)
    leaf = self.tree.leaf_for(paa)
    if leaf is not None:
        _scan_leaf(self, leaf, query, answers, stats)
    bounds = self.summarizer.lower_bound_batch(paa, self._symbols)
    stats.lower_bounds_computed += bounds.shape[0]
    threshold = np.sqrt(answers.worst_squared_distance)
    _refine_runs(self, np.flatnonzero(bounds <= threshold), query, answers, stats)
    return answers


def reference_vafile_exact(self, query, k, stats):
    answers = self._make_answer_set(k)
    query_dft = self.summarizer.dft_of(query)
    bounds = self.summarizer.lower_bound_batch(query_dft, self._cells)
    stats.lower_bounds_computed += bounds.shape[0]
    order = np.argsort(bounds, kind="stable")
    cursor = 0
    total = order.shape[0]
    while cursor < total:
        threshold = answers.worst_squared_distance
        bound = bounds[order[cursor]]
        if bound * bound > threshold:
            break
        batch = [int(order[cursor])]
        cursor += 1
        while (
            cursor < total
            and len(batch) < self.refinement_batch
            and bounds[order[cursor]] ** 2 <= threshold
        ):
            batch.append(int(order[cursor]))
            cursor += 1
        _refine_runs(self, np.sort(np.asarray(batch)), query, answers, stats)
    return answers


def reference_vafile_range(self, query, radius, stats):
    answers = RangeAnswerSet(radius=radius)
    query_dft = self.summarizer.dft_of(query)
    bounds = self.summarizer.lower_bound_batch(query_dft, self._cells)
    stats.lower_bounds_computed += bounds.shape[0]
    survivors = np.sort(np.flatnonzero(bounds <= radius))
    for start, stop in _contiguous_runs(survivors):
        block = self.store.read_contiguous(int(start), int(stop))
        distances = squared_euclidean_batch(query, block)
        stats.series_examined += int(stop - start)
        for offset, sq in enumerate(distances):
            answers.offer(int(start) + offset, float(sq))
    return answers


def reference_stepwise_exact(self, query, k, stats):
    answers = self._make_answer_set(k)
    query_coeffs = haar_transform(query)
    candidates = np.arange(self.store.count)
    partial = np.zeros(self.store.count, dtype=np.float64)
    query_tail = np.zeros(len(self._level_slices) + 1, dtype=np.float64)
    for level in range(len(self._level_slices) - 1, -1, -1):
        chunk = query_coeffs[self._level_slices[level]]
        query_tail[level] = query_tail[level + 1] + float(np.dot(chunk, chunk))
    level = 0
    total_levels = len(self._level_slices)
    while level < total_levels and candidates.size > 0:
        stop_level = min(level + self.levels_per_step, total_levels)
        for current in range(level, stop_level):
            sl = self._level_slices[current]
            self.store.counter.random_accesses += 1
            coeff_bytes = candidates.size * (sl.stop - sl.start) * 4
            self.store.counter.sequential_pages += max(1, coeff_bytes // self.store.page_bytes)
            self.store.counter.bytes_read += coeff_bytes
            diff = self._coefficients[candidates, sl] - query_coeffs[np.newaxis, sl]
            partial[candidates] += np.einsum("ij,ij->i", diff, diff)
            stats.lower_bounds_computed += candidates.size
        level = stop_level
        lower = np.sqrt(partial[candidates])
        upper = (
            lower + np.sqrt(self._tail_energy[candidates, level]) + np.sqrt(query_tail[level])
        )
        if candidates.size >= k:
            candidates = candidates[lower <= np.partition(upper, k - 1)[k - 1]]
    _refine_runs(self, np.sort(candidates), query, answers, stats)
    return answers


def serial_best_first(self, heap, expand, start_leaf, query, answers, stats):
    """The traversal before coalescing: the best-so-far is re-read per leaf."""
    while heap:
        bound, _, node = heapq.heappop(heap)
        if bound * bound > answers.worst_squared_distance:
            break
        if not node.is_leaf:
            stats.nodes_visited += 1
            expand(node)
        elif node is not start_leaf:
            _scan_leaf(self, node, query, answers, stats)


REFERENCES = {
    "ads+": [(AdsPlusIndex, "_knn_exact", reference_adsp_exact)],
    "va+file": [
        (VaPlusFileIndex, "_knn_exact", reference_vafile_exact),
        (VaPlusFileIndex, "_range_exact", reference_vafile_range),
    ],
    "stepwise": [(StepwiseIndex, "_knn_exact", reference_stepwise_exact)],
}


# --------------------------------------------------------------------------- #
# Fixtures and helpers
# --------------------------------------------------------------------------- #
def _tie_values():
    """Seeded rows with exact duplicates so answers contain distance ties."""
    base = random_walk_dataset(150, 32, seed=171).values
    return np.vstack([base, base[:25]])


@pytest.fixture(scope="module", autouse=True)
def _shared_pools():
    yield
    shutdown_shared_executors()


@pytest.fixture(scope="module")
def queries():
    values = _tie_values()
    workload = synth_rand_workload(values.shape[1], count=3, seed=173)
    rows = [np.asarray(q.series, dtype=np.float64) for q in workload]
    rows.append(values[7])  # self-query: its duplicate ties at distance zero
    rows.append(values[160])
    return np.vstack(rows)


@pytest.fixture(scope="module")
def backend_store(tmp_path_factory):
    """Factory for a fresh store of ``kind`` over the shared tie dataset."""
    root = tmp_path_factory.mktemp("fused-backends")
    values = _tie_values()
    made = []

    def make(kind: str) -> SeriesStore:
        dataset = Dataset(values=values.copy(), name=f"fused-{kind}")
        made.append(kind)
        n = len(made)
        if kind == "memory":
            return SeriesStore(dataset)
        if kind == "mmap":
            return SeriesStore(dataset.to_mmap(root / f"data-{n}.npy"))
        if kind == "compressed":
            return SeriesStore(dataset.to_compressed(root / f"data-{n}.rcz", qdtype="int16"))
        if kind == "growable-snapshot":
            return SeriesStore(dataset.to_growable(root / f"grow-{n}")).snapshot()
        raise ValueError(kind)

    return make


def observe(method, queries, radius=None):
    """Everything a caller can see of the queries: answers, stats, store counters."""
    out = []
    for query in queries:
        before = method.store.counter_snapshot()
        result = method.knn_exact(KnnQuery(series=query, k=K))
        record = [(n.position, n.distance.hex()) for n in result.neighbors]
        stats = asdict(result.stats)
        if radius is not None:
            ranged = method.range_exact(RangeQuery(series=query, radius=radius))
            record += [(n.position, n.distance.hex()) for n in ranged.neighbors]
            stats["range"] = asdict(ranged.stats)
            del stats["range"]["cpu_seconds"], stats["range"]["measured_io_seconds"]
        del stats["cpu_seconds"], stats["measured_io_seconds"]
        counters = asdict(method.store.since(before))
        del counters["measured_io_seconds"]
        out.append((record, stats, counters))
    return out


def build(name, store, **extra):
    params = {**METHOD_PARAMS, **TREE_PARAMS}[name.split(":")[-1]]
    method = create_method(name, store, **params, **extra)
    method.build()
    return method


# --------------------------------------------------------------------------- #
# Reference loop == fused path
# --------------------------------------------------------------------------- #
class TestFusedEqualsReferenceLoops:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(METHOD_PARAMS))
    def test_answers_and_every_counter_equal(
        self, backend_store, queries, monkeypatch, name, backend
    ):
        radius = 4.0 if name == "va+file" else None
        fused = observe(build(name, backend_store(backend)), queries, radius)
        for cls, attribute, reference in REFERENCES[name]:
            monkeypatch.setattr(cls, attribute, reference)
        looped = observe(build(name, backend_store(backend)), queries, radius)
        assert fused == looped
        assert any(stats["series_examined"] for _, stats, _ in fused)

    @pytest.mark.parametrize("name", sorted(METHOD_PARAMS))
    def test_sharded_thread_and_process(self, backend_store, queries, monkeypatch, name):
        """One worker keeps the cross-shard radius, and so the counts, deterministic."""
        def sharded(executor):
            return build(
                f"sharded:{name}", backend_store("mmap"), shards=3, workers=1, executor=executor
            )

        unsharded = observe(build(name, backend_store("mmap")), queries)
        thread = observe(sharded("thread"), queries)
        process = observe(sharded("process"), queries)
        for cls, attribute, reference in REFERENCES[name]:
            monkeypatch.setattr(cls, attribute, reference)
        looped = observe(sharded("thread"), queries)  # the patch reaches threads only
        assert thread == looped
        assert process == thread
        assert [answers for answers, _, _ in thread] == [answers for answers, _, _ in unsharded]


# --------------------------------------------------------------------------- #
# The group-read primitive
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def group_stores(tmp_path_factory):
    """A memory store and a small-block ``.rcz`` store (so groups straddle blocks)."""
    root = tmp_path_factory.mktemp("fused-groups")
    dataset = random_walk_dataset(300, 16, seed=175)
    compressed = dataset.to_compressed(root / "groups.rcz", qdtype="int8", block_rows=32)
    # 256-byte pages: four series each, so page rounding differs between splits.
    return [SeriesStore(dataset, page_bytes=256), SeriesStore(compressed, page_bytes=256)]


class TestReadGroups:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_counters_equal_per_group_read_block(self, group_stores, data):
        sizes = data.draw(st.lists(st.integers(0, 40), min_size=0, max_size=8))
        positions = np.asarray(
            data.draw(st.lists(st.integers(0, 299), min_size=sum(sizes), max_size=sum(sizes))),
            dtype=np.int64,
        )
        for store in group_stores:
            before = store.counter_snapshot()
            rows = store.read_groups(positions, sizes)
            grouped = store.since(before)
            before = store.counter_snapshot()
            pieces = [
                store.read_block(piece) for piece in np.split(positions, np.cumsum(sizes)[:-1])
            ]
            assert grouped == store.since(before)
            assert rows.tobytes() == np.concatenate(
                [np.empty((0, store.length), rows.dtype)] + pieces
            ).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(picked=st.sets(st.integers(0, 299), max_size=80))
    def test_runs_equal_per_run_read_contiguous(self, group_stores, picked):
        positions = np.asarray(sorted(picked), dtype=np.int64)
        runs = list(_contiguous_runs(positions))
        for store in group_stores:
            before = store.counter_snapshot()
            rows = store.read_groups(positions, [int(stop - start) for start, stop in runs])
            grouped = store.since(before)
            before = store.counter_snapshot()
            pieces = [store.read_contiguous(int(start), int(stop)) for start, stop in runs]
            assert grouped == store.since(before)
            assert grouped.random_accesses == len(runs)
            assert rows.tobytes() == b"".join(np.ascontiguousarray(p).tobytes() for p in pieces)

    def test_sizes_must_cover_positions(self, group_stores):
        with pytest.raises(ValueError, match="add up"):
            group_stores[0].read_groups(np.arange(5), [2, 2])


# --------------------------------------------------------------------------- #
# Coalesced best-first traversal
# --------------------------------------------------------------------------- #
class TestCoalescedTraversal:
    @pytest.mark.parametrize("name", sorted(TREE_PARAMS))
    def test_overshoot_is_below_leaf_capacity_and_answers_identical(
        self, backend_store, queries, monkeypatch, name
    ):
        """Ties at the k-th distance included: the collection holds duplicates."""
        method = build(name, backend_store("memory"))
        coalesced = observe(method, queries)
        monkeypatch.setattr(SearchMethod, "_best_first", serial_best_first)
        serial = observe(method, queries)
        fewer_reads = False
        for (answers, stats, counters), (want, serial_stats, serial_counters) in zip(
            coalesced, serial
        ):
            assert answers == want
            overshoot = stats["series_examined"] - serial_stats["series_examined"]
            assert 0 <= overshoot < method.leaf_capacity
            # each leaf is still charged as its own block
            assert counters["random_accesses"] == stats["leaves_visited"]
            assert counters["random_accesses"] >= serial_counters["random_accesses"]
            fewer_reads |= stats["leaves_visited"] > 2
        assert fewer_reads

    @pytest.mark.parametrize("name", sorted(TREE_PARAMS))
    def test_a_node_is_counted_once(self, backend_store, queries, monkeypatch, name):
        expanded = []
        best_first = SearchMethod._best_first

        def spying(self, heap, expand, *rest):
            def counted(node):
                expanded.append(node)
                expand(node)

            return best_first(self, heap, counted, *rest)

        monkeypatch.setattr(SearchMethod, "_best_first", spying)
        method = build(name, backend_store("memory"))
        for query in queries:
            expanded.clear()
            stats = method.knn_exact(KnnQuery(series=query, k=K)).stats
            assert stats.leaves_visited > 0
            assert stats.nodes_visited == len(expanded) + stats.leaves_visited


# --------------------------------------------------------------------------- #
# Accounted reads per query (a per-run loop fails here, without any timing)
# --------------------------------------------------------------------------- #
class CountingStore(SeriesStore):
    """Counts accounted reads: each goes through ``_serve`` exactly once."""

    reads = 0

    def _serve(self, read):
        self.reads += 1
        return super()._serve(read)


class TestAccountedReadsPerQuery:
    @pytest.fixture(scope="class")
    def collection(self):
        dataset = random_walk_dataset(3000, 64, seed=177)
        rng = np.random.default_rng(179)
        rows = dataset.values[rng.choice(dataset.count, 6, replace=False)].astype(np.float64)
        # collection series under a ladder of noise: from one survivor to most of the file
        noise = np.linspace(0.1, 0.6, 6)[:, np.newaxis] * rng.standard_normal(rows.shape)
        return dataset, list(rows + noise)

    def test_adsp_query_issues_at_most_two_reads(self, collection):
        dataset, queries = collection
        store = CountingStore(dataset)
        method = create_method("ads+", store, leaf_capacity=20)
        method.build()
        runs = []
        for query in queries:
            store.reads = 0
            stats = method.knn_exact(KnnQuery(series=query, k=1)).stats
            runs.append(stats.random_accesses)
            assert store.reads <= 2  # the approximate leaf, then every run in one gather
        assert max(runs) > 50

    def test_vafile_query_reads_once_per_refinement_batch(self, collection):
        dataset, queries = collection
        store = CountingStore(dataset)
        method = create_method("va+file", store, refinement_batch=16)
        method.build()
        runs = []
        for query in queries:
            store.reads = 0
            stats = method.knn_exact(KnnQuery(series=query, k=1)).stats
            runs.append(stats.random_accesses)
            assert store.reads <= math.ceil(stats.series_examined / 16) + 1
        assert max(runs) > 50
