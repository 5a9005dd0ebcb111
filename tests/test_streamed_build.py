"""Streamed-build equivalence suite.

The tree bulk builds (iSAX2+ / ADS+ / DSTree / SFA-trie) stream the
collection over ``SeriesStore.scan_blocks``/``peek_chunks`` instead of
materializing full-collection float64 temporaries.  The contract under test:
the chunk size is *invisible* — a build streamed in small chunks (including
sizes that do not divide the collection) yields a tree identical to the
in-RAM single-chunk build, node for node and value for value, with identical
build counters and identical query answers and accounting, on the memory and
mmap backends alike, including through the ``sharded:*`` wrappers.
"""

import numpy as np
import pytest

from repro import Dataset, SeriesStore, create_method
from repro.core.queries import KnnQuery
from repro.workloads import random_walk_dataset, synth_rand_workload

#: every tree method with small leaves, so chunked streams cross many splits.
TREE_METHOD_PARAMS = {
    "isax2+": {"leaf_capacity": 12},
    "ads+": {"leaf_capacity": 12},
    "dstree": {"leaf_capacity": 12},
    "sfa-trie": {"leaf_capacity": 18, "coefficients": 6, "sample_size": 128},
}

#: chunk sizes that do not divide the 430-row collection.
ODD_CHUNKS = (37, 97)

COUNT, LENGTH = 430, 48


@pytest.fixture(scope="module")
def dataset():
    return random_walk_dataset(COUNT, LENGTH, seed=71)


@pytest.fixture(scope="module")
def mmap_dataset(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("streamed-build") / "walks.npy"
    dataset.to_file(path)
    return Dataset.from_file(path)


def norm(arr) -> bytes:
    """Value bytes of an array, invariant to integer storage width."""
    arr = np.asarray(arr)
    if np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.int64)
    return arr.tobytes()


def tree_fingerprint(method) -> list:
    """Every structural and numeric fact of a built tree, traversal-ordered."""
    name = method.name.split(":", 1)[-1]
    out: list = []
    if name in ("isax2+", "ads+"):
        if name == "ads+":
            out.append(("paa", norm(method._paa)))
            out.append(("symbols", norm(method._symbols)))
        roots = [method.tree.root]
    elif name == "dstree":
        roots = [method.root]
    elif name == "sfa-trie":
        out.append(("breakpoints", norm(method.summarizer.breakpoints)))
        out.append(("words", norm(method._words)))
        roots = [method.root]
    else:  # pragma: no cover - guard against new methods
        raise AssertionError(f"no fingerprint for {name}")

    stack = list(roots)
    while stack:
        node = stack.pop()
        if name == "dstree":
            entry = [
                node.boundaries.tolist(),
                node.depth,
                node.is_leaf,
                node.position_block().tolist(),
            ]
            if node.policy is not None:
                p = node.policy
                entry.append(
                    (
                        p.kind,
                        p.segment,
                        p.threshold,
                        p.vertical,
                        None if p.child_boundaries is None else p.child_boundaries.tolist(),
                    )
                )
            if node.synopsis is not None:
                entry.append(
                    [
                        (s.mean_min, s.mean_max, s.std_min, s.std_max, s.width)
                        for s in node.synopsis.segments
                    ]
                )
            out.append(tuple(entry))
            stack.extend(c for c in (node.left, node.right) if c is not None)
        elif name == "sfa-trie":
            out.append((node.prefix, node.is_leaf, node.position_block().tolist()))
            stack.extend(node.children[k] for k in sorted(node.children))
        else:  # the iSAX family
            word = None
            if node.word is not None:
                word = (node.word.symbols, node.word.cardinalities)
            out.append(
                (
                    word,
                    node.depth,
                    node.is_leaf,
                    node.split_segment,
                    node.position_block().tolist(),
                    norm(node.paa_block()),
                )
            )
            stack.extend(node.children[k] for k in sorted(node.children))
    return out


def build(method_name, dataset, backend=None, **overrides):
    params = dict(TREE_METHOD_PARAMS[method_name])
    params.update(overrides)
    method = create_method(method_name, SeriesStore(dataset, backend=backend), **params)
    stats = method.build()
    return method, stats


def query_facts(method, queries, k=5):
    """Answers plus access accounting for a query batch (exact positions)."""
    facts = []
    for result in method.knn_exact_batch(queries, k=k):
        s = result.stats
        facts.append(
            (
                result.positions(),
                result.distances(),
                s.series_examined,
                s.random_accesses,
                s.sequential_pages,
                s.bytes_read,
            )
        )
    return facts


@pytest.fixture(scope="module")
def queries(dataset):
    workload = synth_rand_workload(LENGTH, count=4, seed=73)
    return np.vstack([np.asarray(q.series, dtype=np.float64) for q in workload])


class TestStreamedEqualsInRam:
    """Small odd chunks == one whole-collection chunk (the in-RAM build)."""

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    @pytest.mark.parametrize("chunk", ODD_CHUNKS)
    def test_tree_identical_on_memory_backend(self, dataset, method_name, chunk):
        inram, inram_stats = build(method_name, dataset, build_chunk_rows=COUNT)
        streamed, streamed_stats = build(method_name, dataset, build_chunk_rows=chunk)
        assert tree_fingerprint(streamed) == tree_fingerprint(inram)
        assert streamed_stats.sequential_pages == inram_stats.sequential_pages
        assert streamed_stats.random_accesses == inram_stats.random_accesses

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_tree_identical_on_mmap_backend(self, dataset, mmap_dataset, method_name):
        inram, inram_stats = build(method_name, dataset, build_chunk_rows=COUNT)
        streamed, streamed_stats = build(
            method_name, mmap_dataset, backend="mmap", build_chunk_rows=ODD_CHUNKS[1]
        )
        assert tree_fingerprint(streamed) == tree_fingerprint(inram)
        assert streamed_stats.sequential_pages == inram_stats.sequential_pages
        assert streamed_stats.random_accesses == inram_stats.random_accesses

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_answers_and_counters_identical(
        self, dataset, mmap_dataset, queries, method_name
    ):
        inram, _ = build(method_name, dataset, build_chunk_rows=COUNT)
        streamed, _ = build(method_name, dataset, build_chunk_rows=ODD_CHUNKS[0])
        mmap_streamed, _ = build(
            method_name, mmap_dataset, backend="mmap", build_chunk_rows=ODD_CHUNKS[0]
        )
        expected = query_facts(inram, queries)
        assert query_facts(streamed, queries) == expected
        assert query_facts(mmap_streamed, queries) == expected

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_knn_exact_identical(self, dataset, queries, method_name):
        inram, _ = build(method_name, dataset, build_chunk_rows=COUNT)
        streamed, _ = build(method_name, dataset, build_chunk_rows=ODD_CHUNKS[0])
        for query in queries:
            a = inram.knn_exact(KnnQuery(series=query, k=3))
            b = streamed.knn_exact(KnnQuery(series=query, k=3))
            assert a.positions() == b.positions()
            assert a.distances() == b.distances()

    def test_chunk_default_matches_explicit(self, dataset):
        default, _ = build("isax2+", dataset)  # store-default chunking
        explicit, _ = build("isax2+", dataset, build_chunk_rows=COUNT)
        assert tree_fingerprint(default) == tree_fingerprint(explicit)


class TestShardedStreamedBuilds:
    """build_chunk_rows flows through the sharded wrapper to every shard."""

    @pytest.mark.parametrize("method_name", ["isax2+", "dstree"])
    def test_sharded_memory_vs_mmap_byte_identical(
        self, dataset, mmap_dataset, queries, method_name
    ):
        # workers=1 runs the identical fan-out sequentially, which keeps the
        # counters deterministic (with concurrent workers the cross-shard
        # shared radius makes pruning work timing-dependent; answers are
        # byte-identical either way and covered by the test below).
        params = dict(TREE_METHOD_PARAMS[method_name])
        params.update(build_chunk_rows=ODD_CHUNKS[0], shards=2, workers=1)
        mem = create_method(f"sharded:{method_name}", SeriesStore(dataset), **params)
        mm = create_method(
            f"sharded:{method_name}",
            SeriesStore(mmap_dataset, backend="mmap"),
            **params,
        )
        mem.build()
        mm.build()
        try:
            assert query_facts(mem, queries) == query_facts(mm, queries)
            for shard_mem, shard_mm in zip(mem._shards, mm._shards):
                assert tree_fingerprint(shard_mem.method) == tree_fingerprint(
                    shard_mm.method
                )
        finally:
            mem.close()
            mm.close()

    def test_sharded_matches_unsharded_answers(self, dataset, queries):
        plain, _ = build("isax2+", dataset, build_chunk_rows=ODD_CHUNKS[0])
        sharded = create_method(
            "sharded:isax2+",
            SeriesStore(dataset),
            leaf_capacity=12,
            build_chunk_rows=ODD_CHUNKS[0],
            shards=2,
            workers=2,
        )
        sharded.build()
        try:
            for a, b in zip(
                plain.knn_exact_batch(queries, k=5),
                sharded.knn_exact_batch(queries, k=5),
            ):
                assert a.positions() == b.positions()
                assert a.distances() == b.distances()
        finally:
            sharded.close()


class TestAppendAfterStreamedBuild:
    """The insert path must keep working after a streamed build."""

    @pytest.mark.parametrize("method_name", sorted(TREE_METHOD_PARAMS))
    def test_append_after_streamed_build(self, method_name):
        values = random_walk_dataset(150, 32, seed=11).values
        head = Dataset(values=values[:140].copy(), name="head")
        full = Dataset(values=values.copy(), name="full")

        grown, _ = build(method_name, head, build_chunk_rows=29)
        grown.store = SeriesStore(full)
        for position in range(140, 150):
            grown.append(position)

        reference, _ = build(method_name, full, build_chunk_rows=29)
        workload = synth_rand_workload(32, count=3, seed=13)
        for q in workload:
            a = grown.knn_exact(KnnQuery(series=q.series, k=5))
            b = reference.knn_exact(KnnQuery(series=q.series, k=5))
            # A grown tree is query-equivalent to a rebuilt one (not
            # structurally identical): distances match.
            np.testing.assert_allclose(a.distances(), b.distances(), rtol=1e-9)
        # Every appended position must be findable.
        for position in range(140, 150):
            probe = np.asarray(values[position], dtype=np.float64)
            result = grown.knn_exact(KnnQuery(series=probe, k=1))
            assert result.distances()[0] == pytest.approx(0.0, abs=1e-6)

    def test_dstree_append_invalidates_bound_caches_after_streamed_build(self):
        """Queries warm the cached child-bound matrices; appends through the
        streamed-build state must still invalidate them along the insert path
        (one row at a time, then the rest of the tail in one batch)."""
        rng = np.random.default_rng(5)
        base = random_walk_dataset(120, 32, seed=17).values
        outliers = (rng.standard_normal((8, 32)) * 0.2 + 4.0).astype(np.float32)
        head = Dataset(values=base.copy(), name="head")
        full = Dataset(values=np.vstack([base, outliers]), name="full")

        method, _ = build("dstree", head, build_chunk_rows=23)
        probes = outliers.astype(np.float64)
        for probe in probes:  # warm every node's cached bound matrices
            method.knn_exact(KnnQuery(series=probe, k=2))
        method.store = SeriesStore(full)
        method.append(120)
        method.append(121)
        method.extend(122, 128)
        for i, probe in enumerate(probes):
            result = method.knn_exact(KnnQuery(series=probe, k=1))
            assert result.positions()[0] == 120 + i
            assert result.distances()[0] == pytest.approx(0.0, abs=1e-6)

    def test_append_after_streamed_build_on_mmap(self, tmp_path):
        values = random_walk_dataset(90, 24, seed=23).values
        head_path = tmp_path / "head.npy"
        Dataset(values=values[:80].copy()).to_file(head_path)
        full_path = tmp_path / "full.npy"
        Dataset(values=values.copy()).to_file(full_path)

        method, _ = build(
            "isax2+", Dataset.from_file(head_path), backend="mmap", build_chunk_rows=13
        )
        method.store = SeriesStore(Dataset.from_file(full_path), backend="mmap")
        for position in range(80, 90):
            method.append(position)
        probe = np.asarray(values[85], dtype=np.float64)
        result = method.knn_exact(KnnQuery(series=probe, k=1))
        assert result.positions()[0] == 85


class TestStreamedSummarizers:
    """The chunked drivers must match their whole-collection counterparts."""

    @staticmethod
    def blocks_of(values, chunk):
        arr = np.asarray(values, dtype=np.float64)
        for start in range(0, arr.shape[0], chunk):
            stop = min(start + chunk, arr.shape[0])
            yield slice(start, stop), arr[start:stop]

    def test_summarize_stream_matches_transform_batch(self, dataset):
        from repro.summarization.sax import IsaxSummarizer, summarize_stream

        summarizer = IsaxSummarizer(LENGTH, segments=8, cardinality=64)
        paa, symbols = summarize_stream(
            summarizer, self.blocks_of(dataset.values, 37), COUNT, symbols=True
        )
        np.testing.assert_array_equal(
            paa, summarizer.paa.transform_batch(dataset.values)
        )
        np.testing.assert_array_equal(
            np.asarray(symbols, dtype=np.int64),
            summarizer.transform_batch(dataset.values),
        )

    def test_group_root_words_matches_group_rows(self, dataset):
        from repro.summarization.sax import (
            IsaxSummarizer,
            group_root_words,
            group_rows,
            symbolize_batch,
        )

        paa = IsaxSummarizer(LENGTH, segments=8).paa.transform_batch(dataset.values)
        packed = [(key, idx.tolist()) for key, idx in group_root_words(paa)]
        plain = [
            (key, idx.tolist()) for key, idx in group_rows(symbolize_batch(paa, 2))
        ]
        assert packed == plain

    def test_synopsis_builders_match_from_series(self, dataset):
        from repro.summarization.eapca import (
            NodeSynopsis,
            batch_segment_statistics,
            synopsis_from_statistics,
            synopsis_from_stream,
        )

        boundaries = np.array([0, 16, 32, LENGTH], dtype=np.int64)
        block = np.asarray(dataset.values, dtype=np.float64)
        expected = NodeSynopsis.from_series(block, boundaries)
        streamed = synopsis_from_stream(self.blocks_of(block, 41), boundaries)
        means, stds = batch_segment_statistics(block, boundaries)
        assembled = synopsis_from_statistics(boundaries, means, stds)
        for built in (streamed, assembled):
            for got, exp in zip(built.segments, expected.segments):
                assert (got.mean_min, got.mean_max) == (exp.mean_min, exp.mean_max)
                assert (got.std_min, got.std_max) == (exp.std_min, exp.std_max)
                assert got.width == exp.width

    def test_words_stream_matches_transform_batch(self, dataset):
        from repro.summarization.sfa import SfaSummarizer, words_stream

        summarizer = SfaSummarizer(LENGTH, coefficients=6, alphabet_size=8)
        summarizer.fit(dataset.values[:100])
        words = words_stream(summarizer, self.blocks_of(dataset.values, 37), COUNT)
        np.testing.assert_array_equal(
            np.asarray(words, dtype=np.int64),
            summarizer.transform_batch(dataset.values),
        )

    def test_base_transform_stream_covers_any_summarizer(self, dataset):
        from repro.summarization.dft import DftSummarizer

        summarizer = DftSummarizer(LENGTH, coefficients=8)
        streamed = summarizer.transform_stream(self.blocks_of(dataset.values, 53), COUNT)
        np.testing.assert_array_equal(
            streamed, summarizer.transform_batch(dataset.values)
        )
