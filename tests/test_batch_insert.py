"""Batch-routed inserts leave the tree per-row inserts leave, bit for bit.

``extend(start, stop)`` descends each of the four summarization trees once per
batch.  The reference it is held to lives here: the one-series-at-a-time
insert loops those trees used to run (route one series down its path, widen
one synopsis per level, add one position, split on overflow), written against
the pieces both paths share (``_split_leaf``, the summarizers).  M-tree and
R*-tree insert per row through ``_insert_block`` on every path, so their
reference is their own one-row ``_insert`` — and ``build()`` is the same
loop, so it must leave the tree a build over a prefix plus ``extend()``
leaves.  Whatever the batch sizes, the paths must agree on the tree's
fingerprint, on answers, and on every counter.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, SeriesStore, create_method
from repro.core.buffer import BufferPool
from repro.core.queries import KnnQuery
from repro.indexes.isax.node import IsaxNode
from repro.indexes.sfa_trie.index import SfaTrieNode
from repro.summarization.eapca import NodeSynopsis
from repro.summarization.sax import SaxWord, sax_breakpoints
from repro.workloads import random_walk_dataset

LEAF = 5
LENGTH = 16
#: small leaves and coarse alphabets, so that splits, maximum-cardinality
#: leaves and full-depth tries all happen within a few dozen rows; the tight
#: buffers make every split spill.
TREES = {
    "isax2+": {"leaf_capacity": LEAF, "segments": 4, "cardinality": 8, "buffer_capacity": 4},
    "ads+": {"leaf_capacity": LEAF, "segments": 4, "cardinality": 8},
    "dstree": {"leaf_capacity": LEAF, "initial_segments": 2, "buffer_capacity": 4},
    "sfa-trie": {"leaf_capacity": LEAF, "coefficients": 3, "alphabet_size": 6},
    "m-tree": {"node_capacity": LEAF},
    "r*-tree": {"leaf_capacity": LEAF, "node_capacity": 3, "segments": 4},
}
#: the trees whose ``extend()`` routes a batch down the tree in one descent.
ROUTED = ("isax2+", "ads+", "dstree", "sfa-trie")
#: the trees that insert row by row, at build time too.
PER_ROW = ("m-tree", "r*-tree")


# --------------------------------------------------------------------------- #
# The reference: one series at a time
# --------------------------------------------------------------------------- #
def _series(method, position):
    return method.store.peek(position, position + 1)[0].astype(np.float64)


def _live_buffer(method):
    method._buffer = BufferPool.for_store(method.store, method.buffer_capacity, method._buffer)
    return method._buffer


def _widen(node, series):
    """Grow a DSTree node's synopsis to cover one more series."""
    if node.synopsis is None:
        node.synopsis = NodeSynopsis.from_series(series, node.boundaries)
        return
    edges = node.synopsis.boundaries
    for j, seg in enumerate(node.synopsis.segments):
        chunk = series[edges[j] : edges[j + 1]]
        mean, std = float(chunk.mean()), float(chunk.std())
        seg.mean_min = min(seg.mean_min, mean)
        seg.mean_max = max(seg.mean_max, mean)
        seg.std_min = min(seg.std_min, std)
        seg.std_max = max(seg.std_max, std)


def insert_dstree(method, position):
    buffer = _live_buffer(method)
    series = _series(method, position)
    node = method.root
    while not node.is_leaf:
        _widen(node, series)
        node._child_bound_cache = None
        node = node.route(series)
    _widen(node, series)
    node.positions.append(position)
    buffer.add(id(node))
    if node.size > method.leaf_capacity:
        method._split_leaf(node)
    buffer.flush_all()


def _insert_isax_tree(tree, position, paa):
    """One series into the shared iSAX tree (with its buffer, if it has one)."""
    root, summarizer, buffer = tree.root, tree.summarizer, tree.buffer
    base = sax_breakpoints(2)
    key = tuple(int(np.searchsorted(base, value, side="left")) for value in paa)
    node = root.children.get(key)
    if node is None:
        word = SaxWord(symbols=key, cardinalities=(2,) * len(key))
        node = root.children[key] = IsaxNode(word=word, depth=1, is_leaf=True, parent=root)
    while not node.is_leaf:
        segment = node.split_segment
        child = node.children.get(node.word.promote(segment, float(paa[segment])).symbols)
        if child is None:
            children, symbols, cards = node.child_arrays()
            bounds = summarizer.mindist_paa_to_words_batch(paa, symbols, cards)
            child = children[int(np.argmin(bounds))]
        node = child
    node.add_block(np.array([position]), paa[np.newaxis, :])
    if buffer is not None:
        buffer.add(id(node))
    if node.size > tree.leaf_capacity:
        tree._split_leaf(node)
    if buffer is not None:
        buffer.flush_all()


def insert_isax(method, position):
    paa = method.summarizer.paa.transform(_series(method, position))
    method.tree.buffer = _live_buffer(method)
    _insert_isax_tree(method.tree, position, paa)


def insert_ads(method, position):
    series = _series(method, position)
    paa = method.summarizer.paa.transform(series)
    method._paa = np.vstack([method._paa, paa[np.newaxis, :]])
    method._symbols = np.vstack(
        [method._symbols, method.summarizer.transform(series)[np.newaxis, :]]
    )
    _insert_isax_tree(method.tree, position, paa)


def insert_sfa(method, position):
    word = method.summarizer.transform(_series(method, position))
    method._words = np.vstack([method._words, word[np.newaxis, :]])
    node = method.root
    while not node.is_leaf:
        key = node.prefix + (int(word[node.depth]),)
        child = node.children.get(key)
        if child is None:
            child = node.children[key] = SfaTrieNode(prefix=key, depth=node.depth + 1)
        node = child
    node.positions.append(position)
    if node.size > method.leaf_capacity and node.depth < method.coefficients:
        method._split_leaf(node)


def insert_mtree(method, position):
    method._insert(position, _series(method, position))


def insert_rstar(method, position):
    method._reinserted_levels.clear()
    series = _series(method, position)
    method._insert(position, method.summarizer.transform_batch(series[np.newaxis, :])[0])


REFERENCE = {
    "isax2+": insert_isax,
    "ads+": insert_ads,
    "dstree": insert_dstree,
    "sfa-trie": insert_sfa,
    "m-tree": insert_mtree,
    "r*-tree": insert_rstar,
}


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #
def _walk(root, children):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def _hexes(bounds):
    return None if bounds is None else [v.hex() for v in bounds.tolist()]


def fingerprint(method):
    """Everything a tree decides: shape, child order, words/policies/thresholds,
    leaf position vectors and payloads, synopsis ranges, covering radii and
    rectangles as exact floats."""
    if method.name == "m-tree":
        nodes = _walk(method.root, lambda n: [e.subtree for e in n.entries if e.subtree])
        return [
            (n.is_leaf, [(e.position, e.distance_to_parent.hex(), e.radius.hex())
                         for e in n.entries])
            for n in nodes
        ]
    if method.name == "r*-tree":
        return [
            (n.is_leaf, n.level, list(n.positions), _hexes(n.lower), _hexes(n.upper))
            for n in _walk(method.root, lambda n: n.children)
        ]
    if method.name == "dstree":
        out = []
        for node in _walk(method.root, lambda n: [c for c in (n.left, n.right) if c]):
            ranges = node.synopsis and [
                tuple(float(v).hex() for v in (s.mean_min, s.mean_max, s.std_min, s.std_max))
                for s in node.synopsis.segments
            ]
            policy = node.policy and (
                node.policy.kind,
                node.policy.segment,
                float(node.policy.threshold).hex(),
                node.policy.vertical,
            )
            out.append(
                (node.is_leaf, node.boundaries.tolist(), node.position_block().tolist(),
                 ranges, policy)
            )
        return out
    if method.name == "sfa-trie":
        nodes = _walk(method.root, lambda n: list(n.children.values()))
        return (
            [(n.is_leaf, n.prefix, n.position_block().tolist()) for n in nodes],
            method._words.tolist(),
        )
    ads = method.name == "ads+"
    tree = isax_fingerprint(method.tree)
    return (tree, method._paa.tolist(), method._symbols.tolist()) if ads else tree


def isax_fingerprint(tree):
    """The shared iSAX tree's structure — the same walk for iSAX2+ and ADS+."""
    nodes = _walk(tree.root, lambda n: list(n.children.values()))
    return [
        (n.is_leaf, n.word, n.split_segment, n.position_block().tolist(),
         [float(v).hex() for v in n.paa_block().ravel()])
        for n in nodes
    ]


def _counts(counter):
    out = vars(counter).copy()
    out.pop("measured_io_seconds")
    return out


def _answer(method, series, k=3):
    result = method.knn_exact(KnnQuery(series=series, k=k))
    stats = result.stats
    return (
        result.positions(),
        [float(d).hex() for d in result.distances()],
        stats.series_examined,
        stats.lower_bounds_computed,
        stats.nodes_visited,
        stats.leaves_visited,
        stats.random_accesses,
        stats.sequential_pages,
        stats.bytes_read,
        stats.physical_bytes_read,
    )


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #
def _collection(seed, prefix, tail):
    """``prefix + tail`` series; a third of the tail repeats a prefix row or
    the first tail row — more copies than a leaf holds, ties at every k."""
    values = random_walk_dataset(prefix + tail, LENGTH, seed=seed).values.copy()
    rng = np.random.default_rng(seed)
    sources = (int(rng.integers(prefix)), prefix)
    for row in rng.choice(np.arange(prefix + 1, prefix + tail), size=tail // 3, replace=False):
        values[row] = values[sources[int(rng.integers(2))]]
    return values, sources


def _grown(name, values, prefix, directory, ingest):
    """Build over the prefix, land the tail in the store, hand it to ``ingest``.

    Returns ``(method, counter delta of the ingest)``.  ``directory`` selects
    the growable backend (rows read back through WAL tail and segments);
    ``None`` re-attaches a grown in-memory store.
    """
    head = Dataset(values=values[:prefix].copy(), name="head")
    if directory is not None:
        head = head.to_growable(Path(directory) / "store")
    method = create_method(name, SeriesStore(head), **TREES[name])
    method.build()
    if directory is not None:
        method.store.extend(values[prefix:])
    else:
        method.store = SeriesStore(Dataset(values=values.copy(), name="full"))
    before = method.store.counter.snapshot()
    ingest(method)
    return method, _counts(method.store.counter.diff(before))


def _assert_same_tree(name, values, prefix, batches, directory=None, probes=()):
    def per_row(method):
        for position in range(prefix, len(values)):
            REFERENCE[name](method, position)

    def batched(method):
        start = prefix
        for size in batches:
            assert method.extend(start, start + size) == size
            start += size
        assert start == len(values)

    roots = [None, None] if directory is None else [Path(directory) / "a", Path(directory) / "b"]
    reference, reference_io = _grown(name, values, prefix, roots[0], per_row)
    method, method_io = _grown(name, values, prefix, roots[1], batched)
    try:
        assert fingerprint(method) == fingerprint(reference)
        assert method_io == reference_io
        rng = np.random.default_rng(len(values))
        panel = [rng.standard_normal(LENGTH).cumsum() for _ in range(2)]
        panel += [values[p].astype(np.float64) for p in probes]
        for series in panel:
            assert _answer(method, series) == _answer(reference, series)
    finally:
        if directory is not None:
            reference.store.dataset.backend.close()
            method.store.dataset.backend.close()
    return method


#: one row, under a leaf, just over a leaf, several splits inside one batch.
BATCH_SIZES = st.lists(st.sampled_from([1, 2, 4, LEAF + 2, 13, 40]), min_size=1, max_size=5)


@pytest.mark.parametrize("backend", ["memory", "growable"])
@pytest.mark.parametrize("name", sorted(TREES))
@given(seed=st.integers(0, 10_000), prefix=st.integers(8, 40), batches=BATCH_SIZES)
@settings(max_examples=12, deadline=None)
def test_extend_leaves_the_per_row_tree(name, backend, seed, prefix, batches):
    values, sources = _collection(seed, prefix, sum(batches))
    if backend == "memory":
        _assert_same_tree(name, values, prefix, batches, probes=sources)
    else:
        with tempfile.TemporaryDirectory() as directory:
            _assert_same_tree(name, values, prefix, batches, directory, probes=sources)


@pytest.mark.parametrize("buffer_capacity", [None, 4])
@given(seed=st.integers(0, 10_000), prefix=st.integers(8, 40), batches=BATCH_SIZES)
@settings(max_examples=12, deadline=None)
def test_isax2plus_and_adsplus_hold_the_same_tree(buffer_capacity, seed, prefix, batches):
    """One ``IsaxTree`` serves both indexes: same collection and parameters,
    same tree — after ``build()`` and after ``extend()`` however it is cut.
    The build buffer iSAX2+ hands the tree only counts; it never decides."""
    values, _ = _collection(seed, prefix, sum(batches))

    def trees(name, sizes, **extra):
        head = Dataset(values=values[:prefix].copy(), name="head")
        method = create_method(name, SeriesStore(head), **TREES["ads+"], **extra)
        method.build()
        built = isax_fingerprint(method.tree)
        method.store = SeriesStore(Dataset(values=values.copy(), name="full"))
        start = prefix
        for size in sizes:
            start += method.extend(start, start + size)
        return built, isax_fingerprint(method.tree)

    isax = trees("isax2+", batches, buffer_capacity=buffer_capacity)
    assert isax == trees("ads+", batches[::-1])
    assert len(isax[1]) >= len(isax[0]) > 1


@pytest.mark.parametrize("name", PER_ROW)
@given(seed=st.integers(0, 10_000), prefix=st.integers(1, 60), batches=BATCH_SIZES)
@settings(max_examples=12, deadline=None)
def test_build_leaves_the_tree_a_prefix_build_and_extend_leave(name, seed, prefix, batches):
    values, _ = _collection(seed, 60, sum(batches))
    full = create_method(name, SeriesStore(Dataset(values=values.copy())), **TREES[name])
    full.build()
    grown = create_method(name, SeriesStore(Dataset(values=values[:prefix].copy())), **TREES[name])
    grown.build()
    grown.store = SeriesStore(Dataset(values=values.copy()))
    start = prefix
    for size in batches + [len(values) - prefix - sum(batches)]:
        start += grown.extend(start, start + size)
    assert fingerprint(grown) == fingerprint(full)
    assert len(fingerprint(full)) > 3


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_duplicates_beyond_a_leaf_in_one_batch(name):
    """A leaf no split can divide keeps growing: DSTree and iSAX re-attempt
    the split after every further row (a different row may make it possible),
    the SFA trie never splits at full word depth."""
    prefix, copies = 30, 3 * LEAF + 2
    values = random_walk_dataset(prefix + copies + 6, LENGTH, seed=41).values.copy()
    values[prefix : prefix + copies] = values[prefix]
    method = _assert_same_tree(
        name, values, prefix, [copies + 6], probes=(prefix, prefix + copies)
    )
    tree = method.tree if name in ("isax2+", "ads+") else method
    children = (
        (lambda n: [c for c in (n.left, n.right) if c])
        if name == "dstree"
        else (lambda n: list(n.children.values()))
    )
    crowded = [
        node for node in _walk(tree.root, children)
        if node.is_leaf and set(range(prefix, prefix + copies)) <= set(node.position_block().tolist())
    ]
    assert len(crowded) == 1 and crowded[0].size > LEAF
