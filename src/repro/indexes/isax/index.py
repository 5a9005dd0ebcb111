"""iSAX2+ index: bulk-loaded iSAX tree with exact and ng-approximate search.

The index partitions the collection by iSAX words.  The root fans out on the
word at base cardinality (2 symbols per segment); when a leaf overflows, one
segment's cardinality is doubled and the leaf's series are redistributed among
the two resulting children (binary splits, as in iSAX 2.0/2+).  Construction
is bulk-loaded by default, mirroring iSAX2+'s defining contribution: all SAX
words are computed in one batch transform, positions are partitioned per root
word with one ``np.lexsort``, and overflowing leaves re-symbolize only the
split segment at doubled cardinality over whole position blocks — no per-series
Python inserts.  Series added after the initial load are routed a batch at a
time (``extend``): one descent per batch, the tree that inserting them one by
one would leave.  Query answering follows the protocol in
the paper: an ng-approximate descent to a single leaf establishes the
best-so-far, after which an exact traversal visits only the nodes whose
MINDIST lower bound is below the best-so-far.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.buffer import BufferPool
from ...core.soa import group_values
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.sax import (
    IsaxSummarizer,
    SaxWord,
    group_root_words,
    summarize_stream,
    symbolize_batch,
)
from ..base import SearchMethod, route_batch
from .node import IsaxNode, child_groups, leaf_for

__all__ = ["Isax2PlusIndex"]


class Isax2PlusIndex(SearchMethod):
    """iSAX2+ index over a series store.

    Parameters
    ----------
    store:
        The raw-data store.
    segments:
        Number of PAA segments / word length (16 in the paper).
    cardinality:
        Maximum per-segment cardinality (256 in the paper).
    leaf_capacity:
        Maximum number of series per leaf (the paper's tuned value for the
        100GB datasets is 100k; scale it with the dataset).
    buffer_capacity:
        Optional in-memory buffer budget (in series) used during construction;
        exceeding it triggers simulated spills.
    build_mode:
        ``"bulk"`` (default) partitions the whole collection with array
        operations; ``"incremental"`` forces the legacy one-series-at-a-time
        insert loop (the two produce query-equivalent trees).
    build_chunk_rows:
        Rows per streamed summarization chunk during construction (``None`` =
        the store's default).  The chunk size never changes the built tree —
        only how much raw data is resident at once.
    """

    name = "isax2+"
    supports_approximate = True
    supports_bulk_build = True

    def __init__(
        self,
        store: SeriesStore,
        segments: int = 16,
        cardinality: int = 256,
        leaf_capacity: int = 100,
        buffer_capacity: int | None = None,
        build_mode: str = "bulk",
        build_chunk_rows: int | None = None,
    ) -> None:
        super().__init__(store, build_mode=build_mode, build_chunk_rows=build_chunk_rows)
        if leaf_capacity <= 0:
            raise ValueError("leaf_capacity must be positive")
        segments = min(segments, store.length)
        self.summarizer = IsaxSummarizer(store.length, segments, cardinality)
        self.segments = segments
        self.cardinality = cardinality
        self.leaf_capacity = leaf_capacity
        self.buffer_capacity = buffer_capacity
        self.root = IsaxNode(word=None, depth=0, is_leaf=False)
        self._buffer: BufferPool | None = None

    # -- construction -------------------------------------------------------------
    def _make_buffer(self) -> BufferPool:
        return BufferPool(
            capacity_series=self.buffer_capacity,
            series_bytes=self.store.series_bytes,
            counter=self.store.counter,
            page_series=self.store.series_per_page,
        )

    def _prepare_build(self) -> np.ndarray:
        # One streamed sequential pass (accounted exactly like a scan()): only
        # one raw chunk is resident at a time, and the build keeps the compact
        # (count, segments) PAA matrix instead of the float64 collection.
        paa = summarize_stream(
            self.summarizer,
            self.store.scan_blocks(chunk_rows=self.build_chunk_rows),
            self.store.count,
        )
        self._buffer = self._make_buffer()
        return paa

    def _incremental_build(self) -> None:
        paa = self._prepare_build()
        for position in range(self.store.count):
            self._route_block(position, paa[position : position + 1])
        self._buffer.flush_all()

    def _bulk_build(self) -> None:
        """Array-native construction: batch summarize, partition, recurse.

        All root words (cardinality 2 per segment) come from one vectorized
        symbolization; ``group_root_words`` sorts the bit-packed word keys
        once to hand each root child its whole position block, and overflowing
        leaves are then split recursively with the same slice-and-mask
        machinery the incremental path uses — no per-series Python routing
        anywhere.
        """
        paa = self._prepare_build()
        positions = np.arange(self.store.count, dtype=np.int64)
        base_cards = tuple([2] * self.segments)
        for key, idx in group_root_words(paa):
            word = SaxWord(symbols=key, cardinalities=base_cards)
            child = IsaxNode(word=word, depth=1, is_leaf=True, parent=self.root)
            self.root.children[key] = child
            child.add_block(positions[idx], paa[idx])
            self._buffer.add(id(child), child.size)
            if child.size > self.leaf_capacity:
                self._split_leaf(child)
        self._buffer.flush_all()

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        if self._buffer is None or self._buffer.counter is not self.store.counter:
            # Rebuild the pool when the store was re-attached (persistence
            # reload, grown collection) so spill I/O lands on the live counter.
            self._buffer = self._make_buffer()
        self._route_block(start, self.summarizer.paa.transform_batch(block))

    def _route_block(self, start: int, paa: np.ndarray) -> None:
        """Insert summarized rows (store positions ``start``...) in one descent."""
        positions = np.arange(start, start + paa.shape[0], dtype=np.int64)

        def descend(node: IsaxNode, rows: np.ndarray):
            return child_groups(node, rows, paa, self.summarizer)

        def deliver(leaf: IsaxNode, rows: np.ndarray) -> None:
            leaf.add_block(positions[rows], paa[rows])
            self._buffer.add(id(leaf))
            if leaf.size > self.leaf_capacity:
                self._split_leaf(leaf)
            if self._built:
                # Rows arriving after the build settle at once — there is no
                # later flush_all, so only the row that overflows a leaf is
                # ever in flight (and spill accounting is the per-row one).
                self._buffer.flush_all()

        route_batch(self.root, paa.shape[0], self.leaf_capacity, descend, deliver)

    def _choose_split_segment(self, node: IsaxNode) -> int | None:
        """Pick the segment to promote: the one with the highest PAA spread that
        can still be refined (cardinality below the maximum)."""
        spread = node.paa_block().std(axis=0)
        order = np.argsort(-spread)
        for segment in order:
            if node.word.cardinalities[int(segment)] < self.cardinality:
                return int(segment)
        return None

    def _split_leaf(self, node: IsaxNode) -> None:
        """Split an overflowing leaf by promoting one segment.

        Works on the leaf's whole payload block: one vectorized symbolization
        of the split-segment column at doubled cardinality, one stable argsort
        to group positions per child word, then contiguous block adoption per
        child.  Both the bulk loader and the batch insert router funnel
        their splits through here.
        """
        segment = self._choose_split_segment(node)
        if segment is None:
            # Maximum resolution reached on every segment; the leaf overflows.
            return
        positions = node.position_block()
        paa = node.paa_block()
        node.is_leaf = False
        node.split_segment = segment
        node.clear_payload()
        self._buffer.flush(id(node))

        card = node.word.cardinalities[segment] * 2
        symbols = symbolize_batch(paa[:, segment], card)
        base_symbols = list(node.word.symbols)
        cards = list(node.word.cardinalities)
        cards[segment] = card
        cardinalities = tuple(cards)
        for symbol, idx in group_values(symbols):
            child_symbols = base_symbols.copy()
            child_symbols[segment] = int(symbol)
            word = SaxWord(symbols=tuple(child_symbols), cardinalities=cardinalities)
            key = word.symbols
            child = node.children.get(key)
            if child is None:
                child = IsaxNode(
                    word=word, depth=node.depth + 1, is_leaf=True, parent=node
                )
                node.children[key] = child
            child.add_block(positions[idx], paa[idx])
            self._buffer.add(id(child), int(idx.size))
        for child in node.children.values():
            if child.size > self.leaf_capacity:
                self._split_leaf(child)

    def _collect_footprint(self) -> None:
        leaves = []
        total = 1  # count the root
        for child in self.root.children.values():
            for node in child.iter_nodes():
                total += 1
                if node.is_leaf:
                    leaves.append(node)
        self.index_stats.total_nodes = total
        self.index_stats.leaf_nodes = len(leaves)
        self.index_stats.leaf_fill_factors = [
            leaf.size / self.leaf_capacity for leaf in leaves
        ]
        self.index_stats.leaf_depths = [leaf.depth for leaf in leaves]
        # summaries kept per series: one PAA vector + symbols per segment
        per_series = self.segments * (8 + 2)
        self.index_stats.memory_bytes = self.store.count * per_series + total * 64
        self.index_stats.disk_bytes = self.store.count * self.store.series_bytes

    # -- search ----------------------------------------------------------------------
    def _leaf_for(self, paa: np.ndarray) -> IsaxNode | None:
        return leaf_for(self.root, paa, self.summarizer)

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        paa = self.summarizer.paa.transform(query)
        leaf = self._leaf_for(paa)
        if leaf is not None:
            self._scan_leaves([leaf], query, answers, stats)
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        paa = self.summarizer.paa.transform(query)
        # Step 1: ng-approximate descent for the initial best-so-far.
        answers = self._make_answer_set(k)
        start_leaf = self._leaf_for(paa)
        if start_leaf is not None:
            self._scan_leaves([start_leaf], query, answers, stats)

        # Step 2: bounded best-first traversal ordered by MINDIST.  All
        # children of a node are scored in one array-native batch call against
        # the node's cached word matrices.
        counter = itertools.count()
        heap: list[tuple[float, int, IsaxNode]] = []

        def push_children(parent: IsaxNode, prune: bool = True) -> None:
            if not parent.children:
                return
            children, symbols, cardinalities = parent.child_arrays()
            bounds = self.summarizer.mindist_paa_to_words_batch(
                paa, symbols, cardinalities
            )
            stats.lower_bounds_computed += len(children)
            if prune:
                # Strict >: a node whose bound ties the k-th distance may still
                # hold an equal-distance answer that wins the positional
                # tie-break, so equality must not prune.
                threshold = answers.worst_squared_distance
                passing = np.flatnonzero(~(bounds * bounds > threshold))
                children = [children[i] for i in passing]
                bounds = bounds[passing]
            entries = zip(bounds.tolist(), counter, children)
            if heap:
                for entry in entries:
                    heapq.heappush(heap, entry)
            else:  # the root's fan-out: thousands of children, one heapify
                heap.extend(entries)
                heapq.heapify(heap)

        push_children(self.root, prune=False)
        self._best_first(heap, push_children, start_leaf, query, answers, stats)
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query: visit every node whose MINDIST is within the radius."""
        answers = RangeAnswerSet(radius=radius)
        paa = self.summarizer.paa.transform(query)

        def in_range_children(parent: IsaxNode) -> list[IsaxNode]:
            if not parent.children:
                return []
            children, symbols, cardinalities = parent.child_arrays()
            bounds = self.summarizer.mindist_paa_to_words_batch(
                paa, symbols, cardinalities
            )
            stats.lower_bounds_computed += len(children)
            return [c for c, b in zip(children, bounds) if b <= radius]

        # The radius is fixed, so the leaves to scan are known before any read.
        leaves = []
        stack = in_range_children(self.root)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
                continue
            stats.nodes_visited += 1
            stack.extend(in_range_children(node))
        self._scan_leaves(leaves, query, answers, stats)
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            segments=self.segments,
            cardinality=self.cardinality,
            leaf_capacity=self.leaf_capacity,
            build_mode=self.build_mode,
        )
        return info
