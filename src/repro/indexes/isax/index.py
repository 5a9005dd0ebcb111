"""iSAX2+ index: bulk-loaded iSAX tree with exact and ng-approximate search.

The index partitions the collection with the shared
:class:`~repro.indexes.isax.tree.IsaxTree` (root fan-out on the
cardinality-2 word, binary splits that double one segment's cardinality).
Construction is bulk-loaded, mirroring iSAX2+'s defining contribution: all
PAA summaries come from one streamed batch transform and the tree partitions
whole position blocks — no per-series Python inserts — while a simulated
:class:`~repro.core.buffer.BufferPool` accounts the spills a bounded build
buffer would cause.  Series added after the initial load are routed a batch
at a time (``extend``): one descent per batch, the tree that inserting them
one by one would leave.  Query answering follows the protocol in the paper:
an ng-approximate descent to a single leaf establishes the best-so-far, after
which an exact traversal visits only the nodes whose MINDIST lower bound is
below the best-so-far.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.buffer import BufferPool
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.sax import IsaxSummarizer, summarize_stream
from ..base import SearchMethod
from .node import IsaxNode
from .tree import IsaxTree

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
    """

    name = "isax2+"
    supports_approximate = True

    def __init__(
        self,
        store: SeriesStore,
        segments: int = 16,
        cardinality: int = 256,
        leaf_capacity: int = 100,
        buffer_capacity: int | None = None,
    ) -> None:
        super().__init__(store)
        segments = min(segments, store.length)
        self.summarizer = IsaxSummarizer(store.length, segments, cardinality)
        self.segments = segments
        self.cardinality = cardinality
        self.leaf_capacity = leaf_capacity
        self.buffer_capacity = buffer_capacity
        self.tree = IsaxTree(self.summarizer, leaf_capacity)
        self._buffer: BufferPool | None = None

    # -- construction -------------------------------------------------------------
    def _build(self) -> None:
        # One streamed sequential pass (accounted exactly like a scan()): only
        # one raw chunk is resident at a time, and the build keeps the compact
        # (count, segments) PAA matrix instead of the float64 collection.
        paa = summarize_stream(self.summarizer, self.store.scan_blocks(), self.store.count)
        self._buffer = self.tree.buffer = BufferPool.for_store(
            self.store, self.buffer_capacity
        )
        self.tree.bulk_insert(paa)

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        self._buffer = self.tree.buffer = BufferPool.for_store(
            self.store, self.buffer_capacity, self._buffer
        )
        self.tree.insert_block(start, self.summarizer.paa.transform_batch(block))

    def _collect_footprint(self) -> None:
        total = self.tree.record_shape(self.index_stats)
        # summaries kept per series: one PAA vector + symbols per segment
        per_series = self.segments * (8 + 2)
        self.index_stats.memory_bytes = self.store.count * per_series + total * 64
        self.index_stats.disk_bytes = self.store.count * self.store.series_bytes

    # -- search ----------------------------------------------------------------------
    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        paa = self.summarizer.paa.transform(query)
        leaf = self.tree.leaf_for(paa)
        if leaf is not None:
            self._scan_leaves([leaf], query, answers, stats)
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        paa = self.summarizer.paa.transform(query)
        # Step 1: ng-approximate descent for the initial best-so-far.
        answers = self._make_answer_set(k)
        start_leaf = self.tree.leaf_for(paa)
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

        push_children(self.tree.root, prune=False)
        self._best_first(heap, push_children, start_leaf, query, answers, stats)
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query: visit every node whose MINDIST is within the radius."""
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

        stack = in_range_children(self.tree.root)
        return self._range_leaves(stack, in_range_children, query, radius, stats)

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            segments=self.segments,
            cardinality=self.cardinality,
            leaf_capacity=self.leaf_capacity,
        )
        return info
