"""DSTree: a data-adaptive and dynamic segmentation index (EAPCA-based).

Every node keeps an EAPCA synopsis (per-segment ranges of means and standard
deviations) over its own segmentation.  Construction is bulk-loaded: the
whole collection lands in the root and overflowing nodes are split
recursively, with candidate split policies — horizontal splits on a
segment's mean or standard deviation, and vertical splits that first refine
the segmentation — scored from vectorized per-segment statistics over the full
candidate block; the policy with the best expected separation wins (the
heuristic role played by the upper/lower bound based quality measure in the
original paper).  Series added after the initial load are routed a batch at
a time (``extend``): one descent per batch, the tree that inserting them one
by one would leave.  Query answering uses the node synopsis
lower bound to prune subtrees, giving the paper's observed behaviour:
expensive (CPU-heavy) index construction, very fast queries.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.buffer import BufferPool
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.eapca import (
    batch_segment_statistics,
    query_segment_stats,
    synopses_lower_bounds,
    synopsis_from_statistics,
    synopsis_from_stream,
)
from ..base import SearchMethod, route_batch
from .node import DsTreeNode, SplitPolicy

__all__ = ["DsTreeIndex"]


class DsTreeIndex(SearchMethod):
    """DSTree index.

    Parameters
    ----------
    store:
        The raw-data store.
    initial_segments:
        Number of segments of the root segmentation.
    leaf_capacity:
        Maximum series per leaf.
    max_segments:
        Cap on how far vertical splits may refine the segmentation.
    buffer_capacity:
        Optional in-memory buffer budget (in series) during construction.
    build_chunk_rows:
        Rows per streamed chunk for the build passes (``None`` = the store's
        default); never changes the built tree.
    """

    name = "dstree"
    supports_approximate = True

    def __init__(
        self,
        store: SeriesStore,
        initial_segments: int = 4,
        leaf_capacity: int = 100,
        max_segments: int | None = None,
        buffer_capacity: int | None = None,
        build_chunk_rows: int | None = None,
    ) -> None:
        super().__init__(store, build_chunk_rows=build_chunk_rows)
        if leaf_capacity <= 0:
            raise ValueError("leaf_capacity must be positive")
        initial_segments = max(1, min(initial_segments, store.length))
        self.leaf_capacity = leaf_capacity
        self.max_segments = max_segments or min(store.length, 4 * initial_segments)
        self.buffer_capacity = buffer_capacity
        boundaries = self._even_boundaries(store.length, initial_segments)
        self.root = DsTreeNode(boundaries=boundaries, depth=0, is_leaf=True)
        self._buffer: BufferPool | None = None

    @staticmethod
    def _even_boundaries(length: int, segments: int) -> np.ndarray:
        base = length // segments
        remainder = length % segments
        widths = np.full(segments, base, dtype=np.int64)
        widths[:remainder] += 1
        boundaries = np.zeros(segments + 1, dtype=np.int64)
        boundaries[1:] = np.cumsum(widths)
        return boundaries

    # -- construction ----------------------------------------------------------------
    def _build(self) -> None:
        """Array-native construction: the whole collection lands in the root,
        then overflowing nodes split recursively on vectorized block
        statistics — no per-series routing.

        All raw-data access streams in chunks: the root synopsis folds one
        accounted sequential pass (exactly a scan()'s counters), and every
        split re-reads only its own node's rows through the unaccounted
        chunked peek — so peak residency is one chunk plus one node's compact
        per-row statistics, never the float64 collection.
        """
        self._buffer = BufferPool.for_store(self.store, self.buffer_capacity)
        root = self.root
        root.positions.extend(np.arange(self.store.count, dtype=np.int64))
        root.synopsis = synopsis_from_stream(
            self.store.scan_blocks(chunk_rows=self.build_chunk_rows), root.boundaries
        )
        self._buffer.add(id(root), root.size)
        if root.size > self.leaf_capacity:
            self._split_leaf(root)
        self._buffer.flush_all()

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        """Insert ``block`` (store positions ``start``...) in one descent.

        The block's per-row statistics are computed once per distinct segment
        the descent meets and assembled once per distinct segmentation; every
        node on the way folds its group's ranges into its synopsis once and
        splits the group on its policy column with one mask.
        """
        self._buffer = BufferPool.for_store(self.store, self.buffer_capacity, self._buffer)
        positions = np.arange(start, start + block.shape[0], dtype=np.int64)
        cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        spans: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        def statistics(boundaries: np.ndarray):
            key = boundaries.tobytes()
            if key not in cache:
                # Segmentations refine one another a segment at a time, so
                # most of a new one's columns were computed for an earlier one.
                edges = boundaries.tolist()
                columns = []
                for span in zip(edges, edges[1:]):
                    if span not in spans:
                        spans[span] = batch_segment_statistics(block, span)
                    columns.append(spans[span])
                cache[key] = tuple(np.hstack(part) for part in zip(*columns))
            return cache[key]

        def fold(node: DsTreeNode, rows: np.ndarray) -> None:
            means, stds = (part[rows] for part in statistics(node.boundaries))
            if node.synopsis is None:
                node.synopsis = synopsis_from_statistics(node.boundaries, means, stds)
            else:
                node.synopsis.fold(means, stds)

        def descend(node: DsTreeNode, rows: np.ndarray):
            fold(node, rows)
            # The child synopses about to widen are stacked inside this
            # node's cached bound matrices; queries interleaved with inserts
            # must not prune against the stale (tighter) ranges.
            node._child_bound_cache = None
            policy = node.policy
            means, stds = statistics(node.left.boundaries)
            values = (means if policy.kind == "mean" else stds)[rows, policy.segment]
            left = values <= policy.threshold
            groups = ((node.left, rows[left]), (node.right, rows[~left]))
            return [group for group in groups if group[1].size]

        def deliver(leaf: DsTreeNode, rows: np.ndarray) -> None:
            fold(leaf, rows)
            leaf.positions.extend(positions[rows])
            self._buffer.add(id(leaf))
            if leaf.size > self.leaf_capacity:
                self._split_leaf(leaf)
            # Live rows settle at once — there is no later flush_all, so only
            # the row that overflows a leaf is ever in flight (and spill
            # accounting is the per-row one).
            self._buffer.flush_all()

        route_batch(self.root, block.shape[0], self.leaf_capacity, descend, deliver)

    # -- splitting ----------------------------------------------------------------------
    def _vertical_candidates(self, boundaries: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Segments eligible for a vertical split, with their refined boundaries."""
        segments = len(boundaries) - 1
        out = []
        for segment in range(segments):
            width = boundaries[segment + 1] - boundaries[segment]
            if width >= 2 and segments < self.max_segments:
                out.append((segment, self._refine_boundaries(boundaries, segment)))
        return out

    def _node_blocks(self, positions: np.ndarray):
        """The rows of one node as a chunked ``(slice, float64 block)`` stream."""
        return self.store.peek_chunks(positions, chunk_rows=self.build_chunk_rows)

    def _node_statistics(
        self, boundaries: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray, np.ndarray]]]:
        """Per-row split statistics of one node, streamed over its rows.

        Returns ``(means, stds, verticals)``: the ``(size, segments)``
        mean/std columns over ``boundaries`` plus, per vertically-splittable
        segment, ``(segment, refined_boundaries, left_half_means)``.  These
        compact columns (a few float64 per row) are everything split scoring
        and redistribution need — the raw rows are consumed one chunk at a
        time and never held, and every value matches the historical
        whole-block computation bitwise because the statistics are row-local.
        """
        segments = len(boundaries) - 1
        count = positions.size
        means = np.empty((count, segments), dtype=np.float64)
        stds = np.empty((count, segments), dtype=np.float64)
        verticals = [
            (segment, refined, np.empty(count, dtype=np.float64))
            for segment, refined in self._vertical_candidates(boundaries)
        ]
        for rows, block in self._node_blocks(positions):
            means[rows], stds[rows] = batch_segment_statistics(block, boundaries)
            for segment, refined, left_means in verticals:
                left_means[rows] = block[
                    :, refined[segment] : refined[segment + 1]
                ].mean(axis=1)
        return means, stds, verticals

    def _candidate_policies(
        self, boundaries: np.ndarray, means: np.ndarray, stds: np.ndarray, verticals
    ) -> list[tuple[SplitPolicy, np.ndarray]]:
        """Candidate split policies with their per-series feature vectors.

        Every policy carries the (already streamed) feature column it splits
        on, so scoring and redistribution reuse it instead of re-reading the
        raw data per policy.
        """
        policies: list[tuple[SplitPolicy, np.ndarray]] = []
        vertical_by_segment = {
            segment: (refined, left_means) for segment, refined, left_means in verticals
        }
        for segment in range(len(boundaries) - 1):
            seg_means = means[:, segment]
            seg_stds = stds[:, segment]
            policies.append(
                (
                    SplitPolicy(
                        kind="mean",
                        segment=segment,
                        threshold=float(np.median(seg_means)),
                    ),
                    seg_means,
                )
            )
            policies.append(
                (
                    SplitPolicy(
                        kind="std",
                        segment=segment,
                        threshold=float(np.median(seg_stds)),
                    ),
                    seg_stds,
                )
            )
            # Vertical split: subdivide this segment in half if allowed.
            if segment in vertical_by_segment:
                refined, left_means = vertical_by_segment[segment]
                policies.append(
                    (
                        SplitPolicy(
                            kind="mean",
                            segment=segment,
                            threshold=float(np.median(left_means)),
                            vertical=True,
                            child_boundaries=refined,
                        ),
                        left_means,
                    )
                )
        return policies

    @staticmethod
    def _refine_boundaries(boundaries: np.ndarray, segment: int) -> np.ndarray:
        start = boundaries[segment]
        stop = boundaries[segment + 1]
        middle = start + (stop - start) // 2
        return np.concatenate(
            [boundaries[: segment + 1], [middle], boundaries[segment + 1 :]]
        ).astype(np.int64)

    @staticmethod
    def _policy_quality(values: np.ndarray, threshold: float) -> float:
        """Quality of a split: balance of the partition times the value spread.

        This plays the role of the QoS measure (derived from upper/lower
        bounds) used by the original DSTree to rank candidate splits: a good
        split separates the series into two well-populated groups whose
        feature values are far apart.
        """
        left_count = int(np.count_nonzero(values <= threshold))
        right_count = values.shape[0] - left_count
        if left_count == 0 or right_count == 0:
            return -np.inf
        balance = min(left_count, right_count) / values.shape[0]
        spread = float(values.std())
        return balance * (1.0 + spread)

    def _split_leaf(self, node: DsTreeNode) -> None:
        """Split an overflowing node on its best candidate policy.

        Works on the node's whole position block, streamed: policies are
        scored from per-segment statistics accumulated one chunk at a time,
        and the winning policy's feature column partitions the block with one
        mask — both children adopt their positions contiguously and receive
        synopses assembled from the already-streamed columns (horizontal
        splits) or from one more chunked pass at the refined segmentation
        (vertical splits).  The raw rows are never held whole; the bulk
        loader and the batch insert router both funnel splits through
        here, and the result is bitwise identical to the historical
        materialize-the-block path.
        """
        positions = node.position_block()
        means, stds, verticals = self._node_statistics(node.boundaries, positions)
        candidates = self._candidate_policies(node.boundaries, means, stds, verticals)
        scored = [
            (self._policy_quality(values, policy.threshold), i, policy, values)
            for i, (policy, values) in enumerate(candidates)
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        best_quality, _, best, best_values = scored[0]
        if not np.isfinite(best_quality):
            # Every candidate split puts all series on one side; keep the leaf.
            return

        node.is_leaf = False
        node.policy = best
        child_boundaries = best.child_boundaries if best.vertical else node.boundaries
        node.left = DsTreeNode(
            boundaries=child_boundaries, depth=node.depth + 1, is_leaf=True, parent=node
        )
        node.right = DsTreeNode(
            boundaries=child_boundaries, depth=node.depth + 1, is_leaf=True, parent=node
        )
        node.clear_payload()
        self._buffer.flush(id(node))
        left_mask = best_values <= best.threshold
        # After the partition mask only the horizontal case still needs the
        # stat columns (the children inherit the segmentation); dropping the
        # rest here keeps at most one node's statistics (plus one streamed
        # chunk) resident through the synopsis passes and the recursion below.
        stat_columns = None if best.vertical else (means, stds)
        del means, stds, verticals, candidates, scored, best_values
        for child, mask in ((node.left, left_mask), (node.right, ~left_mask)):
            child.positions.extend(positions[mask])
            if stat_columns is None:
                # The children live on a refined segmentation the parent's
                # stat columns don't cover; fold their ranges in one more
                # chunked pass over just this child's rows.
                child.synopsis = synopsis_from_stream(
                    self._node_blocks(child.position_block()), child.boundaries
                )
            else:
                child.synopsis = synopsis_from_statistics(
                    child.boundaries, stat_columns[0][mask], stat_columns[1][mask]
                )
            self._buffer.add(id(child), child.size)
        del stat_columns, left_mask
        for child in (node.left, node.right):
            if child.size > self.leaf_capacity:
                self._split_leaf(child)

    def _collect_footprint(self) -> None:
        leaves = self.root.leaves()
        self.index_stats.total_nodes = sum(1 for _ in self.root.iter_nodes())
        self.index_stats.leaf_nodes = len(leaves)
        self.index_stats.leaf_fill_factors = [
            leaf.size / self.leaf_capacity for leaf in leaves
        ]
        self.index_stats.leaf_depths = [leaf.depth for leaf in leaves]
        per_node = 256  # synopsis + policy bookkeeping
        self.index_stats.memory_bytes = self.index_stats.total_nodes * per_node
        self.index_stats.disk_bytes = self.store.count * self.store.series_bytes

    # -- search -------------------------------------------------------------------------
    def _leaf_for(self, query: np.ndarray) -> DsTreeNode:
        node = self.root
        while not node.is_leaf:
            node = node.route(query)
        return node

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        self._scan_leaves([self._leaf_for(query)], query, answers, stats)
        return answers

    def _query_stats_cache(self, query: np.ndarray):
        """Per-query cache of segment (means, stds, widths) by segmentation.

        A DSTree traversal revisits the same few segmentations (vertical
        splits only refine a handful of them), so the query-side statistics
        feeding the batch lower bound are computed once per segmentation.
        """
        cache: dict[bytes, tuple] = {}

        def stats_for(boundaries: np.ndarray) -> tuple:
            key = boundaries.tobytes()
            out = cache.get(key)
            if out is None:
                out = query_segment_stats(query, boundaries)
                cache[key] = out
            return out

        return stats_for

    def _children_bounds(
        self, node: DsTreeNode, stats_for
    ) -> list[tuple[DsTreeNode, float]]:
        """Lower bounds for a node's children via one batch synopsis call."""
        children, stacked = node.child_bound_arrays()
        out = []
        if children:
            means, stds, widths = stats_for(children[0].boundaries)
            bounds = synopses_lower_bounds(means, stds, widths, stacked)
            out.extend((child, float(b)) for child, b in zip(children, bounds))
        # Children without a synopsis cannot be pruned (bound 0).
        for child in (node.left, node.right):
            if child is not None and child.synopsis is None:
                out.append((child, 0.0))
        return out

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        answers = self._make_answer_set(k)
        start_leaf = self._leaf_for(query)
        self._scan_leaves([start_leaf], query, answers, stats)

        counter = itertools.count()
        heap: list[tuple[float, int, DsTreeNode]] = []
        stats_for = self._query_stats_cache(query)

        def push(node: DsTreeNode, bound: float) -> None:
            stats.lower_bounds_computed += 1
            # <=: equality must not prune (positional tie-break on equal distances).
            if bound * bound <= answers.worst_squared_distance:
                heapq.heappush(heap, (bound, next(counter), node))

        if self.root.synopsis is None:
            push(self.root, 0.0)
        else:
            push(self.root, self.root.synopsis.lower_bound(query))

        def expand(node: DsTreeNode) -> None:
            for child, child_bound in self._children_bounds(node, stats_for):
                push(child, child_bound)

        self._best_first(heap, expand, start_leaf, query, answers, stats)
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query: visit every subtree whose synopsis bound is within range."""
        answers = RangeAnswerSet(radius=radius)
        stats_for = self._query_stats_cache(query)
        root_bound = 0.0 if self.root.synopsis is None else self.root.synopsis.lower_bound(query)
        stats.lower_bounds_computed += 1
        if root_bound > radius:
            return answers
        # The radius is fixed, so the leaves to scan are known before any read.
        leaves = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
                continue
            stats.nodes_visited += 1
            for child, bound in self._children_bounds(node, stats_for):
                stats.lower_bounds_computed += 1
                if bound <= radius:
                    stack.append(child)
        self._scan_leaves(leaves, query, answers, stats)
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            leaf_capacity=self.leaf_capacity,
            max_segments=self.max_segments,
            initial_segments=len(self.root.boundaries) - 1,
        )
        return info
