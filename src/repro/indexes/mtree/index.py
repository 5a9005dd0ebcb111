"""M-tree: a metric access method over raw series.

The M-tree partitions objects into nested hyper-spheres.  Internal nodes store
*routing objects* with a covering radius; leaves store the data objects and
their distance to the parent routing object.  Query answering prunes subtrees
with the triangle inequality: a subtree rooted at routing object ``r`` with
radius ``rad`` cannot contain anything closer to the query than
``d(q, r) - rad``.  The tree works directly in the original high-dimensional
space, which is why (as the paper observes) it struggles at data series scale.

Only routing objects are held in memory; leaves keep positions, and their
series are read from the store — whole, through the shared best-first loop
(:meth:`~repro.indexes.base.SearchMethod._best_first`) and range loop, as on
every other tree.  A leaf split re-reads its rows unaccounted, as DSTree's
does.  Rows are inserted one at a time in arrival order, by the build and by
``extend()`` alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.distance import euclidean
from ...core.queries import KnnQuery
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ..base import SearchMethod, frontier

__all__ = ["MTreeIndex", "MTreeNode"]


@dataclass
class _Entry:
    """One entry of an M-tree node: a data object (leaf), whose series stays
    in the store, or a routing object, which owns a float64 copy of its own."""

    position: int
    vector: np.ndarray | None = None
    distance_to_parent: float = 0.0
    radius: float = 0.0
    subtree: "MTreeNode | None" = None


@dataclass
class MTreeNode:
    """One M-tree node."""

    is_leaf: bool = True
    entries: list = field(default_factory=list)
    parent: "MTreeNode | None" = None
    parent_entry: _Entry | None = None

    @property
    def size(self) -> int:
        return len(self.entries)

    def iter_nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(e.subtree for e in node.entries if e.subtree is not None)

    def leaves(self):
        return [node for node in self.iter_nodes() if node.is_leaf]

    def position_block(self) -> np.ndarray:
        """The leaf's positions as one int64 vector."""
        return np.fromiter((e.position for e in self.entries), np.int64, len(self.entries))


class MTreeIndex(SearchMethod):
    """M-tree metric index.

    Parameters
    ----------
    store:
        The raw-data store.
    node_capacity:
        Maximum entries per node (the paper's tuned leaf size for the M-tree is
        very small — 1 at 50GB scale — reflecting how poorly large metric leaves
        behave for data series; the default here is a small value too).
    """

    name = "m-tree"
    supports_approximate = True

    def __init__(self, store: SeriesStore, node_capacity: int = 16) -> None:
        super().__init__(store)
        if node_capacity < 2:
            raise ValueError("node_capacity must be at least 2")
        self.node_capacity = node_capacity
        self.root = MTreeNode(is_leaf=True)

    @property
    def leaf_capacity(self) -> int:
        """Entries per leaf: the node capacity (the unit leaves are read in)."""
        return self.node_capacity

    # -- construction -------------------------------------------------------------
    def _build(self) -> None:
        for rows, block in self.store.scan_blocks():
            self._insert_block(rows.start, block)

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        for offset, vector in enumerate(block):
            self._insert(start + offset, vector)

    def _insert(self, position: int, vector: np.ndarray) -> None:
        node = self._choose_leaf(self.root, vector)
        parent_entry = node.parent_entry
        dist = (
            euclidean(vector, parent_entry.vector) if parent_entry is not None else 0.0
        )
        node.entries.append(_Entry(position=position, distance_to_parent=dist))
        self._propagate_radius(node, vector)
        if node.size > self.node_capacity:
            self._split(node)

    def _choose_leaf(self, node: MTreeNode, vector: np.ndarray) -> MTreeNode:
        while not node.is_leaf:
            best = None
            best_key = None
            for entry in node.entries:
                dist = euclidean(vector, entry.vector)
                # Prefer subtrees that need no radius enlargement, then closest.
                enlargement = max(0.0, dist - entry.radius)
                key = (enlargement, dist)
                if best_key is None or key < best_key:
                    best_key = key
                    best = entry
            node = best.subtree
        return node

    def _propagate_radius(self, node: MTreeNode, vector: np.ndarray) -> None:
        """Grow covering radii up the tree to keep them valid after an insert."""
        current = node
        while current.parent_entry is not None:
            entry = current.parent_entry
            dist = euclidean(vector, entry.vector)
            if dist > entry.radius:
                entry.radius = dist
            current = current.parent
            if current is None:
                break

    def _leaf_rows(self, node: MTreeNode) -> np.ndarray:
        """A leaf's series, re-read through the unaccounted (verified) peek."""
        positions = node.position_block()
        rows = np.empty((positions.size, self.store.length), dtype=np.float64)
        for part, block in self.store.peek_chunks(positions):
            rows[part] = block
        return rows

    def _split(self, node: MTreeNode) -> None:
        entries = node.entries
        vectors = self._leaf_rows(node) if node.is_leaf else [e.vector for e in entries]
        # Promotion: pick the two entries farthest apart (mM_RAD-style heuristic
        # on a sample to keep construction tractable).
        sample = range(0, len(entries), 1 if len(entries) <= 32 else len(entries) // 32)
        best_pair = None
        best_distance = -1.0
        for a, i in enumerate(sample):
            for j in sample[a + 1 :]:
                dist = euclidean(vectors[i], vectors[j])
                if dist > best_distance:
                    best_distance = dist
                    best_pair = (i, j)
        first, second = (vectors[i] for i in best_pair)

        left = MTreeNode(is_leaf=node.is_leaf)
        right = MTreeNode(is_leaf=node.is_leaf)
        # Routing objects own their vectors: a view would pin the re-read rows.
        left_entry = _Entry(entries[best_pair[0]].position, np.array(first), subtree=left)
        right_entry = _Entry(entries[best_pair[1]].position, np.array(second), subtree=right)

        # Generalized hyperplane partition, ties to the left.  Promoted objects
        # that coincide make every entry a tie: the node is then cut in half,
        # as a split that left one side empty would leave an empty node.
        ties_left = len(entries) if best_distance > 0.0 else len(entries) // 2
        for index, (entry, vector) in enumerate(zip(entries, vectors)):
            d_left = euclidean(vector, first)
            d_right = euclidean(vector, second)
            if d_left < d_right or (d_left == d_right and index < ties_left):
                target, target_entry, dist = left, left_entry, d_left
            else:
                target, target_entry, dist = right, right_entry, d_right
            entry.distance_to_parent = dist
            target.entries.append(entry)
            target_entry.radius = max(target_entry.radius, dist + entry.radius)
            if not node.is_leaf and entry.subtree is not None:
                entry.subtree.parent = target
                entry.subtree.parent_entry = entry

        for child, child_entry in ((left, left_entry), (right, right_entry)):
            child.parent_entry = child_entry
            for entry in child.entries:
                if entry.subtree is not None:
                    entry.subtree.parent = child

        parent = node.parent
        if parent is None:
            new_root = MTreeNode(is_leaf=False)
            new_root.entries = [left_entry, right_entry]
            left.parent = new_root
            right.parent = new_root
            left_entry.distance_to_parent = 0.0
            right_entry.distance_to_parent = 0.0
            self.root = new_root
        else:
            parent.entries.remove(node.parent_entry)
            parent.entries.extend([left_entry, right_entry])
            left.parent = parent
            right.parent = parent
            grand = parent.parent_entry
            if grand is not None:
                left_entry.distance_to_parent = euclidean(left_entry.vector, grand.vector)
                right_entry.distance_to_parent = euclidean(right_entry.vector, grand.vector)
                grand.radius = max(
                    grand.radius,
                    left_entry.distance_to_parent + left_entry.radius,
                    right_entry.distance_to_parent + right_entry.radius,
                )
            if parent.size > self.node_capacity:
                self._split(parent)

    def _collect_footprint(self) -> None:
        leaves = self.root.leaves()
        self.index_stats.total_nodes = sum(1 for _ in self.root.iter_nodes())
        self.index_stats.leaf_nodes = len(leaves)
        self.index_stats.leaf_fill_factors = [
            leaf.size / self.node_capacity for leaf in leaves
        ]
        depths = []
        for leaf in leaves:
            depth = 0
            node = leaf
            while node.parent is not None:
                depth += 1
                node = node.parent
            depths.append(depth)
        self.index_stats.leaf_depths = depths
        # Routing objects (with their vectors) stay in memory; every data
        # object is one position plus its parent distance, its series on disk.
        routing = sum(node.size for node in self.root.iter_nodes() if not node.is_leaf)
        self.index_stats.memory_bytes = (
            routing * self.store.length * 8 + (routing + self.store.count) * 32
        )
        self.index_stats.disk_bytes = self.store.count * self.store.series_bytes

    # -- search ---------------------------------------------------------------------
    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        node = self.root
        while not node.is_leaf:
            best = min(node.entries, key=lambda e: euclidean(query, e.vector))
            stats.nodes_visited += 1
            node = best.subtree
        self._scan_leaves([node], query, answers, stats)
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        return self._knn_bounded(query, k, stats, epsilon=0.0)

    def knn_epsilon(self, query: KnnQuery, epsilon: float = 0.0):
        """Epsilon-approximate k-NN search (Definition 5 in the paper).

        Every returned distance is guaranteed to be at most ``(1 + epsilon)``
        times the exact k-th nearest-neighbor distance.  With ``epsilon = 0``
        this is the exact algorithm; larger values prune more aggressively
        (subtrees are discarded when even an ``epsilon``-deflated best-so-far
        cannot be improved).  The M-tree is the one method in the paper's
        Table 1 offering this guarantee natively.
        """
        self._require_built()
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        before = self.store.counter_snapshot()
        stats = QueryStats(dataset_size=self.store.count)
        start = time.perf_counter()
        answers = self._knn_bounded(
            np.asarray(query.series, dtype=np.float64), query.k, stats, epsilon
        )
        stats.cpu_seconds = time.perf_counter() - start
        self._charge_delta(stats, self.store.since(before))
        return self._package_result(answers, stats)

    def _knn_bounded(
        self, query: np.ndarray, k: int, stats: QueryStats, epsilon: float
    ) -> KnnAnswerSet:
        """Best-first search whose heap keys are the subtree bounds scaled by
        ``1 + epsilon`` (exactly 1.0, so the exact search, at ``epsilon = 0``)."""
        answers = self._make_answer_set(k)
        scale = 1.0 + epsilon
        heap, push = frontier()
        push(0.0, self.root)

        def expand(node: MTreeNode) -> None:
            for entry in node.entries:
                stats.lower_bounds_computed += 1
                key = max(0.0, euclidean(query, entry.vector) - entry.radius) * scale
                # <=: equality must not prune (positional tie-break).
                if key * key <= answers.worst_squared_distance:
                    push(key, entry.subtree)

        self._best_first(heap, expand, None, query, answers, stats)
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query using the covering radii (exact, no false dismissals)."""

        def in_range(node: MTreeNode) -> list[MTreeNode]:
            stats.lower_bounds_computed += node.size
            return [
                entry.subtree
                for entry in node.entries
                if euclidean(query, entry.vector) - entry.radius <= radius
            ]

        return self._range_leaves([self.root], in_range, query, radius, stats)

    def describe(self) -> dict:
        info = super().describe()
        info["node_capacity"] = self.node_capacity
        return info
