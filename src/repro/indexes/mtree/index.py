"""M-tree: a metric access method over raw series.

The M-tree partitions objects into nested hyper-spheres.  Internal nodes store
*routing objects* with a covering radius; leaves store the data objects and
their distance to the parent routing object.  Query answering prunes subtrees
with the triangle inequality: a subtree rooted at routing object ``r`` with
radius ``rad`` cannot contain anything closer to the query than
``d(q, r) - rad``.  The tree works directly in the original high-dimensional
space, which is why (as the paper observes) it struggles at data series scale.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.distance import euclidean
from ...core.queries import KnnQuery
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ..base import SearchMethod

__all__ = ["MTreeIndex", "MTreeNode"]


@dataclass
class _Entry:
    """One entry of an M-tree node (data object or routing object)."""

    position: int
    vector: np.ndarray
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
        self._distance_computations = 0

    # -- construction -------------------------------------------------------------
    def _build(self) -> None:
        data = self.store.scan()
        for position in range(self.store.count):
            self._insert(position, data[position].astype(np.float64))

    def _insert(self, position: int, vector: np.ndarray) -> None:
        node = self._choose_leaf(self.root, vector)
        parent_entry = node.parent_entry
        dist = (
            euclidean(vector, parent_entry.vector) if parent_entry is not None else 0.0
        )
        node.entries.append(
            _Entry(position=position, vector=vector, distance_to_parent=dist)
        )
        self._propagate_radius(node, vector)
        if node.size > self.node_capacity:
            self._split(node)

    def _choose_leaf(self, node: MTreeNode, vector: np.ndarray) -> MTreeNode:
        while not node.is_leaf:
            best = None
            best_key = None
            for entry in node.entries:
                dist = euclidean(vector, entry.vector)
                self._distance_computations += 1
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

    def _split(self, node: MTreeNode) -> None:
        entries = node.entries
        # Promotion: pick the two entries farthest apart (mM_RAD-style heuristic
        # on a sample to keep construction tractable).
        sample = entries if len(entries) <= 32 else entries[:: max(1, len(entries) // 32)]
        best_pair = None
        best_distance = -1.0
        for i in range(len(sample)):
            for j in range(i + 1, len(sample)):
                dist = euclidean(sample[i].vector, sample[j].vector)
                self._distance_computations += 1
                if dist > best_distance:
                    best_distance = dist
                    best_pair = (sample[i], sample[j])
        first, second = best_pair

        left = MTreeNode(is_leaf=node.is_leaf)
        right = MTreeNode(is_leaf=node.is_leaf)
        left_entry = _Entry(position=first.position, vector=first.vector, subtree=left)
        right_entry = _Entry(position=second.position, vector=second.vector, subtree=right)

        # Generalized hyperplane partition.
        for entry in entries:
            d_left = euclidean(entry.vector, first.vector)
            d_right = euclidean(entry.vector, second.vector)
            self._distance_computations += 2
            if d_left <= d_right:
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
        # The M-tree stores full vectors in every node: memory-resident index.
        vector_bytes = self.store.length * 8
        entry_count = sum(node.size for node in self.root.iter_nodes())
        self.index_stats.memory_bytes = entry_count * (vector_bytes + 32)
        self.index_stats.disk_bytes = 0

    # -- search ---------------------------------------------------------------------
    def _scan_leaf(
        self,
        node: MTreeNode,
        query: np.ndarray,
        answers: KnnAnswerSet,
        stats: QueryStats,
        query_parent_distance: float | None = None,
    ) -> None:
        positions = [entry.position for entry in node.entries]
        if not positions:
            return
        self.store.read_block(np.asarray(positions))
        stats.leaves_visited += 1
        stats.nodes_visited += 1
        for entry in node.entries:
            if query_parent_distance is not None and answers.is_full:
                # Triangle-inequality pre-filter using stored parent distances.
                gap = abs(query_parent_distance - entry.distance_to_parent)
                if gap * gap > answers.worst_squared_distance:
                    continue
            diff = query - entry.vector
            distance = float(np.dot(diff, diff))
            stats.series_examined += 1
            answers.offer(entry.position, distance)

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        node = self.root
        while not node.is_leaf:
            best = min(node.entries, key=lambda e: euclidean(query, e.vector))
            stats.nodes_visited += 1
            node = best.subtree
        self._scan_leaf(node, query, answers, stats)
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
        answers = self._make_answer_set(k)
        inflation = (1.0 + epsilon) ** 2
        counter = itertools.count()
        heap: list[tuple[float, int, MTreeNode, float]] = []
        heapq.heappush(heap, (0.0, next(counter), self.root, 0.0))
        while heap:
            bound, _, node, parent_distance = heapq.heappop(heap)
            # Strict >: with epsilon = 0 this is the exact algorithm, so
            # equality must not prune (positional tie-break).
            if bound * bound * inflation > answers.worst_squared_distance:
                break
            if node.is_leaf:
                self._scan_leaf(node, query, answers, stats, parent_distance)
                continue
            stats.nodes_visited += 1
            for entry in node.entries:
                dist = euclidean(query, entry.vector)
                stats.lower_bounds_computed += 1
                lower = max(0.0, dist - entry.radius)
                if lower * lower * inflation <= answers.worst_squared_distance:
                    heapq.heappush(heap, (lower, next(counter), entry.subtree, dist))
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query using the covering radii (exact, no false dismissals)."""
        answers = RangeAnswerSet(radius=radius)
        stack = [(self.root, None)]
        while stack:
            node, parent_distance = stack.pop()
            if node.is_leaf:
                positions = [entry.position for entry in node.entries]
                if positions:
                    self.store.read_block(np.asarray(positions))
                    stats.leaves_visited += 1
                for entry in node.entries:
                    diff = query - entry.vector
                    sq = float(np.dot(diff, diff))
                    stats.series_examined += 1
                    answers.offer(entry.position, sq)
                continue
            stats.nodes_visited += 1
            for entry in node.entries:
                dist = euclidean(query, entry.vector)
                stats.lower_bounds_computed += 1
                if dist - entry.radius <= radius:
                    stack.append((entry.subtree, dist))
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info["node_capacity"] = self.node_capacity
        return info
