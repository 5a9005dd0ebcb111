"""R*-tree over PAA summaries.

The paper evaluates the R*-tree with PAA summaries added: every series becomes
a point in the (low-dimensional) PAA space, leaves group points into minimum
bounding rectangles (MBRs), and internal nodes keep the MBR of their children.
The classic R*-tree insertion heuristics are used (choose-subtree by minimum
overlap/area enlargement, split by the topological margin/overlap criteria,
forced reinsertion on the first overflow of a level); choose-subtree scores
all children at once on their stacked ``(children, segments)`` bounds.  Rows
are inserted one at a time in arrival order, by the build and by ``extend()``
alike.  Query answering is best-first on the PAA-space MINDIST (scaled by the
segment width so it lower bounds the true Euclidean distance), through the
shared best-first and range loops, with leaves refined on the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.paa import PaaSummarizer
from ..base import SearchMethod, frontier

__all__ = ["RStarTreeIndex", "RStarNode"]


@dataclass
class RStarNode:
    """One R*-tree node: an MBR over PAA points or child MBRs."""

    is_leaf: bool = True
    #: leaf payload: series positions and their PAA points.
    positions: list[int] = field(default_factory=list)
    points: list[np.ndarray] = field(default_factory=list)
    #: internal payload.
    children: list["RStarNode"] = field(default_factory=list)
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    parent: "RStarNode | None" = None
    level: int = 0

    @property
    def size(self) -> int:
        return len(self.positions) if self.is_leaf else len(self.children)

    def iter_nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def leaves(self):
        return [node for node in self.iter_nodes() if node.is_leaf]

    def position_block(self) -> np.ndarray:
        """The leaf's positions as one int64 vector."""
        return np.asarray(self.positions, dtype=np.int64)

    # -- geometry ----------------------------------------------------------------
    def recompute_mbr(self) -> None:
        if self.is_leaf:
            if not self.points:
                self.lower = None
                self.upper = None
                return
            pts = np.vstack(self.points)
            self.lower = pts.min(axis=0)
            self.upper = pts.max(axis=0)
        else:
            if not self.children:
                self.lower = None
                self.upper = None
                return
            self.lower = np.min([c.lower for c in self.children], axis=0)
            self.upper = np.max([c.upper for c in self.children], axis=0)

    def extend(self, point_lower: np.ndarray, point_upper: np.ndarray) -> None:
        if self.lower is None:
            self.lower = point_lower.copy()
            self.upper = point_upper.copy()
        else:
            self.lower = np.minimum(self.lower, point_lower)
            self.upper = np.maximum(self.upper, point_upper)


def _volumes(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Volume of each rectangle (rows of ``lower`` / ``upper``)."""
    return np.prod(upper - lower, axis=-1)


def _overlaps(a_low, a_high, b_low, b_high) -> np.ndarray:
    """Volume of each intersection of the (broadcast) rectangles ``a`` and ``b``."""
    inter = np.clip(np.minimum(a_high, b_high) - np.maximum(a_low, b_low), 0.0, None)
    return np.prod(inter, axis=-1)


def _overlap_sums(low: np.ndarray, high: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """Per rectangle ``i`` of ``low`` / ``high``, its summed overlap with every
    rectangle of ``lows`` / ``highs`` except the ``i``-th, added left to right."""
    pairs = _overlaps(low[:, np.newaxis], high[:, np.newaxis], lows, highs)
    np.fill_diagonal(pairs, 0.0)
    return np.cumsum(pairs, axis=1)[:, -1]


class RStarTreeIndex(SearchMethod):
    """R*-tree over PAA points with raw-data refinement.

    Parameters
    ----------
    store:
        The raw-data store.
    segments:
        PAA segments used as the indexed dimensionality (16 in the paper).
    leaf_capacity:
        Maximum entries per leaf (the paper's tuned value is 50).
    node_capacity:
        Maximum children per internal node.
    reinsert_fraction:
        Fraction of entries re-inserted on the first overflow of a level
        (the R* "forced reinsert" heuristic; 0 disables it).
    """

    name = "r*-tree"
    supports_approximate = True

    def __init__(
        self,
        store: SeriesStore,
        segments: int = 16,
        leaf_capacity: int = 50,
        node_capacity: int = 16,
        reinsert_fraction: float = 0.3,
    ) -> None:
        super().__init__(store)
        if leaf_capacity < 2 or node_capacity < 2:
            raise ValueError("capacities must be at least 2")
        segments = min(segments, store.length)
        self.summarizer = PaaSummarizer(store.length, segments)
        self.segments = segments
        self.leaf_capacity = leaf_capacity
        self.node_capacity = node_capacity
        self.reinsert_fraction = float(np.clip(reinsert_fraction, 0.0, 0.45))
        self.root = RStarNode(is_leaf=True, level=0)
        self._reinserted_levels: set[int] = set()

    # -- construction --------------------------------------------------------------
    def _build(self) -> None:
        for rows, block in self.store.scan_blocks():
            self._insert_block(rows.start, block)

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        for offset, point in enumerate(self.summarizer.transform_batch(block)):
            self._reinserted_levels.clear()
            self._insert(start + offset, point)

    def _capacity(self, node: RStarNode) -> int:
        return self.leaf_capacity if node.is_leaf else self.node_capacity

    def _choose_leaf(self, point: np.ndarray) -> RStarNode:
        node = self.root
        while not node.is_leaf:
            children = node.children
            lows = np.array([c.lower for c in children])
            highs = np.array([c.upper for c in children])
            grown_low, grown_high = np.minimum(lows, point), np.maximum(highs, point)
            areas = _volumes(lows, highs)
            enlargement = (_volumes(grown_low, grown_high) - areas).tolist()
            if children[0].is_leaf:
                # Minimum overlap enlargement, ties by area enlargement.
                overlap = _overlap_sums(grown_low, grown_high, lows, highs) - _overlap_sums(
                    lows, highs, lows, highs
                )
                keys = list(zip(overlap.tolist(), enlargement, areas.tolist()))
            else:
                keys = list(zip(enlargement, areas.tolist()))
            node = children[min(range(len(children)), key=keys.__getitem__)]
        return node

    def _insert(self, position: int, point: np.ndarray) -> None:
        leaf = self._choose_leaf(point)
        leaf.positions.append(position)
        leaf.points.append(point)
        leaf.extend(point, point)
        self._adjust_upwards(leaf, point)
        if leaf.size > self.leaf_capacity:
            self._handle_overflow(leaf)

    def _adjust_upwards(self, node: RStarNode, point: np.ndarray) -> None:
        current = node.parent
        while current is not None:
            current.extend(point, point)
            current = current.parent

    def _handle_overflow(self, node: RStarNode) -> None:
        level = node.level
        if (
            self.reinsert_fraction > 0.0
            and node.parent is not None
            and level not in self._reinserted_levels
        ):
            self._reinserted_levels.add(level)
            self._forced_reinsert(node)
            detached = node.parent is not None and node not in node.parent.children
            if detached or node.size <= self._capacity(node):
                return
        self._split(node)

    def _forced_reinsert(self, node: RStarNode) -> None:
        """Remove the entries farthest from the MBR center and re-insert them."""
        center = (node.lower + node.upper) / 2.0
        count = max(1, int(self.reinsert_fraction * node.size))
        if node.is_leaf:
            order = np.argsort(
                [-float(np.linalg.norm(p - center)) for p in node.points]
            )[:count]
            removed = [(node.positions[i], node.points[i]) for i in order]
            keep = [i for i in range(node.size) if i not in set(order.tolist())]
            node.positions = [node.positions[i] for i in keep]
            node.points = [node.points[i] for i in keep]
            node.recompute_mbr()
            self._refresh_ancestors(node)
            for position, point in removed:
                self._insert(position, point)
        # Internal-node reinsertion is omitted: splits at internal levels are
        # rare at the scales used here and plain splitting remains correct.

    def _refresh_ancestors(self, node: RStarNode) -> None:
        current = node.parent
        while current is not None:
            current.recompute_mbr()
            current = current.parent

    def _split(self, node: RStarNode) -> None:
        if node.is_leaf:
            entries = list(zip(node.positions, node.points))
            points = np.vstack(node.points)
        else:
            entries = node.children
            points = np.vstack([(c.lower + c.upper) / 2.0 for c in node.children])

        # R*-style axis choice: the dimension with the largest margin sum of the
        # candidate distributions (approximated by the dimension of max spread).
        axis = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
        order = np.argsort(points[:, axis], kind="stable")
        min_fill = max(1, int(0.4 * self._capacity(node)))
        best_split = None
        best_cost = None
        for cut in range(min_fill, len(order) - min_fill + 1):
            left_idx = order[:cut]
            right_idx = order[cut:]
            left_low = points[left_idx].min(axis=0)
            left_high = points[left_idx].max(axis=0)
            right_low = points[right_idx].min(axis=0)
            right_high = points[right_idx].max(axis=0)
            overlap = float(_overlaps(left_low, left_high, right_low, right_high))
            area = float(_volumes(left_low, left_high) + _volumes(right_low, right_high))
            cost = (overlap, area)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_split = cut
        left_idx = order[:best_split]
        right_idx = order[best_split:]

        left = RStarNode(is_leaf=node.is_leaf, level=node.level)
        right = RStarNode(is_leaf=node.is_leaf, level=node.level)
        if node.is_leaf:
            for i in left_idx:
                left.positions.append(entries[i][0])
                left.points.append(entries[i][1])
            for i in right_idx:
                right.positions.append(entries[i][0])
                right.points.append(entries[i][1])
        else:
            for i in left_idx:
                left.children.append(entries[i])
                entries[i].parent = left
            for i in right_idx:
                right.children.append(entries[i])
                entries[i].parent = right
        left.recompute_mbr()
        right.recompute_mbr()
        # The split node is replaced by its two halves; empty it so any stale
        # reference held further up the call stack sees a detached, empty node.
        node.positions = []
        node.points = []
        node.children = []

        parent = node.parent
        if parent is None:
            new_root = RStarNode(is_leaf=False, level=node.level + 1)
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            new_root.recompute_mbr()
            self.root = new_root
        else:
            parent.children.remove(node)
            parent.children.extend([left, right])
            left.parent = parent
            right.parent = parent
            parent.recompute_mbr()
            if parent.size > self.node_capacity:
                self._handle_overflow(parent)

    def _collect_footprint(self) -> None:
        leaves = self.root.leaves()
        self.index_stats.total_nodes = sum(1 for _ in self.root.iter_nodes())
        self.index_stats.leaf_nodes = len(leaves)
        self.index_stats.leaf_fill_factors = [
            leaf.size / self.leaf_capacity for leaf in leaves
        ]
        depths = []
        for leaf in leaves:
            depth = 0
            current = leaf
            while current.parent is not None:
                depth += 1
                current = current.parent
            depths.append(depth)
        self.index_stats.leaf_depths = depths
        entry_bytes = self.segments * 8 + 16
        entries = sum(node.size for node in self.root.iter_nodes())
        self.index_stats.memory_bytes = entries * entry_bytes
        self.index_stats.disk_bytes = self.store.count * self.store.series_bytes

    # -- search -------------------------------------------------------------------------
    def _mindist(self, query_paa: np.ndarray, node: RStarNode) -> float:
        if node.lower is None:
            return float("inf")
        return self.summarizer.mindist_to_rectangle(query_paa, node.lower, node.upper)

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        query_paa = self.summarizer.transform(query)
        node = self.root
        while not node.is_leaf:
            stats.nodes_visited += 1
            node = min(node.children, key=lambda c: self._mindist(query_paa, c))
        self._scan_leaves([node], query, answers, stats)
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        answers = self._make_answer_set(k)
        query_paa = self.summarizer.transform(query)
        heap, push = frontier()
        push(self._mindist(query_paa, self.root), self.root)

        def expand(node: RStarNode) -> None:
            for child in node.children:
                bound = self._mindist(query_paa, child)
                stats.lower_bounds_computed += 1
                # <=: equality must not prune (positional tie-break).
                if bound * bound <= answers.worst_squared_distance:
                    push(bound, child)

        self._best_first(heap, expand, None, query, answers, stats)
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query: visit every node whose MINDIST is within the radius."""
        query_paa = self.summarizer.transform(query)

        def in_range(node: RStarNode) -> list[RStarNode]:
            stats.lower_bounds_computed += node.size
            return [c for c in node.children if self._mindist(query_paa, c) <= radius]

        return self._range_leaves([self.root], in_range, query, radius, stats)

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            segments=self.segments,
            leaf_capacity=self.leaf_capacity,
            node_capacity=self.node_capacity,
        )
        return info
