"""SFA trie: a prefix trie over Symbolic Fourier Approximation words.

Series are summarized with SFA (DFT coefficients discretized with per-
coefficient breakpoints).  The trie groups series by word prefix: the root's
children branch on the first symbol, and when a leaf overflows, its series are
redistributed one level deeper — i.e. the word is extended by one more DFT
coefficient, which is the "vertical" splitting style the paper contrasts with
SAX-based horizontal splits.  Construction is bulk-loaded: the
batch-transformed word matrix is radix-grouped by prefix (one lexsort, then
contiguous runs per trie level); series added after the initial load are
routed a batch at a time (``extend``), one descent per batch, into the trie
that inserting them one by one would leave.  The lower bound used for pruning
is the SFA cell distance restricted to the prefix available at a node.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from ...core.answers import KnnAnswerSet
from ...core.soa import GrowableArray, group_values, position_vector
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.sfa import (
    SfaSummarizer,
    lexicographic_order,
    prefix_groups,
    words_stream,
)
from ..base import SearchMethod, route_batch

__all__ = ["SfaTrieIndex", "SfaTrieNode"]


@dataclass
class SfaTrieNode:
    """Node of the SFA trie identified by a word prefix."""

    prefix: tuple
    depth: int
    is_leaf: bool = True
    #: positions of the series in this leaf, stored as one contiguous vector.
    positions: GrowableArray = field(default_factory=position_vector)
    children: dict = field(default_factory=dict)
    #: cached (children, prefix matrix) for the batch prefix bound; children
    #: are append-only, so the count is a sufficient cache key.
    _child_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.positions)

    def position_block(self) -> np.ndarray:
        """The leaf's positions as one contiguous int64 vector (read-only)."""
        return np.asarray(self.positions, dtype=np.int64)

    def clear_payload(self) -> None:
        self.positions.clear()

    def child_arrays(self) -> tuple:
        """The node's children plus their stacked prefix matrix.

        All children of a trie node share one prefix length (``depth + 1``),
        so their symbol prefixes stack into a ``(children, depth + 1)`` matrix
        scored in a single
        :meth:`~repro.summarization.sfa.SfaSummarizer.prefix_lower_bound_batch`
        call.  Built once per child set and cached on the node.
        """
        cache = self._child_cache
        if cache is None or len(cache[0]) != len(self.children):
            children = list(self.children.values())
            prefixes = np.array([c.prefix for c in children], dtype=np.int64)
            cache = (children, prefixes)
            self._child_cache = cache
        return cache

    def iter_nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def leaves(self):
        return [node for node in self.iter_nodes() if node.is_leaf]


class SfaTrieIndex(SearchMethod):
    """SFA trie index.

    Parameters
    ----------
    store:
        The raw-data store.
    coefficients:
        Maximum word length / number of DFT values (16 in the paper).
    alphabet_size:
        Symbols per coefficient (the paper's tuned value is 8).
    binning:
        ``"equi-depth"`` or ``"equi-width"`` MCB binning.
    leaf_capacity:
        Maximum series per leaf before splitting one level deeper (the paper's
        tuned value is large — 1M at 100GB scale — which is why SFA leaves are
        few and its pruning ratio is comparatively low).
    sample_size:
        Number of series sampled to learn the MCB breakpoints.
    build_chunk_rows:
        Rows per streamed summarization chunk during construction (``None`` =
        the store's default); never changes the built trie.
    """

    name = "sfa-trie"
    supports_approximate = True

    def __init__(
        self,
        store: SeriesStore,
        coefficients: int = 16,
        alphabet_size: int = 8,
        binning: str = "equi-depth",
        leaf_capacity: int = 1000,
        sample_size: int = 2048,
        build_chunk_rows: int | None = None,
    ) -> None:
        super().__init__(store, build_chunk_rows=build_chunk_rows)
        if leaf_capacity <= 0:
            raise ValueError("leaf_capacity must be positive")
        coefficients = min(coefficients, store.length)
        self.summarizer = SfaSummarizer(
            store.length, coefficients, alphabet_size, binning
        )
        self.coefficients = coefficients
        self.alphabet_size = alphabet_size
        self.leaf_capacity = leaf_capacity
        self.sample_size = sample_size
        self.root = SfaTrieNode(prefix=(), depth=0, is_leaf=False)
        self._words: np.ndarray | None = None

    # -- construction ----------------------------------------------------------------
    def _build(self) -> None:
        """Array-native construction: radix-group the word matrix by prefix.

        One lexsort orders every word; each trie level then partitions its
        (already sorted) run on the next symbol column via contiguous group
        boundaries, descending only where a run exceeds the leaf capacity.
        """
        # The MCB breakpoints must exist before the first chunk can be
        # symbolized, so the (small) sample is read ahead through the
        # unaccounted peek — the historical path reused the already-scanned
        # array here, so the counters stay identical: one scan per build.
        sample_count = min(self.sample_size, self.store.count)
        self.summarizer.fit(self.store.peek(0, sample_count))
        self._words = words_stream(
            self.summarizer,
            self.store.scan_blocks(chunk_rows=self.build_chunk_rows),
            self.store.count,
        )
        self._radix_fill(self.root, lexicographic_order(self._words))

    def _radix_fill(self, node: SfaTrieNode, order: np.ndarray) -> None:
        for symbol, sub_order in prefix_groups(self._words, order, node.depth):
            key = node.prefix + (symbol,)
            child = SfaTrieNode(prefix=key, depth=node.depth + 1, is_leaf=True)
            node.children[key] = child
            if sub_order.size > self.leaf_capacity and child.depth < self.coefficients:
                child.is_leaf = False
                self._radix_fill(child, sub_order)
            else:
                # Stable lexsort keeps positions ascending within one word;
                # across the words of a leaf they must be re-sorted to match
                # the arrival order live inserts keep.
                child.positions.extend(np.sort(sub_order))

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        """Symbolize the new rows once with the breakpoints learned at build
        time, grow the word matrix splits consult by the whole block, and
        route it into the trie."""
        if start != self._words.shape[0]:
            raise ValueError(
                f"appends must be contiguous: expected position "
                f"{self._words.shape[0]}, got {start}"
            )
        words = self.summarizer.transform_batch(block).astype(self._words.dtype)
        self._words = np.vstack([self._words, words])
        positions = np.arange(start, start + block.shape[0], dtype=np.int64)

        def descend(node: SfaTrieNode, rows: np.ndarray):
            groups = []
            symbols = self._words[positions[rows], node.depth]
            # Missing children are grown in arrival order, as per-row inserts would.
            for symbol, idx in sorted(group_values(symbols), key=lambda g: g[1][0]):
                key = node.prefix + (int(symbol),)
                child = node.children.get(key)
                if child is None:
                    child = SfaTrieNode(prefix=key, depth=node.depth + 1, is_leaf=True)
                    node.children[key] = child
                groups.append((child, rows[idx]))
            return groups

        def deliver(leaf: SfaTrieNode, rows: np.ndarray) -> None:
            leaf.positions.extend(positions[rows])
            if leaf.size > self.leaf_capacity and leaf.depth < self.coefficients:
                self._split_leaf(leaf)

        route_batch(self.root, block.shape[0], self.leaf_capacity, descend, deliver)

    def _split_leaf(self, node: SfaTrieNode) -> None:
        """Redistribute an overflowing leaf one prefix level deeper.

        Partitions the leaf's position block by the next symbol column in one
        vectorized grouping instead of re-routing series one at a time.
        """
        positions = node.position_block()
        node.is_leaf = False
        node.clear_payload()
        symbols = self._words[positions, node.depth]
        for symbol, idx in group_values(symbols):
            key = node.prefix + (int(symbol),)
            child = node.children.get(key)
            if child is None:
                child = SfaTrieNode(prefix=key, depth=node.depth + 1, is_leaf=True)
                node.children[key] = child
            child.positions.extend(positions[idx])
        for child in node.children.values():
            if child.size > self.leaf_capacity and child.depth < self.coefficients:
                self._split_leaf(child)

    def _collect_footprint(self) -> None:
        leaves = []
        total = 1
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
        self.index_stats.memory_bytes = (
            self.store.count * self.coefficients + total * 48
        )
        self.index_stats.disk_bytes = self.store.count * self.store.series_bytes

    # -- lower bounds -------------------------------------------------------------------
    def _prefix_lower_bound(self, query_dft: np.ndarray, node: SfaTrieNode) -> float:
        """SFA cell lower bound restricted to the node's prefix coefficients."""
        total = 0.0
        weights = self.summarizer.dft._weights
        for j, symbol in enumerate(node.prefix):
            low, high = self.summarizer.cell_bounds(int(symbol), j)
            value = query_dft[j]
            if value < low:
                gap = low - value
            elif value > high:
                gap = value - high
            else:
                gap = 0.0
            total += weights[j] * gap * gap
        return float(np.sqrt(total))

    # -- search ----------------------------------------------------------------------------
    def _leaf_for(self, word: np.ndarray) -> SfaTrieNode | None:
        key = (int(word[0]),)
        node = self.root.children.get(key)
        if node is None:
            if not self.root.children:
                return None
            node = next(iter(self.root.children.values()))
        while not node.is_leaf:
            key = node.prefix + (int(word[node.depth]),)
            child = node.children.get(key)
            if child is None:
                child = max(node.children.values(), key=lambda c: c.size)
            node = child
        return node

    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        answers = KnnAnswerSet(k)
        word = self.summarizer.transform(query)
        leaf = self._leaf_for(word)
        if leaf is not None:
            self._scan_leaves([leaf], query, answers, stats)
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        answers = self._make_answer_set(k)
        word = self.summarizer.transform(query)
        query_dft = self.summarizer.dft_of(query)
        start_leaf = self._leaf_for(word)
        if start_leaf is not None:
            self._scan_leaves([start_leaf], query, answers, stats)

        counter = itertools.count()
        heap: list[tuple[float, int, SfaTrieNode]] = []

        def push_children(parent: SfaTrieNode, prune: bool = True) -> None:
            if not parent.children:
                return
            children, prefixes = parent.child_arrays()
            bounds = self.summarizer.prefix_lower_bound_batch(query_dft, prefixes)
            stats.lower_bounds_computed += len(children)
            threshold = answers.worst_squared_distance
            for child, child_bound in zip(children, bounds):
                # Strict >: equality must not prune (positional tie-break).
                if prune and child_bound * child_bound > threshold:
                    continue
                heapq.heappush(heap, (float(child_bound), next(counter), child))

        push_children(self.root, prune=False)
        self._best_first(heap, push_children, start_leaf, query, answers, stats)
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            coefficients=self.coefficients,
            alphabet_size=self.alphabet_size,
            binning=self.summarizer.binning,
            leaf_capacity=self.leaf_capacity,
        )
        return info
