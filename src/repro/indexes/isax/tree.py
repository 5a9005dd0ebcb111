"""The iSAX split tree shared by iSAX2+ and ADS+.

The tree stores PAA summaries and split structure; leaves keep the positions
of their series, never the raw data.  The root fans out on the word at base
cardinality (2 symbols per segment); when a leaf overflows, the segment with
the widest PAA spread doubles its cardinality and the leaf's series are
redistributed among the resulting children (binary splits, as in iSAX 2.0/2+).
``bulk_insert`` partitions a whole summary matrix with array operations — one
vectorized root symbolization plus a lexsort-based grouping — and
``insert_block`` routes the rows appended after the initial load, one descent
per block.  iSAX2+ additionally simulates the build buffer that holds leaf
payloads in memory: it attaches a :class:`~repro.core.buffer.BufferPool`
(``tree.buffer``) and the tree reports every payload movement to it.  ADS+
attaches none; the pool only counts and never influences the structure.
"""

from __future__ import annotations

import numpy as np

from ...core.buffer import BufferPool
from ...core.soa import group_values
from ...core.stats import IndexStats
from ...summarization.sax import (
    IsaxSummarizer,
    SaxWord,
    group_root_words,
    symbolize_batch,
)
from ..base import route_batch
from .node import IsaxNode, child_groups, leaf_for

__all__ = ["IsaxTree"]


class IsaxTree:
    """iSAX split tree over summaries only."""

    def __init__(self, summarizer: IsaxSummarizer, leaf_capacity: int) -> None:
        if leaf_capacity <= 0:
            raise ValueError("leaf_capacity must be positive")
        self.summarizer = summarizer
        self.leaf_capacity = leaf_capacity
        #: the simulated build buffer the owning index attaches (iSAX2+ only;
        #: ``None`` = not modelled).  It is told of every payload movement.
        self.buffer: BufferPool | None = None
        self.root = IsaxNode(word=None, depth=0, is_leaf=False)

    # -- construction -----------------------------------------------------------
    def bulk_insert(self, paa: np.ndarray) -> None:
        """Bulk-load an empty tree from a whole ``(series, segments)`` PAA matrix.

        Positions are grouped per root child by sorting bit-packed root words
        (:func:`~repro.summarization.sax.group_root_words`), and overflowing
        leaves split through the same block-level machinery as
        :meth:`insert_block` — no per-series loop, no full word-matrix temporary.
        """
        positions = np.arange(paa.shape[0], dtype=np.int64)
        base_cards = (2,) * paa.shape[1]
        for key, idx in group_root_words(paa):
            word = SaxWord(symbols=key, cardinalities=base_cards)
            child = IsaxNode(word=word, depth=1, is_leaf=True, parent=self.root)
            self.root.children[key] = child
            child.add_block(positions[idx], paa[idx])
            if self.buffer is not None:
                self.buffer.add(id(child), child.size)
            if child.size > self.leaf_capacity:
                self._split_leaf(child)
        if self.buffer is not None:
            self.buffer.flush_all()

    def insert_block(self, start: int, paa: np.ndarray) -> None:
        """Insert summarized rows (positions ``start``...) in one descent,
        leaving the tree that inserting them one by one would leave."""
        positions = np.arange(start, start + paa.shape[0], dtype=np.int64)

        def descend(node: IsaxNode, rows: np.ndarray):
            return child_groups(node, rows, paa, self.summarizer)

        def deliver(leaf: IsaxNode, rows: np.ndarray) -> None:
            leaf.add_block(positions[rows], paa[rows])
            if self.buffer is not None:
                self.buffer.add(id(leaf))
            if leaf.size > self.leaf_capacity:
                self._split_leaf(leaf)
            if self.buffer is not None:
                # Live rows settle at once — there is no later flush_all, so
                # only the row that overflows a leaf is ever in flight (and
                # spill accounting is the per-row one).
                self.buffer.flush_all()

        route_batch(self.root, paa.shape[0], self.leaf_capacity, descend, deliver)

    def _choose_split_segment(self, node: IsaxNode) -> int | None:
        """Pick the segment to promote: the one with the highest PAA spread that
        can still be refined (cardinality below the maximum)."""
        spread = node.paa_block().std(axis=0)
        for segment in np.argsort(-spread):
            if node.word.cardinalities[int(segment)] < self.summarizer.cardinality:
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
        if self.buffer is not None:
            self.buffer.flush(id(node))

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
            child = node.children.get(word.symbols)
            if child is None:
                child = IsaxNode(
                    word=word, depth=node.depth + 1, is_leaf=True, parent=node
                )
                node.children[word.symbols] = child
            child.add_block(positions[idx], paa[idx])
            if self.buffer is not None:
                self.buffer.add(id(child), int(idx.size))
        for child in node.children.values():
            if child.size > self.leaf_capacity:
                self._split_leaf(child)

    # -- navigation ----------------------------------------------------------------
    def leaf_for(self, paa: np.ndarray) -> IsaxNode | None:
        """The leaf one series' PAA vector routes to (the ng-approximate descent)."""
        return leaf_for(self.root, paa, self.summarizer)

    def leaves(self) -> list[IsaxNode]:
        out = []
        for child in self.root.children.values():
            out.extend(child.leaves())
        return out

    def node_count(self) -> int:
        total = 1  # count the root
        for child in self.root.children.values():
            total += sum(1 for _ in child.iter_nodes())
        return total

    def record_shape(self, stats: IndexStats) -> int:
        """Fill the node/leaf counts, fill factors and depths of ``stats``;
        returns the node count (the indexes size their footprint from it)."""
        leaves = self.leaves()
        stats.total_nodes = self.node_count()
        stats.leaf_nodes = len(leaves)
        stats.leaf_fill_factors = [leaf.size / self.leaf_capacity for leaf in leaves]
        stats.leaf_depths = [leaf.depth for leaf in leaves]
        return stats.total_nodes
