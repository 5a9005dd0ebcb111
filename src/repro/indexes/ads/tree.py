"""The adaptive iSAX tree used by ADS+.

The tree only stores PAA summaries and split structure; leaves keep the
positions of their series but never the raw data (ADS+ materializes raw leaves
lazily, and its SIMS exact algorithm bypasses leaf materialization entirely by
scanning the raw file skip-sequentially).  ``bulk_insert`` partitions the whole
summary matrix with array operations — one vectorized root symbolization plus
a lexsort-based grouping — while ``insert_block`` routes the rows appended
after the initial load, one descent per block.
"""

from __future__ import annotations

import numpy as np

from ...core.soa import group_values
from ...summarization.sax import (
    IsaxSummarizer,
    SaxWord,
    group_root_words,
    symbolize_batch,
)
from ..base import route_batch
from ..isax.node import IsaxNode, child_groups, leaf_for

__all__ = ["AdsTree"]


class AdsTree:
    """iSAX split tree over summaries only."""

    def __init__(self, summarizer: IsaxSummarizer, leaf_capacity: int) -> None:
        if leaf_capacity <= 0:
            raise ValueError("leaf_capacity must be positive")
        self.summarizer = summarizer
        self.segments = summarizer.segments
        self.cardinality = summarizer.cardinality
        self.leaf_capacity = leaf_capacity
        self.root = IsaxNode(word=None, depth=0, is_leaf=False)

    # -- construction -----------------------------------------------------------
    def bulk_insert(self, paa: np.ndarray, positions: np.ndarray | None = None) -> None:
        """Bulk-load the tree from a whole ``(series, segments)`` PAA matrix.

        Positions are grouped per root child by sorting bit-packed root words
        (:func:`~repro.summarization.sax.group_root_words`), and overflowing
        leaves split through the same block-level machinery as :meth:`insert`
        — no per-series loop, no full word-matrix temporary.
        """
        if positions is None:
            positions = np.arange(paa.shape[0], dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
        base_cards = tuple([2] * self.segments)
        for key, idx in group_root_words(paa):
            child = self.root.children.get(key)
            if child is None:
                word = SaxWord(symbols=key, cardinalities=base_cards)
                child = IsaxNode(word=word, depth=1, is_leaf=True, parent=self.root)
                self.root.children[key] = child
            child.add_block(positions[idx], paa[idx])
            if child.size > self.leaf_capacity:
                self._split_leaf(child)

    def insert_block(self, start: int, paa: np.ndarray) -> None:
        """Insert summarized rows (positions ``start``...) in one descent,
        leaving the tree that inserting them one by one would leave."""
        positions = np.arange(start, start + paa.shape[0], dtype=np.int64)

        def descend(node: IsaxNode, rows: np.ndarray):
            return child_groups(node, rows, paa, self.summarizer)

        def deliver(leaf: IsaxNode, rows: np.ndarray) -> None:
            leaf.add_block(positions[rows], paa[rows])
            if leaf.size > self.leaf_capacity:
                self._split_leaf(leaf)

        route_batch(self.root, paa.shape[0], self.leaf_capacity, descend, deliver)

    def _split_leaf(self, node: IsaxNode) -> None:
        """Redistribute an overflowing leaf one cardinality level deeper.

        Operates on the leaf's whole payload block: the split segment's column
        is re-symbolized at doubled cardinality in one call and each child
        adopts its position block contiguously.
        """
        paa = node.paa_block()
        spread = paa.std(axis=0)
        order = np.argsort(-spread)
        segment = None
        for candidate in order:
            if node.word.cardinalities[int(candidate)] < self.cardinality:
                segment = int(candidate)
                break
        if segment is None:
            return
        positions = node.position_block()
        node.is_leaf = False
        node.split_segment = segment
        node.clear_payload()

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
        for child in node.children.values():
            if child.size > self.leaf_capacity:
                self._split_leaf(child)

    # -- navigation ----------------------------------------------------------------
    def leaf_for(self, paa: np.ndarray) -> IsaxNode | None:
        return leaf_for(self.root, paa, self.summarizer)

    def leaves(self) -> list[IsaxNode]:
        out = []
        for child in self.root.children.values():
            out.extend(child.leaves())
        return out

    def node_count(self) -> int:
        total = 1
        for child in self.root.children.values():
            total += sum(1 for _ in child.iter_nodes())
        return total
