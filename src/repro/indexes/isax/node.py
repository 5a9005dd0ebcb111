"""Nodes of the iSAX-family indexes (iSAX2+ and ADS+) and how series reach them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core.soa import GrowableArray, position_vector
from ...summarization.sax import (
    IsaxSummarizer,
    SaxWord,
    group_root_words,
    symbolize_batch,
)

__all__ = ["IsaxNode", "child_groups", "leaf_for"]


@dataclass
class IsaxNode:
    """One node of an iSAX tree.

    A node is identified by its :class:`SaxWord` (per-segment symbols at
    per-segment cardinalities).  Leaves hold the positions of the series they
    contain along with the PAA values needed to re-split.  Both payloads are
    stored structure-of-arrays style in contiguous
    :class:`~repro.core.soa.GrowableArray` buffers, so a leaf scan hands the
    store one ready-made integer vector and a split re-symbolizes one matrix
    column instead of looping over per-series arrays.
    """

    word: SaxWord | None
    depth: int = 0
    is_leaf: bool = True
    #: positions of the series stored in this leaf (empty for internal nodes).
    positions: GrowableArray = field(default_factory=position_vector)
    #: PAA rows of those series (kept so splits can re-symbolize); created
    #: lazily on the first add because the segment count is not known here.
    paa_values: GrowableArray | None = None
    #: children keyed by their word symbols tuple.
    children: dict = field(default_factory=dict)
    #: the segment whose cardinality was doubled to create this node's children.
    split_segment: int | None = None
    parent: "IsaxNode | None" = None
    #: cached (children, symbols, cardinalities) matrices for the batch MINDIST
    #: kernel; rebuilt lazily whenever the child set grows (children are only
    #: ever appended, never removed, so the count is a sufficient cache key).
    _child_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.positions)

    def child_arrays(self) -> tuple:
        """The node's children plus their stacked iSAX word matrices.

        Returns ``(children, symbols, cardinalities)`` where ``children`` is a
        stable list of the child nodes and the two ``(children, segments)``
        integer matrices are the array-native summary a query scores in one
        :meth:`~repro.summarization.sax.IsaxSummarizer.mindist_paa_to_words_batch`
        call.  Built once per child set and cached on the node.
        """
        from ...summarization.sax import stack_words

        cache = self._child_cache
        if cache is None or len(cache[0]) != len(self.children):
            children = list(self.children.values())
            symbols, cardinalities = stack_words([c.word for c in children])
            cache = (children, symbols, cardinalities)
            self._child_cache = cache
        return cache

    # -- payload ------------------------------------------------------------------
    def position_block(self) -> np.ndarray:
        """The leaf's positions as one contiguous int64 vector (read-only)."""
        return self.positions.data

    def paa_block(self) -> np.ndarray:
        """The leaf's PAA rows as one contiguous ``(size, segments)`` matrix."""
        if self.paa_values is None:
            return np.empty((0, 0), dtype=np.float64)
        return self.paa_values.data

    def add_block(self, positions: np.ndarray, paa_block: np.ndarray) -> None:
        """Adopt a whole block of series in two contiguous array copies."""
        if len(positions) == 0:
            return
        if self.paa_values is None:
            self.paa_values = GrowableArray(width=paa_block.shape[1])
        self.positions.extend(positions)
        self.paa_values.extend(paa_block)

    def clear_payload(self) -> None:
        self.positions.clear()
        self.paa_values = None

    def iter_nodes(self):
        """Pre-order traversal of the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def leaves(self):
        return [node for node in self.iter_nodes() if node.is_leaf]


def _closest_child(node: IsaxNode, paa: np.ndarray, summarizer: IsaxSummarizer) -> int:
    """Index (into ``child_arrays``) of the child with the smallest MINDIST."""
    _, symbols, cardinalities = node.child_arrays()
    return int(np.argmin(summarizer.mindist_paa_to_words_batch(paa, symbols, cardinalities)))


def child_groups(
    node: IsaxNode, rows: np.ndarray, paa: np.ndarray, summarizer: IsaxSummarizer
) -> list[tuple[IsaxNode, np.ndarray]]:
    """Split ``rows`` (ascending indices into ``paa``) among ``node``'s children.

    The root fans out on the cardinality-2 word and grows a child for every
    new word, in arrival order.  An internal node re-symbolizes its split
    segment at doubled cardinality; its child words are fixed by the split,
    so a row whose word has no child goes to the MINDIST-closest one.
    """
    if node.word is None:
        base_cards = (2,) * paa.shape[1]
        groups = []
        for key, idx in sorted(group_root_words(paa[rows]), key=lambda g: g[1][0]):
            child = node.children.get(key)
            if child is None:
                word = SaxWord(symbols=key, cardinalities=base_cards)
                child = IsaxNode(word=word, depth=1, is_leaf=True, parent=node)
                node.children[key] = child
            groups.append((child, rows[idx]))
        return groups
    segment = node.split_segment
    children, child_symbols, _ = node.child_arrays()
    symbols = symbolize_batch(
        paa[rows, segment], node.word.cardinalities[segment] * 2
    )
    match = symbols[:, np.newaxis] == child_symbols[np.newaxis, :, segment]
    target = match.argmax(axis=1)
    for orphan in np.flatnonzero(~match.any(axis=1)):
        target[orphan] = _closest_child(node, paa[rows[orphan]], summarizer)
    groups = [(child, rows[target == i]) for i, child in enumerate(children)]
    return [group for group in groups if group[1].size]


def leaf_for(
    root: IsaxNode, paa: np.ndarray, summarizer: IsaxSummarizer
) -> IsaxNode | None:
    """The leaf one series' PAA vector routes to (the ng-approximate descent)."""
    if not root.children:
        return None
    node = root
    while not node.is_leaf:
        if node.word is None:
            key = tuple(symbolize_batch(paa, 2).tolist())
        else:
            segment = node.split_segment
            key = node.word.promote(segment, float(paa[segment])).symbols
        child = node.children.get(key)
        if child is None:
            # No child carries this word: fall back to the closest one.
            child = node.child_arrays()[0][_closest_child(node, paa, summarizer)]
        node = child
    return node
