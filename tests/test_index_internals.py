"""Unit tests for the internal node structures of the tree indexes."""

import numpy as np
import pytest

from repro.indexes.dstree.node import DsTreeNode, SplitPolicy
from repro.indexes.isax.node import IsaxNode
from repro.indexes.isax.tree import IsaxTree
from repro import SeriesStore
from repro.indexes.rstartree.index import (
    RStarNode,
    RStarTreeIndex,
    _overlap_sums,
    _overlaps,
    _volumes,
)
from repro.indexes.sfa_trie.index import SfaTrieNode
from repro.summarization.sax import IsaxSummarizer, SaxWord
from repro.workloads import random_walk_dataset


class TestIsaxNode:
    def test_payload_and_traversal(self):
        root = IsaxNode(word=None, is_leaf=False)
        child = IsaxNode(
            word=SaxWord(symbols=(0, 1), cardinalities=(2, 2)), depth=1, parent=root
        )
        root.children[(0, 1)] = child
        child.add_block(np.array([4]), np.zeros((1, 2)))
        child.add_block(np.array([7]), np.ones((1, 2)))
        assert child.size == 2
        assert [node for node in root.iter_nodes()] != []
        assert root.leaves() == [child]
        child.clear_payload()
        assert child.size == 0


class TestAdsTree:
    """The tree ADS+ searches — the ``IsaxTree`` it shares with iSAX2+."""

    def test_bulk_insert_and_leaf_lookup(self):
        dataset = random_walk_dataset(200, 32, seed=17)
        summarizer = IsaxSummarizer(32, segments=8, cardinality=16)
        tree = IsaxTree(summarizer, leaf_capacity=20)
        paa = summarizer.paa.transform_batch(dataset.values)
        tree.bulk_insert(paa)
        # Every series is in exactly one leaf.
        positions = [p for leaf in tree.leaves() for p in leaf.positions]
        assert sorted(positions) == list(range(200))
        # Leaf lookup routes to a leaf containing similar series.
        leaf = tree.leaf_for(paa[0])
        assert leaf is not None and leaf.is_leaf
        assert tree.node_count() >= len(tree.leaves())

    def test_rejects_bad_capacity(self):
        summarizer = IsaxSummarizer(32, segments=8)
        with pytest.raises(ValueError):
            IsaxTree(summarizer, leaf_capacity=0)


class TestDsTreeNode:
    def test_horizontal_routing_on_mean(self):
        boundaries = np.array([0, 4, 8])
        node = DsTreeNode(boundaries=boundaries, is_leaf=False)
        node.policy = SplitPolicy(kind="mean", segment=0, threshold=0.0)
        node.left = DsTreeNode(boundaries=boundaries)
        node.right = DsTreeNode(boundaries=boundaries)
        low_series = np.concatenate([np.full(4, -1.0), np.zeros(4)])
        high_series = np.concatenate([np.full(4, 2.0), np.zeros(4)])
        assert node.route(low_series) is node.left
        assert node.route(high_series) is node.right

    def test_std_routing(self):
        boundaries = np.array([0, 4, 8])
        node = DsTreeNode(boundaries=boundaries, is_leaf=False)
        node.policy = SplitPolicy(kind="std", segment=1, threshold=0.5)
        node.left = DsTreeNode(boundaries=boundaries)
        node.right = DsTreeNode(boundaries=boundaries)
        flat = np.zeros(8)
        noisy = np.concatenate([np.zeros(4), np.array([3.0, -3.0, 3.0, -3.0])])
        assert node.route(flat) is node.left
        assert node.route(noisy) is node.right

    def test_vertical_policy_uses_child_boundaries(self):
        boundaries = np.array([0, 8])
        refined = np.array([0, 4, 8])
        node = DsTreeNode(boundaries=boundaries, is_leaf=False)
        node.policy = SplitPolicy(
            kind="mean", segment=0, threshold=0.0, vertical=True, child_boundaries=refined
        )
        node.left = DsTreeNode(boundaries=refined)
        node.right = DsTreeNode(boundaries=refined)
        series = np.concatenate([np.full(4, -2.0), np.full(4, 5.0)])
        # The split feature is the mean of the refined first half (-2), not the
        # whole-segment mean (+1.5).
        assert node.policy_value(series) == pytest.approx(-2.0)
        assert node.route(series) is node.left

    def test_describe(self):
        policy = SplitPolicy(kind="mean", segment=2, threshold=1.5)
        assert "seg=2" in policy.describe()
        assert policy.describe().startswith("H-split")
        vertical = SplitPolicy(kind="std", segment=0, threshold=0.1, vertical=True)
        assert vertical.describe().startswith("V-split")


class TestRStarGeometry:
    def test_mbr_recompute_leaf(self):
        node = RStarNode(is_leaf=True)
        node.positions = [0, 1]
        node.points = [np.array([0.0, 1.0]), np.array([2.0, -1.0])]
        node.recompute_mbr()
        assert np.allclose(node.lower, [0.0, -1.0])
        assert np.allclose(node.upper, [2.0, 1.0])
        assert _volumes(node.lower, node.upper) == pytest.approx(4.0)

    def test_extend(self):
        node = RStarNode(is_leaf=True)
        point = np.array([1.0, 1.0])
        node.extend(point, point)
        node.extend(np.array([-1.0, 2.0]), np.array([-1.0, 2.0]))
        assert np.allclose(node.lower, [-1.0, 1.0])
        assert np.allclose(node.upper, [1.0, 2.0])

    def test_enlargement_zero_inside(self):
        lows, highs = np.array([[0.0, 0.0], [5.0, 5.0]]), np.array([[2.0, 2.0], [6.0, 6.0]])
        point = np.array([1.0, 1.0])
        grown = _volumes(np.minimum(lows, point), np.maximum(highs, point))
        enlargement = grown - _volumes(lows, highs)
        assert enlargement[0] == pytest.approx(0.0)
        assert enlargement[1] > 0

    def test_overlap(self):
        overlaps = _overlaps(
            np.array([0.0, 0.0]), np.array([2.0, 2.0]),
            np.array([[1.0, 1.0], [2.5, 2.5]]), np.array([[3.0, 3.0], [3.0, 3.0]]),
        )
        assert overlaps.tolist() == pytest.approx([1.0, 0.0])

    def test_overlap_sums_skip_self_and_add_left_to_right(self):
        """Bit for bit the per-pair loop choose-subtree used to run."""
        rng = np.random.default_rng(3)
        lows = rng.random((9, 4))
        highs = lows + rng.random((9, 4))
        pairwise = [
            sum(
                float(np.prod(np.clip(np.minimum(highs[i], highs[j])
                                      - np.maximum(lows[i], lows[j]), 0.0, None)))
                for j in range(9)
                if j != i
            )
            for i in range(9)
        ]
        assert _overlap_sums(lows, highs, lows, highs).tolist() == pairwise

    def test_choose_subtree_leaves_the_tree_the_per_child_loop_leaves(self, monkeypatch):
        """The array form scores children bit for bit as the per-child loop did."""

        def overlap(a_low, a_high, b_low, b_high):
            inter = np.clip(np.minimum(a_high, b_high) - np.maximum(a_low, b_low), 0.0, None)
            return float(np.prod(inter))

        def enlargement(child, point):
            grown = np.prod(np.maximum(child.upper, point) - np.minimum(child.lower, point))
            return float(grown - np.prod(child.upper - child.lower))

        def per_child_choose_leaf(self, point):
            node = self.root
            while not node.is_leaf:
                children = node.children

                def cost(child):
                    area = float(np.prod(child.upper - child.lower))
                    if not children[0].is_leaf:
                        return (enlargement(child, point), area)
                    low, high = np.minimum(child.lower, point), np.maximum(child.upper, point)
                    others = [o for o in children if o is not child]
                    now = sum(overlap(child.lower, child.upper, o.lower, o.upper) for o in others)
                    new = sum(overlap(low, high, o.lower, o.upper) for o in others)
                    return (new - now, enlargement(child, point), area)

                node = min(children, key=cost)
            return node

        def tree(store):
            index = RStarTreeIndex(store, segments=4, leaf_capacity=6, node_capacity=4)
            index.build()
            return [
                (n.is_leaf, n.level, list(n.positions), n.lower.tobytes(), n.upper.tobytes())
                for n in index.root.iter_nodes()
            ]

        store = SeriesStore(random_walk_dataset(400, 32, seed=19))
        arrays = tree(store)
        monkeypatch.setattr(RStarTreeIndex, "_choose_leaf", per_child_choose_leaf)
        assert tree(store) == arrays
        assert sum(leaf for leaf, *_ in arrays) > 20

    def test_empty_mbr(self):
        node = RStarNode(is_leaf=True)
        node.recompute_mbr()
        assert node.lower is None


class TestSfaTrieNode:
    def test_prefix_tree_traversal(self):
        root = SfaTrieNode(prefix=(), depth=0, is_leaf=False)
        child = SfaTrieNode(prefix=(3,), depth=1)
        grandchild = SfaTrieNode(prefix=(3, 1), depth=2)
        child.is_leaf = False
        child.children[(3, 1)] = grandchild
        root.children[(3,)] = child
        grandchild.positions = [1, 2, 3]
        assert grandchild.size == 3
        leaves = [leaf for node in root.children.values() for leaf in node.leaves()]
        assert leaves == [grandchild]
