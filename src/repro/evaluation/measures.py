"""Implementation-independent quality measures: pruning ratio, TLB, footprint.

These are the measures the paper uses to explain *why* methods behave the way
they do, independently of hardware or implementation quality (§4.2, Figures 8
and 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.distance import squared_euclidean_batch
from ..core.queries import QueryWorkload
from ..core.stats import IndexStats, QueryStats

__all__ = [
    "pruning_ratio",
    "average_pruning_ratio",
    "FootprintReport",
    "footprint_report",
    "tlb_for_method",
]


def pruning_ratio(stats: QueryStats) -> float:
    """Pruning ratio of one query (1 - fraction of raw series examined)."""
    return stats.pruning_ratio


def average_pruning_ratio(stats_list: list[QueryStats]) -> float:
    """Mean pruning ratio across a workload."""
    if not stats_list:
        return 0.0
    return float(np.mean([s.pruning_ratio for s in stats_list]))


@dataclass
class FootprintReport:
    """Index footprint measures (paper Figure 8 a-e)."""

    method: str
    total_nodes: int
    leaf_nodes: int
    memory_bytes: int
    disk_bytes: int
    fill_factor_median: float
    fill_factor_values: list = field(default_factory=list)
    leaf_depth_max: int = 0

    def as_row(self) -> dict:
        return {
            "method": self.method,
            "nodes": self.total_nodes,
            "leaves": self.leaf_nodes,
            "memory_mb": self.memory_bytes / (1024 * 1024),
            "disk_mb": self.disk_bytes / (1024 * 1024),
            "fill_factor_median": self.fill_factor_median,
            "max_leaf_depth": self.leaf_depth_max,
        }


def footprint_report(stats: IndexStats) -> FootprintReport:
    """Summarize an index's footprint from its build stats."""
    return FootprintReport(
        method=stats.method,
        total_nodes=stats.total_nodes,
        leaf_nodes=stats.leaf_nodes,
        memory_bytes=stats.memory_bytes,
        disk_bytes=stats.disk_bytes,
        fill_factor_median=stats.median_fill_factor,
        fill_factor_values=list(stats.leaf_fill_factors),
        leaf_depth_max=stats.max_leaf_depth,
    )


def tlb_for_method(method, workload: QueryWorkload, max_leaves: int = 50) -> float:
    """Tightness of the lower bound of an index (paper §4.2).

    For every query and every sampled leaf, the TLB is the ratio of the
    lower-bounding distance between the query and the leaf to the *average*
    true Euclidean distance between the query and the series in that leaf.
    The reported value is the mean over leaves and queries.

    The method must expose leaves with ``position_block()`` and a way to
    compute the leaf-level lower bound; the computation below covers the index
    families in this library (iSAX-based, DSTree, SFA trie, R*-tree) and falls
    back to a summary-level TLB for the flat methods (VA+file).
    """
    leaves = _collect_leaves(method)
    ratios: list[float] = []
    data = method.store.dataset.values
    for query in workload:
        q = np.asarray(query.series, dtype=np.float64)
        if leaves:
            for leaf, bound_fn in leaves[:max_leaves]:
                positions = leaf.position_block()
                if positions.size == 0:
                    continue
                true = np.sqrt(squared_euclidean_batch(q, data[positions]))
                avg_true = float(true.mean())
                if avg_true <= 0:
                    continue
                ratios.append(bound_fn(q, leaf) / avg_true)
        else:
            bounds, true = _flat_bounds(method, q, data)
            mask = true > 0
            if np.any(mask):
                ratios.append(float(np.mean(bounds[mask] / true[mask])))
    return float(np.mean(ratios)) if ratios else 0.0


def _collect_leaves(method):
    """(leaf, bound_fn) pairs for tree-based methods; empty list otherwise."""
    name = getattr(method, "name", "")
    if name in ("isax2+", "ads+"):
        leaves = method.tree.leaves()
        fn = lambda q, leaf: method.summarizer.mindist_paa_to_word(  # noqa: E731
            method.summarizer.paa.transform(q), leaf.word
        )
        return [(leaf, fn) for leaf in leaves if leaf.size > 0]
    if name == "dstree":
        leaves = method.root.leaves()
        fn = lambda q, leaf: (  # noqa: E731
            leaf.synopsis.lower_bound(q) if leaf.synopsis is not None else 0.0
        )
        return [(leaf, fn) for leaf in leaves if leaf.size > 0]
    if name == "sfa-trie":
        leaves = []
        for child in method.root.children.values():
            leaves.extend(child.leaves())
        fn = lambda q, leaf: method._prefix_lower_bound(  # noqa: E731
            method.summarizer.dft_of(q), leaf
        )
        return [(leaf, fn) for leaf in leaves if leaf.size > 0]
    if name == "r*-tree":
        leaves = method.root.leaves()
        fn = lambda q, leaf: method._mindist(method.summarizer.transform(q), leaf)  # noqa: E731
        return [(leaf, fn) for leaf in leaves if leaf.size > 0]
    return []


def _flat_bounds(method, query: np.ndarray, data: np.ndarray):
    """Per-series lower bounds and true distances for flat methods (VA+file)."""
    name = getattr(method, "name", "")
    if name == "va+file":
        query_dft = method.summarizer.dft_of(query)
        bounds = method.summarizer.lower_bound_batch(query_dft, method._cells)
        true = np.sqrt(squared_euclidean_batch(query, data))
        return bounds, true
    # Unknown method: report a zero lower bound (trivially valid).
    true = np.sqrt(squared_euclidean_batch(query, data))
    return np.zeros_like(true), true
