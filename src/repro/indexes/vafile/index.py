"""VA+file: a quantization-based filter file with exact refinement.

The VA+file keeps, for every series, a compact cell approximation (the VA+
quantization of its DFT coefficients).  An exact query proceeds in two phases:

1. *Filtering*: the approximation file is scanned sequentially; for every series
   a lower bound (and optionally an upper bound) on its distance to the query is
   derived from its cell.  The k-th smallest upper bound caps the candidate set.
2. *Refinement*: surviving candidates are visited in increasing lower-bound
   order; the scan stops as soon as the next lower bound exceeds the distance of
   the current k-th nearest neighbor.  Every candidate visit costs one random
   access into the raw file, which is why the paper counts VA+file among the
   skip-sequential, random-access-bound methods (like ADS+), but with fewer
   accesses thanks to its tighter, data-adaptive cells.
"""

from __future__ import annotations

import numpy as np

from ...core.answers import KnnAnswerSet, RangeAnswerSet
from ...core.distance import squared_euclidean_batch
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.vaplus import VaPlusSummarizer
from ..base import SearchMethod

__all__ = ["VaPlusFileIndex"]


class VaPlusFileIndex(SearchMethod):
    """VA+file over DFT coefficients.

    Parameters
    ----------
    store:
        The raw-data store.
    coefficients:
        Number of DFT values retained (16 in the paper).
    bits_per_dimension:
        Average quantization bit budget per dimension (redistributed
        non-uniformly by energy).
    sample_size:
        Number of series sampled to learn the bit allocation and cells.
    refinement_batch:
        Candidates refined per batch; consecutive positions inside one batch are
        merged into contiguous skip-sequential reads.
    """

    name = "va+file"
    supports_approximate = True

    def __init__(
        self,
        store: SeriesStore,
        coefficients: int = 16,
        bits_per_dimension: int = 4,
        sample_size: int = 2048,
        refinement_batch: int = 64,
    ) -> None:
        super().__init__(store)
        coefficients = min(coefficients, store.length)
        self.summarizer = VaPlusSummarizer(store.length, coefficients, bits_per_dimension)
        self.coefficients = coefficients
        self.bits_per_dimension = bits_per_dimension
        self.sample_size = sample_size
        self.refinement_batch = max(1, refinement_batch)
        self._cells: np.ndarray | None = None

    # -- construction ----------------------------------------------------------------
    def _build(self) -> None:
        data = self.store.scan()
        sample_count = min(self.sample_size, self.store.count)
        self.summarizer.fit(data[:sample_count])
        self._cells = self.summarizer.transform_batch(data)

    def _collect_footprint(self) -> None:
        # The VA+file has no tree: its footprint is the approximation file.
        bits = (
            int(self.summarizer.bit_allocation.sum())
            if self.summarizer.bit_allocation is not None
            else self.coefficients * self.bits_per_dimension
        )
        approx_bytes = (bits * self.store.count + 7) // 8
        self.index_stats.total_nodes = 0
        self.index_stats.leaf_nodes = 0
        self.index_stats.memory_bytes = approx_bytes
        self.index_stats.disk_bytes = approx_bytes

    # -- search ----------------------------------------------------------------------------
    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        """Visit only the candidates in the k best cells (no guarantee)."""
        answers = KnnAnswerSet(k)
        query_dft = self.summarizer.dft_of(query)
        bounds = self.summarizer.lower_bound_batch(query_dft, self._cells)
        stats.lower_bounds_computed += bounds.shape[0]
        best = np.argsort(bounds, kind="stable")[: max(k, 16)]
        block = self.store.read_block(best)
        distances = squared_euclidean_batch(query, block)
        answers.offer_batch(best, distances)
        stats.series_examined += best.shape[0]
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        answers = self._make_answer_set(k)
        query_dft = self.summarizer.dft_of(query)

        # Phase 1: sequential scan of the approximation file.
        bounds = self.summarizer.lower_bound_batch(query_dft, self._cells)
        stats.lower_bounds_computed += bounds.shape[0]
        order = np.argsort(bounds, kind="stable")
        squared = bounds[order]
        squared *= squared

        # Phase 2: refinement in lower-bound order with early termination, a
        # batch of at most ``refinement_batch`` candidates per look at the
        # best-so-far.  ``side="right"``: a candidate whose bound ties the
        # k-th distance may still win the positional tie-break, so equality
        # must neither terminate the scan nor cut a batch short.
        cursor = 0
        while True:
            passing = int(
                np.searchsorted(squared, answers.worst_squared_distance, side="right")
            )
            stop = min(cursor + self.refinement_batch, passing)
            if stop <= cursor:
                break
            self._scan_runs(np.sort(order[cursor:stop]), query, answers, stats)
            cursor = stop
        return answers

    def _range_exact(
        self, query: np.ndarray, radius: float, stats: QueryStats
    ) -> RangeAnswerSet:
        """r-range query: refine exactly the series whose cell bound is in range."""
        answers = RangeAnswerSet(radius=radius)
        query_dft = self.summarizer.dft_of(query)
        bounds = self.summarizer.lower_bound_batch(query_dft, self._cells)
        stats.lower_bounds_computed += bounds.shape[0]
        self._scan_runs(np.flatnonzero(bounds <= radius), query, answers, stats)
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            coefficients=self.coefficients,
            bits_per_dimension=self.bits_per_dimension,
        )
        return info
