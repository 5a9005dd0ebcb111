"""ADS+ : the adaptive data series index, with the SIMS exact algorithm.

ADS+ builds the iSAX2+ tree (the shared
:class:`~repro.indexes.isax.tree.IsaxTree`) over the *summaries only*: leaves
are not materialized with raw data at build time, so no build buffer is
modelled and index construction is extremely cheap (one sequential pass to
compute summaries).  Exact queries use SIMS
(skip-sequential scan): an ng-approximate tree descent produces an initial
best-so-far, then the lower bound between the query and the full-resolution
iSAX summary of *every* series is evaluated; the raw file is finally scanned
skip-sequentially, reading only the stretches whose series were not pruned —
every gap in the scan costs one seek, which is exactly the behaviour the paper
identifies as the method's bottleneck on high-throughput HDDs.
"""

from __future__ import annotations

import numpy as np

from ...core.answers import KnnAnswerSet
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.sax import IsaxSummarizer, summarize_stream, symbolize_batch
from ..base import SearchMethod
from ..isax.tree import IsaxTree

__all__ = ["AdsPlusIndex"]


class AdsPlusIndex(SearchMethod):
    """ADS+ index (adaptive iSAX summaries + SIMS skip-sequential exact search).

    Parameters
    ----------
    store:
        The raw-data store.
    segments:
        Number of PAA segments / word length (16 in the paper).
    cardinality:
        Full-resolution per-segment cardinality (256 in the paper).
    leaf_capacity:
        Leaf threshold of the adaptive tree.  As the paper notes, the leaf size
        affects indexing but barely affects SIMS query answering.
    build_chunk_rows:
        Rows per streamed summarization chunk during construction (``None`` =
        the store's default); never changes the built tree.
    """

    name = "ads+"
    supports_approximate = True

    def __init__(
        self,
        store: SeriesStore,
        segments: int = 16,
        cardinality: int = 256,
        leaf_capacity: int = 100,
        build_chunk_rows: int | None = None,
    ) -> None:
        super().__init__(store, build_chunk_rows=build_chunk_rows)
        segments = min(segments, store.length)
        self.summarizer = IsaxSummarizer(store.length, segments, cardinality)
        self.segments = segments
        self.cardinality = cardinality
        self.leaf_capacity = leaf_capacity
        self.tree = IsaxTree(self.summarizer, leaf_capacity)
        self._paa: np.ndarray | None = None
        self._symbols: np.ndarray | None = None

    # -- construction -------------------------------------------------------------
    def _build(self) -> None:
        # One streamed sequential pass (accounted exactly like a scan())
        # computes both summary matrices SIMS keeps — the raw float64
        # collection is never resident, only one chunk of it.
        self._paa, self._symbols = summarize_stream(
            self.summarizer,
            self.store.scan_blocks(chunk_rows=self.build_chunk_rows),
            self.store.count,
            symbols=True,
        )
        self.tree.bulk_insert(self._paa)

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        """Summarize the new rows once, grow the full-resolution summary
        matrices SIMS scans by the whole block, and route it into the tree."""
        if start != self._paa.shape[0]:
            raise ValueError(
                f"appends must be contiguous: expected position "
                f"{self._paa.shape[0]}, got {start}"
            )
        paa = self.summarizer.paa.transform_batch(block)
        symbols = symbolize_batch(paa, self.cardinality).astype(self._symbols.dtype)
        self._paa = np.vstack([self._paa, paa])
        self._symbols = np.vstack([self._symbols, symbols])
        self.tree.insert_block(start, paa)

    def _collect_footprint(self) -> None:
        total = self.tree.record_shape(self.index_stats)
        per_series = self.segments * (8 + 2)
        self.index_stats.memory_bytes = self.store.count * per_series + total * 48
        # ADS+ keeps only summaries on disk next to the raw file.
        self.index_stats.disk_bytes = self.store.count * self.segments * 2

    # -- search ---------------------------------------------------------------------
    def _knn_approximate(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        # The SIMS exact path below grows this same answer set, so it goes
        # through the context-overridable factory.
        answers = self._make_answer_set(k)
        paa = self.summarizer.paa.transform(query)
        leaf = self.tree.leaf_for(paa)
        if leaf is not None:
            self._scan_leaves([leaf], query, answers, stats)
        return answers

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        """SIMS: approximate answer, full lower-bound pass, skip-sequential scan."""
        answers = self._knn_approximate(query, k, stats)
        paa = self.summarizer.paa.transform(query)

        # Lower bound between the query PAA and every full-resolution summary.
        bounds = self.summarizer.lower_bound_batch(paa, self._symbols)
        stats.lower_bounds_computed += bounds.shape[0]
        threshold = np.sqrt(answers.worst_squared_distance)
        # <=: candidates whose bound ties the k-th distance may still win the
        # positional tie-break, so equality must not be skipped.
        survivors = np.flatnonzero(bounds <= threshold)

        # Skip-sequential scan: every run of surviving positions costs a seek.
        # The threshold was fixed before the scan, so it is one refinement.
        self._scan_runs(survivors, query, answers, stats)
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            segments=self.segments,
            cardinality=self.cardinality,
            leaf_capacity=self.leaf_capacity,
            exact_algorithm="SIMS",
        )
        return info
