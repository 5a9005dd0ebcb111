"""Flat scan: the vectorized brute-force baseline and batch-execution showcase.

The flat scan answers exact k-NN queries with a plain vectorized pass over the
raw data using the norm-expansion identity
``||q - c||^2 = ||q||^2 + ||c||^2 - 2 <q, c>``: candidate norms are
precomputed once at build time and each query costs one matrix-vector product
per data tile.  Its real purpose is the *batch* path: ``knn_exact_batch``
answers a whole query batch with one ``(Q, N)`` distance-matrix tile pass —
the dot products of every query against every candidate in a tile come out of
a single GEMM call — which is where NumPy-backed Python recovers the paper's
"same optimized kernels for everyone" speed for multi-query workloads.
"""

from __future__ import annotations

import numpy as np

from ..core.answers import KnnAnswerSet
from ..core.stats import QueryStats
from ..core.storage import SeriesStore
from ..indexes.base import SearchMethod

__all__ = ["FlatScan"]


class FlatScan(SearchMethod):
    """Vectorized brute-force scan (exact, whole matching).

    Parameters
    ----------
    store:
        The raw-data store.
    tile_series:
        Memory-tiling knob: number of candidate series per distance-matrix
        tile.  The batch path materializes one ``(Q, tile_series)`` block of
        squared distances at a time, so peak extra memory is
        ``8 * Q * tile_series`` bytes regardless of the dataset size.
    """

    name = "flat"
    is_index = False
    supports_approximate = False

    def __init__(self, store: SeriesStore, tile_series: int = 4096) -> None:
        super().__init__(store)
        self.tile_series = max(1, int(tile_series))
        self._norms: np.ndarray | None = None

    def _build(self) -> None:
        """Precompute candidate squared norms (one streamed, RSS-bounded pass)."""
        self._norms = self._streamed_norms(chunk_rows=self.tile_series)

    def _insert_block(self, start: int, block: np.ndarray) -> None:
        """Grow the precomputed norms to cover newly ingested rows.

        The scan itself always walks the store's *current* rows; the only
        build-time state is the norm vector, so extending is one vectorized
        norm computation over the new rows.
        """
        fresh = np.einsum("ij,ij->i", block, block)
        self._norms = np.concatenate([self._norms[:start], fresh])

    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        if self.store.supports_quantized_scan:
            return self._knn_exact_pruned(query, k, stats)
        answers = self._make_answer_set(k)
        stats.series_examined += self.store.count
        q = np.asarray(query, dtype=np.float64)
        q_norm = float(np.dot(q, q))
        for start, raw in self.store.scan_chunks(chunk_rows=self.tile_series):
            stop = start + raw.shape[0]
            block = raw.astype(np.float64)
            norms = self._tile_norms(self._norms, block, start, stop)
            distances = norms + q_norm - 2.0 * (block @ q)
            np.clip(distances, 0.0, None, out=distances)
            answers.offer_batch(np.arange(start, stop), distances)
        return answers

    def _knn_exact_pruned(
        self, query: np.ndarray, k: int, stats: QueryStats
    ) -> KnnAnswerSet:
        """Two-phase scan on the compressed backend: filter quantized tiles
        against the tightening best-so-far radius, fetch full precision only
        for survivors.  Surviving tiles run the identical kernel at identical
        tile boundaries as the plain scan, and the quantized bound is sound,
        so the answers are byte-identical while the physical bytes read drop
        several-fold."""
        answers = self._make_answer_set(k)
        q = np.asarray(query, dtype=np.float64)
        q_norm = float(np.dot(q, q))
        q2 = q[np.newaxis, :]
        for start, stop, parts in self.store.scan_quantized_chunks(
            chunk_rows=self.tile_series
        ):
            stats.lower_bounds_computed += stop - start
            threshold = np.array([answers.worst_squared_distance])
            if not self._tile_survives_filter(parts, q2, threshold):
                continue
            raw = self.store.read_contiguous(start, stop)
            stats.series_examined += stop - start
            block = raw.astype(np.float64)
            norms = self._tile_norms(self._norms, block, start, stop)
            distances = norms + q_norm - 2.0 * (block @ q)
            np.clip(distances, 0.0, None, out=distances)
            answers.offer_batch(np.arange(start, stop), distances)
        return answers

    def _batch_answer_sets(self, queries: np.ndarray, k: int):
        """Exact k-NN for a whole query batch in one tiled distance-matrix pass.

        One GEMM per tile produces the ``(Q, tile)`` dot-product block shared
        by every query, so the raw-data pass, the dtype conversion, and the
        BLAS kernel are amortized over the batch; answers are identical to
        calling :meth:`knn_exact` per query (up to floating-point rounding of
        the underlying matrix product).
        """
        # One GEMM per tile: the dot products of the whole batch at once.
        return self._tiled_batch_scan(
            queries, k, self.tile_series, self._norms, lambda block: queries @ block.T
        )

    def describe(self) -> dict:
        info = super().describe()
        info["tile_series"] = self.tile_series
        return info
