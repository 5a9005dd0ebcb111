"""Stepwise: multi-level filtering over vertically stored DHWT coefficients.

Stepwise is the hybrid between sequential scans and indexes evaluated in the
paper.  At preprocessing time every series is Haar-transformed and the
coefficients are stored *level by level* (all level-0 coefficients of every
series first, then all level-1 coefficients, and so on).  A query is answered
by scanning one level at a time: after reading a level, lower and upper bounds
on the true distance of every surviving candidate are refined, and candidates
whose lower bound exceeds the smallest k-th upper bound (or the best-so-far)
are discarded.  Candidates that survive every level are refined against the raw
data.  Locating the higher-resolution coefficients of the surviving candidates
requires random I/O, which is what drives the method's cost in the paper.
"""

from __future__ import annotations

import numpy as np

from ...core.answers import KnnAnswerSet
from ...core.stats import QueryStats
from ...core.storage import SeriesStore
from ...summarization.dhwt import DhwtSummarizer, haar_transform, level_slices
from ..base import SearchMethod

__all__ = ["StepwiseIndex"]


class StepwiseIndex(SearchMethod):
    """Stepwise multi-level filter.

    Parameters
    ----------
    store:
        The raw-data store.
    levels_per_step:
        Number of wavelet levels consumed per filtering step (1 reproduces the
        original level-at-a-time behaviour).
    """

    name = "stepwise"
    supports_approximate = False

    def __init__(self, store: SeriesStore, levels_per_step: int = 1) -> None:
        super().__init__(store)
        if levels_per_step < 1:
            raise ValueError("levels_per_step must be at least 1")
        self.levels_per_step = levels_per_step
        self.summarizer = DhwtSummarizer(store.length, min(16, store.length))
        self._coefficients: np.ndarray | None = None
        self._level_slices: list[slice] = []
        self._tail_energy: np.ndarray | None = None

    # -- construction --------------------------------------------------------------
    def _build(self) -> None:
        data = self.store.scan()
        self._coefficients = haar_transform(data)
        self._level_slices = level_slices(self._coefficients.shape[1])
        # Precompute per-series suffix energies: the norm of the coefficients at
        # or after each level, used for the upper bounds.
        padded = self._coefficients
        suffix = np.zeros((padded.shape[0], len(self._level_slices) + 1), dtype=np.float64)
        for level in range(len(self._level_slices) - 1, -1, -1):
            sl = self._level_slices[level]
            energy = np.einsum("ij,ij->i", padded[:, sl], padded[:, sl])
            suffix[:, level] = suffix[:, level + 1] + energy
        self._tail_energy = suffix

    def _collect_footprint(self) -> None:
        self.index_stats.total_nodes = len(self._level_slices)
        self.index_stats.leaf_nodes = 0
        self.index_stats.memory_bytes = (
            self._coefficients.nbytes if self._coefficients is not None else 0
        )
        self.index_stats.disk_bytes = self.index_stats.memory_bytes

    # -- search ---------------------------------------------------------------------
    def _knn_exact(self, query: np.ndarray, k: int, stats: QueryStats) -> KnnAnswerSet:
        answers = self._make_answer_set(k)
        query_coeffs = haar_transform(query)
        candidates = np.arange(self.store.count)
        partial = np.zeros(self.store.count, dtype=np.float64)
        query_tail = np.zeros(len(self._level_slices) + 1, dtype=np.float64)
        for level in range(len(self._level_slices) - 1, -1, -1):
            sl = self._level_slices[level]
            chunk = query_coeffs[sl]
            query_tail[level] = query_tail[level + 1] + float(np.dot(chunk, chunk))

        level = 0
        total_levels = len(self._level_slices)
        while level < total_levels and candidates.size > 0:
            stop_level = min(level + self.levels_per_step, total_levels)
            for current in range(level, stop_level):
                sl = self._level_slices[current]
                # Reading this level's coefficients for the surviving candidates:
                # one seek to the level's region plus sequential pages.
                width = sl.stop - sl.start
                self.store.counter.random_accesses += 1
                coeff_bytes = candidates.size * width * 4
                self.store.counter.sequential_pages += max(
                    1, coeff_bytes // self.store.page_bytes
                )
                self.store.counter.bytes_read += coeff_bytes
                diff = self._coefficients[candidates, sl] - query_coeffs[np.newaxis, sl]
                partial[candidates] += np.einsum("ij,ij->i", diff, diff)
                stats.lower_bounds_computed += candidates.size
            level = stop_level

            # Bounds after consuming levels [0, level):
            lower = np.sqrt(partial[candidates])
            tail_candidates = np.sqrt(self._tail_energy[candidates, level])
            tail_query = np.sqrt(query_tail[level])
            upper = np.sqrt(partial[candidates]) + tail_candidates + tail_query

            if candidates.size >= k:
                kth_upper = np.partition(upper, k - 1)[k - 1]
                keep = lower <= kth_upper
                candidates = candidates[keep]

        # Final refinement on the raw data for the surviving candidates.
        self._scan_runs(np.sort(candidates), query, answers, stats)
        return answers

    def describe(self) -> dict:
        info = super().describe()
        info["levels_per_step"] = self.levels_per_step
        return info
