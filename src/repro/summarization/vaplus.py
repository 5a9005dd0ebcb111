"""VA+ quantization: the approximation scheme behind the VA+file.

The VA+file improves on the VA-file in two ways examined by the paper: it first
decorrelates the data with an energy-compacting transform (the paper swaps the
original KLT for DFT for efficiency, and so does this implementation), then
(a) allocates quantization bits *non-uniformly* across dimensions proportionally
to their energy, and (b) places the decision intervals of each dimension with
k-means (Lloyd's algorithm) instead of equi-depth binning.  The resulting cell
of a candidate yields lower and upper bounds on its distance to any query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Summarizer
from .dft import DftSummarizer

__all__ = ["VaPlusSummarizer", "allocate_bits", "lloyd_max_boundaries"]


def allocate_bits(energies: np.ndarray, total_bits: int) -> np.ndarray:
    """Allocate ``total_bits`` across dimensions proportionally to their energy.

    Greedy water-filling: repeatedly give one bit to the dimension with the
    highest remaining (halved per bit already assigned) energy.  Dimensions with
    zero energy receive no bits.
    """
    energy = np.asarray(energies, dtype=np.float64).copy()
    bits = np.zeros(energy.shape[0], dtype=np.int64)
    if total_bits <= 0:
        return bits
    remaining = energy.copy()
    for _ in range(total_bits):
        j = int(np.argmax(remaining))
        if remaining[j] <= 0:
            break
        bits[j] += 1
        remaining[j] /= 4.0  # each extra bit quarters the quantization error
    return bits


def lloyd_max_boundaries(
    values: np.ndarray, levels: int, iterations: int = 20
) -> np.ndarray:
    """1-d k-means (Lloyd-Max) decision boundaries for ``levels`` cells.

    Returns ``levels - 1`` increasing boundaries.  Falls back to quantile
    boundaries when the sample has too few distinct values.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if levels <= 1:
        return np.empty(0, dtype=np.float64)
    unique = np.unique(data)
    if unique.shape[0] <= levels:
        # Degenerate sample: place boundaries between the distinct values.
        mids = (unique[:-1] + unique[1:]) / 2.0
        pad = np.full(max(0, levels - 1 - mids.shape[0]), unique[-1] + 1e-9)
        return np.concatenate([mids, pad])[: levels - 1]

    # Initialize centroids at equi-depth quantiles.
    quantiles = np.linspace(0, 1, levels + 2)[1:-1]
    centroids = np.quantile(data, quantiles)[:levels]
    for _ in range(iterations):
        boundaries = (centroids[:-1] + centroids[1:]) / 2.0
        assignment = np.searchsorted(boundaries, data, side="left")
        new_centroids = centroids.copy()
        for cell in range(levels):
            members = data[assignment == cell]
            if members.shape[0]:
                new_centroids[cell] = members.mean()
        if np.allclose(new_centroids, centroids):
            centroids = new_centroids
            break
        centroids = np.sort(new_centroids)
    boundaries = (centroids[:-1] + centroids[1:]) / 2.0
    return np.maximum.accumulate(boundaries)


@dataclass
class _DimensionQuantizer:
    """Quantization grid of one transformed dimension."""

    bits: int
    boundaries: np.ndarray  # length 2**bits - 1 (empty when bits == 0)

    @property
    def levels(self) -> int:
        return 1 << self.bits

    def quantize(self, values: np.ndarray) -> np.ndarray:
        if self.bits == 0:
            return np.zeros(np.asarray(values).shape, dtype=np.int64)
        return np.searchsorted(self.boundaries, values, side="left").astype(np.int64)

    def cell_bounds(self, cell: int) -> tuple[float, float]:
        if self.bits == 0:
            return -np.inf, np.inf
        low = -np.inf if cell == 0 else float(self.boundaries[cell - 1])
        high = np.inf if cell >= self.levels - 1 else float(self.boundaries[cell])
        return low, high


class VaPlusSummarizer(Summarizer):
    """VA+ summarizer: DFT + energy-based bit allocation + Lloyd-Max cells.

    Parameters
    ----------
    series_length:
        Length of the series.
    coefficients:
        Number of DFT values retained before quantization (16 in the paper).
    bits_per_dimension:
        Average bit budget per retained dimension; the total budget
        ``coefficients * bits_per_dimension`` is redistributed non-uniformly.
    """

    name = "va+"

    def __init__(
        self,
        series_length: int,
        coefficients: int = 16,
        bits_per_dimension: int = 4,
    ) -> None:
        super().__init__(series_length, coefficients)
        if bits_per_dimension <= 0:
            raise ValueError("bits_per_dimension must be positive")
        self.coefficients = coefficients
        self.total_bits = coefficients * bits_per_dimension
        self.dft = DftSummarizer(series_length, coefficients)
        self.quantizers: list[_DimensionQuantizer] | None = None
        self.bit_allocation: np.ndarray | None = None

    # -- training -------------------------------------------------------------
    def fit(self, sample: np.ndarray) -> "VaPlusSummarizer":
        """Learn the bit allocation and per-dimension cells from a data sample."""
        arr = np.asarray(sample, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        coeffs = self.dft.transform_batch(arr)
        energies = coeffs.var(axis=0) * self.dft._weights
        bits = allocate_bits(energies, self.total_bits)
        quantizers = []
        for j in range(self.coefficients):
            if bits[j] == 0:
                quantizers.append(_DimensionQuantizer(bits=0, boundaries=np.empty(0)))
                continue
            boundaries = lloyd_max_boundaries(coeffs[:, j], 1 << int(bits[j]))
            quantizers.append(_DimensionQuantizer(bits=int(bits[j]), boundaries=boundaries))
        self.quantizers = quantizers
        self.bit_allocation = bits
        return self

    def _require_fitted(self) -> list[_DimensionQuantizer]:
        if self.quantizers is None:
            raise RuntimeError("VaPlusSummarizer.fit must be called before transforming")
        return self.quantizers

    # -- transforms --------------------------------------------------------------
    def transform(self, series: np.ndarray) -> np.ndarray:
        """Cell indices (the 'approximation') of one series or a batch."""
        quantizers = self._require_fitted()
        coeffs = self.dft.transform_batch(np.atleast_2d(np.asarray(series)))
        cells = np.empty_like(coeffs, dtype=np.int64)
        for j, quantizer in enumerate(quantizers):
            cells[:, j] = quantizer.quantize(coeffs[:, j])
        arr = np.asarray(series)
        return cells[0] if arr.ndim == 1 else cells

    def transform_batch(self, series: np.ndarray) -> np.ndarray:
        arr = np.asarray(series)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        return self.transform(arr)

    def dft_of(self, series: np.ndarray) -> np.ndarray:
        """Raw DFT coefficients of a series (the query side of the bounds)."""
        return self.dft.transform(series)

    # -- distances ---------------------------------------------------------------
    def lower_bound(self, query_summary: np.ndarray, candidate_summary: np.ndarray) -> float:
        """Lower bound from the query's DFT coefficients to a candidate's cell."""
        quantizers = self._require_fitted()
        q = np.asarray(query_summary, dtype=np.float64)
        cells = np.asarray(candidate_summary, dtype=np.int64)
        gaps = np.zeros(self.coefficients, dtype=np.float64)
        for j, quantizer in enumerate(quantizers):
            low, high = quantizer.cell_bounds(int(cells[j]))
            if q[j] < low:
                gaps[j] = low - q[j]
            elif q[j] > high:
                gaps[j] = q[j] - high
        weights = self.dft._weights
        return float(np.sqrt(np.sum(weights * gaps * gaps)))

    def upper_bound(self, query_summary: np.ndarray, candidate_summary: np.ndarray) -> float:
        """Upper bound on the retained-coefficient distance (finite only when
        every populated cell is bounded; unbounded edge cells yield ``inf``)."""
        quantizers = self._require_fitted()
        q = np.asarray(query_summary, dtype=np.float64)
        cells = np.asarray(candidate_summary, dtype=np.int64)
        total = 0.0
        weights = self.dft._weights
        for j, quantizer in enumerate(quantizers):
            low, high = quantizer.cell_bounds(int(cells[j]))
            if not np.isfinite(low) or not np.isfinite(high):
                return float("inf")
            gap = max(abs(q[j] - low), abs(q[j] - high))
            total += weights[j] * gap * gap
        return float(np.sqrt(total))

    def lower_bound_batch(
        self, query_summary: np.ndarray, candidate_summaries: np.ndarray
    ) -> np.ndarray:
        quantizers = self._require_fitted()
        q = np.asarray(query_summary, dtype=np.float64)
        cells = np.asarray(candidate_summaries, dtype=np.int64)
        if cells.ndim == 1:
            cells = cells[np.newaxis, :]
        # A cell's contribution depends on (dimension, cell) only: tabulate the
        # weighted squared gap of every cell of every dimension once per query
        # (the VA-file lookup table; dimension j's cells start at offsets[j]),
        # then gather one entry per candidate cell and sum each row.  A
        # zero-bit dimension has the single unbounded cell 0: gap 0.
        edges = [
            np.concatenate(([-np.inf], quantizer.boundaries, [np.inf]))
            for quantizer in quantizers
        ]
        levels = np.array([edge.size - 1 for edge in edges])
        offsets = np.cumsum(levels) - levels
        value = np.repeat(q, levels)
        below = np.clip(np.concatenate([edge[:-1] for edge in edges]) - value, 0.0, None)
        above = np.clip(value - np.concatenate([edge[1:] for edge in edges]), 0.0, None)
        gap = np.where(np.isfinite(below), below, 0.0) + np.where(
            np.isfinite(above), above, 0.0
        )
        table = np.repeat(self.dft._weights, levels) * gap * gap
        return np.sqrt(np.sum(table[cells + offsets], axis=1))
