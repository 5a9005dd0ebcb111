"""Discrete Haar Wavelet Transform (DHWT) summarization.

The Haar transform decomposes a series into a hierarchy of averages and
details.  With orthonormal scaling the transform preserves Euclidean distances
(Parseval), so the distance computed over any prefix of the coefficients
lower-bounds the true distance, and the remaining energy gives an upper bound.
The Stepwise method stores the coefficients *level by level* and filters the
candidate set one level at a time using both bounds.
"""

from __future__ import annotations

import numpy as np

from .base import Summarizer

__all__ = ["haar_transform", "inverse_haar_transform", "DhwtSummarizer"]


def _padded_length(n: int) -> int:
    """Smallest power of two >= n."""
    length = 1
    while length < n:
        length *= 2
    return length


def haar_transform(series: np.ndarray) -> np.ndarray:
    """Orthonormal Haar wavelet transform of one series or a batch.

    Series whose length is not a power of two are zero-padded; the transform is
    orthonormal so Euclidean distances are preserved on padded inputs (padding
    adds identical zeros to both series being compared).
    """
    arr = np.asarray(series, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    n = arr.shape[1]
    padded = _padded_length(n)
    if padded != n:
        arr = np.pad(arr, ((0, 0), (0, padded - n)))
    out = arr.copy()
    length = padded
    while length > 1:
        half = length // 2
        evens = out[:, 0:length:2]
        odds = out[:, 1:length:2]
        averages = (evens + odds) / np.sqrt(2.0)
        details = (evens - odds) / np.sqrt(2.0)
        out[:, :half] = averages
        out[:, half:length] = details
        length = half
    return out[0] if single else out


def inverse_haar_transform(coefficients: np.ndarray, original_length: int | None = None) -> np.ndarray:
    """Inverse of :func:`haar_transform` (orthonormal)."""
    arr = np.asarray(coefficients, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    padded = arr.shape[1]
    out = arr.copy()
    length = 2
    while length <= padded:
        half = length // 2
        averages = out[:, :half].copy()
        details = out[:, half:length].copy()
        evens = (averages + details) / np.sqrt(2.0)
        odds = (averages - details) / np.sqrt(2.0)
        merged = np.empty((arr.shape[0], length), dtype=np.float64)
        merged[:, 0::2] = evens
        merged[:, 1::2] = odds
        out[:, :length] = merged
        length *= 2
    if original_length is not None:
        out = out[:, :original_length]
    return out[0] if single else out


def level_slices(padded_length: int) -> list[slice]:
    """Coefficient slices per resolution level, coarsest first.

    Level 0 is the single overall-average coefficient; each following level
    doubles the number of detail coefficients.
    """
    slices = [slice(0, 1)]
    start = 1
    width = 1
    while start < padded_length:
        slices.append(slice(start, start + width))
        start += width
        width *= 2
    return slices


class DhwtSummarizer(Summarizer):
    """DHWT summarizer keeping the first ``dimensions`` Haar coefficients."""

    name = "dhwt"

    def __init__(self, series_length: int, coefficients: int = 16) -> None:
        super().__init__(series_length, coefficients)
        self.coefficients = coefficients
        self.padded_length = _padded_length(series_length)

    def transform(self, series: np.ndarray) -> np.ndarray:
        full = haar_transform(series)
        if full.ndim == 1:
            return full[: self.coefficients]
        return full[:, : self.coefficients]

    def lower_bound(self, query_summary: np.ndarray, candidate_summary: np.ndarray) -> float:
        q = np.asarray(query_summary, dtype=np.float64)
        c = np.asarray(candidate_summary, dtype=np.float64)
        diff = q - c
        return float(np.sqrt(np.dot(diff, diff)))

    def lower_bound_batch(
        self, query_summary: np.ndarray, candidate_summaries: np.ndarray
    ) -> np.ndarray:
        q = np.asarray(query_summary, dtype=np.float64)
        c = np.asarray(candidate_summaries, dtype=np.float64)
        if c.ndim == 1:
            c = c[np.newaxis, :]
        diff = c - q[np.newaxis, :]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    @staticmethod
    def prefix_bounds(
        query_coefficients: np.ndarray,
        candidate_coefficients: np.ndarray,
        prefix: int,
    ) -> tuple[float, float]:
        """(lower, upper) bounds on the true distance using the first ``prefix`` coefficients.

        The lower bound is the distance over the prefix; the upper bound adds
        the worst-case contribution of the remaining coefficients, bounded by
        the energy (norm) of the two tails via the triangle inequality.
        """
        q = np.asarray(query_coefficients, dtype=np.float64)
        c = np.asarray(candidate_coefficients, dtype=np.float64)
        head = q[:prefix] - c[:prefix]
        head_sq = float(np.dot(head, head))
        q_tail = q[prefix:]
        c_tail = c[prefix:]
        tail_norm = float(np.linalg.norm(q_tail) + np.linalg.norm(c_tail))
        lower = float(np.sqrt(head_sq))
        upper = float(np.sqrt(head_sq + tail_norm * tail_norm))
        return lower, upper
