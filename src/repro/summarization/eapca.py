"""EAPCA summarization (Extended Adaptive Piecewise Constant Approximation).

EAPCA represents each segment of a series by its mean *and* standard deviation.
It is the summarization behind the DSTree index: a DSTree node keeps, for every
segment, the range of means and the range of standard deviations of the series
it contains ("node synopsis"), and derives both a lower- and an upper-bounding
distance from a query to the node (Wang et al., VLDB 2013).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Summarizer

__all__ = [
    "EapcaSummarizer",
    "SegmentSynopsis",
    "NodeSynopsis",
    "batch_segment_statistics",
    "synopsis_from_statistics",
    "synopsis_from_stream",
    "query_segment_stats",
    "stack_synopses",
    "synopses_lower_bounds",
]


def _segment_stats(series: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-segment (mean, std) for one series or a batch; shape (..., 2*segments)."""
    arr = np.asarray(series, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    segments = len(boundaries) - 1
    out = np.empty((arr.shape[0], 2 * segments), dtype=np.float64)
    for j in range(segments):
        chunk = arr[:, boundaries[j] : boundaries[j + 1]]
        out[:, 2 * j] = chunk.mean(axis=1)
        out[:, 2 * j + 1] = chunk.std(axis=1)
    return out[0] if single else out


def batch_segment_statistics(
    data: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``(means, stds)`` matrices of a series block.

    Returns two ``(series, segments)`` float64 matrices using the same
    ``np.mean``/``np.std`` arithmetic as the per-series paths, so bulk split
    decisions and incremental routing agree to floating-point accuracy.  The
    DSTree bulk loader scores every candidate split policy of a node from one
    call over the node's whole position block.
    """
    arr = np.asarray(data, dtype=np.float64)
    segments = len(boundaries) - 1
    means = np.empty((arr.shape[0], segments), dtype=np.float64)
    stds = np.empty((arr.shape[0], segments), dtype=np.float64)
    for j in range(segments):
        chunk = arr[:, boundaries[j] : boundaries[j + 1]]
        means[:, j] = chunk.mean(axis=1)
        stds[:, j] = chunk.std(axis=1)
    return means, stds


def synopsis_from_statistics(
    boundaries: np.ndarray, means: np.ndarray, stds: np.ndarray
) -> "NodeSynopsis":
    """A :class:`NodeSynopsis` from already-computed per-row segment statistics.

    ``means``/``stds`` are ``(series, segments)`` columns over ``boundaries``
    (e.g. a node's streamed split statistics, possibly masked to one child's
    rows).  Identical to :meth:`NodeSynopsis.from_series` over the raw block —
    the min/max of the same float values — without touching the raw data
    again, which is how the streamed DSTree build hands synopses to children
    of a horizontal split.
    """
    segs = [
        SegmentSynopsis(
            mean_min=float(means[:, j].min()),
            mean_max=float(means[:, j].max()),
            std_min=float(stds[:, j].min()),
            std_max=float(stds[:, j].max()),
            width=int(boundaries[j + 1] - boundaries[j]),
        )
        for j in range(len(boundaries) - 1)
    ]
    return NodeSynopsis(boundaries=np.asarray(boundaries, dtype=np.int64), segments=segs)


def synopsis_from_stream(blocks, boundaries: np.ndarray) -> "NodeSynopsis":
    """A :class:`NodeSynopsis` accumulated over a chunked stream of raw rows.

    Folds each chunk's per-row segment statistics into running min/max
    ranges; min/max compose exactly across chunks, so the result is bitwise
    identical to :meth:`NodeSynopsis.from_series` over the concatenated
    block.  Used where no reusable stat columns exist (children of a vertical
    DSTree split, whose refined segmentation differs from the parent's).
    """
    segments = len(boundaries) - 1
    mean_min = np.full(segments, np.inf)
    mean_max = np.full(segments, -np.inf)
    std_min = np.full(segments, np.inf)
    std_max = np.full(segments, -np.inf)
    for _, block in blocks:
        means, stds = batch_segment_statistics(block, boundaries)
        np.minimum(mean_min, means.min(axis=0), out=mean_min)
        np.maximum(mean_max, means.max(axis=0), out=mean_max)
        np.minimum(std_min, stds.min(axis=0), out=std_min)
        np.maximum(std_max, stds.max(axis=0), out=std_max)
    segs = [
        SegmentSynopsis(
            mean_min=float(mean_min[j]),
            mean_max=float(mean_max[j]),
            std_min=float(std_min[j]),
            std_max=float(std_max[j]),
            width=int(boundaries[j + 1] - boundaries[j]),
        )
        for j in range(segments)
    ]
    return NodeSynopsis(boundaries=np.asarray(boundaries, dtype=np.int64), segments=segs)


@dataclass
class SegmentSynopsis:
    """Min/max of the per-series segment means and standard deviations."""

    mean_min: float
    mean_max: float
    std_min: float
    std_max: float
    width: int

    def contains_mean(self, value: float) -> bool:
        return self.mean_min <= value <= self.mean_max


@dataclass
class NodeSynopsis:
    """Synopsis of a set of series over a common segmentation.

    This is the structure a DSTree node maintains; the lower/upper bounding
    distances between a query and the node are computed from it.
    """

    boundaries: np.ndarray
    segments: list

    @classmethod
    def from_series(cls, series: np.ndarray, boundaries: np.ndarray) -> "NodeSynopsis":
        arr = np.atleast_2d(np.asarray(series, dtype=np.float64))
        return synopsis_from_statistics(
            boundaries, *batch_segment_statistics(arr, boundaries)
        )

    def fold(self, means: np.ndarray, stds: np.ndarray) -> None:
        """Grow the synopsis to cover a block of rows.

        ``means``/``stds`` are the rows' ``(rows, segments)`` statistics over
        this segmentation (see :func:`batch_segment_statistics`).  Each range
        becomes its union with the block's column min/max — the floats
        :func:`synopsis_from_statistics` reduces — and min/max compose
        exactly, so a block folded whole, in pieces or row by row leaves the
        same ranges.  NaN statistics never widen a range (``fmin``/``fmax``
        and the comparisons below both skip them).
        """
        columns = zip(
            self.segments,
            np.fmin.reduce(means, axis=0).tolist(),
            np.fmax.reduce(means, axis=0).tolist(),
            np.fmin.reduce(stds, axis=0).tolist(),
            np.fmax.reduce(stds, axis=0).tolist(),
        )
        for seg, mean_min, mean_max, std_min, std_max in columns:
            seg.mean_min = min(seg.mean_min, mean_min)
            seg.mean_max = max(seg.mean_max, mean_max)
            seg.std_min = min(seg.std_min, std_min)
            seg.std_max = max(seg.std_max, std_max)

    # -- bounding distances ---------------------------------------------------
    def lower_bound(self, query: np.ndarray) -> float:
        """Lower bound on the Euclidean distance from ``query`` to any series here.

        For each segment, the squared distance is at least
        ``width * (mean gap)^2 + width * (std gap)^2`` where the gaps are the
        distances from the query segment's mean/std to the node's ranges
        (zero when inside the range).
        """
        q = np.asarray(query, dtype=np.float64)
        total = 0.0
        for j, seg in enumerate(self.segments):
            chunk = q[self.boundaries[j] : self.boundaries[j + 1]]
            q_mean = float(chunk.mean())
            q_std = float(chunk.std())
            if q_mean < seg.mean_min:
                mean_gap = seg.mean_min - q_mean
            elif q_mean > seg.mean_max:
                mean_gap = q_mean - seg.mean_max
            else:
                mean_gap = 0.0
            if q_std < seg.std_min:
                std_gap = seg.std_min - q_std
            elif q_std > seg.std_max:
                std_gap = q_std - seg.std_max
            else:
                std_gap = 0.0
            total += seg.width * (mean_gap * mean_gap + std_gap * std_gap)
        return float(np.sqrt(total))

    def upper_bound(self, query: np.ndarray) -> float:
        """Upper bound on the distance from ``query`` to *some* series in the node.

        Per segment the distance can be at most
        ``width * (max mean gap)^2 + width * (q_std + max std)^2``; this mirrors
        the (loose but safe) upper bound the DSTree uses for split decisions.
        """
        q = np.asarray(query, dtype=np.float64)
        total = 0.0
        for j, seg in enumerate(self.segments):
            chunk = q[self.boundaries[j] : self.boundaries[j + 1]]
            q_mean = float(chunk.mean())
            q_std = float(chunk.std())
            mean_gap = max(abs(q_mean - seg.mean_min), abs(q_mean - seg.mean_max))
            std_sum = q_std + seg.std_max
            total += seg.width * (mean_gap * mean_gap + std_sum * std_sum)
        return float(np.sqrt(total))


def query_segment_stats(
    query: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment ``(means, stds, widths)`` of a query over one segmentation.

    Uses the same ``np.mean``/``np.std`` arithmetic as the scalar
    :meth:`NodeSynopsis.lower_bound`, so batch and scalar bounds agree to
    floating-point accuracy.  Callers cache the result per (query,
    segmentation) pair — a DSTree traversal revisits the same few
    segmentations at every node.
    """
    q = np.asarray(query, dtype=np.float64)
    segments = len(boundaries) - 1
    means = np.empty(segments, dtype=np.float64)
    stds = np.empty(segments, dtype=np.float64)
    for j in range(segments):
        chunk = q[boundaries[j] : boundaries[j + 1]]
        means[j] = chunk.mean()
        stds[j] = chunk.std()
    widths = np.diff(np.asarray(boundaries, dtype=np.float64))
    return means, stds, widths


def stack_synopses(synopses) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack the per-segment ranges of synopses sharing one segmentation.

    Returns ``(mean_min, mean_max, std_min, std_max)`` matrices of shape
    ``(nodes, segments)`` — the array-native summary a DSTree node caches for
    its children so a query bounds the whole child set in one call.
    """
    mean_min = np.array([[s.mean_min for s in syn.segments] for syn in synopses])
    mean_max = np.array([[s.mean_max for s in syn.segments] for syn in synopses])
    std_min = np.array([[s.std_min for s in syn.segments] for syn in synopses])
    std_max = np.array([[s.std_max for s in syn.segments] for syn in synopses])
    return mean_min, mean_max, std_min, std_max


def synopses_lower_bounds(
    query_means: np.ndarray,
    query_stds: np.ndarray,
    widths: np.ndarray,
    stacked: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Vectorized :meth:`NodeSynopsis.lower_bound` over many synopses at once.

    ``stacked`` comes from :func:`stack_synopses`; the query-side arrays come
    from :func:`query_segment_stats`.  Every synopsis must share the
    segmentation the query stats were computed over.
    """
    mean_min, mean_max, std_min, std_max = stacked
    q_mean = query_means[np.newaxis, :]
    q_std = query_stds[np.newaxis, :]
    mean_gap = np.maximum(mean_min - q_mean, 0.0) + np.maximum(q_mean - mean_max, 0.0)
    std_gap = np.maximum(std_min - q_std, 0.0) + np.maximum(q_std - std_max, 0.0)
    total = np.sum(widths[np.newaxis, :] * (mean_gap * mean_gap + std_gap * std_gap), axis=1)
    return np.sqrt(total)


class EapcaSummarizer(Summarizer):
    """EAPCA summarizer: per-segment (mean, std) with a lower-bounding distance."""

    name = "eapca"

    def __init__(self, series_length: int, segments: int = 8) -> None:
        super().__init__(series_length, min(segments, series_length))
        self.segments = min(segments, series_length)
        base = series_length // self.segments
        remainder = series_length % self.segments
        widths = np.full(self.segments, base, dtype=np.int64)
        widths[:remainder] += 1
        self.boundaries = np.zeros(self.segments + 1, dtype=np.int64)
        self.boundaries[1:] = np.cumsum(widths)
        self._widths = widths.astype(np.float64)

    def transform(self, series: np.ndarray) -> np.ndarray:
        return _segment_stats(series, self.boundaries)

    def transform_batch(self, series: np.ndarray) -> np.ndarray:
        arr = np.asarray(series)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        return _segment_stats(arr, self.boundaries)

    def lower_bound(self, query_summary: np.ndarray, candidate_summary: np.ndarray) -> float:
        """Lower bound from two EAPCA summaries.

        Uses ``width * ((mean difference)^2 + (std difference)^2)`` per segment,
        which lower-bounds the true squared distance for series sharing the
        segmentation.
        """
        q = np.asarray(query_summary, dtype=np.float64)
        c = np.asarray(candidate_summary, dtype=np.float64)
        mean_diff = q[0::2] - c[0::2]
        std_diff = q[1::2] - c[1::2]
        total = np.sum(self._widths * (mean_diff * mean_diff + std_diff * std_diff))
        return float(np.sqrt(total))

    def synopsis(self, series: np.ndarray) -> NodeSynopsis:
        """Build a node synopsis over a batch of series."""
        return NodeSynopsis.from_series(series, self.boundaries)
