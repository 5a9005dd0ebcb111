"""Tests for APCA, EAPCA and the DSTree node synopsis bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import euclidean
from repro.summarization.apca import ApcaSummarizer, apca_transform
from repro.summarization.eapca import (
    EapcaSummarizer,
    NodeSynopsis,
    batch_segment_statistics,
)


class TestApca:
    def test_transform_reaches_segment_budget(self):
        series = np.concatenate([np.zeros(16), np.ones(16), np.full(16, 5.0)])
        segments = apca_transform(series, 3)
        assert len(segments) == 3
        assert segments[0].start == 0
        assert segments[-1].end == series.shape[0]

    def test_segments_cover_series_contiguously(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(64)
        segments = apca_transform(series, 8)
        assert segments[0].start == 0
        for prev, nxt in zip(segments, segments[1:]):
            assert prev.end == nxt.start
        assert segments[-1].end == 64

    def test_segment_means_are_exact(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal(32)
        for segment in apca_transform(series, 4):
            assert segment.mean == pytest.approx(series[segment.start : segment.end].mean())

    def test_piecewise_constant_series_zero_error(self):
        series = np.concatenate([np.full(8, 1.0), np.full(8, -2.0)])
        segments = apca_transform(series, 2)
        reconstruction = np.concatenate(
            [np.full(s.width, s.mean) for s in segments]
        )
        assert np.allclose(reconstruction, series)

    def test_more_segments_than_points(self):
        series = np.arange(4.0)
        segments = apca_transform(series, 10)
        assert len(segments) == 4

    def test_invalid_segment_count(self):
        with pytest.raises(ValueError):
            apca_transform(np.arange(4.0), 0)

    def test_summarizer_reconstruct_roundtrip_shape(self):
        summarizer = ApcaSummarizer(32, 4)
        series = np.random.default_rng(2).standard_normal(32)
        summary = summarizer.transform(series)
        reconstruction = summarizer.reconstruct(summary)
        assert reconstruction.shape == (32,)

    def test_summarizer_lower_bound_is_valid(self):
        summarizer = ApcaSummarizer(32, 4)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        bound = summarizer.lower_bound(summarizer.transform(a), summarizer.transform(b))
        assert bound <= euclidean(a, b) + 1e-6


class TestEapca:
    def test_transform_layout(self):
        summarizer = EapcaSummarizer(32, 4)
        series = np.random.default_rng(4).standard_normal(32)
        summary = summarizer.transform(series)
        assert summary.shape == (8,)
        # first segment's mean / std
        assert summary[0] == pytest.approx(series[:8].mean())
        assert summary[1] == pytest.approx(series[:8].std())

    def test_batch_shape(self):
        summarizer = EapcaSummarizer(32, 4)
        batch = np.random.default_rng(5).standard_normal((6, 32))
        assert summarizer.transform_batch(batch).shape == (6, 8)

    @given(
        hnp.arrays(np.float64, 32, elements=st.floats(-50, 50, allow_nan=False)),
        hnp.arrays(np.float64, 32, elements=st.floats(-50, 50, allow_nan=False)),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_summary_lower_bounds_euclidean(self, a, b, segments):
        summarizer = EapcaSummarizer(32, segments)
        bound = summarizer.lower_bound(summarizer.transform(a), summarizer.transform(b))
        assert bound <= euclidean(a, b) + 1e-6


class TestNodeSynopsis:
    @pytest.fixture()
    def synopsis_and_data(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((50, 32))
        summarizer = EapcaSummarizer(32, 4)
        synopsis = NodeSynopsis.from_series(data, summarizer.boundaries)
        return synopsis, data

    def test_lower_bound_holds_for_members(self, synopsis_and_data):
        synopsis, data = synopsis_and_data
        rng = np.random.default_rng(7)
        query = rng.standard_normal(32)
        bound = synopsis.lower_bound(query)
        for row in data:
            assert bound <= euclidean(query, row) + 1e-6

    def test_upper_bound_holds_for_members(self, synopsis_and_data):
        synopsis, data = synopsis_and_data
        rng = np.random.default_rng(8)
        query = rng.standard_normal(32)
        upper = synopsis.upper_bound(query)
        # The upper bound must dominate the distance to at least one member
        # (it dominates all of them by construction).
        distances = [euclidean(query, row) for row in data]
        assert upper >= min(distances) - 1e-6
        assert upper >= max(distances) - 1e-6

    def test_update_extends_ranges(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((5, 32))
        summarizer = EapcaSummarizer(32, 4)
        boundaries = summarizer.boundaries
        synopsis = NodeSynopsis.from_series(base, boundaries)
        block = np.vstack([np.full(32, 100.0), rng.standard_normal((6, 32)) * 3])
        means, stds = batch_segment_statistics(block, boundaries)
        synopsis.fold(means, stds)
        assert synopsis.segments[0].mean_max == pytest.approx(100.0)
        # Folding a block whole, row by row, or building over everything at
        # once leaves the same floats (min/max compose exactly).
        by_row = NodeSynopsis.from_series(base, boundaries)
        for i in range(len(block)):
            by_row.fold(means[i : i + 1], stds[i : i + 1])
        whole = NodeSynopsis.from_series(np.vstack([base, block]), boundaries)
        assert synopsis.segments == by_row.segments == whole.segments

    def test_fold_skips_nan_statistics(self):
        boundaries = EapcaSummarizer(8, 2).boundaries
        synopsis = NodeSynopsis.from_series(np.arange(8.0), boundaries)
        before = [vars(seg).copy() for seg in synopsis.segments]
        means = np.array([[np.nan, 9.0], [np.nan, np.nan]])
        synopsis.fold(means, means)
        assert vars(synopsis.segments[0]) == before[0]
        assert synopsis.segments[1].mean_max == 9.0 == synopsis.segments[1].std_max

    def test_member_has_zero_lower_bound(self, synopsis_and_data):
        synopsis, data = synopsis_and_data
        assert synopsis.lower_bound(data[0]) == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_property_bounds_bracket_true_distance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((20, 16))
        query = rng.standard_normal(16)
        summarizer = EapcaSummarizer(16, 4)
        synopsis = NodeSynopsis.from_series(data, summarizer.boundaries)
        lower = synopsis.lower_bound(query)
        upper = synopsis.upper_bound(query)
        distances = [euclidean(query, row) for row in data]
        assert lower <= min(distances) + 1e-6
        assert upper >= max(distances) - 1e-6
