"""Tests for SAX / iSAX summarization and MINDIST."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import euclidean
from repro.core.series import znormalize
from repro.summarization.sax import IsaxSummarizer, SaxWord, sax_breakpoints


class TestBreakpoints:
    def test_cardinality_two_is_zero(self):
        breakpoints = sax_breakpoints(2)
        assert breakpoints.shape == (1,)
        assert abs(breakpoints[0]) < 1e-9

    def test_breakpoints_are_increasing(self):
        for cardinality in (2, 4, 8, 16, 64, 256):
            breakpoints = sax_breakpoints(cardinality)
            assert breakpoints.shape == (cardinality - 1,)
            assert np.all(np.diff(breakpoints) > 0)

    def test_symmetry(self):
        breakpoints = sax_breakpoints(8)
        assert np.allclose(breakpoints, -breakpoints[::-1], atol=1e-9)

    def test_rejects_cardinality_below_two(self):
        with pytest.raises(ValueError):
            sax_breakpoints(1)

    def test_quartiles_of_standard_normal(self):
        breakpoints = sax_breakpoints(4)
        assert np.allclose(breakpoints, [-0.6745, 0.0, 0.6745], atol=1e-3)


class TestSaxWord:
    def test_segment_region_edges(self):
        word = SaxWord(symbols=(0, 3), cardinalities=(4, 4))
        low0, high0 = word.segment_region(0)
        assert low0 == -np.inf
        low1, high1 = word.segment_region(1)
        assert high1 == np.inf

    def test_promote_doubles_cardinality(self):
        word = SaxWord(symbols=(1,), cardinalities=(2,))
        promoted = word.promote(0, paa_value=0.5)
        assert promoted.cardinalities == (4,)
        low, high = promoted.segment_region(0)
        assert low <= 0.5 <= high

    def test_prefix_symbol(self):
        word = SaxWord(symbols=(5,), cardinalities=(8,))
        assert word.prefix_symbol(0, 8) == 5
        assert word.prefix_symbol(0, 4) == 2
        assert word.prefix_symbol(0, 2) == 1
        with pytest.raises(ValueError):
            word.prefix_symbol(0, 16)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SaxWord(symbols=(1, 2), cardinalities=(4,))


class TestIsaxSummarizer:
    def test_symbol_range(self):
        summarizer = IsaxSummarizer(64, segments=8, cardinality=16)
        rng = np.random.default_rng(0)
        symbols = summarizer.transform_batch(znormalize(rng.standard_normal((20, 64))))
        assert symbols.min() >= 0
        assert symbols.max() < 16

    def test_rejects_non_power_of_two_cardinality(self):
        with pytest.raises(ValueError):
            IsaxSummarizer(64, segments=8, cardinality=10)

    def test_word_contains_its_own_paa(self):
        summarizer = IsaxSummarizer(64, segments=8, cardinality=64)
        rng = np.random.default_rng(1)
        series = znormalize(rng.standard_normal(64))
        paa = summarizer.paa.transform(series)
        word = summarizer.word(series)
        for j in range(8):
            low, high = word.segment_region(j)
            assert low <= paa[j] <= high

    def test_mindist_zero_for_own_word(self):
        summarizer = IsaxSummarizer(64, segments=8, cardinality=64)
        rng = np.random.default_rng(2)
        series = znormalize(rng.standard_normal(64))
        paa = summarizer.paa.transform(series)
        word = summarizer.word(series)
        assert summarizer.mindist_paa_to_word(paa, word) == pytest.approx(0.0)

    def test_lower_bound_batch_matches_scalar(self):
        summarizer = IsaxSummarizer(64, segments=16, cardinality=256)
        rng = np.random.default_rng(3)
        data = znormalize(rng.standard_normal((10, 64)))
        query = znormalize(rng.standard_normal(64))
        q_paa = summarizer.paa.transform(query)
        symbols = summarizer.transform_batch(data)
        batch = summarizer.lower_bound_batch(q_paa, symbols)
        scalar = [summarizer.lower_bound(q_paa, row) for row in symbols]
        assert np.allclose(batch, scalar, atol=1e-9)

    @given(
        hnp.arrays(np.float64, 64, elements=st.floats(-10, 10, allow_nan=False)),
        hnp.arrays(np.float64, 64, elements=st.floats(-10, 10, allow_nan=False)),
        st.sampled_from([4, 16, 64, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_mindist_lower_bounds_euclidean(self, a, b, cardinality):
        """MINDIST(query PAA, candidate word) <= ED(query, candidate)."""
        a = znormalize(a).astype(np.float64)
        b = znormalize(b).astype(np.float64)
        summarizer = IsaxSummarizer(64, segments=16, cardinality=cardinality)
        q_paa = summarizer.paa.transform(a)
        word = summarizer.word(b)
        assert summarizer.mindist_paa_to_word(q_paa, word) <= euclidean(a, b) + 1e-6

    def test_mindist_symbols_lower_bounds(self):
        summarizer = IsaxSummarizer(64, segments=16, cardinality=256)
        rng = np.random.default_rng(5)
        a = znormalize(rng.standard_normal(64)).astype(np.float64)
        b = znormalize(rng.standard_normal(64)).astype(np.float64)
        q_sym = summarizer.transform(a)
        word = summarizer.word(b)
        assert summarizer.mindist_symbols(q_sym, word) <= euclidean(a, b) + 1e-6

    def test_coarser_word_gives_looser_bound(self):
        summarizer = IsaxSummarizer(64, segments=8, cardinality=256)
        rng = np.random.default_rng(6)
        a = znormalize(rng.standard_normal(64)).astype(np.float64)
        b = znormalize(rng.standard_normal(64)).astype(np.float64)
        q_paa = summarizer.paa.transform(a)
        fine = summarizer.word(b, tuple([256] * 8))
        coarse = summarizer.word(b, tuple([2] * 8))
        assert summarizer.mindist_paa_to_word(q_paa, coarse) <= (
            summarizer.mindist_paa_to_word(q_paa, fine) + 1e-9
        )


def _lower_bound_batch_expressions(summarizer, query_paa, symbols):
    """``IsaxSummarizer.lower_bound_batch`` before it became table-driven: the
    same per-cell expressions evaluated for every candidate cell (reference)."""
    q = np.asarray(query_paa, dtype=np.float64)
    syms = np.asarray(symbols)
    breakpoints = sax_breakpoints(summarizer.cardinality)
    low = np.where(syms == 0, -np.inf, breakpoints[np.clip(syms - 1, 0, None)])
    high = np.where(
        syms == summarizer.cardinality - 1,
        np.inf,
        breakpoints[np.clip(syms, 0, len(breakpoints) - 1)],
    )
    below = np.clip(low - q[np.newaxis, :], 0.0, None)
    above = np.clip(q[np.newaxis, :] - high, 0.0, None)
    gap = np.where(np.isfinite(below), below, 0.0) + np.where(np.isfinite(above), above, 0.0)
    return np.sqrt(summarizer._segment_width * np.sum(gap * gap, axis=1))


class TestTableDrivenLowerBound:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_the_per_cell_expressions(self, data):
        cardinality = data.draw(st.sampled_from([2, 4, 16, 256]))
        segments = data.draw(st.sampled_from([1, 4, 8, 16]))
        summarizer = IsaxSummarizer(segments * 4, segments, cardinality)
        query_paa = data.draw(
            hnp.arrays(np.float64, segments, elements=st.floats(-4, 4, allow_nan=False))
        )
        rows = data.draw(st.integers(1, 40))
        # the edge symbols 0 and cardinality - 1 (unbounded cells) are over-represented
        symbol = st.one_of(st.sampled_from([0, cardinality - 1]), st.integers(0, cardinality - 1))
        symbols = data.draw(hnp.arrays(np.int16, (rows, segments), elements=symbol))
        got = summarizer.lower_bound_batch(query_paa, symbols)
        want = _lower_bound_batch_expressions(summarizer, query_paa, symbols)
        assert got.tobytes() == want.tobytes()
        assert got[0] == pytest.approx(summarizer.lower_bound(query_paa, symbols[0]), abs=1e-9)
