"""Tests for the Haar wavelet (DHWT) and VA+ summarizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import euclidean
from repro.summarization.dhwt import (
    DhwtSummarizer,
    haar_transform,
    inverse_haar_transform,
    level_slices,
)
from repro.summarization.vaplus import (
    VaPlusSummarizer,
    allocate_bits,
    lloyd_max_boundaries,
)


class TestHaar:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(64)
        coeffs = haar_transform(series)
        restored = inverse_haar_transform(coeffs, original_length=64)
        assert np.allclose(restored, series, atol=1e-9)

    def test_roundtrip_non_power_of_two(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal(48)
        coeffs = haar_transform(series)
        restored = inverse_haar_transform(coeffs, original_length=48)
        assert np.allclose(restored, series, atol=1e-9)

    def test_orthonormal_distance_preservation(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(128), rng.standard_normal(128)
        da = haar_transform(a) - haar_transform(b)
        assert np.sqrt(np.dot(da, da)) == pytest.approx(euclidean(a, b), rel=1e-9)

    def test_first_coefficient_is_scaled_mean(self):
        series = np.arange(8.0)
        coeffs = haar_transform(series)
        assert coeffs[0] == pytest.approx(series.sum() / np.sqrt(8))

    def test_level_slices_cover_all(self):
        slices = level_slices(16)
        covered = sum(s.stop - s.start for s in slices)
        assert covered == 16
        assert slices[0] == slice(0, 1)

    @given(
        hnp.arrays(np.float64, 64, elements=st.floats(-100, 100, allow_nan=False)),
        hnp.arrays(np.float64, 64, elements=st.floats(-100, 100, allow_nan=False)),
        st.sampled_from([1, 2, 4, 8, 16, 32]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_prefix_lower_bounds(self, a, b, coefficients):
        summarizer = DhwtSummarizer(64, coefficients)
        bound = summarizer.lower_bound(summarizer.transform(a), summarizer.transform(b))
        assert bound <= euclidean(a, b) + 1e-6

    def test_prefix_bounds_bracket_distance(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(64), rng.standard_normal(64)
        qa, qb = haar_transform(a), haar_transform(b)
        true = euclidean(a, b)
        for prefix in (1, 4, 16, 64):
            lower, upper = DhwtSummarizer.prefix_bounds(qa, qb, prefix)
            assert lower <= true + 1e-9
            assert upper >= true - 1e-9

    def test_lower_bound_batch(self):
        summarizer = DhwtSummarizer(32, 8)
        rng = np.random.default_rng(4)
        q = summarizer.transform(rng.standard_normal(32))
        cands = summarizer.transform_batch(rng.standard_normal((5, 32)))
        batch = summarizer.lower_bound_batch(q, cands)
        scalar = [summarizer.lower_bound(q, c) for c in cands]
        assert np.allclose(batch, scalar)


class TestBitAllocation:
    def test_total_budget_respected(self):
        energies = np.array([10.0, 5.0, 1.0, 0.1])
        bits = allocate_bits(energies, 12)
        assert bits.sum() == 12

    def test_high_energy_gets_more_bits(self):
        energies = np.array([100.0, 1.0, 1.0, 1.0])
        bits = allocate_bits(energies, 8)
        assert bits[0] == bits.max()

    def test_zero_energy_gets_none(self):
        energies = np.array([1.0, 0.0])
        bits = allocate_bits(energies, 4)
        assert bits[1] == 0

    def test_zero_budget(self):
        assert allocate_bits(np.array([1.0, 2.0]), 0).sum() == 0


class TestLloydMax:
    def test_boundaries_increasing(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(500)
        boundaries = lloyd_max_boundaries(values, 8)
        assert boundaries.shape == (7,)
        assert np.all(np.diff(boundaries) >= 0)

    def test_degenerate_sample(self):
        boundaries = lloyd_max_boundaries(np.array([1.0, 1.0, 1.0]), 4)
        assert boundaries.shape == (3,)

    def test_single_level(self):
        assert lloyd_max_boundaries(np.arange(10.0), 1).shape == (0,)


class TestVaPlus:
    @pytest.fixture()
    def fitted(self):
        rng = np.random.default_rng(6)
        sample = np.cumsum(rng.standard_normal((256, 64)), axis=1)
        summarizer = VaPlusSummarizer(64, coefficients=8, bits_per_dimension=3)
        return summarizer.fit(sample), sample

    def test_requires_fit(self):
        summarizer = VaPlusSummarizer(64, 8)
        with pytest.raises(RuntimeError):
            summarizer.transform(np.zeros(64))

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            VaPlusSummarizer(64, 8, bits_per_dimension=0)

    def test_cells_in_range(self, fitted):
        summarizer, sample = fitted
        cells = summarizer.transform_batch(sample)
        for j, quantizer in enumerate(summarizer.quantizers):
            assert cells[:, j].max() < quantizer.levels
            assert cells[:, j].min() >= 0

    def test_non_uniform_allocation(self, fitted):
        summarizer, _ = fitted
        bits = summarizer.bit_allocation
        # Random-walk energy concentrates in low frequencies, so the allocation
        # must not be flat.
        assert bits.max() > bits.min()

    def test_lower_bound_is_valid(self, fitted):
        summarizer, sample = fitted
        rng = np.random.default_rng(7)
        query = rng.standard_normal(64)
        q_dft = summarizer.dft_of(query)
        for row in sample[:20]:
            bound = summarizer.lower_bound(q_dft, summarizer.transform(row))
            assert bound <= euclidean(query, row) + 1e-6

    def test_upper_bound_dominates_lower(self, fitted):
        summarizer, sample = fitted
        rng = np.random.default_rng(8)
        query = rng.standard_normal(64)
        q_dft = summarizer.dft_of(query)
        for row in sample[:20]:
            cells = summarizer.transform(row)
            assert summarizer.upper_bound(q_dft, cells) >= summarizer.lower_bound(
                q_dft, cells
            )

    def test_lower_bound_batch_matches_scalar(self, fitted):
        summarizer, sample = fitted
        rng = np.random.default_rng(9)
        query = rng.standard_normal(64)
        q_dft = summarizer.dft_of(query)
        cells = summarizer.transform_batch(sample[:15])
        batch = summarizer.lower_bound_batch(q_dft, cells)
        scalar = [summarizer.lower_bound(q_dft, c) for c in cells]
        assert np.allclose(batch, scalar, atol=1e-9)

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_property_lower_bounds_euclidean(self, seed):
        rng = np.random.default_rng(seed)
        sample = np.cumsum(rng.standard_normal((64, 32)), axis=1)
        summarizer = VaPlusSummarizer(32, coefficients=8, bits_per_dimension=2).fit(sample)
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        bound = summarizer.lower_bound(summarizer.dft_of(a), summarizer.transform(b))
        assert bound <= euclidean(a, b) + 1e-6


def _lower_bound_batch_expressions(summarizer, query_dft, cells):
    """``VaPlusSummarizer.lower_bound_batch`` before it became table-driven: the
    same per-cell expressions evaluated for every candidate cell (reference)."""
    q = np.asarray(query_dft, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    gaps = np.zeros_like(cells, dtype=np.float64)
    for j, quantizer in enumerate(summarizer.quantizers):
        if quantizer.bits == 0:
            continue
        padded = np.empty(quantizer.levels + 1, dtype=np.float64)
        padded[0] = -np.inf
        padded[-1] = np.inf
        padded[1:-1] = quantizer.boundaries
        below = np.clip(padded[cells[:, j]] - q[j], 0.0, None)
        above = np.clip(q[j] - padded[cells[:, j] + 1], 0.0, None)
        below = np.where(np.isfinite(below), below, 0.0)
        above = np.where(np.isfinite(above), above, 0.0)
        gaps[:, j] = below + above
    weights = summarizer.dft._weights
    return np.sqrt(np.sum(weights[np.newaxis, :] * gaps * gaps, axis=1))


class TestTableDrivenLowerBound:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_the_per_cell_expressions(self, data):
        seed = data.draw(st.integers(0, 2**16))
        bits = data.draw(st.sampled_from([1, 2, 4]))
        rng = np.random.default_rng(seed)
        # a smooth sample concentrates the energy in few DFT dimensions, so the
        # water-filling leaves others with zero bits (one unbounded cell)
        sample = np.cumsum(rng.standard_normal((64, 32)), axis=1)
        sample[:, 16:] = sample[:, 15:16]
        summarizer = VaPlusSummarizer(32, coefficients=8, bits_per_dimension=bits).fit(sample)
        cells = summarizer.transform_batch(
            np.cumsum(rng.standard_normal((data.draw(st.integers(1, 30)), 32)), axis=1) * 3
        )
        # force the edge cells 0 and levels - 1 into the first two rows
        levels = np.array([q.levels for q in summarizer.quantizers])
        cells = np.vstack([np.zeros_like(levels), levels - 1, cells])
        query_dft = summarizer.dft_of(np.cumsum(rng.standard_normal(32)))
        got = summarizer.lower_bound_batch(query_dft, cells)
        want = _lower_bound_batch_expressions(summarizer, query_dft, cells)
        assert got.tobytes() == want.tobytes()
        assert got[2] == pytest.approx(summarizer.lower_bound(query_dft, cells[2]), abs=1e-9)

    def test_zero_bit_dimensions_contribute_nothing(self):
        rng = np.random.default_rng(5)
        sample = np.cumsum(rng.standard_normal((64, 32)), axis=1)
        summarizer = VaPlusSummarizer(32, coefficients=8, bits_per_dimension=1).fit(sample)
        assert (summarizer.bit_allocation == 0).any()
        cells = summarizer.transform_batch(sample)
        query_dft = summarizer.dft_of(sample[3] + 0.5)
        got = summarizer.lower_bound_batch(query_dft, cells)
        assert got.tobytes() == _lower_bound_batch_expressions(summarizer, query_dft, cells).tobytes()
