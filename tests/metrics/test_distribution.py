"""Loss-distribution diagnostics (Figure 1)."""

import numpy as np
import pytest

from repro.metrics.distribution import (
    loss_histogram,
    overlap_coefficient,
    separability_gap,
)


class TestHistogram:
    def test_shared_bins(self):
        member = np.array([0.0, 0.1, 0.2])
        nonmember = np.array([2.0, 2.1, 2.2])
        hist = loss_histogram(member, nonmember, bins=10)
        assert len(hist.bin_edges) == 11
        assert hist.bin_edges[0] == 0.0 and hist.bin_edges[-1] == pytest.approx(2.2)
        assert len(hist.bin_centers) == 10

    def test_densities_integrate_to_one(self):
        rng = np.random.default_rng(0)
        hist = loss_histogram(rng.normal(size=100), rng.normal(2, 1, 100), bins=20)
        widths = np.diff(hist.bin_edges)
        assert (hist.member_density * widths).sum() == pytest.approx(1.0)
        assert (hist.nonmember_density * widths).sum() == pytest.approx(1.0)

    def test_degenerate_constant_losses(self):
        hist = loss_histogram(np.zeros(5), np.zeros(5))
        assert np.isfinite(hist.member_density).all()


class TestOverlap:
    def test_disjoint_populations(self):
        assert overlap_coefficient(np.zeros(50), np.full(50, 10.0)) < 0.1

    def test_identical_populations(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=500)
        assert overlap_coefficient(samples, samples) == pytest.approx(1.0)

    def test_partial_overlap_in_between(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 500)
        b = rng.normal(1, 1, 500)
        value = overlap_coefficient(a, b)
        assert 0.2 < value < 0.9


class TestGapAndRendering:
    def test_separability_gap_sign(self):
        assert separability_gap(np.zeros(3), np.ones(3)) == 1.0
        assert separability_gap(np.ones(3), np.zeros(3)) == -1.0
