"""Tests for the glancing-scale weights and sharp bands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glancelab import weights
from glancelab.weights import BandSpec, WeightSpec

H = st.floats(min_value=1e-4, max_value=0.5)
SIGMA = st.floats(min_value=-1.0, max_value=1.0)


class TestCutoffPair:
    @pytest.mark.parametrize("kind", ["exp", "smoothstep"])
    def test_partition_of_unity(self, kind):
        t = np.linspace(-2.0, 5.0, 301)
        c1, c2 = weights.cutoff_pair(t, kind)
        assert np.allclose(c1 + c2, 1.0, atol=0.0)

    @pytest.mark.parametrize("kind", ["exp", "smoothstep"])
    def test_support(self, kind):
        t = np.array([-3.0, 0.0, 1.0, 2.0, 2.5, 100.0])
        c1, _ = weights.cutoff_pair(t, kind)
        assert np.all(c1[:3] == 0.0)
        assert np.all(c1[3:] == 1.0)

    @pytest.mark.parametrize("kind", ["exp", "smoothstep"])
    def test_monotone_ramp(self, kind):
        t = np.linspace(1.0, 2.0, 200)
        c1, _ = weights.cutoff_pair(t, kind)
        assert np.all(np.diff(c1) >= 0.0)
        assert 0.0 < c1[100] < 1.0

    def test_exp_ramp_smooth_at_edges(self):
        # all one-sided difference quotients vanish at the glued ends
        for t0, side in ((1.0, +1), (2.0, -1)):
            h = 1e-3
            c1a, _ = weights.cutoff_pair(t0 + side * h)
            c1b, _ = weights.cutoff_pair(t0)
            assert abs(c1a - c1b) / h < 1e-5

    def test_scalar_matches_array(self):
        c1s, c2s = weights.cutoff_pair(1.4)
        c1a, c2a = weights.cutoff_pair(np.array([1.4]))
        assert c1s == c1a[0] and c2s == c2a[0]
        assert isinstance(c1s, float)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            weights.cutoff_pair(1.0, "boxcar")


class TestGlancingWeight:
    @settings(max_examples=60, deadline=None)
    @given(h=H, s=st.floats(min_value=0.0, max_value=1.0),
           rho=st.floats(min_value=0.1, max_value=1.0))
    def test_pure_power_far_from_glancing(self, h, s, rho):
        spec = WeightSpec(s=s, rho=rho)
        sigma = 2.0 * h ** rho * 1.0000001
        assert weights.glancing_weight(sigma, h, spec) == pytest.approx(
            sigma ** s, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(h=H, s=st.floats(min_value=0.0, max_value=1.0),
           rho=st.floats(min_value=0.1, max_value=1.0),
           frac=st.floats(min_value=-3.0, max_value=0.999))
    def test_frozen_inside_glancing_window(self, h, s, rho, frac):
        # everything at or below sigma = h^rho gets the frozen value,
        # including evanescent components with sigma < 0
        spec = WeightSpec(s=s, rho=rho)
        sigma = frac * h ** rho
        assert weights.glancing_weight(sigma, h, spec) == pytest.approx(
            h ** (s * rho), rel=1e-12, abs=0.0)

    def test_s_zero_is_identity(self):
        spec = WeightSpec(s=0.0, rho=2.0 / 3.0)
        sigma = np.linspace(-0.5, 1.0, 97)
        assert np.allclose(weights.glancing_weight(sigma, 0.01, spec), 1.0,
                           atol=0.0)

    @pytest.mark.parametrize("cutoff", ["exp", "smoothstep"])
    def test_array_matches_scalar_calls(self, cutoff):
        # one call per quasimode window must give each component's weight
        # bit for bit, including the glued ends and evanescent sigma
        spec = WeightSpec(s=0.3, rho=2.0 / 3.0, cutoff=cutoff)
        h = 0.01
        sigma = np.concatenate([np.linspace(-0.5, 1.0, 301),
                                [h ** spec.rho, 2.0 * h ** spec.rho]])
        got = weights.glancing_weight(sigma, h, spec)
        want = [weights.glancing_weight(x, h, spec) for x in sigma]
        assert got.tolist() == want
        assert all(isinstance(w, float) for w in want)

    def test_continuous_across_crossover(self):
        spec = WeightSpec(s=0.3, rho=0.5)
        h = 1e-3
        scale = h ** 0.5
        sigma = np.linspace(0.5 * scale, 3.0 * scale, 2001)
        g = weights.glancing_weight(sigma, h, spec)
        jumps = np.abs(np.diff(g)) / (g[:-1] + 1e-300)
        assert jumps.max() < 1e-2

    def test_between_envelopes_in_crossover(self):
        spec = WeightSpec(s=0.25, rho=0.6)
        h = 1e-2
        scale = h ** 0.6
        sigma = np.linspace(scale, 2.0 * scale, 50)
        g = weights.glancing_weight(sigma, h, spec)
        lo = np.minimum(sigma ** 0.25, h ** (0.25 * 0.6))
        hi = np.maximum(sigma ** 0.25, h ** (0.25 * 0.6))
        assert np.all(g >= lo - 1e-15) and np.all(g <= hi + 1e-15)

    def test_smoothstep_variant(self):
        spec = WeightSpec(s=0.3, rho=0.5, cutoff="smoothstep")
        h = 1e-3
        assert weights.glancing_weight(3.0 * h ** 0.5, h, spec) == pytest.approx(
            (3.0 * h ** 0.5) ** 0.3, rel=1e-12, abs=0.0)

    def test_rejects_bad_h(self):
        spec = WeightSpec(s=0.3, rho=0.5)
        for h in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                weights.glancing_weight(0.1, h, spec)


class TestArrayH:
    @settings(max_examples=60, deadline=None)
    @given(hs=st.lists(H, min_size=1, max_size=12),
           sigmas=st.lists(SIGMA, min_size=12, max_size=12),
           s=st.floats(min_value=-1.0, max_value=1.0),
           rho=st.floats(min_value=0.0, max_value=1.0),
           cutoff=st.sampled_from(["exp", "smoothstep"]),
           rho1=st.floats(min_value=0.0, max_value=0.5))
    def test_array_h_matches_scalar_calls(self, hs, sigmas, s, rho, cutoff,
                                          rho1):
        # one call on the columns of a sweep gives each row's weight and
        # band membership bit for bit
        h = np.array(hs)
        sigma = np.array(sigmas[:h.size])
        spec = WeightSpec(s=s, rho=rho, cutoff=cutoff)
        band = BandSpec(rho1=rho1, rho2=rho1 + 0.4)
        assert weights.glancing_weight(sigma, h, spec).tolist() == [
            weights.glancing_weight(x, y, spec) for x, y in zip(sigmas, hs)]
        assert weights.band_indicator(sigma, h, band).tolist() == [
            weights.band_indicator(x, y, band) for x, y in zip(sigmas, hs)]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, math.nan])
    def test_array_h_with_any_element_outside_rejected(self, bad):
        h = np.array([0.01, 0.1, bad, 0.5])
        sigma = np.full(4, 0.2)
        with pytest.raises(ValueError, match=r"h must lie in \(0, 1\)"):
            weights.glancing_weight(sigma, h, WeightSpec(s=0.3, rho=0.5))
        with pytest.raises(ValueError, match=r"h must lie in \(0, 1\)"):
            weights.band_indicator(sigma, h, BandSpec(rho1=0.3, rho2=0.6))


class TestBand:
    def test_endpoints_closed(self):
        band = BandSpec(rho1=0.3, rho2=0.6)
        h = 0.01
        assert weights.band_indicator(h ** 0.6, h, band)
        assert weights.band_indicator(h ** 0.3, h, band)
        assert not weights.band_indicator(h ** 0.6 * 0.999, h, band)
        assert not weights.band_indicator(h ** 0.3 * 1.001, h, band)

    def test_band_ordering_validated(self):
        with pytest.raises(ValueError):
            BandSpec(rho1=0.6, rho2=0.3)
        with pytest.raises(ValueError):
            BandSpec(rho1=0.3, rho2=0.3)


class TestTraceNorm:
    def test_single_component(self):
        r = 0.5
        assert weights.trace_norm([2.0], r) == pytest.approx(
            2.0 * math.sqrt(2.0 * math.pi * r), rel=1e-14, abs=0.0)

    def test_complex_components(self):
        r = 0.5
        a = np.array([3 + 4j, 0.0])
        assert weights.trace_norm(a, r) == pytest.approx(
            5.0 * math.sqrt(math.pi), rel=1e-14, abs=0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            weights.trace_norm([1.0], 0.0)

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
    def test_rejects_radius_outside_positive_reals(self, radius):
        # unchecked, nan gave a nan norm and inf an infinite one
        with pytest.raises(ValueError, match="radius must be positive"):
            weights.trace_norm([1.0], radius)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8))
    def test_scaling_homogeneity(self, amps):
        n1 = weights.trace_norm(np.array(amps), 0.5)
        n2 = weights.trace_norm(2.0 * np.array(amps), 0.5)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12, abs=1e-12)


class TestWeightSpecValidation:
    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec(s=0.3, rho=-0.1)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec(s=0.3, rho=0.5, cutoff="hann")

    @pytest.mark.parametrize("s, rho", [(math.nan, 0.5), (math.inf, 0.5),
                                        (-math.inf, 0.5), (0.3, math.inf),
                                        (0.3, math.nan)])
    def test_non_finite_rejected(self, s, rho):
        with pytest.raises(ValueError):
            WeightSpec(s=s, rho=rho)
