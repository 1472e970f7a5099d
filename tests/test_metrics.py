"""Tests of similarity metrics, edge-spread metrology and the scans."""

import math

import numpy as np
import pytest

from twinphase.core import (
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    generate_test_target,
)
from twinphase.metrics import (
    FWHM_FACTOR,
    esf_fit,
    lsf_fwhm_with_aperture,
    noise_suppression_scan,
    pearson,
    quantum_advantage,
    step_heights,
)
from twinphase.retrieval import RetrievalConfig
from twinphase.twinbeam import expected_counts, sample_twin_frame


def field(values, pitch=1.0):
    values = np.asarray(values, dtype=float)
    h, w = values.shape
    return ScalarField2D(w, h, pitch, values)


class TestPearson:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        f = field(rng.standard_normal((16, 16)))
        assert pearson(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        a = field(rng.standard_normal((16, 16)))
        b = field(rng.standard_normal((16, 16)))
        direct = pearson(a, b)
        scaled = pearson(a.with_values(3.0 * a.values + 7.0), b)
        assert abs(scaled - direct) < 1e-12

    def test_negative_scale_flips_sign(self):
        rng = np.random.default_rng(2)
        a = field(rng.standard_normal((16, 16)))
        b = field(rng.standard_normal((16, 16)))
        assert pearson(a.with_values(-a.values), b) == pytest.approx(-pearson(a, b))

    def test_constant_image_rejected(self):
        a = field(np.ones((16, 16)))
        b = field(np.random.default_rng(3).standard_normal((16, 16)))
        with pytest.raises(ValueError):
            pearson(a, b)


class TestEsfFit:
    def synth(self, a, b, x0, w, n=64, pitch=0.5):
        from scipy.special import erf

        x = np.arange(n) * pitch
        return x, 0.5 * a * erf((x - x0) / (math.sqrt(2.0) * w)) + b

    def test_exact_recovery(self):
        a, b, x0, w = 1.0, 0.2, 16.0, 1.0  # w = 2 px at pitch 0.5
        x, y = self.synth(a, b, x0, w)
        fit = esf_fit(y, x=x)
        assert fit.ok
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert fit.b == pytest.approx(b, rel=1e-6)
        assert fit.x0 == pytest.approx(x0, rel=1e-6)
        assert fit.w == pytest.approx(w, rel=1e-6)

    def test_fwhm_numerology(self):
        # w = 2 px -> LSF FWHM = 2 sqrt(2 ln 2) * 2 = 4.71 px
        x, y = self.synth(1.0, 0.0, 16.0, 2.0, pitch=1.0)
        fit = esf_fit(y, x=x)
        assert FWHM_FACTOR * fit.w == pytest.approx(4.71, abs=0.01)

    def test_explicit_sample_positions(self):
        x, y = self.synth(1.0, 0.0, 16.0, 1.5)
        fit = esf_fit(y, x=x + 0.0)
        assert fit.ok and fit.w == pytest.approx(1.5, rel=1e-6)

    def test_short_profile_flagged(self):
        fit = esf_fit(np.arange(5.0), x=np.arange(5.0))
        assert not fit.ok
        assert math.isnan(fit.w)

    def test_flat_profile_flagged(self):
        fit = esf_fit(np.zeros(32), x=np.arange(32.0))
        assert not fit.ok

    def test_noisy_ci_coverage(self):
        # planted w must fall inside its own 95% CI in >= 90 of 100 trials
        rng = np.random.default_rng(12345)
        a, w = 1.0, 1.2
        x, clean = self.synth(a, 0.0, 16.0, w)
        hits = 0
        for _ in range(100):
            y = clean + rng.normal(0.0, 0.01 * a, size=clean.size)
            fit = esf_fit(y, x=x)
            if fit.ok and fit.w_ci[0] <= w <= fit.w_ci[1]:
                hits += 1
        assert hits >= 90


class TestLsfAperture:
    def test_zero_aperture_reduces_to_gaussian_fwhm(self):
        assert lsf_fwhm_with_aperture(0.0, 2.0) == pytest.approx(FWHM_FACTOR * 2.0)

    def test_zero_width_reduces_to_aperture(self):
        assert lsf_fwhm_with_aperture(19.5, 0.0) == pytest.approx(19.5)

    def test_bounded_by_components(self):
        for aperture, w in [(1.0, 2.0), (10.0, 1.0), (5.0, 5.0)]:
            g = FWHM_FACTOR * w
            r = lsf_fwhm_with_aperture(aperture, w)
            assert max(aperture, g) <= r <= aperture + g

    def test_large_aperture_limit(self):
        # box much wider than the Gaussian: FWHM approaches the box width
        assert lsf_fwhm_with_aperture(50.0, 1.0) == pytest.approx(50.0, rel=0.01)


class TestStepHeights:
    def test_exact_target(self):
        obj = generate_test_target(220, 220, 1.625)
        steps = step_heights(obj.phi)
        assert steps["background"] == 0.0
        assert steps["pi"] == pytest.approx(-0.226)
        assert steps["null"] == pytest.approx(0.345)

    def test_binned_target(self):
        from twinphase.twinbeam import bin_counts

        obj = generate_test_target(220, 220, 1.625)
        binned = bin_counts(obj.phi, 3)
        binned = binned.with_values(binned.values / 9.0)
        steps = step_heights(binned, bin_px=3, fine_shape=(220, 220))
        assert steps["background"] == pytest.approx(0.0, abs=1e-12)
        assert steps["pi"] == pytest.approx(-0.226, abs=0.01)
        assert steps["null"] == pytest.approx(0.345, abs=0.01)


class TestQuantumAdvantage:
    def test_identical_k_gives_ratio_one(self):
        # a numeric k_mode of 0 runs the identical pipeline in both
        # branches, so the ratio must be exactly 1
        sys_ = OpticalSystem()
        twin = TwinBeamConfig(mean_photons_per_pixel=150.0)
        grid = ScalarField2D(32, 32, sys_.object_pixel, np.zeros((32, 32)))
        mean_s, mean_i = expected_counts(None, sys_, twin, 0.0, grid=grid)
        base = RngStream(17)
        triples = []
        for i in range(2):
            fm = sample_twin_frame(None, sys_, twin, 0.0, base.child(3 * i), grid=grid)
            f0 = sample_twin_frame(None, sys_, twin, 0.0, base.child(3 * i + 1), grid=grid)
            fp = sample_twin_frame(None, sys_, twin, 0.0, base.child(3 * i + 2), grid=grid)
            triples.append((fm, f0, fp))
        cfg = RetrievalConfig(
            dz=0.025,
            k_mode=0.0,
            reference_mean=mean_s,
            reference_mean_idler=mean_i,
            sys=sys_,
            twin=twin,
        )
        rng = np.random.default_rng(18)
        ref_vals = ScalarField2D(32, 32, sys_.object_pixel, rng.standard_normal((32, 32)))
        from twinphase.retrieval import PhaseImage

        ref = PhaseImage(values=ref_vals)
        adv = quantum_advantage(triples, cfg, ref)
        assert adv.ratio == 1.0
        assert adv.c_quant == adv.c_clas
        assert len(adv.c_quant_frames) == 2


class TestNoiseSuppressionScan:
    def test_range_and_delta_kernel_limit(self):
        rows = noise_suppression_scan(
            (0.5, 20.0),
            64,
            64,
            1.625,
            dz=0.025,
            i0=600.0,
            wavenumber=OpticalSystem().wavenumber,
            rng=RngStream(77),
            n_trials=2,
        )
        for row in rows:
            assert 0.0 <= row["suppression_pct"] <= 100.0
        # near-delta kernel: almost perfect pixelwise correlation
        assert rows[0]["suppression_pct"] > 95.0
        assert rows[0]["suppression_pct"] >= rows[1]["suppression_pct"]
