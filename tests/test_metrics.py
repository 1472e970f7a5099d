"""Tests of similarity metrics, edge-spread metrology and the scans."""

import math
import time

import numpy as np
import pytest

from twinphase import metrics
from twinphase.core import (
    FWHM_TO_SIGMA,
    NumericalError,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    generate_test_target,
)
from twinphase.metrics import (
    esf_fit,
    lsf_fwhm_with_aperture,
    noise_suppression_scan,
    pearson,
    resolution_scan,
    step_heights,
)
from twinphase.optics import IntensityStack
from twinphase.retrieval import PhaseImage, RetrievalConfig
from test_twinbeam import use_threads


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
        with pytest.raises(NumericalError):
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
        assert fit.w / FWHM_TO_SIGMA == pytest.approx(4.71, abs=0.01)

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
    def test_zero_width_reduces_to_aperture(self):
        assert lsf_fwhm_with_aperture(19.5, 0.0) == pytest.approx(19.5)

    def test_bounded_by_components(self):
        for aperture, w in [(1.0, 2.0), (10.0, 1.0), (5.0, 5.0)]:
            g = w / FWHM_TO_SIGMA
            r = lsf_fwhm_with_aperture(aperture, w)
            assert max(aperture, g) <= r <= aperture + g

    def test_large_aperture_limit(self):
        # box much wider than the Gaussian: FWHM approaches the box width
        assert lsf_fwhm_with_aperture(50.0, 1.0) == pytest.approx(50.0, rel=0.01)


class TestStepHeights:
    def test_exact_target(self):
        obj = generate_test_target(220, 220, 1.625)
        steps = step_heights(obj.phi, 1, (220, 220))
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
        # the same coefficients in both branches, as a numeric k_mode of
        # 0 gives them, must give a ratio of exactly 1
        coeffs = [0.31, 0.27]
        stats = metrics.ratio_statistics(coeffs, coeffs)
        assert stats["c_quant"] / stats["c_clas"] == 1.0
        assert stats["c_quant"] == stats["c_clas"]
        assert stats["c_quant_frames"] == (0.31, 0.27)

    def test_memory_peak_in_grid_arrays(self, monkeypatch, traced_peak):
        """Twelve frames on two threads peak at 40-43 float64 arrays
        of the 220-pixel grid: each thread holds one triple and its
        solves, so the peak does not grow with the frame count."""
        use_threads(monkeypatch, 2)
        peak = traced_peak(
            lambda: metrics.advantage_scan(
                [0.025], 12, OpticalSystem(), TwinBeamConfig(), RngStream(5)
            )
        )
        assert peak / (220 * 220 * 8) <= 50


class TestNoiseSuppressionScan:
    def test_range_and_delta_kernel_limit(self):
        rows = noise_suppression_scan(
            (0.5, 20.0), 64, 64, OpticalSystem(), TwinBeamConfig(), RngStream(77), n_trials=2
        )
        for row in rows:
            assert 0.0 <= row["suppression_pct"] <= 100.0
        # near-delta kernel: almost perfect pixelwise correlation
        assert rows[0]["suppression_pct"] > 95.0
        assert rows[0]["suppression_pct"] >= rows[1]["suppression_pct"]


class TestResolutionScan:
    DZ = (0.0125, 0.025, 0.05, 0.1)

    def scan(self, dz_list, bins=(1, 3)):
        """The scan of ``scan resolution`` at the default configuration."""
        return resolution_scan(dz_list, bins, OpticalSystem(), TwinBeamConfig())

    def test_rows_independent_of_thread_count(self, monkeypatch):
        runs = []
        for threads in (1, 2):
            use_threads(monkeypatch, threads)
            runs.append(self.scan(self.DZ))
        # the serial loop: one dz point per call, on the calling thread
        use_threads(monkeypatch, 1)
        runs.append([row for dz in self.DZ for row in self.scan([dz])])
        assert runs[0] == runs[1] == runs[2]  # a failed fit raises

    def test_edge_rows_where_the_pitch_rounds(self, monkeypatch):
        """The bin-1 profile averages the fine rows 108-112 around the
        edge row 110, also at a pitch (camera_pixel 5 / magnification
        3.25) at which 110 * pitch / pitch is not 110 in floating point."""
        sys_ = OpticalSystem(camera_pixel=5.0, magnification=3.25)
        rows = field(np.repeat(np.arange(220.0)[:, None], 220, axis=1), sys_.object_pixel)

        def row_index_phase(planes, config):
            return PhaseImage(values=rows)

        monkeypatch.setattr(metrics, "tie_retrieve", row_index_phase)
        cfg = RetrievalConfig(dz=0.025, sys=sys_)
        _, vals = metrics._interleaved_edge_samples(IntensityStack(rows, rows, rows), cfg, 1)
        assert vals.size == 88 and np.all(vals == 110.0)

    def test_failing_point_of_lowest_dz_index_raises(self, monkeypatch):
        real_stack = metrics.defocus_stack

        def stack_failing_at_two_points(field, dz, *args, **kwargs):
            index = self.DZ.index(dz)
            if index == 2:
                time.sleep(0.05)  # index 3 fails first on a second thread
            if index >= 2:
                raise ValueError(f"no stack at dz index {index}")
            return real_stack(field, dz, *args, **kwargs)

        monkeypatch.setattr(metrics, "defocus_stack", stack_failing_at_two_points)
        for threads in (1, 2):
            use_threads(monkeypatch, threads)
            with pytest.raises(ValueError, match="no stack at dz index 2"):
                self.scan(self.DZ, bins=(1,))

    def test_memory_peak_in_grid_arrays(self, monkeypatch, traced_peak):
        """Two dz points in flight, on two threads, peak at 26-31 float64
        arrays of the 220-pixel grid (39-43 when each point held the whole
        padded transfer function and its row transform)."""
        use_threads(monkeypatch, 2)
        peak = traced_peak(lambda: self.scan(self.DZ, bins=(1, 3, 6, 12)))
        assert peak / (220 * 220 * 8) <= 34

    def test_memory_peak_one_thread_in_grid_arrays(self, monkeypatch, traced_peak):
        """One dz point at a time peaks at 20.1-20.3 arrays of the grid (29.0
        before), in a TIE solve's second step, with the exit field's padded
        spectrum (8 arrays) alive."""
        use_threads(monkeypatch, 1)
        peak = traced_peak(lambda: self.scan(self.DZ, bins=(1, 3, 6, 12)))
        assert peak / (220 * 220 * 8) <= 22.5
