"""Tests of similarity metrics, edge-spread metrology and the scans."""

import math
import time

import numpy as np
import pytest
from scipy import optimize
from scipy.ndimage import binary_erosion

from twinphase import fitting, metrics
from twinphase.core import (
    FWHM_TO_SIGMA,
    NumericalError,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    generate_test_target,
    target_masks,
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
from test_runtime import use_threads

# The port itself, whichever function a test puts in its place on ``fitting``.
port_brentq, port_curve_fit = fitting.brentq, fitting.curve_fit


class TestPearson:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        f = ScalarField2D(1.0, rng.standard_normal((16, 16)))
        assert pearson(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        a = ScalarField2D(1.0, rng.standard_normal((16, 16)))
        b = ScalarField2D(1.0, rng.standard_normal((16, 16)))
        direct = pearson(a, b)
        scaled = pearson(a.with_values(3.0 * a.values + 7.0), b)
        assert abs(scaled - direct) < 1e-12

    def test_negative_scale_flips_sign(self):
        rng = np.random.default_rng(2)
        a = ScalarField2D(1.0, rng.standard_normal((16, 16)))
        b = ScalarField2D(1.0, rng.standard_normal((16, 16)))
        assert pearson(a.with_values(-a.values), b) == pytest.approx(-pearson(a, b))

    def test_constant_image_rejected(self):
        a = ScalarField2D(1.0, np.ones((16, 16)))
        b = ScalarField2D(1.0, np.random.default_rng(3).standard_normal((16, 16)))
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
        assert fit.w == pytest.approx(w, rel=1e-6)
        assert fit.w_ci[0] <= w <= fit.w_ci[1]

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


def outcome(fit, *args, **kwargs):
    """The bytes of each array ``fit`` returns, or its exception's type and message."""
    try:
        return [np.asarray(a).tobytes() for a in fit(*args, **kwargs)]
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def fit_calls(monkeypatch):
    """The arguments of every ``fitting.curve_fit`` that ``esf_fit`` makes."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return port_curve_fit(*args, **kwargs)

    monkeypatch.setattr(fitting, "curve_fit", recorded)
    return calls


class TestBitsOfScipyOptimize:
    """``twinphase.fitting`` ports the code paths of scipy 1.17.1's
    ``optimize.curve_fit`` (bounded, trust-region reflective) and
    ``optimize.brentq``, the oracle here: the same bytes, or the same
    exception and message."""

    def assert_calls_match_scipy(self, calls):
        """Each call's outcome, asserted equal to scipy's."""
        outcomes = [outcome(port_curve_fit, *args, **kwargs) for args, kwargs in calls]
        for (args, kwargs), got in zip(calls, outcomes):
            assert got == outcome(optimize.curve_fit, *args, **kwargs)
        return outcomes

    def test_curve_fit_on_resolution_scan_profiles(self, fit_calls, monkeypatch):
        """The 32 edge fits of two configurations' resolution scans."""
        use_threads(monkeypatch, 1)
        for sys_ in (OpticalSystem(), OpticalSystem(camera_pixel=5.0, magnification=3.25)):
            resolution_scan((0.0125, 0.025, 0.05, 0.1), (1, 3, 6, 12), sys_, TwinBeamConfig())
        assert len(fit_calls) == 32
        self.assert_calls_match_scipy(fit_calls)

    def test_curve_fit_on_a_seeded_sweep(self, fit_calls):
        """Clean and noisy edges 1e-3 to 30 px wide, inside the profile
        and past either end: some fits end against a bound on the edge
        position, and steps that leave the bounds are cut at a bound and
        reflected off it (282 reflections in the 111 fits)."""
        rng = np.random.default_rng(30)
        x = np.arange(40.0)
        for trial in range(120):
            a, b = rng.normal(0.0, 2.0), rng.normal(0.0, 1.0)
            x0, w = rng.uniform(-10.0, 50.0), 10.0 ** rng.uniform(-3.0, 1.5)
            noise = rng.normal(0.0, 10.0 ** rng.uniform(-4.0, -1.0), x.size) * (trial % 2)
            esf_fit(metrics._esf_model(x, a, b, x0, w) + noise, x)
        popts = [popt for popt, _ in self.assert_calls_match_scipy(fit_calls)]
        edges = np.frombuffer(b"".join(popts)).reshape(-1, 4)[:, 2]
        assert np.sum(np.minimum(edges - x[0], x[-1] - edges) < 1e-9) >= 5  # 11 of 111

    @pytest.mark.parametrize("case", ["nan_profile", "decreasing_x", "edge_guess_outside"])
    def test_curve_fit_errors_of_esf_fit(self, fit_calls, case):
        x, y = np.arange(32.0), np.linspace(-1.0, 1.0, 32)
        if case == "nan_profile":
            y[5] = np.nan
        elif case == "decreasing_x":
            x = x[::-1].copy()  # bounds with lower > upper
        else:
            x[16] = 40.0  # the edge guess x[16] past the last sample
        fit = esf_fit(y, x)
        assert not fit.ok and len(fit_calls) == 1
        self.assert_calls_match_scipy(fit_calls)
        assert (ValueError, fit.message) == outcome(optimize.curve_fit, *fit_calls[0][0], **fit_calls[0][1])

    @pytest.mark.parametrize("p0, maxfev, message", [
        ([1.7e308, 1.7e308, 16.0, 2.0], 10000, "Residuals are not finite in the initial point."),
        ([1.0, 0.0, 16.0, 2.0], 3, "Optimal parameters not found: The maximum number"),
    ])
    def test_curve_fit_errors(self, p0, maxfev, message):
        x = np.arange(32.0)
        y = metrics._esf_model(x, 1.0, 0.0, 15.3, 1.4)
        bounds = ([-np.inf, -np.inf, 0.0, 1e-6], [np.inf, np.inf, 31.0, 31.0])
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcome(port_curve_fit, metrics._esf_model, x, y, p0=p0, bounds=bounds, maxfev=maxfev)
            expected = outcome(optimize.curve_fit, metrics._esf_model, x, y, p0=p0,
                               bounds=bounds, maxfev=maxfev)
        assert got == expected and got[1].startswith(message)

    def test_brentq_on_lsf_fwhm_calls(self, monkeypatch):
        calls = []

        def recorded(f, a, b):
            calls.append((f, a, b))
            return port_brentq(f, a, b)

        monkeypatch.setattr(fitting, "brentq", recorded)
        for aperture in (1.625, 4.875, 9.75, 19.5, 50.0):
            for w in np.geomspace(1e-6, 60.0, 25):
                lsf_fwhm_with_aperture(aperture, w)
        assert len(calls) == 125
        got = np.array([port_brentq(*call) for call in calls])
        expected = np.array([optimize.brentq(*call) for call in calls])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("f", [lambda x: np.nan, lambda x: 1.0], ids=["nan", "one_sign"])
    def test_brentq_errors(self, f):
        expected = outcome(lambda: [optimize.brentq(f, 0.0, 1.0)])
        assert outcome(lambda: [port_brentq(f, 0.0, 1.0)]) == expected
        assert expected[0] is ValueError


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

    def test_glyph_interior_coarser_than_the_bins(self):
        """At bin 25 no bin of the eroded pi glyph is half covered, so
        its interior falls back to every bin the glyph touches."""
        from twinphase.twinbeam import bin_counts

        pi_in = metrics._eroded(target_masks(220, 220)[0])
        coverage = bin_counts(ScalarField2D(1.0, pi_in.astype(float)), 25).values / 625.0
        assert 0.0 < coverage.max() < 0.5
        binned = bin_counts(generate_test_target(220, 220, 1.625).phi, 25)
        steps = step_heights(binned.with_values(binned.values / 625.0), 25, (220, 220))
        assert -0.226 < steps["pi"] < 0.0
        assert 0.0 < steps["null"] < 0.345

    @staticmethod
    def oracle(phase, bin_px):
        """The step heights with each mask binned as a pitch-1 field
        through ``bin_counts``, on the exact 220-pixel target."""
        from twinphase.twinbeam import bin_counts

        pi_mask, null_mask = target_masks(220, 220)

        def coarse(mask, thresholds):
            f = ScalarField2D(1.0, mask.astype(float))
            cov = bin_counts(f, bin_px).values / (bin_px * bin_px)
            return next((cov >= t for t in thresholds if (cov >= t).any()), cov > 0.0)

        pi_in = coarse(metrics._eroded(pi_mask), (0.95, 0.5))
        null_in = coarse(metrics._eroded(null_mask), (0.95, 0.5))
        level = float(np.median(phase.values[coarse(~(pi_mask | null_mask), (0.999,))]))
        return {
            "pi": float(np.median(phase.values[pi_in])) - level,
            "null": float(np.median(phase.values[null_in])) - level,
            "background": level,
        }

    @pytest.mark.parametrize("bin_px", [2, 3, 6, 25])
    def test_binned_masks_match_binned_fields(self, bin_px):
        """The masks are binned as integer counts: each coverage, and so
        each step, equals that of the masks binned as float fields."""
        from twinphase.twinbeam import bin_counts

        binned = bin_counts(generate_test_target(220, 220, 1.625).phi, bin_px)
        phase = binned.with_values(binned.values / (bin_px * bin_px))
        assert step_heights(phase, bin_px, (220, 220)) == self.oracle(phase, bin_px)

    @pytest.mark.parametrize("shape", [(220, 220), (513, 513), (300, 221)])
    def test_erosion_is_that_of_ndimage(self, shape):
        for mask in target_masks(*shape):
            assert np.array_equal(metrics._eroded(mask), binary_erosion(mask, iterations=4))


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
        """Twelve frames on two threads peak at 32-35 float64 arrays
        of the 220-pixel grid (36-37 when the TIE solve held psi through
        its second step): each thread holds one triple and its solves,
        so the peak does not grow with the frame count."""
        use_threads(monkeypatch, 2)
        peak = traced_peak(
            lambda: metrics.advantage_scan(
                [0.025], 12, OpticalSystem(), TwinBeamConfig(), RngStream(5)
            )
        )
        assert peak / (220 * 220 * 8) <= 38


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
        rows = ScalarField2D(sys_.object_pixel, np.repeat(np.arange(220.0)[:, None], 220, axis=1))

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
        """Two dz points in flight, on two threads, peak at 25-28 float64
        arrays of the 220-pixel grid (27-31 when the TIE solve held psi
        through its second step, 39-43 when each point held the whole
        padded transfer function and its row transform)."""
        use_threads(monkeypatch, 2)
        peak = traced_peak(lambda: self.scan(self.DZ, bins=(1, 3, 6, 12)))
        assert peak / (220 * 220 * 8) <= 30

    def test_memory_peak_one_thread_in_grid_arrays(self, monkeypatch, traced_peak):
        """One dz point at a time peaks at 19.3 arrays of the grid, in a
        TIE solve's second step, with the exit field's padded spectrum (8
        arrays) alive; 20.1-20.3 when the solve held psi through its
        second step, 29.0 before the optics ran in place."""
        use_threads(monkeypatch, 1)
        peak = traced_peak(lambda: self.scan(self.DZ, bins=(1, 3, 6, 12)))
        assert peak / (220 * 220 * 8) <= 19.8
