"""Tests of the spectral Poisson solver, correction weights and the TIE chain."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dstn, idstn

from twinphase.core import (
    ConfigError,
    OpticalSystem,
    ScalarField2D,
    TwinBeamConfig,
    blank_object,
    generate_test_target,
    validate_config,
)
from twinphase.retrieval import (
    INTENSITY_FLOOR,
    RetrievalConfig,
    _dirichlet_eigenvalues,
    estimate_transmittance,
    poisson_solve_dirichlet,
    quantum_correct,
    resolve_k,
    tie_retrieve,
)
from twinphase.twinbeam import bin_counts, eta_c, expected_counts


def laplacian_dirichlet(u: ScalarField2D) -> ScalarField2D:
    """Spectral sine-basis Laplacian, the exact inverse of the solver."""
    coeffs = dstn(u.values[1:-1, 1:-1], type=1)
    out = np.zeros((u.height, u.width))
    out[1:-1, 1:-1] = idstn(coeffs * _dirichlet_eigenvalues(u), type=1)
    return u.with_values(out)


def phase_noise_spectrum(sigma_field: ScalarField2D, i0: float, dz: float, wavenumber: float):
    """Phase-noise spectrum implied by an intensity-noise map.

    Returns k * sigma_tilde(q) / (4 pi^2 sqrt(2) I0 dz |q|^2) on the
    FFT frequency grid (cycles per um), with the q = 0 element set to
    zero as the gauge choice.  ``dz`` in mm.
    """
    if not i0 > 0 or not dz > 0:
        raise ValueError("i0 and dz must be positive")
    dz_um = dz * 1e3
    st = np.fft.fft2(sigma_field.values)
    fx = np.fft.fftfreq(sigma_field.width, d=sigma_field.pitch)
    fy = np.fft.fftfreq(sigma_field.height, d=sigma_field.pitch)
    q2 = fx[np.newaxis, :] ** 2 + fy[:, np.newaxis] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        spec = wavenumber * st / (4.0 * math.pi**2 * math.sqrt(2.0) * i0 * dz_um * q2)
    spec[0, 0] = 0.0
    return spec


def sine_mode(n, pitch, my, mx, amplitude=1.0):
    """Dirichlet eigenfunction sin(my pi y / L) sin(mx pi x / L) and its
    continuum Laplacian eigenvalue."""
    length = (n - 1) * pitch
    x = np.arange(n) * pitch
    mode = amplitude * np.outer(
        np.sin(my * math.pi * x / length), np.sin(mx * math.pi * x / length)
    )
    eig = -((my * math.pi / length) ** 2 + (mx * math.pi / length) ** 2)
    return ScalarField2D(n, n, pitch, mode), eig


class TestPoissonSolver:
    @pytest.mark.parametrize("n", [128, 220])
    def test_eigenfunction_round_trip(self, n):
        mode, eig = sine_mode(n, 1.625, 2, 5)
        rhs = mode.with_values(eig * mode.values)
        u = poisson_solve_dirichlet(rhs)
        err = np.linalg.norm(u.values - mode.values) / np.linalg.norm(mode.values)
        assert err < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a = ScalarField2D(64, 64, 1.0, rng.standard_normal((64, 64)))
        b = ScalarField2D(64, 64, 1.0, rng.standard_normal((64, 64)))
        combo = a.with_values(2.5 * a.values - 0.75 * b.values)
        lhs = poisson_solve_dirichlet(combo).values
        rhs = (
            2.5 * poisson_solve_dirichlet(a).values
            - 0.75 * poisson_solve_dirichlet(b).values
        )
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-10

    def test_zero_border(self):
        rng = np.random.default_rng(3)
        rhs = ScalarField2D(32, 32, 1.0, rng.standard_normal((32, 32)))
        u = poisson_solve_dirichlet(rhs).values
        assert np.all(u[0] == 0) and np.all(u[-1] == 0)
        assert np.all(u[:, 0] == 0) and np.all(u[:, -1] == 0)

    def test_laplacian_inverts_solver(self):
        rng = np.random.default_rng(4)
        interior = np.zeros((48, 48))
        interior[1:-1, 1:-1] = rng.standard_normal((46, 46))
        rhs = ScalarField2D(48, 48, 1.0, interior)
        back = laplacian_dirichlet(poisson_solve_dirichlet(rhs)).values
        assert np.abs(back - interior).max() < 1e-9 * np.abs(interior).max()


def weight(k_mode, d_factor=1.0):
    """resolve_k at resolution factor D = ``d_factor``: one bin of
    5 * d_factor um against l_cff = 5 um."""
    twin = TwinBeamConfig(l_cff=5.0, eta0=0.7, epsilon=0.2)
    return resolve_k(k_mode, 1, 5.0 * d_factor, twin)


class TestCorrectionWeights:
    def test_k_tie_is_eta0(self):
        assert weight("tie") == 0.7
        # an eta0 outside [0, 1] never reaches the weights
        with pytest.raises(ConfigError, match="efficiency out of range"):
            validate_config(OpticalSystem(), TwinBeamConfig(eta0=1.3))

    def test_k_tau_formula(self):
        assert weight("tau", 3.9) == pytest.approx(0.7 * eta_c(3.9, 0.2))

    def test_k_tau_approaches_k_tie_at_large_d(self):
        assert weight("tau", 500.0) == pytest.approx(weight("tie"), abs=0.01)

    def test_resolve_k_modes(self):
        pitch = 13.0 / 8.0
        twin = TwinBeamConfig(l_cff=5.0, eta0=0.7, epsilon=0.2)
        assert resolve_k("classical", 1, pitch, twin) == 0.0
        assert resolve_k("tie", 1, pitch, twin) == 0.7
        tau_k = resolve_k("tau", 12, pitch, twin)
        assert tau_k == pytest.approx(0.7 * eta_c(3.9, 0.2))
        assert resolve_k("0.3", 1, pitch, twin) == 0.3
        assert resolve_k(0.45, 1, pitch, twin) == 0.45
        # the weights follow the twin-beam configuration they are given
        assert resolve_k("tie", 1, pitch, TwinBeamConfig(eta0=0.5)) == 0.5
        # any other mode is rejected, by name: also a number float() makes
        # infinite or nan
        for mode in ("bogus", "nan", "-inf", "1e400", math.inf):
            with pytest.raises(ConfigError, match=re.escape(repr(mode))):
                resolve_k(mode, 1, pitch, twin)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(dz=0.0)
        with pytest.raises(ValueError):
            RetrievalConfig(dz=0.025, bin_px=0)


class TestQuantumCorrect:
    def test_zero_k_is_identity(self):
        rng = np.random.default_rng(7)
        s = ScalarField2D(16, 16, 1.0, rng.poisson(50, (16, 16)).astype(float))
        i = ScalarField2D(16, 16, 1.0, rng.poisson(50, (16, 16)).astype(float))
        mean_i = i.with_values(np.full((16, 16), 50.0))
        out = quantum_correct(s, i, mean_i, 0.0)
        assert np.array_equal(out.values, s.values)

    def test_subtraction_is_zero_mean(self):
        s = ScalarField2D(16, 16, 1.0, np.full((16, 16), 100.0))
        i = ScalarField2D(16, 16, 1.0, np.full((16, 16), 60.0))
        mean_i = i.with_values(np.full((16, 16), 50.0))
        out = quantum_correct(s, i, mean_i, 0.5)
        assert np.allclose(out.values, 100.0 - 0.5 * 10.0)


class TestTransmittance:
    def setup_method(self):
        self.sys = OpticalSystem()
        self.twin = TwinBeamConfig(mean_photons_per_pixel=600.0)

    def test_exact_means_recover_tau(self):
        # feed the exact expected counts as the "frame": the estimator
        # must return the blurred true transmittance, exactly 1 in the
        # object-free background and ~0.94 inside the ring interior
        obj = generate_test_target(220, 220, self.sys.object_pixel)
        mean_s_obj, _ = expected_counts(obj, self.sys, self.twin, 0.0)
        blank = blank_object(220, 220, self.sys.object_pixel)
        mean_s, mean_i = expected_counts(blank, self.sys, self.twin, 0.0)
        cfg = RetrievalConfig(
            dz=0.025,
            reference_mean=mean_s,
            reference_mean_idler=mean_i,
            sys=self.sys,
        )
        est = estimate_transmittance(mean_s_obj, mean_i, cfg)
        corner = est.values[:30, :30]
        assert np.allclose(corner, 1.0, atol=1e-9)
        from scipy.ndimage import binary_erosion

        from twinphase.core import target_masks

        _, null_mask = target_masks(220, 220)
        inner = binary_erosion(null_mask, iterations=4)
        assert est.values[inner].mean() == pytest.approx(0.94, abs=0.005)

    def test_dark_reference_pixels_read_one(self):
        # where the reference mean is below INTENSITY_FLOOR times its mean
        # the estimate is exactly 1.0; elsewhere it is corrected / mean
        rng = np.random.default_rng(10)
        mean = np.full((16, 16), 400.0)
        mean[2:6, 3:9] = 0.5 * INTENSITY_FLOOR * 400.0
        dark = mean < INTENSITY_FLOOR * mean.mean()
        assert dark.sum() == 24
        n_s = rng.poisson(300.0, (16, 16)).astype(float)
        n_i = rng.poisson(300.0, (16, 16)).astype(float)
        mean_i = np.full((16, 16), 310.0)
        cfg = RetrievalConfig(
            dz=0.025,
            k=0.5,
            reference_mean=ScalarField2D(16, 16, 1.0, mean),
            reference_mean_idler=ScalarField2D(16, 16, 1.0, mean_i),
        )
        est = estimate_transmittance(
            ScalarField2D(16, 16, 1.0, n_s), ScalarField2D(16, 16, 1.0, n_i), cfg
        )
        corrected = n_s - 0.5 * (n_i[::-1, ::-1] - mean_i)
        assert np.all(est.values[dark] == 1.0)
        assert np.array_equal(est.values[~dark], corrected[~dark] / mean[~dark])


    @pytest.mark.parametrize("bin_px", [1, 3])
    def test_idler_at_its_mean_subtracts_nothing(self, bin_px):
        # Under a Gaussian beam the idler mean is not point-symmetric, so
        # the frame's idler and its calibration mean must both be
        # registered before one is subtracted from the other.
        twin = TwinBeamConfig(beam_profile=200.0)
        blank = blank_object(220, 220, self.sys.object_pixel)
        mean_s, mean_i = expected_counts(blank, self.sys, twin, 0.0)
        cfg = RetrievalConfig(
            dz=0.025,
            bin_px=bin_px,
            reference_mean=mean_s,
            reference_mean_idler=mean_i,
            sys=self.sys,
        )
        classical = estimate_transmittance(mean_s, mean_i, cfg)
        k_tie = resolve_k("tie", bin_px, mean_s.pitch, twin)
        tie = estimate_transmittance(mean_s, mean_i, replace(cfg, k=k_tie))
        assert np.array_equal(tie.values, classical.values)


class TestTie:
    def test_eigenmode_retrieved_exactly(self):
        # For phi a Dirichlet eigenmode and uniform I0, the planes
        # I(+-dz) = I0 -+ dz (I0 / k) laplacian(phi) make the TIE exact;
        # the spectral solver chain must return phi to round-off.
        sys_ = OpticalSystem()
        n, pitch, i0 = 64, sys_.object_pixel, 500.0
        mode, eig = sine_mode(n, pitch, 2, 3, amplitude=0.3)
        dz_mm = 0.025
        dz_um = dz_mm * 1e3
        lap = eig * mode.values
        i_zero = ScalarField2D(n, n, pitch, np.full((n, n), i0))
        i_plus = i_zero.with_values(i0 - dz_um * (i0 / sys_.wavenumber) * lap)
        i_minus = i_zero.with_values(i0 + dz_um * (i0 / sys_.wavenumber) * lap)
        cfg = RetrievalConfig(dz=dz_mm, sys=sys_)
        out = tie_retrieve(i_minus, i_zero, i_plus, cfg)
        assert np.abs(out.values.values - mode.values).max() < 1e-10

    def test_bins_the_planes_to_the_working_binning(self):
        sys_ = OpticalSystem()
        mean_s, _ = expected_counts(
            generate_test_target(220, 220, sys_.object_pixel), sys_, TwinBeamConfig(), 0.0
        )
        rng = np.random.default_rng(2)
        planes = [mean_s.with_values(rng.poisson(mean_s.values)) for _ in range(3)]
        binned = [bin_counts(plane, 3) for plane in planes]
        cfg = RetrievalConfig(dz=0.025, sys=sys_)
        out = tie_retrieve(*planes, replace(cfg, bin_px=3))
        expected = tie_retrieve(*binned, cfg)
        assert out.values.pitch == expected.values.pitch
        assert np.array_equal(out.values.values, expected.values.values)

    def test_memory_peak_in_grid_arrays(self, traced_peak):
        # 9.0 float64 arrays of the grid; 17.9 when every product and
        # quotient of the second step was a new array
        sys_ = OpticalSystem()
        mean_s, _ = expected_counts(
            generate_test_target(220, 220, sys_.object_pixel), sys_, TwinBeamConfig(), 0.0
        )
        rng = np.random.default_rng(1)
        planes = [mean_s.with_values(rng.poisson(mean_s.values)) for _ in range(3)]
        cfg = RetrievalConfig(dz=0.0125, sys=sys_)
        peak = traced_peak(lambda: tie_retrieve(*planes, cfg))
        assert peak / mean_s.values.nbytes <= 9.5

    def test_grid_mismatch_rejected(self):
        from twinphase.core import GridError

        a = ScalarField2D(16, 16, 1.0, np.ones((16, 16)))
        b = ScalarField2D(16, 16, 2.0, np.ones((16, 16)))
        cfg = RetrievalConfig(dz=0.025)
        with pytest.raises(GridError):
            tie_retrieve(a, b, a, cfg)


class TestPhaseNoiseSpectrum:
    def test_parameter_validation(self):
        f = ScalarField2D(16, 16, 1.0, np.ones((16, 16)))
        with pytest.raises(ValueError):
            phase_noise_spectrum(f, 0.0, 0.025, 7.757)
        with pytest.raises(ValueError):
            phase_noise_spectrum(f, 100.0, -1.0, 7.757)

    def test_zero_frequency_gauge(self):
        rng = np.random.default_rng(8)
        f = ScalarField2D(32, 32, 1.0, rng.standard_normal((32, 32)))
        spec = phase_noise_spectrum(f, 100.0, 0.025, 7.757)
        assert spec[0, 0] == 0.0

    def test_linear_in_wavenumber(self):
        rng = np.random.default_rng(9)
        f = ScalarField2D(32, 32, 1.0, rng.standard_normal((32, 32)))
        s1 = phase_noise_spectrum(f, 100.0, 0.025, 1.0)
        s2 = phase_noise_spectrum(f, 100.0, 0.025, 2.0)
        assert np.allclose(s2, 2.0 * s1)
