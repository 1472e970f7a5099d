"""Tests of the deterministic Fourier-optics forward model."""

import math

import numpy as np
import pytest

from twinphase.core import (
    FWHM_TO_SIGMA,
    ObjectSpec,
    OpticalSystem,
    ScalarField2D,
    generate_edge_target,
)
from twinphase.optics import (
    angular_spectrum_propagate,
    defocus_stack,
    exit_field,
    fresnel_aliased,
    imaging_blur,
)


def gaussian_beam(width, pitch, w0):
    """Unit-amplitude beam with 1/e^2 intensity radius w0 (um)."""
    x = (np.arange(width) - (width - 1) / 2.0) * pitch
    r2 = x[np.newaxis, :] ** 2 + x[:, np.newaxis] ** 2
    return ScalarField2D(width, width, pitch, np.exp(-r2 / w0**2).astype(complex))


def intensity(u: ScalarField2D) -> ScalarField2D:
    """|values|^2 on the same grid."""
    return u.with_values(np.abs(u.values) ** 2)


def beam_radius(i: ScalarField2D):
    """1/e^2 radius from the intensity second moment (w^2 = 4 <x^2>)."""
    x = (np.arange(i.width) - (i.width - 1) / 2.0) * i.pitch
    v = i.values
    return 2.0 * math.sqrt(float((v.sum(axis=0) @ (x * x)) / v.sum()))


def random_object(height, width, pitch, seed):
    """tau uniform in [0.5, 1) and phi uniform in [-1, 1) rad, drawn in that order."""
    rng = np.random.default_rng(seed)
    grid = ScalarField2D(width, height, pitch, np.zeros((height, width)))
    return ObjectSpec(
        tau=grid.with_values(rng.uniform(0.5, 1.0, (height, width))),
        phi=grid.with_values(rng.uniform(-1.0, 1.0, (height, width))),
    )


class TestPropagation:
    def test_zero_distance_is_identity(self):
        u = gaussian_beam(64, 1.625, 15.0)
        out = angular_spectrum_propagate(u, 0.0, 810.0)
        assert np.max(np.abs(out.values - u.values)) < 1e-12

    def test_energy_conserved(self):
        u = gaussian_beam(128, 1.625, 20.0)
        out = angular_spectrum_propagate(u, 1.0, 810.0)
        e_in = float(np.sum(np.abs(u.values) ** 2))
        e_out = float(np.sum(np.abs(out.values) ** 2))
        assert abs(e_out - e_in) / e_in < 1e-8

    def test_gaussian_beam_expansion_oracle(self):
        # w(z) = w0 sqrt(1 + (z / zR)^2) with zR = pi w0^2 / lambda
        w0, lam_um, z_mm = 20.0, 0.810, 1.0
        u = gaussian_beam(128, 1.625, w0)
        out = angular_spectrum_propagate(u, z_mm, 810.0)
        zr = math.pi * w0**2 / lam_um
        w_expected = w0 * math.sqrt(1.0 + (z_mm * 1e3 / zr) ** 2)
        w_measured = beam_radius(intensity(out))
        assert abs(w_measured - w_expected) / w_expected < 0.01

    def test_back_propagation_inverts(self):
        u = gaussian_beam(64, 1.625, 15.0)
        fwd = angular_spectrum_propagate(u, 0.05, 810.0)
        back = angular_spectrum_propagate(fwd, -0.05, 810.0)
        # round-trip error is dominated by cropping the padded frame
        # between the two propagations; the beam itself is recovered
        assert np.max(np.abs(back.values - u.values)) < 1e-4


class TestExitField:
    """Without blur the in-focus plane of the exit field is its intensity,
    |sqrt(tau) exp(i phi)|^2 = tau."""

    SYS = OpticalSystem(blur_fwhm=0.0)

    def make_obj(self, tau_val, phi_val, n=16):
        tau = ScalarField2D(n, n, 1.0, np.full((n, n), tau_val))
        phi = ScalarField2D(n, n, 1.0, np.full((n, n), phi_val))
        return ObjectSpec(tau=tau, phi=phi)

    def test_identity_object(self):
        field = exit_field(self.make_obj(1.0, 0.0), self.SYS)
        assert np.all(field.i_zero.values == 1.0)
        padded = np.zeros((32, 32), dtype=complex)
        padded[8:24, 8:24] = 1.0
        assert np.array_equal(field.spectrum, np.fft.fft2(padded))

    def test_transmittance_scales_intensity_exactly(self):
        obj = self.make_obj(0.94, 0.0)
        field = exit_field(obj, self.SYS)
        assert np.array_equal(field.i_zero.values, obj.tau.values)

    def test_pure_phase_preserves_modulus(self):
        field = exit_field(self.make_obj(1.0, 0.7), self.SYS)
        assert np.allclose(field.i_zero.values, 1.0, rtol=1e-12)
        u0 = np.fft.ifft2(field.spectrum)[8:24, 8:24]  # back from the padded spectrum
        assert np.allclose(np.abs(u0), 1.0, rtol=1e-12)
        assert np.allclose(np.angle(u0), 0.7, rtol=1e-12)


class TestImagingBlur:
    def test_zero_fwhm_is_identity(self):
        f = ScalarField2D(16, 16, 1.0, np.random.default_rng(0).random((16, 16)))
        assert imaging_blur(f, 0.0) is f

    def test_total_intensity_conserved(self):
        f = ScalarField2D(32, 32, 1.0, np.random.default_rng(1).random((32, 32)))
        out = imaging_blur(f, 3.0)
        assert abs(out.values.sum() - f.values.sum()) / f.values.sum() < 1e-9

    def test_kernel_width(self):
        # blur a centered point source; second moment gives sigma
        n, pitch, fwhm = 64, 1.0, 4.0
        v = np.zeros((n, n))
        v[n // 2, n // 2] = 1.0
        out = imaging_blur(ScalarField2D(n, n, pitch, v), fwhm)
        x = (np.arange(n) - n // 2) * pitch
        marg = out.values.sum(axis=0)
        sigma = math.sqrt(float((marg @ (x * x)) / marg.sum()))
        assert abs(sigma - fwhm * FWHM_TO_SIGMA) / (fwhm * FWHM_TO_SIGMA) < 0.01


class TestDefocusStack:
    def test_mean_photons_normalization(self):
        from twinphase.core import generate_test_target

        obj = generate_test_target(220, 220, 1.625)
        field = exit_field(obj, OpticalSystem())
        unit = float(np.mean(field.i_zero.values))  # a scale of exactly 1
        raw = defocus_stack(field, 0.025, OpticalSystem(), mean_photons=unit)
        stack = defocus_stack(field, 0.025, OpticalSystem(), mean_photons=600.0)
        assert float(stack.i_zero.values.mean()) == pytest.approx(600.0, rel=1e-12)
        # one common scale factor: the plane ratio is unchanged by scaling
        ratio_raw = raw.i_plus.values.sum() / raw.i_zero.values.sum()
        ratio_scaled = stack.i_plus.values.sum() / stack.i_zero.values.sum()
        assert ratio_scaled == pytest.approx(ratio_raw, rel=1e-12)
        # the shared exit field is not rescaled in place
        assert raw.i_zero.values.tobytes() == field.i_zero.values.tobytes()

    def test_shared_exit_field_matches_per_plane_propagation(self):
        """Every plane of a stack built from one exit field has the bits of
        angular_spectrum_propagate followed by imaging_blur on that plane
        (at a mean_photons of i_zero's mean, the scale is exactly 1)."""
        obj = random_object(38, 46, 1.625, seed=3)  # odd half-sizes, not square
        sys_ = OpticalSystem()
        field = exit_field(obj, sys_)
        u0 = obj.tau.with_values(np.sqrt(obj.tau.values) * np.exp(1j * obj.phi.values))
        lam = sys_.wavelength * 1e-3

        def bits(f):
            return f.values.tobytes()

        def padded_ifft2(u, z):
            """The propagation as one ifft2 of the whole padded frame."""
            h, w = u.values.shape
            padded = np.zeros((2 * h, 2 * w), dtype=complex)
            padded[h // 2 : h // 2 + h, w // 2 : w // 2 + w] = u.values
            fx = np.fft.fftfreq(2 * w, d=u.pitch)
            fy = np.fft.fftfreq(2 * h, d=u.pitch)
            q2 = fx[np.newaxis, :] ** 2 + fy[:, np.newaxis] ** 2
            transfer = np.exp(-1j * math.pi * lam * (z * 1e3) * q2)
            out = np.fft.ifft2(np.fft.fft2(padded) * transfer)
            return u.with_values(out[h // 2 : h // 2 + h, w // 2 : w // 2 + w])

        assert bits(field.i_zero) == bits(imaging_blur(intensity(u0), sys_.blur_fwhm))
        for dz in (0.0125, 0.1, 2.0):
            stack = defocus_stack(field, dz, sys_, float(np.mean(field.i_zero.values)))
            for z, plane in ((+dz, stack.i_plus), (-dz, stack.i_minus)):
                fwhm = math.hypot(sys_.blur_fwhm, math.sqrt(lam * dz * 1e3))
                propagated = angular_spectrum_propagate(u0, z, sys_.wavelength)
                assert bits(propagated) == bits(padded_ifft2(u0, z))
                assert bits(plane) == bits(imaging_blur(intensity(propagated), fwhm))
            assert bits(stack.i_zero) == bits(field.i_zero)


def numpy_blur(i, pitch, fwhm):
    """imaging_blur in plain numpy: one fft2/ifft2 round trip."""
    h, w = i.shape
    sigma = fwhm * FWHM_TO_SIGMA
    fx = np.fft.fftfreq(w, d=pitch)
    fy = np.fft.fftfreq(h, d=pitch)
    q2 = fx[np.newaxis, :] ** 2 + fy[:, np.newaxis] ** 2
    transfer = np.exp(-2.0 * math.pi**2 * sigma**2 * q2)
    return np.maximum(np.fft.ifft2(np.fft.fft2(i) * transfer).real, 0.0)


def numpy_plane(u0, pitch, z, fwhm, wavelength):
    """A defocused plane of defocus_stack in plain numpy: one ifft2 of the
    whole padded spectrum times the whole transfer function, cropped,
    then numpy_blur of its intensity."""
    lam = wavelength * 1e-3
    h, w = u0.shape
    pad = np.zeros((2 * h, 2 * w), dtype=complex)
    pad[h // 2 : h // 2 + h, w // 2 : w // 2 + w] = u0
    fx = np.fft.fftfreq(2 * w, d=pitch)
    fy = np.fft.fftfreq(2 * h, d=pitch)
    q2 = fx[np.newaxis, :] ** 2 + fy[:, np.newaxis] ** 2
    transfer = np.exp(-1j * math.pi * lam * (z * 1e3) * q2)
    u = np.fft.ifft2(np.fft.fft2(pad) * transfer)[h // 2 : h // 2 + h, w // 2 : w // 2 + w]
    return numpy_blur(np.abs(u) ** 2, pitch, fwhm)


@pytest.mark.parametrize(
    "make_obj",
    [
        lambda: generate_edge_target(OpticalSystem().object_pixel),
        # a padded height of 146 rows: not a whole number of row blocks
        lambda: random_object(73, 100, 1.625, seed=5),
    ],
    ids=["edge_220x220", "random_73x100"],
)
def test_stack_planes_match_plain_numpy(make_obj):
    """Every plane of defocus_stack has the bits of numpy_plane, which
    shares no code with the optics module (at a mean_photons of i_zero's
    mean, the scale is exactly 1)."""
    obj = make_obj()
    sys_ = OpticalSystem()
    lam = sys_.wavelength * 1e-3
    pitch = obj.tau.pitch
    u0 = np.sqrt(obj.tau.values) * np.exp(1j * obj.phi.values)
    field = exit_field(obj, sys_)
    assert np.array_equal(field.i_zero.values, numpy_blur(np.abs(u0) ** 2, pitch, sys_.blur_fwhm))
    for dz in (0.0125, 0.1):
        stack = defocus_stack(field, dz, sys_, float(np.mean(field.i_zero.values)))
        fwhm = math.hypot(sys_.blur_fwhm, math.sqrt(lam * dz * 1e3))
        for z, plane in ((+dz, stack.i_plus), (-dz, stack.i_minus)):
            assert np.array_equal(plane.values, numpy_plane(u0, pitch, z, fwhm, sys_.wavelength))
        assert np.array_equal(stack.i_zero.values, field.i_zero.values)


def test_fresnel_aliased_threshold():
    # lambda * z > pitch^2 * n flags undersampling
    assert fresnel_aliased(810.0, 10.0, 1.625, 440)
    assert not fresnel_aliased(810.0, 0.025, 1.625, 440)
