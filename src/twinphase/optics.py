"""Deterministic Fourier-optics forward model.

Paraxial (Fresnel) transfer-function propagation, object interaction,
Gaussian imaging blur and the three-plane intensity stacks consumed by
the phase-retrieval module.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FWHM_TO_SIGMA, ObjectSpec, OpticalSystem, ScalarField2D


@dataclass(frozen=True)
class IntensityStack:
    """Blurred intensities at z = -dz, 0, +dz."""

    i_minus: ScalarField2D
    i_zero: ScalarField2D
    i_plus: ScalarField2D
    aliasing_warning: bool = False


def fresnel_aliased(wavelength_nm: float, distance_mm: float, pitch: float, n: int):
    """True when the Fresnel transfer function is under-sampled on this grid."""
    lam = wavelength_nm * 1e-3
    return lam * abs(distance_mm) * 1e3 > pitch * pitch * n


class ExitField(NamedTuple):
    """The parts of an object's defocus stacks that do not depend on dz."""

    i_zero: ScalarField2D  # blurred in-focus intensity
    spectrum: np.ndarray  # 2-D FFT of the exit field zero-padded to twice its size


def _pad(values: np.ndarray) -> np.ndarray:
    """``values`` centred in a zero frame of twice its height and width."""
    h, w = values.shape
    padded = np.zeros((2 * h, 2 * w), dtype=np.complex128)
    padded[h // 2 : h // 2 + h, w // 2 : w // 2 + w] = values
    return padded


def _propagate_spectrum(spectrum, shape, pitch, distance, wavelength) -> np.ndarray:
    """The field of ``shape`` whose padded spectrum is ``spectrum``,
    propagated by ``distance`` millimeters (see angular_spectrum_propagate).

    The transfer function is built in place, and the inverse transform
    runs its second axis only on the columns kept by the crop: ``ifft2``
    transforms the last axis first and each column alone, so the cropped
    result has the same bits as ``ifft2`` followed by the crop.
    """
    lam = wavelength * 1e-3  # nm -> um
    z = distance * 1e3  # mm -> um
    h, w = shape
    ph, pw = spectrum.shape
    r0, c0 = (ph - h) // 2, (pw - w) // 2
    fx = np.fft.fftfreq(pw, d=pitch)
    fy = np.fft.fftfreq(ph, d=pitch)
    transfer = np.empty((ph, pw), dtype=np.complex128)
    np.add(fx[np.newaxis, :] ** 2, fy[:, np.newaxis] ** 2, out=transfer)  # |q|^2
    np.multiply(-1j * math.pi * lam * z, transfer, out=transfer)
    np.exp(transfer, out=transfer)
    np.multiply(spectrum, transfer, out=transfer)
    rows = np.fft.ifft(transfer, axis=-1)
    del transfer
    return np.fft.ifft(rows[:, c0 : c0 + w], axis=-2)[r0 : r0 + h]


def angular_spectrum_propagate(
    u: ScalarField2D, distance: float, wavelength: float
) -> ScalarField2D:
    """Propagate a complex field by ``distance`` millimeters.

    Uses the paraxial transfer function H(q) = exp(-i pi lambda z |q|^2)
    applied in the spatial-frequency domain.  The field is embedded in a
    2x zero-padded frame before the transform and cropped afterwards to
    suppress wrap-around; energy over the padded frame is conserved
    exactly (the transfer function is unitary).
    """
    spectrum = np.fft.fft2(_pad(u.values))
    return u.with_values(
        _propagate_spectrum(spectrum, u.values.shape, u.pitch, distance, wavelength)
    )


def imaging_blur(i: ScalarField2D, fwhm: float) -> ScalarField2D:
    """Convolve with a normalized Gaussian kernel of the given FWHM (um).

    Periodic boundary handling via an exact frequency-domain Gaussian;
    total intensity is conserved (unit zero-frequency gain).
    """
    if fwhm == 0:
        return i
    sigma = fwhm * FWHM_TO_SIGMA
    fx = np.fft.fftfreq(i.width, d=i.pitch)
    fy = np.fft.fftfreq(i.height, d=i.pitch)
    q2 = fx[np.newaxis, :] ** 2 + fy[:, np.newaxis] ** 2
    transfer = np.exp(-2.0 * math.pi**2 * sigma**2 * q2)
    out = np.fft.ifft2(np.fft.fft2(i.values) * transfer).real
    return i.with_values(np.maximum(out, 0.0))


def exit_field(obj: ObjectSpec, sys: OpticalSystem) -> ExitField:
    """The exit field u0 = sqrt(tau) exp(i phi) of the object under a unit
    plane wave, as the blurred in-focus intensity and the padded spectrum
    that ``defocus_stack`` propagates to each plane."""
    u0 = np.sqrt(obj.tau.values) * np.exp(1j * obj.phi.values)
    return ExitField(
        i_zero=imaging_blur(obj.tau.with_values(np.abs(u0) ** 2), sys.blur_fwhm),
        spectrum=np.fft.fft2(_pad(u0)),
    )


def defocus_stack(
    field: ExitField,
    dz: float,
    sys: OpticalSystem,
    mean_photons: float,
) -> IntensityStack:
    """Three-plane intensity stack of an exit field (see ``exit_field``).

    i_zero is the blurred in-focus intensity; i_plus / i_minus are the
    blurred intensities after propagating the exit field by +-dz mm.
    The defocused planes carry an extra Gaussian envelope of FWHM
    sqrt(lambda dz): under partially coherent illumination the Fresnel
    edge fringes beyond the first zone average out, leaving a defocus
    blur on that transverse scale.  All three planes are rescaled by one
    common factor so that i_zero averages to ``mean_photons``.  Before
    that scale, each plane equals ``angular_spectrum_propagate``
    followed by ``imaging_blur``, bit for bit.
    """
    i_zero = field.i_zero
    lam = sys.wavelength * 1e-3  # nm -> um

    def plane(z):
        u = _propagate_spectrum(
            field.spectrum, i_zero.values.shape, i_zero.pitch, z, sys.wavelength
        )
        coherence_fwhm = math.sqrt(lam * abs(z) * 1e3)
        fwhm = math.hypot(sys.blur_fwhm, coherence_fwhm)
        return imaging_blur(i_zero.with_values(np.abs(u) ** 2), fwhm)

    i_plus = plane(+dz)
    i_minus = plane(-dz)
    scale = mean_photons / float(np.mean(i_zero.values))
    i_zero = i_zero.with_values(i_zero.values * scale)
    i_plus = i_plus.with_values(i_plus.values * scale)
    i_minus = i_minus.with_values(i_minus.values * scale)
    warn = fresnel_aliased(
        sys.wavelength, dz, i_zero.pitch, 2 * max(i_zero.width, i_zero.height)
    )
    return IntensityStack(
        i_minus=i_minus, i_zero=i_zero, i_plus=i_plus, aliasing_warning=warn
    )
