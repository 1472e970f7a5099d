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


def _padded_spectrum(values: np.ndarray) -> np.ndarray:
    """2-D FFT, made in place, of ``values`` centred in a zero frame of
    twice its height and width."""
    h, w = values.shape
    padded = np.zeros((2 * h, 2 * w), dtype=np.complex128)
    padded[h // 2 : h // 2 + h, w // 2 : w // 2 + w] = values
    return np.fft.fft2(padded, out=padded)


_ROW_BLOCK = 64  # rows of the padded spectrum propagated at a time


def _propagate_spectrum(spectrum, grid, distance, wavelength) -> np.ndarray:
    """The values of a field on ``grid`` whose padded spectrum is
    ``spectrum``, propagated by ``distance`` millimeters (see
    angular_spectrum_propagate).

    The transfer function is built, applied and row-transformed in one
    buffer of ``_ROW_BLOCK`` rows at a time, and only the columns kept by
    the crop are stored, in a (2h, w) array whose columns are transformed
    in place.  ``ifft2`` transforms the last axis first and each row and
    column alone, so the crop has the bits of ``ifft2`` of the whole
    product.  This holds 5.2 float64 arrays of a 220-pixel grid above the
    spectrum, where the whole transfer function and its row transform
    held 16.
    """
    exponent = -1j * math.pi * (wavelength * 1e-3) * (distance * 1e3)  # lambda, z in um
    h, w = grid.values.shape
    ph, pw = spectrum.shape
    r0, c0 = (ph - h) // 2, (pw - w) // 2
    fx2 = np.fft.fftfreq(pw, d=grid.pitch) ** 2
    fy2 = np.fft.fftfreq(ph, d=grid.pitch) ** 2
    block = np.empty((min(_ROW_BLOCK, ph), pw), dtype=np.complex128)
    kept = np.empty((ph, w), dtype=np.complex128)
    for r in range(0, ph, _ROW_BLOCK):
        rows = block[: ph - r]
        n = len(rows)
        np.add(fx2[np.newaxis, :], fy2[r : r + n, np.newaxis], out=rows)  # |q|^2
        np.multiply(exponent, rows, out=rows)
        np.exp(rows, out=rows)
        np.multiply(spectrum[r : r + n], rows, out=rows)
        kept[r : r + n] = np.fft.ifft(rows, axis=-1, out=rows)[:, c0 : c0 + w]
    del block, rows
    return np.fft.ifft(kept, axis=-2, out=kept)[r0 : r0 + h]


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
    return u.with_values(_propagate_spectrum(_padded_spectrum(u.values), u, distance, wavelength))


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
    transfer = fx[np.newaxis, :] ** 2 + fy[:, np.newaxis] ** 2  # |q|^2
    transfer = np.exp(-2.0 * math.pi**2 * sigma**2 * transfer)
    spectrum = i.values.astype(np.complex128)  # transformed in place
    np.fft.fft2(spectrum, out=spectrum)
    spectrum *= transfer
    np.fft.ifftn(spectrum, out=spectrum)  # ifft2's axes and order; numpy's ifft2 ignores out
    return i._adopt(np.maximum(spectrum.real, 0.0))


def exit_field(obj: ObjectSpec, sys: OpticalSystem) -> ExitField:
    """The exit field u0 = sqrt(tau) exp(i phi) of the object under a unit
    plane wave, as the blurred in-focus intensity and the padded spectrum
    that ``defocus_stack`` propagates to each plane."""
    u0 = np.sqrt(obj.tau.values) * np.exp(1j * obj.phi.values)
    return ExitField(
        i_zero=imaging_blur(obj.tau._adopt(np.abs(u0) ** 2), sys.blur_fwhm),
        spectrum=_padded_spectrum(u0),
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
    followed by ``imaging_blur``, bit for bit.  A 220² stack peaks at
    6.7 float64 arrays of its grid above the exit field (17.0 when each
    plane held the whole padded transfer function and its row transform).
    """
    i_zero = field.i_zero

    def plane(z):
        intensity = np.abs(_propagate_spectrum(field.spectrum, i_zero, z, sys.wavelength)) ** 2
        coherence_fwhm = math.sqrt(sys.wavelength_um * abs(z) * 1e3)
        return imaging_blur(i_zero._adopt(intensity), math.hypot(sys.blur_fwhm, coherence_fwhm))

    planes = (plane(-dz), i_zero, plane(+dz))
    scale = mean_photons / float(np.mean(i_zero.values))
    warn = fresnel_aliased(
        sys.wavelength, dz, i_zero.pitch, 2 * max(i_zero.width, i_zero.height)
    )
    return IntensityStack(*(p._adopt(p.values * scale) for p in planes), aliasing_warning=warn)
