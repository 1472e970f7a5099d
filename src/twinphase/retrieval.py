"""Estimation core: transmittance estimator, quantum-corrected
intensities, correction-weight factors, and the two-step TIE phase
solver with spectral Dirichlet Poisson solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import dstn, idstn

from .core import (
    MIN_GRID,
    ConfigError,
    NoPhotonError,
    NumericalError,
    OpticalSystem,
    ScalarField2D,
    TwinBeamConfig,
)
from .twinbeam import bin_counts, d_factor_for_bin, eta_c, register_idler


# Intensities below this fraction of the mean are clamped (TIE) or
# masked (transmittance) as too dark to divide by.
INTENSITY_FLOOR = 1e-3


@dataclass(frozen=True)
class RetrievalConfig:
    """Parameters of a reconstruction run.

    ``k`` is the idler-subtraction weight, 0 for the classical image;
    ``resolve_k`` gives the weight of a named mode.  ``reference_mean`` /
    ``reference_mean_idler`` are object-free calibration means of the
    signal and idler arms at bin_px = 1.  ``sys`` is the optical system
    the frames were made with, whose wavenumber the TIE solve reads.
    """

    dz: float  # mm
    k: float = 0.0
    bin_px: int = 1
    reference_mean: Optional[ScalarField2D] = None
    reference_mean_idler: Optional[ScalarField2D] = None
    sys: OpticalSystem = OpticalSystem()

    def __post_init__(self):
        if not self.dz > 0:
            raise ConfigError("dz must be positive")
        if self.bin_px < 1:
            raise ConfigError("bin_px must be >= 1")
        if self.reference_mean is not None:
            side = min(self.reference_mean.width, self.reference_mean.height)
            if side // self.bin_px < MIN_GRID:
                raise ConfigError(
                    f"bin_px {self.bin_px} leaves fewer than {MIN_GRID} bins "
                    f"across the {side}-pixel grid"
                )


@dataclass(frozen=True)
class PhaseImage:
    """Retrieved phase map (radians), zero on the border by convention.

    A record of one field because the benchmark's span tracer
    (``bench/spans.py``) reads each ``tie_retrieve`` result's map as
    ``phase.values``; every other caller could take the field itself.
    """

    values: ScalarField2D


def resolve_k(mode, bin_px: int, pitch: float, twin: TwinBeamConfig) -> float:
    """Subtraction weight of k mode ``mode`` at bins of ``bin_px``
    pixels of ``pitch`` under the twin-beam configuration ``twin``.

    "classical" is 0; "tau" is the variance-optimal weight for
    transmittance estimation, eta0 * eta_c(D) at the working binning;
    "tie" is its resolution-independent large-area limit eta0.  Any
    other mode must be a finite number or its text, else ConfigError.
    """
    if mode == "classical":
        return 0.0
    if mode == "tau":
        d = d_factor_for_bin(bin_px, pitch, twin.l_cff)
        return twin.eta0 * eta_c(d, twin.epsilon)
    if mode == "tie":
        return twin.eta0
    try:
        k = float(mode)
    except ValueError:
        k = math.nan
    if not math.isfinite(k):
        raise ConfigError(f"k_mode must be classical, tau, tie or a finite number, got {mode!r}")
    return k


def quantum_correct(
    n_s: ScalarField2D, n_i: ScalarField2D, mean_i: ScalarField2D, k: float
) -> ScalarField2D:
    """Zero-mean idler subtraction: n_s - k * (n_i - <n_i>).

    All inputs must share one grid, with the idler already registered
    onto signal coordinates.  A weight that overflows the result raises
    NumericalError.
    """
    n_s.require_same_grid(n_i)
    n_s.require_same_grid(mean_i)
    corrected = np.subtract(n_i.values, mean_i.values)
    try:
        with np.errstate(over="raise"):
            np.multiply(k, corrected, out=corrected)
            np.subtract(n_s.values, corrected, out=corrected)
    except FloatingPointError:
        raise NumericalError(f"subtraction weight {k!r} overflows the corrected counts") from None
    return n_s.with_values(corrected)


def estimate_transmittance(
    n_s_obj: ScalarField2D, n_i: ScalarField2D, config: RetrievalConfig
) -> ScalarField2D:
    """Unbiased transmittance estimator from an in-focus frame.

    tau_hat = (n_s' - k * delta n_i) / <n_s> with k = config.k,
    evaluated at the working binning, and 1.0 where <n_s> is below
    INTENSITY_FLOOR times its mean.  ``n_i`` and the calibration idler
    mean are raw (unregistered) idler images; both are registered here.
    A calibration signal mean whose mean is not positive, as that of a
    source with no detected photon, raises NoPhotonError.
    """
    b = config.bin_px
    mean_s = bin_counts(config.reference_mean, b)
    floor = INTENSITY_FLOOR * float(mean_s.values.mean())
    if not floor > 0:
        raise NoPhotonError(
            "the calibration signal mean must have positive mean: "
            "no photon was detected in the object-free signal arm"
        )
    s = bin_counts(n_s_obj, b)
    i = bin_counts(register_idler(n_i), b)
    mean_i = bin_counts(register_idler(config.reference_mean_idler), b)
    corrected = quantum_correct(s, i, mean_i, config.k)
    valid = mean_s.values >= floor
    denom = np.where(valid, mean_s.values, 1.0)
    return s.with_values(np.where(valid, corrected.values / denom, 1.0))


def _dirichlet_eigenvalues(f: ScalarField2D) -> np.ndarray:
    """Continuum Laplacian eigenvalues -pi^2 (n^2 / Ly^2 + m^2 / Lx^2) of
    the sine modes on the interior nodes of ``f``'s grid."""
    ny, nx = f.height - 2, f.width - 2
    ly = (f.height - 1) * f.pitch
    lx = (f.width - 1) * f.pitch
    ky = (np.arange(1, ny + 1) * math.pi / ly) ** 2
    kx = (np.arange(1, nx + 1) * math.pi / lx) ** 2
    return -(ky[:, np.newaxis] + kx[np.newaxis, :])


def poisson_solve_dirichlet(rhs: ScalarField2D) -> ScalarField2D:
    """Solve laplacian(u) = rhs with u = 0 on the image border.

    Spectral sine-basis (DST-I) solver with continuum eigenvalues
    -pi^2 (n^2 + m^2) / L^2 on the interior nodes; the zero boundary is
    enforced by the odd extension, with no zero-frequency singularity.
    """
    coeffs = dstn(rhs.values[1:-1, 1:-1], type=1)
    coeffs /= _dirichlet_eigenvalues(rhs)
    u = np.zeros((rhs.height, rhs.width))
    u[1:-1, 1:-1] = idstn(coeffs, type=1, overwrite_x=True)
    del coeffs
    return rhs.with_values(u)


def _trig_bases(n: int, length: float):
    """Interior sine / cosine bases on an n-point grid of extent ``length``.

    Returns (wavenumbers, S, C, Cw) where S[j, m] = sin(k_m x_j),
    C[j, m] = cos(k_m x_j) and Cw is C at half weight on the two boundary
    nodes (cosine projections), for the n - 2 interior Dirichlet modes
    k_m = m pi / length.
    """
    m = np.arange(1, n - 1)
    k = m * math.pi / length
    # theta = pi * outer(j, m) / (n - 1); its buffer then holds C
    theta = np.outer(np.arange(n, dtype=float), m)
    theta *= np.pi
    theta /= n - 1
    s = np.sin(theta)
    c = np.cos(theta, out=theta)
    cw = c.copy()
    cw[[0, -1]] *= 0.5
    return k, s, c, cw


def _teague_second_step(psi: np.ndarray, i0: np.ndarray, pitch: float) -> np.ndarray:
    """Solve laplacian(phi) = div(grad(psi) / I0) with zero-border phi.

    Gradients, divergence and the Poisson inverse all act in the same
    sine/cosine spectral basis, so for uniform I0 the step reduces
    exactly to phi = psi / I0 with no numerical smoothing.  The matrix
    products are those of the plain expressions in the comments, in the
    same order; the elementwise steps run in place, with the operands in
    the same order, and each array is dropped at its last use.
    """
    h, w = psi.shape
    ly, lx = (h - 1) * pitch, (w - 1) * pitch
    ky, sy, cy, cyw = bases = _trig_bases(h, ly)
    # a square grid has one basis for both axes
    kx, sx, cx, cxw = bases if (w, lx) == (h, ly) else _trig_bases(w, lx)
    ky, kx = ky[:, np.newaxis], kx[np.newaxis, :]

    # coeffs = norm * (sy.T @ psi @ sx)
    norm = 4.0 / ((h - 1) * (w - 1))
    coeffs = sy.T @ psi @ sx
    coeffs *= norm
    # fy = gy / i0 with gy = cy @ (ky * coeffs) @ sx.T, then
    # a = norm * (cyw.T @ fy @ sx)
    f = cy @ (ky * coeffs) @ sx.T
    f /= i0
    a = cyw.T @ f @ sx
    del f
    a *= norm
    # fx = gx / i0 with gx = sy @ (coeffs * kx) @ cx.T, then
    # b = norm * (sy.T @ fx @ cxw)
    coeffs *= kx
    f = sy @ coeffs @ cx.T
    del coeffs
    f /= i0
    b = sy.T @ f @ cxw
    del f
    b *= norm

    # phi_coeffs = (ky * a + b * kx) / (ky**2 + kx**2)
    a *= ky
    b *= kx
    a += b
    del b
    a /= ky**2 + kx**2
    return sy @ a @ sx.T


def tie_retrieve(
    i_minus: ScalarField2D,
    i_zero: ScalarField2D,
    i_plus: ScalarField2D,
    config: RetrievalConfig,
) -> PhaseImage:
    """Two-step Teague TIE solve of the transverse phase from the
    (-dz, 0, +dz) planes, each binned to config.bin_px first.

    First Poisson solve: laplacian(psi) = -k_wave * dI/dz.  Second:
    laplacian(phi) = div(grad(psi) / I0) with I0 clamped below at
    INTENSITY_FLOOR * mean(I0).  Dirichlet (zero-border) conditions on
    both solves, with spectrally consistent gradient and divergence
    operators in the second step.  An ``i_zero`` whose mean is not
    positive, as that of counts with no detected photon, raises
    NoPhotonError.
    """
    i_minus, i_zero, i_plus = (
        bin_counts(plane, config.bin_px) for plane in (i_minus, i_zero, i_plus)
    )
    i_zero.require_same_grid(i_plus)
    i_zero.require_same_grid(i_minus)
    mean_i0 = float(i_zero.values.mean())
    if mean_i0 <= 0:
        raise NoPhotonError(
            f"i_zero must have positive mean, not {mean_i0:g}: "
            "no photon was detected in the in-focus plane"
        )
    dz_um = config.dz * 1e3
    # rhs = -k_wave * ((i_plus - i_minus) / (2 dz))
    rhs = np.subtract(i_plus.values, i_minus.values)
    rhs /= 2.0 * dz_um
    rhs *= -config.sys.wavenumber
    rhs = i_zero.with_values(rhs)
    psi = poisson_solve_dirichlet(rhs).values
    del rhs

    floor = INTENSITY_FLOOR * mean_i0
    i0 = np.maximum(i_zero.values, floor)
    phi = _teague_second_step(psi, i0, i_zero.pitch)
    del psi, i0
    return PhaseImage(i_zero.with_values(phi))


def phase_from_twin_frames(frames, config: RetrievalConfig) -> PhaseImage:
    """Full quantum-corrected single-shot reconstruction.

    ``frames`` yields the (-dz, 0, +dz) exposures of one frame.  Each
    plane's signal counts are corrected with its own idler frame
    (zero-mean subtraction of config.k times its deviation from the
    calibration idler mean) as the exposure is pulled, then binned and
    fed to the TIE solver.  No exposure is held here past its plane, so
    an iterator that loads them keeps at most one exposure's count maps
    alive, and none during the solve.
    """
    mean_i = register_idler(config.reference_mean_idler)
    planes = []
    for frame in frames:
        planes.append(quantum_correct(frame.n_s, register_idler(frame.n_i), mean_i, config.k))
        del frame  # before the next exposure is pulled
    del mean_i  # the solve does not need it
    return tie_retrieve(*planes, config)

