"""Estimation core: transmittance estimator, quantum-corrected
intensities, correction-weight factors, and the two-step TIE phase
solver with spectral Dirichlet Poisson solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.fft import dstn, idstn

from .core import MIN_GRID, ConfigError, OpticalSystem, ScalarField2D, TwinBeamConfig
from .twinbeam import bin_counts, d_factor_for_bin, eta_c, register_idler


# Intensities below this fraction of the mean are clamped (TIE) or
# masked (transmittance) as too dark to divide by.
INTENSITY_FLOOR = 1e-3


@dataclass(frozen=True)
class RetrievalConfig:
    """Parameters of a reconstruction run.

    ``k_mode`` selects the idler-subtraction weight: "classical" (k=0),
    "tau" (eta0*eta_c at the working binning), "tie" (eta0), or an
    explicit numeric value.  ``reference_mean`` / ``reference_mean_idler``
    are object-free calibration means of the signal and idler arms at
    bin_px = 1.  ``sys`` and ``twin`` are the configurations the frames
    were made with: the TIE solve reads the wavenumber, the weights
    read eta0, epsilon and l_cff.
    """

    dz: float  # mm
    k_mode: Union[str, float] = "classical"
    bin_px: int = 1
    reference_mean: Optional[ScalarField2D] = None
    reference_mean_idler: Optional[ScalarField2D] = None
    sys: OpticalSystem = OpticalSystem()
    twin: TwinBeamConfig = TwinBeamConfig()

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
        if self.k_mode not in ("classical", "tau", "tie"):
            try:
                float(self.k_mode)
            except ValueError:
                raise ConfigError(
                    f"k_mode must be classical, tau, tie or a number, got {self.k_mode!r}"
                )


@dataclass(frozen=True)
class PhaseImage:
    """Retrieved phase map (radians), zero on the border by convention.

    A record of one field because the benchmark's span tracer
    (``bench/spans.py``) reads each ``tie_retrieve`` result's map as
    ``phase.values``; every other caller could take the field itself.
    """

    values: ScalarField2D


def resolve_k(config: RetrievalConfig, pitch: float) -> float:
    """Numeric subtraction weight implied by the configured k_mode.

    "tau" is the variance-optimal weight for transmittance estimation,
    eta0 * eta_c(D) at the working binning; "tie" is its large-area
    limit eta0, independent of the working resolution.
    """
    mode = config.k_mode
    if mode == "classical":
        return 0.0
    twin = config.twin
    if mode == "tau":
        d = d_factor_for_bin(config.bin_px, pitch, twin.l_cff)
        return twin.eta0 * eta_c(d, twin.epsilon)
    if mode == "tie":
        return twin.eta0
    return float(mode)


def quantum_correct(
    n_s: ScalarField2D, n_i: ScalarField2D, mean_i: ScalarField2D, k: float
) -> ScalarField2D:
    """Zero-mean idler subtraction: n_s - k * (n_i - <n_i>).

    All inputs must share one grid, with the idler already registered
    onto signal coordinates.
    """
    n_s.require_same_grid(n_i)
    n_s.require_same_grid(mean_i)
    return n_s.with_values(n_s.values - k * (n_i.values - mean_i.values))


def estimate_transmittance(
    n_s_obj: ScalarField2D, n_i: ScalarField2D, config: RetrievalConfig
) -> ScalarField2D:
    """Unbiased transmittance estimator from an in-focus frame.

    tau_hat = (n_s' - k * delta n_i) / <n_s>, evaluated at the working
    binning, and 1.0 where <n_s> is below INTENSITY_FLOOR times its
    mean.  ``n_i`` is the raw (unregistered) idler image.
    """
    if config.reference_mean is None or config.reference_mean_idler is None:
        raise ValueError("calibration reference means are required")
    b = config.bin_px
    s = bin_counts(n_s_obj, b)
    i = bin_counts(register_idler(n_i), b)
    mean_s = bin_counts(config.reference_mean, b)
    mean_i = bin_counts(config.reference_mean_idler, b)
    k = resolve_k(config, n_s_obj.pitch)
    corrected = quantum_correct(s, i, mean_i, k)
    floor = INTENSITY_FLOOR * float(mean_s.values.mean())
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
    u = np.zeros((rhs.height, rhs.width))
    u[1:-1, 1:-1] = idstn(coeffs / _dirichlet_eigenvalues(rhs), type=1)
    return rhs.with_values(u)


def laplacian_dirichlet(u: ScalarField2D) -> ScalarField2D:
    """Spectral sine-basis Laplacian, the exact inverse of the solver."""
    coeffs = dstn(u.values[1:-1, 1:-1], type=1)
    out = np.zeros((u.height, u.width))
    out[1:-1, 1:-1] = idstn(coeffs * _dirichlet_eigenvalues(u), type=1)
    return u.with_values(out)


def _trig_bases(n: int, length: float):
    """Interior sine / cosine bases on an n-point grid of extent ``length``.

    Returns (wavenumbers, S, C, Cw) where S[j, m] = sin(k_m x_j),
    C[j, m] = cos(k_m x_j) and Cw is C at half weight on the two boundary
    nodes (cosine projections), for the n - 2 interior Dirichlet modes
    k_m = m pi / length.
    """
    m = np.arange(1, n - 1)
    k = m * math.pi / length
    theta = np.pi * np.outer(np.arange(n), m) / (n - 1)
    c = np.cos(theta)
    cw = c.copy()
    cw[[0, -1]] *= 0.5
    return k, np.sin(theta), c, cw


def _teague_second_step(psi: np.ndarray, i0: np.ndarray, pitch: float) -> np.ndarray:
    """Solve laplacian(phi) = div(grad(psi) / I0) with zero-border phi.

    Gradients, divergence and the Poisson inverse all act in the same
    sine/cosine spectral basis, so for uniform I0 the step reduces
    exactly to phi = psi / I0 with no numerical smoothing.
    """
    h, w = psi.shape
    ly, lx = (h - 1) * pitch, (w - 1) * pitch
    ky, sy, cy, cyw = bases = _trig_bases(h, ly)
    # a square grid has one basis for both axes
    kx, sx, cx, cxw = bases if (w, lx) == (h, ly) else _trig_bases(w, lx)

    norm = 4.0 / ((h - 1) * (w - 1))
    coeffs = norm * (sy.T @ psi @ sx)
    gy = cy @ (ky[:, np.newaxis] * coeffs) @ sx.T
    gx = sy @ (coeffs * kx[np.newaxis, :]) @ cx.T

    fy = gy / i0
    fx = gx / i0
    a = norm * (cyw.T @ fy @ sx)
    b = norm * (sy.T @ fx @ cxw)

    eig = ky[:, np.newaxis] ** 2 + kx[np.newaxis, :] ** 2
    phi_coeffs = (ky[:, np.newaxis] * a + b * kx[np.newaxis, :]) / eig
    return sy @ phi_coeffs @ sx.T


def tie_retrieve(
    i_zero: ScalarField2D,
    i_plus: ScalarField2D,
    i_minus: ScalarField2D,
    config: RetrievalConfig,
) -> PhaseImage:
    """Two-step Teague TIE solve of the transverse phase.

    First Poisson solve: laplacian(psi) = -k_wave * dI/dz.  Second:
    laplacian(phi) = div(grad(psi) / I0) with I0 clamped below at
    INTENSITY_FLOOR * mean(I0).  Dirichlet (zero-border) conditions on
    both solves, with spectrally consistent gradient and divergence
    operators in the second step.
    """
    i_zero.require_same_grid(i_plus)
    i_zero.require_same_grid(i_minus)
    mean_i0 = float(i_zero.values.mean())
    if mean_i0 <= 0:
        raise ValueError("i_zero must have positive mean")
    dz_um = config.dz * 1e3
    didz = (i_plus.values - i_minus.values) / (2.0 * dz_um)
    rhs1 = i_zero.with_values(-config.sys.wavenumber * didz)
    psi = poisson_solve_dirichlet(rhs1)

    floor = INTENSITY_FLOOR * mean_i0
    i0 = np.maximum(i_zero.values, floor)
    phi = _teague_second_step(psi.values, i0, i_zero.pitch)
    return PhaseImage(i_zero.with_values(phi))


def phase_from_counts(
    stack_minus: ScalarField2D,
    stack_zero: ScalarField2D,
    stack_plus: ScalarField2D,
    config: RetrievalConfig,
) -> PhaseImage:
    """tie_retrieve after binning the three planes to config.bin_px."""
    b = config.bin_px
    return tie_retrieve(
        bin_counts(stack_zero, b),
        bin_counts(stack_plus, b),
        bin_counts(stack_minus, b),
        config,
    )


def phase_from_twin_frames(
    frame_minus,
    frame_zero,
    frame_plus,
    config: RetrievalConfig,
) -> PhaseImage:
    """Full quantum-corrected single-shot reconstruction.

    Each plane's signal counts are corrected with its own idler frame
    (zero-mean subtraction against the calibration idler mean), then
    binned and fed to the TIE solver.
    """
    if config.reference_mean_idler is None:
        raise ValueError("calibration idler mean is required")
    pitch = frame_zero.n_s.pitch
    k = resolve_k(config, pitch)
    mean_i = register_idler(config.reference_mean_idler)

    def corrected(frame):
        return quantum_correct(frame.n_s, register_idler(frame.n_i), mean_i, k)

    return phase_from_counts(
        corrected(frame_minus), corrected(frame_zero), corrected(frame_plus), config
    )


def phase_noise_spectrum(
    sigma_field: ScalarField2D, i0: float, dz: float, wavenumber: float
):
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
