"""Estimation core: transmittance estimator, quantum-corrected
intensities, correction-weight factors, and the two-step TIE phase
solver with spectral Dirichlet Poisson solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    NoPhotonError,
    NumericalError,
    OpticalSystem,
    ScalarField2D,
    TwinBeamConfig,
)
from .runtime import scipy_function
from .twinbeam import _narrowed, bin_counts, d_factor_for_bin, eta_c, exposures, register_idler


# Intensities below this fraction of the mean are clamped (TIE) or
# masked (transmittance) as too dark to divide by.
INTENSITY_FLOOR = 1e-3


@dataclass(frozen=True)
class RetrievalConfig:
    """Parameters of a reconstruction run.

    ``k`` is the idler-subtraction weight, 0 for the classical image;
    ``resolve_k`` gives the weight of a named mode.  ``sys`` is the
    optical system the frames were made with, whose wavenumber the TIE
    solve reads.
    """

    dz: float  # mm
    k: float = 0.0
    bin_px: int = 1
    sys: OpticalSystem = OpticalSystem()

    def __post_init__(self):
        if not self.dz > 0:
            raise ConfigError("dz must be positive")
        if self.bin_px < 1:
            raise ConfigError("bin_px must be >= 1")


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
    return n_s._adopt(corrected)


def estimate_transmittance(n_s, n_i, mean_s, mean_i, config: RetrievalConfig) -> ScalarField2D:
    """Unbiased transmittance estimator from an in-focus frame.

    tau_hat = (n_s' - k * delta n_i) / <n_s> with k = config.k,
    evaluated at the working binning, and 1.0 where <n_s> is below
    INTENSITY_FLOOR times its mean.  ``mean_s`` and ``mean_i`` are the
    object-free calibration means at bin 1; ``n_i`` and ``mean_i`` are
    unregistered idler images, registered here.  A calibration signal
    mean whose mean is not positive, as that of a source with no
    detected photon, raises NoPhotonError.
    """
    mean_s.require_same_grid(n_s)
    b = config.bin_px
    mean_s = bin_counts(mean_s, b)
    floor = INTENSITY_FLOOR * float(mean_s.values.mean())
    if not floor > 0:
        raise NoPhotonError(
            "the calibration signal mean must have positive mean: "
            "no photon was detected in the object-free signal arm"
        )
    corrected = quantum_correct(
        bin_counts(n_s, b),
        bin_counts(register_idler(n_i), b),
        bin_counts(register_idler(mean_i), b),
        config.k,
    )
    # where(valid, corrected / where(valid, mean_s, 1), 1), in the
    # buffer of the denominator
    valid = mean_s.values >= floor
    tau = np.where(valid, mean_s.values, 1.0)
    np.divide(corrected.values, tau, out=tau)
    tau[~valid] = 1.0
    return corrected._adopt(tau)


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
    The transforms are pocketfft's, called with the arguments that
    ``scipy.fft.dstn(x, type=1)`` and ``idstn(c, type=1, overwrite_x=True)``
    pass: norm code 0 forward and 2 (scipy's "backward") inverse, one worker.
    """
    dst = scipy_function("dst")
    coeffs = dst(rhs.values[1:-1, 1:-1], 1, (0, 1), 0, None, 1, None)
    coeffs /= _dirichlet_eigenvalues(rhs)
    u = np.zeros((rhs.height, rhs.width))
    u[1:-1, 1:-1] = dst(coeffs, 1, (0, 1), 2, coeffs, 1, None)
    del coeffs
    return rhs._adopt(u)


def _trig_bases(n: int, length: float):
    """Interior sine / cosine bases on an n-point grid of extent ``length``.

    Returns (wavenumbers, S, C) where S[j, m] = sin(k_m x_j) and
    C[j, m] = cos(k_m x_j), for the n - 2 interior Dirichlet modes
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
    return k, s, c


def _teague_second_step(held: list, i0: np.ndarray, pitch: float) -> np.ndarray:
    """Solve laplacian(phi) = div(grad(psi) / I0) with zero-border phi,
    where ``held`` is a one-item list that hands over the array psi: the
    step pops it and drops it once its first projection exists.

    Gradients, divergence and the Poisson inverse all act in the same
    sine/cosine spectral basis, so for uniform I0 the step reduces
    exactly to phi = psi / I0 with no numerical smoothing.  The matrix
    products are those of the plain expressions in the comments, in the
    same order; the elementwise steps run in place, with the operands in
    the same order, and each array is dropped at its last use.  The
    cosine projections weight the two boundary nodes by half (Cw is C
    with rows 0 and -1 halved): the operand they meet is halved there
    instead, which is exact, so every product term keeps its bits.
    """
    psi = held.pop()
    h, w = psi.shape
    ly, lx = (h - 1) * pitch, (w - 1) * pitch
    ky, sy, cy = bases = _trig_bases(h, ly)
    # a square grid has one basis for both axes
    kx, sx, cx = bases if (w, lx) == (h, ly) else _trig_bases(w, lx)
    ky, kx = ky[:, np.newaxis], kx[np.newaxis, :]

    # coeffs = norm * (sy.T @ psi @ sx)
    norm = 4.0 / ((h - 1) * (w - 1))
    coeffs = sy.T @ psi
    del psi
    coeffs = coeffs @ sx
    coeffs *= norm
    # fy = gy / i0 with gy = cy @ (ky * coeffs) @ sx.T, then
    # a = norm * (cyw.T @ fy @ sx)
    f = cy @ (ky * coeffs) @ sx.T
    f /= i0
    f[:: h - 1] *= 0.5
    a = cy.T @ f
    del f
    a = a @ sx
    a *= norm
    # fx = gx / i0 with gx = sy @ (coeffs * kx) @ cx.T, then
    # b = norm * (sy.T @ fx @ cxw)
    coeffs *= kx
    f = sy @ coeffs
    del coeffs
    f = f @ cx.T
    f /= i0
    b = sy.T @ f
    del f
    b[:, :: w - 1] *= 0.5
    b = b @ cx
    b *= norm

    # phi_coeffs = (ky * a + b * kx) / (ky**2 + kx**2)
    a *= ky
    b *= kx
    a += b
    del b
    a /= ky**2 + kx**2
    return sy @ a @ sx.T


def tie_retrieve(planes, config: RetrievalConfig) -> PhaseImage:
    """Two-step Teague TIE solve of the transverse phase from the
    (-dz, 0, +dz) planes that the iterable ``planes`` yields, each binned
    to config.bin_px as it is pulled.

    First Poisson solve: laplacian(psi) = -k_wave * dI/dz.  Second:
    laplacian(phi) = div(grad(psi) / I0) with I0 clamped below at
    INTENSITY_FLOOR * mean(I0).  Dirichlet (zero-border) conditions on
    both solves, with spectrally consistent gradient and divergence
    operators in the second step.  The planes are consumed: -dz and +dz
    are dropped once the right-hand side exists, and the in-focus values
    once the clamped I0 exists, so a caller that hands over its only
    references holds none through the solves; psi is handed over to the
    second step, which drops it after its first projection.  An in-focus
    plane of mean 0, as with no detected photon, raises NoPhotonError; a
    negative mean, which only a weight k != 0 can make, or a mean or
    solve that is not finite raises NumericalError naming config.k.
    """
    i_minus, i_zero, i_plus = map(lambda plane: bin_counts(plane, config.bin_px), planes)
    i_zero.require_same_grid(i_plus)
    i_zero.require_same_grid(i_minus)
    at_k = f"at subtraction weight k = {config.k!r}"
    failed = f"the TIE solve is not finite {at_k}"
    with np.errstate(all="ignore"):  # a value that is not finite raises below
        mean_i0 = float(i_zero.values.mean())
        if not math.isfinite(mean_i0):
            raise NumericalError(failed)
        if mean_i0 < 0:
            raise NumericalError(f"the in-focus plane has negative mean {mean_i0:g} {at_k}")
        if mean_i0 == 0:
            raise NoPhotonError("no photon was detected in the in-focus plane")
        dz_um = config.dz * 1e3
        try:
            # rhs = -k_wave * ((i_plus - i_minus) / (2 dz))
            rhs = np.subtract(i_plus.values, i_minus.values)
            del i_minus, i_plus
            rhs /= 2.0 * dz_um
            rhs *= -config.sys.wavenumber
            psi = [poisson_solve_dirichlet(i_zero._adopt(rhs)).values]
            del rhs
            i0 = np.maximum(i_zero.values, INTENSITY_FLOOR * mean_i0)
            pitch = i_zero.pitch
            del i_zero
            phi = _teague_second_step(psi, i0, pitch)
            del i0
            return PhaseImage(ScalarField2D(pitch, phi, True))
        except ValueError:  # adopting a field that is not finite
            raise NumericalError(failed) from None


def phase_from_twin_frames(frames, mean_i: ScalarField2D, config: RetrievalConfig) -> PhaseImage:
    """Full quantum-corrected single-shot reconstruction.

    ``frames`` yields the (-dz, 0, +dz) exposures of one frame.  Each
    plane's signal counts are corrected with its own idler frame
    (zero-mean subtraction of config.k times its deviation from the
    calibration idler mean ``mean_i``, unregistered, at bin 1) as the
    exposure is pulled, and handed to the TIE solver, which bins and
    consumes it.  No exposure is held here past its plane, so an iterator
    that loads them keeps at most one exposure's count maps alive, and
    none during the solve.
    """

    def planes():
        registered = register_idler(mean_i)
        for frame in frames:
            plane = quantum_correct(frame.n_s, register_idler(frame.n_i), registered, config.k)
            del frame  # before the next exposure is pulled
            yield plane

    return tie_retrieve(planes(), config)


def retrieve_frames(load, frames: int, mean_s, mean_i, config: RetrievalConfig):
    """Reconstruct a frame set of ``frames`` frames and calibration means
    ``mean_s`` and ``mean_i``: yield ``(name, field)`` for frame 0's
    transmittance ("transmittance_f0000"), each frame's phase ("phase_f0000",
    ...) and the classical phase of the exposures averaged over the frames
    ("phase_average").

    ``load(frame, tag)`` returns exposure ``tag`` (of ``exposures``) of a
    frame as a ``TwinBeamFrame``.  Frame 0's in-focus exposure is loaded
    first, for the transmittance, and dropped; then each exposure is loaded,
    added into its signal sum and corrected into its plane before the next.
    Sums of integer counts are exact in any frame order (below 2**53).  Each
    sum is added in float64 and held narrowed (``twinbeam._narrowed``: the
    narrowest integer dtype that holds it, float64 above 2**53), which keeps
    every bit of the float64 sum; each is dropped once its mean is handed to
    the averaged solve.  The signal calibration mean is dropped after the
    transmittance: a caller that keeps no reference of its own frees it
    before the first frame is loaded.  A NumericalError of a frame's solve
    is raised again naming the frame.
    """
    tags = [tag for _, _, tag, _ in exposures([config.dz], 1)]
    sums = [0.0] * len(tags)  # each exposure's signal counts, summed over the frames
    in_focus = load(0, "0")
    yield "transmittance_f0000", estimate_transmittance(
        in_focus.n_s, in_focus.n_i, mean_s, mean_i, config
    )
    del in_focus  # loaded again in frame 0: held there, it raised a 513² run's peak RSS
    del mean_s  # it served the transmittance only

    def streamed(frame):
        for index, tag in enumerate(tags):
            tf = load(frame, tag)
            sums[index] = _narrowed(sums[index] + tf.n_s.values)
            yield tf
            del tf

    for frame in range(frames):
        try:
            phase = phase_from_twin_frames(streamed(frame), mean_i, config).values
        except NumericalError as exc:
            raise NumericalError(f"{exc} in frame {frame}") from None
        yield f"phase_f{frame:04d}", phase
        del phase  # not held through the next frame's solve
    means = (ScalarField2D(mean_i.pitch, sums.pop(0) / frames, True) for _ in tags)
    yield "phase_average", tie_retrieve(means, config).values
