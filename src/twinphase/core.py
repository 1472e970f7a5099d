"""Domain types, configuration, deterministic RNG streams and the test target.

Conventions used throughout the package:

* lengths are micrometers at the object plane, defocus distances are
  millimeters, wavelengths are nanometers (converted internally);
* a 2D field stores ``values[row, col]`` with ``row`` increasing downwards;
* a positive phase advances the optical path (thicker sample).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields, replace

import numpy as np

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

MIN_GRID = 8
# The side of the targets' design box: the least grid that holds both
# glyphs, the edge target's grid, and the grid of every scan.
TARGET_GRID = 220


class ConfigError(ValueError):
    """A configuration invariant is violated."""


class GridError(ValueError):
    """A field's grid is invalid, or the grids of two fields differ."""


class NoPhotonError(ValueError):
    """A measurement that divides by a mean photon count was given
    counts with no detected photon."""


class NumericalError(RuntimeError):
    """A fit or solver failed to produce a usable result."""


@dataclass(frozen=True)
class ScalarField2D:
    """2D map with a physical pixel pitch (micrometers per pixel).

    Real maps are stored as float64 and complex ones (a wavefront) as
    complex128: in scalar diffraction theory both are scalar fields.
    The width and height are read from the 2-D array's shape.  The
    values are copied, except by ``_adopt``.
    """

    pitch: float
    values: np.ndarray
    _fresh: InitVar[bool] = False  # an array the package has just made: see _adopt

    def __post_init__(self, _fresh=False):
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        arr = (np.asarray if _fresh else np.array)(self.values, dtype=dtype, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 2:
            raise GridError(f"values must be a 2-D array, got shape {arr.shape}")
        if min(arr.shape) < MIN_GRID:
            raise GridError(f"grid must be at least {MIN_GRID}x{MIN_GRID}")
        if not self.pitch > 0:
            raise GridError("pitch must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def with_values(self, values, _fresh=False) -> "ScalarField2D":
        """Same grid metadata, new values of the same shape."""
        field = ScalarField2D(self.pitch, values, _fresh)
        self.require_same_grid(field)
        return field

    def _adopt(self, values) -> "ScalarField2D":
        """``with_values`` of an array that the package has just made and
        keeps no other reference to: frozen and checked, not copied."""
        return self.with_values(values, True)

    def same_grid(self, other) -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and math.isclose(self.pitch, other.pitch, rel_tol=1e-12)
        )

    def require_same_grid(self, other):
        if not self.same_grid(other):
            raise GridError(
                f"grid mismatch: ({self.height}x{self.width}, pitch {self.pitch}) vs "
                f"({other.height}x{other.width}, pitch {other.pitch})"
            )


@dataclass(frozen=True)
class ObjectSpec:
    """Paired transmittance map tau(x) in [0, 1] and phase map phi(x) in rad."""

    tau: ScalarField2D
    phi: ScalarField2D

    def __post_init__(self):
        self.tau.require_same_grid(self.phi)
        if np.any(self.tau.values < 0) or np.any(self.tau.values > 1):
            raise ValueError("tau values must lie in [0, 1]")


@dataclass(frozen=True)
class OpticalSystem:
    """Imaging-chain parameters of the twin-beam microscope."""

    wavelength: float = 810.0  # nm
    magnification: float = 8.0
    camera_pixel: float = 13.0  # um
    blur_fwhm: float = 1.5  # um, PSF surrogate at the object plane

    @property
    def wavelength_um(self) -> float:
        return self.wavelength * 1e-3

    @property
    def wavenumber(self) -> float:
        """k = 2 pi / lambda, rad per micrometer."""
        return 2.0 * math.pi / self.wavelength_um

    @property
    def object_pixel(self) -> float:
        """Camera pixel projected to the object plane (um); 13/8 = 1.625 by default."""
        return self.camera_pixel / self.magnification


@dataclass(frozen=True)
class TwinBeamConfig:
    """Source correlation and flux parameters of the twin-beam generator."""

    l_cff: float = 5.0  # um, FWHM of the pair correlation at the object plane
    eta0: float = 0.7  # single-channel detection efficiency
    epsilon: float = 0.2  # misalignment Delta / l_cff, equal on both axes
    mean_photons_per_pixel: float = 600.0
    beam_profile: object = "uniform"  # "uniform" or Gaussian 1/e^2 radius in um

    @property
    def sigma(self) -> float:
        """Pair-correlation standard deviation in micrometers."""
        return self.l_cff * FWHM_TO_SIGMA

    @property
    def delta(self) -> float:
        """Misalignment in micrometers."""
        return self.epsilon * self.l_cff


@dataclass(frozen=True)
class RngStream:
    """Deterministic, frame-indexed randomness source.

    Identical (master_seed, stream_index) yields an identical sample
    sequence; distinct stream indices give statistically independent
    streams, so frame generation is order-independent.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        )

    def child(self, stream_index: int) -> "RngStream":
        return replace(self, stream_index=stream_index)


def validate_config(optical: OpticalSystem, twin: TwinBeamConfig):
    """Check all cross-field invariants; return the pair or raise ConfigError.

    Every violated invariant is reported, not just the first one.  When
    the keys pass, the values derived from them, ``object_pixel`` and
    ``wavenumber``, must be finite and positive too; then the optics'
    squares of ``1 / object_pixel`` and of the blur width must be finite,
    and the sampler's pair-correlation width in pixels finite and positive.
    A Gaussian beam radius must square to a finite number above 0.
    """
    problems = []
    for cfg in (optical, twin):
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if not isinstance(value, str) and not math.isfinite(value):
                problems.append(f"{f.name} must be finite, got {value}")
    if not 0.0 <= twin.eta0 <= 1.0:
        problems.append(f"efficiency out of range: eta0 = {twin.eta0}")
    if not twin.l_cff > 0:
        problems.append("l_cff must be positive")
    if not twin.epsilon >= 0:
        problems.append("epsilon must be non-negative")
    if not twin.mean_photons_per_pixel > 0:
        problems.append("mean_photons_per_pixel must be positive")
    if not isinstance(twin.beam_profile, str):
        radius = float(twin.beam_profile)
        if not radius > 0:
            problems.append("Gaussian beam_profile radius must be positive")
        elif not 0 < radius * radius < math.inf:
            problems.append(f"beam_profile must square to a finite number above 0, got {radius}")
    elif twin.beam_profile != "uniform":
        problems.append(f"unknown beam_profile {twin.beam_profile!r}")
    for name in ("wavelength", "magnification", "camera_pixel"):
        if not getattr(optical, name) > 0:
            problems.append(f"{name} must be positive")
    if not optical.blur_fwhm >= 0:
        problems.append("blur_fwhm must be non-negative")
    if not problems:
        try:
            wavenumber = optical.wavenumber
        except ZeroDivisionError:  # the wavelength in um underflows to 0
            wavenumber = math.inf
        for name, value, keys in (
            ("object_pixel", optical.object_pixel, "camera_pixel / magnification"),
            ("wavenumber", wavenumber, "2 pi / wavelength"),
        ):
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{name} = {keys} must be finite and positive, got {value}")
    if not problems:
        q, sigma = 1.0 / optical.object_pixel, optical.blur_fwhm * FWHM_TO_SIGMA
        for keys, value, square in (
            ("1 / object_pixel = magnification / camera_pixel", q, q * q),
            ("blur_fwhm", optical.blur_fwhm, 2.0 * math.pi**2 * (sigma * sigma)),
        ):
            if not math.isfinite(square):
                problems.append(f"{keys} must square to a finite number, got {value}")
        sigma_px = twin.sigma / optical.object_pixel
        if not (math.isfinite(sigma_px) and sigma_px > 0):
            problems.append(
                f"l_cff = {twin.l_cff} um gives a pair correlation {sigma_px} px wide "
                "(l_cff * FWHM_TO_SIGMA / object_pixel): it must be finite and positive"
            )
    if problems:
        raise ConfigError("; ".join(problems))
    return optical, twin


# ---------------------------------------------------------------------------
# Engineered test target: a pi-shaped pure-phase glyph plus a slashed-ring
# glyph carrying both a phase step and a transmittance step.
# ---------------------------------------------------------------------------

def _design_coords(width, height):
    """Pixel coordinates relative to a centered 220x220 design box."""
    if width < TARGET_GRID or height < TARGET_GRID:
        raise GridError(
            f"target grid must be at least {TARGET_GRID}x{TARGET_GRID} "
            f"to hold both glyphs, got {height}x{width}"
        )
    x0 = (width - TARGET_GRID) // 2
    y0 = (height - TARGET_GRID) // 2
    yy, xx = np.mgrid[0:height, 0:width]
    return xx - x0, yy - y0


def target_masks(width, height):
    """Boolean masks (pi_region, null_region) of the two glyphs.

    Glyph geometry is fixed in pixels inside a centered 220x220 design
    box; every stroke is at least 12 px wide so edges span several
    correlation lengths at the default pitch.
    """
    xx, yy = _design_coords(width, height)

    # pi glyph: top bar plus two vertical legs (the legs provide the
    # straight vertical edges used by the resolution metrology).
    bar = (yy >= 34) & (yy < 48) & (xx >= 32) & (xx < 102)
    left_leg = (yy >= 48) & (yy < 110) & (xx >= 44) & (xx < 58)
    right_leg = (yy >= 48) & (yy < 110) & (xx >= 76) & (xx < 90)
    pi_region = bar | left_leg | right_leg

    # slashed-ring glyph: annulus plus a diagonal stroke.
    cx, cy = 150.0, 150.0
    r = np.hypot(xx - cx, yy - cy)
    ring = (r >= 26.0) & (r < 40.0)
    slash = (np.abs((xx - cx) + (yy - cy)) <= 9.0) & (r < 52.0)
    null_region = ring | slash

    return pi_region, null_region


def generate_test_target(width: int, height: int, pitch: float) -> ObjectSpec:
    """Render the engineered phase/transmittance test object.

    The pi glyph is a pure phase structure at -0.226 rad; the slashed
    ring carries phase 0.345 rad and transmittance 0.94; the background
    is phase 0, transmittance 1.  Deterministic: identical inputs
    produce bit-identical output.
    """
    pi_region, null_region = target_masks(width, height)
    phi = np.zeros((height, width))
    phi[pi_region] = -0.226
    phi[null_region] = 0.345
    tau = np.ones((height, width))
    tau[null_region] = 0.94
    return ObjectSpec(tau=ScalarField2D(pitch, tau), phi=ScalarField2D(pitch, phi))


# The resolution scan's edge on the metrology target, in pixels: its
# profile averages the 5 fine rows centred on EDGE_ROW, and its fit takes
# the columns EDGE_WINDOW[0] <= column < EDGE_WINDOW[1].
EDGE_ROW = 110
EDGE_WINDOW = (40, 128)


def generate_edge_target(pitch: float) -> ObjectSpec:
    """Render the 220x220 metrology target: a vertical pure-phase stripe.

    Columns 90 (inclusive) to 170 (exclusive) carry phase -0.3 rad;
    transmittance is 1 everywhere.  The left stripe boundary provides a
    long straight edge with wide flat plateaus on both sides, suitable
    for edge-spread resolution fits at any binning.
    """
    n = TARGET_GRID
    phi = np.zeros((n, n))
    phi[:, 90:170] = -0.3
    return ObjectSpec(tau=ScalarField2D(pitch, np.ones((n, n))), phi=ScalarField2D(pitch, phi))


def blank_object(width: int, height: int, pitch: float) -> ObjectSpec:
    """The object-free scene: transmittance 1 and phase 0 everywhere."""
    return ObjectSpec(
        tau=ScalarField2D(pitch, np.ones((height, width))),
        phi=ScalarField2D(pitch, np.zeros((height, width))),
    )
