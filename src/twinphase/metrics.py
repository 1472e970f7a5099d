"""Quantitative evaluation: Pearson similarity and the quantum-advantage
ratio, edge-spread resolution metrology, and the noise-suppression scan
against the correlation length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import binary_erosion
from scipy.optimize import brentq, curve_fit
from scipy.special import erf, ndtr

from .core import ObjectSpec, OpticalSystem, ScalarField2D, TwinBeamConfig, target_masks
from .optics import defocus_stack, exit_field, imaging_blur, uniform_illumination
from .retrieval import (
    PhaseImage,
    RetrievalConfig,
    phase_from_counts,
    phase_from_twin_frames,
    poisson_solve_dirichlet,
    tie_retrieve,
)
from .twinbeam import bin_counts, d_factor_for_bin, expected_counts, ordered_map

FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class AdvantageResult:
    """Pearson-ratio quantum advantage at one (dz, D) operating point."""

    c_quant: float
    c_clas: float
    ratio: float
    d_factor: float
    ratio_stderr: float = float("nan")
    c_quant_frames: tuple = ()

    def __post_init__(self):
        for c in (self.c_quant, self.c_clas):
            if abs(c) > 1.0 + 1e-12:
                raise ValueError("correlation coefficient out of [-1, 1]")


@dataclass(frozen=True)
class ESFFit:
    """Error-function fit of an edge profile."""

    a: float
    b: float
    x0: float
    w: float
    w_ci: tuple  # 95% interval [w_sub, w_sup]
    ok: bool = True
    message: str = ""


def pearson(phi: ScalarField2D, phi_ref: ScalarField2D) -> float:
    """Pearson correlation of two images over the full pixel set."""
    phi.require_same_grid(phi_ref)
    a = phi.values.ravel()
    b = phi_ref.values.ravel()
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise ValueError("pearson undefined for a constant image")
    return float((da @ db) / math.sqrt(va * vb))


# ---------------------------------------------------------------------------
# Edge-spread resolution metrology
# ---------------------------------------------------------------------------

def _esf_model(x, a, b, x0, w):
    return 0.5 * a * erf((x - x0) / (math.sqrt(2.0) * w)) + b


def esf_fit(profile, x) -> ESFFit:
    """Fit ESF(x) = (a/2) erf((x - x0)/(sqrt(2) w)) + b to a 1D profile.

    ``x`` holds the sample positions (micrometers, e.g. of a shifted-bin
    supersampled profile).  The 95% interval on w comes from the
    linearized covariance of the least-squares fit; the FWHM of the
    corresponding line spread function is FWHM_FACTOR * w.
    """
    y = np.asarray(profile, dtype=float)
    if y.size < 8:
        return _failed_fit("profile too short")
    x = np.asarray(x, dtype=float)
    a0 = y[-4:].mean() - y[:4].mean()
    if a0 == 0.0:
        return _failed_fit("no edge contrast")
    dx = float(np.median(np.diff(x)))
    p0 = [a0, y.mean(), x[y.size // 2], 2.0 * dx]
    try:
        popt, pcov = curve_fit(
            _esf_model,
            x,
            y,
            p0=p0,
            bounds=(
                [-np.inf, -np.inf, x[0], 1e-6 * dx],
                [np.inf, np.inf, x[-1], x[-1] - x[0]],
            ),
            maxfev=10000,
        )
    except (RuntimeError, ValueError) as exc:
        return _failed_fit(str(exc))
    a, b, x0, w = (float(v) for v in popt)
    se_w = float(math.sqrt(max(pcov[3, 3], 0.0)))
    w_sub, w_sup = w - 1.96 * se_w, w + 1.96 * se_w
    return ESFFit(a=a, b=b, x0=x0, w=w, w_ci=(w_sub, w_sup))


def _failed_fit(message):
    return ESFFit(
        a=float("nan"),
        b=float("nan"),
        x0=float("nan"),
        w=float("nan"),
        w_ci=(float("nan"), float("nan")),
        ok=False,
        message=message,
    )


def step_heights(
    phase: ScalarField2D,
    bin_px: int = 1,
    fine_shape: tuple = None,
) -> dict:
    """Median step of each glyph relative to the background level.

    The glyph interiors are eroded by 4 pixels to avoid edge
    roll-off; the background level is the median outside both glyphs.
    Requires the standard centered test-target geometry.  When the
    phase map was binned down from a finer acquisition grid, pass the
    binning factor and the fine ``(width, height)`` so the masks are
    binned with the same centered crop.
    """
    if fine_shape is None:
        fw, fh = phase.width * bin_px, phase.height * bin_px
    else:
        fw, fh = fine_shape
    pi_mask, null_mask = target_masks(fw, fh)
    pi_in = binary_erosion(pi_mask, iterations=4)
    null_in = binary_erosion(null_mask, iterations=4)
    background = ~(pi_mask | null_mask)
    if bin_px > 1:
        def coarse(mask, thresholds):
            f = ScalarField2D(fw, fh, 1.0, mask.astype(float))
            cov = bin_counts(f, bin_px).values / (bin_px * bin_px)
            for t in thresholds:
                sel = cov >= t
                if sel.any():
                    return sel
            return cov > 0.0

        # interiors keep only well-covered bins; fall back to partial
        # coverage when the binning is coarser than the glyph strokes
        pi_in = coarse(pi_in, (0.95, 0.5))
        null_in = coarse(null_in, (0.95, 0.5))
        background = coarse(background, (0.999,))
    level = float(np.median(phase.values[background]))
    return {
        "pi": float(np.median(phase.values[pi_in])) - level,
        "null": float(np.median(phase.values[null_in])) - level,
        "background": level,
    }


# ---------------------------------------------------------------------------
# Quantum-advantage ratio
# ---------------------------------------------------------------------------

def quantum_advantage(
    frame_triples,
    config: RetrievalConfig,
    phi_ref: PhaseImage,
) -> AdvantageResult:
    """Single-frame Pearson-ratio advantage of the configured k over k = 0.

    ``frame_triples`` is a sequence of (frame_minus, frame_zero,
    frame_plus) twin-beam frames; Pearson coefficients against the
    shot-noise-free reference are averaged over frames before taking
    the ratio.
    """
    classical_cfg = replace(config, k_mode="classical")
    c_q, c_c = [], []
    for fm, f0, fp in frame_triples:
        phi_q = phase_from_twin_frames(fm, f0, fp, config)
        phi_c = phase_from_twin_frames(fm, f0, fp, classical_cfg)
        c_q.append(pearson(phi_q.values, phi_ref.values))
        c_c.append(pearson(phi_c.values, phi_ref.values))
    c_q = np.array(c_q)
    c_c = np.array(c_c)
    n = len(c_q)
    ratio = float(c_q.mean() / c_c.mean())
    # first-order error propagation of the ratio of means; the two
    # coefficients come from the same frames, so the shared shot noise
    # cancels through the covariance term
    if n > 1:
        cov = float(np.cov(c_q, c_c, ddof=1)[0, 1])
        var = (
            c_q.var(ddof=1) / c_q.mean() ** 2
            + c_c.var(ddof=1) / c_c.mean() ** 2
            - 2.0 * cov / (c_q.mean() * c_c.mean())
        ) / n
        stderr = float(abs(ratio) * math.sqrt(max(var, 0.0)))
    else:
        stderr = float("nan")
    pitch = frame_triples[0][1].n_s.pitch
    return AdvantageResult(
        c_quant=float(c_q.mean()),
        c_clas=float(c_c.mean()),
        ratio=ratio,
        d_factor=d_factor_for_bin(config.bin_px, pitch, config.twin.l_cff),
        ratio_stderr=stderr,
        c_quant_frames=tuple(float(v) for v in c_q),
    )


def reference_phase(obj: ObjectSpec, config: RetrievalConfig) -> PhaseImage:
    """Shot-noise-free reference reconstruction.

    Runs the classical pipeline on the exact expected photon counts of
    the configured system, the infinite-frame limit of averaging
    acquisitions.
    """
    sys, twin = config.sys, config.twin
    mean_m, _ = expected_counts(obj, sys, twin, -config.dz)
    mean_0, _ = expected_counts(obj, sys, twin, 0.0)
    mean_p, _ = expected_counts(obj, sys, twin, +config.dz)
    cfg = replace(config, k_mode="classical")
    return phase_from_counts(mean_m, mean_0, mean_p, cfg)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def resolution_scan(
    target: ObjectSpec,
    dz_list,
    bin_list,
    sys: OpticalSystem,
    twin: TwinBeamConfig,
    edge_row_um: float,
    edge_window_um,
):
    """Phase resolution r_phase(D, dz) from noise-free reconstructions.

    The shot-noise-free reference at each point is the wave-optics
    forward stack (the finite-dz resolution loss is a diffraction
    effect), binned to the working D and solved with the TIE.  At
    bin_px > 1 the edge profile is supersampled by shift-averaging
    reconstructions over every bin phase, which recovers the
    pre-sampling blur width below the detector pitch; the reported
    resolution is the FWHM of that fitted Gaussian line spread
    convolved with the bin aperture, so it includes the effective
    pixel size of the delivered image.  The exit field is built once
    and propagated to every dz.  Returns rows of (dz, bin_px, d_factor,
    r_phase_um, se_r_um, ok, message), where message is the fit's
    reason for failing ("" when ok).
    """
    rows = []
    pitch = target.phi.pitch
    ill = uniform_illumination(target.phi.width, target.phi.height, pitch)
    field = exit_field(target, ill, sys)
    for dz in dz_list:
        stack = defocus_stack(field, dz, sys, mean_photons=twin.mean_photons_per_pixel)
        cfg = RetrievalConfig(dz=dz, sys=sys, twin=twin)
        for bin_px in bin_list:
            bin_px = int(bin_px)
            xs, vals = _interleaved_edge_samples(
                stack, cfg, bin_px, edge_row_um, edge_window_um
            )
            fit = esf_fit(vals, x=xs)
            aperture = bin_px * pitch
            if fit.ok:
                r_um = lsf_fwhm_with_aperture(aperture, fit.w)
                # Propagate the fit uncertainty through the aperture
                # convolution via the local slope dr/dw.
                h = max(1e-4, 1e-3 * fit.w)
                slope = (
                    lsf_fwhm_with_aperture(aperture, fit.w + h)
                    - lsf_fwhm_with_aperture(aperture, max(fit.w - h, 0.0))
                ) / (2.0 * h)
                se_um = slope * (fit.w_ci[1] - fit.w_ci[0]) / 3.92
            else:
                r_um, se_um = float("nan"), float("nan")
            rows.append(
                {
                    "dz": dz,
                    "bin_px": bin_px,
                    "d_factor": d_factor_for_bin(bin_px, pitch, twin.l_cff),
                    "r_phase_um": r_um,
                    "se_r_um": se_um,
                    "ok": fit.ok,
                    "message": fit.message,
                }
            )
    return rows


def lsf_fwhm_with_aperture(aperture: float, w: float) -> float:
    """FWHM of a Gaussian line spread of width w seen through a box
    aperture of the given width (both in micrometers)."""
    if aperture <= 0.0:
        return FWHM_FACTOR * w
    if w <= 1e-9 * max(aperture, 1.0):
        return aperture
    half = 0.5 * aperture

    def profile(x):
        return ndtr((x + half) / w) - ndtr((x - half) / w)

    target_level = 0.5 * profile(0.0)
    return 2.0 * brentq(lambda x: profile(x) - target_level, 0.0, half + 5.0 * w)


def _interleaved_edge_samples(stack, config, bin_px, edge_row_um, edge_window_um):
    """Sensor-shift-averaged edge profile through the working binning.

    Reconstructs the phase once per column bin phase, expands each
    coarse row back to the fine grid (each binned value covers its own
    bin_px columns) and averages over the bin phases.  The average over
    alignments is the box-convolved edge response of the binned system,
    which an error-function fit can sample below the effective pixel.
    """
    pitch = stack.i_zero.pitch
    n_cols = stack.i_zero.width
    edge_row_px = edge_row_um / pitch
    acc = np.zeros(n_cols)
    hits = np.zeros(n_cols)
    for c0 in range(bin_px):
        def rebin(f):
            return bin_counts(f, bin_px, origin=(0, c0))

        phi = tie_retrieve(
            rebin(stack.i_zero), rebin(stack.i_plus), rebin(stack.i_minus), config
        )
        # average over the binned rows covering 5 adjacent fine rows
        rows = np.unique(
            np.clip(
                (edge_row_px + np.arange(-2, 3)) // bin_px,
                0,
                phi.values.height - 1,
            ).astype(int)
        )
        prof = phi.values.values[rows].mean(axis=0)
        fine = np.repeat(prof, bin_px)
        stop = min(c0 + fine.size, n_cols)
        acc[c0:stop] += fine[: stop - c0]
        hits[c0:stop] += 1.0
    x_um = (np.arange(n_cols) + 0.5) * pitch
    keep = (
        (hits == bin_px)
        & (x_um >= edge_window_um[0])
        & (x_um <= edge_window_um[1])
    )
    return x_um[keep], acc[keep] / bin_px


def noise_suppression_scan(
    l_cff_list,
    width: int,
    height: int,
    pitch: float,
    dz: float,
    i0: float,
    wavenumber: float,
    rng,
    n_trials: int = 4,
):
    """Percentage of shot noise removed from the retrieved phase.

    For each correlation length: draw Poissonian counts around the flat
    level i0; build the correlated copy by redistributing the counts
    with a Gaussian kernel of FWHM l_cff; retrieve the phase noise of
    the corrected and of the classical noise maps through the TIE
    (uniform-intensity form, k_tie = eta0 = 1) and compare variances.
    The trials are drawn from ``rng`` in order, l_cff by l_cff, and
    evaluated on the threads of ``ordered_map``, each trial's maps on
    one thread.  Returns rows of (l_cff_um, suppression_pct), the mean
    over each l_cff's ``n_trials`` trials.
    """
    l_cff_list = tuple(l_cff_list)
    dz_um = dz * 1e3
    scale = -wavenumber / (math.sqrt(2.0) * i0 * dz_um)
    gen = rng.generator()

    def trials():
        for l_cff in l_cff_list:
            for _ in range(n_trials):
                yield l_cff, gen.poisson(i0, size=(height, width))

    def phase_var(noise):
        rhs = ScalarField2D(width, height, pitch, scale * noise)
        phi = poisson_solve_dirichlet(rhs)
        return float(phi.values.var())

    def removed(trial):
        l_cff, counts = trial
        counts = counts.astype(float)
        sigma = counts - i0
        smeared = imaging_blur(ScalarField2D(width, height, pitch, counts), l_cff)
        sigma_twin = smeared.values - i0
        var_clas = phase_var(sigma)
        var_corr = phase_var(sigma - sigma_twin)
        return 100.0 * (1.0 - var_corr / var_clas)

    pct = list(ordered_map(removed, trials()))
    return [
        {
            "l_cff_um": float(l_cff),
            "suppression_pct": float(np.mean(pct[j * n_trials : (j + 1) * n_trials])),
        }
        for j, l_cff in enumerate(l_cff_list)
    ]
