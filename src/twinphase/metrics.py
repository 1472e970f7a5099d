"""Quantitative evaluation: Pearson similarity and the quantum-advantage
ratio, edge-spread resolution metrology, and the noise-suppression scan
against the correlation length.

The edge fit and its root (``curve_fit`` and ``brentq``) come from
``twinphase.fitting``, scipy.optimize's code paths; ``esf_fit`` and
``lsf_fwhm_with_aperture``, which only ``scan resolution`` runs, import it
on first use, so ``import twinphase.cli`` does not load it.
``step_heights`` erodes with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EDGE_ROW,
    EDGE_WINDOW,
    TARGET_GRID,
    ConfigError,
    NumericalError,
    OpticalSystem,
    ScalarField2D,
    TwinBeamConfig,
    blank_object,
    generate_edge_target,
    generate_test_target,
    target_masks,
)
from .optics import defocus_stack, exit_field, imaging_blur
from .retrieval import (
    RetrievalConfig,
    phase_from_twin_frames,
    poisson_solve_dirichlet,
    resolve_k,
    tie_retrieve,
)
from .runtime import ordered_map, scipy_function
from .twinbeam import (
    _POISSON_LAM_MAX,
    _bin_sums,
    bin_counts,
    d_factor_for_bin,
    expected_counts,
    exposures,
    sample_twin_frame,
)


@dataclass(frozen=True)
class ESFFit:
    """Error-function fit of an edge profile."""

    w: float
    w_ci: tuple  # 95% interval [w_sub, w_sup]
    ok: bool = True
    message: str = ""


def pearson(phi: ScalarField2D, phi_ref: ScalarField2D) -> float:
    """Pearson correlation of two images over the full pixel set;
    NumericalError when either image is constant."""
    phi.require_same_grid(phi_ref)
    a = phi.values.ravel()
    b = phi_ref.values.ravel()
    da = a - a.mean()
    db = b - b.mean()
    va = float(da @ da)
    vb = float(db @ db)
    if va == 0.0 or vb == 0.0:
        raise NumericalError("pearson undefined for a constant image")
    return float((da @ db) / math.sqrt(va * vb))


# ---------------------------------------------------------------------------
# Edge-spread resolution metrology
# ---------------------------------------------------------------------------

def _esf_model(x, a, b, x0, w):
    return 0.5 * a * scipy_function("erf")((x - x0) / (math.sqrt(2.0) * w)) + b


def esf_fit(profile, x) -> ESFFit:
    """Fit ESF(x) = (a/2) erf((x - x0)/(sqrt(2) w)) + b to a 1D profile.

    ``x`` holds the sample positions (micrometers, e.g. of a shifted-bin
    supersampled profile).  The 95% interval on w comes from the
    linearized covariance of the least-squares fit; the FWHM of the
    corresponding line spread function is w / core.FWHM_TO_SIGMA.
    """
    from .fitting import curve_fit

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
    w = float(popt[3])
    se_w = float(math.sqrt(max(pcov[3, 3], 0.0)))
    w_sub, w_sup = w - 1.96 * se_w, w + 1.96 * se_w
    return ESFFit(w=w, w_ci=(w_sub, w_sup))


def _failed_fit(message):
    nan = float("nan")
    return ESFFit(w=nan, w_ci=(nan, nan), ok=False, message=message)


def _eroded(mask):
    """``mask`` eroded 4 times by the four-neighbour cross, with False
    outside the grid: ``scipy.ndimage.binary_erosion(mask, iterations=4)``."""
    for _ in range(4):
        m = np.pad(mask, 1)
        mask = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    return mask


def step_heights(phase: ScalarField2D, bin_px: int, fine_shape: tuple) -> dict:
    """Median step of each glyph relative to the background level.

    The glyph interiors are eroded by 4 pixels to avoid edge
    roll-off; the background level is the median outside both glyphs.
    Requires the standard centered test-target geometry.  ``phase`` is
    binned by ``bin_px`` from an acquisition grid of ``fine_shape``
    ``(width, height)``; the masks are binned with the same centered
    crop.
    """
    fw, fh = fine_shape
    pi_mask, null_mask = target_masks(fw, fh)
    pi_in, null_in = _eroded(pi_mask), _eroded(null_mask)
    background = ~(pi_mask | null_mask)
    if bin_px > 1:
        def coarse(mask, thresholds):
            cov = _bin_sums(mask, bin_px) / (bin_px * bin_px)
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
# Scans
# ---------------------------------------------------------------------------

def ratio_statistics(c_quant_frames, c_clas_frames) -> dict:
    """Pearson-ratio advantage of paired per-frame coefficients.

    The coefficients are averaged over frames before the ratio is taken.
    Returns ``c_quant`` and ``c_clas`` (the means), ``ratio_stderr`` and
    ``c_quant_frames`` (the quantum coefficients, in frame order).
    """
    c_q = np.array(c_quant_frames)
    c_c = np.array(c_clas_frames)
    n = len(c_q)
    c_quant, c_clas = float(c_q.mean()), float(c_c.mean())
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
        stderr = abs(c_quant / c_clas) * math.sqrt(max(var, 0.0))
    else:
        stderr = float("nan")
    return {
        "c_quant": c_quant,
        "c_clas": c_clas,
        "ratio_stderr": stderr,
        "c_quant_frames": tuple(float(v) for v in c_q),
    }


def advantage_scan(
    dz_list, frames: int, sys: OpticalSystem, twin: TwinBeamConfig, rng
):
    """Single-frame Pearson-ratio advantage of the ``tie`` and ``tau``
    weights over the classical k = 0, on the test target
    (``core.generate_test_target`` on the ``core.TARGET_GRID`` grid at
    ``sys.object_pixel``), at bins 1 and 3.

    Each retrieved phase is compared with the shot-noise-free reference:
    the classical TIE solve of the exact expected counts of the three
    planes (``expected_counts``), the infinite-frame limit of averaging
    acquisitions.  Exposure i of ``exposures(dz_list, frames)`` is drawn
    from stream i of ``rng``: frame f at the k-th dz takes the streams
    3 (k frames + f) + j, j = 0, 1, 2 for -dz, 0 and +dz.  Each frame is
    drawn and scored on one thread of ``ordered_map``, so a thread holds
    one triple and one solve at a time.  Returns rows in (dz, bin,
    weight) order, each with ``dz``, ``k_mode``, ``d_factor`` and the
    ``ratio_statistics`` of the frames' coefficients.  A constant phase
    map raises NumericalError naming its dz, bin, weight and frame.
    """
    obj = generate_test_target(TARGET_GRID, TARGET_GRID, sys.object_pixel)
    blank = blank_object(TARGET_GRID, TARGET_GRID, sys.object_pixel)
    mean_i = expected_counts(blank, sys, twin, 0.0)[1]
    bins, modes = (1, 3), ("classical", "tie", "tau")
    rows = []
    for k, dz in enumerate(dz_list):
        signed = [s for _, _, _, s in exposures([dz], 1)]
        planes = [expected_counts(obj, sys, twin, s)[0] for s in signed]
        configs = {
            (b, m): RetrievalConfig(dz, resolve_k(m, b, mean_i.pitch, twin), b, sys)
            for b in bins
            for m in modes
        }
        refs = {b: tie_retrieve(planes, configs[b, "classical"]).values for b in bins}
        del planes

        def coefficients(f):
            triple = [
                sample_twin_frame(obj, sys, twin, s, rng.child(3 * (k * frames + f) + j))
                for j, s in enumerate(signed)
            ]
            out = {}
            for (b, mode), cfg in configs.items():
                phi = phase_from_twin_frames(triple, mean_i, cfg).values
                try:
                    out[b, mode] = pearson(phi, refs[b])
                except NumericalError as exc:
                    point = f"dz={dz:g} mm, bin {b}, {mode} weight, frame {f}"
                    raise NumericalError(f"{exc} at {point}") from None
            return out

        coeffs = ordered_map(coefficients, range(frames))
        for b in bins:
            d_factor = d_factor_for_bin(b, obj.tau.pitch, twin.l_cff)
            c_clas = [c[b, "classical"] for c in coeffs]
            for mode in modes[1:]:
                stats = ratio_statistics([c[b, mode] for c in coeffs], c_clas)
                rows.append({"dz": dz, "k_mode": mode, "d_factor": d_factor, **stats})
    return rows


def resolution_scan(dz_list, bin_list, sys: OpticalSystem, twin: TwinBeamConfig):
    """Phase resolution r_phase(D, dz) from noise-free reconstructions of
    the edge target (``core.generate_edge_target`` at ``sys.object_pixel``).

    The shot-noise-free reference at each point is the wave-optics
    forward stack (the finite-dz resolution loss is a diffraction
    effect), binned to the working D and solved with the TIE.  At
    bin_px > 1 the edge profile is supersampled by shift-averaging
    reconstructions over every bin phase, which recovers the
    pre-sampling blur width below the detector pitch; the reported
    resolution is the FWHM of that fitted Gaussian line spread
    convolved with the bin aperture, so it includes the effective
    pixel size of the delivered image.  The exit field is built once;
    each dz point runs on one thread of ``ordered_map``.  Returns rows of
    (dz, bin_px, d_factor, r_phase_um, se_r_um) in dz order.  A numerical
    failure of a point (a floating-point error or NumericalError) raises
    NumericalError naming its dz.  Once every point has run, failed
    edge-spread fits raise NumericalError naming each one's (dz, bin) and
    the fit's reason.
    """
    pitch = sys.object_pixel
    field = exit_field(generate_edge_target(pitch), sys)

    def point(dz):
        rows, failed = [], []
        try:
            stack = defocus_stack(field, dz, sys, mean_photons=twin.mean_photons_per_pixel)
            cfg = RetrievalConfig(dz=dz, sys=sys)
            for bin_px in bin_list:
                xs, vals = _interleaved_edge_samples(stack, cfg, bin_px)
                fit = esf_fit(vals, x=xs)
                if not fit.ok:
                    failed.append(f"dz={dz:g} mm, bin {bin_px}: {fit.message}")
                    continue
                aperture = bin_px * pitch
                r_um = lsf_fwhm_with_aperture(aperture, fit.w)
                # Propagate the fit uncertainty through the aperture
                # convolution via the local slope dr/dw.
                h = max(1e-4, 1e-3 * fit.w)
                slope = (
                    lsf_fwhm_with_aperture(aperture, fit.w + h)
                    - lsf_fwhm_with_aperture(aperture, max(fit.w - h, 0.0))
                ) / (2.0 * h)
                rows.append(
                    {
                        "dz": dz,
                        "bin_px": bin_px,
                        "d_factor": d_factor_for_bin(bin_px, pitch, twin.l_cff),
                        "r_phase_um": r_um,
                        "se_r_um": slope * (fit.w_ci[1] - fit.w_ci[0]) / 3.92,
                    }
                )
        except (FloatingPointError, NumericalError) as exc:
            raise NumericalError(f"{exc} at dz={dz:g} mm") from None
        return rows, failed

    points = list(ordered_map(point, dz_list))
    failed = [message for _, messages in points for message in messages]
    if failed:
        raise NumericalError("edge-spread fit failed at " + "; ".join(failed))
    return [row for rows, _ in points for row in rows]


def lsf_fwhm_with_aperture(aperture: float, w: float) -> float:
    """FWHM of a Gaussian line spread of width w seen through a box
    aperture of the given positive width (both in micrometers)."""
    from .fitting import brentq

    if w <= 1e-9 * max(aperture, 1.0):
        return aperture
    half = 0.5 * aperture
    ndtr = scipy_function("ndtr")

    def profile(x):
        return ndtr((x + half) / w) - ndtr((x - half) / w)

    target_level = 0.5 * profile(0.0)
    return 2.0 * brentq(lambda x: profile(x) - target_level, 0.0, half + 5.0 * w)


def _interleaved_edge_samples(stack, config, bin_px):
    """Sensor-shift-averaged edge profile through the working binning,
    at the rows and columns of ``core.EDGE_ROW`` and ``core.EDGE_WINDOW``.

    Reconstructs the phase once per column bin phase, expands each
    coarse row back to the fine grid (each binned value covers its own
    bin_px columns) and averages over the bin phases.  The average over
    alignments is the box-convolved edge response of the binned system,
    which an error-function fit can sample below the effective pixel.
    """
    pitch = stack.i_zero.pitch
    n_cols = stack.i_zero.width
    acc = np.zeros(n_cols)
    hits = np.zeros(n_cols)
    for c0 in range(bin_px):
        planes = (stack.i_minus, stack.i_zero, stack.i_plus)
        phi = tie_retrieve((bin_counts(f, bin_px, origin=(0, c0)) for f in planes), config)
        # average over the binned rows covering 5 adjacent fine rows
        rows = np.unique(
            np.clip(
                (EDGE_ROW + np.arange(-2, 3)) // bin_px, 0, phi.values.height - 1
            )
        )
        prof = phi.values.values[rows].mean(axis=0)
        fine = np.repeat(prof, bin_px)
        stop = min(c0 + fine.size, n_cols)
        acc[c0:stop] += fine[: stop - c0]
        hits[c0:stop] += 1.0
    cols = np.arange(*EDGE_WINDOW)
    cols = cols[hits[cols] == bin_px]
    return (cols + 0.5) * pitch, acc[cols] / bin_px


def noise_suppression_scan(
    l_cff_list,
    width: int,
    height: int,
    sys: OpticalSystem,
    twin: TwinBeamConfig,
    rng,
    n_trials: int = 4,
):
    """Percentage of shot noise removed from the retrieved phase.

    For each correlation length: draw Poissonian counts around the flat
    level i0 = ``twin.mean_photons_per_pixel`` on a grid of pitch
    ``sys.object_pixel``; build the correlated copy by redistributing
    the counts with a Gaussian kernel of FWHM l_cff; retrieve the phase
    noise of the corrected and of the classical noise maps through the
    TIE (uniform-intensity form, k_tie = eta0 = 1) and compare variances;
    the solve is linear, so the TIE's factor -k / (sqrt(2) i0 dz) cancels
    in their ratio and is left out.  The trials are drawn from ``rng`` in
    order, l_cff by l_cff, and evaluated on the threads of
    ``ordered_map``, each trial's maps on one thread.  Returns rows of
    (l_cff_um, suppression_pct), the mean over each l_cff's ``n_trials``
    trials.  A level numpy cannot draw Poisson counts around raises
    ConfigError; a classical phase variance of 0, or a floating-point
    error of a solve, NumericalError naming the l_cff.
    """
    l_cff_list = tuple(l_cff_list)
    pitch, i0 = sys.object_pixel, twin.mean_photons_per_pixel
    if not i0 <= _POISSON_LAM_MAX:
        raise ConfigError(f"mean_photons_per_pixel {i0:.3g} is above numpy's Poisson limit")
    gen = rng.generator()

    def trials():
        for l_cff in l_cff_list:
            for _ in range(n_trials):
                yield l_cff, gen.poisson(i0, size=(height, width))

    def phase_var(noise):
        return float(poisson_solve_dirichlet(ScalarField2D(pitch, noise)).values.var())

    def removed(trial):
        l_cff, counts = trial
        counts = counts.astype(float)
        sigma = counts - i0
        smeared = imaging_blur(ScalarField2D(pitch, counts), l_cff)
        sigma_twin = smeared.values - i0
        at = (
            f"at l_cff = {l_cff:g} um: "
            "check mean_photons_per_pixel, camera_pixel and magnification"
        )
        try:
            var_clas = phase_var(sigma)
            if var_clas == 0:
                raise NumericalError(f"the classical phase variance is 0 {at}")
            return 100.0 * (1.0 - phase_var(sigma - sigma_twin) / var_clas)
        except FloatingPointError as exc:
            raise NumericalError(f"the phase variance solve failed ({exc}) {at}") from None

    pct = list(ordered_map(removed, trials()))
    return [
        {
            "l_cff_um": float(l_cff),
            "suppression_pct": float(np.mean(pct[j * n_trials : (j + 1) * n_trials])),
        }
        for j, l_cff in enumerate(l_cff_list)
    ]
