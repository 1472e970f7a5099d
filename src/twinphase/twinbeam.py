"""Stochastic twin-beam generator and correlation metrology.

The sampler is formulated on count fields rather than individual
photons: pair births are a Poisson field, detection is a correlated
binomial thinning of that field, and transverse transport (pair
correlation spread, phase-gradient displacement, imaging blur) is a
multinomial redistribution of counts with separable per-axis kernels.
The per-axis kernel is the exact distribution of
``uniform(0,1) + shift + N(0, s)`` binned to unit pixels, so the
measured conditional collection efficiency matches the continuous
double-integral model at every binning, with no per-photon loops.

Generation happens on an internally padded grid and is cropped to the
requested region, so border pixels keep their correlation partners.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .core import (
    FWHM_TO_SIGMA,
    ConfigError,
    NoPhotonError,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)
# The largest rate numpy's Generator.poisson draws ("lam value too large"
# above it).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class TwinBeamFrame:
    """One acquisition: signal and idler photon-count images.

    ``n_s`` is taken at the frame's defocus; the idler is always
    object-free at z = 0.  ``spill`` is the fraction of detected photons
    that left the simulation grid and were dropped.
    """

    n_s: ScalarField2D
    n_i: ScalarField2D
    spill: float = 0.0

    def __post_init__(self):
        self.n_s.require_same_grid(self.n_i)
        for arm, f in (("signal", self.n_s), ("idler", self.n_i)):
            v = f.values
            if np.any(v < 0) or np.any(v != np.round(v)):
                raise ValueError(f"{arm} counts must be non-negative integers")


@dataclass(frozen=True)
class NrfPoint:
    """Measured noise statistics at one binning."""

    d_factor: float
    nrf: float
    fano: float
    nrf_stderr: float = float("nan")


# ---------------------------------------------------------------------------
# Conditional collection efficiency and the NRF model
# ---------------------------------------------------------------------------

def _eta_c_1d(d_factor: float, epsilon: float) -> float:
    """One transverse axis of the pair-collection efficiency.

    The double integral of the Gaussian pair correlation over two
    matched segments of length D (in correlation-length units, center
    offset epsilon) reduces to a single integral against the triangular
    overlap density.
    """
    s = FWHM_TO_SIGMA  # sigma in units of l_cff

    def integrand(w):
        pdf = math.exp(-0.5 * ((w + epsilon) / s) ** 2) / (s * _SQRT2PI)
        return (d_factor - abs(w)) * pdf

    lo = max(-d_factor, -epsilon - 8 * s)
    hi = min(d_factor, -epsilon + 8 * s)
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(integrand, lo, hi, points=[0.0], epsabs=1e-10, limit=200)
    return min(val / d_factor, 1.0)


def eta_c(d_factor: float, epsilon: float) -> float:
    """Pair-collection efficiency eta_c(D, epsilon), in [0, 1].

    Product of two identical one-axis factors (the correlation is
    treated as symmetric along both transverse directions, with equal
    misalignment on both axes).
    """
    return _eta_c_1d(d_factor, epsilon) ** 2


def nrf_predicted(eta0: float, d_factor: float, epsilon: float) -> float:
    """Closed-form noise reduction factor 1 - eta0 * eta_c(D, epsilon)."""
    return 1.0 - eta0 * eta_c(d_factor, epsilon)


def d_factor_for_bin(bin_px: int, pitch: float, l_cff: float) -> float:
    """Resolution factor D of a bin_px x bin_px integration area."""
    return bin_px * pitch / l_cff


# ---------------------------------------------------------------------------
# Count redistribution kernels
# ---------------------------------------------------------------------------

# The kernel arithmetic below works in place on arrays it owns (``t``,
# ``z``): a smooth object's shifts are nearly all distinct, so a kernel
# table may be grid-sized.  Each operation keeps the operand order of the
# plain expression in its docstring, so the results are bit-identical.

def _cdf_integral(z):
    """Antiderivative of the standard normal CDF, z * Phi(z) + phi(z)
    with phi(z) = exp(-0.5 * z * z) / sqrt(2 pi), computed in place of
    the array ``z`` with one temporary, z * Phi(z).  Scaling by -0.5 is
    exact, so (z * z) * -0.5 rounds as (-0.5 * z) * z does, except where
    it underflows or overflows and exp gives 1 or 0 either way; the sum
    and product commute."""
    z_cdf = ndtr(z)
    z_cdf *= z
    np.multiply(z, z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z /= _SQRT2PI
    z += z_cdf
    return z


def _shift_cdf(t, s):
    """P(uniform(0,1) + N(0, s) < t), computed in place of the array ``t``:
    s * (I(t / s) - I((t - 1) / s)) with I = _cdf_integral, or
    clip(t, 0, 1) when s = 0."""
    if s == 0.0:
        return np.clip(t, 0.0, 1.0, out=t)
    lower = np.subtract(t, 1.0, out=np.empty_like(t))
    lower /= s
    t /= s
    t = _cdf_integral(t)
    t -= _cdf_integral(lower)
    t *= s
    return t


def _scatter_shift(out, take, j, axis):
    """Add ``take`` shifted by integer offset j along axis; return the
    spill, an int for integer counts and a float for float ones."""
    n = out.shape[axis]
    if abs(j) >= n:
        return take.sum().item()
    sl_all = [slice(None), slice(None)]
    if j == 0:
        out += take
        return 0
    dst, src, lost = list(sl_all), list(sl_all), list(sl_all)
    if j > 0:
        dst[axis] = slice(j, None)
        src[axis] = slice(None, -j)
        lost[axis] = slice(-j, None)
    else:
        dst[axis] = slice(None, j)
        src[axis] = slice(-j, None)
        lost[axis] = slice(None, -j)
    out[tuple(dst)] += take[tuple(src)]
    return take[tuple(lost)].sum().item()


def _shift_table(shift):
    """``(d, inv)`` of a scalar or per-pixel shift (pixels), or of any
    other map: its distinct values in ascending order, and the index in
    ``d`` of each pixel's value, in the narrowest unsigned dtype that
    holds the indices of ``d`` (a scalar is a one-entry table)."""
    shift = np.asarray(shift, dtype=float)
    d = np.unique(shift)
    return d, np.searchsorted(d, shift).astype(np.min_scalar_type(d.size - 1))


def _shift_axis(counts, table, s, axis, rng):
    """Redistribute counts along one axis by ``uniform + shift + N(0, s)``,
    in the buffer of ``counts``, which is overwritten; return the spill.

    ``table`` is the ``_shift_table`` of the shift, so the shift map
    itself need not outlive it.  With ``rng`` set the redistribution is
    a multinomial sample (iterated binomial over offsets) and the spill
    an int; with ``rng=None`` it is the exact expectation of float
    ``counts``, for deterministic mean-count computations, and the spill
    a float.  The kernel tables are computed once per distinct shift
    ``d`` and gathered onto the pixels through ``inv``.
    """
    d, inv = table
    jmin = int(math.floor(float(d[0]) - 6.0 * s))
    jmax = int(math.ceil(float(d[-1]) + 6.0 * s))

    sampled = rng is not None
    rem = counts.copy()
    counts[...] = 0
    rem_w = np.ones(d.shape)
    p = np.empty(d.shape)
    spill = 0
    cdf_prev = _shift_cdf(np.subtract(jmin, d), s)
    for j in range(jmin, jmax + 1):
        cdf_next = _shift_cdf(np.subtract(j + 1, d), s)
        # prob = cdf_next - cdf_prev, in the buffer of cdf_prev
        prob = np.subtract(cdf_next, cdf_prev, out=cdf_prev)
        cdf_prev = cdf_next
        # p = clip(where(rem_w > 0, prob / max(rem_w, 1e-300), 0), 0, 1);
        # rem_w is never negative, so "not rem_w > 0" is "rem_w <= 0"
        np.maximum(rem_w, 1e-300, out=p)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(prob, p, out=p)
        np.copyto(p, 0.0, where=rem_w <= 0.0)
        np.clip(p, 0.0, 1.0, out=p)
        if sampled:
            take = rng.binomial(rem, p[inv])
        else:
            take = rem * p[inv]
        rem -= take
        rem_w -= prob
        np.maximum(rem_w, 0.0, out=rem_w)
        spill += _scatter_shift(counts, take, j, axis)
        del take
    # kernel truncation tail (< 1e-8 of the mass)
    spill += np.sum(rem).item()
    return spill


def _redistribute(counts, shift, s, rng):
    """``_shift_axis`` along axis 0, then axis 1, in the buffer of
    ``counts``, which is overwritten; returns (counts, spill).

    ``shift(axis)`` gives the shift along ``axis``.  A per-pixel map is
    made just before its axis runs and dropped once its table exists.
    """
    spill = 0
    for axis in (0, 1):
        spill += _shift_axis(counts, _shift_table(shift(axis)), s, axis, rng)
    return counts, spill


# ---------------------------------------------------------------------------
# Twin-beam frame sampling
# ---------------------------------------------------------------------------

def _pair_rate(twin: TwinBeamConfig, width, height, pitch, margin):
    """Per-pixel pair birth rate on the padded grid.

    Births extend one kernel reach beyond the requested region (so
    border pixels keep their correlation partners) and the padded grid
    extends one further reach (so no reachable photon ever leaves it).
    The illumination weight is normalized to unit mean over the
    requested region, so the detected signal marginal averages
    mean_photons_per_pixel there.  With eta0 = 0 nothing is ever
    detected, and the rate is zero.  A rate that is not finite (a beam
    too narrow to light any pixel of the region) or that numpy cannot
    draw raises ConfigError.
    """
    pw, ph = width + 4 * margin, height + 4 * margin
    if twin.beam_profile == "uniform":
        weight = np.ones((ph, pw))
    else:
        radius = float(twin.beam_profile)
        x = (np.arange(pw) - (pw - 1) / 2.0) * pitch
        y = (np.arange(ph) - (ph - 1) / 2.0) * pitch
        weight = np.exp(-2.0 * (x[np.newaxis, :] ** 2 + y[:, np.newaxis] ** 2) / radius**2)
        roi = weight[2 * margin : 2 * margin + height, 2 * margin : 2 * margin + width]
        with np.errstate(invalid="ignore", divide="ignore"):  # checked below
            weight = weight / roi.mean()
    # no births in the outermost reach ring
    weight[:margin, :] = 0.0
    weight[-margin:, :] = 0.0
    weight[:, :margin] = 0.0
    weight[:, -margin:] = 0.0
    weight *= twin.mean_photons_per_pixel / twin.eta0 if twin.eta0 > 0 else 0.0
    peak = weight.max()
    if not peak <= _POISSON_LAM_MAX:  # also false for nan
        raise ConfigError(
            f"pair-birth rate {peak:.3g} per pixel is not a finite rate of at most "
            f"{_POISSON_LAM_MAX:.3g}: check mean_photons_per_pixel, eta0 and beam_profile"
        )
    return weight


def _phase_displacement(obj: ObjectSpec, sys: OpticalSystem, dz, margin, axis):
    """Geometric-optics transverse displacement (dz/k) d(phi)/d(axis), in
    pixels, on the phase grid padded by ``margin``; 0.0 at dz = 0.  The
    gradient along one axis has the bits of that axis's map of the
    gradient along both."""
    if dz == 0.0:
        return 0.0
    phi = np.pad(obj.phi.values, margin, mode="edge")
    pitch = obj.phi.pitch
    g = np.gradient(phi, pitch, axis=axis)
    del phi
    # scale * g / pitch, in the buffer of the gradient
    np.multiply((dz * 1e3) / sys.wavenumber, g, out=g)  # scale in um^2
    g /= pitch
    return g


def _transport(obj, sys, twin, dz):
    """Set-up shared by the sampler and its expectation counterpart.

    Returns ``(template, crop, rate, tau, idler, signal)``: the output
    grid, the slices that crop the padded grid to it, the pair birth
    rate and the transmittance on the padded grid, and each arm's
    ``(shift, s)`` arguments of ``_redistribute``.  The signal arm's
    padded displacement maps are not made here: its ``shift`` makes
    each one when ``_redistribute`` reaches its axis.
    """
    template = obj.tau
    width, height, pitch = template.width, template.height, template.pitch
    sigma_px = twin.sigma / pitch
    delta_px = twin.delta / pitch
    blur_px = sys.blur_fwhm * FWHM_TO_SIGMA / pitch
    max_disp = max(
        float(np.max(np.abs(_phase_displacement(obj, sys, dz, 0, axis)))) for axis in (0, 1)
    )
    margin = int(math.ceil(6 * sigma_px + abs(delta_px) + 6 * blur_px + max_disp)) + 1

    rate = _pair_rate(twin, width, height, pitch, margin)
    tau = np.pad(obj.tau.values, 2 * margin, mode="edge")
    crop = (slice(2 * margin, 2 * margin + height), slice(2 * margin, 2 * margin + width))
    idler = (lambda axis: delta_px, sigma_px)
    signal = (lambda axis: _phase_displacement(obj, sys, dz, 2 * margin, axis), blur_px)
    return template, crop, rate, tau, idler, signal


def _thinning(eta0, tau):
    """Detection probabilities of one pair, in the buffer of the array
    ``tau``: ``(p_both, p1, p2)``.

    p_both = eta0^2 tau is the chance that both photons are detected;
    p1 = p_s_only / (1 - p_both) that the signal alone is, given not
    both; p2 = p_i_only / (1 - p_both - p_s_only) that the idler alone
    is, given neither of those; with p_s_only = eta0 tau (1 - eta0) and
    p_i_only = eta0 (1 - eta0 tau).  The denominators are floored at
    1e-300 and p1, p2 clipped to [0, 1].
    """
    p_both = np.multiply(eta0 * eta0, tau, out=np.empty_like(tau))
    eta_tau = np.multiply(eta0, tau, out=tau)
    p_i_only = np.subtract(1.0, eta_tau, out=np.empty_like(tau))
    p_i_only *= eta0
    p_s_only = np.multiply(eta_tau, 1.0 - eta0, out=eta_tau)
    not_both = np.subtract(1.0, p_both, out=np.empty_like(tau))
    p1 = np.maximum(not_both, 1e-300, out=np.empty_like(tau))
    p2 = np.subtract(not_both, p_s_only, out=not_both)
    np.maximum(p2, 1e-300, out=p2)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(p_s_only, p1, out=p1)
        np.divide(p_i_only, p2, out=p2)
    np.clip(p1, 0.0, 1.0, out=p1)
    np.clip(p2, 0.0, 1.0, out=p2)
    return p_both, p1, p2


def sample_twin_frame(
    obj: ObjectSpec, sys: OpticalSystem, twin: TwinBeamConfig, dz: float, rng: RngStream
) -> TwinBeamFrame:
    """Monte-Carlo sample one correlated signal/idler photon-count frame.

    Pairs are born from the illumination profile; the idler photon is
    detected with probability eta0 at the point-reflected position plus
    a Gaussian of width sigma offset by the misalignment Delta; the
    signal photon survives the object with probability tau, is detected
    with probability eta0, and lands at the birth position plus the
    phase-gradient displacement (dz/k) grad phi and the imaging blur.
    ``dz`` is signed (mm); ``core.blank_object`` gives object-free frames.
    """
    template, crop, rate, tau, idler, signal = _transport(obj, sys, twin, dz)
    gen = rng.generator()
    rem = gen.poisson(rate)
    # One frame may be in flight per thread (see ordered_map), so each
    # padded array is dropped at its last use, and the signal arm's
    # displacement maps are made one axis at a time when it runs.
    del rate

    # Correlated thinning: per pair the signal survives the object with
    # probability tau and is detected with eta0; the idler is detected
    # with eta0; outcomes share the same birth.  The probabilities are
    # computed once per distinct tau, and each is gathered onto the
    # pixels just before its draw.
    levels, inv = _shift_table(tau)
    del tau
    p_both, p1, p2 = _thinning(twin.eta0, levels)
    k_both = gen.binomial(rem, p_both[inv])
    rem -= k_both
    s_births = gen.binomial(rem, p1[inv])
    rem -= s_births
    i_births = gen.binomial(rem, p2[inv])
    del rem, inv
    s_births += k_both
    i_births += k_both
    del k_both
    total_detected = int(s_births.sum() + i_births.sum())

    # Idler arm: point-reflect about the grid center, then spread by the
    # pair correlation with the misalignment offset.  It is cropped
    # before the signal arm runs.
    n_i, spill_i = _redistribute(i_births[::-1, ::-1], *idler, gen)
    n_i = template.with_values(n_i[crop])
    del i_births

    # Signal arm: phase-gradient displacement plus imaging blur; each
    # axis's displacement map lives until its shift table exists.
    n_s, spill_s = _redistribute(s_births, *signal, gen)
    n_s = template.with_values(n_s[crop])
    del s_births
    spill = (spill_i + spill_s) / max(total_detected, 1)
    return TwinBeamFrame(n_s=n_s, n_i=n_i, spill=spill)


def expected_counts(obj: ObjectSpec, sys: OpticalSystem, twin: TwinBeamConfig, dz: float):
    """Exact per-pixel means of sample_twin_frame: (signal, idler).

    Deterministic counterpart of the sampler (same kernels applied as
    expectations); used for calibration references instead of averaging
    large frame sets.  With eta0 = 0 both means are zero.
    """
    template, crop, rate, tau, idler, signal = _transport(obj, sys, twin, dz)
    mean_i_births = np.multiply(rate, twin.eta0, out=rate)
    mean_s_births = mean_i_births * tau
    del rate, tau
    mean_i, _ = _redistribute(mean_i_births[::-1, ::-1], *idler, None)
    mean_i = template.with_values(mean_i[crop])
    del mean_i_births
    mean_s, _ = _redistribute(mean_s_births, *signal, None)
    return template.with_values(mean_s[crop]), mean_i


def _frame_workers() -> int:
    """Threads of ``ordered_map``: the CPUs this process may run on,
    capped by the QPI_THREADS environment variable when it is set."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    try:
        workers = min(workers, int(os.environ.get("QPI_THREADS", "")))
    except ValueError:
        pass
    return max(workers, 1)


def ordered_map(func, items):
    """Return ``[func(item) for item in items]``.

    The calls run on one thread per CPU this process may use, capped by
    the QPI_THREADS environment variable.  The calling thread is one of
    them, so one worker starts no thread.  Each thread pulls the next
    item in index order under one lock, runs ``func`` on it outside the
    lock and stores the result at the item's index; so an iterator that
    draws random numbers draws them in the same order for any thread
    count, and when ``func``'s result depends on its item alone, so does
    the list.  numpy's random draws, FFTs and ufuncs release the GIL, and
    ``cli.main`` runs BLAS on one thread.  At most one item per thread is
    in flight, and no thread waits for another to finish: a thread holds
    one twin-beam frame's working set at a time, about five arrays of
    its padded grid (3.1 MB for a defocused 220² frame), one trial of
    ``metrics.noise_suppression_scan`` (3.6 MB at 220²), or one dz point
    of ``metrics.resolution_scan`` (4.3 MB at 220²).  Once ``func``
    or the iterator raises, no item is pulled; after the threads end, the
    exception of the lowest failing index is raised, as the list
    comprehension would raise it.
    """
    items = iter(items)
    results = []
    errors = {}  # index -> the exception of func, or of the iterator pulling it
    lock = threading.Lock()
    stopped = False  # the items ran out, one failed, or the caller left

    def worker():
        nonlocal stopped
        while True:
            with lock:
                if stopped:
                    return
                index = len(results)
                try:
                    item = next(items)
                except StopIteration:
                    stopped = True
                    return
                except Exception as exc:
                    stopped = True
                    errors[index] = exc
                    return
                results.append(None)
            try:
                results[index] = func(item)
            except Exception as exc:
                with lock:
                    stopped = True
                    errors[index] = exc
                return

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(_frame_workers() - 1)]
    for thread in threads:
        thread.start()
    try:
        worker()
    finally:
        with lock:
            stopped = True
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def exposures(dzs, frames: int):
    """``(dz, frame, tag, signed dz)`` of every exposure in stream order:
    for each dz of ``dzs`` in turn, ``frames`` triples of the exposures
    at -dz (tag "m"), 0 ("0") and +dz ("p").  Exposure i is drawn from
    stream i."""
    return [
        (dz, frame, tag, signed)
        for dz in dzs
        for frame in range(frames)
        for tag, signed in (("m", -dz), ("0", 0.0), ("p", +dz))
    ]


# ---------------------------------------------------------------------------
# Metrology
# ---------------------------------------------------------------------------

def register_idler(field: ScalarField2D) -> ScalarField2D:
    """Map each idler pixel onto its correlated signal pixel.

    The idler partner of signal pixel x is the point-reflected pixel -x
    about the beam center, so registration is a flip along both axes.
    """
    return field.with_values(field.values[::-1, ::-1])


def _bin_sums(values, bin_px: int, origin=None):
    """The array of ``bin_counts``, from and to plain arrays; ``values``
    itself at bin 1 without an origin."""
    if bin_px < 1 or bin_px != int(bin_px):
        raise ValueError("bin_px must be a positive integer")
    bin_px = int(bin_px)
    if bin_px == 1 and origin is None:
        return values
    h, w = values.shape
    if origin is None:
        nh, nw = h // bin_px, w // bin_px
        r0 = (h - nh * bin_px) // 2
        c0 = (w - nw * bin_px) // 2
    else:
        r0, c0 = origin
        nh = (h - r0) // bin_px
        nw = (w - c0) // bin_px
    if nh <= 0 or nw <= 0:
        raise ValueError(f"bin_px {bin_px} larger than image {h}x{w}")
    block = values[r0 : r0 + nh * bin_px, c0 : c0 + nw * bin_px]
    return block.reshape(nh, bin_px, nw, bin_px).sum(axis=(1, 3))


def bin_counts(img: ScalarField2D, bin_px: int, origin=None) -> ScalarField2D:
    """Non-overlapping bin_px x bin_px sums; pitch scales by bin_px.

    When bin_px does not divide the image size the largest centered
    region that bins evenly is used and the remainder is cropped.
    ``origin`` overrides the (row, col) crop start, e.g. for the
    shifted-bin edge metrology.  At bin 1 without an origin the image
    itself is returned.
    """
    summed = _bin_sums(img.values, bin_px, origin)
    if summed is img.values:
        return img
    nh, nw = summed.shape
    return ScalarField2D(nw, nh, img.pitch * int(bin_px), summed, True)


def frame_counts(frame: TwinBeamFrame):
    """The frame's ``(n_s, n_i)`` counts in the narrowest unsigned dtype
    that holds its largest count: exact, as its counts are integers >= 0."""
    dtype = np.min_scalar_type(int(max(frame.n_s.values.max(), frame.n_i.values.max())))
    return frame.n_s.values.astype(dtype), frame.n_i.values.astype(dtype)


def measure_nrf(counts, bin_px: int, pitch: float, l_cff: float) -> NrfPoint:
    """Noise reduction factor and signal-arm Fano factor of a frame set.

    ``counts`` holds at least two frames' ``(n_s, n_i)`` arrays, float64
    or those of ``frame_counts``, on one grid of ``pitch`` um, idler
    unregistered.  Variances are per-pixel temporal variances over frames,
    averaged over pixels, normalized by the mean photon sum; ``l_cff``
    (um) fixes D.  A binned signal arm with no photon raises NoPhotonError.

    ``counts`` is a sequence, read twice and never stacked.  The first
    pass sums the binned signal s and the difference d = s - i (idler
    registered) per pixel; the second sums the squared deviations from
    their means.  Both add the frames in index order, as numpy's
    ``var(axis=0, ddof=1)`` does along the first axis of a C-ordered
    (frames, rows, cols) stack, so every field equals that of the
    stacked float64 expressions bit for bit.  Each binned arm is made
    float64 as it is read: integer bins sum and convert exactly below
    2**53, so narrowed counts give float64 ones' bits and no unsigned
    difference wraps.  The mean photon sums come from whole-frame totals,
    exact in any order below 2**53, about 9e15 photons per frame set.
    """
    n = len(counts)

    def binned(pair):
        """One frame's binned signal and registered idler (a flipped view), as float64."""
        n_s, n_i = pair
        return (_bin_sums(a, bin_px).astype(float, copy=False) for a in (n_s, n_i[::-1, ::-1]))

    # Each sum starts at 0.0: its first += makes a new array, and the
    # rest add in place, frame by frame; 0.0 + x is x.
    # pass 1: per-pixel sums of s and d, divided by n into their means
    mean_s = mean_d = 0.0
    total_s = total_i = 0.0
    for pair in counts:
        s, i = binned(pair)
        d = np.subtract(s, i)
        mean_s += s
        mean_d += d
        total_s += s.sum()
        total_i += i.sum()
        del s, i, d
    if not total_s > 0:
        raise NoPhotonError(
            f"no photon was detected in the signal arm of {n} frames "
            f"binned to {bin_px} px: check eta0 and mean_photons_per_pixel"
        )
    mean_s /= n
    mean_d /= n

    # pass 2: per-pixel sums of squared deviations from those means,
    # divided by n - 1 into the variances
    var_s = var_d = 0.0
    for pair in counts:
        s, i = binned(pair)
        dev_d = np.subtract(s, i)
        dev_d -= mean_d
        dev_d *= dev_d
        dev_s = np.subtract(s, mean_s)
        dev_s *= dev_s
        var_s += dev_s
        var_d += dev_d
        del s, i, dev_s, dev_d
    var_s /= n - 1
    var_d /= n - 1

    count = n * var_d.size
    mean_sum = (total_s + total_i) / count
    nrf = float(var_d.mean() / mean_sum)
    stderr = float(var_d.std(ddof=1) / math.sqrt(var_d.size) / mean_sum)
    fano = float(var_s.mean() / (total_s / count))
    d = d_factor_for_bin(bin_px, pitch, l_cff)
    return NrfPoint(d_factor=d, nrf=nrf, fano=fano, nrf_stderr=stderr)
