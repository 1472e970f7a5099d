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

import itertools
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import integrate, optimize
from scipy.special import ndtr

from .core import (
    FWHM_TO_SIGMA,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)


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

    def __post_init__(self):
        if self.nrf < 0:
            raise ValueError("nrf must be non-negative")
        if not self.fano > 0:
            raise ValueError("fano must be positive")


class EfficiencyFit(NamedTuple):
    eta0: float
    epsilon: float
    residual: float
    converged: bool


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
    if d_factor <= 0:
        return 0.0
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
    if d_factor < 0 or epsilon < 0:
        raise ValueError("d_factor and epsilon must be non-negative")
    return _eta_c_1d(d_factor, epsilon) ** 2


def nrf_predicted(eta0: float, d_factor: float, epsilon: float) -> float:
    """Closed-form noise reduction factor 1 - eta0 * eta_c(D, epsilon)."""
    if not 0.0 <= eta0 <= 1.0:
        raise ValueError("eta0 must lie in [0, 1]")
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
    the array ``z``."""
    pdf = np.multiply(-0.5, z, out=np.empty_like(z))
    pdf *= z
    np.exp(pdf, out=pdf)
    pdf /= _SQRT2PI
    z *= ndtr(z)
    z += pdf
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
    """Add ``take`` shifted by integer offset j along axis; return spill."""
    n = out.shape[axis]
    if abs(j) >= n:
        return int(take.sum())
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
    return int(take[tuple(lost)].sum())


def _shift_axis(counts, shift, s, axis, rng):
    """Redistribute counts along one axis by ``uniform + shift + N(0, s)``.

    ``shift`` may be a scalar or a per-pixel array (pixels).  With
    ``rng`` set the redistribution is a multinomial sample (iterated
    binomial over offsets); with ``rng=None`` it is the exact
    expectation, for deterministic mean-count computations.
    Returns (out, spill).  The kernel tables are computed once per
    distinct shift ``d`` and gathered onto the pixels through ``inv``;
    a scalar shift is a one-entry table.
    """
    d, inv = np.unique(np.asarray(shift, dtype=float), return_inverse=True)
    inv = inv.reshape(np.shape(shift))  # NumPy < 2 returns it flattened
    jmin = int(math.floor(float(d[0]) - 6.0 * s))
    jmax = int(math.ceil(float(d[-1]) + 6.0 * s))

    sampled = rng is not None
    out = np.zeros_like(counts) if sampled else np.zeros(counts.shape)
    rem = counts.copy() if sampled else np.array(counts, dtype=float)
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
        spill += _scatter_shift(out, take, j, axis)
        del take
    # kernel truncation tail (< 1e-8 of the mass)
    spill += int(np.sum(rem)) if sampled else float(np.sum(rem))
    return out, spill


def _redistribute(counts, shift_x, shift_y, s, rng):
    out, spill_y = _shift_axis(counts, shift_y, s, 0, rng)
    out, spill_x = _shift_axis(out, shift_x, s, 1, rng)
    return out, spill_y + spill_x


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
    detected, and the rate is zero.
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
        weight = weight / roi.mean()
    # no births in the outermost reach ring
    weight[:margin, :] = 0.0
    weight[-margin:, :] = 0.0
    weight[:, :margin] = 0.0
    weight[:, -margin:] = 0.0
    weight *= twin.mean_photons_per_pixel / twin.eta0 if twin.eta0 > 0 else 0.0
    return weight


def _phase_displacement(obj: Optional[ObjectSpec], sys: OpticalSystem, dz, margin):
    """Geometric-optics transverse displacement (dz/k) grad phi, in pixels."""
    if obj is None or dz == 0.0:
        return 0.0, 0.0
    phi = np.pad(obj.phi.values, margin, mode="edge")
    pitch = obj.phi.pitch
    gy, gx = np.gradient(phi, pitch)
    scale = (dz * 1e3) / sys.wavenumber  # um^2
    return scale * gx / pitch, scale * gy / pitch


def _transport(obj, sys, twin, dz, grid):
    """Set-up shared by the sampler and its expectation counterpart.

    Returns ``(template, crop, rate, tau, idler, signal)``: the output
    grid, the slices that crop the padded grid to it, the pair birth
    rate and the transmittance on the padded grid (tau is 1.0 without
    an object), and each arm's ``(shift_x, shift_y, s)`` arguments of
    ``_redistribute``.
    """
    if obj is not None:
        template = obj.tau
    elif grid is not None:
        template = grid
    else:
        raise ValueError("need an object or a grid template")
    width, height, pitch = template.width, template.height, template.pitch
    sigma_px = twin.sigma / pitch
    delta_px = twin.delta / pitch
    blur_px = sys.blur_fwhm * FWHM_TO_SIGMA / pitch
    disp_x, disp_y = _phase_displacement(obj, sys, dz, 0)
    max_disp = max(float(np.max(np.abs(disp_x))), float(np.max(np.abs(disp_y))))
    margin = int(math.ceil(6 * sigma_px + abs(delta_px) + 6 * blur_px + max_disp)) + 1

    rate = _pair_rate(twin, width, height, pitch, margin)
    if obj is not None:
        tau = np.pad(obj.tau.values, 2 * margin, mode="edge")
        disp_x, disp_y = _phase_displacement(obj, sys, dz, 2 * margin)
    else:
        tau = 1.0
    crop = (slice(2 * margin, 2 * margin + height), slice(2 * margin, 2 * margin + width))
    return template, crop, rate, tau, (delta_px, delta_px, sigma_px), (disp_x, disp_y, blur_px)


def sample_twin_frame(
    obj: Optional[ObjectSpec],
    sys: OpticalSystem,
    twin: TwinBeamConfig,
    dz: float,
    rng: RngStream,
    grid: Optional[ScalarField2D] = None,
) -> TwinBeamFrame:
    """Monte-Carlo sample one correlated signal/idler photon-count frame.

    Pairs are born from the illumination profile; the idler photon is
    detected with probability eta0 at the point-reflected position plus
    a Gaussian of width sigma offset by the misalignment Delta; the
    signal photon survives the object with probability tau, is detected
    with probability eta0, and lands at the birth position plus the
    phase-gradient displacement (dz/k) grad phi and the imaging blur.
    ``dz`` is signed (mm); pass ``grid`` for object-free frames.
    """
    template, crop, rate, tau, idler, signal = _transport(obj, sys, twin, dz, grid)
    gen = rng.generator()
    rem = gen.poisson(rate)

    # Correlated thinning: per pair the signal survives the object with
    # probability tau and is detected with eta0; the idler is detected
    # with eta0; outcomes share the same birth.
    eta0 = twin.eta0
    p_both = eta0 * eta0 * tau
    p_s_only = eta0 * tau * (1.0 - eta0)
    p_i_only = eta0 * (1.0 - eta0 * tau)
    k_both = gen.binomial(rem, p_both)
    rem -= k_both
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = np.clip(p_s_only / np.maximum(1.0 - p_both, 1e-300), 0.0, 1.0)
    k_s_only = gen.binomial(rem, np.broadcast_to(p1, rem.shape))
    rem -= k_s_only
    with np.errstate(divide="ignore", invalid="ignore"):
        p2 = np.clip(
            p_i_only / np.maximum(1.0 - p_both - p_s_only, 1e-300), 0.0, 1.0
        )
    k_i_only = gen.binomial(rem, np.broadcast_to(p2, rem.shape))

    s_births = k_s_only
    s_births += k_both
    i_births = k_i_only
    i_births += k_both
    total_detected = int(s_births.sum() + i_births.sum())
    # Two frames may be in flight at once (see sample_frames): drop the
    # padded set-up arrays before the redistribution, the peak of a frame.
    del rate, tau, rem, p_both, p_s_only, p_i_only, p1, p2, k_both, k_s_only, k_i_only

    # Idler arm: point-reflect about the grid center, then spread by the
    # pair correlation with the misalignment offset.  It is cropped
    # before the signal arm runs.
    n_i, spill_i = _redistribute(i_births[::-1, ::-1], *idler, gen)
    del i_births
    n_i = template.with_values(n_i[crop])

    # Signal arm: phase-gradient displacement plus imaging blur.
    n_s, spill_s = _redistribute(s_births, *signal, gen)
    del s_births
    spill = (spill_i + spill_s) / max(total_detected, 1)
    return TwinBeamFrame(n_s=template.with_values(n_s[crop]), n_i=n_i, spill=spill)


def expected_counts(
    obj: Optional[ObjectSpec],
    sys: OpticalSystem,
    twin: TwinBeamConfig,
    dz: float,
    grid: Optional[ScalarField2D] = None,
):
    """Exact per-pixel means of sample_twin_frame: (signal, idler).

    Deterministic counterpart of the sampler (same kernels applied as
    expectations); used for calibration references instead of averaging
    large frame sets.  With eta0 = 0 both means are zero.
    """
    template, crop, rate, tau, idler, signal = _transport(obj, sys, twin, dz, grid)
    mean_s_births = rate * twin.eta0 * tau
    mean_i_births = rate * twin.eta0
    mean_i, _ = _redistribute(mean_i_births[::-1, ::-1], *idler, None)
    mean_s, _ = _redistribute(mean_s_births, *signal, None)
    return template.with_values(mean_s[crop]), template.with_values(mean_i[crop])


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
    """Yield ``func(item)`` for each item of the iterable ``items``, in order.

    The calls run on one thread per CPU this process may use, capped by
    the QPI_THREADS environment variable.  The calling thread is one of
    the workers, so one worker starts no thread.  Items are pulled in
    index order under one lock, so an iterator that draws random numbers
    draws them in the same order for any thread count; when ``func``'s
    result depends on its item alone, so does the output.  numpy's random
    draws, FFTs and ufuncs release the GIL.  No item is pulled more than
    ``workers`` places beyond the last result yielded, so a slow consumer
    does not make results pile up; memory therefore grows with the thread
    count.  An exception raised by ``func`` on item i, or by the iterator
    while pulling item i, reaches the consumer when it asks for result i.
    Exhaust or close the generator to stop its threads.
    """
    items = iter(items)
    workers = _frame_workers()
    cells = []  # per item pulled: [done event, result, exception]
    lock = threading.Lock()
    ahead = threading.Semaphore(workers)  # one slot per item pulled, not yet yielded
    ended = False  # the items ran out or the consumer left

    def run_next():
        """Pull the next item and run func on it; False when none is left."""
        nonlocal ended
        with lock:
            if ended:
                return False
            cell = [threading.Event(), None, None]
            try:
                item = next(items)
            except StopIteration:
                ended = True
                return False
            except Exception as exc:  # raised to the consumer at this index
                ended = True
                cell[2] = exc
            cells.append(cell)
        if cell[2] is None:
            try:
                cell[1] = func(item)
            except Exception as exc:  # raised to the consumer at this index
                cell[2] = exc
        cell[0].set()
        return True

    def worker():
        while ahead.acquire() and run_next():
            pass

    def take(i):
        """Cell i, run here while it is not ready and a slot is free; None
        when the items ended before item i."""
        while not (i < len(cells) and cells[i][0].is_set()):
            if not ahead.acquire(blocking=False):
                break
            run_next()
        # Cell i is ready, or every slot is held.  Until the items end, only
        # items pulled and not yet yielded, and the other threads between
        # their acquire and their pull, hold slots; so item i was pulled or
        # the items ended.
        with lock:
            cell = cells[i] if i < len(cells) else None
        if cell is not None:
            cell[0].wait()
        return cell

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        for i in itertools.count():
            cell = take(i)
            if cell is None:
                return
            cells[i] = None
            _, result, error = cell
            if error is not None:
                raise error
            ahead.release()
            yield result
    finally:
        with lock:
            ended = True
        for thread in threads:
            ahead.release()
        for thread in threads:
            thread.join()


def sample_frames(
    obj: Optional[ObjectSpec],
    sys: OpticalSystem,
    twin: TwinBeamConfig,
    dzs,
    base: RngStream,
    grid: Optional[ScalarField2D] = None,
):
    """Yield ``sample_twin_frame(obj, sys, twin, dzs[i], base.child(i))``
    for i = 0, 1, ... in order.

    Frames are independent by stream index, so ``ordered_map`` draws them
    on one thread per CPU this process may use, capped by the QPI_THREADS
    environment variable, and the output does not depend on the thread
    count.  Each frame owns its own Generator.  Each thread holds one
    frame's working set, and up to one finished frame per thread waits
    for the consumer.  The same threads, under the same cap, evaluate
    the Poisson trials of ``metrics.noise_suppression_scan``, about 5 MB
    per thread at 220².  An exception raised while drawing frame i
    reaches the consumer when it asks for frame i.  Exhaust or close the
    generator to stop its threads.
    """
    def draw(i_dz):
        i, dz = i_dz
        return sample_twin_frame(obj, sys, twin, dz, base.child(i), grid=grid)

    return ordered_map(draw, enumerate(dzs))


def sample_triples(
    obj: Optional[ObjectSpec],
    sys: OpticalSystem,
    twin: TwinBeamConfig,
    dzs,
    frames: int,
    base: RngStream,
):
    """Yield ``(f_minus, f_0, f_plus)`` defocus triples: ``frames``
    triples at -dz, 0, +dz for each dz of ``dzs`` in turn.

    The exposures are the frames of ``sample_frames`` in that order, so
    triple t is drawn from streams 3t, 3t + 1 and 3t + 2 of ``base``.
    """
    signed = [s for dz in dzs for _ in range(frames) for s in (-dz, 0.0, +dz)]
    with closing(sample_frames(obj, sys, twin, signed, base)) as exposures:
        yield from zip(exposures, exposures, exposures)


# ---------------------------------------------------------------------------
# Metrology
# ---------------------------------------------------------------------------

def register_idler(field: ScalarField2D) -> ScalarField2D:
    """Map each idler pixel onto its correlated signal pixel.

    The idler partner of signal pixel x is the point-reflected pixel -x
    about the beam center, so registration is a flip along both axes.
    """
    return field.with_values(field.values[::-1, ::-1])


def bin_counts(img: ScalarField2D, bin_px: int, origin=None) -> ScalarField2D:
    """Non-overlapping bin_px x bin_px sums; pitch scales by bin_px.

    When bin_px does not divide the image size the largest centered
    region that bins evenly is used and the remainder is cropped.
    ``origin`` overrides the (row, col) crop start, e.g. for the
    shifted-bin edge metrology.
    """
    if bin_px < 1 or bin_px != int(bin_px):
        raise ValueError("bin_px must be a positive integer")
    bin_px = int(bin_px)
    if bin_px == 1 and origin is None:
        return img
    h, w = img.height, img.width
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
    block = img.values[r0 : r0 + nh * bin_px, c0 : c0 + nw * bin_px]
    summed = block.reshape(nh, bin_px, nw, bin_px).sum(axis=(1, 3))
    return ScalarField2D(nw, nh, img.pitch * bin_px, summed)


def measure_nrf(frames, bin_px: int, l_cff: float) -> NrfPoint:
    """Noise reduction factor and signal-arm Fano factor of a frame set.

    Variances are per-pixel temporal variances over frames, averaged
    over pixels, normalized by the mean photon sum.  ``l_cff`` (um)
    fixes the reported resolution factor D.
    """
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    s_stack = np.stack([bin_counts(f.n_s, bin_px).values for f in frames])
    i_stack = np.stack(
        [bin_counts(register_idler(f.n_i), bin_px).values for f in frames]
    )
    diff = s_stack - i_stack
    var_d = diff.var(axis=0, ddof=1)
    mean_sum = (s_stack + i_stack).mean()
    nrf = float(var_d.mean() / mean_sum)
    stderr = float(var_d.std(ddof=1) / math.sqrt(var_d.size) / mean_sum)
    fano = float(s_stack.var(axis=0, ddof=1).mean() / s_stack.mean())
    d = d_factor_for_bin(bin_px, frames[0].n_s.pitch, l_cff)
    return NrfPoint(d_factor=d, nrf=nrf, fano=fano, nrf_stderr=stderr)


def fit_efficiencies(curve) -> EfficiencyFit:
    """Least-squares fit of NRF(D) = 1 - eta0 * eta_c(D, epsilon).

    Needs points on both sides of D = 1 to separate the two parameters.
    """
    points = sorted(curve, key=lambda p: p.d_factor)
    if len(points) < 4:
        raise ValueError("need at least 4 NRF points")
    d = np.array([p.d_factor for p in points])
    y = np.array([p.nrf for p in points])
    if d.min() >= 1.0 or d.max() <= 3.0:
        raise ValueError("curve must span D < 1 and D > 3")

    def residuals(params):
        e0, eps = params
        return np.array([1.0 - e0 * eta_c(di, eps) for di in d]) - y

    result = optimize.least_squares(
        residuals,
        x0=[0.5, 0.1],
        bounds=([0.0, 0.0], [1.0, 2.0]),
        xtol=1e-12,
        ftol=1e-12,
        max_nfev=400,
    )
    res_norm = float(np.linalg.norm(result.fun))
    return EfficiencyFit(
        eta0=float(result.x[0]),
        epsilon=float(result.x[1]),
        residual=res_norm,
        converged=bool(result.success),
    )
