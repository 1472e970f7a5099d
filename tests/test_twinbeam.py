"""Tests of the twin-beam sampler, correlation model and metrology."""

import hashlib
import math
import sys
import threading
import time
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from scipy import optimize

from twinphase.core import (
    NoPhotonError,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    blank_object,
    generate_test_target,
)
from twinphase.twinbeam import (
    NrfPoint,
    TwinBeamFrame,
    bin_counts,
    d_factor_for_bin,
    eta_c,
    expected_counts,
    exposures,
    frame_counts,
    measure_nrf,
    nrf_predicted,
    ordered_map,
    register_idler,
    sample_twin_frame,
)
from twinphase import metrics, twinbeam
from twinphase.cli import EXIT_NUMERICAL, EXIT_OK, main
from twinphase.metrics import noise_suppression_scan
from twinphase.optics import imaging_blur
from twinphase.retrieval import poisson_solve_dirichlet


class EfficiencyFit(NamedTuple):
    eta0: float
    epsilon: float
    residual: float
    converged: bool


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

# Frozen oracle values of the pair-collection efficiency, computed with
# an independent 2D double integral of the Gaussian pair correlation
# over two matched detection segments (scipy dblquad, epsrel 1e-12).
ETA_C_ORACLE = {
    (0.325, 0.2): 0.069337011780,
    (1.0, 0.0): 0.440650148356,
    (1.0, 0.2): 0.396223435568,
    (3.9, 0.2): 0.816600286290,
    (8.125, 0.2): 0.909651471558,
}


class TestEtaC:
    @pytest.mark.parametrize("point,expected", sorted(ETA_C_ORACLE.items()))
    def test_matches_double_integral_oracle(self, point, expected):
        d, eps = point
        assert eta_c(d, eps) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_d(self):
        vals = [eta_c(d, 0.2) for d in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_epsilon(self):
        vals = [eta_c(1.0, e) for e in (0.0, 0.2, 0.5, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bounds(self):
        assert 0.0 <= eta_c(0.01, 0.0) <= 1.0
        assert 0.0 <= eta_c(100.0, 0.0) <= 1.0
        assert eta_c(100.0, 0.0) > 0.97


class TestNrfModel:
    def test_formula(self):
        d, eps, eta0 = 3.9, 0.2, 0.7
        assert nrf_predicted(eta0, d, eps) == pytest.approx(
            1.0 - eta0 * ETA_C_ORACLE[(d, eps)], abs=1e-10
        )

    def test_d_factor_arithmetic(self):
        assert d_factor_for_bin(12, 13.0 / 8.0, 5.0) == pytest.approx(3.9)
        assert d_factor_for_bin(1, 13.0 / 8.0, 5.0) == pytest.approx(0.325)


class TestBinCounts:
    def grid(self, values, pitch=1.0):
        values = np.asarray(values, dtype=float)
        h, w = values.shape
        return ScalarField2D(w, h, pitch, values)

    def test_block_sum(self):
        v = np.arange(256, dtype=float).reshape(16, 16)
        out = bin_counts(self.grid(v), 2)
        assert out.width == 8 and out.height == 8
        assert out.pitch == 2.0
        assert out.values[0, 0] == v[0, 0] + v[0, 1] + v[1, 0] + v[1, 1]
        assert out.values.sum() == v.sum()

    def test_identity_at_bin_one(self):
        f = self.grid(np.ones((8, 8)))
        assert bin_counts(f, 1) is f

    def test_centered_crop_of_remainder(self):
        # 26 rows / 29 columns at bin 3 -> 8x9 bins, remainder cropped
        # symmetrically: one row/column dropped on each side
        v = np.ones((26, 29))
        out = bin_counts(self.grid(v), 3)
        assert (out.height, out.width) == (8, 9)
        assert out.values.sum() == 8 * 9 * 9.0

    def test_origin_override(self):
        v = np.arange(16 * 18, dtype=float).reshape(16, 18)
        shifted = bin_counts(self.grid(v), 2, origin=(0, 1))
        direct = v[:, 1:17].reshape(8, 2, 8, 2).sum(axis=(1, 3))
        assert np.array_equal(shifted.values, direct)

    def test_invalid_bin(self):
        f = self.grid(np.ones((8, 8)))
        with pytest.raises(ValueError):
            bin_counts(f, 0)
        with pytest.raises(ValueError):
            bin_counts(f, 9)


def test_register_idler_is_an_involution():
    f = ScalarField2D(8, 9, 1.0, np.arange(72, dtype=float).reshape(9, 8))
    twice = register_idler(register_idler(f))
    assert np.array_equal(twice.values, f.values)
    once = register_idler(f)
    assert once.values[0, 0] == f.values[-1, -1]


class TestSampler:
    def setup_method(self):
        self.sys = OpticalSystem()
        self.twin = TwinBeamConfig(mean_photons_per_pixel=200.0)
        self.blank = blank_object(64, 64, self.sys.object_pixel)

    def test_deterministic_per_stream(self):
        a = sample_twin_frame(self.blank, self.sys, self.twin, 0.0, RngStream(9, 4))
        b = sample_twin_frame(self.blank, self.sys, self.twin, 0.0, RngStream(9, 4))
        assert np.array_equal(a.n_s.values, b.n_s.values)
        assert np.array_equal(a.n_i.values, b.n_i.values)

    def test_distinct_streams_differ(self):
        a = sample_twin_frame(self.blank, self.sys, self.twin, 0.0, RngStream(9, 0))
        b = sample_twin_frame(self.blank, self.sys, self.twin, 0.0, RngStream(9, 1))
        assert not np.array_equal(a.n_s.values, b.n_s.values)

    def test_counts_are_non_negative_integers(self):
        f = sample_twin_frame(self.blank, self.sys, self.twin, 0.0, RngStream(3))
        for v in (f.n_s.values, f.n_i.values):
            assert np.all(v >= 0)
            assert np.all(v == np.round(v))

    def test_zero_efficiency_gives_empty_frames(self):
        dark = TwinBeamConfig(eta0=0.0, mean_photons_per_pixel=200.0)
        f = sample_twin_frame(self.blank, self.sys, dark, 0.0, RngStream(3))
        assert f.n_s.values.sum() == 0
        assert f.n_i.values.sum() == 0

    def test_frame_count_validation(self):
        good = self.blank.phi
        bad = good.with_values(np.full((64, 64), 0.5))
        with pytest.raises(ValueError):
            TwinBeamFrame(n_s=bad, n_i=good)

    def test_flux_calibration(self):
        # detected signal flux averages mean_photons_per_pixel
        frames = [
            sample_twin_frame(self.blank, self.sys, self.twin, 0.0, RngStream(11, i))
            for i in range(8)
        ]
        mean = np.mean([f.n_s.values.mean() for f in frames])
        assert mean == pytest.approx(self.twin.mean_photons_per_pixel, rel=0.02)


class TestExpectedCounts:
    def test_object_free_uniform_means(self):
        sys_ = OpticalSystem()
        twin = TwinBeamConfig(mean_photons_per_pixel=600.0)
        blank = blank_object(64, 64, sys_.object_pixel)
        mean_s, mean_i = expected_counts(blank, sys_, twin, 0.0)
        assert np.allclose(mean_s.values, 600.0, rtol=1e-9)
        assert np.allclose(mean_i.values, 600.0, rtol=1e-9)

    def test_matches_sampler_mean(self):
        sys_ = OpticalSystem()
        twin = TwinBeamConfig(mean_photons_per_pixel=400.0)
        obj = generate_test_target(220, 220, sys_.object_pixel)
        mean_s, _ = expected_counts(obj, sys_, twin, 0.0)
        frames = [
            sample_twin_frame(obj, sys_, twin, 0.0, RngStream(21, i)) for i in range(5)
        ]
        sampled = np.mean([f.n_s.values for f in frames], axis=0)
        # per-pixel shot noise ~ sqrt(400/5) = 9; compare region means
        from twinphase.core import target_masks

        _, null_mask = target_masks(220, 220)
        assert sampled[null_mask].mean() == pytest.approx(
            mean_s.values[null_mask].mean(), rel=0.02
        )
        assert sampled.mean() == pytest.approx(mean_s.values.mean(), rel=0.01)

    def test_zero_efficiency_gives_zero_means(self):
        sys_ = OpticalSystem()
        dark = TwinBeamConfig(eta0=0.0, mean_photons_per_pixel=600.0)
        blank = blank_object(64, 64, sys_.object_pixel)
        mean_s, mean_i = expected_counts(blank, sys_, dark, 0.0)
        assert not mean_s.values.any() and not mean_i.values.any()


@pytest.mark.parametrize(
    "smooth, dz, bound",
    [(False, 0.0125, 6.5), (False, 0.0, 6.5), (True, 0.0125, 9.5)],
    ids=["defocused", "in_focus", "smooth_defocused"],
)
def test_frame_memory_peak_in_padded_arrays(traced_peak, smooth, dz, bound):
    """One frame's allocation peak, in float64 arrays of the padded grid:
    6.0 for the test target, defocused or in focus, in the thinning, and
    9.0 for a defocused smooth object, whose kernel tables have an entry
    per pixel.  Both displacement maps made up front and alive through
    the thinning gave 8.0 defocused and 11.6 for the smooth object (with
    two temporaries in ``_cdf_integral``); every map of the thinning alive
    at once gave 13.0 defocused and 11.0 in focus."""
    sys_, twin = OpticalSystem(), TwinBeamConfig(mean_photons_per_pixel=600.0)
    pitch = sys_.object_pixel
    obj = smooth_object(220, pitch) if smooth else generate_test_target(220, 220, pitch)
    rate = twinbeam._transport(obj, sys_, twin, dz)[2]
    peak = traced_peak(lambda: sample_twin_frame(obj, sys_, twin, dz, RngStream(5, 2)))
    assert peak / rate.nbytes <= bound


def smooth_object(n, pitch):
    """An off-centre Gaussian phase bump (peak 4 rad) over a smooth
    transmittance: every pixel of its displacement map is distinct."""
    y, x = np.mgrid[0:n, 0:n] * pitch
    r2 = (x - 0.43 * n * pitch) ** 2 + (y - 0.58 * n * pitch) ** 2
    phi = 4.0 * np.exp(-r2 / (2.0 * (7.0 * pitch) ** 2))
    tau = 0.55 + 0.4 * np.exp(-r2 / (2.0 * (11.0 * pitch) ** 2))
    return ObjectSpec(tau=ScalarField2D(n, n, pitch, tau), phi=ScalarField2D(n, n, pitch, phi))


# SHA-256 of the float64 bytes of one defocused frame of smooth_object(40)
# and of its expected counts, recorded with this numpy version (its binomial
# and Poisson streams fix the frame).  The golden target has 5 distinct
# displacements per axis; here each arm's kernel tables have an entry per
# pixel, so this pins the per-pixel path of the count transport.
SMOOTH_FRAME_NUMPY = "2.4.6"
SMOOTH_FRAME_SHA256 = {
    "n_s": "92d981db90f7fcc3ddd155c38725b2289de3c62bafc77ece44f53c30535bf13c",
    "n_i": "985f72b823c57e0282b92efb2623df57a941f3e3ea7233c28abc415b3e68b29b",
    "mean_s": "2f0baf9fa3eaf242e092bddcc18315b1c952f975064f203d546f6a9d9b4afdac",
    "mean_i": "b116ebfd9bbbb3371c82f99fb70ae53041ea9b45338f160609d2b6587e8d271b",
}


def test_defocused_smooth_object_frame_bytes_are_pinned():
    if np.__version__ != SMOOTH_FRAME_NUMPY:
        pytest.fail(
            f"the smooth-object frame was recorded with numpy {SMOOTH_FRAME_NUMPY}, "
            f"this is numpy {np.__version__}: the random streams may differ"
        )
    sys_, twin = OpticalSystem(), TwinBeamConfig(mean_photons_per_pixel=300.0)
    obj, dz = smooth_object(40, sys_.object_pixel), 0.1
    for axis in (0, 1):
        assert len(np.unique(twinbeam._phase_displacement(obj, sys_, dz, 0, axis))) == 40 * 40
    frame = sample_twin_frame(obj, sys_, twin, dz, RngStream(8, 1))
    mean_s, mean_i = expected_counts(obj, sys_, twin, dz)
    maps = {"n_s": frame.n_s, "n_i": frame.n_i, "mean_s": mean_s, "mean_i": mean_i}
    digests = {k: hashlib.sha256(f.values.tobytes()).hexdigest() for k, f in maps.items()}
    assert digests == SMOOTH_FRAME_SHA256


def use_threads(monkeypatch, threads, cpus=4):
    """Let ordered_map, and so the commands and scans that draw on it,
    see ``cpus`` CPUs and cap it at ``threads``."""
    monkeypatch.setattr(
        twinbeam.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    monkeypatch.setenv("QPI_THREADS", str(threads))


class TestSampleFrames:
    def frame_bytes(self, frames):
        return [
            (f.n_s.values.tobytes(), f.n_i.values.tobytes(), f.spill)
            for f in frames
        ]

    def test_independent_of_thread_count_and_order(self, monkeypatch):
        sys_, twin = OpticalSystem(), TwinBeamConfig(mean_photons_per_pixel=200.0)
        obj = generate_test_target(220, 220, sys_.object_pixel)
        dzs, base = [-0.05, 0.0, 0.05, 0.0], RngStream(8)

        def draw(i):
            return sample_twin_frame(obj, sys_, twin, dzs[i], base.child(i))

        runs = []
        for threads in (1, 2):
            use_threads(monkeypatch, threads)
            runs.append(self.frame_bytes(ordered_map(draw, range(len(dzs)))))
        # the RngStream promise: a frame depends on its stream index only,
        # not on the order in which frames are drawn
        reverse = {
            i: sample_twin_frame(obj, sys_, twin, dzs[i], base.child(i))
            for i in reversed(range(len(dzs)))
        }
        direct = self.frame_bytes(reverse[i] for i in range(len(dzs)))
        assert runs[0] == runs[1]
        assert runs[0] == direct

    def test_triples_take_consecutive_streams(self, monkeypatch):
        """``metrics.advantage_scan`` draws exposure i of
        ``exposures(dz_list, frames)`` from stream i at its signed dz, on
        one thread and on two.  The frames are flat Poisson counts,
        cheaper than the sampler's."""
        calls = []

        def fake_sample(obj, sys_, twin, dz, rng):
            calls.append((rng.stream_index, dz))
            gen = rng.generator()
            shape = obj.tau.values.shape
            n_s = obj.tau.with_values(gen.poisson(600.0, shape))
            n_i = obj.tau.with_values(gen.poisson(600.0, shape))
            return TwinBeamFrame(n_s, n_i)

        monkeypatch.setattr(metrics, "sample_twin_frame", fake_sample)
        dz_list = [0.0125, 0.025]
        expected = [(i, e[3]) for i, e in enumerate(exposures(dz_list, 2))]
        runs = []
        for threads in (1, 2):
            use_threads(monkeypatch, threads)
            calls.clear()
            runs.append(
                metrics.advantage_scan(
                    dz_list, 2, OpticalSystem(), TwinBeamConfig(), RngStream(3)
                )
            )
            assert sorted(calls) == expected
        assert runs[0] == runs[1]
        assert [(r["dz"], r["k_mode"]) for r in runs[0]] == [
            (dz, mode) for dz in dz_list for _ in (1, 3) for mode in ("tie", "tau")
        ]

    def test_worker_exception_reaches_the_caller(self, monkeypatch, tmp_path):
        raised_in = []

        def fake_sample(obj, sys_, twin, dz, rng):
            time.sleep(0.05)  # so the second thread claims a frame
            if threading.current_thread() is not threading.main_thread():
                raised_in.append(rng.stream_index)
                raise FloatingPointError("overflow in a worker")
            return sample_twin_frame(obj, sys_, twin, dz, rng)

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(twinbeam, "sample_twin_frame", fake_sample)
        threads_before = threading.active_count()
        code = main(["scan", "nrf", "--frames", "4", "--out", str(tmp_path / "nrf")])
        assert raised_in
        assert code == EXIT_NUMERICAL
        assert threading.active_count() == threads_before

    def test_no_thread_waits_for_a_reader(self, monkeypatch):
        # item 1 runs until item 3 starts: with 2 threads the other one
        # must run items 0, 2 and 3 while item 1 is unread
        started = [threading.Event() for _ in range(6)]
        waited = []

        def func(i):
            started[i].set()
            if i == 1:
                waited.append(started[3].wait(timeout=2.0))
            return i * i

        use_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        assert ordered_map(func, range(6)) == [i * i for i in range(6)]
        assert waited == [True]
        assert threading.active_count() == threads_before

    def test_pulls_items_in_order_with_at_most_workers_in_flight(self, monkeypatch):
        workers, n = 3, 40
        pulled = []
        lock = threading.Lock()
        running = peak = 0

        def items():
            for i in range(n):
                pulled.append(i)
                yield i

        def slow_square(i):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.001)
            with lock:
                running -= 1
            return i * i

        use_threads(monkeypatch, workers, cpus=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads_before = threading.active_count()
            got = ordered_map(slow_square, items())
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(n)]
        assert pulled == list(range(n))
        assert 1 <= peak <= workers
        assert threading.active_count() == threads_before

    def test_raises_the_exception_of_the_lowest_failing_item(self, monkeypatch):
        workers = 3
        pulled = []

        def items():
            for i in range(40):
                pulled.append(i)
                yield i

        def func(i):
            if i == 3:
                time.sleep(0.1)  # item 5 fails first
                raise FloatingPointError("overflow in item 3")
            if i == 5:
                raise FloatingPointError("overflow in item 5")
            time.sleep(0.01)
            return i

        use_threads(monkeypatch, workers)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="item 3"):
            ordered_map(func, items())
        assert pulled == list(range(len(pulled)))
        assert max(pulled) <= 3 + workers
        assert threading.active_count() == threads_before

    def test_iterator_exception_is_raised_after_the_items_before_it(self, monkeypatch):
        workers = 2
        pulled, ran = [], []

        def items():
            for i in range(3):
                pulled.append(i)
                yield i
            raise FloatingPointError("overflow while drawing item 3")

        def slow_identity(i):
            time.sleep(0.02)
            ran.append(i)
            return i

        use_threads(monkeypatch, workers)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="item 3"):
            ordered_map(slow_identity, items())
        assert sorted(ran) == [0, 1, 2]
        assert pulled == [0, 1, 2]
        assert threading.active_count() == threads_before

    def test_simulate_holds_no_more_frames_than_threads(self, monkeypatch, tmp_path):
        live = weakref.WeakValueDictionary()  # frames hash by value: key them by id
        lock = threading.Lock()
        peak = 0

        def fake_sample(obj, sys_, twin, dz, rng):
            nonlocal peak
            counts = ScalarField2D(16, 16, 1.0, np.full((16, 16), float(rng.stream_index)))
            frame = TwinBeamFrame(n_s=counts, n_i=counts)
            with lock:
                live[id(frame)] = frame
                peak = max(peak, len(live))
            time.sleep(0.02)
            return frame

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(twinbeam, "sample_twin_frame", fake_sample)
        out = tmp_path / "sim"
        code = main(["simulate", "--frames", "2", "--dz", "0.0125", "--out", str(out)])
        assert code == EXIT_OK
        assert len(list(out.glob("dz*.qpf"))) == 12  # 6 exposures, 2 arms each
        assert 1 <= peak <= 2

    def test_noise_scan_rows_independent_of_thread_count(self, monkeypatch):
        def serial_scan(l_cff_list, width, height, sys, twin, rng, n_trials):
            """The scan as one loop on the calling thread, its TIE at dz = 0.025 mm."""
            pitch, i0, wavenumber = sys.object_pixel, twin.mean_photons_per_pixel, sys.wavenumber
            dz_um = 0.025 * 1e3
            rows = []
            gen = rng.generator()
            for l_cff in l_cff_list:
                removed = []
                for _ in range(n_trials):
                    counts = gen.poisson(i0, size=(height, width)).astype(float)
                    sigma = ScalarField2D(width, height, pitch, counts - i0)
                    smeared = imaging_blur(ScalarField2D(width, height, pitch, counts), l_cff)
                    sigma_twin = smeared.values - i0
                    scale = -wavenumber / (math.sqrt(2.0) * i0 * dz_um)

                    def phase_var(noise):
                        rhs = ScalarField2D(width, height, pitch, scale * noise)
                        return float(poisson_solve_dirichlet(rhs).values.var())

                    var_clas = phase_var(sigma.values)
                    var_corr = phase_var(sigma.values - sigma_twin)
                    removed.append(100.0 * (1.0 - var_corr / var_clas))
                rows.append({"l_cff_um": float(l_cff), "suppression_pct": float(np.mean(removed))})
            return rows

        args = dict(
            l_cff_list=(1.0, 5.0, 20.0),
            width=48,
            height=40,
            sys=OpticalSystem(),
            twin=TwinBeamConfig(),
            n_trials=3,
        )
        runs = []
        for threads in (1, 2):
            use_threads(monkeypatch, threads)
            runs.append(noise_suppression_scan(rng=RngStream(7), **args))

        def last_first_map(func, items):
            """Evaluate the trials last to first: a trial's value may depend
            on its place in the stream, not on when it is evaluated."""
            results = [func(item) for item in reversed(list(items))]
            return reversed(results)

        monkeypatch.setattr(metrics, "ordered_map", last_first_map)
        runs.append(noise_suppression_scan(rng=RngStream(7), **args))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] == serial_scan(rng=RngStream(7), **args)


def arms(frames):
    """The float64 ``(n_s, n_i)`` arrays of each frame, as measure_nrf reads them."""
    return [(f.n_s.values, f.n_i.values) for f in frames]


class TestMeasureNrf:
    def test_perfect_correlation_gives_zero_nrf(self):
        # idler images exactly the point-reflection of the signal
        rng = np.random.default_rng(5)
        frames = []
        for _ in range(4):
            s = rng.poisson(50.0, size=(16, 16)).astype(float)
            f_s = ScalarField2D(16, 16, 1.0, s)
            f_i = ScalarField2D(16, 16, 1.0, s[::-1, ::-1])
            frames.append(TwinBeamFrame(n_s=f_s, n_i=f_i))
        point = measure_nrf(arms(frames), 1, 1.0, l_cff=5.0)
        assert point.nrf == 0.0

    def test_identical_frames_give_zero_nrf_and_fano(self):
        """A bin that does not vary over time has a true Fano factor of 0."""
        s = np.random.default_rng(4).poisson(50.0, size=(16, 16)).astype(float)
        frame = TwinBeamFrame(
            n_s=ScalarField2D(16, 16, 1.0, s), n_i=ScalarField2D(16, 16, 1.0, s[::-1, ::-1])
        )
        point = measure_nrf(arms([frame, frame]), 1, 1.0, l_cff=5.0)
        assert point.nrf == point.fano == 0.0

    def test_independent_arms_give_nrf_near_one(self):
        rng = np.random.default_rng(6)
        frames = []
        for _ in range(60):
            s = rng.poisson(80.0, size=(24, 24)).astype(float)
            idl = rng.poisson(80.0, size=(24, 24)).astype(float)
            frames.append(
                TwinBeamFrame(
                    n_s=ScalarField2D(24, 24, 1.0, s),
                    n_i=ScalarField2D(24, 24, 1.0, idl),
                )
            )
        point = measure_nrf(arms(frames), 1, 1.0, l_cff=5.0)
        assert point.nrf == pytest.approx(1.0, abs=0.08)
        assert point.fano == pytest.approx(1.0, abs=0.08)

    def test_no_detected_photon_rejected(self):
        dark = ScalarField2D(16, 16, 1.0, np.zeros((16, 16)))
        frames = [TwinBeamFrame(n_s=dark, n_i=dark)] * 3
        with pytest.raises(NoPhotonError, match="no photon was detected"):
            measure_nrf(arms(frames), 1, 1.0, l_cff=5.0)

    def test_builds_no_field_per_frame(self, monkeypatch):
        """The arms are binned as arrays: the number of fields built does
        not grow with the frame count (binning them as fields built 40 at
        bin 1 and 120 at bin 3 on 20 frames)."""
        rng = np.random.default_rng(9)

        def frames(n):
            return [
                TwinBeamFrame(
                    n_s=ScalarField2D(24, 24, 1.0, rng.poisson(50.0, (24, 24)).astype(float)),
                    n_i=ScalarField2D(24, 24, 1.0, rng.poisson(50.0, (24, 24)).astype(float)),
                )
                for _ in range(n)
            ]

        sets = {n: frames(n) for n in (4, 20)}
        built = 0
        post_init = ScalarField2D.__post_init__

        def counting_post_init(field):
            nonlocal built
            built += 1
            post_init(field)

        monkeypatch.setattr(ScalarField2D, "__post_init__", counting_post_init)
        for bin_px in (1, 3):
            counts = {}
            for n, frame_set in sets.items():
                before = built
                measure_nrf(arms(frame_set), bin_px, 1.0, l_cff=5.0)
                counts[n] = built - before
            assert counts[20] == counts[4], f"bin {bin_px}: {counts}"

    @pytest.mark.parametrize("n_frames", [20, 60])
    def test_memory_peak_in_grid_arrays(self, traced_peak, n_frames):
        """Two passes over the frames at bin 1 hold 6.0 arrays of the
        220-pixel grid for float64 counts and 8.0 for uint16 ones, whose
        arms are made float64 as they are read, for any frame count;
        stacking them held 4F + 3 (83 for 20 frames, 243 for 60)."""
        rng = np.random.default_rng(4)
        counts = [rng.poisson(600.0, (220, 220)) for _ in range(5)]
        for dtype in (float, np.uint16):
            pairs = [
                (counts[k % 5].astype(dtype), counts[(2 * k + 1) % 5].astype(dtype))
                for k in range(5)
            ]
            frames = [pairs[k % 5] for k in range(n_frames)]
            peak = traced_peak(lambda: measure_nrf(frames, 1, 1.625, l_cff=5.0))
            assert peak / (220 * 220 * 8) <= 12, dtype

    def test_sampled_nrf_matches_model(self):
        # statistical check at D = 1.95 on a small grid
        sys_ = OpticalSystem()
        twin = TwinBeamConfig(mean_photons_per_pixel=300.0)
        blank = blank_object(72, 72, sys_.object_pixel)
        frames = [
            sample_twin_frame(blank, sys_, twin, 0.0, RngStream(31, i))
            for i in range(40)
        ]
        counts = [frame_counts(frame) for frame in frames]
        point = measure_nrf(counts, 6, sys_.object_pixel, l_cff=twin.l_cff)
        model = nrf_predicted(twin.eta0, point.d_factor, twin.epsilon)
        assert point.d_factor == pytest.approx(1.95)
        assert point.nrf == pytest.approx(model, abs=0.06)


class TestEfficiencyFit:
    def synthetic_curve(self, eta0, eps):
        points = []
        for d in (0.3, 0.6, 1.0, 2.0, 4.0, 8.0):
            points.append(
                NrfPoint(d_factor=d, nrf=nrf_predicted(eta0, d, eps), fano=1.0)
            )
        return points

    def test_recovers_planted_parameters(self):
        fit = fit_efficiencies(self.synthetic_curve(0.7, 0.2))
        assert fit.converged
        assert fit.eta0 == pytest.approx(0.7, abs=1e-6)
        assert fit.epsilon == pytest.approx(0.2, abs=1e-5)
        assert fit.residual < 1e-6

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            fit_efficiencies(self.synthetic_curve(0.7, 0.2)[:3])

    def test_needs_d_span(self):
        points = [
            NrfPoint(d_factor=d, nrf=nrf_predicted(0.7, d, 0.2), fano=1.0)
            for d in (1.5, 2.0, 2.5, 3.0)
        ]
        with pytest.raises(ValueError):
            fit_efficiencies(points)
