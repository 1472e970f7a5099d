"""Tests of the twin-beam sampler, correlation model and metrology."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from twinphase.core import (
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    generate_test_target,
)
from twinphase.twinbeam import (
    NrfPoint,
    TwinBeamFrame,
    bin_counts,
    d_factor_for_bin,
    eta_c,
    expected_counts,
    fit_efficiencies,
    measure_nrf,
    nrf_predicted,
    ordered_map,
    register_idler,
    sample_frames,
    sample_triples,
    sample_twin_frame,
)
from twinphase import metrics, twinbeam
from twinphase.cli import EXIT_NUMERICAL, main
from twinphase.metrics import noise_suppression_scan
from twinphase.optics import imaging_blur
from twinphase.retrieval import poisson_solve_dirichlet

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

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            eta_c(-1.0, 0.0)
        with pytest.raises(ValueError):
            eta_c(1.0, -0.1)


class TestNrfModel:
    def test_formula(self):
        d, eps, eta0 = 3.9, 0.2, 0.7
        assert nrf_predicted(eta0, d, eps) == pytest.approx(
            1.0 - eta0 * ETA_C_ORACLE[(d, eps)], abs=1e-10
        )

    def test_eta0_range_enforced(self):
        with pytest.raises(ValueError):
            nrf_predicted(1.2, 1.0, 0.0)

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
        pitch = self.sys.object_pixel
        self.grid = ScalarField2D(64, 64, pitch, np.zeros((64, 64)))

    def test_deterministic_per_stream(self):
        a = sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(9, 4), grid=self.grid)
        b = sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(9, 4), grid=self.grid)
        assert np.array_equal(a.n_s.values, b.n_s.values)
        assert np.array_equal(a.n_i.values, b.n_i.values)

    def test_distinct_streams_differ(self):
        a = sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(9, 0), grid=self.grid)
        b = sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(9, 1), grid=self.grid)
        assert not np.array_equal(a.n_s.values, b.n_s.values)

    def test_counts_are_non_negative_integers(self):
        f = sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(3), grid=self.grid)
        for v in (f.n_s.values, f.n_i.values):
            assert np.all(v >= 0)
            assert np.all(v == np.round(v))

    def test_zero_efficiency_gives_empty_frames(self):
        dark = TwinBeamConfig(eta0=0.0, mean_photons_per_pixel=200.0)
        f = sample_twin_frame(None, self.sys, dark, 0.0, RngStream(3), grid=self.grid)
        assert f.n_s.values.sum() == 0
        assert f.n_i.values.sum() == 0

    def test_needs_object_or_grid(self):
        with pytest.raises(ValueError):
            sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(0))

    def test_frame_count_validation(self):
        good = self.grid.with_values(np.zeros((64, 64)))
        bad = self.grid.with_values(np.full((64, 64), 0.5))
        with pytest.raises(ValueError):
            TwinBeamFrame(n_s=bad, n_i=good)

    def test_flux_calibration(self):
        # detected signal flux averages mean_photons_per_pixel
        frames = [
            sample_twin_frame(None, self.sys, self.twin, 0.0, RngStream(11, i), grid=self.grid)
            for i in range(8)
        ]
        mean = np.mean([f.n_s.values.mean() for f in frames])
        assert mean == pytest.approx(self.twin.mean_photons_per_pixel, rel=0.02)


class TestExpectedCounts:
    def test_object_free_uniform_means(self):
        sys_ = OpticalSystem()
        twin = TwinBeamConfig(mean_photons_per_pixel=600.0)
        grid = ScalarField2D(64, 64, sys_.object_pixel, np.zeros((64, 64)))
        mean_s, mean_i = expected_counts(None, sys_, twin, 0.0, grid=grid)
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
        grid = ScalarField2D(64, 64, sys_.object_pixel, np.zeros((64, 64)))
        mean_s, mean_i = expected_counts(None, sys_, dark, 0.0, grid=grid)
        assert not mean_s.values.any() and not mean_i.values.any()


def test_defocused_object_with_a_flat_unique_inverse(monkeypatch):
    # NumPy < 2 returns np.unique's inverse flattened, not in the input's shape
    sys_, twin = OpticalSystem(), TwinBeamConfig(mean_photons_per_pixel=200.0)
    obj = generate_test_target(220, 220, sys_.object_pixel)

    def draw():
        frame = sample_twin_frame(obj, sys_, twin, 0.0125, RngStream(5, 2))
        mean_s, mean_i = expected_counts(obj, sys_, twin, 0.0125)
        return frame.n_s.values, frame.n_i.values, mean_s.values, mean_i.values

    want = draw()
    unique, flattened = np.unique, []

    def flat_unique(a, **kwargs):
        d, inv = unique(a, **kwargs)
        flattened.append(inv.ndim > 1)
        return d, inv.ravel()

    monkeypatch.setattr(np, "unique", flat_unique)
    got = draw()
    assert any(flattened)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def use_threads(monkeypatch, threads, cpus=4):
    """Let ordered_map, and so sample_frames and the noise scan, see
    ``cpus`` CPUs and cap it at ``threads``."""
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
        runs = []
        for threads in (1, 2):
            use_threads(monkeypatch, threads)
            runs.append(self.frame_bytes(sample_frames(obj, sys_, twin, dzs, base)))
        # the RngStream promise: a frame depends on its stream index only,
        # not on the order in which frames are drawn
        reverse = {
            i: sample_twin_frame(obj, sys_, twin, dzs[i], base.child(i))
            for i in reversed(range(len(dzs)))
        }
        direct = self.frame_bytes(reverse[i] for i in range(len(dzs)))
        assert runs[0] == runs[1]
        assert runs[0] == direct

    def test_draws_at_most_workers_ahead_of_reader(self, monkeypatch):
        workers, n = 3, 40
        started = []

        def fake_sample(obj, sys_, twin, dz, rng, grid=None):
            started.append(rng.stream_index)
            time.sleep(0.001)
            return rng.stream_index

        use_threads(monkeypatch, workers, cpus=8)
        monkeypatch.setattr(twinbeam, "sample_twin_frame", fake_sample)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads_before = threading.active_count()
            got = []
            for index in sample_frames(None, None, None, [0.0] * n, RngStream(1)):
                got.append(index)
                assert len(started) <= len(got) + workers
                time.sleep(0.005)  # a slow reader: the threads run ahead if they can
                assert len(started) <= len(got) + workers
        finally:
            sys.setswitchinterval(interval)
        assert got == list(range(n))
        assert sorted(started) == list(range(n))
        assert threading.active_count() == threads_before

    def test_triples_take_consecutive_streams(self, monkeypatch):
        def fake_sample(obj, sys_, twin, dz, rng, grid=None):
            return dz, rng.stream_index

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(twinbeam, "sample_twin_frame", fake_sample)
        triples = list(sample_triples(None, None, None, [0.5, 2.0], 2, RngStream(1)))
        assert triples == [
            ((-0.5, 0), (0.0, 1), (0.5, 2)),
            ((-0.5, 3), (0.0, 4), (0.5, 5)),
            ((-2.0, 6), (0.0, 7), (2.0, 8)),
            ((-2.0, 9), (0.0, 10), (2.0, 11)),
        ]

    def test_worker_exception_reaches_the_caller(self, monkeypatch, tmp_path):
        raised_in = []

        def fake_sample(obj, sys_, twin, dz, rng, grid=None):
            time.sleep(0.05)  # so the second thread claims a frame
            if threading.current_thread() is not threading.main_thread():
                raised_in.append(rng.stream_index)
                raise FloatingPointError("overflow in a worker")
            return sample_twin_frame(obj, sys_, twin, dz, rng, grid=grid)

        use_threads(monkeypatch, 2)
        monkeypatch.setattr(twinbeam, "sample_twin_frame", fake_sample)
        threads_before = threading.active_count()
        code = main(["scan", "nrf", "--frames", "4", "--out", str(tmp_path / "nrf")])
        assert raised_in
        assert code == EXIT_NUMERICAL
        assert threading.active_count() == threads_before

    def test_pulls_items_in_order_at_most_workers_ahead(self, monkeypatch):
        workers, n = 3, 40
        pulled = []

        def items():
            for i in range(n):
                pulled.append(i)
                yield i

        def slow_square(i):
            time.sleep(0.001)
            return i * i

        use_threads(monkeypatch, workers, cpus=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads_before = threading.active_count()
            got = []
            for value in ordered_map(slow_square, items()):
                got.append(value)
                assert len(pulled) <= len(got) + workers
                time.sleep(0.005)  # a slow reader: the threads run ahead if they can
                assert len(pulled) <= len(got) + workers
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(n)]
        assert pulled == list(range(n))
        assert threading.active_count() == threads_before

    def test_iterator_exception_reaches_the_consumer_at_its_index(self, monkeypatch):
        def items():
            yield from range(3)
            raise FloatingPointError("overflow while drawing item 3")

        def slow_identity(i):
            time.sleep(0.02)  # so the second thread pulls ahead of the reader
            return i

        use_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        got = []
        with pytest.raises(FloatingPointError, match="item 3"):
            for value in ordered_map(slow_identity, items()):
                got.append(value)
        assert got == [0, 1, 2]
        assert threading.active_count() == threads_before

    def test_noise_scan_rows_independent_of_thread_count(self, monkeypatch):
        def serial_scan(l_cff_list, width, height, pitch, dz, i0, wavenumber, rng, n_trials):
            """The scan as one loop on the calling thread."""
            dz_um = dz * 1e3
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
            pitch=1.625,
            dz=0.025,
            i0=600.0,
            wavenumber=OpticalSystem().wavenumber,
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
        point = measure_nrf(frames, 1, l_cff=5.0)
        assert point.nrf == 0.0

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
        point = measure_nrf(frames, 1, l_cff=5.0)
        assert point.nrf == pytest.approx(1.0, abs=0.08)
        assert point.fano == pytest.approx(1.0, abs=0.08)

    def test_needs_two_frames(self):
        f = TwinBeamFrame(
            n_s=ScalarField2D(8, 8, 1.0, np.ones((8, 8))),
            n_i=ScalarField2D(8, 8, 1.0, np.ones((8, 8))),
        )
        with pytest.raises(ValueError):
            measure_nrf([f], 1, l_cff=5.0)

    def test_sampled_nrf_matches_model(self):
        # statistical check at D = 1.95 on a small grid
        sys_ = OpticalSystem()
        twin = TwinBeamConfig(mean_photons_per_pixel=300.0)
        grid = ScalarField2D(72, 72, sys_.object_pixel, np.zeros((72, 72)))
        frames = [
            sample_twin_frame(None, sys_, twin, 0.0, RngStream(31, i), grid=grid)
            for i in range(40)
        ]
        point = measure_nrf(frames, 6, l_cff=twin.l_cff)
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
