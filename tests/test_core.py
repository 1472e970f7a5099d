"""Unit tests for domain types, configuration and target generation."""

import math
from dataclasses import fields

import numpy as np
import pytest

from twinphase.core import (
    FWHM_TO_SIGMA,
    ConfigError,
    GridError,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    generate_edge_target,
    generate_test_target,
    target_masks,
    validate_config,
)


class TestScalarField2D:
    def test_non_2d_rejected(self):
        for shape in [(64,), (8, 8, 2), ()]:
            with pytest.raises(GridError, match="2-D"):
                ScalarField2D(1.0, np.zeros(shape))

    def test_width_and_height_come_from_the_values(self):
        f = ScalarField2D(1.0, np.zeros((9, 12)))
        assert (f.width, f.height) == (12, 9)
        assert [x.name for x in fields(ScalarField2D)] == ["pitch", "values"]

    def test_minimum_grid_enforced(self):
        with pytest.raises(GridError):
            ScalarField2D(1.0, np.zeros((8, 7)))

    def test_pitch_must_be_positive(self):
        with pytest.raises(GridError):
            ScalarField2D(0.0, np.zeros((8, 8)))

    def test_non_finite_rejected(self):
        bad = np.zeros((8, 8))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError):
            ScalarField2D(1.0, bad)

    def test_values_are_immutable(self):
        f = ScalarField2D(1.0, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_caller_arrays_are_copied(self):
        values = np.zeros((8, 8))
        made = ScalarField2D(1.0, values)
        swapped = ScalarField2D(1.0, np.ones((8, 8))).with_values(values)
        values[0, 0] = 1.0
        assert values.flags.writeable
        assert not made.values.any() and not swapped.values.any()

    def test_adopted_array_is_frozen_not_copied(self):
        values = np.zeros((8, 10))
        f = ScalarField2D(2.5, np.ones((8, 10)))._adopt(values)
        assert f.values is values and f.same_grid(ScalarField2D(2.5, values))
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0

    @pytest.mark.parametrize(
        "bad, error",
        [(np.full((8, 8), np.nan), ValueError), (np.full((8, 8), -np.inf), ValueError),
         (np.zeros((8, 9)), GridError)],
        ids=["nan", "inf", "shape"],
    )
    def test_adopted_array_is_checked(self, bad, error):
        with pytest.raises(error):
            ScalarField2D(1.0, np.ones((8, 8)))._adopt(bad)

    def test_adoption_runs_post_init(self, monkeypatch):
        """Every field, adopted or copied, passes the one check that the
        benchmark tracer counts."""
        calls = []
        post_init = ScalarField2D.__post_init__

        def counted(self, *args):
            calls.append(args)
            post_init(self, *args)

        monkeypatch.setattr(ScalarField2D, "__post_init__", counted)
        f = ScalarField2D(1.0, np.ones((8, 8)))
        f.with_values(np.zeros((8, 8)))
        f._adopt(np.zeros((8, 8)))
        assert calls == [(False,), (False,), (True,)]

    def test_with_values_preserves_grid(self):
        f = ScalarField2D(2.5, np.zeros((8, 10)))
        g = f.with_values(np.ones((8, 10)))
        assert g.same_grid(f)
        assert g.values[0, 0] == 1.0
        with pytest.raises(GridError, match="grid mismatch"):
            f.with_values(np.ones((10, 8)))

    def test_dtype_follows_values(self):
        real = ScalarField2D(1.0, np.ones((8, 8)))
        wave = real.with_values(np.full((8, 8), 3.0 + 4.0j))
        assert real.values.dtype == np.float64
        assert wave.values.dtype == np.complex128
        intensity = real.with_values(np.abs(wave.values) ** 2)
        assert intensity.values.dtype == np.float64
        assert np.all(intensity.values == 25.0) and intensity.same_grid(real)

    def test_require_same_grid(self):
        a = ScalarField2D(1.0, np.zeros((8, 8)))
        b = ScalarField2D(2.0, np.zeros((8, 8)))
        with pytest.raises(GridError):
            a.require_same_grid(b)


class TestObjectSpec:
    def test_tau_range_enforced(self):
        tau = ScalarField2D(1.0, np.full((8, 8), 1.5))
        phi = ScalarField2D(1.0, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            ObjectSpec(tau=tau, phi=phi)

    def test_grid_mismatch_rejected(self):
        tau = ScalarField2D(1.0, np.ones((8, 8)))
        phi = ScalarField2D(1.0, np.zeros((8, 9)))
        with pytest.raises(GridError):
            ObjectSpec(tau=tau, phi=phi)


class TestOpticalSystem:
    def test_defaults(self):
        sys_ = OpticalSystem()
        assert sys_.object_pixel == pytest.approx(13.0 / 8.0)
        assert sys_.wavenumber == pytest.approx(2.0 * math.pi / 0.810)
        assert sys_.wavelength_um == pytest.approx(0.810)


class TestTwinBeamConfig:
    def test_sigma_derived_from_l_cff(self):
        twin = TwinBeamConfig(l_cff=5.0)
        assert twin.sigma == pytest.approx(5.0 * FWHM_TO_SIGMA)

    def test_delta(self):
        twin = TwinBeamConfig(l_cff=5.0, epsilon=0.2)
        assert twin.delta == pytest.approx(1.0)


class TestValidateConfig:
    def test_defaults_accepted(self):
        validate_config(OpticalSystem(), TwinBeamConfig())

    def test_efficiency_out_of_range(self):
        with pytest.raises(ConfigError, match="efficiency out of range"):
            validate_config(OpticalSystem(), TwinBeamConfig(eta0=1.3))

    def test_all_problems_reported(self):
        with pytest.raises(ConfigError) as exc:
            validate_config(
                OpticalSystem(wavelength=-1.0),
                TwinBeamConfig(eta0=2.0, mean_photons_per_pixel=-5.0),
            )
        msg = str(exc.value)
        assert "efficiency out of range" in msg
        assert "mean_photons_per_pixel" in msg
        assert "wavelength" in msg

    def test_unknown_beam_profile(self):
        with pytest.raises(ConfigError, match="beam_profile"):
            validate_config(OpticalSystem(), TwinBeamConfig(beam_profile="ring"))


class TestTestTarget:
    def test_deterministic(self):
        a = generate_test_target(220, 220, 1.625)
        b = generate_test_target(220, 220, 1.625)
        assert np.array_equal(a.phi.values, b.phi.values)
        assert np.array_equal(a.tau.values, b.tau.values)

    def test_value_sets(self):
        obj = generate_test_target(220, 220, 1.625)
        assert set(np.unique(obj.phi.values)) == {-0.226, 0.0, 0.345}
        assert set(np.unique(obj.tau.values)) == {0.94, 1.0}

    def test_regions_disjoint_and_consistent(self):
        pi_mask, null_mask = target_masks(220, 220)
        assert not np.any(pi_mask & null_mask)
        obj = generate_test_target(220, 220, 1.625)
        assert np.all(obj.phi.values[pi_mask] == -0.226)
        assert np.all(obj.phi.values[null_mask] == 0.345)
        assert np.all(obj.tau.values[null_mask] == 0.94)
        background = ~(pi_mask | null_mask)
        assert np.all(obj.phi.values[background] == 0.0)
        assert np.all(obj.tau.values[background] == 1.0)

    def test_small_grid_rejected(self):
        with pytest.raises(GridError):
            generate_test_target(219, 220, 1.625)

    def test_larger_grid_centers_the_design(self):
        small = generate_test_target(220, 220, 1.625)
        large = generate_test_target(256, 256, 1.625)
        pad = (256 - 220) // 2
        inner = large.phi.values[pad : pad + 220, pad : pad + 220]
        assert np.array_equal(inner, small.phi.values)


class TestEdgeTarget:
    def test_stripe_geometry(self):
        obj = generate_edge_target(1.625)
        assert obj.phi.values.shape == (220, 220)
        assert np.all(obj.tau.values == 1.0)
        assert np.all(obj.phi.values[:, 90:170] == -0.3)
        assert np.all(obj.phi.values[:, :90] == 0.0)
        assert np.all(obj.phi.values[:, 170:] == 0.0)


class TestRngStream:
    def test_same_stream_reproducible(self):
        a = RngStream(42, 3).generator().random(16)
        b = RngStream(42, 3).generator().random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator().random(16)
        b = RngStream(42, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_child_sets_stream_index(self):
        base = RngStream(7)
        child = base.child(5)
        assert child.master_seed == 7
        assert child.stream_index == 5
