"""Tests of config parsing, CSV/manifest emission and CLI exit codes."""

import argparse
import hashlib
import importlib
import json
import os
import re
import shlex
import shutil
import warnings
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from twinphase import cli, metrics, qpf, twinbeam
from twinphase.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    fmt,
    main,
    parse_config_file,
    write_csv,
)
from twinphase.core import (
    ConfigError,
    OpticalSystem,
    RngStream,
    TwinBeamConfig,
    generate_test_target,
)
from test_twinbeam import use_threads


class TestConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_valid_file(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            # comment line
            wavelength = 810
            l_cff = 5.0   # trailing comment
            eta0 = 0.7
            mean_photons_per_pixel = 600
            grid_size = 300
            """,
        )
        sys_cfg, twin_cfg, run = parse_config_file(path)
        assert sys_cfg.wavelength == 810.0
        assert twin_cfg.l_cff == 5.0
        assert run == {"grid_size": 300}

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "volume = 11\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(path)
        assert str(exc.value) == f"{path}:1: unknown key `volume`"

    # No command reads these; retrieve takes them as flags.
    @pytest.mark.parametrize(
        "line", ["dz = 0.025", "bin_px = 12", "k_mode = tie", "intensity_floor = 0.01"]
    )
    def test_unread_run_key_exits_2(self, tmp_path, capsys, line):
        path = self.write(tmp_path, line + "\n")
        code = main(["target", "--config", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "eta0 = loud\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = self.write(tmp_path, "eta0 0.7\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_invariant_violation_rejected(self, tmp_path):
        path = self.write(tmp_path, "eta0 = 1.5\n")
        with pytest.raises(ConfigError, match="efficiency out of range"):
            parse_config_file(path)

    def test_numeric_beam_profile(self, tmp_path):
        path = self.write(tmp_path, "beam_profile = 800\n")
        _, twin_cfg, _ = parse_config_file(path)
        assert twin_cfg.beam_profile == 800.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize(
        "key", [f.name for cls in (OpticalSystem, TwinBeamConfig) for f in fields(cls)]
    )
    def test_every_key_round_trips_through_the_manifest(self, tmp_path, key):
        """A config key set to a non-default value is recorded in the
        manifest, and the manifest's config builds the parsed configs."""
        value = NON_DEFAULT_CONFIG[key]
        path = self.write(tmp_path, f"{key} = {value}\n")
        assert value != {**asdict(OpticalSystem()), **asdict(TwinBeamConfig())}[key]
        parsed = parse_config_file(path)[:2]
        out = tmp_path / "sim"
        assert main(["simulate", "--config", path, "--frames", "0", "--out", str(out)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config[key] == value
        assert cli._configs(config) == parsed


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(0.0125) == "0.0125"
        assert fmt(3) == "3"
        assert fmt("tie") == "tie"

    def test_csv_newlines(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [(1.5, "x"), (2.0, "y")])
        raw = path.read_bytes()
        assert raw == b"a,b\n1.5,x\n2,y\n"


# A valid value other than the default of each config key.
NON_DEFAULT_CONFIG = {
    "wavelength": 700.0,
    "magnification": 10.0,
    "camera_pixel": 6.5,
    "blur_fwhm": 2.0,
    "l_cff": 4.0,
    "eta0": 0.5,
    "epsilon": 0.1,
    "mean_photons_per_pixel": 300.0,
    "beam_profile": 400.0,
}

# The configuration `simulate` records for a one-frame set at dz = 0.025.
MANIFEST_CONFIG = {
    "wavelength": 810.0,
    "magnification": 8.0,
    "camera_pixel": 13.0,
    "blur_fwhm": 1.5,
    "l_cff": 5.0,
    "eta0": 0.7,
    "epsilon": 0.2,
    "mean_photons_per_pixel": 600.0,
    "beam_profile": "uniform",
    "grid_size": 220,
    "dz_list": [0.025],
    "frames": 1,
}
NUMERIC_KEYS = [k for k in MANIFEST_CONFIG if k not in ("grid_size", "dz_list", "frames")]


def manifest_text(**changes):
    """A frame-set manifest whose configuration has ``changes`` applied."""
    config = {**MANIFEST_CONFIG, **changes}
    return json.dumps({"master_seed": 0, "config": config, "files": {}})


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta0 = 2.0\n")
        code = main(["target", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_missing_manifest_exits_3(self, tmp_path):
        code = main(
            ["retrieve", "--frames", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_IO

    def write_manifest(self, tmp_path, **changes):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "manifest.json").write_text(manifest_text(**changes))
        return frames

    def test_corrupt_field_file_exits_3(self, tmp_path):
        frames = self.write_manifest(tmp_path)
        (frames / "calib_mean_signal.qpf").write_bytes(b"JUNKDATA")
        code = main(["retrieve", "--frames", str(frames), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_invalid_manifest_config_exits_2(self, tmp_path):
        frames = self.write_manifest(tmp_path, eta0=5.0)
        code = main(["retrieve", "--frames", str(frames), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_manifest_value_exits_2(self, tmp_path, capsys, key, value):
        # json writes these as Infinity and NaN, and reads them back as floats
        frames = self.write_manifest(tmp_path, **{key: value})
        code = main(["retrieve", "--frames", str(frames), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            "{}",
            manifest_text(frames="1"),
            manifest_text(frames=2.5),
            manifest_text(frames=-1),
            manifest_text(frames=True),
            manifest_text(dz_list="0.025"),
            manifest_text(dz_list=[None]),
            manifest_text(eta0="x"),
            manifest_text(l_cff=None),
            manifest_text(beam_profile="gaussian"),
            json.dumps({"config": []}),
        ],
        ids=[
            "not_json",
            "no_config",
            "frames_string",
            "frames_fraction",
            "frames_negative",
            "frames_bool",
            "dz_list_string",
            "dz_list_null",
            "eta0_string",
            "l_cff_null",
            "beam_profile_unknown",
            "config_not_object",
        ],
    )
    def test_corrupt_manifest_exits_3(self, tmp_path, capsys, text):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "manifest.json").write_text(text)
        code = main(["retrieve", "--frames", str(frames), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert str(frames / "manifest.json") in capsys.readouterr().err


class TestTargetCommand:
    def test_writes_target_and_manifest(self, tmp_path):
        out = tmp_path / "tgt"
        assert main(["target", "--out", str(out)]) == EXIT_OK
        tau = qpf.read_qpf(out / "target_tau.qpf")
        phi = qpf.read_qpf(out / "target_phi.qpf")
        assert tau.width == 220 and phi.height == 220
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert "master_seed" not in manifest  # the target draws nothing

    def run_with_grid_size(self, tmp_path, size):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid_size = {size}\n")
        return main(["target", "--config", str(cfg), "--out", str(tmp_path / "tgt")])

    def test_grid_size_key(self, tmp_path):
        assert self.run_with_grid_size(tmp_path, 256) == EXIT_OK
        assert qpf.read_qpf(tmp_path / "tgt" / "target_tau.qpf").width == 256

    @pytest.mark.parametrize("size", ["0", "100"])
    def test_size_too_small_for_the_glyphs_exits_2(self, tmp_path, capsys, size):
        assert self.run_with_grid_size(tmp_path, size) == EXIT_CONFIG
        assert f"got {size}x{size}" in capsys.readouterr().err
        assert not (tmp_path / "tgt").exists()

    def test_pure_phase_flag(self, tmp_path):
        out = tmp_path / "tgt"
        assert main(["target", "--out", str(out), "--pure-phase"]) == EXIT_OK
        tau = qpf.read_qpf(out / "target_tau.qpf")
        assert np.all(tau.values == 1.0)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["target", "--out", str(a)])
        main(["target", "--out", str(b)])
        assert (a / "target_phi.qpf").read_bytes() == (b / "target_phi.qpf").read_bytes()


class TestSimulateCommand:
    def test_zero_frames_manifest_only(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--frames", "0"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        # calibration means only, no frame files
        assert sorted(manifest["files"]) == [
            "calib_mean_idler.qpf",
            "calib_mean_signal.qpf",
        ]

    def test_file_count_arithmetic(self, tmp_path):
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    "--out",
                    str(out),
                    "--frames",
                    "1",
                    "--dz",
                    "0.025",
                    "--seed",
                    "1",
                ]
            )
            == EXIT_OK
        )
        manifest = json.loads((out / "manifest.json").read_text())
        # 3 exposures x 2 arms per frame plus 2 calibration means
        frame_files = [n for n in manifest["files"] if n.startswith("dz")]
        assert len(frame_files) == 6
        assert len(manifest["files"]) == 8
        assert manifest["master_seed"] == 1

    def test_bad_dz_list_exits_2(self, tmp_path):
        # the last two would write both values' frames to the same files
        bad = ("0,-1", "abc", "nan", "0.025,inf", "0.025,0.025", "0.0125,0.01250000001")
        for dz in bad:
            out = tmp_path / "s"
            assert exit_code(["simulate", "--out", str(out), "--dz", dz]) == EXIT_CONFIG
            assert not out.exists()

    def test_frames_are_those_of_sample_triples(self, tmp_path):
        """simulate writes exposure i of ``exposures``, drawn by
        ``sample_twin_frame`` at its signed dz from stream i of its seed,
        arm for arm, and no other frame."""
        out = tmp_path / "sim"
        argv = ["simulate", "--frames", "2", "--dz", "0.025,0.05", "--seed", "9"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        sys_cfg, twin_cfg = OpticalSystem(), TwinBeamConfig()
        obj = generate_test_target(220, 220, sys_cfg.object_pixel)
        listed = twinbeam.exposures([0.025, 0.05], 2)

        def draw(indexed):
            i, (_, _, _, signed) = indexed
            return twinbeam.sample_twin_frame(obj, sys_cfg, twin_cfg, signed, RngStream(9, i))

        frames = twinbeam.ordered_map(draw, enumerate(listed))
        for (dz, frame, tag, _), tf in zip(listed, frames):
            for arm, field in (("s", tf.n_s), ("i", tf.n_i)):
                written = qpf.read_qpf(cli.frame_path(out, dz, frame, tag, arm))
                assert np.array_equal(written.values, field.values)
        assert len(list(out.glob("dz*.qpf"))) == 2 * len(listed)

    def test_zero_efficiency_runs(self, tmp_path):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("eta0 = 0\n")
        out = tmp_path / "sim"
        args = ["simulate", "--config", str(cfg), "--frames", "1", "--out", str(out)]
        assert main(args) == EXIT_OK
        for name in ("calib_mean_signal.qpf", "dz0.025_f0000_p_s.qpf"):
            assert not qpf.read_qpf(out / name).values.any()


@pytest.mark.parametrize("command", [["simulate"], ["scan", "nrf"]])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1", "--frames", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    assert "--seed: must be non-negative" in capsys.readouterr().err


def exit_code(argv):
    """Exit status of a CLI call, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def simulated(tmp_path_factory, frames):
    """A frame set of ``frames`` frames at dz = 0.025 on the 220-pixel grid."""
    out = tmp_path_factory.mktemp("frames")
    argv = ["simulate", "--frames", str(frames), "--dz", "0.025", "--seed", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def frame_set(tmp_path_factory):
    return simulated(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def two_frame_set(tmp_path_factory):
    return simulated(tmp_path_factory, 2)


def retrieve_peak(frames, out, traced_peak, k_mode, bin_px):
    """The allocation peak of a retrieve, in float64 arrays of the
    220-pixel grid."""
    argv = ["retrieve", "--frames", str(frames), "--k-mode", k_mode, "--bin", str(bin_px)]
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv + ["--out", str(out)])))
    assert codes == [EXIT_OK]
    return peak / (220 * 220 * 8)


def test_retrieve_memory_peak_in_grid_arrays(frame_set, tmp_path, traced_peak):
    """13.1 float64 arrays of the 220-pixel grid: each exposure is loaded,
    added into the sums and corrected into its plane before the next, so
    no count map is alive during a solve, and the TIE solve drops the
    -dz and +dz planes once its right-hand side exists and the in-focus
    one once its clamped I0 does; the averaged solve takes each sum,
    divided in place into its mean.  17.1 when the planes and the means
    were held through both Poisson solves and every fresh field was
    copied, 20.1 when each frame's six count maps were also held through
    its solve, and 34.2 when the last ones were also held through the
    averaged solve."""
    assert retrieve_peak(frame_set, tmp_path / "o", traced_peak, "tie", 1) <= 13.6


@pytest.mark.parametrize(
    "frames, k_mode, bin_px, bound",
    [(2, "tie", 1, 13.6), (1, "tau", 3, 12.0), (2, "tau", 3, 12.0)],
    ids=["tie_bin1_two_frames", "tau_bin3", "tau_bin3_two_frames"],
)
def test_retrieve_memory_peak_does_not_grow_with_frames(
    frame_set, two_frame_set, tmp_path, traced_peak, frames, k_mode, bin_px, bound
):
    """13.1 arrays of the 220-pixel grid at tie/bin 1 and 11.6 at tau/bin
    3, for one frame or two: the sums are three arrays however many frames
    there are.  17.1 and 13.3 when the solve held its planes and every
    fresh field was copied; holding a frame's six count maps through its
    solve, with the sums alive from frame 1 on, gave 23.1 and 17.3 for two
    frames and 14.3 at tau/bin 3 for one."""
    frame_sets = {1: frame_set, 2: two_frame_set}
    peak = retrieve_peak(frame_sets[frames], tmp_path / "o", traced_peak, k_mode, bin_px)
    assert peak <= bound


def test_simulate_memory_peak_in_grid_arrays(tmp_path, monkeypatch, traced_peak):
    """On one thread, simulate's peak is one defocused frame draw plus the
    test target's two maps and 0.2 arrays of the 220-pixel grid more: the
    two calibration means are dropped once written (held through the
    draws, they added 2.0)."""
    use_threads(monkeypatch, 1)
    sys_, twin = OpticalSystem(), TwinBeamConfig()
    obj = generate_test_target(220, 220, sys_.object_pixel)
    draw = traced_peak(lambda: twinbeam.sample_twin_frame(obj, sys_, twin, 0.025, RngStream(2, 2)))
    argv = ["simulate", "--frames", "1", "--dz", "0.025", "--seed", "2"]
    peak = traced_peak(lambda: main(argv + ["--out", str(tmp_path / "o")]))
    assert (peak - draw) / (220 * 220 * 8) <= 2.5


def test_nrf_scan_memory_grows_by_narrowed_frames(tmp_path, monkeypatch, traced_peak):
    """On one thread, each 220-pixel frame that scan nrf holds adds its
    uint16 counts, 0.19 MB, to the peak (0.77 MB as float64 arms)."""
    use_threads(monkeypatch, 1)
    peaks = {}
    for frames in (4, 12):
        argv = ["scan", "nrf", "--frames", str(frames), "--seed", "2"]
        out = str(tmp_path / f"o{frames}")
        peaks[frames] = traced_peak(lambda: main(argv + ["--out", out]))
    assert (peaks[12] - peaks[4]) / 8 <= 0.25e6


def test_overflowing_weight_exits_4(frame_set, tmp_path, capsys):
    """A finite weight whose idler subtraction overflows names the weight
    and leaves no numpy warning."""
    argv = ["retrieve", "--frames", str(frame_set), "--k-mode=1e308"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: subtraction weight 1e+308 overflows the corrected counts\n"


@pytest.mark.parametrize("k", ["1e303", "1e305", "1e306"])
def test_weight_that_overflows_the_solve_exits_4(frame_set, tmp_path, capsys, k):
    """A weight whose corrected planes are finite but whose TIE solve is
    not exits 4 with a message naming the weight, with no traceback and
    no numpy warning."""
    argv = ["retrieve", "--frames", str(frame_set), f"--k-mode={k}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == f"numerical failure: the TIE solve is not finite at subtraction weight k = {float(k)!r}\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--k-mode", "bogus"],
        # a weight that is not finite: float() parses these
        ["--k-mode=nan"],
        ["--k-mode=inf"],
        ["--k-mode=-inf"],
        ["--k-mode=1e400"],
        ["--bin", "0"],
        ["--bin", "-2"],
        # the tau weight is resolved before the binning is checked
        ["--bin", "0", "--k-mode", "tau"],
        ["--bin", "-2", "--k-mode", "tau"],
        ["--bin", "500"],  # larger than the 220-pixel grid
        ["--dz", "abc"],
    ],
)
def test_bad_retrieve_arguments_exit_2(frame_set, tmp_path, extra):
    out = tmp_path / "o"
    argv = ["retrieve", "--frames", str(frame_set), "--out", str(out)] + extra
    assert exit_code(argv) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("key", NUMERIC_KEYS)
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    """An infinite l_cff, epsilon or blur_fwhm overflowed in the sampler's
    set-up, and an infinite camera_pixel wrote frames of infinite pitch."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg), "--frames", "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


PITCH = "object_pixel = camera_pixel / magnification"
WAVENUMBER = "wavenumber = 2 pi / wavelength"


@pytest.mark.parametrize(
    "lines, derived",
    [
        ("camera_pixel = 1e300\nmagnification = 1e-300", PITCH),
        ("camera_pixel = 1e-300\nmagnification = 1e300", PITCH),
        ("wavelength = 1e-320", WAVENUMBER),
        ("wavelength = 1e-322", WAVENUMBER),
    ],
    ids=["pitch_inf", "pitch_zero", "wavenumber_inf", "wavelength_um_zero"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["target"],
        ["simulate", "--frames", "0"],
        ["scan", "resolution", "--dz", "0.1"],
        ["scan", "noise"],
    ],
    ids=" ".join,
)
def test_derived_value_not_finite_and_positive_exits_2(tmp_path, capsys, lines, derived, command):
    """Finite keys whose object pixel or wavenumber is infinite or 0: the
    scans raised "field contains non-finite values", and target and
    simulate wrote QPF files of infinite pitch."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines + "\n")
    out = tmp_path / "o"
    assert exit_code(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{derived} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, named",
    [
        ("camera_pixel = 1e-300", "1 / object_pixel = magnification / camera_pixel"),
        ("blur_fwhm = 1e154", "blur_fwhm"),
        ("blur_fwhm = 1e200", "blur_fwhm"),
        ("blur_fwhm = 1e300", "blur_fwhm"),
    ],
    ids=["pitch_1e-300", "blur_1e154", "blur_1e200", "blur_1e300"],
)
@pytest.mark.parametrize(
    "command", [["scan", "resolution", "--dz", "0.1"], ["simulate", "--frames", "0"]], ids=" ".join
)
def test_optics_square_not_finite_exits_2(tmp_path, capsys, line, named, command):
    """Finite keys whose squares in the optics overflow: the transfer
    function's |q|^2 (up to 1 / object_pixel squared) or the blur's
    2 pi^2 sigma^2.  `scan resolution` raised "field contains non-finite
    values" for the first and for blur_fwhm = 1e154, and Python's
    OverflowError from sigma**2 for blur_fwhm = 1e200 and 1e300;
    `simulate` raised "Maximum allowed dimension exceeded" for the first."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert exit_code(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{named} must square to a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["mean_photons_per_pixel = 1e300", "eta0 = 1e-30", "beam_profile = 0.001"],
    ids=["photons", "eta0", "beam"],
)
@pytest.mark.parametrize(
    "command", [["simulate", "--frames", "1"], ["scan", "nrf", "--frames", "2"]], ids=" ".join
)
def test_pair_rate_numpy_cannot_draw_exits_2(tmp_path, capsys, line, command):
    """Finite values that pass validation can still give a pair-birth rate
    above numpy's Poisson limit ("lam value too large"), or a beam too
    narrow to light any pixel, whose normalized weights are 0 / 0."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert exit_code(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "pair-birth rate" in err
    assert "mean_photons_per_pixel, eta0 and beam_profile" in err
    assert not out.exists()


def test_poisson_level_numpy_cannot_draw_exits_2_on_scan_noise(tmp_path, capsys):
    """The noise scan draws Poisson counts around mean_photons_per_pixel
    itself: 1e300 raised "lam value too large" from its first draw."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mean_photons_per_pixel = 1e300\n")
    out = tmp_path / "o"
    assert exit_code(["scan", "noise", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "mean_photons_per_pixel 1e+300 is above numpy's Poisson limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, command",
    [
        ("eta0 = 0", ["scan", "nrf", "--frames", "2"]),
        ("mean_photons_per_pixel = 1e-9", ["scan", "nrf", "--frames", "2"]),
        ("eta0 = 0", ["scan", "advantage", "--frames", "1", "--dz", "0.0125"]),
        ("eta0 = 0", ["retrieve"]),
    ],
    ids=["nrf_dark", "nrf_faint", "advantage_dark", "retrieve_dark"],
)
def test_no_detected_photon_exits_4(tmp_path, capsys, line, command):
    """A frame set with no detected photon has no mean count to divide by."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    if command == ["retrieve"]:
        frames = tmp_path / "frames"
        argv = ["simulate", "--config", str(cfg), "--frames", "1", "--out", str(frames)]
        assert main(argv) == EXIT_OK
        command = ["retrieve", "--frames", str(frames)]
    else:
        command = command + ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main(command + ["--out", str(out)]) == EXIT_NUMERICAL
    assert "no photon was detected" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_faint_nrf_scan_measures_a_zero_fano_factor(tmp_path):
    """Seed 23 at 2e-5 photons per pixel gives two frames whose 25-px bins
    hold the same counts: their Fano factor of 0 is a measurement."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mean_photons_per_pixel = 2e-5\n")
    out = tmp_path / "o"
    argv = ["scan", "nrf", "--frames", "2", "--seed", "23", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    last = (out / "nrf.csv").read_text().splitlines()[-1].split(",")
    assert last[3] == "0"  # fano_signal at bin 25


def test_constant_classical_phase_exits_4(tmp_path, capsys):
    """Seed 20 at 2e-5 photons per pixel detects no photon in either
    defocused plane, so the classical phase is constant and its Pearson
    coefficient undefined; the message names the failing point."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mean_photons_per_pixel = 2e-5\n")
    out = tmp_path / "o"
    argv = ["scan", "advantage", "--frames", "1", "--dz", "0.025", "--seed", "20"]
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "pearson undefined for a constant image" in err
    assert "dz=0.025 mm, bin 1, classical weight, frame 0" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["target"],
        ["simulate"],
        *(["scan", scan] for scan in ("nrf", "advantage", "resolution", "noise")),
    ],
    ids=" ".join,
)
def test_infinite_wavelength_exits_2_on_every_command(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavelength = inf\n")
    out = tmp_path / "o"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "nrf", "--frames", "1"],
        ["scan", "nrf", "--frames", "0"],
        ["scan", "advantage", "--frames", "0"],
        ["simulate", "--frames", "-1"],
    ],
)
def test_bad_frame_count_exits_2(tmp_path, argv):
    out = tmp_path / "o"
    assert exit_code(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_retrieve_takes_no_config_flag(frame_set, tmp_path, capsys):
    # the configuration and the seed are the frame set's
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta0 = 0.5\n")
    for flag, value in (("--config", str(cfg)), ("--seed", "99")):
        argv = ["retrieve", "--frames", str(frame_set), flag, value]
        assert exit_code(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["target", "--seed", "5"],
        ["scan", "nrf", "--dz", "0.025"],
        ["scan", "resolution", "--seed", "99"],
        ["scan", "resolution", "--frames", "7"],
        ["scan", "noise", "--frames", "3"],
        ["scan", "noise", "--dz", "0.025"],
    ],
    ids=" ".join,
)
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert exit_code(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scan", ["nrf", "advantage", "resolution", "noise"])
def test_scan_rejects_grid_size(tmp_path, capsys, scan):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_size = 300\n")
    out = tmp_path / "o"
    argv = ["scan", scan, "--config", str(cfg), "--out", str(out)]
    if scan in ("nrf", "advantage"):
        argv += ["--frames", "2"]
    assert exit_code(argv) == EXIT_CONFIG
    assert "grid_size" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, value",
    [
        ("dz0.025_f0000_0_s.qpf", float("nan")),
        ("dz0.025_f0000_p_s.qpf", 0.5),
        ("dz0.025_f0000_m_s.qpf", -3.0),
        ("calib_mean_signal.qpf", float("inf")),
    ],
    ids=["nan", "fraction", "negative", "inf_calibration"],
)
def test_bad_value_in_field_file_exits_3(frame_set, tmp_path, capsys, name, value):
    frames = tmp_path / "frames"
    shutil.copytree(frame_set, frames)
    raw = (frames / name).read_bytes()
    values = np.frombuffer(raw, dtype="<f8", offset=20).copy()
    values[values.size // 2] = value
    (frames / name).write_bytes(raw[:20] + values.tobytes())
    argv = ["retrieve", "--frames", str(frames), "--out", str(tmp_path / "o")]
    assert exit_code(argv) == EXIT_IO
    assert name in capsys.readouterr().err


def test_failed_resolution_fit_names_its_point(tmp_path, capsys, monkeypatch):
    """The point is chosen by its (dz, bin), not by the order of the
    fits, which the dz points' threads leave arbitrary."""
    real_samples = metrics._interleaved_edge_samples

    def flat_at_one_point(stack, config, bin_px, *args):
        xs, vals = real_samples(stack, config, bin_px, *args)
        if (config.dz, bin_px) == (0.025, 3):
            vals = np.zeros_like(vals)  # no edge contrast to fit
        return xs, vals

    monkeypatch.setattr(metrics, "_interleaved_edge_samples", flat_at_one_point)
    for threads in (1, 2):
        use_threads(monkeypatch, threads)
        out = tmp_path / f"r{threads}"
        code = main(["scan", "resolution", "--dz", "0.0125,0.025", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "dz=0.025 mm, bin 3: no edge contrast" in err
        assert err.count("bin ") == 1  # only the failing point is named


def test_blas_pools_run_one_thread_inside_a_command(tmp_path, monkeypatch):
    real_stack = metrics.defocus_stack
    seen = []

    def stack_reading_pools(*args, **kwargs):
        seen.append([get() for get, _ in cli._openblas_pools()])
        return real_stack(*args, **kwargs)

    monkeypatch.setattr(metrics, "defocus_stack", stack_reading_pools)
    use_threads(monkeypatch, 2)
    with cli._blas_threads(2):
        code = main(["scan", "resolution", "--dz", "0.0125,0.025", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert len(seen) == 2 and all(size == 1 for sizes in seen for size in sizes)


def raise_in_command(*args):
    raise RuntimeError("raised in a command")


@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "exception"])
def test_blas_pool_sizes_restored_after_a_command(tmp_path, monkeypatch, outcome):
    argv = ["target", "--out", str(tmp_path / "t")]
    if outcome == "exit 2":
        (tmp_path / "bad.cfg").write_text("volume = 11\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "bad.cfg")]
    if outcome == "exception":
        monkeypatch.setattr(cli, "generate_test_target", raise_in_command)
    with cli._blas_threads(2):
        if outcome == "exception":
            with pytest.raises(RuntimeError, match="raised in a command"):
                main(argv)
        else:
            assert main(argv) == {"exit 0": EXIT_OK, "exit 2": EXIT_CONFIG}[outcome]
        assert all(get() == 2 for get, _ in cli._openblas_pools())


def test_command_runs_without_an_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas_pools", lambda: [])
    assert main(["target", "--out", str(tmp_path)]) == EXIT_OK


def registered_options():
    """{command: set of options} for every subcommand and scan of the CLI."""
    found = {}

    def walk(parser, command):
        actions = parser._actions
        subparsers = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        for action in subparsers:
            for name, child in action.choices.items():
                walk(child, f"{command} {name}".strip())
        if not subparsers:
            found[command] = {
                a.option_strings[-1]
                for a in actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
            }

    walk(build_parser(), "")
    return found


# command: (baseline argv, {option: arguments that change only that option}).
# Every option a command registers needs a case; --out is checked on the
# baseline run.  "{cfg}" is a config file, "{frames}" a frame set at two
# defocus values and "{other_frames}" a second frame set.
OPTION_CASES = {
    "target": (
        ["target"],
        {
            "--config": ["--config", "{cfg}"],
            "--pure-phase": ["--pure-phase"],
        },
    ),
    "simulate": (
        ["simulate", "--frames", "1"],
        {
            "--config": ["--config", "{cfg}"],
            "--seed": ["--seed", "1"],
            "--frames": ["--frames", "0"],
            "--dz": ["--dz", "0.05"],
        },
    ),
    "retrieve": (
        ["retrieve", "--frames", "{frames}"],
        {
            "--frames": ["--frames", "{other_frames}"],
            "--dz": ["--dz", "0.05"],
            "--bin": ["--bin", "3"],
            "--k-mode": ["--k-mode", "tie"],
        },
    ),
    "scan nrf": (
        ["scan", "nrf", "--frames", "2"],
        {
            "--config": ["--config", "{cfg}"],
            "--seed": ["--seed", "1"],
            "--frames": ["--frames", "3"],
        },
    ),
    "scan advantage": (
        ["scan", "advantage", "--frames", "1", "--dz", "0.0125"],
        {
            "--config": ["--config", "{cfg}"],
            "--seed": ["--seed", "1"],
            "--frames": ["--frames", "2"],
            "--dz": ["--dz", "0.025"],
        },
    ),
    "scan resolution": (
        ["scan", "resolution", "--dz", "0.0125"],
        {"--config": ["--config", "{cfg}"], "--dz": ["--dz", "0.025"]},
    ),
    "scan noise": (
        ["scan", "noise"],
        {"--config": ["--config", "{cfg}"], "--seed": ["--seed", "1"]},
    ),
}


def test_every_registered_option_has_a_case():
    registered = registered_options()
    cases = {command: {"--out", *case[1]} for command, case in OPTION_CASES.items()}
    assert registered == cases


@pytest.mark.parametrize("command", OPTION_CASES)
def test_every_option_changes_an_output(command, frame_set, tmp_path):
    """Two runs that differ only in one option write different data files,
    the manifest aside: an option that is only recorded does nothing."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("magnification = 10\neta0 = 0.6\n")
    places = {"cfg": cfg, "frames": tmp_path / "frames", "other_frames": frame_set}
    if command == "retrieve":
        argv = ["simulate", "--frames", "1", "--dz", "0.025,0.05", "--seed", "3"]
        assert main(argv + ["--out", str(places["frames"])]) == EXIT_OK

    def outputs(argv, out):
        assert main([a.format(**places) for a in argv] + ["--out", str(out)]) == EXIT_OK
        names = json.loads((out / "manifest.json").read_text())["files"]
        assert sorted([*names, "manifest.json"]) == sorted(p.name for p in out.iterdir())
        return {name: (out / name).read_bytes() for name in names}

    base_argv, options = OPTION_CASES[command]
    runs = tmp_path / "runs"
    base = outputs(base_argv, runs / "base")  # --out: the files land there
    assert base
    # a run records the seed it draws from; retrieve copies its frame set's
    manifest = json.loads((runs / "base" / "manifest.json").read_text())
    assert ("master_seed" in manifest) == ("--seed" in options or command == "retrieve")
    for option, extra in options.items():
        changed = outputs(base_argv + extra, runs / option.strip("-"))
        assert changed != base, f"{command} {option} changed no output"


def test_readme_commands_parse():
    """Every `twinphase` line of the README's shell blocks is a valid command."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [
        line
        for block in readme.split("```sh\n")[1:]
        for line in block.split("```")[0].splitlines()
        if line.startswith("twinphase ")
    ]
    assert len(lines) >= 7
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_flag_table_matches_the_parser():
    """The README's "Command-line usage" table lists exactly the flags
    each command registers."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command-line usage\n")[1].split("\n## ")[0]
    table = {}
    for row in section.splitlines():
        cells = row.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            command = cells[1].strip().strip("`")
            table[command] = set(re.findall(r"`(--[a-z-]+)", cells[2]))
    assert table == registered_options()


def test_readme_record_table_matches_the_records():
    """The README's record table lists exactly each record's fields, in
    order, and their count."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| (.*) \| (\d+) \|$", readme, re.MULTILINE)
    assert len(rows) == 6
    for module, name, cells, count in rows:
        record = getattr(importlib.import_module(f"twinphase.{module}"), name)
        names = [f.name for f in fields(record)] if is_dataclass(record) else list(record._fields)
        assert re.findall(r"`(\w+)`", cells) == names, name
        assert int(count) == len(names), name


def test_readme_config_sentences_match_the_configs():
    """The README's "has N settable fields" sentences name each config
    class's fields, in order, and their count."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentences = re.findall(
        r"`([\w.]+)` has (\w+) settable fields(?: \(|: )([^.)]*)", readme
    )
    assert [ref for ref, _, _ in sentences] == ["TwinBeamConfig", "retrieval.RetrievalConfig"]
    counts = {"five": 5, "six": 6, "seven": 7}
    for ref, count, cells in sentences:
        module, _, name = ref.rpartition(".")
        config = getattr(importlib.import_module(f"twinphase.{module or 'core'}"), name)
        names = [f.name for f in fields(config)]
        assert re.findall(r"`(\w+)`", cells) == names, ref
        assert counts[count] == len(names), ref
