"""Tests of config parsing, CSV/manifest emission and CLI exit codes."""

import argparse
import hashlib
import json
import os
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from twinphase import metrics, qpf
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
from twinphase.core import ConfigError


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
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

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

    def test_size_flag(self, tmp_path):
        out = tmp_path / "tgt"
        assert main(["target", "--out", str(out), "--size", "256"]) == EXIT_OK
        assert qpf.read_qpf(out / "target_tau.qpf").width == 256

    @pytest.mark.parametrize("size", ["0", "100"])
    def test_size_too_small_for_the_glyphs_exits_2(self, tmp_path, capsys, size):
        out = tmp_path / "tgt"
        assert main(["target", "--out", str(out), "--size", size]) == EXIT_CONFIG
        assert f"got {size}x{size}" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.fixture(scope="module")
def frame_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("frames")
    argv = ["simulate", "--frames", "1", "--dz", "0.025", "--seed", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    return out


@pytest.mark.parametrize(
    "extra",
    [
        ["--k-mode", "bogus"],
        ["--bin", "0"],
        ["--bin", "-2"],
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
    calls = []
    real_fit = metrics.esf_fit

    def fit_failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 6:  # dz 0.025, the second binning (3 px)
            return metrics._failed_fit("no edge contrast")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(metrics, "esf_fit", fit_failing_once)
    code = main(["scan", "resolution", "--dz", "0.0125,0.025", "--out", str(tmp_path / "r")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "dz=0.025 mm, bin 3: no edge contrast" in err
    assert err.count("bin ") == 1  # only the failing point is named


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
            "--size": ["--size", "256"],
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
