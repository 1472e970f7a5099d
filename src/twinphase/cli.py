"""Batch front-end: config parsing, subcommands, reproducible manifests.

Subcommands, each registering only the flags it reads:

* ``target``    render the engineered test object to QPF1 files
* ``simulate``  Monte-Carlo twin-beam frame sets (three exposures per frame)
* ``retrieve``  phase + transmittance reconstruction from a frame set
* ``scan``      ``nrf``, ``advantage``, ``resolution`` or ``noise`` CSV curve

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure; a non-zero exit leaves ``--out`` as it found it (``_run_staged``).
Identical config + seed produce byte-identical outputs, for any thread
count of ``runtime.ordered_map``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, fields

from . import __version__, metrics, qpf, retrieval, runtime, twinbeam
from .core import (
    TARGET_GRID,
    ConfigError,
    GridError,
    NoPhotonError,
    NumericalError,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    TwinBeamConfig,
    blank_object,
    generate_test_target,
    validate_config,
)
from .qpf import write_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# The configuration keys are the fields of the two config classes.
_OPTICAL_KEYS = [f.name for f in fields(OpticalSystem)]
_TWIN_KEYS = [f.name for f in fields(TwinBeamConfig)]


def _grid_size(text):
    """A grid side the sampler's padded grid can hold, checked before any array exists."""
    if int(text) > twinbeam.MAX_PADDED_SIDE:
        raise ValueError(f"{text} is above twinbeam.MAX_PADDED_SIDE = {twinbeam.MAX_PADDED_SIDE}")
    return int(text)


_RUN_KEYS = {"grid_size": _grid_size}


def _configs(values):
    """The validated (OpticalSystem, TwinBeamConfig) of a flat mapping of
    their fields: a missing key takes its default, other keys are ignored."""
    return validate_config(
        OpticalSystem(**{key: values[key] for key in _OPTICAL_KEYS if key in values}),
        TwinBeamConfig(**{key: values[key] for key in _TWIN_KEYS if key in values}),
    )


def parse_config_file(path):
    """Parse the flat `key = value` config format (UTF-8, # comments).

    Returns (OpticalSystem, TwinBeamConfig, dict of run keys); unknown
    keys raise ConfigError.
    """
    values, run = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in (*_OPTICAL_KEYS, *_TWIN_KEYS, *_RUN_KEYS):
            raise ConfigError(f"{path}:{lineno}: unknown key `{key}`")
        try:
            if key in _RUN_KEYS:
                run[key] = _RUN_KEYS[key](value)
            elif (key, value) == ("beam_profile", "uniform"):
                values[key] = value
            else:
                values[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for `{key}`: {exc}")
    return (*_configs(values), run)


def fmt(value) -> str:
    """Fixed numeric formatting for CSV cells: 9 significant digits."""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def write_csv(out_dir, name, header, rows):
    """Write ``out_dir/name.csv``."""
    with open(os.path.join(out_dir, name + ".csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _load_configs(args):
    return parse_config_file(args.config) if args.config else (*_configs({}), {})


# ---------------------------------------------------------------------------
# Subcommands: each writes its files into ``out`` and returns (config, seed, summary)
# ---------------------------------------------------------------------------

def cmd_target(args, out):
    sys_cfg, twin_cfg, run = _load_configs(args)
    size = run.get("grid_size", TARGET_GRID)
    pitch = sys_cfg.object_pixel
    obj = generate_test_target(size, size, pitch)
    if args.pure_phase:
        obj = ObjectSpec(tau=blank_object(size, size, pitch).tau, phi=obj.phi)
    qpf.write_fields(out, [("target_tau", obj.tau), ("target_phi", obj.phi)])
    snap = {**asdict(sys_cfg), **asdict(twin_cfg), "grid_size": size}
    return snap, None, f"wrote target ({size}x{size}) to {args.out}"


def cmd_simulate(args, out):
    sys_cfg, twin_cfg, run = _load_configs(args)
    size = run.get("grid_size", TARGET_GRID)
    pitch = sys_cfg.object_pixel
    calib = twinbeam.expected_counts(blank_object(size, size, pitch), sys_cfg, twin_cfg, 0.0)
    qpf.write_fields(out, zip(qpf.CALIBRATION, calib))
    del calib  # no draw reads the means
    obj = generate_test_target(size, size, pitch)

    # Each exposure is drawn stage by stage (twinbeam.sample_twin_stages),
    # written by the thread that draws its last stage, and dropped after.
    base = RngStream(args.seed)

    def draw_and_write(indexed):
        index, (dz, frame, tag, signed) = indexed
        tf = yield from twinbeam.sample_twin_stages(
            obj, sys_cfg, twin_cfg, signed, base.child(index)
        )
        qpf.write_fields(out, zip(qpf.exposure_names(dz, frame, tag), (tf.n_s, tf.n_i)))

    runtime.ordered_map(draw_and_write, enumerate(twinbeam.exposures(args.dz, args.frames)))
    snap = {**asdict(sys_cfg), **asdict(twin_cfg), "grid_size": size}
    snap.update(dz_list=args.dz, frames=args.frames)
    files = len(os.listdir(out))
    return snap, args.seed, f"wrote {files} files ({args.frames} frames x {len(args.dz)} dz)"


def cmd_retrieve(args, out):
    manifest = qpf.read_manifest(args.frames)
    conf = manifest["config"]
    sys_cfg, twin_cfg = _configs(conf)
    dz_list, n_frames = conf.get("dz_list", []), conf.get("frames", 0)
    if not dz_list or not n_frames:
        raise ConfigError("frame set contains no frames to retrieve")
    dz = dz_list[0] if args.dz is None else args.dz
    if dz not in dz_list:
        raise ConfigError(f"dz = {dz} not present in frame set {dz_list}")
    (calib_s, calib_i), load = qpf.read_frame_set(args.frames, dz)
    # the loader holds every frame to the calibration grid, so one weight serves all
    k = retrieval.resolve_k(args.k_mode, args.bin, calib_s.pitch, twin_cfg)
    config = retrieval.RetrievalConfig(dz, k, args.bin, sys_cfg)
    grid = calib_s.width, calib_s.height
    fields = retrieval.retrieve_frames(load, n_frames, calib_s, calib_i, config)
    del calib_s, calib_i  # so the generator can free the signal mean
    for name, field in fields:
        qpf.write_fields(out, [(name, field)])
        if name == "phase_average":
            steps = metrics.step_heights(field, args.bin, grid)
        del field  # not held through the next solve
    rows = [("pi", steps["pi"]), ("null", steps["null"])]
    write_csv(out, "steps", ["region", "step_rad"], rows)
    rows = [(frame, k, "classical" if k == 0.0 else "quantum") for frame in range(n_frames)]
    write_csv(out, "frames", ["frame", "k_value", "provenance"], rows)
    return conf, manifest.get("master_seed"), (
        f"retrieved {n_frames} frames at dz={dz} bin={args.bin} "
        f"(pi step {steps['pi']:.4f}, null step {steps['null']:.4f})"
    )


def _scan_nrf(args, sys_cfg, twin_cfg):
    """Every frame is held to the last binning as ``twinbeam.frame_counts``'
    exact integer counts, each arm narrowed, made on the thread that drew
    it: a fraction of the float64 frame's bytes, and they give
    ``measure_nrf`` the float64 bits."""
    blank = blank_object(TARGET_GRID, TARGET_GRID, sys_cfg.object_pixel)
    base = RngStream(args.seed)
    counts = runtime.ordered_map(
        lambda i: twinbeam.frame_counts(
            twinbeam.sample_twin_frame(blank, sys_cfg, twin_cfg, 0.0, base.child(i))
        ),
        range(args.frames),
    )
    rows = []
    for bin_px in (1, 3, 6, 12, 25):
        point = twinbeam.measure_nrf(counts, bin_px, blank.tau.pitch, twin_cfg.l_cff)
        model = twinbeam.nrf_predicted(twin_cfg.eta0, point.d_factor, twin_cfg.epsilon)
        rows.append((point.d_factor, point.nrf, point.nrf_stderr, point.fano, model))
    return ["D", "nrf", "nrf_stderr", "fano_signal", "nrf_model"], rows


def _scan_advantage(args, sys_cfg, twin_cfg):
    rows = metrics.advantage_scan(
        args.dz, args.frames, sys_cfg, twin_cfg, RngStream(args.seed)
    )
    return ["dz", "D", "k_mode", "C_quant", "C_clas", "ratio", "stderr"], [
        (r["dz"], r["d_factor"], r["k_mode"], r["c_quant"], r["c_clas"],
         r["c_quant"] / r["c_clas"], r["ratio_stderr"])
        for r in rows
    ]


def _scan_resolution(args, sys_cfg, twin_cfg):
    rows = metrics.resolution_scan(args.dz, (1, 3, 6, 12), sys_cfg, twin_cfg)
    return ["dz", "D", "r_phase_um", "se_r_um"], [
        (r["dz"], r["d_factor"], r["r_phase_um"], r["se_r_um"]) for r in rows
    ]


def _scan_noise(args, sys_cfg, twin_cfg):
    l_values = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)
    rows = metrics.noise_suppression_scan(
        l_values, TARGET_GRID, TARGET_GRID, sys_cfg, twin_cfg, RngStream(args.seed)
    )
    return ["l_cff_um", "suppression_pct"], [(r["l_cff_um"], r["suppression_pct"]) for r in rows]


def cmd_scan(args, out):
    sys_cfg, twin_cfg, run = _load_configs(args)
    if run:
        raise ConfigError(
            f"scan does not read `{'`, `'.join(sorted(run))}`: "
            f"every scan runs on a {TARGET_GRID}x{TARGET_GRID} grid"
        )
    header, rows = args.runner(args, sys_cfg, twin_cfg)
    write_csv(out, args.scan_type, header, rows)
    snap = {**asdict(sys_cfg), **asdict(twin_cfg), "scan": args.scan_type}
    csv_path = os.path.join(args.out, args.scan_type + ".csv")
    return snap, getattr(args, "seed", None), f"wrote {csv_path} ({len(rows)} rows)"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _at_least(minimum):
    """argparse type of an integer no less than `minimum`."""

    def integer(text):
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < minimum:
            bound = "non-negative" if minimum == 0 else f"at least {minimum}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return integer


def _parse_dz_list(text):
    """argparse type of --dz: positive finite values, distinct in frame names."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}")
    if not values or not all(0 < v < float("inf") for v in values):
        raise argparse.ArgumentTypeError("values must be positive and finite")
    if len({fmt(v) for v in values}) < len(values):
        raise argparse.ArgumentTypeError(f"values repeat to 9 digits: {text!r}")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twinphase",
        description="Twin-beam quantitative phase imaging simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # one-flag parent parsers for the flags that several commands share
    config, seed, out, dz = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    config.add_argument("--config", default=None, help="flat key=value config file")
    seed.add_argument(
        "--seed", type=_at_least(0), default=0, help="master seed (non-negative integer)"
    )
    out.add_argument("--out", default="out", help="output directory")
    dz.add_argument("--dz", type=_parse_dz_list, default="0.0125,0.025,0.05,0.1")

    p = sub.add_parser("target", parents=[config, out], help="render the test object")
    p.add_argument("--pure-phase", action="store_true", help="force tau = 1")
    p.set_defaults(func=cmd_target)

    p = sub.add_parser("simulate", parents=[config, seed, out], help="draw frame sets")
    p.add_argument("--frames", type=_at_least(0), default=10)
    p.add_argument("--dz", type=_parse_dz_list, default="0.025", help="dz list, mm")
    p.set_defaults(func=cmd_simulate)

    # the configuration and the seed come from the frame set's manifest
    p = sub.add_parser("retrieve", parents=[out], help="reconstruct phase and tau")
    p.add_argument("--frames", required=True, help="simulate output dir")
    p.add_argument("--dz", type=float, default=None, help="defocus to retrieve, mm")
    p.add_argument("--bin", type=int, default=1, help="binning in pixels")
    p.add_argument(
        "--k-mode", default="classical", help="classical | tau | tie | finite number"
    )
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("scan", help="characterization scans")
    p.set_defaults(func=cmd_scan)
    scan = p.add_subparsers(dest="scan_type", required=True)
    p = scan.add_parser("nrf", parents=[config, seed, out])
    p.add_argument("--frames", type=_at_least(2), default=100)
    p.set_defaults(runner=_scan_nrf)
    p = scan.add_parser("advantage", parents=[config, seed, out, dz])
    p.add_argument("--frames", type=_at_least(1), default=100)
    p.set_defaults(runner=_scan_advantage)
    p = scan.add_parser("resolution", parents=[config, out, dz])
    p.set_defaults(runner=_scan_resolution)
    p = scan.add_parser("noise", parents=[config, seed, out])
    p.set_defaults(runner=_scan_noise)
    return parser


def _run_staged(args):
    """Run the command in a new directory on the filesystem of ``--out``: in
    it, or beside it if it is missing.  If the command succeeds, manifest
    every file there and move each into ``--out``, the manifest last; an
    output name that is a directory in ``--out`` fails before any move."""
    where = args.out if os.path.isdir(args.out) else os.path.dirname(os.path.abspath(args.out))
    os.makedirs(where, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".twinphase-", dir=where)
    try:
        snap, seed, summary = args.func(args, stage)
        names = os.listdir(stage)
        write_manifest(stage, snap, seed, [os.path.join(stage, name) for name in names])
        os.makedirs(args.out, exist_ok=True)
        names.append("manifest.json")
        for target in (os.path.join(args.out, name) for name in names):
            if os.path.isdir(target) and not os.path.islink(target):  # os.replace fails on it
                raise IsADirectoryError(f"{target} is a directory, not an output file")
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(args.out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(summary)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with runtime.command():
            return _run_staged(args)
    except (ConfigError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # includes QpfFormatError: a malformed field file is an I/O error
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, NoPhotonError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
