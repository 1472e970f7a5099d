"""Batch front-end: config parsing, subcommands, reproducible manifests.

Subcommands, each registering only the flags it reads:

* ``target``    render the engineered test object to QPF1 files
* ``simulate``  Monte-Carlo twin-beam frame sets (three exposures per frame)
* ``retrieve``  phase + transmittance reconstruction from a frame set
* ``scan``      ``nrf``, ``advantage``, ``resolution`` or ``noise`` CSV curve

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.  Identical config + seed produce byte-identical outputs, for
any thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import closing
from dataclasses import replace

# QPI_THREADS caps BLAS/FFT worker pools, which must be set before numpy
# loads, and the threads of twinbeam.ordered_map, which read it when they
# start: those draw the frames of twinbeam.sample_frames and evaluate the
# Poisson trials of `scan noise`.  Frames are independent by stream index
# and the trials are drawn in order, so the output does not depend on the
# number of threads.  Each thread holds one frame's working set, or about
# 5 MB for a noise trial at 220^2.
if os.environ.get("QPI_THREADS"):
    _t = os.environ["QPI_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _t)

import numpy as np

from . import __version__, metrics, qpf, retrieval, twinbeam
from .core import (
    ConfigError,
    GridError,
    ObjectSpec,
    OpticalSystem,
    RngStream,
    ScalarField2D,
    TwinBeamConfig,
    generate_edge_target,
    generate_test_target,
    validate_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_OPTICAL_KEYS = {
    "wavelength": float,
    "magnification": float,
    "camera_pixel": float,
    "blur_fwhm": float,
}
_TWIN_KEYS = {
    "l_cff": float,
    "eta0": float,
    "epsilon": float,
    "mean_photons_per_pixel": float,
    "beam_profile": str,
}
_RUN_KEYS = {"grid_size": int}
# Grid side of `target` and `simulate` when the config sets no grid_size,
# and of every scan.
GRID_SIZE = 220


class NumericalError(RuntimeError):
    """A fit or solver failed to produce a usable result."""


def parse_config_file(path):
    """Parse the flat `key = value` config format (UTF-8, # comments).

    Returns (OpticalSystem, TwinBeamConfig, dict of run keys); unknown
    keys raise ConfigError.
    """
    optical, twin, run = {}, {}, {}
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
        try:
            if key in _OPTICAL_KEYS:
                optical[key] = _OPTICAL_KEYS[key](value)
            elif key in _TWIN_KEYS:
                twin[key] = _TWIN_KEYS[key](value)
            elif key in _RUN_KEYS:
                run[key] = _RUN_KEYS[key](value)
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key `{key}`")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for `{key}`: {exc}")
    if "beam_profile" in twin:
        bp = twin["beam_profile"]
        if bp != "uniform":
            try:
                twin["beam_profile"] = float(bp)
            except ValueError:
                raise ConfigError(
                    f"beam_profile must be `uniform` or a radius, got `{bp}`"
                )
    try:
        sys_cfg = OpticalSystem(**optical)
        twin_cfg = TwinBeamConfig(**twin)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    validate_config(sys_cfg, twin_cfg)
    return sys_cfg, twin_cfg, run


def fmt(value) -> str:
    """Fixed numeric formatting for CSV cells: 9 significant digits."""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def write_csv(path, header, rows):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, config_snapshot, seed, outputs):
    """Emit manifest.json: every data file's checksum, and the seed unless None."""
    manifest = {
        "tool_version": __version__,
        "config": config_snapshot,
        "files": {
            os.path.basename(p): _sha256(p) for p in sorted(outputs)
        },
    }
    if seed is not None:
        manifest["master_seed"] = seed
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _config_snapshot(sys_cfg, twin_cfg, extra=None):
    snap = {key: getattr(sys_cfg, key) for key in _OPTICAL_KEYS}
    snap.update({key: getattr(twin_cfg, key) for key in _TWIN_KEYS})
    if extra:
        snap.update(extra)
    return snap


def _load_configs(args):
    if args.config:
        sys_cfg, twin_cfg, run = parse_config_file(args.config)
    else:
        sys_cfg, twin_cfg, run = OpticalSystem(), TwinBeamConfig(), {}
        validate_config(sys_cfg, twin_cfg)
    return sys_cfg, twin_cfg, run


def frame_path(frames_dir, dz, frame, tag, arm):
    """Path of one arm ("s" or "i") of one exposure ("m", "0" or "p")."""
    return os.path.join(frames_dir, f"dz{fmt(dz)}_f{frame:04d}_{tag}_{arm}.qpf")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_target(args):
    sys_cfg, twin_cfg, run = _load_configs(args)
    size = run.get("grid_size", GRID_SIZE) if args.size is None else args.size
    pitch = sys_cfg.object_pixel
    obj = generate_test_target(size, size, pitch)
    if args.pure_phase:
        obj = ObjectSpec(
            tau=obj.tau.with_values(np.ones_like(obj.tau.values)), phi=obj.phi
        )
    os.makedirs(args.out, exist_ok=True)
    tau_path = os.path.join(args.out, "target_tau.qpf")
    phi_path = os.path.join(args.out, "target_phi.qpf")
    qpf.write_qpf(tau_path, obj.tau)
    qpf.write_qpf(phi_path, obj.phi)
    snap = _config_snapshot(sys_cfg, twin_cfg, {"grid_size": size})
    write_manifest(args.out, snap, None, [tau_path, phi_path])
    print(f"wrote target ({size}x{size}) to {args.out}")
    return EXIT_OK


def cmd_simulate(args):
    sys_cfg, twin_cfg, run = _load_configs(args)
    size = run.get("grid_size", GRID_SIZE)
    pitch = sys_cfg.object_pixel
    obj = generate_test_target(size, size, pitch)
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    calib_s, calib_i = twinbeam.expected_counts(
        None, sys_cfg, twin_cfg, 0.0, grid=obj.tau
    )
    for name, field in (("calib_mean_signal", calib_s), ("calib_mean_idler", calib_i)):
        path = os.path.join(args.out, name + ".qpf")
        qpf.write_qpf(path, field)
        outputs.append(path)

    with closing(
        twinbeam.sample_triples(
            obj, sys_cfg, twin_cfg, args.dz, args.frames, RngStream(args.seed)
        )
    ) as triples:
        for dz in args.dz:
            for frame in range(args.frames):
                for tag, tf in zip(("m", "0", "p"), next(triples)):
                    for arm, field in (("s", tf.n_s), ("i", tf.n_i)):
                        path = frame_path(args.out, dz, frame, tag, arm)
                        qpf.write_qpf(path, field)
                        outputs.append(path)
    snap = _config_snapshot(
        sys_cfg,
        twin_cfg,
        {"grid_size": size, "dz_list": args.dz, "frames": args.frames},
    )
    write_manifest(args.out, snap, args.seed, outputs)
    print(f"wrote {len(outputs)} files ({args.frames} frames x {len(args.dz)} dz)")
    return EXIT_OK


def _read_manifest(frames_dir):
    """The manifest of a frame set; OSError when it is missing, corrupt,
    lacks a configuration key or holds a value of the wrong JSON type.

    The configuration values must be numbers (``beam_profile`` may also
    be "uniform"), ``frames`` a non-negative integer and ``dz_list`` a
    list of numbers; both of the last two may be absent.
    """
    path = os.path.join(frames_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        conf = manifest["config"]
        missing = {*_OPTICAL_KEYS, *_TWIN_KEYS} - conf.keys()
    except OSError as exc:
        raise OSError(f"missing manifest in {frames_dir}: {exc}")
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise OSError(f"corrupt manifest {path}: {exc!r}")
    if missing:
        raise OSError(f"manifest {path} lacks keys: {', '.join(sorted(missing))}")
    number = (int, float)  # the types json gives a number; a bool is neither
    bad = [
        key
        for key in sorted({*_OPTICAL_KEYS, *_TWIN_KEYS})
        if type(conf[key]) not in number
        and (key, conf[key]) != ("beam_profile", "uniform")
    ]
    frames = conf.get("frames", 0)
    if not (type(frames) is int and frames >= 0):
        bad.append("frames")
    dz_list = conf.get("dz_list", [])
    if not (type(dz_list) is list and all(type(dz) in number for dz in dz_list)):
        bad.append("dz_list")
    if bad:
        raise OSError(f"manifest {path} has values of the wrong type: {', '.join(bad)}")
    return manifest


def cmd_retrieve(args):
    manifest = _read_manifest(args.frames)
    conf = manifest["config"]
    sys_cfg = OpticalSystem(**{key: conf[key] for key in _OPTICAL_KEYS})
    twin_cfg = TwinBeamConfig(**{key: conf[key] for key in _TWIN_KEYS})
    validate_config(sys_cfg, twin_cfg)
    dz_list = conf.get("dz_list", [])
    n_frames = conf.get("frames", 0)
    if not dz_list or not n_frames:
        raise ConfigError("frame set contains no frames to retrieve")
    dz = dz_list[0] if args.dz is None else args.dz
    if dz not in dz_list:
        raise ConfigError(f"dz = {dz} not present in frame set {dz_list}")

    calib_s = qpf.read_qpf(os.path.join(args.frames, "calib_mean_signal.qpf"))
    calib_i = qpf.read_qpf(os.path.join(args.frames, "calib_mean_idler.qpf"))
    config = retrieval.RetrievalConfig(
        dz=dz,
        k_mode=args.k_mode,
        bin_px=args.bin,
        reference_mean=calib_s,
        reference_mean_idler=calib_i,
        sys=sys_cfg,
        twin=twin_cfg,
    )
    # quantum_correct holds every frame to the calibration grid, so one
    # weight serves all frames
    k = retrieval.resolve_k(config, calib_s.pitch)
    provenance = "classical" if k == 0.0 else "quantum"
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    def load(frame, tag):
        paths = [frame_path(args.frames, dz, frame, tag, arm) for arm in ("s", "i")]
        n_s, n_i = (qpf.read_qpf(path) for path in paths)
        try:
            return twinbeam.TwinBeamFrame(n_s, n_i)
        except ValueError as exc:
            # counts that are not non-negative integers, or arms on
            # different grids: the frame files are corrupt
            raise OSError(f"{', '.join(paths)}: {exc}")

    phase_rows = []
    for frame in range(n_frames):
        tf = {tag: load(frame, tag) for tag in ("m", "0", "p")}
        phase = retrieval.phase_from_twin_frames(tf["m"], tf["0"], tf["p"], config)
        out_path = os.path.join(args.out, f"phase_f{frame:04d}.qpf")
        qpf.write_qpf(out_path, phase.values)
        outputs.append(out_path)
        phase_rows.append((frame, k, provenance))
        if frame == 0:
            sum_m = tf["m"].n_s.values.copy()
            sum_0 = tf["0"].n_s.values.copy()
            sum_p = tf["p"].n_s.values.copy()
            tau = retrieval.estimate_transmittance(tf["0"].n_s, tf["0"].n_i, config)
            tau_path = os.path.join(args.out, "transmittance_f0000.qpf")
            qpf.write_qpf(tau_path, tau)
            outputs.append(tau_path)
        else:
            sum_m += tf["m"].n_s.values
            sum_0 += tf["0"].n_s.values
            sum_p += tf["p"].n_s.values

    # all-frame averaged classical reference reconstruction
    grid = calib_s
    avg_cfg = replace(config, k_mode="classical")
    avg_phase = retrieval.phase_from_counts(
        grid.with_values(sum_m / n_frames),
        grid.with_values(sum_0 / n_frames),
        grid.with_values(sum_p / n_frames),
        avg_cfg,
    )
    avg_path = os.path.join(args.out, "phase_average.qpf")
    qpf.write_qpf(avg_path, avg_phase.values)
    outputs.append(avg_path)

    steps = metrics.step_heights(
        avg_phase.values,
        bin_px=args.bin,
        fine_shape=(calib_s.width, calib_s.height),
    )
    step_path = os.path.join(args.out, "steps.csv")
    write_csv(
        step_path,
        ["region", "step_rad"],
        [("pi", steps["pi"]), ("null", steps["null"])],
    )
    outputs.append(step_path)
    k_path = os.path.join(args.out, "frames.csv")
    write_csv(k_path, ["frame", "k_value", "provenance"], phase_rows)
    outputs.append(k_path)
    write_manifest(args.out, conf, manifest.get("master_seed"), outputs)
    print(
        f"retrieved {n_frames} frames at dz={dz} bin={args.bin} "
        f"(pi step {steps['pi']:.4f}, null step {steps['null']:.4f})"
    )
    return EXIT_OK


def _scan_nrf(args, sys_cfg, twin_cfg):
    grid = ScalarField2D(
        GRID_SIZE, GRID_SIZE, sys_cfg.object_pixel, np.zeros((GRID_SIZE, GRID_SIZE))
    )
    frames = list(
        twinbeam.sample_frames(
            None, sys_cfg, twin_cfg, [0.0] * args.frames, RngStream(args.seed), grid=grid
        )
    )
    rows = []
    for bin_px in (1, 3, 6, 12, 25):
        point = twinbeam.measure_nrf(frames, bin_px, l_cff=twin_cfg.l_cff)
        rows.append(
            (
                point.d_factor,
                point.nrf,
                point.nrf_stderr,
                point.fano,
                twinbeam.nrf_predicted(twin_cfg.eta0, point.d_factor, twin_cfg.epsilon),
            )
        )
    return ["D", "nrf", "nrf_stderr", "fano_signal", "nrf_model"], rows


def _scan_advantage(args, sys_cfg, twin_cfg):
    obj = generate_test_target(GRID_SIZE, GRID_SIZE, sys_cfg.object_pixel)
    mean_s, mean_i = twinbeam.expected_counts(None, sys_cfg, twin_cfg, 0.0, grid=obj.tau)
    rows = []
    with closing(
        twinbeam.sample_triples(
            obj, sys_cfg, twin_cfg, args.dz, args.frames, RngStream(args.seed)
        )
    ) as stream:
        for dz in args.dz:
            triples = [next(stream) for _ in range(args.frames)]
            for bin_px in (1, 3):
                config = retrieval.RetrievalConfig(
                    dz=dz,
                    bin_px=bin_px,
                    reference_mean=mean_s,
                    reference_mean_idler=mean_i,
                    sys=sys_cfg,
                    twin=twin_cfg,
                )
                phi_ref = metrics.reference_phase(obj, config)
                for mode in ("tie", "tau"):
                    adv = metrics.quantum_advantage(
                        triples, replace(config, k_mode=mode), phi_ref
                    )
                    rows.append(
                        (
                            dz,
                            adv.d_factor,
                            mode,
                            adv.c_quant,
                            adv.c_clas,
                            adv.ratio,
                            adv.ratio_stderr,
                        )
                    )
    return ["dz", "D", "k_mode", "C_quant", "C_clas", "ratio", "stderr"], rows


def _scan_resolution(args, sys_cfg, twin_cfg):
    pitch = sys_cfg.object_pixel
    target = generate_edge_target(GRID_SIZE, GRID_SIZE, pitch)
    rows_raw = metrics.resolution_scan(
        target,
        args.dz,
        (1, 3, 6, 12),
        sys_cfg,
        twin_cfg,
        edge_row_um=110 * pitch,
        edge_window_um=(40 * pitch, 128 * pitch),
    )
    failed = [r for r in rows_raw if not r["ok"]]
    if failed:
        raise NumericalError(
            "edge-spread fit failed at "
            + "; ".join(
                f"dz={r['dz']:g} mm, bin {r['bin_px']}: {r['message']}" for r in failed
            )
        )
    rows = [
        (r["dz"], r["d_factor"], r["r_phase_um"], r["se_r_um"]) for r in rows_raw
    ]
    return ["dz", "D", "r_phase_um", "se_r_um"], rows


def _scan_noise(args, sys_cfg, twin_cfg):
    pitch = sys_cfg.object_pixel
    rng = RngStream(args.seed)
    l_values = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)
    rows = metrics.noise_suppression_scan(
        l_values,
        GRID_SIZE,
        GRID_SIZE,
        pitch,
        dz=0.025,
        i0=twin_cfg.mean_photons_per_pixel,
        wavenumber=sys_cfg.wavenumber,
        rng=rng,
    )
    return ["l_cff_um", "suppression_pct"], [
        (r["l_cff_um"], r["suppression_pct"]) for r in rows
    ]


def cmd_scan(args):
    sys_cfg, twin_cfg, run = _load_configs(args)
    if run:
        raise ConfigError(
            f"scan does not read `{'`, `'.join(sorted(run))}`: "
            f"every scan runs on a {GRID_SIZE}x{GRID_SIZE} grid"
        )
    header, rows = args.runner(args, sys_cfg, twin_cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{args.scan_type}.csv")
    write_csv(csv_path, header, rows)
    snap = _config_snapshot(sys_cfg, twin_cfg, {"scan": args.scan_type})
    write_manifest(args.out, snap, getattr(args, "seed", None), [csv_path])
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return EXIT_OK


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
    seed.add_argument("--seed", type=_at_least(0), default=0, help="master seed (u64)")
    out.add_argument("--out", default="out", help="output directory")
    dz.add_argument("--dz", type=_parse_dz_list, default="0.0125,0.025,0.05,0.1")

    p = sub.add_parser("target", parents=[config, out], help="render the test object")
    p.add_argument("--size", type=int, default=None, help="grid size in pixels")
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
        "--k-mode", default="classical", help="classical | tau | tie | numeric value"
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # includes QpfFormatError: a malformed field file is an I/O error
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
