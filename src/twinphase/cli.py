"""Batch front-end: config parsing, subcommands, reproducible manifests.

Subcommands, each registering only the flags it reads:

* ``target``    render the engineered test object to QPF1 files
* ``simulate``  Monte-Carlo twin-beam frame sets (three exposures per frame)
* ``retrieve``  phase + transmittance reconstruction from a frame set
* ``scan``      ``nrf``, ``advantage``, ``resolution`` or ``noise`` CSV curve

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.  Identical config + seed produce byte-identical outputs, for
any thread count of ``twinbeam.ordered_map``.

``simulate`` and ``scan nrf`` draw their frames, ``scan advantage``
draws and scores its frame triples, ``scan noise`` evaluates its Poisson
trials and ``scan resolution`` its dz points on the threads of
``twinbeam.ordered_map``: one per CPU this process may use, capped by
the QPI_THREADS environment variable.  Object-free frames and the
calibration means are those of ``core.blank_object``.  A matrix product
may differ in its last bits with the BLAS pool size, so ``main`` runs
every command with numpy's and scipy's OpenBLAS pools at one thread,
and gives each pool back its size after.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, metrics, qpf, retrieval, twinbeam
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# The configuration keys are the fields of the two config classes.
_OPTICAL_KEYS = [f.name for f in fields(OpticalSystem)]
_TWIN_KEYS = [f.name for f in fields(TwinBeamConfig)]
_RUN_KEYS = {"grid_size": int}


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


def _config_snapshot(sys_cfg, twin_cfg, extra):
    return {**asdict(sys_cfg), **asdict(twin_cfg), **extra}


def _load_configs(args):
    return parse_config_file(args.config) if args.config else (*_configs({}), {})


def frame_path(frames_dir, dz, frame, tag, arm):
    """Path of one arm ("s" or "i") of one exposure ("m", "0" or "p")."""
    return os.path.join(frames_dir, f"dz{fmt(dz)}_f{frame:04d}_{tag}_{arm}.qpf")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_target(args):
    sys_cfg, twin_cfg, run = _load_configs(args)
    size = run.get("grid_size", TARGET_GRID)
    pitch = sys_cfg.object_pixel
    obj = generate_test_target(size, size, pitch)
    if args.pure_phase:
        obj = ObjectSpec(tau=blank_object(size, size, pitch).tau, phi=obj.phi)
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
    size = run.get("grid_size", TARGET_GRID)
    pitch = sys_cfg.object_pixel
    obj = generate_test_target(size, size, pitch)
    calib = twinbeam.expected_counts(blank_object(size, size, pitch), sys_cfg, twin_cfg, 0.0)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for name, field in zip(("calib_mean_signal", "calib_mean_idler"), calib):
        path = os.path.join(args.out, name + ".qpf")
        qpf.write_qpf(path, field)
        outputs.append(path)
    del calib, field  # no draw reads the means

    # Each exposure is drawn and written on one thread, and dropped after.
    base = RngStream(args.seed)

    def draw_and_write(indexed):
        index, (dz, frame, tag, signed) = indexed
        tf = twinbeam.sample_twin_frame(obj, sys_cfg, twin_cfg, signed, base.child(index))
        paths = []
        for arm, field in (("s", tf.n_s), ("i", tf.n_i)):
            paths.append(frame_path(args.out, dz, frame, tag, arm))
            qpf.write_qpf(paths[-1], field)
        return paths

    exposures = twinbeam.exposures(args.dz, args.frames)
    for paths in twinbeam.ordered_map(draw_and_write, enumerate(exposures)):
        outputs += paths
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
    sys_cfg, twin_cfg = _configs(conf)
    dz_list = conf.get("dz_list", [])
    n_frames = conf.get("frames", 0)
    if not dz_list or not n_frames:
        raise ConfigError("frame set contains no frames to retrieve")
    dz = dz_list[0] if args.dz is None else args.dz
    if dz not in dz_list:
        raise ConfigError(f"dz = {dz} not present in frame set {dz_list}")

    calib_s = qpf.read_qpf(os.path.join(args.frames, "calib_mean_signal.qpf"))
    calib_i = qpf.read_qpf(os.path.join(args.frames, "calib_mean_idler.qpf"))
    # quantum_correct holds every frame to the calibration grid, so one
    # weight serves all frames
    k = retrieval.resolve_k(args.k_mode, args.bin, calib_s.pitch, twin_cfg)
    config = retrieval.RetrievalConfig(
        dz=dz,
        k=k,
        bin_px=args.bin,
        reference_mean=calib_s,
        reference_mean_idler=calib_i,
        sys=sys_cfg,
    )
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

    tags = [tag for _, _, tag, _ in twinbeam.exposures([dz], 1)]  # -dz, 0, +dz
    sums = []  # each exposure's signal counts, summed over the frames

    def streamed(frame):
        """The frame's exposures, loaded one at a time.  Each is added
        into its sum, and frame 0's in-focus one gives the transmittance,
        before it is yielded; it is dropped before the next is loaded."""
        for index, tag in enumerate(tags):
            tf = load(frame, tag)
            if frame == 0:
                sums.append(tf.n_s.values.copy())
            else:
                sums[index] += tf.n_s.values
            if (frame, tag) == (0, "0"):
                tau = retrieval.estimate_transmittance(tf.n_s, tf.n_i, config)
                tau_path = os.path.join(args.out, "transmittance_f0000.qpf")
                qpf.write_qpf(tau_path, tau)
                del tau
                outputs.append(tau_path)
            yield tf
            del tf

    phase_rows = []
    for frame in range(n_frames):
        phase = retrieval.phase_from_twin_frames(streamed(frame), config)
        out_path = os.path.join(args.out, f"phase_f{frame:04d}.qpf")
        qpf.write_qpf(out_path, phase.values)
        del phase
        outputs.append(out_path)
        phase_rows.append((frame, k, provenance))

    # all-frame averaged classical reference reconstruction
    means = [calib_s.with_values(total / n_frames) for total in sums]
    del sums
    avg_phase = retrieval.tie_retrieve(*means, config)
    del means
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
    """Every frame is held to the last binning as the exact integer counts
    of ``twinbeam.frame_counts``, made on the thread that drew it, which
    give ``measure_nrf`` the float64 bits (0.19 MB, not 0.77, per 220² frame)."""
    blank = blank_object(TARGET_GRID, TARGET_GRID, sys_cfg.object_pixel)
    base = RngStream(args.seed)
    counts = twinbeam.ordered_map(
        lambda i: twinbeam.frame_counts(
            twinbeam.sample_twin_frame(blank, sys_cfg, twin_cfg, 0.0, base.child(i))
        ),
        range(args.frames),
    )
    rows = []
    for bin_px in (1, 3, 6, 12, 25):
        point = twinbeam.measure_nrf(counts, bin_px, blank.tau.pitch, twin_cfg.l_cff)
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
    return ["l_cff_um", "suppression_pct"], [
        (r["l_cff_um"], r["suppression_pct"]) for r in rows
    ]


def cmd_scan(args):
    sys_cfg, twin_cfg, run = _load_configs(args)
    if run:
        raise ConfigError(
            f"scan does not read `{'`, `'.join(sorted(run))}`: "
            f"every scan runs on a {TARGET_GRID}x{TARGET_GRID} grid"
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


def _openblas_pools():
    """(getter, setter) of the thread pool of each OpenBLAS that numpy and
    scipy bundle and have loaded; none for a missing library or symbol."""
    pools = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                names = (f"scipy_openblas_{op}_num_threads{suffix}" for op in ("get", "set"))
                get, set_threads = (getattr(lib, name) for name in names)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            pools.append((get, set_threads))
    return pools


@contextlib.contextmanager
def _blas_threads(n):
    """Run the block with each pool of ``_openblas_pools`` at ``n`` threads, then restore it."""
    pools = [(set_threads, get()) for get, set_threads in _openblas_pools()]
    for set_threads, _ in pools:
        set_threads(n)
    try:
        yield
    finally:
        for set_threads, size in pools:
            set_threads(size)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _blas_threads(1):
            return args.func(args)
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
