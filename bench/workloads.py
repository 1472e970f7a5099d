"""The benchmark's workloads and the checks on their outputs.

A workload is a list of ``twinphase`` command lines for one pass, built
from a per-pass seed, plus checks on what those commands wrote.  The
runner repeats passes, each with a fresh seed, so no pass repeats the
random inputs of another.  One workload object serves one run: its
``prepare`` writes the inputs before every pass, and the statistics
that its checks pool accumulate over the run.

Checks run outside the timed part.  Each returns ``{label: [problem]}``
for the commands whose output is wrong.  Statistical checks are made on
the average over every pass of the run, and a run does at least enough
passes for that average to hold as many frames or trials as the
acceptance criterion it mirrors: at single-pass sizes the estimates are
too noisy for the criterion's tolerance.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import struct
from collections import defaultdict
from pathlib import Path

import numpy as np

_QPF_HEADER = struct.Struct("<4sIId")
# The sine-basis solver leaves sin(m pi) ~ 1e-16 on the border, so the
# border is zero to rounding, relative to the map's largest value.
BORDER_ROUNDING = 1e-12


def read_qpf(path):
    """Values of a QPF1 file, read independently of ``twinphase.qpf``."""
    raw = Path(path).read_bytes()
    magic, width, height, _ = _QPF_HEADER.unpack_from(raw)
    if magic != b"QPF1" or len(raw) != _QPF_HEADER.size + 8 * width * height:
        raise ValueError(f"{path}: not a well-formed QPF1 file")
    return np.frombuffer(raw, dtype="<f8", offset=_QPF_HEADER.size).reshape(height, width)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def verify_manifest(out_dir):
    """Re-hash every file the manifest lists; return the mismatches."""
    out_dir = Path(out_dir)
    try:
        files = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out_dir.name}: unreadable manifest ({exc})"]
    if not files:
        return [f"{out_dir.name}: manifest lists no files"]
    problems = []
    for name, expected in files.items():
        try:
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if actual != expected:
            problems.append(f"{name}: sha256 {actual} != manifest {expected}")
    return problems


def _write_config(path, entries):
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")


class Pipeline:
    """``simulate`` one triple at dz = 0.0125 mm, then ``retrieve`` tie/bin 1
    and tau/bin 3."""

    name = "pipeline_513"
    sampling_label = "simulate"
    retrieve_labels = ("retrieve_tie", "retrieve_tau")
    frames_per_pass = 3
    min_passes = 1
    mean_photons = 600
    # The mean in-focus signal over the grid, relative to
    # mean_photons_per_pixel * mean(tau); Poisson noise alone is ~1e-4.
    mean_tolerance = 0.005

    def __init__(self, grid_size=513):
        self.grid_size = grid_size
        self.config = None
        self.mean_tau = None

    def prepare(self, work):
        self.config = work / "pipeline.cfg"
        _write_config(self.config, {"grid_size": self.grid_size,
                                    "mean_photons_per_pixel": self.mean_photons})

    def commands(self, seed, out):
        frames = out / "frames"
        return [
            ("simulate", ["simulate", "--config", str(self.config), "--dz", "0.0125",
                          "--frames", "1", "--seed", str(seed),
                          "--out", str(frames)]),
            ("retrieve_tie", ["retrieve", "--frames", str(frames), "--k-mode", "tie",
                              "--bin", "1", "--out", str(out / "tie")]),
            ("retrieve_tau", ["retrieve", "--frames", str(frames), "--k-mode", "tau",
                              "--bin", "3", "--out", str(out / "tau")]),
        ]

    def check_pass(self, out):
        problems = defaultdict(list)
        frames = out / "frames"
        problems["simulate"] += verify_manifest(frames)
        frame_files = sorted(frames.glob("dz*_f*_*_[si].qpf"))
        if len(frame_files) != 6:
            problems["simulate"].append(f"{len(frame_files)} frame files, expected 6")
        if self.mean_tau is None:
            core = importlib.import_module("twinphase.core")
            pitch = core.OpticalSystem().object_pixel
            target = core.generate_test_target(self.grid_size, self.grid_size, pitch)
            self.mean_tau = float(target.tau.values.mean())
        expected_mean = self.mean_photons * self.mean_tau
        for path in frame_files:
            counts = read_qpf(path)
            if np.any(counts < 0) or np.any(counts != np.round(counts)):
                problems["simulate"].append(f"{path.name}: counts are not non-negative integers")
            if path.name.endswith("_0_s.qpf"):
                rel = abs(float(counts.mean()) / expected_mean - 1.0)
                if not rel <= self.mean_tolerance:
                    problems["simulate"].append(
                        f"{path.name}: mean signal off by {rel:.4%} of the expected mean"
                    )
        for label, sub in (("retrieve_tie", "tie"), ("retrieve_tau", "tau")):
            problems[label] += verify_manifest(out / sub)
            phases = sorted((out / sub).glob("phase_*.qpf"))
            if len(phases) != 2:
                problems[label].append(f"{len(phases)} phase maps, expected 2")
            for path in phases:
                phi = read_qpf(path)
                border = np.concatenate([phi[0], phi[-1], phi[:, 0], phi[:, -1]])
                if not np.all(np.isfinite(phi)):
                    problems[label].append(f"{path.name}: non-finite phase")
                elif np.abs(border).max() > BORDER_ROUNDING * max(1.0, np.abs(phi).max()):
                    problems[label].append(f"{path.name}: phase not zero on the border")
        return {k: v for k, v in problems.items() if v}

    def check_run(self):
        return {}


class Calibration:
    """``scan nrf``: object-free frames at dz = 0 on 220^2, NRF at 5 binnings."""

    name = "calibration_220"
    sampling_label = "scan_nrf"
    retrieve_labels = ()
    # Criterion 01 compares the NRF of 100 frames with the model.
    pooled_frames = 100
    tolerance = 0.03
    eta0, epsilon, l_cff = 0.7, 0.2, 5.0

    def __init__(self, frames=20):
        self.frames_per_pass = frames
        self.min_passes = -(-self.pooled_frames // frames)
        self.config = None
        self.nrf = defaultdict(list)

    def prepare(self, work):
        self.config = work / "calibration.cfg"
        _write_config(self.config, {"eta0": self.eta0, "epsilon": self.epsilon, "l_cff": self.l_cff})

    def commands(self, seed, out):
        return [("scan_nrf", ["scan", "nrf", "--config", str(self.config),
                              "--frames", str(self.frames_per_pass), "--seed", str(seed),
                              "--out", str(out)])]

    def check_pass(self, out):
        problems = verify_manifest(out)
        if not problems:
            rows = read_csv(out / "nrf.csv")
            if len(rows) != 5:
                problems.append(f"nrf.csv has {len(rows)} rows, expected 5")
            for row in rows:
                self.nrf[float(row["D"])].append(float(row["nrf"]))
        return {"scan_nrf": problems} if problems else {}

    def check_run(self):
        passes = min((len(v) for v in self.nrf.values()), default=0)
        if passes * self.frames_per_pass < self.pooled_frames:
            return {"scan_nrf": [f"only {passes} passes to pool, need {self.pooled_frames} frames"]}
        nrf_predicted = importlib.import_module("twinphase.twinbeam").nrf_predicted
        problems = []
        for d, values in sorted(self.nrf.items()):
            model = nrf_predicted(self.eta0, d, self.epsilon)
            dev = abs(float(np.mean(values)) - model)
            if not dev <= self.tolerance:
                problems.append(f"NRF(D={d:g}) is {dev:.4f} from the model (limit {self.tolerance})")
        return {"scan_nrf": problems} if problems else {}


class Scans:
    """``scan resolution`` over the default dz list, then ``scan noise``."""

    name = "scans_220"
    sampling_label = None
    retrieve_labels = ()
    frames_per_pass = 0
    # ``scan noise`` averages 4 trials per l_cff; criterion 11 uses 6.  Ten
    # passes pool 40, which keeps its 2-point knee margin several
    # standard errors clear of the scan's trial-to-trial noise.
    min_passes = 10
    l_values = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

    def __init__(self, dz_list="0.0125,0.025,0.05,0.1"):
        self.dz_list = dz_list
        self.config = None
        self.suppression = defaultdict(list)

    def prepare(self, work):
        self.config = work / "scans.cfg"
        _write_config(self.config, {"l_cff": 5.0, "mean_photons_per_pixel": 600})

    def commands(self, seed, out):
        return [
            ("scan_resolution", ["scan", "resolution", "--config", str(self.config),
                                 "--dz", self.dz_list, "--out", str(out / "res")]),
            ("scan_noise", ["scan", "noise", "--config", str(self.config),
                            "--seed", str(seed), "--out", str(out / "noise")]),
        ]

    def check_pass(self, out):
        problems = defaultdict(list)
        problems["scan_resolution"] += verify_manifest(out / "res")
        if not problems["scan_resolution"]:
            problems["scan_resolution"] += resolution_problems(read_csv(out / "res" / "resolution.csv"))
        problems["scan_noise"] += verify_manifest(out / "noise")
        if not problems["scan_noise"]:
            for row in read_csv(out / "noise" / "noise.csv"):
                self.suppression[float(row["l_cff_um"])].append(float(row["suppression_pct"]))
        return {k: v for k, v in problems.items() if v}

    def check_run(self):
        if sorted(self.suppression) != sorted(self.l_values):
            return {"scan_noise": [f"noise.csv covers l_cff {sorted(self.suppression)}"]}
        supp = {l: float(np.mean(v)) for l, v in self.suppression.items()}
        vals = [supp[l] for l in self.l_values]
        problems = []
        if not all(supp[l] >= 90.0 for l in (1.0, 2.0, 5.0)):
            problems.append("suppression below 90% at l_cff <= 5 um")
        if not all(a >= b - 1.0 for a, b in zip(vals, vals[1:])):
            problems.append("suppression not monotone in l_cff")
        if not (supp[40.0] <= supp[20.0] - 2.0 and supp[80.0] <= supp[40.0] - 5.0):
            problems.append("no knee before 40 um")
        if problems:
            detail = ", ".join(f"{l:g}um: {supp[l]:.2f}%" for l in self.l_values)
            return {"scan_noise": [f"{p} ({detail})" for p in problems]}
        return {}


def resolution_problems(rows):
    """Criterion 09: r_phase non-decreasing in D, decreasing in dz, a
    3-5 um minimum at (D = 0.325, dz = 0.0125) and a 14.4-21.6 um
    asymptote at D = 3.9."""
    table = {(float(r["dz"]), round(float(r["D"]), 4)): float(r["r_phase_um"]) for r in rows}
    dz_vals = sorted({dz for dz, _ in table})
    d_vals = sorted({d for _, d in table})
    if len(table) != len(dz_vals) * len(d_vals):
        return ["resolution.csv is not a full (dz, D) grid"]
    problems = []
    if not all(table[(dz, a)] <= table[(dz, b)] + 1e-9
               for dz in dz_vals for a, b in zip(d_vals, d_vals[1:])):
        problems.append("r_phase not monotone in D")
    if not all(table[(a, d)] <= table[(b, d)] + 1e-9
               for d in d_vals for a, b in zip(dz_vals, dz_vals[1:])):
        problems.append("r_phase not monotone in dz")
    r_min = table.get((0.0125, 0.325))
    if r_min is None or not 3.0 <= r_min <= 5.0:
        problems.append(f"minimum r_phase {r_min} um outside 3-5 um")
    asym = [table[(dz, 3.9)] for dz in dz_vals if (dz, 3.9) in table]
    if not asym or not all(14.4 <= r <= 21.6 for r in asym):
        problems.append(f"large-D asymptote {asym} outside 14.4-21.6 um")
    return problems


WORKLOADS = {w.name: w for w in (Pipeline, Calibration, Scans)}
