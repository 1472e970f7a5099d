"""QPF1 field container: a tiny binary format for gridded maps, and the
on-disk frame set and manifest built of it.

Layout (all little-endian): 4-byte magic ``QPF1``, uint32 width,
uint32 height, float64 pitch in micrometers, then width*height float64
values in row-major order.  Photon-count images use the same container
with integral values.  A frame set holds the two calibration means
(``CALIBRATION``), both arms of every exposure (``exposure_names``) and
``manifest.json`` with the configuration, seed and files' SHA-256.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import GridError, OpticalSystem, ScalarField2D, TwinBeamConfig

MAGIC = b"QPF1"
_HEADER = struct.Struct("<4sIId")
# the field names of the signal and idler calibration means of a frame set
CALIBRATION = ("calib_mean_signal", "calib_mean_idler")


class QpfFormatError(IOError):
    """The file is not a well-formed QPF1 container."""


def write_qpf(path, f: ScalarField2D) -> None:
    """Write ``f`` to ``path``: the header, then the values straight from
    the array, with no byte copy of them on a little-endian host."""
    header = _HEADER.pack(MAGIC, f.width, f.height, f.pitch)
    body = np.ascontiguousarray(f.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_qpf(path) -> ScalarField2D:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise QpfFormatError(f"{path}: truncated header")
    magic, width, height, pitch = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise QpfFormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 8 * width * height
    if len(raw) != expected:
        raise QpfFormatError(
            f"{path}: size {len(raw)} != expected {expected} for {width}x{height}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    try:
        return ScalarField2D(pitch, values.reshape(height, width), True)  # adopts the bytes read
    except ValueError as exc:
        # non-finite values, or a grid no field may have
        raise QpfFormatError(f"{path}: {exc}")


def write_fields(out_dir, named_fields):
    """Write each ``(name, field)`` to ``out_dir/name.qpf``."""
    for name, field in named_fields:
        write_qpf(os.path.join(out_dir, name + ".qpf"), field)


def exposure_names(dz, frame, tag):
    """Field names of the signal and idler arms of exposure ``tag`` ("m",
    "0" or "p", as in ``twinbeam.exposures``) of ``frame`` at defocus ``dz``."""
    stem = f"dz{dz:.9g}_f{frame:04d}_{tag}_"
    return stem + "s", stem + "i"


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
        "files": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
    }
    if seed is not None:
        manifest["master_seed"] = seed
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(frames_dir):
    """The manifest of a frame set; OSError when it is missing, corrupt,
    lacks a configuration key or holds a value of the wrong JSON type.

    The configuration values must be numbers (``beam_profile`` may also
    be "uniform"), ``frames`` a non-negative integer and ``dz_list`` a
    list of numbers, and ``master_seed`` a non-negative integer; the
    last three may be absent.
    """
    path = os.path.join(frames_dir, "manifest.json")
    keys = {f.name for cls in (OpticalSystem, TwinBeamConfig) for f in fields(cls)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        conf = manifest["config"]
        missing = keys - conf.keys()
    except OSError as exc:
        raise OSError(f"missing manifest in {frames_dir}: {exc}")
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise OSError(f"corrupt manifest {path}: {exc!r}")
    if missing:
        raise OSError(f"manifest {path} lacks keys: {', '.join(sorted(missing))}")
    number = (int, float)  # the types json gives a number; a bool is neither
    bad = [
        key
        for key in sorted(keys)
        if type(conf[key]) not in number and (key, conf[key]) != ("beam_profile", "uniform")
    ]
    counts = {"frames": conf.get("frames", 0), "master_seed": manifest.get("master_seed", 0)}
    bad += [key for key, value in counts.items() if not (type(value) is int and value >= 0)]
    dz_list = conf.get("dz_list", [])
    if not (type(dz_list) is list and all(type(dz) in number for dz in dz_list)):
        bad.append("dz_list")
    if bad:
        raise OSError(f"manifest {path} has values of the wrong type: {', '.join(bad)}")
    return manifest


def read_frame_set(frames_dir, dz):
    """The (signal, idler) calibration means of the frame set in
    ``frames_dir``, and ``load(frame, tag)``, which reads one of its
    exposures at ``dz`` as a ``TwinBeamFrame``.  A file off the signal
    mean's grid, or a frame's counts that are not non-negative integers,
    raise QpfFormatError naming the file.  ``load`` checks the grid against
    the idler mean, so it holds no reference to the signal mean."""
    from .twinbeam import TwinBeamFrame  # keeps scipy out of ``import twinphase``
    signal_path, idler_path = (os.path.join(frames_dir, name + ".qpf") for name in CALIBRATION)

    def read_on_grid(path, grid):
        field = read_qpf(path)
        try:
            field.require_same_grid(grid)
        except GridError as exc:
            raise QpfFormatError(f"{path}, {signal_path}: {exc}")
        return field

    signal = read_qpf(signal_path)
    idler = read_on_grid(idler_path, signal)

    def load(frame, tag):
        names = exposure_names(dz, frame, tag)
        paths = [os.path.join(frames_dir, name + ".qpf") for name in names]
        try:
            return TwinBeamFrame(*(read_on_grid(path, idler) for path in paths))
        except ValueError as exc:  # counts that are not non-negative integers
            raise QpfFormatError(f"{', '.join(paths)}: {exc}")

    return (signal, idler), load
