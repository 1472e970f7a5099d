"""QPF1 field container: a tiny binary format for gridded maps.

Layout (all little-endian): 4-byte magic ``QPF1``, uint32 width,
uint32 height, float64 pitch in micrometers, then width*height float64
values in row-major order.  Photon-count images use the same container
with integral values.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import ScalarField2D

MAGIC = b"QPF1"
_HEADER = struct.Struct("<4sIId")


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
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(
        height, width
    )
    try:
        return ScalarField2D(width, height, pitch, values, True)  # adopts the bytes read
    except ValueError as exc:
        # non-finite values, or a grid no field may have
        raise QpfFormatError(f"{path}: {exc}")
