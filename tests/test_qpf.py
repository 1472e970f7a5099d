"""Round-trip and error-handling tests of the QPF1 field container."""

import struct

import numpy as np
import pytest

from twinphase.core import ScalarField2D
from twinphase.qpf import MAGIC, QpfFormatError, read_qpf, write_qpf


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    f = ScalarField2D(1.625, rng.standard_normal((9, 12)))
    path = tmp_path / "field.qpf"
    write_qpf(path, f)
    g = read_qpf(path)
    assert g.width == 12 and g.height == 9
    assert g.pitch == 1.625
    assert np.array_equal(g.values, f.values)


def test_write_read_write_is_byte_stable(tmp_path):
    f = ScalarField2D(0.5, np.arange(64, dtype=float).reshape(8, 8))
    p1 = tmp_path / "a.qpf"
    p2 = tmp_path / "b.qpf"
    write_qpf(p1, f)
    write_qpf(p2, read_qpf(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    f = ScalarField2D(2.0, np.zeros((8, 8)))
    path = tmp_path / "f.qpf"
    write_qpf(path, f)
    raw = path.read_bytes()
    magic, width, height, pitch = struct.unpack_from("<4sIId", raw)
    assert magic == MAGIC
    assert (width, height, pitch) == (8, 8, 2.0)
    assert len(raw) == 20 + 8 * 64


def test_write_holds_no_copy_of_the_values(tmp_path, traced_peak):
    """The header and then the array go to the file: 0.0 field sizes
    allocated on a little-endian host, 2.0 when the body was copied to
    bytes and joined to the header."""
    values = np.random.default_rng(2).standard_normal((513, 513))
    f = ScalarField2D(1.625, values)
    path = tmp_path / "f.qpf"
    peak = traced_peak(lambda: write_qpf(path, f))
    assert peak / values.nbytes <= 0.1
    header = struct.pack("<4sIId", MAGIC, 513, 513, 1.625)
    assert path.read_bytes() == header + values.astype("<f8").tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.qpf"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(QpfFormatError, match="bad magic"):
        read_qpf(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.qpf"
    path.write_bytes(b"QPF1\x08")
    with pytest.raises(QpfFormatError, match="truncated"):
        read_qpf(path)


def test_size_mismatch_rejected(tmp_path):
    f = ScalarField2D(1.0, np.zeros((8, 8)))
    path = tmp_path / "cut.qpf"
    write_qpf(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(QpfFormatError, match="size"):
        read_qpf(path)
