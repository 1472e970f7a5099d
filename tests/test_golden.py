"""Golden output hashes: the pipeline's bytes are pinned across changes.

``golden_hashes.json`` holds the SHA-256 of every QPF/CSV written by
``simulate --frames 2 --seed 3`` -> ``retrieve --k-mode tie --bin 3``,
``retrieve --k-mode tau --bin 3``, ``retrieve --k-mode classical --bin
1`` and ``retrieve --k-mode 0.3 --bin 1`` on that frame set -> ``scan
nrf --frames 5 --seed 11`` -> ``scan advantage --frames 2 --dz 0.0125
--seed 5`` -> ``scan resolution`` (default dz list) -> ``scan noise
--seed 7``.  The tau weight reads eta0, epsilon and l_cff from the
frame set's configuration, the last two retrievals pin the
provenance column of ``frames.csv`` ("classical" for a zero weight,
"quantum" otherwise), the advantage scan covers the reference
phase and the scan's retrieval settings, and the last two scans cover
the wave-optics stacks and the Poisson-trial noise maps.  Criterion 12 compares two runs
of one build with each other; this test compares a run with the
recorded bytes, so a refactor can show that it changes no output.  It
runs with one frame thread, where every call runs on the calling
thread, and with two, where frames are drawn, ``simulate``'s files
written, the advantage scan's frame triples scored and the resolution
scan's dz points evaluated on both threads;
each run starts from a different BLAS pool size, which ``cli.main``
sets to one thread for every command, so the bytes hold for any pool
size the host would pick.

The frames come from numpy's binomial and Poisson streams, which are
only fixed for one numpy version, and the phase maps from matrix
products whose last bits depend on the BLAS kernels.  So the fixture
records the numpy version, the BLAS name and the OpenBLAS core that
runs here (the kernel that a ``DYNAMIC_ARCH`` build picks at runtime,
not the build baseline that ``np.show_config`` prints), and the test
fails, naming both values, when one differs.  Regenerate the fixture
with ``PYTHONPATH=src python tests/test_golden.py`` only for a numpy
upgrade or a change of BLAS core, never to absorb an output change.
"""

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from twinphase.cli import _blas_threads
from twinphase.cli import main as cli_main
from test_twinbeam import use_threads

FIXTURE = Path(__file__).with_name("golden_hashes.json")


def blas_in_use():
    """{"blas": name of numpy's BLAS, "blas_core": the OpenBLAS core that
    runs here, or "" for another BLAS}."""
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    core = ""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return {"blas": name, "blas_core": core}


def run_pipeline(root):
    """Run the pinned commands under ``root``; return {relative path: sha256}."""
    sim, ret, ret_tau = root / "simulate", root / "retrieve", root / "retrieve_tau"
    ret_clas, ret_k = root / "retrieve_classical", root / "retrieve_k0.3"
    scan, adv = root / "scan_nrf", root / "scan_advantage"
    res, noise = root / "scan_resolution", root / "scan_noise"
    commands = [
        ["simulate", "--frames", "2", "--seed", "3", "--out", str(sim)],
        ["retrieve", "--frames", str(sim), "--k-mode", "tie", "--bin", "3", "--out", str(ret)],
        ["retrieve", "--frames", str(sim), "--k-mode", "tau", "--bin", "3", "--out", str(ret_tau)],
        ["retrieve", "--frames", str(sim), "--k-mode", "classical", "--bin", "1", "--out", str(ret_clas)],
        ["retrieve", "--frames", str(sim), "--k-mode", "0.3", "--bin", "1", "--out", str(ret_k)],
        ["scan", "nrf", "--frames", "5", "--seed", "11", "--out", str(scan)],
        ["scan", "advantage", "--frames", "2", "--dz", "0.0125", "--seed", "5", "--out", str(adv)],
        ["scan", "resolution", "--out", str(res)],
        ["scan", "noise", "--seed", "7", "--out", str(noise)],
    ]
    for argv in commands:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[:2])} exited {code}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for out in (sim, ret, ret_tau, ret_clas, ret_k, scan, adv, res, noise)
        for path in sorted(out.iterdir())
        if path.suffix in (".qpf", ".csv")
    }


# ids name the frame threads; each run starts from the other BLAS pool size
@pytest.mark.parametrize("threads, blas_threads", [(1, 2), (2, 1)], ids=["1", "2"])
def test_outputs_match_golden_hashes(tmp_path, monkeypatch, threads, blas_threads):
    use_threads(monkeypatch, threads)
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if np.__version__ != golden["numpy"]:
        pytest.fail(
            f"golden hashes were recorded with numpy {golden['numpy']}, "
            f"this is numpy {np.__version__}: the random streams may differ; "
            "regenerate the fixture on a commit whose output is trusted"
        )
    for key, value in blas_in_use().items():
        if value != golden[key]:
            pytest.fail(
                f"golden hashes were recorded with {key} {golden[key]!r}, "
                f"this is {key} {value!r}: matrix products may differ in their "
                "last bits; regenerate the fixture on a commit whose output is trusted"
            )
    with _blas_threads(blas_threads):
        actual = run_pipeline(tmp_path)
    assert sorted(actual) == sorted(golden["files"]), "the set of output files changed"
    changed = sorted(name for name, digest in golden["files"].items() if actual[name] != digest)
    assert not changed, f"outputs differ from the golden hashes: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipeline(Path(tmp))
    FIXTURE.write_text(
        json.dumps(
            {"numpy": np.__version__, **blas_in_use(), "files": files}, indent=2, sort_keys=True
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(files)} hashes to {FIXTURE}", file=sys.stderr)
