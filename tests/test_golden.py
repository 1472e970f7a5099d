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
thread, and with two, where frames are drawn, and ``simulate``'s files
written, on both threads.

The frames come from numpy's binomial and Poisson streams, which are
only fixed for one numpy version, so the fixture records that version
and the test fails, naming both versions, when it differs.  Regenerate
the fixture with ``PYTHONPATH=src python tests/test_golden.py`` only
for a numpy upgrade, never to absorb an output change.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from twinphase.cli import main as cli_main
from test_twinbeam import use_threads

FIXTURE = Path(__file__).with_name("golden_hashes.json")


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


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_golden_hashes(tmp_path, monkeypatch, threads):
    use_threads(monkeypatch, threads)
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if np.__version__ != golden["numpy"]:
        pytest.fail(
            f"golden hashes were recorded with numpy {golden['numpy']}, "
            f"this is numpy {np.__version__}: the random streams may differ; "
            "regenerate the fixture on a commit whose output is trusted"
        )
    actual = run_pipeline(tmp_path)
    assert sorted(actual) == sorted(golden["files"]), "the set of output files changed"
    changed = sorted(name for name, digest in golden["files"].items() if actual[name] != digest)
    assert not changed, f"outputs differ from the golden hashes: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipeline(Path(tmp))
    FIXTURE.write_text(
        json.dumps({"numpy": np.__version__, "files": files}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(files)} hashes to {FIXTURE}", file=sys.stderr)
