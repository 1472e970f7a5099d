"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import Calibration, Pipeline, Scans, read_qpf  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    """The named workload at the smallest sizes the CLI accepts, one pass."""
    workload = {
        "pipeline_513": lambda: Pipeline(grid_size=220),
        "calibration_220": lambda: Calibration(frames=2),
        "scans_220": lambda: Scans(dz_list="0.1"),
    }[name]()
    workload.min_passes = 1
    return workload


def test_spec_names_the_runner_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(tmp_path, name, trace, key):
    result, walls = run.execute(tiny(name), seed=1, seconds=0.01, trace=trace, work_root=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and walls
    reported = {n: m["unit"] for n, m in json.loads(json.dumps(result))["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in SPEC[key]}


def test_corrupted_frame_is_a_failed_check(tmp_path):
    cli = run.import_fresh()
    workload = Pipeline(grid_size=220)
    workload.prepare(tmp_path)
    out = tmp_path / "pass"
    commands = workload.commands(5, out)
    assert run.invoke(cli, commands[0][1]) == 0

    frame = next((out / "frames").glob("*_0_s.qpf"))
    raw = frame.read_bytes()
    counts = read_qpf(frame).copy()
    counts[110, 110] += 5000
    frame.write_bytes(raw[:20] + counts.astype("<f8").tobytes())
    for _, argv in commands[1:]:
        run.invoke(cli, argv)

    problems = workload.check_pass(out)
    assert list(problems) == ["simulate"]
    assert any(frame.name in p and "sha256" in p for p in problems["simulate"])


def test_uncorrupted_pass_passes_its_checks(tmp_path):
    result, _ = run.execute(tiny("pipeline_513"), seed=2, seconds=0.01, trace=0, work_root=tmp_path)
    assert result["correct"] and result["failed"] == 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scans_220", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
