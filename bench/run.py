"""twinphase benchmark: drive CLI workloads in-process and print one result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports ``twinphase``
from ``src/`` there and writes only under ``.bench_work/``.  One process
calls ``twinphase.cli.main(argv)`` for every command, with no
subprocesses and no threads beyond the BLAS pool.  A run repeats passes
of the workload (see ``workloads.py``) for S seconds, checks every
pass's outputs outside the timed part, and prints an environment line
and then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median
set-up of a pass: fresh import of the package plus writing the inputs),
``wall_s`` (median wall time of one pass) and ``peak_rss_mb``.  With
``--trace 1`` half the time runs untraced and half traced, and the
metrics are per layer (see ``spans.py``), plus ``trace.overhead_s``
(median traced minus untraced pass), and the untraced stage timings
``cli.frames_per_s`` and ``cli.retrieve_s``, which are 0 on workloads
without sampling or ``retrieve`` commands.

``attempted`` counts command executions; ``failed`` counts those that
exited non-zero or whose outputs failed a check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# (name, unit) of the metrics a run prints besides the traced layers'.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
PER_RUN_LAYER = [("trace.overhead_s", "s"), ("cli.frames_per_s", "1/s"), ("cli.retrieve_s", "s")]

sys.path.insert(0, str(BENCH))
from spans import Tracer, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_fresh():
    """Import ``twinphase.cli`` anew, so module-level work is re-run."""
    for name in [n for n in sys.modules if n == "twinphase" or n.startswith("twinphase.")]:
        del sys.modules[name]
    cli = importlib.import_module("twinphase.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"twinphase imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, argv):
    """Exit code of one CLI command; a traceback counts as exit 1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def pass_seeds(workload, seed):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(2**32)


class Run:
    """Passes of one workload in one run, with their outcome counts.

    Every pass starts with a set-up: a fresh import of the package and
    the workload's inputs.  Set-ups are thus sampled across the whole
    run, and no module-level state of ``twinphase`` outlives a pass, as
    none outlives a command run from the shell.
    """

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seeds = pass_seeds(workload.name, seed)
        self.work = work
        self.index = 0
        self.setup = []
        self.executed = []
        self.failed = set()

    def measure(self, seconds, min_passes, tracer=None):
        """Run passes for ``seconds`` of timed work; return their command times."""
        passes = []
        busy = 0.0
        while busy < seconds or len(passes) < min_passes:
            gc.collect()
            start = time.perf_counter()
            cli = import_fresh()
            self.workload.prepare(self.work)
            self.setup.append(time.perf_counter() - start)
            out = self.work / f"pass{self.index}"
            commands = self.workload.commands(next(self.seeds), out)
            times, bad = {}, set()
            if tracer is not None:
                tracer.pass_index = len(passes)
                tracer.install()
            try:
                for label, argv in commands:
                    start = time.perf_counter()
                    code = invoke(cli, argv)
                    times[label] = time.perf_counter() - start
                    if code != 0:
                        print(f"{label}: exit {code}", file=sys.stderr)
                        bad.add(label)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            try:
                problems = self.workload.check_pass(out)
            except (OSError, ValueError) as exc:
                problems = {label: [f"unreadable output: {exc}"] for label, _ in commands}
            for label, found in problems.items():
                for p in found:
                    print(f"{label}: {p}", file=sys.stderr)
                bad.add(label)
            shutil.rmtree(out, ignore_errors=True)
            self.executed += [(self.index, label) for label, _ in commands]
            self.failed.update((self.index, label) for label in bad)
            self.index += 1
            busy += sum(times.values())
            passes.append(times)
        return passes

    def finish(self):
        """Apply the checks pooled over every pass of the run."""
        for label, problems in self.workload.check_run().items():
            for p in problems:
                print(f"{label}: {p}", file=sys.stderr)
            self.failed.update(e for e in self.executed if e[1] == label)


def wall(passes):
    return statistics.median(sum(t.values()) for t in passes)


def stage_metrics(workload, passes):
    label = workload.sampling_label
    frames_per_s = (
        workload.frames_per_pass / statistics.median(t[label] for t in passes)
        if label else 0.0
    )
    retrieve_s = (
        statistics.median(sum(t[l] for l in workload.retrieve_labels) for t in passes)
        if workload.retrieve_labels else 0.0
    )
    return {"cli.frames_per_s": frames_per_s, "cli.retrieve_s": retrieve_s}


def blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(args, walls):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "QPI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
        ) if k in os.environ},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": walls,
    }


def execute(workload, seed, seconds, trace, work_root=WORK):
    """Set up, measure and check one run; return (result, pass wall times)."""
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    if trace:
        untraced = run.measure(seconds / 2, -(-workload.min_passes // 2))
        tracer = Tracer()
        traced = run.measure(seconds / 2, max(1, workload.min_passes - len(untraced)), tracer)
        values = tracer.metrics(len(traced))
        values["trace.overhead_s"] = wall(traced) - wall(untraced)
        values.update(stage_metrics(workload, untraced))
        tracer.write(work_root / f"spans-{workload.name}.jsonl")
        units = dict(per_layer_names() + PER_RUN_LAYER)
        passes = untraced + traced
    else:
        passes = run.measure(seconds, workload.min_passes)
        values = {
            "setup_s": statistics.median(run.setup),
            "wall_s": wall(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    run.finish()
    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not run.failed,
        "attempted": len(run.executed),
        "failed": len(run.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, [sum(t.values()) for t in passes]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twinphase" / "__init__.py").is_file():
        print(f"no twinphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, walls = execute(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    print(json.dumps({"env": environment(args, walls)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
