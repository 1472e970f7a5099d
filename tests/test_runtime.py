"""Tests of how a command runs: the thread map, the BLAS pin, the error
state, the scipy functions the package calls, and which modules may
import the thread and foreign-call machinery or name scipy's modules."""

import ast
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from twinphase import cli, metrics, runtime
from twinphase.cli import EXIT_CONFIG, EXIT_OK, main
from twinphase.runtime import ordered_map


def use_threads(monkeypatch, threads, cpus=4):
    """Let ordered_map, and so the commands and scans that draw on it,
    see ``cpus`` CPUs and cap it at ``threads``."""
    monkeypatch.setattr(
        runtime.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    monkeypatch.setenv("QPI_THREADS", str(threads))



def run_fresh(script, *args, **env):
    """Run ``script`` with ``args`` in a fresh interpreter that imports
    this checkout's package, with ``env`` added to the environment; check
    that it exits 0 and return its output read as JSON."""
    src = Path(runtime.__file__).resolve().parents[1]
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


class TestOrderedMap:
    def test_no_thread_waits_for_a_reader(self, monkeypatch):
        # item 1 runs until item 3 starts: with 2 threads the other one
        # must run items 0, 2 and 3 while item 1 is unread
        started = [threading.Event() for _ in range(6)]
        waited = []

        def func(i):
            started[i].set()
            if i == 1:
                waited.append(started[3].wait(timeout=2.0))
            return i * i

        use_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        assert ordered_map(func, range(6)) == [i * i for i in range(6)]
        assert waited == [True]
        assert threading.active_count() == threads_before

    def test_pulls_items_in_order_with_at_most_workers_in_flight(self, monkeypatch):
        workers, n = 3, 40
        pulled = []
        lock = threading.Lock()
        running = peak = 0

        def items():
            for i in range(n):
                pulled.append(i)
                yield i

        def slow_square(i):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.001)
            with lock:
                running -= 1
            return i * i

        use_threads(monkeypatch, workers, cpus=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads_before = threading.active_count()
            got = ordered_map(slow_square, items())
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(n)]
        assert pulled == list(range(n))
        assert 1 <= peak <= workers
        assert threading.active_count() == threads_before

    def test_raises_the_exception_of_the_lowest_failing_item(self, monkeypatch):
        workers = 3
        pulled = []

        def items():
            for i in range(40):
                pulled.append(i)
                yield i

        def func(i):
            if i == 3:
                time.sleep(0.1)  # item 5 fails first
                raise FloatingPointError("overflow in item 3")
            if i == 5:
                raise FloatingPointError("overflow in item 5")
            time.sleep(0.01)
            return i

        use_threads(monkeypatch, workers)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="item 3"):
            ordered_map(func, items())
        assert pulled == list(range(len(pulled)))
        assert max(pulled) <= 3 + workers
        assert threading.active_count() == threads_before

    def test_worker_threads_keep_the_callers_error_state(self, monkeypatch):
        # the calling thread waits until the other thread has run an item,
        # whose overflow only warned when threads started in numpy's
        # default error state
        caller = threading.current_thread()
        on_worker = threading.Event()

        def overflow_on_a_worker(x):
            if threading.current_thread() is caller:
                assert on_worker.wait(timeout=10.0)
                return x
            on_worker.set()
            return np.float64(1e308) * x

        use_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            ordered_map(overflow_on_a_worker, [10.0, 10.0])
        assert on_worker.is_set()
        assert threading.active_count() == threads_before

    def test_iterator_exception_is_raised_after_the_items_before_it(self, monkeypatch):
        workers = 2
        pulled, ran = [], []

        def items():
            for i in range(3):
                pulled.append(i)
                yield i
            raise FloatingPointError("overflow while drawing item 3")

        def slow_identity(i):
            time.sleep(0.02)
            ran.append(i)
            return i

        use_threads(monkeypatch, workers)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="item 3"):
            ordered_map(slow_identity, items())
        assert sorted(ran) == [0, 1, 2]
        assert pulled == [0, 1, 2]
        assert threading.active_count() == threads_before


class TestStagedItems:
    """Items whose ``func`` returns a generator run one stage, from one
    ``yield`` to the next, at a time."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_order_with_at_most_workers_running_and_one_more_live(
        self, monkeypatch, workers
    ):
        n = 24
        pulled = []
        lock = threading.Lock()
        running = live = peak_running = peak_live = 0

        def items():
            for i in range(n):
                pulled.append(i)
                yield i

        def stage(step):
            nonlocal running, peak_running
            with lock:
                running += step
                peak_running = max(peak_running, running)

        def staged(i):
            nonlocal live, peak_live
            with lock:
                live += 1
                peak_live = max(peak_live, live)
            for _ in range(3):
                stage(+1)
                time.sleep(0.001)
                stage(-1)
                yield
            with lock:
                live -= 1
            return i * i

        use_threads(monkeypatch, workers, cpus=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads_before = threading.active_count()
            got = ordered_map(staged, items())
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(n)]
        assert pulled == list(range(n))
        assert 1 <= peak_running <= workers
        # one thread runs each item to its end
        assert peak_live == (workers + 1 if workers > 1 else 1)
        assert threading.active_count() == threads_before

    def test_a_failing_stage_raises_the_lowest_failing_index_and_closes_parked_items(
        self, monkeypatch
    ):
        workers = 2
        pulled, started, returned, closed = [], set(), set(), set()

        def items():
            for i in range(40):
                pulled.append(i)
                yield i

        def staged(i):
            started.add(i)
            try:
                yield
                if i == 3:
                    time.sleep(0.1)  # item 5 fails first
                    raise FloatingPointError("overflow in item 3")
                if i == 5:
                    raise FloatingPointError("overflow in item 5")
                time.sleep(0.01)
                yield
                time.sleep(0.01)
            except GeneratorExit:
                closed.add(i)
                raise
            returned.add(i)
            return i

        use_threads(monkeypatch, workers)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="item 3"):
            ordered_map(staged, items())
        assert pulled == list(range(len(pulled)))
        assert max(pulled) <= 5 + workers
        # every item below the lowest failing one ran to its end
        assert set(range(3)) <= returned
        assert started - returned - closed == {3, 5}
        assert not closed & returned and min(closed, default=6) > 3
        assert threading.active_count() == threads_before

    def test_an_item_parked_below_a_failing_one_runs_on_as_in_the_list(self, monkeypatch):
        # items 0 and 1 start on the two threads and park; the next item
        # pulled, 2, fails at once; item 1 then fails in its second stage
        both_started = threading.Barrier(2)

        def staged(i):
            if i < 2:
                both_started.wait(timeout=10.0)
            if i == 2:
                raise FloatingPointError("overflow in item 2")
            yield
            if i == 1:
                raise FloatingPointError("overflow in item 1")
            return i

        use_threads(monkeypatch, 2)
        with pytest.raises(FloatingPointError, match="item 1"):
            ordered_map(staged, range(6))

    def test_a_stage_resumed_on_another_thread_keeps_the_callers_error_state(
        self, monkeypatch
    ):
        # items 0 and 1 start on the two threads; item 0's thread then
        # pulls item 2, which waits until item 0 resumes on item 1's thread
        both_started = threading.Barrier(2)
        resumed = threading.Event()
        ran_on, moved = {}, []

        def staged(x):
            i, value = x
            if i < 2:
                both_started.wait(timeout=10.0)
            ran_on[i] = threading.current_thread()
            if i == 1:
                time.sleep(0.05)  # so item 0 parks first
            if i == 2:
                assert resumed.wait(timeout=10.0)
            yield
            if i == 0:
                resumed.set()
                moved.append(threading.current_thread() is not ran_on[0])
                return np.float64(1e308) * value
            return value

        use_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            ordered_map(staged, enumerate([10.0, 1.0, 1.0]))
        assert moved == [True]
        assert threading.active_count() == threads_before

    def test_a_caller_out_of_items_leaves_the_other_thread_its_item(self, monkeypatch):
        # items 0 and 1 start on the two threads; every later stage on
        # the other thread is slow, so the calling thread runs the rest
        # and runs out of items while the other thread is mid-item
        caller = threading.current_thread()
        both_started = threading.Barrier(2)
        lock = threading.Lock()
        caller_done = other_last = 0.0

        def staged(i):
            nonlocal caller_done, other_last
            if i < 2:
                both_started.wait(timeout=10.0)
            for _ in range(3):
                yield
                if threading.current_thread() is caller:
                    with lock:
                        caller_done = time.monotonic()
                else:
                    with lock:
                        other_last = time.monotonic()
                    time.sleep(0.2)
            return i * i

        use_threads(monkeypatch, 2)
        threads_before = threading.active_count()
        assert ordered_map(staged, range(3)) == [0, 1, 4]
        assert caller_done < other_last
        assert threading.active_count() == threads_before


def test_no_yield_inside_an_errstate_block():
    """A parked stage may resume on another thread, so no generator of
    the package but a context manager yields inside an ``np.errstate``
    block, whose context variable is set on the thread that entered it."""
    found = []
    for path in sorted(Path(runtime.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef) or any(
                "contextmanager" in ast.unparse(d) for d in func.decorator_list
            ):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.With) and any(
                    "errstate" in ast.unparse(item.context_expr) for item in node.items
                ):
                    found += [
                        f"{path.stem}:{n.lineno}"
                        for n in ast.walk(node)
                        if isinstance(n, (ast.Yield, ast.YieldFrom))
                    ]
    assert found == []


def test_blas_pools_run_one_thread_inside_a_command(tmp_path, monkeypatch):
    real_stack = metrics.defocus_stack
    seen = []

    def stack_reading_pools(*args, **kwargs):
        seen.append([get() for get, _ in runtime._openblas_pools().values()])
        return real_stack(*args, **kwargs)

    monkeypatch.setattr(metrics, "defocus_stack", stack_reading_pools)
    use_threads(monkeypatch, 2)
    with runtime._blas_threads(2):
        code = main(["scan", "resolution", "--dz", "0.0125,0.025", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert len(seen) == 2 and all(size == 1 for sizes in seen for size in sizes)


def raise_in_command(*args):
    raise RuntimeError("raised in a command")


@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "exception"])
def test_blas_pool_sizes_restored_after_a_command(tmp_path, monkeypatch, outcome):
    argv = ["target", "--out", str(tmp_path / "t")]
    if outcome == "exit 2":
        (tmp_path / "bad.cfg").write_text("volume = 11\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "bad.cfg")]
    if outcome == "exception":
        monkeypatch.setattr(cli, "generate_test_target", raise_in_command)
    with runtime._blas_threads(2):
        errors = np.geterr()
        if outcome == "exception":
            with pytest.raises(RuntimeError, match="raised in a command"):
                main(argv)
        else:
            assert main(argv) == {"exit 0": EXIT_OK, "exit 2": EXIT_CONFIG}[outcome]
        assert np.geterr() == errors
        assert all(get() == 2 for get, _ in runtime._openblas_pools().values())


def test_command_runs_without_an_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(runtime, "_openblas_pools", dict)
    assert main(["target", "--out", str(tmp_path)]) == EXIT_OK


# Run in a fresh interpreter: the first call for dgesdd, which maps
# scipy's OpenBLAS, is made inside a command on a thread of ordered_map
# other than the calling one; prints the thread count of every OpenBLAS
# pool mapped in the process right after that call and after the command.
POOLS_AROUND_A_LOAD = """
import ctypes, json, os, threading
from twinphase import runtime

def pool_sizes():
    paths = sorted({line.split()[-1] for line in open("/proc/self/maps")
                    if "libscipy_openblas" in line})
    sizes = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                sizes[os.path.basename(path)] = getattr(lib, name)()
    return sizes

runtime.os.sched_getaffinity = lambda pid: set(range(2))
caller = threading.current_thread()
loaded = threading.Event()

def item(i):
    if threading.current_thread() is caller:
        assert loaded.wait(timeout=60)
        return None
    runtime.scipy_function("dgesdd")
    loaded.set()
    return pool_sizes()

with runtime.command():
    during = [sizes for sizes in runtime.ordered_map(item, range(2)) if sizes]
print(json.dumps([during, pool_sizes()]))
"""


def test_blas_pool_loaded_inside_a_command_runs_one_thread():
    """scipy's OpenBLAS is first mapped by ``linalg._flapack``, which
    ``scipy_function`` loads inside a command on a thread of
    ``ordered_map``: its pool runs one thread from its load on, as
    numpy's does, and gets back the size it had at load when the command
    ends."""
    during, after = run_fresh(POOLS_AROUND_A_LOAD, OPENBLAS_NUM_THREADS="2", QPI_THREADS="2")
    # the caller's thread never loads, so one or both items read the pools
    assert during and all(len(s) == 2 and set(s.values()) == {1} for s in during), during
    scipy_pool = [name for name in after if name.startswith("libscipy_openblas-")]
    assert len(scipy_pool) == 1 and after[scipy_pool[0]] == 2, after


def imported_names(path):
    """Every module a source file of the package imports, and every name
    it imports from one, as ``module.name``; package-relative imports
    are resolved to ``twinphase.``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "twinphase" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_runtime_imports_threads_and_no_module_imports_cli():
    """``runtime`` alone imports threading, contextvars, ctypes or
    importlib (which loads the scipy extensions), and no module of the
    package imports ``cli``, the entry point."""
    machinery = {"threading", "contextvars", "ctypes", "importlib"}
    found = {}
    for path in sorted(Path(runtime.__file__).parent.glob("*.py")):
        names = imported_names(path)
        found[path.stem] = (
            sorted(machinery & {name.split(".")[0] for name in names}),
            "twinphase.cli" in names,
        )
    assert {module: f for module, f in found.items() if any(f)} == {
        "runtime": (["contextvars", "ctypes", "importlib", "threading"], False)
    }


def test_package_imports_no_scipy_subpackage():
    """No scipy subpackage is imported, scipy.optimize included: the
    package loads the extension modules it calls alone."""
    names = set().union(*map(imported_names, Path(runtime.__file__).parent.glob("*.py")))
    assert {name for name in names if name.startswith("scipy.")} == set()


def test_every_function_and_method_has_a_package_caller():
    """No module-level function or class, and no method but a dunder,
    goes unnamed by the package's code as a call, an attribute or an
    import.  The one exception, ``optics.angular_spectrum_propagate``, is
    kept for the benchmark tracer, whose ``TARGETS`` in ``bench/spans.py``
    must still name it: once that wrapper goes, so does the exception."""
    defined, named = set(), set()
    for path in sorted(Path(runtime.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined - named == {"angular_spectrum_propagate"}
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    targets = next(
        node.value
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    )
    assert "angular_spectrum_propagate" in {
        n.value for n in ast.walk(targets) if isinstance(n, ast.Constant)
    }


# Run in a fresh interpreter: loads every function of runtime's table,
# then imports the scipy packages of their modules, and prints whether
# sys.modules kept its scipy entries and whether each package's module
# holds the same function object.
FUNCTIONS_THEN_PACKAGES = """
import importlib, json, sys
from twinphase import runtime

before = sorted(name for name in sys.modules if name.startswith("scipy"))
loaded = {name: runtime.scipy_function(name) for name in runtime.SCIPY_FUNCTIONS}
after = sorted(name for name in sys.modules if name.startswith("scipy"))
same = {}
for name, module_name in runtime.SCIPY_FUNCTIONS.items():
    package, _, leaf = f"scipy.{module_name}".rpartition(".")
    module = getattr(importlib.import_module(package), leaf)
    same[name] = getattr(module, name) is loaded[name]
print(json.dumps([before == after, same]))
"""


def test_extensions_leave_sys_modules_and_later_imports_share_their_functions():
    """A single-phase extension module that ``scipy_function`` loads is
    not left in sys.modules without its package, so a later import of
    the package finds it as an attribute, holding the same functions."""
    unchanged, same = run_fresh(FUNCTIONS_THEN_PACKAGES)
    assert unchanged and all(same.values()), same


def test_only_runtime_names_scipy_extensions_or_binds_their_functions():
    """Outside ``runtime``, no module of the package names a module of
    ``runtime.SCIPY_FUNCTIONS``, in code or text, and none binds one of
    its functions when it is imported: no name of the table is assigned
    or imported at module level, and ``scipy_function`` is called only
    inside functions."""
    leaves = {module.rpartition(".")[2] for module in runtime.SCIPY_FUNCTIONS.values()}
    found = {}
    for path in sorted(Path(runtime.__file__).parent.glob("*.py")):
        if path.stem == "runtime":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        words = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.update(leaf for leaf in leaves if re.search(rf"\b{leaf}\b", node.value))
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                words.update(leaves & set(name.split(".")))
        bound = set()
        nodes = list(tree.body)
        while nodes:  # the module's statements and expressions, outside functions
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.alias):
                bound.add(node.asname or node.name)
            elif isinstance(node, ast.Call) and "scipy_function" in ast.unparse(node.func):
                bound.add(ast.unparse(node))
            nodes.extend(ast.iter_child_nodes(node))
        bound = sorted(name for name in bound
                       if name in runtime.SCIPY_FUNCTIONS or "scipy_function(" in name)
        if words or bound:
            found[path.stem] = (sorted(words), bound)
    assert found == {}


# Run in a fresh interpreter: prints the files under scipy's directory
# that ``import twinphase.cli`` maps beyond those of ``import scipy``, and
# the stems of those mapped once each function of runtime's table is
# asked for.
MAPPED_EXTENSIONS = """
import json
from pathlib import Path
import scipy

def mapped():
    root = f"{Path(scipy.__file__).parent}/"
    return {line.split()[-1] for line in open("/proc/self/maps") if root in line}

before = mapped()
import twinphase.cli
from twinphase import runtime
imported = mapped() - before
for name in runtime.SCIPY_FUNCTIONS:
    runtime.scipy_function(name)
asked = {Path(path).name.split(".")[0] for path in mapped() - before}
print(json.dumps([sorted(imported), sorted(asked)]))
"""


def test_package_import_loads_no_scipy_extension():
    """``import twinphase.cli`` maps no file of scipy's beyond those that
    ``import scipy`` maps; asking for each function of
    ``runtime.SCIPY_FUNCTIONS`` maps the files of its modules, and so
    shows that the check sees a loaded module."""
    imported, asked = run_fresh(MAPPED_EXTENSIONS)
    assert imported == []
    assert asked == sorted({name.rpartition(".")[2] for name in runtime.SCIPY_FUNCTIONS.values()})


# Run in a fresh interpreter: eight threads ask for every function of
# runtime's table at once, with a short switch interval, and print how
# many distinct sets of function objects they got and whether all ended.
FUNCTIONS_ON_THREADS = """
import json, sys, threading
from twinphase import runtime

sys.setswitchinterval(1e-6)
start = threading.Barrier(8)
got = [None] * 8

def ask(i):
    start.wait()
    got[i] = tuple(id(runtime.scipy_function(name)) for name in runtime.SCIPY_FUNCTIONS)

threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(json.dumps([len(set(got)), not any(thread.is_alive() for thread in threads)]))
"""


def test_first_calls_on_threads_share_one_load():
    """Threads that ask for the functions at once, each first, all get
    the same function objects: each module is loaded once."""
    assert run_fresh(FUNCTIONS_ON_THREADS) == [1, True]
