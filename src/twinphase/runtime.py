"""How a command runs: the thread map of its frames, trials and dz points,
with BLAS at one thread and numpy's raising error state, so its outputs
are byte-identical for any thread count and BLAS pool size; and the
scipy functions it calls (``SCIPY_FUNCTIONS``), each loaded on its
first call from its compiled module alone."""

import contextlib
import ctypes
import os
import sys
import threading
from contextvars import copy_context
from functools import cache
from importlib import machinery, util
from pathlib import Path

import numpy as np
import scipy


def _frame_workers() -> int:
    """Threads of ``ordered_map``: the CPUs this process may run on,
    capped by the QPI_THREADS environment variable when it is set."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    try:
        workers = min(workers, int(os.environ.get("QPI_THREADS", "")))
    except ValueError:
        pass
    return max(workers, 1)


def ordered_map(func, items):
    """Return ``[func(item) for item in items]``.

    The calls run on one thread per CPU this process may use, capped by
    the QPI_THREADS environment variable.  The calling thread is one of
    them, so one worker starts no thread.  Each thread pulls the next
    item in index order under one lock, runs ``func`` on it outside the
    lock and stores the result at the item's index; so an iterator that
    draws random numbers draws them in the same order for any thread
    count, and when ``func``'s result depends on its item alone, so does
    the list.  Each thread runs in a copy of the caller's context, so
    numpy's error state (``np.errstate``) holds on every thread.  numpy's
    random draws, FFTs and ufuncs release the GIL, and ``command`` runs
    BLAS on one thread.  At most one item per thread is
    in flight, and no thread waits for another to finish: a thread holds
    one twin-beam frame's working set at a time, about five arrays of
    its padded grid (3.1 MB for a defocused 220² frame), one trial of
    ``metrics.noise_suppression_scan`` (3.6 MB at 220²), or one dz point
    of ``metrics.resolution_scan`` (4.3 MB at 220²).  Once ``func``
    or the iterator raises, no item is pulled; after the threads end, the
    exception of the lowest failing index is raised, as the list
    comprehension would raise it.
    """
    items = iter(items)
    results = []
    errors = {}  # index -> the exception of func, or of the iterator pulling it
    lock = threading.Lock()
    stopped = False  # the items ran out, one failed, or the caller left

    def worker():
        nonlocal stopped
        while True:
            with lock:
                if stopped:
                    return
                index = len(results)
                try:
                    item = next(items)
                except StopIteration:
                    stopped = True
                    return
                except Exception as exc:
                    stopped = True
                    errors[index] = exc
                    return
                results.append(None)
            try:
                results[index] = func(item)
            except Exception as exc:
                with lock:
                    stopped = True
                    errors[index] = exc
                return

    threads = [threading.Thread(target=copy_context().run, args=(worker,), daemon=True)
               for _ in range(_frame_workers() - 1)]
    for thread in threads:
        thread.start()
    try:
        worker()
    finally:
        with lock:
            stopped = True
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


# Each scipy function the package calls -> the compiled module that holds it.
SCIPY_FUNCTIONS = {
    "ndtr": "special._special_ufuncs",  # the sampler's kernel tables
    "erf": "special._special_ufuncs",  # the edge-spread model
    "_qagpe": "integrate._quadpack",  # QUADPACK's QAGP, for eta_c
    "dst": "fft._pocketfft.pypocketfft",  # the DST-I of the Poisson solve
    "dgesdd": "linalg._flapack",  # LAPACK's SVD, for the edge fit
    "dgesdd_lwork": "linalg._flapack",
    "_brentq": "optimize._zeros",  # Brent's method, for the line-spread width
}
_loading = threading.Lock()  # first calls on several threads load a module once


class MissingScipyError(OSError):
    """A function of ``SCIPY_FUNCTIONS``, or its module's file, is missing."""


@cache
def scipy_function(name):
    """The function ``name`` of ``SCIPY_FUNCTIONS``; its module loads on first call."""
    module_name = SCIPY_FUNCTIONS[name]
    with _loading:
        module = _extension(module_name)
    if not hasattr(module, name):
        raise MissingScipyError(f"scipy {scipy.__version__} has no {name} in scipy.{module_name}"
                                + (" (no file of the module)" if module is None else ""))
    return getattr(module, name)


@cache
def _extension(name):
    """The compiled module ``scipy.<name>``, loaded from its file without
    its package, or None if scipy has no such file.  A module already in
    ``sys.modules``, imported with its package, is returned; else
    ``sys.modules`` is left as found.  CPython registers a single-phase
    extension module when it loads it, and a later import of its package
    would bind that entry, which lacks the attribute.  Without it, that
    import makes its own module from the same initialised state, with
    the same function objects."""
    full_name = f"scipy.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    stem = Path(scipy.__file__).parent.joinpath(*name.split("."))
    paths = (f"{stem}{x}" for x in machinery.EXTENSION_SUFFIXES)
    path = next((path for path in paths if os.path.exists(path)), None)
    if path is None:
        return None
    spec = util.spec_from_file_location(full_name, path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full_name, None)
    return module


def _openblas_pools():
    """(getter, setter) of the thread pool of each OpenBLAS that numpy and
    scipy bundle; none for a missing library or symbol.  scipy's is loaded
    here if no scipy module has loaded it yet, so that a scipy.linalg
    imported later in the command finds its pool already set."""
    pools = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
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


@contextlib.contextmanager
def command():
    """Run a command's block with BLAS at one thread, where a numpy
    overflow, invalid value or division by zero raises; restore both after."""
    with _blas_threads(1), np.errstate(over="raise", invalid="raise", divide="raise"):
        yield
