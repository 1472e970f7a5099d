"""How a command runs: the thread map of its frames, trials and dz points,
with BLAS at one thread and numpy's raising error state, so its outputs
are byte-identical for any thread count and BLAS pool size; and the
scipy functions it calls (``SCIPY_FUNCTIONS``), each loaded on its
first call from its compiled module alone, so scipy's OpenBLAS is
mapped only in the command that calls LAPACK."""

import contextlib
import ctypes
import inspect
import os
import sys
import threading
from contextvars import ContextVar, copy_context
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
    """Return ``[func(item) for item in items]``, where an item whose
    ``func`` returns a generator gives the generator's return value.

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
    BLAS on one thread.

    A generator runs one stage at a time, from one ``yield`` to the
    next.  At each ``yield`` its thread parks it; a thread that parks or
    finishes an item pulls the next one while at most one item per
    thread is live (pulled and not done), and else resumes the oldest
    parked item, which may be its own.  So three exposures of
    ``twinbeam.sample_twin_stages`` share two threads in about 1.5
    rounds of one exposure, not 2.  A single thread runs each item to
    its end, as a second live item would gain it no time.  A stage may
    resume on another thread, in that thread's copy of the caller's
    context, so no ``yield`` may sit inside an ``np.errstate`` block.

    No thread waits for another.  Each thread holds one working set at a
    time, and while every thread runs at most one item is parked: a
    twin-beam frame's working set is a few arrays of its padded grid,
    and a parked exposure holds only its narrowed count maps.  A plain
    item is one stage: one trial of ``metrics.noise_suppression_scan``,
    or one dz point of ``metrics.resolution_scan``.

    Once ``func``, a stage or the iterator raises, no item is pulled,
    and only the items below the lowest failing index run on, to their
    end; the rest stop at their next ``yield``.  After the threads end,
    parked generators are closed and the exception of the lowest failing
    index is raised, as the list comprehension would raise it.
    """
    items = iter(items)
    workers = _frame_workers()
    most_live = workers + 1 if workers > 1 else 1
    results = []
    errors = {}  # index -> the exception of func or a stage, or of the iterator pulling it
    parked = []  # (index, None, generator) of the items between stages, oldest first
    lock = threading.Lock()
    live = 0  # items pulled and not done
    exhausted = False  # the items ran out
    stopped = False  # the caller left

    def take():
        """Under the lock: the (index, item, generator) to run next, or None."""
        nonlocal live, exhausted
        if not (exhausted or errors or stopped) and live < most_live:
            index = len(results)
            try:
                item = next(items)
            except StopIteration:
                exhausted = True
            except Exception as exc:
                errors[index] = exc
            else:
                results.append(None)
                live += 1
                return index, item, None
        # from the lowest failing index on, or once the caller left, items stay parked
        cutoff = -1 if stopped else min(errors, default=len(results))
        task = next((task for task in parked if task[0] < cutoff), None)
        if task is not None:
            parked.remove(task)
        return task

    def run(index, item, gen):
        """Call ``func`` on a pulled item, or run a parked item's next
        stage; return its generator if it parked again, else None once
        its result is stored."""
        if gen is None:
            gen = func(item)
            if not inspect.isgenerator(gen):
                results[index] = gen
                return None
        try:
            next(gen)
        except StopIteration as done:
            results[index] = done.value
            return None
        return gen

    def worker():
        nonlocal live
        while True:
            with lock:
                task = take()
            if task is None:
                return
            index, error = task[0], None
            try:
                gen = run(*task)
            except Exception as exc:
                gen, error = None, exc
            with lock:
                if error is not None:
                    errors[index] = error
                if gen is None:
                    live -= 1
                else:
                    parked.append((index, None, gen))

    threads = [threading.Thread(target=copy_context().run, args=(worker,), daemon=True)
               for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        worker()
    except BaseException:
        with lock:
            stopped = True
        raise
    finally:
        for thread in threads:
            thread.join()
        for _, _, gen in parked:
            gen.close()
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
# Inside a block of ``_blas_threads``: its thread count, and the (setter,
# size at load) of each pool that a module ``_extension`` loaded there mapped.
_block_pools = ContextVar("_block_pools", default=None)


class MissingScipyError(OSError):
    """A function of ``SCIPY_FUNCTIONS``, or its module's file, is missing."""


@cache
def scipy_function(name):
    """The function ``name`` of ``SCIPY_FUNCTIONS``; its module loads on
    first call.  A module loaded inside a ``command`` that maps an
    OpenBLAS (scipy's, which ``linalg._flapack`` links) runs that pool on
    one thread from its load on, on any thread of ``ordered_map``, and
    the command gives the pool back its size at load when it ends."""
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
    block = _block_pools.get()
    mapped = _openblas_pools() if block else {}
    spec = util.spec_from_file_location(full_name, path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(full_name, None)
    if block:
        n, loaded = block
        for lib, (get, set_threads) in _openblas_pools().items():
            if lib not in mapped:
                loaded.append((set_threads, get()))
                set_threads(n)
    return module


def _openblas_pools():
    """{path: (getter, setter)} of the thread pool of each OpenBLAS that
    numpy and scipy bundle and this process has already mapped; none for
    a library not mapped, or missing a symbol.  numpy maps its own on
    import; scipy's is mapped only by a module that links it, which
    ``_extension`` pins when a block of ``_blas_threads`` loads it."""
    pools = {}
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                names = (f"scipy_openblas_{op}_num_threads{suffix}" for op in ("get", "set"))
                get, set_threads = (getattr(lib, name) for name in names)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            pools[path] = (get, set_threads)
    return pools


@contextlib.contextmanager
def _blas_threads(n):
    """Run the block with each pool of ``_openblas_pools`` at ``n``
    threads, and each pool that a scipy module loaded in the block maps
    at ``n`` threads from its load on, on any thread of
    ``ordered_map``; then give every pool back the size it had at the
    block's start or at its load."""
    pools = [(set_threads, get()) for get, set_threads in _openblas_pools().values()]
    for set_threads, _ in pools:
        set_threads(n)
    loaded = []
    token = _block_pools.set((n, loaded))
    try:
        yield
    finally:
        _block_pools.reset(token)
        for set_threads, size in pools + loaded:
            set_threads(size)


@contextlib.contextmanager
def command():
    """Run a command's block with BLAS at one thread, where a numpy
    overflow, invalid value or division by zero raises; restore both
    after, however the block ends.  The OpenBLAS pools mapped when it
    starts are pinned then; one that a scipy module loaded in the block
    maps is pinned at its load (``scipy_function``).  A pool that code
    outside the package maps in the block is not pinned."""
    with _blas_threads(1), np.errstate(over="raise", invalid="raise", divide="raise"):
        yield
