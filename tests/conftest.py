"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that runs ``func()`` on this thread and returns the
    largest number of bytes tracemalloc saw allocated during the call,
    above what was allocated before it.  numpy reports its array buffers
    to tracemalloc, so this counts the arrays alive at once.
    ``twinphase.fitting``, the one module of the package imported on first
    use, is imported before, and scipy.special's ufuncs, LAPACK's SVD and
    Brent's method are loaded before, so that a first fit's import and
    the first loads of those modules are not counted.  The QUADPACK and
    pocketfft modules that the package loads on their first call are
    counted."""
    import twinphase.fitting  # noqa: F401
    from twinphase.runtime import scipy_function

    for name in ("ndtr", "erf", "dgesdd", "dgesdd_lwork", "_brentq"):
        scipy_function(name)

    def peak(func):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            func()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak
