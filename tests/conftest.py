"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that runs ``func()`` on this thread and returns the
    largest number of bytes tracemalloc saw allocated during the call,
    above what was allocated before it.  numpy reports its array buffers
    to tracemalloc, so this counts the arrays alive at once."""

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
