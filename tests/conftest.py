"""Fixtures shared by the tests of the two-part runner and of its callers."""

import threading

import numpy.fft  # numpy imports these on first use; here, so that no traced peak counts them
import numpy.ma  # np.unique's first call imports it: 1 MiB of module objects
import numpy.random
import pytest

from schrodlab import parallel


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    threads = []
    start = threading.Thread.start

    def recording(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return threads


@pytest.fixture
def on_one_and_two_threads(monkeypatch, started):
    """run() with parallel._THREADS at 1, then at 2: both results.

    At 1 no thread starts; at 2 at least one does, and none is left behind.
    """
    def both(run):
        out = []
        for threads in (1, 2):
            monkeypatch.setattr(parallel, "_THREADS", threads)
            before = threading.active_count()
            out.append(run())
            assert threading.active_count() == before
            assert bool(started) == (threads == 2)
            assert not any(t.is_alive() for t in started)
        return out

    return both
