"""Two independent parts of one computation, run on both cores.

numpy's FFTs and ufunc loops release the GIL, so two parts that write
disjoint memory can run at once: one on a worker thread, the other on the
calling thread.  ``evolve`` steps two contiguous parts of a probe stack this
way, and ``op_norm`` its two power-iteration starts.
"""

from __future__ import annotations

import os
import threading

__all__ = ["run_two"]

#: Threads that run the two parts: two where the process may use two CPUs.
_THREADS = min(2, len(os.sched_getaffinity(0)))


def run_two(first, second):
    """Set up and run two parts; return their results, the first part's first.

    ``first`` and ``second`` each set up their part and return a callable
    that does its work.  With ``_THREADS`` at 2, both set-ups run on the
    calling thread before a worker thread starts; the worker then runs the
    second part's work while the calling thread runs the first's.  The
    worker is joined before this returns, and an exception raised in either
    part propagates.  With one thread, each part is set up just before its
    work runs, so the first part's memory is freed before the second's is
    taken.
    """
    if _THREADS < 2:
        done = first()()
        return done, second()()
    work, other = first(), second()
    result, failed = [], []

    def run_other():
        try:
            result.append(other())
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    worker = threading.Thread(target=run_other, name="schrodlab-part")
    worker.start()
    try:
        done = work()
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return done, result[0]
