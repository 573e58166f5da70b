"""The two-part runner: set-up on the calling thread, then both works at once."""

import threading

import pytest

from schrodlab import parallel
from schrodlab.parallel import run_two


def recorded_parts(events):
    """Two parts whose set-up and work log (event, part, thread name)."""
    def part(name):
        def setup():
            events.append(("setup", name, threading.current_thread().name))
            return lambda: events.append(("work", name, threading.current_thread().name)) or name
        return setup
    return part("first"), part("second")


def test_two_threads_set_up_both_parts_here_before_any_work(monkeypatch, started):
    monkeypatch.setattr(parallel, "_THREADS", 2)
    events = []
    assert run_two(*recorded_parts(events)) == ("first", "second")
    main = threading.main_thread().name
    assert events[:2] == [("setup", "first", main), ("setup", "second", main)]
    assert sorted(events[2:]) == [("work", "first", main), ("work", "second", "schrodlab-part")]
    assert len(started) == 1 and not started[0].is_alive()


def test_one_thread_sets_up_each_part_before_its_work(monkeypatch, started):
    monkeypatch.setattr(parallel, "_THREADS", 1)
    events = []
    assert run_two(*recorded_parts(events)) == ("first", "second")
    assert [e[:2] for e in events] == [("setup", "first"), ("work", "first"),
                                       ("setup", "second"), ("work", "second")]
    assert started == []
