"""Forked job map: same results as the serial map, errors carried back, no child left."""

import os
import signal
import time

import pytest

from partfusion.workers import _deal, _forked_map


@pytest.fixture(autouse=True)
def deadline():
    """A hang fails the test instead of stalling the suite; forked children drop the alarm."""

    def expire(signum, frame):
        raise TimeoutError("no result within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def three_cpus(monkeypatch):
    """Force three workers whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@pytest.fixture
def open_fds():
    return set(os.listdir("/dev/fd"))


def _nothing_left(open_fds):
    """Every worker is reaped and every pipe end closed."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/dev/fd")) == open_fds


def _square_with_pid(j):
    return j * j, os.getpid()


def test_results_come_back_in_job_order(three_cpus, open_fds):
    jobs = list(range(11))
    costs = [1, 5, 2, 2, 9, 1, 1, 3, 0, 4, 2]
    out = _forked_map(_square_with_pid, jobs, costs)
    assert [r for r, _ in out] == [j * j for j in jobs]
    assert len({pid for _, pid in out}) == 3
    assert os.getpid() in {pid for _, pid in out}
    _nothing_left(open_fds)


def test_serial_map_when_affinity_has_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("os.fork called with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _forked_map(lambda j: j + 1, [3, 1, 2], [1, 1, 1]) == [4, 2, 3]


def test_serial_map_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
    assert _forked_map(str, [1, 2], [1, 1]) == ["1", "2"]


def test_one_job_never_forks(three_cpus, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))
    assert _forked_map(abs, [-3], [1]) == [3]


def test_worker_exception_arrives_with_type_and_message(three_cpus, open_fds):
    parent = os.getpid()

    def fail_in_worker(j):
        if os.getpid() != parent:
            raise ValueError(f"bad job {j}")
        return j

    with pytest.raises(ValueError, match=r"^bad job \d+$"):
        _forked_map(fail_in_worker, list(range(6)), [1] * 6)
    _nothing_left(open_fds)


def test_worker_that_dies_gives_runtime_error(three_cpus, open_fds):
    parent = os.getpid()

    def die_in_worker(j):
        if os.getpid() != parent:
            os._exit(3)
        return j

    with pytest.raises(RuntimeError, match="exit status 3"):
        _forked_map(die_in_worker, list(range(6)), [1] * 6)
    _nothing_left(open_fds)


def test_parent_error_kills_and_reaps_running_workers(three_cpus, open_fds):
    parent = os.getpid()

    def interrupt_parent(j):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return j

    with pytest.raises(KeyboardInterrupt):
        _forked_map(interrupt_parent, list(range(3)), [1] * 3)
    _nothing_left(open_fds)


def test_costs_must_match_jobs():
    with pytest.raises(ValueError, match="3 jobs but 2 costs"):
        _forked_map(abs, [1, 2, 3], [1, 1])


def test_deal_places_longest_jobs_first_on_the_least_loaded_worker():
    assert _deal([1, 1, 1, 3, 3, 3], 2) == [[3, 5], [0, 1, 2, 4]]
    assert _deal([5, 4, 3, 3], 2) == [[0, 3], [1, 2]]
    # zero-cost jobs still spread by count
    assert _deal([0, 0, 0, 0], 2) == [[0, 2], [1, 3]]
    assert _deal([2], 3) == [[0], [], []]
