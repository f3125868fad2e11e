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
    assert os.getpid() not in {pid for _, pid in out}
    _nothing_left(open_fds)


@pytest.mark.parametrize("n_jobs", [2, 3, 10])
def test_no_job_runs_in_the_caller(three_cpus, open_fds, n_jobs):
    ran_here = []

    def record(j):
        ran_here.append(j)
        return -j

    assert _forked_map(record, list(range(n_jobs)), [1] * n_jobs) == [-j for j in range(n_jobs)]
    assert ran_here == []
    _nothing_left(open_fds)


def test_serial_map_when_affinity_has_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("os.fork called with one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pytest.fail("the caller was pinned"))
    assert _forked_map(lambda j: j + 1, [3, 1, 2], [1, 1, 1]) == [4, 2, 3]


_REAL_AFFINITY = os.sched_getaffinity if hasattr(os, "sched_getaffinity") else None


def _pid_and_cpus(j):
    return os.getpid(), frozenset(_REAL_AFFINITY(0))


@pytest.mark.skipif(
    _REAL_AFFINITY is None or len(_REAL_AFFINITY(0)) < 2, reason="pins workers to two or more CPUs"
)
def test_each_worker_runs_on_its_own_cpu(open_fds):
    mask = _REAL_AFFINITY(0)
    out = _forked_map(_pid_and_cpus, list(range(8)), [1] * 8)
    cpus_of = dict(out)
    assert len(cpus_of) == min(8, len(mask))
    assert all(len(cpus) == 1 and cpus <= mask for cpus in cpus_of.values())
    assert len(set(cpus_of.values())) == len(cpus_of)  # no two workers share a CPU
    assert _REAL_AFFINITY(0) == mask  # the caller keeps its mask
    _nothing_left(open_fds)


def test_a_worker_that_cannot_be_pinned_runs_unpinned(three_cpus, monkeypatch, open_fds):
    def lost_cpu(pid, cpus):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", lost_cpu)
    out = _forked_map(_square_with_pid, list(range(6)), [1] * 6)
    assert [r for r, _ in out] == [j * j for j in range(6)]
    assert len({pid for _, pid in out}) == 3
    _nothing_left(open_fds)


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
    # One job per worker. The parent reads job 0's worker first while the
    # others sleep; that worker fails, or interrupts the waiting parent.
    parent = os.getpid()

    def fail_first(j):
        if j == 0:
            raise ValueError("first worker failed")
        time.sleep(60)
        return j

    def interrupt_parent(j):
        if j == 0:
            time.sleep(0.2)  # the parent is waiting on this pipe by now
            os.kill(parent, signal.SIGINT)
        time.sleep(60)
        return j

    for fn, error in ((fail_first, ValueError), (interrupt_parent, KeyboardInterrupt)):
        start = time.monotonic()
        with pytest.raises(error):
            _forked_map(fn, list(range(3)), [1] * 3)
        assert time.monotonic() - start < 10
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
