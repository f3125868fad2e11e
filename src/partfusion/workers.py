"""Independent jobs on forked worker processes, one per CPU the process may use.

The protocols train many small, independent sets of part SVMs. `_forked_map`
runs such jobs on ``os.fork`` workers so that every job executes exactly the
code it would run serially: results, and so every output byte, are the same
whatever the worker count. It uses one worker per CPU in the process's
affinity mask (``taskset -c 0`` makes it serial) and runs serially where
``os.fork`` or ``os.sched_getaffinity`` does not exist. When it forks, no job
runs in the caller, so its heap keeps nothing of the jobs, whatever their order.

Each worker pins itself to its own CPU of the caller's mask: left to the
scheduler, two short-lived workers were often time-sliced on one CPU while
the other idled, so two CPUs took as long as one. The caller's mask is left
as it was. A worker whose CPU has left the mask since the caller read it
runs unpinned.

Forked, not spawned: a spawned worker would pay interpreter start-up and
the package import, and need the features pickled, which costs more than
the small fits it would run. Forking is safe here because the package
starts no Python threads, and OpenBLAS runs on the calling thread alone:
the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller chose a
count, so the workers are the only parallelism and no BLAS thread is left
idle across a ``fork``. Where a caller asked for more BLAS threads,
OpenBLAS's own ``pthread_atfork`` handler shuts its pool down before each
``fork``.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence, TypeVar

J = TypeVar("J")
R = TypeVar("R")


def _deal(costs: Sequence[float], workers: int) -> list[list[int]]:
    """Job indices per worker: longest cost first, each to the least-loaded worker.

    Equal costs go in job order; equal loads go to the worker with fewer
    jobs, then to the lower worker, so the placement is deterministic. Each
    share lists its jobs in ascending order.
    """
    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for job in sorted(range(len(costs)), key=lambda j: (-costs[j], j)):
        w = min(range(workers), key=lambda k: (loads[k], len(shares[k]), k))
        shares[w].append(job)
        loads[w] += costs[job]
    return [sorted(share) for share in shares]


def _run_worker(fn: Callable[[J], R], jobs: Sequence[J], share: list[int], write_fd: int, cpu: int) -> None:
    """Child side: pin to ``cpu``, pickle the share's results, or the exception, into the pipe; never return."""
    status = 0
    try:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU left the mask since the caller read it
            pass
        try:
            payload = pickle.dumps((True, [fn(jobs[i]) for i in share]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # handed to the parent, which re-raises it
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
    except BaseException:  # the parent reports the exit status
        status = 1
    finally:
        os._exit(status)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _forked_map(fn: Callable[[J], R], jobs: Sequence[J], costs: Sequence[float]) -> list[R]:
    """``[fn(j) for j in jobs]``, with the jobs spread over forked workers.

    ``costs[i]`` estimates job i's run time; it only steers the placement
    (see `_deal`). Each non-empty share k runs in its own worker, pinned to
    the k-th CPU of the caller's sorted mask, so no job runs in the caller
    and no two workers share a CPU. Each worker sends its pickled results
    through a pipe and exits with ``os._exit``. The parent reads the pipes in share order
    and reaps every worker, killing the ones still running when it leaves
    early (an error, ``KeyboardInterrupt``). A worker's exception is raised
    again here unchanged; a worker that exits without a result raises
    `RuntimeError` with its exit status.
    """
    jobs = list(jobs)
    if len(costs) != len(jobs):
        raise ValueError(f"{len(jobs)} jobs but {len(costs)} costs")
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if can_fork else []
    workers = min(len(jobs), len(cpus))
    if workers <= 1:
        return [fn(job) for job in jobs]

    running: dict[int, int] = {}  # pid -> read end of its pipe
    share_of: dict[int, list[int]] = {}
    results: list = [None] * len(jobs)
    try:
        for k, share in enumerate(_deal(costs, workers)):
            if not share:
                continue
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_worker(fn, jobs, share, write_fd, cpus[k])
            os.close(write_fd)
            running[pid] = read_fd
            share_of[pid] = share
        for pid, share in share_of.items():
            payload = _read_all(running[pid])
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(running.pop(pid))
            if status != 0 or not payload:
                raise RuntimeError(f"worker process {pid} exited without a result (exit status {status})")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            for i, result in zip(share, value):
                results[i] = result
    finally:
        for pid, read_fd in running.items():
            os.close(read_fd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    return results
