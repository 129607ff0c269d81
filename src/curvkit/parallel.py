"""Deterministic fan-out of independent work: trial ranges across
processes, and single numpy calls onto one helper thread (a lane)."""
from __future__ import annotations

import os
import signal
from contextlib import contextmanager

import numpy as np

# The smallest weight matrix, in entries, whose products pay for a hand-off
# to the lane thread.  On 2 cores at one BLAS thread, toy-config training
# with the lane took 1.9-2.1x as long at width 50 (2500 entries), 1.1-1.2x
# at 100, 0.93-0.99x at 128 (16384), 0.75-0.79x at 200 and 0.66-0.68x at 400.
LANE_MIN_ENTRIES = 1 << 14


def _call_range(args):
    fn, start, stop = args
    return fn(start, stop)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _open_pool(n_workers: int):
    """A process pool of n_workers.  concurrent.futures is imported here, so
    a command that opens no pool never pays for the import."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n_workers, initializer=_leave_stops_to_parent)


def _leave_stops_to_parent() -> None:
    """In a worker: ignore Ctrl-C, which reaches the whole process group, so
    that only the parent reports a stop; die on SIGTERM, whatever handler
    fork copied, so that the pool can terminate the worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def map_trial_ranges(fn, n_items: int, n_workers: int = 1) -> np.ndarray:
    """Evaluate fn(start, stop) over [0, n_items) and concatenate in order.

    fn must be picklable and must derive all randomness from the trial
    indices it receives, so results are identical for every worker count.
    The effective worker count is n_workers capped at _usable_cpus(): more
    processes than CPUs would only queue.  The items are split into about
    four ranges per effective worker, handed out in index order, and the
    pool never has more workers than ranges.  One worker, or one item (the
    only count that makes a single range), runs in this process: a pool of
    one would only fork and pickle.

    A range goes out only to a free worker, and none after a range fails:
    the pool counts a queued range as running, past cancel_futures' reach,
    so a failure or Ctrl-C here waits only for the ranges running.
    """
    if n_items <= 0:
        return np.empty((0,))
    n_workers = min(n_workers, _usable_cpus())
    if n_workers <= 1 or n_items == 1:
        return np.asarray(fn(0, n_items))
    chunk = -(-n_items // (4 * n_workers))
    ranges = [(fn, s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]
    from concurrent.futures import FIRST_COMPLETED, wait

    n_workers = min(n_workers, len(ranges))
    pool = _open_pool(n_workers)
    try:
        futures, running = [], set()
        for task in ranges:
            if len(running) == n_workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(f.exception() for f in done):
                    break
            futures.append(pool.submit(_call_range, task))
            running.add(futures[-1])
        parts = [f.result() for f in futures]  # the first failed range in order raises
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return np.concatenate([np.asarray(p) for p in parts])


class Lane:
    """Where a caller sends independent numpy calls: one helper thread, or
    none (the inline lane).

    submit(fn, *args) returns an object whose result() is fn(*args).  The
    inline lane calls fn at once, in the caller.  A thread lane runs the
    calls one at a time in submit order, each under the numpy error state
    the caller had at submit, and a call's exception re-raises at result();
    a call the thread has not started when its result is asked for runs in
    the caller.  So calls in flight together must not depend on each other.
    Either way every call is the same call on the same operands, so a
    caller that only hands whole calls to the lane computes the same bytes
    on both.
    """

    def __init__(self, pool=None):
        self._pool = pool

    @property
    def threaded(self) -> bool:
        return self._pool is not None

    def submit(self, fn, *args):
        if self._pool is None:
            return _Done(fn(*args))
        return _Task(self._pool, (np.geterr(), fn, args))


class _Done:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class _Task:
    """A call handed to the lane thread.  result() runs it in the caller
    instead when the thread has not started it, so a thread that is busy or
    off its CPU holds the caller up by at most the call it is running."""

    __slots__ = ("_call", "_future")

    def __init__(self, pool, call):
        self._call = call
        self._future = pool.submit(_under_errstate, *call)

    def result(self):
        if self._future.cancel():
            return _under_errstate(*self._call)
        return self._future.result()


def _under_errstate(err: dict, fn, args):
    with np.errstate(**err):
        return fn(*args)


INLINE = Lane()


def blas_threads() -> int | None:
    """Threads one BLAS call runs on, read from the OpenBLAS that numpy
    wheels bundle in numpy.libs; None for any other BLAS."""
    import ctypes
    from pathlib import Path

    for path in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return int(get())
    return None


def _lane_pays(largest_matrix: int) -> bool:
    """A helper thread speeds a caller up only with a second CPU to run on,
    BLAS calls that keep to one thread each (two threads each made train
    slower) and products big enough to outweigh the hand-off."""
    return largest_matrix >= LANE_MIN_ENTRIES and _usable_cpus() >= 2 and blas_threads() == 1


def _caller_cpu() -> int | None:
    """The CPU the calling thread last ran on (field 39 of its stat), or
    None where the platform does not say."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _bind_next_cpu(caller_cpu: int | None) -> None:
    """Bind the calling (lane) thread to the usable CPU after caller_cpu.

    Two unbound threads doing products can share one CPU while the other
    idles; binding only the lane keeps them apart without touching the
    caller's affinity.  With no caller CPU known, the thread stays unbound.
    """
    if caller_cpu is None:
        return
    try:
        usable = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {next((c for c in usable if c > caller_cpu), usable[0])})
    except (AttributeError, OSError):
        pass


@contextmanager
def open_lane(largest_matrix: int):
    """The lane for work on weight matrices of up to largest_matrix entries:
    a thread bound to the CPU after the caller's when _lane_pays, else
    INLINE.  On exit the thread finishes its running call, drops pending
    ones and stops, an exception or Ctrl-C included.  concurrent.futures
    is imported here, so that only a caller that opens a thread pays for it.
    """
    if not _lane_pays(largest_matrix):
        yield INLINE
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, initializer=_bind_next_cpu, initargs=(_caller_cpu(),))
    try:
        yield Lane(pool)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
