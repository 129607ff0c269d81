import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import curvkit.parallel
from cli_env import child_env
from curvkit.parallel import map_trial_ranges


def _range_of_each_item(start, stop):
    return np.array([(start, stop)] * (stop - start))


def _draw_per_item(start, stop):
    # Randomness keyed by the item index, as map_trial_ranges requires.
    return np.array([np.random.default_rng(i).standard_normal() for i in range(start, stop)])


def _worker_signals(start, stop):
    return np.array([[signal.getsignal(signal.SIGINT) == signal.SIG_IGN,
                      signal.getsignal(signal.SIGTERM) == signal.SIG_DFL]] * (stop - start))


def _inline_pool(monkeypatch):
    """Replace the pool opener with an in-process stand-in that starts no
    process; returns the list of pools opened, each with its size, the tasks
    submitted and the keyword arguments of its shutdown.

    A task runs at submit.  Its Exception is kept in its future, as a worker
    returns it; anything else, a KeyboardInterrupt say, raises at submit, as
    a stop that reaches this process does."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = []
            self.shutdown_kwargs = None
            opened.append(self)

        def submit(self, fn, task):
            self.tasks.append(task)
            future = Future()
            try:
                future.set_result(fn(task))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, **kwargs):
            self.shutdown_kwargs = kwargs

    monkeypatch.setattr(curvkit.parallel, "_open_pool", InlinePool)
    return opened


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(curvkit.parallel, "_usable_cpus", lambda: n)


class TestMapTrialRanges:
    def test_few_items_split_across_workers(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        out = map_trial_ranges(_range_of_each_item, 9, 2)
        ranges = list(dict.fromkeys(map(tuple, out.tolist())))
        assert len(ranges) > 1
        # The ranges tile [0, 9) in item order, and each item sees its own range.
        assert ranges[0][0] == 0 and ranges[-1][1] == 9
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(start <= i < stop for i, (start, stop) in enumerate(out.tolist()))

    def test_chunk_is_a_quarter_of_a_worker_share(self, monkeypatch):
        _usable_cpus(monkeypatch, 64)
        opened = _inline_pool(monkeypatch)
        out = map_trial_ranges(_range_of_each_item, 1000, 2)
        (pool,) = opened
        assert [(s, e) for _, s, e in pool.tasks] == [(s, s + 125) for s in range(0, 1000, 125)]
        assert out.tolist() == [[s - s % 125, s - s % 125 + 125] for s in range(1000)]

    def test_pool_never_larger_than_task_count(self, monkeypatch):
        _usable_cpus(monkeypatch, 64)
        opened = _inline_pool(monkeypatch)
        map_trial_ranges(_range_of_each_item, 9, 16)
        (pool,) = opened
        assert len(pool.tasks) == 9
        assert pool.max_workers == 9
        map_trial_ranges(_range_of_each_item, 1000, 2)
        assert opened[1].max_workers == 2

    def test_no_items(self):
        assert map_trial_ranges(_range_of_each_item, 0, 2).shape == (0,)

    def test_thread_lane_shares_the_ranges_of_one_worker(self, thread_lane):
        # Four ranges per thread, caller and lane: 1000 items in eight of 125.
        out = map_trial_ranges(_range_of_each_item, 1000, 1, thread_lane)
        assert out.tolist() == [[s - s % 125, s - s % 125 + 125] for s in range(1000)]
        assert map_trial_ranges(_range_of_each_item, 1, 1, thread_lane).tolist() == [[0, 1]]

    def test_one_item_opens_no_pool(self, monkeypatch):
        opened = _inline_pool(monkeypatch)
        out = map_trial_ranges(_range_of_each_item, 1, 2)
        assert opened == []
        assert out.tolist() == map_trial_ranges(_range_of_each_item, 1, 1).tolist() == [[0, 1]]

    @pytest.mark.parametrize("n_workers", [3, 5000])
    def test_workers_capped_at_usable_cpus(self, monkeypatch, n_workers):
        _usable_cpus(monkeypatch, 3)
        opened = _inline_pool(monkeypatch)
        out = map_trial_ranges(_range_of_each_item, 1000, n_workers)
        (pool,) = opened
        # Ranges are cut for the three usable CPUs, not for the request.
        assert pool.max_workers == 3
        assert [(s, e) for _, s, e in pool.tasks] == [(s, min(s + 84, 1000)) for s in range(0, 1000, 84)]
        assert np.array_equal(np.concatenate([_range_of_each_item(s, e) for _, s, e in pool.tasks]), out)

    def test_one_usable_cpu_opens_no_pool(self, monkeypatch):
        _usable_cpus(monkeypatch, 1)
        opened = _inline_pool(monkeypatch)
        out = map_trial_ranges(_range_of_each_item, 1000, 5000)
        assert opened == []
        assert out.tolist() == [[0, 1000]] * 1000

    def test_outputs_identical_at_any_worker_count(self, monkeypatch):
        _usable_cpus(monkeypatch, 8)
        _inline_pool(monkeypatch)
        want = map_trial_ranges(_draw_per_item, 100, 1)
        for n_workers in (2, 3, 8, 5000):
            assert np.array_equal(map_trial_ranges(_draw_per_item, 100, n_workers), want)


class TestPoolStops:
    """A stop, or a failed range, hands out no further range and cancels
    what the pool has not started."""

    def test_interrupt_hands_out_no_further_range(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        opened = _inline_pool(monkeypatch)

        def interrupted_at_250(start, stop):
            if start == 250:
                raise KeyboardInterrupt
            return _range_of_each_item(start, stop)

        with pytest.raises(KeyboardInterrupt):
            map_trial_ranges(interrupted_at_250, 1000, 2)
        (pool,) = opened
        assert [s for _, s, _ in pool.tasks] == [0, 125, 250]
        assert pool.shutdown_kwargs == {"wait": True, "cancel_futures": True}

    def test_failed_range_hands_out_no_further_range(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        opened = _inline_pool(monkeypatch)

        def fails_from_125(start, stop):
            if start >= 125:
                raise ValueError(f"range at {start}")
            return _range_of_each_item(start, stop)

        # The first failed range in index order is the one reported.
        with pytest.raises(ValueError, match="range at 125"):
            map_trial_ranges(fails_from_125, 1000, 2)
        (pool,) = opened
        assert [s for _, s, _ in pool.tasks] == [0, 125]
        assert pool.shutdown_kwargs == {"wait": True, "cancel_futures": True}

    def test_workers_leave_stops_to_the_parent(self, monkeypatch):
        # Two workers, forked while a Python SIGTERM handler (as cli.main
        # installs) is in place: each ignores SIGINT and dies on SIGTERM.
        _usable_cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            out = map_trial_ranges(_worker_signals, 8, 2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert out.shape == (8, 2) and out.all()


class TestUsableCpus:
    def test_affinity_set_counts(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert curvkit.parallel._usable_cpus() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert curvkit.parallel._usable_cpus() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert curvkit.parallel._usable_cpus() == 1


def test_importing_the_cli_imports_no_pool_machinery():
    # Only a pool of more than one worker needs concurrent.futures, which
    # brings multiprocessing with it.
    probe = ("import sys, curvkit.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestLane:
    def test_inline_lane_runs_at_submit(self):
        calls = []
        done = curvkit.parallel.INLINE.submit(lambda a, b: calls.append(a) or a + b, 2, 3)
        assert calls == [2]
        assert done.result() == 5
        assert not curvkit.parallel.INLINE.threaded

    def test_thread_lane_calls_run_under_the_callers_error_state(self, thread_lane):
        with np.errstate(over="ignore", divide="raise"):
            tasks = [thread_lane.submit(np.geterr) for _ in range(5)]
        for task in tasks:
            assert task.result()["over"] == "ignore"
            assert task.result()["divide"] == "raise"

    def test_call_not_started_runs_in_the_caller(self, thread_lane):
        started, release = threading.Event(), threading.Event()

        def hold():
            started.set()
            return release.wait(30) and threading.get_ident()

        busy = thread_lane.submit(hold)
        queued = thread_lane.submit(threading.get_ident)
        assert started.wait(30)
        assert queued.result() == threading.get_ident()  # while the thread is busy
        release.set()
        assert busy.result() not in (False, threading.get_ident())

    def test_task_exception_reraises_at_result(self, thread_lane):
        def fail():
            raise ValueError("in the lane")

        task = thread_lane.submit(fail)
        with pytest.raises(ValueError, match="in the lane"):
            task.result()
        assert thread_lane.submit(int, "7").result() == 7

    def test_closing_stops_the_thread_after_an_abort(self, monkeypatch):
        monkeypatch.setattr(curvkit.parallel, "_lane_pays", lambda largest_matrix: True)
        before, start = threading.active_count(), time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            with curvkit.parallel.open_lane(0) as lane:
                lane.submit(time.sleep, 0.05)
                lane.submit(time.sleep, 60)  # dropped: never started
                assert threading.active_count() == before + 1
                raise KeyboardInterrupt
        assert threading.active_count() == before
        assert time.perf_counter() - start < 30


class TestLaneSelection:
    @pytest.mark.parametrize("cpus, blas, entries", [
        (1, 1, 1 << 20),  # no second CPU
        (2, 2, 1 << 20),  # BLAS already uses the second CPU
        (2, None, 1 << 20),  # a BLAS whose threads cannot be read
        (2, 1, (1 << 14) - 1),  # products too small to pay for a hand-off
    ])
    def test_inline(self, monkeypatch, cpus, blas, entries):
        _usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(curvkit.parallel, "blas_threads", lambda: blas)
        before = threading.active_count()
        with curvkit.parallel.open_lane(entries) as lane:
            assert lane is curvkit.parallel.INLINE
            assert threading.active_count() == before

    def test_thread(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(curvkit.parallel, "blas_threads", lambda: 1)
        before = threading.active_count()
        with curvkit.parallel.open_lane(1 << 14) as lane:
            assert lane.threaded
            assert lane.submit(sum, [1, 2]).result() == 3
            assert threading.active_count() == before + 1
        assert threading.active_count() == before

    def test_blas_threads_read_from_the_bundled_openblas(self):
        # One BLAS thread pinned by the environment reads back as 1, unless
        # numpy links a BLAS other than its bundled OpenBLAS.
        env = {**child_env(), "OPENBLAS_NUM_THREADS": "1"}
        probe = "import curvkit.parallel as p; print(p.blas_threads())"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() in ("1", "None")


class TestLaneBinding:
    @pytest.mark.parametrize("caller, bound", [(0, {1}), (1, {3}), (2, {3}), (3, {0}), (7, {0})])
    def test_binds_to_the_usable_cpu_after_the_callers(self, monkeypatch, caller, bound):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 3}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)),
                            raising=False)
        curvkit.parallel._bind_next_cpu(caller)
        assert calls == [(0, bound)]

    def test_unknown_caller_cpu_leaves_the_thread_unbound(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus),
                            raising=False)
        curvkit.parallel._bind_next_cpu(None)
        assert calls == []

    def test_caller_cpu_is_usable_or_unknown(self):
        cpu = curvkit.parallel._caller_cpu()
        assert cpu is None or cpu in os.sched_getaffinity(0)
