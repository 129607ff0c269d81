import os
import subprocess
import sys

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


def _inline_pool(monkeypatch):
    """Replace the pool opener with an in-process stand-in that starts no
    process; returns the list of pools opened, each with its size and tasks."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = []
            opened.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

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
