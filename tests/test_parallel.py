import numpy as np

import curvkit.parallel
from curvkit.parallel import map_trial_ranges


def _range_of_each_item(start, stop):
    return np.array([(start, stop)] * (stop - start))


def _inline_pool(monkeypatch):
    """Replace ProcessPoolExecutor with an in-process stand-in that starts no
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

    monkeypatch.setattr(curvkit.parallel, "ProcessPoolExecutor", InlinePool)
    return opened


class TestMapTrialRanges:
    def test_few_items_split_across_workers(self):
        out = map_trial_ranges(_range_of_each_item, 9, 2)
        ranges = list(dict.fromkeys(map(tuple, out.tolist())))
        assert len(ranges) > 1
        # The ranges tile [0, 9) in item order, and each item sees its own range.
        assert ranges[0][0] == 0 and ranges[-1][1] == 9
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(start <= i < stop for i, (start, stop) in enumerate(out.tolist()))

    def test_chunk_is_a_quarter_of_a_worker_share(self, monkeypatch):
        opened = _inline_pool(monkeypatch)
        out = map_trial_ranges(_range_of_each_item, 1000, 2)
        (pool,) = opened
        assert [(s, e) for _, s, e in pool.tasks] == [(s, s + 125) for s in range(0, 1000, 125)]
        assert out.tolist() == [[s - s % 125, s - s % 125 + 125] for s in range(1000)]

    def test_pool_never_larger_than_task_count(self, monkeypatch):
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
