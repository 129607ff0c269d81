"""Deterministic fan-out of independent trial ranges across processes."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def _call_range(args):
    fn, start, stop = args
    return fn(start, stop)


def map_trial_ranges(fn, n_items: int, n_workers: int = 1) -> np.ndarray:
    """Evaluate fn(start, stop) over [0, n_items) and concatenate in order.

    fn must be picklable and must derive all randomness from the trial
    indices it receives, so results are identical for every worker count.
    The items are split into about four ranges per worker, handed out in
    index order, and the pool never has more workers than ranges.  One
    worker, or one item (the only count that makes a single range), runs in
    this process: a pool of one would only fork and pickle.
    """
    if n_items <= 0:
        return np.empty((0,))
    if n_workers <= 1 or n_items == 1:
        return np.asarray(fn(0, n_items))
    chunk = -(-n_items // (4 * n_workers))
    ranges = [(fn, s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]
    with ProcessPoolExecutor(max_workers=min(n_workers, len(ranges))) as pool:
        parts = list(pool.map(_call_range, ranges))
    return np.concatenate([np.asarray(p) for p in parts])
