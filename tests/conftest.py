import pytest

import curvkit.parallel


@pytest.fixture
def thread_lane(monkeypatch):
    """A lane with its one helper thread, whatever the CPUs and the BLAS;
    the thread stops when the test ends."""
    monkeypatch.setattr(curvkit.parallel, "_lane_pays", lambda largest_matrix: True)
    with curvkit.parallel.open_lane(0) as lane:
        assert lane.threaded
        yield lane
