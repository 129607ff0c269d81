import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curvkit import Architecture, Network, load_network, save_network
from curvkit.floattext import CHUNK_CELLS, g17, short


def python_text(a, sep, cell):
    return "".join(sep.join(cell(v) for v in row) + "\n" for row in a.tolist())


def assert_exact(values, cols=7):
    """g17 and short write every value as '%.17g' % v and repr(v) do."""
    values = np.asarray(values, dtype=np.float64).ravel()
    a = np.concatenate([values, np.full(-values.size % cols, 0.5)]).reshape(-1, cols)
    assert "".join(g17(a, " ")) == python_text(a, " ", lambda v: "%.17g" % v)
    assert "".join(short(a, ",")) == python_text(a, ",", repr)


def ulp_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


POWERS_OF_TEN = ulp_neighbours([float(f"1e{k}") for k in range(-5, 17)])
POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))


def ties(digits_before_point, k, count, seed):
    """Odd multiples of 2**-k whose exact decimal has one digit more than
    digits_before_point + k significant digits allow, ending in 5."""
    gen = np.random.default_rng(seed)
    low, high = 10 ** (digits_before_point - 1) * 2**k, 10**digits_before_point * 2**k
    n = gen.integers(low // 2, high // 2, count) * 2 + 1
    return n / 2.0**k


# 14 + 4 digits: the 17-digit rounding is a tie; 13 + 4 and 7 + 10: the 16-digit one.
TIES = np.concatenate([ties(14, 4, 300, 1), ties(13, 4, 300, 2), ties(8, 10, 300, 3),
                       ties(7, 10, 300, 4), ties(1, 16, 300, 5)])

EDGES = np.concatenate([
    POWERS_OF_TEN,
    [1e-4, 1e15, np.nextafter(1e-4, 0.0), np.nextafter(1e15, 0.0)],
    TIES,
    POWERS_OF_TWO,
    [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, np.finfo(float).max,
     np.finfo(float).tiny, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 8 + 1 / 65536],
])


class TestExact:
    @pytest.mark.parametrize("name, values", [
        ("powers of ten and their ulp neighbours", POWERS_OF_TEN),
        ("powers of two", POWERS_OF_TWO),
        ("ties at the 16th and 17th digit", TIES),
        ("all edges", EDGES),
    ])
    def test_edges(self, name, values):
        assert_exact(values)
        assert_exact(-values)

    def test_random_bit_patterns(self):
        gen = np.random.default_rng(0)
        assert_exact(gen.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64))

    def test_random_fast_range(self):
        gen = np.random.default_rng(1)
        values = 10.0 ** gen.uniform(-4.5, 15.5, 20000) * gen.choice([-1.0, 1.0], 20000)
        assert_exact(values)
        assert_exact(gen.standard_normal(20000) * 0.05)  # network weights and dataset inputs

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                  elements=st.floats() | st.floats(1e-4, 1e15)))
    def test_matches_python(self, a):
        assert "".join(g17(a, " ")) == python_text(a, " ", lambda v: "%.17g" % v)
        assert "".join(short(a, ",")) == python_text(a, ",", repr)


class TestBlocks:
    def test_blocks_end_at_rows_and_bound_the_cells(self):
        a = np.random.default_rng(2).standard_normal((3000, 40))
        blocks = list(g17(a, " "))
        assert len(blocks) > 1
        for block in blocks:
            assert block.endswith("\n")
            lines = block.splitlines()
            assert len(lines) * 40 <= CHUNK_CELLS
            assert all(len(line.split(" ")) == 40 for line in lines)

    def test_no_rows(self):
        assert list(short(np.empty((0, 3)), ",")) == []


def test_network_holding_the_edges_round_trips_bitwise(tmp_path):
    cols = 11
    values = np.concatenate([EDGES, np.full(-EDGES.size % cols, 0.5)])
    w1 = values.reshape(-1, cols)
    w2 = np.resize(EDGES, (cols, 1))
    net = Network(Architecture((w1.shape[0], cols, 1)), [w1, w2])
    path = tmp_path / "net.txt"
    save_network(net, path)
    loaded = load_network(path, strict=False)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(net.weights, loaded.weights))
