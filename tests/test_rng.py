import numpy as np
import pytest

from curvkit import (
    DimensionError,
    GAUSSIAN,
    InitDistribution,
    RADEMACHER,
    RngStream,
    UNIFORM,
)


def moment(dist, order, n_samples, stream):
    """Sample mean of w**order over n_samples fresh draws."""
    return float(np.mean(dist.sample(n_samples, stream) ** order))


def test_same_stream_identical_samples():
    dist = InitDistribution(GAUSSIAN, 1)
    a = dist.sample((1, 1), RngStream(7, 3))
    b = dist.sample((1, 1), RngStream(7, 3))
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    dist = InitDistribution(GAUSSIAN, 8)
    a = dist.sample((8, 4), RngStream(7, 0))
    b = dist.sample((8, 4), RngStream(7, 1))
    assert not np.array_equal(a, b)


def test_gaussian_column_statistics():
    # 1000 draws at variance 1/1000: the mean is within 4 standard errors of
    # zero and the sample variance within 10% of the target.
    dist = InitDistribution(GAUSSIAN, 1000)
    w = dist.sample((1000, 1), RngStream(11, 0))
    assert abs(w.mean()) <= 4.0 / 1000.0
    assert abs(w.var(ddof=1) - 1e-3) <= 1e-4


def test_rademacher_two_point_support():
    dist = InitDistribution(RADEMACHER, 4)
    w = dist.sample((4, 9), RngStream(5, 0))
    assert set(np.unique(w)) <= {-0.5, 0.5}


@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM, RADEMACHER])
def test_second_moment_matches_fan_in(kind):
    dist = InitDistribution(kind, 16)
    m2 = moment(dist, 2, 200_000, RngStream(3, 0))
    assert abs(m2 - 1.0 / 16.0) <= 0.02 / 16.0


@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM, RADEMACHER])
@pytest.mark.parametrize("order", [1, 3])
def test_odd_moments_vanish(kind, order):
    n = 1_000_000
    dist = InitDistribution(kind, 4)
    odd = moment(dist, order, n, RngStream(13, order))
    even = moment(dist, 2 * order, 200_000, RngStream(13, 10 + order))
    stderr = np.sqrt(even / n)  # Var(w^t) <= E(w^{2t})
    assert abs(odd) <= 5.0 * stderr


def test_gaussian_fourth_moment():
    # Unit-variance gaussian: fourth moment 3, checked against the sampler.
    dist = InitDistribution(GAUSSIAN, 1)
    m4 = moment(dist, 4, 1_000_000, RngStream(17, 0))
    assert abs(m4 - 3.0) <= 0.02 * 3.0


def test_rademacher_second_moment_exact():
    dist = InitDistribution(RADEMACHER, 9)
    m2 = moment(dist, 2, 100, RngStream(1, 0))
    assert m2 == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_matrix_product_associativity():
    gen = RngStream(23, 0).generator()
    a, b, c = (gen.standard_normal((64, 64)) for _ in range(3))
    left = (a @ b) @ c
    right = a @ (b @ c)
    assert np.linalg.norm(left - right) <= 1e-12 * np.linalg.norm(left)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        InitDistribution("poisson", 3)
    with pytest.raises(DimensionError):
        InitDistribution(GAUSSIAN, 0)


def numpy_draw(kind, fan_in, shape, gen):
    """The weights numpy's own samplers draw for InitDistribution(kind, fan_in)."""
    scale = 1.0 / np.sqrt(fan_in)
    if kind == GAUSSIAN:
        return gen.normal(0.0, scale, size=shape)
    if kind == UNIFORM:
        half_width = np.sqrt(3.0) * scale
        return gen.uniform(-half_width, half_width, size=shape)
    return (gen.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0) * scale


@pytest.mark.parametrize("kind", [GAUSSIAN, UNIFORM, RADEMACHER])
@pytest.mark.parametrize("fan_in", [1, 3, 16, 64, 257])
@pytest.mark.parametrize("shape", [(5,), (1, 1), (16, 4), (3, 7, 2)])
def test_sample_matches_numpy_draw_bitwise(kind, fan_in, shape):
    dist = InitDistribution(kind, fan_in)
    for seed in range(4):
        gen_ref, gen_new, gen_out = (RngStream(seed, 9).generator() for _ in range(3))
        expected = numpy_draw(kind, fan_in, shape, gen_ref)
        assert dist.sample(shape, gen_new).tobytes() == expected.tobytes()
        out = np.full(shape, np.nan)
        assert dist.sample(shape, gen_out, out=out) is out
        assert out.tobytes() == expected.tobytes()
        # Every generator advanced by the same amount.
        assert gen_ref.random() == gen_new.random() == gen_out.random()


@pytest.mark.parametrize(
    "out",
    [
        np.empty((4, 3)),  # wrong shape
        np.empty((3, 4), dtype=np.float32),  # wrong dtype
        np.empty((4, 3)).T,  # right shape, not C-contiguous
        np.empty((3, 8))[:, ::2],  # strided view
    ],
)
def test_sample_into_bad_out_raises(out):
    with pytest.raises(DimensionError):
        InitDistribution(GAUSSIAN, 3).sample((3, 4), RngStream(0, 0), out=out)
