import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvkit import (
    Architecture,
    DimensionError,
    DirectionError,
    Network,
    RngStream,
    SymmetryError,
    curvature_projection,
    decompose,
    estimate_curvature,
    fd_hessian,
    hvp,
    init_network,
    loss_and_gradient,
    psd_check,
    squared_error,
)
import curvkit.curvature
import curvkit.diff
from test_diff import moved, relu_net_off_kinks, traced_peak


def chain(weights, activation="identity"):
    return Network(
        Architecture((1,) * (len(weights) + 1), activation),
        [np.array([[float(w)]]) for w in weights],
    )


def random_net(widths, seed, activation="identity"):
    return init_network(Architecture(widths, activation), "gaussian", RngStream(seed, 0))


class TestDecompose:
    def test_hand_example(self):
        dec = decompose(chain([1.0, 1.0]), [[1.0]], [0.0], squared_error())
        assert np.array_equal(dec.gauss_newton, [[2.0, 2.0], [2.0, 2.0]])
        assert np.array_equal(dec.functional, [[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(dec.hessian, [[2.0, 4.0], [4.0, 2.0]])

    def test_functional_part_vanishes_at_fit(self):
        net = chain([2.0, 3.0])
        dec = decompose(net, [[1.0]], [6.0], squared_error())
        assert np.array_equal(dec.functional, np.zeros((2, 2)))

    def test_sum_is_exact_by_construction(self):
        net = random_net((3, 4, 3, 1), 70)
        gen = RngStream(71, 0).generator()
        xs = gen.standard_normal((4, 3))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        dec = decompose(net, xs, ts, squared_error())
        assert np.array_equal(dec.gauss_newton + dec.functional, dec.hessian)

    def test_matches_fd_oracle(self):
        net = random_net((3, 4, 3, 1), 72)
        gen = RngStream(73, 0).generator()
        xs = gen.standard_normal((4, 3))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        dec = decompose(net, xs, ts, squared_error())
        ref = fd_hessian(net, xs, ts, squared_error())
        assert np.linalg.norm(dec.hessian - ref) <= 1e-4 * np.linalg.norm(ref)

    def test_relu_route_matches_fd_oracle(self):
        gen = RngStream(75, 0).generator()
        xs = gen.standard_normal((4, 3))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        net = relu_net_off_kinks((3, 4, 3, 1), 74, xs)
        dec = decompose(net, xs, ts, squared_error())
        assert np.array_equal(dec.gauss_newton + dec.functional, dec.hessian)
        ref = fd_hessian(net, xs, ts, squared_error())
        assert np.linalg.norm(dec.hessian - ref) <= 1e-6 * np.linalg.norm(ref)
        asym = np.linalg.norm(dec.hessian - dec.hessian.T)
        assert asym <= 1e-12 * np.linalg.norm(dec.hessian)
        report = psd_check(dec.gauss_newton)
        assert report.passed

    def test_one_batch_forward_pass(self, monkeypatch):
        # The per-sample gradients read the trace decompose already made.
        calls = []

        def counted(real):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return wrapper

        for module in (curvkit.curvature, curvkit.diff):
            monkeypatch.setattr(module, "batch_forward", counted(module.batch_forward))
        net = random_net((12, 12, 12, 12, 1), 82, "relu")
        gen = RngStream(83, 0).generator()
        xs = gen.standard_normal((4, 12))
        dec = decompose(net, xs, [1.0, -1.0, 1.0, -1.0], squared_error())
        assert len(calls) == 1
        assert np.array_equal(dec.gauss_newton + dec.functional, dec.hessian)

    def test_relu_route_matches_hvp_columns(self):
        # decompose's closed form and the R-op share no code.
        net = random_net((4, 6, 5, 1), 80, "relu")
        gen = RngStream(81, 0).generator()
        xs = gen.standard_normal((7, 4))
        ts = gen.integers(0, 2, 7) * 2.0 - 1.0
        dec = decompose(net, xs, ts, squared_error())
        eye = np.eye(net.param_index.n_params)
        columns = np.column_stack([hvp(net, xs, ts, squared_error(), e) for e in eye])
        assert np.linalg.norm(dec.hessian - columns) <= 1e-12 * np.linalg.norm(columns)
        assert np.linalg.norm(dec.functional) > 0.1 * np.linalg.norm(dec.hessian)


class TestDecomposePeakMemory:
    """decompose holds its three parts, or two and one sample's term."""

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_holds_three_dense_matrices(self, activation):
        # P = 990: each sample's output Hessian is scaled in place, so no
        # fourth P x P matrix joins the two parts and the term.
        net = random_net((18, 18, 18, 18, 1), 90, activation)
        gen = RngStream(91, 0).generator()
        xs = gen.standard_normal((4, 18))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        P = net.param_index.n_params
        dec, peak = traced_peak(decompose, net, xs, ts, squared_error())
        assert peak < 3.5 * P * P * 8
        assert np.array_equal(dec.gauss_newton + dec.functional, dec.hessian)


class TestProjection:
    def test_hand_example(self):
        m = np.array([[2.0, 4.0], [4.0, 2.0]])
        assert curvature_projection(m, np.array([1.0, 1.0])) == pytest.approx(6.0, rel=1e-12)

    def test_identity_matrix(self):
        g = np.array([3.0, -1.0, 2.0])
        assert curvature_projection(np.eye(3), g) == pytest.approx(1.0, rel=1e-12)

    def test_operator_route_matches_dense(self):
        net = random_net((3, 3, 1), 76)
        gen = RngStream(77, 0).generator()
        xs = gen.standard_normal((3, 3))
        g = loss_and_gradient(net, xs, 1.0, squared_error())[1]
        dense = fd_hessian(net, xs, 1.0, squared_error())
        via_dense = curvature_projection(dense, g)
        via_op = curvature_projection(lambda v: hvp(net, xs, 1.0, squared_error(), v), g)
        assert via_op == pytest.approx(via_dense, abs=1e-5)

    def test_zero_gradient_rejected(self):
        with pytest.raises(DirectionError):
            curvature_projection(np.eye(2), np.zeros(2))


class TestPsdCheck:
    def test_rank_one_spectrum(self):
        g_w = np.array([1.0, 2.0, -1.0])
        mat = 2.0 * np.outer(g_w, g_w)  # single sample, curvature 2
        report = psd_check(mat)
        assert report.min_eigenvalue >= -1e-12
        eigs = np.linalg.eigvalsh(mat)
        positive = eigs[eigs > 1e-10]
        assert positive.size == 1
        assert positive[0] == pytest.approx(2.0 * float(g_w @ g_w), rel=1e-12)

    def test_hand_eigensystem(self):
        eigs = np.linalg.eigvalsh(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(eigs, [0.0, 4.0], atol=1e-12)
        report = psd_check(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert report.passed

    def test_random_batch_gauss_newton_passes(self):
        net = random_net((4, 4, 1), 78)
        gen = RngStream(79, 0).generator()
        xs = gen.standard_normal((6, 4))
        ts = gen.integers(0, 2, 6) * 2.0 - 1.0
        dec = decompose(net, xs, ts, squared_error())
        assert psd_check(dec.gauss_newton).passed

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestEstimator:
    def test_first_order_exact_step(self):
        assert estimate_curvature(1.0, 0.99, 1.0, 0.01) == pytest.approx(0.0, abs=1e-10)

    def test_quadratic_oracle_values(self):
        # L(w) = w^2 / 2: a step from w = 1 and from w = 2.
        assert estimate_curvature(0.5, 0.405, 1.0, 0.1) == pytest.approx(0.5, abs=1e-12)
        assert estimate_curvature(2.0, 1.62, 4.0, 0.1) == pytest.approx(2.0, abs=1e-12)

    def test_rate_must_be_positive(self):
        with pytest.raises(DimensionError):
            estimate_curvature(1.0, 0.9, 1.0, 0.0)

    @given(
        curv=st.floats(min_value=0.1, max_value=5.0),
        w=st.floats(min_value=-3.0, max_value=3.0),
        lr=st.floats(min_value=1e-4, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_on_quadratics(self, curv, w, lr):
        # L(w) = curv * w^2 / 2: after one exact gradient step the estimator
        # recovers half the quadratic form regardless of the rate.
        grad = curv * w
        w_next = w - lr * grad
        loss_t, loss_t1 = 0.5 * curv * w**2, 0.5 * curv * w_next**2
        got = estimate_curvature(loss_t, loss_t1, grad**2, lr)
        expected = 0.5 * curv * grad**2
        # Rounding of the loss difference is amplified by 1/lr^2.
        rounding = 8.0 * np.finfo(float).eps * max(loss_t, 1.0) / lr**2
        assert got == pytest.approx(expected, rel=1e-7, abs=rounding)

    def test_error_shrinks_linearly_with_rate(self):
        # Deep linear net with squared error: the estimator's deviation from
        # half the exact quadratic form is first order in the rate.
        net = random_net((5, 6, 5, 1), 81)
        gen = RngStream(82, 0).generator()
        xs = gen.standard_normal((8, 5))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ts = gen.integers(0, 2, 8) * 2.0 - 1.0
        loss = squared_error()
        from curvkit import batch_loss

        base = batch_loss(net, xs, ts, loss)
        g = loss_and_gradient(net, xs, ts, loss)[1]
        g_sq = float(g @ g)
        exact_half = 0.5 * float(g @ hvp(net, xs, ts, loss, g))
        errors = []
        for lr in (1e-2, 5e-3, 2.5e-3):
            stepped = moved(net, net.param_vector() - lr * g)
            after = batch_loss(stepped, xs, ts, loss)
            est = estimate_curvature(base, after, g_sq, lr)
            errors.append(abs(est - exact_half))
        for big, small in zip(errors, errors[1:]):
            assert 1.5 <= big / small <= 2.5
