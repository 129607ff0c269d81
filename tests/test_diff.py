import numpy as np
import pytest

from curvkit import (
    ActivationError,
    Architecture,
    CapacityError,
    DimensionError,
    DirectionError,
    Network,
    RngStream,
    batch_loss,
    directional_output_curvature,
    fd_hessian,
    ggn_vp,
    gradient_curvatures,
    half_squared_error,
    hvp,
    init_network,
    loss_and_gradient,
    loss_gradient,
    output_gradient,
    output_hessian,
    output_hessian_grad_product,
    output_hessian_vp,
    per_sample_output_gradients,
    raw_output,
    squared_error,
)
from curvkit.curvature import curvature_projection
from curvkit.diff import _QUART_EPS, _loss_at_param_stack


def chain(weights, activation="identity"):
    return Network(
        Architecture((1,) * (len(weights) + 1), activation),
        [np.array([[float(w)]]) for w in weights],
    )


def random_net(widths, seed, activation="identity"):
    return init_network(Architecture(widths, activation), "gaussian", RngStream(seed, 0))


def fd_gradient(f, w0, step=1e-5):
    """Central-difference gradient oracle, independent of the backward pass."""
    grad = np.empty_like(w0)
    for a in range(w0.size):
        hi = w0.copy()
        hi[a] += step
        lo = w0.copy()
        lo[a] -= step
        grad[a] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


class TestLossFunctions:
    @pytest.mark.parametrize(
        "loss", [squared_error(0.3), half_squared_error(-1.0), raw_output()]
    )
    def test_derivatives_match_finite_differences(self, loss):
        ys = np.linspace(-2.0, 2.0, 9)
        h = 1e-6
        d1_fd = (loss.value(ys + h) - loss.value(ys - h)) / (2 * h)
        d2_fd = (loss.value(ys + h) - 2 * loss.value(ys) + loss.value(ys - h)) / h**2
        assert np.allclose(loss.d1(ys), d1_fd, rtol=1e-6, atol=1e-6)
        assert np.allclose(loss.d2(ys), d2_fd, rtol=1e-3, atol=1e-3)

    def test_curvature_lower_bounds(self):
        assert squared_error().curvature_min == 2.0
        assert half_squared_error().curvature_min == 1.0
        assert raw_output().curvature_min == 0.0

    def test_per_sample_targets_override_default(self):
        loss = squared_error(0.0)
        assert loss.value(1.0, 1.0) == 0.0
        assert loss.value(1.0) == 1.0


class TestOutputGradient:
    def test_scalar_chain_hand_value(self):
        g = output_gradient(chain([2.0, 3.0]), [1.0])
        assert np.array_equal(g, [3.0, 2.0])  # first-layer weight first

    def test_single_layer_gradient_is_input(self):
        net = random_net((5, 1), 1)
        x = np.array([0.3, -0.2, 1.0, 0.0, 2.0])
        assert np.allclose(output_gradient(net, x), x, atol=0)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_matches_finite_differences(self, activation):
        for seed in range(10):
            net = random_net((4, 5, 3, 1), 100 + seed, activation)
            x = RngStream(200 + seed, 0).generator().standard_normal(4)
            g = output_gradient(net, x)

            def f(w):
                return float(batch_loss(net.with_params(w), x, 0.0, raw_output()))

            ref = fd_gradient(f, net.param_vector())
            assert np.linalg.norm(g - ref) <= 1e-6 * max(np.linalg.norm(ref), 1e-12)


class TestLossGradient:
    def test_hand_value(self):
        g = loss_gradient(chain([1.0, 1.0]), [[1.0]], [0.0], squared_error())
        assert np.allclose(g, [2.0, 2.0], atol=0)

    def test_zero_at_exact_fit(self):
        net = chain([2.0, 3.0])
        g = loss_gradient(net, [[1.0]], [6.0], squared_error())
        assert np.array_equal(g, [0.0, 0.0])

    def test_duplicated_sample_equals_single(self):
        net = random_net((3, 2, 1), 31)
        x = np.array([[0.1, 0.5, -0.4]])
        single = loss_gradient(net, x, [1.0], squared_error())
        double = loss_gradient(net, np.vstack([x, x]), [1.0, 1.0], squared_error())
        assert np.allclose(single, double, atol=1e-16)

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionError):
            loss_gradient(chain([1.0]), np.empty((0, 1)), [], squared_error())

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_matches_finite_differences(self, activation):
        for seed in range(10):
            net = random_net((4, 4, 4, 1), 300 + seed, activation)
            gen = RngStream(400 + seed, 0).generator()
            xs = gen.standard_normal((5, 4))
            ts = gen.integers(0, 2, 5) * 2.0 - 1.0
            g = loss_gradient(net, xs, ts, squared_error())

            def f(w):
                return batch_loss(net.with_params(w), xs, ts, squared_error())

            ref = fd_gradient(f, net.param_vector())
            assert np.linalg.norm(g - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_loss_and_gradient_agree_with_parts(self):
        net = random_net((3, 3, 1), 32)
        xs = RngStream(33, 0).generator().standard_normal((4, 3))
        value, g = loss_and_gradient(net, xs, 1.0, squared_error())
        assert value == pytest.approx(batch_loss(net, xs, 1.0, squared_error()), rel=0)
        assert np.array_equal(g, loss_gradient(net, xs, 1.0, squared_error()))


class TestOutputHessianDense:
    def test_single_layer_is_zero(self):
        net = random_net((4, 1), 41)
        assert np.array_equal(output_hessian(net, [1.0, 0.0, 0.0, 0.0]), np.zeros((4, 4)))

    def test_two_layer_chain(self):
        h = output_hessian(chain([1.0, 1.0]), [1.0])
        assert np.array_equal(h, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_layer_chain_all_ones(self):
        h = output_hessian(chain([1.0, 1.0, 1.0]), [1.0])
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(h, expected)

    def test_symmetry_on_random_nets(self):
        for seed in range(20):
            net = random_net((3, 4, 2, 3, 1), 500 + seed)
            x = RngStream(600 + seed, 0).generator().standard_normal(3)
            h = output_hessian(net, x)
            assert np.linalg.norm(h - h.T) <= 1e-10 * max(np.linalg.norm(h), 1e-300)

    def test_matches_fd_oracle(self):
        for seed in range(5):
            net = random_net((4, 5, 3, 1), 700 + seed)
            x = RngStream(800 + seed, 0).generator().standard_normal(4)
            dense = output_hessian(net, x)
            ref = fd_hessian(net, x, 0.0, raw_output())
            assert np.linalg.norm(dense - ref) <= 1e-5 * np.linalg.norm(ref)

    def test_relu_unsupported(self):
        net = random_net((3, 3, 1), 42, "relu")
        with pytest.raises(ActivationError):
            output_hessian(net, [1.0, 0.0, 0.0])

    def test_capacity_cap(self):
        net = random_net((4, 4, 1), 43)
        with pytest.raises(CapacityError):
            output_hessian(net, [1.0, 0.0, 0.0, 0.0], dense_cap=10)


class TestOutputHessianGradProduct:
    def test_single_layer_zero(self):
        net = random_net((4, 1), 44)
        assert np.array_equal(
            output_hessian_grad_product(net, [0.5, 0.5, 0.5, 0.5]), np.zeros(4)
        )

    def test_two_layer_chain_hand_value(self):
        net = chain([1.0, 1.0])
        product = output_hessian_grad_product(net, [1.0])
        assert np.array_equal(product, [1.0, 1.0])
        g = output_gradient(net, [1.0])
        assert float(g @ product) == 2.0

    @pytest.mark.parametrize(
        "widths", [(4, 5, 6, 3, 1), (3, 1), (2, 3, 1), (5, 4, 3, 2, 6, 1), (2, 2, 2, 2, 2, 2, 1)]
    )
    def test_matches_dense_route(self, widths):
        for seed in range(4):
            net = random_net(widths, 900 + seed)
            x = RngStream(1000 + seed, 0).generator().standard_normal(widths[0])
            dense = output_hessian(net, x)
            g = output_gradient(net, x)
            ref = dense @ g
            cases = output_hessian_grad_product(net, x)
            scale = max(np.linalg.norm(ref), 1e-300)
            assert np.linalg.norm(cases - ref) <= 1e-10 * scale

    def test_relu_unsupported(self):
        net = random_net((3, 3, 1), 45, "relu")
        with pytest.raises(ActivationError):
            output_hessian_grad_product(net, [1.0, 0.0, 0.0])


def relu_net_off_kinks(widths, seed, x):
    """A relu net whose hidden pre-activations at x all keep |z| > 1e-3, so
    the finite-difference oracle's stencil stays on one smooth piece."""
    net = random_net(widths, seed, "relu")
    act = np.asarray(x, dtype=np.float64)
    for w in net.weights[:-1]:
        z = act @ w
        assert np.min(np.abs(z)) > 1e-3
        act = np.maximum(z, 0.0)
    return net


class TestOutputHessianVp:
    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_relu_matches_fd_oracle(self, seed):
        gen = RngStream(seed, 1).generator()
        x = gen.standard_normal(4)
        net = relu_net_off_kinks((4, 5, 6, 3, 1), seed, x)
        dense = fd_hessian(net, x, 0.0, raw_output())
        for _ in range(5):
            v = gen.standard_normal(net.param_index.n_params)
            ref = dense @ v
            got = output_hessian_vp(net, x, v)
            assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_matches_dense_route(self):
        net = random_net((4, 5, 6, 3, 1), 46)
        gen = RngStream(47, 0).generator()
        x = gen.standard_normal(4)
        dense = output_hessian(net, x)
        for _ in range(5):
            v = gen.standard_normal(net.param_index.n_params)
            ref = dense @ v
            got = output_hessian_vp(net, x, v)
            assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)

    def test_reduces_to_case_formula_on_gradient(self):
        net = random_net((3, 4, 2, 1), 48)
        x = RngStream(49, 0).generator().standard_normal(3)
        g = output_gradient(net, x)
        a = output_hessian_vp(net, x, g)
        b = output_hessian_grad_product(net, x)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


class TestFdHessian:
    def test_linear_model_constant_hessian(self):
        net = random_net((3, 1), 51)
        gen = RngStream(52, 0).generator()
        xs = gen.standard_normal((6, 3))
        ts = gen.standard_normal(6)
        got = fd_hessian(net, xs, ts, squared_error())
        expected = 2.0 * xs.T @ xs / 6.0
        assert np.max(np.abs(got - expected)) <= 1e-6

    def test_single_parameter_quadratic(self):
        net = Network(Architecture((1, 1)), [np.array([[0.7]])])
        got = fd_hessian(net, [[1.0]], [0.0], half_squared_error())
        assert abs(got[0, 0] - 1.0) <= 1e-8

    def test_symmetric(self):
        net = random_net((3, 3, 1), 53)
        xs = RngStream(54, 0).generator().standard_normal((4, 3))
        h = fd_hessian(net, xs, 1.0, squared_error())
        assert np.linalg.norm(h - h.T) == 0.0  # symmetrized by construction

    def test_capacity_cap(self):
        net = random_net((30, 30, 1), 55)
        with pytest.raises(CapacityError):
            fd_hessian(net, np.ones((1, 30)), [0.0], squared_error(), dense_cap=100)


def loop_fd_hessian(net, xs, ts, loss):
    """fd_hessian as written before its stencil was vectorized: one Python
    loop over the pairs a < b builds the stack, another reads the values."""
    P = net.param_index.n_params
    w0 = net.param_vector()
    h = _QUART_EPS * (1.0 + np.abs(w0))
    x = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    t = np.asarray(ts, dtype=np.float64)

    def eval_stack(stack):
        return _loss_at_param_stack(net, x, t, loss, stack)

    f0 = float(eval_stack(w0[None, :])[0])
    hess = np.zeros((P, P))
    diag_stack = np.repeat(w0[None, :], 2 * P, axis=0)
    diag_stack[np.arange(P), np.arange(P)] += h
    diag_stack[P + np.arange(P), np.arange(P)] -= h
    f_diag = eval_stack(diag_stack)
    hess[np.arange(P), np.arange(P)] = (f_diag[:P] - 2.0 * f0 + f_diag[P:]) / h**2
    pairs = [(a, b) for a in range(P) for b in range(a + 1, P)]
    chunk = max(1, 65536 // max(P, 1))
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        m = len(block)
        stack = np.repeat(w0[None, :], 4 * m, axis=0)
        for i, (a, b) in enumerate(block):
            stack[4 * i + 0, a] += h[a]
            stack[4 * i + 0, b] += h[b]
            stack[4 * i + 1, a] += h[a]
            stack[4 * i + 1, b] -= h[b]
            stack[4 * i + 2, a] -= h[a]
            stack[4 * i + 2, b] += h[b]
            stack[4 * i + 3, a] -= h[a]
            stack[4 * i + 3, b] -= h[b]
        vals = eval_stack(stack).reshape(m, 4)
        for i, (a, b) in enumerate(block):
            v = (vals[i, 0] - vals[i, 1] - vals[i, 2] + vals[i, 3]) / (4.0 * h[a] * h[b])
            hess[a, b] = v
            hess[b, a] = v
    return 0.5 * (hess + hess.T)


class TestFdHessianStencil:
    # P = 59 (one chunk of pairs) and P = 114 (twelve chunks).
    @pytest.mark.parametrize(
        "widths, activation", [((4, 6, 5, 1), "identity"), ((6, 6, 6, 6, 1), "relu")]
    )
    def test_bitwise_equal_to_loop_stencil(self, widths, activation):
        net = random_net(widths, 90, activation)
        gen = RngStream(91, 0).generator()
        xs = gen.standard_normal((4, widths[0]))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        got = fd_hessian(net, xs, ts, squared_error())
        assert np.array_equal(got, loop_fd_hessian(net, xs, ts, squared_error()))


class TestHvp:
    def test_zero_direction(self):
        net = chain([1.0, 1.0])
        out = hvp(net, [[1.0]], [0.0], squared_error(), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_hand_example(self):
        net = chain([1.0, 1.0])
        out = hvp(net, [[1.0]], [0.0], squared_error(), np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0, 4.0], atol=1e-12)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_matches_fd_hessian(self, activation):
        net = random_net((4, 4, 3, 1), 56, activation)
        gen = RngStream(57, 0).generator()
        xs = gen.standard_normal((5, 4))
        ts = gen.integers(0, 2, 5) * 2.0 - 1.0
        dense = fd_hessian(net, xs, ts, squared_error())
        for _ in range(5):
            v = gen.standard_normal(net.param_index.n_params)
            got = hvp(net, xs, ts, squared_error(), v)
            ref = dense @ v
            assert np.linalg.norm(got - ref) <= 1e-4 * np.linalg.norm(ref)

    def test_symmetric_on_relu_nets(self):
        for seed in (80, 81, 82):
            net = random_net((4, 6, 5, 1), seed, "relu")
            gen = RngStream(seed, 1).generator()
            xs = gen.standard_normal((7, 4))
            ts = gen.integers(0, 2, 7) * 2.0 - 1.0
            for _ in range(5):
                u = gen.standard_normal(net.param_index.n_params)
                v = gen.standard_normal(net.param_index.n_params)
                uhv = u @ hvp(net, xs, ts, squared_error(), v)
                vhu = v @ hvp(net, xs, ts, squared_error(), u)
                assert abs(uhv - vhu) <= 1e-12 * max(abs(uhv), abs(vhu))

    def test_linearity(self):
        net = random_net((3, 3, 1), 58)
        gen = RngStream(59, 0).generator()
        xs = gen.standard_normal((4, 3))
        u = gen.standard_normal(net.param_index.n_params)
        v = gen.standard_normal(net.param_index.n_params)
        lhs = hvp(net, xs, 1.0, squared_error(), 2.0 * u - 3.0 * v)
        rhs = 2.0 * hvp(net, xs, 1.0, squared_error(), u) - 3.0 * hvp(
            net, xs, 1.0, squared_error(), v
        )
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1e-300)


class TestGgnVp:
    def test_rank_one_hand_example(self):
        # One sample with curvature 2 and output gradient (1, 2).
        net = Network(Architecture((2, 1)), [np.array([[1.0], [2.0]])])
        out = ggn_vp(net, [[1.0, 2.0]], [0.0], squared_error(), np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0, 4.0], atol=1e-12)

    def test_orthogonal_direction_maps_to_zero(self):
        net = random_net((3, 2, 1), 61)
        xs = RngStream(62, 0).generator().standard_normal((2, 3))
        grads = per_sample_output_gradients(net, xs)
        # The null space of the per-sample gradient span.
        _, _, vt = np.linalg.svd(grads)
        v = vt[-1]
        out = ggn_vp(net, xs, 1.0, squared_error(), v)
        assert np.linalg.norm(out) <= 1e-12

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_matches_dense_gauss_newton(self, activation):
        net = random_net((4, 3, 1), 63, activation)
        gen = RngStream(64, 0).generator()
        xs = gen.standard_normal((5, 4))
        ts = gen.integers(0, 2, 5) * 2.0 - 1.0
        grads = per_sample_output_gradients(net, xs)
        dense = 2.0 * grads.T @ grads / 5.0
        for _ in range(5):
            v = gen.standard_normal(net.param_index.n_params)
            got = ggn_vp(net, xs, ts, squared_error(), v)
            ref = dense @ v
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestGradientCurvatures:
    """The Taylor pass against projections of the R-op and Gauss-Newton products."""

    @staticmethod
    def assert_matches_products(net, xs, ts, loss):
        _, g = loss_and_gradient(net, xs, ts, loss)
        hess_ref = curvature_projection(lambda v: hvp(net, xs, ts, loss, v), g)
        gn_ref = curvature_projection(lambda v: ggn_vp(net, xs, ts, loss, v), g)
        hess, gn, fun = gradient_curvatures(net, xs, ts, loss, g)
        scale = max(abs(hess_ref), abs(gn_ref))
        assert abs(hess - hess_ref) <= 1e-12 * scale
        assert abs(gn - gn_ref) <= 1e-12 * scale
        assert abs(fun - (hess_ref - gn_ref)) <= 1e-12 * scale
        assert hess == gn + fun

    @pytest.mark.parametrize("widths", [(3, 1), (4, 3, 1), (4, 5, 6, 3, 1)])
    @pytest.mark.parametrize("loss", [squared_error(), half_squared_error(0.5), raw_output()])
    def test_identity_nets(self, widths, loss):
        net = random_net(widths, 92)
        gen = RngStream(93, 0).generator()
        xs = gen.standard_normal((6, widths[0]))
        ts = gen.integers(0, 2, 6) * 2.0 - 1.0
        self.assert_matches_products(net, xs, ts, loss)

    @pytest.mark.parametrize("seed", [94, 95, 96])
    def test_relu_nets_off_kinks(self, seed):
        gen = RngStream(seed, 1).generator()
        x = gen.standard_normal(4)
        net = relu_net_off_kinks((4, 5, 6, 3, 1), seed, x)
        self.assert_matches_products(net, x, 1.0, squared_error())

    def test_relu_batch(self):
        net = random_net((5, 8, 7, 6, 1), 97, "relu")
        gen = RngStream(98, 0).generator()
        xs = gen.standard_normal((9, 5))
        ts = gen.integers(0, 2, 9) * 2.0 - 1.0
        self.assert_matches_products(net, xs, ts, squared_error())

    def test_zero_gradient_rejected(self):
        net = random_net((3, 2, 1), 99)
        with pytest.raises(DirectionError, match="cannot project along a zero gradient"):
            gradient_curvatures(net, np.ones((2, 3)), 0.0, squared_error(), np.zeros(8))

    def test_wrong_length_rejected(self):
        net = random_net((3, 2, 1), 99)
        with pytest.raises(DimensionError):
            gradient_curvatures(net, np.ones((2, 3)), 0.0, squared_error(), np.ones(7))


class TestDirectionalCurvature:
    def test_two_layer_chain(self):
        value = directional_output_curvature(chain([1.0, 1.0]), [1.0], np.array([1.0, 1.0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_layer_zero(self):
        net = random_net((4, 1), 65)
        value = directional_output_curvature(net, np.ones(4) / 2.0, np.ones(4))
        assert abs(value) <= 1e-12

    def test_matches_dense_quadratic_form(self):
        net = random_net((3, 4, 2, 1), 66)
        gen = RngStream(67, 0).generator()
        x = gen.standard_normal(3)
        dense = output_hessian(net, x)
        for _ in range(5):
            d = gen.standard_normal(net.param_index.n_params)
            unit = d / np.linalg.norm(d)
            assert directional_output_curvature(net, x, d) == pytest.approx(
                float(unit @ dense @ unit), abs=1e-12
            )

    @pytest.mark.parametrize("seed", [73, 74, 75])
    def test_relu_matches_fd_oracle(self, seed):
        gen = RngStream(seed, 1).generator()
        x = gen.standard_normal(3)
        net = relu_net_off_kinks((3, 4, 5, 1), seed, x)
        dense = fd_hessian(net, x, 0.0, raw_output())
        for _ in range(5):
            d = gen.standard_normal(net.param_index.n_params)
            unit = d / np.linalg.norm(d)
            assert directional_output_curvature(net, x, d) == pytest.approx(
                float(unit @ dense @ unit), rel=1e-6
            )

    def test_zero_direction_rejected(self):
        with pytest.raises(DirectionError):
            directional_output_curvature(chain([1.0]), [1.0], np.zeros(1))
