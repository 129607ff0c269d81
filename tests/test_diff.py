import tracemalloc

import numpy as np
import pytest

from curvkit import (
    DENSE_CAP,
    ActivationError,
    Architecture,
    CapacityError,
    DimensionError,
    DirectionError,
    LossFunction,
    Network,
    RngStream,
    batch_loss,
    fd_hessian,
    ggn_vp,
    gradient_curvatures,
    half_squared_error,
    hvp,
    init_network,
    loss_and_gradient,
    output_gradient,
    output_hessian,
    output_hessian_grad_product,
    output_hessian_vp,
    per_sample_output_gradients,
    raw_output,
    squared_error,
)
from curvkit.curvature import curvature_projection
from curvkit.experiment import TrainConfig, generate_dataset, initial_probe
import curvkit.diff
import curvkit.network
from curvkit.diff import _QUART_EPS, _FdStencil
from curvkit.network import batch_forward


def chain(weights, activation="identity"):
    return Network(
        Architecture((1,) * (len(weights) + 1), activation),
        [np.array([[float(w)]]) for w in weights],
    )


def random_net(widths, seed, activation="identity"):
    return init_network(Architecture(widths, activation), "gaussian", RngStream(seed, 0))


def moved(net, vec):
    """A copy of net with the flat weight vector vec."""
    return Network(net.arch, [w.copy() for w in net.param_index.unflatten(vec)])


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

    def test_values_are_the_closed_forms(self):
        ys, t = np.linspace(-2.0, 2.0, 9), 0.3
        sq, half, raw = squared_error(t), half_squared_error(t), raw_output()
        assert np.array_equal(sq.value(ys), (ys - t) ** 2)
        assert np.array_equal(sq.d1(ys), 2.0 * (ys - t))
        assert np.array_equal(sq.d2(ys), np.full(9, 2.0))
        assert np.array_equal(half.value(ys), 0.5 * (ys - t) ** 2)
        assert np.array_equal(half.d1(ys), ys - t)
        assert np.array_equal(half.d2(ys), np.ones(9))
        assert np.array_equal(raw.value(ys), ys)
        assert np.array_equal(raw.d1(ys), np.ones(9))
        assert np.array_equal(raw.d2(ys), np.zeros(9))
        assert (sq.d2(1.0), half.d2(1.0), raw.d1(1.0), raw.d2(1.0)) == (2.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("kind", ["squared", "", "RAW_OUTPUT"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(DimensionError, match=f"unknown loss kind {kind!r}"):
            LossFunction(kind)

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
                return float(batch_loss(moved(net, w), x, 0.0, raw_output()))

            ref = fd_gradient(f, net.param_vector())
            assert np.linalg.norm(g - ref) <= 1e-6 * max(np.linalg.norm(ref), 1e-12)


class TestLossGradient:
    def test_hand_value(self):
        g = loss_and_gradient(chain([1.0, 1.0]), [[1.0]], [0.0], squared_error())[1]
        assert np.allclose(g, [2.0, 2.0], atol=0)

    def test_zero_at_exact_fit(self):
        net = chain([2.0, 3.0])
        g = loss_and_gradient(net, [[1.0]], [6.0], squared_error())[1]
        assert np.array_equal(g, [0.0, 0.0])

    def test_duplicated_sample_equals_single(self):
        net = random_net((3, 2, 1), 31)
        x = np.array([[0.1, 0.5, -0.4]])
        single = loss_and_gradient(net, x, [1.0], squared_error())[1]
        double = loss_and_gradient(net, np.vstack([x, x]), [1.0, 1.0], squared_error())[1]
        assert np.allclose(single, double, atol=1e-16)

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionError):
            loss_and_gradient(chain([1.0]), np.empty((0, 1)), [], squared_error())

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_matches_finite_differences(self, activation):
        for seed in range(10):
            net = random_net((4, 4, 4, 1), 300 + seed, activation)
            gen = RngStream(400 + seed, 0).generator()
            xs = gen.standard_normal((5, 4))
            ts = gen.integers(0, 2, 5) * 2.0 - 1.0
            g = loss_and_gradient(net, xs, ts, squared_error())[1]

            def f(w):
                return batch_loss(moved(net, w), xs, ts, squared_error())

            ref = fd_gradient(f, net.param_vector())
            assert np.linalg.norm(g - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_loss_and_gradient_agree_with_parts(self):
        net = random_net((3, 3, 1), 32)
        xs = RngStream(33, 0).generator().standard_normal((4, 3))
        value, g, _ = loss_and_gradient(net, xs, 1.0, squared_error())
        assert value == pytest.approx(batch_loss(net, xs, 1.0, squared_error()), rel=0)
        # The mean of the per-sample output gradients, each times its loss slope.
        slopes = squared_error().d1(batch_forward(net, xs).outputs, 1.0)
        parts = slopes @ per_sample_output_gradients(net, xs) / len(xs)
        assert np.allclose(g, parts, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_factors_rebuild_gradient_blocks(self, activation):
        # More samples than any layer has units, as in a training batch.
        net = random_net((4, 5, 3, 1), 34, activation)
        gen = RngStream(35, 0).generator()
        xs = gen.standard_normal((7, 4))
        ts = gen.integers(0, 2, 7) * 2.0 - 1.0
        _, g, factors = loss_and_gradient(net, xs, ts, squared_error())
        blocks = net.param_index.unflatten(g)
        assert len(factors) == len(blocks) == net.depth
        slopes = squared_error().d1(batch_forward(net, xs).outputs, ts) / len(xs)
        for k, ((y, a), block) in enumerate(zip(factors, blocks)):
            assert y.shape == (7, net.arch.widths[k])
            assert a.shape == (7, net.arch.widths[k + 1])
            assert np.allclose(y.T @ a, block, rtol=1e-13, atol=1e-16)
        # The output layer's sensitivity is 1, so its A is the slopes alone.
        assert np.array_equal(factors[-1][1][:, 0], slopes)


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

    @pytest.mark.parametrize("widths", [(3, 4, 5, 1), (4, 5, 6, 3, 1), (2, 3, 3, 3, 3, 1)])
    def test_relu_matches_rop_columns_and_fd_oracle(self, widths):
        # The relu Hessian is the masked linear net's, scaled by the masks on
        # both sides; the R-op and the FD oracle share no code with it.
        gen = RngStream(42, 1).generator()
        x = gen.standard_normal(widths[0])
        net = relu_net_off_kinks(widths, 42, x)
        dense = output_hessian(net, x)
        eye = np.eye(net.param_index.n_params)
        columns = np.column_stack([output_hessian_vp(net, x, e) for e in eye])
        assert np.linalg.norm(dense - columns) <= 1e-12 * np.linalg.norm(columns)
        ref = fd_hessian(net, x, 0.0, raw_output())
        assert np.linalg.norm(dense - ref) <= 1e-5 * np.linalg.norm(ref)

    def test_relu_masks_scale_in_place_to_the_bit(self):
        # Scaling H_lin by the masks in place performs the products of
        # d[:, None] * H_lin * d, so the result keeps their bits.
        net = random_net((4, 6, 5, 3, 1), 46, "relu")
        x = RngStream(47, 0).generator().standard_normal(4)
        masks = [*curvkit.network.forward(net, x).masks, np.ones(1)]
        linear = Network(Architecture(net.arch.widths), [w * m for w, m in zip(net.weights, masks)])
        d = net.param_index.flatten([np.broadcast_to(m, w.shape) for w, m in zip(net.weights, masks)])
        assert 0.0 < d.sum() < d.size  # some units are dead, some alive
        want = d[:, None] * output_hessian(linear, x) * d
        assert output_hessian(net, x).tobytes() == want.tobytes()

    def test_capacity_cap(self):
        net = random_net((150, 140, 1), 43)
        assert net.param_index.n_params > DENSE_CAP
        with pytest.raises(CapacityError):
            output_hessian(net, np.ones(150))


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
        "widths",
        [(4, 5, 6, 3, 1), (3, 1), (2, 3, 1), (3, 4, 2, 1), (5, 4, 3, 2, 6, 1), (2, 2, 2, 2, 2, 2, 1)],
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
        assert np.linalg.norm(h - h.T) == 0.0  # symmetric by construction

    def test_peak_memory_is_one_dense_matrix(self):
        # [a, b] and [b, a] are written from one stencil value, so the result
        # needs no second P x P matrix to be symmetric.
        net = random_net((32, 32, 1), 57, "relu")
        xs = RngStream(58, 0).generator().standard_normal((2, 32))
        P = net.param_index.n_params
        tracemalloc.start()
        try:
            h = fd_hessian(net, xs, [0.5, -0.5], squared_error())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * P * P * 8
        assert np.array_equal(h, h.T)

    def test_capacity_cap(self):
        net = random_net((150, 140, 1), 55)
        assert net.param_index.n_params > DENSE_CAP
        with pytest.raises(CapacityError):
            fd_hessian(net, np.ones((1, 150)), [0.0], squared_error())

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf"), -float("inf")])
    def test_step_must_be_finite_and_positive(self, step):
        net = random_net((3, 2, 1), 56)
        with pytest.raises(DimensionError, match=f"got {step}"):
            fd_hessian(net, np.ones((1, 3)), [0.0], squared_error(), step=step)


def loop_fd_hessian(net, xs, ts, loss, step=None):
    """fd_hessian with its assembly written out: one Python loop over the
    stencil's values reads every entry."""
    P = net.param_index.n_params
    w0 = net.param_vector()
    h = np.full(P, step) if step is not None else _QUART_EPS * (1.0 + np.abs(w0))
    x = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    stencil = _FdStencil(net, x, np.asarray(ts, dtype=np.float64), loss, h)
    hess = np.zeros((P, P))
    for a_block, b_block, signs, vals in stencil.values():
        for a, b, v in zip(a_block, b_block, vals):
            if len(signs) == 1:
                f0 = v[0]
            elif len(signs) == 2:
                assert a == b and signs == ((1.0, 0.0), (-1.0, 0.0))
                hess[a, a] = (v[0] - 2.0 * f0 + v[1]) / (h[a] * h[a])
            else:
                assert a < b and signs == ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
                hess[a, b] = hess[b, a] = (v[0] - v[1] - v[2] + v[3]) / (4.0 * h[a] * h[b])
    return hess


def layer_of(index, coords):
    return np.searchsorted(index.offsets, coords, side="right") - 1


def stencil_blocks(net, xs, ts, h):
    return list(_FdStencil(net, np.atleast_2d(xs), np.asarray(ts), squared_error(), h).values())


def stencil_points(blocks):
    """Every value of the stencil blocks as flat arrays (a, b, sign_a,
    sign_b, value): the loss at w0 + sign_a h_a e_a + sign_b h_b e_b."""
    columns = [
        np.stack([a, b, np.full(a.size, sa), np.full(a.size, sb), vals[:, s]])
        for a, b, signs, vals in blocks
        for s, (sa, sb) in enumerate(signs)
    ]
    a, b, sa, sb, v = np.concatenate(columns, axis=1)
    return a.astype(int), b.astype(int), sa, sb, v


class TestFdHessianStencil:
    # P = 59 and P = 136 (identity), P = 114 (relu); default and 1e-3 steps.
    @pytest.mark.parametrize(
        "widths, activation",
        [((4, 6, 5, 1), "identity"), ((6, 6, 6, 6, 1), "relu"), ((8, 8, 8, 1), "identity")],
    )
    @pytest.mark.parametrize("step", [None, 1e-3])
    def test_bitwise_equal_to_loop_stencil(self, widths, activation, step):
        net = random_net(widths, 90, activation)
        gen = RngStream(91, 0).generator()
        xs = gen.standard_normal((4, widths[0]))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        got = fd_hessian(net, xs, ts, squared_error(), step=step)
        assert np.array_equal(got, loop_fd_hessian(net, xs, ts, squared_error(), step))

    @pytest.mark.parametrize("widths", [(8, 8, 8, 1), (3, 1), (2, 1, 3, 1)])
    @pytest.mark.parametrize("cells", [None, 40])
    def test_values_cover_each_pair_once_within_one_layer_pair(self, widths, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(curvkit.diff, "_FD_CHUNK_CELLS", cells)
        net = random_net(widths, 92)
        index = net.param_index
        h = np.full(index.n_params, 1e-3)
        base, *blocks = stencil_blocks(net, np.ones((4, widths[0])), np.zeros(4), h)
        assert base[2] == ((0.0, 0.0),) and base[3].shape == (1, 1)
        a, b, _, sb, _ = stencil_points(blocks)
        pairs = sorted(set(zip(a.tolist(), b.tolist())))
        assert pairs == sorted(zip(*np.triu_indices(index.n_params)))
        assert a.size == 2 * index.n_params ** 2 and np.all((a == b) == (sb == 0))
        for a, b, signs, vals in blocks:
            assert vals.shape == (a.size, len(signs))
            assert np.unique(layer_of(index, a)).size == 1
            assert np.unique(layer_of(index, b)).size == 1
            assert np.all(a == b) or np.all(a < b)
        if cells is not None and widths == (8, 8, 8, 1):  # some layer pair spans several blocks
            layer_pairs = [(layer_of(index, a[0]), layer_of(index, b[0])) for a, b, _, _ in blocks]
            assert len(layer_pairs) > len(set(layer_pairs))

    @pytest.mark.parametrize("widths, n_samples", [((4, 6, 5, 1), 1), ((8, 8, 8, 1), 4)])
    def test_loss_evaluation_count(self, widths, n_samples, monkeypatch):
        rows = []
        evaluate = _FdStencil._losses

        def counting(self, outputs):
            assert outputs.shape[1] == n_samples
            rows.append(outputs.shape[0])
            return evaluate(self, outputs)

        monkeypatch.setattr(_FdStencil, "_losses", counting)
        net = random_net(widths, 93)
        fd_hessian(net, np.ones((n_samples, widths[0])), 0.5, squared_error())
        P = net.param_index.n_params
        assert sum(rows) == 1 + 2 * P + 2 * P * (P - 1)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_shares_no_code_with_the_exact_routes(self, activation, monkeypatch):
        net = random_net((4, 5, 3, 1), 94, activation)
        gen = RngStream(94, 1).generator()
        xs = gen.standard_normal((3, 4))
        ts = gen.standard_normal(3)
        want = fd_hessian(net, xs, ts, squared_error())

        def refuse(*args, **kwargs):
            raise AssertionError("the FD oracle called an exact route's kernel")

        for module, name in [
            (curvkit.network, "_forward"),
            (curvkit.network, "interlayer_jacobian"),
            (curvkit.diff, "interlayer_jacobian"),
            (curvkit.diff, "batch_forward"),
            (curvkit.diff, "_output_sensitivities"),
            (curvkit.diff, "_hessian_vp"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError):
            batch_loss(net, xs, ts, squared_error())
        assert np.array_equal(fd_hessian(net, xs, ts, squared_error()), want)


class TestFdStencilValues:
    # Non-square layers, so a transposed block changes the loss; a width-1
    # hidden layer; a one-layer net, whose only layer is the output layer.
    # cells = 300 cuts the layer pairs of the deeper nets into several blocks.
    @pytest.mark.parametrize("widths", [(5, 3, 7, 1), (4, 6, 1, 5, 1), (3, 1)])
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("n_samples", [1, 5])
    @pytest.mark.parametrize("cells", [None, 300])
    def test_each_value_is_the_batch_loss_of_its_network(
        self, widths, activation, n_samples, cells, monkeypatch
    ):
        if cells is not None:
            monkeypatch.setattr(curvkit.diff, "_FD_CHUNK_CELLS", cells)
        net = random_net(widths, 95, activation)
        gen = RngStream(96, 0).generator()
        xs = gen.standard_normal((n_samples, widths[0]))
        ts = gen.integers(0, 2, n_samples) * 2.0 - 1.0
        index = net.param_index
        # Steps of order one, so a value that moved the wrong weight, unit or
        # sign is far from the batch loss of the network it names.
        h = gen.uniform(0.5, 1.5, index.n_params)
        a, b, sa, sb, got = stencil_points(stencil_blocks(net, xs, ts, h))
        want = np.empty_like(got)
        for r in range(got.size):
            w = net.param_vector()
            w[a[r]] += sa[r] * h[a[r]]
            w[b[r]] += sb[r] * h[b[r]]
            want[r] = batch_loss(moved(net, w), xs, ts, squared_error())
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        # Among them every kind of point: the unmoved net, the diagonal +-,
        # two moves into one unit (in the output layer, where every weight
        # feeds the one unit, and in a hidden layer), two units of one layer,
        # and adjacent and distant layers.
        la, lb = layer_of(index, a), layer_of(index, b)
        unit_a = (a - index.offsets[la]) // np.asarray(widths)[la]
        unit_b = (b - index.offsets[lb]) // np.asarray(widths)[lb]
        one_layer = (a < b) & (la == lb)
        kinds = {
            "unmoved": (sa == 0) & (sb == 0),
            "diagonal +": (a == b) & (sa == 1),
            "diagonal -": (a == b) & (sa == -1),
            "one unit, output layer": one_layer & (la == net.depth - 1),
            "one unit, hidden layer": one_layer & (la < net.depth - 1) & (unit_a == unit_b),
            "two units of one layer": one_layer & (unit_a != unit_b),
            "adjacent layers": lb == la + 1,
            "distant layers": lb > la + 1,
        }
        seen = {kind for kind, rows in kinds.items() if np.any(rows)}
        one_layer_kinds = {"unmoved", "diagonal +", "diagonal -", "one unit, output layer"}
        assert seen == (set(kinds) if net.depth > 1 else one_layer_kinds)


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
    """The factored probe against projections of the R-op and Gauss-Newton
    products along the dense gradient."""

    @staticmethod
    def assert_matches_products(net, xs, ts, loss):
        value_ref, g, _ = loss_and_gradient(net, xs, ts, loss)
        hess_ref = curvature_projection(lambda v: hvp(net, xs, ts, loss, v), g)
        gn_ref = curvature_projection(lambda v: ggn_vp(net, xs, ts, loss, v), g)
        value, g_sq, hess, gn, fun = gradient_curvatures(net, xs, ts, loss)
        scale = max(abs(hess_ref), abs(gn_ref))
        assert value == value_ref
        assert abs(g_sq - g @ g) <= 1e-12 * (g @ g)
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

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("n_samples", [6, 100])
    def test_fewer_and_more_samples_than_width(self, activation, n_samples):
        # The factors are (N, width): thin for N < width, wider than the
        # layer blocks they stand for when N > width.
        net = random_net((40, 40, 40, 1), 99, activation)
        gen = RngStream(100, 0).generator()
        xs = gen.standard_normal((n_samples, 40))
        ts = gen.integers(0, 2, n_samples) * 2.0 - 1.0
        self.assert_matches_products(net, xs, ts, squared_error())

    def test_dead_relu_net_is_a_zero_gradient(self):
        # Positive inputs through negative first-layer weights: every hidden
        # unit is dead, so every factor and every block of g is zero.
        net = random_net((3, 4, 4, 1), 101, "relu")
        net.weights[0] = -np.abs(net.weights[0])
        with pytest.raises(DirectionError, match="cannot project along a zero gradient"):
            gradient_curvatures(net, np.ones((2, 3)), [1.0, -1.0], squared_error())

    def test_sign_cancelling_batch_is_a_zero_gradient(self):
        # Width-1 inputs +1 and -1 under raw_output: the two samples'
        # activations are exact negatives and their factors equal, so the
        # Gram products cancel exactly and ||g||^2 is exactly 0.
        net = random_net((1, 3, 2, 1), 102)
        xs = np.array([[1.0], [-1.0]])
        with pytest.raises(DirectionError, match="cannot project along a zero gradient"):
            gradient_curvatures(net, xs, 0.0, raw_output())


class TestDirectionalCurvature:
    """Output curvature along a direction, as curvature_projection of the R-op."""

    @staticmethod
    def curvature(net, x, d):
        return curvature_projection(lambda v: output_hessian_vp(net, x, v), d)

    def test_two_layer_chain(self):
        value = self.curvature(chain([1.0, 1.0]), [1.0], np.array([1.0, 1.0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_layer_zero(self):
        net = random_net((4, 1), 65)
        value = self.curvature(net, np.ones(4) / 2.0, np.ones(4))
        assert abs(value) <= 1e-12

    def test_matches_dense_quadratic_form(self):
        net = random_net((3, 4, 2, 1), 66)
        gen = RngStream(67, 0).generator()
        x = gen.standard_normal(3)
        dense = output_hessian(net, x)
        for _ in range(5):
            d = gen.standard_normal(net.param_index.n_params)
            unit = d / np.linalg.norm(d)
            assert self.curvature(net, x, d) == pytest.approx(float(unit @ dense @ unit), abs=1e-12)

    @pytest.mark.parametrize("seed", [73, 74, 75])
    def test_relu_matches_fd_oracle(self, seed):
        gen = RngStream(seed, 1).generator()
        x = gen.standard_normal(3)
        net = relu_net_off_kinks((3, 4, 5, 1), seed, x)
        dense = fd_hessian(net, x, 0.0, raw_output())
        for _ in range(5):
            d = gen.standard_normal(net.param_index.n_params)
            unit = d / np.linalg.norm(d)
            assert self.curvature(net, x, d) == pytest.approx(float(unit @ dense @ unit), rel=1e-6)

    def test_zero_direction_rejected(self):
        with pytest.raises(DirectionError):
            self.curvature(chain([1.0]), [1.0], np.zeros(1))


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestPeakMemory:
    """The hot kernels hold only the arrays their callers read."""

    def test_batch_loss_keeps_no_trace(self):
        # Eight relu hidden layers: a kept trace would hold eight activations
        # and their masks; a loss-only pass holds the layer it computes.
        net = random_net((64,) * 9 + (1,), 130, "relu")
        gen = RngStream(131, 0).generator()
        xs = gen.standard_normal((400, 64))
        ts = gen.integers(0, 2, 400) * 2.0 - 1.0
        value, peak = traced_peak(batch_loss, net, xs, ts, squared_error())
        assert peak < 3 * xs.nbytes
        assert value == loss_and_gradient(net, xs, ts, squared_error())[0]

    def test_loss_and_gradient_holds_one_gradient(self):
        # Each layer's product goes straight into its slice of the result:
        # no block temporaries beside the flat gradient.
        net = random_net((100,) * 5 + (1,), 132, "relu")
        gen = RngStream(133, 0).generator()
        xs = gen.standard_normal((8, 100))
        ts = gen.integers(0, 2, 8) * 2.0 - 1.0
        P = net.param_index.n_params
        activations = xs.shape[0] * sum(net.arch.widths) * 8
        (_, g, _), peak = traced_peak(loss_and_gradient, net, xs, ts, squared_error())
        assert peak < 1.5 * P * 8 + activations
        assert g.shape == (P,)

    def test_initial_probe_holds_no_layer_block(self):
        # The probe acts through g's (N, width) factors, so it holds the
        # batch's activations, the factors and a Taylor pass's few layers:
        # under a quarter of P here, where one 200 x 200 layer block alone
        # is a quarter of P and the gradient is all of it.
        arch = Architecture((200,) * 5 + (1,), "relu")
        net = init_network(arch, "gaussian", RngStream(134, 0))
        dataset = generate_dataset(8, 200, 135)
        cfg = TrainConfig(arch, batch_size=8, epochs=0)
        P = net.param_index.n_params
        record, peak = traced_peak(initial_probe, net, dataset, cfg)
        assert peak < P * 8 / 4
        assert record.grad_norm_sq > 0.0

    def test_relu_output_hessian_holds_one_matrix(self):
        # The masks scale the linear piece's Hessian in place: one P x P
        # matrix and a layer-pair block, P = 990.
        net = random_net((18, 18, 18, 18, 1), 138, "relu")
        x = RngStream(139, 0).generator().standard_normal(18)
        P = net.param_index.n_params
        hess, peak = traced_peak(output_hessian, net, x)
        assert peak < 1.5 * P * P * 8
        assert hess.shape == (P, P)


class TestBoolMasks:
    """relu masks are the comparison's bool arrays; every consumer multiplies
    by them, which gives the bits of float64 masks."""

    @staticmethod
    def relu_batch():
        net = random_net((5, 8, 7, 6, 1), 136, "relu")
        gen = RngStream(137, 0).generator()
        xs = gen.standard_normal((9, 5))
        ts = gen.integers(0, 2, 9) * 2.0 - 1.0
        return net, xs, ts

    def test_masks_are_bool(self):
        net, xs, _ = self.relu_batch()
        masks = curvkit.network.batch_forward(net, xs).masks
        assert len(masks) == 3
        assert all(m.dtype == np.bool_ for m in masks)

    def test_output_sensitivities_match_float64_masks(self):
        net, xs, _ = self.relu_batch()
        trace = curvkit.network.batch_forward(net, xs)
        assert trace.masks[0].dtype == np.bool_
        seed = np.ones((xs.shape[0], 1))
        got = curvkit.diff._output_sensitivities(net.weights, seed, trace.masks)
        want = curvkit.diff._output_sensitivities(
            net.weights, seed, [m.astype(np.float64) for m in trace.masks])
        assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]]

    def test_hvp_matches_float64_masks(self, monkeypatch):
        net, xs, ts = self.relu_batch()
        v = RngStream(138, 0).generator().standard_normal(net.param_index.n_params)
        got = hvp(net, xs, ts, squared_error(), v)

        def float_masks(*args, **kwargs):
            trace = curvkit.network.batch_forward(*args, **kwargs)
            assert trace.masks[0].dtype == np.bool_
            trace.masks = [m.astype(np.float64) for m in trace.masks]
            return trace

        monkeypatch.setattr(curvkit.diff, "batch_forward", float_masks)
        assert got.tobytes() == hvp(net, xs, ts, squared_error(), v).tobytes()
