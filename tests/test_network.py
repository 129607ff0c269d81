import numpy as np
import pytest

import curvkit.floattext
from hypothesis import given, settings
from hypothesis import strategies as st

from curvkit import (
    Architecture,
    DimensionError,
    Network,
    ParamIndex,
    RngStream,
    forward,
    init_network,
    interlayer_jacobian,
    load_network,
    save_network,
)
from curvkit.network import _forward, batch_forward


def chain(weights, activation="identity"):
    """Scalar chain network from a list of scalar weights."""
    return Network(
        Architecture((1,) * (len(weights) + 1), activation),
        [np.array([[float(w)]]) for w in weights],
    )


def random_net(widths, seed, activation="identity"):
    return init_network(Architecture(widths, activation), "gaussian", RngStream(seed, 0))


class TestForward:
    def test_identity_weights(self):
        net = Network(
            Architecture((2, 2, 1)),
            [np.eye(2), np.array([[1.0], [1.0]])],
        )
        trace = forward(net, [3.0, 4.0])
        assert np.array_equal(trace.activations[1], [3.0, 4.0])
        assert trace.output == 7.0

    def test_scalar_chain(self):
        trace = forward(chain([2.0, 3.0]), [1.0])
        assert trace.output == 6.0

    def test_relu_kills_negative_preactivations(self):
        net = Network(
            Architecture((2, 2, 1), "relu"),
            [-np.eye(2), np.array([[1.0], [1.0]])],
        )
        trace = forward(net, [1.0, 1.0])
        assert np.array_equal(trace.activations[1], [0.0, 0.0])
        assert trace.output == 0.0
        assert np.array_equal(trace.masks[0], [0.0, 0.0])

    def test_relu_mask_zero_at_exactly_zero(self):
        net = Network(Architecture((1, 1, 1), "relu"), [np.array([[0.0]]), np.array([[1.0]])])
        trace = forward(net, [1.0])
        assert trace.masks[0][0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            forward(chain([1.0]), [1.0, 2.0])

    def test_batch_forward_matches_single(self):
        net = random_net((5, 4, 3, 1), 2, "relu")
        xs = RngStream(3, 0).generator().standard_normal((6, 5))
        batch = batch_forward(net, xs)
        for s in range(6):
            single = forward(net, xs[s])
            for l in range(net.depth + 1):
                assert np.allclose(batch.activations[l][s], single.activations[l], atol=0)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_one_input_equals_one_row_batch(self, activation):
        net = random_net((5, 4, 3, 1), 4, activation)
        x = RngStream(5, 0).generator().standard_normal(5)
        single = batch_forward(net, x)
        row = batch_forward(net, x[None, :])
        for l in range(net.depth + 1):
            assert np.array_equal(single.activations[l], row.activations[l][0])
        if activation == "relu":
            for l in range(net.depth - 1):
                assert np.array_equal(single.masks[l], row.masks[l][0])
        assert single.output == row.outputs[0]

    def test_batch_forward_rejects_other_shapes(self):
        net = random_net((3, 2, 1), 6)
        with pytest.raises(DimensionError):
            batch_forward(net, np.ones((2, 2, 3)))
        with pytest.raises(DimensionError):
            batch_forward(net, np.ones(4))
        with pytest.raises(DimensionError):
            batch_forward(net, np.ones((2, 4)))
        with pytest.raises(DimensionError):
            batch_forward(net, np.float64(1.0))

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_stacked_forward_is_forward_of_each_network(self, activation, rows):
        # The Monte Carlo engine runs _forward on (T, n_{l-1}, n_l) stacks.
        nets = [random_net((5, 4, 3, 1), 30 + i, activation) for i in range(4)]
        xs = RngStream(31, 0).generator().standard_normal((4, rows, 5))
        stack = [np.stack(layer) for layer in zip(*(n.weights for n in nets))]
        stacked = _forward(stack, xs, activation == "relu")
        acts, masks = stacked.activations, stacked.masks
        for i, net in enumerate(nets):
            trace = batch_forward(net, xs[i])
            for got, want in zip(acts, trace.activations):
                assert np.array_equal(got[i], want)
            if activation == "relu":
                for got, want in zip(masks, trace.masks):
                    assert np.array_equal(got[i], want)
            else:
                assert masks is None and trace.masks is None


def dense_along(dirs):
    return lambda k, v: v @ dirs[k]


def assert_same_pass(plain, along):
    """The base point's activations and masks, bitwise."""
    assert len(plain.activations) == len(along.activations)
    for got, want in zip(along.activations, plain.activations):
        assert np.array_equal(got, want)
    if plain.masks is None:
        assert along.masks is None
    else:
        assert len(plain.masks) == len(along.masks)
        for got, want in zip(along.masks, plain.masks):
            assert np.array_equal(got, want)


class TestForwardAlongDirection:
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("shape", [(5,), (3, 5)], ids=["single", "batch"])
    def test_direction_leaves_the_pass_unchanged(self, activation, shape):
        net = random_net((5, 4, 3, 1), 40, activation)
        gen = RngStream(41, 0).generator()
        x = gen.standard_normal(shape)
        dirs = [gen.standard_normal(w.shape) for w in net.weights]
        plain = batch_forward(net, x)
        along = batch_forward(net, x, dense_along(dirs))
        assert_same_pass(plain, along)
        assert plain.tangents is None and plain.output_dot is None and plain.output_ddot is None
        assert along.output_dot.shape == along.output_ddot.shape == along.outputs.shape
        assert along.tangents[0] is None and len(along.tangents) == net.depth

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_direction_leaves_the_stacked_pass_unchanged(self, activation):
        nets = [random_net((5, 4, 3, 1), 42 + i, activation) for i in range(4)]
        gen = RngStream(43, 0).generator()
        xs = gen.standard_normal((4, 3, 5))
        stack = [np.stack(layer) for layer in zip(*(n.weights for n in nets))]
        dirs = [gen.standard_normal(w.shape) for w in stack]
        relu = activation == "relu"
        stacked = _forward(stack, xs, relu, dense_along(dirs))
        assert_same_pass(_forward(stack, xs, relu), stacked)
        for i, net in enumerate(nets):
            one = batch_forward(net, xs[i], dense_along([d[i] for d in dirs]))
            assert np.array_equal(stacked.output_dot[i], one.output_dot)
            assert np.array_equal(stacked.output_ddot[i], one.output_ddot)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("widths", [(5, 4, 3, 1), (4, 6, 1), (3, 1)])
    def test_coefficients_are_derivatives_along_the_line(self, activation, widths):
        # y(s) = output at W + s D: output_dot = y'(0), output_ddot = y''(0).
        net = random_net(widths, 44, activation)
        gen = RngStream(45, 0).generator()
        xs = gen.standard_normal((6, widths[0]))
        dirs = [gen.standard_normal(w.shape) for w in net.weights]
        trace = batch_forward(net, xs, dense_along(dirs))

        def y(s):
            moved = Network(net.arch, [w + s * d for w, d in zip(net.weights, dirs)])
            return batch_forward(moved, xs).outputs

        h = 1e-4  # small enough that no relu unit switches sign
        first = (y(h) - y(-h)) / (2.0 * h)
        second = (y(h) - 2.0 * y(0.0) + y(-h)) / h**2
        assert np.allclose(trace.output_dot, first, rtol=1e-6, atol=1e-6)
        assert np.allclose(trace.output_ddot, second, rtol=1e-4, atol=1e-4)


class TestInit:
    def test_deterministic(self):
        arch = Architecture((2, 2, 1))
        a = init_network(arch, "gaussian", RngStream(5, 0))
        b = init_network(arch, "gaussian", RngStream(5, 0))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_layer_second_moment(self):
        n = 256
        net = random_net((n, n, 1), 6)
        msq = float(np.mean(net.weights[0] ** 2))
        assert abs(msq - 1.0 / n) <= 0.1 / n

    def test_param_count(self):
        assert Architecture((4, 1)).n_params == 4

    def test_rectifier_gain_scales_hidden_layers_only(self):
        arch = Architecture((64, 64, 64, 1), "relu")
        plain = init_network(arch, "gaussian", RngStream(8, 0))
        gained = init_network(arch, "gaussian", RngStream(8, 0), rectifier_gain=np.sqrt(2.0))
        assert np.array_equal(plain.weights[0], gained.weights[0])
        assert np.allclose(gained.weights[1], np.sqrt(2.0) * plain.weights[1])
        # identity networks never apply the gain
        arch_id = Architecture((64, 64, 1))
        a = init_network(arch_id, "gaussian", RngStream(8, 0))
        b = init_network(arch_id, "gaussian", RngStream(8, 0), rectifier_gain=np.sqrt(2.0))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


class TestJacobian:
    def test_single_step_is_weight_matrix(self):
        net = random_net((3, 4, 1), 7)
        trace = forward(net, [1.0, 0.0, 0.0])
        jac = interlayer_jacobian(net, trace, 0, 1)
        assert np.array_equal(jac, net.weights[0])

    def test_scalar_chain_product(self):
        net = chain([2.0, 3.0])
        trace = forward(net, [1.0])
        assert interlayer_jacobian(net, trace, 0, 2)[0, 0] == 6.0

    def test_relu_all_positive_matches_identity(self):
        arch = Architecture((3, 3, 1), "relu")
        weights = [np.abs(RngStream(9, 0).generator().standard_normal((3, 3))), np.ones((3, 1))]
        relu_net = Network(arch, weights)
        lin_net = Network(Architecture((3, 3, 1)), [w.copy() for w in weights])
        x = np.array([1.0, 2.0, 0.5])
        j_relu = interlayer_jacobian(relu_net, forward(relu_net, x), 0, 2)
        j_lin = interlayer_jacobian(lin_net, forward(lin_net, x), 0, 2)
        assert np.allclose(j_relu, j_lin, atol=0)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_chain_consistency(self, activation):
        net = random_net((4, 5, 6, 3, 1), 11, activation)
        x = RngStream(12, 0).generator().standard_normal(4)
        trace = forward(net, x)
        full = interlayer_jacobian(net, trace, 0, net.depth)
        for mid in range(1, net.depth):
            split = interlayer_jacobian(net, trace, 0, mid) @ interlayer_jacobian(
                net, trace, mid, net.depth
            )
            assert np.linalg.norm(split - full) <= 1e-12 * max(np.linalg.norm(full), 1e-300)

    def test_forward_jacobian_consistency(self):
        net = random_net((6, 5, 4, 1), 13)
        x = RngStream(14, 0).generator().standard_normal(6)
        trace = forward(net, x)
        jac = interlayer_jacobian(net, trace, 0, net.depth)
        assert trace.output == pytest.approx(float(jac[:, 0] @ x), rel=1e-12)

    def test_bad_layer_order(self):
        net = chain([1.0, 1.0])
        trace = forward(net, [1.0])
        with pytest.raises(IndexError):
            interlayer_jacobian(net, trace, 2, 1)
        assert np.array_equal(interlayer_jacobian(net, trace, 1, 1), np.eye(1))

    def test_rejects_batch_trace(self):
        # Batch masks would broadcast against the weights instead of masking them.
        net = random_net((3, 3, 2, 1), 17, "relu")
        xs = RngStream(18, 0).generator().standard_normal((3, 3))
        with pytest.raises(DimensionError):
            interlayer_jacobian(net, batch_forward(net, xs), 0, 2)


class TestParamIndex:
    @given(
        widths=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=5)
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, widths):
        index = ParamIndex(tuple(widths))
        vec = np.arange(float(index.n_params))
        blocks = index.unflatten(vec)
        assert [b.shape for b in blocks] == list(zip(widths[:-1], widths[1:]))
        assert np.array_equal(index.flatten(blocks), vec)

    def test_ordering_is_output_unit_major(self):
        index = ParamIndex((3, 2, 1))
        # layer 0: out unit 0 gets inputs 0..2, then out unit 1
        blocks = index.unflatten(np.arange(8.0))
        assert np.array_equal(blocks[0], [[0, 3], [1, 4], [2, 5]])
        assert np.array_equal(blocks[1], [[6], [7]])
        hand = [np.array([[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]), np.array([[6.0], [7.0]])]
        assert np.array_equal(index.flatten(hand), np.arange(8.0))

    def test_flatten_round_trip(self):
        net = random_net((4, 3, 2, 1), 15)
        rebuilt = net.param_index.unflatten(net.param_vector())
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, rebuilt))

    def test_unflatten_returns_views(self):
        index = ParamIndex((3, 2, 1))
        vec = np.arange(8.0)
        blocks = index.unflatten(vec)
        assert all(np.shares_memory(b, vec) for b in blocks)
        assert blocks[0][2, 1] == vec[5]  # out unit 1, in unit 2

    def test_index_shared_per_widths(self):
        a, b = random_net((4, 3, 1), 18), random_net((4, 3, 1), 19)
        assert a.param_index is b.param_index
        assert not a.param_index.offsets.flags.writeable

    def test_flat_entry_matches_weight(self):
        net = random_net((3, 2, 1), 16)
        vec = net.param_vector()
        assert vec[5] == net.weights[0][2, 1]  # layer 0, out unit 1, in unit 2
        assert vec[6] == net.weights[1][0, 0]


class TestArchitecture:
    def test_validation(self):
        with pytest.raises(DimensionError):
            Architecture((4,))
        with pytest.raises(DimensionError):
            Architecture((4, 0, 1))
        with pytest.raises(Exception):
            Architecture((4, 1), activation="tanh")

    def test_single_output_unit_required(self):
        with pytest.raises(DimensionError, match="output width 2"):
            Architecture((3, 4, 2))


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        net = random_net((4, 5, 1), 21, "relu")
        path = tmp_path / "net.txt"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.arch == net.arch
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, loaded.weights))

    def test_strict_load_rejects_nan(self, tmp_path):
        net = random_net((2, 2, 1), 22)
        net.weights[0][0, 0] = np.nan
        path = tmp_path / "net.txt"
        save_network(net, path)
        with pytest.raises(DimensionError):
            load_network(path)
        lenient = load_network(path, strict=False)
        assert np.isnan(lenient.weights[0][0, 0])

    def test_special_values_text_and_round_trip(self, tmp_path):
        special = [0.0, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1]
        w1 = np.array(special).reshape(2, 4)
        net = Network(Architecture((2, 4, 1)), [w1, np.array([[1.0], [-0.0], [2.5e-310], [-1e-300]])])
        path = tmp_path / "net.txt"
        save_network(net, path)
        expected = ["curvkit-network v1", "activation identity", "widths 2 4 1", "layer 1 2x4"]
        expected += [" ".join(format(float(v), ".17g") for v in row) for row in w1]
        expected += ["layer 2 4x1"] + [format(float(v), ".17g") for v in net.weights[1][:, 0]]
        assert path.read_text() == "\n".join(expected) + "\n"
        loaded = load_network(path, strict=False)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(net.weights, loaded.weights))

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        real_g17 = curvkit.floattext.g17

        def first_block_then_ctrl_c(*args):
            yield next(iter(real_g17(*args)))
            raise KeyboardInterrupt

        path = tmp_path / "network_final.txt"
        with monkeypatch.context() as patch:
            patch.setattr(curvkit.floattext, "g17", first_block_then_ctrl_c)
            with pytest.raises(KeyboardInterrupt):
                save_network(random_net((3, 4, 1), 24), path)
        assert list(tmp_path.iterdir()) == []
        # A complete file already there stays as it was.
        save_network(random_net((3, 4, 1), 25), path)
        complete = path.read_bytes()
        monkeypatch.setattr(curvkit.floattext, "g17", first_block_then_ctrl_c)
        with pytest.raises(KeyboardInterrupt):
            save_network(random_net((3, 4, 1), 24), path)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == complete

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a network\n")
        with pytest.raises(DimensionError):
            load_network(path)

    @pytest.mark.parametrize("keep", [1, 2, 5, 8])
    def test_truncated_file_is_dimension_error(self, tmp_path, keep):
        path = tmp_path / "net.txt"
        save_network(random_net((3, 4, 1), 23), path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        with pytest.raises(DimensionError, match="file ends before"):
            load_network(path)
