"""Gradients, curvature products, and dense curvature oracles.

Two routes exist for every second-order quantity: exact routes that exploit
the layered structure, and finite-difference routes that serve only as
independent oracles.  The oracles use no derivative formula and share no
kernel with the exact routes; the dense FD Hessian knows only the flat
parameter layout and the order in which the layers compose, and uses them
only to skip the layers a stencil point leaves unperturbed.  Every exact
Hessian-vector product (hvp, output_hessian_vp) is one R-op, valid for
identity and relu networks.  The R-op and the Gauss-Newton product ggn_vp
share one tangent forward pass, which gives the Jacobian-vector product of
every layer along a weight direction.  Along the loss gradient,
gradient_curvatures adds the second-order Taylor coefficient to that pass
and reads both parts of the curvature off the output, with no backward
pass.  Both passes take the direction as its action v -> v D_l on each
layer, so the Monte Carlo engine in theory runs them on stacks of networks.
The dense output Hessian is a closed form for linear networks that shares
no kernel with the R-op; it covers a relu network on the linear piece its
input lies in.  Its case-formula product with the gradient is for linear
networks only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ActivationError,
    CapacityError,
    DimensionError,
    DirectionError,
)
from .network import (
    IDENTITY,
    RELU,
    Architecture,
    BatchTrace,
    Network,
    ParamIndex,
    batch_forward,
    forward,
    interlayer_jacobian,
)

# Dense P x P storage above this parameter count is refused; matrix-free
# operations have no such cap.
DENSE_CAP = 20_000

# Second-derivative stencils: rounding error scales like eps/h^2 against
# truncation h^2, so the balanced step is the quarter root, not the cube
# root that suits first derivatives.
_QUART_EPS = float(np.finfo(np.float64).eps ** 0.25)

# Signs of the steps along a and b in the four points of the off-diagonal
# stencil (f(++) - f(+-) - f(-+) + f(--)) / (4 h_a h_b).
_FD_SIGNS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))

# Perturbed weights plus activations held by one chunk of stencil points.
_FD_CHUNK_CELLS = 4 * 65536


# ---------------------------------------------------------------------------
# Loss functions
# ---------------------------------------------------------------------------

SQUARED_ERROR = "squared_error"
HALF_SQUARED_ERROR = "half_squared_error"
RAW_OUTPUT = "raw_output"


@dataclass(frozen=True)
class LossFunction:
    """Convex twice differentiable scalar loss of the network output.

    Kinds:
      squared_error       (y - t)^2        slope 2(y - t), curvature 2
      half_squared_error  (y - t)^2 / 2    slope (y - t),  curvature 1
      raw_output          y                slope 1,        curvature 0

    The default target is overridden per sample by passing explicit targets
    to the batch evaluators.  curvature_min is the declared lower bound on
    the second derivative.
    """

    kind: str = SQUARED_ERROR
    target: float = 0.0

    def _t(self, targets):
        return self.target if targets is None else targets

    def value(self, y, targets=None):
        if self.kind == SQUARED_ERROR:
            return (y - self._t(targets)) ** 2
        if self.kind == HALF_SQUARED_ERROR:
            return 0.5 * (y - self._t(targets)) ** 2
        return y

    def d1(self, y, targets=None):
        if self.kind == SQUARED_ERROR:
            return 2.0 * (y - self._t(targets))
        if self.kind == HALF_SQUARED_ERROR:
            return y - self._t(targets)
        return np.ones_like(y) if isinstance(y, np.ndarray) else 1.0

    def d2(self, y, targets=None):
        if self.kind in (SQUARED_ERROR, HALF_SQUARED_ERROR):
            c = 2.0 if self.kind == SQUARED_ERROR else 1.0
            return c * np.ones_like(y) if isinstance(y, np.ndarray) else c
        return np.zeros_like(y) if isinstance(y, np.ndarray) else 0.0

    @property
    def curvature_min(self) -> float:
        if self.kind == SQUARED_ERROR:
            return 2.0
        if self.kind == HALF_SQUARED_ERROR:
            return 1.0
        return 0.0


def squared_error(target: float = 0.0) -> LossFunction:
    return LossFunction(SQUARED_ERROR, target)


def half_squared_error(target: float = 0.0) -> LossFunction:
    return LossFunction(HALF_SQUARED_ERROR, target)


def raw_output() -> LossFunction:
    """Identity "loss" L(y) = y; turns loss oracles into output oracles."""
    return LossFunction(RAW_OUTPUT, 0.0)


# ---------------------------------------------------------------------------
# Batched forward/backward machinery
# ---------------------------------------------------------------------------


def _as_batch(inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise DimensionError(f"batch inputs must be 1-D or 2-D, got shape {x.shape}")
    if x.shape[0] == 0:
        raise DimensionError("empty batch")
    return x


def _as_targets(targets, n: int) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if t.size == 1:
        return np.full(n, float(t[0]))
    if t.size != n:
        raise DimensionError(f"{t.size} targets for {n} samples")
    return t


def _output_sensitivities(weights, seed: np.ndarray, masks=None) -> list:
    """a[k] = d(output)/d(layer-k activations) in row layout, for k = 1 .. L.

    The backward pass of every route: a_L = seed and a_k = a_{k+1} W_{k+1}^T,
    times the hidden layer's relu mask when masks are given.  seed is ones of
    shape (1,) for one network, (n_samples, 1) for a batch, or (T, 1, 1) for
    stacked (T, n_{k-1}, n_k) weights.  Layer k's output-gradient block is
    y_{k-1} (x) a_k, so a[0] is never needed and stays None.
    """
    depth = len(weights)
    a = [None] * (depth + 1)
    a[depth] = seed
    for k in range(depth - 1, 0, -1):
        a[k] = a[k + 1] @ np.swapaxes(weights[k], -1, -2)
        if masks is not None:
            a[k] = a[k] * masks[k - 1]
    return a


def batch_loss(net: Network, inputs, targets, loss: LossFunction) -> float:
    """Mean loss over the batch."""
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    trace = batch_forward(net, x)
    return float(np.mean(loss.value(trace.outputs, t)))


def _weighted_gradient(net: Network, trace: BatchTrace, sample_weights: np.ndarray) -> np.ndarray:
    """Flat vector sum_s w_s * (gradient of output_s w.r.t. all weights)."""
    a = _output_sensitivities(net.weights, np.ones_like(trace.activations[-1]), trace.masks)
    blocks = []
    for k in range(net.depth):
        y_prev = trace.activations[k]
        weighted = a[k + 1] * sample_weights[:, None]
        blocks.append((weighted.T @ y_prev).reshape(-1))  # (n_k, n_{k-1}) row-major
    return np.concatenate(blocks)


def output_gradient(net: Network, x) -> np.ndarray:
    """Flat gradient of the scalar output w.r.t. every weight.

    Entry for weight (layer k, out unit i, in unit j) equals the output
    sensitivity to unit i of layer k times activation j of layer k-1.
    """
    xb = _as_batch(x)
    if xb.shape[0] != 1:
        raise DimensionError("output_gradient takes a single input")
    bt = batch_forward(net, xb)
    return _weighted_gradient(net, bt, np.ones(1))


def loss_gradient(net: Network, inputs, targets, loss: LossFunction) -> np.ndarray:
    """Batch-mean gradient of the loss w.r.t. the flat parameter vector."""
    return loss_and_gradient(net, inputs, targets, loss)[1]


def loss_and_gradient(net: Network, inputs, targets, loss: LossFunction) -> tuple[float, np.ndarray]:
    """Batch-mean loss and its gradient from a single forward pass."""
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    trace = batch_forward(net, x)
    value = float(np.mean(loss.value(trace.outputs, t)))
    slopes = loss.d1(trace.outputs, t) / x.shape[0]
    return value, _weighted_gradient(net, trace, slopes)


def per_sample_output_gradients(net: Network, inputs) -> np.ndarray:
    """(n_samples, P) matrix of per-sample output gradients."""
    x = _as_batch(inputs)
    trace = batch_forward(net, x)
    a = _output_sensitivities(net.weights, np.ones_like(trace.activations[-1]), trace.masks)
    blocks = []
    for k in range(net.depth):
        outer = a[k + 1][:, :, None] * trace.activations[k][:, None, :]  # (N, n_k, n_{k-1})
        blocks.append(outer.reshape(x.shape[0], -1))
    return np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# Closed-form output Hessian
# ---------------------------------------------------------------------------


def output_hessian(net: Network, x) -> np.ndarray:
    """Dense P x P Hessian of the scalar output w.r.t. all weights.

    Assembled block by block from the five closed-form cases of a linear
    network for a pair of layers (row layer k, column layer l): l < k-1,
    l = k-1, l = k (zero), l = k+1, and l > k+1.  At x, a relu network is
    the linear network with masked weights W_k diag(m_k), m_k the hidden
    layers' relu masks and m_L = 1.  The masking is linear in the weights,
    so the relu Hessian is D H_lin D, where D holds for every weight the
    mask of the unit it feeds: the Hessian of the linear piece x lies in.
    """
    index = net.param_index
    if index.n_params > DENSE_CAP:
        raise CapacityError(
            f"P = {index.n_params} exceeds dense cap {DENSE_CAP}; use matrix-free products"
        )
    trace = forward(net, x)
    if trace.masks is not None:
        masks = [*trace.masks, np.ones(1)]
        linear = Network(Architecture(net.arch.widths), [w * m for w, m in zip(net.weights, masks)])
        d = index.flatten([np.broadcast_to(m, w.shape) for w, m in zip(net.weights, masks)])
        return d[:, None] * output_hessian(linear, x) * d
    y = trace.activations
    depth = net.depth
    P = index.n_params
    hess = np.zeros((P, P))
    if depth == 1:
        return hess  # output linear in the only weight layer
    a = _output_sensitivities(net.weights, np.ones(1))
    widths = net.arch.widths
    for k in range(1, depth + 1):
        rows = index.layer_slice(k - 1)
        n_k, n_k1 = widths[k], widths[k - 1]
        for l in range(1, depth + 1):
            if l == k:
                continue
            cols = index.layer_slice(l - 1)
            n_l, n_l1 = widths[l], widths[l - 1]
            if l == k - 1:
                block = np.einsum("i,ju,v->ijuv", a[k], np.eye(n_k1), y[l - 1])
            elif l < k - 1:
                jac = interlayer_jacobian(net, trace, l, k - 1)
                block = np.einsum("i,uj,v->ijuv", a[k], jac, y[l - 1])
            elif l == k + 1:
                block = np.einsum("u,j,vi->ijuv", a[l], y[k - 1], np.eye(n_k))
            else:  # l > k + 1
                jac = interlayer_jacobian(net, trace, k, l - 1)
                block = np.einsum("u,iv,j->ijuv", a[l], jac, y[k - 1])
            hess[rows, cols] = block.reshape(n_k * n_k1, n_l * n_l1)
    return hess


def output_hessian_grad_product(net: Network, x) -> np.ndarray:
    """Product of the output Hessian with the output gradient, without the
    dense matrix.

    Evaluated from the layered case formula: the entries of the product at
    column layer l collect four kinds of contributions (row layer two or
    more above l, two or more below l, directly above, directly below), and
    the five printed branches below (first layer, second layer, generic
    middle, next-to-last, last) each keep exactly the contributions that
    exist for that layer.
    """
    if net.arch.activation != IDENTITY:
        raise ActivationError(
            "the output Hessian-gradient case formula is defined for identity-activation "
            "(linear) networks only"
        )
    index = net.param_index
    trace = forward(net, x)
    y = trace.activations
    depth = net.depth
    if depth == 1:
        return np.zeros(index.n_params)
    a = _output_sensitivities(net.weights, np.ones(1))
    a_sq = [None] + [float(a[k] @ a[k]) for k in range(1, depth + 1)]
    y_sq = [float(y[l] @ y[l]) for l in range(depth + 1)]

    def rows_far_above(l):
        # row layers k >= l + 2: sum_k ||a_k||^2 * (J(l, k-1) @ y_{k-1})
        acc = np.zeros(net.arch.widths[l])
        for k in range(l + 2, depth + 1):
            acc += a_sq[k] * (interlayer_jacobian(net, trace, l, k - 1) @ y[k - 1])
        return np.outer(y[l - 1], acc)

    def rows_far_below(l):
        # row layers k <= l - 2: sum_k ||y_{k-1}||^2 * (J(k, l-1)^T @ a_k)
        acc = np.zeros(net.arch.widths[l - 1])
        for k in range(1, l - 1):
            acc += y_sq[k - 1] * (interlayer_jacobian(net, trace, k, l - 1).T @ a[k])
        return np.outer(acc, a[l])

    def row_directly_above(l):
        return a_sq[l + 1] * np.outer(y[l - 1], y[l])

    def row_directly_below(l):
        return y_sq[l - 2] * np.outer(a[l - 1], a[l])

    blocks = []
    for l in range(1, depth + 1):
        if l == 1:
            delta = row_directly_above(l) + rows_far_above(l)
        elif l == depth:
            delta = row_directly_below(l) + rows_far_below(l)
        elif l == 2:
            delta = row_directly_below(l) + row_directly_above(l) + rows_far_above(l)
        elif l == depth - 1:
            delta = row_directly_above(l) + row_directly_below(l) + rows_far_below(l)
        else:
            delta = (
                rows_far_above(l)
                + rows_far_below(l)
                + row_directly_above(l)
                + row_directly_below(l)
            )
        blocks.append(delta.ravel(order="F"))
    return np.concatenate(blocks)


def output_hessian_vp(net: Network, x, direction: np.ndarray) -> np.ndarray:
    """Exact product of the output Hessian at one input with a flat direction.

    The single-input, raw-output case of the R-op behind hvp, so it holds for
    relu networks too (Hessian of the smooth piece the input lies in).
    """
    xb = _as_batch(x)
    if xb.shape[0] != 1:
        raise DimensionError("output_hessian_vp takes a single input")
    return _hessian_vp(net, xb, None, raw_output(), direction)


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------


class _PerturbedLoss:
    """Batch loss at w0 + da e_a + db e_b, one row per stencil point.

    The finite-difference oracle's own forward loop: it shares no code with
    batch_forward, the tangent passes or the R-op.  Layer l's flat block is
    W_l^T, (n_l, n_{l-1}) row-major.  A perturbed layer is applied as the
    perturbed matrix itself; only the layers a point leaves unperturbed are
    shared between points.
    """

    def __init__(self, net: Network, inputs: np.ndarray, targets: np.ndarray, loss: LossFunction):
        index = net.param_index
        self.offsets = index.offsets
        self.widths = net.arch.widths
        self.relu = net.arch.activation == RELU
        self.targets, self.loss = targets, loss
        w0 = net.param_vector()
        self.blocks = [
            w0[index.layer_slice(l)].reshape(self.widths[l + 1], self.widths[l])
            for l in range(net.depth)
        ]
        # The unperturbed input of every layer, column layout (n_{l-1}, N).
        self.layer_inputs = [np.ascontiguousarray(inputs.T)]
        for block in self.blocks[:-1]:
            self.layer_inputs.append(self._act(block @ self.layer_inputs[-1]))

    def _act(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0, out=z) if self.relu else z

    def __call__(self, a, da, b, db) -> np.ndarray:
        """Losses of the rows (a[r], da[r], b[r], db[r]), where a[r] <= b[r]
        are flat coordinates; a = b with db = 0 perturbs one weight."""
        a, b = np.asarray(a), np.asarray(b)
        da, db = np.asarray(da, dtype=np.float64), np.asarray(db, dtype=np.float64)
        la = np.searchsorted(self.offsets, a, side="right") - 1
        lb = np.searchsorted(self.offsets, b, side="right") - 1
        key = la * len(self.widths) + lb
        out = np.empty(a.size)
        for k in np.unique(key):
            rows = np.flatnonzero(key == k)
            out[rows] = self._layer_pair(*divmod(int(k), len(self.widths)),
                                         a[rows], da[rows], b[rows], db[rows])
        return out

    def _coords(self, layer: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(output unit, input unit) of flat coordinates c inside layer's block."""
        return np.divmod(c - self.offsets[layer], self.widths[layer])

    def _layer_pair(self, la, lb, a, da, b, db) -> np.ndarray:
        """Losses of R points whose perturbed weights lie in layers la <= lb.

        Layer la reads the shared unperturbed input, so its R perturbed
        blocks are one GEMM, giving the column layout (n, R*N); unperturbed
        layers are one GEMM each in that layout.  Layer lb (when after la) is
        the one per-row batched matmul, which turns the layout into rows
        (R*N, n) for the unperturbed layers after it.
        """
        depth = len(self.widths) - 1
        n_rows, n_samples = a.size, self.layer_inputs[0].shape[1]
        rows = np.arange(n_rows)
        w = np.repeat(self.blocks[la][:, None, :], n_rows, axis=1)  # (n_la, R, n_{la-1})
        i, j = self._coords(la, a)
        w[i, rows, j] += da
        if lb == la:
            i, j = self._coords(la, b)
            w[i, rows, j] += db
        z = (w.reshape(-1, self.widths[la]) @ self.layer_inputs[la]).reshape(-1, n_rows * n_samples)
        for l in range(la + 1, lb if lb > la else depth):
            z = self.blocks[l] @ self._act(z)
        if lb > la:
            v = np.repeat(self.blocks[lb].T[None], n_rows, axis=0)  # (R, n_{lb-1}, n_lb)
            i, j = self._coords(lb, b)
            v[rows, j, i] += db
            a_rows = self._act(z).reshape(-1, n_rows, n_samples).transpose(1, 2, 0)
            z = np.matmul(a_rows, v).reshape(n_rows * n_samples, -1)
            for l in range(lb + 1, depth):
                z = self._act(z) @ self.blocks[l].T
        outputs = z.reshape(n_rows, n_samples)
        return np.mean(self.loss.value(outputs, self.targets[None, :]), axis=1)


def _fd_pair_chunks(index: ParamIndex, n_samples: int):
    """The coordinate pairs (a, b) of the FD stencil in chunks.

    Layer by layer la, yields first the diagonal of la (a == b), then the
    pairs a < b inside la, then those with b in each later layer lb, so every
    chunk perturbs one layer pair.  A chunk of four stencil points per pair
    holds about _FD_CHUNK_CELLS cells of perturbed weights and activations.
    """
    offsets, sizes = index.offsets, np.diff(index.offsets)
    act_cells = n_samples * max(index.widths)
    for la in range(sizes.size):
        layer = np.arange(offsets[la], offsets[la + 1])
        pair_a, pair_b = np.triu_indices(sizes[la], 1)
        groups = [(0, layer, layer), (0, pair_a + offsets[la], pair_b + offsets[la])]
        for lb in range(la + 1, sizes.size):
            pair_a, pair_b = np.divmod(np.arange(sizes[la] * sizes[lb]), sizes[lb])
            groups.append((sizes[lb], pair_a + offsets[la], pair_b + offsets[lb]))
        for lb_cells, pair_a, pair_b in groups:
            chunk = max(1, _FD_CHUNK_CELLS // (4 * (sizes[la] + lb_cells + act_cells)))
            for start in range(0, pair_a.size, chunk):
                yield pair_a[start : start + chunk], pair_b[start : start + chunk]


def fd_hessian(
    net: Network,
    inputs,
    targets,
    loss: LossFunction,
    step: float | None = None,
) -> np.ndarray:
    """Central-difference dense Hessian of the batch loss.

    Per-coordinate step h_a = eps**0.25 * (1 + |w_a|) unless an explicit
    step is given; diagonal entries use the three-point stencil, off-diagonal
    entries the four-point stencil, and the result is symmetrized: 1 + 2P +
    2P(P - 1) loss evaluations.  This is the oracle the exact routes are
    judged against, so it uses no derivative formula and shares no kernel
    with them: every value is a batch loss at w0 moved along one or two
    coordinates, from _PerturbedLoss's own forward loop.  All it knows of
    the network is the flat layout and the order in which the layers
    compose, and it uses that only to skip the layers a point leaves alone.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    index = net.param_index
    P = index.n_params
    if P > DENSE_CAP:
        raise CapacityError(f"P = {P} exceeds dense cap {DENSE_CAP}")
    w0 = net.param_vector()
    h = np.full(P, step) if step is not None else _QUART_EPS * (1.0 + np.abs(w0))
    losses = _PerturbedLoss(net, x, t, loss)

    def stencil(a, b, signs):
        # Row (i, s) moves pair i by signs[s]; returns (pairs, len(signs)).
        a_rows, b_rows = np.repeat(a, len(signs)), np.repeat(b, len(signs))
        sign_a, sign_b = np.tile(np.transpose(signs), a.size)
        return losses(a_rows, sign_a * h[a_rows], b_rows, sign_b * h[b_rows]).reshape(a.size, -1)

    f0 = float(losses([0], [0.0], [0], [0.0])[0])
    hess = np.zeros((P, P))
    for a, b in _fd_pair_chunks(index, x.shape[0]):
        if a[0] == b[0]:  # diagonal: f(w + h e_a) and f(w - h e_a)
            vals = stencil(a, b, ((1.0, 0.0), (-1.0, 0.0)))
            hess[a, a] = (vals[:, 0] - 2.0 * f0 + vals[:, 1]) / h[a] ** 2
        else:
            vals = stencil(a, b, _FD_SIGNS)
            v = (vals[:, 0] - vals[:, 1] - vals[:, 2] + vals[:, 3]) / (4.0 * h[a] * h[b])
            hess[a, b] = v
            hess[b, a] = v
    return 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# Exact Hessian-vector products
# ---------------------------------------------------------------------------


def _direction_layers(net: Network, v) -> list[np.ndarray]:
    """Per-layer blocks D_l of a flat direction, after checking its length."""
    index = net.param_index
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != index.n_params:
        raise DimensionError(f"direction length {v.shape[0]} != P = {index.n_params}")
    return index.unflatten(v)


def _dense_along(dirs: list[np.ndarray]):
    """The action along(k, v) = v D_{k+1} of a direction held as dense blocks."""
    return lambda k, v: v @ dirs[k]


def _tangent_forward(weights, acts, masks, along):
    """Jacobian-vector product of every layer along a weight direction D.

    Carries z'_l = a'_{l-1} W_l + a_{l-1} D_l, with the direction entering
    only through its action along(k, v) = v D_{k+1} and the base point's relu
    masks (None for identity) applied to a'.  acts and weights may be
    stacked as in network._forward.  Returns the hidden tangents a'_k (list
    index k, with None for the input, which does not move with the weights)
    and the output tangent z'_L.
    """
    act_dots = [None]
    z_dot = along(0, acts[0])
    for k in range(1, len(weights)):
        act_dots.append(z_dot if masks is None else z_dot * masks[k - 1])
        z_dot = act_dots[k] @ weights[k] + along(k, acts[k])
    return act_dots, z_dot


def _second_order_forward(weights, acts, masks, along, act_dots) -> np.ndarray:
    """Second Taylor coefficient of the output along a weight direction D.

    Carries z''_l = a''_{l-1} W_l + 2 a'_{l-1} D_l on top of the first-order
    tangents a' of _tangent_forward, with the same action along and the base
    point's relu masks applied to a'' (relu'' = 0 almost everywhere).  The
    input does not move, so z''_1 = 0 and layer 2 needs no product with W.
    Returns z''_L, shaped like the output activations.
    """
    z_ddot = None
    for k in range(1, len(weights)):
        cross = 2.0 * along(k, act_dots[k])
        if z_ddot is None:
            z_ddot = cross
        else:
            a_ddot = z_ddot if masks is None else z_ddot * masks[k - 1]
            z_ddot = a_ddot @ weights[k] + cross
    return np.zeros_like(acts[-1]) if z_ddot is None else z_ddot


def gradient_curvatures(
    net: Network, inputs, targets, loss: LossFunction, g: np.ndarray
) -> tuple[float, float, float]:
    """Curvature of the batch-mean loss along u = g / ||g||, split in two.

    One forward pass carrying (z, z', z'') along u (univariate Taylor mode;
    Griewank & Walther, Evaluating Derivatives, ch. 13) gives the output's
    first and second directional derivatives y' and y'' for every sample.
    Returns (hess_proj, gn_proj, fun_proj): the Gauss-Newton part
    u.G u = mean L''(y) y'^2, the functional part u.H u = mean L'(y) y'', and
    their sum u.(G + H) u, so the split holds exactly.  For relu networks it
    is the curvature of the smooth piece the batch lies in, as for hvp.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise DirectionError("cannot project along a zero gradient")
    along = _dense_along(_direction_layers(net, g / norm))
    trace = batch_forward(net, x)
    taylor = (net.weights, trace.activations, trace.masks, along)
    act_dots, z_dot = _tangent_forward(*taylor)
    z_ddot = _second_order_forward(*taylor, act_dots)
    y = trace.outputs
    gn_proj = float(np.mean(loss.d2(y, t) * z_dot[:, 0] ** 2))
    fun_proj = float(np.mean(loss.d1(y, t) * z_ddot[:, 0]))
    return gn_proj + fun_proj, gn_proj, fun_proj


def _hessian_vp(net: Network, x: np.ndarray, t, loss: LossFunction, v) -> np.ndarray:
    """Pearlmutter's R-op: the batch-mean loss Hessian times v, exactly.

    After _tangent_forward, a tangent backward pass carries the loss signals
    d_l of _weighted_gradient together with their tangents, d'_L = L''(y) y' / N
    and d'_{l-1} = mask * (d'_l W_l^T + d_l D_l^T).  Layer l's block is
    a'_{l-1}^T d_l + a_{l-1}^T d'_l.  relu'' = 0 almost everywhere, so the base
    point's masks carry the whole relu dependence.
    """
    dirs = _direction_layers(net, v)
    weights, depth = net.weights, net.depth
    trace = batch_forward(net, x)
    acts, masks = trace.activations, trace.masks
    act_dots, z_dot = _tangent_forward(weights, acts, masks, _dense_along(dirs))

    n = x.shape[0]
    y = trace.outputs
    delta = (loss.d1(y, t) / n)[:, None]
    delta_dot = loss.d2(y, t)[:, None] * z_dot / n
    blocks = [None] * depth
    for k in range(depth - 1, 0, -1):
        blocks[k] = (delta_dot.T @ acts[k] + delta.T @ act_dots[k]).reshape(-1)
        delta, delta_dot = delta @ weights[k].T, delta_dot @ weights[k].T + delta @ dirs[k].T
        if masks is not None:
            delta, delta_dot = delta * masks[k - 1], delta_dot * masks[k - 1]
    blocks[0] = (delta_dot.T @ acts[0]).reshape(-1)
    return np.concatenate(blocks)


def hvp(net: Network, inputs, targets, loss: LossFunction, v: np.ndarray) -> np.ndarray:
    """Exact product of the batch-mean loss Hessian with a flat direction.

    One forward pass plus a tangent forward and a tangent backward pass
    (Pearlmutter's R-op), for identity and relu networks alike; for relu it is
    the Hessian of the smooth piece the batch lies in.  A zero direction maps
    to the zero vector.
    """
    x = _as_batch(inputs)
    return _hessian_vp(net, x, _as_targets(targets, x.shape[0]), loss, v)


def ggn_vp(net: Network, inputs, targets, loss: LossFunction, v: np.ndarray) -> np.ndarray:
    """Exact product with the generalized Gauss-Newton part of the Hessian.

    For a scalar output the curvature part is a mean of rank-one terms, so
    the product is (1/N) sum_s L''(y_s) (g_s . v) g_s with per-sample output
    gradients g_s.  The tangent forward pass gives every g_s . v at once as
    the output tangent; no finite differences involved.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    along = _dense_along(_direction_layers(net, v))
    trace = batch_forward(net, x)
    _, z_dot = _tangent_forward(net.weights, trace.activations, trace.masks, along)
    coeff = loss.d2(trace.outputs, t) * z_dot[:, 0] / x.shape[0]
    return _weighted_gradient(net, trace, coeff)

