"""Gradients, curvature products, and dense curvature oracles.

Two routes exist for every second-order quantity: exact routes that exploit
the layered structure, and finite-difference routes that know nothing about
that structure and serve only as independent oracles.  Every exact
Hessian-vector product (hvp, output_hessian_vp, directional_output_curvature)
is one R-op, valid for identity and relu networks.  The R-op and the
Gauss-Newton product ggn_vp share one tangent forward pass, which gives the
Jacobian-vector product of every layer along a weight direction.  Along the
loss gradient, gradient_curvatures adds the second-order Taylor coefficient
to that pass and reads both parts of the curvature off the output, with no
backward pass.  Both passes take the direction as its action v -> v D_l on
each layer, so the Monte Carlo engine in theory runs them on stacks of
networks.  The dense output Hessian and its case-formula product with the
gradient are closed forms for linear networks only.
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
    BatchTrace,
    Network,
    batch_forward,
    forward,
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


def _require_scalar_output(net: Network) -> None:
    if net.arch.widths[-1] != 1:
        raise DimensionError("curvature analysis requires a single output unit")


def _require_identity(net: Network, what: str) -> None:
    if net.arch.activation != IDENTITY:
        raise ActivationError(f"{what} is defined for identity-activation (linear) networks only")


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
    _require_scalar_output(net)
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
    _require_scalar_output(net)
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
    _require_scalar_output(net)
    trace = batch_forward(net, x)
    value = float(np.mean(loss.value(trace.outputs, t)))
    slopes = loss.d1(trace.outputs, t) / x.shape[0]
    return value, _weighted_gradient(net, trace, slopes)


def per_sample_output_gradients(net: Network, inputs) -> np.ndarray:
    """(n_samples, P) matrix of per-sample output gradients."""
    x = _as_batch(inputs)
    _require_scalar_output(net)
    trace = batch_forward(net, x)
    a = _output_sensitivities(net.weights, np.ones_like(trace.activations[-1]), trace.masks)
    blocks = []
    for k in range(net.depth):
        outer = a[k + 1][:, :, None] * trace.activations[k][:, None, :]  # (N, n_k, n_{k-1})
        blocks.append(outer.reshape(x.shape[0], -1))
    return np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# Closed-form output Hessian (linear networks)
# ---------------------------------------------------------------------------


def _jacobian_table(net: Network) -> dict[tuple[int, int], np.ndarray]:
    """All interlayer Jacobians J[(l, k)] for 0 <= l < k <= L - 1."""
    depth = net.depth
    table: dict[tuple[int, int], np.ndarray] = {}
    for l in range(depth):
        for k in range(l + 1, depth):
            if k == l + 1:
                table[(l, k)] = net.weights[k - 1]
            else:
                table[(l, k)] = table[(l, k - 1)] @ net.weights[k - 1]
    return table


def output_hessian(net: Network, x, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Dense P x P Hessian of the scalar output w.r.t. all weights.

    Assembled block by block from the five closed-form cases for a pair of
    layers (row layer k, column layer l): l < k-1, l = k-1, l = k (zero),
    l = k+1, and l > k+1.  Only identity-activation networks admit this
    closed form; a relu network raises.
    """
    _require_identity(net, "the closed-form output Hessian")
    _require_scalar_output(net)
    index = net.param_index
    if index.n_params > dense_cap:
        raise CapacityError(
            f"P = {index.n_params} exceeds dense cap {dense_cap}; use matrix-free products"
        )
    trace = forward(net, x)
    y = trace.activations
    depth = net.depth
    P = index.n_params
    hess = np.zeros((P, P))
    if depth == 1:
        return hess  # output linear in the only weight layer
    a = _output_sensitivities(net.weights, np.ones(1))
    jac = _jacobian_table(net)
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
                block = np.einsum("i,uj,v->ijuv", a[k], jac[(l, k - 1)], y[l - 1])
            elif l == k + 1:
                block = np.einsum("u,j,vi->ijuv", a[l], y[k - 1], np.eye(n_k))
            else:  # l > k + 1
                block = np.einsum("u,iv,j->ijuv", a[l], jac[(k, l - 1)], y[k - 1])
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
    _require_identity(net, "the output Hessian-gradient case formula")
    _require_scalar_output(net)
    index = net.param_index
    trace = forward(net, x)
    y = trace.activations
    depth = net.depth
    if depth == 1:
        return np.zeros(index.n_params)
    a = _output_sensitivities(net.weights, np.ones(1))
    jac = _jacobian_table(net)
    a_sq = [None] + [float(a[k] @ a[k]) for k in range(1, depth + 1)]
    y_sq = [float(y[l] @ y[l]) for l in range(depth + 1)]

    def rows_far_above(l):
        # row layers k >= l + 2: sum_k ||a_k||^2 * (J(l, k-1) @ y_{k-1})
        acc = np.zeros(net.arch.widths[l])
        for k in range(l + 2, depth + 1):
            acc += a_sq[k] * (jac[(l, k - 1)] @ y[k - 1])
        return np.outer(y[l - 1], acc)

    def rows_far_below(l):
        # row layers k <= l - 2: sum_k ||y_{k-1}||^2 * (J(k, l-1)^T @ a_k)
        acc = np.zeros(net.arch.widths[l - 1])
        for k in range(1, l - 1):
            acc += y_sq[k - 1] * (jac[(k, l - 1)].T @ a[k])
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


def _loss_at_param_stack(
    net: Network, inputs: np.ndarray, targets: np.ndarray, loss: LossFunction, stack: np.ndarray
) -> np.ndarray:
    """Batch loss evaluated at a stack of flat parameter vectors.

    stack has shape (B, P); returns (B,).  Each row is read as the flat
    parameter vector of its own network and the inputs are pushed through
    in the column layout (B, n_l, N), every layer one BLAS product.  The
    inputs are the same for every row, so layer 1 is a single GEMM of all
    B first-layer blocks against inputs.T; later layers are one batched
    matmul W_b @ a_b each.

    This loop is the finite-difference oracle's own forward pass.  It
    shares no code with batch_forward, the tangent passes or the R-op, and
    it knows nothing of the network beyond the flat layout of each row, so
    a fault in the exact routes cannot also hide in the oracle.
    """
    index = net.param_index
    widths = net.arch.widths
    relu = net.arch.activation == RELU
    depth = net.depth
    n_rows = stack.shape[0]
    # A layer block in flat order is (n_l, n_{l-1}) row-major, i.e. W_l^T.
    first = stack[:, index.layer_slice(0)].reshape(n_rows * widths[1], widths[0])
    acts = (first @ inputs.T).reshape(n_rows, widths[1], inputs.shape[0])
    for l in range(2, depth + 1):
        if relu:
            acts = np.maximum(acts, 0.0)
        w_t = stack[:, index.layer_slice(l - 1)].reshape(n_rows, widths[l], widths[l - 1])
        acts = w_t @ acts
    outputs = acts[:, 0, :]
    return np.mean(loss.value(outputs, targets[None, :]), axis=1)


def fd_hessian(
    net: Network,
    inputs,
    targets,
    loss: LossFunction,
    step: float | None = None,
    dense_cap: int = DENSE_CAP,
) -> np.ndarray:
    """Central-difference dense Hessian of the batch loss.

    Per-coordinate step h_a = eps**0.25 * (1 + |w_a|) unless an explicit
    step is given; diagonal entries use the three-point stencil, off-diagonal
    entries the four-point stencil, and the result is symmetrized.
    Deliberately ignorant of network structure: this is the oracle the
    closed-form routes are judged against.  It only ever evaluates the batch
    loss at stacks of flat parameter vectors (_loss_at_param_stack, whose
    forward loop is its own), so it shares no kernel with the routes it
    judges.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    _require_scalar_output(net)
    index = net.param_index
    P = index.n_params
    if P > dense_cap:
        raise CapacityError(f"P = {P} exceeds dense cap {dense_cap}")
    w0 = net.param_vector()
    h = np.full(P, step) if step is not None else _QUART_EPS * (1.0 + np.abs(w0))

    def eval_stack(stack):
        return _loss_at_param_stack(net, x, t, loss, stack)

    f0 = float(eval_stack(w0[None, :])[0])
    hess = np.zeros((P, P))

    # Diagonal: f(w + h e_a) and f(w - h e_a).
    diag_stack = np.repeat(w0[None, :], 2 * P, axis=0)
    diag_stack[np.arange(P), np.arange(P)] += h
    diag_stack[P + np.arange(P), np.arange(P)] -= h
    f_diag = eval_stack(diag_stack)
    hess[np.arange(P), np.arange(P)] = (f_diag[:P] - 2.0 * f0 + f_diag[P:]) / h**2

    # Off-diagonal four-point stencils, evaluated in chunks of pairs a < b.
    # Row 4i + s of a chunk's stack perturbs pair i by the signs _FD_SIGNS[s].
    pair_a, pair_b = np.triu_indices(P, 1)
    chunk = max(1, 65536 // max(P, 1))
    for start in range(0, pair_a.size, chunk):
        a, b = pair_a[start : start + chunk], pair_b[start : start + chunk]
        m = a.size
        stack = np.repeat(w0[None, :], 4 * m, axis=0)
        for s, (sign_a, sign_b) in enumerate(_FD_SIGNS):
            rows = np.arange(s, 4 * m, 4)
            stack[rows, a] += sign_a * h[a]
            stack[rows, b] += sign_b * h[b]
        vals = eval_stack(stack).reshape(m, 4)
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
    _require_scalar_output(net)
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
    _require_scalar_output(net)
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
    _require_scalar_output(net)
    along = _dense_along(_direction_layers(net, v))
    trace = batch_forward(net, x)
    _, z_dot = _tangent_forward(net.weights, trace.activations, trace.masks, along)
    coeff = loss.d2(trace.outputs, t) * z_dot[:, 0] / x.shape[0]
    return _weighted_gradient(net, trace, coeff)


def directional_output_curvature(net: Network, x, direction: np.ndarray) -> float:
    """Second derivative of the scalar output along a direction, normalized.

    The quadratic form u . H_out u of the output Hessian at the single input
    x, with u = direction / ||direction||, from the exact product
    output_hessian_vp.  Works for either activation (for relu, the Hessian of
    the local smooth piece).
    """
    n_params = net.arch.n_params
    d = np.asarray(direction, dtype=np.float64).reshape(-1)
    if d.shape[0] != n_params:
        raise DimensionError(f"direction length {d.shape[0]} != P = {n_params}")
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        raise DirectionError("direction has zero norm")
    unit = d / d_norm
    return float(unit @ output_hessian_vp(net, x, unit))
