"""Gradients, curvature products, and dense curvature oracles.

Two routes exist for every second-order quantity: exact routes that exploit
the layered structure, and finite-difference routes that serve only as
independent oracles.  The oracles use no derivative formula and share no
kernel with the exact routes; the dense FD Hessian knows only the flat
parameter layout (which unit a coordinate feeds) and the order in which the
layers compose, and uses them only to skip work: a moved weight recomputes
only the unit it feeds, from its moved row, and the activations after a
first move are shared by every second move.  Every exact
Hessian-vector product (hvp, output_hessian_vp) is one R-op, valid for
identity and relu networks.  The exact routes run one forward pass each:
given a weight direction, batch_forward carries the first two Taylor
coefficients of every layer along it.  The R-op and the Gauss-Newton
product ggn_vp read the Jacobian-vector products off that pass, and
gradient_curvatures reads both parts of the curvature along the loss
gradient off the output's two coefficients, with no backward pass.  The
forward pass takes the direction as its action v -> v D_l on each layer,
so the Monte Carlo engine in theory runs it on stacks of networks too.
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
    batch_forward,
    forward,
    interlayer_jacobian,
)
from .parallel import INLINE, Lane

# Dense P x P storage above this parameter count is refused; matrix-free
# operations have no such cap.
DENSE_CAP = 20_000

# Second-derivative stencils: rounding error scales like eps/h^2 against
# truncation h^2, so the balanced step is the quarter root, not the cube
# root that suits first derivatives.
_QUART_EPS = float(np.finfo(np.float64).eps ** 0.25)

# Signs of the steps along a and b in the four points of the off-diagonal
# stencil (f(++) - f(+-) - f(-+) + f(--)) / (4 h_a h_b); _SIGN[s] is the
# sign of index s, so index 2 s_a + s_b of _FD_SIGNS is (_SIGN[s_a], _SIGN[s_b]).
_FD_SIGNS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
_SIGN = np.array([1.0, -1.0])

# Activations held by one chunk of stencil points: 512 KiB of float64, so a
# chunk and the next layer's GEMM output fit together in a 2 MiB L2 cache.
_FD_CHUNK_CELLS = 65536


# ---------------------------------------------------------------------------
# Loss functions
# ---------------------------------------------------------------------------

SQUARED_ERROR = "squared_error"
HALF_SQUARED_ERROR = "half_squared_error"
RAW_OUTPUT = "raw_output"


# Curvature L'' of each loss kind: L(y) = c (y - t)^2 / 2 with slope c (y - t)
# for c > 0, and the raw output L(y) = y for c = 0.
_LOSS_CURVATURE = {SQUARED_ERROR: 2.0, HALF_SQUARED_ERROR: 1.0, RAW_OUTPUT: 0.0}


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

    def __post_init__(self):
        if self.kind not in _LOSS_CURVATURE:
            raise DimensionError(f"unknown loss kind {self.kind!r}; expected one of {tuple(_LOSS_CURVATURE)}")

    def _residual(self, y, targets):
        return y - (self.target if targets is None else targets)

    def value(self, y, targets=None):
        c = self.curvature_min
        return 0.5 * c * self._residual(y, targets) ** 2 if c else y

    def d1(self, y, targets=None):
        c = self.curvature_min
        if c:
            return c * self._residual(y, targets)
        return np.ones_like(y) if isinstance(y, np.ndarray) else 1.0

    def d2(self, y, targets=None):
        c = self.curvature_min
        return c * np.ones_like(y) if isinstance(y, np.ndarray) else c

    @property
    def curvature_min(self) -> float:
        return _LOSS_CURVATURE[self.kind]


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


def _sensitivity_chain(weights, seed: np.ndarray, masks=None):
    """Yield (k, a_k) for k = L .. 1, a_k = d(output)/d(layer-k activations)
    in row layout.

    The backward pass of every route: a_L = seed and a_k = a_{k+1} W_{k+1}^T,
    times the hidden layer's relu mask when masks are given.  seed is ones of
    shape (1,) for one network, (n_samples, 1) for a batch, or (T, 1, 1) for
    stacked (T, n_{k-1}, n_k) weights.  Layer k's output-gradient block is
    y_{k-1} (x) a_k, so a_0 is never needed.
    """
    a = seed
    yield len(weights), a
    for k in range(len(weights) - 1, 0, -1):
        a = a @ np.swapaxes(weights[k], -1, -2)
        if masks is not None:
            a = a * masks[k - 1]
        yield k, a


def _output_sensitivities(weights, seed: np.ndarray, masks=None) -> list:
    """The list a with a[k] = a_k of _sensitivity_chain; a[0] stays None."""
    a = [None] * (len(weights) + 1)
    for k, a_k in _sensitivity_chain(weights, seed, masks):
        a[k] = a_k
    return a


def batch_loss(net: Network, inputs, targets, loss: LossFunction) -> float:
    """Mean loss over the batch, from a loss-only pass that keeps no trace."""
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    trace = batch_forward(net, x, outputs_only=True)
    return float(np.mean(loss.value(trace.outputs, t)))


def _weighted_gradient(net: Network, trace: BatchTrace, sample_weights: np.ndarray,
                       lane: Lane = INLINE) -> np.ndarray:
    """Flat vector sum_s w_s * (gradient of output_s w.r.t. all weights).

    Each layer's product is written straight into its slice of the result,
    through the transpose of its unflattened block: (n_k, n_{k-1}) row-major.
    The products go to the lane as the backward chain yields their a_k.
    """
    out = np.empty(net.param_index.n_params)
    blocks = net.param_index.unflatten(out)
    chain = _sensitivity_chain(net.weights, np.ones_like(trace.activations[-1]), trace.masks)
    products = [
        lane.submit(_gradient_block, a_k, sample_weights, trace.activations[k - 1], blocks[k - 1])
        for k, a_k in chain
    ]
    for p in reversed(products):  # the last ones are the likeliest still queued
        p.result()
    return out


def _gradient_block(a_k, sample_weights, y, block) -> None:
    weighted = a_k * sample_weights[:, None]
    np.matmul(weighted.T, y, out=block.T)


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


def loss_and_gradient(net: Network, inputs, targets, loss: LossFunction,
                      lane: Lane = INLINE) -> tuple[float, np.ndarray]:
    """Batch-mean loss and its gradient from a single forward pass; the
    weight-gradient products run on lane."""
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    trace = batch_forward(net, x)
    value = float(np.mean(loss.value(trace.outputs, t)))
    slopes = loss.d1(trace.outputs, t) / x.shape[0]
    return value, _weighted_gradient(net, trace, slopes, lane)


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

    Assembled block by block from the closed form of a linear network for a
    pair of layers (row layer k, column layer l): zero for l = k,
    a_k (x) J(l, k-1) (x) y_{l-1} for l < k and its mirror image for l > k,
    with J(m, m) = I.  At x, a relu network is the linear network with
    masked weights W_k diag(m_k), m_k the hidden layers' relu masks and
    m_L = 1.  The masking is linear in the weights, so the relu Hessian is
    D H_lin D, where D holds for every weight the mask of the unit it
    feeds: the Hessian of the linear piece x lies in.
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
        for l in range(1, depth + 1):
            if l < k:
                block = np.einsum("i,uj,v->ijuv", a[k], interlayer_jacobian(net, trace, l, k - 1), y[l - 1])
            elif l > k:
                block = np.einsum("u,iv,j->ijuv", a[l], interlayer_jacobian(net, trace, k, l - 1), y[k - 1])
            else:
                continue  # a layer's own block is zero
            hess[rows, index.layer_slice(l - 1)] = block.reshape(widths[k] * widths[k - 1], -1)
    return hess


def output_hessian_grad_product(net: Network, x) -> np.ndarray:
    """Product of the output Hessian with the output gradient, without the
    dense matrix.

    Evaluated from the layered case formula of a linear network: the block
    of the product at column layer l is y_{l-1} (x) above + below (x) a_l,
    two sums over the row layers k, with J(m, m) = I:

        above = sum_{k > l} ||a_k||^2 J(l, k-1) y_{k-1}
        below = sum_{k < l} ||y_{k-1}||^2 J(k, l-1)^T a_k

    An empty sum (above at the last layer, below at the first) is zero.
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
    widths = net.arch.widths
    blocks = []
    for l in range(1, depth + 1):
        above = np.zeros(widths[l])
        for k in range(l + 1, depth + 1):
            above += float(a[k] @ a[k]) * (interlayer_jacobian(net, trace, l, k - 1) @ y[k - 1])
        below = np.zeros(widths[l - 1])
        for k in range(1, l):
            below += float(y[k - 1] @ y[k - 1]) * (interlayer_jacobian(net, trace, k, l - 1).T @ a[k])
        delta = np.outer(y[l - 1], above) + np.outer(below, a[l])
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


class _FdStencil:
    """The batch losses of the FD stencil, one layer pair at a time.

    The finite-difference oracle's own forward loop: it shares no code with
    batch_forward, the tangent passes or the R-op.  Layers are indexed from
    0 here: block l is W_{l+1}^T, (widths[l+1], widths[l]) row-major, the
    flat layout of its coordinates, so a coordinate moves one weight of the
    row that feeds one unit.  A moved unit's pre-activation is recomputed as
    the dot product of its moved row with the layer's input; every other
    unit keeps its unmoved value, and the unmoved layers after the last
    moved one are one GEMM each over a chunk of points, in the column layout
    (width, points x N).  For a pair in layers la < lb, the activations
    entering lb depend only on the move in la, so they are computed once per
    (a, sign) and shared by every b.  Chunks hold about _FD_CHUNK_CELLS
    activations.
    """

    def __init__(self, net: Network, inputs: np.ndarray, targets: np.ndarray,
                 loss: LossFunction, h: np.ndarray):
        self.offsets = net.param_index.offsets
        self.widths, self.depth = net.arch.widths, net.depth
        self.relu = net.arch.activation == RELU
        self.targets, self.loss, self.h = targets, loss, h
        self.n_samples = n = inputs.shape[0]
        w0 = net.param_vector()
        self.blocks = [
            w0[net.param_index.layer_slice(l)].reshape(self.widths[l + 1], self.widths[l])
            for l in range(self.depth)
        ]
        # Unmoved input (widths[l], N) and pre-activation (widths[l+1], N) of
        # every layer.
        self.layer_inputs = [np.ascontiguousarray(inputs.T)]
        self.pre = []
        for l, block in enumerate(self.blocks):
            self.pre.append(block @ self.layer_inputs[l])
            if l + 1 < self.depth:
                self.layer_inputs.append(self._act(self.pre[l].copy()))
        # moved[l][c, s]: the pre-activation of the unit coordinate c feeds,
        # at the unmoved input, with c moved by _SIGN[s] h_c; (P_l, 2, N).
        self.moved = []
        for l in range(self.depth):
            size, chunk = self._size(l), self._chunk(2 * (self.widths[l] + n))
            parts = [
                self._moved_rows(l, lo, min(lo + chunk, size)) @ self.layer_inputs[l]
                for lo in range(0, size, chunk)
            ]
            self.moved.append(np.concatenate(parts).reshape(-1, 2, n))

    def _act(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0, out=z) if self.relu else z

    def _size(self, layer: int) -> int:
        return int(self.offsets[layer + 1] - self.offsets[layer])

    def _units(self, layer: int) -> np.ndarray:
        """The unit each coordinate of layer's block feeds, in flat order."""
        return np.arange(self._size(layer)) // self.widths[layer]

    def _chunk(self, cells_per_item: int) -> int:
        return max(1, _FD_CHUNK_CELLS // cells_per_item)

    def _moved_rows(self, layer: int, lo: int, hi: int) -> np.ndarray:
        """The rows feeding the units of coordinates lo .. hi-1 of layer's
        block, each moved at its coordinate by +h, then by -h: row 2 r + s
        is coordinate lo + r moved by _SIGN[s] h; (2 (hi - lo), widths[layer])."""
        unit, j = np.divmod(np.arange(lo, hi), self.widths[layer])
        step = self.h[self.offsets[layer] + lo : self.offsets[layer] + hi]
        rows = np.repeat(self.blocks[layer][unit, None], 2, axis=1)
        k = np.arange(hi - lo)
        rows[k, 0, j] += step
        rows[k, 1, j] -= step
        return rows.reshape(-1, self.widths[layer])

    def _losses(self, outputs: np.ndarray) -> np.ndarray:
        """Batch losses of the points whose outputs are the rows of outputs."""
        return np.mean(self.loss.value(outputs, self.targets), axis=1)

    def _outputs_after(self, layer: int, z: np.ndarray) -> np.ndarray:
        """Outputs (K, N) of K points whose pre-activations at layer are z,
        (widths[layer+1], K, N); the layers after it are unmoved."""
        n_points = z.shape[1]
        z = z.reshape(z.shape[0], -1)
        for l in range(layer + 1, self.depth):
            z = self.blocks[l] @ self._act(z)
        return z.reshape(n_points, -1)

    def values(self):
        """Yield (a, b, signs, vals): vals[r, s] is the batch loss at w0 moved
        by signs[s][0] h_a along a[r] and by signs[s][1] h_b along b[r].

        The unmoved point comes first (one value, signs 0).  Then, layer by
        layer la: the pairs a < b inside la (signs _FD_SIGNS), and for each
        chunk of its coordinates a, the pairs (a, b) with b in every later
        layer (_FD_SIGNS) and the diagonal a = b (signs +-1 and 0).
        """
        f0 = self._losses(self.pre[-1])
        yield np.zeros(1, dtype=int), np.zeros(1, dtype=int), ((0.0, 0.0),), f0[:, None]
        for la in range(self.depth):
            yield from self._same_layer(la)
            yield from self._from_layer(la)

    def _same_layer(self, la: int):
        """Pairs a < b in layer la: units i_a and i_b take their moved values,
        and a unit fed by both takes the value of its row moved at both."""
        n, off = self.n_samples, self.offsets[la]
        unit = self._units(la)
        j = np.arange(unit.size) % self.widths[la]
        sign_a, sign_b = np.divmod(np.arange(4), 2)  # the _SIGN indices of _FD_SIGNS
        for a, b in _pairs_above_diagonal(unit.size, self._chunk(4 * n * max(self.widths))):
            pairs = np.arange(a.size)
            z = np.repeat(self.pre[la][:, None, :], 4 * a.size, axis=1).reshape(-1, a.size, 4, n)
            z[unit[a], pairs] = self.moved[la][a[:, None], sign_a]
            z[unit[b], pairs] = self.moved[la][b[:, None], sign_b]
            same = np.flatnonzero(unit[a] == unit[b])
            a_s, b_s, k = a[same, None], b[same, None], np.arange(same.size)[:, None]
            rows = np.repeat(self.blocks[la][unit[a[same]], None], 4, axis=1)
            rows[k, np.arange(4), j[a_s]] += _SIGN[sign_a] * self.h[off + a_s]
            rows[k, np.arange(4), j[b_s]] += _SIGN[sign_b] * self.h[off + b_s]
            rows = rows.reshape(-1, self.widths[la])
            z[unit[a[same]], same] = (rows @ self.layer_inputs[la]).reshape(-1, 4, n)
            out = self._outputs_after(la, z.reshape(z.shape[0], -1, n))
            yield off + a, off + b, _FD_SIGNS, self._losses(out).reshape(-1, 4)

    def _from_layer(self, la: int):
        """The diagonal of layer la and its pairs with every later layer.

        For a chunk of coordinates a, the 2 ka points a +- h_a are carried
        layer by layer in the column layout (width, 2 ka N), and the
        activations entering each later layer lb are the prefixes of the
        pairs (a, b).
        """
        n, off = self.n_samples, self.offsets[la]
        unit = self._units(la)
        chunk = self._chunk(4 * n * max(self.widths))
        for lo in range(0, unit.size, chunk):
            a = np.arange(lo, min(lo + chunk, unit.size))
            z = np.repeat(self.pre[la][:, None, :], 2 * a.size, axis=1)
            z[np.repeat(unit[a], 2), np.arange(2 * a.size)] = self.moved[la][a].reshape(-1, n)
            z = z.reshape(z.shape[0], -1)
            for lb in range(la + 1, self.depth):
                prefix = self._act(z)
                z = self.blocks[lb] @ prefix
                yield from self._cross(lb, off + a, prefix, z)
            vals = self._losses(z.reshape(-1, n)).reshape(-1, 2)
            yield off + a, off + a, ((1.0, 0.0), (-1.0, 0.0)), vals

    def _cross(self, lb: int, a: np.ndarray, prefix: np.ndarray, pre: np.ndarray):
        """Pairs (a, b) with b in layer lb, given the prefixes (widths[lb],
        2 ka N) that a +- h_a feed into lb and their pre-activations pre
        (widths[lb+1], 2 ka N) at lb.  Unit i_b takes the dot of b's moved
        row with each prefix: one GEMM for every (b, sign) against every
        prefix.
        """
        n, ka, off = self.n_samples, a.size, self.offsets[lb]
        unit = self._units(lb)
        chunk = self._chunk(4 * ka * n * max(self.widths))
        for lo in range(0, unit.size, chunk):
            b = np.arange(lo, min(lo + chunk, unit.size))
            moved = (self._moved_rows(lb, lo, lo + b.size) @ prefix).reshape(2 * b.size, 2 * ka, n)
            if lb == self.depth - 1:  # the output unit is the one moved unit
                out = moved.transpose(1, 0, 2)
            else:
                z = np.repeat(pre.reshape(-1, 2 * ka, 1, n), 2 * b.size, axis=2)
                z[np.repeat(unit[b], 2), :, np.arange(2 * b.size)] = moved
                out = self._outputs_after(lb, z.reshape(z.shape[0], -1, n))
            vals = self._losses(out.reshape(-1, n)).reshape(ka, 2, b.size, 2).transpose(0, 2, 1, 3)
            yield np.repeat(a, b.size), np.tile(off + b, ka), _FD_SIGNS, vals.reshape(-1, 4)


def _pairs_above_diagonal(size: int, chunk: int):
    """The pairs a < b of range(size) in row-major order, chunk at a time."""
    counts = np.arange(size - 1, -1, -1)
    starts = np.cumsum(counts) - counts  # flat index of each row's first pair
    total = size * (size - 1) // 2
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total))
        a = np.searchsorted(starts, flat, side="right") - 1
        yield a, a + 1 + flat - starts[a]


def fd_hessian(
    net: Network,
    inputs,
    targets,
    loss: LossFunction,
    step: float | None = None,
) -> np.ndarray:
    """Central-difference dense Hessian of the batch loss.

    Per-coordinate step h_a = eps**0.25 * (1 + |w_a|) unless an explicit
    step (finite and > 0) is given; diagonal entries use the three-point
    stencil, off-diagonal entries the four-point stencil, 1 + 2P + 2P(P - 1)
    loss evaluations.  The result is symmetric by construction: entries
    [a, b] and [b, a] are written from the same stencil value, so no second
    P x P matrix is made to symmetrize it.  This is the oracle
    the exact routes are judged against, so it uses no derivative formula
    and shares no kernel with them: every value is a batch loss at w0 moved
    along one or two coordinates, from _FdStencil's own forward loop.  All
    it knows of the network is the flat layout (which unit a coordinate
    feeds) and the order in which the layers compose, and it uses that
    only to skip work: a move recomputes only the unit it feeds, and the
    activations after a first move are shared by every second move.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    index = net.param_index
    P = index.n_params
    if P > DENSE_CAP:
        raise CapacityError(f"P = {P} exceeds dense cap {DENSE_CAP}")
    if step is not None and not (np.isfinite(step) and step > 0.0):
        raise DimensionError(f"fd_hessian step must be finite and > 0, got {step}")
    w0 = net.param_vector()
    h = np.full(P, step) if step is not None else _QUART_EPS * (1.0 + np.abs(w0))
    hess = np.zeros((P, P))
    for a, b, signs, vals in _FdStencil(net, x, t, loss, h).values():
        if len(signs) == 1:
            f0 = vals[0, 0]
        elif len(signs) == 2:  # diagonal: f(w + h e_a) and f(w - h e_a)
            hess[a, a] = (vals[:, 0] - 2.0 * f0 + vals[:, 1]) / h[a] ** 2
        else:
            v = (vals[:, 0] - vals[:, 1] - vals[:, 2] + vals[:, 3]) / (4.0 * h[a] * h[b])
            hess[a, b] = v
            hess[b, a] = v
    return hess


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
    # Each block of u is divided out where the pass uses it: no P-sized u.
    dirs = _direction_layers(net, g)
    trace = batch_forward(net, x, lambda k, v: v @ (dirs[k] / norm))
    y = trace.outputs
    gn_proj = float(np.mean(loss.d2(y, t) * trace.output_dot**2))
    fun_proj = float(np.mean(loss.d1(y, t) * trace.output_ddot))
    return gn_proj + fun_proj, gn_proj, fun_proj


def _hessian_vp(net: Network, x: np.ndarray, t, loss: LossFunction, v) -> np.ndarray:
    """Pearlmutter's R-op: the batch-mean loss Hessian times v, exactly.

    After a forward pass along v, a tangent backward pass carries the loss
    signals d_l of _weighted_gradient together with their tangents,
    d'_L = L''(y) y' / N and d'_{l-1} = mask * (d'_l W_l^T + d_l D_l^T).  Layer l's block is
    a'_{l-1}^T d_l + a_{l-1}^T d'_l.  relu'' = 0 almost everywhere, so the base
    point's masks carry the whole relu dependence.
    """
    dirs = _direction_layers(net, v)
    weights, depth = net.weights, net.depth
    trace = batch_forward(net, x, _dense_along(dirs))
    acts, masks, act_dots = trace.activations, trace.masks, trace.tangents

    n = x.shape[0]
    y = trace.outputs
    delta = (loss.d1(y, t) / n)[:, None]
    delta_dot = loss.d2(y, t)[:, None] * trace.output_dot[:, None] / n
    out = np.empty(net.param_index.n_params)
    blocks = [b.T for b in net.param_index.unflatten(out)]  # as in _weighted_gradient
    for k in range(depth - 1, 0, -1):
        np.matmul(delta_dot.T, acts[k], out=blocks[k])
        blocks[k] += delta.T @ act_dots[k]
        delta, delta_dot = delta @ weights[k].T, delta_dot @ weights[k].T + delta @ dirs[k].T
        if masks is not None:
            delta, delta_dot = delta * masks[k - 1], delta_dot * masks[k - 1]
    np.matmul(delta_dot.T, acts[0], out=blocks[0])
    return out


def hvp(net: Network, inputs, targets, loss: LossFunction, v: np.ndarray) -> np.ndarray:
    """Exact product of the batch-mean loss Hessian with a flat direction.

    One forward pass along v and a tangent backward pass (Pearlmutter's
    R-op), for identity and relu networks alike; for relu it is the Hessian
    of the smooth piece the batch lies in.  A zero direction maps
    to the zero vector.
    """
    x = _as_batch(inputs)
    return _hessian_vp(net, x, _as_targets(targets, x.shape[0]), loss, v)


def ggn_vp(net: Network, inputs, targets, loss: LossFunction, v: np.ndarray) -> np.ndarray:
    """Exact product with the generalized Gauss-Newton part of the Hessian.

    For a scalar output the curvature part is a mean of rank-one terms, so
    the product is (1/N) sum_s L''(y_s) (g_s . v) g_s with per-sample output
    gradients g_s.  The forward pass along v gives every g_s . v at once as
    the output's first Taylor coefficient; no finite differences involved.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    trace = batch_forward(net, x, _dense_along(_direction_layers(net, v)))
    coeff = loss.d2(trace.outputs, t) * trace.output_dot / x.shape[0]
    return _weighted_gradient(net, trace, coeff)

