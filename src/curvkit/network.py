"""Feedforward single-output networks: definition, forward pass, Jacobians.

One layer loop, _forward, is the forward pass of every exact route:
single inputs, batches, training probes and stacks of Monte Carlo
networks.  Given a weight direction it also carries the first two Taylor
coefficients of every layer along it; the Hessian-vector, Gauss-Newton and
gradient-curvature products in diff and the Monte Carlo engine in theory
read them off that one pass.

Conventions used everywhere in the package:

* Layer l maps activations of width n_{l-1} to width n_l through a weight
  matrix W_l stored with shape (n_{l-1}, n_l): output = W_l^T input.  There
  are no biases.
* The output width n_L is 1: Architecture refuses any other, so every
  network, a loaded one included, has the scalar output that the Hessian
  split into G and H needs.
* Hidden layers apply relu elementwise when the architecture says so; the
  final (scalar) output layer is always linear, so a twice differentiable
  loss of the output stays twice differentiable in the weights.
* The flat parameter vector concatenates layers in ascending order; within
  a layer, all weights feeding output unit 0 come first (ascending input
  index), then output unit 1, and so on.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ActivationError, DimensionError
from .parallel import INLINE, Lane
from .rng import GAUSSIAN, InitDistribution, RngStream, as_generator
from .tables import open_output

IDENTITY = "identity"
RELU = "relu"

ACTIVATIONS = (IDENTITY, RELU)


@dataclass(frozen=True)
class Architecture:
    """Layer widths plus activation choice.

    widths lists n_0 .. n_L (input width first, output width last, which
    must be 1).
    """

    widths: tuple[int, ...]
    activation: str = IDENTITY

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise DimensionError("architecture needs at least an input and an output width")
        if any(w < 1 for w in self.widths):
            raise DimensionError(f"widths must be positive, got {self.widths}")
        if self.widths[-1] != 1:
            raise DimensionError(f"output width {self.widths[-1]}: a single output unit is required")
        if self.activation not in ACTIVATIONS:
            raise ActivationError(f"unknown activation: {self.activation!r}")

    @property
    def depth(self) -> int:
        """Number of weight layers L."""
        return len(self.widths) - 1

    @property
    def n_params(self) -> int:
        return sum(a * b for a, b in zip(self.widths[:-1], self.widths[1:]))


class ParamIndex:
    """Layout of the flat parameter vector over the per-layer weight blocks.

    Flat order: layers ascending; within layer, output-unit major with
    ascending input index (i.e. column-major traversal of the stored
    weight matrices).
    """

    def __init__(self, widths: tuple[int, ...]):
        self.widths = tuple(widths)
        sizes = [a * b for a, b in zip(widths[:-1], widths[1:])]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.offsets.flags.writeable = False  # shared through _param_index
        self.n_params = int(self.offsets[-1])

    def layer_slice(self, layer: int) -> slice:
        return slice(int(self.offsets[layer]), int(self.offsets[layer + 1]))

    def flatten(self, weights: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([w.ravel(order="F") for w in weights])

    def unflatten(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-layer blocks of vec in weight-matrix shape; views, not copies."""
        if vec.shape != (self.n_params,):
            raise DimensionError(f"expected flat vector of length {self.n_params}")
        out = []
        for layer in range(len(self.widths) - 1):
            block = vec[self.layer_slice(layer)]
            shape = (self.widths[layer], self.widths[layer + 1])
            out.append(block.reshape(shape, order="F"))
        return out


@lru_cache(maxsize=64)
def _param_index(widths: tuple[int, ...]) -> ParamIndex:
    return ParamIndex(widths)


@dataclass
class Network:
    arch: Architecture
    weights: list[np.ndarray]

    def __post_init__(self):
        expected = list(zip(self.arch.widths[:-1], self.arch.widths[1:]))
        got = [w.shape for w in self.weights]
        if got != expected:
            raise DimensionError(f"weight shapes {got} do not match widths {self.arch.widths}")

    @property
    def depth(self) -> int:
        return self.arch.depth

    @property
    def param_index(self) -> ParamIndex:
        return _param_index(self.arch.widths)

    def param_vector(self) -> np.ndarray:
        return self.param_index.flatten(self.weights)

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(w)) for w in self.weights)


def init_network(
    arch: Architecture,
    distribution: str | InitDistribution = GAUSSIAN,
    rng: RngStream | np.random.Generator = RngStream(0),
    rectifier_gain: float = 1.0,
) -> Network:
    """Sample a network with each layer drawn at fan_in = its input width.

    rectifier_gain multiplies the standard deviation of every layer whose
    inputs passed through relu (layers 2..L of a relu network); sqrt(2)
    restores signal-norm preservation that rectification otherwise destroys.
    The default of 1.0 keeps the plain 1/fan_in second moment everywhere,
    and the gain never applies to identity networks.
    """
    kind = distribution.kind if isinstance(distribution, InitDistribution) else distribution
    gen = as_generator(rng)
    weights = []
    for l, (fan_in, fan_out) in enumerate(zip(arch.widths[:-1], arch.widths[1:]), start=1):
        dist = InitDistribution(kind, fan_in)
        w = dist.sample((fan_in, fan_out), gen)
        if arch.activation == RELU and l >= 2 and rectifier_gain != 1.0:
            w *= rectifier_gain
        weights.append(w)
    return Network(arch, weights)


@dataclass
class BatchTrace:
    """Activations of one forward pass, input included, and, along a weight
    direction, their first two Taylor coefficients.

    For a batch the arrays are (n_samples, width); for a single input they
    are (width,).  masks are the hidden layers' active units as bool arrays
    (None without relu); every consumer multiplies by them.  Along a
    direction, tangents[k] is hidden layer k's a'_k (None for the input), and
    output_dot and output_ddot are the outputs' first and second directional
    derivatives; without one they are None.  A loss-only pass keeps no
    trace: its activations are the input and the outputs only, its tangents
    (along a direction) the input's None and the last hidden layer's, and
    its masks are None.
    """

    activations: list[np.ndarray]
    masks: list[np.ndarray] | None = None  # bool active-unit masks, hidden layers only
    tangents: list[np.ndarray | None] | None = None
    output_dot: np.ndarray | None = None
    output_ddot: np.ndarray | None = None

    @property
    def outputs(self) -> np.ndarray:
        return self.activations[-1][..., 0]

    @property
    def output(self) -> float:
        """The scalar output of a single-input trace."""
        return float(self.outputs)


def forward(net: Network, x: np.ndarray) -> BatchTrace:
    """Run a single input through the network, caching every layer output."""
    return batch_forward(net, np.asarray(x, dtype=np.float64).reshape(-1))


def batch_forward(net: Network, inputs: np.ndarray, along=None, outputs_only: bool = False) -> BatchTrace:
    """Forward one input (n_0,) or a batch (n_samples, n_0); rows are samples.

    With along, the action of a weight direction (see _forward), the trace
    also carries the Taylor coefficients along it.  With outputs_only (a
    loss-only pass, or a Taylor pass that reads only the output's
    coefficients) it keeps no trace: only the input, the outputs and the
    last hidden layer's tangents.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.arch.widths[0]:
        raise DimensionError(
            f"input shape {x.shape} does not match input width {net.arch.widths[0]}"
        )
    return _forward(net.weights, x, net.arch.activation == RELU, along, outputs_only)


def _forward(weights, x: np.ndarray, relu: bool, along=None, outputs_only: bool = False) -> BatchTrace:
    """The layer loop of every forward pass: activations, input first, and
    the bool active-unit masks of the hidden layers (None without relu).
    With outputs_only it holds only the layer it is computing: the trace
    keeps the input and the outputs, the last hidden layer's tangents along
    a direction, and no masks.

    Given a weight direction D through its action along(k, v) = v D_{k+1},
    it also carries the first two Taylor coefficients of every layer along
    D (univariate Taylor mode): z'_l = a'_{l-1} W_l + a_{l-1} D_l and
    z''_l = a''_{l-1} W_l + 2 a'_{l-1} D_l, with a' and a'' masked like a
    (relu'' = 0 almost everywhere).  The input does not move, so z'_1 = x D_1,
    z''_1 = 0 and z''_2 = 2 a'_1 D_2 needs no product with W.

    Rows of x are samples.  weights may also be stacked as (T, n_{l-1}, n_l)
    arrays, one network per leading index, with x of shape (T, rows, n_0).
    """
    acts = [x]
    masks: list[np.ndarray] | None = [] if relu and not outputs_only else None
    tangents = None if along is None else [None]  # the input does not move
    z_ddot = None
    depth = len(weights)
    for l, w in enumerate(weights, start=1):
        z = acts[-1] @ w
        if along is not None:
            if l == 1:
                z_dot = along(0, x)
            else:
                cross = 2.0 * along(l - 1, tangents[-1])
                z_ddot = cross if z_ddot is None else z_ddot @ w + cross
                z_dot = tangents[-1] @ w + along(l - 1, acts[-1])
        if relu and l < depth:
            mask = z > 0.0
            np.fmax(z, 0.0, out=z)  # relu; NaN becomes 0 as well
            if masks is not None:
                masks.append(mask)
            if along is not None:
                z_dot = z_dot * mask
                z_ddot = None if z_ddot is None else z_ddot * mask
        if along is not None and l < depth:
            tangents.append(z_dot)
        acts.append(z)
        if outputs_only:  # hold only the layer just computed
            del acts[1:-1]
            if tangents is not None:
                del tangents[1:-1]
    if along is None:
        return BatchTrace(acts, masks)
    z_ddot = np.zeros_like(z) if z_ddot is None else z_ddot  # one layer: y is linear in W
    return BatchTrace(acts, masks, tangents, z_dot[..., 0], z_ddot[..., 0])


def interlayer_jacobian(
    net: Network, trace: BatchTrace, from_layer: int, to_layer: int
) -> np.ndarray:
    """Matrix of partial derivatives of layer to_layer w.r.t. layer from_layer.

    Entry [u, j] is d(activation j of to_layer) / d(activation u of
    from_layer) at the point of a single-input trace.  For identity
    activation this is the plain product of the intervening weight matrices;
    for relu each hidden factor is masked by the trace's active units.
    J(m, m) = I, the empty product.
    """
    if trace.activations[0].ndim != 1:
        raise DimensionError("interlayer_jacobian takes a single-input trace")
    depth = net.depth
    if not 0 <= from_layer <= to_layer <= depth:
        raise IndexError(f"need 0 <= from_layer <= to_layer <= {depth}, got ({from_layer}, {to_layer})")
    if from_layer == to_layer:
        return np.eye(net.arch.widths[from_layer])
    relu = net.arch.activation == RELU
    out = None
    for l in range(from_layer + 1, to_layer + 1):
        factor = net.weights[l - 1]
        if relu and l < depth:
            factor = factor * trace.masks[l - 1][None, :]
        out = factor if out is None else out @ factor
    return out


def save_network(net: Network, path, lane: Lane = INLINE) -> None:
    """Write a self-describing text file: widths header + row-major blocks.

    Every weight is written as '%.17g' % w, which reads back bit for bit.
    floattext.g17 formats it, exactly and a block of rows at a time, so
    the writer holds one block's text, never a layer's Python floats; it
    formats alternate blocks on lane.
    """
    from .floattext import g17  # here, so that commands which write no arrays never compile it

    widths = " ".join(str(w) for w in net.arch.widths)
    with open_output(path) as fh:
        fh.write(f"curvkit-network v1\nactivation {net.arch.activation}\nwidths {widths}\n")
        for l, w in enumerate(net.weights, start=1):
            rows, cols = w.shape
            fh.write(f"layer {l} {rows}x{cols}\n")
            fh.writelines(g17(w, " ", lane))


def load_network(path, strict: bool = True) -> Network:
    """Read a network written by save_network.

    strict=True rejects non-finite weights at load time; strict=False defers
    that to downstream numeric checks (useful for diagnosing damaged files).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise DimensionError(f"{path}: not a curvkit network file (not ASCII text)") from exc
    if not lines or lines[0] != "curvkit-network v1":
        raise DimensionError(f"{path}: not a curvkit network file")
    if len(lines) < 3:
        raise DimensionError(f"{path}: file ends before the widths line")
    if not lines[1].startswith("activation "):
        raise DimensionError(f"{path}: missing activation line")
    activation = lines[1].split()[1]
    if not lines[2].startswith("widths "):
        raise DimensionError(f"{path}: missing widths line")
    try:
        arch = Architecture(tuple(int(tok) for tok in lines[2].split()[1:]), activation)
    except ValueError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
    widths = arch.widths
    if len(lines) < 3 + arch.depth + sum(widths[:-1]):
        raise DimensionError(f"{path}: file ends before the last weight row")
    weights = []
    cursor = 3
    for l in range(arch.depth):
        rows, cols = widths[l], widths[l + 1]
        header = lines[cursor]
        if not header.startswith(f"layer {l + 1} "):
            raise DimensionError(f"{path}: malformed layer header {header!r}")
        cursor += 1
        block = []
        for r in range(rows):
            try:
                row = [float(tok) for tok in lines[cursor + r].split()]
            except ValueError as exc:
                raise DimensionError(f"{path}: layer {l + 1} row {r + 1}: {exc}") from exc
            if len(row) != cols:
                raise DimensionError(
                    f"{path}: layer {l + 1} row {r + 1} has {len(row)} values, expected {cols}"
                )
            block.append(row)
        cursor += rows
        weights.append(np.array(block, dtype=np.float64))
    net = Network(arch, weights)
    if strict and not net.all_finite():
        raise DimensionError(f"{path}: network contains non-finite weights")
    return net
