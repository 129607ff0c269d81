"""Feedforward single-output networks: definition, forward pass, Jacobians.

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
from .rng import GAUSSIAN, InitDistribution, RngStream, as_generator

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

    def with_params(self, vec: np.ndarray) -> "Network":
        return Network(self.arch, [w.copy() for w in self.param_index.unflatten(vec)])

    def copy(self) -> "Network":
        return Network(self.arch, [w.copy() for w in self.weights])

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
            w = w * rectifier_gain
        weights.append(w)
    return Network(arch, weights)


@dataclass
class BatchTrace:
    """Activations of one forward pass, input included.

    For a batch the arrays are (n_samples, width); for a single input they
    are (width,).
    """

    activations: list[np.ndarray]
    masks: list[np.ndarray] | None = None  # active-unit masks, hidden layers only

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


def batch_forward(net: Network, inputs: np.ndarray) -> BatchTrace:
    """Forward one input (n_0,) or a batch (n_samples, n_0); rows are samples."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.arch.widths[0]:
        raise DimensionError(
            f"input shape {x.shape} does not match input width {net.arch.widths[0]}"
        )
    return BatchTrace(*_forward(net.weights, x, net.arch.activation == RELU))


def _forward(weights, x: np.ndarray, relu: bool) -> tuple[list, list | None]:
    """The layer loop of every forward pass: activations, input first, and
    the active-unit masks of the hidden layers (None without relu).

    Rows of x are samples.  weights may also be stacked as (T, n_{l-1}, n_l)
    arrays, one network per leading index, with x of shape (T, rows, n_0).
    """
    acts = [x]
    masks: list[np.ndarray] | None = [] if relu else None
    depth = len(weights)
    for l, w in enumerate(weights, start=1):
        z = acts[-1] @ w
        if relu and l < depth:
            mask = z > 0.0
            z = np.where(mask, z, 0.0)
            masks.append(mask.astype(np.float64))
        acts.append(z)
    return acts, masks


def interlayer_jacobian(
    net: Network, trace: BatchTrace, from_layer: int, to_layer: int
) -> np.ndarray:
    """Matrix of partial derivatives of layer to_layer w.r.t. layer from_layer.

    Entry [u, j] is d(activation j of to_layer) / d(activation u of
    from_layer) at the point of a single-input trace.  For identity
    activation this is the plain product of the intervening weight matrices;
    for relu each hidden factor is masked by the trace's active units.
    """
    if trace.activations[0].ndim != 1:
        raise DimensionError("interlayer_jacobian takes a single-input trace")
    depth = net.depth
    if not 0 <= from_layer < to_layer <= depth:
        raise IndexError(f"need 0 <= from_layer < to_layer <= {depth}, got ({from_layer}, {to_layer})")
    relu = net.arch.activation == RELU
    out = None
    for l in range(from_layer + 1, to_layer + 1):
        factor = net.weights[l - 1]
        if relu and l < depth:
            factor = factor * trace.masks[l - 1][None, :]
        out = factor if out is None else out @ factor
    return out


def save_network(net: Network, path) -> None:
    """Write a self-describing text file: widths header + row-major blocks.

    Each layer is formatted by one %-string and written before the next is
    formatted, so at most one layer's text is held at a time.
    """
    widths = " ".join(str(w) for w in net.arch.widths)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"curvkit-network v1\nactivation {net.arch.activation}\nwidths {widths}\n")
        for l, w in enumerate(net.weights, start=1):
            rows, cols = w.shape
            fh.write(f"layer {l} {rows}x{cols}\n")
            row_format = " ".join(["%.17g"] * cols) + "\n"
            fh.write((row_format * rows) % tuple(w.ravel().tolist()))


def load_network(path, strict: bool = True) -> Network:
    """Read a network written by save_network.

    strict=True rejects non-finite weights at load time; strict=False defers
    that to downstream numeric checks (useful for diagnosing damaged files).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "curvkit-network v1":
        raise DimensionError(f"{path}: not a curvkit network file")
    if len(lines) < 3:
        raise DimensionError(f"{path}: file ends before the widths line")
    if not lines[1].startswith("activation "):
        raise DimensionError(f"{path}: missing activation line")
    activation = lines[1].split()[1]
    if not lines[2].startswith("widths "):
        raise DimensionError(f"{path}: missing widths line")
    widths = tuple(int(tok) for tok in lines[2].split()[1:])
    arch = Architecture(widths, activation)
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
        block = np.array(
            [[float(tok) for tok in lines[cursor + r].split()] for r in range(rows)],
            dtype=np.float64,
        )
        if block.shape != (rows, cols):
            raise DimensionError(f"{path}: layer {l + 1} block has shape {block.shape}")
        cursor += rows
        weights.append(block)
    net = Network(arch, weights)
    if strict and not net.all_finite():
        raise DimensionError(f"{path}: network contains non-finite weights")
    return net
