"""Synthetic data, the SGD training loop with curvature probes, and sweeps.

The reference regime trains a deep fully connected scalar-output network on
random unit-norm inputs with random binary labels under squared error,
recording at every step the loss, squared gradient norm, and the one-step
curvature estimator, plus exact gradient-aligned curvature projections at a
configurable probe cadence.  Probes never build dense matrices: one
second-order Taylor pass along the gradient, which acts through the
per-layer factors of the step's own gradient, gives the Gauss-Newton and
the functional part of the curvature directly, and the total as their sum.
"""
from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, replace
from functools import partial

import numpy as np

from .curvature import CurvatureRecord, estimate_curvature
from .diff import (
    LossFunction,
    _gradient_probe,
    batch_loss,
    gradient_curvatures,
    loss_and_gradient,
    squared_error,
)
from .errors import DimensionError, DirectionError, DivergenceError
from .network import RELU, Architecture, Network, init_network
from .parallel import INLINE, Lane, map_trial_ranges
from .rng import GAUSSIAN, RngStream
from .tables import write_csv

# Unused here, but bench/spans.py wraps these names in this module.
from .curvature import curvature_projection  # noqa: F401
from .diff import ggn_vp, hvp  # noqa: F401

RUNLOG_SCHEMA = "curvkit.runlog.v1"
RUNLOG_COLUMNS = [
    "step",
    "epoch",
    "lr",
    "loss",
    "grad_norm_sq",
    "curv_estimate",
    "curv_exact_half",
    "G_proj",
    "H_proj",
    "Hess_proj",
]

SWEEP_SCHEMA = "curvkit.sweep.v1"
SWEEP_COLUMNS = [
    "width",
    "seed_index",
    "init_H_proj_abs",
    "init_Hess_proj",
    "final_loss",
    "positivity_fraction",
]


@dataclass(frozen=True)
class Dataset:
    """Fixed random regression set: unit-norm inputs, binary +-1 targets."""

    inputs: np.ndarray
    targets: np.ndarray
    seed: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise DimensionError(f"inputs must be (n_samples, dim), got {self.inputs.shape}")
        norms = np.linalg.norm(self.inputs, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DimensionError("inputs must have unit norm")
        if self.targets.shape != (self.inputs.shape[0],):
            raise DimensionError("one target per input required")
        if not np.all(np.isin(self.targets, (-1.0, 1.0))):
            raise DimensionError("targets must be +-1")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


def generate_dataset(n_samples: int, input_dim: int, seed: int) -> Dataset:
    """Gaussian inputs normalized to unit norm; labels uniform on {-1, +1}."""
    if n_samples < 1 or input_dim < 1:
        raise DimensionError("n_samples and input_dim must be >= 1")
    gen = RngStream(seed, 0).generator()
    x = gen.standard_normal((n_samples, input_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    t = gen.integers(0, 2, size=n_samples).astype(np.float64) * 2.0 - 1.0
    return Dataset(x, t, seed)


def save_dataset(ds: Dataset, path, lane: Lane = INLINE) -> None:
    header = ["target"] + [f"x{j}" for j in range(ds.inputs.shape[1])]
    write_csv(path, "curvkit.dataset.v1", header, np.column_stack([ds.targets, ds.inputs]), lane)


@dataclass(frozen=True)
class TrainConfig:
    """Vanilla-SGD run description."""

    architecture: Architecture
    loss: LossFunction = field(default_factory=squared_error)
    learning_rate: float = 0.1
    halve_at: tuple[int, ...] = (40, 80, 120)
    batch_size: int = 100
    epochs: int = 100
    probe_every: int = 0  # 0 means: first step of every epoch
    data_seed: int = 0
    init_seed: int = 1
    distribution: str = GAUSSIAN
    init_gain: float | None = None  # None: norm-preserving for the activation
    divergence_ratio: float = 1e6

    def __post_init__(self):
        if not self.learning_rate >= 0:  # NaN fails too
            raise DimensionError("learning rate must be non-negative")
        if self.batch_size < 1 or self.epochs < 0 or self.probe_every < 0:
            raise DimensionError("batch_size >= 1, epochs >= 0, probe_every >= 0 required")
        object.__setattr__(self, "halve_at", tuple(sorted(int(e) for e in self.halve_at)))

    @property
    def effective_init_gain(self) -> float:
        """Hidden-layer std multiplier: sqrt(2) keeps relu signals norm-preserving."""
        if self.init_gain is not None:
            return self.init_gain
        return float(np.sqrt(2.0)) if self.architecture.activation == RELU else 1.0


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Schedule: base rate halved once for every listed epoch already reached."""
    halvings = sum(1 for h in cfg.halve_at if h <= epoch)
    return cfg.learning_rate * 2.0**-halvings


@dataclass
class RunLog:
    records: list[CurvatureRecord] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]

    def probed(self) -> list[CurvatureRecord]:
        return [r for r in self.records if r.hessian_proj is not None]

    def positivity_fraction(self) -> float:
        probed = self.probed()
        if not probed:
            return float("nan")
        return float(np.mean([r.hessian_proj >= 0.0 for r in probed]))

    def to_csv(self, path) -> None:
        write_csv(path, RUNLOG_SCHEMA, RUNLOG_COLUMNS, map(astuple, self.records))


def initial_probe(net: Network, dataset: Dataset, cfg: TrainConfig) -> CurvatureRecord:
    """The step-0 measurement a training run would record, without training.

    One gradient_curvatures call gives the loss, ||g||^2 and the curvature
    split from the gradient's per-layer factors, so the probe holds the
    weights plus O(batch x sum of widths) floats, never a P-sized gradient,
    and the split is the first training record's, bit for bit.
    """
    perm = RngStream(cfg.data_seed, 1).generator().permutation(dataset.n_samples)
    idx = perm[: min(cfg.batch_size, dataset.n_samples)]
    x, t = dataset.inputs[idx], dataset.targets[idx]
    loss_value, g_sq, hess, gn, fun = gradient_curvatures(net, x, t, cfg.loss)
    return CurvatureRecord(
        step=0,
        epoch=1,
        lr=lr_at_epoch(cfg, 1),
        loss=loss_value,
        grad_norm_sq=g_sq,
        estimator=float("nan"),
        exact_half_quadform=0.5 * hess * g_sq,
        hessian_proj=hess,
        gauss_newton_proj=gn,
        functional_proj=fun,
    )


# The finiteness guards decide; numpy's overflow warnings would bury their message.
@np.errstate(over="ignore", invalid="ignore")
def sgd_train(net: Network, dataset: Dataset, cfg: TrainConfig, lane: Lane = INLINE,
              log: RunLog | None = None) -> RunLog:
    """Train net in place with vanilla SGD, recording curvature per step.

    Minibatches are sequential slices of a fresh per-epoch shuffle derived
    from the data seed.  The estimator compares the batch loss before and
    after the step on the same minibatch, which is the quantity the one-step
    expansion describes.  At probe steps the exact projections are measured
    at the pre-step weights from the factors of the step's own gradient, by
    initial_probe's kernel; a zero factored ||g||^2 leaves a step unprobed.
    Raises DivergenceError if the loss exceeds
    divergence_ratio times its initial value or is not finite.  Appends each
    record and finished epoch's mean loss to log (new if None) and returns
    it, so a log the caller passes keeps what was recorded before any raise.

    lane runs the weight-gradient products, the update of alternate layers
    and each step's post-step loss pass, which overlaps the next step's
    gradient.  So a step is recorded and guarded once the next step's
    gradient is in, before that step moves the weights.
    """
    if dataset.inputs.shape[1] != net.arch.widths[0]:
        raise DimensionError("dataset dimension does not match the network input width")
    if cfg.epochs > 0 and cfg.batch_size > dataset.n_samples:
        raise DimensionError("batch size exceeds dataset size")
    start_time = time.perf_counter()
    n = dataset.n_samples
    bs = cfg.batch_size
    steps_per_epoch = -(-n // bs)
    probe_every = cfg.probe_every if cfg.probe_every > 0 else steps_per_epoch
    log = RunLog() if log is None else log
    step_losses: list[float] = []
    initial_loss: float | None = None
    pending = None  # the last step taken, recorded once its post-step loss is in

    def record(step, epoch, lr, loss_before, g_sq, curvatures, post_step, ends_epoch) -> None:
        loss_after = post_step.result()
        hess, gn, fun, exact_half = curvatures
        log.records.append(
            CurvatureRecord(
                step=step,
                epoch=epoch,
                lr=lr,
                loss=loss_before,
                grad_norm_sq=g_sq,
                # A zero-rate step realizes no loss change; the one-step
                # estimator is undefined there.
                estimator=estimate_curvature(loss_before, loss_after, g_sq, lr)
                if lr > 0.0
                else float("nan"),
                exact_half_quadform=exact_half,
                hessian_proj=hess,
                gauss_newton_proj=gn,
                functional_proj=fun,
            )
        )
        step_losses.append(loss_before)
        # Written so that a NaN loss, which fails every comparison, aborts too.
        if not loss_after <= cfg.divergence_ratio * max(initial_loss, 1e-300):
            cause = (f"exceeded {cfg.divergence_ratio:.1e} x initial {initial_loss:.3e}"
                     if np.isfinite(loss_after) else "is not finite")
            raise DivergenceError(f"loss {loss_after:.3e} {cause} at step {step}")
        if ends_epoch:
            log.epoch_losses.append(float(np.mean(step_losses)))
            step_losses.clear()

    step = 0
    index = net.param_index
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at_epoch(cfg, epoch)
        perm = RngStream(cfg.data_seed, epoch).generator().permutation(n)
        for b in range(steps_per_epoch):
            idx = perm[b * bs : min((b + 1) * bs, n)]
            x, t = dataset.inputs[idx], dataset.targets[idx]
            loss_before, g, factors = loss_and_gradient(net, x, t, cfg.loss, lane)
            if initial_loss is None:
                initial_loss = loss_before
            if pending is not None:
                record(*pending)
            g_sq = float(g @ g)
            probe = _gradient_probe(net, x, t, cfg.loss, factors) if step % probe_every == 0 else None
            del factors
            if probe is None:  # unprobed, or a zero gradient
                curvatures = (None,) * 4
            else:
                hess, gn, fun = probe[1:]
                curvatures = (hess, gn, fun, 0.5 * hess * g_sq)
            _descend(list(zip(net.weights, index.unflatten(g))), lr, lane)
            del g  # not alive while the next step's gradient is built
            post_step = lane.submit(batch_loss, net, x, t, cfg.loss)
            pending = (step, epoch, lr, loss_before, g_sq, curvatures, post_step,
                       b == steps_per_epoch - 1)
            step += 1
    if pending is not None:
        record(*pending)
    if cfg.epochs == 0:
        loss = batch_loss(net, dataset.inputs, dataset.targets, cfg.loss)
        if not np.isfinite(loss):
            raise DivergenceError(f"initial loss {loss:.3e} is not finite")
        log.epoch_losses.append(loss)
    log.wall_time_s = time.perf_counter() - start_time
    return log


def _descend(layers, lr: float, lane: Lane) -> None:
    """w -= lr * dw for every (w, dw) of layers, alternate ones on lane."""
    on_lane = lane.submit(_descend_layers, layers[::2], lr)
    _descend_layers(layers[1::2], lr)
    on_lane.result()


def _descend_layers(layers, lr: float) -> None:
    for w, dw in layers:
        dw *= lr  # in the gradient itself: no temporary of a layer's size
        w -= dw


# ---------------------------------------------------------------------------
# Width sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One sweep.csv row; the fields are in SWEEP_COLUMNS order."""

    width: int
    seed_index: int
    init_functional_abs: float
    init_hessian_proj: float
    final_loss: float
    positivity_fraction: float


@dataclass
class SweepReport:
    cells: list[SweepCell]
    widths: tuple[int, ...]
    n_seeds: int
    verdict: str | None

    def mean_init_functional_abs(self) -> dict[int, float]:
        out = {}
        for w in self.widths:
            vals = [c.init_functional_abs for c in self.cells if c.width == w]
            out[w] = float(np.mean(vals))
        return out

    def to_csv(self, path) -> None:
        write_csv(path, SWEEP_SCHEMA, SWEEP_COLUMNS, map(astuple, self.cells))


def _sweep_config(base: TrainConfig, width: int, seed_index: int) -> TrainConfig:
    arch = Architecture((width,) * base.architecture.depth + (1,), base.architecture.activation)
    return replace(base, architecture=arch, init_seed=base.init_seed + seed_index)


def _sweep_cell(base: TrainConfig, n_samples: int, width: int, seed_index: int) -> SweepCell:
    cfg = _sweep_config(base, width, seed_index)
    dataset = generate_dataset(n_samples, width, cfg.data_seed)
    net = init_network(cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
                       rectifier_gain=cfg.effective_init_gain)
    if cfg.epochs > 0:
        log = sgd_train(net, dataset, cfg)
        probed = log.probed()
        if not probed:
            raise DirectionError("every probed step had a zero gradient")
        first = probed[0]
        return SweepCell(width, seed_index, abs(first.functional_proj), first.hessian_proj,
                         log.final_loss, log.positivity_fraction())
    with np.errstate(over="ignore", invalid="ignore"):  # as in sgd_train
        rec = initial_probe(net, dataset, cfg)
        full_loss = batch_loss(net, dataset.inputs, dataset.targets, cfg.loss)
    if not np.all(np.isfinite([full_loss, rec.hessian_proj, rec.functional_proj])):
        raise DivergenceError(
            f"initial loss {full_loss:.3e}, Hess_proj {rec.hessian_proj:.3e}, "
            f"H_proj {rec.functional_proj:.3e}: the initial result is not finite"
        )
    return SweepCell(width, seed_index, abs(rec.functional_proj), rec.hessian_proj,
                     full_loss, float(rec.hessian_proj >= 0.0))


def _sweep_cell_range(base: TrainConfig, n_samples: int, widths, n_seeds, order, start, stop):
    """The cells order[start:stop]; flat cell f is (widths[f // n_seeds], f % n_seeds)."""
    cells = []
    for flat in order[start:stop]:
        width, seed_index = widths[flat // n_seeds], flat % n_seeds
        try:
            cells.append(_sweep_cell(base, n_samples, width, seed_index))
        except (DivergenceError, DirectionError) as exc:
            raise type(exc)(f"width {width}, seed {seed_index}: {exc}") from exc
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    return out


def width_sweep(
    base: TrainConfig,
    widths,
    n_seeds: int,
    n_samples: int = 1000,
    n_workers: int = 1,
) -> SweepReport:
    """Per (width, seed) cell: initial curvature split plus run summary.

    The architecture keeps the base depth with every non-output layer at the
    cell's width; the dataset is re-drawn per width from the same data seed
    because the input dimension tracks the width.  With epochs = 0 only the
    initialization probe runs.  The verdict states whether the mean absolute
    functional-part projection at initialization strictly decreases with
    width (None when fewer than two widths are swept).

    Cells are handed to the workers widest first, because at a fixed depth a
    cell's cost grows with its width and the longest tasks first balance the
    workers best; the report lists them in config order at any worker count.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 1 or n_seeds < 1:
        raise DimensionError("need at least one width and one seed")
    n_cells = len(widths) * n_seeds
    order = sorted(range(n_cells), key=lambda flat: -widths[flat // n_seeds])
    fn = partial(_sweep_cell_range, base, n_samples, widths, n_seeds, order)
    cells = list(map_trial_ranges(fn, n_cells, n_workers)[np.argsort(order)])
    report = SweepReport(
        cells=cells,
        widths=widths,
        n_seeds=n_seeds,
        verdict=None,
    )
    if len(widths) >= 2:
        means = report.mean_init_functional_abs()
        ordered = [means[w] for w in widths]
        decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
        report.verdict = "decreasing" if decreasing else "not-decreasing"
    return report
