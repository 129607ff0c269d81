"""Synthetic data, the SGD training loop with curvature probes, and sweeps.

The reference regime trains a deep fully connected scalar-output network on
random unit-norm inputs with random binary labels under squared error,
recording at every step the loss, squared gradient norm, and the one-step
curvature estimator, plus exact gradient-aligned curvature projections at a
configurable probe cadence.  Probes never build dense matrices: one
second-order Taylor pass along the gradient gives the Gauss-Newton and the
functional part of the curvature directly, and the total as their sum.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .curvature import CurvatureRecord, estimate_curvature
from .diff import (
    LossFunction,
    batch_loss,
    gradient_curvatures,
    loss_and_gradient,
    squared_error,
)
from .errors import DimensionError, DirectionError, DivergenceError
from .network import RELU, Architecture, Network, init_network
from .parallel import map_trial_ranges
from .rng import GAUSSIAN, RngStream
from .tables import read_csv, write_csv

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


def save_dataset(ds: Dataset, path) -> None:
    header = ["target"] + [f"x{j}" for j in range(ds.inputs.shape[1])]
    write_csv(path, "curvkit.dataset.v1", header, np.column_stack([ds.targets, ds.inputs]))


def load_dataset(path, seed: int = -1) -> Dataset:
    schema, header, rows = read_csv(path)
    if schema != "curvkit.dataset.v1":
        raise DimensionError(f"{path}: unexpected schema {schema!r}")
    data = np.array([[float(v) for v in row] for row in rows])
    return Dataset(np.ascontiguousarray(data[:, 1:]), data[:, 0].copy(), seed)


@dataclass(frozen=True)
class TrainConfig:
    """Vanilla-SGD run description; every field participates in the manifest."""

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
    records: list[CurvatureRecord]
    epoch_losses: list[float]
    config: dict
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

    def to_rows(self):
        for r in self.records:
            yield [
                r.step,
                r.epoch,
                r.lr,
                r.loss,
                r.grad_norm_sq,
                r.estimator,
                r.exact_half_quadform,
                r.gauss_newton_proj,
                r.functional_proj,
                r.hessian_proj,
            ]

    def to_csv(self, path) -> None:
        write_csv(path, RUNLOG_SCHEMA, RUNLOG_COLUMNS, self.to_rows())


def initial_probe(net: Network, dataset: Dataset, cfg: TrainConfig) -> CurvatureRecord:
    """The step-0 measurement a training run would record, without training."""
    x, t, _ = _first_batch(dataset, cfg)
    loss_value, g = loss_and_gradient(net, x, t, cfg.loss)
    g_sq = float(g @ g)
    hess, gn, fun = gradient_curvatures(net, x, t, cfg.loss, g)
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


def _first_batch(dataset: Dataset, cfg: TrainConfig):
    perm = RngStream(cfg.data_seed, 1).generator().permutation(dataset.n_samples)
    idx = perm[: min(cfg.batch_size, dataset.n_samples)]
    return dataset.inputs[idx], dataset.targets[idx], perm


# The finiteness guards decide; numpy's overflow warnings would bury their message.
@np.errstate(over="ignore", invalid="ignore")
def sgd_train(net: Network, dataset: Dataset, cfg: TrainConfig) -> RunLog:
    """Train net in place with vanilla SGD, recording curvature per step.

    Minibatches are sequential slices of a fresh per-epoch shuffle derived
    from the data seed.  The estimator compares the batch loss before and
    after the step on the same minibatch, which is the quantity the one-step
    expansion describes; at probe steps the exact projections are measured
    at the pre-step weights.  Aborts with the partial log attached if the
    loss exceeds divergence_ratio times its initial value or is not finite;
    with epochs = 0, a non-finite initial loss aborts with no log.
    """
    if dataset.inputs.shape[1] != net.arch.widths[0]:
        raise DimensionError("dataset dimension does not match the network input width")
    if cfg.batch_size > dataset.n_samples:
        raise DimensionError("batch size exceeds dataset size")
    start_time = time.perf_counter()
    n = dataset.n_samples
    bs = cfg.batch_size
    steps_per_epoch = -(-n // bs)
    probe_every = cfg.probe_every if cfg.probe_every > 0 else steps_per_epoch
    records: list[CurvatureRecord] = []
    epoch_losses: list[float] = []
    config_echo = _config_echo(cfg, dataset)
    initial_loss: float | None = None
    step = 0
    index = net.param_index
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at_epoch(cfg, epoch)
        perm = RngStream(cfg.data_seed, epoch).generator().permutation(n)
        step_losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * bs : min((b + 1) * bs, n)]
            x, t = dataset.inputs[idx], dataset.targets[idx]
            loss_before, g = loss_and_gradient(net, x, t, cfg.loss)
            if initial_loss is None:
                initial_loss = loss_before
            g_sq = float(g @ g)
            probed = step % probe_every == 0
            if probed and g_sq > 0.0:
                hess, gn, fun = gradient_curvatures(net, x, t, cfg.loss, g)
                exact_half = 0.5 * hess * g_sq
            else:
                hess = gn = fun = exact_half = None
            for w, dw in zip(net.weights, index.unflatten(g)):
                w -= lr * dw
            loss_after = batch_loss(net, x, t, cfg.loss)
            records.append(
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
            step += 1
            # Written so that a NaN loss, which fails every comparison, aborts too.
            if not loss_after <= cfg.divergence_ratio * max(initial_loss, 1e-300):
                partial = RunLog(records, epoch_losses + [float(np.mean(step_losses))],
                                 config_echo, time.perf_counter() - start_time)
                cause = (f"exceeded {cfg.divergence_ratio:.1e} x initial {initial_loss:.3e}"
                         if np.isfinite(loss_after) else "is not finite")
                raise DivergenceError(f"loss {loss_after:.3e} {cause} at step {step - 1}",
                                      partial_log=partial)
        epoch_losses.append(float(np.mean(step_losses)))
    if cfg.epochs == 0:
        loss = batch_loss(net, dataset.inputs, dataset.targets, cfg.loss)
        if not np.isfinite(loss):
            raise DivergenceError(f"initial loss {loss:.3e} is not finite")
        epoch_losses.append(loss)
    return RunLog(records, epoch_losses, config_echo, time.perf_counter() - start_time)


def _config_echo(cfg: TrainConfig, dataset: Dataset) -> dict:
    return {
        "widths": list(cfg.architecture.widths),
        "activation": cfg.architecture.activation,
        "loss": cfg.loss.kind,
        "learning_rate": cfg.learning_rate,
        "halve_at": list(cfg.halve_at),
        "batch_size": cfg.batch_size,
        "epochs": cfg.epochs,
        "probe_every": cfg.probe_every,
        "data_seed": cfg.data_seed,
        "init_seed": cfg.init_seed,
        "distribution": cfg.distribution,
        "init_gain": cfg.effective_init_gain,
        "n_samples": dataset.n_samples,
    }


# ---------------------------------------------------------------------------
# Width sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
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
    dataset_seeds: dict[int, int]
    verdict: str | None

    def mean_init_functional_abs(self) -> dict[int, float]:
        out = {}
        for w in self.widths:
            vals = [c.init_functional_abs for c in self.cells if c.width == w]
            out[w] = float(np.mean(vals))
        return out

    def to_csv(self, path) -> None:
        rows = [
            [c.width, c.seed_index, c.init_functional_abs, c.init_hessian_proj,
             c.final_loss, c.positivity_fraction]
            for c in self.cells
        ]
        write_csv(path, SWEEP_SCHEMA, SWEEP_COLUMNS, rows)


def _sweep_config(base: TrainConfig, width: int, seed_index: int) -> TrainConfig:
    arch = Architecture((width,) * base.architecture.depth + (1,), base.architecture.activation)
    return replace(base, architecture=arch, init_seed=base.init_seed + seed_index)


def _sweep_cell_range(base: TrainConfig, n_samples: int, widths, n_seeds, order, start, stop):
    """The cells order[start:stop]; flat cell f is (widths[f // n_seeds], f % n_seeds)."""
    cells = []
    for flat in order[start:stop]:
        width = widths[flat // n_seeds]
        seed_index = flat % n_seeds
        cfg = _sweep_config(base, width, seed_index)
        dataset = generate_dataset(n_samples, width, cfg.data_seed)
        net = init_network(cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
                           rectifier_gain=cfg.effective_init_gain)
        if cfg.epochs > 0:
            log = sgd_train(net, dataset, cfg)
            probed = log.probed()
            if not probed:
                raise DirectionError(
                    f"width {width}, seed {seed_index}: every probed step had a zero gradient"
                )
            first = probed[0]
            cells.append(
                SweepCell(width, seed_index, abs(first.functional_proj), first.hessian_proj,
                          log.final_loss, log.positivity_fraction())
            )
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # as in sgd_train
                try:
                    rec = initial_probe(net, dataset, cfg)
                except DirectionError as exc:
                    raise DirectionError(f"width {width}, seed {seed_index}: {exc}") from exc
                full_loss = batch_loss(net, dataset.inputs, dataset.targets, cfg.loss)
            if not np.all(np.isfinite([full_loss, rec.hessian_proj, rec.functional_proj])):
                raise DivergenceError(
                    f"width {width}, seed {seed_index}: initial loss {full_loss:.3e}, "
                    f"Hess_proj {rec.hessian_proj:.3e}, H_proj {rec.functional_proj:.3e}: "
                    "the initial result is not finite"
                )
            cells.append(
                SweepCell(width, seed_index, abs(rec.functional_proj), rec.hessian_proj,
                          full_loss, float(rec.hessian_proj >= 0.0))
            )
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
        dataset_seeds={w: base.data_seed for w in widths},
        verdict=None,
    )
    if len(widths) >= 2:
        means = report.mean_init_functional_abs()
        ordered = [means[w] for w in widths]
        decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
        report.verdict = "decreasing" if decreasing else "not-decreasing"
    return report
