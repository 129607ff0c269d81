"""Monte Carlo checks of curvature statistics at random initialization.

The quantities checked are:

* zero mean and predicted variance scale of the quadratic form of the
  output Hessian along the output gradient,
* concentration of the squared gradient norm around its constant-shape
  limit, summarized as an empirical deviation table,
* an evaluable lower bound on the probability of positive gradient-aligned
  curvature, compared against the measured frequency,
* the cross-sample variant of the quadratic form (gradient of one sample
  against the output Hessian of another),
* expectations of products of bilinear forms in a single random layer,
  reported against two candidate normalizations without a verdict.

Every trial derives its randomness from (master_seed, trial_index), so
results are independent of scheduling and worker count.

The four curvature ensembles (gradient norm, quadratic form, positivity,
cross-sample) share one trial-batched engine: each trial's network is drawn
once, with one generator call into the block's weight stacks (the same bits
init_network draws for that trial), and the kernels that
also serve batches and training probes (network._forward, which carries the
Taylor coefficients along the gradient, and diff._output_sensitivities) run
on the stack and yield every per-trial column.  The public samplers select
columns of that table.  The gradient-norm, quadform and positivity ensembles share their seed, hence
their networks, so they read one table, kept for the most recent McConfig:
calling the three samplers in turn (as ``theory thm2`` does) draws each
network once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .diff import _output_sensitivities, squared_error
from .errors import DimensionError, DirectionError
from .network import IDENTITY, Architecture, _forward
from .parallel import map_trial_ranges, open_trial_lane
from .rng import AUX_STREAM, DISTRIBUTION_KINDS, GAUSSIAN, InitDistribution, RngStream, fill_raw

# Unused here, but bench/spans.py wraps these names in this module.
from .diff import output_gradient, output_hessian_grad_product, output_hessian_vp  # noqa: F401
from .network import forward, init_network  # noqa: F401

DEFAULT_EPS_GRID = tuple(float(e) for e in np.geomspace(1e-3, 8.0, 40))


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo ensemble: architecture, init law, size, seed.  Every
    trial reads the same fixed unit-norm inputs (see _fixed_inputs)."""

    widths: tuple[int, ...]
    distribution: str = GAUSSIAN
    n_trials: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.distribution not in DISTRIBUTION_KINDS:
            raise DimensionError(f"unknown distribution kind: {self.distribution!r}")
        if self.n_trials < 2:
            raise DimensionError("need at least 2 trials for variance estimates")
        Architecture(self.widths, IDENTITY)  # validates widths

    @property
    def architecture(self) -> Architecture:
        return Architecture(self.widths, IDENTITY)


@dataclass(frozen=True)
class McSummary:
    n_trials: int
    mean: float
    variance: float  # unbiased
    stderr: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McSummary":
        s = np.asarray(samples, dtype=np.float64).reshape(-1)
        if s.size < 2:
            raise DimensionError("summary needs at least 2 samples")
        var = float(np.var(s, ddof=1))
        return cls(
            n_trials=int(s.size),
            mean=float(np.mean(s)),
            variance=var,
            stderr=float(np.sqrt(var / s.size)),
            minimum=float(np.min(s)),
            maximum=float(np.max(s)),
        )


def _unit_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def _fixed_inputs(cfg: McConfig, count: int) -> tuple[np.ndarray, ...]:
    """The unit-norm inputs every trial shares, drawn from the aux stream."""
    gen = RngStream(cfg.master_seed, AUX_STREAM).generator()
    return tuple(_unit_vector(gen, cfg.widths[0]) for _ in range(count))


# ---------------------------------------------------------------------------
# Trial-batched engine behind every curvature ensemble
# ---------------------------------------------------------------------------

# Columns of the per-trial table built by _mc_chunk.
_OUTPUT, _GRAD_NORM_SQ, _QUADFORM, _TARGET_SIGN = range(4)

# Bytes of stacked weights per block of trials: keeps peak memory flat in the
# trial count while amortizing per-call overhead over several trials.
_BLOCK_BYTES = 1 << 20


def _trials_per_block(arch: Architecture) -> int:
    return max(1, _BLOCK_BYTES // (8 * arch.n_params))


def _dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-trial dot products of (T, 1, n) row stacks, shaped (T, 1, 1)."""
    return np.sum(p * q, axis=-1, keepdims=True)


def _taylor_columns(ws, u: np.ndarray, v: np.ndarray | None = None):
    """Output, ||g||^2 and g^T H g for a block of T identity networks.

    ws holds layer k's weights as a (T, n_{k-1}, n_k) stack; u and v are
    (T, 1, n_0) input stacks.  g is the output gradient at u, and the output
    and H (the output Hessian) are taken at x = v, or at u when v is None.

    The passes are the package's own: a plain network._forward for the
    activations y^u at u, diff._output_sensitivities for the input-free
    sensitivities a_k, and a network._forward at x along g, whose second
    Taylor coefficient is g^T H g.  What is particular to the engine is
    g's rank-one layer blocks y^u_{k-1} (x) a_k: they give
    ||g||^2 = sum_k ||y^u_{k-1}||^2 ||a_k||^2 and the direction's action
    along(k, p) = (p . y^u_k) a_{k+1}.
    """
    acts_u = _forward(ws, u, relu=False).activations
    a = _output_sensitivities(ws, np.ones((u.shape[0], 1, 1)))
    g_sq = sum(_dot(acts_u[k - 1], acts_u[k - 1]) * _dot(a[k], a[k]) for k in range(1, len(ws) + 1))

    def along(k, p):
        return _dot(p, acts_u[k]) * a[k + 1]

    trace = _forward(ws, u if v is None else v, relu=False, along=along)
    return trace.outputs[:, 0], g_sq[:, 0, 0], trace.output_ddot[:, 0]


def _mc_chunk(cfg: McConfig, fixed, cross: bool, start: int, stop: int) -> np.ndarray:
    """Per-trial table (_OUTPUT, _GRAD_NORM_SQ, _QUADFORM, _TARGET_SIGN columns)
    for trials [start, stop), drawing each trial's network once.

    Trial i draws from RngStream(master_seed, i), in this order: its whole
    network, with one fill_raw call into the trial's row of the block's
    (trials, P) buffer, then the +-1 target sign, except in the cross
    ensemble (whose rows carry sign 0).  The buffer's per-layer views are
    the weight stacks, and each layer's InitDistribution.transform runs once
    per block stack, so trial i's weights are, bit for bit, those
    init_network draws from the same stream.  fixed holds the shared inputs
    (u, or u and v).  Rows depend only on their own trial, so the table does
    not depend on how [0, n) is split into ranges or blocks, nor on the
    thread that runs a range.
    """
    arch = cfg.architecture
    n0 = arch.widths[0]
    block = max(1, min(_trials_per_block(arch), stop - start))
    draws = np.empty((block, arch.n_params))
    dists, ws, offset = [], [], 0
    for m, n in zip(arch.widths[:-1], arch.widths[1:]):
        dists.append(InitDistribution(cfg.distribution, m))
        ws.append(draws[:, offset : offset + m * n].reshape(block, m, n, copy=False))
        offset += m * n
    inputs = [np.empty((block, 1, n0)) for _ in range(2 if cross else 1)]
    for buf, vec in zip(inputs, fixed):
        buf[:] = vec
    signs = np.zeros(block)
    out = np.empty((stop - start, 4))
    for b0 in range(start, stop, block):
        t = min(block, stop - b0)
        for j in range(t):
            gen = RngStream(cfg.master_seed, b0 + j).generator()
            fill_raw(cfg.distribution, gen, draws[j])
            if not cross:
                signs[j] = float(gen.integers(0, 2)) * 2.0 - 1.0
        stacks = [dist.transform(w[:t]) for dist, w in zip(dists, ws)]
        rows = out[b0 - start : b0 - start + t]
        cols = _taylor_columns(stacks, *(buf[:t] for buf in inputs))
        rows[:, _OUTPUT], rows[:, _GRAD_NORM_SQ], rows[:, _QUADFORM] = cols
        rows[:, _TARGET_SIGN] = signs[:t]
    return out


def _mc_table(cfg: McConfig, n_workers: int, cross: bool = False) -> np.ndarray:
    """The engine's table for all cfg.n_trials trials.  At one effective
    worker with a second CPU free, a lane thread takes alternate trial
    ranges (see parallel.map_trial_ranges); the table is the same bytes."""
    fn = partial(_mc_chunk, cfg, _fixed_inputs(cfg, 2 if cross else 1), cross)
    with open_trial_lane(n_workers) as lane:
        return map_trial_ranges(fn, cfg.n_trials, n_workers, lane)


@lru_cache(maxsize=1)
def _shared_table(cfg: McConfig, n_workers: int) -> np.ndarray:
    """The read-only table behind the gradient-norm, quadform and positivity
    samplers, kept for the last (cfg, n_workers) so that the three draw each
    network once between them."""
    table = _mc_table(cfg, n_workers)
    table.flags.writeable = False
    return table


def predicted_variance_scale(widths) -> float:
    """Leading-order variance scale of the gradient-aligned output-Hessian
    quadratic form: (sum of non-input widths)^2 / input_width^3.

    The unknown constant in front is deliberately not modeled; only ratios
    of this quantity across architectures are meaningful.
    """
    widths = Architecture(widths).widths
    return float(sum(widths[1:])) ** 2 / float(widths[0]) ** 3


# ---------------------------------------------------------------------------
# Quadratic form of the output Hessian along the output gradient
# ---------------------------------------------------------------------------


def quadform_samples(cfg: McConfig, n_workers: int = 1) -> np.ndarray:
    """Per-trial values of g^T (output Hessian) g at random init: the
    _QUADFORM column of the shared table."""
    return _shared_table(cfg, n_workers)[:, _QUADFORM].copy()


def mc_quadform_stats(cfg: McConfig, n_workers: int = 1) -> McSummary:
    return McSummary.from_samples(quadform_samples(cfg, n_workers))


# ---------------------------------------------------------------------------
# Gradient-norm concentration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationTable:
    """Empirical tail frequencies P(|value - center| > eps) on an eps grid.

    Lookups are conservative: a query between grid points reads the value at
    the largest grid point not exceeding it (an overestimate, since the true
    tail is non-increasing), and a query below the grid returns 1.
    """

    eps: tuple[float, ...]
    tail: tuple[float, ...]
    center: float
    n_trials: int

    @classmethod
    def from_samples(cls, samples, center: float, eps_grid=DEFAULT_EPS_GRID) -> "DeviationTable":
        s = np.asarray(samples, dtype=np.float64).reshape(-1)
        grid = np.sort(np.asarray(eps_grid, dtype=np.float64).reshape(-1))
        keep = np.ones(grid.size, dtype=bool)
        keep[1:] = grid[1:] != grid[:-1]  # drop repeats (np.unique would import numpy.ma)
        grid = grid[keep]
        dev = np.abs(s - center)
        tail = tuple(float(np.mean(dev > e)) for e in grid)
        return cls(tuple(float(e) for e in grid), tail, float(center), int(s.size))

    def tail_prob(self, eps: float) -> float:
        if eps < self.eps[0]:
            return 1.0
        idx = int(np.searchsorted(self.eps, eps, side="right")) - 1
        return self.tail[idx]


@dataclass(frozen=True)
class GradNormResult:
    summary: McSummary
    deviation: DeviationTable
    limit: float


def grad_norm_samples(cfg: McConfig, n_workers: int = 1) -> np.ndarray:
    """Per-trial squared output-gradient norms at random init: the
    _GRAD_NORM_SQ column of the shared table."""
    return _shared_table(cfg, n_workers)[:, _GRAD_NORM_SQ].copy()


def grad_norm_limit(multipliers, input_norm_sq: float = 1.0) -> float:
    """Constant-shape reference value: (sum of m_1..m_L / m_0) * ||input||^2."""
    m = tuple(float(v) for v in multipliers)
    if len(m) < 2 or any(v <= 0 for v in m):
        raise DimensionError("multipliers must be positive, one per layer width")
    return sum(m[1:]) / m[0] * input_norm_sq


def mc_grad_norm_stats(cfg: McConfig, multipliers=None, n_workers: int = 1) -> GradNormResult:
    """Distribution of the squared output-gradient norm at random init.

    The limit is the constant-shape reference value; the deviation table is
    the empirical concentration function around it on DEFAULT_EPS_GRID.
    """
    if multipliers is None:
        multipliers = (1.0,) * len(cfg.widths)
    limit = grad_norm_limit(multipliers, 1.0)
    samples = grad_norm_samples(cfg, n_workers)
    return GradNormResult(
        McSummary.from_samples(samples),
        DeviationTable.from_samples(samples, limit),
        limit,
    )


# ---------------------------------------------------------------------------
# Positive-curvature probability: evaluable bound and measured frequency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureBoundParams:
    """Inputs of the evaluable positive-curvature probability bound.

    epsilon is the curvature level; loss_curvature_min and loss_slope_min
    are the declared positive lower bounds on the loss second and first
    derivatives; variance_constant is the unknown positive constant in the
    variance of the quadratic form (taken as an explicit input and reported
    alongside a back-fitted value, never silently assumed); multipliers are
    the constant-shape parameters m_0 .. m_L with base width n.
    """

    epsilon: float
    loss_curvature_min: float
    loss_slope_min: float
    multipliers: tuple[float, ...]
    base_width: float
    variance_constant: float = 1.0
    input_norm_sq: float = 1.0
    deviation: DeviationTable | None = None

    def __post_init__(self):
        for name in ("epsilon", "loss_curvature_min", "loss_slope_min", "variance_constant", "base_width", "input_norm_sq"):
            if getattr(self, name) <= 0:
                raise DimensionError(f"{name} must be strictly positive")
        m = tuple(float(v) for v in self.multipliers)
        object.__setattr__(self, "multipliers", m)
        margin = grad_norm_limit(m, self.input_norm_sq) - self.epsilon / self.loss_slope_min
        if margin <= 0:
            raise DimensionError(
                "epsilon / loss_slope_min must be below the gradient-norm limit"
            )


def positive_curvature_bound(params: CurvatureBoundParams) -> float:
    """Lower bound on Prob(gradient-aligned curvature > epsilon).

    Evaluated exactly as stated: two concentration factors read from the
    deviation table (at 2*eps/curvature_min and at eps) times a Chebyshev
    factor that shrinks like 1/base_width.  The value may be negative, in
    which case the bound is vacuous and carries no information.
    """
    m = params.multipliers
    m0 = m[0]
    sum_m = sum(m[1:])
    sum_mm = sum_m**2
    eps_over_beta = params.epsilon / params.loss_slope_min
    limit = grad_norm_limit(m, params.input_norm_sq)
    cheb = 1.0 - (
        params.variance_constant
        * sum_mm
        / (params.base_width * m0**3 * eps_over_beta**2 * (limit - eps_over_beta) ** 2)
    )
    if params.deviation is None:
        d_curv = d_eps = 0.0
    else:
        d_curv = params.deviation.tail_prob(2.0 * params.epsilon / params.loss_curvature_min)
        d_eps = params.deviation.tail_prob(params.epsilon)
    return (1.0 - d_curv) * (1.0 - d_eps) * cheb


def backfit_variance_constant(measured_variance: float, multipliers, base_width: float) -> float:
    """Smallest variance constant consistent with a measured quadratic-form
    variance, for reporting next to the assumed one."""
    m = tuple(float(v) for v in multipliers)
    sum_mm = sum(m[1:]) ** 2
    return measured_variance * base_width * m[0] ** 3 / sum_mm


def _positivity(table: np.ndarray, target_magnitude: float) -> np.ndarray:
    """Per-row exact gradient-aligned curvature of (y - target)^2, with
    target = target_magnitude * the row's drawn sign.

    Single sample: the Hessian is curvature * g g^T plus slope times the
    output Hessian, and the loss gradient is parallel to g, so the quadratic
    form along g / ||g|| reduces to two exact terms.
    """
    g_sq = table[:, _GRAD_NORM_SQ]
    if np.any(g_sq == 0.0):
        raise DirectionError("zero output gradient in positivity trial")
    y = table[:, _OUTPUT]
    loss = squared_error()
    target = target_magnitude * table[:, _TARGET_SIGN]
    return loss.d2(y) * g_sq + loss.d1(y, target) * table[:, _QUADFORM] / g_sq


@dataclass(frozen=True)
class PositivityResult:
    epsilon: float
    probability: float
    summary: McSummary


def positivity_samples(cfg: McConfig, target_magnitude: float = 1.0, n_workers: int = 1) -> np.ndarray:
    """Per-trial exact gradient-aligned curvature of a squared-error loss
    with a random sign-flipped target (so the loss slope is nonzero a.s.),
    computed from the _OUTPUT, _GRAD_NORM_SQ, _QUADFORM and _TARGET_SIGN
    columns of the shared table."""
    return _positivity(_shared_table(cfg, n_workers), target_magnitude)


def mc_curvature_positivity(
    cfg: McConfig, epsilon: float, target_magnitude: float = 1.0, n_workers: int = 1
) -> PositivityResult:
    samples = positivity_samples(cfg, target_magnitude, n_workers)
    prob = float(np.mean(samples > epsilon))
    return PositivityResult(float(epsilon), prob, McSummary.from_samples(samples))


# ---------------------------------------------------------------------------
# Cross-sample quadratic form
# ---------------------------------------------------------------------------


def cross_sample_samples(cfg: McConfig, n_workers: int = 1) -> np.ndarray:
    """Gradient of one input u against the output Hessian evaluated at
    another input v: the _QUADFORM column of the engine's cross pass."""
    return _mc_table(cfg, n_workers, cross=True)[:, _QUADFORM].copy()


def mc_cross_sample_stats(cfg: McConfig, n_workers: int = 1) -> McSummary:
    return McSummary.from_samples(cross_sample_samples(cfg, n_workers))


# ---------------------------------------------------------------------------
# Bilinear product expectations in one random layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearIdentityResult:
    label: str
    measured_mean: float
    measured_stderr: float
    predicted_width_ratio: float
    predicted_second_moment: float


@dataclass(frozen=True)
class BilinearReport:
    n_in: int
    n_out: int
    n_trials: int
    rows: tuple[BilinearIdentityResult, ...]


def _bilinear_values(w: np.ndarray, vs) -> tuple[float, float, float]:
    v1, v2, v3, v4, v5, v6 = vs
    gram = w.T @ w
    f34 = float(v3 @ gram @ v4)
    f56 = float(v5 @ gram @ v6)
    full = float(v1 @ gram @ v2) * f34 * f56
    row = w[0, :]
    single_row = float(row @ v1) * float(row @ v2) * f34 * f56
    col = w[:, 0]
    projected = float(col @ (w @ v1)) * float(col @ (w @ v2)) * f34
    return full, single_row, projected


def _bilinear_chunk(n_in, n_out, distribution, vs, master_seed, start, stop) -> np.ndarray:
    dist = InitDistribution(distribution, n_in)
    out = np.empty((stop - start, 3))
    for i in range(start, stop):
        gen = RngStream(master_seed, i).generator()
        w = dist.sample((n_in, n_out), gen)
        out[i - start] = _bilinear_values(w, vs)
    return out


def mc_bilinear_products(
    n_in: int,
    n_out: int,
    distribution: str,
    vectors,
    n_trials: int,
    master_seed: int = 0,
    n_workers: int = 1,
) -> BilinearReport:
    """Monte Carlo means of three products of bilinear forms in one layer.

    Each measured mean is reported next to two candidate leading-order
    normalizations: one scaling with the cubed width ratio (out/in)^3 one
    power per full Gram factor, and one derived from the exact second
    moment 1/fan_in of the entries.  The two agree only for square layers;
    no verdict is attached, the table is for inspection.
    """
    vs = tuple(np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors)
    if len(vs) != 6 or any(v.shape[0] != n_out for v in vs):
        raise DimensionError("need six vectors matching the layer output width")
    fn = partial(_bilinear_chunk, n_in, n_out, distribution, vs, master_seed)
    values = map_trial_ranges(fn, n_trials, n_workers).reshape(-1, 3)
    d12 = float(vs[0] @ vs[1])
    d34 = float(vs[2] @ vs[3])
    d56 = float(vs[4] @ vs[5])
    ratio = n_out / n_in
    width_preds = (ratio**3 * d12 * d34 * d56, ratio**2 / n_in * d12 * d34 * d56, ratio**2 / n_in * d12 * d34)
    moment_preds = (d12 * d34 * d56, d12 * d34 * d56 / n_in, d12 * d34 / n_in)
    labels = ("three-gram-factors", "single-row-first-factor", "projected-column-pair")
    rows = []
    for j, label in enumerate(labels):
        col = values[:, j]
        rows.append(
            BilinearIdentityResult(
                label=label,
                measured_mean=float(np.mean(col)),
                measured_stderr=float(np.std(col, ddof=1) / np.sqrt(col.size)),
                predicted_width_ratio=float(width_preds[j]),
                predicted_second_moment=float(moment_preds[j]),
            )
        )
    return BilinearReport(int(n_in), int(n_out), int(n_trials), tuple(rows))
