"""Hessian decomposition, gradient-aligned curvature, and the step estimator.

The batch Hessian splits into a positive semidefinite part built from the
loss curvature (rank-one per sample for a scalar output) and a remainder
weighted by the loss slope that carries whatever negative eigenvalues exist.
Everything here is normalized by the batch size so gradient, Hessian, and
estimator all refer to the same batch-mean loss.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diff import (
    DENSE_CAP,
    LossFunction,
    _as_batch,
    _as_targets,
    batch_forward,
    output_hessian,
    per_sample_output_gradients,
)
from .errors import CapacityError, DimensionError, DirectionError, SymmetryError
from .network import Network

# Unused here, but bench/spans.py wraps this name in this module.
from .diff import fd_hessian  # noqa: F401


@dataclass
class HessianDecomposition:
    """Dense split of the batch-loss Hessian into its two parts.

    gauss_newton is the loss-curvature part (PSD up to round-off),
    functional is the slope-weighted output-Hessian part, and hessian is
    their sum, exact by construction.
    """

    gauss_newton: np.ndarray
    functional: np.ndarray
    hessian: np.ndarray


@dataclass
class CurvatureRecord:
    """One training-step measurement of gradient-aligned curvature.

    The fields are in RUNLOG_COLUMNS order: a record's astuple is its
    runlog row.
    """

    step: int
    epoch: int
    lr: float
    loss: float
    grad_norm_sq: float
    estimator: float
    exact_half_quadform: float | None = None  # 0.5 * g^T (Hessian) g when probed
    gauss_newton_proj: float | None = None
    functional_proj: float | None = None
    hessian_proj: float | None = None


def decompose(net: Network, inputs, targets, loss: LossFunction) -> HessianDecomposition:
    """Dense decomposition of the batch-loss Hessian.

    The Gauss-Newton part is the mean of L''(y_s) g_s g_s^T over the
    per-sample output gradients g_s, and the functional part the mean of
    L'(y_s) times the closed-form output Hessian at x_s; for a relu network
    that is the Hessian of the linear piece each input lies in.  Each
    sample's output Hessian is scaled in place before it is added, so the
    peak is the three returned P x P matrices, or the two parts and one
    output Hessian while they are summed.
    """
    x = _as_batch(inputs)
    t = _as_targets(targets, x.shape[0])
    index = net.param_index
    if index.n_params > DENSE_CAP:
        raise CapacityError(f"P = {index.n_params} exceeds dense cap {DENSE_CAP}")
    n = x.shape[0]
    trace = batch_forward(net, x)
    outputs = trace.outputs
    grads = per_sample_output_gradients(net, x)
    curv = loss.d2(outputs, t)
    gauss_newton = (grads * curv[:, None]).T @ grads / n
    slopes = loss.d1(outputs, t)
    functional = np.zeros_like(gauss_newton)
    for s in range(n):
        term = output_hessian(net, x[s])
        term *= slopes[s]  # the product slopes[s] * term, in place
        functional += term
        del term  # before the next sample's is built
    functional /= n
    return HessianDecomposition(gauss_newton, functional, gauss_newton + functional)


def curvature_projection(operator, g: np.ndarray) -> float:
    """Quadratic form of a matrix or matrix-free operator along g / ||g||."""
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise DirectionError("cannot project along a zero gradient")
    unit = g / norm
    if callable(operator):
        mv = np.asarray(operator(unit), dtype=np.float64).reshape(-1)
    else:
        mv = np.asarray(operator) @ unit
    if mv.shape != unit.shape:
        raise DimensionError("operator output length does not match gradient length")
    return float(unit @ mv)


# psd_check passes eigenvalues down to -PSD_REL_THRESHOLD * ||matrix||_F.
PSD_REL_THRESHOLD = 1e-8


@dataclass
class PsdReport:
    min_eigenvalue: float
    threshold: float
    passed: bool


def psd_check(matrix: np.ndarray) -> PsdReport:
    """Report the smallest eigenvalue against a scale-relative PSD threshold."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    scale = float(np.linalg.norm(mat))
    asym = float(np.linalg.norm(mat - mat.T))
    if not asym <= 1e-8 * max(scale, 1e-300):
        raise SymmetryError(f"matrix is not symmetric: rel asymmetry {asym / max(scale, 1e-300):.3e}")
    low = float(np.linalg.eigvalsh(mat)[0])
    threshold = -PSD_REL_THRESHOLD * scale
    return PsdReport(low, threshold, bool(low >= threshold))


def estimate_curvature(loss_t: float, loss_t1: float, grad_norm_sq: float, lr: float) -> float:
    """Gradient-aligned curvature from one realized gradient step.

    Returns (loss_after - loss_before) / lr^2 + ||g||^2 / lr, the quantity
    recoverable from a vanilla step of size lr without any extra passes.
    Contract note: for an exactly quadratic loss this equals HALF of
    g^T (Hessian) g, because the underlying expansion writes the
    second-order term without the Taylor one-half; callers comparing against
    exact quadratic forms must halve the latter.
    """
    if lr <= 0.0:
        raise DimensionError(f"learning rate must be positive, got {lr}")
    return (loss_t1 - loss_t) / lr**2 + grad_norm_sq / lr
