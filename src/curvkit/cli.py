"""Command-line surface tying the modules into reproducible runs.

Commands: check (oracle-equivalence suite), theory (Monte Carlo claim
checks), train (one logged run), sweep (width x seed grid).  A single INI
config file is the source of truth; flags override individual keys.

run_checks holds the one copy of the oracle comparisons and tolerances:
check runs it on the configured net, acceptance criteria 01-04 on theirs.

main owns each run's lifecycle.  A configuration error (a malformed or
invalid config, an unusable output directory, or inputs the command refuses)
exits 2 and writes no manifest.  Past configuration, main times the command
and writes the one manifest.json, an aborted run included: the merged config,
the timing and the results the command had recorded (train records its step
lane and BLAS threads before its first step, theory its Monte Carlo lane,
theory and sweep the worker counts requested and used).  A divergence, a
zero gradient or an interrupt (SIGINT or SIGTERM) aborts with exit 3 and adds
its cause under "aborted"; train writes the runlog.csv rows it recorded
however it stops.

Exit codes: 0 success, 1 check or statistical failure, 2 configuration
error, 3 runtime abort.
"""
from __future__ import annotations

import argparse
import configparser
import copy
import json
import math
import operator
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .curvature import HessianDecomposition, decompose, estimate_curvature, psd_check
from .diff import (
    LossFunction,
    fd_hessian,
    ggn_vp,
    hvp,
    output_gradient,
    output_hessian,
    output_hessian_grad_product,
    raw_output,
    squared_error,
)
from .errors import ConfigError, CurvkitError, DimensionError, DirectionError, DivergenceError
from .experiment import (
    RunLog,
    TrainConfig,
    generate_dataset,
    save_dataset,
    sgd_train,
    width_sweep,
)
from .network import (
    IDENTITY,
    RELU,
    Architecture,
    Network,
    init_network,
    load_network,
    save_network,
)
from .parallel import blas_threads, effective_workers, open_lane, trial_lane_pays
from .rng import AUX_STREAM, DISTRIBUTION_KINDS, RngStream
from .tables import open_output, write_csv
from .theory import (
    CurvatureBoundParams,
    McConfig,
    McSummary,
    backfit_variance_constant,
    mc_bilinear_products,
    mc_cross_sample_stats,
    mc_curvature_positivity,
    mc_grad_norm_stats,
    mc_quadform_stats,
    positive_curvature_bound,
    predicted_variance_scale,
    quadform_samples,
)

MANIFEST_SCHEMA = "curvkit.manifest.v1"

THEORY_SUBCOMMANDS = ("thm1", "thm2", "norm", "identities", "cross")


def _parse_int_list(raw: str) -> list[int]:
    toks = raw.replace(",", " ").split()
    try:
        return [int(t) for t in toks]
    except ValueError as exc:
        raise ConfigError(f"expected integers, got {raw!r}") from exc


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc


def _parse_str(raw: str) -> str:
    return raw.strip()


# Lower bounds: (comparison, value).  A number, or every entry of a list,
# must be finite and satisfy it.
AT_LEAST_0, AT_LEAST_1, POSITIVE = (">=", 0), (">=", 1), (">", 0.0)
_COMPARE = {">=": operator.ge, ">": operator.gt}

# Section -> key -> (parser, default, lower bound or None).  Unknown sections
# or keys are rejected.
CONFIG_SPEC = {
    "arch": {
        "widths": (_parse_int_list, [4, 5, 6, 3, 1], AT_LEAST_1),
        "activation": (_parse_str, IDENTITY, None),
    },
    "init": {
        "distribution": (_parse_str, "gaussian", None),
        "seed": (_parse_int, 1, AT_LEAST_0),
        "gain": (_parse_str, "auto", None),
    },
    "train": {
        "lr": (_parse_float, 0.1, AT_LEAST_0),
        "halve_at": (_parse_int_list, [40, 80, 120], AT_LEAST_0),
        "batch_size": (_parse_int, 100, AT_LEAST_1),
        "epochs": (_parse_int, 100, AT_LEAST_0),
        "probe_every": (_parse_int, 0, AT_LEAST_0),
    },
    "data": {
        "n_samples": (_parse_int, 1000, AT_LEAST_1),
        "seed": (_parse_int, 2, AT_LEAST_0),
    },
    "mc": {
        "trials": (_parse_int, 20000, (">=", 2)),
        "seed": (_parse_int, 3, AT_LEAST_0),
    },
    "out": {
        "directory": (_parse_str, "curvkit_out", None),
    },
    "sweep": {
        "widths": (_parse_int_list, [50, 200, 400], AT_LEAST_1),
        "n_seeds": (_parse_int, 10, AT_LEAST_1),
    },
    "theory": {
        "epsilon": (_parse_float, 0.1, POSITIVE),
        "alpha": (_parse_float, 2.0, POSITIVE),
        "beta": (_parse_float, 0.5, POSITIVE),
        "gamma": (_parse_float, 1.0, POSITIVE),
        "stderr_sigmas": (_parse_float, 4.0, AT_LEAST_0),
        "mean_tol_rel": (_parse_float, 0.10, AT_LEAST_0),
        "target_magnitude": (_parse_float, 1.0, AT_LEAST_0),
    },
}


def default_config() -> dict:
    return {sec: {k: copy.deepcopy(d) for k, (_, d, _) in keys.items()} for sec, keys in CONFIG_SPEC.items()}


def load_config(path: str | None) -> dict:
    """Defaults merged with an INI file; unknown sections or keys rejected."""
    cfg = default_config()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in CONFIG_SPEC:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in CONFIG_SPEC[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cfg[section][key] = CONFIG_SPEC[section][key][0](raw)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    for section, keys in CONFIG_SPEC.items():
        for key, (_, _, bound) in keys.items():
            if bound is None:
                continue
            op, lower = bound
            value = cfg[section][key]
            values = value if isinstance(value, list) else [value]
            if not all(isinstance(v, int) or np.isfinite(v) for v in values):
                raise ConfigError(f"[{section}] {key} must be finite, got {value}")
            if not all(_COMPARE[op](v, lower) for v in values):
                raise ConfigError(f"[{section}] {key} must be {op} {lower}, got {value}")
    if cfg["arch"]["activation"] not in (IDENTITY, RELU):
        raise ConfigError(f"activation must be identity or relu, got {cfg['arch']['activation']!r}")
    if cfg["init"]["distribution"] not in DISTRIBUTION_KINDS:
        raise ConfigError(f"distribution must be one of {DISTRIBUTION_KINDS}")
    if len(cfg["arch"]["widths"]) < 2:
        raise ConfigError(f"[arch] widths needs an input and an output width, got {cfg['arch']['widths']}")
    if not cfg["sweep"]["widths"]:
        raise ConfigError("[sweep] widths needs at least one width")
    if cfg["arch"]["widths"][-1] != 1:
        raise ConfigError(
            f"output width must be 1, got widths {cfg['arch']['widths']}: "
            "all Hessian analysis is defined for a single output unit"
        )


def _write_manifest(out_dir: Path, command: str, cfg: dict, extra: dict, started: float) -> None:
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "toolkit_version": __version__,
        "command": command,
        "config": cfg,
        "timing_s": round(time.perf_counter() - started, 3),
    }
    manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest, sort_keys=True)


def _write_json(path: Path, obj, sort_keys: bool = False) -> None:
    """Indented JSON that any strict parser reads: a non-finite float is null."""
    with open_output(path) as fh:
        fh.write(json.dumps(_finite_or_null(obj), indent=2, sort_keys=sort_keys, allow_nan=False) + "\n")


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _prepare_out(cfg: dict, override: str | None) -> Path:
    out_dir = Path(override if override is not None else cfg["out"]["directory"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out_dir}: {exc.strerror}") from exc
    cfg["out"]["directory"] = str(out_dir)
    return out_dir


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _relative(num: float, den: float) -> float:
    return num / max(den, 1e-300)


def _hessian_is_rounding(dec: HessianDecomposition, n: int) -> bool:
    """Whether the dense loss Hessian of n samples is no larger than the
    rounding of the sum that forms it: n terms, so at most n eps times
    their norms.

    That is the case where the loss Hessian is zero: exactly zero, or a
    cancellation (e.g. width-1 inputs +-1 under raw_output, whose output
    Hessians are +-H(1)) that leaves only a few ulps of its terms.
    """
    scale = np.linalg.norm(dec.gauss_newton) + dec.term_norm_sum / n
    return bool(np.linalg.norm(dec.hessian) <= n * np.finfo(np.float64).eps * scale)


def _fd_relative(fd: np.ndarray, exact: np.ndarray) -> float:
    """||exact - fd|| / ||fd||, subtracting exact from fd in place after its
    norm is taken: fd - exact is exactly -(exact - fd), so the norm is the
    same to the bit, and no difference matrix is made."""
    scale = np.linalg.norm(fd)
    fd -= exact
    return _relative(np.linalg.norm(fd), scale)


def run_checks(net: Network, inputs: np.ndarray, targets: np.ndarray, loss: LossFunction,
               gen: np.random.Generator) -> list[dict]:
    """The oracle-equivalence suite: one row (name, value, tolerance, passed)
    per comparison of an exact route with its oracle, in a fixed order.

    The output-Hessian rows take inputs[0]; the loss rows take the whole
    batch.  The matrix-free rows draw their 50 directions from gen.  A row
    passes when its value is at most its tolerance, so NaN fails.  A batch
    whose loss Hessian is zero (see _hessian_is_rounding) is refused with
    ConfigError, before any FD work: each loss row is a relative error, and
    it would compare rounding with zero.

    Each dense matrix lives only while the rows that read it are computed:
    the decomposition's Hessian through the loss FD row and the matrix-free
    rows, its Gauss-Newton part through the PSD row, and the output Hessian
    through its own three rows last.  So at most three P x P matrices are
    held at once, besides the FD oracle's fixed chunk buffers; the rows are
    returned in their fixed order all the same.
    """
    checks: list[dict] = []

    def add(name: str, value: float, tolerance: float) -> None:
        checks.append(
            {
                "name": name,
                "value": float(value),
                "tolerance": float(tolerance),
                # NaN must fail, so compare in the passing direction only.
                "passed": bool(value <= tolerance),
            }
        )

    with np.errstate(all="ignore"):
        dec = decompose(net, inputs, targets, loss)
        if _hessian_is_rounding(dec, inputs.shape[0]):
            raise ConfigError(
                "the loss Hessian on this batch is zero (to rounding): "
                "no relative error of the loss rows is defined"
            )
        gauss_newton, hessian = dec.gauss_newton, dec.hessian
        del dec  # no row reads the functional part
        decomposition_vs_fd = _fd_relative(fd_hessian(net, inputs, targets, loss), hessian)

        worst_h = worst_g = 0.0
        for _ in range(50):
            v = gen.standard_normal(net.param_index.n_params)
            hv = hvp(net, inputs, targets, loss, v)
            ref_h = hessian @ v
            worst_h = max(worst_h, _relative(np.linalg.norm(hv - ref_h), np.linalg.norm(ref_h)))
            gv = ggn_vp(net, inputs, targets, loss, v)
            ref_g = gauss_newton @ v
            worst_g = max(worst_g, _relative(np.linalg.norm(gv - ref_g), np.linalg.norm(ref_g)))
        del hessian

        try:
            report = psd_check(gauss_newton)
            psd = (-report.min_eigenvalue, -report.threshold)
        except CurvkitError:
            psd = (float("nan"), 0.0)
        del gauss_newton

        x0 = inputs[0]
        dense = output_hessian(net, x0)
        dense_norm = np.linalg.norm(dense)
        symmetry = _relative(np.linalg.norm(dense - dense.T), dense_norm)
        vs_fd = _fd_relative(fd_hessian(net, x0, 0.0, raw_output()), dense)
        reference = dense @ output_gradient(net, x0)
        del dense
        cases = output_hessian_grad_product(net, x0)
        if np.isnan(dense_norm):
            worst_h = worst_g = float("nan")

        add("output-hessian-symmetry", symmetry, 1e-10)
        add("output-hessian-vs-fd", vs_fd, 1e-5)
        add("case-product-vs-dense", _relative(np.linalg.norm(cases - reference), np.linalg.norm(reference)), 1e-10)
        add("decomposition-vs-fd", decomposition_vs_fd, 1e-4)
        add("gauss-newton-psd", *psd)
        add("hvp-vs-dense", worst_h, 1e-10)
        add("ggn-vs-dense", worst_g, 1e-10)

        # One-step estimator on the one-parameter quadratic: exact at any rate.
        w = 1.5
        lr = 0.05
        loss_before = 0.5 * w**2
        loss_after = 0.5 * (w - lr * w) ** 2
        est = estimate_curvature(loss_before, loss_after, w**2, lr)
        add("estimator-quadratic", abs(est - 0.5 * w**2), 1e-10)
    return checks


def cmd_check(args: argparse.Namespace, cfg: dict, out_dir: Path, results: dict) -> int:
    weights_path = args.weights
    if weights_path is not None:
        try:
            net = load_network(weights_path, strict=False)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load weight file: {exc}") from exc
    else:
        arch = Architecture(tuple(cfg["arch"]["widths"]), cfg["arch"]["activation"])
        net = init_network(arch, cfg["init"]["distribution"], RngStream(cfg["init"]["seed"], 0))
    # load_network's messages start with the path; so do the refusals of a loaded net.
    source = "" if weights_path is None else f"{weights_path}: "
    if net.arch.activation != IDENTITY:
        raise ConfigError(
            f"{source}unsupported activation {net.arch.activation!r} (identity required): "
            "the FD oracle's stencil can cross a relu kink"
        )
    if net.param_index.n_params > 4000:
        raise ConfigError(f"{source}check requires a small architecture (P <= 4000)")
    if net.depth < 2:
        # The output Hessian of one weight layer is exactly 0, so the
        # relative error against the FD oracle has no scale but rounding.
        raise ConfigError(
            f"{source}check requires at least two weight layers "
            "(the output Hessian of a one-layer net is identically zero)"
        )
    gen = RngStream(cfg["data"]["seed"], AUX_STREAM).generator()
    inputs = gen.standard_normal((4, net.arch.widths[0]))
    inputs /= np.linalg.norm(inputs, axis=1, keepdims=True)
    targets = gen.integers(0, 2, size=4).astype(np.float64) * 2.0 - 1.0
    checks = run_checks(net, inputs, targets, squared_error(), gen)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: value={c['value']:.3e} tol={c['tolerance']:.3e}")
    failures = [c for c in checks if not c["passed"]]
    _write_json(out_dir / "check_report.json", checks)
    if failures:
        print(f"FAILED: first failing check is {failures[0]['name']}", file=sys.stderr)
    else:
        print("all checks passed")
    results["n_failures"] = len(failures)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def _mc_config(cfg: dict) -> McConfig:
    if cfg["arch"]["activation"] != IDENTITY:
        raise ConfigError("theory checks require identity activation")
    return McConfig(
        widths=tuple(cfg["arch"]["widths"]),
        distribution=cfg["init"]["distribution"],
        n_trials=cfg["mc"]["trials"],
        master_seed=cfg["mc"]["seed"],
    )


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _zero_mean_gate(summary: McSummary, sigmas: float) -> tuple[float, bool, dict]:
    """Test a zero-mean claim: |mean| / stderr against sigmas.  Prints the
    verdict line; returns the ratio, the verdict and the manifest keys."""
    ratio = abs(summary.mean) / summary.stderr if summary.stderr > 0 else (0.0 if summary.mean == 0 else float("inf"))
    passed = ratio <= sigmas
    print(f"mean={summary.mean:.4e} stderr={summary.stderr:.4e} -> {_verdict(passed)}")
    return ratio, passed, {"mean": summary.mean, "stderr": summary.stderr,
                           "abs_mean_over_stderr": ratio, "verdict": _verdict(passed)}


def _require_constant_shape(widths: tuple[int, ...]) -> None:
    if len(set(widths[:-1])) != 1:
        raise ConfigError("this subcommand expects constant-shape widths (all equal except the output)")


def cmd_theory(args: argparse.Namespace, cfg: dict, out_dir: Path, results: dict) -> int:
    sub, threads = args.subcommand, args.threads
    mc = _mc_config(cfg)
    tcfg = cfg["theory"]
    results["threads_requested"] = threads
    results["threads_used"] = effective_workers(threads)
    # identities draws one layer per trial and keeps its inline path.
    results["mc_lane"] = "thread" if sub != "identities" and trial_lane_pays(threads) else "inline"
    passed = True

    if sub == "thm1":
        summary = mc_quadform_stats(mc, threads)
        ratio, passed, extra = _zero_mean_gate(summary, tcfg["stderr_sigmas"])
        predicted = predicted_variance_scale(mc.widths)
        write_csv(
            out_dir / "thm1.csv",
            "curvkit.theory.thm1.v1",
            ["widths", "n_trials", "mean", "variance", "stderr", "abs_mean_over_stderr",
             "predicted_scale", "variance_over_predicted", "passed"],
            [[
                " ".join(map(str, mc.widths)), summary.n_trials, summary.mean, summary.variance,
                summary.stderr, ratio, predicted,
                summary.variance / predicted if predicted > 0 else float("nan"), passed,
            ]],
        )

    elif sub == "norm":
        _require_constant_shape(mc.widths)
        result = mc_grad_norm_stats(mc, n_workers=threads)
        rel = abs(result.summary.mean - result.limit) / result.limit
        passed = rel <= tcfg["mean_tol_rel"]
        write_csv(
            out_dir / "norm.csv",
            "curvkit.theory.norm.v1",
            ["widths", "n_trials", "limit", "mean", "variance", "stderr", "rel_error", "passed"],
            [[
                " ".join(map(str, mc.widths)), result.summary.n_trials, result.limit,
                result.summary.mean, result.summary.variance, result.summary.stderr, rel, passed,
            ]],
        )
        _write_deviation(out_dir / "delta_table.csv", result.deviation)
        print(f"mean={result.summary.mean:.4f} limit={result.limit:.4f} -> {_verdict(passed)}")
        extra = {"limit": result.limit, "mean": result.summary.mean, "rel_error": rel,
                 "verdict": _verdict(passed)}

    elif sub == "thm2":
        _require_constant_shape(mc.widths)
        multipliers = (1.0,) * len(mc.widths)
        eps = tcfg["epsilon"]
        try:
            params = CurvatureBoundParams(
                epsilon=eps,
                loss_curvature_min=tcfg["alpha"],
                loss_slope_min=tcfg["beta"],
                multipliers=multipliers,
                base_width=mc.widths[0],
                variance_constant=tcfg["gamma"],
                input_norm_sq=1.0,
            )
        except DimensionError as exc:
            raise ConfigError(f"[theory] epsilon = {eps}, beta = {tcfg['beta']}: {exc}") from exc
        # The three ensembles share their seed, so the samplers share one
        # table: each trial's network is drawn once for all three.
        norm_result = mc_grad_norm_stats(mc, multipliers, n_workers=threads)
        qf = quadform_samples(mc, threads)
        gamma_fit = backfit_variance_constant(float(np.var(qf, ddof=1)), multipliers, mc.widths[0])
        bound = positive_curvature_bound(replace(params, deviation=norm_result.deviation))
        pos = mc_curvature_positivity(mc, eps, tcfg["target_magnitude"], threads)
        if bound > 0:
            margin = 1.645 * np.sqrt(bound * (1.0 - bound) / mc.n_trials) if bound < 1 else 0.0
            passed = pos.probability >= bound - margin
        else:
            passed = True  # vacuous bound carries no constraint
        write_csv(
            out_dir / "thm2.csv",
            "curvkit.theory.thm2.v1",
            ["widths", "base_width", "n_trials", "epsilon", "alpha", "beta", "gamma",
             "gamma_backfit", "bound", "empirical", "passed"],
            [[
                " ".join(map(str, mc.widths)), mc.widths[0], mc.n_trials, eps, tcfg["alpha"],
                tcfg["beta"], tcfg["gamma"], gamma_fit, bound, pos.probability, passed,
            ]],
        )
        _write_deviation(out_dir / "delta_table.csv", norm_result.deviation)
        print(f"bound={bound:.4f} empirical={pos.probability:.4f} -> {_verdict(passed)}")
        extra = {"bound": bound, "empirical": pos.probability, "gamma_backfit": gamma_fit,
                 "verdict": _verdict(passed)}

    elif sub == "identities":
        n_in, n_out = mc.widths[0], mc.widths[1]
        gen = RngStream(mc.master_seed, AUX_STREAM).generator()
        vectors = [v / np.linalg.norm(v) for v in gen.standard_normal((6, n_out))]
        report = mc_bilinear_products(
            n_in, n_out, mc.distribution, vectors, mc.n_trials, mc.master_seed, threads
        )
        write_csv(
            out_dir / "identities.csv",
            "curvkit.theory.identities.v1",
            ["label", "n_in", "n_out", "n_trials", "measured_mean", "measured_stderr",
             "predicted_width_ratio", "predicted_second_moment"],
            [[r.label, report.n_in, report.n_out, report.n_trials, r.measured_mean,
              r.measured_stderr, r.predicted_width_ratio, r.predicted_second_moment]
             for r in report.rows],
        )
        print("identities report written (informational, no pass/fail)")
        extra = {"n_rows": len(report.rows)}

    else:  # cross
        summary = mc_cross_sample_stats(mc, threads)
        ratio, passed, extra = _zero_mean_gate(summary, tcfg["stderr_sigmas"])
        second_moment = summary.variance + summary.mean**2
        predicted = predicted_variance_scale(mc.widths)
        write_csv(
            out_dir / "cross.csv",
            "curvkit.theory.cross.v1",
            ["widths", "n_trials", "mean", "stderr", "abs_mean_over_stderr",
             "second_moment", "predicted_scale", "passed"],
            [[" ".join(map(str, mc.widths)), summary.n_trials, summary.mean, summary.stderr,
              ratio, second_moment, predicted, passed]],
        )
    results.update(extra)
    return 0 if passed else 1


def _write_deviation(path, table) -> None:
    write_csv(
        path,
        "curvkit.theory.deviation.v1",
        ["eps", "tail_prob", "center", "n_trials"],
        [[e, t, table.center, table.n_trials] for e, t in zip(table.eps, table.tail)],
    )


# ---------------------------------------------------------------------------
# train / sweep
# ---------------------------------------------------------------------------


def _parse_gain(raw: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None
    try:
        gain = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[init] gain must be a number or 'auto', got {raw!r}") from exc
    if not (np.isfinite(gain) and gain > 0.0):
        raise ConfigError(f"[init] gain must be finite and > 0 or 'auto', got {raw!r}")
    return gain


def _train_config(cfg: dict) -> TrainConfig:
    batch_size, n_samples = cfg["train"]["batch_size"], cfg["data"]["n_samples"]
    if cfg["train"]["epochs"] > 0 and batch_size > n_samples:
        raise ConfigError(f"train batch_size = {batch_size} exceeds data n_samples = {n_samples}")
    arch = Architecture(tuple(cfg["arch"]["widths"]), cfg["arch"]["activation"])
    return TrainConfig(
        architecture=arch,
        loss=squared_error(),
        learning_rate=cfg["train"]["lr"],
        halve_at=tuple(cfg["train"]["halve_at"]),
        batch_size=batch_size,
        epochs=cfg["train"]["epochs"],
        probe_every=cfg["train"]["probe_every"],
        data_seed=cfg["data"]["seed"],
        init_seed=cfg["init"]["seed"],
        distribution=cfg["init"]["distribution"],
        init_gain=_parse_gain(cfg["init"]["gain"]),
    )


def cmd_train(args: argparse.Namespace, cfg: dict, out_dir: Path, results: dict) -> int:
    tc = _train_config(cfg)
    widths = tc.architecture.widths
    log = RunLog()
    with open_lane(max(a * b for a, b in zip(widths, widths[1:]))) as lane:
        results["step_lane"] = "thread" if lane.threaded else "inline"
        results["blas_threads"] = blas_threads()
        try:
            dataset = generate_dataset(cfg["data"]["n_samples"], widths[0], tc.data_seed)
            save_dataset(dataset, out_dir / "dataset.csv", lane)
            net = init_network(tc.architecture, tc.distribution, RngStream(tc.init_seed, 0),
                               rectifier_gain=tc.effective_init_gain)
            sgd_train(net, dataset, tc, lane, log)
        finally:
            log.to_csv(out_dir / "runlog.csv")  # the rows recorded, however the run stops
        save_network(net, out_dir / "network_final.txt", lane)
    print(f"final loss {log.final_loss:.6f}, positivity {log.positivity_fraction():.3f}")
    results.update(
        final_loss=log.final_loss,
        positivity_fraction=log.positivity_fraction(),
        n_steps=len(log.records),
        wall_time_s=log.wall_time_s,
    )
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: dict, out_dir: Path, results: dict) -> int:
    results["threads_requested"] = args.threads
    results["threads_used"] = effective_workers(args.threads)
    report = width_sweep(_train_config(cfg), cfg["sweep"]["widths"], cfg["sweep"]["n_seeds"],
                         cfg["data"]["n_samples"], args.threads)
    report.to_csv(out_dir / "sweep.csv")
    means = report.mean_init_functional_abs()
    print(f"verdict: {report.verdict}")
    results.update(
        verdict=report.verdict,
        mean_init_H_proj_abs={str(w): means[w] for w in report.widths},
    )
    return 1 if report.verdict == "not-decreasing" else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override the command's primary seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker processes for trials/cells")

    p_check = sub.add_parser("check", help="run the oracle-equivalence suite")
    common(p_check)
    p_check.add_argument("--weights", default=None, help="network file to check instead of a random net")

    p_theory = sub.add_parser("theory", help="Monte Carlo verification of the curvature claims")
    p_theory.add_argument("subcommand", choices=THEORY_SUBCOMMANDS)
    common(p_theory)

    p_train = sub.add_parser("train", help="one logged SGD run with curvature probes")
    common(p_train)

    p_sweep = sub.add_parser("sweep", help="width x seed sweep of initial curvature")
    common(p_sweep)
    return parser


# Each command writes its own outputs, adds its manifest results to the dict it
# is handed as it learns them, and returns its exit code.
COMMANDS = {"check": cmd_check, "theory": cmd_theory, "train": cmd_train, "sweep": cmd_sweep}


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"interrupted ({signal.Signals(signum).name})")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"theory {args.subcommand}" if args.command == "theory" else args.command
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.command == "theory":
                cfg["mc"]["seed"] = args.seed
            else:
                cfg["init"]["seed"] = args.seed
            _validate_config(cfg)
        out_dir = _prepare_out(cfg, args.out)
        started = time.perf_counter()
        results: dict = {}
        previous = signal.signal(signal.SIGTERM, _interrupt)
        try:
            code = COMMANDS[args.command](args, cfg, out_dir, results)
        except (DivergenceError, DirectionError, KeyboardInterrupt) as exc:
            cause = str(exc) or "interrupted (SIGINT)"  # Python's own SIGINT handler gives no message
            print(f"aborted: {cause}", file=sys.stderr)
            code, results["aborted"] = 3, cause
        finally:
            signal.signal(signal.SIGTERM, previous)
        _write_manifest(out_dir, command, cfg, results, started)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
