"""Acceptance suite: runs every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`) before
asserting, so a full run yields a criterion-by-criterion report.  Monte
Carlo criteria use pinned master seeds; the quantities under test are
either mathematically exact or hold with large margins at the pinned
ensemble sizes, and the seeds freeze the suite into a deterministic
regression.
"""
import subprocess
import sys

import numpy as np
import pytest

import curvkit as ck
from cli_env import child_env
from curvkit.cli import run_checks

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"criterion {number:02d} ({name}): {'PASS' if passed else 'FAIL'}  {detail}")


def random_linear_nets(n_extra_max: int = 3):
    """17 random small linear nets plus 3 at the maximum acceptance size."""
    nets = []
    gen = np.random.default_rng(20240901)
    for i in range(17):
        depth = int(gen.integers(2, 6))
        widths = tuple(int(w) for w in gen.integers(2, 9, size=depth)) + (1,)
        nets.append(ck.init_network(ck.Architecture(widths), "gaussian", ck.RngStream(1000 + i, 0)))
    for i in range(n_extra_max):
        nets.append(
            ck.init_network(ck.Architecture((8, 8, 8, 8, 8, 1)), "gaussian", ck.RngStream(2000 + i, 0))
        )
    return nets


def unit_input(gen, width):
    x = gen.standard_normal(width)
    return x / np.linalg.norm(x)


def oracle_rows(net, inputs, targets, gen, *names):
    """The rows of the given names from the oracle suite `check` runs."""
    return [r for r in run_checks(net, inputs, targets, ck.squared_error(), gen) if r["name"] in names]


def worst(rows):
    """The largest value among rows (NaN if any is NaN) and their tolerance,
    spelled for a criterion line."""
    return f"{float(np.max([r['value'] for r in rows])):.2e}", f"{rows[0]['tolerance']:.0e}"


def toy_config(width: int, activation: str = "relu") -> ck.TrainConfig:
    return ck.TrainConfig(
        architecture=ck.Architecture((width,) * 8 + (1,), activation),
        learning_rate=0.1,
        halve_at=(40, 80, 120),
        batch_size=100,
        epochs=100,
        data_seed=7,
        init_seed=1,
    )


@pytest.fixture(scope="module")
def toy_runs():
    """One full reference-regime run per width (relu, probed once per epoch)."""
    runs = {}
    for width in (50, 200, 400):
        cfg = toy_config(width)
        dataset = ck.generate_dataset(1000, width, cfg.data_seed)
        net = ck.init_network(
            cfg.architecture, cfg.distribution, ck.RngStream(cfg.init_seed, 0),
            rectifier_gain=cfg.effective_init_gain,
        )
        runs[width] = ck.sgd_train(net, dataset, cfg)
    return runs


# ---------------------------------------------------------------------------
# 1-4: exact routes against their oracles, as `check` compares them.  Each
# criterion gates its rows of run_checks, each row at its own tolerance.
# ---------------------------------------------------------------------------


def test_c01_output_hessian_matches_fd_oracle():
    nets = random_linear_nets()
    rows = []
    for i, net in enumerate(nets):
        gen = ck.RngStream(3000 + i, 0).generator()
        x = unit_input(gen, net.arch.widths[0])
        rows += oracle_rows(net, x[None], np.ones(1), gen, "output-hessian-vs-fd")
    passed = all(r["passed"] for r in rows)
    value, tol = worst(rows)
    report(1, "closed-form output Hessian vs FD", passed,
           f"worst rel Frobenius {value} over {len(nets)} nets (tol {tol})")
    assert passed


def test_c02_case_formula_matches_dense_product():
    nets = random_linear_nets()
    rows = []
    for i, net in enumerate(nets):
        gen = ck.RngStream(4000 + i, 0).generator()
        x = unit_input(gen, net.arch.widths[0])
        rows += oracle_rows(net, x[None], np.ones(1), gen, "case-product-vs-dense")
    passed = all(r["passed"] for r in rows)
    value, tol = worst(rows)
    report(2, "layered case formula vs dense product", passed,
           f"worst rel {value} over {len(nets)} nets (tol {tol})")
    assert passed


def test_c03_decomposition_matches_fd_and_is_psd():
    fd_rows, psd_rows = [], []
    for i in range(20):
        gen = ck.RngStream(5000 + i, 0).generator()
        depth = int(gen.integers(2, 5))
        widths = tuple(int(w) for w in gen.integers(2, 6, size=depth)) + (1,)
        net = ck.init_network(ck.Architecture(widths), "gaussian", ck.RngStream(5100 + i, 0))
        xs = gen.standard_normal((int(gen.integers(2, 8)), widths[0]))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ts = gen.integers(0, 2, xs.shape[0]) * 2.0 - 1.0
        fd_row, psd_row = oracle_rows(net, xs, ts, gen, "decomposition-vs-fd", "gauss-newton-psd")
        fd_rows.append(fd_row)
        psd_rows.append(psd_row)
    passed = all(r["passed"] for r in fd_rows + psd_rows)
    value, tol = worst(fd_rows)
    n_psd = sum(r["passed"] for r in psd_rows)
    psd = f"all {n_psd}" if n_psd == len(psd_rows) else f"{n_psd} of {len(psd_rows)}"
    report(3, "Hessian split vs FD + PSD part", passed,
           f"worst rel {value} (tol {tol}), {psd} curvature parts PSD")
    assert passed


def test_c04_matrix_free_products_match_dense():
    rows = []
    for i in range(5):
        gen = ck.RngStream(6000 + i, 0).generator()
        net = ck.init_network(ck.Architecture((4, 5, 4, 1)), "gaussian", ck.RngStream(6100 + i, 0))
        xs = gen.standard_normal((6, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ts = gen.integers(0, 2, 6) * 2.0 - 1.0
        rows += oracle_rows(net, xs, ts, gen, "hvp-vs-dense", "ggn-vs-dense")
    passed = all(r["passed"] for r in rows)
    value, tol = worst(rows)
    report(4, "matrix-free products vs dense", passed,
           f"worst rel {value} over 5 nets x 50 directions (tol {tol})")
    assert passed


# ---------------------------------------------------------------------------
# 5: one-step estimator contract
# ---------------------------------------------------------------------------


def test_c05_estimator_contract():
    # Exact on the one-parameter quadratic, any rate.
    w, lr = 1.7, 0.05
    loss_t = 0.5 * w**2
    w1 = w - lr * w
    est = ck.estimate_curvature(loss_t, 0.5 * w1**2, w**2, lr)
    exact_err = abs(est - 0.5 * w**2)

    # First-order error decay on a deep linear network.
    net = ck.init_network(ck.Architecture((5, 6, 5, 1)), "gaussian", ck.RngStream(7000, 0))
    gen = ck.RngStream(7001, 0).generator()
    xs = gen.standard_normal((8, 5))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ts = gen.integers(0, 2, 8) * 2.0 - 1.0
    loss = ck.squared_error()
    base, g = ck.loss_and_gradient(net, xs, ts, loss)
    g_sq = float(g @ g)
    exact_half = 0.5 * float(g @ ck.hvp(net, xs, ts, loss, g))
    errs = []
    for lr in (1e-2, 5e-3, 2.5e-3):
        after = ck.batch_loss(net.with_params(net.param_vector() - lr * g), xs, ts, loss)
        errs.append(abs(ck.estimate_curvature(base, after, g_sq, lr) - exact_half))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    passed = exact_err <= 1e-10 and all(1.5 <= r <= 2.5 for r in ratios)
    report(5, "one-step estimator contract", passed,
           f"quadratic err {exact_err:.1e} (tol 1e-10); halving ratios {[f'{r:.2f}' for r in ratios]} in [1.5, 2.5]")
    assert passed


# ---------------------------------------------------------------------------
# 6 & 7: random-init statistics of the grad-aligned output-Hessian quadform
# ---------------------------------------------------------------------------

# Worker processes for the Monte Carlo criteria 6-9.  Trials are keyed by
# (master_seed, trial_index), so every sample, hence every criterion line,
# is identical at any worker count.
MC_WORKERS = 2


def test_c06_quadform_zero_mean():
    details = []
    passed = True
    for widths in ((16, 16, 16, 16, 1), (64, 64, 64, 64, 1)):
        s = ck.mc_quadform_stats(
            ck.McConfig(widths=widths, n_trials=20_000, master_seed=0), n_workers=MC_WORKERS
        )
        t_stat = abs(s.mean) / s.stderr
        passed &= t_stat <= 4.0
        details.append(f"widths {widths[0]}: |mean|/stderr = {t_stat:.2f}")
    report(6, "zero-mean quadratic form", passed, "; ".join(details) + " (gate 4.0)")
    assert passed


def test_c07a_variance_scaling_constant_width():
    variances = {}
    for n in (16, 32, 64):
        widths = (n, n, n, n, 1)
        samples = ck.quadform_samples(
            ck.McConfig(widths=widths, n_trials=20_000, master_seed=11), n_workers=MC_WORKERS
        )
        variances[n] = (float(np.var(samples, ddof=1)), ck.predicted_variance_scale(widths))
    devs = []
    for a, b in ((16, 32), (32, 64)):
        measured = variances[a][0] / variances[b][0]
        predicted = variances[a][1] / variances[b][1]
        devs.append(abs(measured / predicted - 1.0))
    passed = all(d <= 0.35 for d in devs)
    report(7, "variance ratios, constant width (a)", passed,
           f"ratio deviations {[f'{d:.1%}' for d in devs]} (tol 35%)")
    assert passed


def test_c07b_variance_scaling_input_width():
    # Hidden widths pinned at 32; depth chosen deep enough (7 hidden layers)
    # that the far-apart layer pairs driving the predicted cubic input-width
    # dependence exist and dominate.
    variances = {}
    for n0 in (16, 32, 64):
        widths = (n0,) + (32,) * 7 + (1,)
        samples = ck.quadform_samples(
            ck.McConfig(widths=widths, n_trials=20_000, master_seed=12), n_workers=MC_WORKERS
        )
        variances[n0] = float(np.var(samples, ddof=1))
    decreasing = variances[16] > variances[32] > variances[64]
    ratios = [variances[16] / variances[32], variances[32] / variances[64]]
    within = all(4.0 <= r <= 16.0 for r in ratios)  # predicted 8 per doubling
    passed = decreasing and within
    report(7, "variance ratios, input width (b)", passed,
           f"measured ratios {[f'{r:.2f}' for r in ratios]} vs predicted 8.00 (factor-2 window), "
           f"strictly decreasing: {decreasing}")
    assert passed


# ---------------------------------------------------------------------------
# 8: positive-curvature probability bound vs measured frequency
# ---------------------------------------------------------------------------


def test_c08_curvature_probability_bound():
    epsilon, alpha, beta, gamma = 0.1, 2.0, 0.5, 1.0
    details = []
    passed = True
    for n in (64, 256):
        widths = (n, n, n, n, 1)
        multipliers = (1.0,) * 5
        norm_result = ck.mc_grad_norm_stats(
            ck.McConfig(widths=widths, n_trials=2000, master_seed=41), multipliers, n_workers=MC_WORKERS
        )
        qf = ck.quadform_samples(
            ck.McConfig(widths=widths, n_trials=2000, master_seed=42), n_workers=MC_WORKERS
        )
        gamma_fit = ck.backfit_variance_constant(float(np.var(qf, ddof=1)), multipliers, n)
        bound = ck.positive_curvature_bound(
            ck.CurvatureBoundParams(
                epsilon=epsilon,
                loss_curvature_min=alpha,
                loss_slope_min=beta,
                multipliers=multipliers,
                base_width=n,
                variance_constant=gamma,
                deviation=norm_result.deviation,
            )
        )
        pos = ck.mc_curvature_positivity(
            ck.McConfig(widths=widths, n_trials=2000, master_seed=43), epsilon, n_workers=MC_WORKERS
        )
        if bound > 0:
            margin = 1.645 * np.sqrt(bound * (1.0 - bound) / 2000) if bound < 1.0 else 0.0
            passed &= pos.probability >= bound - margin
        details.append(
            f"n={n}: bound {bound:.4f}, empirical {pos.probability:.4f}, back-fitted gamma {gamma_fit:.1f}"
        )
    report(8, "curvature probability bound", passed, "; ".join(details) + " (one-sided 95%)")
    assert passed


# ---------------------------------------------------------------------------
# 9: gradient-norm preservation and concentration
# ---------------------------------------------------------------------------


def test_c09_grad_norm_preservation():
    result_256 = ck.mc_grad_norm_stats(
        ck.McConfig(widths=(256, 256, 256, 256, 1), n_trials=5000, master_seed=31),
        n_workers=MC_WORKERS,
    )
    rel = abs(result_256.summary.mean - 4.0) / 4.0
    mean_ok = rel <= 0.10

    result_64 = ck.mc_grad_norm_stats(
        ck.McConfig(widths=(64, 64, 64, 64, 1), n_trials=5000, master_seed=31),
        n_workers=MC_WORKERS,
    )
    probes = [0.1, 0.2, 0.5, 1.0]
    pairs = [(result_64.deviation.tail_prob(e), result_256.deviation.tail_prob(e)) for e in probes]
    informative = [(w, n) for w, n in pairs if w >= 0.02]
    tighter = all(n <= w for w, n in informative) and any(n < w for w, n in informative)
    passed = mean_ok and tighter
    report(9, "gradient-norm preservation", passed,
           f"mean at n=256 within {rel:.2%} of 4 (tol 10%); tail probs tighten 64->256 at "
           f"{len(informative)} probe levels: {tighter}")
    assert passed


# ---------------------------------------------------------------------------
# 10: reference-regime reproduction
# ---------------------------------------------------------------------------


def test_c10a_positivity_fraction_per_run(toy_runs):
    fractions = {w: log.positivity_fraction() for w, log in toy_runs.items()}
    passed = all(f >= 0.95 for f in fractions.values())
    report(10, "toy regime (a): positive curvature share", passed,
           "; ".join(f"w={w}: {f:.3f}" for w, f in fractions.items()) + " (gate 0.95)")
    assert passed


def test_c10b_functional_part_shrinks_with_width():
    # Gate on the identity variant, where the quadratic theory applies
    # directly and the ordering is robust at 10 seeds; report the relu
    # variant of the same sweep alongside.
    results = {}
    for activation in ("identity", "relu"):
        base = ck.TrainConfig(
            architecture=ck.Architecture((8,) * 8 + (1,), activation),
            learning_rate=0.1,
            batch_size=100,
            epochs=0,
            data_seed=7,
            init_seed=17,
        )
        results[activation] = ck.width_sweep(base, (50, 200, 400), 10, n_samples=1000)
    means_id = results["identity"].mean_init_functional_abs()
    means_relu = results["relu"].mean_init_functional_abs()
    passed = results["identity"].verdict == "decreasing"
    report(10, "toy regime (b): initial |H-part| vs width", passed,
           "identity means " + "/".join(f"{means_id[w]:.3f}" for w in (50, 200, 400))
           + f" -> {results['identity'].verdict}; relu means "
           + "/".join(f"{means_relu[w]:.3f}" for w in (50, 200, 400))
           + f" ({results['relu'].verdict}, reported)")
    assert passed


def test_c10c_gauss_newton_dominates(toy_runs):
    medians = {}
    for width, log in toy_runs.items():
        probed = log.probed()
        hs = np.array([r.hessian_proj for r in probed])
        gs = np.array([r.gauss_newton_proj for r in probed])
        medians[width] = float(np.median(np.abs(hs - gs) / np.maximum(np.abs(hs), 1e-8)))
    passed = all(m <= 0.3 for m in medians.values())
    report(10, "toy regime (c): curvature tracks PSD part", passed,
           "; ".join(f"w={w}: median rel gap {m:.4f}" for w, m in medians.items()) + " (gate 0.3)")
    assert passed


# ---------------------------------------------------------------------------
# 11: determinism
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "curvkit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )


def test_c11_determinism(tmp_path):
    train_cfg = tmp_path / "train.ini"
    train_cfg.write_text(
        "[arch]\nwidths = 8 8 8 1\nactivation = relu\n\n"
        "[train]\nlr = 0.05\nepochs = 2\nbatch_size = 10\n\n"
        "[data]\nn_samples = 30\nseed = 5\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"train_{name}"
        result = _run_cli(["train", "--config", str(train_cfg), "--out", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        outs.append(out)
    train_identical = (outs[0] / "runlog.csv").read_bytes() == (outs[1] / "runlog.csv").read_bytes()

    theory_cfg = tmp_path / "theory.ini"
    theory_cfg.write_text("[arch]\nwidths = 8 8 8 1\n\n[mc]\ntrials = 300\nseed = 9\n")
    t_outs = []
    for name in ("a", "b"):
        out = tmp_path / f"theory_{name}"
        result = _run_cli(["theory", "thm1", "--config", str(theory_cfg), "--out", str(out)], tmp_path)
        assert result.returncode == 0, result.stderr
        t_outs.append(out)
    theory_identical = (t_outs[0] / "thm1.csv").read_bytes() == (t_outs[1] / "thm1.csv").read_bytes()

    cfg = ck.McConfig(widths=(8, 8, 8, 1), n_trials=300, master_seed=9)
    parallel_identical = np.array_equal(
        ck.quadform_samples(cfg, n_workers=1), ck.quadform_samples(cfg, n_workers=3)
    )
    passed = train_identical and theory_identical and parallel_identical
    report(11, "determinism", passed,
           f"train CSV byte-identical: {train_identical}; theory CSV byte-identical: {theory_identical}; "
           f"worker-count invariant: {parallel_identical}")
    assert passed
