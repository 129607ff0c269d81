from functools import partial

import numpy as np
import pytest

from curvkit import (
    CurvatureBoundParams,
    DeviationTable,
    DimensionError,
    McConfig,
    McSummary,
    RngStream,
    backfit_variance_constant,
    grad_norm_limit,
    init_network,
    mc_bilinear_products,
    mc_cross_sample_stats,
    mc_curvature_positivity,
    mc_grad_norm_stats,
    mc_quadform_stats,
    positive_curvature_bound,
    predicted_variance_scale,
    quadform_samples,
)
from curvkit.diff import (
    output_gradient,
    output_hessian,
    output_hessian_grad_product,
    output_hessian_vp,
    squared_error,
)
from curvkit.network import forward
from curvkit.rng import AUX_STREAM, InitDistribution
from curvkit.theory import (
    _QUADFORM,
    _fixed_inputs,
    _mc_chunk,
    _shared_table,
    _taylor_columns,
    _trials_per_block,
    _unit_vector,
    cross_sample_samples,
    grad_norm_samples,
    positivity_samples,
)


def _normwise(values, reference) -> float:
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def _per_trial_routes(cfg, target_magnitude):
    """Each trial redrawn and evaluated by the per-trial single-input routes:
    (g.g, case formula, R-op quadform, positivity, R-op cross value, closed-form
    cross value).  The closed form is built from the Jacobian table and runs
    no Taylor kernel."""
    aux = RngStream(cfg.master_seed, AUX_STREAM).generator()
    u, v = _unit_vector(aux, cfg.widths[0]), _unit_vector(aux, cfg.widths[0])
    rows = []
    for i in range(cfg.n_trials):
        gen = RngStream(cfg.master_seed, i).generator()
        net = init_network(cfg.architecture, cfg.distribution, gen)
        sign = float(gen.integers(0, 2)) * 2.0 - 1.0
        g = output_gradient(net, u)
        g_sq = float(g @ g)
        quad = float(g @ output_hessian_vp(net, u, g))
        y = forward(net, u).output
        loss = squared_error(target_magnitude * sign)
        positivity = loss.d2(y) * g_sq + loss.d1(y) * quad / g_sq
        cross = float(g @ output_hessian_vp(net, v, g))
        dense_cross = float(g @ output_hessian(net, v) @ g)
        rows.append((g_sq, float(g @ output_hessian_grad_product(net, u)), quad, positivity, cross,
                     dense_cross))
    return np.array(rows)


class TestBatchedColumnsOracle:
    """The trial-batched Taylor columns against the per-trial routes they replace."""

    @pytest.mark.parametrize("widths", [(5, 1), (6, 6, 1), (8, 3, 12, 5, 1), (16, 16, 16, 16, 1)])
    @pytest.mark.parametrize("master_seed", [20, 24])  # each seed its own fixed input pair
    @pytest.mark.parametrize("distribution", ["gaussian", "uniform", "rademacher"])
    def test_columns_match_per_trial_routes(self, widths, master_seed, distribution):
        cfg = McConfig(widths=widths, distribution=distribution, n_trials=12,
                       master_seed=master_seed)
        ref = _per_trial_routes(cfg, 0.7)
        g_sq, quad = grad_norm_samples(cfg), quadform_samples(cfg)
        positivity, cross = positivity_samples(cfg, 0.7), cross_sample_samples(cfg)
        if len(widths) == 2:
            # No functional part: both quadratic forms vanish exactly.
            assert not np.any(quad) and not np.any(cross)
            assert not np.any(ref[:, [1, 4, 5]])
            checks = [(g_sq, ref[:, 0]), (positivity, ref[:, 3])]
        else:
            checks = [
                (g_sq, ref[:, 0]),
                (quad, ref[:, 1]),  # case formula
                (quad, ref[:, 2]),  # R-op
                (positivity, ref[:, 3]),
                (cross, ref[:, 4]),  # R-op
                (cross, ref[:, 5]),  # closed form
            ]
        for values, reference in checks:
            assert _normwise(values, reference) <= 1e-12


def _per_trial_network_table(cfg, cross):
    """The engine's table from networks drawn one per trial by init_network,
    stacked and passed to _taylor_columns in one block."""
    nets, signs = [], []
    for i in range(cfg.n_trials):
        gen = RngStream(cfg.master_seed, i).generator()
        nets.append(init_network(cfg.architecture, cfg.distribution, gen))
        signs.append(0.0 if cross else float(gen.integers(0, 2)) * 2.0 - 1.0)
    ws = [np.stack([net.weights[k] for net in nets]) for k in range(cfg.architecture.depth)]
    xs = [np.tile(vec, (cfg.n_trials, 1, 1)) for vec in _fixed_inputs(cfg, 2 if cross else 1)]
    return np.column_stack([*_taylor_columns(ws, *xs), signs])


class TestStackDraws:
    """Weights drawn straight into the block stacks equal the per-trial networks."""

    @pytest.mark.parametrize("widths", [(5, 1), (6, 6, 1), (8, 3, 12, 5, 1), (16, 16, 16, 16, 1)])
    @pytest.mark.parametrize("master_seed", [23, 26])  # each seed its own fixed input pair
    @pytest.mark.parametrize("distribution", ["gaussian", "uniform", "rademacher"])
    @pytest.mark.parametrize("cross", [False, True])
    def test_chunk_matches_per_trial_networks(self, widths, master_seed, distribution, cross):
        cfg = McConfig(widths=widths, distribution=distribution, n_trials=12,
                       master_seed=master_seed)
        assert _trials_per_block(cfg.architecture) >= cfg.n_trials  # one block, as the reference
        chunk = _mc_chunk(cfg, _fixed_inputs(cfg, 2 if cross else 1), cross, 0, cfg.n_trials)
        assert np.array_equal(chunk, _per_trial_network_table(cfg, cross))


class TestPredictedScale:
    def test_small_architecture(self):
        assert predicted_variance_scale((4, 4, 1)) == pytest.approx(25.0 / 64.0, rel=0)

    def test_constant_width_depth_four(self):
        assert predicted_variance_scale((64, 64, 64, 64, 1)) == pytest.approx(
            37249.0 / 262144.0, rel=0
        )

    def test_input_width_cubed(self):
        base = predicted_variance_scale((16, 32, 32, 1))
        doubled = predicted_variance_scale((32, 32, 32, 1))
        assert base / doubled == pytest.approx(8.0, rel=1e-12)

    def test_requires_scalar_output(self):
        with pytest.raises(DimensionError):
            predicted_variance_scale((4, 4, 2))


class TestMcSummary:
    def test_fields(self):
        s = McSummary.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.n_trials == 4
        assert s.mean == 2.5
        assert s.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1), rel=0)
        assert s.stderr == pytest.approx(np.sqrt(s.variance / 4), rel=0)
        assert (s.minimum, s.maximum) == (1.0, 4.0)

    def test_needs_two_samples(self):
        with pytest.raises(DimensionError):
            McSummary.from_samples(np.array([1.0]))


class TestQuadform:
    def test_single_layer_exactly_zero(self):
        cfg = McConfig(widths=(5, 1), n_trials=50, master_seed=1)
        s = mc_quadform_stats(cfg)
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_zero_mean_small_ensemble(self):
        cfg = McConfig(widths=(8, 8, 8, 1), n_trials=2000, master_seed=2)
        s = mc_quadform_stats(cfg)
        assert abs(s.mean) <= 4.0 * s.stderr

    def test_deterministic(self):
        cfg = McConfig(widths=(6, 6, 1), n_trials=64, master_seed=3)
        first = quadform_samples(cfg)
        _shared_table.cache_clear()
        assert np.array_equal(first, quadform_samples(cfg))

    def test_parallel_matches_serial(self):
        cfg = McConfig(widths=(6, 6, 1), n_trials=150, master_seed=4)
        assert np.array_equal(quadform_samples(cfg, n_workers=1), quadform_samples(cfg, n_workers=2))

    @pytest.mark.parametrize("master_seed", [21, 27])
    @pytest.mark.parametrize("cross", [False, True])
    def test_chunk_independent_of_ranges_and_blocks(self, master_seed, cross):
        cfg = McConfig(widths=(64, 64, 64, 64, 1), n_trials=25, master_seed=master_seed)
        split = 13
        assert _trials_per_block(cfg.architecture) < split  # both ranges span several blocks
        fixed = _fixed_inputs(cfg, 2 if cross else 1)
        whole = _mc_chunk(cfg, fixed, cross, 0, cfg.n_trials)
        singles = np.concatenate([_mc_chunk(cfg, fixed, cross, i, i + 1) for i in range(cfg.n_trials)])
        halves = np.concatenate(
            [_mc_chunk(cfg, fixed, cross, 0, split), _mc_chunk(cfg, fixed, cross, split, cfg.n_trials)]
        )
        assert np.array_equal(whole, singles)
        assert np.array_equal(whole, halves)

    def test_thm2_samplers_share_one_draw(self, monkeypatch):
        # The norm, quadform and positivity ensembles share one seed, so one
        # draw per trial serves all three bit for bit.
        cfg = McConfig(widths=(8, 8, 8, 1), n_trials=40, master_seed=22)
        alone = []
        for sampler in (grad_norm_samples, quadform_samples, partial(positivity_samples, target_magnitude=0.5)):
            _shared_table.cache_clear()
            alone.append(sampler(cfg))
        _shared_table.cache_clear()
        draws = []
        sample = InitDistribution.sample

        def counting_sample(self, *args, **kwargs):
            draws.append(self.fan_in)
            return sample(self, *args, **kwargs)

        monkeypatch.setattr(InitDistribution, "sample", counting_sample)
        together = [grad_norm_samples(cfg), quadform_samples(cfg), positivity_samples(cfg, 0.5)]
        assert draws == list(cfg.widths[:-1]) * cfg.n_trials  # one network per trial
        for a, b in zip(alone, together):
            assert np.array_equal(a, b)
        together[1][:] = 0.0  # callers get copies, not the shared table
        assert np.array_equal(quadform_samples(cfg), alone[1])
        assert len(draws) == cfg.n_trials * cfg.architecture.depth


class TestGradNorm:
    def test_single_layer_is_exactly_one(self):
        cfg = McConfig(widths=(7, 1), n_trials=40, master_seed=6)
        samples = grad_norm_samples(cfg)
        assert np.max(np.abs(samples - 1.0)) <= 1e-12

    def test_limit_formula(self):
        assert grad_norm_limit((1.0, 1.0, 1.0, 1.0)) == 3.0
        assert grad_norm_limit((2.0, 1.0, 1.0), 4.0) == 4.0

    def test_constant_width_concentration(self):
        cfg = McConfig(widths=(64, 64, 64, 64, 1), n_trials=500, master_seed=7)
        result = mc_grad_norm_stats(cfg)
        assert result.limit == 4.0
        assert abs(result.summary.mean - 4.0) <= 0.1 * 4.0

    def test_deviation_table_lookup_is_conservative(self):
        table = DeviationTable.from_samples(
            np.array([0.0, 0.5, 1.0, 2.0]), center=0.0, eps_grid=(0.25, 0.75, 1.5)
        )
        assert table.tail == (0.75, 0.5, 0.25)
        assert table.tail_prob(0.1) == 1.0  # below the grid: no information
        assert table.tail_prob(0.25) == 0.75
        assert table.tail_prob(0.5) == 0.75  # floor lookup, never optimistic
        assert table.tail_prob(10.0) == 0.25

    def test_deviation_grid_sorted_and_deduplicated(self):
        samples = np.array([0.0, 0.3, 0.5, 1.0, 2.0, -0.7])
        grid = (1.5, 0.25, 0.75, 0.25, 1.5, 0.0, -0.0, 0.75)
        table = DeviationTable.from_samples(samples, center=0.1, eps_grid=grid)
        assert table == DeviationTable.from_samples(samples, center=0.1, eps_grid=np.unique(grid))
        assert table.eps == (0.0, 0.25, 0.75, 1.5)
        assert table.tail == (1.0, 4 / 6, 3 / 6, 1 / 6)


class TestBound:
    def params(self, n, deviation=None, **over):
        kw = dict(
            epsilon=0.1,
            loss_curvature_min=2.0,
            loss_slope_min=1.0,
            multipliers=(1.0,) * 5,
            base_width=n,
            variance_constant=1.0,
            input_norm_sq=1.0,
            deviation=deviation,
        )
        kw.update(over)
        return CurvatureBoundParams(**kw)

    def test_documented_value_large_width(self):
        assert positive_curvature_bound(self.params(10_000)) == pytest.approx(
            0.9894806, abs=1e-7
        )

    def test_documented_value_vacuous(self):
        assert positive_curvature_bound(self.params(100)) == pytest.approx(-0.0519, abs=1e-4)

    def test_monotone_in_width(self):
        values = [positive_curvature_bound(self.params(n)) for n in (100, 1000, 10_000, 100_000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_deviation_factors_reduce_bound(self):
        table = DeviationTable.from_samples(
            np.array([3.0, 4.0, 5.0]), center=4.0, eps_grid=(0.05, 0.2, 2.0)
        )
        with_dev = positive_curvature_bound(self.params(10_000, deviation=table))
        assert with_dev < 0.99 * positive_curvature_bound(self.params(10_000))

    def test_ill_posed_inner_square_rejected(self):
        with pytest.raises(DimensionError):
            self.params(100, epsilon=10.0)  # epsilon/beta above the norm limit

    def test_backfit(self):
        gamma = backfit_variance_constant(0.5, (1.0, 1.0, 1.0), 64)
        assert gamma == pytest.approx(0.5 * 64 / 4.0, rel=1e-12)


class TestPositivity:
    def test_single_layer_probability_one(self):
        # No functional part: the curvature equals the loss curvature exactly.
        cfg = McConfig(widths=(6, 1), n_trials=100, master_seed=8)
        samples = positivity_samples(cfg)
        assert np.max(np.abs(samples - 2.0)) <= 1e-12
        result = mc_curvature_positivity(cfg, epsilon=0.1)
        assert result.probability == 1.0

    def test_deterministic(self):
        cfg = McConfig(widths=(6, 6, 1), n_trials=64, master_seed=9)
        a = mc_curvature_positivity(cfg, 0.1)
        b = mc_curvature_positivity(cfg, 0.1)
        assert a.probability == b.probability
        assert a.summary == b.summary

    def test_probability_nondecreasing_in_width(self):
        probs = []
        for n in (8, 32):
            cfg = McConfig(widths=(n, n, n, 1), n_trials=400, master_seed=10)
            probs.append(mc_curvature_positivity(cfg, 0.1).probability)
        assert probs[0] <= probs[1] + 0.02


class TestCrossSample:
    def test_same_input_reduces_to_quadform(self):
        cfg = McConfig(widths=(5, 4, 3, 1), n_trials=16, master_seed=11)
        gen = RngStream(99, 0).generator()
        u = gen.standard_normal(5)
        u /= np.linalg.norm(u)
        same = _mc_chunk(cfg, (u, u), True, 0, 16)[:, _QUADFORM]
        case = []
        for i in range(16):
            net = init_network(cfg.architecture, cfg.distribution, RngStream(cfg.master_seed, i).generator())
            case.append(float(output_gradient(net, u) @ output_hessian_grad_product(net, u)))
        assert np.allclose(same, case, rtol=1e-12, atol=1e-14)

    def test_zero_mean(self):
        cfg = McConfig(widths=(8, 8, 8, 1), n_trials=2000, master_seed=12)
        s = mc_cross_sample_stats(cfg)
        assert abs(s.mean) <= 4.0 * s.stderr

    def test_deterministic(self):
        cfg = McConfig(widths=(6, 6, 1), n_trials=32, master_seed=13)
        assert np.array_equal(cross_sample_samples(cfg), cross_sample_samples(cfg))


class TestBilinear:
    def test_degenerate_scalar_layer_measures_sixth_moment(self):
        # 1x1 layer at unit variance: the first product is w^6 with mean 15.
        vs = [np.ones(1)] * 6
        report = mc_bilinear_products(1, 1, "gaussian", vs, 200_000, master_seed=14)
        row = report.rows[0]
        assert row.predicted_width_ratio == 1.0
        assert row.predicted_second_moment == 1.0
        assert abs(row.measured_mean - 15.0) <= 4.0 * row.measured_stderr
        assert abs(row.measured_mean - 15.0) <= 0.15 * 15.0

    def test_square_layer_candidates_agree(self):
        v = np.zeros(3)
        v[0] = 1.0
        report = mc_bilinear_products(3, 3, "gaussian", [v] * 6, 100, master_seed=15)
        first = report.rows[0]
        assert first.predicted_width_ratio == first.predicted_second_moment == 1.0

    def test_rademacher_enumeration_oracle(self):
        # Exact expectation by enumerating every sign pattern of a 3x2 layer,
        # compared against the Monte Carlo estimate.
        n_in, n_out = 3, 2
        gen = RngStream(16, 0).generator()
        vs = [gen.standard_normal(n_out) for _ in range(6)]
        scale = 1.0 / np.sqrt(n_in)
        n_entries = n_in * n_out
        totals = np.zeros(3)
        from curvkit.theory import _bilinear_values

        for pattern in range(2**n_entries):
            bits = [(pattern >> b) & 1 for b in range(n_entries)]
            w = (np.array(bits, dtype=float).reshape(n_in, n_out) * 2.0 - 1.0) * scale
            totals += np.array(_bilinear_values(w, vs))
        exact = totals / 2**n_entries
        report = mc_bilinear_products(n_in, n_out, "rademacher", vs, 40_000, master_seed=17)
        for row, target in zip(report.rows, exact):
            assert abs(row.measured_mean - target) <= 4.0 * max(row.measured_stderr, 1e-12)

    def test_orthogonal_vectors_suppress_leading_term(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([0.0, 1.0, 0.0])
        v3 = np.array([0.0, 0.0, 1.0])
        report = mc_bilinear_products(
            3, 3, "gaussian", [v1, v2, v3, v3, v1, v1], 50_000, master_seed=18
        )
        row = report.rows[0]
        assert row.predicted_width_ratio == 0.0
        # The measured mean reflects only sub-leading correlations.
        assert abs(row.measured_mean) <= 6.0 * row.measured_stderr

    def test_vector_dimension_checked(self):
        with pytest.raises(DimensionError):
            mc_bilinear_products(3, 2, "gaussian", [np.ones(3)] * 6, 10)


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(DimensionError):
            McConfig(widths=(4, 4, 1), n_trials=1)

    def test_unknown_distribution_refused_at_construction(self):
        with pytest.raises(DimensionError, match="cauchy"):
            McConfig(widths=(4, 4, 1), n_trials=10, distribution="cauchy")

    def test_grad_norm_multiplier_default(self):
        cfg = McConfig(widths=(16, 16, 16, 1), n_trials=50, master_seed=19)
        result = mc_grad_norm_stats(cfg)
        assert result.limit == 3.0
