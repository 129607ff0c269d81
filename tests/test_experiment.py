from dataclasses import fields

import numpy as np
import pytest

from curvkit import (
    Architecture,
    DimensionError,
    DivergenceError,
    RngStream,
    TrainConfig,
    generate_dataset,
    half_squared_error,
    init_network,
    initial_probe,
    load_dataset,
    lr_at_epoch,
    save_dataset,
    sgd_train,
    width_sweep,
)
from curvkit.experiment import RUNLOG_COLUMNS, _sweep_config
from curvkit.tables import read_csv


def small_config(**over):
    kw = dict(
        architecture=Architecture((6, 6, 6, 1), "relu"),
        learning_rate=0.05,
        halve_at=(2, 4),
        batch_size=8,
        epochs=3,
        data_seed=5,
        init_seed=6,
    )
    kw.update(over)
    return TrainConfig(**kw)


def fresh_run(cfg, n_samples=24):
    dataset = generate_dataset(n_samples, cfg.architecture.widths[0], cfg.data_seed)
    net = init_network(
        cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
        rectifier_gain=cfg.effective_init_gain,
    )
    return net, dataset, sgd_train(net, dataset, cfg)


class TestDataset:
    def test_unit_norms(self):
        ds = generate_dataset(200, 16, 1)
        assert np.max(np.abs(np.linalg.norm(ds.inputs, axis=1) - 1.0)) <= 1e-12

    def test_deterministic(self):
        a = generate_dataset(50, 8, 2)
        b = generate_dataset(50, 8, 2)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_label_balance(self):
        ds = generate_dataset(100_000, 2, 3)
        assert abs(float(np.mean(ds.targets))) <= 4.0 / np.sqrt(100_000)

    def test_round_trip(self, tmp_path):
        ds = generate_dataset(20, 5, 4)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path, seed=4)
        assert np.array_equal(ds.inputs, loaded.inputs)
        assert np.array_equal(ds.targets, loaded.targets)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            generate_dataset(0, 4, 1)


class TestSchedule:
    def test_halving_counts(self):
        cfg = small_config(learning_rate=0.8, halve_at=(2, 4, 6))
        assert lr_at_epoch(cfg, 1) == 0.8
        assert lr_at_epoch(cfg, 2) == 0.4
        assert lr_at_epoch(cfg, 3) == 0.4
        assert lr_at_epoch(cfg, 4) == 0.2
        assert lr_at_epoch(cfg, 7) == 0.1

    def test_records_follow_schedule(self):
        _, _, log = fresh_run(small_config(learning_rate=0.8, halve_at=(2,)))
        for record in log.records:
            assert record.lr == lr_at_epoch(small_config(learning_rate=0.8, halve_at=(2,)), record.epoch)


class TestSgdTrain:
    def test_zero_rate_keeps_weights_and_loss(self):
        cfg = small_config(learning_rate=0.0, epochs=2)
        net, dataset, log = fresh_run(cfg)
        ref = init_network(cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
                           rectifier_gain=cfg.effective_init_gain)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, ref.weights))
        # Frozen weights: the per-epoch mean loss is constant (batches are
        # reshuffled, so per-step losses vary within an epoch).
        assert np.ptp(log.epoch_losses) <= 1e-12
        assert all(np.isnan(r.estimator) for r in log.records)

    def test_estimator_exact_on_one_parameter_quadratic(self):
        # Single weight, one sample at x = 1 with target -1 and half squared
        # error: the loss is exactly quadratic, so the estimator equals half
        # the quadratic form at every step.
        cfg = TrainConfig(
            architecture=Architecture((1, 1)),
            loss=half_squared_error(),
            learning_rate=0.3,
            halve_at=(),
            batch_size=1,
            epochs=5,
            probe_every=1,
            data_seed=11,
            init_seed=12,
        )
        _, _, log = fresh_run(cfg, n_samples=1)
        for record in log.records:
            assert record.estimator == pytest.approx(record.exact_half_quadform, abs=1e-8)

    def test_records_strictly_increasing_steps(self):
        _, _, log = fresh_run(small_config())
        steps = [r.step for r in log.records]
        assert steps == sorted(set(steps))

    def test_reproducible(self):
        a = fresh_run(small_config())[2]
        b = fresh_run(small_config())[2]
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_probe_consistency(self):
        _, _, log = fresh_run(small_config(probe_every=2))
        probed = log.probed()
        assert probed, "expected probe records"
        for r in probed:
            assert r.hessian_proj - (r.gauss_newton_proj + r.functional_proj) == 0.0
            assert r.exact_half_quadform == pytest.approx(
                0.5 * r.hessian_proj * r.grad_norm_sq, rel=1e-12
            )

    def test_divergence_guard(self):
        cfg = small_config(learning_rate=1e4, epochs=4, divergence_ratio=10.0)
        with pytest.raises(DivergenceError) as err:
            fresh_run(cfg)
        assert err.value.partial_log is not None
        assert err.value.partial_log.records

    def test_batch_size_larger_than_dataset_rejected(self):
        cfg = small_config(batch_size=1000)
        with pytest.raises(DimensionError):
            fresh_run(cfg, n_samples=10)

    def test_dimension_mismatch_rejected(self):
        cfg = small_config()
        dataset = generate_dataset(24, 3, cfg.data_seed)
        net = init_network(cfg.architecture, cfg.distribution, RngStream(0, 0))
        with pytest.raises(DimensionError):
            sgd_train(net, dataset, cfg)

    def test_csv_schema(self, tmp_path):
        _, _, log = fresh_run(small_config())
        path = tmp_path / "runlog.csv"
        log.to_csv(path)
        schema, header, rows = read_csv(path)
        assert schema == "curvkit.runlog.v1"
        assert header == RUNLOG_COLUMNS
        assert len(rows) == len(log.records)
        # unprobed rows leave the exact columns empty
        unprobed = [row for row in rows if row[6] == ""]
        assert unprobed


class TestInitialProbe:
    def test_matches_first_training_record(self):
        cfg = small_config(epochs=1)
        dataset = generate_dataset(24, cfg.architecture.widths[0], cfg.data_seed)
        net = init_network(cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
                           rectifier_gain=cfg.effective_init_gain)
        probe = initial_probe(net, dataset, cfg)
        _, _, log = fresh_run(cfg)
        first = log.records[0]
        assert probe.loss == first.loss
        assert probe.hessian_proj == first.hessian_proj
        assert probe.gauss_newton_proj == first.gauss_newton_proj


class TestWidthSweep:
    def test_single_width_has_no_verdict(self):
        base = small_config(epochs=0)
        report = width_sweep(base, (10,), 2, n_samples=30)
        assert report.verdict is None
        assert len(report.cells) == 2

    def test_init_only_cells(self):
        base = small_config(epochs=0)
        report = width_sweep(base, (6, 12), 2, n_samples=30)
        assert report.verdict in ("decreasing", "not-decreasing")
        for cell in report.cells:
            assert np.isfinite(cell.init_functional_abs)
            assert cell.positivity_fraction in (0.0, 1.0)

    def test_datasets_redrawn_per_width(self):
        base = small_config(epochs=0)
        report = width_sweep(base, (6, 12), 1, n_samples=30)
        assert report.dataset_seeds == {6: base.data_seed, 12: base.data_seed}

    def test_trained_cells_record_final_loss(self):
        base = small_config(epochs=2)
        report = width_sweep(base, (6, 8), 1, n_samples=24)
        for cell in report.cells:
            assert np.isfinite(cell.final_loss)
            assert 0.0 <= cell.positivity_fraction <= 1.0

    def test_cell_config_keeps_base_fields(self):
        base = small_config(epochs=2, probe_every=3, distribution="uniform", init_gain=1.5,
                            divergence_ratio=1e4, loss=half_squared_error())
        cfg = _sweep_config(base, 9, 2)
        assert cfg.architecture == Architecture((9, 9, 9, 1), "relu")
        assert cfg.init_seed == base.init_seed + 2
        for f in fields(TrainConfig):
            if f.name not in ("architecture", "init_seed"):
                assert getattr(cfg, f.name) == getattr(base, f.name), f.name

    def test_parallel_matches_serial(self):
        base = small_config(epochs=0)
        serial = width_sweep(base, (6, 12), 2, n_samples=30, n_workers=1)
        parallel = width_sweep(base, (6, 12), 2, n_samples=30, n_workers=2)
        assert serial.cells == parallel.cells

    def test_csv(self, tmp_path):
        base = small_config(epochs=0)
        report = width_sweep(base, (6, 12), 2, n_samples=30)
        path = tmp_path / "sweep.csv"
        report.to_csv(path)
        schema, header, rows = read_csv(path)
        assert schema == "curvkit.sweep.v1"
        assert len(rows) == 4
