import sys
import threading
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

import curvkit.experiment
import curvkit.floattext
import curvkit.parallel
from curvkit import (
    Architecture,
    DimensionError,
    DivergenceError,
    RngStream,
    RunLog,
    TrainConfig,
    generate_dataset,
    half_squared_error,
    init_network,
    initial_probe,
    load_dataset,
    lr_at_epoch,
    save_dataset,
    save_network,
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


def fresh_run(cfg, n_samples=24, log=None):
    dataset = generate_dataset(n_samples, cfg.architecture.widths[0], cfg.data_seed)
    net = init_network(
        cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
        rectifier_gain=cfg.effective_init_gain,
    )
    return net, dataset, sgd_train(net, dataset, cfg, log=log)


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

    @staticmethod
    def dataset_file(tmp_path, *rows):
        path = tmp_path / "data.csv"
        path.write_text("# schema=curvkit.dataset.v1\ntarget,x0,x1\n" + "".join(r + "\n" for r in rows))
        return path

    def test_ragged_row_names_file_and_row(self, tmp_path):
        path = self.dataset_file(tmp_path, "1.0,0.6,0.8", "-1.0,0.8")
        with pytest.raises(DimensionError, match=r"data\.csv: row 2 has 2 values, expected 3"):
            load_dataset(path)

    def test_non_numeric_cell_names_file_and_row(self, tmp_path):
        path = self.dataset_file(tmp_path, "1.0,0.6,0.8", "-1.0,0.8,abc")
        with pytest.raises(DimensionError, match=r"data\.csv: row 2: could not convert string to float: 'abc'"):
            load_dataset(path)

    def test_no_data_rows_names_file(self, tmp_path):
        path = self.dataset_file(tmp_path)
        with pytest.raises(DimensionError, match=r"data\.csv: row 1: the file ends after its header"):
            load_dataset(path)

    def test_row_longer_than_header_rejected(self, tmp_path):
        # Every row agrees with every other, but not with the header.
        path = self.dataset_file(tmp_path, "1.0,0.6,0.8,0.0", "-1.0,0.8,0.6,0.0")
        with pytest.raises(DimensionError, match=r"data\.csv: row 1 has 4 values, expected 3"):
            load_dataset(path)


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
        log = RunLog()
        with pytest.raises(DivergenceError):
            fresh_run(cfg, log=log)
        assert log.records

    def test_non_finite_loss_aborts(self):
        # lr = 1e150 overflows the first step to a NaN loss, which compares
        # false against any divergence threshold.
        cfg = small_config(learning_rate=1e150)
        log = RunLog()
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite"):
            fresh_run(cfg, log=log)
        assert log.records

    def test_non_finite_initial_loss_without_steps_aborts(self):
        cfg = small_config(epochs=0, init_gain=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="initial loss nan is not finite"):
            fresh_run(cfg)

    def test_nan_learning_rate_rejected(self):
        with pytest.raises(DimensionError):
            small_config(learning_rate=float("nan"))

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

    @pytest.mark.parametrize("widths", [(6, 12), (12, 6, 9)], ids=["in-order", "out-of-order"])
    def test_parallel_matches_serial(self, widths):
        base = small_config(epochs=0)
        serial = width_sweep(base, widths, 2, n_samples=30, n_workers=1)
        assert [(c.width, c.seed_index) for c in serial.cells] == [(w, s) for w in widths for s in range(2)]
        for n_workers in (2, 3):
            parallel = width_sweep(base, widths, 2, n_samples=30, n_workers=n_workers)
            assert serial.cells == parallel.cells

    def test_non_finite_initial_cell_aborts(self):
        base = small_config(epochs=0, init_gain=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="initial result is not finite"):
            width_sweep(base, (6, 8), 1, n_samples=24)

    def test_csv(self, tmp_path):
        base = small_config(epochs=0)
        report = width_sweep(base, (6, 12), 2, n_samples=30)
        path = tmp_path / "sweep.csv"
        report.to_csv(path)
        schema, header, rows = read_csv(path)
        assert schema == "curvkit.sweep.v1"
        assert len(rows) == 4


def lane_run(cfg, lane, n_samples=24):
    """fresh_run on a lane, warnings as errors, into a log of its own: (the
    log, the divergence error or None, the net, the dataset)."""
    dataset = generate_dataset(n_samples, cfg.architecture.widths[0], cfg.data_seed)
    net = init_network(
        cfg.architecture, cfg.distribution, RngStream(cfg.init_seed, 0),
        rectifier_gain=cfg.effective_init_gain,
    )
    log = RunLog()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert sgd_train(net, dataset, cfg, lane, log) is log
            return log, None, net, dataset
        except DivergenceError as exc:
            return log, exc, net, dataset


def rows(records):
    """Records as runlog rows of reprs: equal even where a field is NaN."""
    return [tuple(map(repr, astuple(r))) for r in records]


class TestThreadLane:
    """A thread lane runs the same calls on the same operands as the inline
    lane, so every record, weight and written byte is the same."""

    def test_same_run_and_bytes(self, thread_lane, tmp_path, monkeypatch):
        # Three steps per epoch, probes at steps 0, 2, 4, ...: probe steps,
        # epoch boundaries and a learning-rate halving.
        cfg = small_config(probe_every=2, epochs=5)
        # Small text blocks, so that both lanes write several, an odd count
        # per layer included.
        monkeypatch.setattr(curvkit.floattext, "CHUNK_CELLS", 30)
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads hand over often: a missed wait shows
        try:
            for name, lane in (("inline", curvkit.parallel.INLINE), ("thread", thread_lane)):
                log, _, net, dataset = lane_run(cfg, lane)
                save_network(net, tmp_path / f"{name}.txt", lane)
                save_dataset(dataset, tmp_path / f"{name}.csv", lane)
                runs[name] = log, net
        finally:
            sys.setswitchinterval(interval)
        (log_i, net_i), (log_t, net_t) = runs["inline"], runs["thread"]
        assert len(log_i.records) == 15 and log_i.probed()
        assert rows(log_t.records) == rows(log_i.records)
        assert log_t.epoch_losses == log_i.epoch_losses
        assert all(np.array_equal(a, b) for a, b in zip(net_t.weights, net_i.weights))
        for suffix in ("txt", "csv"):
            assert (tmp_path / f"thread.{suffix}").read_bytes() == (tmp_path / f"inline.{suffix}").read_bytes()

    @pytest.mark.parametrize("lr, step", [
        (5.0, 2),  # the last step of epoch 1
        (20.0, 1),  # mid-epoch
        (1e150, 0),  # a NaN loss
    ])
    def test_same_divergence(self, thread_lane, lr, step):
        cfg = small_config(learning_rate=lr, epochs=4, divergence_ratio=1e6)
        (log_i, inline), (log_t, thread) = [lane_run(cfg, lane)[:2]
                                            for lane in (curvkit.parallel.INLINE, thread_lane)]
        assert isinstance(inline, DivergenceError) and isinstance(thread, DivergenceError)
        assert str(thread) == str(inline) and str(inline).endswith(f"at step {step}")
        assert rows(log_t.records) == rows(log_i.records)
        assert len(log_i.records) == step + 1
        # An epoch loss is logged once the last step passes the guard: none here.
        assert log_t.epoch_losses == log_i.epoch_losses == []

    def test_lane_task_exception_propagates(self, monkeypatch):
        def failing_loss(*args):
            raise ValueError("loss pass failed")

        monkeypatch.setattr(curvkit.parallel, "_lane_pays", lambda largest_matrix: True)
        monkeypatch.setattr(curvkit.experiment, "batch_loss", failing_loss)
        before = threading.active_count()
        with pytest.raises(ValueError, match="loss pass failed"):
            with curvkit.parallel.open_lane(0) as lane:
                lane_run(small_config(), lane)
        assert threading.active_count() == before
