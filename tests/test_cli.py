import json
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvkit
from cli_env import child_env
from curvkit import (
    Architecture,
    ConfigError,
    DirectionError,
    Network,
    RngStream,
    decompose,
    gradient_curvatures,
    half_squared_error,
    init_network,
    loss_and_gradient,
    raw_output,
    save_network,
    squared_error,
)
from curvkit import cli
from curvkit.cli import THEORY_SUBCOMMANDS, default_config, load_config
from curvkit.rng import AUX_STREAM
from curvkit.tables import read_csv
from test_diff import traced_peak


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "curvkit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )


def test_child_imports_the_tested_curvkit(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", "import curvkit; print(curvkit.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(curvkit.__file__).resolve()


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity that json.dumps writes by default."""
    def refuse(token):
        raise ValueError(f"{path}: non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def write_config(path, text):
    path.write_text(text)
    return str(path)


SMALL = """
[arch]
widths = 4 5 6 3 1
activation = identity

[mc]
trials = 150
seed = 3
"""


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg == default_config()

    def test_values_parsed(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.ini", SMALL))
        assert cfg["arch"]["widths"] == [4, 5, 6, 3, 1]
        assert cfg["mc"]["trials"] == 150

    def test_unknown_key_rejected(self, tmp_path):
        bad = SMALL + "\n[train]\nmomentum = 0.9\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.ini", bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = SMALL + "\n[optimizer]\nkind = adam\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.ini", bad))

    def test_bad_value_rejected(self, tmp_path):
        bad = "[mc]\ntrials = lots\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.ini", bad))

    def test_shipped_configs_load(self):
        # Every config the README and the benchmark run must pass the bounds.
        root = Path(__file__).resolve().parents[1]
        paths = sorted(root.glob("configs/*.ini")) + sorted(root.glob("bench/configs/*.ini"))
        assert len(paths) >= 6
        for path in paths:
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")


class TestCheck:
    def test_passes_on_default_small_net(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SMALL)
        result = run_cli("check", "--config", cfg, "--out", str(tmp_path / "out"), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "all checks passed" in result.stdout
        report = json.loads((tmp_path / "out" / "check_report.json").read_text())
        assert all(c["passed"] for c in report)

    def test_corrupted_weights_fail_symmetry_check(self, tmp_path):
        # Deep enough that weights enter the output Hessian, so the damage
        # reaches the first (symmetry) check.
        net = init_network(Architecture((3, 4, 2, 1)), "gaussian", RngStream(1, 0))
        net.weights[0][0, 0] = np.nan
        weights_path = tmp_path / "net.txt"
        save_network(net, weights_path)
        cfg = write_config(tmp_path / "c.ini", SMALL)
        result = run_cli(
            "check", "--config", cfg, "--weights", str(weights_path),
            "--out", str(tmp_path / "out"), cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "output-hessian-symmetry" in result.stderr
        report = strict_json(tmp_path / "out" / "check_report.json")
        assert any(c["value"] is None for c in report)  # a NaN value is written as null
        assert strict_json(tmp_path / "out" / "manifest.json")["n_failures"] >= 1

    def test_relu_config_is_graceful(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SMALL.replace("identity", "relu"))
        result = run_cli("check", "--config", cfg, "--out", str(tmp_path / "out"), cwd=tmp_path)
        assert result.returncode == 2
        assert "unsupported activation" in result.stderr

    @settings(max_examples=30, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 8), min_size=2, max_size=5),
        n_samples=st.integers(1, 6),
        loss=st.sampled_from([squared_error(), half_squared_error(), raw_output()]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_row_passes_on_random_identity_nets(self, widths, n_samples, loss, seed):
        # Depth 2-5: check refuses a one-layer net.
        net = init_network(Architecture((*widths, 1)), "gaussian", RngStream(seed, 0))
        gen = RngStream(seed, AUX_STREAM).generator()
        xs = gen.standard_normal((n_samples, widths[0]))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ts = gen.integers(0, 2, n_samples) * 2.0 - 1.0
        # Width-1 unit inputs are +-1, so under raw_output the loss Hessian is
        # (mean sign) H(1): zero when the signs cancel, where no relative
        # error is defined, and the suite refuses the batch.
        if loss == raw_output() and widths[0] == 1 and xs.sum() == 0.0:
            with pytest.raises(ConfigError, match="loss Hessian on this batch is zero"):
                cli.run_checks(net, xs, ts, loss, gen)
            return
        rows = cli.run_checks(net, xs, ts, loss, gen)
        assert [r["name"] for r in rows if not r["passed"]] == []
        # The curvature probe along the loss gradient against the dense split.
        dec = decompose(net, xs, ts, loss)
        g = loss_and_gradient(net, xs, ts, loss)[1]
        u = g / np.linalg.norm(g)
        hess_proj, gn_proj = gradient_curvatures(net, xs, ts, loss)[2:4]
        for probe, part in ((hess_proj, dec.hessian), (gn_proj, dec.gauss_newton)):
            assert abs(probe - u @ part @ u) <= 1e-10 * np.linalg.norm(part)

    def test_zero_loss_hessian_is_refused_before_fd_work(self, monkeypatch):
        # The all-zero batch of TestExitCodes: the refusal must come before
        # either FD oracle runs.
        def no_fd(*args):
            raise AssertionError("fd_hessian ran before the refusal")

        monkeypatch.setattr(cli, "fd_hessian", no_fd)
        widths = (3, 3, 3, 1)
        net = Network(Architecture(widths), [np.zeros(shape) for shape in zip(widths, widths[1:])])
        gen = RngStream(0, AUX_STREAM).generator()
        xs = gen.standard_normal((4, 3))
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        with pytest.raises(ConfigError, match="loss Hessian on this batch is zero"):
            cli.run_checks(net, xs, ts, squared_error(), gen)

    def test_holds_three_dense_matrices(self):
        # P = 990.  Each dense matrix is dropped once its rows are computed,
        # so no more than three are held at once, beside the FD chunks.
        net = init_network(Architecture((18, 18, 18, 18, 1)), "gaussian", RngStream(5, 0))
        gen = RngStream(6, AUX_STREAM).generator()
        xs = gen.standard_normal((4, 18))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ts = gen.integers(0, 2, 4) * 2.0 - 1.0
        P = net.param_index.n_params
        rows, peak = traced_peak(cli.run_checks, net, xs, ts, squared_error(), gen)
        assert peak < 3.5 * P * P * 8
        assert [r["name"] for r in rows if not r["passed"]] == []


class TestTheory:
    def test_thm1_small(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SMALL)
        out = tmp_path / "out"
        result = run_cli("theory", "thm1", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        schema, header, rows = read_csv(out / "thm1.csv")
        assert schema == "curvkit.theory.thm1.v1"
        assert rows[0][header.index("passed")] == "true"

    def test_thm1_single_layer_zero_variance(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[arch]\nwidths = 5 1\n\n[mc]\ntrials = 50\n")
        out = tmp_path / "out"
        result = run_cli("theory", "thm1", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        schema, header, rows = read_csv(out / "thm1.csv")
        assert float(rows[0][header.index("variance")]) == 0.0

    def test_norm_and_deviation_table(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", "[arch]\nwidths = 16 16 16 1\n\n[mc]\ntrials = 400\n"
        )
        out = tmp_path / "out"
        result = run_cli("theory", "norm", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        schema, header, rows = read_csv(out / "norm.csv")
        assert float(rows[0][header.index("limit")]) == 3.0
        dev_schema, _, dev_rows = read_csv(out / "delta_table.csv")
        assert dev_schema == "curvkit.theory.deviation.v1"
        assert len(dev_rows) > 10

    def test_thm2_small(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", "[arch]\nwidths = 16 16 16 16 1\n\n[mc]\ntrials = 300\n"
        )
        out = tmp_path / "out"
        result = run_cli("theory", "thm2", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        schema, header, rows = read_csv(out / "thm2.csv")
        assert schema == "curvkit.theory.thm2.v1"
        row = rows[0]
        assert row[header.index("passed")] == "true"
        assert float(row[header.index("gamma_backfit")]) > 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"] == "PASS"
        for key in ("bound", "empirical", "gamma_backfit"):
            assert manifest[key] == float(row[header.index(key)])

    def test_identities_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[arch]\nwidths = 4 4 1\n\n[mc]\ntrials = 500\n")
        out = tmp_path / "out"
        result = run_cli("theory", "identities", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        _, header, rows = read_csv(out / "identities.csv")
        assert len(rows) == 3

    def test_cross_small(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[arch]\nwidths = 8 8 8 1\n\n[mc]\ntrials = 400\n")
        out = tmp_path / "out"
        result = run_cli("theory", "cross", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr

    def test_relu_theory_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", "[arch]\nwidths = 4 4 1\nactivation = relu\n\n[mc]\ntrials = 50\n"
        )
        result = run_cli("theory", "thm1", "--config", cfg, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2


TRAIN = """
[arch]
widths = 6 6 6 1
activation = relu

[train]
lr = {lr}
epochs = 2
batch_size = 8

[data]
n_samples = 24
seed = 5
"""


class TestTrain:
    def test_zero_rate_constant_loss_column(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", TRAIN.format(lr="0.0"))
        out = tmp_path / "out"
        result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        _, header, rows = read_csv(out / "runlog.csv")
        # Weights never move, so each epoch sees the same per-sample losses;
        # the epoch-mean loss is constant even though batches are reshuffled.
        by_epoch = {}
        for row in rows:
            by_epoch.setdefault(row[header.index("epoch")], []).append(
                float(row[header.index("loss")])
            )
        means = [np.mean(v) for v in by_epoch.values()]
        assert np.ptp(means) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", TRAIN.format(lr="0.05"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
            assert result.returncode == 0, result.stderr
        assert (out1 / "runlog.csv").read_bytes() == (out2 / "runlog.csv").read_bytes()
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        assert (out1 / "network_final.txt").read_bytes() == (out2 / "network_final.txt").read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", TRAIN.format(lr="0.05"))
        out = tmp_path / "out"
        result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == "curvkit.manifest.v1"
        assert manifest["config"]["train"]["lr"] == 0.05
        assert "timing_s" in manifest
        assert 0.0 < manifest["wall_time_s"] <= manifest["timing_s"] + 1e-3
        # A 6-wide net is below the lane's size cut: no helper thread.
        assert manifest["step_lane"] == "inline"
        assert manifest["blas_threads"] is None or manifest["blas_threads"] >= 1

    def test_non_finite_loss_exit_code(self, tmp_path):
        # lr = 1e150 overflows the first step to a NaN loss, which no
        # divergence threshold catches by comparison.
        text = ("[arch]\nwidths = 8 8 8 1\nactivation = relu\n[train]\nlr = 1e150\n"
                "epochs = 3\nbatch_size = 5\n[data]\nn_samples = 20\n")
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "not finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert (out / "runlog.csv").exists()  # partial log flushed
        # The abort keeps the results known before the first step.
        manifest = strict_json(out / "manifest.json")
        assert sorted(manifest) == ["aborted", "blas_threads", "command", "config", "schema_version",
                                    "step_lane", "timing_s", "toolkit_version"]
        assert manifest["step_lane"] == "inline"

    def test_non_finite_initial_loss_without_steps_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", HUGE_GAIN)
        out = tmp_path / "out"
        result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "initial loss nan is not finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "not finite" in json.loads((out / "manifest.json").read_text())["aborted"]

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", TRAIN.format(lr="1e6"))
        out = tmp_path / "out"
        result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 3
        assert (out / "runlog.csv").exists()  # partial log flushed

    def test_seed_flag_overrides_init_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", TRAIN.format(lr="0.05"))
        out = tmp_path / "out"
        result = run_cli("train", "--config", cfg, "--seed", "99", "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["init"]["seed"] == 99


SWEEP = """
[arch]
widths = 6 6 6 1
activation = identity

[train]
lr = 0.05
epochs = 0
batch_size = 10

[data]
n_samples = 30
seed = 5

[sweep]
widths = {widths}
n_seeds = 2
"""


class TestSweep:
    def test_single_width_no_verdict(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SWEEP.format(widths="10"))
        out = tmp_path / "out"
        result = run_cli("sweep", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdict"] is None

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_initial_cell_exit_code(self, tmp_path, threads):
        cfg = write_config(tmp_path / "c.ini", HUGE_GAIN)
        out = tmp_path / "out"
        result = run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", threads, cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "initial result is not finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert not (out / "sweep.csv").exists()
        assert "not finite" in json.loads((out / "manifest.json").read_text())["aborted"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_diverging_cell_names_width_and_seed(self, tmp_path, threads):
        text = TRAIN.format(lr="1000") + "\n[sweep]\nwidths = 6\nn_seeds = 2\n"
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        result = run_cli("sweep", "--config", cfg, "--out", str(out), "--threads", threads, cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "aborted: width 6, seed 0: loss " in result.stderr
        assert "Traceback" not in result.stderr
        aborted = json.loads((out / "manifest.json").read_text())["aborted"]
        assert aborted.startswith("width 6, seed 0: loss ") and "exceeded" in aborted
        # A sweep writes no run log, not even the diverging cell's partial one.
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


# Cheap to run should a bad value slip through validation.
SMALL_INIT_ONLY = "[arch]\nwidths = 4 4 1\n[train]\nepochs = 0\n[sweep]\nwidths = 4\nn_seeds = 1\n"

# A gain of 1e200 overflows the forward pass of the initial net to a NaN loss.
HUGE_GAIN = """
[arch]
widths = 6 6 6 1
activation = relu

[init]
gain = 1e200

[train]
epochs = 0
batch_size = 5

[data]
n_samples = 20

[sweep]
widths = 6 8
n_seeds = 1
"""


DEAD_RELU_SWEEP = """
[arch]
widths = 1 1 1
activation = relu

[init]
seed = 3

[train]
epochs = {epochs}
batch_size = 1

[data]
n_samples = 1

[sweep]
widths = 1
n_seeds = 1
"""


NON_SCALAR = """
[arch]
widths = 4 4 4 2

[mc]
trials = 50

[train]
epochs = 1
batch_size = 10

[data]
n_samples = 20

[sweep]
widths = 4
n_seeds = 1
"""

def _saved_net(widths, activation="identity"):
    def write(path):
        save_network(init_network(Architecture(widths, activation), "gaussian", RngStream(1, 0)), path)
    return write


def _truncated_net(path):
    _saved_net((3, 4, 1))(path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))


# Weight files that check refuses, each with the cause it must name.
WEIGHT_FILES = [
    pytest.param(lambda path: None, "No such file", id="missing file"),
    pytest.param(lambda path: path.write_text("widths 3 4 1\n"), "not a curvkit network file",
                 id="not a network file"),
    pytest.param(_truncated_net, "file ends before the last weight row", id="truncated file"),
    pytest.param(
        lambda path: path.write_text(
            "curvkit-network v1\nactivation identity\nwidths 2 2 1\n"
            "layer 1 2x2\n1 2\n3\nlayer 2 2x1\n5\n6\n"
        ),
        "layer 1 row 2 has 1 values, expected 2", id="ragged row",
    ),
    pytest.param(
        lambda path: path.write_text(
            "curvkit-network v1\nactivation identity\nwidths 2 2 1\n"
            "layer 1 2x2\n1 2\n3 x\nlayer 2 2x1\n5\n6\n"
        ),
        "layer 1 row 2: could not convert string to float: 'x'", id="non-numeric token",
    ),
    pytest.param(lambda path: path.write_bytes(b"curvkit-network v1\nwidths \xff\n"), "not ASCII text",
                 id="not ASCII"),
    # Architecture refuses to build this net, so the file is written by hand.
    pytest.param(
        lambda path: path.write_text(
            "curvkit-network v1\nactivation identity\nwidths 3 2\nlayer 1 3x2\n1 2\n3 4\n5 6\n"
        ),
        "output width 2", id="output width 2",
    ),
    pytest.param(_saved_net((3, 4, 1), "relu"), "unsupported activation", id="relu net"),
    pytest.param(_saved_net((3, 1)), "at least two weight layers", id="one weight layer"),
]


BIG_BATCH = """
[arch]
widths = 4 4 4 1

[train]
epochs = {epochs}
batch_size = 100

[data]
n_samples = 20

[sweep]
widths = 4
n_seeds = 1
"""


class TestExitCodes:
    @pytest.mark.parametrize("epochs", [0, 2])
    def test_dead_relu_sweep_cell_is_exit_3(self, tmp_path, epochs):
        # Seed 3 draws a 1-1-1 relu net whose hidden unit is dead on the only
        # sample, so every gradient is zero and no curvature can be probed.
        cfg = write_config(tmp_path / "c.ini", DEAD_RELU_SWEEP.format(epochs=epochs))
        out = tmp_path / "out"
        result = run_cli("sweep", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "zero gradient" in result.stderr
        assert "Traceback" not in result.stderr
        assert "zero gradient" in json.loads((out / "manifest.json").read_text())["aborted"]


    @pytest.mark.parametrize(
        "command",
        [["check"], ["train"], ["sweep"], ["theory", "thm1"], ["theory", "thm2"],
         ["theory", "norm"], ["theory", "cross"], ["theory", "identities"]],
    )
    def test_non_scalar_output_is_exit_2(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.ini", NON_SCALAR)
        result = run_cli(*command, "--config", cfg, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "output width must be 1" in result.stderr
        assert "Traceback" not in result.stderr

    def test_zero_loss_hessian_is_exit_2(self, tmp_path, capsys):
        # At all-zero weights a three-layer net's output gradient and output
        # Hessian vanish, so the loss Hessian is exactly 0 and check refuses
        # the batch rather than compare rounding with zero.
        widths = (3, 3, 3, 1)
        net = Network(Architecture(widths), [np.zeros(shape) for shape in zip(widths, widths[1:])])
        save_network(net, tmp_path / "zero.txt")
        cfg = write_config(tmp_path / "c.ini", SMALL)
        out = tmp_path / "out"
        code = cli.main(["check", "--config", cfg, "--weights", str(tmp_path / "zero.txt"), "--out", str(out)])
        assert code == 2
        assert "loss Hessian on this batch is zero" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("write, cause", WEIGHT_FILES)
    def test_unsupported_weight_file_is_exit_2(self, tmp_path, write, cause):
        weights_path = tmp_path / "net.txt"
        write(weights_path)
        cfg = write_config(tmp_path / "c.ini", SMALL)
        result = run_cli(
            "check", "--config", cfg, "--weights", str(weights_path),
            "--out", str(tmp_path / "out"), cwd=tmp_path,
        )
        assert result.returncode == 2, result.stderr
        assert "config error:" in result.stderr
        assert cause in result.stderr
        assert result.stderr.count(str(weights_path)) == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_batch_larger_than_dataset_is_exit_2(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.ini", BIG_BATCH.format(epochs=1))
        result = run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "batch_size = 100" in result.stderr and "n_samples = 20" in result.stderr
        assert "Traceback" not in result.stderr

    def test_batch_larger_than_dataset_without_steps_still_sweeps(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", BIG_BATCH.format(epochs=0))
        out = tmp_path / "o"
        result = run_cli("sweep", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        _, _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1

    def test_batch_larger_than_dataset_without_steps_still_trains(self, tmp_path):
        text = ("[arch]\nwidths = 8 8 1\nactivation = relu\n[train]\nepochs = 0\n"
                "[data]\nn_samples = 20\n")
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "o"
        result = run_cli("train", "--config", cfg, "--out", str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        manifest = strict_json(out / "manifest.json")
        assert manifest["n_steps"] == 0
        assert manifest["positivity_fraction"] is None  # no probe: NaN, written as null
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset.csv", "manifest.json", "network_final.txt", "runlog.csv",
        ]

    def test_one_layer_check_is_exit_2(self, tmp_path):
        # The closed-form output Hessian of one weight layer is exactly 0, so
        # its relative error against the FD oracle's rounding noise reads 1.
        cfg = write_config(tmp_path / "c.ini", "[arch]\nwidths = 3 1\n")
        result = run_cli("check", "--config", cfg, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "at least two weight layers" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (["train"], "[train]\nbatch_size = 0\n", "batch_size"),
            (["train"], "[train]\nprobe_every = -1\n", "probe_every"),
            (["train"], "[train]\nepochs = -1\n", "epochs"),
            (["train"], "[train]\nlr = nan\n", "lr"),
            (["train"], "[train]\nlr = inf\n", "lr"),
            (["train"], "[train]\nepochs = 0\n[data]\nn_samples = 0\n", "n_samples"),
            (["sweep"], "[sweep]\nn_seeds = 0\n", "n_seeds"),
            (["sweep"], "[sweep]\nwidths = 4 0\n", "widths"),
            (["sweep"], "[sweep]\nwidths =\n", "widths"),
            (["sweep"], SMALL_INIT_ONLY + "[init]\ngain = nan\n", "gain"),
            (["sweep"], SMALL_INIT_ONLY + "[init]\ngain = inf\n", "gain"),
            (["train"], SMALL_INIT_ONLY + "[init]\ngain = -1\n", "gain"),
            (["train"], SMALL_INIT_ONLY + "[init]\ngain = 0\n", "gain"),
            (["theory", "thm2"], "[theory]\nepsilon = 0\n", "epsilon"),
            (["theory", "thm2"], "[theory]\ngamma = inf\n", "gamma"),
            (["theory", "thm2"],
             "[arch]\nwidths = 4 4 1\n[theory]\nepsilon = 1.0\nbeta = 0.1\n", "gradient-norm limit"),
        ],
        ids=["batch_size", "probe_every", "epochs", "lr-nan", "lr-inf", "n_samples", "n_seeds",
             "sweep-widths", "sweep-widths-empty", "gain-nan", "gain-inf", "gain-negative",
             "gain-zero", "epsilon", "gamma-inf", "epsilon-over-beta"],
    )
    def test_value_out_of_range_is_exit_2(self, tmp_path, command, text, key):
        cfg = write_config(tmp_path / "c.ini", text)
        result = run_cli(*command, "--config", cfg, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "config error" in result.stderr and key in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [["train"], ["theory", "thm1"]])
    def test_negative_seed_flag_is_exit_2(self, tmp_path, command):
        result = run_cli(*command, "--seed", "-1", "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "seed must be >= 0" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_exit_2(self, tmp_path, threads):
        result = run_cli("theory", "thm1", "--threads", threads, "--out", str(tmp_path / "o"), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert f"--threads must be >= 1, got {threads}" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()

    def test_malformed_config_is_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[nope]\nkey = 1\n")
        result = run_cli("check", "--config", cfg, cwd=tmp_path)
        assert result.returncode == 2
        assert "config error" in result.stderr

    @pytest.mark.parametrize(
        "content",
        [b"[arch]\nwidths = 4 4 1\nwidths = 3 1\n", b"widths = 4 4 1\n", b"\xff\xfe[arch]\n"],
        ids=["duplicate-key", "no-section-header", "utf16-bom"],
    )
    def test_unparsable_config_is_exit_2(self, tmp_path, content):
        path = tmp_path / "c.ini"
        path.write_bytes(content)
        out = tmp_path / "o"
        result = run_cli("check", "--config", str(path), "--out", str(out), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert f"config error: cannot parse config file {path}" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["existing-file", "under-a-file"])
    def test_unusable_out_is_exit_2(self, tmp_path, out):
        (tmp_path / "taken").write_text("kept\n")
        result = run_cli("check", "--out", str(tmp_path / out), cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert f"config error: cannot use output directory {tmp_path / out}" in result.stderr
        assert "Traceback" not in result.stderr
        assert (tmp_path / "taken").read_text() == "kept\n"


# Small enough for every command form to run in about a second; the widths are
# constant-shape, as theory thm2 and norm require.
TINY = """
[arch]
widths = 4 4 4 1

[mc]
trials = 20

[train]
epochs = 1
batch_size = 10

[data]
n_samples = 20

[sweep]
widths = 4
n_seeds = 1
"""

COMMAND_FORMS = [["check"], ["train"], ["sweep"]] + [["theory", sub] for sub in THEORY_SUBCOMMANDS]


class TestLifecycle:
    @pytest.mark.parametrize("command", COMMAND_FORMS, ids=" ".join)
    def test_every_command_writes_one_manifest(self, tmp_path, command, capsys):
        cfg = write_config(tmp_path / "c.ini", TINY)
        out = tmp_path / "out"
        code = cli.main([*command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1), capsys.readouterr().err
        assert list(tmp_path.rglob("manifest.json")) == [out / "manifest.json"]
        manifest = strict_json(out / "manifest.json")
        assert manifest["command"] == " ".join(command)
        assert manifest["timing_s"] >= 0.0
        assert "aborted" not in manifest

    def test_aborted_theory_writes_manifest(self, tmp_path, monkeypatch, capsys):
        def zero_direction(*args, **kwargs):
            raise DirectionError("zero-norm direction")

        monkeypatch.setattr(cli, "mc_quadform_stats", zero_direction)
        cfg = write_config(tmp_path / "c.ini", TINY)
        out = tmp_path / "out"
        code = cli.main(["theory", "thm1", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert "aborted: zero-norm direction" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "theory thm1"
        assert manifest["aborted"] == "zero-norm direction"
        assert "timing_s" in manifest
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


class TestRunManifest:
    """theory records its Monte Carlo lane; theory and sweep record the
    worker count requested and the count used: the workers map_trial_ranges
    runs once it caps the request at the usable CPUs."""

    def test_theory_lane_thread_or_inline_writes_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.ini", "[arch]\nwidths = 8 8 8 1\n\n[mc]\ntrials = 120\nseed = 5\n")
        for cpus in (1, 2):
            monkeypatch.setattr(curvkit.parallel, "_usable_cpus", lambda: cpus)
            curvkit.theory._shared_table.cache_clear()
            for sub in ("thm2", "identities"):
                assert cli.main(["theory", sub, "--config", cfg, "--out", str(tmp_path / f"{sub}{cpus}")]) in (0, 1)
        for cpus, lane in ((1, "inline"), (2, "thread")):
            manifest = strict_json(tmp_path / f"thm2{cpus}" / "manifest.json")
            assert (manifest["mc_lane"], manifest["threads_used"]) == (lane, 1)
            manifest = strict_json(tmp_path / f"identities{cpus}" / "manifest.json")
            assert (manifest["mc_lane"], manifest["threads_used"]) == ("inline", 1)
        for name in ("thm2/thm2.csv", "thm2/delta_table.csv", "identities/identities.csv"):
            sub, file = name.split("/")
            assert (tmp_path / f"{sub}1" / file).read_bytes() == (tmp_path / f"{sub}2" / file).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workers_used_after_the_cap(self, tmp_path, monkeypatch, cpus):
        # --threads 5 runs in this process on one usable CPU and in a pool of
        # two worker processes on two; the lane stays inline either way.
        monkeypatch.setattr(curvkit.parallel, "_usable_cpus", lambda: cpus)
        cfg = write_config(tmp_path / "c.ini", TINY)
        for command in (["theory", "cross"], ["sweep"]):
            out = tmp_path / command[-1]
            assert cli.main([*command, "--config", cfg, "--out", str(out), "--threads", "5"]) in (0, 1)
            manifest = strict_json(out / "manifest.json")
            assert (manifest["threads_requested"], manifest["threads_used"]) == (5, cpus)
            assert manifest.get("mc_lane") == ("inline" if command[0] == "theory" else None)

    def test_an_aborted_sweep_records_both_counts(self, tmp_path, monkeypatch):
        # Both are recorded before the first cell runs, so an abort keeps them.
        monkeypatch.setattr(curvkit.parallel, "_usable_cpus", lambda: 1)
        cfg = write_config(tmp_path / "c.ini", DEAD_RELU_SWEEP.format(epochs=0))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--threads", "3"]) == 3
        manifest = strict_json(out / "manifest.json")
        assert "zero gradient" in manifest["aborted"]
        assert (manifest["threads_requested"], manifest["threads_used"]) == (3, 1)


class TestStops:
    """An interrupt is a runtime abort: exit 3, its cause in the manifest,
    and train's runlog.csv holds the steps recorded before it."""

    def test_interrupted_train_keeps_the_steps_it_recorded(self, tmp_path, monkeypatch, capsys):
        # Three steps per epoch, each epoch's first step probed: the third
        # probe is the first step of epoch 3, after every step of epochs 1-2
        # is recorded.
        cfg = write_config(tmp_path / "c.ini", TRAIN.format(lr="0.05").replace("epochs = 2", "epochs = 4"))
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
        capsys.readouterr()
        probes = []
        real_probe = curvkit.experiment._gradient_probe

        def probe_then_ctrl_c(*args):
            probes.append(args)
            if len(probes) == 3:
                raise KeyboardInterrupt  # as Python's own SIGINT handler raises it
            return real_probe(*args)

        monkeypatch.setattr(curvkit.experiment, "_gradient_probe", probe_then_ctrl_c)
        handler = signal.getsignal(signal.SIGTERM)
        out = tmp_path / "out"
        try:
            code = cli.main(["train", "--config", cfg, "--out", str(out)])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped cli.main")
        assert code == 3
        assert capsys.readouterr().err == "aborted: interrupted (SIGINT)\n"
        assert signal.getsignal(signal.SIGTERM) == handler
        full = (tmp_path / "full" / "runlog.csv").read_bytes().splitlines(keepends=True)
        assert (out / "runlog.csv").read_bytes() == b"".join(full[: 2 + 6])
        manifest = strict_json(out / "manifest.json")
        assert manifest["aborted"] == "interrupted (SIGINT)"
        assert manifest["step_lane"] == "inline" and "blas_threads" in manifest
        assert sorted(p.name for p in out.iterdir()) == ["dataset.csv", "manifest.json", "runlog.csv"]

    def test_sigterm_to_a_long_train(self, tmp_path):
        text = TRAIN.format(lr="0.05").replace("epochs = 2", "epochs = 1000000")
        cfg = write_config(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        proc = subprocess.Popen(
            [sys.executable, "-m", "curvkit", "train", "--config", cfg, "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=child_env(),
        )
        try:
            deadline = time.monotonic() + 60
            while not (out / "dataset.csv").exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert (out / "dataset.csv").exists()
            time.sleep(0.2)  # some steps in
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 3, err
        assert err == "aborted: interrupted (SIGTERM)\n"
        assert strict_json(out / "manifest.json")["aborted"] == "interrupted (SIGTERM)"
        # No network_final.txt and no .tmp file: a stop leaves no incomplete file.
        assert sorted(p.name for p in out.iterdir()) == ["dataset.csv", "manifest.json", "runlog.csv"]
        _, _, rows = read_csv(out / "runlog.csv")
        assert [int(r[0]) for r in rows] == list(range(len(rows)))

    def test_interrupted_trial_range_stops_the_lane(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(curvkit.parallel, "_usable_cpus", lambda: 2)
        chunk = curvkit.theory._mc_chunk

        def ctrl_c_in_the_callers_second_range(cfg, fixed, cross, start, stop):
            if start > 0 and threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            return chunk(cfg, fixed, cross, start, stop)

        monkeypatch.setattr(curvkit.theory, "_mc_chunk", ctrl_c_in_the_callers_second_range)
        curvkit.theory._shared_table.cache_clear()
        cfg = write_config(tmp_path / "c.ini", "[arch]\nwidths = 8 8 8 1\n\n[mc]\ntrials = 400\n")
        out = tmp_path / "out"
        before = threading.active_count()
        code = cli.main(["theory", "thm2", "--config", cfg, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "aborted: interrupted (SIGINT)\n"
        assert threading.active_count() == before
        manifest = strict_json(out / "manifest.json")
        assert manifest["aborted"] == "interrupted (SIGINT)"
        assert manifest["mc_lane"] == "thread"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_sigint_after_main_returned_keeps_its_exit_code(self, tmp_path):
        # A profile hook notes cli.main's return and sends SIGINT at the next
        # call, which curvkit's __main__ makes once every output is written.
        child = textwrap.dedent("""
            import os, runpy, signal, sys
            import curvkit.cli

            returned = []

            def hook(frame, event, arg):
                if event == "return" and frame.f_code is curvkit.cli.main.__code__:
                    returned.append(arg)
                elif returned and event in ("call", "c_call"):
                    sys.setprofile(None)
                    print(f"main returned {returned[0]}; SIGINT", file=sys.stderr, flush=True)
                    os.kill(os.getpid(), signal.SIGINT)

            sys.argv[0] = "curvkit"
            sys.setprofile(hook)
            runpy.run_module("curvkit", run_name="__main__")
        """)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", child, "check", "--out", str(out)], capture_output=True,
                              text=True, cwd=tmp_path, env=child_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "main returned 0; SIGINT\n")
        assert proc.stdout.endswith("all checks passed\n")
        assert sorted(p.name for p in out.iterdir()) == ["check_report.json", "manifest.json"]
