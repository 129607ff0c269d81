"""A traced command writes the same bytes as an untraced one."""
import subprocess
import sys

import pytest

from workloads import BENCH_DIR, child_env

TINY = {
    "theory": ("theory thm2", "[arch]\nwidths = 4 4 4 1\nactivation = identity\n[mc]\ntrials = 64\n"),
    "train": ("train", "[arch]\nwidths = 6 6 6 1\nactivation = relu\n[train]\nepochs = 2\nbatch_size = 10\n"
                       "[data]\nn_samples = 40\n"),
    "sweep": ("sweep", "[arch]\nwidths = 5 5 1\nactivation = relu\n[train]\nepochs = 0\nbatch_size = 10\n"
                       "[data]\nn_samples = 30\n[sweep]\nwidths = 4 8\nn_seeds = 2\n"),
    "check": ("check", "[arch]\nwidths = 3 3 3 1\nactivation = identity\n"),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_are_byte_identical(tmp_path, name):
    command, ini = TINY[name]
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    outputs = {}
    for mode in ("untraced", "traced"):
        out = tmp_path / mode
        args = [*command.split(), "--config", str(cfg), "--seed", "3", "--out", str(out), "--threads", "1"]
        prefix = ["-m", "curvkit"] if mode == "untraced" else [str(BENCH_DIR / "spans.py"), str(tmp_path / "s.json")]
        proc = subprocess.run([sys.executable, *prefix, *args], env=child_env(), capture_output=True, timeout=120)
        assert proc.returncode in (0, 1), proc.stderr.decode()
        outputs[mode] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    assert outputs["traced"] == outputs["untraced"]
    assert any(n.endswith(".csv") or n.endswith(".json") for n in outputs["traced"])
    if name == "train":
        assert "network_final.txt" in outputs["traced"]
