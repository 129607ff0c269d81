"""Benchmark workloads: one shipped curvkit command each, run to completion.

Every invocation starts a fresh interpreter on the checkout's own ``src``
tree, with BLAS pinned so that worker processes x BLAS threads <= nproc,
and is timed from spawn to exit.  Resource usage comes from ``wait4``,
which folds in every worker the command reaped.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # curvkit arguments before the common flags
    threads: int  # curvkit --threads (worker processes)
    item: str  # the unit of work_per_s
    exit_ok: tuple[int, ...]  # exit 1 of theory and sweep is a statistical verdict

    @property
    def config(self) -> Path:
        return BENCH_DIR / "configs" / f"{self.name}.ini"

    def read_config(self) -> configparser.ConfigParser:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(self.config)
        return parser

    def items(self, out_dir: Path) -> int:
        """Work items one invocation performs."""
        cfg = self.read_config()
        if self.name == "mc_thm2":
            return cfg.getint("mc", "trials")
        if self.name == "train_w400":
            steps_per_epoch = -(-cfg.getint("data", "n_samples") // cfg.getint("train", "batch_size"))
            return cfg.getint("train", "epochs") * steps_per_epoch
        if self.name == "sweep_init":
            return len(cfg.get("sweep", "widths").split()) * cfg.getint("sweep", "n_seeds")
        try:  # check: the checks the suite ran
            return len(json.loads((out_dir / "check_report.json").read_text()))
        except (OSError, ValueError):
            return 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_thm2", ("theory", "thm2"), 1, "MC trial", (0, 1)),
        Workload("train_w400", ("train",), 1, "SGD step", (0,)),
        Workload("sweep_init", ("sweep",), 2, "sweep cell", (0, 1)),
        Workload("check_dense", ("check",), 1, "check", (0,)),
    )
}


def child_env() -> dict[str, str]:
    """One BLAS thread per process: no workload runs more workers than the
    two cores it was sized for, and unpinned OpenBLAS threads burn CPU
    without shortening any workload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def curvkit_args(w: Workload, seed: int, out_dir: Path, threads: int) -> list[str]:
    return [*w.command, "--config", str(w.config), "--seed", str(seed),
            "--out", str(out_dir), "--threads", str(threads)]


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    cpu_s: float  # user + system, the process and every child it reaped
    peak_rss_mb: float  # largest resident set of the process or a reaped child
    stdout: str
    stderr: str


def invoke(argv: list[str], env: dict[str, str], log_dir: Path, timeout_s: float) -> Invocation:
    """Run argv to completion; a run past timeout_s is killed (exit -9)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


SETUP_PROBE = (
    "import sys, time\n"
    "import curvkit.cli\n"
    "curvkit.cli.load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter()), curvkit.__file__)\n"
)


def setup_probe(w: Workload, log_dir: Path, timeout_s: float) -> float:
    """Seconds from spawn until curvkit is imported and the config is loaded.

    perf_counter reads CLOCK_MONOTONIC, which parent and child share.
    """
    start = time.perf_counter()
    inv = invoke([sys.executable, "-c", SETUP_PROBE, str(w.config)], child_env(), log_dir, timeout_s)
    fields = inv.stdout.split()
    if inv.exit_code != 0 or len(fields) != 2:
        raise RuntimeError(f"setup probe failed (exit {inv.exit_code}): {inv.stderr.strip()[-500:]}")
    if not Path(fields[1]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported curvkit from {fields[1]}, not from {SRC}")
    return float(fields[0]) - start


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over curvkit's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "curvkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(w: Workload) -> dict:
    import numpy as np

    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads_env": {var: env[var] for var in THREAD_VARS},
        "curvkit_threads": w.threads,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }
