"""curvkit benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload mc_thm2 --seed 1 --seconds 20 --trace 0

Each workload is one shipped curvkit command run to completion in a fresh
interpreter, again and again (a closed loop with one client) until the
next invocation would end past --seconds.  --seed is passed to the command
as its --seed, so the same seed gives the same inputs.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced invocations (bench/spans.py, at
--threads 1 so that no span is lost in a worker process) and reports the
per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give every metric as a median, the
highest percentile with at least ten samples beyond it, and the sample count,
followed by the environment block.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import verify
from workloads import (
    BENCH_DIR,
    RUN_ROOT,
    SRC,
    WORKLOADS,
    Invocation,
    Workload,
    child_env,
    curvkit_args,
    environment,
    invoke,
    setup_probe,
)

# (name, unit, better): the end-to-end metrics of a --trace 0 run.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("work_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
TRACE_UNITS = {
    "parallel.cpu_util": "ratio",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}
PER_LAYER_UNITS = spans.UNITS | TRACE_UNITS
PER_LAYER_HIGHER = {"diff.hvp.useful_forward_frac", "experiment.sgd_train.steps", "parallel.cpu_util"}

MIN_INVOCATIONS = 3  # a median needs a few samples even when --seconds is short
DEADLINE_S = 170.0  # the whole run, setup probes and checks included


def tail(values: list[float], better: str) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it.

    "Beyond" is the worse side: above for lower-is-better metrics, below for
    higher-is-better ones.  None with fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    return f"p{100.0 * (n - 10) / n:.0f}", ordered[n - 11]


def format_row(name: str, unit: str, values: list[float], better: str) -> str:
    t = tail(values, better)
    tail_text = f"{t[0]}={t[1]:.6g}" if t else "tail n/a (n<11)"
    return f"  {name:44s} {unit:10s} median={statistics.median(values):<12.6g} {tail_text:22s} n={len(values)}"


class Run:
    """State of one benchmark run: the clock, the checks and the reference."""

    def __init__(self, w: Workload, seed: int, seconds: float):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.started = time.perf_counter()
        self.reference = verify.load_reference(w)
        self.checks: list[tuple[str, str | None]] = []
        self.dir = RUN_ROOT / w.name
        shutil.rmtree(self.dir, ignore_errors=True)

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def should_stop(self, n_done: int, loop_started: float, last_round: float) -> bool:
        """Stop when the next round would end past --seconds (or the deadline)."""
        if self.time_left() < 2.0 * last_round:
            return True
        elapsed = time.perf_counter() - loop_started
        return n_done >= MIN_INVOCATIONS and elapsed + last_round > self.seconds

    def execute(self, sub: str, threads: int, traced: bool = False) -> tuple[Invocation, Path]:
        """Run the workload once into .bench_run/<workload>/<sub> and check it."""
        out_dir = self.dir / sub
        shutil.rmtree(out_dir, ignore_errors=True)
        args = curvkit_args(self.w, self.seed, out_dir, threads)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(self.dir / f"{sub}.spans.json"), *args]
        else:
            argv = [sys.executable, "-m", "curvkit", *args]
        inv = invoke(argv, child_env(), self.dir / f"{sub}.log", max(1.0, self.time_left()))
        for label, problem in verify.check_invocation(
                self.w, self.seed, out_dir, inv.exit_code, inv.stdout, self.reference):
            self.checks.append((f"{sub}:{label}", problem))
        return inv, out_dir

    def failed(self) -> int:
        return sum(1 for _, problem in self.checks if problem is not None)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": self.failed() == 0,
            "attempted": len(self.checks),
            "failed": self.failed(),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def measure(run: Run) -> dict:
    w = run.w
    setup_probe(w, run.dir / "setup.log", run.time_left())  # untimed: fills caches, compiles bytecode
    setups: list[float] = []
    invocations: list[tuple[Invocation, int]] = []
    loop_started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        setups.append(setup_probe(w, run.dir / "setup.log", run.time_left()))
        inv, out_dir = run.execute("untraced", w.threads)
        invocations.append((inv, w.items(out_dir)))
        if run.should_stop(len(invocations), loop_started, time.perf_counter() - round_started):
            break
    setup_s = statistics.median(setups)
    samples = {
        "wall_s": [inv.wall_s for inv, _ in invocations],
        "setup_s": setups,
        "work_per_s": [items / max(inv.wall_s - setup_s, 1e-9) for inv, items in invocations],
        "peak_rss_mb": [inv.peak_rss_mb for inv, _ in invocations],
    }
    print(f"end-to-end metrics ({w.item} = item, {w.items(run.dir / 'untraced')} per invocation):")
    for name, unit, better in END_TO_END:
        print(format_row(name, unit, samples[name], better))
    print(f"  {'fail_frac':44s} {'ratio':10s} {run.failed() / len(run.checks):.6g} "
          f"({run.failed()} of {len(run.checks)} checked outputs failed)")
    return {name: (statistics.median(samples[name]), unit) for name, unit, _ in END_TO_END}


def _same_outputs(a: Path, b: Path) -> None:
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    if names != sorted(p.name for p in b.iterdir() if p.name != "manifest.json"):
        raise verify.CheckFailed("traced and untraced runs wrote different files")
    for name in names:
        if (a / name).read_bytes() != (b / name).read_bytes():
            raise verify.CheckFailed(f"{name} differs between traced and untraced runs")


def measure_traced(run: Run) -> dict:
    w = run.w
    print("traced invocations run with --threads 1 so that no span is lost in a worker process")
    setup_probe(w, run.dir / "setup.log", run.time_left())
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    untraced_walls, traced_walls = [], []
    loop_started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        # Back to back and in alternating order, so that drift in CPU speed
        # cancels out of the overhead.
        if len(traced_walls) % 2 == 0:
            plain, plain_dir = run.execute("untraced", 1)
            traced, traced_dir = run.execute("traced", 1, traced=True)
        else:
            traced, traced_dir = run.execute("traced", 1, traced=True)
            plain, plain_dir = run.execute("untraced", 1)
        untraced_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        samples["trace.overhead_s"].append(traced.wall_s - plain.wall_s)
        samples["trace.overhead_frac"].append(traced.wall_s / plain.wall_s - 1.0)
        pooled = run.execute("pooled", w.threads)[0] if w.threads > 1 else plain
        samples["parallel.cpu_util"].append(pooled.cpu_s / (pooled.wall_s * w.threads))
        try:
            _same_outputs(plain_dir, traced_dir)
            run.checks.append(("traced:byte-identical", None))
        except (verify.CheckFailed, OSError) as exc:
            run.checks.append(("traced:byte-identical", str(exc)))
        try:
            summary = json.loads((run.dir / "traced.spans.json").read_text())
        except (OSError, ValueError) as exc:
            run.checks.append(("traced:spans", f"no trace summary: {exc}"))
            break
        for name, value in spans.layer_metrics(summary).items():
            samples[name].append(value)
        samples["trace.spans"].append(summary["n_spans"])
        samples["trace.uncovered_frac"].append(max(0.0, traced.wall_s - summary["covered_s"]) / traced.wall_s)
        if run.should_stop(len(traced_walls), loop_started, time.perf_counter() - round_started):
            break
    print(f"per-layer metrics (traced wall {statistics.median(traced_walls):.4g} s, "
          f"untraced wall {statistics.median(untraced_walls):.4g} s at --threads 1):")
    for name, unit in PER_LAYER_UNITS.items():
        if samples[name]:
            row = format_row(name, unit, samples[name], "higher" if name in PER_LAYER_HIGHER else "lower")
            print(row + ("  (computed)" if name in spans.COMPUTED else ""))
    return {name: (statistics.median(v) if v else 0.0, PER_LAYER_UNITS[name]) for name, v in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvkit" / "__init__.py").is_file():
        print(f"error: no curvkit source tree at {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run = Run(w, args.seed, args.seconds)
    print(f"workload {w.name}: curvkit {' '.join(w.command)} --config {w.config.relative_to(BENCH_DIR.parent)} "
          f"--seed {args.seed} --threads {w.threads}; trace {args.trace}; {args.seconds:g} s")
    try:
        metrics = measure_traced(run) if args.trace else measure(run)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, problem in run.checks:
        if problem is not None:
            print(f"  FAILED {label}: {problem}")
    print("environment " + json.dumps(environment(w), sort_keys=True))
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
