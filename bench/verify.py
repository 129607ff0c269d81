"""Output checks behind fail_frac.

Every invocation yields a list of checked outputs: its exit status, each
output file, and the command's verdict.  At every seed a file must be well
formed and satisfy the invariants the command promises (for example
Hess_proj = G_proj + H_proj).  At a seed recorded in ``reference/`` each
value must also lie within its column's tolerance of the value recorded at
the commit that introduced the benchmark.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import BENCH_DIR, Workload

REFERENCE_DIR = BENCH_DIR / "reference"

# |run - reference| <= atol + rtol * |reference|.  Columns not listed must
# match the reference text exactly.
#
# EXACT: values from exact routes; room for a changed summation order only.
EXACT = (1e-9, 0.0)
# FREQ: Monte Carlo frequencies over 1000 trials; one trial changing side of
# a threshold after a last-ulp change moves them by 1e-3.
FREQ = (0.0, 1.1e-3)
# FD: curvature projections from the finite-difference hvp.  An exact
# Taylor-mode probe differs from them by at most 3e-8 relative (2.7e-10 of
# the column scale) at seeds 0-9, so an exact route may replace it.
FD = (1e-6, 1e-8)
TOLERANCES = {
    "thm2.csv": {"gamma_backfit": EXACT, "bound": FREQ, "empirical": FREQ},
    "delta_table.csv": {"tail_prob": FREQ},
    "runlog.csv": {
        "loss": EXACT, "grad_norm_sq": EXACT, "G_proj": EXACT,
        # (loss_after - loss_before) / lr^2 cancels about three digits.
        "curv_estimate": (1e-6, 1e-9),
        "H_proj": FD, "Hess_proj": FD, "curv_exact_half": FD,
    },
    "sweep.csv": {"init_H_proj_abs": FD, "init_Hess_proj": FD, "final_loss": EXACT},
}
OUTPUT_CSVS = {
    "mc_thm2": ("thm2.csv", "delta_table.csv"),
    "train_w400": ("runlog.csv",),
    "sweep_init": ("sweep.csv",),
    "check_dense": (),
}
# Files too large to record; the reference keeps a hash and a digest.
LARGE_FILES = {"train_w400": ("dataset.csv", "network_final.txt")}


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path) -> dict:
    lines = path.read_text(encoding="ascii").splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# schema="), f"{path.name}: no schema line")
    return {
        "schema": lines[0].removeprefix("# schema="),
        "header": lines[1].split(","),
        "rows": [ln.split(",") for ln in lines[2:]],
    }


def _column(table: dict, name: str) -> list[str]:
    _require(name in table["header"], f"missing column {name}")
    j = table["header"].index(name)
    return [row[j] for row in table["rows"]]


def _floats(table: dict, name: str) -> list[float]:
    try:
        return [float(v) for v in _column(table, name)]
    except ValueError as exc:
        raise CheckFailed(f"column {name}: {exc}") from exc


def _close(run: str, ref: str, rtol: float, atol: float) -> bool:
    if run == ref:
        return True
    try:
        a, b = float(run), float(ref)
    except ValueError:
        return False
    return abs(a - b) <= atol + rtol * abs(b)


def compare_csv(table: dict, ref: dict, tolerances: dict) -> None:
    _require(table["schema"] == ref["schema"], f"schema {table['schema']} != {ref['schema']}")
    _require(table["header"] == ref["header"], "header differs from the reference")
    _require(len(table["rows"]) == len(ref["rows"]), f"{len(table['rows'])} rows, reference has {len(ref['rows'])}")
    for i, (row, ref_row) in enumerate(zip(table["rows"], ref["rows"])):
        _require(len(row) == len(ref_row), f"row {i} has {len(row)} cells")
        for name, run, want in zip(ref["header"], row, ref_row):
            rtol, atol = tolerances.get(name, (None, None))
            ok = run == want if rtol is None else _close(run, want, rtol, atol)
            _require(ok, f"row {i} {name}: {run} vs reference {want}")


def _numbers(path: Path) -> list[float]:
    """Every number in a text file, skipping lines that start with a word."""
    values: list[float] = []
    for line in path.read_text(encoding="ascii").splitlines():
        tokens = line.replace(",", " ").split()
        try:
            values.extend(float(t) for t in tokens)
        except ValueError:
            continue
    return values


def digest(path: Path) -> dict:
    values = _numbers(path)
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "n_values": len(values),
        "sum": math.fsum(values),
        "sum_sq": math.fsum(v * v for v in values),
    }


def compare_digest(path: Path, ref: dict) -> None:
    if hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]:
        return
    got = digest(path)
    _require(got["n_values"] == ref["n_values"], f"{got['n_values']} values, reference has {ref['n_values']}")
    for key in ("sum", "sum_sq"):
        _require(_close(repr(got[key]), repr(ref[key]), *EXACT), f"{key} {got[key]!r} vs reference {ref[key]!r}")


def verdict_line(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("verdict: "):
            return line.removeprefix("verdict: ").strip()
    return None


# ---------------------------------------------------------------------------
# Invariants that hold at every seed
# ---------------------------------------------------------------------------


def _thm2_csv(w: Workload, table: dict, exit_code: int) -> None:
    _require(len(table["rows"]) == 1, "thm2.csv must have one row")
    _require(_column(table, "n_trials") == [str(w.read_config().getint("mc", "trials"))], "n_trials differs from the config")
    passed = _column(table, "passed")[0]
    _require(passed in ("true", "false"), f"passed = {passed!r}")
    _require((passed == "true") == (exit_code == 0), f"passed = {passed} but exit code {exit_code}")
    _require(0.0 <= _floats(table, "empirical")[0] <= 1.0, "empirical frequency outside [0, 1]")
    _require(_floats(table, "bound")[0] <= 1.0, "bound above 1")
    _require(_floats(table, "gamma_backfit")[0] > 0.0, "gamma_backfit not positive")


def _delta_csv(w: Workload, table: dict, exit_code: int) -> None:
    tail = _floats(table, "tail_prob")
    _require(len(tail) >= 1, "empty deviation table")
    _require(all(0.0 <= t <= 1.0 for t in tail), "tail_prob outside [0, 1]")
    _require(all(a >= b for a, b in zip(tail, tail[1:])), "tail_prob increases with eps")
    trials = str(w.read_config().getint("mc", "trials"))
    _require(set(_column(table, "n_trials")) == {trials}, "n_trials differs from the config")


def _runlog_csv(w: Workload, table: dict, exit_code: int) -> None:
    cfg = w.read_config()
    epochs = cfg.getint("train", "epochs")
    _require(len(table["rows"]) == w.items(Path()), f"{len(table['rows'])} steps logged")
    for name in ("loss", "grad_norm_sq", "curv_estimate"):
        _require(all(math.isfinite(v) for v in _floats(table, name)), f"{name} not finite")
    j = table["header"].index("Hess_proj")
    probed = {"header": table["header"], "rows": [row for row in table["rows"] if row[j] != ""]}
    _require(len(probed["rows"]) == epochs, f"{len(probed['rows'])} probes for {epochs} epochs")
    names = ("G_proj", "H_proj", "Hess_proj", "curv_exact_half", "grad_norm_sq")
    for g, h, hess, half, g_sq in zip(*(_floats(probed, n) for n in names)):
        _require(g >= 0.0, f"G_proj = {g} < 0 (Gauss-Newton part is PSD)")
        _require(abs(hess - (g + h)) <= 1e-12 * max(abs(hess), abs(g), abs(h)), "Hess_proj != G_proj + H_proj")
        _require(abs(half - 0.5 * hess * g_sq) <= 1e-12 * abs(half), "curv_exact_half != Hess_proj * grad_norm_sq / 2")


def _sweep_csv(w: Workload, table: dict, exit_code: int) -> None:
    cfg = w.read_config()
    widths = cfg.get("sweep", "widths").split()
    n_seeds = cfg.getint("sweep", "n_seeds")
    _require(_column(table, "width") == [wd for wd in widths for _ in range(n_seeds)], "cells out of order")
    _require(_column(table, "seed_index") == [str(s) for _ in widths for s in range(n_seeds)], "cells out of order")
    h_abs = _floats(table, "init_H_proj_abs")
    _require(all(v >= 0.0 and math.isfinite(v) for v in h_abs), "init_H_proj_abs negative or not finite")
    for hess, pos in zip(_floats(table, "init_Hess_proj"), _floats(table, "positivity_fraction")):
        _require(pos == float(hess >= 0.0), "positivity_fraction disagrees with init_Hess_proj")


CSV_INVARIANTS = {
    "thm2.csv": _thm2_csv,
    "delta_table.csv": _delta_csv,
    "runlog.csv": _runlog_csv,
    "sweep.csv": _sweep_csv,
}


def _sweep_verdict(w: Workload, out_dir: Path, stdout: str, exit_code: int) -> str:
    table = read_csv(out_dir / "sweep.csv")
    widths = w.read_config().get("sweep", "widths").split()
    h_abs = _floats(table, "init_H_proj_abs")
    n = len(h_abs) // len(widths)
    means = [math.fsum(h_abs[k * n:(k + 1) * n]) / n for k in range(len(widths))]
    expected = "decreasing" if all(a > b for a, b in zip(means, means[1:])) else "not-decreasing"
    verdict = verdict_line(stdout)
    _require(verdict == expected, f"verdict {verdict!r}, the CSV says {expected!r}")
    _require(exit_code == (1 if verdict == "not-decreasing" else 0), f"verdict {verdict} but exit code {exit_code}")
    return verdict


def _network_file(w: Workload, path: Path) -> None:
    cfg = w.read_config()
    widths = [int(v) for v in cfg.get("arch", "widths").split()]
    lines = path.read_text(encoding="ascii").splitlines()
    _require(lines[:3] == ["curvkit-network v1", f"activation {cfg.get('arch', 'activation')}",
                           "widths " + " ".join(map(str, widths))], "bad header")
    cursor = 3
    for layer, (rows, cols) in enumerate(zip(widths[:-1], widths[1:]), start=1):
        _require(lines[cursor] == f"layer {layer} {rows}x{cols}", f"bad header of layer {layer}")
        block = lines[cursor + 1: cursor + 1 + rows]
        _require(len(block) == rows and all(len(ln.split()) == cols for ln in block), f"layer {layer} block malformed")
        cursor += 1 + rows
    _require(cursor == len(lines), "trailing lines")


def _dataset_file(w: Workload, path: Path) -> None:
    cfg = w.read_config()
    lines = path.read_text(encoding="ascii").splitlines()
    n_in = int(cfg.get("arch", "widths").split()[0])
    _require(len(lines) == cfg.getint("data", "n_samples") + 2, "wrong row count")
    _require(all(ln.count(",") == n_in for ln in lines[1:]), "wrong column count")


LARGE_FILE_INVARIANTS = {"dataset.csv": _dataset_file, "network_final.txt": _network_file}


def _report(out_dir: Path) -> list[dict]:
    return json.loads((out_dir / "check_report.json").read_text())


def _check_report(out_dir: Path, names: list[str], ref: dict | None) -> None:
    report = _report(out_dir)
    _require([c["name"] for c in report] == names, "the suite ran other checks than the reference")
    for c in report:
        _require(c["passed"] is True and c["value"] <= c["tolerance"], f"{c['name']} failed: {c['value']:.3e}")
    if ref is not None:
        # A tolerance may be tightened, never loosened.  Some scale with the
        # data (gauss-newton-psd), so they are compared per seed.
        for c, want in zip(report, ref["check_report"]):
            _require(c["tolerance"] <= want["tolerance"], f"{c['name']} tolerance loosened to {c['tolerance']}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def load_reference(w: Workload) -> dict:
    path = REFERENCE_DIR / f"{w.name}.json"
    return json.loads(path.read_text()) if path.exists() else {"seeds": {}}


def check_invocation(w: Workload, seed: int, out_dir: Path, exit_code: int, stdout: str,
                     reference: dict) -> list[tuple[str, str | None]]:
    """(output, problem or None) for every checked output of one invocation."""
    ref = reference["seeds"].get(str(seed))
    results: list[tuple[str, str | None]] = []

    def check(label: str, fn) -> None:
        try:
            fn()
            results.append((label, None))
        except CheckFailed as exc:
            results.append((label, str(exc)))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results.append((label, f"malformed or missing: {type(exc).__name__}: {exc}"))

    def exit_status() -> None:
        _require(exit_code in w.exit_ok, f"exit code {exit_code}")
        if ref is not None:
            _require(exit_code == ref["exit_code"], f"exit code {exit_code}, reference {ref['exit_code']}")

    check("exit", exit_status)
    if exit_code not in w.exit_ok:
        return results  # a crashed command is one failure, not one per missing file

    def manifest() -> None:
        data = json.loads((out_dir / "manifest.json").read_text())
        _require(data["command"] == " ".join(w.command), f"manifest command {data['command']!r}")

    check("manifest.json", manifest)
    for name in OUTPUT_CSVS[w.name]:
        def csv_file(name=name) -> None:
            table = read_csv(out_dir / name)
            CSV_INVARIANTS[name](w, table, exit_code)
            if ref is not None:
                compare_csv(table, ref["csv"][name], TOLERANCES.get(name, {}))
        check(name, csv_file)
    for name in LARGE_FILES.get(w.name, ()):
        def large_file(name=name) -> None:
            LARGE_FILE_INVARIANTS[name](w, out_dir / name)
            if ref is not None:
                compare_digest(out_dir / name, ref["digests"][name])
        check(name, large_file)
    if w.name == "sweep_init":
        def sweep_verdict() -> None:
            verdict = _sweep_verdict(w, out_dir, stdout, exit_code)
            if ref is not None:
                _require(verdict == ref["verdict"], f"verdict {verdict}, reference {ref['verdict']}")
        check("verdict", sweep_verdict)
    if w.name == "check_dense":
        check("check_report.json", lambda: _check_report(out_dir, reference["check_names"], ref))
        check("verdict", lambda: _require(stdout.rstrip().endswith("all checks passed"), "no pass line"))
    return results


def snapshot(w: Workload, out_dir: Path, exit_code: int, stdout: str) -> dict:
    """The reference record of one invocation."""
    snap = {
        "exit_code": exit_code,
        "csv": {name: read_csv(out_dir / name) for name in OUTPUT_CSVS[w.name]},
        "digests": {name: digest(out_dir / name) for name in LARGE_FILES.get(w.name, ())},
    }
    if w.name == "sweep_init":
        snap["verdict"] = verdict_line(stdout)
    if w.name == "check_dense":
        snap["check_report"] = [{"name": c["name"], "tolerance": c["tolerance"]} for c in _report(out_dir)]
    return snap
