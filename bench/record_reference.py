"""Record the reference outputs the benchmark's correctness checks compare to.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload once per reference seed and writes
bench/reference/<workload>.json: exit code, CSV values, verdicts, and a hash
plus numeric digest of each file too large to keep.  Every recorded run must
first pass the checks that hold at any seed.  Re-record only when a change is
meant to alter curvkit's outputs, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import shutil
import sys

import verify
from workloads import RUN_ROOT, WORKLOADS, child_env, curvkit_args, environment, invoke

REFERENCE_SEEDS = range(16)


def record(name: str) -> None:
    w = WORKLOADS[name]
    env = environment(w)
    reference = {"git_commit": env["git_commit"], "source_sha256": env["source_sha256"], "seeds": {}}
    out_dir = RUN_ROOT / "reference" / name
    for seed in REFERENCE_SEEDS:
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [sys.executable, "-m", "curvkit", *curvkit_args(w, seed, out_dir, w.threads)]
        inv = invoke(argv, child_env(), RUN_ROOT / "reference" / f"{name}.log", 600.0)
        if name == "check_dense" and "check_names" not in reference:
            report = json.loads((out_dir / "check_report.json").read_text())
            reference["check_names"] = [c["name"] for c in report]
        problems = [(label, p) for label, p in verify.check_invocation(
            w, seed, out_dir, inv.exit_code, inv.stdout, reference) if p is not None]
        if problems:
            raise SystemExit(f"{name} seed {seed}: {problems}")
        reference["seeds"][str(seed)] = verify.snapshot(w, out_dir, inv.exit_code, inv.stdout)
        print(f"{name} seed {seed}: exit {inv.exit_code}, {inv.wall_s:.2f} s", flush=True)
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    seeds = reference.pop("seeds")
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()]
    lines.append('  "seeds": {\n' + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items()) + "\n  }")
    (verify.REFERENCE_DIR / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(WORKLOADS):
        record(workload)
