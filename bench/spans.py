"""Span tracer for one curvkit command, run from outside the program.

The tracer wraps public functions at the names where the consuming module
looks them up (``curvkit.experiment.hvp``, ``curvkit.diff.batch_forward``,
``RngStream.generator`` ...), records one span per call -- name, start, end,
parent -- in memory, and restores every wrapped name afterwards.  curvkit's
source is not edited.

Run as a script it traces one command and writes a JSON summary:

    PYTHONPATH=src python3 bench/spans.py SUMMARY.json theory thm2 --config ...

The exit code is the command's.  Worker processes are not traced, so the
benchmark runs traced commands with ``--threads 1``.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

_ARRAY_BYTES = 8  # float64


# Work functions receive (args, kwargs, result) of one call and return a count.


def _draws(args, kwargs, result):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    n = 1
    for s in (shape if isinstance(shape, tuple) else (shape,)):
        n *= int(s)
    return n


def _forward_flops(args, kwargs, result):
    # One multiply and one add per weight per sample.
    net = args[0]
    return 2 * result.activations[0].shape[0] * net.arch.n_params


def _unflatten_bytes(args, kwargs, result):
    return sum(w.size for w in result) * _ARRAY_BYTES


def _fd_loss_evals(args, kwargs, result):
    # Parameter vectors at which the batch loss is evaluated: the base point,
    # two per diagonal entry and four per off-diagonal pair.
    p = args[0].arch.n_params
    return 1 + 2 * p + 2 * p * (p - 1)


def _file_bytes(position):
    def work(args, kwargs, result):
        return os.path.getsize(args[position])

    return work


def _trials(args, kwargs, result):
    return args[0].n_trials


# (span name, module, attribute path, work function).  Each entry is a place
# where a consuming module looks the callee up; the same span name appears at
# every such place.
WRAP_SITES = [
    ("cli.main", "curvkit.cli", "main", None),
    ("cli.load_config", "curvkit.cli", "load_config", None),
    ("rng.generator", "curvkit.rng", "RngStream.generator", None),
    ("rng.sample", "curvkit.rng", "InitDistribution.sample", _draws),
    ("network.param_index", "curvkit.network", "ParamIndex.__init__", None),
    ("network.unflatten", "curvkit.network", "ParamIndex.unflatten", _unflatten_bytes),
    ("network.save_network", "curvkit.cli", "save_network", _file_bytes(1)),
    ("experiment.save_dataset", "curvkit.cli", "save_dataset", _file_bytes(1)),
    ("tables.write_csv", "curvkit.cli", "write_csv", _file_bytes(0)),
    ("tables.write_csv", "curvkit.experiment", "write_csv", _file_bytes(0)),
    ("experiment.generate_dataset", "curvkit.cli", "generate_dataset", None),
    ("experiment.generate_dataset", "curvkit.experiment", "generate_dataset", None),
    ("experiment.sgd_train", "curvkit.cli", "sgd_train", None),
    ("experiment.sgd_train", "curvkit.experiment", "sgd_train", None),
    ("experiment.initial_probe", "curvkit.experiment", "initial_probe", None),
    ("network.init_network", "curvkit.cli", "init_network", None),
    ("network.init_network", "curvkit.experiment", "init_network", None),
    ("network.init_network", "curvkit.theory", "init_network", None),
    ("network.forward", "curvkit.diff", "forward", None),
    ("network.forward", "curvkit.theory", "forward", None),
    ("network.batch_forward", "curvkit.diff", "batch_forward", _forward_flops),
    ("network.batch_forward", "curvkit.curvature", "batch_forward", _forward_flops),
    ("parallel.map_trial_ranges", "curvkit.experiment", "map_trial_ranges", None),
    ("parallel.map_trial_ranges", "curvkit.theory", "map_trial_ranges", None),
    ("diff.loss_and_gradient", "curvkit.experiment", "loss_and_gradient", None),
    ("diff.batch_loss", "curvkit.experiment", "batch_loss", None),
    ("diff.hvp", "curvkit.experiment", "hvp", None),
    ("diff.hvp", "curvkit.cli", "hvp", None),
    ("diff.ggn_vp", "curvkit.experiment", "ggn_vp", None),
    ("diff.ggn_vp", "curvkit.cli", "ggn_vp", None),
    ("diff.output_gradient", "curvkit.cli", "output_gradient", None),
    ("diff.output_gradient", "curvkit.theory", "output_gradient", None),
    ("diff.output_hessian_grad_product", "curvkit.cli", "output_hessian_grad_product", None),
    ("diff.output_hessian_grad_product", "curvkit.theory", "output_hessian_grad_product", None),
    ("diff.output_hessian_vp", "curvkit.theory", "output_hessian_vp", None),
    ("diff.output_hessian", "curvkit.cli", "output_hessian", None),
    ("diff.output_hessian", "curvkit.curvature", "output_hessian", None),
    ("diff.fd_hessian", "curvkit.cli", "fd_hessian", _fd_loss_evals),
    ("diff.fd_hessian", "curvkit.curvature", "fd_hessian", _fd_loss_evals),
    ("curvature.decompose", "curvkit.cli", "decompose", None),
    ("curvature.psd_check", "curvkit.cli", "psd_check", None),
    ("curvature.curvature_projection", "curvkit.experiment", "curvature_projection", None),
    ("theory.grad_norm_samples", "curvkit.theory", "grad_norm_samples", _trials),
    ("theory.quadform_samples", "curvkit.cli", "quadform_samples", _trials),
    ("theory.quadform_samples", "curvkit.theory", "quadform_samples", _trials),
    ("theory.positivity_samples", "curvkit.theory", "positivity_samples", _trials),
]


def _resolve(module_name: str, path: str):
    """Return (owner, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Records spans in memory while installed; restores names on uninstall.

    A span is ``[name, start, end, parent, work]``: ``parent`` is the index
    of the enclosing span or -1, ``work`` the value of the site's work
    function (0 without one).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, path, work in WRAP_SITES:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [
        (end - start) - _union_length(kids)
        for (_, start, end, _, _), kids in zip(spans, children)
    ]


def summarize(spans) -> dict:
    """Aggregate spans by name, and by (ancestor name, name) pair.

    ``by_name[name]`` holds calls, total (inclusive) seconds, self seconds
    and summed work.  ``nested["A>B"]`` holds calls and total seconds of
    spans named B that have a span named A among their ancestors.
    ``covered_s`` is the time covered by at least one span.
    """
    by_name: dict[str, dict] = {}
    nested: dict[str, dict] = {}
    ancestors: list[frozenset] = []
    interned: dict[tuple, frozenset] = {}
    for (name, start, end, parent, work), self_s in zip(spans, self_times(spans)):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        entry["work"] += work
        if parent >= 0:
            key = (ancestors[parent], spans[parent][0])
            anc = interned.get(key)
            if anc is None:
                anc = interned[key] = key[0] | {key[1]}
        else:
            anc = frozenset()
        ancestors.append(anc)
        for a in anc:
            pair = nested.setdefault(f"{a}>{name}", {"calls": 0, "total_s": 0.0})
            pair["calls"] += 1
            pair["total_s"] += end - start
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    return {
        "by_name": by_name,
        "nested": nested,
        "covered_s": _union_length(roots),
        "n_spans": len(spans),
    }


# Per-layer metrics read straight off one span name: (metric, span, field,
# unit), field being "calls", "self_s" or "work" (the site's work function).
SPAN_METRICS = [
    ("rng.generator.calls", "rng.generator", "calls", "count"),
    ("rng.generator.self_s", "rng.generator", "self_s", "s"),
    ("rng.sample.draws", "rng.sample", "work", "count"),
    ("rng.sample.self_s", "rng.sample", "self_s", "s"),
    ("network.init_network.calls", "network.init_network", "calls", "count"),
    ("network.init_network.self_s", "network.init_network", "self_s", "s"),
    ("network.forward.calls", "network.forward", "calls", "count"),
    ("network.forward.self_s", "network.forward", "self_s", "s"),
    ("network.batch_forward.calls", "network.batch_forward", "calls", "count"),
    ("network.batch_forward.self_s", "network.batch_forward", "self_s", "s"),
    ("network.batch_forward.flops", "network.batch_forward", "work", "flop"),
    ("network.param_index.builds", "network.param_index", "calls", "count"),
    ("network.unflatten.bytes", "network.unflatten", "work", "bytes"),
    ("network.unflatten.self_s", "network.unflatten", "self_s", "s"),
    ("network.save_network.bytes", "network.save_network", "work", "bytes"),
    ("network.save_network.self_s", "network.save_network", "self_s", "s"),
    ("experiment.save_dataset.bytes", "experiment.save_dataset", "work", "bytes"),
    ("experiment.save_dataset.self_s", "experiment.save_dataset", "self_s", "s"),
    ("tables.write_csv.calls", "tables.write_csv", "calls", "count"),
    ("tables.write_csv.bytes", "tables.write_csv", "work", "bytes"),
    ("tables.write_csv.self_s", "tables.write_csv", "self_s", "s"),
    ("diff.loss_and_gradient.calls", "diff.loss_and_gradient", "calls", "count"),
    ("diff.loss_and_gradient.self_s", "diff.loss_and_gradient", "self_s", "s"),
    ("diff.batch_loss.calls", "diff.batch_loss", "calls", "count"),
    ("diff.batch_loss.self_s", "diff.batch_loss", "self_s", "s"),
    ("diff.output_gradient.calls", "diff.output_gradient", "calls", "count"),
    ("diff.output_gradient.self_s", "diff.output_gradient", "self_s", "s"),
    ("diff.output_hessian_grad_product.calls", "diff.output_hessian_grad_product", "calls", "count"),
    ("diff.output_hessian_grad_product.self_s", "diff.output_hessian_grad_product", "self_s", "s"),
    ("diff.output_hessian_vp.calls", "diff.output_hessian_vp", "calls", "count"),
    ("diff.output_hessian_vp.self_s", "diff.output_hessian_vp", "self_s", "s"),
    ("diff.hvp.calls", "diff.hvp", "calls", "count"),
    ("diff.hvp.self_s", "diff.hvp", "self_s", "s"),
    ("diff.ggn_vp.calls", "diff.ggn_vp", "calls", "count"),
    ("diff.ggn_vp.self_s", "diff.ggn_vp", "self_s", "s"),
    ("diff.fd_hessian.calls", "diff.fd_hessian", "calls", "count"),
    ("diff.fd_hessian.self_s", "diff.fd_hessian", "self_s", "s"),
    ("diff.fd_hessian.loss_evals", "diff.fd_hessian", "work", "count"),
    ("diff.output_hessian.self_s", "diff.output_hessian", "self_s", "s"),
    ("curvature.decompose.self_s", "curvature.decompose", "self_s", "s"),
    ("curvature.psd_check.self_s", "curvature.psd_check", "self_s", "s"),
    ("curvature.curvature_projection.calls", "curvature.curvature_projection", "calls", "count"),
    ("curvature.curvature_projection.self_s", "curvature.curvature_projection", "self_s", "s"),
    ("experiment.initial_probe.self_s", "experiment.initial_probe", "self_s", "s"),
    ("experiment.generate_dataset.self_s", "experiment.generate_dataset", "self_s", "s"),
    ("parallel.map_trial_ranges.self_s", "parallel.map_trial_ranges", "self_s", "s"),
    ("cli.load_config.self_s", "cli.load_config", "self_s", "s"),
    ("cli.self_s", "cli.main", "self_s", "s"),
]
THEORY_SAMPLES = ("theory.grad_norm_samples", "theory.quadform_samples", "theory.positivity_samples")
DERIVED_UNITS = {
    "diff.hvp.useful_forward_frac": "ratio",
    "experiment.probe_ms": "ms",
    "experiment.sgd_train.steps": "count",
    "experiment.step_ms": "ms",
    **{f"{name}.us_per_trial": "us" for name in THEORY_SAMPLES},
    "theory.nets_per_trial": "nets/trial",
}
UNITS = {m: unit for m, _, _, unit in SPAN_METRICS} | DERIVED_UNITS
# Derived from array shapes and file sizes, not measured.
COMPUTED = {
    "network.batch_forward.flops", "network.unflatten.bytes", "diff.fd_hessian.loss_evals",
    "network.save_network.bytes", "experiment.save_dataset.bytes", "tables.write_csv.bytes",
    "theory.nets_per_trial",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did not run."""
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every metric in UNITS from one trace summary (0 where a layer is idle)."""
    by, nested = summary["by_name"], summary["nested"]

    def field(span: str, f: str):
        return by.get(span, {}).get(f, 0)

    def under(ancestor: str, span: str, f: str = "calls"):
        return nested.get(f"{ancestor}>{span}", {}).get(f, 0)

    out = {m: field(span, f) for m, span, f, _ in SPAN_METRICS}
    # An FD hvp needs two forward passes; relu mask checks add three more.
    out["diff.hvp.useful_forward_frac"] = _ratio(
        2 * field("diff.hvp", "calls"), under("diff.hvp", "network.batch_forward"))
    # A probe is two projections (Hessian and Gauss-Newton).
    proj = "curvature.curvature_projection"
    out["experiment.probe_ms"] = _ratio(1e3 * field(proj, "total_s"), field(proj, "calls") / 2)
    steps = under("experiment.sgd_train", "diff.loss_and_gradient")
    out["experiment.sgd_train.steps"] = steps
    out["experiment.step_ms"] = _ratio(
        1e3 * (field("experiment.sgd_train", "total_s") - under("experiment.sgd_train", proj, "total_s")), steps)
    for name in THEORY_SAMPLES:
        out[f"{name}.us_per_trial"] = _ratio(1e6 * field(name, "total_s"), field(name, "work"))
    trials = max(_ratio(field(name, "work"), field(name, "calls")) for name in THEORY_SAMPLES)
    nets = sum(under(name, "network.init_network") for name in THEORY_SAMPLES)
    out["theory.nets_per_trial"] = _ratio(nets, trials)
    return out


def main(argv: list[str]) -> int:
    summary_path, command = argv[0], argv[1:]
    import curvkit.cli

    tracer = Tracer()
    code = 3
    with tracer:
        try:
            code = curvkit.cli.main(command)
        finally:
            with open(summary_path, "w", encoding="ascii") as fh:
                json.dump(summarize(tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
