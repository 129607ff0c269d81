"""Span arithmetic, wrapping and the metric tables of the benchmark."""
import json

import pytest

import run
import spans
import verify
from workloads import BENCH_DIR, WORKLOADS


def test_self_time_subtracts_child_coverage():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]; b > b1 pokes out of b.
    trace = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["b1", 5.5, 7.0, 3, 0],
    ]
    assert spans.self_times(trace) == pytest.approx([6.0, 2.0, 1.0, 0.5, 1.5])


def test_overlapping_children_are_counted_once():
    trace = [["p", 0.0, 4.0, -1, 0], ["c", 1.0, 3.0, 0, 0], ["c", 2.0, 3.5, 0, 0]]
    assert spans.self_times(trace)[0] == pytest.approx(1.5)


def test_summary_aggregates_by_name_and_ancestor():
    trace = [
        ["diff.hvp", 0.0, 5.0, -1, 0],
        ["network.batch_forward", 1.0, 2.0, 0, 7],
        ["network.batch_forward", 3.0, 4.0, 0, 7],
        ["network.batch_forward", 6.0, 7.0, -1, 7],
        ["outer", 8.0, 12.0, -1, 0],
        ["diff.hvp", 9.0, 10.0, 4, 0],
    ]
    s = spans.summarize(trace)
    fwd = s["by_name"]["network.batch_forward"]
    assert (fwd["calls"], fwd["work"]) == (3, 21)
    assert fwd["total_s"] == pytest.approx(3.0)
    assert s["by_name"]["diff.hvp"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert s["nested"]["diff.hvp>network.batch_forward"]["calls"] == 2
    assert s["nested"]["outer>diff.hvp"]["calls"] == 1
    assert s["covered_s"] == pytest.approx(5.0 + 1.0 + 4.0)
    metrics = spans.layer_metrics(s)
    assert metrics["diff.hvp.useful_forward_frac"] == pytest.approx(2 * 2 / 2)
    assert metrics["experiment.probe_ms"] == 0.0  # idle layer


def test_wrapped_names_are_restored(tmp_path):
    import curvkit.cli

    def lookups():
        out = {}
        for _, module, path, _ in spans.WRAP_SITES:
            owner, attr = spans._resolve(module, path)
            out[(module, path)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        return out

    before = lookups()
    cfg = tmp_path / "c.ini"
    cfg.write_text("[arch]\nwidths = 3 3 1\nactivation = identity\n[mc]\ntrials = 20\n")
    tracer = spans.Tracer()
    with tracer:
        assert all(lookups()[key] is not fn for key, fn in before.items())
        code = curvkit.cli.main(["theory", "thm2", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code in (0, 1)
    assert {s[0] for s in tracer.spans} >= {"cli.main", "cli.load_config", "theory.quadform_samples"}
    after = lookups()
    assert all(after[key] is fn for key, fn in before.items())


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(10)), "lower") is None
    assert run.tail(list(range(11)), "lower") == ("p9", 0)
    assert run.tail(list(range(20)), "lower") == ("p50", 9)
    assert run.tail(list(range(20)), "higher") == ("p50", 10)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert {m["name"] for m in spec["per_layer"] if m["better"] == "higher"} == run.PER_LAYER_HIGHER


def test_value_outside_tolerance_fails():
    ref = {"schema": "s", "header": ["a", "loss"], "rows": [["1", "0.5"]]}
    tol = {"loss": verify.EXACT}
    verify.compare_csv({"schema": "s", "header": ["a", "loss"], "rows": [["1", "0.5000000000001"]]}, ref, tol)
    with pytest.raises(verify.CheckFailed):
        verify.compare_csv({"schema": "s", "header": ["a", "loss"], "rows": [["1", "0.5001"]]}, ref, tol)
    with pytest.raises(verify.CheckFailed):
        verify.compare_csv({"schema": "s", "header": ["a", "loss"], "rows": [["2", "0.5"]]}, ref, tol)

