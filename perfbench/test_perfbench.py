"""Tests of the benchmark itself: metric coverage, trace repeatability and the gate.

The end-to-end tests run ``run.py`` at a tiny size (two draws per suite).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(trace: int, seed: int = 7):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "default-run", "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--samples", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return tiny_run(1), tiny_run(1)


def assert_metrics(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = {m["name"]: m["unit"] for m in BENCH[section]}
    assert set(result["metrics"]) == set(specs)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == specs[name]
        assert math.isfinite(metric["value"])


def test_tiny_untraced_run_emits_every_end_to_end_metric():
    record, result = tiny_run(0)
    assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["env"]
    for key in ("git_sha", "python", "numpy", "nproc", "blas_threads", "seed"):
        assert key in env
    assert env["seed"] == 7
    assert record["wall_verify_s"] > 0
    assert len(record["pass_speed"]) == record["passes"]
    assert record["kernel_calls"] >= 2 and record["kernel_median_s"] > 0


def test_tiny_traced_run_emits_every_per_layer_metric(traced_twice):
    (record, result), _ = traced_twice
    assert_metrics(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["suites.run_suite.calls"] == 20
    for layer in layers.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0
    assert metrics["trace_overhead"] > 1


def test_traced_counts_repeat_for_a_fixed_seed(traced_twice):
    (rec1, res1), (rec2, res2) = traced_twice
    counted = [m["name"] for m in BENCH["per_layer"]
               if m["unit"] in ("count", "values/sample", "checks/draw")]
    assert counted
    for name in counted:
        assert res1["metrics"][name]["value"] == res2["metrics"][name]["value"], name
    assert rec1["trace"]["calls_by_caller_layer"] == rec2["trace"]["calls_by_caller_layer"]


def test_reference_speed_leaves_out_kernel_calls_and_scales_by_host_speed():
    import calibrate

    cal = calibrate.Calibrator()
    ref = calibrate.REFERENCE_S
    # half the reference speed during gamma5, a quarter after it
    cal.calls = [(0.0, ref), (0.5, 0.5 + 2 * ref), (2.0, 2.0 + 4 * ref)]
    p = {"spans": {"gamma5": (0.1, 1.1), worker.RENDER: (1.1, 1.6)},
         "suite_s": {"gamma5": 1.0}, "render_s": 0.5}
    worker.at_reference_speed(p, cal)
    assert p["speed"] == pytest.approx(0.5)
    assert p["suite_s"]["gamma5"] == pytest.approx((1.0 - 2 * ref) * 0.5)
    assert p["render_s"] == pytest.approx(0.5 * 0.25)  # no call inside: the nearest one
    assert p["wall_suite_s"] == {"gamma5": 1.0} and p["wall_render_s"] == 0.5


def report(rows):
    return json.dumps({"config": {}, "suites": rows, "passed": all(r["passed"] for r in rows)})


GOOD = {"suite_id": "gamma5", "samples": 1, "max_residual": 0.0, "mean_residual": 0.0,
        "passed": True}


def test_gate_accepts_a_good_report():
    assert gate.check_report(report([GOOD])) == {"gamma5": []}


def test_gate_flags_a_nan_residual():
    text = report([dict(GOOD, mean_residual=float("nan"))])
    assert "NaN" in text
    assert "not strict JSON" in gate.check_report(text)["<report>"][0]
    assert gate.row_problems(dict(GOOD, max_residual=float("nan"))) == [
        "max_residual is not finite: nan"]


def test_gate_flags_an_infinity_token():
    text = report([dict(GOOD, max_residual=float("inf"), passed=False)])
    assert "Infinity" in text
    assert "not strict JSON" in gate.check_report(text)["<report>"][0]


def test_gate_flags_a_fail_row():
    found = gate.check_report(report([GOOD, dict(GOOD, suite_id="prop3", max_residual=2e-8,
                                                 passed=False)]))
    assert found == {"gamma5": [], "prop3": ["verdict FAIL"]}


def test_precision_finding_is_only_prop1_at_degree_three_and_small():
    fail = ["verdict FAIL"]
    assert gate.is_precision_finding("prop1-A", 3, 4.0e-9, fail)
    assert not gate.is_precision_finding("prop1-A", 2, 4.0e-9, fail)
    assert not gate.is_precision_finding("prop1-B", 3, 1.0, fail)
    assert not gate.is_precision_finding("prop3", 3, 4.0e-9, fail)
    assert not gate.is_precision_finding("prop1-A", 3, 4.0e-9, ["max_residual is not finite: nan"])


def test_a_raising_suite_is_counted_and_the_run_goes_on(monkeypatch):
    from dataclasses import replace

    from octoweak import core, suites

    real_run_suite = suites.run_suite

    def run_suite(suite_id, cfg):
        if suite_id == "double-cover":
            core.CplxOcton([1.0, 2.0])  # raises: an element needs 8 coefficients
        report = real_run_suite(suite_id, cfg)
        if suite_id == "boost-selfconj":
            report = replace(report, max_residual=float("nan"))
        return report

    monkeypatch.setattr(suites, "run_suite", run_suite)
    cfg = suites.SuiteConfig(samples_per_suite=2, suites=("double-cover", "boost-selfconj", "gamma5"))
    result = worker.run_pass(cfg)
    assert list(result["crashes"]) == ["double-cover"]
    assert [r.suite_id for r in result["reports"]] == ["boost-selfconj", "gamma5"]
    summary = worker.summarise(cfg, [result])
    assert set(summary["problems"]) == {"double-cover", "boost-selfconj"}
    assert summary["failed"] == 2 and summary["failed_frac"] == 2 / 3
    assert summary["correct"] is False
    package = Path(sys.modules["octoweak"].__file__).parent
    errors = layers.errors_by_layer(result["crashes"].values(), layers.LayerMap(package))
    assert errors == {layer: int(layer == "core") for layer in layers.LAYERS}


def test_fewer_samples_or_looser_tolerances_break_the_contract():
    from octoweak.suites import SuiteConfig

    assert worker.contract_problems(SuiteConfig(), 700, 700) == []
    assert worker.contract_problems(SuiteConfig(tol_series=1e-6), 699, 700) == [
        "tol_series is 1e-06, not 1e-08", "699 samples per pass, not 700"]


def test_a_function_moved_out_of_the_library_counts_zero_calls():
    import traced

    assert traced.resolve("fields.eval_at", "fields.no_such_function") == [traced.fields.eval_at]
    assert traced.resolve("core.CplxOcton.no_such_method") == []
