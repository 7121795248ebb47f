import json
import math
from dataclasses import replace

import pytest

from octoweak import suites
from octoweak.cli import main, parse_config_file
from octoweak.errors import UnknownSuite
from octoweak.suites import (
    SuiteConfig,
    render_json,
    render_text,
    run_all,
    run_suite,
    suite_ids,
)

#: Trimmed sample count so harness tests stay quick; acceptance runs defaults.
FAST = dict(samples_per_suite=25)


def test_registry_contents():
    ids = suite_ids()
    assert len(ids) == 20
    assert ids[0] == "ip-moves"
    assert "prop4-dichotomy" in ids and "gamma5" in ids


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(samples_per_suite=0)
    with pytest.raises(ValueError):
        SuiteConfig(tol_exact=-1.0)
    with pytest.raises(UnknownSuite):
        SuiteConfig(suites=("nonexistent",))
    cfg = SuiteConfig()
    assert cfg.suites == suite_ids()


@pytest.mark.parametrize(
    "bad",
    [
        dict(seed=-1),
        dict(tol_exact=math.nan),
        dict(tol_series=math.nan),
        dict(tol_series=math.inf),
        dict(theta_bound=math.inf),
        dict(theta_bound=math.nan),
    ],
)
def test_config_rejects_negative_seeds_and_non_finite_bounds(bad):
    with pytest.raises(ValueError):
        SuiteConfig(**bad)


def test_run_suite_gamma5():
    report = run_suite("gamma5", SuiteConfig())
    assert report.passed
    assert report.max_residual < 1e-14
    assert report.samples == 1


def test_run_suite_lorentz_algebra_is_exhaustive():
    report = run_suite("lorentz-algebra", SuiteConfig(**FAST))
    assert report.passed
    assert report.samples == 256  # sample override does not shrink exhaustive sweeps


def test_a_nan_residual_fails_the_suite(monkeypatch):
    gamma5 = suites._REGISTRY["gamma5"]
    nan_runner = replace(gamma5, runner=lambda cfg, n, rng: ([1e-20, math.nan], True))
    monkeypatch.setitem(suites._REGISTRY, "gamma5", nan_runner)
    report = run_suite("gamma5", SuiteConfig())
    assert not report.passed
    assert math.isnan(report.max_residual)


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("suite_id", ["prop1-A", "prop1-B"])
def test_prop1_passes_on_cubic_fields(suite_id, seed):
    report = run_suite(suite_id, SuiteConfig(seed=seed, field_degree=3))
    assert report.passed, report.max_residual


def test_run_suite_unknown_id():
    with pytest.raises(UnknownSuite):
        run_suite("nonexistent", SuiteConfig())


def test_run_all_fast_config_passes():
    cfg = SuiteConfig(**FAST)
    reports, code = run_all(cfg)
    assert code == 0
    assert len(reports) == len(suite_ids())
    assert all(r.passed for r in reports)


def test_tightened_series_tolerance_fails():
    cfg = SuiteConfig(tol_series=1e-15, **FAST)
    reports, code = run_all(cfg)
    assert code == 1
    failed = {r.suite_id for r in reports if not r.passed}
    assert "double-cover" in failed or "prop3" in failed


def test_seed_change_moves_statistics_not_outcomes():
    cfg1 = SuiteConfig(seed=1, **FAST)
    cfg2 = SuiteConfig(seed=2, **FAST)
    r1, code1 = run_all(cfg1)
    r2, code2 = run_all(cfg2)
    assert code1 == code2 == 0
    assert [r.passed for r in r1] == [r.passed for r in r2]
    assert any(
        a.max_residual != b.max_residual
        for a, b in zip(r1, r2)
        if a.samples > 1 and a.max_residual > 0
    )


def test_json_report_is_byte_identical_across_runs():
    cfg = SuiteConfig(seed=77, **FAST)
    a = render_json(run_all(cfg)[0], cfg)
    b = render_json(run_all(cfg)[0], cfg)
    assert a == b
    payload = json.loads(a)
    assert payload["passed"] is True
    assert set(payload["suites"][0]) == {
        "suite_id",
        "samples",
        "max_residual",
        "mean_residual",
        "passed",
    }
    assert payload["config"]["seed"] == 77


def test_text_report_shape():
    cfg = SuiteConfig(suites=("gamma5", "boost-selfconj"), **FAST)
    reports, _ = run_all(cfg)
    text = render_text(reports, cfg)
    assert "PASS  gamma5" in text
    assert text.strip().endswith("2/2 suites passed")


def test_suite_selection_restricts_run():
    cfg = SuiteConfig(suites=("gamma5",))
    reports, code = run_all(cfg)
    assert code == 0
    assert [r.suite_id for r in reports] == ["gamma5"]


# ------------------------------------------------------------------------ CLI


def test_cli_list_suites(capsys):
    assert main(["--list-suites"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(suite_ids())


def test_cli_dump_table(capsys):
    assert main(["--dump-table"]) == 0
    out = capsys.readouterr().out
    assert "+e3" in out and out.count("\n") >= 9


def test_cli_single_suite_text(capsys):
    assert main(["--suite", "gamma5"]) == 0
    out = capsys.readouterr().out
    assert "PASS  gamma5" in out


def test_cli_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["--suite", "gamma5", "--report", "json", "--out", str(out_path), "--seed", "5"]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert payload["config"]["seed"] == 5
    assert "report written" in capsys.readouterr().out


def test_cli_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--suite", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["--seed", "-1"], None),
        (["--config", "missing.cfg"], None),
        (["--tol-exact", "nan"], None),
        (["--config", "run.cfg"], "theta_bound = inf\n"),
    ],
)
def test_cli_hostile_config_is_a_one_line_usage_error(argv, config_text, tmp_path, capsys):
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--suite", "gamma5"])
    assert err.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "Traceback" not in errors[0]


def test_cli_failing_run_exit_code(capsys):
    code = main(["--suite", "double-cover", "--samples", "10", "--tol-series", "1e-15"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_file_parsing_and_precedence(tmp_path, capsys, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "seed = 9\n"
        "samples_per_suite: 11\n"
        "tol_series = 1e-7\n"
        "suites = gamma5, boost-selfconj\n"
    )
    parsed = parse_config_file(str(cfg_file))
    assert parsed == {
        "seed": 9,
        "samples_per_suite": 11,
        "tol_series": 1e-7,
        "suites": ("gamma5", "boost-selfconj"),
    }
    # CLI flag beats the file
    out_path = tmp_path / "r.json"
    monkeypatch.setenv("OCTOWEAK_SEED", "1000")
    code = main(
        ["--config", str(cfg_file), "--seed", "42", "--report", "json", "--out", str(out_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["config"]["seed"] == 42  # CLI wins over file and env
    assert payload["config"]["samples_per_suite"] == 11
    assert payload["config"]["suites"] == ["gamma5", "boost-selfconj"]


def test_env_seed_is_final_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("OCTOWEAK_SEED", "314")
    out_path = tmp_path / "env.json"
    code = main(["--suite", "gamma5", "--report", "json", "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["config"]["seed"] == 314


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))
