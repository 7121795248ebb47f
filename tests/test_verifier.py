import ast
import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import octoweak
from octoweak import cli, suites
from octoweak.cli import main, parse_config_file
from octoweak.errors import DomainViolation, UnknownSuite
from octoweak.suites import (
    MAX_FIELD_DEGREE,
    SuiteConfig,
    render_json,
    render_text,
    run_all,
    run_suite,
    suite_ids,
)

from oracles import SUITE_RUNNERS

#: Trimmed sample count so harness tests stay quick; acceptance runs defaults.
FAST = dict(samples_per_suite=25)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


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


@pytest.mark.parametrize(
    "suite_id, rows", [("lorentz-algebra", 256), ("infinitesimal-dc", 64), ("gamma5", 1)]
)
def test_run_suite_lorentz_algebra_is_exhaustive(suite_id, rows):
    report = run_suite(suite_id, SuiteConfig(samples_per_suite=3))
    assert report.passed
    assert report.samples == rows  # a sample override neither shrinks nor grows a table


@pytest.mark.parametrize("suite_id", ["prop2", "prop4-dichotomy"])
def test_a_witness_under_its_floor_fails_the_suite(suite_id, monkeypatch):
    sdef = suites._REGISTRY[suite_id]
    monkeypatch.setitem(suites._REGISTRY, suite_id, replace(sdef, witness=lambda: 0.0))
    cfg = SuiteConfig(**FAST)
    report = run_suite(suite_id, cfg)
    assert report.max_residual < cfg.suite_tolerance(suite_id)  # every residual passes
    assert report.message is None
    assert not report.passed


def test_a_nan_residual_fails_the_suite(monkeypatch):
    gamma5 = suites._REGISTRY["gamma5"]
    nan_runner = replace(gamma5, residual=lambda cfg: np.array([1e-20, math.nan]))
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


def test_text_report_gives_each_tolerance_to_three_digits():
    cfg = SuiteConfig(
        suites=("prop2", "double-cover", "zvengrowski"), tol_series=1.5e-8, tol_exact=2.5e-13, **FAST
    )
    text = render_text(run_all(cfg)[0], cfg)
    for tol in ("1.5e-08", "1.5e-09", "2.5e-13"):
        assert f" tol={tol}  (" in text


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


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_unknown_suite_error_is_the_message_itself(via_config, tmp_path, capsys):
    # not the repr that str() of a KeyError gives
    if via_config:
        (tmp_path / "run.cfg").write_text("suites = nope\n")
        argv = ["--config", str(tmp_path / "run.cfg")]
    else:
        argv = ["--suite", "nope"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert errors == ["octoweak: error: unknown suite id(s): nope"]
    assert str(UnknownSuite("unknown suite id: 'nope'")) == "unknown suite id: 'nope'"


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["--seed", "-1"], None),
        (["--config", "missing.cfg"], None),
        (["--tol-exact", "nan"], None),
        (["--config", "run.cfg"], "theta_bound = inf\n"),
        # a value that its type rejects, from the file or from the environment (a
        # leading NAME=value, set as a shell sets it), even under --seed
        (["--config", "run.cfg"], "seed = abc\n"),
        (["OCTOWEAK_SEED=abc", "--seed", "3"], None),
    ],
)
def test_cli_hostile_config_is_a_one_line_usage_error(
    argv, config_text, tmp_path, capsys, monkeypatch
):
    env = argv[0] if "=" in argv[0] else None
    if env is not None:
        monkeypatch.setenv(*env.split("="))
        argv = argv[1:]
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--suite", "gamma5"])
    assert err.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "Traceback" not in errors[0]
    if "abc" in (config_text or env or ""):
        # the error line names the value's source, worded as argparse's own
        source = "OCTOWEAK_SEED" if env else f"{tmp_path / 'run.cfg'}:1: seed"
        assert errors == [f"octoweak: error: {source}: invalid int value: 'abc'"]


@pytest.mark.parametrize("out", ["missing/report.json", "."])
def test_cli_unwritable_out_path_is_a_usage_error_before_the_run(out, tmp_path, capsys, monkeypatch):
    # a missing directory, then a directory: refused before any suite runs
    def no_run(cfg):
        raise AssertionError("the suites ran before the output was opened")

    monkeypatch.setattr(cli, "run_all", no_run)
    with pytest.raises(SystemExit) as err:
        main(["--suite", "gamma5", "--out", str(tmp_path / out)])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    errors = [ln for ln in err_text.splitlines() if ln.startswith("octoweak: error:")]
    assert len(errors) == 1 and str(tmp_path) in errors[0]


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDevice:
    """A writer on a full device.  Buffered, its writes succeed and its flush and
    close fail; unbuffered, every write fails as well."""

    def __init__(self, buffered: bool):
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            raise _enospc()
        return len(text)

    def flush(self):
        raise _enospc()

    close = flush

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("to_file", [False, True])
def test_cli_report_write_failure_is_one_error_line(to_file, buffered, capsys, monkeypatch):
    device = _FullDevice(buffered)
    if to_file:
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: device, raising=False)
        argv = ["--out", "report.json"]
    else:
        monkeypatch.setattr(cli.sys, "stdout", device)
        argv = []
    with pytest.raises(SystemExit) as err:
        main(["--suite", "gamma5", "--report", "json", *argv])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    assert err_text.splitlines() == [f"octoweak: error: cannot write report: {_enospc()}"]


def test_cli_with_standard_output_closed_is_one_error_line():
    env = dict(os.environ, PYTHONPATH=str(Path(octoweak.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "octoweak", "--suite", "gamma5"],
        preexec_fn=lambda: os.close(1),  # started as `octoweak >&-` is
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == ["octoweak: error: cannot write report: standard output is closed"]


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("flag", ["--list-suites", "--dump-table"])
def test_cli_listing_write_failure_is_one_error_line(flag, buffered, capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdout", _FullDevice(buffered))
    with pytest.raises(SystemExit) as err:
        main([flag])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    assert err_text.splitlines() == [f"octoweak: error: cannot write report: {_enospc()}"]


@pytest.mark.parametrize("flag", ["--list-suites", "--dump-table"])
def test_cli_listing_with_standard_output_closed_is_one_error_line(flag):
    env = dict(os.environ, PYTHONPATH=str(Path(octoweak.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "octoweak", flag],
        preexec_fn=lambda: os.close(1),  # started as `octoweak >&-` is
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 2
    assert run.stderr.splitlines() == ["octoweak: error: cannot write report: standard output is closed"]


@pytest.mark.parametrize("buffered", [False, True])
def test_cli_confirmation_write_failure_is_one_error_line(buffered, tmp_path, capsys, monkeypatch):
    # the report goes to --out and is complete; only the confirmation line fails
    argv = ["--suite", "gamma5", "--report", "json", "--out"]
    assert main(argv + [str(tmp_path / "want.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.sys, "stdout", _FullDevice(buffered))
    with pytest.raises(SystemExit) as err:
        main(argv + [str(tmp_path / "got.json")])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    assert err_text.splitlines() == [f"octoweak: error: cannot write report: {_enospc()}"]
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_cli_confirmation_to_a_full_device_is_one_error_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(octoweak.__file__).parents[1]))
    out_path = tmp_path / "report.json"
    with open("/dev/full", "w") as full:  # started as `octoweak ... > /dev/full` is
        run = subprocess.run(
            [sys.executable, "-m", "octoweak", "--suite", "gamma5", "--report", "json", "--out", str(out_path)],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    assert run.returncode == 2
    assert run.stderr.splitlines() == [f"octoweak: error: cannot write report: {_enospc()}"]
    assert _strict_json(out_path.read_text())["passed"] is True


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


# ------------------------------------------------------- batched suite runners


@pytest.mark.parametrize("suite_id", sorted(SUITE_RUNNERS))
def test_batched_runner_matches_its_per_sample_reference(suite_id, monkeypatch):
    monkeypatch.setattr(suites, "BLOCK_ROWS", 128)
    n = 300
    assert n > suites.BLOCK_ROWS  # crosses a block boundary
    cfg = SuiteConfig(seed=2024)
    rng_batched, rng_ref = suites._rng_for(cfg, suite_id), suites._rng_for(cfg, suite_id)
    got, got_ok = suites._evaluate(suites._REGISTRY[suite_id], cfg, n, rng_batched)
    want, want_ok = SUITE_RUNNERS[suite_id](cfg, n, rng_ref)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, float(np.max(want)))
    assert got_ok == want_ok
    # the batched draws read the stream exactly as the per-sample ones did
    assert rng_batched.bit_generator.state == rng_ref.bit_generator.state


def test_json_report_is_strict_when_residuals_overflow(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("theta_bound = 800\n")
    argv = ["--config", str(tmp_path / "run.cfg"), "--suite", "double-cover", "--samples", "50"]
    code = main(argv + ["--report", "json"])
    assert code == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["passed"] is False
    row = payload["suites"][0]
    assert row["passed"] is False and row["max_residual"] in ("NaN", "Infinity")


def test_json_report_encodes_each_non_finite_residual_as_a_string():
    cfg = SuiteConfig(suites=("gamma5",))
    rows = [
        suites.SuiteReport("gamma5", 1, value, 1.5, False, 0)
        for value in (math.nan, math.inf, -math.inf)
    ]
    payload = _strict_json(render_json(rows, cfg))
    assert [r["max_residual"] for r in payload["suites"]] == ["NaN", "Infinity", "-Infinity"]
    assert payload["suites"][0]["mean_residual"] == 1.5


@pytest.mark.parametrize("bound", ["1000", "1e300"])
def test_huge_theta_bound_ends_in_fail_rows(bound, tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(f"theta_bound = {bound}\n")
    four = ["double-cover", "rotation-unitarity", "boost-selfconj", "prop4-dichotomy"]
    argv = ["--config", str(tmp_path / "run.cfg"), "--samples", "20", "--report", "json"]
    code = main(argv + [a for sid in four for a in ("--suite", sid)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    payload = _strict_json(out)
    assert [r["suite_id"] for r in payload["suites"]] == four
    failed = {r["suite_id"] for r in payload["suites"] if not r["passed"]}
    assert {"double-cover", "prop4-dichotomy"} <= failed


def test_field_degree_is_capped():
    assert SuiteConfig(field_degree=MAX_FIELD_DEGREE).field_degree == MAX_FIELD_DEGREE
    assert MAX_FIELD_DEGREE >= 9
    for degree in (MAX_FIELD_DEGREE + 1, 10**6):
        with pytest.raises(ValueError):
            SuiteConfig(field_degree=degree)


def test_theta_bound_must_leave_a_finite_draw_range():
    SuiteConfig(theta_bound=1e300)
    with pytest.raises(ValueError):
        SuiteConfig(theta_bound=1e308)


def test_an_error_inside_one_suite_is_a_fail_row_and_the_run_goes_on(monkeypatch, capsys):
    def refuse(cfg, *arrays):
        raise DomainViolation("gauge parameter value is not in subspace A- (defect 0.5)")

    prop3 = replace(suites._REGISTRY["prop3"], residual=refuse)
    monkeypatch.setitem(suites._REGISTRY, "prop3", prop3)
    argv = ["--samples", "20", "--suite", "gamma5", "--suite", "prop3", "--suite", "lemma3"]
    assert main(argv + ["--report", "json"]) == 1
    rows = _strict_json(capsys.readouterr().out)["suites"]
    assert [r["passed"] for r in rows] == [True, False, True]
    assert rows[1]["message"] == (
        "DomainViolation: gauge parameter value is not in subspace A- (defect 0.5)"
    )
    assert "message" not in rows[0] and "message" not in rows[2]
    assert main(argv) == 1
    text = capsys.readouterr().out
    assert "FAIL  prop3" in text and "error: DomainViolation: gauge parameter" in text
    assert "2/3 suites passed" in text


#: Each settable field: its config key, its flag, a value for the file and one for the flag.
_EVERY_SETTING = [
    ("seed", "--seed", "9", "3"),
    ("samples_per_suite", "--samples", "11", "7"),
    ("tol_exact", "--tol-exact", "1e-11", "1e-10"),
    ("tol_series", "--tol-series", "2e-8", "3e-8"),
    ("theta_bound", "--theta-bound", "1.0", "0.5"),
    ("field_degree", "--field-degree", "3", "1"),
]


@pytest.mark.parametrize(
    "key, flag, file_value, flag_value", _EVERY_SETTING, ids=[row[0] for row in _EVERY_SETTING]
)
def test_cli_theta_bound_and_field_degree_flags_override_the_config_file(
    key, flag, file_value, flag_value, tmp_path, capsys
):
    # every field but suites has a row in cli's table, so a field added without a flag fails
    assert {*cli._SETTINGS, "suites"} == {f.name for f in fields(SuiteConfig)}
    assert [row[0] for row in _EVERY_SETTING] == list(cli._SETTINGS)
    (tmp_path / "run.cfg").write_text(f"{key} = {file_value}\n")
    base = ["--config", str(tmp_path / "run.cfg"), "--suite", "gamma5", "--report", "json"]
    for argv, value in ((base, file_value), (base + [flag, flag_value], flag_value)):
        assert main(argv) == 0
        reported = _strict_json(capsys.readouterr().out)["config"][key]
        # the same value of the same type: 9, not 9.0
        assert repr(reported) == repr(json.loads(value))


@pytest.mark.parametrize("flag", [["--field-degree", "13"], ["--theta-bound", "1e308"]])
def test_cli_out_of_range_flag_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(flag + ["--suite", "gamma5"])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    assert err_text.strip().splitlines()[-1].startswith("octoweak: error: ")


@pytest.mark.parametrize("line", ["field_degree = 1000000", "theta_bound = 1e308"])
def test_cli_out_of_range_config_is_a_usage_error(line, tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(line + "\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(tmp_path / "run.cfg"), "--suite", "gamma5"])
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


# ------------------------------------------------------------- library routes


def _names_read(node) -> set[str]:
    # every name and attribute that the code under node reads or calls
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_library_function_has_a_caller_outside_its_unit_tests():
    # a public function of the algebra and field modules is called by other
    # library code, exported in octoweak.__all__ or called by the acceptance
    # tests; one that only its own unit tests call is a second route to a law
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(octoweak.__file__).parent.glob("*.py")}
    reads = [(node, _names_read(node)) for tree in trees.values() for node in tree.body]
    acceptance = _names_read(ast.parse(Path(__file__).with_name("test_acceptance.py").read_text()))
    unused = [
        f"{module}.{fn.name}"
        for module in ("core", "grading", "lorentz", "fields", "gauge")
        for fn in trees[module].body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in octoweak.__all__
        and fn.name not in acceptance
        and not any(fn.name in names for node, names in reads if node is not fn)
    ]
    assert unused == []
