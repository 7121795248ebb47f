import ast
import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal
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
    # a bare id is refused, not read letter by letter; a list is kept as a tuple
    with pytest.raises(TypeError, match="suites"):
        SuiteConfig(suites="gamma5")
    cfg = SuiteConfig(suites=["gamma5"])
    assert cfg.suites == ("gamma5",) and hash(cfg) == hash(SuiteConfig(suites=("gamma5",)))
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


@pytest.mark.parametrize("field", ["seed", "field_degree", "samples_per_suite"])
def test_config_reads_its_integer_fields_as_python_ints(field):
    # a float is refused at construction, not by a suite, and a numpy integer
    # is kept as a Python int, which the JSON report can write
    with pytest.raises(TypeError):
        SuiteConfig(**{field: 2.5})
    cfg = SuiteConfig(**{field: np.int64(2)}, suites=("gamma5", "prop2"))
    assert type(getattr(cfg, field)) is int
    reports, code = run_all(cfg)
    assert code == 0 and json.loads(render_json(reports, cfg))["suites"]


@pytest.mark.parametrize(
    "field, bad",
    [("tol_exact", Decimal("1e-12")), ("tol_series", Decimal("1e-8")), ("theta_bound", "2.0")],
    ids=["tol_exact", "tol_series", "theta_bound"],
)
def test_config_reads_its_float_fields_as_python_floats(field, bad):
    # a value that is not a real number is refused at construction, naming the
    # field, and a numpy float is kept as a Python float
    with pytest.raises(TypeError, match=field):
        SuiteConfig(**{field: bad})
    cfg = SuiteConfig(**{field: np.float32(getattr(SuiteConfig(), field))}, suites=("gamma5", "prop2"))
    assert type(getattr(cfg, field)) is float
    reports, code = run_all(cfg)
    assert code == 0 and json.loads(render_json(reports, cfg))["suites"]


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
    # a witness must exceed its floor: one at the floor fails too
    sdef, cfg = suites._REGISTRY[suite_id], SuiteConfig(**FAST)
    for value in (0.0, suites.NEG_CONTROL_MIN):
        monkeypatch.setitem(suites._REGISTRY, suite_id, replace(sdef, witness=lambda: value))
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


def test_lemma3_reads_the_same_row_at_every_degree_from_tables_of_its_own_degree(monkeypatch):
    # u, lemma3's only field, has degree min(2, field_degree): its JSON row does not
    # move with a field degree above 2, and its tables are no wider than degree 2's
    widths, build = [], suites.monomial_rows

    def recording(exps, points):
        widths.append(len(exps))
        return build(exps, points)

    monkeypatch.setattr(suites, "monomial_rows", recording)
    rows = []
    for degree in (2, 3, 6, 12):
        cfg = SuiteConfig(seed=7, field_degree=degree, suites=("lemma3",))
        rows.append(_strict_json(render_json(run_all(cfg)[0], cfg))["suites"])
    assert rows[0][0]["passed"] and all(row == rows[0] for row in rows)
    assert max(widths) == 15


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


def _exit_2(capsys, argv) -> list[str]:
    """The standard error lines of main(argv), which must exit 2 with no traceback."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    return err_text.splitlines()


def test_cli_rejects_unknown_suite(capsys):
    _exit_2(capsys, ["--suite", "bogus"])


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_unknown_suite_error_is_the_message_itself(via_config, tmp_path, capsys):
    # not the repr that str() of a KeyError gives
    if via_config:
        (tmp_path / "run.cfg").write_text("suites = nope\n")
        argv = ["--config", str(tmp_path / "run.cfg")]
    else:
        argv = ["--suite", "nope"]
    errors = [ln for ln in _exit_2(capsys, argv) if "error:" in ln]
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
    errors = [ln for ln in _exit_2(capsys, argv + ["--suite", "gamma5"]) if "error:" in ln]
    assert len(errors) == 1
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
    lines = _exit_2(capsys, ["--suite", "gamma5", "--out", str(tmp_path / out)])
    errors = [ln for ln in lines if ln.startswith("octoweak: error:")]
    assert len(errors) == 1 and str(tmp_path) in errors[0]


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


#: What a report that cannot be written leaves on standard error.
_FULL = [f"octoweak: error: cannot write report: {_enospc()}"]
_CLOSED = ["octoweak: error: cannot write report: standard output is closed"]


def _run_octoweak(argv, **kwargs) -> tuple[int, list[str]]:
    """``python -m octoweak`` in a child process, with its standard output buffered, as
    it is where PYTHONUNBUFFERED is unset: its exit code and standard error lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(octoweak.__file__).parents[1])
    run = subprocess.run([sys.executable, "-m", "octoweak", *argv], stderr=subprocess.PIPE,
                         text=True, env=env, timeout=120, **kwargs)
    return run.returncode, run.stderr.splitlines()


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
    assert _exit_2(capsys, ["--suite", "gamma5", "--report", "json", *argv]) == _FULL


def test_cli_with_standard_output_closed_is_one_error_line():
    # started as `octoweak >&-` is
    assert _run_octoweak(["--suite", "gamma5"], preexec_fn=lambda: os.close(1)) == (2, _CLOSED)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("flag", ["--list-suites", "--dump-table"])
def test_cli_listing_write_failure_is_one_error_line(flag, buffered, capsys, monkeypatch):
    monkeypatch.setattr(cli.sys, "stdout", _FullDevice(buffered))
    assert _exit_2(capsys, [flag]) == _FULL


@pytest.mark.parametrize("flag", ["--list-suites", "--dump-table"])
def test_cli_listing_with_standard_output_closed_is_one_error_line(flag):
    assert _run_octoweak([flag], preexec_fn=lambda: os.close(1)) == (2, _CLOSED)


@pytest.mark.parametrize("buffered", [False, True])
def test_cli_confirmation_write_failure_is_one_error_line(buffered, tmp_path, capsys, monkeypatch):
    # the report goes to --out and is complete; only the confirmation line fails
    argv = ["--suite", "gamma5", "--report", "json", "--out"]
    assert main(argv + [str(tmp_path / "want.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.sys, "stdout", _FullDevice(buffered))
    assert _exit_2(capsys, argv + [str(tmp_path / "got.json")]) == _FULL
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_cli_confirmation_to_a_full_device_is_one_error_line(tmp_path):
    out_path = tmp_path / "report.json"
    with open("/dev/full", "w") as full:  # started as `octoweak ... > /dev/full` is
        argv = ["--suite", "gamma5", "--report", "json", "--out", str(out_path)]
        assert _run_octoweak(argv, stdout=full) == (2, _FULL)
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
    assert _exit_2(capsys, flag + ["--suite", "gamma5"])[-1].startswith("octoweak: error: ")


@pytest.mark.parametrize("line", ["field_degree = 1000000", "theta_bound = 1e308"])
def test_cli_out_of_range_config_is_a_usage_error(line, tmp_path, capsys):
    (tmp_path / "run.cfg").write_text(line + "\n")
    _exit_2(capsys, ["--config", str(tmp_path / "run.cfg"), "--suite", "gamma5"])


# ------------------------------------------------------------- library routes

ROOT = Path(__file__).resolve().parents[1]

#: The modules whose public names must each have a caller.
GUARDED = ("core", "grading", "lorentz", "fields", "gauge", "suites")


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README section ``heading``."""
    section = (ROOT / "README.md").read_text().partition(f"\n{heading}\n")[2]
    block = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    assert block, f"README.md has no {lang} block under {heading!r}"
    return block.group(1)


def _defined(node) -> list[str]:
    # the names that a module-level statement defines
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _imports(tree, library, exports) -> dict[str, str]:
    # local name -> the library module ("fields") or name ("fields.eval_at") that
    # an import binds it to; ``exports`` resolves the package's own names
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name: "__init__" for a in node.names if a.name == "octoweak"}
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "octoweak"
        ):
            module = (node.module or "").removeprefix("octoweak").strip(".") or "__init__"
            for a in node.names:
                if module != "__init__":
                    out[a.asname or a.name] = f"{module}.{a.name}"
                elif a.name in library or a.name in exports:
                    out[a.asname or a.name] = a.name if a.name in library else exports[a.name]
    return out


def _reads(tree, bound: dict[str, str]) -> list[tuple[ast.AST, str]]:
    # (node, what it reads) for each name and attribute that the tree loads: a
    # library name where the binding is known, "*.attr" for an attribute of an
    # unknown object, such as a method called on an instance
    def target(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        base = target(node.value) if isinstance(node.value, (ast.Name, ast.Attribute)) else None
        return f"{base or '*'}.{node.attr}"

    return [
        (node, target(node))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]


def uncalled(library: dict[str, ast.Module], guarded, callers) -> list[str]:
    """The public names of the guarded modules that nothing reads outside their definition.

    ``library`` maps each module's name to its tree, ``"__init__"`` the
    package's; every module but ``"__init__"`` is a caller too, so an export
    alone is not a caller.  A name is a module-level function, class or
    constant, or a public method, classmethod or property of a class; one read
    through an instance counts for every class with a member of that name.
    """
    exports = _imports(library["__init__"], library, {})
    reads = []
    for module, tree in library.items():
        if module != "__init__":
            own = {name: f"{module}.{name}" for node in tree.body for name in _defined(node)}
            reads += _reads(tree, own | _imports(tree, library, exports))
    for tree in callers:
        reads += _reads(tree, _imports(tree, library, exports))
    names = {}
    for module in guarded:
        for node in library[module].body:
            names |= {f"{module}.{name}": node for name in _defined(node)}
            if isinstance(node, ast.ClassDef):
                methods = (fn for fn in node.body if isinstance(fn, ast.FunctionDef))
                names |= {f"{module}.{node.name}.{fn.name}": fn for fn in methods}
    out = []
    for name, node in names.items():
        member = name.rpartition(".")[2]
        if member.startswith("_"):
            continue
        aliases = {name, f"*.{member}"} if name.count(".") == 2 else {name}
        inside = set(map(id, ast.walk(node)))
        if not any(
            read and (read in aliases or read.startswith(f"{name}.")) and id(n) not in inside
            for n, read in reads
        ):
            out.append(name)
    return out


def test_every_public_library_function_has_a_caller_outside_its_unit_tests():
    # a public name that only unit tests read is a second route to a law. The
    # callers: other library code, the acceptance criteria, the README
    # quickstart and the benchmark's modules
    library = {p.stem: ast.parse(p.read_text()) for p in Path(octoweak.__file__).parent.glob("*.py")}
    sources = [(ROOT / "tests" / "test_acceptance.py").read_text()]
    sources.append(readme_block("## Library quickstart", "python"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    sources += [p.read_text() for p in bench if not p.name.startswith("test_")]
    assert uncalled(library, GUARDED, [ast.parse(src) for src in sources]) == []


def test_the_caller_scan_reports_an_uncalled_function_method_classmethod_and_constant():
    toy = (
        "LIMIT, USED = 3, 4\n"
        "def lonely(): return USED\n"
        "def partial(): return 0\n"
        "class Value:\n"
        "    def used(self): return 1\n"
        "    def method(self): return self.method()\n"
        "    @classmethod\n"
        "    def build(cls): return cls.build()\n"
    )
    # a name that reads only itself has no caller, and functools' partial in
    # another module is not toy's
    other = "from functools import partial\npartial(print)\n"
    library = {"__init__": "from .toy import Value", "toy": toy, "other": other}
    library = {name: ast.parse(src) for name, src in library.items()}
    caller = ast.parse("from octoweak import Value\nValue().used()")
    assert uncalled(library, ["toy"], [caller]) == [
        "toy.LIMIT", "toy.lonely", "toy.partial", "toy.Value.method", "toy.Value.build",
    ]


def test_the_readme_quickstart_runs():
    code = compile(readme_block("## Library quickstart", "python"), "README.md quickstart", "exec")
    exec(code, {})


def test_the_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # each line in a directory that holds the config file the examples name
    (tmp_path / "run.cfg").write_text("seed = 7\nsamples_per_suite = 20\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OCTOWEAK_SEED", raising=False)
    for line in readme_block("## Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[:1] == ["octoweak"], f"not an octoweak command: {line!r}"
        assert main(argv[1:]) == 0, line


def _returns(node):
    # the return statements of a function, not of the functions nested in it
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Return):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _returns(child)


def twins(tree: ast.Module) -> list[str]:
    """The public functions of a module that have a rows twin: ``f`` beside
    ``f_rows``, an ``X_residual`` beside an ``X_rows`` with the same parameter
    names, or a function that returns ``single(K(...))`` for a public ``K`` ending
    in ``_rows``."""
    functions = {
        fn.name: fn
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    public = {name: [a.arg for a in fn.args.args] for name, fn in functions.items()}

    def wraps_rows(fn):
        calls = [r.value for r in _returns(fn) if isinstance(r.value, ast.Call)]
        inner = [c.args[0] for c in calls if ast.unparse(c.func) == "single" and c.args]
        kernels = [ast.unparse(c.func) for c in inner if isinstance(c, ast.Call)]
        return any(k.endswith("_rows") and k in public for k in kernels)

    return [
        name
        for name, params in sorted(public.items())
        if f"{name}_rows" in public
        or (name.endswith("_residual") and public.get(f"{name[:-9]}_rows") == params)
        or wraps_rows(functions[name])
    ]


def test_no_module_defines_a_function_and_its_rows_twin():
    # one function per operation: a public f takes a value or rows, and a name
    # ending in _rows takes rows only, so no module has both f and f_rows, nor
    # an X_residual or any other function that only wraps an X_rows
    found = []
    for path in sorted(Path(octoweak.__file__).parent.glob("*.py")):
        found += [f"{path.stem}.{name}" for name in twins(ast.parse(path.read_text()))]
    assert found == []


def test_the_twin_scan_reports_each_kind_of_twin():
    # an X_residual whose X_rows takes other parameters, such as a field's
    # residual beside the kernel on its values, is not a twin; a function that
    # returns single(X_rows(...)), however deep the return, is
    toy = (
        "def mul(x, y): pass\ndef mul_rows(x, y): pass\n"
        "def spin_residual(mu, nu): pass\ndef spin_rows(mu, nu): pass\n"
        "def field_residual(f, p): pass\ndef field_rows(values, grads): pass\n"
        "def field_at(f, p):\n    with f:\n        return single(field_rows(*f.jet(p)))\n"
    )
    assert twins(ast.parse(toy)) == ["field_at", "mul", "spin_residual"]
