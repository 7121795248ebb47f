"""Fault injection: every suite is shown able to FAIL.

``FAULTS`` is a table of faults, each an exact replacement of one text in one
module of ``octoweak``.  A fault that some suite sees lists the suites that
must FAIL under it.  A fault that no suite can see is a survivor: its row says
why, and names a test of ``tests/`` that fails under it.  One child process runs the
whole table: for each fault it re-imports the package from the patched source
and runs every suite at ``SAMPLES`` samples.  The module reloads stay in the
child, out of the other tests' way.

A change that adds a code path adds a fault row for it.

Run as a script, this file prints each fault's failing suites as JSON.
"""

import ast
import importlib
import importlib.abc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import octoweak
from octoweak.suites import suite_ids

#: The sample count of every sampled suite in the child; an exhaustive suite
#: checks its whole table whatever it is.
SAMPLES = 64

TESTS = Path(__file__).resolve().parent


class Fault(NamedTuple):
    """``old`` replaced by ``new`` in ``src/octoweak/<module>.py``.  ``fails`` names the
    suites that FAIL under it, space-separated; a survivor fails none, and gives why in
    ``survivor`` and, in ``killer``, a test of ``tests/`` that fails under it."""

    name: str
    module: str
    old: str
    new: str
    fails: str = ""
    survivor: str | None = None
    killer: str | None = None


# the reasons shared by several survivors
_ANY_INPUTS = "the identities hold on any inputs, so no suite sees which uniforms a sample reads"
_JETS = "the gauge identities are algebraic in the jet values, so consistent wrong jets pass"
_OUTSIDE = "it acts after the suites: on the configuration, the report or the exit code"
_ANY_U = "the gauge identities hold for any u, capped or not"
_ROWS = "test_rows.py::"
_CLI = "test_verifier.py::"
_REFERENCE = _ROWS + "test_batched_suite_matches_its_per_sample_reference"
_EXACT_ZERO = "test_the_exact_zero_membership_branch_gives_the_full_routes_defect_and_verdict"

FAULTS = [
    # ------------------------------------------------------------------ core
    Fault("triple", "core", "_TRIPLES = ((1, 2, 3),", "_TRIPLES = ((2, 1, 3),",
          "zvengrowski ab-identities gamma5 prop1-B prop4-dichotomy composition-law alternativity"),
    Fault("unit-col", "core", "sign[0] = sign[:, 0] = 1", "sign[0] = 1",
          "ip-moves zvengrowski ab-identities lorentz-algebra infinitesimal-dc double-cover "
          "rotation-unitarity prop1-A prop1-B prop2 prop3 prop4-dichotomy prop5 lemma4 "
          "composition-law alternativity"),
    Fault("conj1", "core", "np.array([1.0] + [-1.0] * 7)", "np.array([1.0, 1.0] + [-1.0] * 6)",
          "ip-moves zvengrowski ab-identities lorentz-algebra infinitesimal-dc double-cover "
          "rotation-unitarity gamma5 prop1-A prop1-B prop4-dichotomy"),
    Fault("bar-star-noconj", "core", "return np.conj(x) * _CONJ_SIGN", "return x * _CONJ_SIGN",
          "double-cover boost-selfconj prop1-B"),
    Fault("inner-conj", "core", "(x[..., None, :] @ y[..., :, None])",
          "(x[..., None, :] @ np.conj(y)[..., :, None])",
          "ip-moves zvengrowski double-cover prop1-A prop1-B prop2 composition-law"),
    Fault("abs-noconj", "core", "np.add.reduce((x.conj() * x).real", "np.add.reduce((x * x).real",
          "zvengrowski ab-identities grading-closure double-cover prop3 prop4-dichotomy prop5 "
          "composition-law alternativity"),
    Fault("left-index-transposed", "core", "_LEFT_INDEX = _gather_index(_TABLE.sign.T)",
          "_LEFT_INDEX = _gather_index(_TABLE.sign)", "prop1-A prop1-B"),
    Fault("sinc0", "core", "np.where(zero, 1, np.sin(om)", "np.where(zero, 0, np.sin(om)",
          survivor="no drawn rotation angle is exactly 0",
          killer=_ROWS + "test_cos_sinc_rows_matches_cmath_near_and_at_zero"),
    Fault("rowwise-rows", "core",
          "if any(isinstance(a, (np.ndarray, list, tuple)) for a in values):", "if False:",
          survivor="no suite passes a single value beside rows",
          killer=_ROWS + "test_a_single_value_among_rows_is_its_block_of_one"),
    Fault("single-list", "core", "return [single(o) for o in out]", "return out",
          survivor="no suite calls a family kernel on single values",
          killer="test_grading.py::test_ipmove_residuals"),
    Fault("exp-tail-skip", "core", "    if u[..., 4:].any():\n", "    if False:\n",
          survivor="every exponent a suite forms lies in the quaternionic subalgebra",
          killer="test_core.py::test_exp_assoc_rejects_complement_components"),
    # --------------------------------------------------------------- grading
    Fault("aminus-real", "grading", "SubspaceTag.A_MINUS: [(0, 1j),",
          "SubspaceTag.A_MINUS: [(0, 1.0),", "prop2"),
    Fault("membership-all", "grading", "ok = defect <= MEMBERSHIP_TOL\n",
          "ok = np.full(np.shape(defect), True)\n",
          survivor="every suite input is drawn inside its subspace",
          killer="test_fields.py::test_field_validation"),
    Fault("membership-zero-always", "grading", "    if not (real * _COMPLEMENT[tag]).any():\n",
          "    if True:\n", survivor="every suite input is drawn inside its subspace",
          killer=_ROWS + _EXACT_ZERO),
    Fault("membership-zero-nan", "grading", "    if not (real * _COMPLEMENT[tag]).any():\n",
          "    if not np.nan_to_num(real * _COMPLEMENT[tag]).any():\n",
          survivor="no suite input is inf or NaN", killer=_ROWS + _EXACT_ZERO),
    Fault("params-slots-reversed", "grading", ".view(np.float64)[..., _SLOTS[tag]]",
          ".view(np.float64)[..., _SLOTS[tag][::-1]]",
          survivor="the one field a suite builds from coefficients, the prop2 witness, "
          "stays above its floor with its parameters on other slots",
          killer="test_fields.py::test_a_tagged_coefficient_is_kept_as_its_projection"),
    Fault("exch4", "grading", "fourth = bb2_a - apply_right_rows(ab, by_b2)",
          "fourth = bb2_a - apply_right_rows(ba, by_b2)", "ab-identities"),
    # --------------------------------------------------------------- lorentz
    Fault("eta-inv", "lorentz", "return ETA @ np.swapaxes(lv, -1, -2) @ ETA",
          "return np.swapaxes(lv, -1, -2)", "prop1-A prop1-B"),
    Fault("null-f2", "lorentz", "np.where(null, 0.5,", "np.where(null, 0.4,",
          survivor="no drawn parameter matrix is a null rotation",
          killer="test_lorentz.py::test_lambda_V_of_a_null_rotation_is_the_cubic_polynomial"),
    Fault("s-rows-transposed", "lorentz",
          "_S_ROWS = np.array([[s_gen(mu, nu).c for nu in range(4)] for mu in range(4)])",
          "_S_ROWS = np.array([[s_gen(mu, nu).c for mu in range(4)] for nu in range(4)])",
          "lorentz-algebra infinitesimal-dc double-cover prop1-A prop1-B"),
    Fault("v-rows-transposed", "lorentz",
          "_V_ROWS = np.array([[v_gen(mu, nu) for nu in range(4)] for mu in range(4)])",
          "_V_ROWS = np.array([[v_gen(mu, nu) for mu in range(4)] for nu in range(4)])",
          "infinitesimal-dc double-cover prop1-A prop1-B"),
    Fault("sinc-series", "lorentz", "range(17, 1, -2)", "range(17, 3, -2)",
          "double-cover prop1-A prop1-B"),
    Fault("ebar-diag", "lorentz", "_EBAR_UPPER_DIAG = np.diagonal(EBAR_UPPER_ROWS).copy()\n",
          "_EBAR_UPPER_DIAG = np.diagonal(EBAR_UPPER_ROWS).copy()\n_EBAR_UPPER_DIAG[0] *= -1\n",
          "infinitesimal-dc double-cover"),
    # ---------------------------------------------------------------- fields
    Fault("factors", "fields", "    monos *= factors\n", "", survivor=_JETS,
          killer="test_fields.py::test_invariance_residual_matches_the_symbolic_pullback"),
    Fault("power-from-x", "fields", "np.multiply(table[..., k - 1], points,",
          "np.multiply(table[..., 1], points,",
          survivor="at the default field degree 2, x * x is the only power formed by a product",
          killer=_ROWS + "test_the_power_table_is_the_running_product_within_a_ceiling_in_ulp"),
    Fault("dexp-taylor", "fields", "z * (1 / 30 -", "z * (1 / 31 -",
          survivor="the changed term is under 1e-5 of the factor, on the few rows that reach it",
          killer="test_fields.py::test_dexp_closed_form_matches_series_oracle"),
    Fault("dexp-scale-1e-9", "fields", "        )\n    return out\n",
          "        )\n    return out * (1 + 1e-9)\n",
          survivor="prop5, lemma3 and lemma4 stay under 1e-8, and prop3 cancels a scale on dexp",
          killer="test_gauge.py::test_transport_rows_matches_the_series_route"),
    Fault("tagcheck", "fields", '        require_member(coeffs, tag, "a coefficient")\n', "",
          survivor="the one tagged PolyField a suite builds, the prop2 witness, is in its subspace",
          killer="test_fields.py::test_field_validation"),
    Fault("complex-multiple-keeps-tag", "fields",
          "tag = self.tag if self.tag in (SubspaceTag.A, SubspaceTag.B) else",
          "tag = self.tag if True else",
          survivor="no suite multiplies a field by a scalar",
          killer="test_fields.py::test_field_algebra_and_tag_propagation"),
    # ----------------------------------------------------------------- gauge
    Fault("transport-sign", "gauge", "- apply_right_rows(dexp_rows(u, du), by_u_inv))",
          "+ apply_right_rows(dexp_rows(u, du), by_u_inv))", "prop3 prop5 lemma4"),
    Fault("transport-1e-9", "gauge", "- apply_right_rows(dexp_rows(u, du), by_u_inv))",
          "- apply_right_rows(dexp_rows(u, du), by_u_inv) + 1e-9 * du)",
          survivor="prop3 stays under its 1e-8 tolerance",
          killer="test_gauge.py::test_transport_rows_matches_the_series_route"),
    Fault("covbeta-half", "gauge", "return db + (r * w[..., :1]) * b",
          "return db + (0.5 * r * w[..., :1]) * b", "prop5"),
    Fault("covbeta-slot1", "gauge", "return db + (r * w[..., :1]) * b",
          "return db + (r * w[..., 1:2]) * b", "prop5"),
    # ---------------------------------------------------------- suite inputs
    Fault("gather-rho", "suites", "np.stack([0 * rho, rho + 1], -1)",
          "np.stack([0 * rho, rho], -1)", survivor=_JETS, killer=_REFERENCE),
    Fault("cap-drop", "suites",
          "np.where(mag > GAUGE_PARAM_VALUE_CAP, GAUGE_PARAM_VALUE_CAP / mag, 1.0)",
          "np.ones_like(mag)", survivor=_ANY_U, killer=_REFERENCE),
    Fault("cap-0.5", "suites", "GAUGE_PARAM_VALUE_CAP = 0.9", "GAUGE_PARAM_VALUE_CAP = 0.5",
          survivor=_ANY_U, killer=_REFERENCE),
    Fault("w-tag", "suites", "jets(SubspaceTag.A_MINUS, table, w[",
          "jets(SubspaceTag.A_PLUS, table, w[", "prop3 prop5 lemma4"),
    Fault("u-tag", "suites", "jets(SubspaceTag.A_MINUS, u_table, u)",
          "jets(SubspaceTag.A_PLUS, u_table, u)", "prop3 prop5 lemma3 lemma4"),
    Fault("u-cols", "suites", ".sum(axis=1) <= 2]", ".sum(axis=1) <= 1]",
          "prop3 prop5 lemma3 lemma4"),
    # --------------------------------------------------------- stream reader
    Fault("int-clip", "suites", "v = np.minimum(np.floor(v), x.high - 1)", "v = np.floor(v)",
          survivor="a uniform rounds up to its high bound on few draws",
          killer=_ROWS + "test_an_integer_input_never_reads_its_high_bound"),
    Fault("layout-prev-bounds", "suites", "    sizes = [math.prod(x.shape) for x in inputs]\n",
          "    sizes = [math.prod(x.shape) for x in inputs]\n"
          "    inputs = inputs[:1] + inputs[:-1]\n",
          survivor=_ANY_INPUTS,
          killer=_ROWS + "test_read_block_reads_the_stream_as_one_draw_per_input_and_sample"),
    Fault("int-after-uniforms", "suites", "v = raw[:, span]",
          "v = raw[:, slice(-1, None) if x.integer else span]", survivor=_ANY_INPUTS,
          killer=_ROWS + "test_read_block_reads_the_stream_as_one_draw_per_input_and_sample"),
    Fault("span-off-by-one", "suites", "slice(stop - k, stop)",
          "slice(stop - k - (stop > k), stop - (stop > k))", survivor=_ANY_INPUTS,
          killer=_ROWS + "test_read_block_on_tagged_elements_equals_draw_block"),
    Fault("full-view-conj", "suites", "v = v.view(np.complex128)",
          "v = v.view(np.complex128).conj()", survivor=_ANY_INPUTS,
          killer=_REFERENCE),
    Fault("block-writeable", "suites", "    raw.flags.writeable = False\n", "",
          survivor="no kernel writes into its inputs",
          killer=_ROWS + "test_a_block_is_read_only_once_scaled"),
    Fault("block-rows-over", "suites", "BLOCK_DRAWS // len(_layout(inputs)[0]))",
          "BLOCK_DRAWS // len(_layout(inputs)[0]) + 1)", survivor=_ANY_INPUTS,
          killer=_ROWS + "test_a_block_reads_at_least_one_row_and_at_most_block_rows"),
    Fault("second-random-call", "suites", "raw = rng.random((m, len(low)))",
          "raw = np.concatenate([rng.random((m, 1)), rng.random((m, len(low) - 1))], axis=1)",
          survivor=_ANY_INPUTS,
          killer=_ROWS + "test_read_block_calls_the_generator_once_per_block"),
    # -------------------------------------------------- verdicts and reports
    Fault("witness-ge", "suites", "sdef.witness() > NEG_CONTROL_MIN",
          "sdef.witness() >= NEG_CONTROL_MIN", survivor="both witnesses lie far above the floor",
          killer=_CLI + "test_a_witness_under_its_floor_fails_the_suite"),
    Fault("witness-drop", "suites",
          "return residuals, sdef.witness is None or sdef.witness() > NEG_CONTROL_MIN",
          "return residuals, True", survivor="both witnesses lie far above the floor",
          killer=_CLI + "test_a_witness_under_its_floor_fails_the_suite"),
    Fault("seed-check", "suites",
          '        if self.seed < 0:\n            raise ValueError("seed must be >= 0")\n', "",
          survivor=_OUTSIDE,
          killer=_CLI + "test_config_rejects_negative_seeds_and_non_finite_bounds"),
    Fault("exit-inverted", "suites", "(0 if all(r.passed for r in reports) else 1)",
          "(1 if all(r.passed for r in reports) else 0)", survivor=_OUTSIDE,
          killer=_CLI + "test_cli_failing_run_exit_code"),
    Fault("json-nan-float", "suites", "    if math.isfinite(x):\n        return x\n",
          "    return x\n", survivor=_OUTSIDE,
          killer=_CLI + "test_json_report_encodes_each_non_finite_residual_as_a_string"),
    Fault("json-elapsed", "suites", '            "passed": r.passed,\n        }',
          '            "passed": r.passed,\n            "elapsed_ms": r.elapsed_ms,\n        }',
          survivor=_OUTSIDE, killer=_CLI + "test_json_report_is_byte_identical_across_runs"),
    Fault("malloc-policy-off", "suites", "    _keep_block_memory()\n", "",
          survivor="the malloc policy decides where freed memory goes, not a bit of a result",
          killer="test_block_memory.py::test_warm_field_passes_fault_no_block_memory_back_in"),
    Fault("cannot-write-1", "cli", 'parser.exit(2, f"{parser.prog}: error: cannot write report',
          'parser.exit(1, f"{parser.prog}: error: cannot write report', survivor=_OUTSIDE,
          killer=_CLI + "test_cli_report_write_failure_is_one_error_line"),
]


# ------------------------------------------------------------------- child


class _Source(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Imports ``octoweak`` and its modules from the code objects in ``code``, by module name."""

    def __init__(self, root: Path):
        self.root, self.code = root, {}

    def find_spec(self, name, path=None, target=None):
        package, _, module = name.partition(".")
        if package != "octoweak":
            return None
        origin = self.root / f"{module or '__init__'}.py"
        search = [str(self.root)] if not module else None
        return importlib.util.spec_from_file_location(
            name, origin, loader=self, submodule_search_locations=search)

    def exec_module(self, module):
        exec(self.code[Path(module.__spec__.origin).stem], module.__dict__)


def failing_suites() -> dict:
    """Each fault's failing suite ids, by fault name, and the unpatched package's under
    "unpatched"; an error that escapes a run is reported as its text."""
    root = Path(octoweak.__file__).parent
    text = {path.stem: path.read_text() for path in root.glob("*.py")}
    clean = {stem: compile(src, str(root / f"{stem}.py"), "exec") for stem, src in text.items()}
    finder = _Source(root)
    sys.meta_path.insert(0, finder)
    out = {}
    for fault in [None, *FAULTS]:
        finder.code = dict(clean)
        if fault is not None:
            patched = text[fault.module].replace(fault.old, fault.new, 1)
            finder.code[fault.module] = compile(patched, str(root / f"{fault.module}.py"), "exec")
        for name in [n for n in sys.modules if n.partition(".")[0] == "octoweak"]:
            del sys.modules[name]
        try:
            suites = importlib.import_module("octoweak.suites")
            reports, _ = suites.run_all(suites.SuiteConfig(samples_per_suite=SAMPLES))
            found = [r.suite_id for r in reports if not r.passed]
        except Exception as exc:  # whatever a fault raises is that fault's result
            found = f"{type(exc).__name__}: {exc}"
        out[fault.name if fault else "unpatched"] = found
    return out


# ------------------------------------------------------------------ checks


def test_each_fault_fails_exactly_its_suites_and_every_suite_fails_under_one():
    root = Path(octoweak.__file__).parent
    names = [f.name for f in FAULTS]
    assert len(set(names)) == len(names)
    for fault in FAULTS:
        # an old text that the source no longer holds, or holds twice, fails here
        assert (root / f"{fault.module}.py").read_text().count(fault.old) == 1, fault.name
        assert (fault.survivor is None) == bool(fault.fails), fault.name
        assert set(fault.fails.split()) <= set(suite_ids()), fault.name
    # each survivor's killing test exists
    defined = {
        f"{path.name}::{node.name}"
        for path in TESTS.glob("test_*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    for fault in FAULTS:
        if fault.survivor is not None:
            assert fault.killer in defined, fault.name

    env = dict(os.environ, PYTHONPATH=str(root.parent))
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    found = json.loads(run.stdout)
    assert found.pop("unpatched") == []
    assert found == {f.name: f.fails.split() for f in FAULTS}
    assert {sid for f in FAULTS for sid in f.fails.split()} == set(suite_ids())


if __name__ == "__main__":
    json.dump(failing_suites(), sys.stdout)
