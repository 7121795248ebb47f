"""Correctness gate for octoweak JSON reports.

Pure standard library, so the benchmark can check a report without trusting
the code that wrote it.  A suite row is *broken* when its report is not
strict RFC 8259 JSON, a residual is missing, not a number or not finite, or
its verdict is FAIL.  The one FAIL that is not treated as broken is the
recorded degree-3 precision finding of prop1 (see README.md); it still counts
in ``failed_frac``.
"""

from __future__ import annotations

import json
import math

RESIDUAL_KEYS = ("max_residual", "mean_residual")

#: Suites whose Lorentz-invariance residual loses precision as the field
#: degree grows (cancellation in the symbolic pullback).
PRECISION_SUITES = ("prop1-A", "prop1-B")

#: A FAIL of a precision suite at degree >= 3 is the recorded finding only
#: while its residual stays under this ceiling; the worst seen is 4.0e-9.
#: Anything larger is a broken computation, not lost digits.
PRECISION_CEILING = 1e-6


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def parse_strict(text: str):
    """Parse JSON, rejecting the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def row_problems(row: dict) -> list[str]:
    """Reasons a parsed suite row cannot be trusted, or that it failed."""
    problems = []
    for key in RESIDUAL_KEYS:
        val = row.get(key)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            problems.append(f"{key} is not a number: {val!r}")
        elif not math.isfinite(val):
            problems.append(f"{key} is not finite: {val!r}")
    if row.get("passed") is not True:
        problems.append("verdict FAIL")
    return problems


def check_report(text: str) -> dict[str, list[str]]:
    """Map each suite id in a rendered report to its problems (empty if fine).

    A report that is not strict JSON, or has no suite rows, maps the key
    ``"<report>"`` to the reason.
    """
    try:
        payload = parse_strict(text)
        rows = payload["suites"]
    except (ValueError, KeyError, TypeError) as exc:
        return {"<report>": [f"report is not strict JSON: {exc}"]}
    if not isinstance(rows, list) or not rows or not all(isinstance(r, dict) for r in rows):
        return {"<report>": ["report has no list of suite rows"]}
    return {row.get("suite_id", "<unnamed>"): row_problems(row) for row in rows}


def is_precision_finding(
    suite_id: str, field_degree: int, max_residual: float, problems: list[str]
) -> bool:
    """True when the only problem is the recorded prop1 degree-3 precision loss."""
    return (
        problems == ["verdict FAIL"]
        and suite_id in PRECISION_SUITES
        and field_degree >= 3
        and max_residual < PRECISION_CEILING
    )
