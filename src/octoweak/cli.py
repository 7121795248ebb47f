"""Command line front end for the verification harness.

Precedence of the run configuration, lowest to highest: built-in
defaults, the OCTOWEAK_SEED environment variable (seed only), the
``--config`` key-value file, then explicit command line flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .core import structure_table
from .errors import UnknownSuite
from .suites import SuiteConfig, render_json, render_text, run_all, suite_ids

ENV_SEED = "OCTOWEAK_SEED"

_INT_KEYS = {"seed", "samples_per_suite", "field_degree"}
_FLOAT_KEYS = {"tol_exact", "tol_series", "theta_bound"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file mirroring the SuiteConfig fields.

    ``key: value`` is accepted too: a line splits at its first ``=``, or at
    its first ``:`` if it has no ``=``.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, _, val = line.partition(sep)
                    break
            else:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            val = val.strip()
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key == "suites":
                values[key] = tuple(s.strip() for s in val.split(",") if s.strip())
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octoweak",
        description="Run the octonion identity verification suites.",
    )
    parser.add_argument("--config", metavar="PATH", help="key-value config file")
    parser.add_argument("--seed", type=int, help="RNG seed for all suites")
    parser.add_argument(
        "--samples", type=int, help="override the per-suite sample counts"
    )
    parser.add_argument("--tol-exact", type=float, help="tolerance for exact identities")
    parser.add_argument(
        "--tol-series", type=float, help="base tolerance for series-backed checks"
    )
    parser.add_argument(
        "--theta-bound", type=float, help="bound of the drawn Lorentz parameters"
    )
    parser.add_argument(
        "--field-degree", type=int, help="total degree of the random polynomial fields"
    )
    parser.add_argument(
        "--suite",
        action="append",
        metavar="ID",
        help="run only this suite (repeatable)",
    )
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--list-suites", action="store_true", help="print suite ids and exit")
    parser.add_argument(
        "--dump-table",
        action="store_true",
        help="print the 8x8 basis product table and exit",
    )
    return parser


def resolve_config(args: argparse.Namespace) -> SuiteConfig:
    values: dict = {}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        values["seed"] = int(env_seed)
    if args.config:
        values.update(parse_config_file(args.config))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.samples is not None:
        values["samples_per_suite"] = args.samples
    if args.tol_exact is not None:
        values["tol_exact"] = args.tol_exact
    if args.tol_series is not None:
        values["tol_series"] = args.tol_series
    if args.theta_bound is not None:
        values["theta_bound"] = args.theta_bound
    if args.field_degree is not None:
        values["field_degree"] = args.field_degree
    if args.suite:
        values["suites"] = tuple(args.suite)
    return SuiteConfig(**values)


def _cannot_write(parser: argparse.ArgumentParser, reason) -> None:
    """Exit 2 with one error line: the report could not be written."""
    parser.exit(2, f"{parser.prog}: error: cannot write report: {reason}\n")


def _stdout(parser: argparse.ArgumentParser):
    if sys.stdout is None:  # started with its standard output closed
        _cannot_write(parser, "standard output is closed")
    return sys.stdout


def _write(parser: argparse.ArgumentParser, out, text: str) -> None:
    """Write text to out, closing out unless it is standard output, or exit 2 with
    one error line."""
    try:
        # flushed here, so that a full device fails now and not at exit
        with out if out is not sys.stdout else nullcontext(out):
            out.write(text)
            out.flush()
    except OSError as exc:
        _cannot_write(parser, exc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_suites:
        _write(parser, _stdout(parser), "\n".join(suite_ids()) + "\n")
        return 0
    if args.dump_table:
        _write(parser, _stdout(parser), structure_table().format() + "\n")
        return 0

    try:
        cfg = resolve_config(args)
    except (UnknownSuite, ValueError, OSError) as exc:
        parser.error(str(exc))
    try:
        # opened before the run, so that a path that cannot be written ends
        # in a usage error before any suite runs
        out = open(args.out, "w", encoding="utf-8") if args.out else _stdout(parser)
    except OSError as exc:
        parser.error(f"cannot write report: {exc}")

    reports, code = run_all(cfg)
    render = render_json if args.report == "json" else render_text
    _write(parser, out, render(reports, cfg))
    if args.out:
        _write(parser, _stdout(parser), f"report written to {args.out}; exit code {code}\n")
    return code


def entry() -> None:
    raise SystemExit(main())
