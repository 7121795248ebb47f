"""Command line front end for the verification harness.

Each settable :class:`SuiteConfig` field but ``suites`` is declared once, in ``_SETTINGS``,
which the flags, the config-file keys and their merge are read from.  Precedence, lowest to
highest: built-in defaults, the OCTOWEAK_SEED environment variable (seed only), the
``--config`` key-value file, then explicit command line flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from contextlib import nullcontext

from .core import structure_table
from .errors import UnknownSuite
from .suites import SuiteConfig, render_json, render_text, run_all, suite_ids


#: A setting's flag, the type its value is read as (from the flag, the config file or the
#: environment), its help text and the environment variable, if any, that sets it below the file.
_Setting = namedtuple("_Setting", "flag kind help env", defaults=(None,))

#: Every settable SuiteConfig field but ``suites``, under its config-file key.
_SETTINGS = {
    "seed": _Setting("--seed", int, "RNG seed for all suites", "OCTOWEAK_SEED"),
    "samples_per_suite": _Setting("--samples", int, "override the per-suite sample counts"),
    "tol_exact": _Setting("--tol-exact", float, "tolerance for exact identities"),
    "tol_series": _Setting("--tol-series", float, "base tolerance for series-backed checks"),
    "theta_bound": _Setting("--theta-bound", float, "bound of the drawn Lorentz parameters"),
    "field_degree": _Setting(
        "--field-degree", int, "total degree of the random polynomial fields"
    ),
}


def _read(setting: _Setting, value: str, source: str):
    """value read as the setting's type, or a ValueError, worded as argparse's, naming source."""
    try:
        return setting.kind(value)
    except ValueError:
        raise ValueError(f"{source}: invalid {setting.kind.__name__} value: {value!r}") from None


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
            key, found, val = line.partition("=" if "=" in line else ":")
            if not found:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = key.strip(), val.strip()
            if key in _SETTINGS:
                values[key] = _read(_SETTINGS[key], val, f"{path}:{lineno}: {key}")
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
    for field, setting in _SETTINGS.items():
        metavar = setting.flag[2:].replace("-", "_").upper()  # argparse's own, from the flag
        parser.add_argument(setting.flag, dest=field, type=setting.kind, metavar=metavar,
                            help=setting.help)
    parser.add_argument("--suite", action="append", dest="suites", metavar="ID",
                        help="run only this suite (repeatable)")
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
    values = {field: _read(setting, os.environ[setting.env], setting.env)
              for field, setting in _SETTINGS.items() if setting.env and setting.env in os.environ}
    if args.config:
        values.update(parse_config_file(args.config))
    values.update({field: getattr(args, field) for field in _SETTINGS
                   if getattr(args, field) is not None})
    if args.suites:
        values["suites"] = tuple(args.suites)
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
        if out is sys.stdout:
            _drop_buffered(out)
        _cannot_write(parser, exc)


def _drop_buffered(out) -> None:
    """Point standard output's descriptor at devnull, so that the text a failed flush left
    in its buffer is written there at exit, and does not fail again (exit code 120).  A
    stream with no descriptor is left as it is."""
    try:
        fd = out.fileno()
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


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
