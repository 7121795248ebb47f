"""The traced part of a benchmark run: per-layer counts, self times and per-call costs.

One extra verification pass runs under cProfile; ``layers.py`` turns its
statistics into per-layer metrics.  Per-call costs are then timed with the
profiler off, on inputs drawn the way the workload's suites draw them.
"""

from __future__ import annotations

import cProfile
import time
from pathlib import Path
from statistics import median

import numpy as np

import octoweak
from octoweak import cli, core, fields, gauge, grading, lorentz, suites
from octoweak.grading import SubspaceTag
from octoweak.lorentz import Theta

from layers import LayerMap, LayerProfile, errors_by_layer

#: metric prefix -> the functions whose calls it counts, by dotted name under
#: octoweak.  ``gauge.residual`` is the four covariance residuals of the
#: gauge suites.
COUNTED = {
    "core.mul": ("core.mul",),
    "core.exp_assoc": ("core.exp_assoc",),
    "grading.draw": ("grading.draw",),
    "grading.in_subspace": ("grading.in_subspace",),
    "lorentz.lambda_S": ("lorentz.lambda_S",),
    "lorentz.lambda_V": ("lorentz.lambda_V",),
    "fields.pullback_linear": ("fields.pullback_linear",),
    "fields.partial": ("fields.partial",),
    "fields.eval_at": ("fields.eval_at",),
    "fields.random_field": ("fields.random_field",),
    "fields.dexp_at": ("fields.dexp_at",),
    "gauge.residual": (
        "gauge.covariance_residual_alpha",
        "gauge.covariance_residual_beta",
        "gauge.scal_der_u_residual",
        "gauge.scal_ww_residual",
    ),
    "suites.run_suite": ("suites.run_suite",),
}

#: Every algebra value is built by one of these two.
VALUE_CONSTRUCTORS = ("core.CplxOcton._wrap", "core.CplxOcton.__init__")

#: Untraced seconds spent timing each function, in interleaved rounds.
TIMING_BUDGET_S = 0.25


def resolve(*names: str) -> list:
    """The Python functions with these dotted names under octoweak.

    A name that no longer leads to a Python function is left out, so a
    function moved out of the library reads as zero calls.
    """
    out = []
    for name in names:
        obj = octoweak
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if hasattr(getattr(obj, "__func__", obj), "__code__"):
            out.append(obj)
    return out


# ------------------------------------------------------------ call inputs
# Each builder returns (function, args) pairs drawn like the suites draw them.

def _point(rng):
    return rng.uniform(-1.0, 1.0, 4)


def _gauge_param(rng, cfg, at):
    """As the gauge suites draw it: bounded A- field, value capped at ``at``."""
    u = fields.random_field(rng, min(2, cfg.field_degree), SubspaceTag.A_MINUS,
                            suites.GAUGE_PARAM_BOUND)
    m = abs(fields.eval_at(u, at))
    return u * (suites.GAUGE_PARAM_VALUE_CAP / m) if m > suites.GAUGE_PARAM_VALUE_CAP else u


def _connection(rng, cfg):
    return gauge.ConnectionField(
        [fields.random_field(rng, cfg.field_degree, SubspaceTag.A_MINUS) for _ in range(4)]
    )


def _theta_bound(cfg):
    # double-cover draws at the configured bound; prop1 at its own
    return cfg.theta_bound if "double-cover" in cfg.suites else suites.PROP1_THETA_BOUND


def _mul_inputs(rng, cfg):
    full = SubspaceTag.FULL_CO
    return [(core.mul, (grading.draw(full, rng), grading.draw(full, rng))) for _ in range(64)]


def _exp_inputs(rng, cfg):
    return [(core.exp_assoc, (grading.draw(SubspaceTag.A, rng),)) for _ in range(64)]


def _draw_inputs(rng, cfg):
    return [(grading.draw, (tag, rng)) for tag in SubspaceTag for _ in range(8)]


def _lambda_inputs(name):
    def build(rng, cfg):
        fn = getattr(lorentz, name)
        return [(fn, (Theta.random(rng, _theta_bound(cfg)),)) for _ in range(32)]
    return build


def _field(rng, cfg, i):
    tag = SubspaceTag.A if i % 2 == 0 else SubspaceTag.B
    return fields.random_field(rng, cfg.field_degree, tag)


def _pullback_inputs(rng, cfg):
    out = []
    for i in range(8):
        lv = lorentz.lambda_V_real(Theta.random(rng, suites.PROP1_THETA_BOUND))
        out.append((fields.pullback_linear, (_field(rng, cfg, i), lorentz.eta_inverse_transform(lv))))
    return out


def _partial_inputs(rng, cfg):
    return [(fields.partial, (_field(rng, cfg, i), i % 4)) for i in range(16)]


def _eval_inputs(rng, cfg):
    return [(fields.eval_at, (_field(rng, cfg, i), _point(rng))) for i in range(16)]


def _random_field_inputs(rng, cfg):
    tags = (SubspaceTag.A, SubspaceTag.B, SubspaceTag.A_MINUS)
    return [(fields.random_field, (rng, cfg.field_degree, tags[i % 3])) for i in range(6)]


def _dexp_inputs(rng, cfg):
    out = []
    for i in range(16):
        p = _point(rng)
        out.append((fields.dexp_at, (_gauge_param(rng, cfg, p), i % 4, p)))
    return out


def _gauge_inputs(rng, cfg):
    out = []
    for i in range(4):
        p = _point(rng)
        u = _gauge_param(rng, cfg, p)
        w = _connection(rng, cfg)
        rho = i % 4
        alpha = fields.random_field(rng, cfg.field_degree, SubspaceTag.A)
        beta = fields.random_field(rng, cfg.field_degree, SubspaceTag.B)
        out += [
            (gauge.covariance_residual_alpha, (alpha, w, u, rho, p)),
            (gauge.covariance_residual_beta, (beta, w, u, rho, p, float(rng.uniform(0.25, 1.5)))),
            (gauge.scal_der_u_residual, (u, rho, p)),
            (gauge.scal_ww_residual, (w, u, rho, p)),
        ]
    return out


TIMED = {
    "core.mul": _mul_inputs,
    "core.exp_assoc": _exp_inputs,
    "grading.draw": _draw_inputs,
    "lorentz.lambda_S": _lambda_inputs("lambda_S"),
    "lorentz.lambda_V": _lambda_inputs("lambda_V"),
    "fields.pullback_linear": _pullback_inputs,
    "fields.partial": _partial_inputs,
    "fields.eval_at": _eval_inputs,
    "fields.random_field": _random_field_inputs,
    "fields.dexp_at": _dexp_inputs,
    "gauge.residual": _gauge_inputs,
}


def us_per_call(cases: dict[str, list]) -> dict[str, float]:
    """Median over rounds of the mean time per call, for each named input list.

    The rounds take the functions in turn, so a slow spell of the machine
    falls on all of them alike instead of on whichever was being timed.
    """
    rounds: dict[str, list[float]] = {name: [] for name in cases}
    start = time.perf_counter()
    budget = TIMING_BUDGET_S * len(cases)
    while min(map(len, rounds.values()), default=5) < 5 or time.perf_counter() - start < budget:
        for name, calls in cases.items():
            t = time.perf_counter()
            for fn, args in calls:
                fn(*args)
            rounds[name].append((time.perf_counter() - t) / len(calls))
    return {name: median(times) * 1e6 for name, times in rounds.items()}


# ------------------------------------------------------------ traced pass

def trace_run(cfg, argv: list[str], untraced: dict, run_pass) -> dict:
    """Profile one more pass of the workload and time the named functions.

    ``untraced`` is the summary of the untraced passes of the same run.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    traced_cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    result = run_pass(traced_cfg)
    profiler.disable()

    layer_map = LayerMap(Path(octoweak.__file__).parent)
    prof = LayerProfile(profiler, layer_map)
    metrics: dict[str, float] = {}
    for layer, sec in prof.self_seconds().items():
        metrics[f"{layer}.self_s"] = sec
    for layer, count in errors_by_layer(result["crashes"].values(), layer_map).items():
        metrics[f"{layer}.errors"] = count
    for name, fns in COUNTED.items():
        metrics[f"{name}.calls"] = prof.calls(*resolve(*fns))

    samples = sum(r.samples for r in result["reports"])
    values = prof.calls(*resolve(*VALUE_CONSTRUCTORS))
    metrics["core.values_allocated"] = values
    metrics["core.values_per_sample"] = values / samples if samples else 0.0
    draws = metrics["grading.draw.calls"]
    metrics["grading.checks_per_draw"] = metrics["grading.in_subspace.calls"] / draws if draws else 0.0
    metrics["fields.polyfields_built"] = prof.calls(*resolve("fields.PolyField.__init__"))

    rng = np.random.default_rng([int(cfg.seed), 0x7E57])
    called = {name: build(rng, cfg) for name, build in TIMED.items() if metrics[f"{name}.calls"]}
    timed = us_per_call(called) if called else {}
    for name in TIMED:
        metrics[f"{name}.us_per_call"] = timed.get(name, 0.0)

    traced_verify_s = sum(result["suite_s"].values()) + result["render_s"]
    metrics["trace_overhead"] = traced_verify_s / untraced["verify_s"]
    for fam, sec in untraced["family_s"].items():
        metrics[f"{fam}_s"] = sec
    metrics["failed_frac"] = untraced["failed_frac"]

    callers = {name: prof.calls_by_caller_layer(*resolve(*fns)) for name, fns in COUNTED.items()}
    return {"metrics": metrics, "traced_verify_s": traced_verify_s, "calls_by_caller_layer": callers,
            "deterministic": result["text"] == untraced["text"]}
