"""Registry of verification suites and the batch runner.

Each suite sweeps one identity family with a deterministic RNG stream
derived from (config seed, suite id), collects residuals, and passes when
the largest one stays under the suite's tolerance.  Two suites also carry
a fixed negative-control witness whose residual must *exceed* a floor;
those inverted checks guard the only-if halves of the claims.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, fields as dc_fields
from typing import Callable

import numpy as np

from .core import E, ONE, associator, bar_star, mul, norm
from .errors import UnknownSuite
from .fields import PolyField, eval_at, lorentz_invariance_residual, random_field
from .gauge import (
    ConnectionField,
    covariance_residual_alpha,
    covariance_residual_beta,
    general_coupling_residual,
    global_alpha_invariance_residual,
    scal_der_u_residual,
    scal_ww_residual,
)
from .grading import (
    AB_CLOSURE,
    IPMoveForm,
    SubspaceTag,
    draw,
    membership_defect,
    residual_ab,
    residual_aab,
    residual_abb,
    residual_abba,
    residual_baa,
    residual_bba,
    residual_ipmove,
    residual_zvengrowski,
)
from .lorentz import (
    Theta,
    double_cover_residual,
    gamma5_analogue,
    infinitesimal_dc_residual,
    lambda_S,
    lorentz_algebra_residual,
)

#: Negative-control witnesses must exceed this residual floor.
NEG_CONTROL_MIN = 1e-3

#: Rotation parameter bound for the Lorentz-invariance sweeps.
PROP1_THETA_BOUND = 1.5

#: Coefficient bound and value cap for local gauge parameters.  They fix how
#: the gauge suites, the acceptance criteria and the benchmark draw u; the
#: closed-form derivative of exp(u) itself needs no cap.
GAUGE_PARAM_BOUND = 0.5
GAUGE_PARAM_VALUE_CAP = 0.9


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs of a verification run.

    ``samples_per_suite=None`` leaves every suite at its registered draw
    count; a positive value overrides all of them.  Exhaustive suites
    ignore the sample count either way.
    """

    seed: int = 12345
    samples_per_suite: int | None = None
    tol_exact: float = 1e-12
    tol_series: float = 1e-8
    theta_bound: float = 2.0
    field_degree: int = 2
    suites: tuple[str, ...] = ()

    def __post_init__(self):
        if self.samples_per_suite is not None and self.samples_per_suite < 1:
            raise ValueError("samples_per_suite must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not all(0 < t < math.inf for t in (self.tol_exact, self.tol_series)):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.theta_bound < math.inf:
            raise ValueError("theta_bound must be positive and finite")
        if self.field_degree < 0:
            raise ValueError("field_degree must be >= 0")
        known = set(_REGISTRY)
        unknown = [s for s in self.suites if s not in known]
        if unknown:
            raise UnknownSuite(f"unknown suite id(s): {', '.join(unknown)}")
        if not self.suites:
            object.__setattr__(self, "suites", tuple(_REGISTRY))

    def suite_tolerance(self, suite_id: str) -> float:
        return _lookup(suite_id).tolerance(self)


@dataclass(frozen=True)
class SuiteReport:
    suite_id: str
    samples: int
    max_residual: float
    mean_residual: float
    passed: bool
    elapsed_ms: int


@dataclass(frozen=True)
class _SuiteDef:
    suite_id: str
    default_samples: int
    tolerance: Callable[[SuiteConfig], float]
    runner: Callable[[SuiteConfig, int, np.random.Generator], tuple[list[float], bool]]
    exhaustive: bool = False


def _exact(factor: float = 1.0):
    return lambda cfg: cfg.tol_exact * factor


def _series(factor: float = 1.0):
    return lambda cfg: cfg.tol_series * factor


def _fixed(value: float):
    return lambda cfg: value


def _rng_for(cfg: SuiteConfig, suite_id: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(suite_id.encode())])


def _full(rng):
    return draw(SubspaceTag.FULL_CO, rng)


# ---------------------------------------------------------------- runners

def _run_composition(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y = _full(rng), _full(rng)
        scale = max(1.0, abs(x) ** 2 * abs(y) ** 2)
        res.append(abs(norm(mul(x, y)) - norm(x) * norm(y)) / scale)
    return res, True


def _run_alternativity(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y = _full(rng), _full(rng)
        res.append(max(abs(associator(x, x, y)), abs(associator(x, y, y))))
    return res, True


def _run_ip_moves(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y, z = _full(rng), _full(rng), _full(rng)
        res.append(max(abs(residual_ipmove(f, x, y, z)) for f in IPMoveForm))
    return res, True


def _run_zvengrowski(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y, z = _full(rng), _full(rng), _full(rng)
        res.append(abs(residual_zvengrowski(x, y, z)))
    return res, True


def _run_ab_identities(cfg, n, rng):
    res = []
    for _ in range(n):
        a, a2 = draw(SubspaceTag.A, rng), draw(SubspaceTag.A, rng)
        b, b2 = draw(SubspaceTag.B, rng), draw(SubspaceTag.B, rng)
        res.append(
            max(
                abs(residual_ab(a, b)),
                abs(residual_aab(a, a2, b)),
                abs(residual_baa(a, a2, b)),
                abs(residual_bba(a, b, b2)),
                abs(residual_abb(a, b, b2)),
                abs(residual_abba(a, a2, b, b2)),
            )
        )
    return res, True


def _run_grading_closure(cfg, n, rng):
    res = []
    for _ in range(n):
        worst = 0.0
        for pair, target in AB_CLOSURE.items():
            x, y = draw(pair[0], rng), draw(pair[1], rng)
            p = mul(x, y)
            worst = max(worst, membership_defect(p, target) / max(1.0, abs(p)))
        res.append(worst)
    return res, True


def _run_lorentz_algebra(cfg, n, rng):
    res = [
        abs(lorentz_algebra_residual(m, nu, r, s))
        for m in range(4)
        for nu in range(4)
        for r in range(4)
        for s in range(4)
    ]
    return res, True


def _run_infinitesimal_dc(cfg, n, rng):
    res = [
        abs(infinitesimal_dc_residual(m, nu, r))
        for m in range(4)
        for nu in range(4)
        for r in range(4)
    ]
    return res, True


def _run_double_cover(cfg, n, rng):
    return [double_cover_residual(Theta.random(rng, cfg.theta_bound)) for _ in range(n)], True


def _run_rotation_unitarity(cfg, n, rng):
    res = []
    for _ in range(n):
        lam = lambda_S(Theta.random_rotation(rng, cfg.theta_bound))
        res.append(abs(mul(bar_star(lam), lam) - ONE))
    return res, True


def _run_boost_selfconj(cfg, n, rng):
    res = []
    for _ in range(n):
        axis = int(rng.integers(1, 4))
        chi = float(rng.uniform(-cfg.theta_bound, cfg.theta_bound))
        lam = lambda_S(Theta.single(0, axis, chi))
        res.append(abs(bar_star(lam) - lam))
    return res, True


def _run_gamma5(cfg, n, rng):
    return [abs(gamma5_analogue() - ONE)], True


def _prop1_runner(tag: SubspaceTag):
    def run(cfg, n, rng):
        res = []
        for _ in range(n):
            f = random_field(rng, cfg.field_degree, tag)
            theta = Theta.random(rng, PROP1_THETA_BOUND)
            p = rng.uniform(-1.0, 1.0, 4)
            res.append(lorentz_invariance_residual(f, theta, p))
        return res, True

    return run


#: Fixed witnesses for the inverted (must-fail) checks.
PROP2_WITNESS_ALPHA = PolyField({(1, 0, 0, 0): E[1]}, tag=SubspaceTag.A)
PROP2_WITNESS_U = ONE + E[1]  # real scalar part breaks anti-Hermiticity
PROP2_WITNESS_POINT = (0.7, 0.3, -0.4, 0.2)
PROP4_WITNESS = dict(
    r1=1.0,
    r2=0.0,
    theta=Theta.from_upper({(1, 2): 0.8, (0, 2): 0.3}),
    w_val=E[1],
    beta_val=E[4],
)


def _run_prop2(cfg, n, rng):
    res = []
    for _ in range(n):
        alpha = random_field(rng, cfg.field_degree, SubspaceTag.A)
        u0 = draw(SubspaceTag.A_MINUS, rng)
        p = rng.uniform(-1.0, 1.0, 4)
        res.append(global_alpha_invariance_residual(alpha, u0, p))
    witness = global_alpha_invariance_residual(
        PROP2_WITNESS_ALPHA, PROP2_WITNESS_U, PROP2_WITNESS_POINT
    )
    return res, witness > NEG_CONTROL_MIN


def _gauge_param(cfg, rng, at) -> PolyField:
    u = random_field(rng, min(2, cfg.field_degree), SubspaceTag.A_MINUS, GAUGE_PARAM_BOUND)
    m = abs(eval_at(u, at))
    if m > GAUGE_PARAM_VALUE_CAP:
        u = u * (GAUGE_PARAM_VALUE_CAP / m)
    return u


def _connection(cfg, rng) -> ConnectionField:
    return ConnectionField(
        [random_field(rng, cfg.field_degree, SubspaceTag.A_MINUS) for _ in range(4)]
    )


def _run_prop3(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = _gauge_param(cfg, rng, p)
        res.append(
            covariance_residual_alpha(
                random_field(rng, cfg.field_degree, SubspaceTag.A),
                _connection(cfg, rng),
                u,
                int(rng.integers(4)),
                p,
            )
        )
    return res, True


def _run_prop4(cfg, n, rng):
    res = []
    for _ in range(n):
        r = float(rng.uniform(0.1, 1.0))
        res.append(
            general_coupling_residual(
                0.5 * r,
                0.5 * r,
                Theta.random(rng, cfg.theta_bound),
                draw(SubspaceTag.A_MINUS, rng),
                draw(SubspaceTag.B, rng),
            )
        )
    witness = general_coupling_residual(**PROP4_WITNESS)
    return res, witness > NEG_CONTROL_MIN


def _run_prop5(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = _gauge_param(cfg, rng, p)
        r = float(rng.uniform(0.25, 1.5))
        res.append(
            covariance_residual_beta(
                random_field(rng, cfg.field_degree, SubspaceTag.B),
                _connection(cfg, rng),
                u,
                int(rng.integers(4)),
                p,
                r,
            )
        )
    return res, True


def _run_lemma3(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = _gauge_param(cfg, rng, p)
        res.append(abs(scal_der_u_residual(u, int(rng.integers(4)), p)))
    return res, True


def _run_lemma4(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = _gauge_param(cfg, rng, p)
        res.append(abs(scal_ww_residual(_connection(cfg, rng), u, int(rng.integers(4)), p)))
    return res, True


_SUITES = [
    _SuiteDef("ip-moves", 1000, _exact(), _run_ip_moves),
    _SuiteDef("zvengrowski", 1000, _exact(), _run_zvengrowski),
    _SuiteDef("ab-identities", 1000, _exact(), _run_ab_identities),
    _SuiteDef("grading-closure", 1000, _exact(), _run_grading_closure),
    _SuiteDef("lorentz-algebra", 256, _exact(), _run_lorentz_algebra, exhaustive=True),
    _SuiteDef("infinitesimal-dc", 64, _exact(), _run_infinitesimal_dc, exhaustive=True),
    _SuiteDef("double-cover", 500, _series(0.1), _run_double_cover),
    _SuiteDef("rotation-unitarity", 500, _series(0.01), _run_rotation_unitarity),
    _SuiteDef("boost-selfconj", 500, _series(0.01), _run_boost_selfconj),
    _SuiteDef("gamma5", 1, _fixed(1e-14), _run_gamma5, exhaustive=True),
    _SuiteDef("prop1-A", 200, _series(0.1), _prop1_runner(SubspaceTag.A)),
    _SuiteDef("prop1-B", 200, _series(0.1), _prop1_runner(SubspaceTag.B)),
    _SuiteDef("prop2", 300, _series(), _run_prop2),
    _SuiteDef("prop3", 300, _series(), _run_prop3),
    _SuiteDef("prop4-dichotomy", 100, _series(0.01), _run_prop4),
    _SuiteDef("prop5", 300, _series(), _run_prop5),
    _SuiteDef("lemma3", 300, _series(), _run_lemma3),
    _SuiteDef("lemma4", 300, _series(), _run_lemma4),
    _SuiteDef("composition-law", 1000, _exact(), _run_composition),
    _SuiteDef("alternativity", 1000, _exact(), _run_alternativity),
]
_REGISTRY = {s.suite_id: s for s in _SUITES}


def suite_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _lookup(suite_id: str) -> _SuiteDef:
    try:
        return _REGISTRY[suite_id]
    except KeyError:
        raise UnknownSuite(f"unknown suite id: {suite_id!r}") from None


def run_suite(suite_id: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one registered suite; deterministic given cfg.seed."""
    sdef = _lookup(suite_id)
    n = sdef.default_samples
    if cfg.samples_per_suite is not None and not sdef.exhaustive:
        n = cfg.samples_per_suite
    rng = _rng_for(cfg, suite_id)
    start = time.perf_counter()
    residuals, controls_ok = sdef.runner(cfg, n, rng)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    # np.max keeps a NaN that Python's max may skip; NaN and inf never pass
    worst = float(np.max(residuals))
    tol = sdef.tolerance(cfg)
    return SuiteReport(
        suite_id=suite_id,
        samples=len(residuals),
        max_residual=worst,
        mean_residual=float(np.mean(residuals)),
        passed=bool(worst < tol) and controls_ok,
        elapsed_ms=elapsed_ms,
    )


def run_all(cfg: SuiteConfig) -> tuple[list[SuiteReport], int]:
    """Run the configured suites in registration order; exit code 0 iff all pass."""
    reports = [run_suite(sid, cfg) for sid in cfg.suites]
    return reports, (0 if all(r.passed for r in reports) else 1)


# ---------------------------------------------------------------- reports

def _config_dict(cfg: SuiteConfig) -> dict:
    out = {}
    for f in dc_fields(cfg):
        val = getattr(cfg, f.name)
        out[f.name] = list(val) if isinstance(val, tuple) else val
    return out


def render_json(reports: list[SuiteReport], cfg: SuiteConfig) -> str:
    """Machine-readable report; timing is omitted so identical runs match byte for byte."""
    payload = {
        "config": _config_dict(cfg),
        "suites": [
            {
                "suite_id": r.suite_id,
                "samples": r.samples,
                "max_residual": r.max_residual,
                "mean_residual": r.mean_residual,
                "passed": r.passed,
            }
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_text(reports: list[SuiteReport], cfg: SuiteConfig) -> str:
    lines = [
        f"verification run  seed={cfg.seed}  tol_exact={cfg.tol_exact:g}  "
        f"tol_series={cfg.tol_series:g}"
    ]
    for r in reports:
        tol = cfg.suite_tolerance(r.suite_id)
        lines.append(
            f"{'PASS' if r.passed else 'FAIL'}  {r.suite_id:<18} "
            f"samples={r.samples:<5d} max={r.max_residual:<12.3e} "
            f"mean={r.mean_residual:<12.3e} tol={tol:<8.0e} ({r.elapsed_ms} ms)"
        )
    good = sum(r.passed for r in reports)
    lines.append(f"{good}/{len(reports)} suites passed")
    return "\n".join(lines) + "\n"
