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
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    E,
    ONE,
    abs_rows,
    associator_rows,
    bar_star_rows,
    mul_rows,
    norm_rows,
)
from .errors import UnknownSuite
from .fields import PolyField, jet_rows, lorentz_invariance_rows, monomials
from .gauge import (
    covariance_alpha_rows,
    covariance_beta_rows,
    general_coupling_residual,
    global_alpha_invariance_residual,
    global_alpha_rows,
    scal_der_u_rows,
    scal_ww_rows,
)
from .grading import (
    AB_CLOSURE,
    IPMoveForm,
    SubspaceTag,
    dof_rows,
    draw_block,
    membership_defect,
    ndof,
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
    BOOST_PAIRS,
    ROTATION_PAIRS,
    THETA_PAIRS,
    Theta,
    double_cover_residual,
    gamma5_analogue,
    infinitesimal_dc_residual,
    lambda_S,
    lambda_V_real,
    lorentz_algebra_residual,
    theta_rows,
)

#: Negative-control witnesses must exceed this residual floor.
NEG_CONTROL_MIN = 1e-3

#: Rotation parameter bound for the Lorentz-invariance sweeps.
PROP1_THETA_BOUND = 1.5

#: Largest accepted ``field_degree``.  A field of degree d has C(d + 4, 4)
#: monomials and is built from (d + 1)**4 candidate exponents; 12 gives 1820
#: monomials, room for the degree-9 Lorentz-invariance checks.
MAX_FIELD_DEGREE = 12

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
        # parameters are drawn from [-theta_bound, theta_bound], whose width must be finite
        if not (0 < self.theta_bound and math.isfinite(2 * self.theta_bound)):
            raise ValueError("theta_bound must be positive, with 2 * theta_bound finite")
        if not 0 <= self.field_degree <= MAX_FIELD_DEGREE:
            raise ValueError(f"field_degree must be in 0..{MAX_FIELD_DEGREE}")
        known = set(_REGISTRY)
        unknown = [s for s in self.suites if s not in known]
        if unknown:
            raise UnknownSuite(f"unknown suite id(s): {', '.join(unknown)}")
        if not self.suites:
            object.__setattr__(self, "suites", tuple(_REGISTRY))

    def suite_tolerance(self, suite_id: str) -> float:
        return _lookup(suite_id).tolerance(self)


@dataclass(frozen=True, slots=True)
class SuiteReport:
    """One suite's verdict.  ``message`` names the error a failed suite raised, if any.

    Slotted: a benchmark or a caller that keeps many reports keeps no dict per report.
    """

    suite_id: str
    samples: int
    max_residual: float
    mean_residual: float
    passed: bool
    elapsed_ms: int
    message: str | None = None


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


#: Sampled suites draw and evaluate at most this many samples at a time.  The
#: cap bounds the temporary arrays and keeps every contraction a small 2-D
#: product: OpenBLAS 0.3.31 spreads the (m, 64) @ (64, 8) complex product of
#: mul_rows over threads from m = 128 rows, which on a busy 2-vCPU host made
#: one call about 10x slower.  Blocks of 64 to 256 rows ran equally fast.
BLOCK_ROWS = 64

_FULL = SubspaceTag.FULL_CO


def _blocked(n: int, block) -> np.ndarray:
    """Residuals of n samples: ``block(m)`` draws and evaluates m of them."""
    return np.concatenate(
        [block(min(BLOCK_ROWS, n - start)) for start in range(0, n, BLOCK_ROWS)]
    )


def _sampled(tags, residual):
    """Runner for a residual of one draw per tag per sample, bound 1."""

    def run(cfg, n, rng):
        return _blocked(n, lambda m: residual(*draw_block(tags, rng, m))), True

    return run


def _sampled_theta(pairs, residual):
    """Runner for a residual of Lorentz parameters drawn on ``pairs`` within theta_bound."""

    def run(cfg, n, rng):
        b = cfg.theta_bound

        def block(m):
            return residual(theta_rows(rng.uniform(-b, b, size=(m, len(pairs))), pairs))

        return _blocked(n, block), True

    return run


# ------------------------------------------------------- per-sample inputs
#
# Suites that draw integers, several bounds or whole fields within one sample
# read their inputs sample by sample, with the calls and in the order of one
# draw per sample, into arrays; only the arithmetic is batched.


class _Input(NamedTuple):
    """One input of a sample: ``read`` draws it, a value of ``shape`` and ``dtype``."""

    read: Callable[[np.random.Generator], object]
    shape: tuple = ()
    dtype: type = float


def _read_block(rng, m: int, inputs) -> list[np.ndarray]:
    """m samples, each read as ``[x.read(rng) for x in inputs]``, into one array per input."""
    blocks = [np.empty((m,) + x.shape, x.dtype) for x in inputs]
    for i in range(m):
        for x, block in zip(inputs, blocks):
            block[i] = x.read(rng)
    return blocks


def _per_sample(n: int, rng, inputs, residual) -> np.ndarray:
    """Residuals of n samples read one at a time; ``residual`` takes a block's arrays."""
    return _blocked(n, lambda m: residual(*_read_block(rng, m, inputs)))


def _uniform(low: float, high: float, shape: tuple = ()) -> _Input:
    size = shape or None  # a single draw as a float: a 0-d array costs more
    return _Input(lambda rng: rng.uniform(low, high, size), shape)


def _params(tag: SubspaceTag, shape: tuple = (), bound: float = 1.0) -> _Input:
    """Real parameters of elements of ``tag`` filling ``shape``, read in one call as that
    many successive :func:`draw` calls read them; ``dof_rows`` makes them elements."""
    return _uniform(-bound, bound, shape + (ndof(tag),))


def _field(tag: SubspaceTag, degree: int, bound: float = 1.0) -> _Input:
    """The real parameters of one :func:`random_field` draw, one row per monomial."""
    return _params(tag, (len(monomials(degree)),), bound)


def _jets(tag: SubspaceTag, degree: int, params, points):
    """Values (m, 8) and gradients (m, 4, 8) of fields given by their real parameters.

    The jets are taken of the parameters, (m, M, ndof), and ``dof_rows``,
    which is linear, turns them into elements.
    """
    value, grads = jet_rows(monomials(degree), params, points)
    return dof_rows(tag, value), dof_rows(tag, grads)


_POINT = _uniform(-1.0, 1.0, (4,))
_AXIS = _Input(lambda rng: rng.integers(4), dtype=np.intp)


# ---------------------------------------------------------------- residuals
#
# Each takes the drawn inputs of a block as arrays and returns one residual
# per row.


def _composition(x, y):
    scale = np.maximum(1.0, abs_rows(x) ** 2 * abs_rows(y) ** 2)
    return np.abs(norm_rows(mul_rows(x, y)) - norm_rows(x) * norm_rows(y)) / scale


def _alternativity(x, y):
    return np.maximum(abs_rows(associator_rows(x, x, y)), abs_rows(associator_rows(x, y, y)))


def _ip_moves(x, y, z):
    return np.max([np.abs(residual_ipmove(f, x, y, z)) for f in IPMoveForm], axis=0)


def _zvengrowski(x, y, z):
    return abs_rows(residual_zvengrowski(x, y, z))


_AB_TAGS = (SubspaceTag.A, SubspaceTag.A, SubspaceTag.B, SubspaceTag.B)


def _ab_identities(a, a2, b, b2):
    return np.max(
        abs_rows(
            [
                residual_ab(a, b),
                residual_aab(a, a2, b),
                residual_baa(a, a2, b),
                residual_bba(a, b, b2),
                residual_abb(a, b, b2),
                residual_abba(a, a2, b, b2),
            ]
        ),
        axis=0,
    )


_CLOSURE_TAGS = tuple(tag for pair in AB_CLOSURE for tag in pair)


def _grading_closure(*xs):
    # xs holds x, y for each (tag_x, tag_y) of the closure table in turn
    worst = []
    for (x, y), target in zip(zip(xs[::2], xs[1::2]), AB_CLOSURE.values()):
        p = mul_rows(x, y)
        worst.append(membership_defect(p, target) / np.maximum(1.0, abs_rows(p)))
    return np.max(worst, axis=0)


def _unitarity(theta):
    lam = lambda_S(theta)
    return abs_rows(mul_rows(bar_star_rows(lam), lam) - ONE.c)


def _selfconj(theta):
    lam = lambda_S(theta)
    return abs_rows(bar_star_rows(lam) - lam)


# ---------------------------------------------------------------- runners

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


def _run_boost_selfconj(cfg, n, rng):
    # the axis is an integer draw between the uniform ones, so the inputs are
    # read sample by sample; only the arithmetic is batched
    def block(m):
        chi = np.zeros((m, len(BOOST_PAIRS)))
        for i in range(m):
            axis = int(rng.integers(1, 4))
            chi[i, axis - 1] = float(rng.uniform(-cfg.theta_bound, cfg.theta_bound))
        return _selfconj(theta_rows(chi, BOOST_PAIRS))

    return _blocked(n, block), True


def _run_gamma5(cfg, n, rng):
    return [abs(gamma5_analogue() - ONE)], True


def _prop1_runner(tag: SubspaceTag):
    def run(cfg, n, rng):
        def residual(f, theta, p):
            theta = theta_rows(theta)
            lam, lv = lambda_S(theta), lambda_V_real(theta)
            return lorentz_invariance_rows(
                tag, lam, lv, lambda q: _jets(tag, cfg.field_degree, f, q), p
            )

        bound = PROP1_THETA_BOUND
        inputs = (_field(tag, cfg.field_degree), _uniform(-bound, bound, (6,)), _POINT)
        return _per_sample(n, rng, inputs, residual), True

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
    def residual(alpha, u0, p):
        u0 = dof_rows(SubspaceTag.A_MINUS, u0)
        return global_alpha_rows(*_jets(SubspaceTag.A, cfg.field_degree, alpha, p), u0)

    inputs = (_field(SubspaceTag.A, cfg.field_degree), _params(SubspaceTag.A_MINUS), _POINT)
    res = _per_sample(n, rng, inputs, residual)
    witness = global_alpha_invariance_residual(
        PROP2_WITNESS_ALPHA, PROP2_WITNESS_U, PROP2_WITNESS_POINT
    )
    return res, witness > NEG_CONTROL_MIN


def _gauge_param(cfg) -> _Input:
    return _field(SubspaceTag.A_MINUS, min(2, cfg.field_degree), GAUGE_PARAM_BOUND)


def _connection(cfg) -> _Input:
    # the components W_0..W_3: four random_field draws
    return _params(SubspaceTag.A_MINUS, (4, len(monomials(cfg.field_degree))))


def _along(grads, rho):
    # each row's gradient along its own axis
    return grads[np.arange(len(rho)), rho]


def _field_jet(tag: SubspaceTag, degree: int, params, p, rho):
    """Fields' values and derivatives along rho at each sample's point."""
    value, grads = _jets(tag, degree, params, p)
    return value, _along(grads, rho)


def _gauge_param_jet(cfg, u, p, rho):
    """u and d_rho u at each sample's point, u scaled to the value cap where it exceeds it."""
    value, du = _field_jet(SubspaceTag.A_MINUS, min(2, cfg.field_degree), u, p, rho)
    mag = abs_rows(value)
    scale = np.where(mag > GAUGE_PARAM_VALUE_CAP, GAUGE_PARAM_VALUE_CAP / mag, 1.0)[:, None]
    return value * scale, du * scale


def _connection_value(cfg, w, p, rho):
    """The value of each sample's connection component W_rho at its point."""
    return _field_jet(SubspaceTag.A_MINUS, cfg.field_degree, _along(w, rho), p, rho)[0]


def _run_prop3(cfg, n, rng):
    def residual(p, u, alpha, w, rho):
        return covariance_alpha_rows(
            *_field_jet(SubspaceTag.A, cfg.field_degree, alpha, p, rho),
            _connection_value(cfg, w, p, rho),
            *_gauge_param_jet(cfg, u, p, rho),
        )

    alpha = _field(SubspaceTag.A, cfg.field_degree)
    inputs = (_POINT, _gauge_param(cfg), alpha, _connection(cfg), _AXIS)
    return _per_sample(n, rng, inputs, residual), True


def _run_prop4(cfg, n, rng):
    def residual(r, theta, w, beta):
        w, beta = dof_rows(SubspaceTag.A_MINUS, w), dof_rows(SubspaceTag.B, beta)
        return general_coupling_residual(0.5 * r, 0.5 * r, theta_rows(theta), w, beta)

    b = cfg.theta_bound
    inputs = (
        _uniform(0.1, 1.0),
        _uniform(-b, b, (len(THETA_PAIRS),)),
        _params(SubspaceTag.A_MINUS),
        _params(SubspaceTag.B),
    )
    witness = general_coupling_residual(**PROP4_WITNESS)
    return _per_sample(n, rng, inputs, residual), witness > NEG_CONTROL_MIN


def _run_prop5(cfg, n, rng):
    def residual(p, u, r, beta, w, rho):
        return covariance_beta_rows(
            *_field_jet(SubspaceTag.B, cfg.field_degree, beta, p, rho),
            _connection_value(cfg, w, p, rho),
            *_gauge_param_jet(cfg, u, p, rho),
            r,
        )

    beta = _field(SubspaceTag.B, cfg.field_degree)
    inputs = (_POINT, _gauge_param(cfg), _uniform(0.25, 1.5), beta, _connection(cfg), _AXIS)
    return _per_sample(n, rng, inputs, residual), True


def _run_lemma3(cfg, n, rng):
    def residual(p, u, rho):
        return np.abs(scal_der_u_rows(*_gauge_param_jet(cfg, u, p, rho)))

    return _per_sample(n, rng, (_POINT, _gauge_param(cfg), _AXIS), residual), True


def _run_lemma4(cfg, n, rng):
    def residual(p, u, w, rho):
        w_rho = _connection_value(cfg, w, p, rho)
        return np.abs(scal_ww_rows(w_rho, *_gauge_param_jet(cfg, u, p, rho)))

    inputs = (_POINT, _gauge_param(cfg), _connection(cfg), _AXIS)
    return _per_sample(n, rng, inputs, residual), True


_SUITES = [
    _SuiteDef("ip-moves", 1000, _exact(), _sampled((_FULL,) * 3, _ip_moves)),
    _SuiteDef("zvengrowski", 1000, _exact(), _sampled((_FULL,) * 3, _zvengrowski)),
    _SuiteDef("ab-identities", 1000, _exact(), _sampled(_AB_TAGS, _ab_identities)),
    _SuiteDef("grading-closure", 1000, _exact(), _sampled(_CLOSURE_TAGS, _grading_closure)),
    _SuiteDef("lorentz-algebra", 256, _exact(), _run_lorentz_algebra, exhaustive=True),
    _SuiteDef("infinitesimal-dc", 64, _exact(), _run_infinitesimal_dc, exhaustive=True),
    _SuiteDef(
        "double-cover", 500, _series(0.1), _sampled_theta(THETA_PAIRS, double_cover_residual)
    ),
    _SuiteDef(
        "rotation-unitarity", 500, _series(0.01), _sampled_theta(ROTATION_PAIRS, _unitarity)
    ),
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
    _SuiteDef("composition-law", 1000, _exact(), _sampled((_FULL,) * 2, _composition)),
    _SuiteDef("alternativity", 1000, _exact(), _sampled((_FULL,) * 2, _alternativity)),
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
    """Run one registered suite; deterministic given cfg.seed.

    An ArithmeticError or ValueError raised inside the suite, the library's
    own refusals (DomainViolation is a ValueError), ends it as a FAIL report
    whose ``message`` names the error.
    """
    sdef = _lookup(suite_id)
    n = sdef.default_samples
    if cfg.samples_per_suite is not None and not sdef.exhaustive:
        n = cfg.samples_per_suite
    rng = _rng_for(cfg, suite_id)
    start = time.perf_counter()
    # overflow shows as an inf or NaN residual, which fails the suite; numpy's
    # floating-point warnings would only repeat that
    try:
        with np.errstate(all="ignore"):
            residuals, controls_ok = sdef.runner(cfg, n, rng)
    except (ArithmeticError, ValueError) as exc:
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        message = f"{type(exc).__name__}: {exc}"
        return SuiteReport(suite_id, 0, math.nan, math.nan, False, elapsed_ms, message)
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


def _json_float(x: float):
    # strict JSON has no NaN or Infinity; they are written as strings
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def render_json(reports: list[SuiteReport], cfg: SuiteConfig) -> str:
    """Machine-readable report; timing is omitted so identical runs match byte for byte.

    The output is strict JSON: a residual that is not finite is written as
    the string "NaN", "Infinity" or "-Infinity".  A suite that raised has a
    ``message`` key naming the error; other rows have none.
    """
    rows = []
    for r in reports:
        row = {
            "suite_id": r.suite_id,
            "samples": r.samples,
            "max_residual": _json_float(r.max_residual),
            "mean_residual": _json_float(r.mean_residual),
            "passed": r.passed,
        }
        if r.message is not None:
            row["message"] = r.message
        rows.append(row)
    payload = {
        "config": _config_dict(cfg),
        "suites": rows,
        "passed": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
            + ("" if r.message is None else f"  error: {r.message}")
        )
    good = sum(r.passed for r in reports)
    lines.append(f"{good}/{len(reports)} suites passed")
    return "\n".join(lines) + "\n"
