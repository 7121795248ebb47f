"""Registry of verification suites and the one loop that evaluates them.

Each suite is declared by a ``_SuiteDef``: the inputs one sample reads and
a residual evaluated on blocks of samples.  It sweeps one identity family
with a deterministic RNG stream derived from (config seed, suite id),
collects residuals, and passes when the largest one stays under the suite's
tolerance.  Two suites also carry a fixed negative-control witness whose
residual must *exceed* a floor; those inverted checks guard the only-if
halves of the claims.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    E,
    ONE,
    abs_rows,
    bar_star_rows,
    mul_rows,
    norm_rows,
)
from .errors import UnknownSuite
from .fields import (
    PolyField,
    contract_rows,
    jet_rows,
    lorentz_invariance_rows,
    monomial_rows,
    monomials,
)
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
    SubspaceTag,
    closure_defect_rows,
    dof_rows,
    exchange_residuals,
    ipmove_residuals,
    ndof,
    residual_zvengrowski,
)
from .lorentz import (
    BOOST_PAIRS,
    ROTATION_PAIRS,
    THETA_PAIRS,
    Theta,
    double_cover_residual,
    gamma5_analogue,
    infinitesimal_dc_rows,
    lambda_S,
    lambda_V,
    lorentz_algebra_rows,
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
    """One suite, declared: what a sample reads, its residual and its verdict.

    ``inputs(cfg)`` is the tuple of :class:`_Input` one sample reads, one per
    array that ``residual(cfg, *arrays)`` takes; the residual returns one
    value per row.  An ``exhaustive`` suite's ``inputs(cfg)`` is instead its
    whole table, one array per column, and the sample count does not apply
    (gamma5's table has no columns and one row).  A ``witness()``, if given,
    is a fixed must-fail residual that must exceed ``NEG_CONTROL_MIN``.
    """

    suite_id: str
    default_samples: int
    tolerance: Callable[[SuiteConfig], float]
    inputs: Callable[[SuiteConfig], tuple]
    residual: Callable[..., np.ndarray]
    witness: Callable[[], float] | None = None
    exhaustive: bool = False


def _exact(factor: float = 1.0):
    return lambda cfg: cfg.tol_exact * factor


def _series(factor: float = 1.0):
    return lambda cfg: cfg.tol_series * factor


def _rng_for(cfg: SuiteConfig, suite_id: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(suite_id.encode())])


#: Sampled suites draw and evaluate their samples a block at a time.  A block
#: reads at most BLOCK_ROWS samples and at most BLOCK_DRAWS floats (16 MB of
#: draws), but never less than one sample (:func:`_block_rows`).  Most of a pass
#: is fixed cost per numpy call, so larger blocks run faster up to about 512
#: rows; 1024-row blocks run the 1000-sample algebra suites 3-60% slower.  The
#: temporaries grow with the floats a block draws, and BLOCK_DRAWS bounds them.
#: No suite reaches it at field degrees 2 and 3, where one 512-row prop3 block
#: peaks at about 3.3 MB (by tracemalloc, read and evaluated).  At the degree-12
#: cap prop3 reads 47 rows a block (21 MB), lemma4 71 and prop1-A 143 (42 MB),
#: and prop3, prop5, prop1-A and prop2 at 300 samples peak at 84 MB RSS in one
#: process, as the field parameters are contracted in place (100 MB with a copy
#: of each block's; with it, 160 MB with a budget of 2**22, 198 MB with none, and
#: 171 MB with none at 256 rows).  No contraction over a block's rows is a 2-D
#: BLAS product (each row is a stacked product, a gather or a scatter), so BLAS
#: threading does not depend on the block size, and no residual does.
BLOCK_ROWS = 512
BLOCK_DRAWS = 2**21

_FULL = SubspaceTag.FULL_CO


# ------------------------------------------------------- per-sample inputs
#
# Suites read a block of samples into arrays, in the order of one draw per
# input and sample; only the arithmetic is batched.


class _Input(NamedTuple):
    """One input of a sample: floats of ``shape``, each low + (high - low) u for a
    uniform u in [0, 1), or, if ``integer``, the floor of one such float clipped to
    high - 1, as the sum can round up to high.  With a ``tag``, the last axis of
    ``shape`` holds real parameters on the tag's table rows, and the input reads
    as the elements they make, shape[:-1] + (8,)."""

    low: float
    high: float
    shape: tuple = ()
    integer: bool = False
    tag: SubspaceTag | None = None


@lru_cache(maxsize=64)
def _layout(inputs: tuple) -> tuple:
    """Each raw column's low bound and width, and each input's columns, once per tuple."""
    sizes = [math.prod(x.shape) for x in inputs]
    spans = tuple(slice(stop - k, stop) for k, stop in zip(sizes, accumulate(sizes)))
    low = np.repeat([float(x.low) for x in inputs], sizes)
    width = np.repeat([float(x.high - x.low) for x in inputs], sizes)
    if not np.all(np.isfinite(width)):
        raise OverflowError("high - low range exceeds valid bounds")  # as rng.uniform does
    low.flags.writeable = width.flags.writeable = False
    return low, width, spans


def _block_rows(inputs: tuple) -> int:
    """The samples a block of these inputs reads: BLOCK_ROWS, fewer where their
    draws would pass BLOCK_DRAWS, and at least one."""
    return min(BLOCK_ROWS, max(1, BLOCK_DRAWS // len(_layout(inputs)[0])))


def _read_block(rng, m: int, inputs) -> list[np.ndarray]:
    """m samples, each read as one draw per input in turn, into one array per input.

    One ``rng.random`` call reads the block, and its columns are scaled after it.
    ``rng.uniform(low, high, size)`` is ``low + (high - low) * rng.random(size)``
    bit for bit, with the same generator state, so the block equals one uniform
    draw per input and sample; an integer input is its uniform rounded down (see
    :class:`_Input`).
    """
    low, width, spans = _layout(inputs)
    raw = rng.random((m, len(low)))
    # in place, as low + width * raw bit for bit: one copy of the block's draws
    raw *= width
    raw += low
    out = []
    for x, span in zip(inputs, spans):
        v = raw[:, span].reshape((m,) + x.shape)
        if x.integer:
            v = np.minimum(np.floor(v), x.high - 1).astype(np.intp)
        out.append(v if x.tag is None else dof_rows(x.tag, v))
    return out


def _evaluate(sdef: _SuiteDef, cfg: SuiteConfig, n: int, rng) -> tuple[np.ndarray, bool]:
    """The residuals of n samples of a suite, read a block at a time (of its whole
    table, whatever n is, if exhaustive), and whether its witness, if any, holds."""
    inputs = sdef.inputs(cfg)
    if sdef.exhaustive:
        residuals = sdef.residual(cfg, *inputs)
    else:
        rows = _block_rows(inputs)
        drawn = (_read_block(rng, min(rows, n - s), inputs) for s in range(0, n, rows))
        residuals = np.concatenate([sdef.residual(cfg, *block) for block in drawn])
    return residuals, sdef.witness is None or sdef.witness() > NEG_CONTROL_MIN


def _params(tag: SubspaceTag, shape: tuple = (), bound: float = 1.0) -> _Input:
    """Real parameters of elements of ``tag`` filling ``shape``, read in one call as that
    many successive :func:`draw` calls read them; ``dof_rows`` makes them elements."""
    return _Input(-bound, bound, shape + (ndof(tag),))


def _element(tag: SubspaceTag) -> _Input:
    """One element of ``tag``, read as one :func:`draw` call reads it."""
    return _Input(-1.0, 1.0, (ndof(tag),), tag=tag)


def _elements(*tags: SubspaceTag):
    """The inputs of a suite that reads one element per tag."""
    inputs = tuple(map(_element, tags))
    return lambda cfg: inputs


def _field(tag: SubspaceTag, degree: int, bound: float = 1.0) -> _Input:
    """The real parameters of one :func:`random_field` draw, one row per monomial."""
    return _params(tag, (len(monomials(degree)),), bound)


def _jets(tag: SubspaceTag, degree: int, params, points):
    """Values (m, 8) and gradients (m, 4, 8) of fields given by their real parameters
    (m, M, ndof): the jets of the parameters, made elements by the linear ``dof_rows``."""
    value, grads = jet_rows(monomials(degree), params, points)
    return dof_rows(tag, value), dof_rows(tag, grads)


def _thetas(pairs):
    """Inputs of Lorentz parameters on ``pairs``, uniform within theta_bound."""
    return lambda cfg: (_Input(-cfg.theta_bound, cfg.theta_bound, (len(pairs),)),)


def _indices(k: int):
    """The table of an exhaustive suite: every k-tuple of indices in 0..3, one per row."""
    return lambda cfg: tuple(np.indices((4,) * k).reshape(k, -1))


_POINT = _Input(-1.0, 1.0, (4,))
_AXIS = _Input(0, 4, integer=True)


# ---------------------------------------------------------------- residuals
#
# Each takes the config and the arrays of a block's inputs and returns one
# residual per row.


def _composition(cfg, x, y):
    scale = np.maximum(1.0, abs_rows(x) ** 2 * abs_rows(y) ** 2)
    return np.abs(norm_rows(mul_rows(x, y)) - norm_rows(x) * norm_rows(y)) / scale


def _alternativity(cfg, x, y):
    # the associators [x, x, y] and [x, y, y], with the x y they share formed once
    xy = mul_rows(x, y)
    xxy = mul_rows(mul_rows(x, x), y) - mul_rows(x, xy)
    xyy = mul_rows(xy, y) - mul_rows(x, mul_rows(y, y))
    return np.maximum(abs_rows(xxy), abs_rows(xyy))


def _ip_moves(cfg, x, y, z):
    return np.max(np.abs(ipmove_residuals(x, y, z)), axis=0)


def _zvengrowski(cfg, x, y, z):
    return abs_rows(residual_zvengrowski(x, y, z))


_AB_TAGS = (SubspaceTag.A, SubspaceTag.A, SubspaceTag.B, SubspaceTag.B)


def _ab_identities(cfg, a, a2, b, b2):
    return np.max(abs_rows(exchange_residuals(a, a2, b, b2)), axis=0)


_CLOSURE_TAGS = tuple(tag for pair in AB_CLOSURE for tag in pair)


def _grading_closure(cfg, *xs):
    # xs holds x, y for each (tag_x, tag_y) of the closure table in turn
    pairs = zip(xs[::2], xs[1::2], AB_CLOSURE.values())
    return np.max([closure_defect_rows(x, y, target) for x, y, target in pairs], axis=0)


def _double_cover(cfg, theta):
    return double_cover_residual(theta_rows(theta))


def _unitarity(cfg, theta):
    lam = lambda_S(theta_rows(theta, ROTATION_PAIRS))
    return abs_rows(mul_rows(bar_star_rows(lam), lam) - ONE.c)


def _boost_selfconj_inputs(cfg):
    return _Input(1, 4, integer=True), _Input(-cfg.theta_bound, cfg.theta_bound)


def _boost_selfconj(cfg, axis, value):
    chi = np.zeros((len(axis), len(BOOST_PAIRS)))
    chi[np.arange(len(axis)), axis - 1] = value
    lam = lambda_S(theta_rows(chi, BOOST_PAIRS))
    return abs_rows(bar_star_rows(lam) - lam)


def _lorentz_algebra(cfg, *indices):
    return abs_rows(lorentz_algebra_rows(*indices))


def _infinitesimal_dc(cfg, *indices):
    return abs_rows(infinitesimal_dc_rows(*indices))


def _gamma5(cfg):
    return np.array([abs(gamma5_analogue() - ONE)])


def _prop1_inputs(tag: SubspaceTag, cfg):
    theta = _Input(-PROP1_THETA_BOUND, PROP1_THETA_BOUND, (len(THETA_PAIRS),))
    return _field(tag, cfg.field_degree), theta, _POINT


def _prop1(tag: SubspaceTag, cfg, f, theta, p):
    theta = theta_rows(theta)
    lam, lv = lambda_S(theta), lambda_V(theta)
    return lorentz_invariance_rows(
        tag, lam, lv, lambda q: _jets(tag, cfg.field_degree, f, q), p
    )


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


def _prop2_inputs(cfg):
    return _field(SubspaceTag.A, cfg.field_degree), _element(SubspaceTag.A_MINUS), _POINT


def _prop2(cfg, alpha, u0, p):
    return global_alpha_rows(*_jets(SubspaceTag.A, cfg.field_degree, alpha, p), u0)


def _prop2_witness():
    return global_alpha_invariance_residual(
        PROP2_WITNESS_ALPHA, PROP2_WITNESS_U, PROP2_WITNESS_POINT
    )


def _gauge_param(cfg) -> _Input:
    return _field(SubspaceTag.A_MINUS, min(2, cfg.field_degree), GAUGE_PARAM_BOUND)


def _connection(cfg) -> _Input:
    # the components W_0..W_3: four random_field draws
    return _params(SubspaceTag.A_MINUS, (4, len(monomials(cfg.field_degree))))


def _along(grads, rho):
    # each row's gradient along its own axis
    return grads[np.arange(len(rho)), rho]


def _tables(cfg, p, rho):
    """A gauge block's monomial tables (m, 2, M), the values and the derivatives along
    each row's rho at its point: the fields' at field_degree, then u's, the same
    table when u's degree min(2, field_degree) is field_degree."""
    table = monomial_rows(monomials(cfg.field_degree), p, rho)
    u_degree = min(2, cfg.field_degree)
    if u_degree == cfg.field_degree:
        return table, table
    return table, monomial_rows(monomials(u_degree), p, rho)


def _field_jet(tag: SubspaceTag, table, params):
    """Fields' values and derivatives along each row's rho, from their real parameters
    (m, M, ndof) and the block's table: the jets of the parameters, made elements."""
    jet = dof_rows(tag, contract_rows(table, params))
    return jet[:, 0], jet[:, 1]


def _gauge_param_jet(u_table, u):
    """u and d_rho u at each sample's point, u scaled to the value cap where it exceeds it."""
    value, du = _field_jet(SubspaceTag.A_MINUS, u_table, u)
    mag = abs_rows(value)
    scale = np.where(mag > GAUGE_PARAM_VALUE_CAP, GAUGE_PARAM_VALUE_CAP / mag, 1.0)[:, None]
    return value * scale, du * scale


def _connection_value(table, w, rho):
    """The value of each sample's connection component W_rho at its point.  It takes
    the table's two rows: the value row alone would be a matrix-vector product,
    whose sums can round differently."""
    return _field_jet(SubspaceTag.A_MINUS, table, _along(w, rho))[0]


def _prop3_inputs(cfg):
    alpha = _field(SubspaceTag.A, cfg.field_degree)
    return _POINT, _gauge_param(cfg), alpha, _connection(cfg), _AXIS


def _prop3(cfg, p, u, alpha, w, rho):
    table, u_table = _tables(cfg, p, rho)
    return covariance_alpha_rows(
        *_field_jet(SubspaceTag.A, table, alpha),
        _connection_value(table, w, rho),
        *_gauge_param_jet(u_table, u),
    )


def _prop4_inputs(cfg):
    b = cfg.theta_bound
    weight, theta = _Input(0.1, 1.0), _Input(-b, b, (len(THETA_PAIRS),))
    return weight, theta, _element(SubspaceTag.A_MINUS), _element(SubspaceTag.B)


def _prop4(cfg, r, theta, w, beta):
    return general_coupling_residual(0.5 * r, 0.5 * r, theta_rows(theta), w, beta)


def _prop4_witness():
    return general_coupling_residual(**PROP4_WITNESS)


def _prop5_inputs(cfg):
    beta = _field(SubspaceTag.B, cfg.field_degree)
    return _POINT, _gauge_param(cfg), _Input(0.25, 1.5), beta, _connection(cfg), _AXIS


def _prop5(cfg, p, u, r, beta, w, rho):
    table, u_table = _tables(cfg, p, rho)
    return covariance_beta_rows(
        *_field_jet(SubspaceTag.B, table, beta),
        _connection_value(table, w, rho),
        *_gauge_param_jet(u_table, u),
        r,
    )


def _lemma3(cfg, p, u, rho):
    u_table = monomial_rows(monomials(min(2, cfg.field_degree)), p, rho)
    return np.abs(scal_der_u_rows(*_gauge_param_jet(u_table, u)))


def _lemma4(cfg, p, u, w, rho):
    table, u_table = _tables(cfg, p, rho)
    return np.abs(scal_ww_rows(_connection_value(table, w, rho), *_gauge_param_jet(u_table, u)))


_A, _B = SubspaceTag.A, SubspaceTag.B
_SUITES = [
    _SuiteDef("ip-moves", 1000, _exact(), _elements(_FULL, _FULL, _FULL), _ip_moves),
    _SuiteDef("zvengrowski", 1000, _exact(), _elements(_FULL, _FULL, _FULL), _zvengrowski),
    _SuiteDef("ab-identities", 1000, _exact(), _elements(*_AB_TAGS), _ab_identities),
    _SuiteDef("grading-closure", 1000, _exact(), _elements(*_CLOSURE_TAGS), _grading_closure),
    _SuiteDef("lorentz-algebra", 256, _exact(), _indices(4), _lorentz_algebra, exhaustive=True),
    _SuiteDef("infinitesimal-dc", 64, _exact(), _indices(3), _infinitesimal_dc, exhaustive=True),
    _SuiteDef("double-cover", 500, _series(0.1), _thetas(THETA_PAIRS), _double_cover),
    _SuiteDef("rotation-unitarity", 500, _series(0.01), _thetas(ROTATION_PAIRS), _unitarity),
    _SuiteDef("boost-selfconj", 500, _series(0.01), _boost_selfconj_inputs, _boost_selfconj),
    _SuiteDef("gamma5", 1, lambda cfg: 1e-14, lambda cfg: (), _gamma5, exhaustive=True),
    _SuiteDef("prop1-A", 200, _series(0.1), partial(_prop1_inputs, _A), partial(_prop1, _A)),
    _SuiteDef("prop1-B", 200, _series(0.1), partial(_prop1_inputs, _B), partial(_prop1, _B)),
    _SuiteDef("prop2", 300, _series(), _prop2_inputs, _prop2, _prop2_witness),
    _SuiteDef("prop3", 300, _series(), _prop3_inputs, _prop3),
    _SuiteDef("prop4-dichotomy", 100, _series(0.01), _prop4_inputs, _prop4, _prop4_witness),
    _SuiteDef("prop5", 300, _series(), _prop5_inputs, _prop5),
    _SuiteDef("lemma3", 300, _series(), lambda cfg: (_POINT, _gauge_param(cfg), _AXIS), _lemma3),
    _SuiteDef(
        "lemma4", 300, _series(),
        lambda cfg: (_POINT, _gauge_param(cfg), _connection(cfg), _AXIS), _lemma4,
    ),
    _SuiteDef("composition-law", 1000, _exact(), _elements(_FULL, _FULL), _composition),
    _SuiteDef("alternativity", 1000, _exact(), _elements(_FULL, _FULL), _alternativity),
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
    n = cfg.samples_per_suite or sdef.default_samples
    rng = _rng_for(cfg, suite_id)
    start = time.perf_counter()
    # overflow shows as an inf or NaN residual, which fails the suite; numpy's
    # floating-point warnings would only repeat that
    try:
        with np.errstate(all="ignore"):
            residuals, controls_ok = _evaluate(sdef, cfg, n, rng)
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
        "config": asdict(cfg),  # the suites tuple is written as a JSON list
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
            f"mean={r.mean_residual:<12.3e} tol={tol:<8.3g} ({r.elapsed_ms} ms)"
            + ("" if r.message is None else f"  error: {r.message}")
        )
    good = sum(r.passed for r in reports)
    lines.append(f"{good}/{len(reports)} suites passed")
    return "\n".join(lines) + "\n"
