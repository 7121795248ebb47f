"""Independent oracles the tests check the library against.

Each oracle takes a different code path from the implementation it
verifies: products come from a generic doubling recursion instead of the
frozen table (and the row kernels from the dense contractions they
replace), exponentials and their derivatives from plain series
summation instead of closed forms (and the closed form from Python's
``cmath`` instead of numpy rows), pulled-back fields from symbolic
expansion instead of the pointwise chain rule, derivatives from central
differences instead of formal calculus, and the sampled suites from one
draw and one single-value evaluation per sample instead of blocks of rows.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from octoweak import grading
from octoweak.core import (
    ONE,
    SMALL_ANGLE,
    CplxOcton,
    associator,
    bar_star,
    commutator,
    conj_complex,
    conj_oct,
    mul,
    norm,
    structure_table,
)
from octoweak.fields import PolyField, eval_at, lorentz_invariance_residual, partial, random_field
from octoweak.gauge import (
    ConnectionField,
    covariance_residual_alpha,
    covariance_residual_beta,
    global_alpha_invariance_residual,
    scal_der_u_residual,
    scal_ww_residual,
)
from octoweak.grading import (
    AB_CLOSURE,
    IPMoveForm,
    SubspaceTag,
    dof_rows,
    draw,
    membership_defect,
    ndof,
    require_member,
    residual_ab,
    residual_aab,
    residual_abb,
    residual_abba,
    residual_baa,
    residual_bba,
    residual_ipmove,
    residual_zvengrowski,
)
from octoweak.lorentz import ETA, EBAR_UPPER, Theta, lambda_S, lambda_V, s_gen, v_gen
from octoweak.suites import (
    GAUGE_PARAM_BOUND,
    GAUGE_PARAM_VALUE_CAP,
    NEG_CONTROL_MIN,
    PROP1_THETA_BOUND,
    PROP2_WITNESS_ALPHA,
    PROP2_WITNESS_POINT,
    PROP2_WITNESS_U,
    PROP4_WITNESS,
)


def cd_conj(x: np.ndarray) -> np.ndarray:
    """Conjugation by doubling recursion; identity on the length-1 base."""
    if len(x) == 1:
        return x.copy()
    h = len(x) // 2
    return np.concatenate([cd_conj(x[:h]), -x[h:]])


def cd_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Doubling product (a,b)(c,d) = (ac - d~b, da + bc~), recursing to scalars."""
    if len(x) == 1:
        return x * y
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    return np.concatenate(
        [
            cd_mul(a, c) - cd_mul(cd_conj(d), b),
            cd_mul(d, a) + cd_mul(b, cd_conj(c)),
        ]
    )


def cd_basis_product(a: int, b: int) -> tuple[int, int]:
    """(sign, index) of the product of basis elements a and b."""
    x = np.zeros(8)
    y = np.zeros(8)
    x[a] = 1.0
    y[b] = 1.0
    z = cd_mul(x, y)
    (nz,) = np.nonzero(z)
    assert len(nz) == 1
    return int(z[nz[0]]), int(nz[0])


# ------------------------------------------------------------ dense kernels
#
# The row kernels as the dense contractions they replace: every structure
# constant, subspace table entry and projector entry is multiplied in, zeros
# included, as one 2-D product over the rows.


def structure_tensor() -> np.ndarray:
    """The (8, 8, 8) tensor of the frozen table: [a, b, c] is the coefficient of b_c in b_a b_b."""
    table = structure_table()
    tensor = np.zeros((8, 8, 8))
    a, b = np.indices((8, 8))
    tensor[a, b, table.index] = table.sign
    return tensor


def mul_rows_dense(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products row by row as (x (x) y) contracted with the (8, 8, 8) structure tensor."""
    x, y = np.broadcast_arrays(x, y)
    pairs = (x[..., :, None] * y[..., None, :]).reshape(x.shape[:-1] + (64,))
    return pairs @ structure_tensor().reshape(64, 8).astype(np.complex128)


def dof_rows_dense(tag: SubspaceTag, dof: np.ndarray) -> np.ndarray:
    """Elements from real parameters as the product with the tag's table entry."""
    return dof @ grading._DOF[tag]


def project_dense(x: np.ndarray, tag: SubspaceTag) -> np.ndarray:
    """Projection as x R^T R on the 16 real coordinates, R the real form of the table entry."""
    real_form = grading._DOF[tag].view(np.float64)
    real = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return (real @ (real_form.T @ real_form)).view(np.complex128)


def bilinear_rows_dense(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """sum_rho <value*, ebar^rho grads[rho]> through the (32, 8) matrix of left products
    ebar^rho e_b, built with the doubling product."""
    ebar_left = np.array([[cd_mul(e.c, np.eye(8)[b]) for b in range(8)] for e in EBAR_UPPER])
    left = grads.reshape(grads.shape[:-2] + (32,)) @ ebar_left.reshape(32, 8)
    return np.sum(np.conj(values) * left, axis=-1)


def exp_taylor(u: CplxOcton, terms: int = 20) -> CplxOcton:
    """Plain series sum of u^k / k! using the library product."""
    acc = CplxOcton.one()
    power = CplxOcton.one()
    fact = 1.0
    for k in range(1, terms + 1):
        power = mul(power, u)
        fact *= k
        acc = acc + power * (1.0 / fact)
    return acc


def _cos_sinc(z: complex) -> tuple[complex, complex]:
    # cos(omega) and sin(omega)/omega as functions of z = omega^2, on the
    # principal branch, with a 4-term Taylor fallback near zero
    om = cmath.sqrt(z)
    if abs(om) < SMALL_ANGLE:
        z2 = z * z
        z3 = z2 * z
        return 1 - z / 2 + z2 / 24 - z3 / 720, 1 - z / 6 + z2 / 120 - z3 / 5040
    return cmath.cos(om), cmath.sin(om) / om


def cos_sinc_rows_two_branch(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega) and sin(omega)/omega of z = omega^2, elementwise: both branches on
    every entry, the 4-term Taylor one kept where |omega| < SMALL_ANGLE.  The
    library forms the Taylor sums only for arrays that need them, with the same bits."""
    om = np.sqrt(z)
    z2 = z * z
    z3 = z2 * z
    small = np.abs(om) < SMALL_ANGLE
    cos_w = np.where(small, 1 - z / 2 + z2 / 24 - z3 / 720, np.cos(om))
    sinc_w = np.where(small, 1 - z / 6 + z2 / 120 - z3 / 5040, np.sin(om) / np.where(small, 1, om))
    return cos_w, sinc_w


def exp_closed_form(u: CplxOcton) -> CplxOcton:
    """exp(u) = e^s (cos(omega) + sinc(omega) v) in Python complex arithmetic, for u =
    s + v in the quaternionic subalgebra; ``cmath`` raises OverflowError where it overflows."""
    s, v = complex(u.c[0]), u.c[1:4]
    cos_w, sinc_w = _cos_sinc(complex(np.dot(v, v)))
    es = cmath.exp(s)
    c = np.zeros(8, dtype=np.complex128)
    c[0] = es * cos_w
    c[1:4] = (es * sinc_w) * v
    return CplxOcton(c)


def mat_exp_taylor(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Unscaled Taylor matrix exponential; adequate for moderate norms."""
    acc = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


def lorentz_algebra_residual(mu: int, nu: int, rho: int, sigma: int) -> CplxOcton:
    """-i[S_mn, S_rs] minus its metric combination, with scalar products."""
    lhs = commutator(s_gen(mu, nu), s_gen(rho, sigma)) * (-1j)
    rhs = (
        ETA[mu, rho] * s_gen(nu, sigma)
        - ETA[mu, sigma] * s_gen(nu, rho)
        - ETA[nu, rho] * s_gen(mu, sigma)
        + ETA[nu, sigma] * s_gen(mu, rho)
    )
    return lhs - rhs


def infinitesimal_dc_residual(mu: int, nu: int, rho: int) -> CplxOcton:
    """S*_mn ebar^rho + ebar^rho S_mn - (V_mn)^rho_sigma ebar^sigma, summed term by term."""
    s = s_gen(mu, nu)
    lhs = mul(conj_complex(s), EBAR_UPPER[rho]) + mul(EBAR_UPPER[rho], s)
    v = v_gen(mu, nu)
    rhs = CplxOcton._wrap(sum(v[rho, s_] * EBAR_UPPER[s_].c for s_ in range(4)))
    return lhs - rhs


def eval_naive(f, p) -> CplxOcton:
    """Monomial-by-monomial field evaluation."""
    acc = CplxOcton.zero()
    for deg, coeff in f.terms.items():
        val = 1.0
        for i in range(4):
            val *= float(p[i]) ** deg[i]
        acc = acc + coeff * val
    return acc


def central_difference(fn, p, mu: int, h: float = 1e-5) -> CplxOcton:
    """Central finite difference of a point function along coordinate mu."""
    pp = np.asarray(p, dtype=float).copy()
    pm = pp.copy()
    pp[mu] += h
    pm[mu] -= h
    return (fn(pp) - fn(pm)) * (1.0 / (2.0 * h))


def dexp_series(u: PolyField, mu: int, p, tail_tol: float = 1e-14) -> CplxOcton:
    """Derivative of exp(u) along x_mu by the series sum_m 1/m! sum_l u^l du u^(m-1-l).

    u is A-valued, so the groupings are unambiguous.  The tail is cut once
    m/m! * |u|^(m-1) * |du| falls below ``tail_tol``.
    """
    uval, du = eval_at(u, p), eval_at(partial(u, mu), p)
    acc = CplxOcton.zero()
    left, right = [CplxOcton.one()], [du]  # u^l and du u^j
    fact = 1.0
    for m in range(1, 121):
        fact *= m
        left.append(mul(left[-1], uval))
        right.append(mul(right[-1], uval))
        for l in range(m):
            acc = acc + mul(left[l], right[m - 1 - l]) * (1.0 / fact)
        if (m / fact) * abs(uval) ** (m - 1) * abs(du) < tail_tol:
            return acc
    raise ArithmeticError("derivative-of-exponential series did not converge")


def pullback_linear(f: PolyField, m) -> PolyField:
    """The field x -> f(Mx) for a real 4x4 matrix M, expanded term by term."""
    arr = np.asarray(m)
    if arr.shape != (4, 4) or np.abs(arr.imag).max() > 1e-10 * max(1.0, np.abs(arr.real).max()):
        raise ValueError("pullback needs a real 4x4 matrix")
    arr = arr.real.astype(float)
    terms: dict = {}
    for deg, coeff in f.terms.items():
        # multiply out prod_mu (sum_nu M[mu, nu] x_nu)^deg[mu]
        expansion = {(0, 0, 0, 0): 1.0}
        for mu in range(4):
            for _ in range(deg[mu]):
                grown: dict = {}
                for d, val in expansion.items():
                    for nu in range(4):
                        key = tuple(d[k] + (k == nu) for k in range(4))
                        grown[key] = grown.get(key, 0.0) + val * arr[mu, nu]
                expansion = grown
        for newdeg, val in expansion.items():
            terms[newdeg] = terms[newdeg] + coeff * val if newdeg in terms else coeff * val
    return PolyField(terms, f.max_total_degree, f.tag)


# ------------------------------------------------- per-sample suite runners
#
# The sampled suites as one draw and one single-value evaluation per sample,
# with the (cfg, n, rng) -> (residuals, controls_ok) contract of the
# registered runners.  They read the generator in the same order.


def integer(rng, low: int, high: int) -> int:
    """One integer in low..high-1 as the suites read it: one uniform draw on [low, high),
    rounded down, and high - 1 where the draw rounded up to high."""
    return min(math.floor(rng.uniform(low, high)), high - 1)


def read_per_sample(rng, m: int, inputs) -> list[np.ndarray]:
    """m samples of suite inputs, one generator call per input and sample.

    An integer input is one :func:`integer`, any other one
    ``rng.uniform(low, high, shape)`` (a float for shape ()).
    """
    out = [np.empty((m,) + x.shape, np.intp if x.integer else float) for x in inputs]
    for i in range(m):
        for x, block in zip(inputs, out):
            if x.integer:
                block[i] = integer(rng, x.low, x.high)
            else:
                block[i] = rng.uniform(x.low, x.high, x.shape or None)
    return out


def draw_block(tags, rng, n: int, bound: float = 1.0) -> list[np.ndarray]:
    """n samples of one element per tag, as one (n, 8) array per tag.

    One uniform call fills an (n, total dof) array in C order, which reads
    the stream as n rounds of ``[draw(tag, rng, bound) for tag in tags]``
    would: values and the generator state afterwards are the same.
    """
    block = rng.uniform(-bound, bound, size=(n, sum(map(ndof, tags))))
    out, start = [], 0
    for tag in tags:
        stop = start + ndof(tag)
        out.append(dof_rows(tag, block[:, start:stop]))
        start = stop
    return out


def _full(rng):
    return draw(SubspaceTag.FULL_CO, rng)


def run_composition(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y = _full(rng), _full(rng)
        scale = max(1.0, abs(x) ** 2 * abs(y) ** 2)
        res.append(abs(norm(mul(x, y)) - norm(x) * norm(y)) / scale)
    return res, True


def run_alternativity(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y = _full(rng), _full(rng)
        res.append(max(abs(associator(x, x, y)), abs(associator(x, y, y))))
    return res, True


def run_ip_moves(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y, z = _full(rng), _full(rng), _full(rng)
        res.append(max(abs(residual_ipmove(f, x, y, z)) for f in IPMoveForm))
    return res, True


def run_zvengrowski(cfg, n, rng):
    res = []
    for _ in range(n):
        x, y, z = _full(rng), _full(rng), _full(rng)
        res.append(abs(residual_zvengrowski(x, y, z)))
    return res, True


def run_ab_identities(cfg, n, rng):
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


def run_grading_closure(cfg, n, rng):
    res = []
    for _ in range(n):
        worst = 0.0
        for pair, target in AB_CLOSURE.items():
            x, y = draw(pair[0], rng), draw(pair[1], rng)
            p = mul(x, y)
            worst = max(worst, membership_defect(p, target) / max(1.0, abs(p)))
        res.append(worst)
    return res, True


def double_cover_residual(theta: Theta) -> float:
    """The double-cover residual with scalar products and a summed right side."""
    lam = lambda_S(theta)
    lam_bs = bar_star(lam)
    lv = lambda_V(theta)
    worst = 0.0
    for rho in range(4):
        lhs = mul(mul(lam_bs, EBAR_UPPER[rho]), lam)
        rhs = CplxOcton._wrap(sum(lv[rho, s] * EBAR_UPPER[s].c for s in range(4)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def run_double_cover(cfg, n, rng):
    return [double_cover_residual(Theta.random(rng, cfg.theta_bound)) for _ in range(n)], True


def run_rotation_unitarity(cfg, n, rng):
    res = []
    for _ in range(n):
        lam = lambda_S(Theta.random_rotation(rng, cfg.theta_bound))
        res.append(abs(mul(bar_star(lam), lam) - ONE))
    return res, True


def run_boost_selfconj(cfg, n, rng):
    res = []
    for _ in range(n):
        axis = integer(rng, 1, 4)
        chi = float(rng.uniform(-cfg.theta_bound, cfg.theta_bound))
        lam = lambda_S(Theta.single(0, axis, chi))
        res.append(abs(bar_star(lam) - lam))
    return res, True


def general_coupling_residual(r1, r2, theta, w_val, beta_val) -> float:
    """The coupling-weight associator with scalar products."""
    require_member(w_val, SubspaceTag.A_MINUS, "W value")
    require_member(beta_val, SubspaceTag.B, "beta value")
    middle = r1 * w_val + r2 * conj_oct(w_val)
    return abs(associator(bar_star(lambda_S(theta)), middle, beta_val))


def run_prop4(cfg, n, rng):
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


def _prop1_runner(tag):
    def run(cfg, n, rng):
        res = []
        for _ in range(n):
            f = random_field(rng, cfg.field_degree, tag)
            theta = Theta.random(rng, PROP1_THETA_BOUND)
            p = rng.uniform(-1.0, 1.0, 4)
            res.append(lorentz_invariance_residual(f, theta, p))
        return res, True

    return run


def run_prop2(cfg, n, rng):
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


def gauge_param(cfg, rng, at) -> PolyField:
    """A gauge parameter as the gauge suites draw it, its value at ``at`` capped."""
    u = random_field(rng, min(2, cfg.field_degree), SubspaceTag.A_MINUS, GAUGE_PARAM_BOUND)
    m = abs(eval_at(u, at))
    if m > GAUGE_PARAM_VALUE_CAP:
        u = u * (GAUGE_PARAM_VALUE_CAP / m)
    return u


def connection(cfg, rng) -> ConnectionField:
    return ConnectionField(
        [random_field(rng, cfg.field_degree, SubspaceTag.A_MINUS) for _ in range(4)]
    )


def run_prop3(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = gauge_param(cfg, rng, p)
        res.append(
            covariance_residual_alpha(
                random_field(rng, cfg.field_degree, SubspaceTag.A),
                connection(cfg, rng),
                u,
                integer(rng, 0, 4),
                p,
            )
        )
    return res, True


def run_prop5(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = gauge_param(cfg, rng, p)
        r = float(rng.uniform(0.25, 1.5))
        res.append(
            covariance_residual_beta(
                random_field(rng, cfg.field_degree, SubspaceTag.B),
                connection(cfg, rng),
                u,
                integer(rng, 0, 4),
                p,
                r,
            )
        )
    return res, True


def run_lemma3(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = gauge_param(cfg, rng, p)
        res.append(abs(scal_der_u_residual(u, integer(rng, 0, 4), p)))
    return res, True


def run_lemma4(cfg, n, rng):
    res = []
    for _ in range(n):
        p = rng.uniform(-1.0, 1.0, 4)
        u = gauge_param(cfg, rng, p)
        res.append(abs(scal_ww_residual(connection(cfg, rng), u, integer(rng, 0, 4), p)))
    return res, True


#: Reference route of each field and gauge suite, by suite id.
FIELD_SUITE_RUNNERS = {
    "prop1-A": _prop1_runner(SubspaceTag.A),
    "prop1-B": _prop1_runner(SubspaceTag.B),
    "prop2": run_prop2,
    "prop3": run_prop3,
    "prop5": run_prop5,
    "lemma3": run_lemma3,
    "lemma4": run_lemma4,
}


#: Reference route of each sampled algebra suite, by suite id.
SUITE_RUNNERS = {
    "ip-moves": run_ip_moves,
    "zvengrowski": run_zvengrowski,
    "ab-identities": run_ab_identities,
    "grading-closure": run_grading_closure,
    "double-cover": run_double_cover,
    "rotation-unitarity": run_rotation_unitarity,
    "boost-selfconj": run_boost_selfconj,
    "prop4-dichotomy": run_prop4,
    "composition-law": run_composition,
    "alternativity": run_alternativity,
}
