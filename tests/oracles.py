"""Independent oracles the tests check the library against.

Each oracle takes a different code path from the implementation it
verifies: products come from a generic doubling recursion instead of the
frozen table (and the row kernels from the dense contractions they
replace), exponentials and their derivatives from plain series
summation instead of closed forms (and the closed form from Python's
``cmath`` instead of numpy rows), pulled-back fields from symbolic
expansion instead of the pointwise chain rule, field derivatives term by
term instead of from the jet's table of monomials, derivatives from central
differences instead of formal calculus, and the sampled suites one sample
at a time instead of in blocks of rows: ``SAMPLE_RESIDUALS`` holds, for each
of the 17 sampled suites, a function that draws one sample and evaluates it
as a single value (a field's kernel on a block of one row), and
``WITNESSES`` the two must-fail residuals.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from octoweak import grading, lorentz
from octoweak.core import (
    ASSOC_MEMBERSHIP_TOL,
    ONE,
    CplxOcton,
    abs_rows,
    associator,
    bar_star,
    conj_oct,
    exp_assoc,
    inner,
    mul,
    norm,
    rowwise,
    structure_table,
)
from octoweak.fields import (
    PolyField,
    bilinear_rows,
    dexp_rows,
    eval_at,
    jet_rows,
    lorentz_invariance_rows,
    random_field,
)
from octoweak.gauge import (
    cov_der_alpha_rows,
    covariance_alpha_rows,
    covariance_beta_rows,
    global_alpha_rows,
    scal_der_u_rows,
    scal_ww_rows,
)
from octoweak.grading import (
    AB_CLOSURE,
    SubspaceTag,
    dof_rows,
    draw,
    membership_defect,
    ndof,
    require_member,
    residual_zvengrowski,
)
from octoweak.lorentz import ETA, EBAR_UPPER, Theta, lambda_S, lambda_V, s_gen, v_gen
from octoweak.suites import (
    GAUGE_PARAM_BOUND,
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
    acc = power = ONE
    fact = 1.0
    for k in range(1, terms + 1):
        power = mul(power, u)
        fact *= k
        acc = acc + power * (1.0 / fact)
    return acc


def _cos_sinc(z: complex) -> tuple[complex, complex]:
    # cos(omega) and sin(omega)/omega as functions of z = omega^2, on the
    # principal branch, with a 4-term Taylor sum below |omega| = 1e-6
    om = cmath.sqrt(z)
    if abs(om) < 1e-6:
        z2 = z * z
        z3 = z2 * z
        return 1 - z / 2 + z2 / 24 - z3 / 720, 1 - z / 6 + z2 / 120 - z3 / 5040
    return cmath.cos(om), cmath.sin(om) / om


#: The inner-product moves, in ``grading.ipmove_residuals``' order.
IPMOVE_FORMS = ("LL", "LR", "RL", "RR")


@rowwise
def residual_ipmove_per_form(form: str, x, y, z):
    """LHS - RHS of one inner-product move, named by its label in IPMOVE_FORMS,
    formed on its own: every product it reads is recomputed.  The library forms
    the products the four moves share once (``grading.ipmove_residuals``), with
    the same bits."""
    if form == "LL":
        return inner(mul(x, y), z) - inner(y, mul(conj_oct(x), z))
    if form == "LR":
        return inner(mul(x, y), z) - inner(x, mul(z, conj_oct(y)))
    if form == "RL":
        return inner(z, mul(x, y)) - inner(mul(conj_oct(x), z), y)
    if form == "RR":
        return inner(z, mul(x, y)) - inner(mul(z, conj_oct(y)), x)
    raise ValueError(f"unhandled form {form}")


@rowwise
def exchange_residuals_per_identity(a, a2, b, b2):
    """The six exchange residuals, each formed on its own: every product it reads
    is recomputed, and no input is checked.  The library forms the products a b,
    b a and b b' that several identities share once, and gathers each shared
    right factor's matrix once (``grading.exchange_residuals``), with the same bits."""
    return [
        mul(a, b) - mul(b, conj_oct(a)),
        mul(mul(a, a2), b) - mul(a2, mul(a, b)),
        mul(b, mul(a2, a)) - mul(mul(b, a), a2),
        mul(mul(b, b2), a) - mul(mul(a, b), b2),
        mul(a, mul(b2, b)) - mul(b2, mul(b, a)),
        mul(mul(a, b), mul(b2, a2)) - mul(mul(a2, mul(b, b2)), a),
    ]


# ------------------------------------------ one right-multiplication matrix a product
#
# The library's kernels gather the right-multiplication matrix of a right factor
# that several products share once (``core.right_rows``) and apply it to each.
# These are the same formulas with one ``mul``, and one gather, a product; no
# input is checked.  Each must give the library's bits.


def associator_by_mul(x, y, z):
    """``core.associator``."""
    return mul(mul(x, y), z) - mul(x, mul(y, z))


def zvengrowski_by_mul(x, y, z):
    """``grading.residual_zvengrowski``."""
    lhs = mul(x, mul(conj_oct(y), z)) + mul(y, mul(conj_oct(x), z))
    return lhs - (2.0 * inner(x, y))[..., None] * z


def alternativity_by_mul(x, y):
    """The alternativity suite's residual: the larger of |[x, x, y]| and |[x, y, y]|."""
    xy = mul(x, y)
    xxy = mul(mul(x, x), y) - mul(x, xy)
    xyy = mul(xy, y) - mul(x, mul(y, y))
    return np.maximum(abs_rows(xxy), abs_rows(xyy))


def double_cover_by_mul(theta):
    """``lorentz.double_cover_residual`` of an (..., 4, 4) parameter stack."""
    lam = lambda_S(theta)
    lam_bs = bar_star(lam)
    rhs = lorentz.ebar_rows(lambda_V(theta))
    return np.max(
        [abs_rows(mul(mul(lam_bs, ebar), lam) - rhs[..., rho, :])
         for rho, ebar in enumerate(lorentz.EBAR_UPPER_ROWS)],
        axis=0,
    )


def transport_by_mul(w, u, du):
    """``gauge.transport_rows``."""
    u_inv = exp_assoc(-u)
    return mul(mul(exp_assoc(u), w), u_inv) - mul(dexp_rows(u, du), u_inv)


def covariance_alpha_by_mul(a, da, w, u, du):
    """``gauge.covariance_alpha_rows``."""
    u_inv = exp_assoc(-u)
    d_aprime = mul(da, u_inv) + mul(a, dexp_rows(-u, -du))
    primed = d_aprime - mul(mul(a, u_inv), transport_by_mul(w, u, du))
    return abs_rows(primed - mul(cov_der_alpha_rows(a, da, w), u_inv))


def global_alpha_by_mul(a, grads, u):
    """``gauge.global_alpha_rows``, one product per rho."""
    u_inv = exp_assoc(-u)
    moved = np.stack([mul(grads[..., rho, :], u_inv) for rho in range(4)], axis=-2)
    primed = bilinear_rows(mul(a, u_inv), moved)
    return np.abs(primed - bilinear_rows(a, grads))


def membership_full(rows: np.ndarray, tag: SubspaceTag):
    """Each row's magnitude outside the subspace, by its projection, and whether it
    is within tolerance, with no shortcut for rows whose complement is exactly zero."""
    defect = abs_rows(rows - grading.project(rows, tag))
    return defect, defect <= grading.MEMBERSHIP_TOL * np.maximum(1.0, abs_rows(rows))


def outside_quaternions(u: np.ndarray) -> bool:
    """Whether ``core.exp_assoc`` refuses some row of u, by its full test: components
    on e4..e7 beyond a scale-relative tolerance."""
    tail = np.max(np.abs(u[..., 4:]), axis=-1)
    return bool(np.any(tail > ASSOC_MEMBERSHIP_TOL * np.maximum(1.0, abs_rows(u))))


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


def mat_exp(m: np.ndarray) -> np.ndarray:
    """exp of one square matrix by scaling and squaring on an 18-term Taylor sum: the
    series route to ``lambda_V``, whose closed form it checks.  The matrix is
    halved until its 1-norm is at most 1/2; a real matrix gives a real result."""
    a = np.asarray(m)
    squarings = math.ceil(math.log2(max(np.abs(a).sum(axis=0).max() / 0.5, 1.0)))
    a = a / 2.0**squarings
    acc = term = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 19):
        term = term @ a / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def lambda_V_series(thetas: np.ndarray) -> np.ndarray:
    """``lambda_V`` of each parameter matrix of a stack (..., 4, 4), by :func:`mat_exp`
    of its generator sum, one matrix at a time."""
    gens = lorentz._generator_sum(thetas, lorentz._V_REAL_PAIRS)
    return np.array([mat_exp(g) for g in gens.reshape(-1, 4, 4)]).reshape(gens.shape)


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
    s_mn, s_rs = s_gen(mu, nu), s_gen(rho, sigma)
    lhs = (mul(s_mn, s_rs) - mul(s_rs, s_mn)) * (-1j)
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
    lhs = mul(CplxOcton(np.conj(s.c)), EBAR_UPPER[rho]) + mul(EBAR_UPPER[rho], s)
    v = v_gen(mu, nu)
    rhs = CplxOcton._wrap(sum(v[rho, s_] * EBAR_UPPER[s_].c for s_ in range(4)))
    return lhs - rhs


def eval_naive(f, p) -> CplxOcton:
    """Monomial-by-monomial field evaluation."""
    acc = 0 * ONE
    for deg, coeff in f.terms.items():
        val = 1.0
        for i in range(4):
            val *= float(p[i]) ** deg[i]
        acc = acc + coeff * val
    return acc


def jet_rows_by_exponents(exps: np.ndarray, coeffs: np.ndarray, points: np.ndarray):
    """``fields.jet_rows`` from the exponents of each monomial and of its four
    derivatives, (5, M, 4), each row's product formed from the powers in turn and
    started from its integer factor, instead of from the values of the closure.
    Each coordinate's powers are running products, 1, x, x * x, ..., by ``np.cumprod``."""
    exps = np.asarray(exps, dtype=np.int64)
    shifted = exps[None] - np.eye(4, dtype=np.int64)[:, None, :]
    powers = np.concatenate([exps[None], np.where(exps.T[:, :, None] > 0, shifted, 0)])
    factors = np.concatenate([np.ones((1, len(exps))), exps.T])
    repeated = np.broadcast_to(points[..., None], points.shape + (exps.max(initial=0),))
    table = np.cumprod(np.concatenate([np.ones(points.shape + (1,)), repeated], axis=-1), axis=-1)
    monos = table[..., 0, powers[..., 0]]
    monos *= factors
    for axis in range(1, 4):
        monos *= table[..., axis, powers[..., axis]]
    coeffs = np.ascontiguousarray(coeffs, dtype=np.result_type(coeffs, np.float64))
    jet = (monos @ coeffs.view(np.float64)).view(coeffs.dtype)
    return jet[..., 0, :], jet[..., 1:, :]


def partial(f: PolyField, mu: int) -> PolyField:
    """Exact formal partial derivative along x_mu, term by term."""
    terms = {}
    for deg, coeff in f.terms.items():
        if deg[mu]:
            terms[tuple(d - (k == mu) for k, d in enumerate(deg))] = coeff * deg[mu]
    return PolyField(terms, tag=f.tag)


def central_difference(fn, p, mu: int, h: float = 1e-5) -> CplxOcton:
    """Central finite difference of a point function along coordinate mu."""
    pp = np.asarray(p, dtype=float).copy()
    pm = pp.copy()
    pp[mu] += h
    pm[mu] -= h
    return (fn(pp) - fn(pm)) * (1.0 / (2.0 * h))


def dexp_series(u: np.ndarray, du: np.ndarray, tail_tol: float = 1e-14) -> np.ndarray:
    """Derivative of exp(u) along a direction in which u changes by du, row by row,
    by the series sum_m 1/m! sum_l u^l du u^(m-1-l).

    u and du are quaternionic rows (n, 8), so the groupings are unambiguous.
    The tail is cut once m/m! * |u|^(m-1) * |du| falls below ``tail_tol`` in
    every row.
    """
    size, step = abs_rows(u), abs_rows(du)
    one = np.zeros_like(u)
    one[:, 0] = 1.0
    acc = np.zeros_like(u)
    left, right = [one], [du]  # u^l and du u^j
    fact = 1.0
    for m in range(1, 121):
        fact *= m
        left.append(mul(left[-1], u))
        right.append(mul(right[-1], u))
        for l in range(m):
            acc = acc + mul(left[l], right[m - 1 - l]) * (1.0 / fact)
        if np.all((m / fact) * size ** (m - 1) * step < tail_tol):
            return acc
    raise ArithmeticError("derivative-of-exponential series did not converge")


def pullback_linear(f: PolyField, m, left: CplxOcton | None = None) -> PolyField:
    """The field x -> f(Mx) for a real 4x4 matrix M, expanded term by term, each
    coefficient multiplied on the left by ``left`` if given.  ``left`` lies in the
    quaternionic subalgebra A, whose products keep an A or B field in its subspace."""
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
    if left is not None:
        terms = {deg: mul(left, coeff) for deg, coeff in terms.items()}
    return PolyField(terms, tag=f.tag)


# ------------------------------------------------ one sample of each suite
#
# Each sampled suite as a function (cfg, rng) -> residual: one sample read in
# the suite's own order through ``draw``, ``Theta.random``, ``random_field`` and
# :func:`integer`, and evaluated as a single value (a field's kernel on a block
# of one row).  n calls read the stream as the suite's n samples do.


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


_F, _A, _B, _AM = SubspaceTag.FULL_CO, SubspaceTag.A, SubspaceTag.B, SubspaceTag.A_MINUS


def _on_elements(tags, residual):
    """The sample of a suite that reads one element per tag: the elements drawn in
    turn, then ``residual`` of them."""
    return lambda cfg, rng: residual(*[draw(tag, rng) for tag in tags])


def _composition(x, y):
    return abs(norm(mul(x, y)) - norm(x) * norm(y)) / max(1.0, abs(x) ** 2 * abs(y) ** 2)


def _grading_closure(*xs):
    # xs holds x, y for each (tag_x, tag_y) of the closure table in turn
    products = [mul(x, y) for x, y in zip(xs[::2], xs[1::2])]
    return max(membership_defect(p, target) / max(1.0, abs(p))
               for p, target in zip(products, AB_CLOSURE.values()))


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


def _rotation_unitarity(cfg, rng):
    lam = lambda_S(Theta.random_rotation(rng, cfg.theta_bound))
    return abs(mul(bar_star(lam), lam) - ONE)


def _boost_selfconj(cfg, rng):
    axis = integer(rng, 1, 4)
    lam = lambda_S(Theta.single(0, axis, float(rng.uniform(-cfg.theta_bound, cfg.theta_bound))))
    return abs(bar_star(lam) - lam)


def general_coupling_residual(r1, r2, theta, w_val, beta_val) -> float:
    """The coupling-weight associator with scalar products."""
    require_member(w_val, SubspaceTag.A_MINUS, "W value")
    require_member(beta_val, SubspaceTag.B, "beta value")
    middle = r1 * w_val + r2 * conj_oct(w_val)
    return abs(associator(bar_star(lambda_S(theta)), middle, beta_val))


def _prop4(cfg, rng):
    r = 0.5 * float(rng.uniform(0.1, 1.0))
    theta = Theta.random(rng, cfg.theta_bound)
    return general_coupling_residual(r, r, theta, draw(_AM, rng), draw(_B, rng))


def along(f: PolyField, mu: int, points: np.ndarray):
    """A field's values and derivatives along x_mu at a block of points (n, 4): two (n, 8)."""
    values, grads = jet_rows(f.exps, f.coeffs, points)
    return values, grads[:, mu]


def _at(kernel, *rows) -> float:
    # the size of a kernel's residual on a block of one sample, as a Python number
    with np.errstate(all="ignore"):
        return abs(kernel(*rows)[0].item())


def lorentz_invariance_residual(f: PolyField, theta: Theta, p) -> float:
    """``fields.lorentz_invariance_rows`` for one field, parameter and point."""
    def jet_at(q):
        return jet_rows(f.exps, f.coeffs, q)

    point = np.asarray(p, dtype=float)[None]
    return _at(lorentz_invariance_rows, f.tag, lambda_S(theta).c, lambda_V(theta), jet_at, point)


def global_alpha_invariance_residual(alpha: PolyField, u_const: CplxOcton, p) -> float:
    """``gauge.global_alpha_rows`` for one field, constant parameter and point."""
    values, grads = jet_rows(alpha.exps, alpha.coeffs, np.asarray(p, dtype=float)[None])
    return _at(global_alpha_rows, values, grads, u_const.c[None])


def _prop1(tag):
    def sample(cfg, rng):
        f = random_field(rng, cfg.field_degree, tag)
        theta = Theta.random(rng, PROP1_THETA_BOUND)
        return lorentz_invariance_residual(f, theta, rng.uniform(-1.0, 1.0, 4))

    return sample


def _prop2(cfg, rng):
    alpha = random_field(rng, cfg.field_degree, _A)
    u0 = draw(_AM, rng)
    return global_alpha_invariance_residual(alpha, u0, rng.uniform(-1.0, 1.0, 4))


def gauge_param(rng, degree: int = 2, at=None) -> PolyField:
    """A gauge parameter as the gauge suites draw it: degree at most 2, coefficients
    within ``GAUGE_PARAM_BOUND`` and, given a point ``at``, its value there capped at 0.9.
    The cap is stated here, not read from ``suites``, so that a changed cap there shows
    as a disagreement with this reference."""
    u = random_field(rng, min(2, degree), _AM, GAUGE_PARAM_BOUND)
    if at is not None:
        m = abs(eval_at(u, at))
        if m > 0.9:
            u = u * (0.9 / m)
    return u


def connection(rng, degree: int = 2) -> list[PolyField]:
    """The four A- components W_0..W_3 of a connection."""
    return [random_field(rng, degree, _AM) for _ in range(4)]


def _on_gauge_param(residual):
    """The sample of a gauge suite: a point, a gauge parameter capped there, then what
    ``residual(cfg, rng, u, p)`` draws and evaluates along a drawn axis at p (1, 4)."""
    def sample(cfg, rng):
        p = rng.uniform(-1.0, 1.0, 4)
        return residual(cfg, rng, gauge_param(rng, cfg.field_degree, p), p[None])

    return sample


@_on_gauge_param
def _prop3(cfg, rng, u, p):
    alpha, w = random_field(rng, cfg.field_degree, _A), connection(rng, cfg.field_degree)
    rho = integer(rng, 0, 4)
    w_rho = along(w[rho], 0, p)[0]
    return _at(covariance_alpha_rows, *along(alpha, rho, p), w_rho, *along(u, rho, p))


@_on_gauge_param
def _prop5(cfg, rng, u, p):
    r = float(rng.uniform(0.25, 1.5))
    beta, w = random_field(rng, cfg.field_degree, _B), connection(rng, cfg.field_degree)
    rho = integer(rng, 0, 4)
    w_rho = along(w[rho], 0, p)[0]
    return _at(covariance_beta_rows, *along(beta, rho, p), w_rho, *along(u, rho, p), r)


@_on_gauge_param
def _lemma3(cfg, rng, u, p):
    return _at(scal_der_u_rows, *along(u, integer(rng, 0, 4), p))


@_on_gauge_param
def _lemma4(cfg, rng, u, p):
    w, rho = connection(rng, cfg.field_degree), integer(rng, 0, 4)
    return _at(scal_ww_rows, along(w[rho], 0, p)[0], *along(u, rho, p))


#: One sample's residual, (cfg, rng) -> float, of each sampled suite, by suite id.
SAMPLE_RESIDUALS = {
    "ip-moves": _on_elements(
        (_F, _F, _F), lambda *xyz: max(abs(residual_ipmove_per_form(f, *xyz)) for f in IPMOVE_FORMS)),
    "zvengrowski": _on_elements((_F, _F, _F), lambda *xyz: abs(residual_zvengrowski(*xyz))),
    "ab-identities": _on_elements(
        (_A, _A, _B, _B), lambda *ab: max(map(abs, exchange_residuals_per_identity(*ab)))),
    "grading-closure": _on_elements([tag for pair in AB_CLOSURE for tag in pair], _grading_closure),
    "double-cover": lambda cfg, rng: double_cover_residual(Theta.random(rng, cfg.theta_bound)),
    "rotation-unitarity": _rotation_unitarity,
    "boost-selfconj": _boost_selfconj,
    "prop1-A": _prop1(_A),
    "prop1-B": _prop1(_B),
    "prop2": _prop2,
    "prop3": _prop3,
    "prop4-dichotomy": _prop4,
    "prop5": _prop5,
    "lemma3": _lemma3,
    "lemma4": _lemma4,
    "composition-law": _on_elements((_F, _F), _composition),
    "alternativity": _on_elements(
        (_F, _F), lambda x, y: max(abs(associator(x, x, y)), abs(associator(x, y, y)))),
}

#: The must-fail residual of each suite with a witness, by suite id.
WITNESSES = {
    "prop2": lambda: global_alpha_invariance_residual(
        PROP2_WITNESS_ALPHA, PROP2_WITNESS_U, PROP2_WITNESS_POINT),
    "prop4-dichotomy": lambda: general_coupling_residual(**PROP4_WITNESS),
}
