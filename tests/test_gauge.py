import cmath

import numpy as np
import pytest

from octoweak.core import (
    E,
    ONE,
    CplxOcton,
    abs_rows,
    exp_assoc,
    inverse,
    mul,
)
from octoweak.errors import DomainViolation
from octoweak.fields import PolyField, eval_at, random_field
from octoweak.gauge import (
    cov_der_alpha_rows,
    cov_der_beta_rows,
    covariance_alpha_rows,
    covariance_beta_rows,
    general_coupling_residual,
    scal_der_u_rows,
    scal_ww_rows,
    transport_rows,
)
from octoweak.grading import SubspaceTag, draw, require_member
from octoweak.lorentz import Theta, theta_rows

from oracles import (
    along,
    connection,
    dexp_series,
    draw_block,
    gauge_param,
    global_alpha_invariance_residual,
)

RNG_AT = np.random.default_rng


def jets(p, rho, *fields):
    # each field's value and derivative along x_rho at p, as blocks of one row
    return [along(f, rho, np.asarray(p, dtype=float)[None]) for f in fields]


def constant(value):
    # a constant gauge parameter's value and derivative, as blocks of one row
    return value.c[None], np.zeros((1, 8), np.complex128)


def tagged_rows(tag, rng, n=40, bound=1.0):
    return draw_block((tag,), rng, n, bound)[0]


def minus_rows(rng, n=40, bound=1.0):
    return tagged_rows(SubspaceTag.A_MINUS, rng, n, bound)


# The laws of the transport and of the covariant derivatives, on blocks of
# values and derivatives at a point: w is W_rho, u the gauge parameter and du
# its derivative along x_rho.

# ---------------------------------------------------------- connection transport


def test_transport_rows_identity_parameter():
    w = minus_rows(RNG_AT(60))
    zero = np.zeros_like(w)
    assert np.allclose(transport_rows(w, zero, zero), w, rtol=0.0, atol=1e-14)


def test_transport_rows_zero_connection_constant_parameter():
    u = minus_rows(RNG_AT(61))
    zero = np.zeros_like(u)
    assert np.max(np.abs(transport_rows(zero, u, zero))) < 1e-14


def test_transport_rows_stays_anti_hermitian():
    rng = RNG_AT(62)
    w, u, du = minus_rows(rng, 300), minus_rows(rng, 300, 0.9), minus_rows(rng, 300)
    require_member(transport_rows(w, u, du), SubspaceTag.A_MINUS)


def test_transport_rows_matches_the_series_route():
    # U w U^-1 - (d_rho U) U^-1, with the derivative of U = exp(u) summed as a series
    rng = RNG_AT(62)
    w, u, du = minus_rows(rng, 300), minus_rows(rng, 300, 0.9), minus_rows(rng, 300)
    u_inv = exp_assoc(-u)
    want = mul(mul(exp_assoc(u), w), u_inv) - mul(dexp_series(u, du), u_inv)
    assert np.max(abs_rows(transport_rows(w, u, du) - want)) < 1e-12


# -------------------------------------------------------- covariant derivatives


def test_cov_der_alpha_reduces_and_composes():
    rng = RNG_AT(63)
    a, da = tagged_rows(SubspaceTag.A, rng), tagged_rows(SubspaceTag.A, rng)
    w = minus_rows(rng)
    # D_rho alpha is d_rho alpha at W = 0, and -W_rho for alpha = 1
    assert np.array_equal(cov_der_alpha_rows(a, da, np.zeros_like(w)), da)
    assert np.array_equal(cov_der_alpha_rows(ONE.c, 0.0, w), -w)
    got = cov_der_alpha_rows(a, da, w)
    for i in range(40):
        want = CplxOcton(da[i]) - mul(CplxOcton(a[i]), CplxOcton(w[i]))
        assert got[i].tobytes() == want.c.tobytes()


def test_cov_der_beta_forms_and_decoupling():
    rng = RNG_AT(64)
    b, db = tagged_rows(SubspaceTag.B, rng), tagged_rows(SubspaceTag.B, rng)
    w = minus_rows(rng)
    assert np.array_equal(cov_der_beta_rows(b, db, w, 0.0), db)
    # a scalar-free connection decouples entirely
    w[:, 0] = 0.0
    assert np.array_equal(cov_der_beta_rows(b, db, w, 0.8), db)


def test_cov_der_beta_symmetrized_form_agrees():
    rng = RNG_AT(65)
    b, db = tagged_rows(SubspaceTag.B, rng, 1000), tagged_rows(SubspaceTag.B, rng, 1000)
    w, r = minus_rows(rng, 1000), rng.uniform(-1.5, 1.5, 1000)
    got = cov_der_beta_rows(b, db, w, r)
    form1 = db + (0.5 * r)[:, None] * (mul(b, w) + mul(w, b))
    assert np.max(np.abs(got - form1)) < 1e-12


# --------------------------------------------------------- gauge transformations


def test_gauge_transforms_at_zero_parameter():
    # alpha' = alpha exp(-u) and beta' = beta exp(r Scal(u)) are the fields at u = 0
    rng = RNG_AT(67)
    a, b = tagged_rows(SubspaceTag.A, rng), tagged_rows(SubspaceTag.B, rng)
    zero = np.zeros_like(a)
    assert np.array_equal(mul(a, exp_assoc(-zero)), a)
    assert np.array_equal(b * np.exp(0.7 * zero[:, :1]), b)


def test_beta_gauge_factor_is_a_phase():
    rng = RNG_AT(68)
    for _ in range(50):
        u = gauge_param(rng)
        p = rng.uniform(-1, 1, 4)
        r = float(rng.uniform(-2, 2))
        phase = cmath.exp(r * eval_at(u, p).c[0])
        assert abs(abs(phase) - 1.0) < 1e-12
        assert abs(phase.conjugate() * phase - 1.0) < 1e-12


def test_alpha_gauge_group_composition():
    # alpha -> alpha U1^-1 -> (alpha U1^-1) U2^-1 is alpha (U2 U1)^-1
    rng = RNG_AT(69)
    for _ in range(20):
        u1, u2 = draw(SubspaceTag.A_MINUS, rng), draw(SubspaceTag.A_MINUS, rng)
        alpha = draw(SubspaceTag.A, rng)
        twice = mul(mul(alpha, exp_assoc(-u1)), exp_assoc(-u2))
        want = mul(alpha, inverse(mul(exp_assoc(u2), exp_assoc(u1))))
        assert abs(twice - want) < 1e-11


# ------------------------------------------------------------ global invariance


def test_global_invariance_zero_and_random_antihermitian():
    rng = RNG_AT(70)
    alpha = random_field(rng, 2, SubspaceTag.A)
    p = rng.uniform(-1, 1, 4)
    assert global_alpha_invariance_residual(alpha, 0 * ONE, p) == 0.0
    for _ in range(50):
        u0 = draw(SubspaceTag.A_MINUS, rng)
        assert global_alpha_invariance_residual(alpha, u0, p) < 1e-9


def test_global_invariance_negative_witness():
    alpha = PolyField({(1, 0, 0, 0): E[1]}, tag=SubspaceTag.A)
    u_bad = ONE + E[1]  # nonzero real scalar part
    assert global_alpha_invariance_residual(alpha, u_bad, (0.7, 0.3, -0.4, 0.2)) > 1e-3


# ---------------------------------------------------------- covariance residuals


def test_covariance_residual_alpha_zero_parameter():
    rng = RNG_AT(71)
    alpha = random_field(rng, 2, SubspaceTag.A)
    W = connection(rng)
    p = rng.uniform(-1, 1, 4)
    (a, da), (w, _) = jets(p, 2, alpha, W[2])
    assert covariance_alpha_rows(a, da, w, *constant(0 * ONE))[0] < 1e-14


def test_covariance_residual_alpha_constant_and_local():
    rng = RNG_AT(72)
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        alpha = random_field(rng, 2, SubspaceTag.A)
        W = connection(rng)
        rho = int(rng.integers(4))
        (a, da), (w, _) = jets(p, rho, alpha, W[rho])
        u_const = constant(draw(SubspaceTag.A_MINUS, rng, 0.7))
        assert covariance_alpha_rows(a, da, w, *u_const)[0] < 1e-9
        (u_local,) = jets(p, rho, gauge_param(rng, degree=1, at=p))
        assert covariance_alpha_rows(a, da, w, *u_local)[0] < 1e-8


def test_covariance_residual_beta_cases():
    rng = RNG_AT(73)
    p = rng.uniform(-1, 1, 4)
    beta = random_field(rng, 2, SubspaceTag.B)
    W = connection(rng)
    (b, db), (w, _) = jets(p, 1, beta, W[1])
    assert covariance_beta_rows(b, db, w, *constant(0 * ONE), 0.9)[0] < 1e-14
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        beta = random_field(rng, 2, SubspaceTag.B)
        W = connection(rng)
        u = gauge_param(rng, at=p)
        r = float(rng.uniform(0.25, 1.5))
        rho = int(rng.integers(4))
        (b, db), (w, _), (uv, du) = jets(p, rho, beta, W[rho], u)
        assert covariance_beta_rows(b, db, w, uv, du, r)[0] < 1e-8


# --------------------------------------------------------------- scalar lemmas


def test_scal_der_u_residual_cases():
    rng = RNG_AT(74)
    p = rng.uniform(-1, 1, 4)
    assert abs(scal_der_u_rows(*constant(draw(SubspaceTag.A_MINUS, rng)))[0]) < 1e-14
    u_scalar = PolyField({(1, 0, 0, 0): 1j * ONE}, tag=SubspaceTag.A_MINUS)
    assert abs(scal_der_u_rows(*jets((0.4, 0, 0, 0), 0, u_scalar)[0])[0]) < 1e-13
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        u = gauge_param(rng, degree=1, at=p)
        assert abs(scal_der_u_rows(*jets(p, int(rng.integers(4)), u)[0])[0]) < 1e-8


def test_scal_ww_residual_cases():
    rng = RNG_AT(75)
    p = rng.uniform(-1, 1, 4)
    W = connection(rng)
    (w0, _), (w1, _) = jets(p, 0, W[0], W[1])
    assert abs(scal_ww_rows(w0, *constant(0 * ONE))[0]) < 1e-14
    u_const = constant(draw(SubspaceTag.A_MINUS, rng, 0.7))
    assert abs(scal_ww_rows(w1, *u_const)[0]) < 1e-12
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        u = gauge_param(rng, at=p)
        W = connection(rng)
        rho = int(rng.integers(4))
        (w, _), (uv, du) = jets(p, rho, W[rho], u)
        assert abs(scal_ww_rows(w, uv, du)[0]) < 1e-8


def test_a_residual_where_a_field_overflows_names_the_value_that_is_not_finite():
    # the fields' values overflow at this point: each kernel raises
    # OverflowError, as eval_at does, instead of blaming subspace membership
    rng = RNG_AT(76)
    alpha, beta = random_field(rng, 2, SubspaceTag.A), random_field(rng, 2, SubspaceTag.B)
    W, u, p = connection(rng), gauge_param(rng), (1e200, 0.0, 0.0, 0.0)
    with pytest.raises(OverflowError):
        eval_at(alpha, p)
    u_const = draw(SubspaceTag.A_MINUS, rng)
    with np.errstate(all="ignore"):
        (a, da), (b, db), (w, _), (uv, du) = jets(p, 0, alpha, beta, W[0], u)
        residuals = [
            lambda: covariance_alpha_rows(a, da, w, uv, du),
            lambda: covariance_beta_rows(b, db, w, uv, du, 0.7),
            lambda: scal_der_u_rows(uv, du),
            lambda: scal_ww_rows(w, uv, du),
            lambda: global_alpha_invariance_residual(alpha, u_const, p),
        ]
        for residual in residuals:
            with pytest.raises(OverflowError, match="value is not finite"):
                residual()


# ------------------------------------------------------------ coupling dichotomy


def test_unequal_weights_fixed_witness_fails_to_associate():
    theta = Theta.from_upper({(1, 2): 0.8, (0, 2): 0.3})
    assert general_coupling_residual(1.0, 0.0, theta, E[1], E[4]) > 1e-3
    # weights r and 0.3 r leave every row of a block well above rounding
    rng = RNG_AT(10)
    r, thetas = rng.uniform(0.1, 1.0, 40), theta_rows(rng.uniform(-2, 2, (40, 6)))
    w, beta = minus_rows(rng), tagged_rows(SubspaceTag.B, rng)
    assert general_coupling_residual(r, 0.3 * r, thetas, w, beta).min() > 1e-3


def test_scalar_connection_value_associates_for_any_weights():
    theta = Theta.from_upper({(1, 2): 0.8})
    assert general_coupling_residual(1.0, 0.0, theta, 0.7j * ONE, E[4]) < 1e-12


def test_coupling_membership_checks():
    theta = Theta(np.zeros((4, 4)))
    with pytest.raises(DomainViolation):
        general_coupling_residual(1.0, 1.0, theta, E[4], E[4])
    with pytest.raises(DomainViolation):
        general_coupling_residual(1.0, 1.0, theta, E[1], E[1])
