import cmath

import numpy as np
import pytest

from octoweak.core import (
    E,
    IM,
    ONE,
    CplxOcton,
    exp_assoc,
    exp_rows,
    inverse,
    mul,
    mul_rows,
    scal,
)
from octoweak.errors import DomainViolation
from octoweak.fields import PolyField, eval_at, random_field
from octoweak.gauge import (
    ConnectionField,
    cov_der_alpha_rows,
    cov_der_beta_rows,
    covariance_residual_alpha,
    covariance_residual_beta,
    general_coupling_residual,
    global_alpha_invariance_residual,
    scal_der_u_residual,
    scal_ww_residual,
    transport_rows,
)
from octoweak.grading import SubspaceTag, draw, draw_rows, in_subspace
from octoweak.lorentz import Theta, theta_rows

RNG_AT = np.random.default_rng


def gauge_param(rng, degree=2, bound=0.5, at=None, cap=0.9):
    u = random_field(rng, degree, SubspaceTag.A_MINUS, bound)
    if at is not None:
        m = abs(eval_at(u, at))
        if m > cap:
            u = u * (cap / m)
    return u


def connection(rng, degree=2):
    return ConnectionField(
        [random_field(rng, degree, SubspaceTag.A_MINUS) for _ in range(4)]
    )


def zero_u():
    return PolyField.zero(SubspaceTag.A_MINUS)


def minus_rows(rng, n=40, bound=1.0):
    return draw_rows(SubspaceTag.A_MINUS, rng, n, bound)


# The laws of the transport and of the covariant derivatives, on blocks of
# values and derivatives at a point: w is W_rho, u the gauge parameter and du
# its derivative along x_rho.

# ---------------------------------------------------------- connection transport


def test_transform_W_identity_parameter():
    w = minus_rows(RNG_AT(60))
    zero = np.zeros_like(w)
    assert np.allclose(transport_rows(w, zero, zero), w, rtol=0.0, atol=1e-14)


def test_transform_W_zero_connection_constant_parameter():
    u = minus_rows(RNG_AT(61))
    zero = np.zeros_like(u)
    assert np.max(np.abs(transport_rows(zero, u, zero))) < 1e-14


def test_transform_W_stays_anti_hermitian():
    rng = RNG_AT(62)
    w, u, du = minus_rows(rng, 300), minus_rows(rng, 300, 0.9), minus_rows(rng, 300)
    assert in_subspace(transport_rows(w, u, du), SubspaceTag.A_MINUS).all()


def test_connection_field_validation():
    with pytest.raises(DomainViolation):
        ConnectionField([PolyField.constant(E[1])] * 4)
    with pytest.raises(ValueError):
        ConnectionField([zero_u()] * 3)


# -------------------------------------------------------- covariant derivatives


def test_cov_der_alpha_reduces_and_composes():
    rng = RNG_AT(63)
    a, da = draw_rows(SubspaceTag.A, rng, 40), draw_rows(SubspaceTag.A, rng, 40)
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
    b, db = draw_rows(SubspaceTag.B, rng, 40), draw_rows(SubspaceTag.B, rng, 40)
    w = minus_rows(rng)
    assert np.array_equal(cov_der_beta_rows(b, db, w, 0.0), db)
    # a scalar-free connection decouples entirely
    w[:, 0] = 0.0
    assert np.array_equal(cov_der_beta_rows(b, db, w, 0.8), db)


def test_cov_der_beta_symmetrized_form_agrees():
    rng = RNG_AT(65)
    b, db = draw_rows(SubspaceTag.B, rng, 1000), draw_rows(SubspaceTag.B, rng, 1000)
    w, r = minus_rows(rng, 1000), rng.uniform(-1.5, 1.5, 1000)
    got = cov_der_beta_rows(b, db, w, r)
    form1 = db + (0.5 * r)[:, None] * (mul_rows(b, w) + mul_rows(w, b))
    assert np.max(np.abs(got - form1)) < 1e-12


# --------------------------------------------------------- gauge transformations


def test_gauge_transforms_at_zero_parameter():
    # alpha' = alpha exp(-u) and beta' = beta exp(r Scal(u)) are the fields at u = 0
    rng = RNG_AT(67)
    a, b = draw_rows(SubspaceTag.A, rng, 40), draw_rows(SubspaceTag.B, rng, 40)
    zero = np.zeros_like(a)
    assert np.array_equal(mul_rows(a, exp_rows(-zero)), a)
    assert np.array_equal(b * np.exp(0.7 * zero[:, :1]), b)


def test_beta_gauge_factor_is_a_phase():
    rng = RNG_AT(68)
    for _ in range(50):
        u = gauge_param(rng)
        p = rng.uniform(-1, 1, 4)
        r = float(rng.uniform(-2, 2))
        phase = cmath.exp(r * scal(eval_at(u, p)))
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
    assert global_alpha_invariance_residual(alpha, CplxOcton.zero(), p) == 0.0
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
    assert covariance_residual_alpha(alpha, W, zero_u(), 2, p) < 1e-14


def test_covariance_residual_alpha_constant_and_local():
    rng = RNG_AT(72)
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        alpha = random_field(rng, 2, SubspaceTag.A)
        W = connection(rng)
        rho = int(rng.integers(4))
        u_const = PolyField.constant(draw(SubspaceTag.A_MINUS, rng, 0.7), tag=SubspaceTag.A_MINUS)
        assert covariance_residual_alpha(alpha, W, u_const, rho, p) < 1e-9
        u_local = gauge_param(rng, degree=1, at=p)
        assert covariance_residual_alpha(alpha, W, u_local, rho, p) < 1e-8


def test_covariance_residual_beta_cases():
    rng = RNG_AT(73)
    p = rng.uniform(-1, 1, 4)
    beta = random_field(rng, 2, SubspaceTag.B)
    W = connection(rng)
    assert covariance_residual_beta(beta, W, zero_u(), 1, p, 0.9) < 1e-14
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        beta = random_field(rng, 2, SubspaceTag.B)
        W = connection(rng)
        u = gauge_param(rng, at=p)
        r = float(rng.uniform(0.25, 1.5))
        assert covariance_residual_beta(beta, W, u, int(rng.integers(4)), p, r) < 1e-8


# --------------------------------------------------------------- scalar lemmas


def test_scal_der_u_residual_cases():
    rng = RNG_AT(74)
    p = rng.uniform(-1, 1, 4)
    u_const = PolyField.constant(draw(SubspaceTag.A_MINUS, rng), tag=SubspaceTag.A_MINUS)
    assert abs(scal_der_u_residual(u_const, 0, p)) < 1e-14
    u_scalar = PolyField({(1, 0, 0, 0): IM}, tag=SubspaceTag.A_MINUS)
    assert abs(scal_der_u_residual(u_scalar, 0, (0.4, 0, 0, 0))) < 1e-13
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        u = gauge_param(rng, degree=1, at=p)
        assert abs(scal_der_u_residual(u, int(rng.integers(4)), p)) < 1e-8


def test_scal_ww_residual_cases():
    rng = RNG_AT(75)
    p = rng.uniform(-1, 1, 4)
    W = connection(rng)
    assert abs(scal_ww_residual(W, zero_u(), 0, p)) < 1e-14
    u_const = PolyField.constant(draw(SubspaceTag.A_MINUS, rng, 0.7), tag=SubspaceTag.A_MINUS)
    assert abs(scal_ww_residual(W, u_const, 1, p)) < 1e-12
    for _ in range(25):
        p = rng.uniform(-1, 1, 4)
        u = gauge_param(rng, at=p)
        W = connection(rng)
        assert abs(scal_ww_residual(W, u, int(rng.integers(4)), p)) < 1e-8


# ------------------------------------------------------------ coupling dichotomy


def test_equal_weights_associate():
    rng = RNG_AT(76)
    for _ in range(50):
        r = float(rng.uniform(0.1, 1.0))
        res = general_coupling_residual(
            0.5 * r,
            0.5 * r,
            Theta.random(rng, 2.0),
            draw(SubspaceTag.A_MINUS, rng),
            draw(SubspaceTag.B, rng),
        )
        assert res < 1e-10


def test_unequal_weights_fixed_witness_fails_to_associate():
    theta = Theta.from_upper({(1, 2): 0.8, (0, 2): 0.3})
    assert general_coupling_residual(1.0, 0.0, theta, E[1], E[4]) > 1e-3
    # weights r and 0.3 r leave every row of a block well above rounding
    rng = RNG_AT(10)
    r, thetas = rng.uniform(0.1, 1.0, 40), theta_rows(rng.uniform(-2, 2, (40, 6)))
    w, beta = minus_rows(rng), draw_rows(SubspaceTag.B, rng, 40)
    assert general_coupling_residual(r, 0.3 * r, thetas, w, beta).min() > 1e-3


def test_unit_weight_gap_median_residual_is_large():
    rng = RNG_AT(77)
    residuals = []
    for _ in range(100):
        r2 = float(rng.uniform(-0.5, 0.5))
        residuals.append(
            general_coupling_residual(
                r2 + 1.0,
                r2,
                Theta.random(rng, 2.0),
                draw(SubspaceTag.A_MINUS, rng),
                draw(SubspaceTag.B, rng),
            )
        )
    assert float(np.median(residuals)) > 1e-3


def test_scalar_connection_value_associates_for_any_weights():
    theta = Theta.from_upper({(1, 2): 0.8})
    assert general_coupling_residual(1.0, 0.0, theta, 0.7j * ONE, E[4]) < 1e-12


def test_coupling_membership_checks():
    theta = Theta.zero()
    with pytest.raises(DomainViolation):
        general_coupling_residual(1.0, 1.0, theta, E[4], E[4])
    with pytest.raises(DomainViolation):
        general_coupling_residual(1.0, 1.0, theta, E[1], E[1])
