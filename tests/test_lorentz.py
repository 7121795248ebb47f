import math

import numpy as np
import pytest

from octoweak.core import (
    E,
    ONE,
    CplxOcton,
    bar_star,
    bar_star_rows,
    conj_oct,
    isclose,
    mul,
    mul_rows,
    norm,
    scal,
)
from octoweak.grading import SubspaceTag, draw, draw_rows, in_subspace
from octoweak import lorentz
from octoweak.lorentz import (
    E_LOWER,
    E_UPPER,
    EBAR_UPPER,
    ETA,
    Theta,
    double_cover_residual,
    eta_inverse_transform,
    gamma5_analogue,
    infinitesimal_dc_residual,
    lambda_S,
    lambda_V,
    lorentz_algebra_residual,
    theta_rows,
    s_gen,
    v_gen,
)

from oracles import mat_exp, mat_exp_taylor


# -------------------------------------------------------------------- basis


def test_basis_is_antihermitian_and_orthonormal_for_the_metric():
    from octoweak.core import inner

    for mu in range(4):
        assert isclose(bar_star(E_LOWER[mu]), -E_LOWER[mu], 0.0)
        for nu in range(4):
            assert abs(inner(E_LOWER[mu], E_LOWER[nu]) - ETA[mu, nu]) < 1e-15
    # raised index flips the time slot only
    assert E_UPPER[0] == -E_LOWER[0]
    for k in range(1, 4):
        assert E_UPPER[k] == E_LOWER[k]


def test_theta_validation_and_constructors():
    with pytest.raises(ValueError):
        Theta(np.ones((4, 4)))
    t = Theta.single(1, 2, 0.5)
    assert t.m[1, 2] == 0.5 and t.m[2, 1] == -0.5
    with pytest.raises(ValueError):
        Theta.from_upper({(2, 1): 1.0})
    rng = np.random.default_rng(0)
    tr = Theta.random_rotation(rng, 2.0)
    assert np.all(tr.m[0, :] == 0.0)


# ---------------------------------------------------------------- generators


def test_spinor_generator_anchors():
    assert isclose(s_gen(1, 2), 0.5j * E[3], 1e-15)
    assert isclose(s_gen(0, 1), -0.5 * E[1], 1e-15)
    assert s_gen(2, 2) == CplxOcton.zero()
    for mu in range(4):
        for nu in range(4):
            g = s_gen(mu, nu)
            assert isclose(g, -s_gen(nu, mu), 0.0)
            assert scal(g) == 0.0  # zero scalar part
            assert in_subspace(g, SubspaceTag.A)


def test_vector_generator_entries():
    v = v_gen(0, 1)
    assert v[0, 1] == -1j * ETA[1, 1]
    assert np.all(v_gen(2, 2) == 0.0)
    for mu in range(4):
        for nu in range(4):
            m = v_gen(mu, nu)
            assert np.max(np.abs(m.real)) == 0.0  # purely imaginary entries
            assert np.allclose(m, -v_gen(nu, mu))


def test_vector_generators_close_with_the_same_structure_constants():
    for mu in range(4):
        for nu in range(4):
            for rho in range(4):
                for sig in range(4):
                    a, b = v_gen(mu, nu), v_gen(rho, sig)
                    lhs = -1j * (a @ b - b @ a)
                    rhs = (
                        ETA[mu, rho] * v_gen(nu, sig)
                        - ETA[mu, sig] * v_gen(nu, rho)
                        - ETA[nu, rho] * v_gen(mu, sig)
                        + ETA[nu, sig] * v_gen(mu, rho)
                    )
                    assert np.max(np.abs(lhs - rhs)) < 1e-14


# ------------------------------------------------------------- matrix exponential


def test_mat_exp_identity_and_inverse():
    assert np.allclose(mat_exp(np.zeros((4, 4))), np.eye(4))
    rng = np.random.default_rng(30)
    for _ in range(20):
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        prod = mat_exp(m) @ mat_exp(-m)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_mat_exp_rotation_block():
    phi = 0.9
    m = np.zeros((4, 4))
    m[0, 1] = phi
    m[1, 0] = -phi
    got = mat_exp(m)
    want = np.eye(4, dtype=complex)
    want[0, 0] = want[1, 1] = math.cos(phi)
    want[0, 1] = math.sin(phi)
    want[1, 0] = -math.sin(phi)
    assert np.max(np.abs(got - want)) < 1e-14


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = rng.uniform(-0.8, 0.8, (4, 4)) + 1j * rng.uniform(-0.8, 0.8, (4, 4))
        assert np.max(np.abs(mat_exp(m) - mat_exp_taylor(m))) < 1e-12


def test_mat_exp_relative_accuracy_at_large_norm():
    # hyperbolic block with 1-norm 10: exact closed form available
    chi = 10.0
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = chi
    got = mat_exp(m)
    want = np.eye(4, dtype=complex)
    want[0, 0] = want[1, 1] = math.cosh(chi)
    want[0, 1] = want[1, 0] = math.sinh(chi)
    assert np.max(np.abs(got - want)) / math.cosh(chi) < 1e-12
    # oscillatory block with 1-norm 10
    m = np.zeros((4, 4))
    m[0, 1] = 10.0
    m[1, 0] = -10.0
    got = mat_exp(m)
    want = np.eye(4, dtype=complex)
    want[0, 0] = want[1, 1] = math.cos(10.0)
    want[0, 1] = math.sin(10.0)
    want[1, 0] = -math.sin(10.0)
    assert np.max(np.abs(got - want)) < 1e-12


# ----------------------------------------------------------- exponentiated maps


def test_lambda_maps_at_zero():
    assert lambda_S(Theta.zero()) == ONE
    assert np.allclose(lambda_V(Theta.zero()), np.eye(4))


def test_lambda_S_rotation_closed_form():
    phi = 1.3
    lam = lambda_S(Theta.single(1, 2, phi))
    want = math.cos(phi / 2) * ONE + math.sin(phi / 2) * E[3]
    assert isclose(lam, want, 1e-14)


def test_lambda_V_boost_entries_and_unit_norm():
    chi = 0.75
    lv = lambda_V(Theta.single(0, 1, chi))
    assert abs(lv[0, 0] - math.cosh(chi)) < 1e-13
    assert abs(lv[1, 1] - math.cosh(chi)) < 1e-13
    assert abs(lv[0, 1] + math.sinh(chi)) < 1e-13
    assert abs(lv[1, 0] + math.sinh(chi)) < 1e-13
    assert abs(norm(lambda_S(Theta.single(0, 1, chi))) - 1.0) < 1e-13


def _series_lambda_V(thetas):
    return mat_exp(lorentz._generator_sum(thetas, lorentz._V_REAL_PAIRS))


@pytest.mark.parametrize("bound", [2.0, 20.0])
def test_lambda_V_closed_form_matches_the_series_route(bound):
    thetas = theta_rows(np.random.default_rng(35).uniform(-bound, bound, (200, 6)))
    got, want = lambda_V(thetas), _series_lambda_V(thetas)
    scale = np.max(np.abs(want), axis=(-2, -1))
    # the series route itself is good to about 1e-14 of the scale at bound 2
    # and 1e-13 at bound 20
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 20 * bound * 1e-15 * scale)


def test_sinc_excesses_keep_their_digits_on_both_sides_of_the_switch():
    # sinh(a)/a - 1 and 1 - sin(b)/b cancel digits when formed directly at
    # small arguments; below SINC_TAYLOR_X the series keeps them, relative to
    # the small result itself
    xs = np.array([0.0, 1e-8, 1e-3, 0.3, 0.99, 1.01, 2.0, 5.0])
    assert xs.min() < lorentz.SINC_TAYLOR_X < xs.max()
    sinhc_1, one_sinc = lorentz._sinc_excesses(np.stack([xs * xs] * 2), np.stack([xs] * 2))
    for x, sh, sn in zip(xs, sinhc_1, one_sinc):
        terms = [x ** (2 * k) / math.factorial(2 * k + 1) for k in range(1, 30)]
        want_sh = math.fsum(terms)
        want_sn = math.fsum((-1) ** (k + 1) * t for k, t in enumerate(terms, 1))
        assert abs(sh - want_sh) <= 3e-15 * want_sh
        assert abs(sn - want_sn) <= 3e-15 * abs(want_sn)


def test_lambda_V_at_theta_zero_is_the_identity():
    assert np.array_equal(lambda_V(Theta.zero()), np.eye(4))
    assert np.array_equal(lambda_V(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))


@pytest.mark.parametrize("a", [0.0, 0.2, 0.999, 1.0, 1.001, 3.0, 12.0])
@pytest.mark.parametrize("b", [0.0, 0.3, 0.999, 1.001, 2.0, 7.0])
def test_lambda_V_of_a_commuting_boost_and_rotation(a, b):
    # a boost along x1 and a rotation in the (x2, x3) plane commute: the
    # exponential is the boost block times the rotation block, on both sides of
    # the series switch at |a| or |b| = 1
    lv = lambda_V(Theta.from_upper({(0, 1): a, (2, 3): b}))
    want = np.eye(4)
    want[0, 0] = want[1, 1] = math.cosh(a)
    want[0, 1] = want[1, 0] = -math.sinh(a)
    want[2, 2] = want[3, 3] = math.cos(b)
    want[2, 3], want[3, 2] = -math.sin(b), math.sin(b)
    assert np.max(np.abs(lv - want)) <= 2e-15 * math.cosh(a)


def test_lambda_V_of_a_pure_rotation_is_orthogonal_and_matches_the_series():
    thetas = theta_rows(np.random.default_rng(36).uniform(-3, 3, (50, 3)), lorentz.ROTATION_PAIRS)
    lv = lambda_V(thetas)
    assert np.array_equal(lv[:, 0], np.broadcast_to([1.0, 0, 0, 0], (50, 4)))
    assert np.max(np.abs(np.swapaxes(lv, -1, -2) @ lv - np.eye(4))) < 1e-15 * 8
    assert np.max(np.abs(lv - _series_lambda_V(thetas))) < 1e-14


def test_lambda_V_of_a_pure_boost_matches_the_series():
    thetas = theta_rows(np.random.default_rng(37).uniform(-3, 3, (50, 3)), lorentz.BOOST_PAIRS)
    lv, want = lambda_V(thetas), _series_lambda_V(thetas)
    assert np.all(np.max(np.abs(lv - want), axis=(-2, -1)) <= 1e-14 * np.abs(want).max(axis=(-2, -1)))


@pytest.mark.parametrize("size", [1e-3, 0.8, 1.3, 10.0])
def test_lambda_V_of_a_null_rotation_is_the_cubic_polynomial(size):
    # a boost and a rotation of equal size about orthogonal axes: G != 0, yet
    # its invariants vanish (r = 0) and G^3 = 0, so exp(G) = 1 + G + G^2/2
    theta = Theta.from_upper({(0, 1): size, (1, 2): size})
    g = lorentz._generator_sum(theta.m, lorentz._V_REAL_PAIRS)
    assert np.any(g != 0) and np.abs(g @ g @ g).max() <= 1e-15 * size**3
    want = np.eye(4) + g + (g @ g) / 2
    assert np.max(np.abs(lambda_V(theta) - want)) <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("offset", [1e-12, 1e-8, 1e-4, 1e-1])
def test_lambda_V_near_a_null_rotation_matches_the_series(offset):
    # r is small next to the entries of G, so the coefficients are formed
    # from small invariants; their series branches must take over smoothly
    rng = np.random.default_rng(38)
    rows = []
    for size in (0.5, 1.3, 2.0):
        for _ in range(4):
            rows.append([size, 0, 0, size, 0, 0] + offset * rng.uniform(-1, 1, 6))
    thetas = theta_rows(np.array(rows))
    got, want = lambda_V(thetas), _series_lambda_V(thetas)
    scale = np.max(np.abs(want), axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-14 * scale)


def test_lambda_V_preserves_the_metric():
    rng = np.random.default_rng(32)
    for _ in range(50):
        lv = lambda_V(Theta.random(rng, 2.0))
        assert np.max(np.abs(lv.T @ ETA @ lv - ETA)) < 1e-10
        # metric inverse equals the group inverse
        assert np.max(np.abs(eta_inverse_transform(lv) @ lv - np.eye(4))) < 1e-10
    # and on a stack, matrix by matrix
    lv = lambda_V(theta_rows(np.random.default_rng(29).uniform(-2, 2, (40, 6))))
    assert np.allclose(eta_inverse_transform(lv) @ lv, np.eye(4), atol=1e-12)


def test_lambda_S_has_unit_norm_for_random_parameters():
    rng = np.random.default_rng(33)
    for _ in range(50):
        assert abs(norm(lambda_S(Theta.random(rng, 2.0))) - 1.0) < 1e-10


def test_rotation_only_unitarity_and_boost_self_conjugacy():
    rng = np.random.default_rng(34)
    for _ in range(50):
        lam = lambda_S(Theta.random_rotation(rng, 2.0))
        assert abs(mul(bar_star(lam), lam) - ONE) < 1e-10
    for _ in range(50):
        axis = int(rng.integers(1, 4))
        lam = lambda_S(Theta.single(0, axis, float(rng.uniform(-2, 2))))
        assert abs(bar_star(lam) - lam) < 1e-10


# ----------------------------------------------------------------- double cover


def test_double_cover_residual_examples():
    assert double_cover_residual(Theta.zero()) == 0.0
    assert double_cover_residual(Theta.single(1, 2, math.pi / 2)) < 1e-10


def test_double_cover_residual_random_sweep():
    rng = np.random.default_rng(35)
    for _ in range(100):
        assert double_cover_residual(Theta.random(rng, 2.0)) < 1e-9


def test_algebra_residual_exhaustive():
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            for rho in range(4):
                for sig in range(4):
                    worst = max(worst, abs(lorentz_algebra_residual(mu, nu, rho, sig)))
    assert worst < 1e-12


def test_infinitesimal_double_cover_exhaustive():
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            for rho in range(4):
                worst = max(worst, abs(infinitesimal_dc_residual(mu, nu, rho)))
    assert worst < 1e-12


def test_equal_index_pairs_are_trivial():
    assert abs(lorentz_algebra_residual(0, 1, 0, 1)) == 0.0
    assert abs(infinitesimal_dc_residual(1, 1, 2)) == 0.0


# ------------------------------------------------------------- spinor transforms


def test_transform_identity_and_double_cover_sign():
    # a 2 pi rotation is L = -1: alpha' = L alpha and beta' = bar_star(L) beta flip sign
    rng = np.random.default_rng(36)
    alpha = draw(SubspaceTag.A, rng)
    beta = draw(SubspaceTag.B, rng)
    lam = lambda_S(Theta.single(1, 2, 2 * math.pi))
    assert isclose(lam, -ONE, 1e-12)
    assert isclose(mul(lam, alpha), -alpha, 1e-12)
    assert isclose(mul(bar_star(lam), beta), -beta, 1e-12)


def _spinor_rows(rng, n=20, bound=2.0):
    return lambda_S(theta_rows(rng.uniform(-bound, bound, (n, 6))))


def test_transform_beta_two_routes_agree():
    # beta' = bar_star(L) beta = beta conj_complex(L), the exchange identity
    # the complement representation rests on
    rng = np.random.default_rng(37)
    lam, beta = _spinor_rows(rng), draw_rows(SubspaceTag.B, rng, 20)
    left, right = mul_rows(bar_star_rows(lam), beta), mul_rows(beta, np.conj(lam))
    assert np.allclose(left, right, rtol=1e-11, atol=1e-11)


def test_transform_composition_laws():
    # L2 (L1 alpha) = (L2 L1) alpha, and likewise with bar_star(L) on beta
    rng = np.random.default_rng(38)
    l1, l2 = _spinor_rows(rng, bound=1.5), _spinor_rows(rng, bound=1.5)
    l3 = mul_rows(l2, l1)
    alpha, beta = draw_rows(SubspaceTag.A, rng, 20), draw_rows(SubspaceTag.B, rng, 20)
    twice = mul_rows(l2, mul_rows(l1, alpha))
    assert np.allclose(twice, mul_rows(l3, alpha), rtol=1e-11, atol=1e-11)
    s1, s2, s3 = (bar_star_rows(lam) for lam in (l1, l2, l3))
    twice = mul_rows(s2, mul_rows(s1, beta))
    assert np.allclose(twice, mul_rows(s3, beta), rtol=1e-11, atol=1e-11)


# ------------------------------------------------------------- gamma5 analogue


def test_gamma5_product_is_one():
    assert abs(gamma5_analogue() - ONE) < 1e-14


def test_gamma5_variants():
    # same product without the -i prefactor
    acc = E_UPPER[0]
    for f in (EBAR_UPPER[1], E_UPPER[2], EBAR_UPPER[3]):
        acc = mul(acc, f)
    assert isclose(acc, CplxOcton.scalar(1j), 1e-14)
    # lowered-index variant picks up the time-slot sign twice
    acc = E_LOWER[0]
    for f in (conj_oct(E_LOWER[1]), E_LOWER[2], conj_oct(E_LOWER[3])):
        acc = mul(acc, f)
    assert isclose(acc * -1j, -ONE, 1e-14)


def test_gamma5_association_order_is_immaterial():
    f0, f1, f2, f3 = E_UPPER[0], EBAR_UPPER[1], E_UPPER[2], EBAR_UPPER[3]
    left = mul(mul(mul(f0, f1), f2), f3)
    right = mul(f0, mul(f1, mul(f2, f3)))
    middle = mul(mul(f0, f1), mul(f2, f3))
    assert isclose(left, right, 1e-15)
    assert isclose(left, middle, 1e-15)
