import cmath
import math
import warnings
from itertools import product as iter_product

import numpy as np
import pytest

from octoweak import fields
from octoweak.core import E, IM, ONE, CplxOcton, bar_star, inner, isclose, mul
from octoweak.errors import DomainViolation
from octoweak.fields import (
    DEXP_TAYLOR_Z,
    PolyField,
    dexp_at,
    dirac_scalar,
    eval_at,
    exp_field_at,
    lorentz_invariance_residual,
    partial,
    random_field,
)
from octoweak.grading import SubspaceTag, draw, in_subspace
from octoweak.lorentz import EBAR_UPPER, Theta, eta_inverse_transform, lambda_S, lambda_V

from oracles import central_difference, dexp_series, eval_naive, pullback_linear


def x_power(mu, coeff):
    deg = tuple(1 if k == mu else 0 for k in range(4))
    return PolyField({deg: coeff})


# ----------------------------------------------------------------- evaluation


def test_eval_constants_and_linear_terms():
    c = 2.5 * E[3] - 1j * ONE
    f = PolyField.constant(c)
    assert isclose(eval_at(f, (4.0, -1.0, 0.5, 9.0)), c, 0.0)
    g = x_power(1, E[2])
    assert isclose(eval_at(g, (0.0, 2.0, 0.0, 0.0)), 2.0 * E[2], 0.0)


def test_eval_matches_naive_oracle_on_random_cubics():
    rng = np.random.default_rng(40)
    for _ in range(30):
        f = random_field(rng, 3, SubspaceTag.FULL_CO)
        p = rng.uniform(-1.5, 1.5, 4)
        assert abs(eval_at(f, p) - eval_naive(f, p)) < 1e-12


def test_field_validation():
    with pytest.raises(ValueError):
        PolyField({(1, 0, 0): E[1]})
    with pytest.raises(ValueError):
        PolyField({(2, 0, 0, 0): E[1]}, max_total_degree=1)
    with pytest.raises(DomainViolation):
        PolyField({(0, 0, 0, 0): E[5]}, tag=SubspaceTag.A)


def test_point_validation():
    f = PolyField.constant(ONE)
    with pytest.raises(ValueError):
        eval_at(f, (1.0, 2.0))
    with pytest.raises(ValueError):
        eval_at(f, (np.nan, 0.0, 0.0, 0.0))


# -------------------------------------------------------------- differentiation


def test_partial_examples():
    assert partial(PolyField.constant(E[1]), 2).terms == {}
    g = partial(x_power(1, E[2]), 1)
    assert isclose(eval_at(g, (0.3, 0.7, -0.2, 0.9)), E[2], 0.0)


def test_partial_matches_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = random_field(rng, 3, SubspaceTag.FULL_CO)
        p = rng.uniform(-1, 1, 4)
        for mu in range(4):
            fd = central_difference(lambda q: eval_at(f, q), p, mu)
            assert abs(eval_at(partial(f, mu), p) - fd) < 1e-8


def test_mixed_partials_commute_exactly():
    rng = np.random.default_rng(42)
    f = random_field(rng, 3, SubspaceTag.FULL_CO)
    for mu in range(4):
        for nu in range(4):
            a = partial(partial(f, mu), nu)
            b = partial(partial(f, nu), mu)
            assert a.terms.keys() == b.terms.keys()
            for deg in a.terms:
                assert isclose(a.terms[deg], b.terms[deg], 0.0)


# -------------------------------------------------------------------- pullback


def test_pullback_identity_and_rotation_pattern():
    f = x_power(1, E[3])
    assert isclose(eval_at(pullback_linear(f, np.eye(4)), (0, 1.0, 0, 0)), E[3], 0.0)
    phi = 0.6
    m = np.eye(4)
    m[1, 1] = m[2, 2] = math.cos(phi)
    m[1, 2] = math.sin(phi)
    m[2, 1] = -math.sin(phi)
    g = pullback_linear(f, m)
    # x1 pulls back to cos(phi) x1 + sin(phi) x2
    assert isclose(g.terms[(0, 1, 0, 0)], math.cos(phi) * E[3], 1e-15)
    assert isclose(g.terms[(0, 0, 1, 0)], math.sin(phi) * E[3], 1e-15)


def test_pullback_defining_property():
    rng = np.random.default_rng(43)
    for _ in range(15):
        f = random_field(rng, 3, SubspaceTag.B)
        m = rng.uniform(-1, 1, (4, 4))
        p = rng.uniform(-1, 1, 4)
        assert abs(eval_at(pullback_linear(f, m), p) - eval_at(f, m @ p)) < 1e-12


def test_pullback_chain_rule():
    rng = np.random.default_rng(44)
    f = random_field(rng, 3, SubspaceTag.A)
    m = rng.uniform(-1, 1, (4, 4))
    p = rng.uniform(-1, 1, 4)
    for mu in range(4):
        lhs = eval_at(partial(pullback_linear(f, m), mu), p)
        rhs = CplxOcton.zero()
        for nu in range(4):
            rhs = rhs + eval_at(pullback_linear(partial(f, nu), m), p) * m[nu, mu]
        assert abs(lhs - rhs) < 1e-12


def test_pullback_rejects_complex_matrix():
    f = x_power(0, E[1])
    with pytest.raises(ValueError):
        pullback_linear(f, np.eye(4) * (1 + 0.5j))


# ------------------------------------------------------------ derivative bilinear


def test_dirac_scalar_constant_field_vanishes():
    f = PolyField.constant(E[1], tag=SubspaceTag.A)
    assert dirac_scalar(f, (0.3, 0.1, -0.9, 2.0)) == 0.0


def test_dirac_scalar_single_term_hand_expansion():
    f = PolyField({(1, 0, 0, 0): E[1]}, tag=SubspaceTag.A)
    p = (0.7, 0.3, -0.4, 0.2)
    got = dirac_scalar(f, p)
    # f = x0 e1: only the time derivative survives, <x0* e1, ebar^0 e1>
    want = inner(0.7 * E[1], mul(EBAR_UPPER[0], E[1]))
    assert abs(got - want) < 1e-14
    assert abs(got - (-0.7j)) < 1e-14


def test_dirac_scalar_requires_a_tagged_field():
    f = PolyField.constant(E[1])
    with pytest.raises(DomainViolation):
        dirac_scalar(f, (0, 0, 0, 0))


def test_dirac_scalar_is_finite_complex_on_random_fields():
    rng = np.random.default_rng(45)
    for tag in (SubspaceTag.A, SubspaceTag.B):
        f = random_field(rng, 2, tag)
        v = dirac_scalar(f, rng.uniform(-1, 1, 4))
        assert isinstance(v, complex) and cmath.isfinite(v)


# --------------------------------------------------------- invariance residual


def test_invariance_residual_zero_parameters():
    rng = np.random.default_rng(46)
    f = random_field(rng, 2, SubspaceTag.A)
    assert lorentz_invariance_residual(f, Theta.zero(), (0.2, 0.4, 0.1, -0.3)) < 1e-14


def test_invariance_residual_rotation_on_quaternionic_fields():
    rng = np.random.default_rng(47)
    for _ in range(25):
        f = random_field(rng, 2, SubspaceTag.A)
        p = rng.uniform(-1, 1, 4)
        assert lorentz_invariance_residual(f, Theta.single(1, 2, 1.0), p) < 1e-9


def test_invariance_residual_boost_on_complement_fields():
    rng = np.random.default_rng(48)
    for _ in range(25):
        f = random_field(rng, 2, SubspaceTag.B)
        p = rng.uniform(-1, 1, 4)
        assert lorentz_invariance_residual(f, Theta.single(0, 1, 0.7), p) < 1e-9


def test_invariance_residual_random_parameters_both_tags():
    rng = np.random.default_rng(49)
    for tag in (SubspaceTag.A, SubspaceTag.B):
        for _ in range(25):
            f = random_field(rng, 2, tag)
            theta = Theta.random(rng, 1.5)
            p = rng.uniform(-1, 1, 4)
            assert lorentz_invariance_residual(f, theta, p) < 1e-9


def _symbolic_invariance_residual(f, lam, theta, p):
    # the transformed field expanded term by term, then differentiated formally
    lv = lambda_V(theta)
    factor = lam if f.tag is SubspaceTag.A else bar_star(lam)
    f_prime = pullback_linear(f, eta_inverse_transform(lv)).scale_left(factor)
    return abs(dirac_scalar(f_prime, lv @ p) - dirac_scalar(f, p))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_invariance_residual_matches_the_symbolic_pullback(degree, monkeypatch):
    rng = np.random.default_rng(60 + degree)
    cases = []
    for tag in (SubspaceTag.A, SubspaceTag.B):
        for _ in range(5):
            f = random_field(rng, degree, tag)
            theta, other = Theta.random(rng, 1.5), Theta.random(rng, 1.5)
            cases.append((f, theta, other, rng.uniform(-1, 1, 4)))
    for f, theta, _, p in cases:
        symbolic = _symbolic_invariance_residual(f, lambda_S(theta), theta, p)
        assert lorentz_invariance_residual(f, theta, p) < 1e-9 and symbolic < 1e-9
    # a spinor transformation that does not match L_V leaves an O(1) residual,
    # which both routes must reproduce
    for f, theta, other, p in cases:
        monkeypatch.setattr(fields, "lambda_S", lambda _theta: lambda_S(other))
        pointwise = lorentz_invariance_residual(f, theta, p)
        symbolic = _symbolic_invariance_residual(f, lambda_S(other), theta, p)
        assert symbolic > 1e-3
        assert abs(pointwise - symbolic) <= 1e-10 * symbolic


def test_invariance_residual_requires_tagged_field():
    f = PolyField.constant(ONE)
    with pytest.raises(DomainViolation):
        lorentz_invariance_residual(f, Theta.zero(), (0, 0, 0, 0))


# ---------------------------------------------------- exponential fields


def test_a_single_field_value_that_overflows_raises():
    # x0^4 at x0 = 1e100 and e^x0 at x0 = 800 are not finite: the single-value
    # routines raise rather than return them, with the OverflowError even where
    # warnings are errors
    quartic = PolyField({(4, 0, 0, 0): ONE})
    u = PolyField({(1, 0, 0, 0): ONE}, tag=SubspaceTag.A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (
            lambda: eval_at(quartic, (1e100, 0, 0, 0)),
            lambda: dexp_at(u, 0, (800, 0, 0, 0)),
        ):
            with pytest.raises(OverflowError):
                evaluate()


def test_exp_field_and_dexp_constant_parameter():
    u = PolyField.constant(0.3 * IM + 0.2 * E[1], tag=SubspaceTag.A_MINUS)
    p = (0.5, 0.5, 0.5, 0.5)
    assert abs(dexp_at(u, 0, p)) == 0.0
    from octoweak.core import exp_assoc

    assert isclose(exp_field_at(u, p), exp_assoc(eval_at(u, p)), 0.0)


def test_dexp_scalar_valued_closed_form():
    u = PolyField({(1, 0, 0, 0): IM}, tag=SubspaceTag.A_MINUS)
    p = (0.4, 0.0, 0.0, 0.0)
    want = CplxOcton.scalar(1j * cmath.exp(0.4j))
    assert abs(dexp_at(u, 0, p) - want) < 1e-13
    assert abs(dexp_at(u, 1, p)) == 0.0


def test_dexp_matches_finite_differences():
    rng = np.random.default_rng(50)
    for _ in range(25):
        u = random_field(rng, 1, SubspaceTag.A, 0.12)
        p = rng.uniform(-1, 1, 4)
        for mu in range(4):
            fd = central_difference(lambda q: exp_field_at(u, q), p, mu)
            assert abs(dexp_at(u, mu, p) - fd) < 1e-7


def _linear_field(value, grads, tag):
    # u(x) = value + sum_mu x_mu grads[mu]: at the origin u = value, d_mu u = grads[mu]
    terms = {(0, 0, 0, 0): CplxOcton(value)}
    for mu in range(4):
        terms[tuple(int(k == mu) for k in range(4))] = CplxOcton(grads[mu])
    return PolyField(terms, tag=tag)


def _vector_part(rng, tag, omega_sq, long):
    """A vector part v with |<v, v>| = omega_sq; ``long`` keeps |v| near 1."""
    if long:  # v = a + i b with a orthogonal to b and |a|^2 - |b|^2 = omega_sq
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b -= (b @ a) * a
        b *= math.sqrt(1.0 - omega_sq) / np.linalg.norm(b)
        return a + 1j * b
    v = draw(tag, rng).c[1:4]
    return v * math.sqrt(omega_sq / abs(np.dot(v, v)))


def test_dexp_closed_form_matches_series_oracle():
    rng = np.random.default_rng(54)
    origin = (0.0, 0.0, 0.0, 0.0)
    omega_sqs = np.logspace(-12, 0, 25)
    assert omega_sqs[0] < DEXP_TAYLOR_Z < omega_sqs[-1]
    worst = 0.0
    for tag, long in ((SubspaceTag.A_MINUS, False), (SubspaceTag.A, False), (SubspaceTag.A, True)):
        for omega_sq in omega_sqs:
            value = draw(tag, rng, 0.5).c.copy()
            value[1:4] = _vector_part(rng, tag, omega_sq, long)
            assert math.isclose(abs(np.dot(value[1:4], value[1:4])), omega_sq, rel_tol=1e-3)
            u = _linear_field(value, [draw(tag, rng).c for _ in range(4)], tag)
            for mu in range(4):
                want = dexp_series(u, mu, origin)
                worst = max(worst, abs(dexp_at(u, mu, origin) - want) / abs(want))
    assert worst < 1e-11


def test_exp_field_requires_quaternionic_values():
    u = PolyField.constant(E[5], tag=SubspaceTag.B)
    with pytest.raises(DomainViolation):
        exp_field_at(u, (0, 0, 0, 0))
    with pytest.raises(DomainViolation):
        dexp_at(u, 0, (0, 0, 0, 0))


# ------------------------------------------------------------- field arithmetic


def test_field_algebra_and_tag_propagation():
    rng = np.random.default_rng(51)
    f = random_field(rng, 2, SubspaceTag.A)
    g = random_field(rng, 2, SubspaceTag.A)
    p = rng.uniform(-1, 1, 4)
    assert abs(eval_at(f + g, p) - (eval_at(f, p) + eval_at(g, p))) < 1e-13
    assert abs(eval_at(f - g, p) - (eval_at(f, p) - eval_at(g, p))) < 1e-13
    assert (f + g).tag is SubspaceTag.A
    assert (2.0 * f).tag is SubspaceTag.A
    assert (1j * f).tag is SubspaceTag.A  # complex span
    h = random_field(rng, 1, SubspaceTag.A_MINUS)
    assert (2.0 * h).tag is SubspaceTag.A_MINUS
    assert (1j * h).tag is None  # only the real span survives


def test_scale_left_right_follow_the_closure_table():
    rng = np.random.default_rng(52)
    f = random_field(rng, 2, SubspaceTag.B)
    a = draw(SubspaceTag.A, rng)
    b = draw(SubspaceTag.B, rng)
    assert f.scale_left(a).tag is SubspaceTag.B
    assert f.scale_right(b).tag is SubspaceTag.A
    g = random_field(rng, 2, SubspaceTag.A)
    assert g.scale_left(a).tag is SubspaceTag.A
    assert g.scale_left(b).tag is SubspaceTag.B
    p = rng.uniform(-1, 1, 4)
    assert abs(eval_at(f.scale_left(a), p) - mul(a, eval_at(f, p))) < 1e-13
    assert abs(eval_at(f.scale_right(b), p) - mul(eval_at(f, p), b)) < 1e-13


def test_random_field_equals_one_draw_per_monomial_in_order():
    degrees = [d for d in iter_product(range(4), repeat=4) if sum(d) <= 3]
    for tag in SubspaceTag:
        rng_field, rng_draws = np.random.default_rng(55), np.random.default_rng(55)
        f = random_field(rng_field, 3, tag, 0.5)
        assert f.exps.tolist() == [list(d) for d in sorted(degrees)]
        assert np.array_equal(f.coeffs, [draw(tag, rng_draws, 0.5).c for _ in degrees])
        assert rng_field.random() == rng_draws.random()


def test_random_field_values_stay_in_the_tagged_subspace():
    rng = np.random.default_rng(53)
    for tag in (SubspaceTag.A, SubspaceTag.B, SubspaceTag.A_MINUS):
        f = random_field(rng, 2, tag)
        for _ in range(5):
            assert in_subspace(eval_at(f, rng.uniform(-1, 1, 4)), tag)
