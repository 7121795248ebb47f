import cmath
import math
import warnings
from itertools import product as iter_product

import numpy as np
import pytest

from octoweak.core import E, ONE, CplxOcton, abs_rows, bar_star, exp_assoc, inner, mul, single
from octoweak.errors import DomainViolation, NotInAssociativeSubalgebra
from octoweak.fields import (
    DEXP_TAYLOR_Z,
    PolyField,
    bilinear_rows,
    dexp_rows,
    eval_at,
    random_field,
)
from octoweak.grading import (
    SubspaceTag,
    dof_rows,
    draw,
    membership_defect,
    project,
    require_member,
)
from octoweak.lorentz import EBAR_UPPER, Theta, eta_inverse_transform, lambda_S, lambda_V

import oracles
from oracles import (
    along,
    central_difference,
    dexp_series,
    draw_block,
    eval_naive,
    jets_at,
    lorentz_invariance_residual,
    partial,
    pullback_linear,
)


def dexp_along(u, mu, p):
    # the derivative of exp(u) along x_mu at p, a block of one row as a value
    return single(dexp_rows(*along(u, mu, np.asarray(p, dtype=float)[None])))


def x_power(mu, coeff):
    deg = tuple(1 if k == mu else 0 for k in range(4))
    return PolyField({deg: coeff})


# ----------------------------------------------------------------- evaluation


def test_eval_constants_and_linear_terms():
    c = 2.5 * E[3] - 1j * ONE
    f = PolyField({(0, 0, 0, 0): c})
    assert np.allclose(eval_at(f, (4.0, -1.0, 0.5, 9.0)).c, c.c, rtol=0, atol=0.0)
    g = x_power(1, E[2])
    assert np.allclose(eval_at(g, (0.0, 2.0, 0.0, 0.0)).c, (2.0 * E[2]).c, rtol=0, atol=0.0)


def test_eval_matches_naive_oracle_on_random_cubics():
    rng = np.random.default_rng(40)
    for _ in range(30):
        f = random_field(rng, 3, SubspaceTag.FULL_CO)
        p = rng.uniform(-1.5, 1.5, 4)
        assert abs(eval_at(f, p) - eval_naive(f, p)) < 1e-12


def test_field_validation():
    with pytest.raises(ValueError):
        PolyField({(1, 0, 0): E[1]})
    with pytest.raises(DomainViolation):
        PolyField({(0, 0, 0, 0): E[5]}, tag=SubspaceTag.A)
    with pytest.raises(TypeError):
        random_field(np.random.default_rng(0), 2.5, SubspaceTag.A)


def test_a_float_exponent_is_refused():
    # an exponent is read as an integer or refused, never truncated
    with pytest.raises(TypeError):
        PolyField({(1.5, 0, 0, 0): E[1], (1, 0, 0, 0): E[2]})
    with pytest.raises(TypeError):
        PolyField({(0.9, 0, 0, 0): E[1]})
    f = PolyField({tuple(np.array([1, 0, 2, 0])): E[1]})
    assert f.exps.tolist() == [[1, 0, 2, 0]]


def test_point_validation():
    f = PolyField({(0, 0, 0, 0): ONE})
    with pytest.raises(ValueError):
        eval_at(f, (1.0, 2.0))
    with pytest.raises(ValueError):
        eval_at(f, (np.nan, 0.0, 0.0, 0.0))


# -------------------------------------------------------------- differentiation


def test_partial_examples():
    assert partial(PolyField({(0, 0, 0, 0): E[1]}), 2).terms == {}
    g = partial(x_power(1, E[2]), 1)
    assert np.allclose(eval_at(g, (0.3, 0.7, -0.2, 0.9)).c, E[2].c, rtol=0, atol=0.0)


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
                assert np.allclose(a.terms[deg].c, b.terms[deg].c, rtol=0, atol=0.0)


# -------------------------------------------------------------------- pullback


def test_pullback_identity_and_rotation_pattern():
    f = x_power(1, E[3])
    g = pullback_linear(f, np.eye(4))
    assert np.allclose(eval_at(g, (0, 1.0, 0, 0)).c, E[3].c, rtol=0, atol=0.0)
    phi = 0.6
    m = np.eye(4)
    m[1, 1] = m[2, 2] = math.cos(phi)
    m[1, 2] = math.sin(phi)
    m[2, 1] = -math.sin(phi)
    g = pullback_linear(f, m)
    # x1 pulls back to cos(phi) x1 + sin(phi) x2
    assert np.allclose(g.terms[(0, 1, 0, 0)].c, (math.cos(phi) * E[3]).c, rtol=0, atol=1e-15)
    assert np.allclose(g.terms[(0, 0, 1, 0)].c, (math.sin(phi) * E[3]).c, rtol=0, atol=1e-15)


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
        rhs = 0 * ONE
        for nu in range(4):
            rhs = rhs + eval_at(pullback_linear(partial(f, nu), m), p) * m[nu, mu]
        assert abs(lhs - rhs) < 1e-12


def test_pullback_rejects_complex_matrix():
    f = x_power(0, E[1])
    with pytest.raises(ValueError):
        pullback_linear(f, np.eye(4) * (1 + 0.5j))


# ------------------------------------------------------------ derivative bilinear


def dirac_scalar(f, p) -> complex:
    # the derivative bilinear sum_rho <f*, ebar^rho d_rho f> of one field at one point
    return complex(bilinear_rows(*jets_at(f, np.asarray(p, dtype=float))))


def test_dirac_scalar_constant_field_vanishes():
    f = PolyField({(0, 0, 0, 0): E[1]}, tag=SubspaceTag.A)
    assert dirac_scalar(f, (0.3, 0.1, -0.9, 2.0)) == 0.0


def test_dirac_scalar_single_term_hand_expansion():
    f = PolyField({(1, 0, 0, 0): E[1]}, tag=SubspaceTag.A)
    p = (0.7, 0.3, -0.4, 0.2)
    got = dirac_scalar(f, p)
    # f = x0 e1: only the time derivative survives, <x0* e1, ebar^0 e1>
    want = inner(0.7 * E[1], mul(EBAR_UPPER[0], E[1]))
    assert abs(got - want) < 1e-14
    assert abs(got - (-0.7j)) < 1e-14


# --------------------------------------------------------- invariance residual


def test_invariance_residual_zero_parameters():
    rng = np.random.default_rng(46)
    f = random_field(rng, 2, SubspaceTag.A)
    assert lorentz_invariance_residual(f, Theta(np.zeros((4, 4))), (0.2, 0.4, 0.1, -0.3)) < 1e-14


def _symbolic_invariance_residual(f, lam, theta, p):
    # the transformed field expanded term by term, then differentiated formally
    lv = lambda_V(theta)
    factor = lam if f.tag is SubspaceTag.A else bar_star(lam)
    f_prime = pullback_linear(f, eta_inverse_transform(lv), factor)
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
        monkeypatch.setattr(oracles, "lambda_S", lambda _theta: lambda_S(other))
        pointwise = lorentz_invariance_residual(f, theta, p)
        symbolic = _symbolic_invariance_residual(f, lambda_S(other), theta, p)
        assert symbolic > 1e-3
        assert abs(pointwise - symbolic) <= 1e-10 * symbolic


def test_invariance_residual_requires_tagged_field():
    f = PolyField({(0, 0, 0, 0): ONE})
    with pytest.raises(DomainViolation):
        lorentz_invariance_residual(f, Theta(np.zeros((4, 4))), (0, 0, 0, 0))


# ---------------------------------------------------- exponential fields


def test_a_single_field_value_that_overflows_raises():
    # x0^4 at x0 = 1e100 and e^x0 at x0 = 800 are not finite: eval_at and a
    # block of one row read as a single value raise rather than return them,
    # with the OverflowError even where warnings are errors
    quartic = PolyField({(4, 0, 0, 0): ONE})
    u = PolyField({(1, 0, 0, 0): ONE}, tag=SubspaceTag.A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (
            lambda: eval_at(quartic, (1e100, 0, 0, 0)),
            lambda: dexp_along(u, 0, (800, 0, 0, 0)),
        ):
            with pytest.raises(OverflowError):
                evaluate()


def test_exp_field_and_dexp_constant_parameter():
    u = PolyField({(0, 0, 0, 0): 0.3j * ONE + 0.2 * E[1]}, tag=SubspaceTag.A_MINUS)
    p = (0.5, 0.5, 0.5, 0.5)
    assert abs(dexp_along(u, 0, p)) == 0.0
    # the field's value is its constant coefficient at every point, and so is its exp
    assert exp_assoc(eval_at(u, p)).c.tobytes() == exp_assoc(0.3j * ONE + 0.2 * E[1]).c.tobytes()


def test_dexp_scalar_valued_closed_form():
    u = PolyField({(1, 0, 0, 0): 1j * ONE}, tag=SubspaceTag.A_MINUS)
    p = (0.4, 0.0, 0.0, 0.0)
    want = CplxOcton.scalar(1j * cmath.exp(0.4j))
    assert abs(dexp_along(u, 0, p) - want) < 1e-13
    assert abs(dexp_along(u, 1, p)) == 0.0


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
    # on both sides of DEXP_TAYLOR_Z: anti-Hermitian, short and long
    # quaternionic values with |<v, v>| from 1e-12 to 1, four directions each,
    # relative to the derivative's size
    rng = np.random.default_rng(54)
    omega_sqs = np.logspace(-12, 0, 25)
    assert omega_sqs[0] < DEXP_TAYLOR_Z < omega_sqs[-1]
    u, du = [], []
    for tag, long in ((SubspaceTag.A_MINUS, False), (SubspaceTag.A, False), (SubspaceTag.A, True)):
        for omega_sq in omega_sqs:
            value = draw(tag, rng, 0.5).c.copy()
            value[1:4] = _vector_part(rng, tag, omega_sq, long)
            assert math.isclose(abs(np.dot(value[1:4], value[1:4])), omega_sq, rel_tol=1e-3)
            u += [value] * 4
            du += [draw(tag, rng).c for _ in range(4)]
    u, du = np.array(u), np.array(du)
    want = dexp_series(u, du)
    assert np.max(abs_rows(dexp_rows(u, du) - want) / abs_rows(want)) < 1e-11
    # quaternionic rows scaled to |<v, v>| from 1e-10 to 10**0.5, relative to
    # each derivative's largest coefficient
    omega_sqs = np.logspace(-10, 0.5, 30)
    (u,) = draw_block((SubspaceTag.A,), np.random.default_rng(33), len(omega_sqs), 0.5)
    (du,) = draw_block((SubspaceTag.A,), np.random.default_rng(34), len(omega_sqs))
    u[:, 1:4] *= np.sqrt(omega_sqs / np.abs(inner(u[:, 1:4], u[:, 1:4])))[:, None]
    want = dexp_series(u, du)
    scale = np.max(np.abs(want), axis=-1)
    assert np.all(np.max(np.abs(dexp_rows(u, du) - want), axis=-1) <= 1e-12 * scale)


def test_exp_field_requires_quaternionic_values():
    u = PolyField({(0, 0, 0, 0): E[5]}, tag=SubspaceTag.B)
    with pytest.raises(NotInAssociativeSubalgebra):
        exp_assoc(eval_at(u, (0, 0, 0, 0)))


# ------------------------------------------------------------- field arithmetic


def test_field_algebra_and_tag_propagation():
    # a scalar multiple, as the gauge parameter is scaled to its value cap: a real one
    # scales the parameters and keeps every tag; A and B are complex-linear, and the
    # +- eigenspaces only real-linear, so a complex one takes A+- to the full algebra
    rng = np.random.default_rng(51)
    complex_span = (SubspaceTag.FULL_CO, SubspaceTag.A, SubspaceTag.B)
    for tag in SubspaceTag:
        f = random_field(rng, 2, tag)
        p = rng.uniform(-1, 1, 4)
        for z in (2, -0.3, 0.3 - 2j, 1j):
            g = z * f
            if isinstance(z, complex):
                assert g.tag is (tag if tag in complex_span else SubspaceTag.FULL_CO)
            else:
                assert g.tag is tag and g.params.tobytes() == (f.params * z).tobytes()
            assert abs(eval_at(g, p) - eval_at(f, p) * z) < 1e-13


def test_a_tagged_coefficient_is_kept_as_its_projection():
    # within MEMBERSHIP_TOL of the subspace, a coefficient is kept as its projection,
    # exactly in the subspace; further off, it is refused
    rng = np.random.default_rng(52)
    for tag in SubspaceTag:
        near = draw(tag, rng) + 1e-12 * draw(SubspaceTag.FULL_CO, rng)
        (kept,) = PolyField({(1, 0, 2, 0): near}, tag).terms.values()
        assert np.array_equal(kept.c, project(near, tag).c)
        assert membership_defect(kept, tag) == 0.0
        if tag is not SubspaceTag.FULL_CO:
            with pytest.raises(DomainViolation):
                PolyField({(1, 0, 2, 0): near + 1e-6 * draw(SubspaceTag.FULL_CO, rng)}, tag)


def test_random_field_equals_one_draw_per_monomial_in_order():
    degrees = [d for d in iter_product(range(4), repeat=4) if sum(d) <= 3]
    for tag in SubspaceTag:
        rng_field, rng_draws = np.random.default_rng(55), np.random.default_rng(55)
        f = random_field(rng_field, 3, tag, 0.5)
        assert f.exps.tolist() == [list(d) for d in sorted(degrees)]
        want = [draw(tag, rng_draws, 0.5).c for _ in degrees]
        assert np.array_equal(dof_rows(tag, f.params), want)
        assert rng_field.random() == rng_draws.random()


def test_random_field_values_stay_in_the_tagged_subspace():
    rng = np.random.default_rng(53)
    for tag in (SubspaceTag.A, SubspaceTag.B, SubspaceTag.A_MINUS):
        f = random_field(rng, 2, tag)
        for _ in range(5):
            require_member(eval_at(f, rng.uniform(-1, 1, 4)), tag)
