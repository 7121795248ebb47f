import numpy as np
import pytest

from octoweak.core import E, IM, ONE, CplxOcton, bar_star, bar_star_rows, commutator, isclose, mul
from octoweak.errors import DomainViolation
from octoweak.grading import (
    AB_CLOSURE,
    IPMoveForm,
    SubspaceTag,
    draw,
    draw_rows,
    in_subspace,
    membership_defect,
    project,
    residual_ab,
    residual_aab,
    residual_abb,
    residual_abba,
    residual_baa,
    residual_bba,
    residual_ipmove,
    residual_zvengrowski,
    sample,
)
from octoweak.suites import SuiteConfig, run_suite


def rand_full(rng):
    return draw(SubspaceTag.FULL_CO, rng)


# ----------------------------------------------------------------- projection


def test_project_basis_split():
    x = E[2] + E[6]
    assert project(x, SubspaceTag.A) == E[2]
    assert project(x, SubspaceTag.B) == E[6]
    assert project(IM, SubspaceTag.B) == CplxOcton.zero()


def test_project_minus_eigenspace_componentwise():
    a = 0.8 - 0.5j
    x = a * IM + E[1]
    got = project(x, SubspaceTag.A_MINUS)
    assert isclose(got, 0.8 * IM + E[1], 1e-15)


def test_projections_are_idempotent_and_complementary():
    rng = np.random.default_rng(20)
    for _ in range(20):
        x = rand_full(rng)
        assert isclose(project(x, SubspaceTag.A) + project(x, SubspaceTag.B), x, 0.0)
        for tag in SubspaceTag:
            p = project(x, tag)
            assert isclose(project(p, tag), p, 0.0)
        xa = project(x, SubspaceTag.A)
        assert isclose(
            project(xa, SubspaceTag.A_MINUS) + project(xa, SubspaceTag.A_PLUS), xa, 1e-15
        )


def test_pm_split_diagonalizes_bar_star():
    # x = x+ + x-, with x+- = (x +- bar_star(x)) / 2 in bar_star's +1 and -1 eigenspaces
    x = draw_rows(SubspaceTag.FULL_CO, np.random.default_rng(21), 20)
    s = bar_star_rows(x)
    plus, minus = (x + s) * 0.5, (x - s) * 0.5
    assert np.allclose(plus + minus, x, rtol=1e-15, atol=1e-15)
    assert np.allclose(bar_star_rows(plus), plus, rtol=1e-15, atol=1e-15)
    assert np.allclose(bar_star_rows(minus), -minus, rtol=1e-15, atol=1e-15)


# ------------------------------------------------------------------- sampling


def test_sample_is_deterministic():
    a = sample(SubspaceTag.FULL_CO, 99, 2.0)
    b = sample(SubspaceTag.FULL_CO, 99, 2.0)
    assert np.array_equal(a.c, b.c)


def test_sample_membership_by_construction():
    for tag in SubspaceTag:
        for seed in range(5):
            x = sample(tag, seed)
            assert in_subspace(x, tag)
    x = sample(SubspaceTag.A_MINUS, 7)
    assert isclose(bar_star(x), -x, 1e-15)
    assert membership_defect(sample(SubspaceTag.B, 8), SubspaceTag.B) == 0.0


def test_sample_rejects_bad_bound():
    with pytest.raises(ValueError):
        sample(SubspaceTag.A, 1, 0.0)


# ------------------------------------------------------------ exchange moves


def test_residual_ab_basis_and_unit_cases():
    assert abs(residual_ab(E[1], E[4])) == 0.0
    assert abs(residual_ab(ONE, E[5])) == 0.0


def test_residual_ab_rejects_wrong_membership():
    with pytest.raises(DomainViolation):
        residual_ab(E[4], E[4])
    with pytest.raises(DomainViolation):
        residual_ab(E[1], E[2])


def test_six_exchange_residuals_vanish_on_random_draws():
    rng = np.random.default_rng(22)
    for _ in range(300):
        a, a2 = draw(SubspaceTag.A, rng), draw(SubspaceTag.A, rng)
        b, b2 = draw(SubspaceTag.B, rng), draw(SubspaceTag.B, rng)
        assert abs(residual_ab(a, b)) < 1e-12
        assert abs(residual_aab(a, a2, b)) < 1e-12
        assert abs(residual_baa(a, a2, b)) < 1e-12
        assert abs(residual_bba(a, b, b2)) < 1e-12
        assert abs(residual_abb(a, b, b2)) < 1e-12
        assert abs(residual_abba(a, a2, b, b2)) < 1e-12


def test_exchange_residual_basis_anchors():
    assert abs(residual_aab(E[1], E[2], E[4])) == 0.0
    assert abs(residual_abba(ONE, ONE, E[4], E[5])) == 0.0


# -------------------------------------------------------- three-factor moves


def test_zvengrowski_residual():
    rng = np.random.default_rng(23)
    x = rand_full(rng)
    z = rand_full(rng)
    assert abs(residual_zvengrowski(x, x, z)) < 1e-13
    assert abs(residual_zvengrowski(E[1], E[4], E[2])) == 0.0
    for _ in range(300):
        x, y, z = rand_full(rng), rand_full(rng), rand_full(rng)
        assert abs(residual_zvengrowski(x, y, z)) < 1e-12


def test_ipmove_residuals():
    rng = np.random.default_rng(24)
    y, z = rand_full(rng), rand_full(rng)
    assert abs(residual_ipmove(IPMoveForm.LL, ONE, y, z)) < 1e-15
    assert abs(residual_ipmove(IPMoveForm.LR, E[1], E[4], E[2])) == 0.0
    for _ in range(300):
        x, y, z = rand_full(rng), rand_full(rng), rand_full(rng)
        for form in IPMoveForm:
            assert abs(residual_ipmove(form, x, y, z)) < 1e-12


# -------------------------------------------------------------- grading closure


def test_closure_check_all_four_combinations():
    # the grading-closure suite samples each (tag_x, tag_y) of the closure table
    report = run_suite("grading-closure", SuiteConfig())
    assert report.passed and report.samples == 1000


def test_closure_check_fails_when_a_closure_target_is_wrong(monkeypatch):
    # A*B lands in B; a table that sends it to A must fail the grading-closure suite
    monkeypatch.setitem(AB_CLOSURE, (SubspaceTag.A, SubspaceTag.B), SubspaceTag.A)
    assert run_suite("grading-closure", SuiteConfig()).passed is False


def test_minus_eigenspace_closed_under_commutator():
    rng = np.random.default_rng(25)
    for _ in range(100):
        x = draw(SubspaceTag.A_MINUS, rng)
        y = draw(SubspaceTag.A_MINUS, rng)
        c = commutator(x, y)
        assert in_subspace(c, SubspaceTag.A_MINUS)


def test_products_land_per_closure_table():
    rng = np.random.default_rng(26)
    for (tx, ty), target in AB_CLOSURE.items():
        for _ in range(50):
            p = mul(draw(tx, rng), draw(ty, rng))
            assert membership_defect(p, target) < 1e-12 * max(1.0, abs(p))
