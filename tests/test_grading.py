import numpy as np
import pytest

from octoweak.core import E, ONE, CplxOcton, bar_star, mul
from octoweak.errors import DomainViolation
from octoweak.grading import (
    AB_CLOSURE,
    SubspaceTag,
    draw,
    exchange_residuals,
    ipmove_residuals,
    membership_defect,
    project,
    require_member,
    residual_zvengrowski,
    sample,
)
from octoweak.suites import SuiteConfig, run_suite

from oracles import draw_block


def rand_full(rng):
    return draw(SubspaceTag.FULL_CO, rng)


# ----------------------------------------------------------------- projection


def test_project_basis_split():
    x = E[2] + E[6]
    assert project(x, SubspaceTag.A) == E[2]
    assert project(x, SubspaceTag.B) == E[6]
    assert project(1j * ONE, SubspaceTag.B) == 0 * ONE


def test_project_minus_eigenspace_componentwise():
    a = 0.8 - 0.5j
    x = a * 1j * ONE + E[1]
    got = project(x, SubspaceTag.A_MINUS)
    assert np.allclose(got.c, (0.8j * ONE + E[1]).c, rtol=0, atol=1e-15)


def test_projections_are_idempotent_and_complementary():
    rng = np.random.default_rng(20)
    for _ in range(20):
        x = rand_full(rng)
        split = project(x, SubspaceTag.A) + project(x, SubspaceTag.B)
        assert np.allclose(split.c, x.c, rtol=0, atol=0.0)
        for tag in SubspaceTag:
            p = project(x, tag)
            assert np.allclose(project(p, tag).c, p.c, rtol=0, atol=0.0)
        xa = project(x, SubspaceTag.A)
        split = project(xa, SubspaceTag.A_MINUS) + project(xa, SubspaceTag.A_PLUS)
        assert np.allclose(split.c, xa.c, rtol=0, atol=1e-15)


def test_bar_star_splits_a_value_into_its_two_eigenspaces():
    # x = x+ + x-, with x+- = (x +- bar_star(x)) / 2 in bar_star's +1 and -1 eigenspaces
    x = draw_block((SubspaceTag.FULL_CO,), np.random.default_rng(21), 20)[0]
    s = bar_star(x)
    plus, minus = (x + s) * 0.5, (x - s) * 0.5
    assert np.allclose(plus + minus, x, rtol=1e-15, atol=1e-15)
    assert np.allclose(bar_star(plus), plus, rtol=1e-15, atol=1e-15)
    assert np.allclose(bar_star(minus), -minus, rtol=1e-15, atol=1e-15)


# ------------------------------------------------------------------- sampling


def test_sample_is_deterministic():
    a = sample(SubspaceTag.FULL_CO, 99, 2.0)
    b = sample(SubspaceTag.FULL_CO, 99, 2.0)
    assert np.array_equal(a.c, b.c)


def test_sample_membership_by_construction():
    for tag in SubspaceTag:
        for seed in range(5):
            x = sample(tag, seed)
            require_member(x, tag)
    x = sample(SubspaceTag.A_MINUS, 7)
    assert np.allclose(bar_star(x).c, (-x).c, rtol=0, atol=1e-15)
    assert membership_defect(sample(SubspaceTag.B, 8), SubspaceTag.B) == 0.0


def test_sample_rejects_bad_bound():
    with pytest.raises(ValueError):
        sample(SubspaceTag.A, 1, 0.0)


# ------------------------------------------------------------ exchange moves


def test_exchange_residual_basis_anchors():
    # every identity holds exactly on basis elements and units, and a single
    # value gives one CplxOcton per identity
    for args in ((E[1], E[2], E[4], E[5]), (ONE, ONE, E[4], E[5]), (ONE, E[3], E[5], E[7])):
        got = exchange_residuals(*args)
        assert len(got) == 6 and all(isinstance(r, CplxOcton) for r in got)
        assert [abs(r) for r in got] == [0.0] * 6


def test_exchange_residuals_reject_wrong_membership():
    for bad in ((E[4], ONE, E[4], E[5]), (E[1], E[2], E[2], E[5]), (ONE, ONE, E[4], ONE)):
        with pytest.raises(DomainViolation):
            exchange_residuals(*bad)


# -------------------------------------------------------- three-factor moves


def test_zvengrowski_residual():
    rng = np.random.default_rng(23)
    x = rand_full(rng)
    z = rand_full(rng)
    assert abs(residual_zvengrowski(x, x, z)) < 1e-13
    assert abs(residual_zvengrowski(E[1], E[4], E[2])) == 0.0


def test_ipmove_residuals():
    rng = np.random.default_rng(24)
    y, z = rand_full(rng), rand_full(rng)
    assert abs(ipmove_residuals(ONE, y, z)[0]) < 1e-15
    assert [abs(r) for r in ipmove_residuals(E[1], E[4], E[2])] == [0.0] * 4
    assert all(isinstance(r, complex) for r in ipmove_residuals(y, y, z))


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
        c = mul(x, y) - mul(y, x)
        require_member(c, SubspaceTag.A_MINUS)


def test_products_land_per_closure_table():
    rng = np.random.default_rng(26)
    for (tx, ty), target in AB_CLOSURE.items():
        for _ in range(50):
            p = mul(draw(tx, rng), draw(ty, rng))
            assert membership_defect(p, target) < 1e-12 * max(1.0, abs(p))
