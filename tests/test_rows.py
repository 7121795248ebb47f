"""Row kernels and the batched identities against their scalar forms.

A stack of inputs must give, row by row, what one scalar call per row gives.
The arithmetic is the same apart from the order of a few sums, so rows
agree to 1e-14 of their scale; the product itself matches bit for bit.
"""

import warnings

import numpy as np
import pytest

from octoweak.core import (
    CplxOcton,
    abs_rows,
    associator,
    associator_rows,
    bar_star,
    bar_star_rows,
    conj_oct,
    conj_oct_rows,
    exp_assoc,
    exp_rows,
    inner,
    inner_rows,
    mul,
    mul_rows,
    norm,
    norm_rows,
)
from octoweak.errors import DomainViolation, NotInAssociativeSubalgebra
from octoweak.gauge import general_coupling_residual
from octoweak.grading import (
    IPMoveForm,
    SubspaceTag,
    draw,
    draw_block,
    draw_rows,
    in_subspace,
    membership_defect,
    ndof,
    project,
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
from octoweak.lorentz import (
    BOOST_PAIRS,
    MAT_EXP_NORM_CAP,
    ROTATION_PAIRS,
    THETA_PAIRS,
    Theta,
    _S_PAIRS,
    _V_PAIRS,
    double_cover_residual,
    lambda_S,
    lambda_V,
    mat_exp,
    theta_rows,
)

N = 40


def _rows(tag, seed, n=N, bound=1.0):
    return draw_rows(tag, np.random.default_rng(seed), n, bound)


def _values(rows):
    return [CplxOcton(r) for r in rows]


def _close(stacked, scalars, rel=1e-14):
    ref = np.array(scalars)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert stacked.shape == ref.shape
    assert np.max(np.abs(stacked - ref)) <= rel * scale


def _thetas(seed, n=N, bound=2.0):
    return theta_rows(np.random.default_rng(seed).uniform(-bound, bound, (n, 6)))


# -------------------------------------------------------------------- draws


@pytest.mark.parametrize(
    "tags",
    [
        (SubspaceTag.FULL_CO,) * 3,
        (SubspaceTag.A, SubspaceTag.A, SubspaceTag.B, SubspaceTag.B),
        (SubspaceTag.A, SubspaceTag.B, SubspaceTag.B, SubspaceTag.A, SubspaceTag.A_MINUS),
    ],
)
def test_draw_block_equals_per_sample_draws(tags):
    block_rng, loop_rng = np.random.default_rng(24), np.random.default_rng(24)
    block = draw_block(tags, block_rng, 300, 1.5)
    for i in range(300):
        for k, tag in enumerate(tags):
            assert np.array_equal(block[k][i], draw(tag, loop_rng, 1.5).c)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_theta_rows_equals_theta_constructors():
    rng = np.random.default_rng(25)
    vals = rng.uniform(-2, 2, (5, 6))
    for got, v in zip(theta_rows(vals), vals):
        assert np.array_equal(got, Theta.from_upper(dict(zip(THETA_PAIRS, v))).m)
    rot = theta_rows(vals[:, :3], ROTATION_PAIRS)
    assert np.all(rot[:, 0, :] == 0) and np.array_equal(rot[:, 1, 2], vals[:, 0])
    boost = theta_rows(vals[:, :3], BOOST_PAIRS)
    assert np.all(boost[:, 1:, 1:] == 0) and np.array_equal(boost[:, 0, 3], vals[:, 2])


def test_ndof_is_the_real_dimension_of_each_subspace():
    rng = np.random.default_rng(26)
    for tag, dim in zip(SubspaceTag, (16, 8, 8, 4, 4)):
        assert ndof(tag) == dim
        # the projector onto the subspace has rank ndof on the 16 real coordinates
        image = project(rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8)), tag)
        assert np.linalg.matrix_rank(image.view(np.float64)) == dim


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("n", [35, 300])
def test_mul_rows_matches_mul_bit_for_bit(n):
    x, y = _rows(SubspaceTag.FULL_CO, 1, n), _rows(SubspaceTag.FULL_CO, 2, n)
    want = np.array([mul(a, b).c for a, b in zip(_values(x), _values(y))])
    assert np.array_equal(mul_rows(x, y), want)
    # broadcasting one value against many rows, as the field layer does
    want = np.array([mul(CplxOcton(x[0]), b).c for b in _values(y)])
    assert np.array_equal(mul_rows(x[0], y), want)


def test_row_kernels_match_scalar_functions():
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (3, 4, 5))
    xs, ys, zs = _values(x), _values(y), _values(z)
    _close(conj_oct_rows(x), [conj_oct(a).c for a in xs], 0.0)
    _close(bar_star_rows(x), [bar_star(a).c for a in xs], 0.0)
    assert np.array_equal(inner_rows(x, y), [inner(a, b) for a, b in zip(xs, ys)])
    assert np.array_equal(norm_rows(x), [norm(a) for a in xs])
    _close(abs_rows(x), [abs(a) for a in xs])
    _close(associator_rows(x, y, z), [associator(a, b, c).c for a, b, c in zip(xs, ys, zs)])


def test_exp_rows_matches_exp_assoc_across_branches():
    u = _rows(SubspaceTag.A, 6, bound=3.0)
    u[0] = 0.0  # omega = 0
    u[1, 1:4] = [1e-8, -2e-8j, 3e-9]  # Taylor branch
    u[2, 1:4] = [0.5j, 0.0, 0.0]  # pure boost: omega^2 < 0
    _close(exp_rows(u), [exp_assoc(a).c for a in _values(u)])


def test_exp_rows_rejects_a_row_outside_the_subalgebra():
    u = _rows(SubspaceTag.A, 7)
    u[5, 6] = 0.1
    with pytest.raises(NotInAssociativeSubalgebra):
        exp_rows(u)


def test_exp_rows_overflow_is_a_non_finite_row_not_an_error():
    u = np.zeros((3, 8), dtype=complex)
    u[0, 1] = 2000j  # cos(2000 i) overflows
    u[1, 0] = 800.0  # e^800 overflows
    u[2, 1] = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = exp_rows(u)
    assert not np.all(np.isfinite(out[0])) and not np.all(np.isfinite(out[1]))
    assert np.all(np.isfinite(out[2]))


# ------------------------------------------------------ Lorentz exponentials


def test_mat_exp_stack_gives_each_matrix_its_own_squarings():
    rng = np.random.default_rng(8)
    scales = [0.1, 3.0, 40.0, 900.0]
    m = np.array(
        [s * (rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))) / 4 for s in scales]
    )
    n1 = np.abs(m).sum(axis=1).max(axis=1)
    counts = [max(0, int(np.ceil(np.log2(v / MAT_EXP_NORM_CAP)))) for v in n1]
    assert counts[0] == 0 and len(set(counts)) == len(counts)
    stacked = mat_exp(m)
    for got, one in zip(stacked, m):
        want = mat_exp(one)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_mat_exp_non_finite_or_huge_norm_gives_non_finite_not_an_error():
    m = np.zeros((3, 4, 4))
    m[0, 0, 1] = np.inf
    m[1, 0, 1] = m[1, 1, 0] = 1e300
    m[2, 0, 1] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = mat_exp(m)
    assert not np.all(np.isfinite(out[0])) and not np.all(np.isfinite(out[1]))
    assert np.allclose(out[2], mat_exp(m[2]))


def test_generator_sums_are_exact_contractions():
    # at most one nonzero real and one nonzero imaginary term per entry: the
    # contraction over the six parameters then rounds nothing
    for gens in (_S_PAIRS, _V_PAIRS):
        flat = gens.reshape(len(gens), -1)
        assert (flat.real != 0).sum(axis=0).max() <= 1
        assert (flat.imag != 0).sum(axis=0).max() <= 1


def test_lambda_maps_on_a_stack_match_single_thetas():
    thetas = _thetas(9)
    singles = [Theta(t) for t in thetas]
    _close(lambda_S(thetas), [lambda_S(t).c for t in singles])
    _close(lambda_V(thetas), [lambda_V(t) for t in singles])
    _close(double_cover_residual(thetas), [double_cover_residual(t) for t in singles])
    assert isinstance(double_cover_residual(singles[0]), float)
    # one parameter matrix as an array takes the single-value route, unwrapped
    assert isinstance(lambda_S(singles[0]), CplxOcton)
    assert np.array_equal(lambda_S(thetas[0]), lambda_S(singles[0]).c)
    assert np.array_equal(lambda_V(thetas[0]), lambda_V(singles[0]))


def test_general_coupling_residual_on_rows_matches_single_values():
    r = np.random.default_rng(10).uniform(0.1, 1.0, N)
    thetas = _thetas(11)
    w, beta = _rows(SubspaceTag.A_MINUS, 12), _rows(SubspaceTag.B, 13)
    stacked = general_coupling_residual(r, 0.3 * r, thetas, w, beta)
    singles = [
        general_coupling_residual(a, 0.3 * a, Theta(t), CplxOcton(x), CplxOcton(y))
        for a, t, x, y in zip(r, thetas, w, beta)
    ]
    _close(stacked, singles)
    assert min(singles) > 1e-3  # unequal weights: the residual is not rounding noise


# ------------------------------------------------------- grading residuals


def test_exchange_residuals_on_rows_match_single_values():
    a, a2, b, b2 = draw_block(
        (SubspaceTag.A, SubspaceTag.A, SubspaceTag.B, SubspaceTag.B), np.random.default_rng(14), N
    )
    cases = [
        (residual_ab, (a, b)),
        (residual_aab, (a, a2, b)),
        (residual_baa, (a, a2, b)),
        (residual_bba, (a, b, b2)),
        (residual_abb, (a, b, b2)),
        (residual_abba, (a, a2, b, b2)),
    ]
    for fn, args in cases:
        single = [fn(*map(CplxOcton, row)).c for row in zip(*args)]
        _close(fn(*args), single)
        assert isinstance(fn(*map(CplxOcton, (r[0] for r in args))), CplxOcton)


def test_full_algebra_residuals_on_rows_match_single_values():
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (15, 16, 17))
    rows = list(zip(_values(x), _values(y), _values(z)))
    _close(residual_zvengrowski(x, y, z), [residual_zvengrowski(*v).c for v in rows])
    for form in IPMoveForm:
        _close(residual_ipmove(form, x, y, z), [residual_ipmove(form, *v) for v in rows])
    assert isinstance(residual_ipmove(IPMoveForm.LL, *rows[0]), complex)


def test_membership_on_rows():
    a = _rows(SubspaceTag.A, 18)
    a[3] = _rows(SubspaceTag.B, 19, 1)[0]
    ok = in_subspace(a, SubspaceTag.A)
    assert ok.dtype == bool and not ok[3] and ok.sum() == N - 1
    single = [membership_defect(v, SubspaceTag.A) for v in _values(a)]
    _close(membership_defect(a, SubspaceTag.A), single)


def test_membership_tolerance_scales_with_the_magnitude():
    a = _rows(SubspaceTag.A, 27)
    a[2] *= 1e6
    a[2, 5] = 1e-6  # above MEMBERSHIP_TOL, within MEMBERSHIP_TOL * |x|
    a[4, 5] = 1e-6  # the same defect on a row of unit size
    ok = in_subspace(a, SubspaceTag.A)
    assert ok[2] and not ok[4] and ok.sum() == N - 1
    assert in_subspace(CplxOcton(a[2]), SubspaceTag.A) is True
    require_member(np.delete(a, 4, axis=0), SubspaceTag.A)


def test_one_bad_row_raises_domain_violation():
    a, b = _rows(SubspaceTag.A, 20), _rows(SubspaceTag.B, 21)
    bad_a = a.copy()
    bad_a[7, 5] = 0.5
    with pytest.raises(DomainViolation):
        residual_ab(bad_a, b)
    with pytest.raises(DomainViolation):
        residual_abba(a, a, b, bad_a)
    w = _rows(SubspaceTag.A_MINUS, 22)
    w[0, 0] = 1.0  # a real scalar part leaves the anti-Hermitian sector
    with pytest.raises(DomainViolation):
        general_coupling_residual(np.ones(N), np.ones(N), _thetas(23), w, b)


def test_require_member_reports_the_worst_bad_row():
    a = _rows(SubspaceTag.A, 24)
    a[5, 4] = 0.25
    a[9, 6] = 0.5
    with pytest.raises(DomainViolation, match=r"defect 0\.5\b"):
        require_member(a, SubspaceTag.A, "a")
    require_member(a[:5], SubspaceTag.A, "a")
    with pytest.raises(DomainViolation, match="defect 0.25"):
        require_member(CplxOcton(a[5]), SubspaceTag.A, "a")


def test_each_rowwise_function_has_its_own_code_object():
    # profilers key calls by code object: shared code would pool their counts
    fns = (in_subspace, membership_defect, project, lambda_S, lambda_V, residual_ab, residual_abba)
    assert len({fn.__code__ for fn in fns}) == len(fns)
    assert [fn.__code__.co_name for fn in fns] == [fn.__name__ for fn in fns]
