"""Row kernels and the batched identities against their scalar forms.

A stack of inputs must give, row by row, what one scalar call per row gives.
The arithmetic is the same apart from the order of a few sums, so rows
agree to 1e-14 of their scale; the product itself matches bit for bit.  The
algebra kernels are checked against the independent routes in ``oracles``,
as their single-value forms are views of them.  The batched field and gauge
suites must give what their per-sample references in ``oracles`` give, from
the same inputs.
"""

import warnings

import numpy as np
import pytest

from octoweak import core, fields, gauge, lorentz, suites
from octoweak.core import (
    E,
    SMALL_ANGLE,
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
    structure_table,
)
from octoweak.errors import DomainViolation, NotInAssociativeSubalgebra
from octoweak.fields import (
    DEXP_TAYLOR_Z,
    PolyField,
    bilinear_rows,
    dexp_rows,
    eval_at,
    jet_rows,
    monomials,
    partial,
    random_field,
)
from octoweak.gauge import general_coupling_residual
from octoweak.grading import (
    IPMoveForm,
    SubspaceTag,
    draw,
    dof_rows,
    draw_rows,
    exchange_residuals,
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
    _V_REAL_PAIRS,
    double_cover_residual,
    eta_inverse_transform,
    infinitesimal_dc_rows,
    lambda_S,
    lambda_V,
    lambda_V_real,
    lorentz_algebra_rows,
    mat_exp,
    theta_rows,
)
from octoweak.suites import SuiteConfig

import oracles

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


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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
    block = oracles.draw_block(tags, block_rng, 300, 1.5)
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


def _explicit_sum(a, b):
    # sum_k a_k b_k, term by term in Python complex arithmetic
    acc = 0j
    for ak, bk in zip(a.tolist(), b.tolist()):
        acc += ak * bk
    return acc


def test_row_kernels_match_scalar_functions():
    # each kernel against an independent route: the doubling recursion for the
    # conjugations and the product, explicit sums for the bilinear forms
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (3, 4, 5))
    _close(conj_oct_rows(x), [oracles.cd_conj(a) for a in x], 0.0)
    _close(bar_star_rows(x), [oracles.cd_conj(np.conj(a)) for a in x], 0.0)
    # BLAS may add a contraction in any order and fuse its products, so the
    # forms match an explicit sum bit for bit where every product and partial
    # sum is exact (coefficients in eighths), and to rounding elsewhere
    rng = np.random.default_rng(54)
    p, q = ((rng.integers(-16, 17, (N, 8)) + 1j * rng.integers(-16, 17, (N, 8))) / 8 for _ in "pq")
    assert np.array_equal(inner_rows(p, q), [_explicit_sum(a, b) for a, b in zip(p, q)])
    assert np.array_equal(norm_rows(p), [_explicit_sum(a, a) for a in p])
    _close(inner_rows(x, y), [_explicit_sum(a, b) for a, b in zip(x, y)])
    _close(norm_rows(x), [_explicit_sum(a, a) for a in x])
    _close(abs_rows(x), [np.sqrt(_explicit_sum(a, np.conj(a)).real) for a in x])
    cd_mul = oracles.cd_mul
    want = [cd_mul(cd_mul(a, b), c) - cd_mul(a, cd_mul(b, c)) for a, b, c in zip(x, y, z)]
    _close(associator_rows(x, y, z), want)


def test_each_single_value_function_is_a_view_of_its_row_kernel():
    # a value goes through the kernel as one row, bit for bit; rows pass straight through
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (50, 51, 52))
    u = _rows(SubspaceTag.A, 53, bound=2.0)
    cases = [
        (conj_oct, conj_oct_rows, (x,)),
        (bar_star, bar_star_rows, (x,)),
        (inner, inner_rows, (x, y)),
        (norm, norm_rows, (x,)),
        (associator, associator_rows, (x, y, z)),
        (exp_assoc, exp_rows, (u,)),
    ]
    for view, kernel, rows in cases:
        block = kernel(*rows)
        assert _same_bits(view(*rows), block)
        for i in range(len(block)):
            got = view(*(CplxOcton(r[i]) for r in rows))
            want = kernel(*(r[i] for r in rows))
            if want.shape == (8,):
                assert isinstance(got, CplxOcton) and got.c.tobytes() == want.tobytes()
            else:
                assert isinstance(got, complex) and got == want.item()
            assert block[i].tobytes() == want.tobytes()


def _full_rows(rng, shape):
    return rng.uniform(-1, 1, shape + (8,)) + 1j * rng.uniform(-1, 1, shape + (8,))


def test_mul_rows_matches_the_dense_contraction():
    rng = np.random.default_rng(44)
    x, y = _full_rows(rng, (300,)), _full_rows(rng, (300,))
    scale = abs_rows(x) * abs_rows(y)
    err = abs_rows(mul_rows(x, y) - oracles.mul_rows_dense(x, y))
    assert np.all(err <= 1e-15 * scale)
    # broadcasting: a stack (k, 1, 8) against one value and against rows
    stack, one, many = _full_rows(rng, (5, 1)), _full_rows(rng, ()), _full_rows(rng, (7,))
    for other in (one, many):
        got, want = mul_rows(stack, other), oracles.mul_rows_dense(stack, other)
        assert got.shape == want.shape == np.broadcast_shapes(stack.shape, other.shape)
        assert np.all(abs_rows(got - want) <= 1e-15 * abs_rows(stack) * abs_rows(other))
        assert np.all(abs_rows(mul_rows(other, stack) - oracles.mul_rows_dense(other, stack))
                      <= 1e-15 * abs_rows(stack) * abs_rows(other))


def test_mul_rows_is_exact_on_every_basis_pair():
    table = structure_table()
    basis = np.eye(8, dtype=np.complex128)
    got = mul_rows(basis[:, None, :], basis[None, :, :])
    want = np.zeros((8, 8, 8), dtype=np.complex128)
    a, b = np.indices((8, 8))
    want[a, b, table.index] = table.sign
    assert np.array_equal(got, want)


def test_mul_is_one_row_of_mul_rows_and_a_block_is_its_rows():
    rng = np.random.default_rng(45)
    x, y = _full_rows(rng, (300,)), _full_rows(rng, (300,))
    block = mul_rows(x, y)
    for i in range(300):
        assert mul(CplxOcton(x[i]), CplxOcton(y[i])).c.tobytes() == mul_rows(x[i], y[i]).tobytes()
        assert block[i].tobytes() == mul_rows(x[i], y[i]).tobytes()


def test_dof_rows_equals_the_dense_product_bit_for_bit():
    rng = np.random.default_rng(46)
    for tag in SubspaceTag:
        for shape in ((), (37,), (5, 3)):
            dof = rng.uniform(-1, 1, shape + (ndof(tag),))
            got, want = dof_rows(tag, dof), oracles.dof_rows_dense(tag, dof)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_project_and_bilinear_rows_match_the_dense_routes():
    rng = np.random.default_rng(47)
    x = _full_rows(rng, (40,))
    for tag in SubspaceTag:
        assert np.max(np.abs(project(x, tag) - oracles.project_dense(x, tag))) <= 1e-15
    values, grads = _full_rows(rng, (40,)), _full_rows(rng, (40, 4))
    got, want = bilinear_rows(values, grads), oracles.bilinear_rows_dense(values, grads)
    assert got.shape == want.shape == (40,)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_exp_rows_matches_exp_assoc_across_branches():
    # against the closed form in Python complex arithmetic
    u = _rows(SubspaceTag.A, 6, bound=3.0)
    u[0] = 0.0  # omega = 0
    u[1, 1:4] = [1e-8, -2e-8j, 3e-9]  # Taylor branch
    u[2, 1:4] = [0.5j, 0.0, 0.0]  # pure boost: omega^2 < 0
    _close(exp_rows(u), [oracles.exp_closed_form(a).c for a in _values(u)])


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


def test_cos_sinc_rows_equals_the_two_branch_form_bit_for_bit():
    # the Taylor sums are formed only for an array with a small entry, and
    # give the bits of evaluating both branches on every entry
    rng = np.random.default_rng(46)
    z = rng.uniform(-4, 4, N) + 1j * rng.uniform(-4, 4, N)
    z[1] = -2.5  # pure boost: omega^2 < 0
    assert np.all(np.abs(np.sqrt(z)) >= SMALL_ANGLE)
    one_small = z.copy()
    one_small[N // 2] = 1e-14 - 3e-15j  # |omega| about 1e-7
    cases = [z, one_small, np.asarray(z[3]), np.asarray(1e-14 + 0j), np.asarray(0j)]
    for case in cases:
        got, want = core._cos_sinc_rows(case), oracles.cos_sinc_rows_two_branch(case)
        for g, w in zip(got, want):
            # a 0-d input comes back as 0-d arrays, not numpy scalars
            assert isinstance(g, np.ndarray) and _same_bits(g, w), case


def test_exp_and_dexp_of_one_row_equal_that_row_inside_a_block():
    u, du = _rows(SubspaceTag.A, 47, bound=2.0), _rows(SubspaceTag.A, 48)
    u[3, 1:4] = [1e-8, 0.0, 2e-9j]  # a row on the Taylor branch makes the block take it
    for block in (u[:3], u):
        exp_block, dexp_block = exp_rows(block), dexp_rows(block, du[: len(block)])
        for i, row in enumerate(block):
            assert exp_rows(row).tobytes() == exp_block[i].tobytes()
            assert dexp_rows(row, du[i]).tobytes() == dexp_block[i].tobytes()


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


def test_mat_exp_stops_squaring_a_huge_matrix_without_touching_the_others():
    rng = np.random.default_rng(28)
    ordinary = rng.uniform(-3, 3, (5, 4, 4)) + 1j * rng.uniform(-3, 3, (5, 4, 4))
    huge = np.full((1, 4, 4), 1e300)  # about 1000 squarings, overflowing after a few
    mixed = np.concatenate([ordinary[:2], huge, ordinary[2:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = mat_exp(mixed)
    assert np.array_equal(np.delete(out, 2, axis=0), mat_exp(ordinary))
    assert not np.all(np.isfinite(out[2]))


def test_mat_exp_of_a_real_stack_is_real_and_matches_the_complex_route():
    rng = np.random.default_rng(37)
    moderate = rng.uniform(-0.8, 0.8, (N, 4, 4))  # the range the series oracle handles
    generators = lorentz._generator_sum(_thetas(38, bound=10.0), _V_REAL_PAIRS)
    for m in (moderate, generators):
        got = mat_exp(m)
        assert got.dtype == np.float64
        want = mat_exp(m.astype(np.complex128))
        assert want.dtype == np.complex128
        scale = np.max(np.abs(want), axis=(-2, -1))
        assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-15 * scale)
    for got, m in zip(mat_exp(moderate), moderate):
        assert np.max(np.abs(got - oracles.mat_exp_taylor(m))) < 1e-12
    assert lambda_V(_thetas(39)).dtype == np.float64
    assert lambda_V(Theta.single(0, 1, 0.4)).dtype == np.float64


def test_lorentz_kernels_equal_the_scalar_residuals_bit_for_bit():
    for kernel, scalar, k in (
        (lorentz_algebra_rows, oracles.lorentz_algebra_residual, 4),
        (infinitesimal_dc_rows, oracles.infinitesimal_dc_residual, 3),
    ):
        index = np.indices((4,) * k).reshape(k, -1)
        got = kernel(*index)
        want = np.array([scalar(*map(int, ix)).c for ix in index.T])
        assert got.shape == want.shape == (4**k, 8)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stacked_lorentz_helpers_match_single_calls():
    thetas = _thetas(29)
    lv = lambda_V_real(thetas)
    assert lv.dtype == float and lv.shape == (N, 4, 4)
    _close(lv, [lambda_V_real(Theta(t)) for t in thetas])
    # a signed transpose: exact, row by row
    assert np.array_equal(eta_inverse_transform(lv), [eta_inverse_transform(m) for m in lv])
    assert np.allclose(eta_inverse_transform(lv) @ lv, np.eye(4), atol=1e-12)


def test_ebar_rows_equals_the_product_with_the_ebar_rows():
    # one scale per slot gives the product's values; a non-finite coefficient
    # makes its row non-finite, as in the product
    rng = np.random.default_rng(49)
    coeffs = rng.uniform(-3, 3, (N, 4, 4))
    coeffs[0, 1, 2], coeffs[1, 3, 0] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        got, want = lorentz.ebar_rows(coeffs), coeffs @ lorentz.EBAR_UPPER_ROWS
    finite = np.isfinite(want).all(axis=-1)
    assert np.array_equal(np.isfinite(got).all(axis=-1), finite) and not finite.all()
    assert np.array_equal(got[finite], want[finite])
    imaginary = rng.uniform(-3, 3, (N, 4)) * 1j  # as the entries of the vector generators
    assert np.array_equal(lorentz.ebar_rows(imaginary), imaginary @ lorentz.EBAR_UPPER_ROWS)


def test_lambda_V_real_checks_each_matrix_against_its_own_scale(monkeypatch):
    big = np.eye(4) * 1e8 + 1e-4j  # fuzz within 1e-10 of the matrix's scale
    small = np.eye(4) + 1e-4j  # the same fuzz on a unit matrix
    monkeypatch.setattr(lorentz, "lambda_V", lambda theta: theta)
    assert np.array_equal(lambda_V_real(np.array([big, big])), [big.real, big.real])
    with pytest.raises(ArithmeticError):
        lambda_V_real(np.array([big, small]))


def test_generator_sums_are_exact_contractions():
    # at most one nonzero real and one nonzero imaginary term per entry: the
    # contraction over the six parameters then rounds nothing
    for gens in (_S_PAIRS, _V_PAIRS, _V_REAL_PAIRS):
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
    # a Theta is one parameter matrix, read as a row and unwrapped
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


def _exchange_cases(a, a2, b, b2):
    # each public exchange residual with its arguments, in exchange_residuals' order
    return [
        (residual_ab, (a, b)),
        (residual_aab, (a, a2, b)),
        (residual_baa, (a, a2, b)),
        (residual_bba, (a, b, b2)),
        (residual_abb, (a, b, b2)),
        (residual_abba, (a, a2, b, b2)),
    ]


def test_exchange_residuals_on_rows_match_single_values():
    a, a2, b, b2 = oracles.draw_block(
        (SubspaceTag.A, SubspaceTag.A, SubspaceTag.B, SubspaceTag.B), np.random.default_rng(14), N
    )
    for fn, args in _exchange_cases(a, a2, b, b2):
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


@pytest.mark.parametrize("position", range(4))
def test_each_exchange_residual_refuses_an_off_subspace_row(position):
    inputs = list(oracles.draw_block(suites._AB_TAGS, np.random.default_rng(48), N))
    inputs[position] = inputs[position].copy()
    inputs[position][N // 2, 0 if position >= 2 else 4] = 0.5  # a B part on a, a scalar on b
    bad = inputs[position]
    for fn, args in _exchange_cases(*inputs):
        if any(arg is bad for arg in args):
            with pytest.raises(DomainViolation):
                fn(*args)
        else:
            fn(*args)
    with pytest.raises(DomainViolation):
        exchange_residuals(*inputs)


def test_exchange_residuals_are_the_six_public_residuals():
    inputs = oracles.draw_block(suites._AB_TAGS, np.random.default_rng(49), N)
    public = [fn(*args) for fn, args in _exchange_cases(*inputs)]
    got = exchange_residuals(*inputs)
    assert len(got) == 6 and all(_same_bits(g, w) for g, w in zip(got, public))


def test_ab_identities_fails_when_one_input_row_is_off_its_subspace(monkeypatch):
    read = suites._read_block

    def spoil(rng, m, inputs):
        block = read(rng, m, inputs)
        block[3][m // 2, 0] += 1.0  # b' gains a scalar part
        return block

    monkeypatch.setattr(suites, "_read_block", spoil)
    report = suites.run_suite("ab-identities", SuiteConfig())
    assert not report.passed
    assert report.message.startswith("DomainViolation: b' is not in subspace B")


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


# ------------------------------------------------------------- field kernels


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_jet_rows_matches_eval_at_and_partial(degree):
    rng = np.random.default_rng(31 + degree)
    exps = monomials(degree)
    coeffs = draw_rows(SubspaceTag.FULL_CO, rng, N * len(exps)).reshape(N, len(exps), 8)
    points = rng.uniform(-1.5, 1.5, (N, 4))
    values, grads = jet_rows(exps, coeffs, points)
    assert values.shape == (N, 8) and grads.shape == (N, 4, 8)
    polys = [PolyField._from_arrays(exps, c, degree, None) for c in coeffs]
    _close(values, [oracles.eval_naive(f, p).c for f, p in zip(polys, points)])
    want = [[eval_at(partial(f, rho), p).c for rho in range(4)] for f, p in zip(polys, points)]
    _close(grads, want)
    # one field against many points broadcasts
    _close(jet_rows(exps, coeffs[0], points)[0], [eval_at(polys[0], p).c for p in points])


def test_jet_rows_gradient_along_an_absent_coordinate_is_exactly_zero():
    f = PolyField({(0, 3, 0, 0): E[2]})  # x1^3 at x1 = 1e200 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        values, grads = jet_rows(f.exps, f.coeffs, np.array([0.5, 1e200, 0.0, 0.0]))
    assert not np.all(np.isfinite(values))
    assert np.array_equal(grads[[0, 2, 3]], np.zeros((3, 8)))


def test_dexp_rows_matches_the_series_across_the_taylor_boundary():
    rng = np.random.default_rng(32)
    omega_sqs = np.logspace(-10, 0.5, 30)
    assert omega_sqs[0] < DEXP_TAYLOR_Z < omega_sqs[-1]
    u = _rows(SubspaceTag.A, 33, len(omega_sqs), 0.5)
    du = _rows(SubspaceTag.A, 34, len(omega_sqs))
    for row, omega_sq in zip(u, omega_sqs):
        row[1:4] *= np.sqrt(omega_sq / abs(np.dot(row[1:4], row[1:4])))
    got = dexp_rows(u, du)
    origin = (0.0, 0.0, 0.0, 0.0)
    for got_row, value, grad in zip(got, u, du):
        # u(x) = value + x0 grad: at the origin u = value and d_0 u = grad
        field = PolyField({(0, 0, 0, 0): CplxOcton(value), (1, 0, 0, 0): CplxOcton(grad)})
        want = oracles.dexp_series(field, 0, origin).c
        assert np.max(np.abs(got_row - want)) <= 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------- field and gauge suites


def test_per_sample_inputs_read_the_stream_as_single_draws():
    cfg = SuiteConfig(field_degree=3)
    inputs = (suites._POINT, suites._gauge_param(cfg), suites._connection(cfg), suites._AXIS)
    block_rng, loop_rng = np.random.default_rng(35), np.random.default_rng(35)
    p, u, w, rho = suites._read_block(block_rng, 70, inputs)
    a_minus = SubspaceTag.A_MINUS
    for i in range(70):
        assert np.array_equal(p[i], loop_rng.uniform(-1.0, 1.0, 4))
        want_u = random_field(loop_rng, 2, a_minus, suites.GAUGE_PARAM_BOUND)
        assert np.array_equal(dof_rows(a_minus, u[i]), want_u.coeffs)
        for k in range(4):
            want_w = random_field(loop_rng, 3, a_minus).coeffs
            assert np.array_equal(dof_rows(a_minus, w[i, k]), want_w)
        assert rho[i] == oracles.integer(loop_rng, 0, 4)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


_I = suites._Input


@pytest.mark.parametrize(
    "inputs",
    [
        # prop4-dichotomy: every input uniform, a scalar among them
        (_I(0.1, 1.0), _I(-2.0, 2.0, (6,)), suites._params(SubspaceTag.A_MINUS),
         suites._params(SubspaceTag.B)),
        # boost-selfconj: an integer first
        (_I(1, 4, integer=True), _I(-2.0, 2.0)),
        # uniform, integer, uniform
        (_I(-1.0, 1.0, (4,)), _I(0.25, 1.5), _I(0, 4, integer=True), _I(-3.0, 0.5, (2, 3))),
    ],
    ids=["prop4", "boost-selfconj", "mixed"],
)
def test_read_block_reads_the_stream_as_one_draw_per_input_and_sample(inputs):
    block_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
    for m in (suites.BLOCK_ROWS, 5):
        got = suites._read_block(block_rng, m, inputs)
        want = oracles.read_per_sample(loop_rng, m, inputs)
        for x, g, w in zip(inputs, got, want):
            assert g.shape == w.shape == (m,) + x.shape and g.dtype == w.dtype
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("low, high", [(-1e308, 1e308), (0.0, np.inf), (np.nan, 1.0)])
def test_read_block_refuses_a_bound_width_that_is_not_finite(low, high):
    rng = np.random.default_rng(42)
    state = rng.bit_generator.state
    with pytest.raises(OverflowError):
        suites._read_block(rng, 3, (_I(-1.0, 1.0), _I(0, 4, integer=True), _I(low, high)))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "tags",
    [suites._CLOSURE_TAGS, suites._AB_TAGS, (SubspaceTag.FULL_CO,) * 3, (SubspaceTag.FULL_CO,) * 2],
    ids=["closure", "ab", "full3", "full2"],
)
def test_read_block_on_tagged_elements_equals_draw_block(tags):
    inputs = suites._elements(*tags)(SuiteConfig())
    for seed in range(20):
        block_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in (64, 64, 37):
            got = suites._read_block(block_rng, m, inputs)
            want = oracles.draw_block(tags, ref_rng, m)
            assert all(_same_bits(g, w) for g, w in zip(got, want))
            assert block_rng.bit_generator.state == ref_rng.bit_generator.state


_SAMPLED = sorted(sid for sid, sdef in suites._REGISTRY.items() if not sdef.exhaustive)


class _TopOfRange:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0**-53)


def test_an_integer_input_never_reads_its_high_bound():
    axis = suites._boost_selfconj_inputs(SuiteConfig())[0]
    for x in (suites._AXIS, axis, _I(3, 4, integer=True)):
        # 3 + 1 * (1 - 2**-53) rounds up to 4 itself
        (got,) = suites._read_block(_TopOfRange(), 5, (x,))
        assert got.dtype == np.intp and np.all(got == x.high - 1)


class _CountingRng:
    """Forwards to a generator and counts the calls made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("degree", [2, 3])
def test_read_block_calls_the_generator_once_per_block(degree, monkeypatch):
    monkeypatch.setattr(suites, "BLOCK_ROWS", 64)
    cfg = SuiteConfig(field_degree=degree)
    for suite_id in _SAMPLED:
        rng = _CountingRng(suites._rng_for(cfg, suite_id))
        suites._evaluate(suites._REGISTRY[suite_id], cfg, 150, rng)
        assert rng.calls == 3, suite_id  # blocks of 64, 64 and 22 rows


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("suite_id", _SAMPLED)
def test_one_read_equals_reads_in_blocks(suite_id, degree, monkeypatch):
    # the samples a suite reads do not depend on how they are split into blocks
    monkeypatch.setattr(suites, "BLOCK_ROWS", 64)  # so that n = 150 spans three blocks
    cfg = SuiteConfig(field_degree=degree)
    inputs = suites._REGISTRY[suite_id].inputs(cfg)
    for n in (150, 64, 1):
        whole_rng, block_rng = suites._rng_for(cfg, suite_id), suites._rng_for(cfg, suite_id)
        whole = suites._read_block(whole_rng, n, inputs)
        blocks = [
            suites._read_block(block_rng, min(suites.BLOCK_ROWS, n - start), inputs)
            for start in range(0, n, suites.BLOCK_ROWS)
        ]
        for k, got in enumerate(whole):
            assert _same_bits(got, np.concatenate([b[k] for b in blocks]))
        assert whole_rng.bit_generator.state == block_rng.bit_generator.state


@pytest.mark.parametrize("degree", [2, 3])
def test_residuals_do_not_depend_on_the_block_size(degree, monkeypatch):
    # 600 samples: nine full blocks and a part block at 64 rows, four and a
    # part block at the default 128, two and a part block at 256
    cfg = SuiteConfig(field_degree=degree)
    sizes = (64, suites.BLOCK_ROWS, 256)
    for suite_id in _SAMPLED:
        sdef, runs = suites._REGISTRY[suite_id], []
        for rows in sizes:
            monkeypatch.setattr(suites, "BLOCK_ROWS", rows)
            rng = suites._rng_for(cfg, suite_id)
            residuals, _ = suites._evaluate(sdef, cfg, 600, rng)
            runs.append((residuals, rng.bit_generator.state))
        (first, first_state), *others = runs
        for rows, (residuals, state) in zip(sizes[1:], others):
            assert _same_bits(residuals, first), (suite_id, rows)
            assert state == first_state, (suite_id, rows)


def test_jet_exponent_tables_are_cached_and_read_only():
    exps = monomials(3)
    tables = fields._jet_exponents(exps.tobytes())
    assert all(not t.flags.writeable for t in tables)
    # equal exponents in another array find the same tables
    assert fields._jet_exponents(exps.copy().tobytes()) is tables
    f = random_field(np.random.default_rng(43), 3, SubspaceTag.A)
    hits = fields._jet_exponents.cache_info().hits
    eval_at(f, (0.1, 0.2, 0.3, 0.4))
    assert fields._jet_exponents.cache_info().hits == hits + 1


def test_jets_of_real_parameters_map_to_jets_of_the_elements():
    rng = np.random.default_rng(36)
    exps = monomials(2)
    params = rng.uniform(-1, 1, (N, len(exps), ndof(SubspaceTag.B)))
    points = rng.uniform(-1, 1, (N, 4))
    real_value, real_grads = jet_rows(exps, params, points)
    value, grads = jet_rows(exps, dof_rows(SubspaceTag.B, params), points)
    assert real_value.dtype == float and real_grads.shape == (N, 4, ndof(SubspaceTag.B))
    assert np.array_equal(dof_rows(SubspaceTag.B, real_value), value)
    assert np.array_equal(dof_rows(SubspaceTag.B, real_grads), grads)


def _break_identities(monkeypatch):
    # group elements scaled off the group and a spinor transformation that
    # does not match L_V: every residual becomes O(1) and depends on the inputs
    monkeypatch.setattr(gauge, "exp_rows", lambda u: 1.5 * exp_rows(u))
    for module in (fields, suites):
        monkeypatch.setattr(module, "lambda_S", lambda theta: lambda_S(-theta))


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("suite_id", sorted(oracles.FIELD_SUITE_RUNNERS))
def test_batched_field_runner_matches_its_per_sample_reference(
    suite_id, degree, broken, monkeypatch
):
    if broken:
        _break_identities(monkeypatch)
    monkeypatch.setattr(suites, "BLOCK_ROWS", 64)
    n = 150
    assert n > 2 * suites.BLOCK_ROWS  # crosses block boundaries, ends on a part block
    cfg = SuiteConfig(seed=2025, field_degree=degree)
    rng_batched, rng_ref = suites._rng_for(cfg, suite_id), suites._rng_for(cfg, suite_id)
    got, got_ok = suites._evaluate(suites._REGISTRY[suite_id], cfg, n, rng_batched)
    want, want_ok = oracles.FIELD_SUITE_RUNNERS[suite_id](cfg, n, rng_ref)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape == (n,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))
    assert got_ok == want_ok
    assert rng_batched.bit_generator.state == rng_ref.bit_generator.state
    if broken:  # residuals that tell the inputs apart
        assert np.median(want) > 1e-3
    else:
        assert want.max() < cfg.suite_tolerance(suite_id)
