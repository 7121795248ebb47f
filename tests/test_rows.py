"""Blocks of rows, the random stream, and single values.

Each algebra operation on rows is checked against an independent route in
``oracles``: the doubling recursion, a dense contraction, explicit sums or
Python complex arithmetic.  A single value is its row of a block, bit for bit.
A block reads the generator's stream as one draw per input and sample,
whatever its size.  One test checks every sampled suite of the registry
against its per-sample reference in ``oracles.SAMPLE_RESIDUALS``, from the
same stream, as the identities hold and under one breaker that makes every
residual O(1) and dependent on the inputs.
"""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from octoweak import core, fields, gauge, grading, lorentz, suites
from octoweak.core import (
    E,
    CplxOcton,
    abs_rows,
    associator,
    bar_star,
    conj_oct,
    exp_assoc,
    inner,
    mul,
    norm,
    structure_table,
)
from octoweak.errors import DomainViolation, NotInAssociativeSubalgebra
from octoweak.fields import (
    PolyField,
    bilinear_rows,
    dexp_rows,
    eval_at,
    jets,
    monomial_rows,
    monomials,
    random_field,
)
from octoweak.gauge import general_coupling_residual
from octoweak.grading import (
    SubspaceTag,
    draw,
    dof_rows,
    exchange_residuals,
    ipmove_residuals,
    membership_defect,
    ndof,
    project,
    require_member,
    residual_zvengrowski,
)
from octoweak.lorentz import (
    BOOST_PAIRS,
    ROTATION_PAIRS,
    THETA_PAIRS,
    Theta,
    _S_PAIRS,
    _V_REAL_PAIRS,
    double_cover_residual,
    eta_inverse_transform,
    infinitesimal_dc_rows,
    lambda_S,
    lambda_V,
    lorentz_algebra_rows,
    theta_rows,
)
from octoweak.suites import SuiteConfig

import oracles

N = 40


def _rows(tag, seed, n=N, bound=1.0):
    return oracles.draw_block((tag,), np.random.default_rng(seed), n, bound)[0]


def _close(stacked, scalars, rel=1e-14):
    ref = np.array(scalars)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert stacked.shape == ref.shape
    assert np.max(np.abs(stacked - ref)) <= rel * scale


def _same_bits(got, want):
    # bit for bit, NaN included: equal dtypes, shapes and bytes
    got, want = np.asarray(got), np.asarray(want)
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


def _explicit_sum(a, b):
    # sum_k a_k b_k, term by term in Python complex arithmetic
    acc = 0j
    for ak, bk in zip(a.tolist(), b.tolist()):
        acc += ak * bk
    return acc


def test_core_operations_on_rows_match_independent_routes():
    # each operation against an independent route: the doubling recursion for the
    # conjugations and the product, explicit sums for the bilinear forms
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (3, 4, 5))
    _close(conj_oct(x), [oracles.cd_conj(a) for a in x], 0.0)
    _close(bar_star(x), [oracles.cd_conj(np.conj(a)) for a in x], 0.0)
    # BLAS may add a contraction in any order and fuse its products, so the
    # forms match an explicit sum bit for bit where every product and partial
    # sum is exact (coefficients in eighths), and to rounding elsewhere
    rng = np.random.default_rng(54)
    p, q = ((rng.integers(-16, 17, (N, 8)) + 1j * rng.integers(-16, 17, (N, 8))) / 8 for _ in "pq")
    assert np.array_equal(inner(p, q), [_explicit_sum(a, b) for a, b in zip(p, q)])
    assert np.array_equal(norm(p), [_explicit_sum(a, a) for a in p])
    _close(inner(x, y), [_explicit_sum(a, b) for a, b in zip(x, y)])
    _close(norm(x), [_explicit_sum(a, a) for a in x])
    _close(abs_rows(x), [np.sqrt(_explicit_sum(a, np.conj(a)).real) for a in x])
    cd_mul = oracles.cd_mul
    want = [cd_mul(cd_mul(a, b), c) - cd_mul(a, cd_mul(b, c)) for a, b, c in zip(x, y, z)]
    _close(associator(x, y, z), want)


def test_a_rowwise_function_on_array_likes_and_no_single_value_acts_on_rows():
    # lists are rows, as arrays are: a lone list is one (8,) row or one 4x4
    # matrix, not a block of one whose row 0 is returned
    x, theta = _rows(SubspaceTag.FULL_CO, 55, 1)[0], _thetas(56, 1)[0]
    assert _same_bits(conj_oct(x.tolist()), conj_oct(x))
    assert _same_bits(inner(x.tolist(), x.tolist()), inner(x, x))
    assert _same_bits(lambda_V(theta.tolist()), lambda_V(theta))


def test_a_single_value_among_rows_is_its_block_of_one():
    # a single value passed with an array broadcasts as its block of one
    # against the array's rows, and the rows come back
    rows, one = _rows(SubspaceTag.FULL_CO, 57, 3), E[1].c[None]
    assert _same_bits(inner(E[1], rows), inner(one, rows))
    assert _same_bits(associator(E[1], rows, rows), associator(one, rows, rows))
    assert _same_bits(mul(E[1], rows), mul(one, rows))
    assert _same_bits(mul(rows, E[1]), mul(rows, one))
    assert _same_bits(residual_zvengrowski(rows, E[1], rows), residual_zvengrowski(rows, one, rows))


def _full_rows(rng, shape):
    return rng.uniform(-1, 1, shape + (8,)) + 1j * rng.uniform(-1, 1, shape + (8,))


def test_mul_matches_the_dense_contraction():
    rng = np.random.default_rng(44)
    x, y = _full_rows(rng, (300,)), _full_rows(rng, (300,))
    scale = abs_rows(x) * abs_rows(y)
    want = oracles.mul_rows_dense(x, y)
    assert np.all(abs_rows(mul(x, y) - want) <= 1e-15 * scale)
    # and by x's left-multiplication matrix, x y = y L(x)
    assert np.all(abs_rows(core.apply_right_rows(y, core.left_rows(x)) - want) <= 1e-15 * scale)
    # broadcasting: a stack (k, 1, 8) against one value and against rows
    stack, one, many = _full_rows(rng, (5, 1)), _full_rows(rng, ()), _full_rows(rng, (7,))
    for other in (one, many):
        got, want = mul(stack, other), oracles.mul_rows_dense(stack, other)
        assert got.shape == want.shape == np.broadcast_shapes(stack.shape, other.shape)
        assert np.all(abs_rows(got - want) <= 1e-15 * abs_rows(stack) * abs_rows(other))
        assert np.all(abs_rows(mul(other, stack) - oracles.mul_rows_dense(other, stack))
                      <= 1e-15 * abs_rows(stack) * abs_rows(other))


def test_mul_is_exact_on_every_basis_pair():
    table = structure_table()
    basis = np.eye(8, dtype=np.complex128)
    got = mul(basis[:, None, :], basis[None, :, :])
    by_left = core.apply_right_rows(basis[None, :, :], core.left_rows(basis[:, None, :]))
    want = np.zeros((8, 8, 8), dtype=np.complex128)
    a, b = np.indices((8, 8))
    want[a, b, table.index] = table.sign
    assert np.array_equal(got, want) and np.array_equal(by_left, want)


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


def test_exp_assoc_matches_the_closed_form_across_branches():
    # against the closed form in Python complex arithmetic
    u = _rows(SubspaceTag.A, 6, bound=3.0)
    u[0] = 0.0  # omega = 0
    u[1, 1:4] = [1e-8, -2e-8j, 3e-9]  # Taylor branch
    u[2, 1:4] = [0.5j, 0.0, 0.0]  # pure boost: omega^2 < 0
    _close(exp_assoc(u), [oracles.exp_closed_form(a).c for a in map(CplxOcton, u)])


def test_exp_assoc_rejects_a_row_outside_the_subalgebra():
    u = _rows(SubspaceTag.A, 7)
    u[5, 6] = 0.1
    with pytest.raises(NotInAssociativeSubalgebra):
        exp_assoc(u)


def test_exp_assoc_overflow_is_a_non_finite_row_not_an_error():
    u = np.zeros((3, 8), dtype=complex)
    u[0, 1] = 2000j  # cos(2000 i) overflows
    u[1, 0] = 800.0  # e^800 overflows
    u[2, 1] = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = exp_assoc(u)
    assert not np.all(np.isfinite(out[0])) and not np.all(np.isfinite(out[1]))
    assert np.all(np.isfinite(out[2]))


def test_cos_sinc_rows_matches_cmath_near_and_at_zero():
    # the direct forms against cmath's cos and sin, for a real, an imaginary and
    # a complex omega at each size, and at omega = 0, where sinc is its limit 1
    omegas = [0j] + [m * u for m in (1e-6, 1e-12, 1e-200) for u in (1, 1j, cmath.exp(0.7j))]
    cos_w, sinc_w = core._cos_sinc_rows(np.array([w * w for w in omegas]))
    eps = np.finfo(float).eps
    assert np.all(np.abs(cos_w - [cmath.cos(w) for w in omegas]) <= 4 * eps)
    assert np.all(np.abs(sinc_w - [cmath.sin(w) / w if w else 1 for w in omegas]) <= 4 * eps)


def _exp_and_dexp_pairs():
    u, du = _rows(SubspaceTag.A, 47, bound=2.0), _rows(SubspaceTag.A, 48)
    u[3, 1:4] = [1e-8, 0.0, 2e-9j]  # a row on the Taylor branch makes the block take it
    for block in (u[:3], u):
        exp_block, dexp_block = exp_assoc(block), dexp_rows(block, du[: len(block)])
        for i, row in enumerate(block):
            one = slice(i, i + 1)
            yield exp_assoc(block[one]), exp_block[one]
            yield exp_assoc(CplxOcton(row)), exp_block[i]
            yield dexp_rows(block[one], du[one]), dexp_block[one]


def _single_of(arg, i):
    # row i of a block argument as the single value it stands for
    if not isinstance(arg, np.ndarray):
        return arg
    row = arg[i]
    if row.shape == (8,):
        return CplxOcton(row)
    return Theta(row) if row.shape == (4, 4) else row.item()


def _rowwise_pairs(cases):
    # each rowwise function of single values against its rows on the block; a
    # family kernel gives a list, one entry per law, of values or of rows
    for fn, args in cases:
        block = fn(*args)
        for i in range(N):
            single = fn(*(_single_of(arg, i) for arg in args))
            if isinstance(block, list):
                assert isinstance(single, list) and len(single) == len(block)
                yield from ((one, rows[i]) for one, rows in zip(single, block))
            else:
                yield single, None if block is None else block[i]


def _core_view_pairs():
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (50, 51, 52))
    u = _rows(SubspaceTag.A, 53, bound=2.0)
    cases = [(mul, (x, y)), (conj_oct, (x,)), (bar_star, (x,)), (inner, (x, y)), (norm, (x,))]
    cases += [(associator, (x, y, z)), (exp_assoc, (u,))]
    yield from _rowwise_pairs(cases)
    # one value against many rows, as the field layer multiplies
    products = mul(x[0], y)
    yield from ((mul(CplxOcton(x[0]), b), products[i]) for i, b in enumerate(map(CplxOcton, y)))
    # abs is one row of abs_rows (numpy's axis=None norm, the former route of
    # abs, differs in the last bit on about one value in five)
    sizes = abs_rows(x)
    yield from ((abs(a), sizes[i]) for i, a in enumerate(map(CplxOcton, x)))


def _grading_view_pairs():
    a, a2, b, b2 = oracles.draw_block(suites._AB_TAGS, np.random.default_rng(56), N)
    x, y, z = (_rows(SubspaceTag.FULL_CO, s) for s in (57, 58, 59))
    mixed = np.where((np.arange(N) % 3 == 0)[:, None], b, a)
    cases = [(project, (x, SubspaceTag.A_MINUS)), (membership_defect, (x, SubspaceTag.B))]
    cases += [(membership_defect, (mixed, SubspaceTag.A)), (require_member, (a, SubspaceTag.A))]
    cases += [(exchange_residuals, (a, a2, b, b2)), (residual_zvengrowski, (x, y, z))]
    cases += [(ipmove_residuals, (x, y, z))]
    return _rowwise_pairs(cases)


def _lorentz_pairs():
    thetas = _lambda_V_cases()[:N]
    yield from _rowwise_pairs([(fn, (thetas,)) for fn in (lambda_S, lambda_V, double_cover_residual)])
    # a lone (4, 4) array is one row too, and eta_inverse_transform acts per matrix
    yield np.array([lambda_S(theta) for theta in thetas]), lambda_S(thetas)
    lv = lambda_V(thetas)
    yield np.array([eta_inverse_transform(m) for m in lv]), eta_inverse_transform(lv)


def _general_coupling_pairs():
    r = np.random.default_rng(60).uniform(0.1, 1.0, N)
    w, beta = _rows(SubspaceTag.A_MINUS, 61), _rows(SubspaceTag.B, 62)
    return _rowwise_pairs([(general_coupling_residual, (r, 0.3 * r, _thetas(63), w, beta))])


def _field_pairs():
    rng = np.random.default_rng(64)
    points = rng.uniform(-1.5, 1.5, (N, 4))
    f, u = random_field(rng, 3, SubspaceTag.B), random_field(rng, 2, SubspaceTag.A_MINUS)
    thetas = _thetas(65, bound=1.5)
    lam, lv = lambda_S(thetas), lambda_V(thetas)
    cases = [
        (lambda i: eval_at(f, points[i]), oracles.along(f, 0, points)[0]),
        (lambda i: eval_at(PolyField({}), points[i]), np.zeros((N, 8), np.complex128)),
        (
            lambda i: oracles.lorentz_invariance_residual(f, Theta(thetas[i]), points[i]),
            fields.lorentz_invariance_rows(f.tag, f.exps, f.params, lam, lv, points),
        ),
        (
            lambda i: core.single(dexp_rows(*oracles.along(u, 2, points[i : i + 1]))),
            dexp_rows(*oracles.along(u, 2, points)),
        ),
    ]
    return ((single(i), block[i]) for single, block in cases for i in range(N))


_SINGLE_VALUE_CASES = {
    "exp-dexp": _exp_and_dexp_pairs,
    "core-views": _core_view_pairs,
    "grading-views": _grading_view_pairs,
    "lorentz": _lorentz_pairs,
    "general-coupling": _general_coupling_pairs,
    "fields": _field_pairs,
}


@pytest.mark.parametrize("case", list(_SINGLE_VALUE_CASES))
def test_each_single_value_entry_point_is_its_row_of_a_block(case):
    # every single-value entry point gives its row of a block, bit for bit: a
    # CplxOcton its (8,) row, a Python number its scalar, an array its array
    for single, row in _SINGLE_VALUE_CASES[case]():
        if row is None:
            assert single is None
        elif row.shape == (8,):
            assert isinstance(single, CplxOcton) and single.c.tobytes() == row.tobytes()
        elif row.ndim == 0:
            assert type(single) is type(row.item())
            assert _same_bits(single, row)
        else:
            assert isinstance(single, np.ndarray) and _same_bits(single, row)


# ------------------------------------------------------ Lorentz exponentials


def test_algebra_and_infinitesimal_dc_rows_equal_the_scalar_product_routes_bit_for_bit():
    for kernel, scalar, k in (
        (lorentz_algebra_rows, oracles.lorentz_algebra_residual, 4),
        (infinitesimal_dc_rows, oracles.infinitesimal_dc_residual, 3),
    ):
        index = np.indices((4,) * k).reshape(k, -1)
        got = kernel(*index)
        want = np.array([scalar(*map(int, ix)).c for ix in index.T])
        assert got.shape == want.shape == (4**k, 8)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def _lambda_V_cases():
    # random draws at two scales, and rows on purpose: theta = 0, a null
    # rotation (a boost and a rotation of equal size about orthogonal axes,
    # so G != 0 and r = 0), near-null ones, and commuting boost/rotation pairs
    # with a and b on both sides of the series switch
    rows = [np.zeros(6), [1.3, 0, 0, 1.3, 0, 0], [1.3, 0, 0, 1.3 + 1e-9, 0, 0]]
    rows += [[0.7, 0, 0, 0.7, 1e-7, 0], [0.2, 0.1, 0, 0.1, 0.2, 0]]
    switch = lorentz.SINC_TAYLOR_X
    for a in (0.0, 0.3, switch * (1 - 1e-9), switch, switch * (1 + 1e-9), 2.5):
        for b in (0.0, 0.4, switch * (1 - 1e-9), switch * (1 + 1e-9), 3.0):
            rows.append([a, 0, 0, 0, 0, b])
    drawn = [np.random.default_rng(50).uniform(-k, k, (N, 6)) for k in (2.0, 20.0)]
    return theta_rows(np.concatenate([np.array(rows)] + drawn))


def test_lambda_V_gives_each_matrix_of_a_stack_its_own_real_result_bit_for_bit():
    # lambda_V is real by construction, so no imaginary part is left to check
    # against a matrix's scale; what holds instead is that each matrix's result
    # is its own, whatever the other matrices of its stack are, and that a
    # single Theta and a lone 4x4 array are one row of it
    thetas = _lambda_V_cases()
    stacked = lambda_V(thetas)
    assert stacked.dtype == np.float64 and stacked.shape == thetas.shape
    assert np.isfinite(stacked).all()
    for theta, got in zip(thetas, stacked):
        assert _same_bits(lambda_V(theta), got)
        assert _same_bits(lambda_V(Theta(theta)), got)
    for part in (slice(None, None, -1), slice(1, None, 3)):
        assert _same_bits(lambda_V(thetas[part]), stacked[part])


def test_lambda_V_matches_the_series_route_on_every_case():
    thetas = _lambda_V_cases()
    got = lambda_V(thetas)
    want = oracles.lambda_V_series(thetas)
    scale = np.max(np.abs(want), axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-13 * scale)


def test_lambda_V_non_finite_or_huge_theta_gives_non_finite_rows_not_an_error():
    thetas = _thetas(52, n=6)
    ordinary = lambda_V(thetas)
    bad = thetas.copy()
    bad[1, 0, 1], bad[1, 1, 0] = np.inf, -np.inf
    bad[2, 2, 3], bad[2, 3, 2] = np.nan, np.nan
    bad[3] *= 1e300
    bad[4] = theta_rows([800.0, 0, 0, 0, 0, 0])  # finite invariants, cosh 800 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lambda_V(bad)
        single = lambda_V(bad[3])
    assert not np.isfinite(single).all()
    for k in (1, 2, 3, 4):
        assert not np.isfinite(out[k]).all()
    for k in (0, 5):
        assert _same_bits(out[k], ordinary[k])


def test_generator_sums_are_exact_contractions():
    # at most one nonzero real and one nonzero imaginary term per entry: the
    # contraction over the six parameters then rounds nothing
    for gens in (_S_PAIRS, _V_REAL_PAIRS):
        flat = gens.reshape(len(gens), -1)
        assert (flat.real != 0).sum(axis=0).max() <= 1
        assert (flat.imag != 0).sum(axis=0).max() <= 1


# ------------------------------------------------------- grading residuals


def test_membership_on_rows():
    a = _rows(SubspaceTag.A, 18)
    a[3] = _rows(SubspaceTag.B, 19, 1)[0]
    defect = membership_defect(a, SubspaceTag.A)
    assert defect.shape == (N,) and np.flatnonzero(defect).tolist() == [3]
    with pytest.raises(DomainViolation):
        require_member(a, SubspaceTag.A)
    require_member(np.delete(a, 3, axis=0), SubspaceTag.A)


def test_membership_tolerance_scales_with_the_magnitude():
    a = _rows(SubspaceTag.A, 27)
    a[2] *= 1e6
    a[2, 5] = 1e-6  # above MEMBERSHIP_TOL, within MEMBERSHIP_TOL * |x|
    a[4, 5] = 1e-6  # the same defect on a row of unit size
    with pytest.raises(DomainViolation, match="defect 1e-06"):
        require_member(a, SubspaceTag.A)
    require_member(CplxOcton(a[2]), SubspaceTag.A)
    require_member(np.delete(a, 4, axis=0), SubspaceTag.A)


def test_one_bad_row_raises_domain_violation():
    a, b = _rows(SubspaceTag.A, 20), _rows(SubspaceTag.B, 21)
    bad_a = a.copy()
    bad_a[7, 5] = 0.5
    with pytest.raises(DomainViolation):
        exchange_residuals(bad_a, a, b, b)
    with pytest.raises(DomainViolation):
        exchange_residuals(a, a, b, bad_a)
    w = _rows(SubspaceTag.A_MINUS, 22)
    w[0, 0] = 1.0  # a real scalar part leaves the anti-Hermitian sector
    with pytest.raises(DomainViolation):
        general_coupling_residual(np.ones(N), np.ones(N), _thetas(23), w, b)


@pytest.mark.parametrize("position", range(4))
def test_each_exchange_residual_refuses_an_off_subspace_row(position):
    # the error names the input that holds the bad row
    inputs = list(oracles.draw_block(suites._AB_TAGS, np.random.default_rng(48), N))
    inputs[position] = inputs[position].copy()
    inputs[position][N // 2, 0 if position >= 2 else 4] = 0.5  # a B part on a, a scalar on b
    name = ("a", "a'", "b", "b'")[position]
    with pytest.raises(DomainViolation, match=f"^{name} is not in subspace"):
        exchange_residuals(*inputs)


# ------------------------------------------- shared right-multiplication matrices


def _gauge_inputs(seed, n=300):
    # the values and derivatives of a transport or covariance law at a point
    rng = np.random.default_rng(seed)
    a, da = oracles.draw_block((SubspaceTag.A, SubspaceTag.A), rng, n)
    w, du = oracles.draw_block((SubspaceTag.A_MINUS, SubspaceTag.A_MINUS), rng, n)
    (u,) = oracles.draw_block((SubspaceTag.A_MINUS,), rng, n, 0.5)
    return a, da, w, u, du


def _full(*seeds):
    # the inputs of a case: one 300-row block of the full algebra per seed
    return lambda: [_rows(SubspaceTag.FULL_CO, s, 300) for s in seeds]


# Each kernel that forms a shared product, or gathers a shared right factor's matrix,
# once, beside its oracle that forms every product with its own ``mul``: the sharing
# changes no bit.
_SHARED_RIGHT_FACTOR_CASES = {
    "exchange": (exchange_residuals, oracles.exchange_residuals_per_identity,
                 lambda: oracles.draw_block(suites._AB_TAGS, np.random.default_rng(49), 300)),
    "ip-moves": (ipmove_residuals,
                 lambda *xyz: [oracles.residual_ipmove_per_form(f, *xyz)
                               for f in oracles.IPMOVE_FORMS],
                 _full(50, 51, 52)),
    "alternativity": (partial(suites._alternativity, SuiteConfig()), oracles.alternativity_by_mul,
                      _full(54, 55)),
    "associator": (associator, oracles.associator_by_mul, _full(56, 57, 58)),
    "zvengrowski": (residual_zvengrowski, oracles.zvengrowski_by_mul, _full(59, 60, 61)),
    "double-cover": (double_cover_residual, oracles.double_cover_by_mul,
                     lambda: [_thetas(62, 300)]),
    "transport": (gauge.transport_rows, oracles.transport_by_mul, lambda: _gauge_inputs(63)[2:]),
    "covariance-alpha": (gauge.covariance_alpha_rows, oracles.covariance_alpha_by_mul,
                         lambda: _gauge_inputs(64)),
    "global-alpha": (gauge.global_alpha_rows, oracles.global_alpha_by_mul,
                     lambda: [_rows(SubspaceTag.A, 65, 300),
                              _rows(SubspaceTag.A, 66, 1200).reshape(300, 4, 8),
                              _rows(SubspaceTag.A_MINUS, 67, 300)]),
}


@pytest.mark.parametrize("case", list(_SHARED_RIGHT_FACTOR_CASES))
def test_a_kernel_that_gathers_a_shared_right_factor_once_gives_the_bits_of_one_mul_a_product(case):
    kernel, by_mul, inputs = _SHARED_RIGHT_FACTOR_CASES[case]
    args = inputs()
    got, want = kernel(*args), by_mul(*args)
    assert 300 in np.shape(want) and _same_bits(got, want)


def test_right_index_lies_in_y_and_minus_y():
    # right_rows and left_rows take with mode="wrap", which would fold an index
    # outside [0, 16) back in
    for index in (core._RIGHT_INDEX, core._LEFT_INDEX):
        assert index.shape == (8, 8) and index.dtype == np.intp and not index.flags.writeable
        assert index.min() >= 0 and index.max() < 16


#: Gathers (right_rows and left_rows calls on a whole block) of one block of
#: each suite whose products share a right or a left factor.
_GATHERS_A_BLOCK = {
    "ab-identities": {"right_rows": 11, "left_rows": 0},
    "alternativity": {"right_rows": 4, "left_rows": 0},
    "zvengrowski": {"right_rows": 3, "left_rows": 0},
    "double-cover": {"right_rows": 1, "left_rows": 0},
    "prop4-dichotomy": {"right_rows": 3, "left_rows": 0},
    "prop1-A": {"right_rows": 0, "left_rows": 1},
    "prop1-B": {"right_rows": 0, "left_rows": 1},
    "prop2": {"right_rows": 1, "left_rows": 0},
    "prop3": {"right_rows": 5, "left_rows": 0},
}


@pytest.mark.parametrize("suite_id", list(_GATHERS_A_BLOCK))
def test_each_shared_right_factor_is_gathered_once_a_block(suite_id, monkeypatch):
    m = 64
    shapes = {name: [] for name in ("right_rows", "left_rows")}

    for name, found in shapes.items():
        def counted(y, gather=getattr(core, name), found=found):
            found.append(np.shape(y))
            return gather(y)

        for module in (core, grading, lorentz, fields, gauge, suites):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    sdef, cfg = suites._REGISTRY[suite_id], SuiteConfig()
    block = suites._read_block(np.random.default_rng(68), m, sdef.inputs(cfg))
    residuals = sdef.residual(cfg, *block)
    assert residuals.shape == (m,) and residuals.max() < cfg.suite_tolerance(suite_id)
    whole = {name: sum(shape[:1] == (m,) for shape in found) for name, found in shapes.items()}
    assert whole == _GATHERS_A_BLOCK[suite_id]


# ------------------------------------------------ exact-zero membership checks


def _around(tag, rng):
    """Rows of ``tag`` in and around it, in blocks of one kind: inside, just outside
    (one complement coordinate the least subnormal, or just over the tolerance), far
    outside, and with an inf or NaN on a coordinate inside or outside the subspace."""
    inside = oracles.draw_block((tag,), rng, 8)[0]
    kinds = {"inside": inside}
    real_inside = np.flatnonzero(grading._MASK[tag])
    real_outside = np.flatnonzero(grading._COMPLEMENT[tag])
    for name, slots, value in [
        ("least subnormal", real_outside, 5e-324),
        ("just over tolerance", real_outside, 1.5 * grading.MEMBERSHIP_TOL),
        ("far outside", real_outside, 3.0),
        ("inf inside", real_inside, np.inf),
        ("NaN inside", real_inside, np.nan),
        ("inf outside", real_outside, -np.inf),
        ("NaN outside", real_outside, np.nan),
    ]:
        if len(slots):
            rows = inside.copy()
            rows.view(np.float64)[np.arange(8), rng.choice(slots, 8)] = value
            kinds[name] = rows
    return kinds


@pytest.mark.parametrize("tag", list(SubspaceTag))
def test_the_exact_zero_membership_branch_gives_the_full_routes_defect_and_verdict(tag):
    rng = np.random.default_rng(69)
    with np.errstate(invalid="ignore", over="ignore"):
        for name, rows in _around(tag, rng).items():
            for block in (rows, rows[:1], rows[1:2]):
                got_defect, got_ok = grading._membership(block, tag)
                want_defect, want_ok = oracles.membership_full(block, tag)
                assert _same_bits(got_defect, want_defect), name
                assert np.array_equal(got_ok, want_ok), name
                assert got_ok.dtype == bool, name


def test_the_exact_zero_exp_assoc_branch_refuses_the_rows_the_full_test_refuses():
    rng = np.random.default_rng(70)
    with np.errstate(invalid="ignore", over="ignore"):
        for name, rows in _around(SubspaceTag.A, rng).items():
            for block in (rows, rows[:1]):
                try:
                    exp_assoc(block)
                    refused = False
                except NotInAssociativeSubalgebra:
                    refused = True
                assert refused == oracles.outside_quaternions(block), name


def test_abs_rows_is_the_norm_numpy_computes_bit_for_bit():
    rng = np.random.default_rng(56)

    def values(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    stack = values(300, 4, 8)
    special = values(7, 8)
    special[0, 3] = np.inf
    special[1, 0] = complex(0.0, -np.inf)
    special[2, 5] = np.nan
    special[3, 1] = complex(np.inf, np.nan)
    special[4, 2] = 1e200  # its square overflows
    special[5] = 0.0
    special[6, 7] = 1e-200  # its square underflows
    cases = {
        "(8,)": values(8),
        "(n, 8)": values(300, 8),
        "(n, 4, 8)": stack,
        "non-contiguous": stack[::3, 1, ::-1],
        "inf and NaN": special,
        "real": values(300, 8).real.copy(),
        "list of rows": list(values(4, 8)),
    }
    with np.errstate(all="ignore"):
        for name, x in cases.items():
            got, want = abs_rows(x), np.linalg.norm(x, axis=-1)
            assert _same_bits(got, want), name
        # inf * conj(inf + NaN i) has a NaN real part, in either route
        assert np.isinf(abs_rows(special)[[0, 1, 4]]).all()
        assert np.isnan(abs_rows(special)[[2, 3]]).all()
    assert not cases["non-contiguous"].flags.c_contiguous


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
    fns = (require_member, membership_defect, project, lambda_S, lambda_V)
    fns += (exchange_residuals, ipmove_residuals)
    assert len({fn.__code__ for fn in fns}) == len(fns)
    assert [fn.__code__.co_name for fn in fns] == [fn.__name__ for fn in fns]


# ------------------------------------------------------------- field kernels


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_jet_rows_matches_eval_at_and_partial(degree):
    # the jets of full-algebra fields, from their 16 real parameters a monomial
    rng = np.random.default_rng(31 + degree)
    exps = monomials(degree)
    params = rng.uniform(-1, 1, (N, len(exps), ndof(SubspaceTag.FULL_CO)))
    points = rng.uniform(-1.5, 1.5, (N, 4))
    values, grads = jets(SubspaceTag.FULL_CO, monomial_rows(exps, points), params)
    assert values.shape == (N, 8) and grads.shape == (N, 4, 8)
    polys = [PolyField._from_arrays(exps, c, SubspaceTag.FULL_CO) for c in params]
    _close(values, [oracles.eval_naive(f, p).c for f, p in zip(polys, points)])
    want = [[eval_at(oracles.partial(f, rho), p).c for rho in range(4)] for f, p in zip(polys, points)]
    _close(grads, want)


def test_jet_rows_gradient_along_an_absent_coordinate_is_exactly_zero():
    f = PolyField({(0, 3, 0, 0): E[2]})  # x1^3 at x1 = 1e200 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        values, grads = oracles.jets_at(f, np.array([0.5, 1e200, 0.0, 0.0]))
    assert not np.all(np.isfinite(values))
    assert np.array_equal(grads[[0, 2, 3]], np.zeros((3, 8)))


def _random_jet_inputs(exps, seed, real=False):
    # N fields of the exponents: their tag, their real parameters and their points.
    # ``real`` selects the tag: A-, a subspace that is only real-linear, with 4
    # parameters a monomial, or else the full algebra, with 16
    rng = np.random.default_rng(seed)
    tag = SubspaceTag.A_MINUS if real else SubspaceTag.FULL_CO
    params = rng.uniform(-1, 1, (N, len(exps), ndof(tag)))
    return tag, params, rng.uniform(-1.5, 1.5, (N, 4))


def _jets_and_exponent_route(exps, tag, params, points):
    # fields.jets, and the same real parameters' jets by the exponent route, made elements
    got = jets(tag, monomial_rows(exps, points), params)
    want = oracles.jet_rows_by_exponents(exps, params, points)
    return got, [dof_rows(tag, w) for w in want]


def _sparse_exponents():
    # exponent sets that are not closed under differentiation: the prop2
    # witness's x0, and random subsets of the cubic monomials
    rng = np.random.default_rng(61)
    cubic = monomials(3)
    subsets = [cubic[np.sort(rng.choice(len(cubic), k, replace=False))] for k in (1, 3, 9, 20)]
    return [suites.PROP2_WITNESS_ALPHA.exps, np.array([[0, 3, 0, 0], [1, 1, 1, 0]])] + subsets


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
def test_jets_equal_the_exponent_route_bit_for_bit_up_to_degree_three(degree, real):
    # each factor is 1 or 2, or the monomial is x_rho^3: scaling by it first
    # or last rounds the same
    exps = monomials(degree)
    got, want = _jets_and_exponent_route(exps, *_random_jet_inputs(exps, 62 + degree, real))
    for g, w in zip(got, want):
        assert _same_bits(g, w)


def test_jets_of_sparse_fields_equal_the_exponent_route_bit_for_bit():
    for k, exps in enumerate(_sparse_exponents()):
        closure, columns, factors, _ = fields._jet_exponents(exps.tobytes())
        # the field's own monomials first, then the missing derivatives and 1
        assert np.array_equal(closure[: len(exps)], exps)
        assert any(not row.any() for row in closure)
        assert np.array_equal(closure[columns[0]], exps)
        tag, params, points = _random_jet_inputs(exps, 70 + k)
        got, want = _jets_and_exponent_route(exps, tag, params, points)
        for g, w in zip(got, want):
            assert _same_bits(g, w)
        polys = [PolyField._from_arrays(exps, c, tag) for c in params]
        _close(got[0], [oracles.eval_naive(f, p).c for f, p in zip(polys, points)])


@pytest.mark.parametrize("degree", [4, 5, 6])
def test_jets_match_the_exponent_route_within_rounding_above_degree_three(degree):
    exps = monomials(degree)
    got, want = _jets_and_exponent_route(exps, *_random_jet_inputs(exps, 80 + degree))
    for g, w in zip(got, want):
        scale = np.max(np.abs(w), axis=-1, keepdims=True)
        assert np.all(np.abs(g - w) <= 1e-13 * scale)


#: The largest error of a power of the power table, in ulps of the exact power, up to
#: power 12: 4.04 measured on the draw below and 4.80 on 20,000 other coordinates in
#: [-1, 1], so a margin of 1.25 over the larger.
POWER_ULP_CEILING = 6.0


def test_the_power_table_is_the_running_product_within_a_ceiling_in_ulp():
    # 2048 coordinates in [-1, 1], stacked as prop1 stacks its two point sets
    points = np.random.default_rng(90).uniform(-1.0, 1.0, (2, 256, 4))
    runs = []
    for x in points.reshape(-1).tolist():
        run = [1.0]
        for _ in range(12):
            run.append(run[-1] * x)  # x * x * ... * x in Python floats
        runs.append(run)
    runs = np.array(runs).reshape(points.shape + (13,))
    for top in range(13):
        table = fields._power_table(points, top)
        assert table.shape == points.shape + (top + 1,)
        assert _same_bits(table, runs[..., : top + 1]), top
    worst = np.zeros(13)
    for x, run in zip(points.reshape(-1).tolist(), runs.reshape(-1, 13).tolist()):
        x, exact = Fraction(x), Fraction(1)
        for k, power in enumerate(run):
            exact *= x if k else 1
            ulps = abs(Fraction(power) - exact) / Fraction(math.ulp(float(exact)))
            worst[k] = max(worst[k], ulps)
    # powers 0 and 1 are exact, a square is correctly rounded
    assert worst[0] == worst[1] == 0 and worst[2] <= 0.5
    assert worst.max() <= POWER_ULP_CEILING, worst


def _column_slice(rng, shape, strided=False, m=N):
    """An input as ``_read_block`` hands it: columns of one wider draw, reshaped to
    (m,) + shape; with ``strided``, every other float of the draw is a column."""
    width = math.prod(shape)
    raw = rng.uniform(-1, 1, (m, 2 * width + 14))
    if strided:
        raw = raw[:, ::2]
    view = raw[:, 3 : 3 + width].reshape((m,) + shape)
    assert not view.flags.c_contiguous and np.shares_memory(view, raw)
    return view


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("kind", ["real", "complex", "strided slots"])
def test_field_kernels_give_the_same_bits_on_strided_inputs_as_on_copies(degree, kind):
    # parameters are contracted where they lie; the bits must be a copy's.  ``kind``
    # selects the fields: "real" A fields, 8 parameters a monomial; "complex" full-
    # algebra fields, 16 a monomial, the width of a complex coefficient's float view;
    # "strided slots" full-algebra fields whose parameters are every other float
    rng = np.random.default_rng(100 + degree)
    exps = monomials(degree)
    tag = SubspaceTag.A if kind == "real" else SubspaceTag.FULL_CO
    params = _column_slice(rng, (len(exps), ndof(tag)), kind == "strided slots")
    points = _column_slice(rng, (4,))
    moved = _column_slice(rng, (4,))
    params_copy, points_copy = np.ascontiguousarray(params), np.ascontiguousarray(points)
    assert _same_bits(monomial_rows(exps, points), monomial_rows(exps, points_copy))
    # one point per row, and two per row stacked in front, as the prop1 suites read them
    for at in (points, np.stack([moved, points])):
        got = jets(tag, monomial_rows(exps, at), params)
        want = jets(tag, monomial_rows(exps, np.ascontiguousarray(at)), params_copy)
        for g, w in zip(got, want):
            assert _same_bits(g, w)


def test_contracting_strided_real_parameters_does_not_copy_them():
    # a prop1-A block at degree 3: 300 fields of 35 monomials with 8 real parameters
    rng = np.random.default_rng(104)
    exps = monomials(3)
    params = _column_slice(rng, (len(exps), ndof(SubspaceTag.A)), m=300)
    table = monomial_rows(exps, _column_slice(rng, (4,), m=300))
    tracemalloc.start()
    try:
        jets(SubspaceTag.A, table, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes / 2


# ------------------------------------------------------- field and gauge suites


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
        # lemma4 at degree 3: a point, a gauge parameter, a connection's four fields, an axis
        suites._REGISTRY["lemma4"].inputs(SuiteConfig(field_degree=3)),
    ],
    ids=["prop4", "boost-selfconj", "mixed", "lemma4"],
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


def test_a_block_is_read_only_once_scaled():
    # a kernel that writes into one input raises instead of changing another
    inputs = (_I(-2.0, 2.0, (3,)), *suites._elements(SubspaceTag.FULL_CO, SubspaceTag.A)(None))
    x, full, a = suites._read_block(np.random.default_rng(71), 5, inputs)
    assert not x.flags.writeable and not full.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        full *= 2
    assert a.flags.writeable  # made by dof_rows, not a view of the block


_SAMPLED = sorted(sid for sid, sdef in suites._REGISTRY.items() if not sdef.exhaustive)


def _inputs(suite_id, degree):
    return suites._REGISTRY[suite_id].inputs(SuiteConfig(field_degree=degree))


#: Each sampled suite at field degree 2, and at degree 3 where its inputs change.
_SAMPLED_AT_DEGREES = [
    (suite_id, degree) for suite_id in _SAMPLED
    for degree in (2, 3) if degree == 2 or _inputs(suite_id, 3) != _inputs(suite_id, 2)
]


def _sampled_at(degree):
    return [suite_id for suite_id, d in _SAMPLED_AT_DEGREES if d == degree]


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
    """A generator's ``random``, counting its calls; a block reads through nothing else."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, size=None):
        self.calls += 1
        return self.rng.random(size)


@pytest.mark.parametrize("degree", [2, 3])
def test_read_block_calls_the_generator_once_per_block(degree, monkeypatch):
    monkeypatch.setattr(suites, "BLOCK_ROWS", 64)
    cfg = SuiteConfig(field_degree=degree)
    for suite_id in _sampled_at(degree):
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
    # part block at 128, two and a part block at 256, one and a part block at
    # the default 512
    cfg = SuiteConfig(field_degree=degree)
    sizes = (64, 128, 256, 512)
    assert suites.BLOCK_ROWS in sizes
    for suite_id in _sampled_at(degree):
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


@pytest.mark.parametrize("cols", [1, 2, 1000, 4095, 4096, 4097, 10**6])
@pytest.mark.parametrize("budget", [1, 4096, 2**21])
def test_a_block_reads_at_least_one_row_and_at_most_block_rows(cols, budget, monkeypatch):
    monkeypatch.setattr(suites, "BLOCK_DRAWS", budget)
    rows = suites._block_rows((_I(-1.0, 1.0, (cols,)),))
    assert 1 <= rows <= suites.BLOCK_ROWS
    if cols > budget:  # a sample wider than the budget: one row a block
        assert rows == 1
    else:  # as many rows as the budget holds, up to the cap
        assert rows * cols <= budget
        assert rows == suites.BLOCK_ROWS or (rows + 1) * cols > budget


_WIDE = ("prop1-A", "prop2", "prop3", "lemma4")


@pytest.mark.parametrize(
    "budget, rows",
    # at degree 3 these suites draw 290, 288, 905 and 625 floats a sample
    [(1, (1, 1, 1, 1)), (2715, (9, 9, 3, 4)), (32769, (112, 113, 36, 52))],
)
def test_reports_do_not_depend_on_the_draw_budget(budget, rows, monkeypatch):
    cfg = SuiteConfig(field_degree=3, suites=_WIDE)
    want = suites.render_json(suites.run_all(cfg)[0], cfg)
    monkeypatch.setattr(suites, "BLOCK_DRAWS", budget)
    got = tuple(suites._block_rows(suites._REGISTRY[sid].inputs(cfg)) for sid in _WIDE)
    assert got == rows
    assert suites.render_json(suites.run_all(cfg)[0], cfg) == want


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
    # for every tag: the jets of the real parameters, made elements, are those of the
    # complex coefficients the parameters give, within rounding, and lie exactly in
    # the subspace
    rng = np.random.default_rng(36)
    exps = monomials(2)
    table = monomial_rows(exps, rng.uniform(-1, 1, (N, 4)))
    for tag in SubspaceTag:
        params = rng.uniform(-1, 1, (N, len(exps), ndof(tag)))
        value, grads = jets(tag, table, params)
        assert value.shape == (N, 8) and grads.shape == (N, 4, 8)
        coeffs = dof_rows(tag, params)
        _close(value, np.einsum("nm,nmc->nc", table[:, 0], coeffs))
        _close(grads, np.einsum("nkm,nmc->nkc", table[:, 1:], coeffs))
        assert not membership_defect(np.concatenate([value[:, None], grads], 1), tag).any()


def _break_algebra(monkeypatch):
    # every product x y becomes x y + i x/2 (x y + i y/2 where x's left-multiplication
    # matrix is gathered), which is neither alternative nor graded, nor equivariant
    # under complex conjugation as the true product is, and bar_star scales by 3/2:
    # every residual becomes O(1) and depends on the inputs, conjugated or not.  Every
    # product goes through right_rows or left_rows, by its name in each module
    right_rows, left_rows, bar_star = core.right_rows, core.left_rows, core.bar_star
    for module in (core, grading, lorentz, gauge, suites):
        monkeypatch.setattr(module, "right_rows", lambda y: right_rows(y) + 0.5j * np.eye(8))
    for module in (core, fields):
        monkeypatch.setattr(module, "left_rows", lambda x: left_rows(x) + 0.5j * np.eye(8))
    for module in (lorentz, gauge, suites, oracles):
        monkeypatch.setattr(module, "bar_star", lambda x: 1.5 * bar_star(x))


_WITNESSED = [suite_id for suite_id in _SAMPLED if suites._REGISTRY[suite_id].witness]


@pytest.mark.parametrize("suite_id", _WITNESSED)
def test_the_reference_witness_is_the_suites_own_must_fail_residual(suite_id):
    # the reference tables hold no stale suite, and each witness is the suite's own
    assert sorted(oracles.SAMPLE_RESIDUALS) == _SAMPLED and sorted(oracles.WITNESSES) == _WITNESSED
    want = oracles.WITNESSES[suite_id]()
    assert abs(suites._REGISTRY[suite_id].witness() - want) <= 1e-14 * want

@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("suite_id, degree", _SAMPLED_AT_DEGREES)
def test_batched_suite_matches_its_per_sample_reference(suite_id, degree, broken, monkeypatch):
    if broken:
        _break_algebra(monkeypatch)
    monkeypatch.setattr(suites, "BLOCK_ROWS", 64)
    n = 150
    assert n > 2 * suites.BLOCK_ROWS  # crosses block boundaries, ends on a part block
    cfg = SuiteConfig(seed=2025, field_degree=degree)
    rng_batched, rng_ref = suites._rng_for(cfg, suite_id), suites._rng_for(cfg, suite_id)
    got, got_ok = suites._evaluate(suites._REGISTRY[suite_id], cfg, n, rng_batched)
    sample, witness = oracles.SAMPLE_RESIDUALS[suite_id], oracles.WITNESSES.get(suite_id)
    want = np.array([sample(cfg, rng_ref) for _ in range(n)])
    assert got.shape == want.shape == (n,)
    if _inputs(suite_id, 0) != _inputs(suite_id, 2):  # it reads fields: a bound per row
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want))
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, want.max())
    assert got_ok == (witness is None or witness() > suites.NEG_CONTROL_MIN)
    # the batched draws read the stream exactly as the per-sample ones did
    assert rng_batched.bit_generator.state == rng_ref.bit_generator.state
    if broken:  # residuals that tell the inputs apart
        assert np.median(want) > 1e-3
    else:
        assert want.max() < cfg.suite_tolerance(suite_id)
