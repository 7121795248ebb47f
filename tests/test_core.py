import cmath
import math
import warnings

import numpy as np
import pytest

from octoweak.core import (
    E,
    ONE,
    CplxOcton,
    associator,
    bar_star,
    conj_oct,
    exp_assoc,
    inner,
    inverse,
    mul,
    norm,
    structure_table,
)
from octoweak.errors import NotInAssociativeSubalgebra, ZeroDivisor
from octoweak.lorentz import Theta, lambda_S


def rand_octon(rng, bound=1.0):
    c = rng.uniform(-bound, bound, 16)
    return CplxOcton(c[:8] + 1j * c[8:])


# ------------------------------------------------------------ structure table


def test_quaternion_block():
    assert mul(E[1], E[2]) == E[3]
    assert mul(E[2], E[3]) == E[1]
    assert mul(E[3], E[1]) == E[2]
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = mul(E[i], E[j])
            if i == j:
                assert lhs == -ONE
            else:
                assert lhs == -mul(E[j], E[i])


def test_mul_unit_and_pairing_anchor():
    rng = np.random.default_rng(1)
    x = rand_octon(rng)
    assert mul(ONE, x) == x
    assert mul(x, ONE) == x
    # e4 = (0, 1), e5 = (0, e1): the doubling rule sends the pair to e1
    assert mul(E[4], E[5]) == E[1]


def test_rows_given_as_a_list_beside_a_single_value_come_back_as_rows():
    rows = [E[1].c, E[2].c]
    for fn in (mul, inner):
        want = fn(np.array(rows), E[2])
        assert want.shape[0] == 2
        for given in (rows, tuple(rows)):
            assert np.array_equal(fn(given, E[2]), want)


def test_single_values_in_a_list_beside_a_single_value_are_refused():
    # rows are coefficient arrays: a list of values is not read as one
    for fn in (mul, inner):
        for given in ([E[1], E[2]], (E[1], E[2].c)):
            with pytest.raises(TypeError, match="coefficient arrays"):
                fn(given, E[2])


def test_complex_scalars_commute_with_everything():
    rng = np.random.default_rng(3)
    z = CplxOcton.scalar(0.3 - 1.7j)
    for _ in range(10):
        x = rand_octon(rng)
        assert np.allclose(mul(z, x).c, mul(x, z).c, rtol=0, atol=1e-14)


# ------------------------------------------------------------- conjugations


def test_conj_oct_examples():
    assert conj_oct(E[1]) == -E[1]
    assert conj_oct(1j * ONE) == 1j * ONE
    assert bar_star(1j * ONE) == -1j * ONE
    assert bar_star(E[1]) == -E[1]
    assert bar_star(1j * E[1]) == 1j * E[1]


def test_conj_oct_is_antiautomorphism():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rand_octon(rng), rand_octon(rng)
        want = mul(conj_oct(y), conj_oct(x))
        assert np.allclose(conj_oct(mul(x, y)).c, want.c, rtol=0, atol=1e-13)


def test_bar_star_is_composition_of_both():
    rng = np.random.default_rng(5)
    x = rand_octon(rng)
    assert np.allclose(bar_star(x).c, np.conj(conj_oct(x).c), rtol=0, atol=1e-15)


def test_scal_vec_reconstruction_and_definitions():
    # Scal(x) = (x + x~)/2 is the scalar slot of x and Vec(x) = (x - x~)/2 the other seven
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rand_octon(rng)
        vector = x.c.copy()
        vector[0] = 0.0
        assert np.allclose(((x + conj_oct(x)) * 0.5).c, x.c - vector, rtol=0, atol=1e-15)
        assert np.allclose(((x - conj_oct(x)) * 0.5).c, vector, rtol=0, atol=1e-15)


def test_scal_of_x_xbar_is_norm():
    # x x~ is the scalar N(x): Scal(x x~) = N(x) and Vec(x x~) = 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rand_octon(rng)
        assert np.allclose(mul(x, conj_oct(x)).c, (norm(x) * ONE).c, rtol=0, atol=1e-13)


# -------------------------------------------------------------- inner product


def test_inner_on_lorentz_basis_gives_metric():
    e = [CplxOcton.scalar(1j), E[1], E[2], E[3]]
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    for mu in range(4):
        for nu in range(4):
            assert abs(inner(e[mu], e[nu]) - eta[mu, nu]) < 1e-15


def test_inner_examples_and_symmetry():
    assert inner(ONE, ONE) == 1.0
    assert inner(E[4], E[5]) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(30):
        x, y = rand_octon(rng), rand_octon(rng)
        assert abs(inner(x, y) - inner(y, x)) < 1e-14
        assert abs(inner(x, y) - inner(conj_oct(x), conj_oct(y))) < 1e-14
        # definitional form: (x y~ + y x~)/2 is the same pure scalar
        definitional = (mul(x, conj_oct(y)) + mul(y, conj_oct(x))) * 0.5
        assert np.allclose(definitional.c, CplxOcton.scalar(inner(x, y)).c, rtol=0, atol=1e-13)


def test_inner_is_bilinear_not_sesquilinear():
    assert abs(inner(1j * E[1], E[1]) - 1j) < 1e-15


# ----------------------------------------------------------------- associator


def test_associator_quaternionic_arguments_vanish():
    assert abs(associator(E[1], E[2], E[3])) == 0.0


def test_associator_alternativity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y = rand_octon(rng), rand_octon(rng)
        assert abs(associator(x, x, y)) < 1e-13
        assert abs(associator(x, y, y)) < 1e-13


def test_associator_regression_anchor():
    # frozen from the doubling oracle: (e1 e2)e4 - e1(e2 e4) = e7 - (-e7)
    assert associator(E[1], E[2], E[4]) == 2.0 * E[7]


# -------------------------------------------------------------- norm / inverse


def test_norm_examples():
    assert norm(E[1]) == 1.0
    assert abs(norm(ONE + 1j * E[1])) == 0.0


def test_norm_is_multiplicative():
    rng = np.random.default_rng(10)
    for _ in range(50):
        x, y = rand_octon(rng), rand_octon(rng)
        scale = max(1.0, abs(x) ** 2 * abs(y) ** 2)
        assert abs(norm(mul(x, y)) - norm(x) * norm(y)) / scale < 1e-13


def test_inverse_examples():
    assert np.allclose(inverse(2.0 * ONE).c, (0.5 * ONE).c, rtol=0, atol=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rand_octon(rng)
        if abs(norm(x)) < 1e-6:
            continue
        assert np.allclose(mul(x, inverse(x)).c, ONE.c, rtol=0, atol=1e-10)
    # an invertible element far from |x| = 1: its norm would underflow or overflow
    for scale in (1e-100, 1e-7, 1e155, 1e200):
        x = scale * (ONE + 0.5 * E[3])
        assert np.allclose(mul(x, inverse(x)).c, ONE.c, rtol=0, atol=1e-10)


def test_zero_divisor_raises():
    with pytest.raises(ZeroDivisor):
        inverse(ONE + 1j * E[1])
    # the threshold is scale-aware
    for scale in (1e-100, 1e6, 1e200):
        with pytest.raises(ZeroDivisor):
            inverse(scale * (ONE + 1j * E[1]))
    with pytest.raises(ZeroDivisor):
        inverse(0 * ONE)


def test_an_inverse_too_large_for_floats_raises():
    # the documented OverflowError, not numpy's RuntimeWarning under -W error
    with warnings.catch_warnings(), pytest.raises(OverflowError):
        warnings.simplefilter("error")
        inverse(1e-310 * ONE)
    # a subnormal largest coefficient whose inverse floats still hold
    x = CplxOcton(np.full(8, 5e-309 + 0j))
    expected = np.array([1.0] + [-1.0] * 7) / (8 * 5e-309)
    assert np.allclose(inverse(x).c, expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------- exponential


def test_exp_assoc_fixed_points():
    assert exp_assoc(0 * ONE) == ONE
    got = exp_assoc((math.pi / 2) * E[3])
    assert np.allclose(got.c, E[3].c, rtol=0, atol=1e-14)
    s = 0.4 - 1.1j
    assert np.allclose(exp_assoc(s * ONE).c, (cmath.exp(s) * ONE).c, rtol=0, atol=1e-14)


def rand_assoc(rng, bound):
    c = rng.uniform(-bound, bound, 8)
    arr = np.zeros(8, dtype=np.complex128)
    arr[:4] = c[:4] + 1j * c[4:]
    return CplxOcton(arr)


def test_exp_assoc_inverse_law():
    rng = np.random.default_rng(14)
    for _ in range(100):
        u = rand_assoc(rng, 0.7)  # magnitude at most 2
        assert abs(mul(exp_assoc(u), exp_assoc(-u)) - ONE) < 1e-10


def test_exp_assoc_small_angle_branch():
    u = 1e-8 * E[2]
    got = exp_assoc(u)
    assert np.allclose(got.c, (ONE + u).c, rtol=0, atol=1e-15)


def test_a_single_value_whose_exponential_overflows_raises():
    # a CplxOcton's coefficients are finite, so a single value's overflow
    # raises; rows carry it as inf or NaN instead
    for u in (CplxOcton.scalar(800), 2000j * E[1]):
        with pytest.raises(OverflowError):
            exp_assoc(u)
    with pytest.raises(OverflowError):
        lambda_S(Theta.single(0, 1, 3000))


def test_an_operation_that_overflows_raises_instead_of_building_a_value():
    # every route that builds a CplxOcton refuses inf and NaN coefficients, with
    # the OverflowError even where warnings are errors
    big = CplxOcton.scalar(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (
            lambda: mul(big, big),
            lambda: CplxOcton.scalar(1e308) + CplxOcton.scalar(1e308),
            lambda: CplxOcton.scalar(-1e308) - CplxOcton.scalar(1e308),
            lambda: CplxOcton.scalar(1e300) * 1e300,
            lambda: 1e300 * CplxOcton.scalar(1e300),
            lambda: associator(big, big, big),
        ):
            with pytest.raises(OverflowError):
                build()


def test_exp_assoc_rejects_complement_components():
    with pytest.raises(NotInAssociativeSubalgebra):
        exp_assoc(E[4])
    with pytest.raises(NotInAssociativeSubalgebra):
        exp_assoc(E[1] + 0.01 * E[7])


# ------------------------------------------------------------------- plumbing


def test_constructor_validation():
    with pytest.raises(ValueError):
        CplxOcton([1.0, 2.0])
    with pytest.raises(ValueError):
        CplxOcton([np.inf] + [0.0] * 7)


def test_values_are_immutable():
    x = CplxOcton.basis(3)
    with pytest.raises(ValueError):
        x.c[0] = 1.0


def test_scalar_operator_arithmetic():
    x = 2.0 * E[2] - E[2]
    assert x == E[2]
    assert (-x) == -1.0 * E[2]
    y = E[1] * 3j
    assert y == 3j * E[1]


def test_repr_prints_a_real_coefficient_by_its_real_part():
    # "*" joins a coefficient and its basis name: 1e3 cannot read as a float
    assert repr(E[3]) == "CplxOcton<1*e3>"
    assert repr(2.0 * ONE + 1j * E[5]) == "CplxOcton<2 + (0+1j)*e5>"
    assert repr(CplxOcton([complex(6.12323e-17, -0.0), 0, 0, 1, 0, 0, 0, 0])) == (
        "CplxOcton<6.12323e-17 + 1*e3>"
    )
    assert repr(0 * ONE) == "CplxOcton<0>"


def test_table_format_is_a_grid():
    text = structure_table().format()
    lines = text.splitlines()
    assert len(lines) == 9
    assert "+e3" in lines[1]  # e1 row contains the e1*e2 entry
