"""Lorentz generators, exponentials, and the spinor/vector double cover.

The invariant basis is e_mu = (i, e1, e2, e3) with metric
eta = diag(-1, 1, 1, 1); raised indices flip the sign of the time slot,
e^0 = -e_0.  Spinor generators live in the quaternionic subalgebra, so
their exponential uses the closed form; the vector generators are 4x4
matrices exponentiated by scaling and squaring.
"""

from __future__ import annotations

import numpy as np

from .core import (
    E,
    CplxOcton,
    abs_rows,
    bar_star,
    bar_star_rows,
    conj_complex,
    conj_oct,
    exp_rows,
    mul,
    mul_rows,
    rowwise,
    single_value,
)
from .grading import SubspaceTag, require_member

#: Minkowski metric, mostly-plus convention.
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA.flags.writeable = False

#: Lorentz-invariant basis e_mu = (i, e1, e2, e3) and its raised/conjugated forms.
E_LOWER = (CplxOcton.scalar(1j), E[1], E[2], E[3])
E_UPPER = (CplxOcton.scalar(-1j), E[1], E[2], E[3])
EBAR_LOWER = tuple(conj_oct(e) for e in E_LOWER)
EBAR_UPPER = tuple(conj_oct(e) for e in E_UPPER)
#: ebar^rho as the rows of a (4, 8) coefficient array.
EBAR_UPPER_ROWS = np.array([e.c for e in EBAR_UPPER])
EBAR_UPPER_ROWS.flags.writeable = False
#: Each ebar^sigma is a multiple of the basis element of slot sigma: its coefficient there.
_EBAR_UPPER_DIAG = np.diagonal(EBAR_UPPER_ROWS).copy()

#: Upper-triangle slots (mu < nu) of the six Lorentz parameters, in the order
#: :meth:`Theta.random` draws them: the three boosts, then the three rotations.
THETA_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
BOOST_PAIRS = THETA_PAIRS[:3]
ROTATION_PAIRS = THETA_PAIRS[3:]

#: Taylor/squaring parameters for :func:`mat_exp`.
MAT_EXP_NORM_CAP = 0.5
MAT_EXP_TERMS = 18


@single_value("m")
class Theta:
    """Antisymmetric real 4x4 block of boost/rotation parameters."""

    __slots__ = ("m",)

    def __init__(self, m) -> None:
        arr = np.array(m, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError("theta must be 4x4")
        if not np.all(np.isfinite(arr)):
            raise ValueError("theta must be finite")
        if not np.array_equal(arr, -arr.T):
            raise ValueError("theta must be exactly antisymmetric")
        arr.flags.writeable = False
        self.m = arr

    @classmethod
    def zero(cls) -> "Theta":
        return cls(np.zeros((4, 4)))

    @classmethod
    def from_upper(cls, entries: dict[tuple[int, int], float]) -> "Theta":
        """Build from upper-triangle values {(mu, nu): theta^{mu nu}}, mu < nu."""
        arr = np.zeros((4, 4))
        for (mu, nu), val in entries.items():
            if not (0 <= mu < nu <= 3):
                raise ValueError("upper-triangle indices required (mu < nu)")
            arr[mu, nu] = val
            arr[nu, mu] = -val
        return cls(arr)

    @classmethod
    def single(cls, mu: int, nu: int, value: float) -> "Theta":
        return cls.from_upper({(mu, nu): value})

    @classmethod
    def random(cls, rng: np.random.Generator, bound: float) -> "Theta":
        """Uniform entries in [-bound, bound] on the six free parameters."""
        vals = rng.uniform(-bound, bound, size=6)
        return cls.from_upper(dict(zip(THETA_PAIRS, vals)))

    @classmethod
    def random_rotation(cls, rng: np.random.Generator, bound: float) -> "Theta":
        """Rotation-only draw: all boost entries theta^{0i} stay zero."""
        vals = rng.uniform(-bound, bound, size=3)
        return cls.from_upper(dict(zip(ROTATION_PAIRS, vals)))

    def __neg__(self) -> "Theta":
        return Theta(-self.m)

    def __repr__(self) -> str:
        return f"Theta({self.m.tolist()})"


def s_gen(mu: int, nu: int) -> CplxOcton:
    """Spinor generator: (e_mu ebar_nu - e_nu ebar_mu) / (4i)."""
    diff = mul(E_LOWER[mu], EBAR_LOWER[nu]) - mul(E_LOWER[nu], EBAR_LOWER[mu])
    return diff * (-0.25j)


def v_gen(mu: int, nu: int) -> np.ndarray:
    """Vector generator: entries -i(delta^rho_mu eta_{nu sigma} - delta^rho_nu eta_{mu sigma})."""
    out = np.zeros((4, 4), dtype=np.complex128)
    out[mu, :] += -1j * ETA[nu, :]
    out[nu, :] -= -1j * ETA[mu, :]
    return out


#: The generators indexed [mu, nu]: S as rows (4, 4, 8), V as matrices (4, 4, 4, 4).
_S_ROWS = np.array([[s_gen(mu, nu).c for nu in range(4)] for mu in range(4)])
_V_ROWS = np.array([[v_gen(mu, nu) for nu in range(4)] for mu in range(4)])
_PAIR_MU, _PAIR_NU = (np.array(ix) for ix in zip(*THETA_PAIRS))
_S_PAIRS = _S_ROWS[_PAIR_MU, _PAIR_NU]
_V_PAIRS = _V_ROWS[_PAIR_MU, _PAIR_NU]
#: -(i/2) V_mu_nu per parameter pair: exactly real, as every V entry is imaginary.
_V_REAL_PAIRS = (-0.5j * _V_PAIRS).real.copy()


def theta_rows(values, pairs=THETA_PAIRS) -> np.ndarray:
    """Stack of antisymmetric parameter matrices, (..., 4, 4), from upper-triangle
    values (..., len(pairs)): the array form of :meth:`Theta.from_upper`."""
    values = np.asarray(values, dtype=float)
    mu, nu = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    out = np.zeros(values.shape[:-1] + (4, 4))
    out[..., mu, nu] = values
    out[..., nu, mu] = -values
    return out


def mat_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on an 18-term Taylor sum.

    Takes one square matrix or a stack (..., k, k); each matrix is scaled by
    its own 1-norm.  The sum runs in the input's precision: a real matrix gives
    a float64 result, a complex one a complex128 result.  A matrix whose norm
    is not finite is not scaled, and its exponential comes out non-finite, as
    does one whose squarings overflow; the squaring stops once only such
    matrices have squarings left.
    """
    a = np.asarray(m)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    with np.errstate(all="ignore"):
        ratio = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0) / MAT_EXP_NORM_CAP
        squarings = np.ceil(np.log2(np.maximum(ratio, 1.0)))
        squarings = np.where(squarings < np.inf, squarings, 0.0)  # inf or NaN: unscaled
        a = a * np.exp2(-squarings)[..., None, None]
        acc = term = np.eye(a.shape[-1], dtype=a.dtype)
        for k in range(1, MAT_EXP_TERMS + 1):
            term = term @ a / k
            acc = acc + term
        # every matrix squares at least `common` times; past that, only those
        # whose own count is not yet reached
        steps = int(squarings.max(initial=0))
        common = int(squarings.min(initial=steps))
        for step in range(steps):
            if step < common:
                acc = acc @ acc
            else:
                acc = np.where((squarings > step)[..., None, None], acc @ acc, acc)
            # the square of a non-finite matrix is non-finite, so once no
            # finite matrix has squarings left, none can change
            if not np.isfinite(acc).all():
                finite = np.isfinite(acc).all(axis=(-2, -1))
                if not np.any(finite & (squarings > step + 1)):
                    break
    return acc


def ebar_rows(coeffs) -> np.ndarray:
    """sum_sigma coeffs[..., sigma] ebar^sigma, (..., 8), from coefficients (..., 4).

    Each ebar^sigma has one nonzero slot, so the sum is one scale per slot and
    equals the product ``coeffs @ EBAR_UPPER_ROWS`` up to the signs of zeros;
    as there, a non-finite coefficient makes its row non-finite.
    """
    coeffs = np.asarray(coeffs)
    out = np.zeros(coeffs.shape[:-1] + (8,), dtype=np.complex128)
    out[..., :4] = coeffs * _EBAR_UPPER_DIAG
    return out


def _generator_sum(theta: np.ndarray, gens: np.ndarray) -> np.ndarray:
    # sum of 2 theta^{mu nu} G_{mu nu} over mu < nu, per parameter matrix.  Each
    # entry of the sum gets at most one nonzero real and one nonzero imaginary
    # term, so the contraction is exact whatever order it adds in, and equals
    # the term-by-term sum bit for bit.  A stack of one-row products: no 2-D
    # product over the rows, whose BLAS threading could depend on their number
    t = 2.0 * np.asarray(theta, dtype=float)[..., _PAIR_MU, _PAIR_NU]
    out = (t[..., None, :] @ gens.reshape(len(THETA_PAIRS), -1))[..., 0, :]
    return out.reshape(t.shape[:-1] + gens.shape[1:])


@rowwise
def lambda_S(theta):
    """Spinor transformation exp(-(i/2) theta^{mu nu} S_mu_nu), by :func:`exp_rows`.

    A :class:`Theta` gives a CplxOcton, and raises OverflowError if the
    exponential overflows; an (..., 4, 4) parameter stack, one matrix
    included, gives (..., 8) rows, with inf or NaN where it overflows.
    """
    return exp_rows(-0.5j * _generator_sum(theta, _S_PAIRS))


@rowwise
def lambda_V(theta) -> np.ndarray:
    """Vector transformation exp(-(i/2) theta^{mu nu} V_mu_nu), a real float64 matrix.

    A :class:`Theta` gives a 4x4 matrix, an (..., 4, 4) parameter stack a stack.
    The exponent is a sum of real generators, exact as the generator sum is, so
    the exponential runs on float64 stacks.
    """
    return mat_exp(_generator_sum(theta, _V_REAL_PAIRS))


def lambda_V_real(theta) -> np.ndarray:
    """Real vector transformation; raises if it has a non-negligible imaginary part.

    Takes a :class:`Theta` or an (..., 4, 4) parameter stack; each matrix of a
    stack is checked against its own scale.
    """
    lv = lambda_V(theta)
    imag = np.abs(lv.imag).max(axis=(-2, -1))
    if np.any(imag > 1e-10 * np.maximum(1.0, np.abs(lv.real).max(axis=(-2, -1)))):
        raise ArithmeticError("vector transformation has non-negligible imaginary part")
    return lv.real.copy()


@rowwise
def double_cover_residual(theta):
    """Max over rho of || bar_star(L) ebar^rho L - (L_V)^rho_sigma ebar^sigma ||.

    A float for a :class:`Theta`, an array for an (..., 4, 4) parameter stack.
    """
    lam = lambda_S(theta)
    lam_bs = bar_star_rows(lam)
    rhs = ebar_rows(lambda_V(theta))
    # one rho at a time keeps the temporaries at one product per row
    worst = np.max(
        [
            abs_rows(mul_rows(mul_rows(lam_bs, ebar), lam) - rhs[..., rho, :])
            for rho, ebar in enumerate(EBAR_UPPER_ROWS)
        ],
        axis=0,
    )
    return worst


def lorentz_algebra_rows(mu, nu, rho, sigma) -> np.ndarray:
    """:func:`lorentz_algebra_residual` for index arrays broadcast together, as (..., 8) rows."""
    s_mn, s_rs = _S_ROWS[mu, nu], _S_ROWS[rho, sigma]
    lhs = (mul_rows(s_mn, s_rs) - mul_rows(s_rs, s_mn)) * (-1j)

    def term(a, b, c, d):  # eta_ab S_cd
        return ETA[a, b][..., None] * _S_ROWS[c, d]

    rhs = (
        term(mu, rho, nu, sigma)
        - term(mu, sigma, nu, rho)
        - term(nu, rho, mu, sigma)
        + term(nu, sigma, mu, rho)
    )
    return lhs - rhs


def lorentz_algebra_residual(mu: int, nu: int, rho: int, sigma: int) -> CplxOcton:
    """-i[S_mn, S_rs] minus its metric combination of generators."""
    return CplxOcton._wrap(lorentz_algebra_rows(mu, nu, rho, sigma))


def infinitesimal_dc_rows(mu, nu, rho) -> np.ndarray:
    """:func:`infinitesimal_dc_residual` for index arrays broadcast together, as (..., 8) rows."""
    s, ebar = _S_ROWS[mu, nu], EBAR_UPPER_ROWS[rho]
    lhs = mul_rows(np.conj(s), ebar) + mul_rows(ebar, s)
    return lhs - ebar_rows(_V_ROWS[mu, nu, rho])


def infinitesimal_dc_residual(mu: int, nu: int, rho: int) -> CplxOcton:
    """S*_mn ebar^rho + ebar^rho S_mn - (V_mn)^rho_sigma ebar^sigma."""
    return CplxOcton._wrap(infinitesimal_dc_rows(mu, nu, rho))


def transform_alpha(lam: CplxOcton, alpha: CplxOcton) -> CplxOcton:
    """Left action on the quaternionic spinor: alpha' = L alpha."""
    require_member(lam, SubspaceTag.A, "transformation")
    require_member(alpha, SubspaceTag.A, "alpha")
    return mul(lam, alpha)


def transform_beta(lam: CplxOcton, beta: CplxOcton) -> CplxOcton:
    """Action on the complement spinor: beta' = bar_star(L) beta = beta conj_complex(L).

    Both routes are computed; disagreement would mean the frozen table broke
    the exchange identity that makes this representation exist.
    """
    require_member(lam, SubspaceTag.A, "transformation")
    require_member(beta, SubspaceTag.B, "beta")
    left = mul(bar_star(lam), beta)
    right = mul(beta, conj_complex(lam))
    if abs(left - right) > 1e-10 * max(1.0, abs(left)):
        raise ArithmeticError("exchange identity violated for beta transform")
    return left


def gamma5_analogue() -> CplxOcton:
    """-i e^0 ebar^1 e^2 ebar^3, associated left to right; equals 1."""
    acc = E_UPPER[0]
    for f in (EBAR_UPPER[1], E_UPPER[2], EBAR_UPPER[3]):
        acc = mul(acc, f)
    return acc * (-1j)


def eta_inverse_transform(lv: np.ndarray) -> np.ndarray:
    """Group inverse via the metric: eta L^T eta (exact for eta-preserving L).

    Takes one 4x4 matrix or an (..., 4, 4) stack.
    """
    return ETA @ np.swapaxes(lv, -1, -2) @ ETA
