"""Lorentz generators, exponentials, and the spinor/vector double cover.

The invariant basis is e_mu = (i, e1, e2, e3) with metric
eta = diag(-1, 1, 1, 1); raised indices flip the sign of the time slot,
e^0 = -e_0.  Spinor generators live in the quaternionic subalgebra, so
their exponential uses the closed form; the vector generators are 4x4
matrices exponentiated by scaling and squaring.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    E,
    CplxOcton,
    abs_rows,
    bar_star_rows,
    conj_oct,
    exp_rows,
    mul,
    mul_rows,
    rowwise,
    single_value,
)

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

#: Below this |x|, sinh(x)/x - 1 and 1 - sin(x)/x in :func:`lambda_V` are
#: summed from their Taylor series in x^2, which cancel no digits: eight terms,
#: 1/3! .. 1/17!, whose truncation is under 1e-16 of the sum.
SINC_TAYLOR_X = 1.0
_SINC_SERIES = tuple(1 / math.factorial(k) for k in range(17, 1, -2))


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
        if not all(0 <= mu < nu <= 3 for mu, nu in entries):
            raise ValueError("upper-triangle indices required (mu < nu)")
        return cls(theta_rows(list(entries.values()), list(entries)))

    @classmethod
    def single(cls, mu: int, nu: int, value: float) -> "Theta":
        return cls.from_upper({(mu, nu): value})

    @classmethod
    def random(cls, rng: np.random.Generator, bound: float) -> "Theta":
        """Uniform entries in [-bound, bound] on the six free parameters."""
        return cls(theta_rows(rng.uniform(-bound, bound, 6), THETA_PAIRS))

    @classmethod
    def random_rotation(cls, rng: np.random.Generator, bound: float) -> "Theta":
        """Rotation-only draw: all boost entries theta^{0i} stay zero."""
        return cls(theta_rows(rng.uniform(-bound, bound, 3), ROTATION_PAIRS))

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
_DIAG = np.arange(4)
_S_PAIRS = _S_ROWS[_PAIR_MU, _PAIR_NU]
#: -(i/2) V_mu_nu per parameter pair: exactly real, as every V entry is imaginary.
_V_REAL_PAIRS = (-0.5j * _V_ROWS[_PAIR_MU, _PAIR_NU]).real.copy()


def theta_rows(values, pairs=THETA_PAIRS) -> np.ndarray:
    """Stack of antisymmetric parameter matrices, (..., 4, 4), from upper-triangle
    values (..., len(pairs)): the array form of :meth:`Theta.from_upper`."""
    values = np.asarray(values, dtype=float)
    mu, nu = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    out = np.zeros(values.shape[:-1] + (4, 4))
    out[..., mu, nu] = values
    out[..., nu, mu] = -values
    return out


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

    A :class:`Theta`, as a stack of one, gives a CplxOcton, and raises
    OverflowError if the exponential overflows; an (..., 4, 4) parameter
    stack gives (..., 8) rows, with inf or NaN where it overflows.
    """
    return exp_rows(-0.5j * _generator_sum(theta, _S_PAIRS))


def _sinc_excesses(x2: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sinh(a)/a - 1 and 1 - sin(b)/b, (2, ...), from x2 = (a^2, b^2) >= 0 and
    # x = (a, b): they are S(a^2) and -S(-b^2), S(w) = w/3! + w^2/5! + ...
    # The series is formed only for an array with an entry below
    # SINC_TAYLOR_X, elementwise, so no entry's bits depend on its neighbours
    small = x < SINC_TAYLOR_X
    a, b = np.where(small, 1.0, x)
    direct = np.stack([np.sinh(a) / a - 1, 1 - np.sin(b) / b])
    if not small.any():
        return direct
    w = x2.copy()
    w[1] = -w[1]
    series = 0.0
    for coeff in _SINC_SERIES:
        series = series * w + coeff
    series *= w
    series[1] = -series[1]
    return np.where(small, series, direct)


@rowwise
def lambda_V(theta) -> np.ndarray:
    """Vector transformation exp(-(i/2) theta^{mu nu} V_mu_nu), a real float64 matrix.

    A :class:`Theta`, as a stack of one, gives a 4x4 matrix; an (..., 4, 4)
    parameter stack gives a stack.  The exponent G is real with eigenvalues
    +-a and +-ib, so G^4 = c G^2 + Pf^2 by Cayley-Hamilton, where
    c = (1/2) tr G^2 = a^2 - b^2 and Pf, the Pfaffian of G's upper triangle,
    has Pf^2 = a^2 b^2.  Then exp(G) = f0 + f1 G + f2 G^2 + f3 G^3 with
    f2 = (cosh a - cos b)/r and f3 = (sinh(a)/a - sin(b)/b)/r, r = a^2 + b^2,
    each written so that no digits cancel; r = 0 (theta = 0 and the null
    rotations) has G^3 = 0 and f = (1, 1, 1/2, 1/6).  A matrix that is not
    finite, or whose exponential overflows, comes out non-finite.  One lone 4x4
    parameter matrix can round differently from that matrix inside a stack.
    """
    with np.errstate(all="ignore"):
        g = _generator_sum(theta, _V_REAL_PAIRS)
        # G01, G02, G03 (the boosts, where G is symmetric), then G12, G13, G23
        # (the rotations, where it is antisymmetric)
        e = g[..., _PAIR_MU, _PAIR_NU]
        sq = e * e
        c = (sq[..., 0] + sq[..., 1] + sq[..., 2]) - (sq[..., 3] + sq[..., 4] + sq[..., 5])
        pf_terms = e[..., :3] * e[..., :2:-1]  # G01 G23, G02 G13, G03 G12
        pf = pf_terms[..., 0] - pf_terms[..., 1] + pf_terms[..., 2]
        r = np.hypot(c, 2 * pf)
        null = r == 0
        rr = np.where(null, 1.0, r)
        # the larger of a^2 and b^2 is (r + |c|)/2, the smaller Pf^2 over it:
        # both 0 where r = 0
        larger = r + np.abs(c)
        pair = np.stack([larger / 2, 2 * pf * pf / np.where(null, 1.0, larger)])
        a2, b2 = x2 = np.where(c >= 0, pair, pair[::-1])
        x = np.sqrt(x2)
        cosh_1 = 2 * np.sinh(x[0] / 2) ** 2  # cosh a - 1
        one_cos = 2 * np.sin(x[1] / 2) ** 2  # 1 - cos b
        sinhc_1, one_sinc = _sinc_excesses(x2, x)
        f0 = 1 + (b2 * cosh_1 - a2 * one_cos) / rr
        f1 = 1 + (b2 * sinhc_1 - a2 * one_sinc) / rr
        f2 = np.where(null, 0.5, (cosh_1 + one_cos) / rr)
        f3 = np.where(null, 1 / 6, (sinhc_1 + one_sinc) / rr)
        # one 4x4 product per matrix, as a stack: no product over the rows
        g2 = g @ g
        out = f1[..., None, None] * g + f2[..., None, None] * g2 + f3[..., None, None] * (g2 @ g)
        out[..., _DIAG, _DIAG] += f0[..., None]
    return out


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
