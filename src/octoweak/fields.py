"""Spacetime-dependent values: polynomial fields with octonion coefficients.

A field stores one monomial x0^d0 x1^d1 x2^d2 x3^d3 per row: an integer
exponent matrix E of shape (M, 4), its subspace tag, and its coefficients
as their real parameters P of shape (M, ndof) on the tag's table rows
(``grading.dof_rows``), the layout in which the suites draw them.  Its value
at p is dof_rows(prod(p**E, axis=1) @ P), and differentiation is exact, so
any residual seen by the verification suites comes from the algebra, not
from discretization.  A derivative d_rho x^E = E_rho x^(E - e_rho) is
another monomial's value times an integer, so a jet forms the monomials
once, on the exponents' closure under differentiation, and looks the
derivatives up; each coordinate's powers are running products,
x^k = x^(k-1) x.  Transformed fields are differentiated by the pointwise
chain rule, and exp(u) by the differential of its closed form.

The row functions evaluate many fields of one exponent matrix and one tag
at once, as a parameter stack (..., M, ndof) with one point (..., 4) per
field; :func:`eval_at` calls them on a block of one.  ``monomial_rows``
gives the one monomial table of a block of points, the values and all four
derivatives, and ``jets`` applies it, or the rows a caller gathers from it,
to any fields that share the exponents and the tag.
``lorentz_invariance_rows`` multiplies a block's values and gradients by
one spinor factor, whose left-multiplication matrix (``core.left_rows``) it
gathers once.
"""

from __future__ import annotations

import numbers
import operator
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from .core import (
    CplxOcton,
    _cos_sinc_rows,
    apply_right_rows,
    bar_star,
    inner,
    left_rows,
    mul,
    single,
)
from .errors import DomainViolation
from .grading import SubspaceTag, dof_rows, ndof, params_rows, require_member
from .lorentz import EBAR_UPPER_ROWS, eta_inverse_transform

Degree = tuple[int, int, int, int]

#: Below this |omega^2| the factor (cos(omega) - sinc(omega))/omega^2 in
#: :func:`dexp_rows` is summed from its Taylor series, which cancels no digits.
DEXP_TAYLOR_Z = 1e-2


def _as_point(p) -> np.ndarray:
    # one point as a block of one row, (1, 4)
    arr = np.asarray(p, dtype=float)
    if arr.shape != (4,):
        raise ValueError("a point has exactly 4 real coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr[None]


class PolyField:
    """Multivariate polynomial in x0..x3 with octonion coefficients.

    ``exps`` (M, 4) holds one multi-degree per row and ``params`` (M, ndof)
    the real parameters of the matching coefficients on the table rows of
    ``tag`` (``grading.dof_rows``); both are read-only.  Every coefficient
    lies in the tagged subspace, so the field takes values there at every
    real point; an untagged field is FULL_CO.  A coefficient within
    ``MEMBERSHIP_TOL`` of the subspace is kept as its projection.
    """

    __slots__ = ("exps", "params", "tag")

    def __init__(
        self, terms: dict[Degree, CplxOcton], tag: SubspaceTag = SubspaceTag.FULL_CO
    ) -> None:
        clean: dict[Degree, CplxOcton] = {}
        for deg, coeff in terms.items():
            deg = tuple(map(operator.index, deg))
            if len(deg) != 4 or min(deg) < 0:
                raise ValueError(f"bad multi-degree {deg}")
            if not isinstance(coeff, CplxOcton):
                raise TypeError("coefficients must be CplxOcton")
            if np.any(coeff.c != 0):
                clean[deg] = coeff
        exps = np.array(list(clean), dtype=np.int64).reshape(-1, 4)
        coeffs = np.array([c.c for c in clean.values()], dtype=np.complex128).reshape(-1, 8)
        require_member(coeffs, tag, "a coefficient")
        self._set(exps, params_rows(tag, coeffs), tag)

    def _set(self, exps, params, tag) -> None:
        exps.flags.writeable = params.flags.writeable = False
        self.exps, self.params, self.tag = exps, params, tag

    @classmethod
    def _from_arrays(cls, exps, params, tag) -> "PolyField":
        # trusted internal constructor: rows are distinct
        field = object.__new__(cls)
        field._set(exps, params, tag)
        return field

    @property
    def terms(self) -> dict[Degree, CplxOcton]:
        """The nonzero terms as a fresh {multi-degree: coefficient} dict."""
        rows = zip(self.exps.tolist(), dof_rows(self.tag, self.params))
        return {tuple(d): CplxOcton._wrap(c) for d, c in rows if c.any()}

    def __call__(self, p) -> CplxOcton:
        return eval_at(self, p)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        z = complex(scalar)
        if z.imag == 0.0:
            return PolyField._from_arrays(self.exps, self.params * z.real, self.tag)
        # A and B are complex-linear; the +- eigenspaces are only real-linear
        tag = self.tag if self.tag in (SubspaceTag.A, SubspaceTag.B) else SubspaceTag.FULL_CO
        coeffs = dof_rows(self.tag, self.params) * z
        return PolyField._from_arrays(self.exps, params_rows(tag, coeffs), tag)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        degree = self.exps.sum(axis=1).max(initial=0)
        return f"PolyField({len(self.terms)} terms, deg<={degree}, tag={self.tag.value})"


@lru_cache(maxsize=64)
def _jet_exponents(exps_bytes: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # from the bytes of an int64 exponent matrix E (M, 4): the closure K (K, 4)
    # of its exponents under differentiation (E itself first, then each
    # E - e_rho and the constant monomial not in it yet), the column of K
    # (5, M) that each monomial and its derivatives along x0..x3 read, their
    # integer factors (5, M), d_rho x^E = E_rho x^(E - e_rho), and the powers
    # 0..max(E).  A monomial without x_rho reads the constant monomial under
    # its factor 0, so its derivative is an exact zero wherever the point is
    # finite.  Cached and read-only: every field with these exponents shares them
    exps = np.frombuffer(exps_bytes, dtype=np.int64).reshape(-1, 4)
    shifted = exps[None] - np.eye(4, dtype=np.int64)[:, None, :]
    reads = np.concatenate([exps[None], np.where((exps.T > 0)[:, :, None], shifted, 0)])
    reads = list(map(tuple, reads.reshape(-1, 4).tolist()))
    column: dict[tuple, int] = {}
    for row in reads:
        column.setdefault(row, len(column))
    tables = (
        np.array(list(column), dtype=np.int64).reshape(-1, 4),
        np.array([column[row] for row in reads], dtype=np.intp).reshape(5, -1),
        np.concatenate([np.ones((1, len(exps))), exps.T]),
        np.arange(exps.max(initial=0) + 1),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _power_table(points: np.ndarray, top: int) -> np.ndarray:
    # each coordinate's powers 0..top, (..., 4, top + 1).  Power k is power k - 1
    # times the coordinate, one product an element, as x * x * ... * x in Python
    # floats (power 1 is exact, a square correctly rounded), whatever SIMD loops
    # numpy dispatches to
    table = np.ones(points.shape + (top + 1,))
    for k in range(1, top + 1):
        np.multiply(table[..., k - 1], points, out=table[..., k])
    return table


def monomial_rows(exps: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The monomials of ``exps`` (M, 4) and their derivatives at each point (..., 4).

    Returns (..., 5, M): row 0 the monomials' values, row 1 + rho their
    derivatives along x_rho.  A derivative d_rho x^E = E_rho x^(E - e_rho) is
    a monomial's value times its factor, so the values are formed once, on the
    exponents' closure under differentiation, and the derivatives looked up.
    """
    exps = np.asarray(exps, dtype=np.int64)
    closure, columns, factors, degrees = _jet_exponents(exps.tobytes())
    # the closure's monomials at each point, (..., K): each coordinate's powers
    # once, then looked up per monomial
    table = _power_table(points, len(degrees) - 1)
    values = table[..., 0, closure[:, 0]]
    for axis in range(1, 4):
        values *= table[..., axis, closure[:, axis]]
    monos = values[..., columns]
    monos *= factors
    return monos


def jets(tag: SubspaceTag, table: np.ndarray, params: np.ndarray):
    """Value rows (..., 8) and derivative rows (..., k, 8) of fields of ``tag``.

    The fields are given by their real parameters (..., M, ndof) on the tag's
    table rows and ``table`` (..., 1 + k, M) holds their monomial rows, row 0
    the values, as :func:`monomial_rows` gives them or a caller gathers them;
    the leading axes broadcast together.  The monomials are real, so the jets
    of the parameters are one real product, made elements by the linear
    ``dof_rows``.  Parameters are contracted where they lie, as a column slice
    of a block's draws is, with the bits of a contiguous copy.
    """
    jet = dof_rows(tag, table @ params)
    return jet[..., 0, :], jet[..., 1:, :]


def eval_at(f: PolyField, p) -> CplxOcton:
    """Value at a real point: the value of f's jet there."""
    with np.errstate(all="ignore"):
        return single(jets(f.tag, monomial_rows(f.exps, _as_point(p)), f.params)[0])


@lru_cache(maxsize=16)
def monomials(degree: int) -> np.ndarray:
    """Every multi-degree of total degree <= degree, (M, 4), in lexicographic order.

    Read-only: every random field of that degree shares it.
    """
    degs = [d for d in iter_product(range(degree + 1), repeat=4) if sum(d) <= degree]
    exps = np.array(degs, dtype=np.int64).reshape(-1, 4)
    exps.flags.writeable = False
    return exps


def random_field(
    rng: np.random.Generator,
    degree: int,
    tag: SubspaceTag,
    bound: float = 1.0,
) -> PolyField:
    """Field with one coefficient per monomial of total degree <= degree.

    Multi-indices are taken in lexicographic order and all coefficients come
    from one draw, equal to one :func:`~octoweak.grading.draw` per monomial
    in that order, so the field is a pure function of the generator state.
    The draw is kept as it is: it is the field's parameters.
    """
    degree = operator.index(degree)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    exps = monomials(degree)
    return PolyField._from_arrays(exps, rng.uniform(-bound, bound, (len(exps), ndof(tag))), tag)


def _require_spinor(tag: SubspaceTag) -> None:
    if tag not in (SubspaceTag.A, SubspaceTag.B):
        raise DomainViolation("field must be tagged A or B")


def _ebar_left_tables() -> tuple[np.ndarray, np.ndarray]:
    # ebar^rho is a unit (-i) or a signed basis vector, so the left product
    # ebar^rho g has one term per slot: (ebar^rho g)_c = unit[rho, c] g[source[rho, c]],
    # with source a position in g.reshape(..., 32)
    left = mul(EBAR_UPPER_ROWS[:, None, :], np.eye(8))  # [rho, b] = ebar^rho e_b
    rho, b, c = np.nonzero(left)
    source, unit = np.empty((4, 8), np.intp), np.empty((4, 8), np.complex128)
    source[rho, c], unit[rho, c] = 8 * rho + b, left[rho, b, c]
    source.flags.writeable = unit.flags.writeable = False
    return source, unit


_EBAR_SOURCE, _EBAR_UNIT = _ebar_left_tables()


def bilinear_rows(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """sum_rho <value*, ebar^rho grads[rho]> row by row.

    Takes values (..., 8) and their four gradients (..., 4, 8).
    """
    flat = grads.reshape(grads.shape[:-2] + (32,))
    left = (np.take(flat, _EBAR_SOURCE, axis=-1) * _EBAR_UNIT).sum(axis=-2)
    return inner(np.conj(values), left)


def lorentz_invariance_rows(tag, exps, params, lam, lv, points) -> np.ndarray:
    """Change of the derivative bilinear under a Lorentz transformation, row by row.

    Each row is a field of the spinor type ``tag``, exponents ``exps`` (M, 4)
    and parameters (..., M, ndof), a spinor transformation ``lam`` (..., 8),
    the real vector transformation ``lv`` (..., 4, 4) and a point (..., 4).
    The jets at the pulled-back points and at the points come from one
    monomial table of both.  The transformed field is f'(x) = L f(M x),
    M = L_V^{-1}, with L the spinor transformation (bar_star of it for a
    B-valued field).  At x' = L_V p the chain rule gives
    d_rho f'(x') = L sum_sigma M[sigma, rho] (d_sigma f)(M x').
    """
    _require_spinor(tag)
    factor = lam if tag is SubspaceTag.A else bar_star(lam)
    m = eta_inverse_transform(lv)
    at = np.stack([(m @ (lv @ points[..., None]))[..., 0], points])
    values, grads = jets(tag, monomial_rows(exps, at), params)
    # the value and the four pulled-back gradients share the left factor: its
    # matrix is gathered once: factor f = f L(factor)
    by_factor = left_rows(factor)
    pulled = np.swapaxes(m, -1, -2) @ grads[0]
    moved = apply_right_rows(pulled, by_factor[..., None, :, :])
    transformed = bilinear_rows(apply_right_rows(values[0], by_factor), moved)
    return np.abs(transformed - bilinear_rows(values[1], grads[1]))


def dexp_rows(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Derivative of exp(u) along a direction in which u changes by du, row by row.

    u and du are quaternionic rows (..., 8), broadcast together.  Differentiates
    exp(s + v) = e^s (cos w + sinc w v), w^2 = <v, v>: with a = <v, dv>,
    d cos w = -sinc w a and d sinc w = ((cos w - sinc w)/w^2) a.  Below
    |w^2| = DEXP_TAYLOR_Z the last factor is summed from its Taylor series.
    A lone (8,) row can round differently from that row inside a block.
    """
    u, du = np.broadcast_arrays(u, du)
    s, v, ds, dv = u[..., 0], u[..., 1:4], du[..., 0], du[..., 1:4]
    z, a = inner(v, v), inner(v, dv)
    with np.errstate(over="ignore", invalid="ignore"):
        cos_w, sinc_w = _cos_sinc_rows(z)
        small = np.abs(z) < DEXP_TAYLOR_Z
        taylor = -1 / 3 + z * (1 / 30 - z * (1 / 840 - z / 45360))
        sinc_rate = np.where(small, taylor, (cos_w - sinc_w) / np.where(small, 1, z))
        es = np.exp(s)
        out = np.zeros(u.shape, dtype=np.complex128)
        out[..., 0] = es * (ds * cos_w - sinc_w * a)
        out[..., 1:4] = es[..., None] * (
            (ds * sinc_w + sinc_rate * a)[..., None] * v + sinc_w[..., None] * dv
        )
    return out

