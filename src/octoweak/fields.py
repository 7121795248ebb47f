"""Spacetime-dependent values: polynomial fields with octonion coefficients.

A field stores one monomial x0^d0 x1^d1 x2^d2 x3^d3 per row: an integer
exponent matrix E of shape (M, 4) and a coefficient array C of shape (M, 8).
Its value at p is prod(p**E, axis=1) @ C, and differentiation is exact, so
any residual seen by the verification suites comes from the algebra, not
from discretization.  Transformed fields are differentiated by the pointwise
chain rule, and exp(u) by the differential of its closed form.

The *_rows functions evaluate many fields of one exponent matrix at once, as
a coefficient stack (..., M, 8) with one point (..., 4) per field; the
single-field functions are one-row calls of them.
"""

from __future__ import annotations

import numbers
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from .core import CplxOcton, _cos_sinc_rows, bar_star_rows, exp_assoc, inner_rows, mul_rows
from .errors import DomainViolation
from .grading import AB_CLOSURE, SubspaceTag, draw_rows, in_subspace
from .lorentz import EBAR_UPPER_ROWS, Theta, eta_inverse_transform, lambda_S, lambda_V_real

Degree = tuple[int, int, int, int]

#: Below this |omega^2| the factor (cos(omega) - sinc(omega))/omega^2 in
#: :func:`dexp_rows` is summed from its Taylor series, which cancels no digits.
DEXP_TAYLOR_Z = 1e-2


def _as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (4,):
        raise ValueError("a point has exactly 4 real coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


class PolyField:
    """Multivariate polynomial in x0..x3 with octonion coefficients.

    ``exps`` (M, 4) holds one multi-degree per row and ``coeffs`` (M, 8) the
    matching coefficients; both are read-only.  ``tag`` optionally
    constrains every coefficient to a subspace; tagged fields take values in
    that subspace at every real point.
    """

    __slots__ = ("exps", "coeffs", "max_total_degree", "tag")

    def __init__(
        self,
        terms: dict[Degree, CplxOcton],
        max_total_degree: int | None = None,
        tag: SubspaceTag | None = None,
    ) -> None:
        clean: dict[Degree, CplxOcton] = {}
        for deg, coeff in terms.items():
            deg = tuple(int(d) for d in deg)
            if len(deg) != 4 or min(deg) < 0:
                raise ValueError(f"bad multi-degree {deg}")
            if not isinstance(coeff, CplxOcton):
                raise TypeError("coefficients must be CplxOcton")
            if tag is not None and not in_subspace(coeff, tag):
                raise DomainViolation(f"coefficient of {deg} is not in subspace {tag.value}")
            if np.any(coeff.c != 0):
                clean[deg] = coeff
        top = max(map(sum, clean), default=0)
        if max_total_degree is None:
            max_total_degree = top
        if top > max_total_degree:
            raise ValueError("terms exceed max_total_degree")
        exps = np.array(list(clean), dtype=np.int64).reshape(-1, 4)
        coeffs = np.array([c.c for c in clean.values()], dtype=np.complex128).reshape(-1, 8)
        self._set(exps, coeffs, max_total_degree, tag)

    def _set(self, exps, coeffs, max_total_degree, tag) -> None:
        exps.flags.writeable = coeffs.flags.writeable = False
        self.exps, self.coeffs, self.tag = exps, coeffs, tag
        self.max_total_degree = int(max_total_degree)

    @classmethod
    def _from_arrays(cls, exps, coeffs, max_total_degree, tag) -> "PolyField":
        # trusted internal constructor: rows are distinct and in the subspace
        field = object.__new__(cls)
        field._set(exps, coeffs, max_total_degree, tag)
        return field

    @classmethod
    def constant(cls, coeff: CplxOcton, tag: SubspaceTag | None = None) -> "PolyField":
        return cls({(0, 0, 0, 0): coeff}, tag=tag)

    @classmethod
    def zero(cls, tag: SubspaceTag | None = None) -> "PolyField":
        return cls({}, max_total_degree=0, tag=tag)

    @property
    def terms(self) -> dict[Degree, CplxOcton]:
        """The nonzero terms as a fresh {multi-degree: coefficient} dict."""
        rows = zip(self.exps.tolist(), self.coeffs)
        return {tuple(d): CplxOcton._wrap(c.copy()) for d, c in rows if c.any()}

    def __call__(self, p) -> CplxOcton:
        return eval_at(self, p)

    def __add__(self, other: "PolyField") -> "PolyField":
        if not isinstance(other, PolyField):
            return NotImplemented
        exps, row = np.unique(np.concatenate([self.exps, other.exps]), axis=0, return_inverse=True)
        coeffs = np.zeros((len(exps), 8), dtype=np.complex128)
        np.add.at(coeffs, row.reshape(-1), np.concatenate([self.coeffs, other.coeffs]))
        tag = self.tag if self.tag is other.tag else None
        degree = max(self.max_total_degree, other.max_total_degree)
        return PolyField._from_arrays(exps, coeffs, degree, tag)

    def __sub__(self, other: "PolyField") -> "PolyField":
        return self + (-other)

    def __neg__(self) -> "PolyField":
        return PolyField._from_arrays(self.exps, -self.coeffs, self.max_total_degree, self.tag)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        z = complex(scalar)
        # A and B are complex-linear; the +- eigenspaces are only real-linear
        keep = self.tag is None or z.imag == 0.0 or self.tag in (SubspaceTag.A, SubspaceTag.B)
        tag = self.tag if keep else None
        return PolyField._from_arrays(self.exps, self.coeffs * z, self.max_total_degree, tag)

    __rmul__ = __mul__

    def scale_left(self, m: CplxOcton) -> "PolyField":
        """Coefficientwise left product m * coeff."""
        return PolyField._from_arrays(
            self.exps, mul_rows(m.c, self.coeffs), self.max_total_degree, _scaled_tag(self.tag, m)
        )

    def scale_right(self, m: CplxOcton) -> "PolyField":
        """Coefficientwise right product coeff * m."""
        return PolyField._from_arrays(
            self.exps, mul_rows(self.coeffs, m.c), self.max_total_degree, _scaled_tag(self.tag, m)
        )

    def __repr__(self) -> str:
        tag = self.tag.value if self.tag else None
        return f"PolyField({len(self.terms)} terms, deg<={self.max_total_degree}, tag={tag})"


def _scaled_tag(tag: SubspaceTag | None, m: CplxOcton) -> SubspaceTag | None:
    # products with a tagged multiplier land where the closure table says
    if tag in (SubspaceTag.A, SubspaceTag.B):
        for mtag in (SubspaceTag.A, SubspaceTag.B):
            if in_subspace(m, mtag):
                return AB_CLOSURE[(tag, mtag)]
    return None


@lru_cache(maxsize=64)
def _jet_exponents(exps_bytes: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # from the bytes of an int64 exponent matrix E (M, 4): the exponents
    # (5, M, 4) and integer factors (5, M) of the monomials and of their
    # derivatives along x0..x3, d_rho x^E = E_rho x^(E - e_rho), and the powers
    # 0..max(E).  A monomial without x_rho keeps the exponents 0 under its
    # factor 0, so its derivative is an exact zero wherever the point is finite.
    # Cached and read-only: every field with these exponents shares them
    exps = np.frombuffer(exps_bytes, dtype=np.int64).reshape(-1, 4)
    shifted = exps[None] - np.eye(4, dtype=np.int64)[:, None, :]
    powers = np.where(exps.T[:, :, None] > 0, shifted, 0)
    tables = (
        np.concatenate([exps[None], powers]),
        np.concatenate([np.ones((1, len(exps))), exps.T]),
        np.arange(exps.max(initial=0) + 1),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def jet_rows(exps: np.ndarray, coeffs: np.ndarray, points: np.ndarray):
    """Each field's value and its four gradients at its own point.

    The fields share the exponent matrix ``exps`` (M, 4); ``coeffs``
    (..., M, 8) holds their coefficients and ``points`` (..., 4) their points,
    with the leading axes broadcast together.  Returns the values (..., 8) and
    the gradients (..., 4, 8), row rho the derivative along x_rho.  Real
    coefficients (..., M, k), such as the real parameters of a subspace, give
    real values (..., k) and gradients (..., 4, k).
    """
    powers, factors, degrees = _jet_exponents(np.asarray(exps, dtype=np.int64).tobytes())
    # each coordinate's powers once, then looked up per monomial
    table = points[..., :, None] ** degrees
    monos = table[..., 0, powers[..., 0]]
    monos *= factors
    for axis in range(1, 4):
        monos *= table[..., axis, powers[..., axis]]
    # real monomials times the real and imaginary parts side by side: one
    # real contraction
    coeffs = np.ascontiguousarray(coeffs, dtype=np.result_type(coeffs, np.float64))
    jet = (monos @ coeffs.view(np.float64)).view(coeffs.dtype)
    return jet[..., 0, :], jet[..., 1:, :]


def _jet(f: PolyField, p) -> tuple[np.ndarray, np.ndarray]:
    """f and its four partial derivatives at p, as an (8,) and a (4, 8) array."""
    return jet_rows(f.exps, f.coeffs, _as_point(p))


def _jet_along(f: PolyField, mu: int, p) -> tuple[np.ndarray, np.ndarray]:
    """f and its partial derivative along x_mu at p, as two (8,) arrays."""
    if not 0 <= mu <= 3:
        raise ValueError("axis must be in 0..3")
    value, grads = _jet(f, p)
    return value, grads[mu]


def eval_at(f: PolyField, p) -> CplxOcton:
    """Value at a real point: the monomials at p times the coefficient rows."""
    return CplxOcton._wrap(_jet(f, p)[0])


def partial(f: PolyField, mu: int) -> PolyField:
    """Exact formal partial derivative along x_mu."""
    if not 0 <= mu <= 3:
        raise ValueError("axis must be in 0..3")
    d = f.exps[:, mu]
    keep = d > 0
    exps = f.exps[keep]
    exps[:, mu] -= 1
    coeffs = f.coeffs[keep] * d[keep, None]
    return PolyField._from_arrays(exps, coeffs, max(0, f.max_total_degree - 1), f.tag)


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
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    exps = monomials(int(degree))
    return PolyField._from_arrays(exps, draw_rows(tag, rng, len(exps), bound), degree, tag)


def _require_spinor(tag: SubspaceTag | None) -> None:
    if tag not in (SubspaceTag.A, SubspaceTag.B):
        raise DomainViolation("field must be tagged A or B")


def _ebar_left_tables() -> tuple[np.ndarray, np.ndarray]:
    # ebar^rho is a unit (-i) or a signed basis vector, so the left product
    # ebar^rho g has one term per slot: (ebar^rho g)_c = unit[rho, c] g[source[rho, c]],
    # with source a position in g.reshape(..., 32)
    left = mul_rows(EBAR_UPPER_ROWS[:, None, :], np.eye(8))  # [rho, b] = ebar^rho e_b
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
    return inner_rows(np.conj(values), left)


def dirac_scalar(f: PolyField, p) -> complex:
    """The first-derivative bilinear sum_rho <f*, ebar^rho d_rho f> at p."""
    _require_spinor(f.tag)
    return complex(bilinear_rows(*_jet(f, p)))


def lorentz_invariance_rows(tag, lam, lv, jet_at, points) -> np.ndarray:
    """Change of the derivative bilinear under a Lorentz transformation, row by row.

    Each row is a field of the spinor type ``tag``, a spinor transformation
    ``lam`` (..., 8), the real vector transformation ``lv`` (..., 4, 4) and a
    point (..., 4); ``jet_at(q)`` gives the fields' values (..., 8) and
    gradients (..., 4, 8) at points q (..., 4), as :func:`jet_rows` does.  The
    transformed field is f'(x) = L f(M x), M = L_V^{-1}, with L the spinor
    transformation (bar_star of it for a B-valued field).  At x' = L_V p the
    chain rule gives d_rho f'(x') = L sum_sigma M[sigma, rho] (d_sigma f)(M x').
    """
    _require_spinor(tag)
    factor = lam if tag is SubspaceTag.A else bar_star_rows(lam)
    m = eta_inverse_transform(lv)
    value, grads = jet_at((m @ (lv @ points[..., None]))[..., 0])
    # one rho at a time keeps the temporaries at one product per row
    pulled = np.swapaxes(m, -1, -2) @ grads
    moved = np.stack([mul_rows(factor, pulled[..., rho, :]) for rho in range(4)], axis=-2)
    transformed = bilinear_rows(mul_rows(factor, value), moved)
    return np.abs(transformed - bilinear_rows(*jet_at(points)))


def lorentz_invariance_residual(f: PolyField, theta: Theta, p) -> float:
    """:func:`lorentz_invariance_rows` for one field, parameter and point."""
    def jet_at(q):
        return jet_rows(f.exps, f.coeffs, q)

    lam, lv = lambda_S(theta).c, lambda_V_real(theta)
    return float(lorentz_invariance_rows(f.tag, lam, lv, jet_at, _as_point(p)))


def _require_a_valued(u: PolyField) -> None:
    if u.tag not in (SubspaceTag.A, SubspaceTag.A_MINUS, SubspaceTag.A_PLUS):
        raise DomainViolation("field must take values in the quaternionic subalgebra")


def exp_field_at(u: PolyField, p) -> CplxOcton:
    """exp(u(p)) via the closed form; u must be A-valued."""
    _require_a_valued(u)
    return exp_assoc(eval_at(u, p))


def dexp_rows(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Derivative of exp(u) along a direction in which u changes by du, row by row.

    u and du are quaternionic rows (..., 8), broadcast together.  Differentiates
    exp(s + v) = e^s (cos w + sinc w v), w^2 = <v, v>: with a = <v, dv>,
    d cos w = -sinc w a and d sinc w = ((cos w - sinc w)/w^2) a.  Below
    |w^2| = DEXP_TAYLOR_Z the last factor is summed from its Taylor series.
    """
    u, du = np.broadcast_arrays(u, du)
    if u.ndim == 1:
        # one row's scalars would come out of the ufuncs as numpy scalars, whose
        # own arithmetic can round differently from a block's array loops
        return dexp_rows(u[None], du[None])[0]
    s, v, ds, dv = u[..., 0], u[..., 1:4], du[..., 0], du[..., 1:4]
    z, a = inner_rows(v, v), inner_rows(v, dv)
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


def dexp_at(u: PolyField, mu: int, p) -> CplxOcton:
    """Partial derivative of exp(u) along x_mu at p (see :func:`dexp_rows`)."""
    _require_a_valued(u)
    return CplxOcton._wrap(dexp_rows(*_jet_along(u, mu, p)))
