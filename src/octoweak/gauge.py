"""SU(2)xU(1) gauge sector: connection transport and covariant derivatives.

Gauge parameters are anti-Hermitian fields (values in the minus eigenspace
of bar-star inside the quaternionic subalgebra, the Lie algebra
su(2) + u(1)); group elements are their exponentials.  The inverse of
exp(u) is always taken as exp(-u), which is exact on the exponential
image and immune to the algebra's zero divisors.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CplxOcton,
    abs_rows,
    associator_rows,
    bar_star_rows,
    conj_oct_rows,
    exp_rows,
    mul_rows,
    rowwise,
    single,
)
from .errors import DomainViolation
from .fields import PolyField, _jet, _jet_along, bilinear_rows, dexp_rows
from .grading import SubspaceTag, require_member
from .lorentz import lambda_S

#: Forms 1 and 3 of the complement covariant derivative must agree this well.
FORM_AGREEMENT_TOL = 1e-12


class ConnectionField:
    """Four anti-Hermitian component fields W_0..W_3."""

    __slots__ = ("components",)

    def __init__(self, components) -> None:
        comps = tuple(components)
        if len(comps) != 4:
            raise ValueError("a connection has exactly 4 components")
        for k, w in enumerate(comps):
            if not isinstance(w, PolyField) or w.tag is not SubspaceTag.A_MINUS:
                raise DomainViolation(f"component {k} must be an A- tagged field")
        self.components = comps

    def __getitem__(self, rho: int) -> PolyField:
        return self.components[rho]

    @classmethod
    def zero(cls) -> "ConnectionField":
        return cls([PolyField.zero(SubspaceTag.A_MINUS) for _ in range(4)])


def require_gauge_param(u: PolyField, name: str = "gauge parameter") -> None:
    if not isinstance(u, PolyField) or u.tag is not SubspaceTag.A_MINUS:
        raise DomainViolation(f"{name} must be an A- tagged field")


def _require_field_tag(f: PolyField, tag: SubspaceTag, name: str) -> None:
    if not isinstance(f, PolyField) or f.tag is not tag:
        raise DomainViolation(f"{name} must be a {tag.value} tagged field")


# The *_rows functions take the values and derivatives of the fields at the
# point, one sample per row: (..., 8) arrays, with the leading axes broadcast
# together.  u is the gauge parameter, du its derivative along x_rho, w the
# value of W_rho.  The PolyField-taking functions evaluate one sample as a
# block of one row and return it through core.single.


def transport_rows(w, u, du) -> np.ndarray:
    """Transported connection U w U^-1 - (d_rho U) U^-1, U = exp(u), row by row."""
    return _transport(w, u, du, exp_rows(-u))


def _transport(w, u, du, u_inv) -> np.ndarray:
    # transport_rows with U^-1 = exp(-u) given
    return mul_rows(mul_rows(exp_rows(u), w), u_inv) - mul_rows(dexp_rows(u, du), u_inv)


def cov_der_alpha_rows(a, da, w) -> np.ndarray:
    """D_rho alpha = d_rho alpha - alpha W_rho, row by row."""
    return da - mul_rows(a, w)


def cov_der_beta_rows(b, db, w, r) -> np.ndarray:
    """D_rho beta = d_rho beta + r beta Scal(W_rho), row by row, weights r (...,).

    Computed through the scalar-part form; the symmetrized form
    (r/2)(beta W + W beta) is evaluated alongside and must agree on every
    row, which pins the exchange identity the equivalence rests on.
    """
    r = np.asarray(r)[..., None]
    form3 = db + (r * w[..., :1]) * b
    form1 = db + (0.5 * r) * (mul_rows(b, w) + mul_rows(w, b))
    if np.any(abs_rows(form3 - form1) > FORM_AGREEMENT_TOL * np.maximum(1.0, abs_rows(form3))):
        raise ArithmeticError("covariant-derivative forms disagree")
    return form3


def _require_gauge_rows(u, w=None) -> None:
    require_member(u, SubspaceTag.A_MINUS, "gauge parameter value")
    if w is not None:
        require_member(w, SubspaceTag.A_MINUS, "W value")


def global_alpha_rows(a, grads, u) -> np.ndarray:
    """Change of the derivative bilinear under alpha -> alpha exp(-u), row by row.

    Takes alpha's values (..., 8) and gradients (..., 4, 8) and constant
    parameters u (..., 8); vanishes exactly when bar_star(u) = -u.
    """
    require_member(a, SubspaceTag.A, "alpha value")
    require_member(u, SubspaceTag.A, "u")
    big_u_inv = exp_rows(-u)
    moved = np.stack([mul_rows(grads[..., rho, :], big_u_inv) for rho in range(4)], axis=-2)
    primed = bilinear_rows(mul_rows(a, big_u_inv), moved)
    return np.abs(primed - bilinear_rows(a, grads))


def covariance_alpha_rows(a, da, w, u, du) -> np.ndarray:
    """|| D_rho(alpha') with transported W  -  (D_rho alpha) U^-1 ||, row by row."""
    require_member(a, SubspaceTag.A, "alpha value")
    _require_gauge_rows(u, w)
    u_inv = exp_rows(-u)
    # d_rho(alpha U^-1) via the product rule; the U^-1 factor differentiates
    # through the closed-form derivative of exp(-u)
    d_aprime = mul_rows(da, u_inv) + mul_rows(a, dexp_rows(-u, -du))
    primed = d_aprime - mul_rows(mul_rows(a, u_inv), _transport(w, u, du, u_inv))
    return abs_rows(primed - mul_rows(cov_der_alpha_rows(a, da, w), u_inv))


def covariance_beta_rows(b, db, w, u, du, r) -> np.ndarray:
    """|| D_rho(beta') with transported W  -  (D_rho beta) exp(r Scal(u)) ||, row by row."""
    require_member(b, SubspaceTag.B, "beta value")
    _require_gauge_rows(u, w)
    r = np.asarray(r)
    phase = np.exp(r * u[..., 0])
    d_phase = r * du[..., 0] * phase
    d_bprime = db * phase[..., None] + b * d_phase[..., None]
    w_scal = r * transport_rows(w, u, du)[..., 0]
    primed = d_bprime + w_scal[..., None] * (b * phase[..., None])
    return abs_rows(primed - cov_der_beta_rows(b, db, w, r) * phase[..., None])


def scal_der_u_rows(u, du) -> np.ndarray:
    """<1, (d_rho U) U^-1> - <1, d_rho u>, row by row; zero for exponential group elements."""
    _require_gauge_rows(u)
    return mul_rows(dexp_rows(u, du), exp_rows(-u))[..., 0] - du[..., 0]


def scal_ww_rows(w, u, du) -> np.ndarray:
    """Scal(W' - W) + Scal(d_rho u), row by row; zero under the connection transport law."""
    _require_gauge_rows(u, w)
    return (transport_rows(w, u, du) - w)[..., 0] + du[..., 0]


def _value(f: PolyField, p) -> np.ndarray:
    return _jet_along(f, 0, p)[0]


def global_alpha_invariance_residual(alpha: PolyField, u_const: CplxOcton, p) -> float:
    """Change of the derivative bilinear under the constant transformation
    alpha -> alpha exp(-u).  Vanishes exactly when bar_star(u) = -u.
    """
    _require_field_tag(alpha, SubspaceTag.A, "alpha")
    with np.errstate(all="ignore"):
        return single(global_alpha_rows(*_jet(alpha, p), u_const.c[None]))


def covariance_residual_alpha(
    alpha: PolyField, W: ConnectionField, u: PolyField, rho: int, p
) -> float:
    """|| D_rho(alpha') with transported W  -  (D_rho alpha) U^-1 ||."""
    _require_field_tag(alpha, SubspaceTag.A, "alpha")
    require_gauge_param(u)
    with np.errstate(all="ignore"):
        a, da = _jet_along(alpha, rho, p)
        return single(covariance_alpha_rows(a, da, _value(W[rho], p), *_jet_along(u, rho, p)))


def covariance_residual_beta(
    beta: PolyField, W: ConnectionField, u: PolyField, rho: int, p, r: float
) -> float:
    """|| D_rho(beta') with transported W  -  (D_rho beta) exp(r Scal(u)) ||."""
    _require_field_tag(beta, SubspaceTag.B, "beta")
    require_gauge_param(u)
    with np.errstate(all="ignore"):
        b, db = _jet_along(beta, rho, p)
        return single(covariance_beta_rows(b, db, _value(W[rho], p), *_jet_along(u, rho, p), r))


def scal_der_u_residual(u: PolyField, mu: int, p) -> complex:
    """<1, (d_mu U) U^-1> - <1, d_mu u>; zero for exponential group elements."""
    require_gauge_param(u)
    with np.errstate(all="ignore"):
        return single(scal_der_u_rows(*_jet_along(u, mu, p)))


def scal_ww_residual(W: ConnectionField, u: PolyField, rho: int, p) -> complex:
    """Scal(W' - W) + Scal(d_rho u); zero under the connection transport law."""
    require_gauge_param(u)
    with np.errstate(all="ignore"):
        return single(scal_ww_rows(_value(W[rho], p), *_jet_along(u, rho, p)))


@rowwise
def general_coupling_residual(r1, r2, theta, w_val, beta_val):
    """Associator obstruction || [bar_star(L), r1 W + r2 conj_oct(W), beta] ||.

    Vanishes for every spinor transformation exactly when the middle slot is
    a pure scalar, i.e. when r1 = r2; unequal weights leave a vector part
    that fails to associate.  Takes single values (a float comes back) or
    row arrays: weights (n,), parameters (n, 4, 4), values (n, 8).
    """
    require_member(w_val, SubspaceTag.A_MINUS, "W value")
    require_member(beta_val, SubspaceTag.B, "beta value")
    middle = np.asarray(r1)[..., None] * w_val + np.asarray(r2)[..., None] * conj_oct_rows(w_val)
    lam = bar_star_rows(lambda_S(theta))
    return abs_rows(associator_rows(lam, middle, beta_val))
