"""SU(2)xU(1) gauge sector: connection transport and covariant derivatives.

Gauge parameters are anti-Hermitian fields (values in the minus eigenspace
of bar-star inside the quaternionic subalgebra, the Lie algebra
su(2) + u(1)); group elements are their exponentials.  The inverse of
exp(u) is always taken as exp(-u), which is exact on the exponential
image and immune to the algebra's zero divisors.
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import (
    CplxOcton,
    abs_rows,
    associator_rows,
    bar_star_rows,
    conj_oct_rows,
    exp_assoc,
    mul,
    rowwise,
    scal,
)
from .errors import DomainViolation
from .fields import PolyField, dexp_at, dirac_scalar, eval_at, partial
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


def transform_W_at(W: ConnectionField, u: PolyField, rho: int, p) -> CplxOcton:
    """Transported connection U W_rho U^-1 - (d_rho U) U^-1 at a point."""
    require_gauge_param(u)
    uval = eval_at(u, p)
    big_u = exp_assoc(uval)
    big_u_inv = exp_assoc(-uval)
    d_u = dexp_at(u, rho, p)
    wval = eval_at(W[rho], p)
    return mul(mul(big_u, wval), big_u_inv) - mul(d_u, big_u_inv)


def cov_der_alpha_at(alpha: PolyField, W: ConnectionField, rho: int, p) -> CplxOcton:
    """D_rho alpha = d_rho alpha - alpha W_rho at a point."""
    _require_field_tag(alpha, SubspaceTag.A, "alpha")
    return eval_at(partial(alpha, rho), p) - mul(eval_at(alpha, p), eval_at(W[rho], p))


def cov_der_beta_at(
    beta: PolyField, W: ConnectionField, rho: int, p, r: float
) -> CplxOcton:
    """D_rho beta = d_rho beta + r beta Scal(W_rho) at a point.

    Computed through the scalar-part form; the symmetrized form
    (r/2)(beta W + W beta) is evaluated alongside and must agree, which
    pins the exchange identity the equivalence rests on.
    """
    _require_field_tag(beta, SubspaceTag.B, "beta")
    db = eval_at(partial(beta, rho), p)
    bval = eval_at(beta, p)
    wval = eval_at(W[rho], p)
    form3 = db + (r * scal(wval)) * bval
    form1 = db + (0.5 * r) * (mul(bval, wval) + mul(wval, bval))
    if abs(form3 - form1) > FORM_AGREEMENT_TOL * max(1.0, abs(form3)):
        raise ArithmeticError("covariant-derivative forms disagree")
    return form3


def transform_alpha_gauge_at(alpha: PolyField, u: PolyField, p) -> CplxOcton:
    """alpha' = alpha U^-1 at a point."""
    _require_field_tag(alpha, SubspaceTag.A, "alpha")
    require_gauge_param(u)
    return mul(eval_at(alpha, p), exp_assoc(-eval_at(u, p)))


def transform_beta_gauge_at(beta: PolyField, u: PolyField, p, r: float) -> CplxOcton:
    """beta' = beta exp(r Scal(u)) at a point; the factor is a U(1) phase."""
    _require_field_tag(beta, SubspaceTag.B, "beta")
    require_gauge_param(u)
    return eval_at(beta, p) * cmath.exp(r * scal(eval_at(u, p)))


def global_alpha_invariance_residual(alpha: PolyField, u_const: CplxOcton, p) -> float:
    """Change of the derivative bilinear under the constant transformation
    alpha -> alpha exp(-u).  Vanishes exactly when bar_star(u) = -u.
    """
    _require_field_tag(alpha, SubspaceTag.A, "alpha")
    require_member(u_const, SubspaceTag.A, "u")
    alpha_prime = alpha.scale_right(exp_assoc(-u_const))
    return abs(dirac_scalar(alpha_prime, p) - dirac_scalar(alpha, p))


def covariance_residual_alpha(
    alpha: PolyField, W: ConnectionField, u: PolyField, rho: int, p
) -> float:
    """|| D_rho(alpha') with transported W  -  (D_rho alpha) U^-1 ||."""
    _require_field_tag(alpha, SubspaceTag.A, "alpha")
    require_gauge_param(u)
    uval = eval_at(u, p)
    u_inv = exp_assoc(-uval)
    aval = eval_at(alpha, p)
    # d_rho(alpha U^-1) via the product rule; the U^-1 factor differentiates
    # through the closed-form derivative of exp(-u)
    d_aprime = mul(eval_at(partial(alpha, rho), p), u_inv) + mul(
        aval, dexp_at(-u, rho, p)
    )
    w_prime = transform_W_at(W, u, rho, p)
    primed = d_aprime - mul(mul(aval, u_inv), w_prime)
    reference = mul(cov_der_alpha_at(alpha, W, rho, p), u_inv)
    return abs(primed - reference)


def covariance_residual_beta(
    beta: PolyField, W: ConnectionField, u: PolyField, rho: int, p, r: float
) -> float:
    """|| D_rho(beta') with transported W  -  (D_rho beta) exp(r Scal(u)) ||."""
    _require_field_tag(beta, SubspaceTag.B, "beta")
    require_gauge_param(u)
    uval = eval_at(u, p)
    phase = cmath.exp(r * scal(uval))
    bval = eval_at(beta, p)
    d_phase = r * scal(eval_at(partial(u, rho), p)) * phase
    d_bprime = eval_at(partial(beta, rho), p) * phase + bval * d_phase
    w_prime = transform_W_at(W, u, rho, p)
    primed = d_bprime + (r * scal(w_prime)) * (bval * phase)
    reference = cov_der_beta_at(beta, W, rho, p, r) * phase
    return abs(primed - reference)


def scal_der_u_residual(u: PolyField, mu: int, p) -> complex:
    """<1, (d_mu U) U^-1> - <1, d_mu u>; zero for exponential group elements."""
    require_gauge_param(u)
    lhs = scal(mul(dexp_at(u, mu, p), exp_assoc(-eval_at(u, p))))
    rhs = scal(eval_at(partial(u, mu), p))
    return lhs - rhs


def scal_ww_residual(W: ConnectionField, u: PolyField, rho: int, p) -> complex:
    """Scal(W' - W) + Scal(d_rho u); zero under the connection transport law."""
    require_gauge_param(u)
    shift = scal(transform_W_at(W, u, rho, p) - eval_at(W[rho], p))
    return shift + scal(eval_at(partial(u, rho), p))


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
