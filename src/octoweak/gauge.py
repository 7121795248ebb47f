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
    abs_rows,
    apply_right_rows,
    associator,
    bar_star,
    conj_oct,
    exp_assoc,
    mul,
    right_rows,
    rowwise,
)
from .fields import bilinear_rows, dexp_rows
from .grading import SubspaceTag, require_member
from .lorentz import lambda_S

# The *_rows functions take the values and derivatives of the fields at the
# point, one sample per row: (..., 8) arrays, with the leading axes broadcast
# together.  u is the gauge parameter, du its derivative along x_rho, w the
# value of W_rho.


def transport_rows(w, u, du) -> np.ndarray:
    """Transported connection U w U^-1 - (d_rho U) U^-1, U = exp(u), row by row."""
    return _transport(w, u, du, right_rows(exp_assoc(-u)))


def _transport(w, u, du, by_u_inv) -> np.ndarray:
    # transport_rows with the right-multiplication matrix of U^-1 = exp(-u) given
    return (apply_right_rows(mul(exp_assoc(u), w), by_u_inv)
            - apply_right_rows(dexp_rows(u, du), by_u_inv))


def cov_der_alpha_rows(a, da, w) -> np.ndarray:
    """D_rho alpha = d_rho alpha - alpha W_rho, row by row."""
    return da - mul(a, w)


def cov_der_beta_rows(b, db, w, r) -> np.ndarray:
    """D_rho beta = d_rho beta + r beta Scal(W_rho), row by row, weights r (...,).

    The scalar-part form of (r/2)(beta W + W beta): the two agree by the
    exchange identity W beta = beta conj_oct(W), as W + conj_oct(W) = 2 Scal(W).
    """
    r = np.asarray(r)[..., None]
    return db + (r * w[..., :1]) * b


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
    # U^-1's matrix is gathered once, and applied to the four gradients in one
    # product broadcast over the rho axis
    by_u_inv = right_rows(exp_assoc(-u))
    moved = apply_right_rows(grads, by_u_inv[..., None, :, :])
    primed = bilinear_rows(apply_right_rows(a, by_u_inv), moved)
    return np.abs(primed - bilinear_rows(a, grads))


def covariance_alpha_rows(a, da, w, u, du) -> np.ndarray:
    """|| D_rho(alpha') with transported W  -  (D_rho alpha) U^-1 ||, row by row."""
    require_member(a, SubspaceTag.A, "alpha value")
    _require_gauge_rows(u, w)
    # U^-1's matrix is gathered once for its five products: 5 gathers a block
    # instead of 9.  d_rho(alpha U^-1) via the product rule; the U^-1 factor
    # differentiates through the closed-form derivative of exp(-u)
    by_u_inv = right_rows(exp_assoc(-u))
    d_aprime = apply_right_rows(da, by_u_inv) + mul(a, dexp_rows(-u, -du))
    primed = d_aprime - mul(apply_right_rows(a, by_u_inv), _transport(w, u, du, by_u_inv))
    return abs_rows(primed - apply_right_rows(cov_der_alpha_rows(a, da, w), by_u_inv))


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
    return mul(dexp_rows(u, du), exp_assoc(-u))[..., 0] - du[..., 0]


def scal_ww_rows(w, u, du) -> np.ndarray:
    """Scal(W' - W) + Scal(d_rho u), row by row; zero under the connection transport law."""
    _require_gauge_rows(u, w)
    return (transport_rows(w, u, du) - w)[..., 0] + du[..., 0]


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
    middle = np.asarray(r1)[..., None] * w_val + np.asarray(r2)[..., None] * conj_oct(w_val)
    lam = bar_star(lambda_S(theta))
    return abs_rows(associator(lam, middle, beta_val))
