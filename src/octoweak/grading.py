"""Subspace grading of the complexified octonions.

The algebra splits as the quaternionic span A = {1, e1, e2, e3} plus its
complement B = {e4, ..., e7} (both over C), with the product landing in
the subspace dictated by the closure table A*A = A, A*B = B*A = B,
B*B = A.  The combined bar-star conjugation further splits A into real
4-parameter eigenspaces; the minus eigenspace (spanned over R by
i, e1, e2, e3) is the anti-Hermitian sector used for gauge parameters.

The ``residual_*`` evaluators return left-hand side minus right-hand side
of an exchange identity; their contract is to vanish within tolerance.
They take single values or (..., 8) coefficient arrays evaluated row by
row.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import (
    CplxOcton,
    abs_rows,
    bar_star,
    conj_oct_rows,
    inner_rows,
    mul,
    mul_rows,
    rowwise,
)
from .errors import DomainViolation

#: A vector is "in" a subspace when its complementary projection is below
#: this tolerance times max(1, its magnitude).
MEMBERSHIP_TOL = 1e-10


class SubspaceTag(Enum):
    FULL_CO = "full"
    A = "A"
    B = "B"
    A_MINUS = "A-"
    A_PLUS = "A+"


class IPMoveForm(Enum):
    """The four ways of moving a factor across the inner product."""

    LL = "LL"  # <xy, z> = <y, x~ z>
    LR = "LR"  # <xy, z> = <x, z y~>
    RL = "RL"  # <z, xy> = <x~ z, y>
    RR = "RR"  # <z, xy> = <z y~, x>


#: The one subspace table: per tag, an (ndof, 8) matrix whose rows unit * e_slot
#: are a real basis of the subspace.  Projections, membership checks and draws
#: all read it; row order fixes how draws consume the RNG stream.
_DOF = {
    tag: np.array([np.eye(8)[a] * unit for a, unit in rows], dtype=np.complex128)
    for tag, rows in {
        SubspaceTag.FULL_CO: [(a, unit) for a in range(8) for unit in (1.0, 1j)],
        SubspaceTag.A: [(a, unit) for a in range(4) for unit in (1.0, 1j)],
        SubspaceTag.B: [(a, unit) for a in range(4, 8) for unit in (1.0, 1j)],
        SubspaceTag.A_MINUS: [(0, 1j), (1, 1.0), (2, 1.0), (3, 1.0)],
        SubspaceTag.A_PLUS: [(0, 1.0), (1, 1j), (2, 1j), (3, 1j)],
    }.items()
}

#: Each table entry as a projector on the 16 real coordinates: the rows of the
#: real form R = m.view(float64) are orthonormal, so Re(x m^H) m = x R^T R.
_PROJECTOR = {tag: m.view(np.float64).T @ m.view(np.float64) for tag, m in _DOF.items()}


def ndof(tag: SubspaceTag) -> int:
    """Number of real parameters of the tagged subspace (the rows of its table entry)."""
    return len(_DOF[tag])


@rowwise
def project(x, tag: SubspaceTag):
    """Orthogonal projection onto the tagged subspace, of a value or row by row."""
    real = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return (real @ _PROJECTOR[tag]).view(np.complex128)


def _membership(rows: np.ndarray, tag: SubspaceTag):
    # per row: the magnitude outside the subspace, and whether it is within
    # tolerance.  The bound MEMBERSHIP_TOL * max(1, |x|) is at least
    # MEMBERSHIP_TOL, so |x| is needed only when some defect exceeds that
    defect = abs_rows(rows - project(rows, tag))
    ok = defect <= MEMBERSHIP_TOL
    if not ok.all():
        ok = defect <= MEMBERSHIP_TOL * np.maximum(1.0, abs_rows(rows))
    return defect, ok


@rowwise
def membership_defect(x, tag: SubspaceTag):
    """Magnitude of the part of x outside the tagged subspace."""
    return _membership(x, tag)[0]


@rowwise
def in_subspace(x, tag: SubspaceTag):
    return _membership(x, tag)[1]


@rowwise
def require_member(x, tag: SubspaceTag, name: str = "argument") -> None:
    """Raise :class:`DomainViolation` unless x, or every row of x, is in the subspace."""
    ok = in_subspace(x, tag)
    if not ok.all():
        worst = float(np.max(np.where(ok, 0.0, membership_defect(x, tag))))
        raise DomainViolation(f"{name} is not in subspace {tag.value} (defect {worst:.3g})")


def draw(tag: SubspaceTag, rng: np.random.Generator, bound: float = 1.0) -> CplxOcton:
    """One element with uniform coefficients on the subspace's real dof."""
    m = _DOF[tag]
    dof = rng.uniform(-bound, bound, size=m.shape[0])
    return CplxOcton._wrap(dof @ m)


def dof_rows(tag: SubspaceTag, dof: np.ndarray) -> np.ndarray:
    """Elements, (..., 8), from real coefficients (..., ndof) on the tag's table rows."""
    return dof @ _DOF[tag]


def draw_rows(
    tag: SubspaceTag, rng: np.random.Generator, n: int, bound: float = 1.0
) -> np.ndarray:
    """n elements as the rows of an (n, 8) array, in one call.

    The values and the generator state afterwards are those of n calls of
    :func:`draw`.
    """
    return dof_rows(tag, rng.uniform(-bound, bound, size=(n, ndof(tag))))


def sample(tag: SubspaceTag, rng_seed: int, bound: float = 1.0) -> CplxOcton:
    """Deterministic single draw: same seed, same element."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return draw(tag, np.random.default_rng(rng_seed), bound)


# The residuals take CplxOcton arguments, or (..., 8) arrays whose rows are
# checked and evaluated together (see core.rowwise).


@rowwise
def residual_ab(a, b):
    """a b - b conj_oct(a), for a in A and b in B."""
    require_member(a, SubspaceTag.A, "a")
    require_member(b, SubspaceTag.B, "b")
    return mul_rows(a, b) - mul_rows(b, conj_oct_rows(a))


def _require_ab_pairs(a, a2, b, b2):
    for x, name in ((a, "a"), (a2, "a'")):
        if x is not None:
            require_member(x, SubspaceTag.A, name)
    for x, name in ((b, "b"), (b2, "b'")):
        if x is not None:
            require_member(x, SubspaceTag.B, name)


@rowwise
def residual_aab(a, a2, b):
    """(a a')b - a'(a b)  [order of the A factors reverses]."""
    _require_ab_pairs(a, a2, b, None)
    return mul_rows(mul_rows(a, a2), b) - mul_rows(a2, mul_rows(a, b))


@rowwise
def residual_baa(a, a2, b):
    """b(a' a) - (b a)a'  [order of the A factors reverses]."""
    _require_ab_pairs(a, a2, b, None)
    return mul_rows(b, mul_rows(a2, a)) - mul_rows(mul_rows(b, a), a2)


@rowwise
def residual_bba(a, b, b2):
    """(b b')a - (a b)b'  [order of the B factors does not reverse]."""
    _require_ab_pairs(a, None, b, b2)
    return mul_rows(mul_rows(b, b2), a) - mul_rows(mul_rows(a, b), b2)


@rowwise
def residual_abb(a, b, b2):
    """a(b' b) - b'(b a)  [order of the B factors does not reverse]."""
    _require_ab_pairs(a, None, b, b2)
    return mul_rows(a, mul_rows(b2, b)) - mul_rows(b2, mul_rows(b, a))


@rowwise
def residual_abba(a, a2, b, b2):
    """(a b)(b' a') - a'(b b')a; the right side associates since b b' lands in A."""
    _require_ab_pairs(a, a2, b, b2)
    return mul_rows(mul_rows(a, b), mul_rows(b2, a2)) - mul_rows(mul_rows(a2, mul_rows(b, b2)), a)


@rowwise
def residual_zvengrowski(x, y, z):
    """x(y~ z) + y(x~ z) - 2<x,y>z; holds on the whole algebra."""
    lhs = mul_rows(x, mul_rows(conj_oct_rows(y), z)) + mul_rows(y, mul_rows(conj_oct_rows(x), z))
    return lhs - (2.0 * inner_rows(x, y))[..., None] * z


@rowwise
def residual_ipmove(form: IPMoveForm, x, y, z):
    """LHS - RHS of the selected inner-product move."""
    if form is IPMoveForm.LL:
        return inner_rows(mul_rows(x, y), z) - inner_rows(y, mul_rows(conj_oct_rows(x), z))
    if form is IPMoveForm.LR:
        return inner_rows(mul_rows(x, y), z) - inner_rows(x, mul_rows(z, conj_oct_rows(y)))
    if form is IPMoveForm.RL:
        return inner_rows(z, mul_rows(x, y)) - inner_rows(mul_rows(conj_oct_rows(x), z), y)
    if form is IPMoveForm.RR:
        return inner_rows(z, mul_rows(x, y)) - inner_rows(mul_rows(z, conj_oct_rows(y)), x)
    raise ValueError(f"unhandled form {form}")


#: Closure table of the grading: products of A/B land here.
AB_CLOSURE = {
    (SubspaceTag.A, SubspaceTag.A): SubspaceTag.A,
    (SubspaceTag.A, SubspaceTag.B): SubspaceTag.B,
    (SubspaceTag.B, SubspaceTag.A): SubspaceTag.B,
    (SubspaceTag.B, SubspaceTag.B): SubspaceTag.A,
}


def ab_lemma_closure_check(
    tag_x: SubspaceTag, tag_y: SubspaceTag, samples: int, seed: int
) -> bool:
    """True iff sampled products land in the subspace the closure table dictates."""
    try:
        target = AB_CLOSURE[(tag_x, tag_y)]
    except KeyError:
        raise ValueError("closure check is defined for tags A and B only") from None
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = draw(tag_x, rng)
        y = draw(tag_y, rng)
        p = mul(x, y)
        if membership_defect(p, target) > MEMBERSHIP_TOL * max(1.0, abs(p)):
            return False
    return True


def pm_split(x: CplxOcton) -> tuple[CplxOcton, CplxOcton]:
    """Decompose x = x_plus + x_minus into bar-star eigenvectors (full algebra)."""
    s = bar_star(x)
    return (x + s) * 0.5, (x - s) * 0.5
