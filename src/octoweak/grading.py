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
    conj_oct_rows,
    inner_rows,
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

#: Each table row unit * e_slot is one of the 16 real coordinates of a value
#: (x.view(float64)): per tag, the real slot of each row, in row order.
_SLOTS = {tag: np.nonzero(m.view(np.float64))[1] for tag, m in _DOF.items()}

#: Per tag, the orthogonal projector on the 16 real coordinates.  The rows of
#: R = m.view(float64) are distinct unit coordinate vectors, so the projector
#: R^T R is diagonal, 1 at the table entry's slots and 0 elsewhere: kept as
#: that diagonal.
_MASK = {tag: np.bincount(slots, minlength=16).astype(np.float64) for tag, slots in _SLOTS.items()}

for _table in (*_SLOTS.values(), *_MASK.values()):
    _table.flags.writeable = False


def ndof(tag: SubspaceTag) -> int:
    """Number of real parameters of the tagged subspace (the rows of its table entry)."""
    return len(_DOF[tag])


@rowwise
def project(x, tag: SubspaceTag):
    """Orthogonal projection onto the tagged subspace, of a value or row by row."""
    real = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return (real * _MASK[tag]).view(np.complex128)


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
    return CplxOcton._wrap(dof_rows(tag, rng.uniform(-bound, bound, size=ndof(tag))))


def dof_rows(tag: SubspaceTag, dof: np.ndarray) -> np.ndarray:
    """Elements, (..., 8), from real coefficients (..., ndof) on the tag's table rows.

    Each coefficient is written to its row's real slot of a zeroed value.
    """
    out = np.zeros(np.shape(dof)[:-1] + (16,))
    out[..., _SLOTS[tag]] = dof
    return out.view(np.complex128)


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


# The six exchange identities on rows, unchecked: a, a' in A and b, b' in B.
# Each takes the products ab = a b, ba = b a and bb2 = b b' it reads, which
# several identities share.


def _ab(a, b, ab):
    return ab - mul_rows(b, conj_oct_rows(a))


def _aab(a, a2, b, ab):
    return mul_rows(mul_rows(a, a2), b) - mul_rows(a2, ab)


def _baa(a, a2, b, ba):
    return mul_rows(b, mul_rows(a2, a)) - mul_rows(ba, a2)


def _bba(a, b2, ab, bb2):
    return mul_rows(bb2, a) - mul_rows(ab, b2)


def _abb(a, b, b2, ba):
    return mul_rows(a, mul_rows(b2, b)) - mul_rows(b2, ba)


def _abba(a, a2, b2, ab, bb2):
    return mul_rows(ab, mul_rows(b2, a2)) - mul_rows(mul_rows(a2, bb2), a)


def _require_ab_pairs(a, a2, b, b2):
    for x, name in ((a, "a"), (a2, "a'")):
        if x is not None:
            require_member(x, SubspaceTag.A, name)
    for x, name in ((b, "b"), (b2, "b'")):
        if x is not None:
            require_member(x, SubspaceTag.B, name)


@rowwise
def residual_ab(a, b):
    """a b - b conj_oct(a), for a in A and b in B."""
    _require_ab_pairs(a, None, b, None)
    return _ab(a, b, mul_rows(a, b))


@rowwise
def residual_aab(a, a2, b):
    """(a a')b - a'(a b)  [order of the A factors reverses]."""
    _require_ab_pairs(a, a2, b, None)
    return _aab(a, a2, b, mul_rows(a, b))


@rowwise
def residual_baa(a, a2, b):
    """b(a' a) - (b a)a'  [order of the A factors reverses]."""
    _require_ab_pairs(a, a2, b, None)
    return _baa(a, a2, b, mul_rows(b, a))


@rowwise
def residual_bba(a, b, b2):
    """(b b')a - (a b)b'  [order of the B factors does not reverse]."""
    _require_ab_pairs(a, None, b, b2)
    return _bba(a, b2, mul_rows(a, b), mul_rows(b, b2))


@rowwise
def residual_abb(a, b, b2):
    """a(b' b) - b'(b a)  [order of the B factors does not reverse]."""
    _require_ab_pairs(a, None, b, b2)
    return _abb(a, b, b2, mul_rows(b, a))


@rowwise
def residual_abba(a, a2, b, b2):
    """(a b)(b' a') - a'(b b')a; the right side associates since b b' lands in A."""
    _require_ab_pairs(a, a2, b, b2)
    return _abba(a, a2, b2, mul_rows(a, b), mul_rows(b, b2))


def exchange_residuals(a, a2, b, b2) -> list[np.ndarray]:
    """The six residuals residual_ab .. residual_abba of (..., 8) rows, in that order.

    Each input is checked once, not once per identity that reads it, and the
    shared products a b, b a and b b' are formed once: 19 products a block
    instead of 24.
    """
    _require_ab_pairs(a, a2, b, b2)
    ab, ba, bb2 = mul_rows(a, b), mul_rows(b, a), mul_rows(b, b2)
    return [
        _ab(a, b, ab),
        _aab(a, a2, b, ab),
        _baa(a, a2, b, ba),
        _bba(a, b2, ab, bb2),
        _abb(a, b, b2, ba),
        _abba(a, a2, b2, ab, bb2),
    ]


@rowwise
def residual_zvengrowski(x, y, z):
    """x(y~ z) + y(x~ z) - 2<x,y>z; holds on the whole algebra."""
    lhs = mul_rows(x, mul_rows(conj_oct_rows(y), z)) + mul_rows(y, mul_rows(conj_oct_rows(x), z))
    return lhs - (2.0 * inner_rows(x, y))[..., None] * z


def ipmove_residuals(x, y, z) -> list[np.ndarray]:
    """LHS - RHS of the four inner-product moves of (..., 8) rows, in IPMoveForm order.

    The products x y, x~ z and z y~ the forms share, and the inner products
    <xy, z> and <z, xy>, are formed once: 3 products a block instead of 8.
    """
    xy, xz, zy = mul_rows(x, y), mul_rows(conj_oct_rows(x), z), mul_rows(z, conj_oct_rows(y))
    xy_z, z_xy = inner_rows(xy, z), inner_rows(z, xy)
    return [
        xy_z - inner_rows(y, xz),  # LL
        xy_z - inner_rows(x, zy),  # LR
        z_xy - inner_rows(xz, y),  # RL
        z_xy - inner_rows(zy, x),  # RR
    ]


_IPMOVE_FORMS = tuple(IPMoveForm)


@rowwise
def residual_ipmove(form: IPMoveForm, x, y, z):
    """LHS - RHS of the selected inner-product move: its entry of :func:`ipmove_residuals`."""
    if form not in _IPMOVE_FORMS:
        raise ValueError(f"unhandled form {form}")
    return ipmove_residuals(x, y, z)[_IPMOVE_FORMS.index(form)]


#: Closure table of the grading: products of A/B land here.
AB_CLOSURE = {
    (SubspaceTag.A, SubspaceTag.A): SubspaceTag.A,
    (SubspaceTag.A, SubspaceTag.B): SubspaceTag.B,
    (SubspaceTag.B, SubspaceTag.A): SubspaceTag.B,
    (SubspaceTag.B, SubspaceTag.B): SubspaceTag.A,
}


def closure_defect_rows(x, y, target: SubspaceTag) -> np.ndarray:
    """The part of each product x y outside ``target``, over max(1, |x y|), row by row."""
    p = mul_rows(x, y)
    return membership_defect(p, target) / np.maximum(1.0, abs_rows(p))
