"""Subspace grading of the complexified octonions.

The algebra splits as the quaternionic span A = {1, e1, e2, e3} plus its
complement B = {e4, ..., e7} (both over C), with the product landing in
the subspace dictated by the closure table A*A = A, A*B = B*A = B,
B*B = A.  The combined bar-star conjugation further splits A into real
4-parameter eigenspaces; the minus eigenspace (spanned over R by
i, e1, e2, e3) is the anti-Hermitian sector used for gauge parameters.

The residual evaluators return left-hand side minus right-hand side of an
identity, or, for a family of identities, the list of them; their contract
is to vanish within tolerance.  They take single values or (..., 8)
coefficient arrays evaluated row by row.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import (
    CplxOcton,
    abs_rows,
    apply_right_rows,
    conj_oct,
    inner,
    mul,
    right_rows,
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

#: Per tag, the projector on the complement: 1 - _MASK.
_COMPLEMENT = {tag: 1.0 - mask for tag, mask in _MASK.items()}

for _table in (*_SLOTS.values(), *_MASK.values(), *_COMPLEMENT.values()):
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
    # tolerance.  A block whose complement coordinates are all exactly zero,
    # and whose coordinates are all finite, has defect +0.0 on every row, the
    # bits the full route gives it: the complement projection times any finite
    # coordinate is +-0, times an inf or NaN is NaN, so one test finds such a
    # block.  The bound MEMBERSHIP_TOL * max(1, |x|) is at least
    # MEMBERSHIP_TOL, so |x| is needed only when some defect exceeds that
    real = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    if not (real * _COMPLEMENT[tag]).any():
        defect = np.zeros(real.shape[:-1])[()]  # a scalar for one row, as abs_rows gives
        return defect, defect <= MEMBERSHIP_TOL
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
def require_member(x, tag: SubspaceTag, name: str = "argument") -> None:
    """Raise :class:`DomainViolation` unless x, or every row of x, is in the
    subspace; a value that is not finite raises OverflowError instead."""
    defect, ok = _membership(x, tag)
    if not ok.all():
        if not np.isfinite(defect).all():
            raise OverflowError(f"{name} is not finite")
        worst = float(np.max(np.where(ok, 0.0, defect)))
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


def params_rows(tag: SubspaceTag, rows) -> np.ndarray:
    """Real coefficients (..., ndof) on the tag's table rows, from elements (..., 8).

    The inverse of :func:`dof_rows` on the subspace: each row's real slot is read,
    so a value off the subspace comes back as its projection.
    """
    return np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)[..., _SLOTS[tag]]


def sample(tag: SubspaceTag, rng_seed: int, bound: float = 1.0) -> CplxOcton:
    """Deterministic single draw: same seed, same element."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return draw(tag, np.random.default_rng(rng_seed), bound)


# The residuals take CplxOcton arguments, or (..., 8) arrays whose rows are
# checked and evaluated together (see core.rowwise).  A family kernel returns
# one entry per law of its family, in the order of its docstring.


@rowwise
def exchange_residuals(a, a2, b, b2):
    """LHS - RHS of the six exchange identities, for a, a' in A and b, b' in B:

        a b = b conj_oct(a)
        (a a')b = a'(a b)       b(a' a) = (b a)a'   [the A factors reverse]
        (b b')a = (a b)b'       a(b' b) = b'(b a)   [the B factors do not]
        (a b)(b' a') = a'(b b')a   [the right side associates: b b' is in A]

    Each input is checked once, and the products a b, b a and b b' that
    several identities read are formed once: 19 products a block instead of 24.
    The right factors a, a', b and b' are gathered once each (see
    :func:`core.right_rows`): 11 gathers instead of 19.  b' is kept for its
    second product, (a b) b', and each other shared matrix is freed before the
    next is gathered, so at most two are alive at once.
    """
    for x, tag, name in ((a, SubspaceTag.A, "a"), (a2, SubspaceTag.A, "a'"),
                         (b, SubspaceTag.B, "b"), (b2, SubspaceTag.B, "b'")):
        require_member(x, tag, name)
    by_b2 = right_rows(b2)
    bb2 = apply_right_rows(b, by_b2)
    ba, a2a, bb2_a, a2bb2_a = _times(a, b, a2, bb2, mul(a2, bb2))
    aa2, b2a2, ba_a2 = _times(a2, a, b2, ba)
    ab, b2b, aa2_b = _times(b, a, b2, aa2)
    fourth = bb2_a - apply_right_rows(ab, by_b2)
    del by_b2  # the last products gather their own matrices: one alive at a time
    return [
        ab - mul(b, conj_oct(a)),
        aa2_b - mul(a2, ab),
        mul(b, a2a) - ba_a2,
        fourth,
        mul(a, b2b) - mul(b2, ba),
        mul(ab, b2a2) - a2bb2_a,
    ]


def _times(y, *xs) -> list:
    # x y for each x, with y's right-multiplication matrix gathered once and
    # freed on return
    by_y = right_rows(y)
    return [apply_right_rows(x, by_y) for x in xs]


@rowwise
def residual_zvengrowski(x, y, z):
    """x(y~ z) + y(x~ z) - 2<x,y>z; holds on the whole algebra.  z's matrix is
    gathered once: 3 gathers a block instead of 4."""
    yz, xz = _times(z, conj_oct(y), conj_oct(x))
    lhs = mul(x, yz) + mul(y, xz)
    return lhs - (2.0 * inner(x, y))[..., None] * z


@rowwise
def ipmove_residuals(x, y, z):
    """LHS - RHS of the four moves of a factor across the inner product:

        LL  <xy, z> = <y, x~ z>        LR  <xy, z> = <x, z y~>
        RL  <z, xy> = <x~ z, y>        RR  <z, xy> = <z y~, x>

    The products x y, x~ z and z y~ the moves share, and the inner products
    <xy, z> and <z, xy>, are formed once: 3 products a block instead of 8.
    """
    xy, xz, zy = mul(x, y), mul(conj_oct(x), z), mul(z, conj_oct(y))
    xy_z, z_xy = inner(xy, z), inner(z, xy)
    return [xy_z - inner(y, xz), xy_z - inner(x, zy), z_xy - inner(xz, y), z_xy - inner(zy, x)]


#: Closure table of the grading: products of A/B land here.
AB_CLOSURE = {
    (SubspaceTag.A, SubspaceTag.A): SubspaceTag.A,
    (SubspaceTag.A, SubspaceTag.B): SubspaceTag.B,
    (SubspaceTag.B, SubspaceTag.A): SubspaceTag.B,
    (SubspaceTag.B, SubspaceTag.B): SubspaceTag.A,
}


def closure_defect_rows(x, y, target: SubspaceTag) -> np.ndarray:
    """The part of each product x y outside ``target``, over max(1, |x y|), row by row."""
    p = mul(x, y)
    return membership_defect(p, target) / np.maximum(1.0, abs_rows(p))
