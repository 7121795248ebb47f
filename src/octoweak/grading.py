"""Subspace grading of the complexified octonions.

The algebra splits as the quaternionic span A = {1, e1, e2, e3} plus its
complement B = {e4, ..., e7} (both over C), with the product landing in
the subspace dictated by the closure table A*A = A, A*B = B*A = B,
B*B = A.  The combined bar-star conjugation further splits A into real
4-parameter eigenspaces; the minus eigenspace (spanned over R by
i, e1, e2, e3) is the anti-Hermitian sector used for gauge parameters.

The ``residual_*`` evaluators return left-hand side minus right-hand side
of an exchange identity; their contract is to vanish within tolerance.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import CplxOcton, bar_star, conj_oct, inner, mul
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


def project(x: CplxOcton, tag: SubspaceTag) -> CplxOcton:
    """Orthogonal projection onto the tagged subspace."""
    return CplxOcton._wrap((x.c.view(np.float64) @ _PROJECTOR[tag]).view(np.complex128))


def membership_defect(x: CplxOcton, tag: SubspaceTag) -> float:
    """Magnitude of the part of x outside the tagged subspace."""
    return abs(x - project(x, tag))


def in_subspace(x: CplxOcton, tag: SubspaceTag) -> bool:
    return membership_defect(x, tag) <= MEMBERSHIP_TOL * max(1.0, abs(x))


def require_member(x: CplxOcton, tag: SubspaceTag, name: str = "argument") -> None:
    if not in_subspace(x, tag):
        raise DomainViolation(
            f"{name} is not in subspace {tag.value} "
            f"(defect {membership_defect(x, tag):.3g})"
        )


def draw(tag: SubspaceTag, rng: np.random.Generator, bound: float = 1.0) -> CplxOcton:
    """One element with uniform coefficients on the subspace's real dof."""
    m = _DOF[tag]
    coeffs = rng.uniform(-bound, bound, size=m.shape[0])
    return CplxOcton._wrap(coeffs @ m)


def draw_rows(
    tag: SubspaceTag, rng: np.random.Generator, n: int, bound: float = 1.0
) -> np.ndarray:
    """n elements as the rows of an (n, 8) array, in one call.

    The values and the generator state afterwards are those of n calls of
    :func:`draw`.
    """
    m = _DOF[tag]
    return rng.uniform(-bound, bound, size=(n, m.shape[0])) @ m


def sample(tag: SubspaceTag, rng_seed: int, bound: float = 1.0) -> CplxOcton:
    """Deterministic single draw: same seed, same element."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return draw(tag, np.random.default_rng(rng_seed), bound)


def residual_ab(a: CplxOcton, b: CplxOcton) -> CplxOcton:
    """a b - b conj_oct(a), for a in A and b in B."""
    require_member(a, SubspaceTag.A, "a")
    require_member(b, SubspaceTag.B, "b")
    return mul(a, b) - mul(b, conj_oct(a))


def _require_ab_pairs(a, a2, b, b2):
    for x, name in ((a, "a"), (a2, "a'")):
        if x is not None:
            require_member(x, SubspaceTag.A, name)
    for x, name in ((b, "b"), (b2, "b'")):
        if x is not None:
            require_member(x, SubspaceTag.B, name)


def residual_aab(a: CplxOcton, a2: CplxOcton, b: CplxOcton) -> CplxOcton:
    """(a a')b - a'(a b)  [order of the A factors reverses]."""
    _require_ab_pairs(a, a2, b, None)
    return mul(mul(a, a2), b) - mul(a2, mul(a, b))


def residual_baa(a: CplxOcton, a2: CplxOcton, b: CplxOcton) -> CplxOcton:
    """b(a' a) - (b a)a'  [order of the A factors reverses]."""
    _require_ab_pairs(a, a2, b, None)
    return mul(b, mul(a2, a)) - mul(mul(b, a), a2)


def residual_bba(a: CplxOcton, b: CplxOcton, b2: CplxOcton) -> CplxOcton:
    """(b b')a - (a b)b'  [order of the B factors does not reverse]."""
    _require_ab_pairs(a, None, b, b2)
    return mul(mul(b, b2), a) - mul(mul(a, b), b2)


def residual_abb(a: CplxOcton, b: CplxOcton, b2: CplxOcton) -> CplxOcton:
    """a(b' b) - b'(b a)  [order of the B factors does not reverse]."""
    _require_ab_pairs(a, None, b, b2)
    return mul(a, mul(b2, b)) - mul(b2, mul(b, a))


def residual_abba(a: CplxOcton, a2: CplxOcton, b: CplxOcton, b2: CplxOcton) -> CplxOcton:
    """(a b)(b' a') - a'(b b')a; the right side associates since b b' lands in A."""
    _require_ab_pairs(a, a2, b, b2)
    return mul(mul(a, b), mul(b2, a2)) - mul(mul(a2, mul(b, b2)), a)


def residual_zvengrowski(x: CplxOcton, y: CplxOcton, z: CplxOcton) -> CplxOcton:
    """x(y~ z) + y(x~ z) - 2<x,y>z; holds on the whole algebra."""
    lhs = mul(x, mul(conj_oct(y), z)) + mul(y, mul(conj_oct(x), z))
    return lhs - (2.0 * inner(x, y)) * z


def residual_ipmove(
    form: IPMoveForm, x: CplxOcton, y: CplxOcton, z: CplxOcton
) -> complex:
    """LHS - RHS of the selected inner-product move."""
    if form is IPMoveForm.LL:
        return inner(mul(x, y), z) - inner(y, mul(conj_oct(x), z))
    if form is IPMoveForm.LR:
        return inner(mul(x, y), z) - inner(x, mul(z, conj_oct(y)))
    if form is IPMoveForm.RL:
        return inner(z, mul(x, y)) - inner(mul(conj_oct(x), z), y)
    if form is IPMoveForm.RR:
        return inner(z, mul(x, y)) - inner(mul(z, conj_oct(y)), x)
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
