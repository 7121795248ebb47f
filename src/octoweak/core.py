"""Arithmetic of complexified octonions.

An element carries eight complex coefficients over the basis
(1, e1, ..., e7).  The basis product table is generated once at import
time by Cayley-Dickson doubling of the quaternions,

    (a, b)(c, d) = (ac - d~b, da + bc~),        e4 = (0, 1),

with e_{4+i} = e_i e4, and is then frozen as a :class:`StructureTable`.
The span of {1, e1, e2, e3} is the canonical associative (quaternionic)
subalgebra; all of its complements are reached by the doubling step.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NotInAssociativeSubalgebra, ZeroDivisor

#: Componentwise tolerance used by ``==`` and :func:`isclose`.
EQ_TOL = 1e-12

#: Relative scale for declaring a quadratic norm "zero" in :func:`inverse`.
ZERO_DIVISOR_EPS = 1e-12

#: Relative tolerance for the subalgebra membership check in :func:`exp_assoc`.
ASSOC_MEMBERSHIP_TOL = 1e-10

#: Below this magnitude of omega the trigonometric factors of the closed-form
#: exponential switch to their Taylor expansions (4 terms each).
SMALL_ANGLE = 1e-6


def _qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # quaternion product on integer coefficient vectors (1, e1, e2, e3)
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return np.array(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
        ],
        dtype=np.int64,
    )


def _qconj(x: np.ndarray) -> np.ndarray:
    return np.array([x[0], -x[1], -x[2], -x[3]], dtype=np.int64)


@dataclass(frozen=True)
class StructureTable:
    """Signed basis-product table: b_a * b_b = sign[a, b] * b_index[a, b]."""

    sign: np.ndarray
    index: np.ndarray

    @classmethod
    def build(cls) -> "StructureTable":
        sign = np.zeros((8, 8), dtype=np.int8)
        index = np.zeros((8, 8), dtype=np.int8)
        for a in range(8):
            xa = np.zeros(4, np.int64)
            xb = np.zeros(4, np.int64)
            (xa if a < 4 else xb)[a % 4] = 1
            for b in range(8):
                ya = np.zeros(4, np.int64)
                yb = np.zeros(4, np.int64)
                (ya if b < 4 else yb)[b % 4] = 1
                za = _qmul(xa, ya) - _qmul(_qconj(yb), xb)
                zb = _qmul(yb, xa) + _qmul(xb, _qconj(ya))
                z = np.concatenate([za, zb])
                (nz,) = np.nonzero(z)
                if len(nz) != 1 or abs(z[nz[0]]) != 1:
                    raise AssertionError("basis product is not a signed basis element")
                index[a, b] = nz[0]
                sign[a, b] = z[nz[0]]
        sign.flags.writeable = False
        index.flags.writeable = False
        return cls(sign=sign, index=index)

    def format(self) -> str:
        """Render the table as a signed-index text grid."""
        names = ["1"] + [f"e{k}" for k in range(1, 8)]

        def cell(a: int, b: int) -> str:
            s = "+" if self.sign[a, b] > 0 else "-"
            return s + names[self.index[a, b]]

        width = 4
        header = " " * (width + 1) + " ".join(n.rjust(width) for n in names)
        rows = [header]
        for a in range(8):
            rows.append(
                names[a].rjust(width)
                + " "
                + " ".join(cell(a, b).rjust(width) for b in range(8))
            )
        return "\n".join(rows)


_TABLE = StructureTable.build()


def _right_index(table: StructureTable) -> np.ndarray:
    # Each row of the table permutes the basis, so the right-multiplication
    # matrix of y, R[a, c] = sum_b y_b (coefficient of b_c in b_a b_b), has one
    # signed entry per slot: R[a, index[a, b]] = sign[a, b] y_b.  Stored as
    # positions in [y, -y], one gather builds R
    out = np.empty((8, 8), dtype=np.intp)
    for a in range(8):
        out[a, table.index[a]] = np.arange(8) + 8 * (table.sign[a] < 0)
    out.flags.writeable = False
    return out


_RIGHT_INDEX = _right_index(_TABLE)


def structure_table() -> StructureTable:
    """The frozen basis-product table (read-only, shared)."""
    return _TABLE


#: Single-value classes that :func:`rowwise` unwraps, each with the attribute
#: that holds an instance's array.
_SINGLE_VALUES: dict[type, str] = {}


def single_value(attr: str):
    """Class decorator: :func:`rowwise` functions see an instance as its ``attr`` array."""

    def register(cls):
        _SINGLE_VALUES[cls] = attr
        return cls

    return register


def _array_of(a):
    attr = _SINGLE_VALUES.get(type(a))
    return a if attr is None else getattr(a, attr)


@single_value("c")
class CplxOcton:
    """One element of the complexified octonions: 8 complex coefficients.

    Values are immutable after construction; every operation returns a new
    element.  ``*`` multiplies in the algebra when given another element and
    scales coefficientwise when given a real or complex number.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs) -> None:
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (8,):
            raise ValueError(f"expected 8 coefficients, got shape {c.shape}")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        self.c = c

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "CplxOcton":
        # internal fast path: trusts dtype/shape, skips finiteness check
        obj = object.__new__(cls)
        arr.flags.writeable = False
        obj.c = arr
        return obj

    @classmethod
    def zero(cls) -> "CplxOcton":
        return cls._wrap(np.zeros(8, dtype=np.complex128))

    @classmethod
    def one(cls) -> "CplxOcton":
        return cls.scalar(1.0)

    @classmethod
    def scalar(cls, z: complex) -> "CplxOcton":
        c = np.zeros(8, dtype=np.complex128)
        c[0] = z
        return cls._wrap(c)

    @classmethod
    def basis(cls, a: int) -> "CplxOcton":
        if not 0 <= a <= 7:
            raise ValueError("basis index must be in 0..7")
        c = np.zeros(8, dtype=np.complex128)
        c[a] = 1.0
        return cls._wrap(c)

    def __add__(self, other: "CplxOcton") -> "CplxOcton":
        if not isinstance(other, CplxOcton):
            return NotImplemented
        return CplxOcton._wrap(self.c + other.c)

    def __sub__(self, other: "CplxOcton") -> "CplxOcton":
        if not isinstance(other, CplxOcton):
            return NotImplemented
        return CplxOcton._wrap(self.c - other.c)

    def __neg__(self) -> "CplxOcton":
        return CplxOcton._wrap(-self.c)

    def __mul__(self, other):
        if isinstance(other, CplxOcton):
            return mul(self, other)
        if isinstance(other, numbers.Complex):
            return CplxOcton._wrap(self.c * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return CplxOcton._wrap(self.c * complex(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Complex):
            return CplxOcton._wrap(self.c / complex(other))
        return NotImplemented

    def __abs__(self) -> float:
        # Euclidean magnitude of the 16 real components (not the quadratic norm)
        return float(np.linalg.norm(self.c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CplxOcton):
            return NotImplemented
        return bool(np.allclose(self.c, other.c, rtol=EQ_TOL, atol=EQ_TOL))

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        names = ["", "e1", "e2", "e3", "e4", "e5", "e6", "e7"]
        parts = []
        for a, z in enumerate(self.c):
            if z == 0:
                continue
            zs = f"{z:.6g}" if z.imag == 0 else f"({z:.6g})"
            parts.append(zs if a == 0 else f"{zs}{names[a]}")
        return "CplxOcton<" + (" + ".join(parts) if parts else "0") + ">"


#: The multiplicative unit and the eight basis elements.
ONE = CplxOcton.one()
E = tuple(CplxOcton.basis(a) for a in range(8))
IM = CplxOcton.scalar(1j)


def mul(x: CplxOcton, y: CplxOcton) -> CplxOcton:
    """Bilinear product via the frozen structure table (one row of :func:`mul_rows`)."""
    return CplxOcton._wrap(mul_rows(x.c, y.c))


# ------------------------------------------------------------- row kernels
#
# The *_rows functions act row by row on (..., 8) coefficient arrays, with the
# leading axes broadcast together.

def rowwise(fn):
    """Let fn, written on row arrays, also take single values.

    Called with no numpy array among its arguments, fn sees each single value
    (an instance of a :func:`single_value` class) as its array, and its result
    comes back as a single-value routine returns it: an (8,) array as a
    CplxOcton, a 0-d array or numpy scalar as a Python number, anything else
    unchanged.  A CplxOcton's coefficients are finite, so an (8,) result with
    an inf or NaN raises OverflowError; rows carry it for the caller to see.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if any(isinstance(a, np.ndarray) for a in (*args, *kwargs.values())):
            return fn(*args, **kwargs)
        out = fn(*map(_array_of, args), **{k: _array_of(a) for k, a in kwargs.items()})
        if isinstance(out, np.ndarray) and out.shape == (8,):
            if not np.isfinite(out).all():
                raise OverflowError(f"{fn.__name__} of a single value is not finite")
            return CplxOcton._wrap(out)
        if isinstance(out, (np.ndarray, np.generic)) and out.ndim == 0:
            return out.item()
        return out

    # cProfile files calls under the code object; one per decorated function,
    # named after it, keeps their counts and times apart instead of pooled
    # under a single "wrapper"
    wrapper.__code__ = wrapper.__code__.replace(co_name=fn.__name__)
    return wrapper


def mul_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`mul` row by row: each row x times the right-multiplication matrix of y.

    The matrices are gathered from [y, -y] and applied as a stack of (1, 8) @
    (8, 8) products, so a row's product does not depend on the rows around it.
    """
    y = np.asarray(y, dtype=np.complex128)
    right = np.take(np.concatenate([y, -y], axis=-1), _RIGHT_INDEX, axis=-1)
    return (np.asarray(x)[..., None, :] @ right)[..., 0, :]


#: Octonionic conjugation as a sign per slot.
_CONJ_SIGN = np.array([1.0] + [-1.0] * 7)
_CONJ_SIGN.flags.writeable = False


def conj_oct_rows(x: np.ndarray) -> np.ndarray:
    """:func:`conj_oct` row by row."""
    return x * _CONJ_SIGN


def bar_star_rows(x: np.ndarray) -> np.ndarray:
    """:func:`bar_star` row by row."""
    return np.conj(x) * _CONJ_SIGN


def inner_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`inner` row by row: the bilinear sum over the last axis."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:  # broadcasting equal shapes would return them unchanged
        x, y = np.broadcast_arrays(x, y)
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def norm_rows(x: np.ndarray) -> np.ndarray:
    """:func:`norm` row by row."""
    return inner_rows(x, x)


def abs_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean magnitude of each row's 16 real components, as ``abs`` of a value."""
    return np.linalg.norm(x, axis=-1)


def associator_rows(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`associator` row by row."""
    return mul_rows(mul_rows(x, y), z) - mul_rows(x, mul_rows(y, z))


@rowwise
def conj_oct(x):
    """Octonionic conjugation, fixing the scalar slot and negating e1..e7: a value or rows."""
    return conj_oct_rows(x)


def conj_complex(x: CplxOcton) -> CplxOcton:
    """Complex conjugation of every coefficient; basis untouched."""
    return CplxOcton._wrap(np.conj(x.c))


@rowwise
def bar_star(x):
    """Combined octonionic and complex conjugation (an R-linear involution): a value or rows."""
    return bar_star_rows(x)


def scal(x: CplxOcton) -> complex:
    """Scalar part (x + conj_oct(x))/2, returned as a complex number."""
    return complex(x.c[0])


def vec(x: CplxOcton) -> CplxOcton:
    """Vector part (x - conj_oct(x))/2."""
    c = x.c.copy()
    c[0] = 0.0
    return CplxOcton._wrap(c)


@rowwise
def inner(x, y):
    """Symmetric complex-bilinear inner product 2<x,y> = x y~ + y x~: of values or rows.

    Reduces to the coefficient contraction sum_a x_a y_a (no complex
    conjugation: the form is bilinear, not sesquilinear).
    """
    return inner_rows(x, y)


@rowwise
def norm(x):
    """Complex quadratic form N(x) = x * conj_oct(x), multiplicative: of a value or rows."""
    return norm_rows(x)


def inverse(x: CplxOcton) -> CplxOcton:
    """conj_oct(x)/N(x); raises :class:`ZeroDivisor` when N(x) ~ 0."""
    n = norm(x)
    mag2 = float(np.real(np.vdot(x.c, x.c)))
    if abs(n) < ZERO_DIVISOR_EPS * max(1.0, mag2):
        raise ZeroDivisor(f"element has vanishing quadratic norm {n!r}")
    return conj_oct(x) * (1.0 / n)


def commutator(x: CplxOcton, y: CplxOcton) -> CplxOcton:
    return mul(x, y) - mul(y, x)


@rowwise
def associator(x, y, z):
    """[x, y, z] = (xy)z - x(yz): of values or rows."""
    return associator_rows(x, y, z)


@rowwise
def exp_assoc(u):
    """Closed-form exponential on the quaternionic subalgebra: of a value or rows.

    With u = s + v (scalar plus vector part) and omega the principal square
    root of <v, v>:  exp(u) = e^s (cos(omega) + sinc(omega) v).

    Raises :class:`NotInAssociativeSubalgebra` if u has components on
    e4..e7 beyond a scale-relative tolerance, and OverflowError if the
    exponential of a single value overflows.
    """
    return exp_rows(u)


def _cos_sinc_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cos(omega) and sin(omega)/omega as functions of z = omega^2, elementwise.
    # Both are entire in z, so the square-root branch cannot change the result.
    # Where |omega| < SMALL_ANGLE (omega = 0 included) 4-term Taylor sums
    # replace them.  No drawn value comes that close, so the sums are formed
    # only for an array that needs them, elementwise over all of it
    z = np.asarray(z)
    if z.ndim == 0:
        # ufuncs turn 0-d results into numpy scalars, whose own arithmetic can
        # round differently from a block's array loops: 0-d arrays, as a block of one
        cos_w, sinc_w = _cos_sinc_rows(z.reshape(1))
        return cos_w.reshape(()), sinc_w.reshape(())
    om = np.sqrt(z)
    small = np.abs(om) < SMALL_ANGLE
    if not small.any():
        return np.cos(om), np.sin(om) / om
    z2 = z * z
    z3 = z2 * z
    cos_w = np.where(small, 1 - z / 2 + z2 / 24 - z3 / 720, np.cos(om))
    sinc_w = np.where(small, 1 - z / 6 + z2 / 120 - z3 / 5040, np.sin(om) / np.where(small, 1, om))
    return cos_w, sinc_w


def exp_rows(u: np.ndarray) -> np.ndarray:
    """:func:`exp_assoc` row by row, with its membership check.

    Floating-point overflow is not an error here: a row whose exponential
    overflows comes out as inf or NaN, for the caller's residual to report.
    """
    tail = np.max(np.abs(u[..., 4:]), axis=-1)
    bad = tail > ASSOC_MEMBERSHIP_TOL * np.maximum(1.0, abs_rows(u))
    if np.any(bad):
        raise NotInAssociativeSubalgebra(
            f"argument has components outside span{{1,e1,e2,e3}} (max {np.max(tail[bad]):.3g})"
        )
    v = u[..., 1:4]
    with np.errstate(over="ignore", invalid="ignore"):
        cos_w, sinc_w = _cos_sinc_rows(inner_rows(v, v))
        es = np.exp(u[..., 0])
        out = np.zeros(u.shape, dtype=np.complex128)
        out[..., 0] = es * cos_w
        out[..., 1:4] = (es * sinc_w)[..., None] * v
    return out


def isclose(x: CplxOcton, y: CplxOcton, tol: float = EQ_TOL) -> bool:
    """Componentwise comparison within an absolute tolerance."""
    return bool(np.all(np.abs(x.c - y.c) <= tol))
