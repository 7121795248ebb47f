"""Arithmetic of complexified octonions.

An element carries eight complex coefficients over the basis
(1, e1, ..., e7).  The basis product table is the one Cayley-Dickson doubling
of the quaternions gives,

    (a, b)(c, d) = (ac - d~b, da + bc~),        e4 = (0, 1),

with e_{4+i} = e_i e4.  Doubling puts e_a e_b on the slot a XOR b, with the
signs of the seven quaternionic triples of the Fano plane, and the table is
built once at import from that rule and frozen as a :class:`StructureTable`.
The span of {1, e1, e2, e3} is the canonical associative (quaternionic)
subalgebra; all of its complements are reached by the doubling step.

A product of rows is a row times a multiplication matrix gathered from that
table: x y = x R(y) with ``right_rows(y)``, or x y = y L(x) with
``left_rows(x)``, each applied by ``apply_right_rows``, so a kernel gathers a
factor that several of its products share once.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NotInAssociativeSubalgebra, ZeroDivisor

#: Componentwise tolerance used by ``==``.
EQ_TOL = 1e-12

#: :func:`inverse`'s zero-divisor test: |N(y)| <= ZERO_DIVISOR_EPS |y|^2, y = x / max_a |x_a|.
ZERO_DIVISOR_EPS = 1e-12

#: Relative tolerance for the subalgebra membership check in :func:`exp_assoc`.
ASSOC_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class StructureTable:
    """Signed basis-product table: b_a * b_b = sign[a, b] * b_index[a, b]."""

    sign: np.ndarray
    index: np.ndarray

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


#: The seven quaternionic triples (i, j, k) of the Fano plane: e_i e_j = e_k,
#: and cyclically.
_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _build_table() -> StructureTable:
    # e_a e_b lies on slot a XOR b.  Its sign is +1 when a or b is the unit and
    # along each triple's cyclic order, -1 on the reversed order and for
    # e_a e_a = -1, a >= 1
    index = np.bitwise_xor.outer(np.arange(8), np.arange(8)).astype(np.int8)
    sign = np.full((8, 8), -1, dtype=np.int8)
    sign[0] = sign[:, 0] = 1
    for i, j, k in _TRIPLES:
        sign[[i, j, k], [j, k, i]] = 1
    sign.flags.writeable = index.flags.writeable = False
    return StructureTable(sign=sign, index=index)


_TABLE = _build_table()


def _gather_index(sign: np.ndarray) -> np.ndarray:
    # a multiplication matrix M[b, c] = sign[b, b ^ c] z_(b ^ c), with one signed
    # entry per slot, as positions in [z, -z]: one gather builds M
    index = (_TABLE.index + 8 * (np.take_along_axis(sign, _TABLE.index, 1) < 0)).astype(np.intp)
    index.flags.writeable = False
    return index


# The right-multiplication matrix of y, R[a, c] = sum_b y_b (coefficient of
# b_c in b_a b_b), has R[a, a ^ b] = sign[a, b] y_b; the left-multiplication
# matrix of x, L[b, c] = sum_a x_a (coefficient of b_c in b_a b_b), has
# L[b, a ^ b] = sign[a, b] x_a, the same rule on the transposed signs
_RIGHT_INDEX = _gather_index(_TABLE.sign)
_LEFT_INDEX = _gather_index(_TABLE.sign.T)


def structure_table() -> StructureTable:
    """The frozen basis-product table (read-only, shared)."""
    return _TABLE


#: Single-value classes that :func:`rowwise` lifts, each with the attribute
#: that holds an instance's array.
_SINGLE_VALUES: dict[type, str] = {}


def single_value(attr: str):
    """Class decorator: :func:`rowwise` sees an instance as a block of one ``attr`` array."""

    def register(cls):
        _SINGLE_VALUES[cls] = attr
        return cls

    return register


def _as_block(a):
    # a single value as its array with a leading axis of one; anything else unchanged
    attr = _SINGLE_VALUES.get(type(a))
    return a if attr is None else getattr(a, attr)[None]


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
        # internal fast path: trusts dtype and shape; refuses inf and NaN coefficients.
        # Single values are computed under np.errstate(all="ignore"), so an overflow
        # reaches the caller as this OverflowError, not as numpy's RuntimeWarning
        if not np.isfinite(arr).all():
            raise OverflowError("a CplxOcton's coefficients must be finite")
        obj = object.__new__(cls)
        arr.flags.writeable = False
        obj.c = arr
        return obj

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
        with np.errstate(all="ignore"):
            return CplxOcton._wrap(self.c + other.c)

    def __sub__(self, other: "CplxOcton") -> "CplxOcton":
        if not isinstance(other, CplxOcton):
            return NotImplemented
        with np.errstate(all="ignore"):
            return CplxOcton._wrap(self.c - other.c)

    def __neg__(self) -> "CplxOcton":
        return CplxOcton._wrap(-self.c)

    def __mul__(self, other):
        if isinstance(other, CplxOcton):
            return mul(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if not isinstance(other, numbers.Complex):
            return NotImplemented
        with np.errstate(all="ignore"):
            return CplxOcton._wrap(self.c * complex(other))

    def __abs__(self) -> float:
        # Euclidean magnitude of the 16 real components (not the quadratic norm):
        # one row of abs_rows
        return float(abs_rows(self.c))

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
            zs = f"{z.real:.6g}" if z.imag == 0 else f"({z:.6g})"
            parts.append(zs if a == 0 else f"{zs}*{names[a]}")
        return "CplxOcton<" + (" + ".join(parts) if parts else "0") + ">"


#: The multiplicative unit and the eight basis elements.
ONE = CplxOcton.scalar(1.0)
E = tuple(CplxOcton.basis(a) for a in range(8))


# ------------------------------------------------------------- operations
#
# One function per operation, of single values or of rows: (..., 8) arrays,
# with the leading axes broadcast together (a name ending in _rows takes rows
# only).  A lone (8,) row can round differently from that row in a block, so a
# single value is evaluated as a block of one row.

def single(out):
    """The single value that a block of one row stands for: row 0 of ``out``.

    None stays None, a scalar becomes a Python number, an (8,) row a CplxOcton
    (which raises OverflowError on the inf or NaN that rows would carry), a
    list the list of its entries' single values, and anything else, such as a
    4x4 matrix, stays an array.
    """
    if out is None:
        return None
    if isinstance(out, list):
        return [single(o) for o in out]
    row = out[0]
    if isinstance(row, np.generic):
        return row.item()
    return CplxOcton._wrap(row) if row.shape == (8,) else row


def rowwise(fn):
    """Let fn, written on row arrays, also take single values.

    Each single value (an instance of a :func:`single_value` class) comes in
    as its block of one row.  With rows among the arguments (a numpy array,
    or a list or tuple of them), fn's rows come back; with none, its block of
    one comes back through :func:`single`, computed with numpy's
    floating-point warnings off, so an overflow is single's OverflowError.  A
    call with no single value is fn's on rows.  Beside a single value, a list
    or tuple that holds single values raises TypeError.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        values = (*args, *kwargs.values())
        if _SINGLE_VALUES.keys().isdisjoint(map(type, values)):
            return fn(*args, **kwargs)
        lists = [a for a in values if isinstance(a, (list, tuple))]
        if any(type(x) in _SINGLE_VALUES for a in lists for x in a):
            raise TypeError("rows are coefficient arrays, such as [x.c for x in values]")
        args, kwargs = map(_as_block, args), {k: _as_block(a) for k, a in kwargs.items()}
        if any(isinstance(a, (np.ndarray, list, tuple)) for a in values):
            return fn(*args, **kwargs)
        with np.errstate(all="ignore"):
            return single(fn(*args, **kwargs))

    # cProfile files calls under the code object; one per decorated function,
    # named after it, keeps their counts and times apart instead of pooled
    # under a single "wrapper"
    wrapper.__code__ = wrapper.__code__.replace(co_name=fn.__name__)
    return wrapper


def right_rows(y) -> np.ndarray:
    """The right-multiplication matrix of each row y, (..., 8, 8): x y = x R(y).

    One signed gather from [y, -y].  A kernel that multiplies several rows by
    one right factor gathers it once and applies it with
    :func:`apply_right_rows` to each.
    """
    y = np.asarray(y, dtype=np.complex128)
    # ndarray.take skips np.take's wrapper, and mode="wrap" its per-index
    # bounds check: the indices lie in [0, 16) by construction
    return np.concatenate([y, -y], axis=-1).take(_RIGHT_INDEX, axis=-1, mode="wrap")


def left_rows(x) -> np.ndarray:
    """The left-multiplication matrix of each row x, (..., 8, 8): x y = y L(x).

    One signed gather from [x, -x], as :func:`right_rows`.  A kernel that
    multiplies several rows by one left factor gathers it once and applies it
    with :func:`apply_right_rows` to each, as ``apply_right_rows(y, left_rows(x))``.
    """
    x = np.asarray(x, dtype=np.complex128)
    return np.concatenate([x, -x], axis=-1).take(_LEFT_INDEX, axis=-1, mode="wrap")


def apply_right_rows(x, right: np.ndarray) -> np.ndarray:
    """Each row x times its right-multiplication matrix from :func:`right_rows`
    (or, for y L(x) = x y, the left-multiplication matrix of :func:`left_rows`),
    as a stack of (1, 8) @ (8, 8) products, so a row's product does not depend
    on the rows around it."""
    return (np.asarray(x)[..., None, :] @ right)[..., 0, :]


@rowwise
def mul(x, y):
    """Bilinear product via the frozen structure table, of values or rows:
    each row x times the right-multiplication matrix of y."""
    return apply_right_rows(x, right_rows(y))


#: Octonionic conjugation as a sign per slot.
_CONJ_SIGN = np.array([1.0] + [-1.0] * 7)
_CONJ_SIGN.flags.writeable = False


@rowwise
def conj_oct(x):
    """Octonionic conjugation, fixing the scalar slot and negating e1..e7: a value or rows."""
    return x * _CONJ_SIGN


@rowwise
def bar_star(x):
    """Combined octonionic and complex conjugation (an R-linear involution): a value or rows."""
    return np.conj(x) * _CONJ_SIGN


@rowwise
def inner(x, y):
    """Symmetric complex-bilinear inner product 2<x,y> = x y~ + y x~: of values or rows.

    Reduces to the coefficient contraction sum_a x_a y_a over the last axis
    (no complex conjugation: the form is bilinear, not sesquilinear).
    """
    x, y = np.asarray(x), np.asarray(y)
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


@rowwise
def norm(x):
    """Complex quadratic form N(x) = x * conj_oct(x), multiplicative: of a value or rows."""
    return inner(x, x)


def abs_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean magnitude of each row's 16 real components, as ``abs`` of a value.

    The formula ``np.linalg.norm(x, axis=-1)`` evaluates, bit for bit, without
    its argument handling.
    """
    x = np.asarray(x)
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def inverse(x: CplxOcton) -> CplxOcton:
    """conj_oct(x)/N(x); raises :class:`ZeroDivisor` when N(x) ~ 0, OverflowError on overflow."""
    # conj_oct(y)/N(y)/m for y = x/m, m = max_a |x_a|, whose N cannot underflow or overflow;
    # parts divided as floats, as numpy's complex division forms 1/m, inf for a subnormal m
    m = float(np.max(np.abs(x.c)))
    if m == 0:
        raise ZeroDivisor("the zero element has no inverse")
    y = x.c.real / m + 1j * (x.c.imag / m)
    n = norm(y)
    if abs(n) <= ZERO_DIVISOR_EPS * float(np.real(np.vdot(y, y))):
        raise ZeroDivisor(f"element has vanishing quadratic norm: N(x/m) = {complex(n)!r}")
    z = conj_oct(y) / n
    with np.errstate(all="ignore"):
        return CplxOcton._wrap(z.real / m + 1j * (z.imag / m))


@rowwise
def associator(x, y, z):
    """[x, y, z] = (xy)z - x(yz): of values or rows, with z's matrix gathered once."""
    by_z = right_rows(z)
    return apply_right_rows(mul(x, y), by_z) - mul(x, apply_right_rows(y, by_z))


def _cos_sinc_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cos(omega) and sin(omega)/omega as functions of z = omega^2, elementwise.
    # Both are entire in z, so the square-root branch cannot change the result,
    # and neither cancels digits near omega = 0: both are direct, with sinc
    # taking its limit 1 at omega = 0.  (np.divide with where= in place of
    # the np.where ran the double-cover suite about 25% slower in perfbench on
    # a 2-vCPU x86_64 host, numpy 2.4.)
    om = np.sqrt(z)
    zero = om == 0
    return np.cos(om), np.where(zero, 1, np.sin(om) / np.where(zero, 1, om))


@rowwise
def exp_assoc(u):
    """Closed-form exponential on the quaternionic subalgebra: of a value or rows.

    With u = s + v (scalar plus vector part) and omega the principal square
    root of <v, v>:  exp(u) = e^s (cos(omega) + sinc(omega) v).

    Raises :class:`NotInAssociativeSubalgebra` if u has components on
    e4..e7 beyond a scale-relative tolerance.  A single value whose exponential
    overflows raises OverflowError; such a row comes out as inf or NaN.
    """
    # a block whose e4..e7 components are all exactly zero passes without the
    # full test, which cannot refuse it: 0 > bound is False for every bound, an
    # inf or NaN one included.  An inf or NaN on e4..e7 is not zero, so a block
    # with one takes the full test
    if u[..., 4:].any():
        tail = np.max(np.abs(u[..., 4:]), axis=-1)
        bad = tail > ASSOC_MEMBERSHIP_TOL * np.maximum(1.0, abs_rows(u))
        if np.any(bad):
            raise NotInAssociativeSubalgebra(
                f"argument has components outside span{{1,e1,e2,e3}} "
                f"(max {np.max(tail[bad]):.3g})"
            )
    v = u[..., 1:4]
    with np.errstate(over="ignore", invalid="ignore"):
        cos_w, sinc_w = _cos_sinc_rows(inner(v, v))
        es = np.exp(u[..., 0])
        out = np.zeros(u.shape, dtype=np.complex128)
        out[..., 0] = es * cos_w
        out[..., 1:4] = (es * sinc_w)[..., None] * v
    return out
