"""Exact rational scalars, vectors, matrices, and the small linear-algebra kernels.

Every quantity in this package is a rational number; nothing is ever rounded.
The scalar type is gmpy2.mpq when available and fractions.Fraction otherwise.
Both keep lowest terms with a positive denominator and raise
ZeroDivisionError on a zero denominator.  In the layers that compute with
these scalars (this module, cone calculus) mpq is about an order of
magnitude faster.  The simplex in lp.py and the double description in
polyhedron.py compute on Python ints instead: each row is scaled to integers
once by _integers, and results are converted to this type only when they
are read off.

Code reads the integer parts of a scalar only through .numerator and
.denominator, which both backends have.  The dot kernels (Vector.dot,
Matrix.matvec, Matrix.tmatvec) use them to sum the products as ints over one
common denominator and build one rational per result, which is the exact
sum.  Vector and Matrix are frozen and slotted, so nothing can be cached on
them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rational

__all__ = [
    "Rational",
    "rat",
    "parse_rational",
    "format_rational",
    "Vector",
    "Matrix",
    "vec",
    "mat",
    "kernel_basis",
    "solve_linear",
    "rank",
    "rref",
    "complement_projector",
]

ZERO = Rational(0)
ONE = Rational(1)

_RAT_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rat(value=0, denominator=None) -> Rational:
    """Coerce ints, strings, Fractions, or pairs to the exact scalar type.

    A value of the scalar type comes back as it is: rationals are immutable,
    and rebuilding one costs a constructor call for nothing."""
    if type(value) is Rational and denominator is None:
        return value
    if denominator is not None:
        return Rational(value, denominator)
    if isinstance(value, str):
        return parse_rational(value)
    return Rational(value)


def parse_rational(text: str) -> Rational:
    """Parse the wire form "p" or "p/q" (base 10, sign on the numerator only)."""
    if not isinstance(text, str) or not _RAT_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}, expected 'p' or 'p/q'")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"malformed rational {text!r}, zero denominator")
        return Rational(int(num), int(den))
    return Rational(int(text))


def format_rational(x) -> str:
    """Inverse of parse_rational; str() of both scalar backends conforms."""
    return str(x)


def _integers(values: Sequence) -> tuple:
    """(ints, L): values times L, the lcm of their denominators."""
    dens = [int(v.denominator) for v in values]
    L = math.lcm(*dens)
    return [int(v.numerator) * (L // q) for v, q in zip(values, dens)], L


def _pairs(values: Sequence) -> list:
    """The (numerator, denominator) pair of every value."""
    return [(v.numerator, v.denominator) for v in values]


def _sum_products(pairs: Sequence, values: Sequence):
    """The sum of (n / d) * v over zip(pairs, values), pairs holding (n, d).

    The products are summed as ints over one common denominator and one
    rational is built at the end, so the result is the exact sum.  Only
    .numerator and .denominator are read, which both scalar backends have.
    """
    num, den = 0, 1
    for (xn, xd), y in zip(pairs, values):
        if xn:
            yn = y.numerator
            if yn:
                q = xd * y.denominator
                p = xn * yn
                if q == den:
                    num += p
                elif den % q == 0:
                    num += p * (den // q)
                else:
                    num = num * q + p * den
                    den *= q
    return Rational(num, den)


@dataclass(frozen=True, slots=True)
class Vector:
    """Immutable rational vector.

    Vector and Matrix build their tuples from lists, not generators:
    tuple() of a list takes an exact-size tuple from CPython's tuple free
    lists, while tuple() of a generator grows and trims one and leaves it on
    the free list of its final size, where it stays until a full collection.
    """

    coords: tuple

    @staticmethod
    def of(values: Iterable) -> "Vector":
        return Vector(tuple([rat(v) for v in values]))

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector((ZERO,) * dim)

    @staticmethod
    def unit(dim: int, k: int) -> "Vector":
        return Vector(tuple([ONE if i == k else ZERO for i in range(dim)]))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple([a - b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self) -> "Vector":
        return Vector(tuple([-a for a in self.coords]))

    def scale(self, factor) -> "Vector":
        f = rat(factor)
        return Vector(tuple([f * a for a in self.coords]))

    def dot(self, other: "Vector"):
        self._check_dim(other)
        return _sum_products(_pairs(self.coords), other.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def first_nonzero(self) -> Optional[int]:
        for i, a in enumerate(self.coords):
            if a != 0:
                return i
        return None

    def normalized_direction(self) -> "Vector":
        """Positive rescaling so the first nonzero coordinate has absolute value 1."""
        i = self.first_nonzero()
        if i is None:
            return self
        lead = self.coords[i]
        return self.scale(1 / (lead if lead > 0 else -lead))

    def _check_dim(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __repr__(self) -> str:
        return "vec(%s)" % ", ".join(str(c) for c in self.coords)


def vec(values: Iterable) -> Vector:
    return Vector.of(values)


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable rational matrix stored as a tuple of row tuples."""

    entries: tuple
    cols: int

    @staticmethod
    def of(rows: Iterable[Iterable], cols: Optional[int] = None) -> "Matrix":
        data = tuple([tuple([rat(v) for v in row]) for row in rows])
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged matrix rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, found {width}")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        return Matrix(data, cols)

    @staticmethod
    def from_rows(rows: Sequence[Vector], cols: Optional[int] = None) -> "Matrix":
        return Matrix.of([r.coords for r in rows], cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.of([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple:
        return (len(self.entries), self.cols)

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i])

    def row_vectors(self) -> list:
        return [Vector(r) for r in self.entries]

    def column(self, j: int) -> Vector:
        return Vector(tuple([r[j] for r in self.entries]))

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix(tuple([() for _ in range(self.cols)]), 0)
        return Matrix(tuple(zip(*self.entries)), len(self.entries))

    def matvec(self, x: Vector) -> Vector:
        if x.dim != self.cols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.dim}")
        xs = _pairs(x.coords)
        return Vector(tuple([_sum_products(xs, row) for row in self.entries]))

    def tmatvec(self, y: Vector) -> Vector:
        """Transpose action y -> A^T y without materializing the transpose."""
        if y.dim != self.rows:
            raise ValueError(f"dimension mismatch: {self.shape}^T @ {y.dim}")
        if not self.entries:
            return Vector.zero(self.cols)
        ys = _pairs(y.coords)
        return Vector(tuple([_sum_products(ys, col) for col in zip(*self.entries)]))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        cols = [other.column(j) for j in range(other.cols)]
        data = tuple([tuple([Vector(row).dot(c) for c in cols]) for row in self.entries])
        return Matrix(data, other.cols)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"mat[{self.rows}x{self.cols}]({body})"


def mat(rows: Iterable[Iterable], cols: Optional[int] = None) -> Matrix:
    return Matrix.of(rows, cols)


def _echelon(rows: list, width: int) -> tuple:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    pivots = []
    target = 0
    for col in range(width):
        pivot_row = None
        for r in range(target, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[target], rows[pivot_row] = rows[pivot_row], rows[target]
        lead = rows[target][col]
        if lead != 1:
            inv = 1 / lead
            rows[target] = [inv * v for v in rows[target]]
        for r in range(len(rows)):
            if r != target and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[target])]
        pivots.append(col)
        target += 1
        if target == len(rows):
            break
    return rows[:target], pivots


def rref(A: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows dropped."""
    rows, _ = _echelon([list(r) for r in A.entries], A.cols)
    return Matrix(tuple([tuple(r) for r in rows]), A.cols)


def rank(A: Matrix) -> int:
    rows, pivots = _echelon([list(r) for r in A.entries], A.cols)
    return len(pivots)


def kernel_basis(A: Matrix) -> list:
    """Canonical basis of the null space of A.

    Each basis vector sets one free variable to 1 and back-substitutes the
    pivot variables, so rank(A) + len(kernel_basis(A)) == A.cols and the
    result is unique for a given A.
    """
    if A.cols == 0:
        raise ValueError("kernel of a matrix with no columns")
    rows, pivots = _echelon([list(r) for r in A.entries], A.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(A.cols):
        if free in pivot_set:
            continue
        coords = [ZERO] * A.cols
        coords[free] = ONE
        for r, pcol in enumerate(pivots):
            coords[pcol] = -rows[r][free]
        basis.append(Vector(tuple(coords)))
    return basis


def solve_linear(A: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of A x = b with free variables pinned to zero.

    Returns None when the system is inconsistent.  The choice of the
    free-variables-zero solution makes the output canonical.
    """
    if b.dim != A.rows:
        raise ValueError(f"dimension mismatch: {A.shape} vs rhs {b.dim}")
    if A.cols == 0:
        raise ValueError("solve with a matrix that has no columns")
    aug = [list(r) + [bv] for r, bv in zip(A.entries, b.coords)]
    rows, pivots = _echelon(aug, A.cols + 1)
    if pivots and pivots[-1] == A.cols:
        return None
    coords = [ZERO] * A.cols
    for r, pcol in enumerate(pivots):
        coords[pcol] = rows[r][A.cols]
    return Vector(tuple(coords))


def complement_projector(basis: Sequence[Vector], dim: int) -> Matrix:
    """Matrix of the orthogonal projection onto the complement of span(basis).

    For B with the basis vectors as columns this is I - B (B^T B)^-1 B^T,
    computed exactly.  An empty basis yields the identity.
    """
    if not basis:
        return Matrix.identity(dim)
    for w in basis:
        if w.dim != dim:
            raise ValueError("basis vector dimension mismatch")
    k = len(basis)
    gram = Matrix.of([[basis[i].dot(basis[j]) for j in range(k)] for i in range(k)])
    # Columns of Z solve (B^T B) z = B^T e_j; independence of the basis makes
    # the Gram matrix invertible so solve_linear never returns None here.
    proj_rows = []
    z_cols = []
    for j in range(dim):
        rhs = Vector(tuple([w.coords[j] for w in basis]))
        z = solve_linear(gram, rhs)
        if z is None:
            raise ValueError("dependent vectors passed as a basis")
        z_cols.append(z)
    for i in range(dim):
        row = []
        for j in range(dim):
            total = ONE if i == j else ZERO
            correction = ZERO
            for t in range(k):
                correction += basis[t].coords[i] * z_cols[j].coords[t]
            row.append(total - correction)
        proj_rows.append(row)
    return Matrix.of(proj_rows)
