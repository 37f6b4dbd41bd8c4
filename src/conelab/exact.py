"""Exact integer / rational dense linear algebra.

Everything downstream (unimodularity tests, lattice enumeration, cone
membership) is built on the two matrix types defined here.  All arithmetic
uses arbitrary-precision ints and ``fractions.Fraction``; there is no
floating point anywhere in this package's computational core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Entry = Union[int, Fraction, str]


class DimensionError(ValueError):
    """Raised when matrix shapes do not match an operation's contract."""


def _to_fraction(x: Entry) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class _BaseMatrix:
    """Immutable row-major dense matrix; subclasses fix the entry domain."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable], *, cols: Optional[int] = None):
        data = tuple(tuple(self._coerce(x) for x in row) for row in rows_data)
        if not data:
            # 0 x n matrices are legal (rank-0 representations); the column
            # count cannot be inferred, so it must be passed explicitly
            if cols is None or cols < 1:
                raise DimensionError("empty matrix needs an explicit column count")
            width = cols
        else:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionError("ragged rows")
            if width == 0:
                raise DimensionError("matrix must have at least one column")
        self_set = super().__setattr__
        self_set("rows", len(data))
        self_set("cols", width)
        self_set("data", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("matrices are immutable")

    @staticmethod
    def _coerce(x):
        raise NotImplementedError

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((type(self).__name__, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"{type(self).__name__}({self.rows}x{self.cols}: {body})"

    @property
    def shape(self):
        return (self.rows, self.cols)

    def column(self, j) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return type(self)(zip(*self.data))

    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def identity(cls, n: int):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def mul(self, other):
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        ot = list(zip(*other.data))
        return type(self)(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.data
            )
        )

    def mul_vector(self, v: Sequence) -> tuple:
        if self.cols != len(v):
            raise DimensionError("vector length does not match")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)


class IntMatrix(_BaseMatrix):
    """Dense matrix over the integers."""

    @staticmethod
    def _coerce(x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        if isinstance(x, str):
            f = Fraction(x)
            if f.denominator == 1:
                return int(f)
        raise TypeError(f"IntMatrix entries must be integers, got {x!r}")

    def to_rational(self) -> "RatMatrix":
        return RatMatrix(self.data)


class RatMatrix(_BaseMatrix):
    """Dense matrix over the rationals; Fraction keeps entries in lowest terms."""

    @staticmethod
    def _coerce(x):
        return _to_fraction(x)

    def scale(self, c) -> "RatMatrix":
        c = _to_fraction(c)
        return RatMatrix(tuple(tuple(c * x for x in row) for row in self.data))

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.data for x in row)

    def to_integer(self) -> "IntMatrix":
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in self.data))


# ---------------------------------------------------------------------------
# determinants (fraction-free Bareiss)


def _bareiss_int_det(rows: list) -> int:
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def determinant(a: Union[IntMatrix, RatMatrix]) -> Fraction:
    """Exact determinant of a square matrix via Bareiss elimination."""
    if not a.is_square():
        raise DimensionError("determinant needs a square matrix")
    if isinstance(a, IntMatrix):
        return Fraction(_bareiss_int_det(list(a.data)))
    # clear denominators row by row, keep the combined scale
    cleared = [clear_denominators(row) for row in a.data]
    scale = math.prod(den for _, den in cleared)
    return Fraction(_bareiss_int_det([ints for ints, _ in cleared]), scale)


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss determinant on raw int rows (hot path for submatrix scans)."""
    return _bareiss_int_det(list(rows))


def symmetric_bareiss(rows: Sequence[Sequence[int]]):
    """(m, d) for a symmetric integer matrix Q whose leading principal
    minors d[1..n] are all positive, else None (Sylvester's criterion: None
    exactly when Q is not positive definite).

    One fraction-free elimination without row swaps on the upper triangle.
    Row k of m holds, in columns j >= k, the bordered minors m[k][j] of
    rows 0..k and columns 0..k-1, j, so m[k][k] = d[k + 1] (d[0] = 1), and

        Q(y) = sum_k (sum_{j >= k} m[k][j] y_j)^2 / (d[k] d[k + 1]),

    the LDL^t factorization with every entry over a known denominator.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    d = [1]
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return None
        mk = m[k]
        for i in range(k + 1, n):
            mi, f = m[i], mk[i]
            for j in range(i, n):
                mi[j] = (p * mi[j] - f * mk[j]) // d[k]
        d.append(p)
    return m, d


def integer_pivots(q: RatMatrix):
    """(qi, den, pivots) for a symmetric rational Q: qi = den Q as int rows,
    den the least positive integer that makes it integral, and pivots the
    (m, d) of symmetric_bareiss(qi), or None when Q is not positive definite.
    Every definiteness test, LDL^t and definite walk reads this one pass."""
    g = q.rows
    flat, den = clear_denominators([x for row in q.data for x in row])
    qi = [flat[i * g:(i + 1) * g] for i in range(g)]
    return qi, den, symmetric_bareiss(qi)


def ldlt_decompose(q: RatMatrix):
    """Q = L D L^t with unit lower L and positive diagonal D, read off the
    symmetric Bareiss pivots of qi = den Q (see integer_pivots): below the
    diagonal L[i][k] = m[k][i] / d[k + 1], and D[k] = d[k + 1] / (d[k] den).

    Returns None when Q is not positive definite (Sylvester's criterion:
    some leading principal minor is not positive).  This Fraction form is
    what `conelab mat ldlt` prints; the library uses the pivots directly.
    """
    if not q.is_symmetric():
        raise DimensionError("ldlt needs a symmetric matrix")
    _, den, pivots = integer_pivots(q)
    if pivots is None:
        return None
    m, d = pivots
    n = q.rows
    l = [[Fraction(m[k][i], d[k + 1]) if k < i else int(i == k) for k in range(n)]
         for i in range(n)]
    return RatMatrix(l), tuple(Fraction(d[k + 1], d[k] * den) for k in range(n))


# ---------------------------------------------------------------------------
# Hermite normal form


def hermite_normal_form(a: IntMatrix):
    """Row-style HNF with transformation: returns (H, U) with U*A = H, det(U) = +-1.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and pivot columns move strictly right as the row index grows.
    """
    h = [list(r) for r in a.data]
    u = [list(r) for r in IntMatrix.identity(a.rows).data]
    r = 0
    for c in range(a.cols):
        while True:
            nz = [i for i in range(r, a.rows) if h[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(h[i][c]))
            i0, i1 = nz[0], nz[1]
            q = h[i1][c] // h[i0][c]
            for j in range(a.cols):
                h[i1][j] -= q * h[i0][j]
            for j in range(a.rows):
                u[i1][j] -= q * u[i0][j]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != r:
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        p = h[r][c]
        for i in range(r):
            q = h[i][c] // p
            if q:
                for j in range(a.cols):
                    h[i][j] -= q * h[r][j]
                for j in range(a.rows):
                    u[i][j] -= q * u[r][j]
        r += 1
        if r == a.rows:
            break
    return IntMatrix(h), IntMatrix(u)


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination on integer rows: the row step and the reduction


def _row_step(row: list, prow: list, c: int) -> list:
    """Clear column c of the integer row against prow (whose entry p in
    column c is positive): row*p - row[c]*prow, divided by its gcd."""
    p, f = prow[c], row[c]
    row = [x * p - f * y for x, y in zip(row, prow)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _pivot(m: list, r: int, c: int) -> None:
    """Pivot the integer rows m on entry (r, c), negating row r if it is
    negative, and clear column c from every other row (the simplex uses it
    too).  Each row stands for itself over a positive scale, so every sign
    and pivot choice is that of the ``Fraction`` tableau."""
    if m[r][c] < 0:
        m[r] = [-x for x in m[r]]
    prow = m[r]
    for i, row in enumerate(m):
        if i != r and row[c] != 0:
            m[i] = _row_step(row, prow, c)


def _rref(m: list, cols: int) -> list:
    """Reduce the integer rows m in place to reduced row echelon form on
    their first `cols` columns (later columns ride along); return the pivot
    columns.  The rows stay integer: pivot row r stands for itself divided
    by its entry in column pivots[r]."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        _pivot(m, r, c)
        pivots.append(c)
    return pivots


def rank(a: Union[IntMatrix, RatMatrix]) -> int:
    """Rank over the rationals: the pivots of the integer elimination."""
    return len(_rref([clear_denominators(row)[0] for row in a.data], a.cols))


def greedy_basis(vectors: Sequence[Sequence]) -> list:
    """Indices of the vectors (ints or Fractions) that are independent of
    the ones before them: the pivot columns of one elimination of the
    matrix with these columns."""
    rows = [clear_denominators(row)[0] for row in zip(*vectors)]
    return _rref(rows, len(vectors))


# ---------------------------------------------------------------------------
# linear systems


class LinearSolution(NamedTuple):
    """A particular solution (free variables zero) plus a kernel basis."""

    x: tuple
    kernel: tuple


def canonical_sign(v: Sequence):
    """Flip the vector (ints or Fractions) so its first nonzero entry is positive."""
    for x in v:
        if x != 0:
            if x < 0:
                return tuple(-y for y in v)
            return tuple(v)
    return tuple(v)


def clear_denominators(v: Sequence) -> tuple:
    """(ints, den): the least positive integer den with ints = den * v integral."""
    den = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def primitive(v: Sequence) -> tuple:
    """(ints, s): the positive rational s with ints = s * v a primitive
    integer vector.  The zero vector returns itself with s = 1."""
    ints, den = clear_denominators(v)
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints), Fraction(den, g)


def solve_exact(a: RatMatrix, b: Sequence[Entry]) -> Optional[LinearSolution]:
    """Solve A x = b exactly.

    Returns None when inconsistent.  Otherwise the particular solution sets
    all free variables to zero, and ``kernel`` is a basis of the null space
    (sign-normalized so the first nonzero entry of each vector is positive).
    """
    if a.rows != len(b):
        raise DimensionError("right-hand side length does not match")
    cols = a.cols
    m = [clear_denominators([*row, _to_fraction(bi)])[0] for row, bi in zip(a.data, b)]
    pivots = _rref(m, cols)
    if any(row[cols] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = Fraction(m[i][cols], m[i][c])
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = Fraction(-m[i][f], m[i][c])
        kernel.append(canonical_sign(v))
    return LinearSolution(tuple(x), tuple(kernel))


def invert(a: Union[IntMatrix, RatMatrix]) -> RatMatrix:
    """Exact inverse of a nonsingular square matrix."""
    if not a.is_square():
        raise DimensionError("inverse needs a square matrix")
    n = a.rows
    m = [list(ints) + [den * (i == j) for j in range(n)]
         for i, (ints, den) in enumerate(map(clear_denominators, a.data))]
    if len(_rref(m, n)) < n:
        raise ValueError("matrix is singular")
    return RatMatrix(tuple(tuple(Fraction(x, row[i]) for x in row[n:])
                           for i, row in enumerate(m)))


# ---------------------------------------------------------------------------
# shared matrix text format


def parse_matrix(text: str) -> RatMatrix:
    """Parse the repo-wide matrix text format.

    First non-comment line holds "rows cols"; each following line is one row
    of whitespace-separated entries, integers or "p/q" rationals.  Lines
    starting with "#" are comments.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1 : rows + 1]:
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(parts)}")
        data.append(tuple(Fraction(p) for p in parts))
    return RatMatrix(data)


def parse_int_matrix(text: str) -> IntMatrix:
    m = parse_matrix(text)
    if not m.is_integral():
        raise ValueError("matrix has non-integer entries")
    return m.to_integer()


def format_matrix(a: Union[IntMatrix, RatMatrix]) -> str:
    lines = [f"{a.rows} {a.cols}"]
    for row in a.data:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
