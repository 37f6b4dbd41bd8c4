"""Totally unimodular matrices, unimodular equivalence, and block sums.

The 1-, 2- and 3-sums compose simple TU representations the way regular
matroids are glued.  They are one construction with k = 0, 1, 2 shared
rows: left = [B 0; b T] and right = [c T; C 0], where T holds the tail
columns of the k shared rows (none, the unit column, or the triangle
columns (1,0), (0,1), (1,1)), glue to [B 0 0; b c T; 0 C 0].  The
constructors validate the block pattern and re-check total unimodularity
and simplicity of the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import ClassVar, Optional

from .exact import (
    DimensionError,
    IntMatrix,
    canonical_sign,
    hermite_normal_form,
    int_determinant,
    invert,
    primitive,
    rank,
)


class BlockShapeError(ValueError):
    """Input matrix does not match the required sum block pattern."""


def is_totally_unimodular(a: IntMatrix) -> bool:
    """Every square submatrix has determinant -1, 0 or 1.

    Each k x k minor is a Laplace expansion along the first row of its row
    set T = (r, T'), read off the (k-1) x (k-1) minors of T' on the same
    columns.  Row sets are walked depth-first over suffixes (T' is visited
    before every r < T'[0] is prepended to it), so one dict of nonzero
    minors, keyed by column bitmask, is held per depth.  TU is closed under
    transposition, so the shorter side indexes the columns.  Stops at the
    first entry or minor outside {-1, 0, 1}.
    """
    if any(x not in (-1, 0, 1) for row in a.data for x in row):
        return False
    rows = a.data if a.rows >= a.cols else a.transpose().data
    support = [[(1 << j, x) for j, x in enumerate(row) if x] for row in rows]

    def extend(first: int, minors: dict) -> bool:
        # minors of the rows T = (first, ...); the rows r < first extend T
        for r in range(first):
            grown = {}
            for cols, det in minors.items():
                for bit, x in support[r]:
                    if not cols & bit:
                        # bit sits at position popcount(cols below bit)
                        term = -x * det if (cols & (bit - 1)).bit_count() & 1 else x * det
                        grown[cols | bit] = grown.get(cols | bit, 0) + term
            grown = {cols: det for cols, det in grown.items() if det}
            if any(det not in (-1, 1) for det in grown.values()):
                return False
            if grown and not extend(r, grown):
                return False
        return True

    return extend(len(rows), {0: 1})


@dataclass(frozen=True)
class TUMatrix:
    """An integer matrix together with a verified-TU flag."""

    inner: IntMatrix
    verified: bool = False

    @classmethod
    def check(cls, a: IntMatrix) -> "TUMatrix":
        if not is_totally_unimodular(a):
            raise ValueError("matrix is not totally unimodular")
        return cls(a, verified=True)

    @property
    def rows(self) -> int:
        return self.inner.rows

    @property
    def cols(self) -> int:
        return self.inner.cols


def is_simple_matrix(a: IntMatrix) -> bool:
    """No zero column and no pair of proportional columns: the columns'
    sign-normalized primitive vectors are nonzero and distinct."""
    keys = [canonical_sign(primitive(c)[0]) for c in a.columns()]
    return all(any(k) for k in keys) and len(set(keys)) == len(keys)


def is_unimodular(a: IntMatrix) -> Optional[IntMatrix]:
    """Decide unimodularity; return a witness h in GL_g(Z) with h*A TU.

    Uses the pivoting characterization: after reducing away zero rows with
    the HNF transform, A is unimodular iff some maximal square column
    submatrix B has determinant +-1 and B^-1 * A is totally unimodular.
    (If h*A is TU for some h, then every unit-determinant column basis B
    gives a TU pivot B^-1 * A, so one basis decides the question.)
    """
    g = a.rows
    if is_totally_unimodular(a):
        return IntMatrix.identity(g)
    r = rank(a)
    h_mat, u = hermite_normal_form(a)
    top = [h_mat.data[i] for i in range(r)] if r else []
    if r == 0:
        return IntMatrix.identity(g)  # zero matrix is trivially TU
    # search an r x r column submatrix of the reduced row space with det +-1
    basis_cols = None
    for cols_idx in combinations(range(a.cols), r):
        sub = [tuple(row[j] for j in cols_idx) for row in top]
        if int_determinant(sub) in (-1, 1):
            basis_cols = cols_idx
            break
    if basis_cols is None:
        return None
    b = IntMatrix([[top[i][j] for j in basis_cols] for i in range(r)])
    b_inv = invert(b)
    reduced = b_inv.mul(IntMatrix(top).to_rational())
    if not reduced.is_integral():
        return None
    reduced_int = reduced.to_integer()
    if not is_totally_unimodular(reduced_int):
        return None
    # assemble the g x g witness: diag(B^-1, I) * U
    w_rows = []
    for i in range(g):
        if i < r:
            row = [b_inv.data[i][j] for j in range(r)] + [0] * (g - r)
        else:
            row = [0] * g
            row[i] = 1
        w_rows.append(row)
    w = IntMatrix([[int(x) for x in row] for row in w_rows])
    return w.mul(u)


def equivalent_unimodular(a: IntMatrix, b: IntMatrix) -> bool:
    """True iff A = h*B*Y for h in GL_g(Z) and a signed permutation Y.

    Decided through the vector matroids: the matrices are equivalent exactly
    when their column matroids agree up to a relabeling of the columns.
    """
    from .matroids import matroid_isomorphic, vector_matroid

    if a.shape != b.shape:
        raise DimensionError("equivalence needs matrices of the same shape")
    if is_unimodular(a) is None or is_unimodular(b) is None:
        raise ValueError("equivalence test requires unimodular inputs")
    return matroid_isomorphic(vector_matroid(a), vector_matroid(b))


# ---------------------------------------------------------------------------
# sum shapes and block assembly


def _require_simple_tu(m: TUMatrix, side: str) -> IntMatrix:
    a = m.inner
    if not (m.verified or is_totally_unimodular(a)):
        raise ValueError(f"{side} matrix is not totally unimodular")
    if not is_simple_matrix(a):
        raise ValueError(f"{side} matrix is not simple")
    return a


# The tail columns T that both blocks of a k-sum carry on their k shared
# rows: none for the 1-sum, the unit column for the 2-sum, the triangle
# columns for the 3-sum.
_TAILS = {0: (), 1: ((1,),), 2: ((1, 0), (0, 1), (1, 1))}


def _check_sum_blocks(left: TUMatrix, right: TUMatrix, k: int) -> None:
    """Both blocks are simple and TU, left = [B 0; b T] and right = [c T; C 0]."""
    l = _require_simple_tu(left, "left")
    r = _require_simple_tu(right, "right")
    tail = _TAILS[k]
    t = len(tail)
    if min(l.rows, r.rows) < k + 1 or min(l.cols, r.cols) < t + 1:
        raise BlockShapeError(
            f"{k + 1}-sum blocks need at least {k + 1} rows and {t + 1} columns"
        )
    want = [(0,) * (l.rows - k) + col for col in tail]
    if l.columns()[l.cols - t:] != want:
        raise BlockShapeError(f"left block must end with the columns {want}")
    want = [col + (0,) * (r.rows - k) for col in tail]
    if r.columns()[r.cols - t:] != want:
        raise BlockShapeError(f"right block must end with the columns {want}")


@dataclass(frozen=True)
class _SumShape:
    """Pair of simple TU matrices in the block form of a k-sum, k = `k`."""

    left: TUMatrix
    right: TUMatrix
    k: ClassVar[int]

    def __post_init__(self):
        _check_sum_blocks(self.left, self.right, self.k)


class SumShape2(_SumShape):
    """2-sum blocks: left = [B 0; b^t 1] and right = [c^t 1; C 0]."""

    k = 1


class SumShape3(_SumShape):
    """3-sum blocks: left = [B 0 0 0; b1^t 1 0 1; b2^t 0 1 1] and
    right = [c1^t 1 0 1; c2^t 0 1 1; C 0 0 0]."""

    k = 2


def _assemble(left: IntMatrix, right: IntMatrix, k: int) -> IntMatrix:
    """Glue [B 0; b T] and [c T; C 0] along their k shared rows into
    [B 0 0; b c T; 0 C 0]; k = 0 gives the block diagonal."""
    t = len(_TAILS[k])
    g1, n1, n2 = left.rows - k, left.cols - t, right.cols - t
    rows = [list(row[:n1]) + [0] * (n2 + t) for row in left.data[:g1]]
    rows += [list(lrow[:n1]) + list(rrow[:n2]) + list(lrow[n1:])
             for lrow, rrow in zip(left.data[g1:], right.data[:k])]
    rows += [[0] * n1 + list(row[:n2]) + [0] * t for row in right.data[k:]]
    return IntMatrix(rows)


def _finish_sum(a: IntMatrix) -> TUMatrix:
    if not is_totally_unimodular(a):
        raise ValueError("assembled sum failed the total unimodularity check")
    if not is_simple_matrix(a):
        raise ValueError("assembled sum is not simple")
    return TUMatrix(a, verified=True)


def seymour_sum1(a1: TUMatrix, a2: TUMatrix) -> TUMatrix:
    """Block-diagonal composition of two simple TU matrices."""
    _check_sum_blocks(a1, a2, 0)
    return _finish_sum(_assemble(a1.inner, a2.inner, 0))


def seymour_sum2(s: SumShape2) -> TUMatrix:
    """Glue the two blocks along the shared unit column: [B 0 0; b^t c^t 1; 0 C 0]."""
    return _finish_sum(_assemble(s.left.inner, s.right.inner, s.k))


def seymour_sum3(s: SumShape3) -> TUMatrix:
    """Glue along the shared rank-2 triangle pattern (three tail columns kept)."""
    return _finish_sum(_assemble(s.left.inner, s.right.inner, s.k))
