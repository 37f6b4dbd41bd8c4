"""Positive definite quadratic forms: minima, perfect cones, well-suited sums.

Lattice points inside an ellipsoid are enumerated by branch-and-bound on an
exact LDL^t factorization; all interval bounds are decided by integer
comparisons of squares, so the reported minima and minimal-vector sets are
certificates, not approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cones import RayCone
from .exact import (
    DimensionError,
    IntMatrix,
    RatMatrix,
    canonical_sign,
    clear_denominators,
    hermite_normal_form,
    ldlt_decompose,
)
from .tumatrix import TUMatrix, is_simple_matrix


class VerificationError(RuntimeError):
    """A constructed object failed its own re-verification (an internal bug)."""


@dataclass(frozen=True)
class QuadForm:
    """Symmetric rational g x g matrix acting as x -> x^t Q x."""

    matrix: RatMatrix

    def __post_init__(self):
        if not self.matrix.is_symmetric():
            raise DimensionError("quadratic form matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows) -> "QuadForm":
        return cls(RatMatrix(rows))

    @property
    def g(self) -> int:
        return self.matrix.rows

    def __call__(self, xi: Sequence[int]) -> Fraction:
        acc = Fraction(0)
        data = self.matrix.data
        for i, a in enumerate(xi):
            if a:
                acc += a * sum(data[i][j] * b for j, b in enumerate(xi) if b)
        return acc

    def scale(self, c) -> "QuadForm":
        return QuadForm(self.matrix.scale(c))

    def conjugate(self, h: IntMatrix) -> "QuadForm":
        """h Q h^t for h acting on the left."""
        hr = h.to_rational()
        return QuadForm(hr.mul(self.matrix).mul(hr.transpose()))


def is_positive_definite(q: QuadForm) -> bool:
    return ldlt_decompose(q.matrix) is not None


# ---------------------------------------------------------------------------
# rank normal form (semi-definite reduction)


def rational_rank_normal_form(q: QuadForm):
    """h in GL_g(Z) and positive definite Q' with h Q h^t = diag(Q', 0).

    Exists for every rational positive semi-definite form because the null
    space of a rational matrix is spanned by rational vectors.  Raises
    ValueError for indefinite input.  Rank 0 returns Q' = None.
    """
    if is_positive_definite(q):
        return IntMatrix.identity(q.g), q
    # integer-scaled copy shares the kernel; its row HNF transform puts the
    # kernel rows (over Z, a basis of Z^g) at the bottom
    _, den = clear_denominators([x for row in q.matrix.data for x in row])
    h_mat, u = hermite_normal_form(q.scale(den).matrix.to_integer())
    r = sum(1 for row in h_mat.data if any(x != 0 for x in row))
    conj = q.conjugate(u)
    for i in range(q.g):
        for j in range(q.g):
            if (i >= r or j >= r) and conj.matrix.data[i][j] != 0:
                raise ValueError("form is not positive semi-definite")
    if r == 0:
        return u, None
    block = RatMatrix([row[:r] for row in conj.matrix.data[:r]])
    qp = QuadForm(block)
    if not is_positive_definite(qp):
        raise ValueError("form is not positive semi-definite")
    return u, qp


# ---------------------------------------------------------------------------
# ellipsoid enumeration


def _floor_sqrt_minus(t: Fraction, s: Fraction) -> int:
    """Largest integer x with x <= sqrt(t) - s, for t >= 0."""
    p, qd = t.numerator, t.denominator
    a, b = s.numerator, s.denominator
    est = (math.isqrt(p * qd * b * b) - a * qd) // (b * qd)

    def ok(x: int) -> bool:
        u = x * b + a  # x + s = u / b
        return u <= 0 or u * u * qd <= p * b * b

    while ok(est + 1):
        est += 1
    while not ok(est):
        est -= 1
    return est


def enumerate_in_ellipsoid(q: RatMatrix, bound: Fraction,
                           center: Optional[Sequence[Fraction]] = None):
    """All x in Z^g with (x - c)^t Q (x - c) <= bound, with exact values.

    Branch and bound from the last coordinate; Q must be positive definite.
    Returns a list of (x, value) pairs.
    """
    fact = ldlt_decompose(q)
    if fact is None:
        raise ValueError("enumeration requires a positive definite form")
    lmat, diag = fact
    g = q.rows
    c = [Fraction(x) for x in (center if center is not None else [0] * g)]
    bound = Fraction(bound)
    out = []
    x = [0] * g

    def descend(i: int, used: Fraction):
        if i < 0:
            out.append((tuple(x), used))
            return
        # s_i = sum_{j>i} L[j][i] * (x_j - c_j)
        s = sum(lmat.data[j][i] * (x[j] - c[j]) for j in range(i + 1, g))
        rem = bound - used
        t = rem / diag[i]
        shift = s - c[i]  # (x_i + shift)^2 <= t
        hi = _floor_sqrt_minus(t, shift)
        lo = -_floor_sqrt_minus(t, -shift)
        for xi in range(lo, hi + 1):
            x[i] = xi
            w = xi + shift
            descend(i - 1, used + diag[i] * w * w)
        x[i] = 0

    descend(g - 1, Fraction(0))
    return out


@dataclass(frozen=True)
class MinimalVectorSet:
    """Arithmetical minimum and the vectors attaining it, one per +- pair."""

    minimum: Fraction
    vectors: tuple  # sorted tuples of ints, first nonzero entry positive

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("minimal vector set cannot be empty")

    def to_json_dict(self) -> dict:
        return {
            "mu": str(self.minimum),
            "vectors": [list(v) for v in self.vectors],
        }


def minimal_vectors(q: QuadForm) -> MinimalVectorSet:
    """Exact minimum over Z^g - {0} and all vectors attaining it."""
    if not is_positive_definite(q):
        raise ValueError("minimal vectors require a positive definite form")
    start = min(q.matrix.data[i][i] for i in range(q.g))
    hits = [(v, val) for v, val in enumerate_in_ellipsoid(q.matrix, start)
            if any(x != 0 for x in v)]
    mu = min(val for _, val in hits)
    vecs = sorted({canonical_sign(v) for v, val in hits if val == mu})
    return MinimalVectorSet(mu, tuple(vecs))


def perfect_cone_of(q: QuadForm) -> RayCone:
    """Cone generated by the outer products of the minimal vectors."""
    mv = minimal_vectors(q)
    return RayCone.from_vectors(q.g, mv.vectors, provenance="perfect")


def is_perfect(q: QuadForm) -> bool:
    g = q.g
    return perfect_cone_of(q).span_dimension() == g * (g + 1) // 2


def is_well_suited(q: QuadForm, a: TUMatrix) -> bool:
    """Q takes value >= 1 on nonzero integer vectors, with equality exactly
    on the +- columns of the matrix."""
    m = a.inner
    if m.rows != q.g:
        raise DimensionError("matrix rows must match the form dimension")
    if not is_simple_matrix(m):
        raise ValueError("well-suitedness is defined against a simple matrix")
    if not is_positive_definite(q):
        return False
    cols = {canonical_sign(c) for c in m.columns()}
    on_sphere = set()
    for v, val in enumerate_in_ellipsoid(q.matrix, Fraction(1)):
        if all(x == 0 for x in v):
            continue
        if val < 1:
            return False
        on_sphere.add(canonical_sign(v))
    return on_sphere == cols


# ---------------------------------------------------------------------------
# named forms


def q5() -> QuadForm:
    """The perfect rank-5 form with minimum 2 whose 20 minimal vectors split
    into four cyclic families; its cone contains the R10 cone as a face."""
    return QuadForm(RatMatrix([
        [2, 1, 0, 0, 1],
        [1, 2, 1, 0, 0],
        [0, 1, 2, 1, 0],
        [0, 0, 1, 2, 1],
        [1, 0, 0, 1, 2],
    ]))


def q0_principal(g: int) -> QuadForm:
    """The form with unit diagonal and 1/2 off-diagonal; its minimal vectors
    are exactly the columns of the complete-graph representation."""
    if g < 1:
        raise ValueError("dimension must be at least 1")
    half = Fraction(1, 2)
    return QuadForm(RatMatrix(
        [[Fraction(1) if i == j else half for j in range(g)] for i in range(g)]
    ))


def q5_families():
    """The four cyclic families of the 20 minimal vectors of q5.

    e_i are the unit coordinate vectors; the other families are alternating
    sums of 2, 3 and 4 cyclically consecutive ones.
    """
    def unit(i):
        v = [0] * 5
        v[i % 5] = 1
        return v

    def alt(i, k):
        v = [0] * 5
        for t in range(k):
            v[(i + t) % 5] += 1 if t % 2 == 0 else -1
        return tuple(v)

    es = [tuple(unit(i)) for i in range(5)]
    fs = [alt(i, 2) for i in range(5)]
    gs = [alt(i, 3) for i in range(5)]
    hs = [alt(i, 4) for i in range(5)]
    return es, fs, gs, hs


_H_WEIGHTS = {1: 1, 2: 2}


def h_functional(alpha) -> Fraction:
    """Cyclic supporting functional on 5x5 symmetric coefficient arrays.

    Off-diagonal coefficients are weighted 1 at cyclic distance one and 2 at
    cyclic distance two, each ordered pair counted, so a rank-one array
    vv^t scores sum_{i != j} w(i,j) v_i v_j.  A length-5 integer vector is
    accepted as shorthand for its outer product.
    """
    if isinstance(alpha, (list, tuple)) and len(alpha) == 5 and not isinstance(alpha[0], (list, tuple)):
        v = [Fraction(x) for x in alpha]
        mat = RatMatrix([[v[i] * v[j] for j in range(5)] for i in range(5)])
    elif isinstance(alpha, QuadForm):
        mat = alpha.matrix
    elif isinstance(alpha, RatMatrix):
        mat = alpha
    else:
        mat = RatMatrix(alpha)
    if mat.rows != 5 or mat.cols != 5:
        raise DimensionError("functional is defined on 5x5 arrays")
    if not mat.is_symmetric():
        raise DimensionError("coefficient array must be symmetric")
    acc = Fraction(0)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            d = min((i - j) % 5, (j - i) % 5)
            acc += _H_WEIGHTS[d] * mat.data[i][j]
    return acc


def h_functional_matrix() -> RatMatrix:
    """The functional of h_functional as a symmetric matrix under the
    Frobenius pairing <H, S> = sum_ij H_ij S_ij."""
    rows = []
    for i in range(5):
        row = []
        for j in range(5):
            if i == j:
                row.append(Fraction(0))
            else:
                d = min((i - j) % 5, (j - i) % 5)
                row.append(Fraction(_H_WEIGHTS[d]))
        rows.append(row)
    return RatMatrix(rows)


# ---------------------------------------------------------------------------
# well-suited pairs and their sums


@dataclass(frozen=True)
class WellSuitedPair:
    form: QuadForm
    matrix: TUMatrix

    @classmethod
    def check(cls, form: QuadForm, matrix: TUMatrix) -> "WellSuitedPair":
        if not is_well_suited(form, matrix):
            raise ValueError("form is not well-suited for the matrix")
        return cls(form, matrix)


def _block_diag(q1: RatMatrix, q2: RatMatrix) -> RatMatrix:
    g1, g2 = q1.rows, q2.rows
    rows = []
    for i in range(g1):
        rows.append(list(q1.data[i]) + [Fraction(0)] * g2)
    for i in range(g2):
        rows.append([Fraction(0)] * g1 + list(q2.data[i]))
    return RatMatrix(rows)


def _verified_pair(qbar: QuadForm, a: TUMatrix) -> WellSuitedPair:
    if not is_well_suited(qbar, a):
        raise VerificationError(
            "assembled form failed its well-suitedness re-verification"
        )
    return WellSuitedPair(qbar, a)


def well_suited_sum1(p1: WellSuitedPair, p2: WellSuitedPair) -> WellSuitedPair:
    """Direct sum: diag(Q1, Q2) is well-suited for the block-diagonal matrix."""
    from .tumatrix import seymour_sum1

    qbar = QuadForm(_block_diag(p1.form.matrix, p2.form.matrix))
    a = seymour_sum1(p1.matrix, p2.matrix)
    return _verified_pair(qbar, a)


def _split_sum2_left(q: RatMatrix):
    g1 = q.rows - 1
    if q.data[g1][g1] != 1:
        raise ValueError("left form must have a trailing unit diagonal entry")
    q1 = RatMatrix([row[:g1] for row in q.data[:g1]]) if g1 else None
    r1 = [q.data[i][g1] for i in range(g1)]
    return q1, r1


def _split_sum2_right(q: RatMatrix):
    g2 = q.rows - 1
    if q.data[0][0] != 1:
        raise ValueError("right form must have a leading unit diagonal entry")
    q2 = RatMatrix([row[1:] for row in q.data[1:]]) if g2 else None
    r2 = [q.data[1 + i][0] for i in range(g2)]
    return q2, r2


def well_suited_sum2(p1: WellSuitedPair, p2: WellSuitedPair) -> WellSuitedPair:
    """Glue two well-suited pairs along a shared unit column.

    The assembled form couples the border vectors through their outer
    product, which is exactly what makes the evaluation split into the two
    block evaluations plus a cross term that completes a square.
    """
    from .tumatrix import SumShape2, seymour_sum2

    shape = SumShape2(p1.matrix, p2.matrix)
    g1, g2 = shape.g1, shape.g2
    q1, r1 = _split_sum2_left(p1.form.matrix)
    q2, r2 = _split_sum2_right(p2.form.matrix)
    n = g1 + 1 + g2
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(g1):
        for j in range(g1):
            rows[i][j] = q1.data[i][j]
        rows[i][g1] = r1[i]
        rows[g1][i] = r1[i]
        for j in range(g2):
            rows[i][g1 + 1 + j] = r1[i] * r2[j]
            rows[g1 + 1 + j][i] = r1[i] * r2[j]
    rows[g1][g1] = Fraction(1)
    for j in range(g2):
        rows[g1][g1 + 1 + j] = r2[j]
        rows[g1 + 1 + j][g1] = r2[j]
        for k in range(g2):
            rows[g1 + 1 + j][g1 + 1 + k] = q2.data[j][k]
    qbar = QuadForm(RatMatrix(rows))
    a = seymour_sum2(shape)
    return _verified_pair(qbar, a)


_MHALF = Fraction(-1, 2)


def _split_sum3_left(q: RatMatrix):
    g1 = q.rows - 2
    center = [[q.data[g1][g1], q.data[g1][g1 + 1]],
              [q.data[g1 + 1][g1], q.data[g1 + 1][g1 + 1]]]
    if center != [[Fraction(1), _MHALF], [_MHALF, Fraction(1)]]:
        raise ValueError("left form must carry the fixed central 2x2 block")
    q1 = RatMatrix([row[:g1] for row in q.data[:g1]]) if g1 else None
    r1 = [q.data[i][g1] for i in range(g1)]
    s1 = [q.data[i][g1 + 1] for i in range(g1)]
    return q1, r1, s1


def _split_sum3_right(q: RatMatrix):
    g2 = q.rows - 2
    center = [[q.data[0][0], q.data[0][1]], [q.data[1][0], q.data[1][1]]]
    if center != [[Fraction(1), _MHALF], [_MHALF, Fraction(1)]]:
        raise ValueError("right form must carry the fixed central 2x2 block")
    q2 = RatMatrix([row[2:] for row in q.data[2:]]) if g2 else None
    r2 = [q.data[2 + i][0] for i in range(g2)]
    s2 = [q.data[2 + i][1] for i in range(g2)]
    return q2, r2, s2


def sum3_coupling(r1, s1, r2, s2) -> list:
    """Coupling block M[j][k] = 4/3 (r1^j r2^k + s1^j s2^k) + 2/3 (r1^j s2^k + s1^j r2^k).

    Chosen so the mixed terms of the two-variable square completion cancel
    exactly; see the cancellation property test.
    """
    ft, tt = Fraction(4, 3), Fraction(2, 3)
    return [
        [ft * (r1[j] * r2[k] + s1[j] * s2[k]) + tt * (r1[j] * s2[k] + s1[j] * r2[k])
         for k in range(len(r2))]
        for j in range(len(r1))
    ]


def well_suited_sum3(p1: WellSuitedPair, p2: WellSuitedPair) -> WellSuitedPair:
    """Glue two well-suited pairs along the shared 2-row triangle pattern."""
    from .tumatrix import SumShape3, seymour_sum3

    shape = SumShape3(p1.matrix, p2.matrix)
    g1, g2 = shape.g1, shape.g2
    q1, r1, s1 = _split_sum3_left(p1.form.matrix)
    q2, r2, s2 = _split_sum3_right(p2.form.matrix)
    m = sum3_coupling(r1, s1, r2, s2)
    n = g1 + 2 + g2
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(g1):
        for j in range(g1):
            rows[i][j] = q1.data[i][j]
        rows[i][g1] = rows[g1][i] = r1[i]
        rows[i][g1 + 1] = rows[g1 + 1][i] = s1[i]
        for k in range(g2):
            rows[i][g1 + 2 + k] = rows[g1 + 2 + k][i] = m[i][k]
    rows[g1][g1] = rows[g1 + 1][g1 + 1] = Fraction(1)
    rows[g1][g1 + 1] = rows[g1 + 1][g1] = _MHALF
    for k in range(g2):
        rows[g1][g1 + 2 + k] = rows[g1 + 2 + k][g1] = r2[k]
        rows[g1 + 1][g1 + 2 + k] = rows[g1 + 2 + k][g1 + 1] = s2[k]
        for l in range(g2):
            rows[g1 + 2 + k][g1 + 2 + l] = q2.data[k][l]
    qbar = QuadForm(RatMatrix(rows))
    a = seymour_sum3(shape)
    return _verified_pair(qbar, a)
