"""Positive definite quadratic forms: minima, perfect cones, well-suited sums.

Lattice points inside an ellipsoid are enumerated by Fincke-Pohst branch
and bound on the fraction-free LDL^t (symmetric Bareiss pivots) of an
integer multiple of the form; every coordinate range is an integer square
root of an integer budget, so the reported minima and minimal-vector sets
are certificates, not approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cones import RayCone, evaluate_functional, rank_one_sum
from .exact import (
    DimensionError,
    IntMatrix,
    RatMatrix,
    canonical_sign,
    clear_denominators,
    hermite_normal_form,
    integer_pivots,
    invert,
)
from .tumatrix import (
    SumShape2,
    SumShape3,
    TUMatrix,
    is_simple_matrix,
    seymour_sum1,
    seymour_sum2,
    seymour_sum3,
)


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
        return evaluate_functional(self.matrix, xi)

    def scale(self, c) -> "QuadForm":
        return QuadForm(self.matrix.scale(c))

    def conjugate(self, h: IntMatrix) -> "QuadForm":
        """h Q h^t for h acting on the left."""
        hr = h.to_rational()
        return QuadForm(hr.mul(self.matrix).mul(hr.transpose()))


def is_positive_definite(q: QuadForm) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return integer_pivots(q.matrix)[2] is not None


# ---------------------------------------------------------------------------
# rank normal form (semi-definite reduction)


def rational_rank_normal_form(q: QuadForm):
    """h in GL_g(Z) and positive definite Q' with h Q h^t = diag(Q', 0).

    Exists for every rational positive semi-definite form because the null
    space of a rational matrix is spanned by rational vectors.  Raises
    ValueError for indefinite input.  Rank 0 returns Q' = None.
    """
    qi, _, pivots = integer_pivots(q.matrix)
    if pivots is not None:
        return IntMatrix.identity(q.g), q
    # the integer multiple qi shares the kernel; its row HNF transform puts
    # the kernel rows (over Z, a basis of Z^g) at the bottom
    h_mat, u = hermite_normal_form(IntMatrix(qi))
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


def enumerate_in_ellipsoid(q: RatMatrix, bound: Fraction,
                           center: Optional[Sequence[Fraction]] = None):
    """All x in Z^g with (x - c)^t Q (x - c) <= bound, with exact values.

    Fincke-Pohst branch and bound from the last coordinate, in integers.
    With Q scaled to an integer matrix, c = cn/e and z = e x - cn, one
    symmetric_bareiss pass writes e^2 Q(x - c) over one common denominator
    as sum_k coef_k t_k^2, where t_k = sum_{j >= k} m[k][j] z_j is linear
    in x_k once x_{k+1}, ..., x_{g-1} are fixed.  Each coordinate's range
    is then the integer interval |t_k| <= isqrt(remaining budget / coef_k).
    Q must be positive definite.  Returns a list of (x, value) pairs in
    lexicographic order of (x_{g-1}, ..., x_0); a negative bound gives the
    empty list.
    """
    if not q.is_symmetric():
        raise DimensionError("enumeration needs a symmetric matrix")
    _, qden, pivots = integer_pivots(q)
    if pivots is None:
        raise ValueError("enumeration requires a positive definite form")
    m, d = pivots
    g = q.rows
    cn, e = clear_denominators([Fraction(x) for x in center] if center is not None
                               else [Fraction(0)] * g)
    den = math.lcm(*(d[k] * d[k + 1] for k in range(g)))
    coef = [den // (d[k] * d[k + 1]) for k in range(g)]
    # (x - c)^t Q (x - c) = (sum_k coef_k t_k^2) / scale
    scale = den * e * e * qden
    bound = Fraction(bound)
    budget = bound.numerator * scale // bound.denominator
    if budget < 0:
        return []
    out = []
    x = [0] * g
    z = [0] * g

    def descend(k: int, used: int):
        if k < 0:
            out.append((tuple(x), Fraction(used, scale)))
            return
        row = m[k]
        a = row[k] * e  # t_k = a x_k + b
        b = sum(row[j] * z[j] for j in range(k + 1, g)) - row[k] * cn[k]
        s = math.isqrt((budget - used) // coef[k])
        for xk in range(-((s + b) // a), (s - b) // a + 1):
            x[k] = xk
            z[k] = e * xk - cn[k]
            t = a * xk + b
            descend(k - 1, used + coef[k] * t * t)

    descend(g - 1, 0)
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
    """Exact minimum over Z^g - {0} and all vectors attaining it.  The
    enumeration's one pivot pass also decides definiteness."""
    start = min(q.matrix.data[i][i] for i in range(q.g))
    try:
        found = enumerate_in_ellipsoid(q.matrix, start)
    except ValueError:
        raise ValueError("minimal vectors require a positive definite form") from None
    hits = [(v, val) for v, val in found if any(x != 0 for x in v)]
    mu = min(val for _, val in hits)
    vecs = sorted({canonical_sign(v) for v, val in hits if val == mu})
    return MinimalVectorSet(mu, tuple(vecs))


def perfect_cone_of(q: QuadForm) -> RayCone:
    """Cone generated by the outer products of the minimal vectors."""
    mv = minimal_vectors(q)
    return RayCone.from_vectors(q.g, mv.vectors)


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
    try:
        found = enumerate_in_ellipsoid(q.matrix, Fraction(1))
    except ValueError:  # not definite; q.matrix is symmetric
        return False
    cols = {canonical_sign(c) for c in m.columns()}
    on_sphere = set()
    for v, val in found:
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


def h_functional_matrix() -> RatMatrix:
    """The cyclic supporting functional H on 5x5 symmetric arrays.

    H_ij is the cyclic distance between i and j: 0 on the diagonal, 1 for
    cyclic neighbours and 2 otherwise.
    """
    return RatMatrix([[min((i - j) % 5, (j - i) % 5) for j in range(5)] for i in range(5)])


def h_functional(alpha) -> Fraction:
    """Frobenius pairing <H, S> = sum_ij H_ij S_ij with h_functional_matrix().

    Each ordered off-diagonal pair is counted, so a rank-one array vv^t
    scores sum_{i != j} H_ij v_i v_j.  S is a symmetric RatMatrix, or an
    integer vector as shorthand for its outer product; any other input
    raises TypeError.
    """
    if isinstance(alpha, RatMatrix):
        mat = alpha
    elif isinstance(alpha, (list, tuple)) and all(isinstance(x, int) for x in alpha):
        mat = rank_one_sum([alpha])
    else:
        raise TypeError("h_functional takes an integer vector or a RatMatrix")
    if mat.rows != 5 or mat.cols != 5:
        raise DimensionError("functional is defined on 5x5 arrays")
    if not mat.is_symmetric():
        raise DimensionError("coefficient array must be symmetric")
    h = h_functional_matrix()
    return sum((h.data[i][j] * mat.data[i][j] for i in range(5) for j in range(5)),
               Fraction(0))


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


# The central block C that both forms of a k-sum carry on their k shared
# coordinates (it takes the value 1 on each shared tail column), and C^-1.
_CENTRES = {0: (), 1: ((1,),), 2: ((1, Fraction(-1, 2)), (Fraction(-1, 2), 1))}
_CENTRE_INVERSES = {
    0: (),
    1: invert(RatMatrix(_CENTRES[1])).data,
    2: invert(RatMatrix(_CENTRES[2])).data,
}


def sum_coupling(u, v, k: int) -> Fraction:
    """u^t C^-1 v for the central block C of a k-sum."""
    cinv = _CENTRE_INVERSES[k]
    return sum((u[s] * cinv[s][t] * v[t] for s in range(k) for t in range(k)),
               Fraction(0))


def _glue(p1: WellSuitedPair, p2: WellSuitedPair, k: int, a: TUMatrix) -> WellSuitedPair:
    """Glue [Q1 B1; B1^t C] and [C B2^t; B2 Q2] along their k shared
    coordinates into [Q1 B1 M; B1^t C B2^t; M^t B2 Q2], M = B1 C^-1 B2^t.

    With u1 = B1^t xi1 and u2 = B2^t xi2, the glued value at (xi1, y, xi2)
    splits into the two Schur complements plus C at a shifted y:

        [Q1(xi1) - u1^t C^-1 u1] + [Q2(xi2) - u2^t C^-1 u2]
            + C(y + C^-1 (u1 + u2)),

    because M is exactly the cross term 2 u1^t C^-1 u2 of the last square.
    k = 0 gives the direct sum diag(Q1, Q2).  The result is re-verified by
    enumeration against the glued matrix `a`.
    """
    q1, q2 = p1.form.matrix.data, p2.form.matrix.data
    g1 = len(q1) - k
    centre = _CENTRES[k]
    if tuple(row[g1:] for row in q1[g1:]) != centre:
        raise ValueError(f"left form must carry the fixed central {k}x{k} block")
    if tuple(row[:k] for row in q2[:k]) != centre:
        raise ValueError(f"right form must carry the fixed central {k}x{k} block")
    m = [[sum_coupling(q1[i][g1:], q2[j][:k], k) for j in range(k, len(q2))]
         for i in range(g1)]
    rows = [list(q1[i]) + m[i] for i in range(g1)]
    rows += [list(q1[g1 + s]) + list(q2[s][k:]) for s in range(k)]
    rows += [[m[i][j] for i in range(g1)] + list(q2[k + j]) for j in range(len(q2) - k)]
    qbar = QuadForm(RatMatrix(rows))
    if not is_well_suited(qbar, a):
        raise VerificationError(
            "assembled form failed its well-suitedness re-verification"
        )
    return WellSuitedPair(qbar, a)


def well_suited_sum1(p1: WellSuitedPair, p2: WellSuitedPair) -> WellSuitedPair:
    """Direct sum: diag(Q1, Q2) is well-suited for the block-diagonal matrix."""
    return _glue(p1, p2, 0, seymour_sum1(p1.matrix, p2.matrix))


def well_suited_sum2(p1: WellSuitedPair, p2: WellSuitedPair) -> WellSuitedPair:
    """Glue two well-suited pairs along a shared unit column (C = [1])."""
    return _glue(p1, p2, 1, seymour_sum2(SumShape2(p1.matrix, p2.matrix)))


def well_suited_sum3(p1: WellSuitedPair, p2: WellSuitedPair) -> WellSuitedPair:
    """Glue two well-suited pairs along the shared triangle pattern
    (C = [[1, -1/2], [-1/2, 1]])."""
    return _glue(p1, p2, 2, seymour_sum3(SumShape3(p1.matrix, p2.matrix)))
