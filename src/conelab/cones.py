"""Rational polyhedral cones spanned by rank-one quadratic forms.

A cone is stored through the primitive integer vectors v whose outer
products vv^t generate it.  Symmetric matrices are flattened into the
coordinate basis {E_ii} + {E_ij + E_ji}, so span questions become exact
linear algebra, and membership and face questions become small exact
feasibility LPs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, TYPE_CHECKING

from .exact import (
    DimensionError,
    IntMatrix,
    RatMatrix,
    canonical_sign,
    determinant,
    primitive,
    rank,
)
from .lp import feasible_nonneg_combination
from .tumatrix import TUMatrix, is_simple_matrix

if TYPE_CHECKING:  # pragma: no cover
    from .quadforms import QuadForm

log = logging.getLogger(__name__)


def sym_coords(m: RatMatrix) -> tuple:
    """Flatten a symmetric matrix: diagonal first, then upper off-diagonal."""
    g = m.rows
    out = [m.data[i][i] for i in range(g)]
    out.extend(m.data[i][j] for i in range(g) for j in range(i + 1, g))
    return tuple(out)


def rank_one_coords(v: Sequence[int]) -> tuple:
    g = len(v)
    out = [Fraction(v[i] * v[i]) for i in range(g)]
    out.extend(Fraction(v[i] * v[j]) for i in range(g) for j in range(i + 1, g))
    return tuple(out)


def pairing_coefficients(v: Sequence[int]) -> tuple:
    """Coefficients of <H, vv^t> in the flattened H coordinates (v^t H v)."""
    g = len(v)
    out = [Fraction(v[i] * v[i]) for i in range(g)]
    out.extend(Fraction(2 * v[i] * v[j]) for i in range(g) for j in range(i + 1, g))
    return tuple(out)


def rank_one_sum(vectors, weights=None) -> RatMatrix:
    """The symmetric matrix sum_i w_i v_i v_i^t (every weight 1 by default)."""
    if weights is None:
        weights = [1] * len(vectors)
    g = len(vectors[0])
    return RatMatrix([[sum(w * v[i] * v[j] for w, v in zip(weights, vectors))
                       for j in range(g)] for i in range(g)])


def evaluate_functional(h: RatMatrix, v: Sequence[int]) -> Fraction:
    """Frobenius pairing of the symmetric functional H with vv^t, i.e. v^t H v."""
    acc = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            acc += vi * sum(h.data[i][j] * vj for j, vj in enumerate(v) if vj)
    return acc


@dataclass(frozen=True)
class RayCone:
    """Cone generated by {vv^t : v generator}; vectors kept primitive and
    sign-normalized so generator sets compare by equality.  `simplicial`
    is derived from the generators: their rank-one forms are linearly
    independent."""

    g: int
    generators: tuple
    simplicial: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "simplicial",
                           self.span_dimension() == len(self.generators))

    @classmethod
    def from_vectors(cls, g: int, vectors) -> "RayCone":
        gens = []
        for v in vectors:
            if len(v) != g:
                raise DimensionError("generator length does not match g")
            p = canonical_sign(primitive(v)[0])
            if all(x == 0 for x in p):
                raise ValueError("zero generator")
            gens.append(p)
        if len(set(gens)) != len(gens):
            raise ValueError("proportional generators")
        return cls(g, tuple(gens))

    def span_dimension(self) -> int:
        if not self.generators:
            return 0
        return rank(RatMatrix([rank_one_coords(v) for v in self.generators]))

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "generators": [list(v) for v in self.generators],
            "simplicial": self.simplicial,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RayCone":
        for key in ("g", "generators"):
            if key not in d:
                raise ValueError(f"cone JSON lacks the field {key!r}")
        cone = cls.from_vectors(int(d["g"]), d["generators"])
        if d.get("simplicial") and not cone.simplicial:
            raise ValueError("generators claimed simplicial but are dependent")
        return cone


def sigma_of_matrix(a: TUMatrix) -> RayCone:
    """Cone of the column outer products of a simple unimodular matrix.

    Such cones are simplicial; the constructor re-verifies independence and
    treats a failure as an invalid (non-unimodular or non-simple) input.
    """
    m = a.inner
    if m.rows and not is_simple_matrix(m):
        raise ValueError("matrix has zero or proportional columns")
    cone = RayCone.from_vectors(m.rows, m.columns())
    if not cone.simplicial:
        raise ValueError("column outer products are dependent; input not unimodular")
    return cone


def face_by_deletion(c: RayCone, indices) -> RayCone:
    drop = set(indices)
    for i in drop:
        if not (0 <= i < len(c.generators)):
            raise IndexError(f"generator index {i} out of range")
    kept = tuple(v for i, v in enumerate(c.generators) if i not in drop)
    return RayCone(c.g, kept)


def membership(q, c: RayCone) -> Optional[tuple]:
    """Nonnegative coefficients expressing q over the cone generators, or None.

    One LP feasibility problem for every cone.  When the cone is simplicial
    the coefficients are unique, so the LP returns exactly them.
    """
    mat = q.matrix if hasattr(q, "matrix") else q
    if mat.rows != c.g:
        raise DimensionError("form dimension does not match the cone")
    cols = [rank_one_coords(v) for v in c.generators]
    return feasible_nonneg_combination(cols, sym_coords(mat))


def principal_cone_contains(q) -> bool:
    """Nonpositive off-diagonal entries and nonnegative row sums."""
    mat = q.matrix if hasattr(q, "matrix") else q
    g = mat.rows
    for i in range(g):
        for j in range(g):
            if i != j and mat.data[i][j] > 0:
                return False
        if sum(mat.data[i]) < 0:
            return False
    return True


def gl_conjugate(h: IntMatrix, c: RayCone) -> RayCone:
    if abs(determinant(h.to_rational())) != 1:
        raise ValueError("conjugating matrix must have determinant +-1")
    return RayCone.from_vectors(c.g, [h.mul_vector(v) for v in c.generators])


@dataclass(frozen=True)
class FaceCertificate:
    """Supporting functional: zero on the face generators, negative elsewhere."""

    functional: RatMatrix
    zero_set: tuple
    strict_set: tuple
    values: tuple  # H-value on every generator of the ambient cone

    def to_json_dict(self) -> dict:
        return {
            "functional": [[str(x) for x in row] for row in self.functional.data],
            "zero_set": list(self.zero_set),
            "strict_set": list(self.strict_set),
            "values": [str(v) for v in self.values],
        }


def _coords_to_matrix(g: int, coords) -> RatMatrix:
    rows = [[Fraction(0)] * g for _ in range(g)]
    for i in range(g):
        rows[i][i] = coords[i]
    k = g
    for i in range(g):
        for j in range(i + 1, g):
            rows[i][j] = coords[k]
            rows[j][i] = coords[k]
            k += 1
    return RatMatrix(rows)


def find_supporting_functional(sub, c: RayCone) -> Optional[FaceCertificate]:
    """Search a symmetric H with H-value 0 on `sub` and < 0 on the rest.

    Strict inequalities are scale-invariant, so this asks the feasibility
    question <H, vv^t> = 0 on `sub` and <H, vv^t> + s_v = -1 off it, with
    H = H+ - H- and slacks s_v >= 0.  A solution is a certificate (values
    <= -1 off the face), re-checked by `validate_face_certificate`; None
    means no supporting hyperplane exists.
    """
    sub = sorted(set(sub))
    n = len(c.generators)
    for i in sub:
        if not (0 <= i < n):
            raise IndexError(f"generator index {i} out of range")
    complement = sorted(set(range(n)) - set(sub))
    rows = [pairing_coefficients(c.generators[i]) for i in sub + complement]
    m = c.g * (c.g + 1) // 2
    columns = [[row[k] for row in rows] for k in range(m)]
    columns += [[-v for v in col] for col in columns]
    columns += [[int(i == len(sub) + j) for i in range(n)] for j in range(len(complement))]
    x = feasible_nonneg_combination(columns, [0] * len(sub) + [-1] * len(complement))
    if x is None:
        return None
    h = _coords_to_matrix(c.g, [p - q for p, q in zip(x[:m], x[m:2 * m])])
    values = tuple(evaluate_functional(h, v) for v in c.generators)
    cert = FaceCertificate(h, tuple(sub), tuple(complement), values)
    if not validate_face_certificate(cert, c, sub):  # pragma: no cover
        raise RuntimeError("LP produced an invalid certificate")
    return cert


def validate_face_certificate(cert: FaceCertificate, c: RayCone, sub) -> bool:
    """Exact re-check of a claimed supporting functional, generator by generator."""
    sub = set(sub)
    if not cert.functional.is_symmetric():
        return False
    for i, v in enumerate(c.generators):
        val = evaluate_functional(cert.functional, v)
        if i in sub:
            if val != 0:
                return False
        elif val >= 0:
            return False
    return True


def is_face(sub_cone: RayCone, c: RayCone) -> Optional[FaceCertificate]:
    """The supporting functional that certifies sub_cone as a face of c, or
    None when sub_cone is not a face."""
    if sub_cone.g != c.g:
        raise DimensionError("cone dimensions do not match")
    index = {v: i for i, v in enumerate(c.generators)}
    sub = []
    for v in sub_cone.generators:
        if v not in index:
            log.warning("generator %s does not appear in the ambient cone", v)
            return None
        sub.append(index[v])
    return find_supporting_functional(sub, c)
