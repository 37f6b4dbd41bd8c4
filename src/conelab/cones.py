"""Rational polyhedral cones spanned by rank-one quadratic forms.

A cone is stored through the primitive integer vectors v whose outer
products vv^t generate it.  Symmetric matrices are flattened into the
coordinate basis {E_ii} + {E_ij + E_ji}, so membership and span questions
become exact linear algebra, and face questions become small exact LPs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
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
    solve_exact,
)
from .lp import feasible_nonneg_combination, solve_lp
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
    sign-normalized so generator sets compare by equality."""

    g: int
    generators: tuple
    simplicial: bool
    provenance: str = "other"

    @classmethod
    def from_vectors(cls, g: int, vectors, simplicial: Optional[bool] = None,
                     provenance: str = "other") -> "RayCone":
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
        gens = tuple(gens)
        indep = _linearly_independent(gens)
        if simplicial is None:
            simplicial = indep
        elif simplicial and not indep:
            raise ValueError("generators claimed simplicial but are dependent")
        return cls(g, gens, simplicial, provenance)

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
        if not d["generators"]:
            return cls(int(d["g"]), (), True, "other")
        return cls.from_vectors(int(d["g"]), d["generators"],
                                simplicial=bool(d.get("simplicial", False)))


def _linearly_independent(gens) -> bool:
    if not gens:
        return True
    m = RatMatrix([rank_one_coords(v) for v in gens])
    return rank(m) == len(gens)


def sigma_of_matrix(a: TUMatrix, provenance: str = "matroidal") -> RayCone:
    """Cone of the column outer products of a simple unimodular matrix.

    Such cones are simplicial; the constructor re-verifies independence and
    treats a failure as an invalid (non-unimodular or non-simple) input.
    """
    m = a.inner
    if m.rows and not is_simple_matrix(m):
        raise ValueError("matrix has zero or proportional columns")
    cone = RayCone.from_vectors(m.rows, m.columns(), provenance=provenance)
    if not cone.simplicial:
        raise ValueError("column outer products are dependent; input not unimodular")
    return cone


def face_by_deletion(c: RayCone, indices) -> RayCone:
    drop = set(indices)
    for i in drop:
        if not (0 <= i < len(c.generators)):
            raise IndexError(f"generator index {i} out of range")
    kept = tuple(v for i, v in enumerate(c.generators) if i not in drop)
    return RayCone(c.g, kept, c.simplicial, c.provenance)


def membership(q, c: RayCone) -> Optional[tuple]:
    """Nonnegative coefficients expressing q over the cone generators.

    Solved as an exact linear system when the cone is simplicial (the
    coefficients are then unique), otherwise as an LP feasibility problem.
    """
    mat = q.matrix if hasattr(q, "matrix") else q
    if mat.rows != c.g:
        raise DimensionError("form dimension does not match the cone")
    target = sym_coords(mat)
    if not c.generators:
        return () if all(x == 0 for x in target) else None
    cols = [rank_one_coords(v) for v in c.generators]
    if c.simplicial:
        a = RatMatrix(list(zip(*cols)))
        sol = solve_exact(a, target)
        if sol is None:
            return None
        lam = sol.x
        # solution may be non-unique only if generators were dependent
        if any(x < 0 for x in lam):
            return None
        return tuple(lam)
    lam = feasible_nonneg_combination(cols, target)
    return None if lam is None else tuple(lam)


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
    return RayCone.from_vectors(
        c.g, [h.mul_vector(v) for v in c.generators],
        simplicial=c.simplicial, provenance=c.provenance,
    )


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

    Solved by exact LP: maximize the worst-case slack t subject to
    value <= -t on the complement, value = 0 on `sub`, and the box
    normalization |H_coord| <= 1.  A positive optimum is a certificate
    that the sub-generators span a face; optimum zero certifies that no
    such supporting hyperplane exists.
    """
    sub = sorted(set(sub))
    n = len(c.generators)
    for i in sub:
        if not (0 <= i < n):
            raise IndexError(f"generator index {i} out of range")
    complement = [j for j in range(n) if j not in set(sub)]
    g = c.g
    m = g * (g + 1) // 2
    if not complement:
        zero = RatMatrix.zeros(g, g)
        return FaceCertificate(zero, tuple(sub), (), tuple(Fraction(0) for _ in range(n)))

    # variables: H coords (m of them) then t
    nvar = m + 1
    a_eq = []
    b_eq = []
    for i in sub:
        a_eq.append(list(pairing_coefficients(c.generators[i])) + [Fraction(0)])
        b_eq.append(Fraction(0))
    a_ub = []
    b_ub = []
    for j in complement:
        a_ub.append(list(pairing_coefficients(c.generators[j])) + [Fraction(1)])
        b_ub.append(Fraction(0))
    for k in range(m):
        row = [Fraction(0)] * nvar
        row[k] = Fraction(1)
        a_ub.append(list(row))
        b_ub.append(Fraction(1))
        row2 = [Fraction(0)] * nvar
        row2[k] = Fraction(-1)
        a_ub.append(row2)
        b_ub.append(Fraction(1))
    trow = [Fraction(0)] * nvar
    trow[m] = Fraction(-1)
    a_ub.append(trow)
    b_ub.append(Fraction(0))
    cost = [Fraction(0)] * m + [Fraction(1)]
    res = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, maximize=True)
    if res.status != "optimal" or res.objective <= 0:
        return None
    h = _coords_to_matrix(g, res.x[:m])
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


def is_face(sub_cone: RayCone, c: RayCone) -> bool:
    """Whether sub_cone is a face of c, certified by a supporting functional."""
    if sub_cone.g != c.g:
        raise DimensionError("cone dimensions do not match")
    index = {v: i for i, v in enumerate(c.generators)}
    sub = []
    for v in sub_cone.generators:
        if v not in index:
            log.warning("generator %s does not appear in the ambient cone", v)
            return False
        sub.append(index[v])
    return find_supporting_functional(sub, c) is not None
