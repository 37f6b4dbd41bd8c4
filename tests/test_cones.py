import hashlib
import random
from fractions import Fraction as F

import pytest

from conelab.cones import (
    FaceCertificate,
    RayCone,
    evaluate_functional,
    face_by_deletion,
    find_supporting_functional,
    gl_conjugate,
    is_face,
    membership,
    principal_cone_contains,
    rank_one_coords,
    sigma_of_matrix,
    sym_coords,
    validate_face_certificate,
)
from conelab.exact import IntMatrix, RatMatrix, solve_exact
from conelab.fixtures import load_int_matrix
from conelab.lp import feasible_nonneg_combination
from conelab.matroids import complete_graph, graphic_representation
from conelab.quadforms import QuadForm, h_functional_matrix, perfect_cone_of, q0_principal, q5
from conelab.tumatrix import TUMatrix
from test_delone import D4

AK3 = TUMatrix.check(graphic_representation(complete_graph(3)))


def test_sigma_of_matrix_examples():
    c = sigma_of_matrix(AK3)
    assert set(c.generators) == {(1, 0), (0, 1), (1, -1)}
    assert c.simplicial

    c = sigma_of_matrix(TUMatrix.check(IntMatrix.identity(2)))
    assert set(c.generators) == {(1, 0), (0, 1)}

    c10 = sigma_of_matrix(TUMatrix.check(load_int_matrix("A10.txt")))
    assert len(c10.generators) == 10
    assert c10.simplicial
    assert c10.span_dimension() == 10


def test_sigma_rejects_proportional_columns():
    with pytest.raises(ValueError):
        sigma_of_matrix(TUMatrix(IntMatrix([[1, -1], [0, 0]])))


def test_face_by_deletion():
    c = sigma_of_matrix(AK3)
    f = face_by_deletion(c, [2])
    assert set(f.generators) == {(1, 0), (0, 1)}
    assert face_by_deletion(c, [0, 1, 2]).generators == ()
    assert face_by_deletion(c, []).generators == c.generators
    with pytest.raises(IndexError):
        face_by_deletion(c, [5])


def test_membership_examples():
    c = sigma_of_matrix(AK3)
    lam = membership(QuadForm.from_rows([[2, -1], [-1, 2]]), c)
    assert lam == (F(1), F(1), F(1))

    lam = membership(QuadForm.from_rows([[0, 0], [0, 0]]), c)
    assert lam == (F(0), F(0), F(0))

    c2 = sigma_of_matrix(TUMatrix.check(IntMatrix.identity(2)))
    assert membership(QuadForm.from_rows([[1, 1], [1, 1]]), c2) is None

    empty = RayCone(2, ())
    assert membership(QuadForm.from_rows([[0, 0], [0, 0]]), empty) == ()
    assert membership(QuadForm.from_rows([[1, 0], [0, 0]]), empty) is None


def test_membership_nonsimplicial():
    c5 = perfect_cone_of(q5())
    assert not c5.simplicial
    # the sum of all generators is in the cone by construction, and the LP
    # must reconstruct it exactly
    rows = [[sum(F(v[i] * v[j]) for v in c5.generators) for j in range(5)]
            for i in range(5)]
    target = QuadForm(RatMatrix(rows))
    lam = membership(target, c5)
    assert lam is not None and all(x >= 0 for x in lam)
    rows2 = [[sum(l * v[i] * v[j] for l, v in zip(lam, c5.generators))
              for j in range(5)] for i in range(5)]
    assert RatMatrix(rows2) == target.matrix
    # the form itself is NOT in its own perfect cone here (only suitably
    # scaled inverses are guaranteed to be): the exact LP certifies this
    assert membership(q5(), c5) is None
    outside = QuadForm.from_rows(
        [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]]
    )
    # (e1+e2)(e1+e2)^t + e5 e5^t: the first summand is not a minimal ray
    assert membership(outside, c5) is None


def test_simplicial_membership_is_the_unique_linear_solution():
    # a simplicial cone gives every form in its span unique coordinates, so
    # the LP's answer must be exactly the square system's solution, and None
    # whenever that solution has a negative entry
    rng = random.Random(31)
    for g in (2, 3, 4, 5):
        c = perfect_cone_of(q0_principal(g))
        assert c.simplicial
        cols = [rank_one_coords(v) for v in c.generators]
        for _ in range(10):
            lam = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in cols]
            if rng.random() < 0.5:  # one negative coordinate: not a member
                lam[rng.randrange(len(lam))] = F(-rng.randint(1, 6), rng.randint(1, 3))
            lam = tuple(lam)
            q = RatMatrix([[sum(l * v[i] * v[j] for l, v in zip(lam, c.generators))
                            for j in range(g)] for i in range(g)])
            sol = solve_exact(RatMatrix(list(zip(*cols))), sym_coords(q))
            assert sol.x == lam and not sol.kernel
            assert membership(q, c) == (lam if min(lam) >= 0 else None)


def test_principal_cone_inequalities():
    assert principal_cone_contains(QuadForm.from_rows([[2, -1], [-1, 2]]))
    assert not principal_cone_contains(QuadForm.from_rows([[1, 1], [1, 2]]))
    from conelab.quadforms import q0_principal

    assert not principal_cone_contains(q0_principal(2))


def test_gl_conjugate():
    c = sigma_of_matrix(TUMatrix.check(IntMatrix.identity(2)))
    assert gl_conjugate(IntMatrix.identity(2), c).generators == c.generators

    swap = IntMatrix([[0, 1], [1, 0]])
    assert set(gl_conjugate(swap, c).generators) == set(c.generators)

    shear = IntMatrix([[1, 1], [0, 1]])
    assert set(gl_conjugate(shear, c).generators) == {(1, 0), (1, 1)}

    with pytest.raises(ValueError):
        gl_conjugate(IntMatrix([[2, 0], [0, 1]]), c)


def test_gl_equivariance_of_membership():
    rng = random.Random(12)
    c = sigma_of_matrix(AK3)
    hs = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[0, -1], [1, 0]]),
          IntMatrix([[2, 1], [1, 1]])]
    for h in hs:
        hc = gl_conjugate(h, c)
        for _ in range(10):
            lam = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(3)]
            rows = [[sum(l * v[i] * v[j] for l, v in zip(lam, c.generators))
                     for j in range(2)] for i in range(2)]
            q = QuadForm(RatMatrix(rows))
            q2 = q.conjugate(h)
            assert (membership(q, c) is None) == (membership(q2, hc) is None)


def test_supporting_functional_small():
    c = sigma_of_matrix(AK3)
    idx = {v: i for i, v in enumerate(c.generators)}
    cert = find_supporting_functional([idx[(1, -1)]], c)
    assert cert is not None
    assert validate_face_certificate(cert, c, [idx[(1, -1)]])

    full = find_supporting_functional([0, 1, 2], c)
    assert full is not None and full.functional == RatMatrix([[0, 0], [0, 0]])

    # the triangle cone is simplicial, so every generator subset is a face
    cert = find_supporting_functional([idx[(1, 0)], idx[(0, 1)]], c)
    assert cert is not None and validate_face_certificate(
        cert, c, [idx[(1, 0)], idx[(0, 1)]]
    )


def test_supporting_functional_infeasible_case():
    # four rays in the 3-dimensional symmetric space: the two coordinate
    # rays do not span a face because the other two generators sum to a
    # multiple of their sum (2 H12 < 0 and -2 H12 < 0 cannot both hold)
    c = RayCone.from_vectors(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
    assert not c.simplicial
    assert find_supporting_functional([0, 1], c) is None
    sub = RayCone.from_vectors(2, [(1, 0), (0, 1)])
    assert not is_face(sub, c)


def test_r10_face_certificate():
    c5 = perfect_cone_of(q5())
    c10 = sigma_of_matrix(TUMatrix.check(load_int_matrix("A10.txt")))
    sub = [i for i, v in enumerate(c5.generators) if v in set(c10.generators)]
    assert len(sub) == 10
    cert = find_supporting_functional(sub, c5)
    assert cert is not None
    assert validate_face_certificate(cert, c5, sub)
    # the known cyclic functional is accepted by the verifier as well
    h = h_functional_matrix()
    known = FaceCertificate(
        h,
        tuple(sub),
        tuple(j for j in range(20) if j not in set(sub)),
        tuple(evaluate_functional(h, v) for v in c5.generators),
    )
    assert validate_face_certificate(known, c5, sub)
    # and a broken one is rejected
    zero = FaceCertificate(
        RatMatrix([[0] * 5] * 5), tuple(sub),
        tuple(j for j in range(20) if j not in set(sub)),
        tuple(F(0) for _ in range(20)),
    )
    assert not validate_face_certificate(zero, c5, sub)


def _face_questions():
    """Seeded generator subsets, of every size, of the perfect cones of
    q0_principal(2..5), Q5 and D4."""
    rng = random.Random(909)
    cones = [perfect_cone_of(q0_principal(g)) for g in (2, 3, 4, 5)]
    cones += [perfect_cone_of(q5()), perfect_cone_of(D4)]
    for cone in cones:
        n = len(cone.generators)
        for _ in range(20):
            yield cone, sorted(rng.sample(range(n), rng.randint(0, n)))


def test_face_decisions_are_pinned():
    """Face or not is a property of the cones, not of the LP that decides
    it; the decisions were recorded with the earlier optimising face LP."""
    lines = [repr((cone.g, len(cone.generators), sub,
                   find_supporting_functional(sub, cone) is None))
             for cone, sub in _face_questions()]
    assert 0 < sum(line.endswith("True)") for line in lines) < len(lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_FACE_DECISIONS, digest


PINNED_FACE_DECISIONS = "8d160dc137d28cfca7a3fb9c16b8fb3c41bf0bbe436d297c6eba2803af4fd004"


def test_is_face_examples():
    c5 = perfect_cone_of(q5())
    c10 = sigma_of_matrix(TUMatrix.check(load_int_matrix("A10.txt")))
    assert is_face(c10, c5)

    c = sigma_of_matrix(AK3)
    assert is_face(c, c)
    ray = RayCone.from_vectors(2, [(1, 0)])
    assert is_face(ray, c)

    stranger = RayCone.from_vectors(2, [(2, 1)])
    assert not is_face(stranger, c)  # generator mismatch -> false


def test_extremality_of_generators():
    # no generator is a nonnegative combination of the others
    from conelab.cones import rank_one_coords

    for cone in (sigma_of_matrix(AK3),
                 sigma_of_matrix(TUMatrix.check(load_int_matrix("A10.txt"))),
                 perfect_cone_of(q5())):
        cols = [rank_one_coords(v) for v in cone.generators]
        for i in range(len(cols)):
            others = [c for j, c in enumerate(cols) if j != i]
            assert feasible_nonneg_combination(others, cols[i]) is None


def test_simpliciality_of_matroidal_cones():
    for name in ("AK3.txt", "AK4.txt", "A10.txt", "I3.txt"):
        cone = sigma_of_matrix(TUMatrix.check(load_int_matrix(name)))
        assert cone.simplicial
        assert cone.span_dimension() == len(cone.generators)


def test_face_transitivity():
    c = sigma_of_matrix(TUMatrix.check(load_int_matrix("AK4.txt")))
    f = face_by_deletion(c, [5])
    ff = face_by_deletion(f, [0])
    assert is_face(f, c)
    assert is_face(ff, f)
    assert is_face(ff, c)


def test_simplicial_is_derived_from_the_generators():
    """The flag is the rank test on the rank-one forms, whatever the cone
    it was cut from or the JSON it was read from says; JSON still may not
    claim it for dependent generators."""
    face = face_by_deletion(perfect_cone_of(q5()), range(10, 20))
    assert len(face.generators) == face.span_dimension() == 10 and face.simplicial
    bare = RayCone.from_json_dict({"g": 2, "generators": [[1, 0], [0, 1]]})
    assert bare.simplicial and bare.to_json_dict()["simplicial"] is True
    assert gl_conjugate(IntMatrix([[1, 1], [0, 1]]), bare).simplicial
    assert RayCone.from_json_dict({"g": 2, "generators": [[1, 0], [0, 1]],
                                   "simplicial": False}) == bare
    dependent = {"g": 2, "generators": [[1, 0], [0, 1], [1, 1], [1, -1]]}
    assert not RayCone.from_json_dict(dependent).simplicial
    with pytest.raises(ValueError, match="claimed simplicial but are dependent"):
        RayCone.from_json_dict({**dependent, "simplicial": True})
    with pytest.raises(TypeError):
        RayCone(2, ((1, 0),), False)


def test_cone_json_roundtrip():
    c = sigma_of_matrix(AK3)
    d = c.to_json_dict()
    assert RayCone.from_json_dict(d) == c
