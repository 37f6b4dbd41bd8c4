import ast
import math
import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import conelab
from conelab import exact
from conelab.exact import IntMatrix, RatMatrix, determinant, ldlt_decompose
from conelab.fixtures import load_int_matrix, load_matrix
from conelab.matroids import complete_graph, graphic_representation
from conelab.quadforms import (
    QuadForm,
    VerificationError,
    WellSuitedPair,
    enumerate_in_ellipsoid,
    h_functional,
    h_functional_matrix,
    is_perfect,
    is_positive_definite,
    is_well_suited,
    minimal_vectors,
    perfect_cone_of,
    q0_principal,
    q5,
    q5_families,
    rational_rank_normal_form,
    sum_coupling,
    well_suited_sum1,
    well_suited_sum2,
    well_suited_sum3,
)
from conelab.tumatrix import TUMatrix


def _canon(v):
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def test_is_positive_definite():
    assert is_positive_definite(QuadForm(RatMatrix.identity(3)))
    assert is_positive_definite(q5())
    assert not is_positive_definite(QuadForm.from_rows([[1, 0], [0, 0]]))


def test_rank_normal_form_examples():
    q = q0_principal(2)
    h, qp = rational_rank_normal_form(q)
    assert h == IntMatrix.identity(2) and qp == q

    h, qp = rational_rank_normal_form(QuadForm.from_rows([[1, 0], [0, 0]]))
    assert h == IntMatrix.identity(2)
    assert qp.matrix == RatMatrix([[1]])

    q = QuadForm.from_rows([[1, -1], [-1, 1]])
    h, qp = rational_rank_normal_form(q)
    assert abs(determinant(h.to_rational())) == 1
    conj = q.conjugate(h)
    assert conj.matrix == RatMatrix([[1, 0], [0, 0]])
    assert qp.matrix == RatMatrix([[1]])


def test_rank_normal_form_rejects_indefinite():
    with pytest.raises(ValueError):
        rational_rank_normal_form(QuadForm.from_rows([[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        rational_rank_normal_form(QuadForm.from_rows([[-1]]))


def test_minimal_vectors_q5():
    mv = minimal_vectors(q5())
    assert mv.minimum == 2
    assert len(mv.vectors) == 20
    es, fs, gs, hs = q5_families()
    fam = {_canon(v) for v in (*es, *fs, *gs, *hs)}
    assert set(mv.vectors) == fam


def test_minimal_vectors_identity_and_hexagonal():
    mv = minimal_vectors(QuadForm(RatMatrix.identity(3)))
    assert mv.minimum == 1
    assert set(mv.vectors) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    mv = minimal_vectors(q0_principal(2))
    assert mv.minimum == 1
    assert set(mv.vectors) == {(1, 0), (0, 1), (1, -1)}


def test_minimal_vectors_requires_pd():
    with pytest.raises(ValueError):
        minimal_vectors(QuadForm.from_rows([[1, 0], [0, 0]]))


def test_enumeration_against_box_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        g = rng.randint(1, 3)
        b = [[rng.randint(-1, 1) for _ in range(g)] for _ in range(g)]
        rows = [
            [
                sum(b[k][i] * b[k][j] for k in range(g))
                + (F(rng.randint(1, 4), 2) if i == j else 0)
                for j in range(g)
            ]
            for i in range(g)
        ]
        q = QuadForm(RatMatrix(rows))
        bound = F(rng.randint(1, 6), rng.randint(1, 2))
        got = {v: val for v, val in enumerate_in_ellipsoid(q.matrix, bound)}
        box = {}
        for x in product(range(-8, 9), repeat=g):
            val = q(x)
            if val <= bound:
                box[x] = val
        assert got == box


def test_enumeration_with_center():
    q = RatMatrix([[1, 0], [0, 1]])
    got = sorted(v for v, _ in enumerate_in_ellipsoid(q, F(1, 2), (F(1, 2), 0)))
    assert got == [(0, 0), (1, 0)]


# The enumerator as it was before it ran on integers: branch and bound in
# Fraction arithmetic on the Fraction LDL^t.


def _reference_floor_sqrt_minus(t, s):
    """Largest integer x with x <= sqrt(t) - s, for t >= 0."""
    p, qd = t.numerator, t.denominator
    a, b = s.numerator, s.denominator
    est = (math.isqrt(p * qd * b * b) - a * qd) // (b * qd)

    def ok(x):
        u = x * b + a  # x + s = u / b
        return u <= 0 or u * u * qd <= p * b * b

    while ok(est + 1):
        est += 1
    while not ok(est):
        est -= 1
    return est


def _reference_enumerate(q, bound, center=None):
    fact = ldlt_decompose(q)
    if fact is None:
        raise ValueError("enumeration requires a positive definite form")
    lmat, diag = fact
    g = q.rows
    c = [F(x) for x in (center if center is not None else [0] * g)]
    bound = F(bound)
    out = []
    x = [0] * g

    def descend(i, used):
        if i < 0:
            out.append((tuple(x), used))
            return
        s = sum(lmat.data[j][i] * (x[j] - c[j]) for j in range(i + 1, g))
        t = (bound - used) / diag[i]
        shift = s - c[i]  # (x_i + shift)^2 <= t
        hi = _reference_floor_sqrt_minus(t, shift)
        lo = -_reference_floor_sqrt_minus(t, -shift)
        for xi in range(lo, hi + 1):
            x[i] = xi
            w = xi + shift
            descend(i - 1, used + diag[i] * w * w)
        x[i] = 0

    descend(g - 1, F(0))
    return out


def _seeded_definite_rows(rng, g):
    """sum_i lam_i v_i v_i^t over g + 2 vectors in [-2, 2]^g plus a
    rational multiple of the identity, made definite if it is not."""
    vecs = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g + 2)]
    lam = [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in vecs]
    shift = F(rng.randint(0, 2), rng.randint(1, 3))
    rows = [[sum(l * v[i] * v[j] for l, v in zip(lam, vecs)) + shift * (i == j)
             for j in range(g)] for i in range(g)]
    if not is_positive_definite(QuadForm.from_rows(rows)):
        rows = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return rows


def test_enumeration_matches_the_fraction_enumerator():
    """Same list, in the same order with the same Fraction values, as the
    Fraction branch and bound, on 300 seeded forms at g = 1..5 with
    rational bounds (bound 0 among them) and rational centres."""
    rng = random.Random(18)
    points = 0
    for t in range(300):
        g = 1 + t % 5
        q = RatMatrix(_seeded_definite_rows(rng, g))
        # a rational multiple of the smallest diagonal entry, 0 to 4 times it
        bound = min(q.data[i][i] for i in range(g)) * F(rng.randint(0, 40), rng.randint(7, 10))
        bound = bound if t % 7 else F(0)
        centre = None if t % 3 == 0 else [F(rng.randint(-9, 9), rng.randint(1, 6))
                                          for _ in range(g)]
        got = enumerate_in_ellipsoid(q, bound, centre)
        assert got == _reference_enumerate(q, bound, centre), (q, bound, centre)
        assert all(type(val) is F for _, val in got)
        points += len(got)
    assert points > 5000
    # bound 0 at the origin: only the centre itself
    assert enumerate_in_ellipsoid(q, 0) == [((0,) * q.rows, F(0))]


def test_enumeration_edge_bounds_and_indefinite_forms():
    q = RatMatrix([[2, 1], [1, F(3, 2)]])
    assert enumerate_in_ellipsoid(q, 0, (F(1, 2), 0)) == []
    assert enumerate_in_ellipsoid(q, 0, (1, -2)) == [((1, -2), F(0))]
    # a negative bound holds no point; the Fraction enumerator instead
    # failed inside math.isqrt
    assert enumerate_in_ellipsoid(q, F(-1, 3)) == []
    with pytest.raises(ValueError, match="isqrt"):
        _reference_enumerate(q, F(-1, 3))
    for rows in ([[1, 2], [2, 1]], [[1, 0], [0, 0]], [[0]], [[F(-1, 2)]],
                 [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="^enumeration requires a positive definite form$"):
            enumerate_in_ellipsoid(RatMatrix(rows), 1)


def test_enumeration_computes_no_fraction_ldlt(monkeypatch):
    """minimal_vectors and is_well_suited decide definiteness and enumerate
    on integer pivots, with no Fraction LDL^t."""
    calls = []

    def counted(q):
        calls.append(q)
        return ldlt_decompose(q)

    monkeypatch.setattr(exact, "ldlt_decompose", counted)
    assert len(minimal_vectors(q5()).vectors) == 20
    assert is_well_suited(QuadForm(load_matrix("QW10.txt")), TUMatrix.check(load_int_matrix("A10.txt")))
    assert not is_well_suited(q5(), TUMatrix.check(load_int_matrix("A10.txt")))
    assert calls == []


def test_only_the_cli_imports_the_fraction_ldlt():
    """ldlt_decompose is what `conelab mat ldlt` prints; no library module
    imports it or reaches it as a module attribute."""
    src = Path(conelab.__file__).parent
    users = sorted(
        path.name for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "ldlt_decompose" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "ldlt_decompose")
    assert users == ["cli.py"]


def test_gl_equivariance_of_minimal_vectors():
    rng = random.Random(4)
    hs = [
        IntMatrix([[1, 1], [0, 1]]),
        IntMatrix([[1, 0], [-1, 1]]),
        IntMatrix([[2, 1], [1, 1]]),
    ]
    for h in hs:
        for _ in range(5):
            b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            rows = [
                [sum(b[k][i] * b[k][j] for k in range(2)) + (i == j) for j in range(2)]
                for i in range(2)
            ]
            q = QuadForm(RatMatrix(rows))
            mv = minimal_vectors(q)
            q2 = q.conjugate(h)
            mv2 = minimal_vectors(q2)
            assert mv2.minimum == mv.minimum
            ht_inv_t = h.transpose()
            # xi in M(hQh^t) iff h^t xi in M(Q)
            mapped = {_canon(ht_inv_t.mul_vector(v)) for v in mv2.vectors}
            assert mapped == set(mv.vectors)


def test_perfect_cones():
    c = perfect_cone_of(q0_principal(2))
    assert set(c.generators) == {(1, 0), (0, 1), (1, -1)}
    assert c.span_dimension() == 3

    c = perfect_cone_of(QuadForm(RatMatrix.identity(2)))
    assert c.span_dimension() == 2

    c5 = perfect_cone_of(q5())
    assert len(c5.generators) == 20
    assert c5.span_dimension() == 15

    assert is_perfect(q5())
    assert is_perfect(q0_principal(2))
    assert not is_perfect(QuadForm(RatMatrix.identity(2)))


def test_well_suited_examples():
    for g in (2, 3):
        ak = TUMatrix.check(graphic_representation(complete_graph(g + 1)))
        assert is_well_suited(q0_principal(g), ak)
    i2 = TUMatrix.check(IntMatrix.identity(2))
    assert is_well_suited(QuadForm(RatMatrix.identity(2)), i2)
    assert not is_well_suited(QuadForm(RatMatrix.identity(2).scale(2)), i2)


def test_q5_rescaling_is_not_well_suited_for_the_ten_columns():
    # the minimum of Q5/2 is 1 but it is attained at all 20 family vectors,
    # not only at the 10 matrix columns, so the definition fails; the
    # perturbed fixture form QW10 is the correct well-suited companion
    a10 = TUMatrix.check(load_int_matrix("A10.txt"))
    half_q5 = q5().scale(F(1, 2))
    assert not is_well_suited(half_q5, a10)
    mv = minimal_vectors(half_q5)
    assert mv.minimum == 1 and len(mv.vectors) == 20

    qw = QuadForm(load_matrix("QW10.txt"))
    assert is_well_suited(qw, a10)
    mvw = minimal_vectors(qw)
    cols = {_canon(c) for c in load_int_matrix("A10.txt").columns()}
    assert set(mvw.vectors) == cols
    # and QW10 is exactly (Q5 - H/4) / 2
    expect = RatMatrix([[(x - y / 4) / 2 for x, y in zip(r, s)]
                        for r, s in zip(q5().matrix.data, h_functional_matrix().data)])
    assert qw.matrix == expect


def test_named_forms():
    assert q5().matrix.data[0][1] == 1
    assert q0_principal(2).matrix == RatMatrix([[1, "1/2"], ["1/2", 1]])
    assert q0_principal(1).matrix == RatMatrix([[1]])


def test_h_functional_values():
    es, fs, gs, hs = q5_families()
    for i in range(5):
        assert h_functional(list(es[i])) == 0
        assert h_functional(list(fs[i])) == -2
        assert h_functional(list(gs[i])) == 0
        assert h_functional(list(hs[i])) == -2
    # matrix input form
    v = fs[0]
    outer = RatMatrix([[v[i] * v[j] for j in range(5)] for i in range(5)])
    assert h_functional(outer) == -2


def test_h_functional_rejects_asymmetric():
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = 1
    with pytest.raises(Exception):
        h_functional(RatMatrix(rows))


def test_well_suited_sum1():
    one = WellSuitedPair.check(
        QuadForm.from_rows([[1]]), TUMatrix.check(IntMatrix([[1]]))
    )
    p = well_suited_sum1(one, one)
    assert p.form.matrix == RatMatrix.identity(2)

    k3 = WellSuitedPair.check(
        q0_principal(2), TUMatrix.check(graphic_representation(complete_graph(3)))
    )
    p = well_suited_sum1(k3, k3)
    assert p.form.g == 4 and p.matrix.inner.shape == (4, 6)
    assert is_well_suited(p.form, p.matrix)

    r10 = WellSuitedPair.check(
        QuadForm(load_matrix("QW10.txt")), TUMatrix.check(load_int_matrix("A10.txt"))
    )
    p = well_suited_sum1(r10, one)
    assert p.form.g == 6 and p.matrix.inner.shape == (6, 11)


def _pair(qname, aname):
    return WellSuitedPair.check(
        QuadForm(load_matrix(qname)), TUMatrix.check(load_int_matrix(aname))
    )


def test_well_suited_sum2_fixture():
    p = well_suited_sum2(
        _pair("SUM2_LEFT_Q.txt", "SUM2_LEFT_A.txt"),
        _pair("SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt"),
    )
    assert p.form.matrix == RatMatrix(
        [[1, "1/2", "1/4"], ["1/2", 1, "1/2"], ["1/4", "1/2", 1]]
    )
    for col in p.matrix.inner.columns():
        assert p.form(col) == 1
    assert is_well_suited(p.form, p.matrix)


def test_sum2_evaluation_identity():
    # the glued form evaluates as the displayed expansion in (xi1, x, xi2)
    p1 = _pair("SUM2_LEFT_Q.txt", "SUM2_LEFT_A.txt")
    p2 = _pair("SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt")
    glued = well_suited_sum2(p1, p2)
    q1 = RatMatrix([[1]])
    r1 = [F(1, 2)]
    q2 = RatMatrix([[1]])
    r2 = [F(1, 2)]
    rng = random.Random(23)
    for _ in range(100):
        xi1 = [rng.randint(-5, 5)]
        x = rng.randint(-5, 5)
        xi2 = [rng.randint(-5, 5)]
        lhs = glued.form(tuple(xi1) + (x,) + tuple(xi2))
        a1 = sum(a * b for a, b in zip(r1, xi1))
        a2 = sum(a * b for a, b in zip(r2, xi2))
        rhs = (
            q1.data[0][0] * xi1[0] * xi1[0]
            + q2.data[0][0] * xi2[0] * xi2[0]
            + 2 * a1 * a2
            + 2 * x * (a1 + a2)
            + x * x
        )
        assert lhs == rhs


def test_well_suited_sum3_fixtures():
    p = well_suited_sum3(
        _pair("SUM3_LEFT_Q.txt", "SUM3_LEFT_A.txt"),
        _pair("SUM3_RIGHT_Q.txt", "SUM3_RIGHT_A.txt"),
    )
    assert p.form.g == 4 and p.matrix.inner.shape == (4, 9)
    assert is_well_suited(p.form, p.matrix)
    assert p.form.matrix.data[0][3] == F(1, 3)  # the coupling entry

    pz = well_suited_sum3(
        _pair("SUM3Z_LEFT_Q.txt", "SUM3Z_LEFT_A.txt"),
        _pair("SUM3Z_RIGHT_Q.txt", "SUM3Z_RIGHT_A.txt"),
    )
    assert pz.form.matrix.data[0][3] == 0
    assert is_well_suited(pz.form, pz.matrix)


def test_sum3_coupling_cancellation():
    """The coupling block kills the mixed bilinear terms identically.

    Both sides are bilinear in (xi1, xi2), so checking all unit-vector
    pairs is a complete proof; a few random vectors are thrown in anyway.
    """
    rng = random.Random(31)
    for g1, g2 in ((1, 1), (2, 3), (3, 2)):
        r1 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g1)]
        s1 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g1)]
        r2 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g2)]
        s2 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g2)]
        m = [[sum_coupling((r1[i], s1[i]), (r2[j], s2[j]), 2) for j in range(g2)]
             for i in range(g1)]

        def bilinear_b(xi1, xi2):
            a1 = sum(a * b for a, b in zip(r1, xi1))
            b1 = sum(a * b for a, b in zip(s1, xi1))
            a2 = sum(a * b for a, b in zip(r2, xi2))
            b2 = sum(a * b for a, b in zip(s2, xi2))
            return -F(4, 3) * (2 * a1 * a2 + 2 * b1 * b2 + a1 * b2 + a2 * b1)

        def coupling(xi1, xi2):
            return 2 * sum(
                m[i][j] * xi1[i] * xi2[j] for i in range(g1) for j in range(g2)
            )

        for i in range(g1):
            for j in range(g2):
                e1 = [int(k == i) for k in range(g1)]
                e2 = [int(k == j) for k in range(g2)]
                assert bilinear_b(e1, e2) + coupling(e1, e2) == 0
        for _ in range(20):
            xi1 = [rng.randint(-6, 6) for _ in range(g1)]
            xi2 = [rng.randint(-6, 6) for _ in range(g2)]
            assert bilinear_b(xi1, xi2) + coupling(xi1, xi2) == 0


def test_sum_constructor_requires_exact_fixed_entries():
    # the left form must end with a unit diagonal entry (2-sum) or carry the
    # fixed central 2x2 block (3-sum); no renormalization is attempted
    a_left = TUMatrix.check(load_int_matrix("SUM2_LEFT_A.txt"))
    scaled = QuadForm(load_matrix("SUM2_LEFT_Q.txt")).scale(2)
    fake = WellSuitedPair(scaled, a_left)  # bypasses .check on purpose
    with pytest.raises(ValueError):
        well_suited_sum2(fake, _pair("SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt"))


def test_sum3_constructor_requires_the_central_block():
    # a 3-sum form whose central 2x2 block is not [[1, -1/2], [-1/2, 1]]
    a_right = TUMatrix.check(load_int_matrix("SUM3_RIGHT_A.txt"))
    scaled = QuadForm(load_matrix("SUM3_RIGHT_Q.txt")).scale(2)
    fake = WellSuitedPair(scaled, a_right)  # bypasses .check on purpose
    with pytest.raises(ValueError, match="right form must carry"):
        well_suited_sum3(_pair("SUM3_LEFT_Q.txt", "SUM3_LEFT_A.txt"), fake)


def test_verification_failure_raises():
    # a silently wrong "well-suited" input must be caught by the output
    # re-verification rather than propagated
    a_left = TUMatrix.check(load_int_matrix("SUM2_LEFT_A.txt"))
    wrong = QuadForm.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    bad = WellSuitedPair(QuadForm.from_rows([["3/4", "1/4"], ["1/4", 1]]), a_left)
    with pytest.raises((VerificationError, ValueError)):
        well_suited_sum2(bad, _pair("SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt"))


def test_claim_bound_sharpness():
    """Square-completion floors: 3/4 for the shared-column sum is tight;
    the triangle-sum floor is 2/3 (not 3/4) once the border vectors are
    nonzero, attained by the coupled fixture."""
    # 2-sum side: Q1 = [1], r1 = 1/2
    vals = [F(n * n) - (F(n, 2)) ** 2 for n in range(-30, 31) if n]
    assert min(vals) == F(3, 4)

    # 3-sum coupled side: Q1 = [1], r1 = 1/2, s1 = -1/2
    def bound(n):
        a, b = F(n, 2), F(-n, 2)
        return F(n * n) - F(4, 3) * (a * a + b * b + a * b)

    vals = [bound(n) for n in range(-30, 31) if n]
    assert min(vals) == F(2, 3)
    assert bound(1) == F(2, 3) < F(3, 4)

    # 3-sum zero-coupling side: the bound degenerates to Q1 itself
    q1z = RatMatrix([[1]])
    vals = [q1z.data[0][0] * n * n for n in range(-30, 31) if n]
    assert min(vals) == 1 >= F(3, 4)
