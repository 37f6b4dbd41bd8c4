"""Property tests on generated inputs: scaling and GL_g(Z) invariance of
Delone subdivisions, radius independence of full-rank dicings, the
dicing identity on the boundary of the cone, GL_g(Z) invariance of
face decisions in perfect cones, of minimal vectors and of Voronoi cells,
and the
invariance of the TU verdict under the operations that preserve total
unimodularity.

Examples are derandomized, so the suite draws the same inputs every run.
"""

import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab.cones import find_supporting_functional, gl_conjugate, validate_face_certificate
from conelab.delone import (
    WindowError,
    delone_subdivision,
    delone_with_window_growth,
    dicing_subdivision,
    voronoi_polytope,
)
from conelab.exact import IntMatrix, canonical_sign, invert, primitive
from conelab.fixtures import load_graph, load_int_matrix
from conelab.matroids import cographic_representation
from conelab.quadforms import (
    QuadForm,
    is_positive_definite,
    minimal_vectors,
    perfect_cone_of,
    q0_principal,
)
from conelab.tumatrix import TUMatrix, is_totally_unimodular
from test_delone import D4, _columns, _mapped_cells, _rank_deficient_supports

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

positive_rationals = st.builds(F, st.integers(1, 60), st.integers(1, 60))


@st.composite
def definite_forms(draw, g):
    """A weighted sum of outer products of g + 2 vectors in {-1, 0, 1}^g."""
    vecs = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * g), min_size=g + 2,
                         max_size=g + 2))
    lam = draw(st.lists(st.builds(F, st.integers(1, 6), st.integers(1, 3)),
                        min_size=g + 2, max_size=g + 2))
    rows = [[sum(l * v[i] * v[j] for l, v in zip(lam, vecs)) for j in range(g)]
            for i in range(g)]
    q = QuadForm.from_rows(rows)
    if not is_positive_definite(q):  # add the identity to make it definite
        q = QuadForm.from_rows([[x + (i == j) for j, x in enumerate(row)]
                                for i, row in enumerate(rows)])
    return q


@st.composite
def unimodular(draw, g, max_steps=3):
    """A product of up to max_steps elementary row additions and negations."""
    rows = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(draw(st.integers(0, max_steps))):
        i = draw(st.integers(0, g - 1))
        j = (i + draw(st.integers(1, g - 1))) % g
        c = draw(st.sampled_from((-1, 1)))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if draw(st.booleans()):
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows)


def _outcome(q):
    try:
        return delone_subdivision(q).cells
    except WindowError as e:
        return str(e)


@PROPERTY
@given(st.sampled_from((2, 3)).flatmap(definite_forms), positive_rationals)
def test_delone_is_invariant_under_scaling(q, c):
    # the walk runs on integer heights after clearing denominators, which
    # differ between q and c*q; the cells (or the window error) may not
    assert _outcome(q.scale(c)) == _outcome(q)


@PROPERTY
@given(st.sampled_from((2, 3)).flatmap(
    lambda g: st.tuples(definite_forms(g), unimodular(g))))
def test_delone_is_gl_equivariant(qh):
    q, h = qh
    s, _ = delone_with_window_growth(q)
    s2, _ = delone_with_window_growth(q.conjugate(h))
    assert _mapped_cells(s, h) == set(s2.cells)


DICING_SYSTEMS = [load_int_matrix(f"{name}.txt") for name in ("AK3", "AK4", "I2", "I3")]
DICING_SYSTEMS.append(cographic_representation(load_graph("THETA.graph")))


@st.composite
def full_rank_unimodular_systems(draw):
    """h A for a fixture system A, h unimodular, some columns negated."""
    a = draw(st.sampled_from(DICING_SYSTEMS))
    h = draw(unimodular(a.rows))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=a.cols, max_size=a.cols))
    rows = [[s * x for s, x in zip(signs, row)] for row in h.mul(a).data]
    return TUMatrix(IntMatrix(rows))


@PROPERTY
@given(full_rank_unimodular_systems())
def test_full_rank_dicing_does_not_depend_on_the_radius(a):
    cells = [dicing_subdivision(a, r).cells for r in (2, 3, 4)]
    assert cells[0] == cells[1] == cells[2]


@st.composite
def rank_deficient_sums(draw):
    """The columns of h A_S for a rank-deficient support S of a fixture
    system and unimodular h, with positive weights for them."""
    a = draw(st.sampled_from(DICING_SYSTEMS))
    s = draw(st.sampled_from(_rank_deficient_supports(a)))
    h = draw(unimodular(a.rows))
    cols = h.mul(_columns(a, s)).columns()
    lam = draw(st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 4)),
                        min_size=len(s), max_size=len(s)))
    return cols, lam


@PROPERTY
@given(rank_deficient_sums(), st.sampled_from((2, 3, 4)))
@example(([(1, 2, 2)], [F(1)]), 3)
@example(([(2, 7)], [F(1)]), 2)
def test_semidefinite_delone_is_the_dicing_of_its_support(sums, r):
    # sum lam_i v_i v_i^t lies on the boundary of the cone sigma(A_S); its
    # Delone subdivision is the dicing of A_S (Erdahl-Ryshkov)
    cols, lam = sums
    g = len(cols[0])
    q = QuadForm.from_rows([[sum(l * v[i] * v[j] for l, v in zip(lam, cols))
                             for j in range(g)] for i in range(g)])
    try:
        sub = delone_subdivision(q, r)
    except WindowError:
        return  # the definite block does not certify in this window
    a = TUMatrix(IntMatrix([list(row) for row in zip(*cols)]))
    assert sub.cells == dicing_subdivision(a, r).cells


# the perfect cones of q0_principal(g) are simplicial, so every generator
# subset spans a face there; the D4 cone (12 rays in dimension 10) is not
PERFECT_CONES = [perfect_cone_of(D4)]
PERFECT_CONES += [perfect_cone_of(q0_principal(g)) for g in (2, 3, 4)]


@st.composite
def face_questions(draw):
    """A perfect cone P, a subset S of its generators and a unimodular h."""
    cone = draw(st.sampled_from(PERFECT_CONES))
    n = len(cone.generators)
    order = draw(st.permutations(range(n)))
    sub = sorted(order[:draw(st.integers(0, n))])
    return cone, sub, draw(unimodular(cone.g))


def _checked_face(sub, cone):
    """find_supporting_functional(sub, cone) is not None, with its
    certificate re-checked: zero on S and at most -1 off it."""
    cert = find_supporting_functional(sub, cone)
    if cert is not None:
        assert validate_face_certificate(cert, cone, sub)
        assert all(cert.values[j] <= -1 for j in range(len(cone.generators))
                   if j not in sub)
    return cert is not None


@PROPERTY
@given(face_questions())
@example((PERFECT_CONES[0], [0, 1, 6, 11], IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0],
                                                      [0, 0, 1, 0], [0, 0, -1, -1]])))
@example((PERFECT_CONES[0], [0, 1, 2, 6, 11], IntMatrix([[1, 0, 0, 0], [1, 1, 0, 0],
                                                         [0, 1, 1, 0], [0, 0, 1, 1]])))
def test_face_decisions_are_gl_invariant(question):
    cone, sub, h = question
    image = gl_conjugate(h, cone)
    index = {v: i for i, v in enumerate(image.generators)}
    mapped = sorted(index[canonical_sign(primitive(h.mul_vector(cone.generators[i]))[0])]
                    for i in sub)
    face = _checked_face(sub, cone)
    assert _checked_face(mapped, image) == face
    if cone.simplicial:
        assert face


@PROPERTY
@given(st.sampled_from((2, 3, 4)).flatmap(
    lambda g: st.tuples(definite_forms(g), unimodular(g))))
def test_minimal_vectors_are_gl_equivariant(qh):
    # xi is minimal for h Q h^t exactly when h^t xi is minimal for Q
    q, h = qh
    mv, mv2 = minimal_vectors(q), minimal_vectors(q.conjugate(h))
    assert mv2.minimum == mv.minimum
    ht = h.transpose()
    assert {canonical_sign(ht.mul_vector(v)) for v in mv2.vectors} == set(mv.vectors)


@PROPERTY
@given(st.sampled_from((2, 3)).flatmap(
    lambda g: st.tuples(definite_forms(g), unimodular(g))))
def test_voronoi_cell_is_gl_equivariant(qh):
    # x is in the cell of h Q h^t exactly when h^t x is in the cell of Q,
    # so the vertices map by (h^t)^-1 and a halfspace (a, b) becomes (h a, b)
    q, h = qh
    cell, cell2 = voronoi_polytope(q), voronoi_polytope(q.conjugate(h))
    hti = invert(h.transpose())
    assert set(cell2.vertices) == {hti.mul_vector(v) for v in cell.vertices}
    assert set(cell2.halfspaces) == {(h.mul_vector(a), b) for a, b in cell.halfspaces}


sign_matrices = st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(st.lists(st.sampled_from((0, 0, 1, -1)), min_size=mn[1],
                                 max_size=mn[1]), min_size=mn[0], max_size=mn[0]))


def _pivot(rows, r, s):
    """The pivot on the entry e = rows[r][s] = +-1 of [e c; b D]:
    [-e e c; e b D - e b c], which is TU exactly when the matrix is."""
    e = rows[r][s]
    return [[-e if (i, j) == (r, s) else e * x if i == r or j == s
             else x - e * rows[i][s] * rows[r][j] for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


@PROPERTY
@given(sign_matrices, st.randoms(use_true_random=False))
@example([[1, 1, 0], [0, 1, 1], [1, 0, 1]], random.Random(0))
@example([[1, 1], [1, -1]], random.Random(0))
def test_tu_verdict_is_invariant(rows, rnd):
    tu = is_totally_unimodular(IntMatrix(rows))
    m, n = len(rows), len(rows[0])
    assert is_totally_unimodular(IntMatrix(rows).transpose()) == tu
    perm_r, perm_c = rnd.sample(range(m), m), rnd.sample(range(n), n)
    assert is_totally_unimodular(IntMatrix([[rows[i][j] for j in perm_c]
                                            for i in perm_r])) == tu
    r = rnd.randrange(m)
    assert is_totally_unimodular(IntMatrix([[-x for x in row] if i == r else row
                                            for i, row in enumerate(rows)])) == tu
    units = [(i, j) for i in range(m) for j in range(n) if rows[i][j]]
    if units:
        pivoted = _pivot(rows, *rnd.choice(units))
        assert is_totally_unimodular(IntMatrix(pivoted)) == tu
