import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from conelab import delone
from conelab.delone import (
    WindowError,
    cells_incident_to_origin,
    delone_subdivision,
    delone_with_window_growth,
    dicing_subdivision,
    minkowski_sum_check,
    minkowski_sum_vertices,
    normalize_cell,
    secondary_cone_check,
    subdivisions_equal,
    voronoi_polytope,
)
from conelab.exact import IntMatrix, RatMatrix, int_determinant, invert, primitive, rank, solve_exact
from conelab.fixtures import load_graph, load_int_matrix, load_matrix
from conelab.lp import feasible_nonneg_combination
from conelab.matroids import cographic_representation, complete_graph, graphic_representation
from conelab.quadforms import QuadForm, VerificationError, is_positive_definite, q0_principal
from conelab.tumatrix import TUMatrix

HEX = QuadForm(load_matrix("QHEX.txt"))
I2 = QuadForm(load_matrix("I2.txt"))
AK3 = TUMatrix.check(load_int_matrix("AK3.txt"))
AK4 = TUMatrix.check(load_int_matrix("AK4.txt"))
# the D4 root lattice: perfect, with 12 minimal-vector pairs whose cone is
# not simplicial
D4 = QuadForm.from_rows([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


def test_delone_examples():
    s = delone_subdivision(HEX)
    assert s.cells == frozenset({
        ((0, 0), (0, 1), (1, 1)),
        ((0, 0), (1, 0), (1, 1)),
    })

    s2 = delone_subdivision(I2)
    assert s2.cells == frozenset({((0, 0), (0, 1), (1, 0), (1, 1))})

    s1 = delone_subdivision(QuadForm.from_rows([[1]]))
    assert s1.cells == frozenset({((0,), (1,))})


def test_delone_rejects_indefinite():
    with pytest.raises(ValueError):
        delone_subdivision(QuadForm.from_rows([[1, 2], [2, 1]]))


def test_delone_scaling_invariance():
    assert subdivisions_equal(delone_subdivision(HEX.scale(2)), delone_subdivision(HEX))
    assert subdivisions_equal(
        delone_subdivision(HEX.scale(F(1, 3))), delone_subdivision(HEX)
    )


def _mapped_cells(s, h):
    """Classes of the cells of s mapped pointwise through (h^t)^-1."""
    hti = invert(h.to_rational().transpose())
    return {normalize_cell([tuple(int(x) for x in hti.mul_vector([F(v) for v in p]))
                            for p in cell])
            for cell in s.cells}


def _random_unimodular(rng, steps, g=2):
    rows = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(steps):
        i, c = rng.randrange(g), rng.choice((-1, 1))
        j = 1 - i if g == 2 else (i + 1 + rng.randrange(g - 1)) % g
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.5:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows)


def _random_voronoi_form(rng, g):
    """A weighted sum of outer products of g + 2 random {-1, 0, 1} vectors."""
    while True:
        vecs = [[rng.randint(-1, 1) for _ in range(g)] for _ in range(g + 2)]
        lam = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in vecs]
        q = QuadForm.from_rows([[sum(l * v[i] * v[j] for l, v in zip(lam, vecs))
                                 for j in range(g)] for i in range(g)])
        if is_positive_definite(q):
            return q


def _summed_form(a):
    cols = a.inner.columns()
    g = a.inner.rows
    return QuadForm.from_rows([[sum(v[i] * v[j] for v in cols) for j in range(g)]
                               for i in range(g)])


def test_delone_gl_equivariance():
    h = IntMatrix([[1, 1], [0, 1]])
    q2 = HEX.conjugate(h)
    assert _mapped_cells(delone_subdivision(HEX), h) == set(delone_subdivision(q2).cells)


def test_delone_gl_equivariance_random_conjugates():
    rng = random.Random(11)
    for q in (HEX, I2):
        s = delone_subdivision(q)
        for _ in range(5):
            h = _random_unimodular(rng, 3)
            s2, _ = delone_with_window_growth(q.conjugate(h))
            assert _mapped_cells(s, h) == set(s2.cells)


def test_dicing_examples():
    d = dicing_subdivision(AK3)
    assert subdivisions_equal(d, delone_subdivision(HEX))

    d2 = dicing_subdivision(TUMatrix.check(IntMatrix.identity(2)))
    assert subdivisions_equal(d2, delone_subdivision(I2))

    strip = dicing_subdivision(TUMatrix.check(IntMatrix([[1], [0]])))
    assert len(strip.cells) == 1
    (cell,) = strip.cells
    xs = {p[0] for p in cell}
    assert xs == {0, 1}  # a vertical strip of width one


def test_dicing_classes_do_not_depend_on_the_window():
    theta = TUMatrix.check(cographic_representation(load_graph("THETA.graph")))
    for a in (AK3, AK4, TUMatrix.check(IntMatrix.identity(3)), theta):
        cells = [dicing_subdivision(a, r).cells for r in (2, 3, 4)]
        assert cells[0] == cells[1] == cells[2]


def test_k5_dicing_matches_delone_of_an_interior_form():
    # the first g = 4 case: 10 columns, 24 classes of simplices
    a = TUMatrix.check(graphic_representation(complete_graph(5)))
    cols = a.inner.columns()
    rng = random.Random(1)
    lam = [rng.randint(1, 3) for _ in cols]
    q = QuadForm.from_rows([[sum(l * v[i] * v[j] for l, v in zip(lam, cols))
                             for j in range(4)] for i in range(4)])
    sub, r = delone_with_window_growth(q)
    assert r == 2
    assert len(sub.cells) == 24
    assert subdivisions_equal(sub, dicing_subdivision(a, r))


def test_dicing_rejects_non_unimodular():
    # the column (2, 0) is primitive-free: no integral row transform makes
    # the matrix totally unimodular
    with pytest.raises(ValueError):
        dicing_subdivision(TUMatrix(IntMatrix([[2], [0]])))


def _region_vertices(cols, ks, g):
    """Vertices of {k <= v.x <= k+1}, from the hyperplanes alone.

    Returns None as soon as a vertex is not a lattice point.
    """
    constraints = []
    for v, k in zip(cols, ks):
        constraints.append((v, F(k)))
        constraints.append((tuple(-x for x in v), F(-(k + 1))))
    verts = set()
    for sub in combinations(range(len(constraints)), g):
        mat = RatMatrix([[F(x) for x in constraints[i][0]] for i in sub])
        sol = solve_exact(mat, [constraints[i][1] for i in sub])
        if sol is None or sol.kernel:
            continue
        x = sol.x
        if not all(k <= sum(a * b for a, b in zip(v, x)) <= k + 1
                   for v, k in zip(cols, ks)):
            continue
        if any(xi.denominator != 1 for xi in x):
            return None
        verts.add(tuple(int(xi) for xi in x))
    return sorted(verts)


def test_dicing_vertices_are_lattice_points():
    """Arrangement axiom: every vertex of a unimodular dicing is integral.

    Exhausts the slab index vectors around the central cube for the fixture
    systems and checks that the true region vertices (computed from the
    hyperplane constraints, independent of any lattice scan) are integer
    points, and that the dicing stored exactly those points as the cell.
    """
    from itertools import product as iproduct

    for a in (AK3, TUMatrix.check(IntMatrix.identity(2))):
        cols = [tuple(c) for c in a.inner.columns()]
        g = a.inner.rows
        sub = dicing_subdivision(a)
        cell_classes = set(sub.cells)
        seen = set()
        for ks in iproduct(range(-2, 2), repeat=len(cols)):
            verts = _region_vertices(cols, ks, g)
            assert verts is not None, "a region vertex failed to be integral"
            if len(verts) < g + 1:
                continue
            from conelab.delone import _affine_rank, normalize_cell

            if _affine_rank(verts) != g:
                continue
            seen.add(normalize_cell(verts))
        # every full-dimensional region near the origin is one of the
        # stored classes
        assert cell_classes <= seen


def test_skew_dicing_does_not_depend_on_the_window():
    # the chambers at the origin reach (1, -6), outside the small windows;
    # the classes come from the hyperplanes alone at every radius
    from itertools import product as iproduct

    from conelab.delone import _affine_rank

    for rows in ([[1, 5], [0, 1]], [[1, 5, 6], [0, 1, 1]]):
        a = TUMatrix(IntMatrix(rows))
        cols = [tuple(c) for c in a.inner.columns()]
        expected = set()
        for ks in iproduct((-1, 0), repeat=len(cols)):
            verts = _region_vertices(cols, ks, 2)
            if len(verts) > 2 and _affine_rank(verts) == 2:
                expected.add(normalize_cell(verts))
        for r in (2, 6):
            assert set(dicing_subdivision(a, r).cells) == expected
        with pytest.raises(ValueError, match="at least 2"):
            dicing_subdivision(a, 1)


def test_subdivisions_equal_guards():
    s = delone_subdivision(HEX)
    s2 = delone_subdivision(HEX, 4)
    with pytest.raises(ValueError):
        subdivisions_equal(s, s2)
    assert not subdivisions_equal(delone_subdivision(I2), s)


def test_delone_matches_dicing_for_interior_forms():
    rng = random.Random(3)
    assert secondary_cone_check(AK3, 10, rng)
    assert secondary_cone_check(TUMatrix.check(IntMatrix.identity(3)), 5, rng)


def test_secondary_cone_check_k4():
    rng = random.Random(5)
    assert secondary_cone_check(AK4, 3, rng)


def test_secondary_cone_check_theta_cographic():
    rng = random.Random(8)
    theta = load_graph("THETA.graph")
    a = TUMatrix.check(cographic_representation(theta))
    assert secondary_cone_check(a, 5, rng)


def test_degenerate_delone_via_rank_reduction():
    rank1 = QuadForm.from_rows([[1, 0], [0, 0]])
    s = delone_subdivision(rank1)
    strip = dicing_subdivision(TUMatrix.check(IntMatrix([[1], [0]])))
    assert subdivisions_equal(s, strip)

    zero = QuadForm.from_rows([[0, 0], [0, 0]])
    sz = delone_subdivision(zero)
    assert len(sz.cells) == 1  # the trivial subdivision


def test_window_growth():
    # a very skew form needs a bigger window and the growth helper finds it
    skew = QuadForm.from_rows([[9, F(-17, 2)], [F(-17, 2), 9]])
    sub, r = delone_with_window_growth(skew)
    assert r >= 3
    assert len(sub.cells) == 2  # still a triangulated type


def test_window_growth_sheared_square():
    # only the star of the origin needs a certificate: radius 5 certifies
    # the one class of this sheared square lattice
    q = QuadForm.from_rows([[1, 3], [3, 10]])
    sub, r = delone_with_window_growth(q)
    assert r == 5
    assert sub.cells == frozenset({((0, 0), (1, 0), (3, -1), (4, -1))})


def test_voronoi_examples():
    v = voronoi_polytope(I2, 2)
    assert set(v.vertices) == {
        (F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)), (F(-1, 2), F(-1, 2)),
    }

    v = voronoi_polytope(HEX, 2)
    assert len(v.vertices) == 6
    assert (F(2, 3), F(1, 3)) in set(v.vertices)

    v = voronoi_polytope(QuadForm.from_rows([[1, 0], [0, 0]]), 2)
    assert set(v.vertices) == {(F(1, 2), F(0)), (F(-1, 2), F(0))}

    # g = 1: the facet hyperplane holds a single vertex (affine rank 0)
    v = voronoi_polytope(QuadForm.from_rows([[3]]))
    assert v.halfspaces == (((-1,), F(1, 2)), ((1,), F(1, 2)))
    assert v.vertices == ((F(-1, 2),), (F(1, 2),))


def test_voronoi_duality_count_g2():
    # vertices of the cell around the origin match the number of
    # full-dimensional Delone cells incident to a lattice point
    for q in (HEX, I2):
        vor = voronoi_polytope(q, 2)
        sub = delone_subdivision(q)
        assert len(vor.vertices) == len(cells_incident_to_origin(sub))


def test_voronoi_completeness_certificate():
    # sheared square lattice: the facet vector (1,-3) lies outside a radius-1
    # box, but the radius only starts the star walk, which grows to certify
    q = QuadForm.from_rows([[1, 3], [3, 10]])
    cells = [voronoi_polytope(q, r) for r in (1, 2, 3)]
    assert len(cells[0].halfspaces) == 4 and len(cells[0].vertices) == 4
    assert cells[0] == cells[1] == cells[2]


def test_voronoi_gl_equivariance_random_conjugates():
    # for h Q h^t the cell is (h^t)^-1 of the cell of Q: vertices map by
    # (h^t)^-1 and a halfspace (a, b) becomes (h a, b)
    rng = random.Random(29)
    for g in (2, 3):
        for q in [_random_voronoi_form(rng, g) for _ in range(3)]:
            vor = voronoi_polytope(q)
            for _ in range(3):
                h = _random_unimodular(rng, 3, g)
                hti = invert(h.to_rational().transpose())
                vor2 = voronoi_polytope(q.conjugate(h))
                assert set(vor2.vertices) == {tuple(hti.mul_vector(list(x)))
                                              for x in vor.vertices}
                assert set(vor2.halfspaces) == {
                    (tuple(int(x) for x in h.to_rational().mul_vector([F(t) for t in a])), b)
                    for a, b in vor.halfspaces}


def test_voronoi_g4_counts():
    v = voronoi_polytope(D4)
    assert (len(v.halfspaces), len(v.vertices)) == (24, 24)  # the 24-cell
    v = voronoi_polytope(q0_principal(4))
    assert (len(v.halfspaces), len(v.vertices)) == (20, 30)  # A4


def test_voronoi_polytopes_are_pinned():
    """Halfspaces and vertices of seeded g = 2, 3 forms and of the
    fixtures, pinned by the digest of their JSON."""
    rng = random.Random(4242)
    forms = [_random_voronoi_form(rng, 2 + k % 2) for k in range(40)]
    forms += [QuadForm(load_matrix(f"{name}.txt"))
              for name in ("Q0_2", "Q0_3", "QHEX", "I2", "I3")]
    forms += [_summed_form(a) for a in (AK3, AK4, TUMatrix.check(IntMatrix.identity(2)))]
    forms += [QuadForm.from_rows([[1, 3], [3, 10]]), QuadForm.from_rows([[3]])]
    lines = [json.dumps(voronoi_polytope(q).to_json_dict(), sort_keys=True)
             for q in forms]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_VORONOI, digest


# recorded with the box-scan Voronoi cell (halfspace LPs and subset
# intersection); the star dual must reproduce it
PINNED_VORONOI = "5bcdc6a8c956e4120e817e762bca83c946fe60455894c99f5880044c5b359ee2"


def _delone_line(run):
    try:
        out = run()
    except WindowError as e:
        return f"WindowError: {e}"
    if isinstance(out, tuple):  # delone_with_window_growth: (subdivision, radius)
        out = out[0]
    return json.dumps(out.to_json_dict(), sort_keys=True)


def test_delone_subdivisions_are_pinned():
    """Delone subdivisions (or the window error) of seeded g = 2, 3 forms,
    two thirds of them skewed by a unimodular conjugation, at radius 2,
    radius 3 and with window growth, of the fixtures likewise, and of g = 4
    forms at radius 2, pinned by the digest of their JSON."""
    rng = random.Random(6161)
    forms = []
    for k in range(60):
        g = 2 + k % 2
        q = _random_voronoi_form(rng, g)
        if k % 3:
            q = q.conjugate(_random_unimodular(rng, 1 + k % 5, g))
        forms.append(q)
    forms += [QuadForm(load_matrix(f"{name}.txt"))
              for name in ("Q0_2", "Q0_3", "QHEX", "I2", "I3")]
    forms += [_summed_form(a) for a in (AK3, AK4, TUMatrix.check(IntMatrix.identity(2)))]
    forms += [QuadForm.from_rows([[1, 3], [3, 10]]), QuadForm.from_rows([[3]])]
    lines = []
    for q in forms:
        lines.append(_delone_line(lambda: delone_subdivision(q, 2)))
        lines.append(_delone_line(lambda: delone_subdivision(q, 3)))
        lines.append(_delone_line(lambda: delone_with_window_growth(q)))
    for q in [_random_voronoi_form(rng, 4) for _ in range(3)]:
        lines.append(_delone_line(lambda: delone_subdivision(q, 2)))
    assert sum(line.startswith("WindowError") for line in lines) == 80
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_DELONE, digest


# recorded with the Fraction-height walk that rescans the window for each
# tight set and solves every facet normal; the integer walk must reproduce it
PINNED_DELONE = "8639cc8cf90d57e8d8412cbb8d6ec6e04d209a2c789456a48927a9a9866fefa3"


def test_g4_walks_are_pinned():
    """The star walks of A4 (q0_principal(4)) and D4 at radius 2 and 3, or
    "WindowError" where the window cannot certify them (D4 at radius 2),
    and the sorted vertices of both Voronoi cells, pinned by one digest."""
    lines = []
    for q in (q0_principal(4), D4):
        for r in (2, 3):
            try:
                lines.append(json.dumps(delone_subdivision(q, r).to_json_dict(), sort_keys=True))
            except WindowError:
                lines.append("WindowError")
        vertices = voronoi_polytope(q).vertices
        lines.append(json.dumps([[str(x) for x in v] for v in sorted(vertices)]))
    assert lines[3] == "WindowError" and lines.count("WindowError") == 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_G4, digest


# recorded with the walk that calls _dot twice per window point per crossing
PINNED_G4 = "c54c76bae8cdd4553e96c25adaaf6fa39342df49d07e31aafc938572982f8cd2"


def _columns(m, s) -> IntMatrix:
    """The columns of m indexed by s."""
    return IntMatrix([[row[j] for j in s] for row in m.data])


def _rank_deficient_supports(m):
    """Column index sets of m whose columns do not span."""
    return [s for k in range(1, m.cols + 1) for s in combinations(range(m.cols), k)
            if rank(_columns(m, s)) < m.rows]


def test_rank_deficient_subdivisions_are_pinned():
    """Semi-definite Delone subdivisions sum_S lam_i v_i v_i^t and the
    dicings of A_S, for every rank-deficient column support S of the five
    fixture systems with seeded weights, at radius 2, 3 and 4, pinned by
    the digest of their JSON (or of the window error)."""
    rng = random.Random(9090)
    systems = [load_int_matrix(f"{name}.txt") for name in ("AK3", "AK4", "I2", "I3")]
    systems.append(cographic_representation(load_graph("THETA.graph")))
    lines = []
    for m in systems:
        cols = m.columns()
        for s in _rank_deficient_supports(m):
            lam = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in s]
            q = QuadForm.from_rows([[sum(lam[t] * cols[i][a] * cols[i][b]
                                         for t, i in enumerate(s))
                                     for b in range(m.rows)] for a in range(m.rows)])
            a_s = TUMatrix.check(_columns(m, s))
            for r in (2, 3, 4):
                lines.append(_delone_line(lambda: delone_subdivision(q, r)))
                lines.append(_delone_line(lambda: dicing_subdivision(a_s, r)))
    assert len(lines) == 234
    assert sum(line.startswith("WindowError") for line in lines) == 32
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_RANK_DEFICIENT, digest


def _slab_classes(m, r):
    """Classes of the dicing of m in the window of radius r, by a direct
    scan of the slab cells {x : k <= m^t x <= k+1}: those with affine rank
    g that hold a vertex of the unit cube.  m is TU, so [m^t; I] is TU and
    a slab cell meets the cube exactly when it holds a cube vertex; the
    slab indices k are read off the cube vertices."""
    g = m.rows
    cols = m.columns()
    window = list(product(range(-r, r + 2), repeat=g))
    dots = {x: tuple(sum(a * b for a, b in zip(v, x)) for v in cols) for x in window}
    slabs = {k for c in product((0, 1), repeat=g)
             for k in product(*[(d - 1, d) for d in dots[c]])}
    classes = set()
    for k in slabs:
        pts = [x for x in window if all(t <= d <= t + 1 for t, d in zip(k, dots[x]))]
        if rank(IntMatrix([[a - b for a, b in zip(p, pts[0])] for p in pts])) == g:
            classes.add(normalize_cell(pts))
    return classes


@pytest.mark.parametrize("r", (2, 3))
def test_rank_deficient_dicings_match_a_slab_scan(r):
    """The dicing of A_S for every rank-deficient support S of the five
    fixture systems equals the slab scan of the window, which uses no
    Hermite normal form, no pull-back and no LP."""
    systems = [load_int_matrix(f"{name}.txt") for name in ("AK3", "AK4", "I2", "I3")]
    systems.append(cographic_representation(load_graph("THETA.graph")))
    supports = [(m, s) for m in systems for s in _rank_deficient_supports(m)]
    assert len(supports) == 39
    for m, s in supports:
        a_s = _columns(m, s)
        assert set(dicing_subdivision(TUMatrix.check(a_s), r).cells) == _slab_classes(a_s, r)


# recorded with the fixed shift box of the Delone branch and the slab
# candidates and full-dimensionality LPs of the dicing (digest 65f25b2a...),
# then re-pinned for the shared pull-back, which changes one output: the
# Delone subdivision of AK4 support (3, 4), lam = (3, 1), at radius 4 has
# the 12 classes of its dicing, of which the fixed shift box found 10
PINNED_RANK_DEFICIENT = "a977b7f3607c7c4ba4b1bb68f205107a137df474fa21d3fefa94718c5b1fce08"


# Fraction references for the kernels of the integer star walk: the
# full-window tight-set scan, the solved hyperplane normal, the facets of
# a cell from every g-subset of its vertices, and the ellipsoid test.


def _reference_tight_set(points, heights, aff):
    avec, c, den = aff
    return frozenset(
        p for p, h in zip(points, heights)
        if h * den == sum(a * x for a, x in zip(avec, p)) + c
    )


def _reference_hyperplane_normal(points):
    """Primitive integer normal of the affine hull of g points, if (g-1)-dim."""
    g = len(points[0])
    if g == 1:
        return (1,)
    base = points[0]
    rows = [[F(p[i] - base[i]) for i in range(g)] for p in points[1:]]
    kernel = solve_exact(RatMatrix(rows), [F(0)] * (g - 1)).kernel
    if len(kernel) != 1:
        return None
    return primitive(kernel[0])[0]


def _reference_facets_through_origin(verts):
    g = len(verts[0])
    out = set()
    for sub in combinations(verts, g):
        normal = _reference_hyperplane_normal(sub)
        if normal is None:
            continue
        vals = [sum(n * x for n, x in zip(normal, v)) for v in verts]
        beta = sum(n * x for n, x in zip(normal, sub[0]))
        if beta != 0 or (max(vals) > 0 and min(vals) < 0):
            continue
        if max(vals) > 0:
            normal = tuple(-n for n in normal)
        out.add((normal, frozenset(v for v, val in zip(verts, vals) if val == 0)))
    return out


def _reference_ellipsoid_inside_window(qf, aff, r):
    avec, cc, den = aff
    qinv = invert(qf.matrix)
    a = [F(x, den) for x in avec]
    c = [x / 2 for x in qinv.mul_vector(a)]
    rho = F(cc, den) + sum(ci * x for ci, x in zip(c, qf.matrix.mul_vector(c)))
    if rho < 0:
        return True
    for i in range(qf.g):
        reach_sq = rho * qinv.data[i][i]
        up = F(r + 1) - c[i]
        dn = c[i] - F(-r)
        if up < 0 or dn < 0 or up * up < reach_sq or dn * dn < reach_sq:
            return False
    return True


def _adjugate(q):
    rows = [[int(x) for x in row] for row in q.matrix.data]
    det = delone.int_determinant(rows)
    return [[int(x * det) for x in row] for row in invert(q.matrix).data], det


def test_star_walk_kernels_match_their_references(monkeypatch):
    """Along seeded walks (g = 2..4, some skew enough to fail the window),
    every crossing, facet list and window certificate equals its Fraction
    reference, and every crossed h stays below Q on the window.  The
    window's heights are a positive multiple of Q at every window point."""
    counts = {"cross": 0, "facets": 0, "ellipsoid": 0}
    cross, facets, inside = (delone._cross_facet, delone._facets_of_cell,
                             delone._ellipsoid_inside_window)
    walked = {}  # the form being walked, and the windows already checked
    checked_windows = []

    def checked_cross(window, aff, facet, normal):
        naff, tight = cross(window, aff, facet, normal)
        points, _, heights = window
        if not any(w is window for w in checked_windows):
            q = walked["q"]
            assert len(points) == len(heights) == len(set(points))
            scale = F(heights[-1]) / q(points[-1])
            assert scale > 0 and all(h == scale * q(p) for p, h in zip(points, heights))
            checked_windows.append(window)
        assert tight == _reference_tight_set(points, heights, naff)
        avec, c, den = naff
        assert all(h * den >= delone._dot(avec, p) + c for p, h in zip(points, heights))
        counts["cross"] += 1
        return naff, tight

    def checked_facets(vertices):
        out = facets(vertices)
        assert len(out) == len(set(out))
        assert set(out) == _reference_facets_through_origin([tuple(v) for v in vertices])
        counts["facets"] += 1
        return out

    def checked_inside(adj, det, aff, r):
        out = inside(adj, det, aff, r)
        q = QuadForm(invert(IntMatrix(adj)).scale(det))
        assert out == _reference_ellipsoid_inside_window(q, aff, r)
        counts["ellipsoid"] += 1
        return out

    monkeypatch.setattr(delone, "_cross_facet", checked_cross)
    monkeypatch.setattr(delone, "_facets_of_cell", checked_facets)
    monkeypatch.setattr(delone, "_ellipsoid_inside_window", checked_inside)
    rng = random.Random(515)
    forms = []
    for k in range(12):
        g = 2 + k % 2
        q = _random_voronoi_form(rng, g)
        forms.append(q.conjugate(_random_unimodular(rng, k % 4, g)) if k % 3 else q)
    forms += [_random_voronoi_form(rng, 4), q0_principal(4)]
    failed = 0
    for q in forms:
        walked["q"] = q
        try:
            delone_subdivision(q, 2)
        except WindowError:
            failed += 1
    assert 0 < failed < len(forms)
    assert len(checked_windows) == len(forms)
    assert min(counts.values()) > 50, counts


def test_cofactor_normals_match_solved_normals():
    """The closed forms are the signed maximal minors (Bareiss
    determinants), and each is the solved normal up to scale."""
    rng = random.Random(73)
    for g in (1, 2, 3, 4):
        dependent = 0
        for _ in range(120):
            rows = [tuple(rng.randint(-2, 2) for _ in range(g)) for _ in range(g - 1)]
            if g > 2 and rng.random() < 0.2:  # a repeated combination
                rows[-1] = tuple(x - 2 * y for x, y in zip(rows[0], rows[1 % (g - 1)]))
            normal = delone._cofactor_normal(rows, g)
            if g > 1:
                assert normal == tuple((-1) ** i * int_determinant([r[:i] + r[i + 1:] for r in rows])
                                       for i in range(g))
            expected = _reference_hyperplane_normal([(0,) * g] + rows)
            assert all(delone._dot(normal, v) == 0 for v in rows)
            if expected is None:
                assert not any(normal)
                dependent += 1
            else:
                assert primitive(normal)[0] in (expected, tuple(-x for x in expected))
        assert g == 1 or dependent > 0


def test_integer_ellipsoid_test_matches_fractions_on_ties():
    """The integer window certificate decides as the Fraction one does,
    including when the ellipsoid touches the window's boundary."""
    rng = random.Random(97)
    ties = 0
    for _ in range(400):
        g = rng.choice((1, 2))
        while True:
            q = _random_voronoi_form(rng, g) if g == 2 else QuadForm.from_rows(
                [[F(rng.randint(1, 4), rng.randint(1, 2))]])
            if is_positive_definite(q):
                break
        q = q.scale(primitive([x for row in q.matrix.data for x in row])[1])
        adj, det = _adjugate(q)
        aff = (tuple(rng.randint(-6, 6) for _ in range(g)), rng.randint(-2, 9),
               rng.randint(1, 3))
        r = rng.randint(0, 3)
        expected = _reference_ellipsoid_inside_window(q, aff, r)
        assert delone._ellipsoid_inside_window(adj, det, aff, r) == expected
        avec, cc, den = aff
        w = [delone._dot(row, avec) for row in adj]
        rho = 4 * det * den * cc + delone._dot(avec, w)
        s = 2 * det * den
        ties += any(((r + 1) * s - wi) ** 2 == rho * adj[i][i]
                    or (wi + r * s) ** 2 == rho * adj[i][i] for i, wi in enumerate(w))
    assert ties > 10, ties


def test_voronoi_vertex_check_has_teeth():
    """The one-enumeration vertex check rejects a point that is not a
    circumcentre: a Voronoi vertex moved by 1/7 of a facet normal out of
    the cell.  It also finds a Q-closer lattice point near the edge of its
    enumeration bound 4 max Q(x): for x = (51/100, 0) and Q = I2 the only
    one is z = (1, 0), with Q(z) = 1 against 4 Q(x) = 1.0404, beyond
    3 Q(x)."""
    for q in (HEX, q0_principal(3), D4):
        qi = delone._integer_form(q)[0]
        vor = voronoi_polytope(q)
        delone._check_voronoi_vertices(qi, vor.vertices)
        for normal, beta in vor.halfspaces[:3]:
            x = next(v for v in vor.vertices if delone._dot(normal, v) == beta)
            moved = tuple(t + F(n, 7) for t, n in zip(x, normal))
            with pytest.raises(VerificationError):
                delone._check_voronoi_vertices(qi, [*vor.vertices, moved])
    x = (F(51, 100), F(0))
    assert 3 * I2(x) < 1 < 4 * I2(x)
    with pytest.raises(VerificationError):
        delone._check_voronoi_vertices([[1, 0], [0, 1]], [x])
    delone._check_voronoi_vertices([[1, 0], [0, 1]], [(F(1, 2), F(0))])


def test_voronoi_and_zonotope_work_counts(monkeypatch):
    """The zonotope check of AK4 solves no LP, and voronoi_polytope
    enumerates lattice points once per definite form (for a semi-definite
    form, once for its definite block)."""
    lp_calls, enumerations = [], []
    lp, enum = delone.feasible_nonneg_combination, delone.enumerate_in_ellipsoid

    def counted_lp(*args):
        lp_calls.append(args)
        return lp(*args)

    def counted_enum(*args):
        enumerations.append(args)
        return enum(*args)

    monkeypatch.setattr(delone, "feasible_nonneg_combination", counted_lp)
    monkeypatch.setattr(delone, "enumerate_in_ellipsoid", counted_enum)
    assert minkowski_sum_check(AK4, 2)
    assert (len(lp_calls), len(enumerations)) == (0, 1)
    for q in (HEX, D4, q0_principal(4), QuadForm.from_rows([[1, 0], [0, 0]])):
        enumerations.clear()
        voronoi_polytope(q)
        assert len(enumerations) == 1
    assert lp_calls == []


def test_minkowski_sum_checks():
    assert minkowski_sum_check(AK3, 2)
    assert minkowski_sum_check(TUMatrix.check(IntMatrix.identity(2)), 2)
    assert minkowski_sum_check(AK4, 2)


def test_minkowski_vertices_square():
    segs = [(F(1), F(0)), (F(0), F(1))]
    verts = minkowski_sum_vertices(segs, 2)
    assert set(verts) == {
        (F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)), (F(-1, 2), F(-1, 2)),
    }


# The zonotope's vertices by the filter it was computed with before: the
# iterated Minkowski sum, cut back after each segment to the points that are
# not a convex combination of the others (one exact LP per point).


def _reference_zonotope_vertices(segments, g):
    pts = [tuple(F(0) for _ in range(g))]
    for u in segments:
        half = [F(x) / 2 for x in u]
        new = {tuple(a + s * b for a, b in zip(p, half)) for p in pts for s in (1, -1)}
        pts = []
        for p in sorted(new):
            others = [(*o, 1) for o in new if o != p]
            if not others or feasible_nonneg_combination(others, (*p, 1)) is None:
                pts.append(p)
    return sorted(pts)


def _k5_segments():
    a = TUMatrix.check(graphic_representation(complete_graph(5)))
    cols = a.inner.columns()
    qinv = invert(_summed_form(a).matrix)
    return [qinv.mul_vector([F(x) for x in v]) for v in cols]


def _zonotope_segment_sets():
    """Seeded segment sets at g = 1..4: generic ones, and ones with a
    parallel (or antiparallel) copy, a zero segment, or segments spanning
    only a subspace; then the K5 segments (120 vertices)."""
    rng = random.Random(3131)

    def vec(g):
        return [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g)]

    sets = []
    for g in (1, 2, 3, 4):
        for k in range(24):
            n = rng.randint(1, min(g + 2, 6))
            if k % 4 == 3:  # inside a random subspace of dimension < g
                basis = [vec(g) for _ in range(rng.randint(0, g - 1))]
                segs = [[sum((rng.randint(-2, 2) * b[i] for b in basis), F(0))
                         for i in range(g)] for _ in range(n)]
            else:
                segs = [vec(g) for _ in range(n)]
            if k % 4 == 1:
                segs.append([F(rng.choice((-2, -1, 1, 3)), 2) * x for x in rng.choice(segs)])
            if k % 4 == 2:
                segs.insert(rng.randint(0, n), [F(0)] * g)
            sets.append((segs, g))
    sets.append(([], 3))
    sets.append((_k5_segments(), 4))
    return sets


def test_zonotope_vertices_are_pinned():
    """The sorted vertices of every seeded segment set, pinned by one digest."""
    lines = [json.dumps([[str(x) for x in v] for v in minkowski_sum_vertices(segs, g)])
             for segs, g in _zonotope_segment_sets()]
    assert len(json.loads(lines[-1])) == 120  # K5
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_ZONOTOPES, digest


# recorded with the LP filter of the iterated sum
PINNED_ZONOTOPES = "6d7dec40bdc8da29e1478c26cd030910421492ed0cac2705fd1ee61aec5050ce"


def test_zonotope_vertices_match_the_lp_filter():
    # all but K5, which the pinned digest covers (the filter takes 0.6 s on it)
    for segs, g in _zonotope_segment_sets()[:-1]:
        assert minkowski_sum_vertices(segs, g) == _reference_zonotope_vertices(segs, g)


def test_subdivision_json_stable():
    s = delone_subdivision(HEX)
    d1 = s.to_json_dict()
    d2 = delone_subdivision(HEX).to_json_dict()
    assert d1 == d2
    assert d1["g"] == 2 and d1["window"] == 3
    assert d1["cells"] == sorted(d1["cells"])
