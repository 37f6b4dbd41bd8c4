"""Windowed Delone subdivisions, hyperplane dicings, and Voronoi polytopes.

The infinite periodic objects are computed inside a finite lattice window
[-R, R+1]^g.  Every translation class of cells has a member with a vertex
at the origin, so only the star of the origin (the cells containing it) is
computed: the Delone hull walk crosses only facets through the origin, and
a full-rank dicing takes only the chambers of the central arrangement.
Every Delone star cell carries an exact certificate that the window was
large enough: the cell's circumscribed ellipsoid (the region below its
supporting hyperplane after lifting) fits strictly inside the window, so
no lattice point outside the window could change it.  The Voronoi cell is
the dual of the certified star: its vertices are the circumcentres of the
star cells and its facets come from the Delone edges at the origin.  The
chambers of a full-rank dicing are read off exactly and need no window.
A semi-definite form and a rank-deficient dicing share one path: reduce to
a definite block (the rank normal form) or a full-rank column system (the
Hermite normal form), subdivide that, and pull its classes back to the
window, keeping the clipped cells that meet the central unit cube.  The
walk runs on an integer multiple of a definite form, so its heights,
crossings, cofactor facet normals and certificates are integer; every
other predicate is rational.  All decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import add, mul
from typing import Optional

from .exact import (
    IntMatrix,
    RatMatrix,
    canonical_sign,
    clear_denominators,
    hermite_normal_form,
    int_determinant,
    invert,
    primitive,
    rank,
    solve_exact,
)
from .lp import solve_standard_min
from .quadforms import (
    QuadForm,
    VerificationError,
    enumerate_in_ellipsoid,
    is_positive_definite,
    rational_rank_normal_form,
)
from .tumatrix import TUMatrix, is_simple_matrix

DEFAULT_WINDOW = {1: 3, 2: 3, 3: 3, 4: 2}


class WindowError(ValueError):
    """The window radius is too small to certify the cells near the origin."""


def default_window(g: int) -> int:
    try:
        return DEFAULT_WINDOW[g]
    except KeyError:
        raise ValueError("subdivisions are supported for g <= 4") from None


def normalize_cell(points) -> tuple:
    """Translate the lexicographically smallest point to the origin."""
    pts = sorted(tuple(int(x) for x in p) for p in points)
    base = pts[0]
    return tuple(tuple(x - b for x, b in zip(p, base)) for p in pts)


@dataclass(frozen=True)
class PeriodicSubdivision:
    """Translation classes of the cells meeting the central unit cube.

    Each class has a member with a vertex at the origin, so the classes are
    the normalized cells of the star of the origin; only those cells need a
    window certificate.
    """

    g: int
    window_radius: int
    cells: frozenset  # of normalized cells (tuples of int tuples)

    def sorted_cells(self) -> list:
        return sorted(self.cells)

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "window": self.window_radius,
            "cells": [[list(v) for v in cell] for cell in self.sorted_cells()],
        }


def subdivisions_equal(s1: PeriodicSubdivision, s2: PeriodicSubdivision) -> bool:
    if s1.g != s2.g:
        raise ValueError("subdivisions live in different dimensions")
    if s1.window_radius != s2.window_radius:
        raise ValueError("subdivisions were computed in different windows")
    return s1.cells == s2.cells


# ---------------------------------------------------------------------------
# Delone subdivisions via exact lifted lower hulls


def _window_points(g: int, r: int):
    return [tuple(p) for p in product(range(-r, r + 2), repeat=g)]


def _locate_cell(points, heights):
    """A lower-hull facet through the origin: its supporting affine map.

    Starts from h = 0, which touches the lifted lattice only at the origin
    because Q > 0, and rotates h about a linear functional vanishing on the
    tight set.  Each rotation keeps h <= Q on the window and adds a tight
    point outside the span of the tight set, so after at most g rotations
    the tight set spans a full-dimensional cell containing 0.  Heights must
    be integers; the affine map is in the integer representation
    (avec, c, den) standing for (avec.x + c)/den.
    """
    g = len(points[0])
    origin = (0,) * g
    aff, tight = (origin, 0, 1), frozenset({origin})
    while True:
        rows = RatMatrix([[Fraction(x) for x in p] for p in tight])
        kernel = solve_exact(rows, [Fraction(0)] * len(tight)).kernel
        if not kernel:
            return aff, tight
        aff, tight = _cross_facet(points, heights, aff, primitive(kernel[0])[0])


def _facets_of_cell(vertices):
    """Facets through 0 of the hull of full-dimensional `vertices`, 0 among them.

    Such a facet is spanned by g-1 nonzero vertices, whose integer cofactor
    vector is its normal (zero when they are dependent); exact sidedness
    keeps the supporting ones.  Returns (normal, facet) pairs: the primitive
    normal pointing out of the cell and the vertices on the facet.
    """
    verts = [tuple(v) for v in vertices]
    g = len(verts[0])
    out = {}
    for sub in combinations([v for v in verts if any(v)], g - 1):
        normal = _cofactor_normal(sub, g)
        div = gcd(*normal)
        if not div:
            continue
        normal = tuple(n // div for n in normal)
        vals = [_dot(normal, v) for v in verts]
        if max(vals) > 0:
            if min(vals) < 0:
                continue
            normal = tuple(-n for n in normal)  # the cell on the <= 0 side
        out[normal] = frozenset(v for v, val in zip(verts, vals) if val == 0)
    return list(out.items())


def _cofactor_normal(rows, g: int) -> tuple:
    """The vector of signed maximal minors of g-1 integer rows of length g:
    orthogonal to every row, and zero exactly when the rows are dependent."""
    if g == 1:
        return (1,)
    if g == 2:
        (a, b), = rows
        return (b, -a)
    if g == 3:
        (a1, a2, a3), (b1, b2, b3) = rows
        return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    return tuple((-1) ** i * int_determinant([r[:i] + r[i + 1:] for r in rows])
                 for i in range(g))


def _ellipsoid_inside_window(adj, det: int, aff, r: int) -> bool:
    """Whether {x : Q(x) <= h(x)} fits strictly inside [-R, R+1]^g.

    Writing the region as Q(x - c) <= rho, its reach along coordinate i is
    sqrt(rho * (Q^-1)_ii); the comparison is done on squares.  For integer Q
    with Q^-1 = adj/det (det > 0) and h = (a.x + cc)/den, w = adj.a gives
    c = w/(2*det*den) and rho = (4*det*den*cc + a.w)/(4*det*den^2), so every
    test is on integers over the positive denominator 4*det^2*den^2.
    """
    avec, cc, den = aff
    w = [_dot(row, avec) for row in adj]
    s = 2 * det * den
    rho = 4 * det * den * cc + _dot(avec, w)
    if rho < 0:  # pragma: no cover - tight set nonempty implies rho >= 0
        return True
    for i, wi in enumerate(w):
        reach_sq = rho * adj[i][i]
        up = (r + 1) * s - wi
        dn = wi + r * s
        if up < 0 or dn < 0 or up * up < reach_sq or dn * dn < reach_sq:
            return False
    return True


def _cell_meets_box(vertices, lo, hi) -> bool:
    """conv(vertices) intersects the box [lo, hi]^g, decided by exact LP."""
    verts = list(vertices)
    g = len(verts[0])
    n = len(verts)
    # variables: lam (n), u (g), w (g):  sum lam v - u = 0, u + w = hi - lo,
    # sum lam = 1;  u = point - lo
    nvars = n + 2 * g
    a_eq = []
    b_eq = []
    for i in range(g):
        row = [Fraction(v[i]) for v in verts] + [Fraction(0)] * (2 * g)
        row[n + i] = Fraction(-1)
        a_eq.append(row)
        b_eq.append(Fraction(lo))
    for i in range(g):
        row = [Fraction(0)] * nvars
        row[n + i] = Fraction(1)
        row[n + g + i] = Fraction(1)
        a_eq.append(row)
        b_eq.append(Fraction(hi) - Fraction(lo))
    a_eq.append([Fraction(1)] * n + [Fraction(0)] * (2 * g))
    b_eq.append(Fraction(1))
    res = solve_standard_min([Fraction(0)] * nvars, a_eq, b_eq)
    return res.status == "optimal"


def delone_subdivision(q: QuadForm, window_radius: Optional[int] = None) -> PeriodicSubdivision:
    """Translation classes of the Delone cells meeting the central unit cube.

    Lattice points are lifted by their Q-value; the cells are the projected
    lower-hull facets.  The walk covers the star of the origin: it starts
    from a cell containing 0 and crosses only facets through 0, and every
    visited cell is certified by the window.  Definite forms are scaled to
    integers, so the walk (heights, crossings, facet normals and window
    certificates) runs in integer arithmetic.  Positive semi-definite forms
    are handled through the rank normal form (cells become lattice-point
    sets of unbounded polyhedra clipped to the window); indefinite forms
    are rejected.
    """
    g = q.g
    r = default_window(g) if window_radius is None else window_radius
    if r < 2:
        raise ValueError("window radius must be at least 2")
    if not is_positive_definite(q):
        return _degenerate_delone(q, r)

    # the subdivision only depends on Q up to positive scaling, so clear
    # denominators once and run the whole hull walk in integer arithmetic
    _, den = clear_denominators([x for row in q.matrix.data for x in row])
    qi = [[int(x) for x in row] for row in q.scale(den).matrix.data]
    det = int_determinant(qi)
    adj = [[int(x * det) for x in row] for row in invert(IntMatrix(qi)).data]
    points = _window_points(g, r)
    heights = {p: _dot(p, [_dot(row, p) for row in qi]) for p in points}
    aff0, tight0 = _locate_cell(points, heights)

    keep = set()
    queue = [(aff0, tight0)]
    seen_tight = {tight0}
    crossed = set()  # vertex sets of the facets already crossed
    while queue:
        aff, tight = queue.pop()
        verts = sorted(tight)
        if not _ellipsoid_inside_window(adj, det, aff, r):
            raise WindowError(
                f"a cell near the origin is not certified by the window of "
                f"radius {r}; raise the window radius"
            )
        keep.add(normalize_cell(verts))
        for normal, facet in _facets_of_cell(verts):
            if facet in crossed:
                continue
            crossed.add(facet)
            naff, ntight = _cross_facet(points, heights, aff, normal)
            if ntight not in seen_tight:
                seen_tight.add(ntight)
                queue.append((naff, ntight))
    return PeriodicSubdivision(g, r, frozenset(keep))


def _cross_facet(points, heights, aff, normal):
    """Rotate h about ell(x) = normal.x, which vanishes on a facet through 0.

    One integer pass over the window finds the adjacent cell.  With
    h = (a.x + c)/den and gap = den*Q(p) - a.p - c >= 0, the pivot t is the
    least gap/(den*ell(p)) over ell > 0, compared by cross-multiplication
    (some unit vector has ell > 0).  The current tight points have ell <= 0,
    so that gap is positive, and the new tight set is the facet (tight
    points with ell = 0) plus the points that tie for t.
    """
    avec, c, den = aff
    best_num = best_ell = None
    tight = []
    ties = []
    for p in points:
        ell = _dot(normal, p)
        if ell < 0:
            continue
        gap = heights[p] * den - _dot(avec, p) - c
        if ell == 0:
            if gap == 0:
                tight.append(p)
        elif best_num is None or gap * best_ell < best_num * ell:
            best_num, best_ell, ties = gap, ell, [p]
        elif gap * best_ell == best_num * ell:
            ties.append(p)
    # h' = h + t * ell with t = best_num / (den * best_ell), in lowest terms
    new_avec = [a * best_ell + best_num * n for a, n in zip(avec, normal)]
    new_c, new_den = c * best_ell, den * best_ell
    div = gcd(*new_avec, new_c, new_den)
    naff = (tuple(a // div for a in new_avec), new_c // div, new_den // div)
    return naff, frozenset(tight + ties)


def _degenerate_delone(q: QuadForm, r: int) -> PeriodicSubdivision:
    """Semi-definite forms: with h q h^t = diag(q', 0) from the rank normal
    form, Q(x) = Q'(y') for y = (h^t)^-1 x, so the cells are the pull-backs
    of the Delone cells of the definite block q' (see _pull_back)."""
    g = q.g
    h, qp = rational_rank_normal_form(q)
    if qp is None:
        # zero form: the single trivial cell containing everything
        cls = normalize_cell(_window_points(g, r))
        return PeriodicSubdivision(g, r, frozenset({cls}))
    return _pull_back(delone_subdivision(qp, r).cells, h, g, r)


def _pull_back(inner_cells, h: IntMatrix, g: int, r: int) -> PeriodicSubdivision:
    """Pull the classes of a subdivision of Z^g' back along x -> y'.

    h is unimodular, so y' = ((h^t)^-1 x)[:g'] is integral, and a cell is
    the set of window points whose y' lies in a translate of an inner
    cell.  The window points are bucketed by y' once.  Over the unit cube
    y' ranges in the box [lo, hi] (the negative and positive row sums of
    the projection), so only translates whose bounding box meets it can
    meet the cube; the clipped cells that do, by exact LP, are returned.
    """
    gp = len(next(iter(inner_cells))[0])
    proj = [[int(x) for x in row] for row in invert(h).transpose().data[:gp]]
    buckets = {}
    for p in _window_points(g, r):
        buckets.setdefault(tuple(_dot(row, p) for row in proj), []).append(p)
    lo = [sum(x for x in row if x < 0) for row in proj]
    hi = [sum(x for x in row if x > 0) for row in proj]
    cells = set()
    for cell in inner_cells:
        ranges = [range(a - max(c), b - min(c) + 1) for a, b, c in zip(lo, hi, zip(*cell))]
        for shift in product(*ranges):
            pts = [p for v in cell for p in buckets.get(tuple(map(add, v, shift)), ())]
            if pts and _cell_meets_box(pts, 0, 1):
                cells.add(normalize_cell(pts))
    return PeriodicSubdivision(g, r, frozenset(cells))


# ---------------------------------------------------------------------------
# dicings


def dicing_subdivision(a: TUMatrix, window_radius: Optional[int] = None) -> PeriodicSubdivision:
    """Cells of the integer-translate arrangement of the column hyperplanes.

    Each column v contributes the hyperplane family {v.x = k, k integer}.
    Unimodularity of the matrix makes every lattice point lie on a plane of
    every family, so a cell is recovered from any one of its lattice points
    by choosing, per family, one of the two slabs around it.  For a
    full-rank matrix every class has a member with a vertex at the origin,
    so the classes are the chambers of the central arrangement (slabs
    k in {-1, 0} per column).  Their lattice points are read off
    exactly, without the window (see _lattice_points_near_origin), so
    they do not depend on the radius.  A rank-deficient matrix is brought
    to u m = [m'; 0] by its Hermite normal form; its cells are unbounded,
    the pull-backs of the chambers of the full-rank m' (the same path as
    the semi-definite Delone subdivision, see _pull_back), clipped to the
    window, and the clipped cells meeting the central unit cube are
    returned.
    """
    from .tumatrix import is_unimodular

    m = a.inner
    g = m.rows
    r = default_window(g) if window_radius is None else window_radius
    if not is_simple_matrix(m):
        raise ValueError("dicing requires a simple matrix")
    if is_unimodular(m) is None:
        raise ValueError("dicing requires a unimodular matrix")
    gp = rank(m)
    if gp == g:
        return PeriodicSubdivision(g, r, _origin_chambers(m.columns(), g))
    # u m = [m'; 0], so v.x = v'.y' for y = (u^t)^-1 x: pull back the
    # dicing of the full-rank columns v' of m'
    hnf, u = hermite_normal_form(m)
    return _pull_back(_origin_chambers(list(zip(*hnf.data[:gp])), gp), u, g, r)


def _origin_chambers(cols, g: int) -> frozenset:
    """Classes of the dicing of full-rank columns: the chambers at the origin
    (slabs k in {-1, 0} per column), as normalized lattice-point sets."""
    near = _lattice_points_near_origin(cols, g)
    dots = {p: tuple(_dot(v, p) for v in cols) for p in near}
    cells = set()
    for ks in product((-1, 0), repeat=len(cols)):
        pts = [p for p in near
               if all(k <= d <= k + 1 for d, k in zip(dots[p], ks))]
        # full-dimensional iff the lattice points span affinely
        if _affine_rank(pts) == g:
            cells.add(normalize_cell(pts))
    return frozenset(cells)


def _affine_rank(pts) -> int:
    base = pts[0]
    rows = [[Fraction(x - b) for x, b in zip(p, base)] for p in pts[1:]]
    if not rows:
        return 0
    return rank(RatMatrix(rows))


def _lattice_points_near_origin(cols, g):
    """The lattice points x with |v.x| <= 1 for every column v.

    They hold the lattice points of every chamber at the origin.  For a
    basis B of g columns, B^t x is integral and in [-1, 1]^g, and B is
    unimodular, so each such x is B^-t y for some y in {-1, 0, 1}^g.
    """
    basis = []
    for v in cols:
        if rank(IntMatrix(basis + [v])) > len(basis):
            basis.append(v)
    binv = invert(IntMatrix(basis))
    near = []
    for y in product((-1, 0, 1), repeat=g):
        x = tuple(int(sum(row[t] * y[t] for t in range(g))) for row in binv.data)
        if all(-1 <= _dot(v, x) <= 1 for v in cols):
            near.append(x)
    return near


def _dot(v, p):
    return sum(map(mul, v, p))


# ---------------------------------------------------------------------------
# secondary cones


def delone_with_window_growth(q: QuadForm, window_radius: Optional[int] = None,
                              max_growth: int = 4):
    """Delone subdivision, raising the window until the cells certify.

    Returns (subdivision, radius used).  Very skew forms need a larger
    window for the circumscribed-ellipsoid certificates; the subdivision
    classes themselves do not depend on the radius once certified.
    """
    r = default_window(q.g) if window_radius is None else window_radius
    for extra in range(max_growth + 1):
        try:
            return delone_subdivision(q, r + extra), r + extra
        except WindowError:
            if extra == max_growth:
                raise
    raise AssertionError("unreachable")


def secondary_cone_check(a: TUMatrix, samples: int, rng, window_radius: Optional[int] = None) -> bool:
    """Interior forms of the cone of A all reproduce the dicing of A.

    Draws strictly positive rational weights, builds the weighted sum of
    column outer products, and compares Delone subdivisions cell by cell.
    Skew samples that outgrow the default window are recomputed in a
    larger one, together with the dicing they are compared against.
    """
    m = a.inner
    g = m.rows
    r0 = default_window(g) if window_radius is None else window_radius
    dicings = {}
    cols = m.columns()
    for _ in range(samples):
        lam = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in cols]
        rows = [[sum(l * v[i] * v[j] for l, v in zip(lam, cols))
                 for j in range(g)] for i in range(g)]
        q = QuadForm(RatMatrix(rows))
        sub, r = delone_with_window_growth(q, r0)
        if r not in dicings:
            dicings[r] = dicing_subdivision(a, r)
        if not subdivisions_equal(sub, dicings[r]):
            return False
    return True


# ---------------------------------------------------------------------------
# Dirichlet-Voronoi polytopes


@dataclass(frozen=True)
class VPolytope:
    g: int
    halfspaces: tuple  # (integer normal tuple, Fraction offset)
    vertices: tuple    # tuples of Fractions, sorted

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "halfspaces": [
                {"normal": list(n), "offset": str(b)} for n, b in self.halfspaces
            ],
            "vertices": [[str(x) for x in v] for v in self.vertices],
        }


def voronoi_polytope(q: QuadForm, radius: int = 3) -> VPolytope:
    """Points at least as Q-close to the origin as to any other lattice point.

    The cell is the dual of the certified Delone star of the origin.  Each
    star cell's Q-circumcentre c (2 p^t Q c = Q(p) for its vertices p != 0)
    is a vertex, and a star vertex v gives the facet pair +-2 v^t Q x <= Q(v)
    when the vertices on that hyperplane span it, i.e. when [0, v] is a
    Delone edge.  `radius` is the starting window of the star walk (at
    least 2); it grows until the star certifies.  Every vertex is then
    checked on its own: no lattice point is Q-closer to it than the origin.
    """
    g = q.g
    if not is_positive_definite(q):
        return _degenerate_voronoi(q, radius)
    sub, _ = delone_with_window_growth(q, max(radius, 2))
    star = cells_incident_to_origin(sub)
    verts = set()
    for cell in star:
        nonzero = [p for p in cell if any(p)]
        rows = [[2 * x for x in q.matrix.mul_vector([Fraction(y) for y in p])]
                for p in nonzero]
        verts.add(tuple(solve_exact(RatMatrix(rows), [q(p) for p in nonzero]).x))
    halfspaces = []
    for v in {canonical_sign(p) for cell in star for p in cell if any(p)}:
        qv = q.matrix.mul_vector([Fraction(x) for x in v])
        normal, s = primitive([2 * x for x in qv])
        beta = q(v) * s
        on = [c for c in verts if _dot(normal, c) == beta]
        if _affine_rank(on) == g - 1:
            halfspaces.append((normal, beta))
            halfspaces.append((tuple(-x for x in normal), beta))
    for x in verts:
        dist = q(x)
        if any(val < dist for _, val in enumerate_in_ellipsoid(q.matrix, dist, x)):
            raise VerificationError(
                f"Voronoi vertex {[str(t) for t in x]} is Q-closer to another "
                f"lattice point than to the origin"
            )
    return VPolytope(g, tuple(sorted(halfspaces)), tuple(sorted(verts)))


def _degenerate_voronoi(q: QuadForm, radius: int) -> VPolytope:
    g = q.g
    h, qp = rational_rank_normal_form(q)
    if qp is None:
        return VPolytope(g, (), (tuple(Fraction(0) for _ in range(g)),))
    inner = voronoi_polytope(qp, radius)
    ht = h.to_rational().transpose()
    verts = set()
    for v in inner.vertices:
        full = list(v) + [Fraction(0)] * (g - qp.g)
        verts.add(tuple(ht.mul_vector(full)))
    hinv = invert(h.to_rational())
    halfspaces = []
    for a, b in inner.halfspaces:
        full = [Fraction(x) for x in a] + [Fraction(0)] * (g - qp.g)
        # pull back through y = (h^t)^-1 x
        normal, s = primitive(hinv.mul_vector(full))
        if any(normal):
            halfspaces.append((normal, b * s))
    return VPolytope(g, tuple(sorted(halfspaces)), tuple(sorted(verts)))


# ---------------------------------------------------------------------------
# zonotopes


def _extreme_points(points, g):
    """Filter a finite set down to the vertices of its convex hull (exact LPs)."""
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        others = [qq for j, qq in enumerate(pts) if j != i]
        if not others:
            out.append(p)
            continue
        a_eq = [[Fraction(o[k]) for o in others] for k in range(g)]
        a_eq.append([Fraction(1)] * len(others))
        b_eq = [Fraction(x) for x in p] + [Fraction(1)]
        res = solve_standard_min([Fraction(0)] * len(others), a_eq, b_eq)
        if res.status != "optimal":
            out.append(p)
    return out


def minkowski_sum_vertices(segments, g):
    """Vertices of the Minkowski sum of centered segments [-u/2, +u/2]."""
    pts = [tuple(Fraction(0) for _ in range(g))]
    for u in segments:
        half = [Fraction(x) / 2 for x in u]
        new = []
        for p in pts:
            new.append(tuple(a + b for a, b in zip(p, half)))
            new.append(tuple(a - b for a, b in zip(p, half)))
        pts = _extreme_points(new, g)
    return sorted(pts)


def minkowski_sum_check(a: TUMatrix, radius: int = 3) -> bool:
    """Voronoi cell of the summed form equals the sum of its generator segments.

    The segment attached to a column v of A inside the form Q = sum v_i v_i^t
    is [-Q^-1 v / 2, +Q^-1 v / 2]: these are the only segment directions
    compatible with the zonotope's edge classes.  Exact vertex comparison.
    A has to have full row rank, so that the summed form is definite.
    """
    m = a.inner
    g = m.rows
    r = rank(m)
    if r < g:
        raise ValueError(f"zonotope check needs a matrix of full row rank, got rank {r} < {g}")
    cols = m.columns()
    rows = [[sum(Fraction(v[i] * v[j]) for v in cols) for j in range(g)]
            for i in range(g)]
    q = QuadForm(RatMatrix(rows))
    vor = voronoi_polytope(q, radius)
    qinv = invert(q.matrix)
    segs = [qinv.mul_vector([Fraction(x) for x in v]) for v in cols]
    zono = minkowski_sum_vertices(segs, g)
    return sorted(vor.vertices) == sorted(zono)


def cells_incident_to_origin(s: PeriodicSubdivision) -> set:
    """All cells of the periodic subdivision having the origin as a point."""
    out = set()
    for cell in s.cells:
        for v in cell:
            out.add(tuple(sorted(tuple(x - y for x, y in zip(p, v)) for p in cell)))
    return out
