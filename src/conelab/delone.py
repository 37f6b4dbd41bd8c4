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
the dual of the certified star, read off the walk's integer maps: its
vertices are the circumcentres of the star cells, with no linear system
solved, and its facets come from the Delone edges at the origin; one
lattice enumeration checks every vertex.  A zonotope's vertices are found
among the sign vectors of its facets, whose normals are cofactor vectors
of its segments, with no LP.  The one LP left here decides whether a
clipped semi-definite cell meets the unit cube, and only for a cell with
no lattice point in the cube: such a point is itself a common point, so
the cell's own points settle almost every cell.  The chambers of a
full-rank dicing are read off exactly and need no window.
A semi-definite form and a rank-deficient dicing share one path: reduce to
a definite block (the rank normal form) or a full-rank column system (the
Hermite normal form), subdivide that, and pull its classes back to the
window, keeping the clipped cells that meet the central unit cube.  The
walk runs on an integer multiple of a definite form, so its heights,
crossings, cofactor facet normals and certificates are integer; every
other predicate is rational.  All decisions are exact.  The walk holds its
window columnar, built once per walk: the points in product order and
their heights as one aligned int list.  A crossing evaluates its two
linear functionals on the whole window as int lists (outer sums over the
grid's axis) and scans the zipped lists once, calling no function per
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import add, mul, sub
from typing import Optional

from .exact import (
    IntMatrix,
    RatMatrix,
    canonical_sign,
    clear_denominators,
    greedy_basis,
    hermite_normal_form,
    int_determinant,
    integer_pivots,
    invert,
    primitive,
    rank,
    solve_exact,
)
from .exact import _rref
from .cones import rank_one_sum
from .lp import feasible_nonneg_combination
from .quadforms import (
    QuadForm,
    VerificationError,
    enumerate_in_ellipsoid,
    rational_rank_normal_form,
)
from .tumatrix import TUMatrix, is_simple_matrix

DEFAULT_WINDOW = {1: 3, 2: 3, 3: 3, 4: 2}


class WindowError(ValueError):
    """The window radius is too small to certify the cells near the origin."""


def window_radius_for(g: int, window_radius: Optional[int]) -> int:
    """The window radius a subdivision uses: the default for g, otherwise
    the given radius, which must be at least 2."""
    if window_radius is None:
        try:
            return DEFAULT_WINDOW[g]
        except KeyError:
            raise ValueError("subdivisions are supported for g <= 4") from None
    if window_radius < 2:
        raise ValueError("window radius must be at least 2")
    return window_radius


def normalize_cell(points) -> tuple:
    """Translate the lexicographically smallest point to the origin."""
    pts = sorted(map(tuple, points))
    base = pts[0]
    return tuple(tuple(map(sub, p, base)) for p in pts)


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


def _grid_values(coeffs, axis, start=0):
    """coeffs.p + start at every point p of the grid axis^g, in the order of
    _window_points: an outer sum of the per-axis values, one addition per
    point."""
    out = [start]
    for a in coeffs:
        terms = [a * x for x in axis]
        out = [o + t for o in out for t in terms]
    return out


def _grid_heights(qi, axis):
    """Q(p) at every point p of the grid axis^g, in the order of
    _window_points.  Peels off one axis at a time: with p = (x, y),
    Q(p) = q00 x^2 + x (2 q0.y) + Q'(y), where q0 is the rest of the first
    row and Q' the form on the remaining axes."""
    heights = [0]
    for i in reversed(range(len(qi))):
        qii = qi[i][i]
        cross = _grid_values([2 * q for q in qi[i][i + 1:]], axis)
        heights = [(qii * x + l) * x + h for x in axis for l, h in zip(cross, heights)]
    return heights


def _locate_cell(window):
    """A lower-hull facet through the origin: its supporting affine map.

    Starts from h = 0, which touches the lifted lattice only at the origin
    because Q > 0, and rotates h about a linear functional vanishing on the
    tight set.  Each rotation keeps h <= Q on the window and adds a tight
    point outside the span of the tight set, so after at most g rotations
    the tight set spans a full-dimensional cell containing 0.  Heights must
    be integers; the affine map is in the integer representation
    (avec, c, den) standing for (avec.x + c)/den.
    """
    origin = (0,) * len(window[0][0])  # window[0] holds the points
    aff, tight = (origin, 0, 1), frozenset({origin})
    while True:
        rows = RatMatrix([[Fraction(x) for x in p] for p in tight])
        kernel = solve_exact(rows, [Fraction(0)] * len(tight)).kernel
        if not kernel:
            return aff, tight
        # the functional vanishes on the whole tight set
        aff, tight = _cross_facet(window, aff, tight, primitive(kernel[0])[0])


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
    if g == 4:
        # expand each 3x3 minor along the first row, sharing the 2x2 minors
        # m_jk of the other two rows
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        return (a1 * m23 - a2 * m13 + a3 * m12, -a0 * m23 + a2 * m03 - a3 * m02,
                a0 * m13 - a1 * m03 + a3 * m01, -a0 * m12 + a1 * m02 - a2 * m01)
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


def _cell_meets_box(vertices) -> bool:
    """conv(vertices) meets the unit cube [0, 1]^g.

    A vertex in the cube lies in both, so it settles the test with no LP;
    the vertices of a clipped cell are lattice points, so this asks
    whether one of them is a 0/1 vector.  Otherwise an exact LP decides:
    lam, u, w >= 0 with sum lam v - u = 0, u + w = 1 and sum lam = 1, one
    column (v, 0, 1) per vertex, (-e_i, e_i, 0) per u_i and (0, e_i, 0)
    per w_i.
    """
    if any(0 <= min(v) and max(v) <= 1 for v in vertices):
        return True
    g = len(vertices[0])
    zeros = (0,) * g
    units = [tuple(int(i == k) for i in range(g)) for k in range(g)]
    cols = [(*v, *zeros, 1) for v in vertices]
    cols += [(*(-x for x in e), *e, 0) for e in units]
    cols += [(*zeros, *e, 0) for e in units]
    return feasible_nonneg_combination(cols, (*zeros, *(1,) * g, 1)) is not None


def delone_subdivision(q: QuadForm, window_radius: Optional[int] = None) -> PeriodicSubdivision:
    """Translation classes of the Delone cells meeting the central unit cube.

    Lattice points are lifted by their Q-value; the cells are the projected
    lower-hull facets.  A definite form's classes are the normalized cells
    of the certified star of the origin (see _star_walk).  Positive
    semi-definite forms are handled through the rank normal form (cells
    become lattice-point sets of unbounded polyhedra clipped to the
    window); indefinite forms are rejected.
    """
    g = q.g
    r = window_radius_for(g, window_radius)
    form = _integer_form(q)
    if form is None:
        return _degenerate_delone(q, r)
    star = _star_walk(form, r)
    return PeriodicSubdivision(g, r, frozenset(normalize_cell(verts) for _, verts in star))


def _integer_form(q: QuadForm):
    """(qi, adj, det) for a definite form, else None: the least positive
    integer multiple qi of its matrix, the adjugate of qi and det(qi) > 0,
    the last leading minor of the one symmetric Bareiss pass that decides
    definiteness (see integer_pivots).  Row i of the reduced [qi | det I]
    is row[i] times (e_i, adj_i), so adj comes out by exact integer
    division, with no Fraction.  The Delone subdivision and the Voronoi
    cell's vertices only depend on Q up to positive scaling, so both are
    computed from qi in integers."""
    qi, _, pivots = integer_pivots(q.matrix)
    if pivots is None:
        return None
    det, g = pivots[1][-1], len(qi)
    m = [[*row, *(det * (i == j) for j in range(g))] for i, row in enumerate(qi)]
    _rref(m, g)
    return qi, [[x // row[i] for x in row[g:]] for i, row in enumerate(m)], det


def _star_walk(form, r: int) -> list:
    """The star of the origin: every Delone cell containing 0, as
    (aff, vertices) pairs, the vertices sorted and aff = (avec, c, den) the
    integer map of the cell's supporting hyperplane (see _locate_cell).

    The walk starts from a cell containing 0 and crosses only facets
    through 0; every visited cell is certified by the window of radius r,
    or WindowError is raised.  Heights, crossings, facet normals and
    certificates are integer, computed from form = _integer_form(q).  The
    window is built once as (points, axis, heights): the points of axis^g
    in product order and their heights, an int list aligned with them.
    """
    qi, adj, det = form
    axis = range(-r, r + 2)
    window = (_window_points(len(qi), r), axis, _grid_heights(qi, axis))
    aff0, tight0 = _locate_cell(window)
    star = []
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
        star.append((aff, verts))
        for normal, facet in _facets_of_cell(verts):
            if facet in crossed:
                continue
            crossed.add(facet)
            naff, ntight = _cross_facet(window, aff, facet, normal)
            if ntight not in seen_tight:
                seen_tight.add(ntight)
                queue.append((naff, ntight))
    return star


def _cross_facet(window, aff, facet, normal):
    """Rotate h about ell(x) = normal.x, which vanishes on a facet through 0.

    One integer pass over the window finds the adjacent cell.  With
    h = (a.x + c)/den and gap = den*Q(p) - a.p - c >= 0, the pivot t is the
    least gap/(den*ell(p)) over ell > 0, compared by cross-multiplication
    (some unit vector has ell > 0).  ell and a.p + c are evaluated on the
    whole window as int lists aligned with its points and heights, and the
    scan zips the four lists, so no function is called per point.  The
    tight set is every window point with gap 0, and its points have
    ell <= 0, so those with ell > 0 have a positive gap.  Rotating raises
    the gap where ell < 0 and keeps it where ell = 0, so the new tight set
    is `facet` (the tight points with ell = 0) plus the points that tie
    for t.
    """
    points, axis, heights = window
    avec, c, den = aff
    best_num, best_ell = 1, 0  # t = +infinity until a point has ell > 0
    ties = []
    for p, h, lin, ell in zip(points, heights, _grid_values(avec, axis, c),
                              _grid_values(normal, axis)):
        if ell > 0:
            gap = den * h - lin
            if gap * best_ell < best_num * ell:
                best_num, best_ell, ties = gap, ell, [p]
            elif gap * best_ell == best_num * ell:
                ties.append(p)
    # h' = h + t * ell with t = best_num / (den * best_ell), in lowest terms
    new_avec = [a * best_ell + best_num * n for a, n in zip(avec, normal)]
    new_c, new_den = c * best_ell, den * best_ell
    div = gcd(*new_avec, new_c, new_den)
    naff = (tuple(a // div for a in new_avec), new_c // div, new_den // div)
    return naff, facet.union(ties)


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
    cell.  The window points are bucketed by y' once, each coordinate of
    y' evaluated on the whole window as an int list (see _grid_values).
    Over the unit cube y' ranges in the box [lo, hi] (the negative and
    positive row sums of the projection), so only translates whose
    bounding box meets it can meet the cube; the clipped cells that do
    are returned (see _cell_meets_box: a cell point in the cube settles
    it, and an exact LP decides the rest).
    """
    gp = len(next(iter(inner_cells))[0])
    proj = [[int(x) for x in row] for row in invert(h).transpose().data[:gp]]
    axis = range(-r, r + 2)
    buckets = {}
    for p, y in zip(_window_points(g, r), zip(*(_grid_values(row, axis) for row in proj))):
        buckets.setdefault(y, []).append(p)
    lo = [sum(x for x in row if x < 0) for row in proj]
    hi = [sum(x for x in row if x > 0) for row in proj]
    cells = set()
    for cell in inner_cells:
        ranges = [range(a - max(c), b - min(c) + 1) for a, b, c in zip(lo, hi, zip(*cell))]
        for shift in product(*ranges):
            pts = [p for v in cell for p in buckets.get(tuple(map(add, v, shift)), ())]
            if pts and _cell_meets_box(pts):
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
    r = window_radius_for(g, window_radius)
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
    binv = invert(IntMatrix([cols[i] for i in greedy_basis(cols)]))
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


WINDOW_GROWTH = 4  # radii a window may grow by before the WindowError stands


def delone_with_window_growth(q: QuadForm, window_radius: Optional[int] = None):
    """Delone subdivision, raising the window until the cells certify.

    Returns (subdivision, radius used).  Very skew forms need a larger
    window for the circumscribed-ellipsoid certificates; the subdivision
    classes themselves do not depend on the radius once certified.
    """
    return _grow_window(lambda r: delone_subdivision(q, r), window_radius_for(q.g, window_radius))


def _grow_window(walk, r: int):
    """(walk(radius), radius) for the least radius from r to
    r + WINDOW_GROWTH whose walk raises no WindowError; the last one's
    WindowError stands."""
    for radius in range(r, r + WINDOW_GROWTH):
        try:
            return walk(radius), radius
        except WindowError:
            pass
    return walk(r + WINDOW_GROWTH), r + WINDOW_GROWTH


def secondary_cone_check(a: TUMatrix, samples: int, rng) -> bool:
    """Interior forms of the cone of A all reproduce the dicing of A.

    Draws strictly positive rational weights, builds the weighted sum of
    column outer products, and compares Delone subdivisions cell by cell.
    Skew samples that outgrow the default window are recomputed in a
    larger one, together with the dicing they are compared against.
    """
    cols = a.inner.columns()
    dicings = {}
    for _ in range(samples):
        lam = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in cols]
        sub, r = delone_with_window_growth(QuadForm(rank_one_sum(cols, lam)))
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

    The cell is the dual of the certified Delone star of the origin, read
    off the star walk's integer maps.  A star cell contains 0, so its map
    is h(x) = a.x/den for the integer multiple qi of Q (see _integer_form),
    and its Q-circumcentre (2 p^t Q c = Q(p) for its vertices p) is the
    vertex adj.a / (2 det den).  A star vertex v gives the facet pair of
    its bisector 2 v^t Q x = Q(v), normal +-primitive(qi v), when the
    vertices on it (an integer cross-multiplication) span it, i.e. when
    [0, v] is a Delone edge.  `radius` is the starting window of the star
    walk (at least 2); it grows until the star certifies.  Every vertex is
    then checked on its own coordinates (see _check_voronoi_vertices).
    """
    g = q.g
    form = _integer_form(q)
    if form is None:
        return _degenerate_voronoi(q, radius)
    qi, adj, det = form
    star, _ = _grow_window(lambda r: _star_walk(form, r), max(radius, 2))
    centres = {}  # vertex -> (w, s), the vertex being w/s
    for (avec, _, den), _ in star:
        w, s = [_dot(row, avec) for row in adj], 2 * det * den
        centres[tuple(Fraction(x, s) for x in w)] = (w, s)
    halfspaces = []
    for v in {canonical_sign(p) for _, verts in star for p in verts if any(p)}:
        m = [_dot(row, v) for row in qi]
        qv, k = _dot(v, m), gcd(*m)
        # the bisector 2 m.x = qv holds the vertex w/s iff 2 m.w = qv s
        on = [c for c, (w, s) in centres.items() if 2 * _dot(m, w) == qv * s]
        if _affine_rank(on) == g - 1:
            normal, beta = tuple(x // k for x in m), Fraction(qv, 2 * k)
            halfspaces.append((normal, beta))
            halfspaces.append((tuple(-x for x in normal), beta))
    _check_voronoi_vertices(qi, centres)
    return VPolytope(g, tuple(sorted(halfspaces)), tuple(sorted(centres)))


def _check_voronoi_vertices(qi, vertices) -> None:
    """Raise VerificationError if a lattice point z is Q-closer than the
    origin to some vertex x, i.e. Q(z) < 2 z^t Q x, for Q a positive
    multiple of the integer form qi.

    Such a z has sqrt Q(z) <= sqrt Q(z - x) + sqrt Q(x) < 2 sqrt Q(x), so
    one enumeration of Q(z) <= 4 max Q(x) holds every candidate for every
    vertex.  Q x is computed from the vertex's own coordinates: with
    x = xi/e for integers xi, qi x = y/e for y = qi xi, and the test
    e qi(z) < 2 z.y is on integers.
    """
    scaled = []  # (x, y, e) with qi x = y/e
    bound = 0
    for x in vertices:
        xi, e = clear_denominators(x)
        y = [_dot(row, xi) for row in qi]
        scaled.append((x, y, e))
        bound = max(bound, Fraction(4 * _dot(xi, y), e * e))
    points = [(z, int(val)) for z, val in enumerate_in_ellipsoid(RatMatrix(qi), bound)]
    for x, y, e in scaled:
        if any(e * val < 2 * _dot(z, y) for z, val in points):
            raise VerificationError(
                f"Voronoi vertex {[str(t) for t in x]} is Q-closer to another "
                f"lattice point than to the origin"
            )


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


def minkowski_sum_vertices(segments, g):
    """Vertices of the zonotope Z = sum_i [-u_i/2, +u_i/2], sorted, without LPs.

    Zero segments are dropped, and Z is computed in the coordinates of a
    maximal independent set of rows of the matrix of the segments, on which
    their span (of dimension d) projects injectively.  The facet normals of
    Z are +-n for the cofactor normals n of the (d-1)-subsets of segments.
    A point p = sum_i eps_i u_i/2 lies on the facet of n (n.p is the
    maximum sum_i |n.u_i|/2) iff eps_i is the sign of n.u_i wherever that
    is nonzero.  Every vertex lies on a facet, so the candidates are, for
    each n, those signs with every sign on the segments orthogonal to n;
    a candidate is a vertex iff the normals of the facets it lies on have
    rank d.
    """
    segs = [u for u in (tuple(Fraction(x) for x in u) for u in segments) if any(u)]
    if not segs:
        return [(Fraction(0),) * g]
    ints, den = clear_denominators([x for u in segs for x in u])
    full = [ints[i:i + g] for i in range(0, len(ints), g)]  # den * u_i
    coords = greedy_basis(list(zip(*full)))
    d = len(coords)
    vecs = [tuple(u[i] for i in coords) for u in full]
    facets = {}  # facet normal n -> the set of (i, sign of n.u_i) with n.u_i != 0
    for sub in combinations(vecs, d - 1):
        n = _cofactor_normal(sub, d)
        k = gcd(*n)
        if k:
            dots = [_dot(n, u) for u in vecs]
            for sg in (1, -1):
                facets[tuple(sg * x // k for x in n)] = frozenset(
                    (i, sg if t > 0 else -sg) for i, t in enumerate(dots) if t)
    seen, out = set(), set()
    for fixed in facets.values():
        free = sorted(set(range(len(vecs))) - {i for i, _ in fixed})
        for signs in product((1, -1), repeat=len(free)):
            eps = fixed.union(zip(free, signs))
            if eps in seen:
                continue
            seen.add(eps)
            if rank(IntMatrix([n for n, on in facets.items() if on <= eps])) == d:
                eps = [e for _, e in sorted(eps)]
                out.add(tuple(Fraction(_dot(eps, col), 2 * den) for col in zip(*full)))
    return sorted(out)


def minkowski_sum_check(a: TUMatrix, radius: int = 3) -> bool:
    """Voronoi cell of the summed form equals the sum of its generator segments.

    The segment attached to a column v of A inside the form Q = sum v_i v_i^t
    is [-Q^-1 v / 2, +Q^-1 v / 2]: these are the only segment directions
    compatible with the zonotope's edge classes.  Exact vertex comparison
    of two independent computations, neither of which solves an LP: the
    Voronoi cell from the Delone star walk, the zonotope from the facet
    normals of its segments.  A has to have full row rank, so that the
    summed form is definite.
    """
    m = a.inner
    g = m.rows
    r = rank(m)
    if r < g:
        raise ValueError(f"zonotope check needs a matrix of full row rank, got rank {r} < {g}")
    cols = m.columns()
    q = QuadForm(rank_one_sum(cols))
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
