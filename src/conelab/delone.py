"""Windowed Delone subdivisions, hyperplane dicings, and Voronoi polytopes.

The infinite periodic objects are computed inside a finite lattice window
[-R, R+1]^g.  Every returned cell carries an exact certificate that the
window was large enough: the cell's circumscribed ellipsoid (the region
below its supporting hyperplane after lifting) fits strictly inside the
window, so no lattice point outside the window could change it.  All
predicates are rational; orientation and hull decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .exact import (
    RatMatrix,
    canonical_sign,
    clear_denominators,
    invert,
    primitive,
    rank,
    solve_exact,
)
from .lp import solve_lp, solve_standard_min
from .quadforms import QuadForm, enumerate_in_ellipsoid, rational_rank_normal_form
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
    """Translation classes of the cells meeting the central unit cube."""

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


def _locate_cell(points, heights, q):
    """Lower-hull facet whose projection contains q: supporting affine map.

    Solves min sum(lam_x * Q(x)) with sum(lam_x * (x,1)) = (q,1), lam >= 0.
    The optimal dual is an affine function h with h <= Q on all window
    points and h(q) maximal; its tight set spans a full-dimensional cell.
    Heights must be integers; the returned affine map is in the integer
    representation (avec, c, den) standing for (avec.x + c)/den.
    """
    g = len(q)
    cost = [Fraction(heights[p]) for p in points]
    a_eq = [[Fraction(p[i]) for p in points] for i in range(g)]
    a_eq.append([Fraction(1)] * len(points))
    b_eq = [Fraction(x) for x in q] + [Fraction(1)]
    res = solve_standard_min(cost, a_eq, b_eq)
    if res.status != "optimal":
        raise WindowError("query point outside the window hull; raise the window")
    ints, den = clear_denominators(res.duals)
    aff = (ints[:-1], ints[-1], den)
    return aff, _tight_set(points, heights, aff)


def _tight_set(points, heights, aff):
    avec, c, den = aff
    return frozenset(
        p for p in points
        if heights[p] * den == sum(a * x for a, x in zip(avec, p)) + c
    )


def _facets_of_cell(vertices):
    """Facet hyperplanes of the convex hull of full-dimensional `vertices`.

    Brute force over g-subsets; exact sidedness.  Returns (normal, offset)
    pairs with the normal pointing out of the cell.
    """
    verts = [tuple(v) for v in vertices]
    g = len(verts[0])
    seen = {}
    for sub in combinations(verts, g):
        normal = _hyperplane_normal(sub)
        if normal is None:
            continue
        beta = sum(n * x for n, x in zip(normal, sub[0]))
        lo = hi = False
        for v in verts:
            val = sum(n * x for n, x in zip(normal, v))
            if val > beta:
                hi = True
            elif val < beta:
                lo = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:  # flip so the cell is on the <= side
            normal = tuple(-n for n in normal)
            beta = -beta
        seen[(normal, beta)] = True
    return list(seen.keys())


def _hyperplane_normal(points) -> Optional[tuple]:
    """Primitive integer normal of the affine hull of g points, if (g-1)-dim."""
    g = len(points[0])
    if g == 1:
        return (1,)
    base = points[0]
    rows = [[Fraction(p[i] - base[i]) for i in range(g)] for p in points[1:]]
    kernel = solve_exact(RatMatrix(rows), [Fraction(0)] * (g - 1)).kernel
    if len(kernel) != 1:
        return None
    return primitive(kernel[0])[0]


def _ellipsoid_inside_window(qf: QuadForm, aff, r: int) -> bool:
    """Whether {x : Q(x) <= h(x)} fits strictly inside [-R, R+1]^g.

    Writing the region as Q(x - c) <= rho, its reach along coordinate i is
    sqrt(rho * (Q^-1)_ii); the comparison is done on squares.
    """
    g = qf.g
    avec, cc, den = aff
    qinv = invert(qf.matrix)
    a = [Fraction(x, den) for x in avec]
    c = [x / 2 for x in qinv.mul_vector(a)]
    rho = Fraction(cc, den) + sum(ci * x for ci, x in zip(c, qf.matrix.mul_vector(c)))
    if rho < 0:  # pragma: no cover - tight set nonempty implies rho >= 0
        return True
    for i in range(g):
        reach_sq = rho * qinv.data[i][i]
        up = Fraction(r + 1) - c[i]
        dn = c[i] - Fraction(-r)
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
    lower-hull facets.  Positive semi-definite forms are handled through
    the rank normal form (cells become lattice-point sets of unbounded
    polyhedra clipped to the window); indefinite forms are rejected.
    """
    g = q.g
    r = default_window(g) if window_radius is None else window_radius
    if r < 2:
        raise ValueError("window radius must be at least 2")
    from .quadforms import is_positive_definite

    if not is_positive_definite(q):
        return _degenerate_delone(q, r)

    # the subdivision only depends on Q up to positive scaling, so clear
    # denominators once and run the whole hull walk in integer arithmetic
    _, den = clear_denominators([x for row in q.matrix.data for x in row])
    qi = q.scale(den)
    points = _window_points(g, r)
    heights = {p: int(qi(p)) for p in points}
    center = tuple(Fraction(1, 2) for _ in range(g))
    aff0, tight0 = _locate_cell(points, heights, center)

    margin = Fraction(1, 4)
    keep = set()
    queue = [(aff0, tight0)]
    seen_tight = {tight0}
    while queue:
        aff, tight = queue.pop()
        verts = sorted(tight)
        if not _ellipsoid_inside_window(qi, aff, r):
            raise WindowError(
                f"a cell near the origin is not certified by the window of "
                f"radius {r}; raise the window radius"
            )
        if _cell_meets_box(verts, 0, 1):
            keep.add(normalize_cell(verts))
        if not _cell_meets_box(verts, -margin, 1 + margin):
            continue
        for normal, beta in _facets_of_cell(verts):
            nxt = _cross_facet(points, heights, aff, normal, beta)
            if nxt is None:
                raise WindowError(
                    f"no neighbor found inside the window of radius {r}; "
                    "raise the window radius"
                )
            naff, ntight = nxt
            if ntight not in seen_tight:
                seen_tight.add(ntight)
                queue.append((naff, ntight))
    return PeriodicSubdivision(g, r, frozenset(keep))


def _cross_facet(points, heights, aff, normal, beta):
    """Rotate the supporting hyperplane around a facet to the adjacent cell.

    All-integer inner loop: with h = (a.x + c)/den, the pivot parameter is
    t = (den*Q(p) - a.p - c) / (den * ell(p)) and only the ratio ordering
    matters, so candidates compare by integer cross-multiplication.
    """
    avec, c, den = aff
    best_num = best_ell = None
    for p in points:
        ell = sum(n * x for n, x in zip(normal, p)) - beta
        if ell <= 0:
            continue
        gap = heights[p] * den - (sum(a * x for a, x in zip(avec, p)) + c)
        if best_num is None or gap * best_ell < best_num * ell:
            best_num, best_ell = gap, ell
    if best_num is None:
        return None
    # h' = h + t * ell with t = best_num / (den * best_ell)
    g = len(normal)
    new_den = den * best_ell
    new_avec = tuple(avec[i] * best_ell + best_num * normal[i] for i in range(g))
    new_c = c * best_ell - best_num * beta
    *navec, nc, nden = primitive((*new_avec, new_c, new_den))[0]
    naff = (tuple(navec), nc, nden)
    return naff, _tight_set(points, heights, naff)


def _degenerate_delone(q: QuadForm, r: int) -> PeriodicSubdivision:
    """Semi-definite forms: reduce to the definite block, pull cells back."""
    g = q.g
    h, qp = rational_rank_normal_form(q)  # h q h^t = diag(q', 0)
    points = _window_points(g, r)
    if qp is None:
        # zero form: the single trivial cell containing everything
        cls = normalize_cell(points)
        return PeriodicSubdivision(g, r, frozenset({cls}))
    gp = qp.g
    inner = delone_subdivision(qp, r)
    # y = (h^t)^-1 x splits into (y', y''); a cell is the preimage of an
    # inner cell under x -> y'.  Collect lattice points per class.
    hinv_t = invert(h.to_rational()).transpose()
    cells = set()
    inner_cells = inner.cells
    # scan integer translates of every inner class and keep the pullbacks
    # that meet the central cube; the window range bounds the translates
    for cell in inner_cells:
        cellset = set(cell)
        span = r + 1
        for shift in product(range(-span, span + 1), repeat=gp):
            translated = {tuple(v + s for v, s in zip(p, shift)) for p in cellset}
            pts = [p for p in points
                   if _project_first(hinv_t, p, gp) in translated]
            if not pts:
                continue
            if _cell_meets_box(pts, 0, 1):
                cells.add(normalize_cell(pts))
    return PeriodicSubdivision(g, r, frozenset(cells))


def _project_first(hinv_t: RatMatrix, p, gp: int):
    y = hinv_t.mul_vector([Fraction(x) for x in p])
    out = []
    for v in y[:gp]:
        if v.denominator != 1:
            return None
        out.append(int(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# dicings


def dicing_subdivision(a: TUMatrix, window_radius: Optional[int] = None) -> PeriodicSubdivision:
    """Cells of the integer-translate arrangement of the column hyperplanes.

    Each column v contributes the hyperplane family {v.x = k, k integer}.
    Unimodularity of the matrix makes every lattice point lie on a plane of
    every family, so a full-rank cell is recovered from any one of its
    lattice points by choosing, per family, one of the two slabs around it;
    candidates are generated that way and validated exactly.  Cells meeting
    the central unit cube are returned.
    """
    from .tumatrix import is_unimodular

    m = a.inner
    g = m.rows
    r = default_window(g) if window_radius is None else window_radius
    if not is_simple_matrix(m):
        raise ValueError("dicing requires a simple matrix")
    if is_unimodular(m) is None:
        raise ValueError("dicing requires a unimodular matrix")
    cols = [tuple(c) for c in m.columns()]
    points = _window_points(g, r)
    full_rank = rank(m) == g
    dots = {p: tuple(_dot(v, p) for v in cols) for p in points}

    # necessary slab ranges for any cell meeting the cube
    cube_lo = [sum(min(0, x) for x in v) for v in cols]
    cube_hi = [sum(max(0, x) for x in v) for v in cols]

    candidates = set()
    for p in points:
        dv = dots[p]
        choices = []
        for i, d in enumerate(dv):
            ks = [k for k in (d - 1, d) if k <= cube_hi[i] and k + 1 >= cube_lo[i]]
            if not ks:
                choices = None
                break
            choices.append(ks)
        if choices is None:
            continue
        for ks in product(*choices):
            candidates.add(ks)

    cells = set()
    bound_check = _slab_bound_checker(m, cols, g, r) if full_rank else None
    for ks in candidates:
        pts = [p for p in points
               if all(k <= d <= k + 1 for d, k in zip(dots[p], ks))]
        if len(pts) < 2:
            continue
        if full_rank:
            # full-dimensional iff the lattice points span affinely
            if _affine_rank(pts) != g:
                continue
            if not bound_check(ks):
                raise WindowError(
                    f"dicing cell leaves the window of radius {r}; raise the radius"
                )
        else:
            if not _region_full_dimensional(cols, ks, g):
                continue
        if not _cell_meets_box(pts, 0, 1):
            continue
        cells.add(normalize_cell(pts))
    return PeriodicSubdivision(g, r, frozenset(cells))


def _affine_rank(pts) -> int:
    base = pts[0]
    rows = [[Fraction(x - b) for x, b in zip(p, base)] for p in pts[1:]]
    if not rows:
        return 0
    return rank(RatMatrix(rows))


def _slab_bound_checker(m, cols, g, r):
    """Certify that a slab cell lies inside the window by interval arithmetic.

    Pick g independent columns forming a unimodular basis B; any point of
    the cell is x = B^-t y with y_i in [k_i, k_i+1], so coordinatewise
    interval bounds on B^-t rows bound the whole cell.
    """
    basis_idx = []
    for j in range(len(cols)):
        trial = basis_idx + [j]
        sub = RatMatrix([[Fraction(cols[t][i]) for t in trial] for i in range(g)])
        if rank(sub) == len(trial):
            basis_idx = trial
            if len(basis_idx) == g:
                break
    b = RatMatrix([[Fraction(cols[t][i]) for t in basis_idx] for i in range(g)])
    binv_t = invert(b.transpose())

    def check(ks) -> bool:
        for i in range(g):
            lo = hi = Fraction(0)
            for t, j in enumerate(basis_idx):
                coef = binv_t.data[i][t]
                k = Fraction(ks[j])
                vals = (coef * k, coef * (k + 1))
                lo += min(vals)
                hi += max(vals)
            if lo < -r or hi > r + 1:
                return False
        return True

    return check


def _dot(v, p):
    return sum(a * b for a, b in zip(v, p))


def _region_full_dimensional(cols, ks, g) -> bool:
    """Whether {k <= v.x <= k+1} has interior: maximize the common slack."""
    nvars = g + 1  # x free, slack t
    a_ub = []
    b_ub = []
    for v, k in zip(cols, ks):
        a_ub.append([Fraction(-x) for x in v] + [Fraction(1)])
        b_ub.append(Fraction(-k))
        a_ub.append([Fraction(x) for x in v] + [Fraction(1)])
        b_ub.append(Fraction(k + 1))
    a_ub.append([Fraction(0)] * g + [Fraction(-1)])
    b_ub.append(Fraction(0))
    res = solve_lp([Fraction(0)] * g + [Fraction(1)],
                   a_ub=a_ub, b_ub=b_ub, maximize=True)
    return res.status == "optimal" and res.objective > 0


def _region_vertices(cols, ks, g):
    """Vertices of the box-like region, each checked to be a lattice point."""
    constraints = []
    for v, k in zip(cols, ks):
        constraints.append((v, Fraction(k)))
        constraints.append((tuple(-x for x in v), Fraction(-(k + 1))))
    verts = set()
    for sub in combinations(range(len(constraints)), g):
        mat = RatMatrix([[Fraction(x) for x in constraints[i][0]] for i in sub])
        sol = solve_exact(mat, [constraints[i][1] for i in sub])
        if sol is None or sol.kernel:
            continue
        x = sol.x
        ok = all(k <= _dot(v, x) <= k + 1 for v, k in zip(cols, ks))
        if not ok:
            continue
        if any(xi.denominator != 1 for xi in x):
            return None
        verts.add(tuple(int(xi) for xi in x))
    return sorted(verts)


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

    Facet candidates are the vectors v in the +-box that strictly minimize Q
    on their coset v + 2Z^g (up to sign); the survivors are certified
    irredundant by exact LP, and the vertices come from exhaustive
    halfspace intersection.
    """
    from .quadforms import is_positive_definite

    g = q.g
    if not is_positive_definite(q):
        return _degenerate_voronoi(q, radius)
    halfspaces = []
    seen = set()
    for v in product(range(-radius, radius + 1), repeat=g):
        if all(x == 0 for x in v):
            continue
        key = canonical_sign(v)
        if key in seen:
            continue
        seen.add(key)
        if _is_relevant(q, key):
            qv = q.matrix.mul_vector([Fraction(x) for x in key])
            normal, s = primitive([2 * x for x in qv])
            beta = q(key) * s
            halfspaces.append((normal, beta))
            halfspaces.append((tuple(-x for x in normal), beta))
    halfspaces = _remove_redundant(halfspaces, g)
    verts = _halfspace_vertices(halfspaces, g)
    # completeness certificate.  Every found halfspace is a valid constraint
    # of the cell, so the intersection P always contains it; if P is in
    # addition bounded and every vertex of P has the origin among its
    # Q-nearest lattice points, then P equals the cell exactly.
    for d in range(g):
        for sgn in (1, -1):
            cost = [Fraction(sgn * int(i == d)) for i in range(g)]
            res = solve_lp(cost,
                           a_ub=[[Fraction(x) for x in n] for n, _ in halfspaces],
                           b_ub=[b for _, b in halfspaces], maximize=True)
            if res.status != "optimal":
                raise ValueError(
                    "facet search radius too small for this form; raise it"
                )
    for x in verts:
        dist = q(x)
        for v, val in enumerate_in_ellipsoid(q.matrix, dist, x):
            if val < dist:
                raise ValueError(
                    "facet search radius too small for this form; raise it"
                )
    return VPolytope(g, tuple(sorted(halfspaces)), tuple(sorted(verts)))


def _is_relevant(q: QuadForm, v) -> bool:
    """Strict minimum of Q on the coset v + 2Z^g, up to sign."""
    qv = q(v)
    center = [Fraction(-x, 2) for x in v]
    minima = []
    minval = None
    for z, val4 in enumerate_in_ellipsoid(q.matrix, qv / 4, center):
        w = tuple(vi + 2 * zi for vi, zi in zip(v, z))
        val = 4 * val4  # Q(w) = 4 * Q(z + v/2)
        if minval is None or val < minval:
            minval = val
            minima = [w]
        elif val == minval:
            minima.append(w)
    if minval != qv:
        return False
    return sorted(minima) == sorted([tuple(v), tuple(-x for x in v)])


def _remove_redundant(halfspaces, g):
    """Drop halfspaces that never bind: max a.x over the others stays <= b."""
    kept = list(halfspaces)
    out = []
    for idx, (a, b) in enumerate(kept):
        others = [hs for j, hs in enumerate(kept) if j != idx]
        res = solve_lp(
            [Fraction(x) for x in a],
            a_ub=[[Fraction(x) for x in n] for n, _ in others],
            b_ub=[bb for _, bb in others],
            maximize=True,
        )
        if res.status == "unbounded" or (res.status == "optimal" and res.objective > b):
            out.append((a, b))
    return out


def _halfspace_vertices(halfspaces, g):
    verts = set()
    for sub in combinations(range(len(halfspaces)), g):
        rows = [[Fraction(x) for x in halfspaces[i][0]] for i in sub]
        sol = solve_exact(RatMatrix(rows), [halfspaces[i][1] for i in sub])
        if sol is None or sol.kernel:
            continue
        x = sol.x
        if all(sum(Fraction(n) * xi for n, xi in zip(a, x)) <= b
               for a, b in halfspaces):
            verts.add(tuple(x))
    return verts


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
    """
    m = a.inner
    g = m.rows
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
