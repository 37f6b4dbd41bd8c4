"""Exact rational linear programming.

A two-phase simplex on an integer tableau (Edmonds 1967, Bareiss 1968, as
in Avis's lrs).  Each row is a list of ints standing for itself over a
positive scale, so every sign and comparison, and with them the pivot rule,
are those of the ``Fraction`` tableau: Dantzig pricing while progress is
made, Bland's rule after a run of degenerate pivots, so termination is
guaranteed without any tolerance.  Problem sizes in this package are tiny
(tens of rows, up to a couple thousand columns for the point-location
programs), so a dense tableau is the simplest thing that works."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exact import RatMatrix, _row_step, clear_denominators, solve_exact
from .exact import _pivot as _gauss_jordan_step

_ZERO = Fraction(0)
_BLAND_TRIGGER = 12  # consecutive degenerate pivots before switching rule


class StandardResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple]
    objective: Optional[Fraction]
    duals: Optional[tuple]


def _pivot(tab, basis, row, col):
    _gauss_jordan_step(tab, row, col)
    basis[row] = col


def _run_simplex(tab, basis, ncols):
    """Maximize the objective row (last row holds -reduced costs)."""
    degenerate_run = 0
    while True:
        obj = tab[-1]
        use_bland = degenerate_run >= _BLAND_TRIGGER
        col = None
        if use_bland:
            for j in range(ncols):
                if obj[j] < 0:
                    col = j
                    break
        else:
            best = 0
            for j in range(ncols):
                if obj[j] < best:
                    best = obj[j]
                    col = j
        if col is None:
            return "optimal"
        # ratio test rhs_i / a_i by cross-multiplication (both scales cancel)
        row = None
        for i in range(len(tab) - 1):
            a = tab[i][col]
            if a > 0:
                r = tab[i][-1]
                if (
                    row is None
                    or r * best_a < best_r * a
                    or (r * best_a == best_r * a and basis[i] < basis[row])
                ):
                    row, best_r, best_a = i, r, a
        if row is None:
            return "unbounded"
        degenerate_run = degenerate_run + 1 if best_r == 0 else 0
        _pivot(tab, basis, row, col)


def solve_standard_min(
    c: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
) -> StandardResult:
    """min c.x subject to A x = b, x >= 0.

    Returns the optimal basic solution and the dual vector y (one multiplier
    per equality row, satisfying y.A <= c with equality on basic columns).
    """
    nvars = len(c)
    m = len(a_eq)
    rows = [[Fraction(v) for v in row] for row in a_eq]
    rhs = [Fraction(v) for v in b_eq]
    signs = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            signs[i] = -1

    # phase 1: artificial basis; each row's denominators are cleared once
    # and its artificial entry (its scale) is the common denominator
    width = nvars + m
    tab = []
    for i in range(m):
        ints, den = clear_denominators(rows[i] + [rhs[i]])
        tab.append([*ints[:nvars], *(den * (k == i) for k in range(m)), ints[-1]])
    lcm = math.lcm(*(tab[i][nvars + i] for i in range(m)))
    weights = [lcm // tab[i][nvars + i] for i in range(m)]
    obj = [-sum(w * row[j] for w, row in zip(weights, tab)) for j in range(width + 1)]
    obj[nvars:width] = [0] * m
    tab.append(obj)
    basis = [nvars + i for i in range(m)]
    status = _run_simplex(tab, basis, width)
    if status != "optimal" or tab[-1][-1] != 0:
        return StandardResult("infeasible", None, None, None)
    # drive remaining artificials out of the basis when possible
    for i in range(m):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    # drop artificial columns, rebuild the real objective
    keep = list(range(nvars)) + [width]
    tab = [[row[j] for j in keep] for row in tab[:-1]]
    # tableau maximizes, so minimizing c.x means maximizing (-c).x and the
    # z-row starts out as +c
    cost = [Fraction(v) for v in c]
    obj = list(clear_denominators(cost)[0]) + [0]
    for i, b in enumerate(basis):
        if b < nvars and obj[b] != 0:
            obj = _row_step(obj, tab[i], b)
    tab.append(obj)
    status = _run_simplex(tab, basis, nvars)
    if status == "unbounded":
        return StandardResult("unbounded", None, None, None)
    x = [_ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[i][-1], tab[i][b])
    objective = sum((ci * xi for ci, xi in zip(cost, x)), _ZERO)
    duals = _dual_from_basis(rows, c, basis, m)
    # duals were computed against the sign-flipped rows; undo the flips
    duals = tuple(d * s for d, s in zip(duals, signs))
    return StandardResult("optimal", tuple(x), objective, duals)


def _dual_from_basis(rows, c, basis, m):
    """Solve A_B^t y = c_B for the equality-constraint multipliers.

    A leftover artificial column in a degenerate basis acts as a unit
    vector with cost zero.
    """
    if m == 0:  # no rows, no multipliers
        return ()
    at_rows = []
    rhs = []
    for b in basis:
        if b < len(c):
            at_rows.append([rows[i][b] for i in range(m)])
            rhs.append(Fraction(c[b]))
        else:
            k = b - len(c)
            at_rows.append([Fraction(int(i == k)) for i in range(m)])
            rhs.append(_ZERO)
    sol = solve_exact(RatMatrix(at_rows), rhs)
    if sol is None:  # pragma: no cover - basis matrix is invertible
        raise RuntimeError("dual system inconsistent")
    return tuple(sol.x)


def feasible_nonneg_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[tuple]:
    """Find lambda >= 0 with sum(lambda_j * columns[j]) = target, or None.

    Every conic feasibility question in the package (cone membership, a
    cell meeting the unit cube, a point outside the hull of others) comes
    through here.  Entries may be ints or Fractions; the simplex converts
    each one once.
    """
    m = len(target)
    if any(len(col) != m for col in columns):
        raise ValueError("column length mismatch")
    a_eq = [[col[i] for col in columns] for i in range(m)]
    res = solve_standard_min([_ZERO] * len(columns), a_eq, target)
    if res.status != "optimal":
        return None
    return res.x


class GeneralResult(NamedTuple):
    status: str
    x: Optional[tuple]
    objective: Optional[Fraction]


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
    maximize: bool = True,
) -> GeneralResult:
    """LP with free variables: opt c.x st a_ub x <= b_ub, a_eq x = b_eq.

    Free variables are split into nonnegative pairs and inequalities get
    slack variables, then the standard-form solver does the work.
    """
    n = len(c)
    n_ub = len(a_ub)
    n_eq = len(a_eq)
    cols = 2 * n + n_ub
    rows = []
    rhs = []
    for i in range(n_ub):
        row = [Fraction(a_ub[i][j]) for j in range(n)]
        rows.append(
            row + [-v for v in row] + [Fraction(int(k == i)) for k in range(n_ub)]
        )
        rhs.append(Fraction(b_ub[i]))
    for i in range(n_eq):
        row = [Fraction(a_eq[i][j]) for j in range(n)]
        rows.append(row + [-v for v in row] + [_ZERO] * n_ub)
        rhs.append(Fraction(b_eq[i]))
    sign = -1 if maximize else 1
    cost = [sign * Fraction(v) for v in c]
    cost = cost + [-v for v in cost] + [_ZERO] * n_ub
    res = solve_standard_min(cost, rows, rhs)
    if res.status != "optimal":
        return GeneralResult(res.status, None, None)
    x = tuple(res.x[j] - res.x[n + j] for j in range(n))
    obj = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return GeneralResult("optimal", x, obj)
