"""Exact conic feasibility: is b a nonnegative combination of some columns?

Every LP question in the package (cone membership, a face of a cone, a
cell meeting the unit cube, a point outside the hull of others) comes down
to this one, and `feasible_nonneg_combination` is its only entry point.

It runs phase 1 of the simplex method on an integer tableau (Edmonds 1967,
Bareiss 1968, as in Avis's lrs): one artificial column per row, and the
sum of the artificials is driven to zero.  Each row is a list of ints
standing for itself over a positive scale, so every sign and comparison,
and with them the pivot rule, are those of the ``Fraction`` tableau:
Dantzig pricing while progress is made, Bland's rule after a run of
degenerate pivots, so termination is guaranteed without any tolerance.
Problem sizes in this package are tiny (tens of rows, up to a couple
thousand columns for the point-location programs), so a dense tableau is
the simplest thing that works."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .exact import _pivot as _gauss_jordan_step
from .exact import clear_denominators

_BLAND_TRIGGER = 12  # consecutive degenerate pivots before switching rule


def _run_simplex(tab, basis, ncols):
    """Maximize the objective row (last row holds -reduced costs) until it
    is optimal or reaches 0; phase 1 is bounded by 0, so the ratio test
    always finds a row, and once the sum of the artificials is 0 every
    further pivot would be degenerate and leave x unchanged."""
    degenerate_run = 0
    obj = tab[-1]
    while obj[-1] != 0:
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
            return
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
        degenerate_run = degenerate_run + 1 if best_r == 0 else 0
        _gauss_jordan_step(tab, row, col)
        basis[row] = col
        obj = tab[-1]


def feasible_nonneg_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[tuple]:
    """Find lambda >= 0 with sum(lambda_j * columns[j]) = target, or None.

    The returned lambda is the basic solution phase 1 ends on, as Fractions.
    Entries may be ints or Fractions; each row's denominators are cleared
    once, and its artificial entry (its scale) is the common denominator.
    """
    m = len(target)
    if any(len(col) != m for col in columns):
        raise ValueError("column length mismatch")
    n = len(columns)
    tab = []
    for i in range(m):
        ints, den = clear_denominators([*(col[i] for col in columns), target[i]])
        sign = -1 if ints[-1] < 0 else 1
        tab.append([*(sign * v for v in ints[:n]),
                    *(den * (k == i) for k in range(m)), sign * ints[-1]])
    lcm = math.lcm(*(tab[i][n + i] for i in range(m)))
    weights = [lcm // tab[i][n + i] for i in range(m)]
    obj = [-sum(w * row[j] for w, row in zip(weights, tab)) for j in range(n + m + 1)]
    obj[n:n + m] = [0] * m
    tab.append(obj)
    basis = [n + i for i in range(m)]
    _run_simplex(tab, basis, n + m)
    if tab[-1][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[i][-1], tab[i][b])
    return tuple(x)
