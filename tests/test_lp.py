"""The exact simplex against brute force on tiny programs.

The reference enumerates basic solutions by Cramer's rule on every
nonsingular square subsystem (Bareiss determinants), so it shares no
elimination code with the simplex it checks.
"""

import random
from fractions import Fraction as F
from itertools import combinations

from conelab.exact import RatMatrix, determinant
from conelab.lp import solve_lp, solve_standard_min


def _det(rows):
    return determinant(RatMatrix(rows)) if rows else F(1)


def _basic_feasible(a, b):
    """Every basic feasible solution of A x = b, x >= 0."""
    m, n = len(a), len(a[0])
    out = set()
    for k in range(min(m, n) + 1):
        for cols in combinations(range(n), k):
            for rows in combinations(range(m), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                d = _det(sub)
                if d == 0:
                    continue
                x = [F(0)] * n
                for t, j in enumerate(cols):
                    swapped = [row[:t] + [b[i]] + row[t + 1:] for row, i in zip(sub, rows)]
                    x[j] = _det(swapped) / d
                if all(v >= 0 for v in x) and all(
                        sum(aij * xj for aij, xj in zip(a[i], x)) == b[i]
                        for i in range(m)):
                    out.add(tuple(x))
    return out


def _brute_min(c, a, b):
    """(status, objective) of min c.x st A x = b, x >= 0."""
    vertices = _basic_feasible(a, b)
    if not vertices:
        return "infeasible", None
    # unbounded iff some extreme ray d (A d = 0, d >= 0, sum d = 1) descends
    rays = _basic_feasible([list(row) for row in a] + [[F(1)] * len(c)],
                           [F(0)] * len(a) + [F(1)])
    if any(sum(ci * di for ci, di in zip(c, d)) < 0 for d in rays):
        return "unbounded", None
    return "optimal", min(sum(ci * xi for ci, xi in zip(c, x)) for x in vertices)


def _check_optimal(c, a, b, res):
    x, y = res.x, res.duals
    assert all(v >= 0 for v in x)
    for i, row in enumerate(a):
        assert sum(aij * xj for aij, xj in zip(row, x)) == b[i]
    assert sum(ci * xi for ci, xi in zip(c, x)) == res.objective
    # dual feasibility, complementary slackness, strong duality
    for j in range(len(c)):
        reduced = c[j] - sum(y[i] * a[i][j] for i in range(len(a)))
        assert reduced >= 0
        if x[j] > 0:
            assert reduced == 0
    assert sum(yi * bi for yi, bi in zip(y, b)) == res.objective


def test_standard_min_matches_brute_force_random():
    rng = random.Random(17)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(80):
        m = rng.randint(2, 3)
        n = rng.randint(2, 5)
        a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.6:  # feasible by construction
            x0 = [F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(n)]
            b = [sum(aij * xj for aij, xj in zip(row, x0)) for row in a]
        else:
            b = [F(rng.randint(-3, 3)) for _ in range(m)]
        c = [F(rng.randint(-2, 3)) for _ in range(n)]
        res = solve_standard_min(c, a, b)
        status, objective = _brute_min(c, a, b)
        assert res.status == status
        seen[status] += 1
        if status == "optimal":
            assert res.objective == objective
            _check_optimal(c, a, b, res)
    assert all(seen.values()), seen


def test_standard_min_infeasible_and_unbounded():
    res = solve_standard_min([F(1), F(1)], [[F(1), F(1)]], [F(-1)])
    assert res.status == "infeasible" and res.x is None
    res = solve_standard_min([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert res.status == "unbounded" and res.objective is None


def test_standard_min_beale_degenerate():
    # Beale's example, on which textbook Dantzig pricing cycles
    c = [F(0), F(0), F(0), F(-3, 4), F(150), F(-1, 50), F(6)]
    a = [
        [F(1), F(0), F(0), F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(0), F(1), F(0), F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0), F(0), F(1), F(0)],
    ]
    b = [F(0), F(0), F(1)]
    res = solve_standard_min(c, a, b)
    assert res.status == "optimal"
    assert res.objective == F(-1, 20) == _brute_min(c, a, b)[1]
    _check_optimal(c, a, b, res)


def test_solve_lp_free_variables_both_senses():
    # x <= 2, y <= 3, x + y >= -1 with x, y free
    a_ub = [[1, 0], [0, 1], [-1, -1]]
    b_ub = [2, 3, 1]
    hi = solve_lp([1, 1], a_ub=a_ub, b_ub=b_ub, maximize=True)
    assert hi.status == "optimal" and hi.objective == 5 and hi.x == (2, 3)
    lo = solve_lp([1, 1], a_ub=a_ub, b_ub=b_ub, maximize=False)
    assert lo.status == "optimal" and lo.objective == -1 and sum(lo.x) == -1
    # an equality row and an optimum at negative coordinates
    a_eq, b_eq = [[1, -1]], [1]
    lo = solve_lp([2, -1], a_ub=[[-1, 0]], b_ub=[2], a_eq=a_eq, b_eq=b_eq,
                  maximize=False)
    assert lo.status == "optimal" and lo.x == (-2, -3) and lo.objective == -1
    hi = solve_lp([2, -1], a_ub=[[-1, 0]], b_ub=[2], a_eq=a_eq, b_eq=b_eq,
                  maximize=True)
    assert hi.status == "unbounded" and hi.x is None
    hi = solve_lp([2, -1], a_ub=[[1, 0]], b_ub=[4], a_eq=a_eq, b_eq=b_eq,
                  maximize=True)
    assert hi.status == "optimal" and hi.x == (4, 3) and hi.objective == 5
