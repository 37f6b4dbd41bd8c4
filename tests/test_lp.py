"""The exact simplex against brute force on tiny programs.

The reference enumerates basic solutions by Cramer's rule on every
nonsingular square subsystem (Bareiss determinants), so it shares no
elimination code with the simplex it checks.
"""

import ast
import hashlib
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import conelab
from conelab.cones import find_supporting_functional
from conelab.exact import RatMatrix, determinant
from conelab.lp import GeneralResult, StandardResult, solve_lp, solve_standard_min
from conelab.quadforms import perfect_cone_of, q0_principal


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


def _pinned_standard_programs():
    """Seeded standard-form programs: 2-5 rows with mixed row denominators,
    negative right-hand sides, degenerate vertices and ties in the cost."""
    rng = random.Random(606)
    for _ in range(150):
        m = rng.randint(2, 5)
        n = rng.randint(2, 6)
        dens = [rng.choice((1, 2, 3, 4, 6)) for _ in range(m)]
        a = [[F(rng.randint(-3, 3), d) for _ in range(n)] for d in dens]
        if rng.random() < 0.6:  # feasible, with zeros in x0 for degeneracy
            x0 = [F(rng.choice((0, 0, 1, 2)), rng.randint(1, 3)) for _ in range(n)]
            b = [sum(aij * xj for aij, xj in zip(row, x0)) for row in a]
        else:
            b = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
        if rng.random() < 0.4:  # c = y.A: every feasible point is optimal
            y = [F(rng.randint(-2, 2)) for _ in range(m)]
            c = [sum(yi * row[j] for yi, row in zip(y, a)) for j in range(n)]
        elif rng.random() < 0.5:  # small costs tie often
            c = [F(rng.randint(-1, 1)) for _ in range(n)]
        else:
            c = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        yield c, a, b


def _pinned_general_programs():
    rng = random.Random(707)
    for _ in range(100):
        n = rng.randint(1, 4)
        n_ub = rng.randint(1, 4)
        n_eq = rng.randint(0, 2)
        a_ub = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n_ub)]
        b_ub = [F(rng.randint(-2, 4), rng.randint(1, 2)) for _ in range(n_ub)]
        if rng.random() < 0.5:  # a box -3 <= x <= 3 keeps most bounded
            for j in range(n):
                for s in (1, -1):
                    a_ub.append([F(s * (k == j)) for k in range(n)])
                    b_ub.append(F(3))
        a_eq = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n_eq)]
        b_eq = [F(rng.randint(-2, 2)) for _ in range(n_eq)]
        c = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
        yield c, a_ub, b_ub, a_eq, b_eq, rng.random() < 0.5


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pivot_path_outputs_are_pinned():
    """Which optimal vertex, which duals and which certificate come out
    depends on the pivot path; the brute-force tests above cannot see a
    change there, so the full results are pinned by digest."""
    lines = []
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    ties = 0
    for c, a, b in _pinned_standard_programs():
        res = solve_standard_min(c, a, b)
        seen[res.status] += 1
        lines.append(repr(res))
        if res.status == "optimal" and ties < 3:
            best = [x for x in _basic_feasible(a, b)
                    if sum(ci * xi for ci, xi in zip(c, x)) == res.objective]
            ties += len(best) > 1
    assert all(seen.values()) and ties, (seen, ties)
    assert _digest(lines) == PINNED_STANDARD, _digest(lines)

    lines = []
    for c, a_ub, b_ub, a_eq, b_eq, maximize in _pinned_general_programs():
        lines.append(repr(solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq,
                                   b_eq=b_eq, maximize=maximize)))
    assert _digest(lines) == PINNED_GENERAL, _digest(lines)

    lines = []
    rng = random.Random(808)
    for g in (2, 3, 4):
        cone = perfect_cone_of(q0_principal(g))
        n = len(cone.generators)
        for k in (1, n // 2, n - 1):
            sub = sorted(rng.sample(range(n), k))
            cert = find_supporting_functional(sub, cone)
            lines.append(repr((g, sub, cert.functional.data, cert.values)))
    assert _digest(lines) == PINNED_CERTIFICATES, _digest(lines)


# recorded with the earlier simplex over Fraction entries; the integer
# tableau makes the same pivot choices, so it must reproduce them
PINNED_STANDARD = "02473c991d5ba19d768525b5a6ab201630fe607ad3e90af0bb5abd19abe2b109"
PINNED_GENERAL = "ef2b16bc7ff38617159789e3ec01750ce0c60ebe1d6e3f00f1c30c850a406f1b"
PINNED_CERTIFICATES = "97ee1e2c9978a6e7c1f528be7177b4924be7cb3b21c0e24245a0e17144cfcc07"


def test_programs_without_rows():
    # min c.x over x >= 0 alone: x = 0 when c >= 0, else unbounded
    assert solve_standard_min([F(1), F(2)], [], []) == StandardResult(
        "optimal", (0, 0), 0, ())
    assert solve_standard_min([F(1), F(-2)], [], []).status == "unbounded"
    assert solve_lp([F(0), F(0)]) == GeneralResult("optimal", (0, 0), 0)
    assert solve_lp([F(1), F(0)]).status == "unbounded"


def test_only_lp_calls_the_simplex():
    """Every other module asks its LP questions through lp's front doors
    (feasible_nonneg_combination, solve_lp), never the simplex itself."""
    callers = []
    for path in sorted(Path(conelab.__file__).parent.glob("*.py")):
        if path.name == "lp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "solve_standard_min":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
