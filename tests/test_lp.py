"""The exact phase-1 simplex against brute force on tiny programs.

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
from conelab.lp import feasible_nonneg_combination
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


def _solve(a, b):
    """feasible_nonneg_combination on the columns of A."""
    return feasible_nonneg_combination([list(col) for col in zip(*a)], b)


def _check_against_brute_force(a, b):
    """None exactly when no basic feasible solution exists, and otherwise
    one of them.  Returns whether the program is feasible."""
    x = _solve(a, b)
    vertices = _basic_feasible(a, b)
    assert (x is None) == (not vertices)
    if x is not None:
        assert x in vertices
    return x is not None


def test_feasibility_matches_brute_force_random():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(80):
        m = rng.randint(2, 3)
        n = rng.randint(2, 5)
        a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.6:  # feasible by construction
            x0 = [F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(n)]
            b = [sum(aij * xj for aij, xj in zip(row, x0)) for row in a]
        else:
            b = [F(rng.randint(-3, 3)) for _ in range(m)]
        seen[_check_against_brute_force(a, b)] += 1
    assert all(seen.values()), seen


def test_beale_degenerate_feasibility():
    # the rows of Beale's example, on which textbook Dantzig pricing
    # cycles: two of the three right-hand sides are 0
    a = [
        [F(1), F(0), F(0), F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(0), F(1), F(0), F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0), F(0), F(1), F(0)],
    ]
    assert _check_against_brute_force(a, [F(0), F(0), F(1)])
    assert not _check_against_brute_force(a, [F(0), F(0), F(-1)])


def _pinned_programs():
    """Seeded programs A x = b: 2-5 rows with mixed row denominators,
    negative right-hand sides and degenerate vertices."""
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
        # the programs were recorded with a cost row, still drawn here so
        # the seeded stream reproduces them
        if rng.random() < 0.4:
            [rng.randint(-2, 2) for _ in range(m)]
        elif rng.random() < 0.5:
            [rng.randint(-1, 1) for _ in range(n)]
        else:
            [(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        yield a, b


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pivot_path_outputs_are_pinned():
    """Which basic solution and which certificate come out depends on the
    pivot path; the brute-force tests above cannot see a change there, so
    the full results are pinned by digest."""
    lines = []
    for a, b in _pinned_programs():
        lines.append(repr(_solve(a, b)))
    assert 0 < sum(line == "None" for line in lines) < len(lines)
    assert _digest(lines) == PINNED_FEASIBLE, _digest(lines)

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


# PINNED_FEASIBLE was recorded with the earlier two-phase simplex: phase 1
# makes the same pivot choices, and phase 2 never pivoted on a zero cost,
# so it must reproduce.  PINNED_CERTIFICATES pins the feasibility form of
# the face question (H = H+ - H-, one slack per generator off the face).
PINNED_FEASIBLE = "b342653b876fd3452550a447a3956c89e9971711c27b9bb33f35a803ddaca1eb"
PINNED_CERTIFICATES = "9e8695ee349c2d6f660fa41b12c5f7fe356dd0b0ad691476ef9bc123018ad64a"


def test_programs_without_rows():
    # x >= 0 alone: x = 0 is the solution
    assert feasible_nonneg_combination([[], []], []) == (0, 0)
    assert feasible_nonneg_combination([], []) == ()
    assert feasible_nonneg_combination([], [F(0)]) == ()
    assert feasible_nonneg_combination([], [F(1)]) is None


def test_only_lp_calls_the_simplex():
    """lp.py has one public function, feasible_nonneg_combination, no other
    module imports any other name from it, and in delone.py only
    _cell_meets_box calls it."""
    src = Path(conelab.__file__).parent
    tree = ast.parse((src / "lp.py").read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert public == ["feasible_nonneg_combination"]
    imports = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module in ("lp", "conelab.lp"):
                names = [alias.name for alias in node.names]
            elif node.module in (None, "conelab"):
                names = [alias.name for alias in node.names if alias.name == "lp"]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names
                        if name != "feasible_nonneg_combination"]
    assert imports == []
    callers = [fn.name for fn in ast.walk(ast.parse((src / "delone.py").read_text()))
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and "feasible_nonneg_combination" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None))]
    assert callers == ["_cell_meets_box"]
