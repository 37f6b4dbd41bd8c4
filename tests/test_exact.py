import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from conelab.exact import (
    DimensionError,
    IntMatrix,
    RatMatrix,
    clear_denominators,
    determinant,
    format_matrix,
    hermite_normal_form,
    invert,
    ldlt_decompose,
    parse_int_matrix,
    parse_matrix,
    primitive,
    rank,
    solve_exact,
)


def test_determinant_examples():
    assert determinant(RatMatrix.identity(3)) == 1
    assert determinant(RatMatrix([[1, 1], [1, -1]])) == -2
    # a column basis of the triangle representation
    assert determinant(RatMatrix([[1, 0], [0, 1]])) == 1


def test_determinant_requires_square():
    with pytest.raises(DimensionError):
        determinant(RatMatrix([[1, 2, 3]]))


def test_determinant_multiplicative():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = RatMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert determinant(a.mul(b)) == determinant(a) * determinant(b)


def test_determinant_rational_entries():
    a = RatMatrix([["1/2", "1/3"], ["1/5", "1/7"]])
    assert determinant(a) == F(1, 14) - F(1, 15)


def test_hnf_examples():
    h, u = hermite_normal_form(IntMatrix([[2, 0], [0, 1]]))
    assert h == IntMatrix([[2, 0], [0, 1]])
    assert u == IntMatrix.identity(2)

    h, u = hermite_normal_form(IntMatrix([[0, 1], [1, 0]]))
    assert h == IntMatrix.identity(2)
    assert u == IntMatrix([[0, 1], [1, 0]])

    # gcd chain by hand: rows (2) and (4) reduce to (2), (0)
    h, u = hermite_normal_form(IntMatrix([[2], [4]]))
    assert h == IntMatrix([[2], [0]])


def test_hnf_properties_random():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        h, u = hermite_normal_form(a)
        assert u.mul(a) == h
        assert abs(determinant(u.to_rational())) == 1
        # pivots positive, entries above each pivot reduced into [0, pivot)
        last_pivot_col = -1
        for i in range(h.rows):
            nz = [j for j in range(h.cols) if h.data[i][j] != 0]
            if not nz:
                continue
            p = nz[0]
            assert p > last_pivot_col
            last_pivot_col = p
            assert h.data[i][p] > 0
            for k in range(i):
                assert 0 <= h.data[k][p] < h.data[i][p]


def test_solve_exact_examples():
    sol = solve_exact(RatMatrix.identity(2), [1, 2])
    assert sol.x == (F(1), F(2)) and sol.kernel == ()

    sol = solve_exact(RatMatrix([[1, 1]]), [3])
    assert sol.x == (F(3), F(0))
    assert sol.kernel == ((F(1), F(-1)),)

    assert solve_exact(RatMatrix([[1], [1]]), [0, 1]) is None


def test_solve_exact_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = RatMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        b = a.mul_vector(x)
        sol = solve_exact(a, b)
        assert sol is not None
        assert a.mul_vector(sol.x) == tuple(b)
        for k in sol.kernel:
            assert a.mul_vector(k) == tuple([F(0)] * rows)
        assert len(sol.kernel) == cols - rank(a)
    # the same elimination inverts square draws and rejects singular ones
    # (decided independently by the Bareiss determinant); a row of each
    # draw feeds the integer-vector helpers
    singular = nonsingular = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        a = RatMatrix([[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                       for _ in range(n)])
        if determinant(a) == 0:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                invert(a)
        else:
            nonsingular += 1
            assert invert(a).mul(a) == RatMatrix.identity(n)
        v = a.row(0)
        ints, den = clear_denominators(v)
        assert ints == tuple(den * x for x in v)
        assert all(any((d * x).denominator != 1 for x in v) for d in range(1, den))
        p, s = primitive(v)
        assert s > 0 and p == tuple(s * x for x in v)
        assert math.gcd(*p) == (1 if any(v) else 0)
    assert singular and nonsingular
    # edge inputs: 0 x n matrices, the zero vector, int tuples, negatives
    for n in (1, 3):
        empty = RatMatrix((), cols=n)
        assert rank(empty) == 0
        assert len(solve_exact(empty, []).kernel) == n
    assert clear_denominators((F(0), F(0))) == ((0, 0), 1)
    assert primitive((F(0), F(0))) == ((0, 0), 1)
    assert clear_denominators((3, -5)) == ((3, -5), 1)
    assert primitive((4, -6, 10)) == ((2, -3, 5), F(1, 2))
    assert clear_denominators((F(-1, 2), F(3, 4))) == ((-2, 3), 4)
    assert primitive((F(-2, 3), F(4, 9))) == ((-3, 2), F(9, 2))


def test_ldlt_examples():
    l, d = ldlt_decompose(RatMatrix.identity(2))
    assert l == RatMatrix.identity(2) and d == (F(1), F(1))

    l, d = ldlt_decompose(RatMatrix([["1", "1/2"], ["1/2", "1"]]))
    assert l == RatMatrix([[1, 0], ["1/2", 1]])
    assert d == (F(1), F(3, 4))

    assert ldlt_decompose(RatMatrix([[1, 2], [2, 1]])) is None


def test_ldlt_rejects_asymmetric():
    with pytest.raises(DimensionError):
        ldlt_decompose(RatMatrix([[1, 2], [0, 1]]))


def _leading_minors_positive(m: RatMatrix) -> bool:
    for k in range(1, m.rows + 1):
        sub = RatMatrix([row[:k] for row in m.data[:k]])
        if determinant(sub) <= 0:
            return False
    return True


def test_ldlt_iff_sylvester_all_3x3_sign_matrices():
    # exhaustive cross-check over all symmetric 3x3 matrices with entries
    # in {-1, 0, 1}
    for diag in product((-1, 0, 1), repeat=3):
        for off in product((-1, 0, 1), repeat=3):
            m = RatMatrix([
                [diag[0], off[0], off[1]],
                [off[0], diag[1], off[2]],
                [off[1], off[2], diag[2]],
            ])
            assert (ldlt_decompose(m) is not None) == _leading_minors_positive(m)


def test_ldlt_reconstructs():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = RatMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        q = b.transpose().mul(b).add(RatMatrix.identity(n))
        l, d = ldlt_decompose(q)
        dm = RatMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
        assert l.mul(dm).mul(l.transpose()) == q


def test_matrix_text_format_roundtrip():
    text = "# header comment\n2 3\n1 1/2 0\n-1 2 7/3\n"
    m = parse_matrix(text)
    assert m.data[1][2] == F(7, 3)
    again = parse_matrix(format_matrix(m))
    assert again == m


def test_matrix_text_format_errors():
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError):
        parse_int_matrix("1 1\n1/2\n")


def test_empty_matrix_needs_columns():
    m = IntMatrix([], cols=4)
    assert m.rows == 0 and m.cols == 4 and rank(m) == 0
    with pytest.raises(DimensionError):
        IntMatrix([])
