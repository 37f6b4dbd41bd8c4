import random
from itertools import combinations

import pytest

from conelab import exact
from conelab.exact import IntMatrix, determinant, hermite_normal_form, int_determinant, invert, rank
from conelab.fixtures import load_graph, load_int_matrix
from conelab.matroids import cographic_representation, complete_graph, graphic_representation
from conelab.tumatrix import (
    BlockShapeError,
    SumShape2,
    SumShape3,
    TUMatrix,
    _assemble,
    equivalent_unimodular,
    is_simple_matrix,
    is_totally_unimodular,
    is_unimodular,
    seymour_sum1,
    seymour_sum2,
    seymour_sum3,
)

AK3 = graphic_representation(complete_graph(3))


def test_tu_examples():
    assert is_totally_unimodular(load_int_matrix("A10.txt"))
    assert is_totally_unimodular(IntMatrix.identity(4))
    assert not is_totally_unimodular(IntMatrix([[1, 1], [1, -1]]))
    assert not is_totally_unimodular(IntMatrix([[2]]))


def _brute_force_tu(a):
    """The TU test as it was before minors were shared: a fresh Bareiss
    determinant for every square submatrix."""
    for row in a.data:
        for x in row:
            if x not in (-1, 0, 1):
                return False
    for k in range(2, min(a.rows, a.cols) + 1):
        for rows_idx in combinations(range(a.rows), k):
            picked = [a.data[i] for i in rows_idx]
            for cols_idx in combinations(range(a.cols), k):
                sub = [tuple(row[j] for j in cols_idx) for row in picked]
                if int_determinant(sub) not in (-1, 0, 1):
                    return False
    return True


TU_FIXTURES = [load_int_matrix(f"{name}.txt") for name in (
    "A10", "AK3", "AK4", "I2", "I3", "SUM2_LEFT_A", "SUM2_RIGHT_A",
    "SUM3_LEFT_A", "SUM3_RIGHT_A", "SUM3Z_LEFT_A", "SUM3Z_RIGHT_A")]
TU_FIXTURES += [graphic_representation(load_graph("THETA.graph")),
                cographic_representation(load_graph("THETA.graph"))]


def _random_sign_matrices(rng, count):
    """count {0, +-1} matrices up to 6 x 8: half with a random density,
    half a large signed submatrix of a TU fixture or of its transpose, one
    entry changed in every other one."""
    out = []
    for t in range(count):
        if t % 2 == 0:
            m, n, p = rng.randint(1, 6), rng.randint(1, 8), rng.random()
            out.append([[rng.choice((-1, 1)) if rng.random() < p else 0
                         for _ in range(n)] for _ in range(m)])
            continue
        a = rng.choice(TU_FIXTURES)
        a = a.transpose() if rng.random() < 0.5 else a
        m, n = min(6, a.rows), min(8, a.cols)
        rows = rng.sample(range(a.rows), rng.randint(max(1, m - 1), m))
        cols = rng.sample(range(a.cols), rng.randint(max(1, n - 2), n))
        sub = [[rng.choice((-1, 1)) * a.data[i][j] for j in cols] for i in rows]
        if t % 4 == 1:
            i, j = rng.randrange(len(rows)), rng.randrange(len(cols))
            sub[i][j] = rng.choice([x for x in (-1, 0, 1) if x != sub[i][j]])
        out.append(sub)
    return [IntMatrix(rows) for rows in out]


def test_tu_matches_the_brute_force_test():
    """The shared-minor walk agrees with one determinant per submatrix on
    2,400 seeded {0, +-1} matrices up to 6 x 8, on every fixture system, on
    each fixture with one entry negated, and on both transposes."""
    cases = _random_sign_matrices(random.Random(18), 2400) + TU_FIXTURES
    for a in TU_FIXTURES:
        for i, j in ((0, 0), (a.rows - 1, a.cols // 2), (a.rows // 2, a.cols - 1)):
            rows = [list(row) for row in a.data]
            rows[i][j] = -rows[i][j] or 1
            cases.append(IntMatrix(rows))
    verdicts = []
    for a in cases:
        want = _brute_force_tu(a)
        assert is_totally_unimodular(a) == want, a
        assert is_totally_unimodular(a.transpose()) == want, a
        verdicts.append(want)
    assert all(is_totally_unimodular(a) for a in TU_FIXTURES)
    assert 400 < sum(verdicts) < len(verdicts) - 400


def test_tu_test_computes_no_determinant(monkeypatch):
    """The A10 test reads every minor off the minors one row smaller, with
    no Bareiss determinant."""
    calls = []
    bareiss = exact._bareiss_int_det

    def counted(rows):
        calls.append(rows)
        return bareiss(rows)

    monkeypatch.setattr(exact, "_bareiss_int_det", counted)
    assert is_totally_unimodular(load_int_matrix("A10.txt"))
    assert calls == []
    assert not is_totally_unimodular(IntMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    assert calls == []


def test_tu_invariance_under_signed_permutation():
    rng = random.Random(2)
    a = load_int_matrix("AK4.txt")
    for _ in range(10):
        rows = list(range(a.rows))
        cols = list(range(a.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        signs_r = [rng.choice((-1, 1)) for _ in rows]
        signs_c = [rng.choice((-1, 1)) for _ in cols]
        b = IntMatrix(
            [
                [signs_r[i] * signs_c[j] * a.data[rows[i]][cols[j]]
                 for j in range(a.cols)]
                for i in range(a.rows)
            ]
        )
        assert is_totally_unimodular(b)


def test_unimodular_witness_for_tu_input():
    h = is_unimodular(AK3)
    assert h is not None
    assert is_totally_unimodular(h.mul(AK3))


def test_unimodular_obstruction():
    # HNF pivot 2 cannot be fixed by any integral row transform
    assert is_unimodular(IntMatrix([[2, 0], [0, 1]])) is None
    assert is_unimodular(IntMatrix([[2], [4]])) is None


def test_unimodular_scrambled_instance():
    h0 = IntMatrix([[2, 1], [1, 1]])  # det 1
    assert abs(determinant(h0.to_rational())) == 1
    scrambled = h0.mul(AK3)
    assert not is_totally_unimodular(scrambled)
    w = is_unimodular(scrambled)
    assert w is not None
    assert is_totally_unimodular(w.mul(scrambled))


def test_unimodular_rank_deficient():
    a = IntMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])  # rank 2
    w = is_unimodular(a)
    assert w is not None
    assert is_totally_unimodular(w.mul(a))
    assert is_unimodular(IntMatrix([[0, 0], [0, 0]])) is not None


def _reference_is_unimodular(a):
    """is_unimodular as it was before one basis decided: scan the r x r
    column submatrices of the nonzero HNF rows in lexicographic order for a
    unit determinant.  Returns (witness or None, whether one was found)."""
    g = a.rows
    if is_totally_unimodular(a):
        return IntMatrix.identity(g), True
    r = rank(a)
    h_mat, u = hermite_normal_form(a)
    top = [h_mat.data[i] for i in range(r)]
    basis_cols = next((cols for cols in combinations(range(a.cols), r)
                       if int_determinant([[row[j] for j in cols] for row in top]) in (-1, 1)),
                      None)
    if basis_cols is None:
        return None, False
    b_inv = invert(IntMatrix([[row[j] for j in basis_cols] for row in top]))
    reduced = b_inv.mul(IntMatrix(top).to_rational())
    if not reduced.is_integral() or not is_totally_unimodular(reduced.to_integer()):
        return None, True
    w = [[int(x) for x in row] + [0] * (g - r) for row in b_inv.data]
    w += [[int(i == j) for j in range(g)] for i in range(r, g)]
    return IntMatrix(w).mul(u), True


def _random_unimodular(rng, g):
    """A product of 2g elementary row additions (coefficient +-1, +-2) and
    negations."""
    rows = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(2 * g):
        i = rng.randrange(g)
        if g > 1:
            j = (i + rng.randrange(1, g)) % g
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(rows)


def test_one_basis_decides_unimodularity():
    """The greedy column basis gives the verdict and witness of the
    lexicographic scan over every maximal column submatrix: on h A for the
    TU fixtures and random h in GL_g(Z) (unimodular, mostly not TU), and
    on seeded integer matrices, among them non-unimodular ones with and
    without a unit basis.  [[1, 1, 1], [0, 1, 2]] has a unit basis B with
    B^-1 T not TU."""
    rng = random.Random(19)
    cases = [IntMatrix([[1, 1, 1], [0, 1, 2]])]
    cases += [_random_unimodular(rng, a.rows).mul(a) for a in TU_FIXTURES for _ in range(6)]
    for t in range(600):
        g, n, top = rng.randint(1, 4), rng.randint(1, 7), 1 + (t % 3 == 0)
        cases.append(IntMatrix([[rng.randint(-top, top) for _ in range(n)] for _ in range(g)]))
    kinds = {"unimodular, not TU": 0, "unit basis, not unimodular": 0,
             "no unit basis": 0}
    for a in cases:
        want, unit_basis = _reference_is_unimodular(a)
        got = is_unimodular(a)
        assert got == want, a
        if got is not None:
            assert abs(determinant(got.to_rational())) == 1
            assert is_totally_unimodular(got.mul(a))
            kinds["unimodular, not TU"] += not is_totally_unimodular(a)
        else:
            kinds["unit basis, not unimodular" if unit_basis else "no unit basis"] += 1
    assert is_unimodular(cases[0]) is None and _reference_is_unimodular(cases[0])[1]
    assert all(count > 50 for count in kinds.values()), kinds


def test_equivalence_examples():
    h = IntMatrix([[1, 1], [0, 1]])
    assert equivalent_unimodular(AK3, h.mul(AK3))
    assert equivalent_unimodular(
        IntMatrix([[1, 0, 1], [0, 1, 1]]), IntMatrix([[1, 0, 1], [0, 1, -1]])
    )
    parallel = IntMatrix([[1, 0, 1], [0, 1, 0]])
    assert not equivalent_unimodular(AK3, parallel)


def test_equivalence_is_equivalence_relation():
    mats = [
        AK3,
        IntMatrix([[1, 1], [0, 1]]).mul(AK3),
        IntMatrix([[1, 0, 1], [0, 1, 0]]),
        IntMatrix([[1, 0, -1], [0, 1, 0]]),
        IntMatrix.identity(2).mul(IntMatrix([[1, 0, 1], [0, 1, 1]])),
    ]
    n = len(mats)
    rel = [[equivalent_unimodular(mats[i], mats[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_equivalence_requires_unimodular():
    with pytest.raises(ValueError):
        equivalent_unimodular(IntMatrix([[2, 0], [0, 1]]), IntMatrix([[1, 0], [0, 1]]))


def test_sum1_examples():
    one = TUMatrix.check(IntMatrix([[1]]))
    assert seymour_sum1(one, one).inner == IntMatrix.identity(2)

    k3 = TUMatrix.check(AK3)
    out = seymour_sum1(k3, k3)
    assert out.inner.shape == (4, 6)
    assert is_totally_unimodular(out.inner) and is_simple_matrix(out.inner)

    out = seymour_sum1(TUMatrix.check(load_int_matrix("A10.txt")), one)
    assert out.inner.shape == (6, 11)
    assert is_totally_unimodular(out.inner) and is_simple_matrix(out.inner)


def test_sum2_block_example():
    left = TUMatrix.check(load_int_matrix("SUM2_LEFT_A.txt"))
    right = TUMatrix.check(load_int_matrix("SUM2_RIGHT_A.txt"))
    out = seymour_sum2(SumShape2(left, right))
    assert out.inner == IntMatrix(
        [[1, 1, 0, 0, 0], [0, -1, 0, -1, 1], [0, 0, 1, 1, 0]]
    )
    assert is_totally_unimodular(out.inner)


# per shape: the valid right block, a left block with a zero or repeated
# column, and a simple TU left block whose tail columns are wrong
REJECTIONS = {
    SumShape2: (
        "SUM2_RIGHT_A.txt",
        [[0, 1, 0], [1, -1, 1]],
        [[1, 0, 1], [0, 1, 1]],
    ),
    SumShape3: (
        "SUM3_RIGHT_A.txt",
        [[0, 1, 1, 0, 0, 0], [0, -1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]],
        [[1, 1, 1, 0, 0, 0], [0, -1, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1]],
    ),
}


@pytest.mark.parametrize("shape", list(REJECTIONS), ids=lambda s: s.__name__)
def test_sum_rejects_zero_column_in_block(shape):
    right_name, zero_col, _ = REJECTIONS[shape]
    right = TUMatrix.check(load_int_matrix(right_name))
    bad_left = TUMatrix(IntMatrix(zero_col))
    with pytest.raises((ValueError, BlockShapeError)):
        shape(bad_left, right)


@pytest.mark.parametrize("shape", list(REJECTIONS), ids=lambda s: s.__name__)
def test_sum_rejects_wrong_tail_column(shape):
    right_name, _, wrong_tail = REJECTIONS[shape]
    right = TUMatrix.check(load_int_matrix(right_name))
    bad_left = TUMatrix.check(IntMatrix(wrong_tail))
    with pytest.raises(BlockShapeError):
        shape(bad_left, right)


def test_sum3_fixture():
    left = TUMatrix.check(load_int_matrix("SUM3_LEFT_A.txt"))
    right = TUMatrix.check(load_int_matrix("SUM3_RIGHT_A.txt"))
    out = seymour_sum3(SumShape3(left, right))
    assert out.inner.shape == (4, 9)
    assert is_totally_unimodular(out.inner)
    assert is_simple_matrix(out.inner)


def test_sum3_zero_coupling_fixture():
    left = TUMatrix.check(load_int_matrix("SUM3Z_LEFT_A.txt"))
    right = TUMatrix.check(load_int_matrix("SUM3Z_RIGHT_A.txt"))
    out = seymour_sum3(SumShape3(left, right))
    assert is_totally_unimodular(out.inner) and is_simple_matrix(out.inner)


def test_sum_tu_iff_blocks_tu():
    # if direction: valid fixtures produce TU output (covered above); only
    # if: breaking one entry of a block must surface as a non-TU assembly
    l1 = load_int_matrix("SUM2_LEFT_A.txt")
    r1 = load_int_matrix("SUM2_RIGHT_A.txt")
    bad = [list(row) for row in l1.data]
    bad[0][0] = 2
    assembled = _assemble(IntMatrix(bad), r1, 1)
    assert not is_totally_unimodular(assembled)

    a10 = load_int_matrix("A10.txt")
    bad10 = [list(row) for row in a10.data]
    bad10[0][5] = 1  # sign flip creates a submatrix with |det| = 2
    assert not is_totally_unimodular(IntMatrix(bad10))
    assembled = _assemble(IntMatrix(bad10), IntMatrix([[1]]), 0)
    assert not is_totally_unimodular(assembled)

    l3 = load_int_matrix("SUM3_LEFT_A.txt")
    r3 = load_int_matrix("SUM3_RIGHT_A.txt")
    bad3 = [list(row) for row in l3.data]
    bad3[0][1] = -bad3[0][1]  # this sign flip creates a |det| = 2 submatrix
    assert not is_totally_unimodular(IntMatrix(bad3))
    assembled = _assemble(IntMatrix(bad3), r3, 2)
    assert not is_totally_unimodular(assembled)


def test_sum_constructors_reject_non_tu():
    one = TUMatrix.check(IntMatrix([[1]]))
    with pytest.raises(ValueError):
        seymour_sum1(TUMatrix(IntMatrix([[2]])), one)
