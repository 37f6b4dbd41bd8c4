"""The benchmark's three workloads: seeded items, the calls they time, their checks.

An item is a seeded input plus `run(ctx)`, which calls conelab's library
and returns its outputs, and `check(out)`, which compares those outputs
with an independent check and returns an error message or None.  Only
`run` is timed (and traced); checks run after the pass.  `ctx` is a dict
that lives for one pass, so a pass recomputes everything the previous one
did and nothing carries over between passes.

A run's items are fixed by the seed: `pool(name, fx, seed)` joins item
sets 0..SETS[name]-1, and every pass of the run goes over that pool, so
passes do the same work and their times differ only by the machine.

Every library call goes through a module attribute (`dl.delone_subdivision`,
not a name imported into this file), so the spans that `tracer.Tracer`
installs in conelab's namespaces see it.

Workload costs below were measured on a 2-CPU Intel Xeon (model name
"Intel(R) Xeon(R) Processor"), Python 3.11.7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from conelab import cones, delone as dl, exact, fixtures, matroids, quadforms, tumatrix, verify

# Why each workload is in the benchmark (also printed with every result).
WHY = {
    "interior-dicing": (
        "conelab verify dicings: Delone of interior forms of sigma(A) = dicing "
        "of A; definite hull walk and wide LPs, where the profile puts the time"
    ),
    "perfect-voronoi": (
        "certificate side: R10, perfect-cone face certificates, membership, block "
        "sums, Voronoi cells as zonotopes; tall LPs, enumeration, TU test, no hull walk"
    ),
    "boundary-dicing": (
        "semidefinite branch on rank-deficient supports; shows the unreduced "
        "rank-normal-form defect (baseline fail_ratio 0.17, median of seeds 101-110)"
    ),
}

# Left out on purpose and reported as unmeasured, not dropped: the K5
# (g = 4, 10 columns) dicing costs about 54 s per call, more than one run
# may take.  g = 4 dicing is therefore not measured by this benchmark.
UNMEASURED = [
    "dicing of K5 (g = 4, 10 columns): about 54 s per call, over the per-run "
    "time limit; g = 4 dicing is unmeasured",
]

DICING_SYSTEMS = ("AK3", "AK4", "I2", "I3", "THETA")


@dataclass
class Item:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# fixtures


def load_fixtures() -> dict:
    """Parse every fixture the workloads use and certify the column systems.

    This is the set-up a fresh interpreter pays before its first item, so
    it is what `setup_s` times together with `import conelab.cli`.
    """
    fx = {"systems": {}}
    for name in ("AK3", "AK4", "I2", "I3"):
        fx["systems"][name] = tumatrix.TUMatrix.check(fixtures.load_int_matrix(f"{name}.txt"))
    theta = matroids.cographic_representation(fixtures.load_graph("THETA.graph"))
    fx["systems"]["THETA"] = tumatrix.TUMatrix.check(theta)
    for stem in ("Q0_2", "SUM2_LEFT_Q", "SUM2_RIGHT_Q", "SUM3_LEFT_Q", "SUM3_RIGHT_Q"):
        fx[stem] = fixtures.load_matrix(f"{stem}.txt")
    for stem in ("AK3", "SUM2_LEFT_A", "SUM2_RIGHT_A", "SUM3_LEFT_A", "SUM3_RIGHT_A"):
        fx[stem + "_int"] = fixtures.load_int_matrix(f"{stem}.txt")
    return fx


# ---------------------------------------------------------------------------
# helpers shared by the checks (plain integer/Fraction code, no conelab)


def _weights(rng, n: int) -> list:
    return [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]


def _balanced_weights(rng, n: int) -> list:
    """Weights in [1, 3] with denominators 1, 2 or 4.

    The spread of the weights sets how far an interior form's window must
    grow: I3 forms with a weight ratio of 10 or more need radius 4 to 6 and
    cost two to four times a form certified at the default radius.  Keeping
    the ratio at most 3 keeps item costs comparable between seeds.
    """
    return [Fraction(rng.randint(4, 12), 4) for _ in range(n)]


def _weighted_sum(cols, lam, g: int):
    """Rows of sum_i lam_i v_i v_i^t."""
    return [[sum(l * v[i] * v[j] for l, v in zip(lam, cols)) for j in range(g)]
            for i in range(g)]


def _canon(v) -> tuple:
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def _form_value(h_rows, v) -> Fraction:
    return sum(h_rows[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))


def _complete_graph_vectors(g: int) -> set:
    """e_i and e_i - e_j: the columns of K_{g+1} with one vertex row deleted."""
    unit = [tuple(int(i == k) for k in range(g)) for i in range(g)]
    out = {_canon(u) for u in unit}
    for i, j in combinations(range(g), 2):
        out.add(_canon(tuple(a - b for a, b in zip(unit[i], unit[j]))))
    return out


def _columns(m) -> list:
    return [tuple(c) for c in m.columns()]


def _submatrix(m, support) -> exact.IntMatrix:
    return exact.IntMatrix([[row[i] for i in support] for row in m.data])


def _column_rank(cols, g: int) -> int:
    """Rank over Q by Gaussian elimination (independent of conelab.exact)."""
    rows = [list(map(Fraction, c)) for c in cols]
    r = 0
    for c in range(g):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _same_cells(out) -> Optional[str]:
    sub, dic = out
    if sub.window_radius != dic.window_radius:
        return f"radius {sub.window_radius} != dicing radius {dic.window_radius}"
    if not sub.cells:
        return "empty Delone subdivision"
    if sub.cells != dic.cells:
        return (f"Delone has {len(sub.cells)} classes, dicing {len(dic.cells)}; "
                f"{len(sub.cells ^ dic.cells)} differ")
    return None


# ---------------------------------------------------------------------------
# interior-dicing: `conelab verify dicings`, one seeded form per item

INTERIOR_FORMS = {"AK3": 2, "AK4": 1, "I2": 2, "I3": 1, "THETA": 2}


def _dicing(ctx, key, a, r):
    """Dicing of `a` at radius r, computed once per pass (as secondary_cone_check does)."""
    cache = ctx.setdefault("dicings", {})
    if (key, r) not in cache:
        cache[(key, r)] = dl.dicing_subdivision(a, r)
    return cache[(key, r)]


def interior_items(fx: dict, seed: int, k: int) -> list:
    rng = random.Random(f"interior-dicing:{seed}:{k}")
    items = []
    for name in DICING_SYSTEMS:
        a = fx["systems"][name]
        cols = _columns(a.inner)
        g = a.inner.rows
        for _ in range(INTERIOR_FORMS[name]):
            lam = _balanced_weights(rng, len(cols))
            q = quadforms.QuadForm(exact.RatMatrix(_weighted_sum(cols, lam, g)))

            def run(ctx, q=q, a=a, name=name):
                sub, r = dl.delone_with_window_growth(q)
                return sub, _dicing(ctx, name, a, r)

            items.append(Item(f"{name} lambda=({','.join(map(str, lam))})",
                              run, _same_cells))
    return items


# ---------------------------------------------------------------------------
# perfect-voronoi: the certificate side


def _r10_item() -> Item:
    def run(ctx):
        return verify.verify_r10()

    def check(rep):
        bad = [row.claim for row in rep.evidence if row.computed != row.expected]
        if len(rep.evidence) != 5:
            return f"{len(rep.evidence)} evidence rows, expected 5"
        return f"failed claims: {bad}" if bad else None

    return Item("verify_r10", run, check)


def _perfect_cone_item(g: int) -> Item:
    def run(ctx):
        cone = quadforms.perfect_cone_of(quadforms.q0_principal(g))
        ctx[("cone", g)] = cone
        return cone

    def check(cone):
        gens = {_canon(v) for v in cone.generators}
        if gens != _complete_graph_vectors(g) or len(cone.generators) != g * (g + 1) // 2:
            return "perfect cone generators differ from the complete-graph columns"
        return None

    return Item(f"perfect cone of q0({g})", run, check)


def _face_item(g: int, drop: list) -> Item:
    n = g * (g + 1) // 2
    sub = [i for i in range(n) if i not in set(drop)]

    def run(ctx):
        cone = ctx[("cone", g)]
        return cone, cones.find_supporting_functional(sub, cone)

    def check(out):
        cone, cert = out
        if cert is None:
            return "no supporting functional for a face of a simplicial cone"
        if not cones.validate_face_certificate(cert, cone, sub):
            return "validate_face_certificate rejected the certificate"
        h = [list(r) for r in cert.functional.data]
        if any(h[i][j] != h[j][i] for i in range(g) for j in range(g)):
            return "functional is not symmetric"
        for i, v in enumerate(cone.generators):
            val = _form_value(h, v)
            if (i in sub and val != 0) or (i not in sub and val >= 0):
                return f"functional value {val} on generator {i} breaks the face"
        return None

    return Item(f"face of perfect cone g={g} deleting {sorted(drop)}", run, check)


def _membership_item(g: int, rows) -> Item:
    q = quadforms.QuadForm(exact.RatMatrix(rows))

    def run(ctx):
        cone = ctx[("cone", g)]
        return cone, cones.membership(q, cone)

    def check(out):
        cone, lam = out
        if lam is None:
            return "principal-inequality form reported outside the cone"
        if any(x < 0 for x in lam):
            return "negative coefficient"
        rebuilt = _weighted_sum(cone.generators, lam, g)
        if rebuilt != [[Fraction(x) for x in r] for r in rows]:
            return "sum of lambda v v^t does not rebuild the form"
        return None

    return Item(f"membership g={g} form={[[str(x) for x in r] for r in rows]}",
                run, check)


def _principal_inequality_form(rng, g: int) -> list:
    """Nonpositive off-diagonal entries and nonnegative row sums."""
    rows = [[Fraction(0)] * g for _ in range(g)]
    for i, j in combinations(range(g), 2):
        rows[i][j] = rows[j][i] = -Fraction(rng.randint(0, 8), rng.randint(1, 3))
    for i in range(g):
        rows[i][i] = -sum(rows[i]) + Fraction(rng.randint(0, 8), rng.randint(1, 3))
    return rows


def _sum_item(kind: str, fx: dict) -> Item:
    def pair(q, a):
        return quadforms.WellSuitedPair.check(
            quadforms.QuadForm(q), tumatrix.TUMatrix.check(a))

    def run(ctx):
        if kind == "1":
            k3 = pair(fx["Q0_2"], fx["AK3_int"])
            return quadforms.well_suited_sum1(k3, k3)
        if kind == "2":
            return quadforms.well_suited_sum2(
                pair(fx["SUM2_LEFT_Q"], fx["SUM2_LEFT_A_int"]),
                pair(fx["SUM2_RIGHT_Q"], fx["SUM2_RIGHT_A_int"]))
        return quadforms.well_suited_sum3(
            pair(fx["SUM3_LEFT_Q"], fx["SUM3_LEFT_A_int"]),
            pair(fx["SUM3_RIGHT_Q"], fx["SUM3_RIGHT_A_int"]))

    left = {"1": "Q0_2", "2": "SUM2_LEFT_Q", "3": "SUM3_LEFT_Q"}[kind]
    right = {"1": "Q0_2", "2": "SUM2_RIGHT_Q", "3": "SUM3_RIGHT_Q"}[kind]
    glue = {"1": 0, "2": 1, "3": 2}[kind]
    g_expected = fx[left].rows + fx[right].rows - glue
    half = Fraction(1, 2)
    pinned2 = [[1, half, half / 2], [half, 1, half], [half / 2, half, 1]]

    def check(p):
        m = [list(r) for r in p.form.matrix.data]
        if len(m) != g_expected or p.matrix.inner.rows != g_expected:
            return f"sum has dimension {len(m)}, expected {g_expected}"
        if kind == "2" and m != pinned2:
            return "2-sum form differs from the pinned glued form"
        if not quadforms.is_well_suited(p.form, p.matrix):
            return "sum is not well-suited on re-verification"
        return None

    return Item(f"{kind}-sum", run, check)


def _voronoi_item(name: str, a, lam) -> Item:
    cols = _columns(a.inner)
    g = a.inner.rows
    q = quadforms.QuadForm(exact.RatMatrix(_weighted_sum(cols, lam, g)))

    def run(ctx):
        vor = dl.voronoi_polytope(q)
        qinv = exact.invert(q.matrix)
        segs = [[l * x for x in qinv.mul_vector([Fraction(c) for c in v])]
                for l, v in zip(lam, cols)]
        return vor, dl.minkowski_sum_vertices(segs, g)

    def check(out):
        vor, zono = out
        if not vor.vertices:
            return "empty Voronoi cell"
        if sorted(vor.vertices) != sorted(zono):
            return (f"Voronoi cell has {len(vor.vertices)} vertices, "
                    f"the zonotope {len(zono)}")
        return None

    return Item(f"voronoi {name} lambda=({','.join(map(str, lam))})", run, check)


def perfect_voronoi_items(fx: dict, seed: int, k: int) -> list:
    rng = random.Random(f"perfect-voronoi:{seed}:{k}")
    items = [_r10_item()]
    for g in range(2, 6):
        n = g * (g + 1) // 2
        items.append(_perfect_cone_item(g))
        for _ in range(2):
            items.append(_face_item(g, rng.sample(range(n), rng.randint(1, n - 1))))
        for _ in range(2):
            items.append(_membership_item(g, _principal_inequality_form(rng, g)))
    items += [_sum_item(k, fx) for k in "123"]
    for name in ("AK3", "I3", "AK4"):
        a = fx["systems"][name]
        items.append(_voronoi_item(name, a, _weights(rng, a.inner.cols)))
    return items


# ---------------------------------------------------------------------------
# boundary-dicing: weighted forms on rank-deficient column supports
#
# Items are drawn per stratum (system, rank of the support) from a seeded
# stream until BOUNDARY_QUOTA of them have produced an output; every draw
# is an item and a WindowError counts as a failure.  Fixing the number of produced
# outputs keeps a pool's work the same whatever share of draws fails: a
# failing draw takes about 0.02 s and a produced g = 3, rank-2 output 2-3 s,
# so a pool of fixed draws would read faster the more items fail, and a fix
# of the known defect would read as a slowdown.  MAX_DRAWS bounds a stratum
# in which every draw fails.
#
# Items use the default window, as `conelab delone` does.  Growing the
# window is left out because the semidefinite branch scans (2r+2)^g points
# for each of (2r+3)^g' shifts: one rank-2 g = 3 item takes about 7 s at
# r = 4 and over a minute at r = 7, which a run cannot afford.

BOUNDARY_QUOTA = {("AK3", 1): 2, ("I2", 1): 2, ("THETA", 1): 2,
                  ("AK4", 1): 1, ("AK4", 2): 2, ("I3", 1): 1, ("I3", 2): 2}
MAX_DRAWS = 12

# Drawn first in its stratum in every seed, so the known defect shows in
# every run: rational_rank_normal_form returns the unreduced inner form
# [[391/4, 231/2], [231/2, 273/2]], whose window certificate fails at every
# radius from 3 through 8.  Once it is fixed this item counts towards the
# stratum's quota like any other output and the pool does the same work.
KNOWN_DEFECT = (("AK4", 2), (0, 4), [Fraction(3, 2), Fraction(7, 4)])


def _rank_deficient_supports(a) -> dict:
    m = a.inner
    g = m.rows
    cols = _columns(m)
    out = {}
    for k in range(1, len(cols) + 1):
        for s in combinations(range(len(cols)), k):
            r = _column_rank([cols[i] for i in s], g)
            if r < g:
                out.setdefault(r, []).append(s)
    return out


def _boundary_item(name: str, a, support, lam) -> Item:
    m = a.inner
    g = m.rows
    cols = _columns(m)
    q = quadforms.QuadForm(exact.RatMatrix(
        _weighted_sum([cols[i] for i in support], lam, g)))
    a_s = _submatrix(m, support)

    def run(ctx):
        sub = dl.delone_subdivision(q)
        dic = dl.dicing_subdivision(tumatrix.TUMatrix.check(a_s), sub.window_radius)
        return sub, dic

    return Item(f"{name} support={list(support)} lambda=({','.join(map(str, lam))})",
                run, _same_cells)


def boundary_groups(fx: dict, seed: int, k: int) -> list:
    """One group per stratum, each drawn from its own seeded stream."""
    groups = []
    for name in DICING_SYSTEMS:
        a = fx["systems"][name]
        by_rank = _rank_deficient_supports(a)
        for rk in sorted(by_rank):
            quota = BOUNDARY_QUOTA[(name, rk)]
            rng = random.Random(f"boundary-dicing:{seed}:{k}:{name}:{rk}")
            draws = []
            if (name, rk) == KNOWN_DEFECT[0]:
                draws.append(_boundary_item(name, a, *KNOWN_DEFECT[1:]))
            for _ in range(quota * MAX_DRAWS):
                s = rng.choice(by_rank[rk])
                draws.append(_boundary_item(name, a, s, _weights(rng, len(s))))
            groups.append((f"{name} rank {rk}", quota, draws))
    return groups


def _one_per_group(make):
    def groups(fx, seed, k):
        return [(item.label, 1, [item]) for item in make(fx, seed, k)]

    return groups


# name -> groups(fixtures, seed, k): item set k of the seed, as
# [(stratum, quota, candidate items)].  The first pass of a run draws each
# group's candidates in order until `quota` of them have produced an
# output; later passes replay the items it drew.
WORKLOADS = {
    "interior-dicing": _one_per_group(interior_items),
    "perfect-voronoi": _one_per_group(perfect_voronoi_items),
    "boundary-dicing": boundary_groups,
}

# Item sets per run, chosen so that one pass over the pool takes about
# 7-11 s on the machine named at the top (three passes fit in one run).
SETS = {"interior-dicing": 2, "perfect-voronoi": 3, "boundary-dicing": 1}


def pool(name: str, fx: dict, seed: int) -> list:
    """The groups of a run with this seed: item sets 0..SETS[name]-1."""
    return [grp for k in range(SETS[name]) for grp in WORKLOADS[name](fx, seed, k)]
