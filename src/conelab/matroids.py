"""Matroids from matrices and graphs, plus desk-scale isomorphism testing.

Bases are stored as bitmasks over the column indices, which keeps basis
lookups and the exchange-axiom check cheap for the ground sizes handled
here (n <= 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Tuple

from .exact import IntMatrix, int_determinant, rank

_EXCHANGE_CHECK_LIMIT = 12


@dataclass(frozen=True)
class Matroid:
    ground_size: int
    labels: Tuple[str, ...]
    bases: frozenset  # of int bitmasks
    rank: int

    def __post_init__(self):
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        sizes = {bin(b).count("1") for b in self.bases}
        if sizes != {self.rank}:
            raise ValueError("all bases must have the same cardinality")
        if self.ground_size <= _EXCHANGE_CHECK_LIMIT:
            self._check_exchange()

    def _check_exchange(self):
        bases = list(self.bases)
        bset = self.bases
        for b1 in bases:
            for b2 in bases:
                diff = b1 & ~b2
                x = diff
                while x:
                    bit = x & -x
                    x ^= bit
                    cand = b2 & ~b1
                    ok = False
                    y = cand
                    while y:
                        bit2 = y & -y
                        y ^= bit2
                        if (b1 ^ bit) | bit2 in bset:
                            ok = True
                            break
                    if not ok:
                        raise ValueError("basis exchange axiom fails")

    def is_independent(self, subset: int) -> bool:
        return any(subset & ~b == 0 for b in self.bases)

    def element_degree(self, e: int) -> int:
        bit = 1 << e
        return sum(1 for b in self.bases if b & bit)


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def vector_matroid(a: IntMatrix) -> Matroid:
    """Matroid of the columns of A over the rationals."""
    r = rank(a)
    n = a.cols
    labels = tuple(str(j) for j in range(n))
    if r == 0:
        return Matroid(n, labels, frozenset({0}), 0)
    # pick a row basis once; column independence then reduces to a square det
    row_basis = _row_basis(a, r)
    bases = set()
    for cols_idx in combinations(range(n), r):
        sub = [tuple(a.data[i][j] for j in cols_idx) for i in row_basis]
        if int_determinant(sub) != 0:
            bases.add(_mask(cols_idx))
    return Matroid(n, labels, frozenset(bases), r)


def _row_basis(a: IntMatrix, r: int):
    chosen = []
    for i in range(a.rows):
        trial = chosen + [i]
        if rank(IntMatrix([a.data[k] for k in trial])) == len(trial):
            chosen = trial
            if len(chosen) == r:
                break
    return chosen


def circuits(m: Matroid) -> frozenset:
    """All minimal dependent sets, as frozensets of element indices."""
    if m.ground_size > 14:
        raise ValueError("circuit enumeration is capped at 14 elements")
    out = []
    for size in range(1, m.ground_size + 1):
        for subset in combinations(range(m.ground_size), size):
            mask = _mask(subset)
            if m.is_independent(mask):
                continue
            if all(m.is_independent(mask & ~(1 << e)) for e in subset):
                out.append(frozenset(subset))
    return frozenset(out)


def is_simple(m: Matroid) -> bool:
    """No loops (1-circuits) and no parallel pairs (2-circuits)."""
    for e in range(m.ground_size):
        if not m.is_independent(1 << e):
            return False
    for e, f in combinations(range(m.ground_size), 2):
        if not m.is_independent((1 << e) | (1 << f)):
            return False
    return True


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Graph:
    """Connected multigraph; loops and parallel edges allowed."""

    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    edge_labels: Tuple[str, ...] = field(default=())

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError("edge endpoint out of range")
        if not self.edge_labels:
            object.__setattr__(
                self, "edge_labels", tuple(f"e{i}" for i in range(len(self.edges)))
            )
        if not self.is_connected():
            raise ValueError("graph must be connected")

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return False
        seen = {0}
        stack = [0]
        adj = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices

    @property
    def genus(self) -> int:
        return len(self.edges) - self.num_vertices + 1

    @property
    def cogenus(self) -> int:
        return self.num_vertices - 1


def parse_graph(text: str) -> Graph:
    """Graph text format: header "V E", then E lines "u v" (0-indexed)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    v, e = (int(x) for x in lines[0].split())
    edges = []
    for ln in lines[1 : e + 1]:
        a, b = (int(x) for x in ln.split())
        edges.append((a, b))
    if len(edges) != e:
        raise ValueError("edge count mismatch")
    return Graph(v, tuple(edges))


def complete_graph(n: int) -> Graph:
    """K_n with edges to the last vertex first, then the remaining pairs.

    This edge order makes the signed incidence representation come out as
    the block [unit vectors | differences of unit vectors].
    """
    edges = [(i, n - 1) for i in range(n - 1)]
    edges += [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)]
    return Graph(n, tuple(edges))


def graphic_representation(g: Graph) -> IntMatrix:
    """Signed vertex-edge incidence matrix with the last vertex row deleted.

    Loops become zero columns.  The vector matroid of the result is the
    cycle matroid of the graph.
    """
    rows = g.num_vertices - 1
    if rows == 0:
        return IntMatrix([], cols=len(g.edges))  # bouquet of loops, rank 0
    cols = []
    for u, v in g.edges:
        col = [0] * g.num_vertices
        if u != v:
            col[u] += 1
            col[v] -= 1
        cols.append(col[:rows])
    return IntMatrix(list(zip(*cols)))


def cographic_representation(g: Graph) -> IntMatrix:
    """Fundamental-cycle basis of the cycle space, one row per non-tree edge.

    Edges are oriented as given; a depth-first spanning tree supplies the
    fundamental cycles, so the output rows are a basis of the cycle space
    and the matrix is totally unimodular by construction.  The vector
    matroid of the result is the bond matroid of the graph.
    """
    n_edges = len(g.edges)
    adj = [[] for _ in range(g.num_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        if u != v:
            adj[u].append((v, idx))
            adj[v].append((u, idx))
    parent_edge = {0: None}
    order = [0]
    stack = [0]
    tree = set()
    while stack:
        u = stack.pop()
        for w, idx in adj[u]:
            if w not in parent_edge:
                parent_edge[w] = idx
                tree.add(idx)
                order.append(w)
                stack.append(w)
    if len(parent_edge) != g.num_vertices:
        raise ValueError("graph must be connected")

    def path_to_root(v):
        # signed traversal v -> root: +1 when a tree edge is crossed tail
        # to head, -1 against its orientation
        out = []
        while parent_edge[v] is not None:
            idx = parent_edge[v]
            eu, ev = g.edges[idx]
            other = ev if eu == v else eu
            out.append((idx, 1 if eu == v else -1))
            v = other
        return out

    rows = []
    for idx, (u, v) in enumerate(g.edges):
        if idx in tree:
            continue
        row = [0] * n_edges
        row[idx] = 1
        if u == v:
            rows.append(row)  # a loop is a one-edge cycle of its own
            continue
        # close the cycle: walk v -> root -> u through the tree
        for e_idx, sgn in path_to_root(v):
            row[e_idx] += sgn
        for e_idx, sgn in path_to_root(u):
            row[e_idx] -= sgn
        rows.append(row)
    # a spanning tree has genus 0: the representation is the 0 x E matrix
    return IntMatrix(rows, cols=n_edges)


def bonds(g: Graph) -> frozenset:
    """Minimal edge cuts, by exhaustion over vertex bipartitions."""
    n = g.num_vertices
    out = set()
    for bits in range(1, 2 ** (n - 1)):
        side = {v for v in range(n) if bits & (1 << v)}
        cut = frozenset(
            i for i, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
        )
        if not cut:
            continue
        if _induced_connected(g, side) and _induced_connected(
            g, set(range(n)) - side
        ):
            out.add(cut)
    return frozenset(out)


def _induced_connected(g: Graph, verts: set) -> bool:
    if not verts:
        return False
    adj = {v: [] for v in verts}
    for u, v in g.edges:
        if u in verts and v in verts and u != v:
            adj[u].append(v)
            adj[v].append(u)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


# ---------------------------------------------------------------------------
# the rank-5 ten-element fixture


def r10_matrix() -> IntMatrix:
    """The standard 5x10 simple TU representation of the R10 matroid."""
    return IntMatrix(
        [
            [1, 0, 0, 0, 0, -1, 1, 0, 0, 1],
            [0, 1, 0, 0, 0, 1, -1, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 1, -1, 1, 0],
            [0, 0, 0, 1, 0, 0, 0, 1, -1, 1],
            [0, 0, 0, 0, 1, 1, 0, 0, 1, -1],
        ]
    )


# ---------------------------------------------------------------------------
# isomorphism


def matroid_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    """Ground-set bijection carrying bases onto bases, by pruned backtracking."""
    if m1.ground_size > 12 or m2.ground_size > 12:
        raise ValueError("isomorphism search is capped at 12 elements")
    n = m1.ground_size
    if n != m2.ground_size or m1.rank != m2.rank or len(m1.bases) != len(m2.bases):
        return False
    deg1 = [m1.element_degree(e) for e in range(n)]
    deg2 = [m2.element_degree(e) for e in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False
    pair1 = _pair_profile(m1)
    pair2 = _pair_profile(m2)

    # map elements of m1 in a fixed order; candidates filtered by invariants
    order = sorted(range(n), key=lambda e: (deg1[e],))
    target_by_deg = {}
    for f in range(n):
        target_by_deg.setdefault(deg2[f], []).append(f)

    bases2 = m2.bases
    image = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            mapped = frozenset(_apply_perm(b, image, n) for b in m1.bases)
            return mapped == bases2
        e = order[k]
        for f in target_by_deg.get(deg1[e], ()):
            if used[f]:
                continue
            ok = True
            for j in range(k):
                e2 = order[j]
                if pair1[e][e2] != pair2[f][image[e2]]:
                    ok = False
                    break
            if not ok:
                continue
            image[e] = f
            used[f] = True
            if extend(k + 1):
                return True
            used[f] = False
            image[e] = -1
        return False

    return extend(0)


def _pair_profile(m: Matroid):
    n = m.ground_size
    prof = [[0] * n for _ in range(n)]
    for b in m.bases:
        elems = list(_bits(b))
        for e, f in combinations(elems, 2):
            prof[e][f] += 1
            prof[f][e] += 1
    return prof


def _apply_perm(mask: int, image, n: int) -> int:
    out = 0
    for e in _bits(mask):
        out |= 1 << image[e]
    return out
