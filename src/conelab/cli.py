"""Command-line front end: every library operation behind a subcommand.

Results go to stdout (text by default, byte-stable JSON with --format
json); diagnostics go to stderr.  Exit codes: 0 success, 1 a verification
or boolean check came out negative, 2 input error or a lattice window too
small to certify the result ("window error: ..." names the radius used and
the command's --window or --radius option), 3 an internal failure, such as
a result that failed its own re-verification or an invalid LP certificate
("internal error: ...").  Input paths that do not exist on disk fall back
to the packaged fixture of the same name, so `conelab tu check A10.txt`
works from anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .cones import (
    RayCone,
    face_by_deletion,
    find_supporting_functional,
    gl_conjugate,
    is_face,
    membership,
    principal_cone_contains,
    sigma_of_matrix,
)
from .delone import (
    WindowError,
    delone_subdivision,
    dicing_subdivision,
    minkowski_sum_check,
    secondary_cone_check,
    subdivisions_equal,
    voronoi_polytope,
)
from .exact import (
    IntMatrix,
    RatMatrix,
    determinant,
    format_matrix,
    hermite_normal_form,
    ldlt_decompose,
    parse_int_matrix,
    parse_matrix,
    solve_exact,
)
from .matroids import (
    circuits,
    cographic_representation,
    graphic_representation,
    is_simple,
    matroid_isomorphic,
    parse_graph,
    r10_matrix,
    vector_matroid,
)
from .quadforms import (
    QuadForm,
    WellSuitedPair,
    h_functional,
    is_perfect,
    is_positive_definite,
    is_well_suited,
    minimal_vectors,
    perfect_cone_of,
    q0_principal,
    q5,
    rational_rank_normal_form,
    well_suited_sum1,
    well_suited_sum2,
    well_suited_sum3,
)
from .tumatrix import (
    SumShape2,
    SumShape3,
    TUMatrix,
    equivalent_unimodular,
    is_totally_unimodular,
    is_unimodular,
    seymour_sum1,
    seymour_sum2,
    seymour_sum3,
)
from .verify import (
    DEFAULT_SEED,
    verify_dicings,
    verify_principal,
    verify_r10,
    verify_seymour_pipeline,
    verify_taxonomy_g2,
)


class InputError(ValueError):
    pass


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    try:
        return fixtures.fixture_path(Path(path).name)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None


def _read_matrix(path: str) -> RatMatrix:
    return parse_matrix(_resolve(path).read_text())


def _read_int_matrix(path: str) -> IntMatrix:
    return parse_int_matrix(_resolve(path).read_text())


def _read_form(path: str) -> QuadForm:
    return QuadForm(_read_matrix(path))


def _read_graph(path: str):
    return parse_graph(_resolve(path).read_text())


def _read_cone(path: str) -> RayCone:
    return RayCone.from_json_dict(json.loads(_resolve(path).read_text()))


def _matrix_json(m) -> list:
    return [[str(x) for x in row] for row in m.data]


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# command handlers: each returns the process exit code


def cmd_mat_det(args) -> int:
    d = determinant(_read_matrix(args.matrix))
    _emit(args, {"determinant": str(d)}, [f"determinant: {d}"])
    return 0


def cmd_mat_hnf(args) -> int:
    h, u = hermite_normal_form(_read_int_matrix(args.matrix))
    _emit(
        args,
        {"H": _matrix_json(h), "U": _matrix_json(u)},
        ["H =", format_matrix(h).rstrip(), "U =", format_matrix(u).rstrip()],
    )
    return 0


def cmd_mat_solve(args) -> int:
    a = _read_matrix(args.matrix)
    b = [Fraction(x) for x in args.rhs.split(",")]
    sol = solve_exact(a, b)
    if sol is None:
        _emit(args, {"solution": None}, ["inconsistent"])
        return 1
    payload = {
        "solution": [str(x) for x in sol.x],
        "kernel": [[str(x) for x in v] for v in sol.kernel],
    }
    lines = ["x = (" + ", ".join(str(x) for x in sol.x) + ")"]
    for v in sol.kernel:
        lines.append("kernel: (" + ", ".join(str(x) for x in v) + ")")
    _emit(args, payload, lines)
    return 0


def cmd_mat_ldlt(args) -> int:
    res = ldlt_decompose(_read_matrix(args.matrix))
    if res is None:
        _emit(args, {"positive_definite": False}, ["not positive definite"])
        return 1
    l, d = res
    _emit(
        args,
        {"positive_definite": True, "L": _matrix_json(l), "D": [str(x) for x in d]},
        ["L =", format_matrix(l).rstrip(), "D = (" + ", ".join(str(x) for x in d) + ")"],
    )
    return 0


def cmd_tu_check(args) -> int:
    ok = is_totally_unimodular(_read_int_matrix(args.matrix))
    _emit(args, {"totally_unimodular": ok}, [f"totally unimodular: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_tu_witness(args) -> int:
    h = is_unimodular(_read_int_matrix(args.matrix))
    if h is None:
        _emit(args, {"unimodular": False}, ["unimodular: false"])
        return 1
    _emit(
        args,
        {"unimodular": True, "witness": _matrix_json(h)},
        ["unimodular: true", "witness h =", format_matrix(h).rstrip()],
    )
    return 0


def cmd_tu_equivalent(args) -> int:
    ok = equivalent_unimodular(_read_int_matrix(args.left), _read_int_matrix(args.right))
    _emit(args, {"equivalent": ok}, [f"equivalent: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_matroid_info(args) -> int:
    a = _read_int_matrix(args.matrix)
    m = vector_matroid(a)
    simple = is_simple(m)
    circ = sorted(sorted(c) for c in circuits(m)) if m.ground_size <= 14 else None
    payload = {
        "ground_size": m.ground_size,
        "rank": m.rank,
        "bases": len(m.bases),
        "simple": simple,
        "circuits": circ,
    }
    lines = [
        f"ground size: {m.ground_size}",
        f"rank: {m.rank}",
        f"bases: {len(m.bases)}",
        f"simple: {str(simple).lower()}",
        f"circuits: {circ}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_matroid_isomorphic(args) -> int:
    m1 = vector_matroid(_read_int_matrix(args.left))
    m2 = vector_matroid(_read_int_matrix(args.right))
    ok = matroid_isomorphic(m1, m2)
    _emit(args, {"isomorphic": ok}, [f"isomorphic: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_graph(args) -> int:
    g = _read_graph(args.graph)
    rep = graphic_representation(g) if args.kind == "graphic" else cographic_representation(g)
    _emit(
        args,
        {"kind": args.kind, "matrix": _matrix_json(rep), "rows": rep.rows, "cols": rep.cols},
        [format_matrix(rep).rstrip()] if rep.rows else [f"0 {rep.cols}"],
    )
    return 0


def cmd_sum(args) -> int:
    left = TUMatrix.check(_read_int_matrix(args.left))
    right = TUMatrix.check(_read_int_matrix(args.right))
    if args.kind == "1":
        out = seymour_sum1(left, right)
    elif args.kind == "2":
        out = seymour_sum2(SumShape2(left, right))
    else:
        out = seymour_sum3(SumShape3(left, right))
    _emit(args, {"matrix": _matrix_json(out.inner)}, [format_matrix(out.inner).rstrip()])
    return 0


def cmd_qf_minvec(args) -> int:
    mv = minimal_vectors(_read_form(args.form))
    payload = mv.to_json_dict()
    lines = [f"mu = {mv.minimum}", f"count = {len(mv.vectors)}"]
    lines += ["(" + ", ".join(str(x) for x in v) + ")" for v in mv.vectors]
    _emit(args, payload, lines)
    return 0


def cmd_qf_perfect_cone(args) -> int:
    q = _read_form(args.form)
    cone = perfect_cone_of(q)
    dim = cone.span_dimension()
    full = q.g * (q.g + 1) // 2
    payload = cone.to_json_dict()
    payload["span_dimension"] = dim
    payload["perfect"] = dim == full
    _emit(
        args,
        payload,
        [
            f"generators: {len(cone.generators)}",
            f"span dimension: {dim} of {full}",
            f"perfect: {str(dim == full).lower()}",
        ],
    )
    return 0


def cmd_qf_is_pd(args) -> int:
    ok = is_positive_definite(_read_form(args.form))
    _emit(args, {"positive_definite": ok}, [f"positive definite: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_qf_rank_normal(args) -> int:
    h, qp = rational_rank_normal_form(_read_form(args.form))
    payload = {
        "h": _matrix_json(h),
        "definite_block": _matrix_json(qp.matrix) if qp is not None else None,
        "rank": qp.g if qp is not None else 0,
    }
    lines = ["h =", format_matrix(h).rstrip()]
    if qp is not None:
        lines += ["definite block =", format_matrix(qp.matrix).rstrip()]
    else:
        lines.append("rank 0 form")
    _emit(args, payload, lines)
    return 0


def cmd_qf_well_suited(args) -> int:
    q = _read_form(args.form)
    a = TUMatrix.check(_read_int_matrix(args.matrix))
    ok = is_well_suited(q, a)
    _emit(args, {"well_suited": ok}, [f"well suited: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_qf_sum(args) -> int:
    lp = WellSuitedPair.check(
        _read_form(args.left_form), TUMatrix.check(_read_int_matrix(args.left_matrix))
    )
    rp = WellSuitedPair.check(
        _read_form(args.right_form), TUMatrix.check(_read_int_matrix(args.right_matrix))
    )
    fn = {"1": well_suited_sum1, "2": well_suited_sum2, "3": well_suited_sum3}[args.kind]
    out = fn(lp, rp)
    _emit(
        args,
        {"form": _matrix_json(out.form.matrix), "matrix": _matrix_json(out.matrix.inner)},
        [
            "glued form =",
            format_matrix(out.form.matrix).rstrip(),
            "glued matrix =",
            format_matrix(out.matrix.inner).rstrip(),
        ],
    )
    return 0


def cmd_qf_show(args) -> int:
    if args.name == "q5":
        q = q5()
    else:
        q = q0_principal(args.g)
    _emit(args, {"form": _matrix_json(q.matrix)}, [format_matrix(q.matrix).rstrip()])
    return 0


def cmd_qf_h_value(args) -> int:
    if args.vector:
        v = [int(x) for x in args.vector.split(",")]
        val = h_functional(v)
    else:
        val = h_functional(_read_matrix(args.form))
    _emit(args, {"value": str(val)}, [f"value: {val}"])
    return 0


def cmd_cone_of_matrix(args) -> int:
    cone = sigma_of_matrix(TUMatrix.check(_read_int_matrix(args.matrix)))
    payload = cone.to_json_dict()
    payload["span_dimension"] = cone.span_dimension()
    _emit(
        args,
        payload,
        [
            f"generators: {len(cone.generators)}",
            f"simplicial: {str(cone.simplicial).lower()}",
            f"span dimension: {cone.span_dimension()}",
        ],
    )
    return 0


def cmd_cone_member(args) -> int:
    q = _read_form(args.form)
    cone = _read_cone(args.cone)
    lam = membership(q, cone)
    if lam is None:
        _emit(args, {"member": False, "coefficients": None}, ["member: false"])
        return 1
    _emit(
        args,
        {"member": True, "coefficients": [str(x) for x in lam]},
        ["member: true", "lambda = (" + ", ".join(str(x) for x in lam) + ")"],
    )
    return 0


def cmd_cone_face(args) -> int:
    sub = _read_cone(args.sub_cone)
    cone = _read_cone(args.cone)
    ok = is_face(sub, cone)
    if not ok:
        _emit(args, {"face": False}, ["face: false"])
        return 1
    idx = {v: i for i, v in enumerate(cone.generators)}
    cert = find_supporting_functional([idx[v] for v in sub.generators], cone)
    payload = {"face": True, "certificate": cert.to_json_dict()}
    _emit(
        args,
        payload,
        ["face: true", "functional =", format_matrix(cert.functional).rstrip()],
    )
    return 0


def cmd_cone_support(args) -> int:
    cone = _read_cone(args.cone)
    sub = [int(x) for x in args.zero.split(",")] if args.zero else []
    cert = find_supporting_functional(sub, cone)
    if cert is None:
        _emit(args, {"certificate": None}, ["no supporting functional"])
        return 1
    _emit(
        args,
        {"certificate": cert.to_json_dict()},
        ["functional =", format_matrix(cert.functional).rstrip()],
    )
    return 0


def cmd_cone_delete(args) -> int:
    cone = _read_cone(args.cone)
    idx = [int(x) for x in args.indices.split(",")] if args.indices else []
    out = face_by_deletion(cone, idx)
    _emit(args, out.to_json_dict(), [f"generators: {len(out.generators)}"])
    return 0


def cmd_cone_conjugate(args) -> int:
    h = _read_int_matrix(args.h)
    cone = _read_cone(args.cone)
    out = gl_conjugate(h, cone)
    _emit(args, out.to_json_dict(), [
        "generators: " + ", ".join("(" + ",".join(str(x) for x in v) + ")"
                                   for v in out.generators)
    ])
    return 0


def cmd_cone_principal(args) -> int:
    ok = principal_cone_contains(_read_form(args.form))
    _emit(args, {"principal_cone": ok}, [f"in principal cone: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_delone(args) -> int:
    q = _read_form(args.form)
    sub = delone_subdivision(q, args.window)
    payload = sub.to_json_dict()
    lines = [f"classes: {len(sub.cells)} (window {sub.window_radius})"]
    lines += [str([list(v) for v in cell]) for cell in sub.sorted_cells()]
    if args.against:
        other = delone_subdivision(_read_form(args.against), args.window)
        eq = subdivisions_equal(sub, other)
        payload["equal_to_against"] = eq
        lines.append(f"equal to {args.against}: {str(eq).lower()}")
        _emit(args, payload, lines)
        return 0 if eq else 1
    _emit(args, payload, lines)
    return 0


def cmd_dicing(args) -> int:
    a = TUMatrix.check(_read_int_matrix(args.matrix))
    sub = dicing_subdivision(a, args.window)
    payload = sub.to_json_dict()
    lines = [f"classes: {len(sub.cells)} (window {sub.window_radius})"]
    lines += [str([list(v) for v in cell]) for cell in sub.sorted_cells()]
    _emit(args, payload, lines)
    return 0


def cmd_dicing_check(args) -> int:
    a = TUMatrix.check(_read_int_matrix(args.matrix))
    rng = random.Random(args.seed)
    ok = secondary_cone_check(a, args.samples, rng)
    _emit(args, {"secondary_cone_check": ok, "samples": args.samples},
          [f"secondary cone check ({args.samples} samples): {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_vor(args) -> int:
    v = voronoi_polytope(_read_form(args.form), args.radius)
    payload = v.to_json_dict()
    lines = [f"facets: {len(v.halfspaces)}", f"vertices: {len(v.vertices)}"]
    lines += ["(" + ", ".join(str(x) for x in vert) + ")" for vert in v.vertices]
    _emit(args, payload, lines)
    return 0


def cmd_zonotope_check(args) -> int:
    a = TUMatrix.check(_read_int_matrix(args.matrix))
    ok = minkowski_sum_check(a, args.radius)
    _emit(args, {"zonotope_check": ok}, [f"zonotope check: {str(ok).lower()}"])
    return 0 if ok else 1


def cmd_verify(args) -> int:
    seed = args.seed
    if args.scenario == "r10":
        rep = verify_r10(seed=seed)
    elif args.scenario == "principal":
        if args.g is None:
            print("verify principal needs --g", file=sys.stderr)
            return 2
        rep = verify_principal(args.g, samples=args.samples or 100, seed=seed)
    elif args.scenario == "taxonomy-g2":
        rep = verify_taxonomy_g2(samples=args.samples or 5, seed=seed)
    elif args.scenario == "seymour":
        rep = verify_seymour_pipeline(samples=args.samples or 200, seed=seed)
    else:
        rep = verify_dicings(samples=args.samples or 5, seed=seed)
    if args.format == "json":
        d = rep.to_json_dict()
        d.pop("wall_time_s")  # byte-stable output across runs
        print(json.dumps(d, sort_keys=True, separators=(",", ":")))
    else:
        print(rep.to_text())
    return 0 if rep.status == "pass" else 1


# ---------------------------------------------------------------------------
# dispatch table (also consumed by the coverage test)

OPERATION_COVERAGE = {
    "exactcore.determinant": ["mat det"],
    "exactcore.hermite_normal_form": ["mat hnf"],
    "exactcore.solve_exact": ["mat solve"],
    "exactcore.ldlt_decompose": ["mat ldlt"],
    "tumatrix.is_totally_unimodular": ["tu check"],
    "tumatrix.is_unimodular": ["tu witness"],
    "tumatrix.equivalent_unimodular": ["tu equivalent"],
    "tumatrix.seymour_sum1": ["sum 1"],
    "tumatrix.seymour_sum2": ["sum 2"],
    "tumatrix.seymour_sum3": ["sum 3"],
    "matroids.vector_matroid": ["matroid info"],
    "matroids.circuits": ["matroid info"],
    "matroids.is_simple": ["matroid info"],
    "matroids.graphic_representation": ["graph graphic"],
    "matroids.cographic_representation": ["graph cographic"],
    "matroids.r10_matrix": ["verify r10"],
    "matroids.matroid_isomorphic": ["matroid isomorphic"],
    "quadforms.is_positive_definite": ["qf is-pd"],
    "quadforms.rational_rank_normal_form": ["qf rank-normal"],
    "quadforms.minimal_vectors": ["qf minvec"],
    "quadforms.perfect_cone_of": ["qf perfect-cone"],
    "quadforms.is_perfect": ["qf perfect-cone"],
    "quadforms.is_well_suited": ["qf well-suited"],
    "quadforms.well_suited_sum1": ["qf sum 1"],
    "quadforms.well_suited_sum2": ["qf sum 2"],
    "quadforms.well_suited_sum3": ["qf sum 3"],
    "quadforms.q5": ["qf show q5"],
    "quadforms.q0_principal": ["qf show q0"],
    "quadforms.h_functional": ["qf h-value"],
    "cones.sigma_of_matrix": ["cone of-matrix"],
    "cones.face_by_deletion": ["cone delete"],
    "cones.membership": ["cone member"],
    "cones.principal_cone_contains": ["cone principal-contains"],
    "cones.gl_conjugate": ["cone conjugate"],
    "cones.find_supporting_functional": ["cone support", "cone face"],
    "cones.is_face": ["cone face"],
    "delone.delone_subdivision": ["delone"],
    "delone.dicing_subdivision": ["dicing"],
    "delone.subdivisions_equal": ["delone --against"],
    "delone.secondary_cone_check": ["dicing-check"],
    "delone.voronoi_polytope": ["vor"],
    "delone.minkowski_sum_check": ["zonotope-check"],
    "verify.verify_r10": ["verify r10"],
    "verify.verify_principal": ["verify principal"],
    "verify.verify_taxonomy_g2": ["verify taxonomy-g2"],
    "verify.verify_seymour_pipeline": ["verify seymour"],
    "verify.verify_dicings": ["verify dicings"],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Exact computations with quadratic-form cones, regular "
        "matroids, and Delone subdivisions.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    default_seed = int(os.environ.get("CONELAB_SEED", DEFAULT_SEED))
    sub = parser.add_subparsers(dest="command", required=True)

    mat = sub.add_parser("mat", help="exact linear algebra").add_subparsers(
        dest="sub", required=True
    )
    p = mat.add_parser("det")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_mat_det)
    p = mat.add_parser("hnf")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_mat_hnf)
    p = mat.add_parser("solve")
    p.add_argument("matrix")
    p.add_argument("--rhs", required=True, help="comma-separated rationals")
    p.set_defaults(fn=cmd_mat_solve)
    p = mat.add_parser("ldlt")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_mat_ldlt)

    tu = sub.add_parser("tu", help="total unimodularity").add_subparsers(
        dest="sub", required=True
    )
    p = tu.add_parser("check")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_tu_check)
    p = tu.add_parser("witness")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_tu_witness)
    p = tu.add_parser("equivalent")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_tu_equivalent)

    mt = sub.add_parser("matroid", help="vector matroids").add_subparsers(
        dest="sub", required=True
    )
    p = mt.add_parser("info")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_matroid_info)
    p = mt.add_parser("isomorphic")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_matroid_isomorphic)

    p = sub.add_parser("graph", help="graphic / cographic representations")
    p.add_argument("kind", choices=("graphic", "cographic"))
    p.add_argument("graph")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("sum", help="block sums of simple TU matrices")
    p.add_argument("kind", choices=("1", "2", "3"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_sum)

    qf = sub.add_parser("qf", help="quadratic forms").add_subparsers(
        dest="sub", required=True
    )
    p = qf.add_parser("minvec")
    p.add_argument("form")
    p.set_defaults(fn=cmd_qf_minvec)
    p = qf.add_parser("perfect-cone")
    p.add_argument("form")
    p.set_defaults(fn=cmd_qf_perfect_cone)
    p = qf.add_parser("is-pd")
    p.add_argument("form")
    p.set_defaults(fn=cmd_qf_is_pd)
    p = qf.add_parser("rank-normal")
    p.add_argument("form")
    p.set_defaults(fn=cmd_qf_rank_normal)
    p = qf.add_parser("well-suited")
    p.add_argument("form")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_qf_well_suited)
    p = qf.add_parser("sum")
    p.add_argument("kind", choices=("1", "2", "3"))
    p.add_argument("left_form")
    p.add_argument("left_matrix")
    p.add_argument("right_form")
    p.add_argument("right_matrix")
    p.set_defaults(fn=cmd_qf_sum)
    p = qf.add_parser("show")
    p.add_argument("name", choices=("q5", "q0"))
    p.add_argument("--g", type=int, default=2)
    p.set_defaults(fn=cmd_qf_show)
    p = qf.add_parser("h-value")
    p.add_argument("form", nargs="?")
    p.add_argument("--vector", help="comma-separated integer coordinates")
    p.set_defaults(fn=cmd_qf_h_value)

    cn = sub.add_parser("cone", help="rank-one cones").add_subparsers(
        dest="sub", required=True
    )
    p = cn.add_parser("of-matrix")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_cone_of_matrix)
    p = cn.add_parser("member")
    p.add_argument("form")
    p.add_argument("cone")
    p.set_defaults(fn=cmd_cone_member)
    p = cn.add_parser("face")
    p.add_argument("sub_cone", metavar="sub")
    p.add_argument("cone")
    p.set_defaults(fn=cmd_cone_face)
    p = cn.add_parser("support")
    p.add_argument("cone")
    p.add_argument("--zero", default="", help="comma-separated generator indices")
    p.set_defaults(fn=cmd_cone_support)
    p = cn.add_parser("delete")
    p.add_argument("cone")
    p.add_argument("--indices", default="")
    p.set_defaults(fn=cmd_cone_delete)
    p = cn.add_parser("conjugate")
    p.add_argument("h")
    p.add_argument("cone")
    p.set_defaults(fn=cmd_cone_conjugate)
    p = cn.add_parser("principal-contains")
    p.add_argument("form")
    p.set_defaults(fn=cmd_cone_principal)

    p = sub.add_parser("delone", help="Delone subdivision of a form")
    p.add_argument("form")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--against", help="second form to compare subdivisions")
    p.set_defaults(fn=cmd_delone)

    p = sub.add_parser("dicing", help="hyperplane dicing of a TU matrix")
    p.add_argument("matrix")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(fn=cmd_dicing)

    p = sub.add_parser("dicing-check", help="interior forms reproduce the dicing")
    p.add_argument("matrix")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(fn=cmd_dicing_check)

    p = sub.add_parser("vor", help="Dirichlet-Voronoi polytope")
    p.add_argument("form")
    p.add_argument("--radius", type=int, default=3)
    p.set_defaults(fn=cmd_vor)

    p = sub.add_parser("zonotope-check", help="Voronoi cell equals segment sum")
    p.add_argument("matrix")
    p.add_argument("--radius", type=int, default=3)
    p.set_defaults(fn=cmd_zonotope_check)

    p = sub.add_parser("verify", help="named verification scenarios")
    p.add_argument(
        "scenario",
        choices=("r10", "principal", "taxonomy-g2", "seymour", "dicings"),
    )
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except WindowError as e:
        opt = next((o for o in ("window", "radius") if o in vars(args)), None)
        hint = f" with --{opt}" if opt else ""
        print(f"window error: {e}{hint}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
