"""Command-line front end: every library operation behind a subcommand.

Each command is declared once, by `@command` on its handler: its path
("mat det", "delone"), its arguments with their argparse keywords, and its
help.  `build_parser` builds the argparse tree from these declarations.

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
    matroid_isomorphic,
    parse_graph,
    vector_matroid,
)
from .quadforms import (
    QuadForm,
    WellSuitedPair,
    h_functional,
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
    is_simple_matrix,
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


def _read_tu(path: str) -> TUMatrix:
    return TUMatrix.check(_read_int_matrix(path))


def _read_form(path: str) -> QuadForm:
    return QuadForm(_read_matrix(path))


def _read_cone(path: str) -> RayCone:
    return RayCone.from_json_dict(json.loads(_resolve(path).read_text()))


def _read_indices(text: str, cone: RayCone) -> list:
    """Comma-separated generator indices of the cone, each in range."""
    idx = [int(x) for x in text.split(",")] if text else []
    for i in idx:
        if not 0 <= i < len(cone.generators):
            raise InputError(f"generator index {i} out of range")
    return idx


def _matrix_json(m) -> list:
    return [[str(x) for x in row] for row in m.data]


def _vector_text(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _emit(args, payload: dict, text_lines, code: int = 0) -> int:
    """Print the result as JSON or as text lines; return the exit code."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)
    return code


def _verdict(args, key: str, label: str, ok: bool, lines=(), **extra) -> int:
    """Print a yes/no answer as {key: ok, **extra} or "label: true|false"
    and the further text lines; exit 0 or 1."""
    text = [f"{label}: {str(ok).lower()}", *lines]
    return _emit(args, {key: ok, **extra}, text, 0 if ok else 1)


def _classes(sub) -> tuple:
    """JSON payload and text lines of a subdivision's classes."""
    lines = [f"classes: {len(sub.cells)} (window {sub.window_radius})"]
    lines += [str([list(v) for v in cell]) for cell in sub.sorted_cells()]
    return sub.to_json_dict(), lines


# ---------------------------------------------------------------------------
# command declarations

# the commands that group subcommands, with their help
GROUPS = {
    "mat": "exact linear algebra",
    "tu": "total unimodularity",
    "matroid": "vector matroids",
    "qf": "quadratic forms",
    "cone": "rank-one cones",
}
COMMANDS = []  # (path, arguments, add_parser keywords, handler), in order


def arg(*flags, **options) -> tuple:
    """One argument of a command: add_argument's flags and keywords."""
    return flags, options


def command(path: str, *arguments, **parser_options):
    """Declare the handler below as `conelab <path>`.  An argument is a
    positional name or an `arg(...)`; a callable default is called when the
    parser is built; `help` goes to add_parser only where it is given."""
    arguments = tuple(arg(a) if isinstance(a, str) else a for a in arguments)

    def declare(fn):
        COMMANDS.append((path, arguments, parser_options, fn))
        return fn

    return declare


# arguments that more than one command takes
KIND = arg("kind", choices=("1", "2", "3"))
WINDOW = arg("--window", type=int, default=None)
RADIUS = arg("--radius", type=int, default=3)
SEED = arg("--seed", type=int, default=lambda: int(os.environ.get("CONELAB_SEED", DEFAULT_SEED)))


# ---------------------------------------------------------------------------
# command handlers: each returns the process exit code


@command("mat det", "matrix")
def cmd_mat_det(args) -> int:
    d = determinant(_read_matrix(args.matrix))
    return _emit(args, {"determinant": str(d)}, [f"determinant: {d}"])


@command("mat hnf", "matrix")
def cmd_mat_hnf(args) -> int:
    h, u = hermite_normal_form(_read_int_matrix(args.matrix))
    return _emit(
        args,
        {"H": _matrix_json(h), "U": _matrix_json(u)},
        ["H =", format_matrix(h).rstrip(), "U =", format_matrix(u).rstrip()],
    )


@command("mat solve", "matrix", arg("--rhs", required=True, help="comma-separated rationals"))
def cmd_mat_solve(args) -> int:
    sol = solve_exact(_read_matrix(args.matrix), [Fraction(x) for x in args.rhs.split(",")])
    if sol is None:
        return _emit(args, {"solution": None}, ["inconsistent"], 1)
    payload = {
        "solution": [str(x) for x in sol.x],
        "kernel": [[str(x) for x in v] for v in sol.kernel],
    }
    lines = ["x = " + _vector_text(sol.x)]
    lines += ["kernel: " + _vector_text(v) for v in sol.kernel]
    return _emit(args, payload, lines)


@command("mat ldlt", "matrix")
def cmd_mat_ldlt(args) -> int:
    res = ldlt_decompose(_read_matrix(args.matrix))
    if res is None:
        return _emit(args, {"positive_definite": False}, ["not positive definite"], 1)
    l, d = res
    return _emit(
        args,
        {"positive_definite": True, "L": _matrix_json(l), "D": [str(x) for x in d]},
        ["L =", format_matrix(l).rstrip(), "D = " + _vector_text(d)],
    )


@command("tu check", "matrix")
def cmd_tu_check(args) -> int:
    ok = is_totally_unimodular(_read_int_matrix(args.matrix))
    return _verdict(args, "totally_unimodular", "totally unimodular", ok)


@command("tu witness", "matrix")
def cmd_tu_witness(args) -> int:
    h = is_unimodular(_read_int_matrix(args.matrix))
    if h is None:
        return _verdict(args, "unimodular", "unimodular", False)
    return _verdict(args, "unimodular", "unimodular", True,
                    ["witness h =", format_matrix(h).rstrip()], witness=_matrix_json(h))


@command("tu equivalent", "left", "right")
def cmd_tu_equivalent(args) -> int:
    ok = equivalent_unimodular(_read_int_matrix(args.left), _read_int_matrix(args.right))
    return _verdict(args, "equivalent", "equivalent", ok)


@command("matroid info", "matrix")
def cmd_matroid_info(args) -> int:
    a = _read_int_matrix(args.matrix)
    m = vector_matroid(a)
    payload = {
        "ground_size": m.ground_size,
        "rank": m.rank,
        "bases": len(m.bases),
        "simple": is_simple_matrix(a),
        "circuits": sorted(sorted(c) for c in circuits(m)) if m.ground_size <= 14 else None,
    }
    # one text line per field, named as in the JSON
    return _emit(args, payload, [
        f"{key.replace('_', ' ')}: {str(v).lower() if isinstance(v, bool) else v}"
        for key, v in payload.items()
    ])


@command("matroid isomorphic", "left", "right")
def cmd_matroid_isomorphic(args) -> int:
    m1 = vector_matroid(_read_int_matrix(args.left))
    m2 = vector_matroid(_read_int_matrix(args.right))
    return _verdict(args, "isomorphic", "isomorphic", matroid_isomorphic(m1, m2))


@command("graph", arg("kind", choices=("graphic", "cographic")), "graph",
         help="graphic / cographic representations")
def cmd_graph(args) -> int:
    g = parse_graph(_resolve(args.graph).read_text())
    rep = graphic_representation(g) if args.kind == "graphic" else cographic_representation(g)
    return _emit(
        args,
        {"kind": args.kind, "matrix": _matrix_json(rep), "rows": rep.rows, "cols": rep.cols},
        [format_matrix(rep).rstrip()],
    )


@command("sum", KIND, "left", "right", help="block sums of simple TU matrices")
def cmd_sum(args) -> int:
    left = _read_tu(args.left)
    right = _read_tu(args.right)
    if args.kind == "1":
        out = seymour_sum1(left, right)
    elif args.kind == "2":
        out = seymour_sum2(SumShape2(left, right))
    else:
        out = seymour_sum3(SumShape3(left, right))
    return _emit(args, {"matrix": _matrix_json(out.inner)}, [format_matrix(out.inner).rstrip()])


@command("qf minvec", "form")
def cmd_qf_minvec(args) -> int:
    mv = minimal_vectors(_read_form(args.form))
    lines = [f"mu = {mv.minimum}", f"count = {len(mv.vectors)}"]
    lines += [_vector_text(v) for v in mv.vectors]
    return _emit(args, mv.to_json_dict(), lines)


@command("qf perfect-cone", "form")
def cmd_qf_perfect_cone(args) -> int:
    q = _read_form(args.form)
    cone = perfect_cone_of(q)
    dim = cone.span_dimension()
    full = q.g * (q.g + 1) // 2
    payload = {**cone.to_json_dict(), "span_dimension": dim, "perfect": dim == full}
    return _emit(
        args,
        payload,
        [
            f"generators: {len(cone.generators)}",
            f"span dimension: {dim} of {full}",
            f"perfect: {str(dim == full).lower()}",
        ],
    )


@command("qf is-pd", "form")
def cmd_qf_is_pd(args) -> int:
    ok = is_positive_definite(_read_form(args.form))
    return _verdict(args, "positive_definite", "positive definite", ok)


@command("qf rank-normal", "form")
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
    return _emit(args, payload, lines)


@command("qf well-suited", "form", "matrix")
def cmd_qf_well_suited(args) -> int:
    q = _read_form(args.form)
    a = _read_tu(args.matrix)
    return _verdict(args, "well_suited", "well suited", is_well_suited(q, a))


@command("qf sum", KIND, "left_form", "left_matrix", "right_form", "right_matrix")
def cmd_qf_sum(args) -> int:
    lp = WellSuitedPair.check(_read_form(args.left_form), _read_tu(args.left_matrix))
    rp = WellSuitedPair.check(_read_form(args.right_form), _read_tu(args.right_matrix))
    fn = {"1": well_suited_sum1, "2": well_suited_sum2, "3": well_suited_sum3}[args.kind]
    out = fn(lp, rp)
    return _emit(
        args,
        {"form": _matrix_json(out.form.matrix), "matrix": _matrix_json(out.matrix.inner)},
        [
            "glued form =",
            format_matrix(out.form.matrix).rstrip(),
            "glued matrix =",
            format_matrix(out.matrix.inner).rstrip(),
        ],
    )


@command("qf show", arg("name", choices=("q5", "q0")), arg("--g", type=int, default=2))
def cmd_qf_show(args) -> int:
    q = q5() if args.name == "q5" else q0_principal(args.g)
    return _emit(args, {"form": _matrix_json(q.matrix)}, [format_matrix(q.matrix).rstrip()])


@command("qf h-value", arg("form", nargs="?"),
         arg("--vector", help="comma-separated integer coordinates"))
def cmd_qf_h_value(args) -> int:
    if args.vector:
        val = h_functional([int(x) for x in args.vector.split(",")])
    elif args.form is None:
        raise InputError("qf h-value needs a form file or --vector")
    else:
        val = h_functional(_read_matrix(args.form))
    return _emit(args, {"value": str(val)}, [f"value: {val}"])


@command("cone of-matrix", "matrix")
def cmd_cone_of_matrix(args) -> int:
    cone = sigma_of_matrix(_read_tu(args.matrix))
    dim = cone.span_dimension()
    return _emit(
        args,
        {**cone.to_json_dict(), "span_dimension": dim},
        [
            f"generators: {len(cone.generators)}",
            f"simplicial: {str(cone.simplicial).lower()}",
            f"span dimension: {dim}",
        ],
    )


@command("cone member", "form", "cone")
def cmd_cone_member(args) -> int:
    lam = membership(_read_form(args.form), _read_cone(args.cone))
    if lam is None:
        return _verdict(args, "member", "member", False, coefficients=None)
    return _verdict(args, "member", "member", True, ["lambda = " + _vector_text(lam)],
                    coefficients=[str(x) for x in lam])


@command("cone face", arg("sub_cone", metavar="sub"), "cone")
def cmd_cone_face(args) -> int:
    sub = _read_cone(args.sub_cone)
    cert = is_face(sub, _read_cone(args.cone))
    if cert is None:
        return _verdict(args, "face", "face", False)
    return _verdict(args, "face", "face", True,
                    ["functional =", format_matrix(cert.functional).rstrip()],
                    certificate=cert.to_json_dict())


@command("cone support", "cone",
         arg("--zero", default="", help="comma-separated generator indices"))
def cmd_cone_support(args) -> int:
    cone = _read_cone(args.cone)
    cert = find_supporting_functional(_read_indices(args.zero, cone), cone)
    if cert is None:
        return _emit(args, {"certificate": None}, ["no supporting functional"], 1)
    return _emit(
        args,
        {"certificate": cert.to_json_dict()},
        ["functional =", format_matrix(cert.functional).rstrip()],
    )


@command("cone delete", "cone", arg("--indices", default=""))
def cmd_cone_delete(args) -> int:
    cone = _read_cone(args.cone)
    out = face_by_deletion(cone, _read_indices(args.indices, cone))
    return _emit(args, out.to_json_dict(), [f"generators: {len(out.generators)}"])


@command("cone conjugate", "h", "cone")
def cmd_cone_conjugate(args) -> int:
    out = gl_conjugate(_read_int_matrix(args.h), _read_cone(args.cone))
    return _emit(args, out.to_json_dict(), [
        "generators: " + ", ".join("(" + ",".join(str(x) for x in v) + ")"
                                   for v in out.generators)
    ])


@command("cone principal-contains", "form")
def cmd_cone_principal(args) -> int:
    ok = principal_cone_contains(_read_form(args.form))
    return _verdict(args, "principal_cone", "in principal cone", ok)


@command("delone", "form", WINDOW, arg("--against", help="second form to compare subdivisions"),
         help="Delone subdivision of a form")
def cmd_delone(args) -> int:
    sub = delone_subdivision(_read_form(args.form), args.window)
    payload, lines = _classes(sub)
    eq = True
    if args.against:
        eq = subdivisions_equal(sub, delone_subdivision(_read_form(args.against), args.window))
        payload["equal_to_against"] = eq
        lines.append(f"equal to {args.against}: {str(eq).lower()}")
    return _emit(args, payload, lines, 0 if eq else 1)


@command("dicing", "matrix", WINDOW, help="hyperplane dicing of a TU matrix")
def cmd_dicing(args) -> int:
    a = _read_tu(args.matrix)
    return _emit(args, *_classes(dicing_subdivision(a, args.window)))


@command("dicing-check", "matrix", arg("--samples", type=int, default=5), SEED,
         help="interior forms reproduce the dicing")
def cmd_dicing_check(args) -> int:
    a = _read_tu(args.matrix)
    ok = secondary_cone_check(a, args.samples, random.Random(args.seed))
    return _verdict(args, "secondary_cone_check",
                    f"secondary cone check ({args.samples} samples)", ok, samples=args.samples)


@command("vor", "form", RADIUS, help="Dirichlet-Voronoi polytope")
def cmd_vor(args) -> int:
    v = voronoi_polytope(_read_form(args.form), args.radius)
    lines = [f"facets: {len(v.halfspaces)}", f"vertices: {len(v.vertices)}"]
    lines += [_vector_text(vert) for vert in v.vertices]
    return _emit(args, v.to_json_dict(), lines)


@command("zonotope-check", "matrix", RADIUS, help="Voronoi cell equals segment sum")
def cmd_zonotope_check(args) -> int:
    a = _read_tu(args.matrix)
    return _verdict(args, "zonotope_check", "zonotope check", minkowski_sum_check(a, args.radius))


def _verify_principal(args):
    if args.g is None:
        raise InputError("verify principal needs --g")
    return verify_principal(args.g, samples=args.samples or 100, seed=args.seed)


# `verify` scenario -> its run on the parsed options; the keys are the choices
SCENARIOS = {
    "r10": lambda args: verify_r10(seed=args.seed),
    "principal": _verify_principal,
    "taxonomy-g2": lambda args: verify_taxonomy_g2(samples=args.samples or 5, seed=args.seed),
    "seymour": lambda args: verify_seymour_pipeline(samples=args.samples or 200, seed=args.seed),
    "dicings": lambda args: verify_dicings(samples=args.samples or 5, seed=args.seed),
}


@command("verify", arg("scenario", choices=tuple(SCENARIOS)), arg("--g", type=int, default=None),
         SEED, arg("--samples", type=int, default=None), help="named verification scenarios")
def cmd_verify(args) -> int:
    rep = SCENARIOS[args.scenario](args)
    payload = rep.to_json_dict()
    payload.pop("wall_time_s")  # byte-stable output across runs
    return _emit(args, payload, [rep.to_text()], 0 if rep.status == "pass" else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Exact computations with quadratic-form cones, regular "
        "matroids, and Delone subdivisions.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, arguments, parser_options, fn in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group and group not in groups:
            groups[group] = top.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="sub", required=True
            )
        p = (groups[group] if group else top).add_parser(name, **parser_options)
        for flags, options in arguments:
            if callable(options.get("default")):
                options = {**options, "default": options["default"]()}
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WindowError as e:
        opt = next((o for o in ("window", "radius") if o in vars(args)), None)
        hint = f" with --{opt}" if opt else ""
        print(f"window error: {e}{hint}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # InputError, JSONDecodeError are ValueErrors
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
