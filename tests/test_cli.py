import hashlib
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from conelab import cli, cones, quadforms
from conelab.cli import build_parser, run


def _cap(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tu_check_fixture_path_fallback(capsys):
    code, out, _ = _cap(capsys, ["tu", "check", "A10.txt"])
    assert code == 0
    assert "totally unimodular: true" in out


def test_tu_check_negative_exit(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 1\n1 -1\n")
    code, out, _ = _cap(capsys, ["tu", "check", str(p)])
    assert code == 1
    assert "false" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = _cap(capsys, ["tu", "check", "/definitely/not/here.txt"])
    assert code == 2
    assert "input error" in err


def test_malformed_matrix_is_input_error(capsys, tmp_path):
    p = tmp_path / "broken.txt"
    p.write_text("2 2\n1 2\n")
    code, _, err = _cap(capsys, ["tu", "check", str(p)])
    assert code == 2


def test_qf_minvec_q5(capsys):
    code, out, _ = _cap(capsys, ["qf", "minvec", "Q5.txt"])
    assert code == 0
    assert "mu = 2" in out and "count = 20" in out


def test_qf_minvec_json_sorted_vectors(capsys):
    code, out, _ = _cap(capsys, ["--format", "json", "qf", "minvec", "Q0_2.txt"])
    d = json.loads(out)
    assert d["mu"] == "1"
    assert d["vectors"] == sorted(d["vectors"])


def test_verify_r10_json_and_exit(capsys):
    code, out, _ = _cap(capsys, ["--format", "json", "verify", "r10"])
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "pass" and len(d["evidence"]) == 5


def test_verify_principal_needs_g(capsys):
    code, _, err = _cap(capsys, ["verify", "principal"])
    assert code == 2
    code, out, _ = _cap(capsys, ["verify", "principal", "--g", "2"])
    assert code == 0


def test_sum_commands(capsys):
    code, out, _ = _cap(capsys, ["sum", "2", "SUM2_LEFT_A.txt", "SUM2_RIGHT_A.txt"])
    assert code == 0
    assert out.splitlines()[0] == "3 5"
    code, out, _ = _cap(capsys, ["sum", "1", "AK3.txt", "AK3.txt"])
    assert code == 0


def test_graph_commands(capsys):
    code, out, _ = _cap(capsys, ["graph", "graphic", "K3.graph"])
    assert code == 0 and out.splitlines()[0] == "2 3"
    code, out, _ = _cap(capsys, ["graph", "cographic", "THETA.graph"])
    assert code == 0 and out.splitlines()[0] == "2 3"


def test_qf_well_suited(capsys):
    code, out, _ = _cap(capsys, ["qf", "well-suited", "Q0_2.txt", "AK3.txt"])
    assert code == 0 and "true" in out
    code, out, _ = _cap(capsys, ["qf", "well-suited", "QHEX.txt", "AK3.txt"])
    assert code == 1 and "false" in out


def test_cone_member_and_face(capsys, tmp_path):
    code, out, _ = _cap(capsys, ["--format", "json", "cone", "of-matrix", "AK3.txt"])
    cone_file = tmp_path / "cone.json"
    cone_file.write_text(out)
    code, out, _ = _cap(capsys, ["cone", "member", "QHEX.txt", str(cone_file)])
    assert code == 0 and "member: true" in out
    code, out, _ = _cap(capsys, ["cone", "member", "Q0_2.txt", str(cone_file)])
    assert code == 1 and "member: false" in out

    code, out, _ = _cap(capsys, ["--format", "json", "cone", "of-matrix", "I2.txt"])
    sub_file = tmp_path / "sub.json"
    sub_file.write_text(out)
    code, out, _ = _cap(capsys, ["cone", "face", str(sub_file), str(cone_file)])
    assert code == 0 and "face: true" in out


def test_cone_face_solves_one_lp(capsys, monkeypatch, tmp_path):
    # the certificate printed is the one the face decision found
    real = cones.find_supporting_functional
    calls = []

    def counted(sub, c):
        calls.append(sub)
        return real(sub, c)

    monkeypatch.setattr(cones, "find_supporting_functional", counted)
    monkeypatch.setattr(cli, "find_supporting_functional", counted)
    cone_file, sub_file = tmp_path / "cone.json", tmp_path / "sub.json"
    cone_file.write_text('{"g": 2, "generators": [[1, 0], [0, 1], [1, -1]]}')
    sub_file.write_text('{"g": 2, "generators": [[1, 0], [0, 1]]}')
    code, out, _ = _cap(capsys, ["cone", "face", str(sub_file), str(cone_file)])
    assert (code, out.splitlines()[0], len(calls)) == (0, "face: true", 1)


def test_delone_and_dicing_commands(capsys):
    code, out, _ = _cap(capsys, ["--format", "json", "delone", "QHEX.txt"])
    d = json.loads(out)
    assert code == 0 and len(d["cells"]) == 2
    code, out, _ = _cap(capsys, ["--format", "json", "dicing", "AK3.txt"])
    d2 = json.loads(out)
    assert code == 0 and d2["cells"] == d["cells"]
    code, out, _ = _cap(
        capsys, ["delone", "QHEX.txt", "--against", "I2.txt"]
    )
    assert code == 1  # different subdivisions


def test_vor_and_zonotope_commands(capsys):
    code, out, _ = _cap(capsys, ["--format", "json", "vor", "I2.txt", "--radius", "2"])
    d = json.loads(out)
    assert code == 0 and len(d["vertices"]) == 4
    code, out, _ = _cap(capsys, ["zonotope-check", "AK3.txt", "--radius", "2"])
    assert code == 0 and "true" in out


def test_zonotope_check_rejects_rank_deficient_matrix(capsys, tmp_path):
    # a simple TU matrix of rank 2 in 3 rows: its summed form is only
    # semi-definite, so there is no zonotope to compare; rejected up front
    p = tmp_path / "rank2.txt"
    p.write_text("3 2\n1 0\n0 1\n0 0\n")
    code, out, err = _cap(capsys, ["zonotope-check", str(p)])
    assert (code, out) == (2, "")
    assert err == "input error: zonotope check needs a matrix of full row rank, got rank 2 < 3\n"


@pytest.mark.parametrize("argv, message", [
    (["qf", "h-value", "--vector", "1,2,3,4"], "functional is defined on 5x5 arrays"),
    (["qf", "h-value"], "qf h-value needs a form file or --vector"),
    (["cone", "support", "{cone}", "--zero", "99"], "generator index 99 out of range"),
    (["cone", "delete", "{cone}", "--indices", "99"], "generator index 99 out of range"),
    (["cone", "face", "{bare}", "{cone}"], "cone JSON lacks the field 'generators'"),
    (["graph", "graphic", "{empty}"], "empty graph file"),
    (["dicing", "{strip}", "--window", "0"], "window radius must be at least 2"),
    (["verify", "principal"], "verify principal needs --g"),
])
def test_bad_input_exits_2(capsys, tmp_path, argv, message):
    files = {"cone": tmp_path / "cone.json", "bare": tmp_path / "bare.json",
             "empty": tmp_path / "empty.graph", "strip": tmp_path / "strip.txt"}
    files["cone"].write_text('{"g": 2, "generators": [[1, 0], [0, 1]], "simplicial": true}')
    files["bare"].write_text('{"g": 2}')
    files["empty"].write_text("")
    files["strip"].write_text("3 2\n1 0\n0 1\n0 0\n")
    argv = [a.format(**files) for a in argv]
    assert _cap(capsys, argv) == (2, "", f"input error: {message}\n")


def test_mat_commands(capsys):
    code, out, _ = _cap(capsys, ["mat", "det", "QHEX.txt"])
    assert code == 0 and "3" in out
    code, out, _ = _cap(capsys, ["mat", "hnf", "A10.txt"])
    assert code == 0
    code, out, _ = _cap(capsys, ["mat", "solve", "AK3.txt", "--rhs", "1,1"])
    assert code == 0
    code, out, _ = _cap(capsys, ["mat", "ldlt", "Q0_2.txt"])
    assert code == 0 and "3/4" in out


def test_matroid_commands(capsys):
    code, out, _ = _cap(capsys, ["--format", "json", "matroid", "info", "A10.txt"])
    d = json.loads(out)
    assert d["rank"] == 5 and d["bases"] == 162 and d["simple"] is True
    code, out, _ = _cap(capsys, ["matroid", "isomorphic", "AK3.txt", "AK3.txt"])
    assert code == 0


def test_misc_commands(capsys):
    code, out, _ = _cap(capsys, ["qf", "show", "q0", "--g", "3"])
    assert code == 0 and out.splitlines()[0] == "3 3"
    code, out, _ = _cap(capsys, ["qf", "h-value", "--vector", "1,-1,0,0,0"])
    assert code == 0 and "-2" in out
    code, out, _ = _cap(capsys, ["qf", "is-pd", "Q5.txt"])
    assert code == 0
    code, out, _ = _cap(capsys, ["qf", "rank-normal", "Q0_2.txt"])
    assert code == 0
    code, out, _ = _cap(capsys, ["cone", "principal-contains", "QHEX.txt"])
    assert code == 0
    code, out, _ = _cap(capsys, ["dicing-check", "AK3.txt", "--samples", "2"])
    assert code == 0


def test_qf_sum_command(capsys):
    code, out, _ = _cap(capsys, [
        "--format", "json", "qf", "sum", "2",
        "SUM2_LEFT_Q.txt", "SUM2_LEFT_A.txt",
        "SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt",
    ])
    assert code == 0
    d = json.loads(out)
    assert d["form"][0] == ["1", "1/2", "1/4"]


def test_failed_reverification_is_an_internal_error(capsys, monkeypatch):
    # the two input pairs pass their checks; the glued result then fails
    # its re-verification, which is the program's fault, not the input's
    real = quadforms.is_well_suited
    calls = []

    def fail_third_call(q, a):
        calls.append(q)
        return len(calls) <= 2 and real(q, a)

    monkeypatch.setattr(quadforms, "is_well_suited", fail_third_call)
    code, out, err = _cap(capsys, [
        "qf", "sum", "2",
        "SUM2_LEFT_Q.txt", "SUM2_LEFT_A.txt",
        "SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt",
    ])
    assert (code, out, len(calls)) == (3, "", 3)
    assert err.startswith("internal error: ") and "re-verification" in err


def test_internal_runtime_error_exits_3(capsys, monkeypatch):
    # an internal fault (here a stand-in for an invalid LP certificate)
    # is reported as such, not as a traceback or an input error
    def broken(q, radius):
        raise RuntimeError("LP produced an invalid certificate")

    monkeypatch.setattr(cli, "voronoi_polytope", broken)
    code, out, err = _cap(capsys, ["vor", "I2.txt"])
    assert (code, out) == (3, "")
    assert err == "internal error: LP produced an invalid certificate\n"


# every library operation and the subcommands that reach it
OPERATION_COVERAGE = {
    "exact.determinant": ["mat det"],
    "exact.hermite_normal_form": ["mat hnf"],
    "exact.solve_exact": ["mat solve"],
    "exact.ldlt_decompose": ["mat ldlt"],
    "tumatrix.is_totally_unimodular": ["tu check"],
    "tumatrix.is_unimodular": ["tu witness"],
    "tumatrix.equivalent_unimodular": ["tu equivalent"],
    "tumatrix.seymour_sum1": ["sum 1"],
    "tumatrix.seymour_sum2": ["sum 2"],
    "tumatrix.seymour_sum3": ["sum 3"],
    "matroids.vector_matroid": ["matroid info"],
    "matroids.circuits": ["matroid info"],
    "tumatrix.is_simple_matrix": ["matroid info"],
    "matroids.graphic_representation": ["graph graphic"],
    "matroids.cographic_representation": ["graph cographic"],
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


def test_every_operation_is_reachable():
    """Every library operation exists in conelab and maps to at least one
    subcommand, and the named subcommands all exist."""
    parser = build_parser()
    top = {}
    for action in parser._subparsers._group_actions:
        for name, sp in action.choices.items():
            top[name] = sp

    def command_exists(entry: str) -> bool:
        parts = entry.split()
        if parts[0] not in top:
            return False
        sp = top[parts[0]]
        if len(parts) == 1:
            return True
        sub_actions = sp._subparsers._group_actions if sp._subparsers else []
        subnames = set()
        for action in sub_actions:
            subnames.update(action.choices)
        if sp._subparsers is None:
            # positional choice argument (e.g. `sum 2`, `verify r10`)
            for action in sp._actions:
                if action.choices:
                    subnames.update(str(c) for c in action.choices)
        else:
            for action in sp._actions:
                if action.choices and not hasattr(action.choices, "items"):
                    subnames.update(str(c) for c in action.choices)
        # flags like `delone --against` count through their parser options
        if parts[1].startswith("--"):
            return any(parts[1] in a.option_strings for a in sp._actions)
        return parts[1] in subnames

    for op, cmds in OPERATION_COVERAGE.items():
        module, name = op.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"conelab.{module}"), name, None)), \
            f"operation {op} is not a function of conelab"
        assert cmds, f"operation {op} has no subcommand"
        for cmd in cmds:
            assert command_exists(cmd), f"{cmd} (for {op}) does not exist"


def test_window_failure_is_a_window_error(capsys, tmp_path):
    # a valid PSD boundary form of AK4 whose cells the default window cannot
    # certify: the failure is the window's, not the input's
    p = tmp_path / "ak4_boundary.txt"
    p.write_text("3 3\n13/4 0 -7/4\n0 0 0\n-7/4 0 7/4\n")
    code, out, err = _cap(capsys, ["delone", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("window error:") and "input error" not in err
    assert "radius 3" in err and "--window" in err

    # vor grows its window from --radius and names that option
    code, out, err = _cap(capsys, ["vor", str(p)])
    assert code == 2 and out == ""
    assert err.startswith("window error:") and "input error" not in err
    assert "--radius" in err and "--window" not in err


# Byte-level regression guard: stdout and exit code of each command, as
# recorded in tests/golden/<name>.txt (first line "exit <code>", then the
# JSON line exactly as printed).  `verify dicings` is left out for its
# run time; the acceptance suite covers it.
GOLDEN = {
    "mat_solve_Q5": ["mat", "solve", "Q5.txt", "--rhs", "1,2,3,4,5"],
    "qf_minvec_Q5": ["qf", "minvec", "Q5.txt"],
    "qf_rank_normal_Q0_3": ["qf", "rank-normal", "Q0_3.txt"],
    "delone_QHEX": ["delone", "QHEX.txt"],
    "delone_I3": ["delone", "I3.txt"],
    "dicing_AK4": ["dicing", "AK4.txt"],
    "vor_Q0_3": ["vor", "Q0_3.txt"],
    "cone_of_matrix_AK3": ["cone", "of-matrix", "AK3.txt"],
    "tu_witness_A10": ["tu", "witness", "A10.txt"],
    "verify_r10": ["verify", "r10"],
    "verify_taxonomy_g2": ["verify", "taxonomy-g2"],
    "verify_principal_g3": ["verify", "principal", "--g", "3"],
    "verify_seymour": ["verify", "seymour"],
    "sum1_AK3_AK3": ["sum", "1", "AK3.txt", "AK3.txt"],
    "sum2_SUM2": ["sum", "2", "SUM2_LEFT_A.txt", "SUM2_RIGHT_A.txt"],
    "sum3_SUM3": ["sum", "3", "SUM3_LEFT_A.txt", "SUM3_RIGHT_A.txt"],
    "sum3_SUM3Z": ["sum", "3", "SUM3Z_LEFT_A.txt", "SUM3Z_RIGHT_A.txt"],
    "qf_sum1_K3_K3": ["qf", "sum", "1", "Q0_2.txt", "AK3.txt", "Q0_2.txt", "AK3.txt"],
    "qf_sum2_SUM2": ["qf", "sum", "2", "SUM2_LEFT_Q.txt", "SUM2_LEFT_A.txt",
                     "SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt"],
    "qf_sum3_SUM3": ["qf", "sum", "3", "SUM3_LEFT_Q.txt", "SUM3_LEFT_A.txt",
                     "SUM3_RIGHT_Q.txt", "SUM3_RIGHT_A.txt"],
    "qf_sum3_SUM3Z": ["qf", "sum", "3", "SUM3Z_LEFT_Q.txt", "SUM3Z_LEFT_A.txt",
                      "SUM3Z_RIGHT_Q.txt", "SUM3Z_RIGHT_A.txt"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_matches_golden(capsys, monkeypatch, name):
    monkeypatch.delenv("CONELAB_SEED", raising=False)  # goldens use the default seed
    code, out, _ = _cap(capsys, ["--format", "json"] + GOLDEN[name])
    golden = (Path(__file__).parent / "golden" / f"{name}.txt").read_text()
    assert f"exit {code}\n{out}" == golden


# Byte-level guard on what the JSON goldens miss: the --help of every
# parser, and the exit code and stdout of each command in text and JSON.
# One sha256 covers the whole transcript; `verify`'s wall time is masked.
HELP_PATHS = [
    [], ["mat"], ["tu"], ["matroid"], ["qf"], ["cone"],
    ["mat", "det"], ["mat", "hnf"], ["mat", "solve"], ["mat", "ldlt"],
    ["tu", "check"], ["tu", "witness"], ["tu", "equivalent"],
    ["matroid", "info"], ["matroid", "isomorphic"], ["graph"], ["sum"],
    ["qf", "minvec"], ["qf", "perfect-cone"], ["qf", "is-pd"], ["qf", "rank-normal"],
    ["qf", "well-suited"], ["qf", "sum"], ["qf", "show"], ["qf", "h-value"],
    ["cone", "of-matrix"], ["cone", "member"], ["cone", "face"], ["cone", "support"],
    ["cone", "delete"], ["cone", "conjugate"], ["cone", "principal-contains"],
    ["delone"], ["dicing"], ["dicing-check"], ["vor"], ["zonotope-check"], ["verify"],
]

INVOCATIONS = [
    ["mat", "det", "QHEX.txt"],
    ["mat", "hnf", "AK4.txt"],
    ["mat", "solve", "AK3.txt", "--rhs", "1,1"],
    ["mat", "solve", "{flat}", "--rhs", "1,2"],
    ["mat", "ldlt", "Q0_2.txt"],
    ["mat", "ldlt", "{flat}"],
    ["tu", "check", "AK3.txt"],
    ["tu", "check", "{nontu}"],
    ["tu", "witness", "AK4.txt"],
    ["tu", "witness", "{nontu}"],
    ["tu", "equivalent", "AK3.txt", "AK3.txt"],
    ["tu", "equivalent", "AK3.txt", "I2.txt"],
    ["matroid", "info", "AK4.txt"],
    ["matroid", "isomorphic", "AK3.txt", "AK3.txt"],
    ["matroid", "isomorphic", "AK3.txt", "I2.txt"],
    ["graph", "graphic", "K4.graph"],
    ["graph", "cographic", "THETA.graph"],
    ["sum", "1", "AK3.txt", "AK3.txt"],
    ["sum", "2", "SUM2_LEFT_A.txt", "SUM2_RIGHT_A.txt"],
    ["sum", "3", "SUM3_LEFT_A.txt", "SUM3_RIGHT_A.txt"],
    ["qf", "minvec", "QHEX.txt"],
    ["qf", "perfect-cone", "Q0_2.txt"],
    ["qf", "is-pd", "Q5.txt"],
    ["qf", "is-pd", "{flat}"],
    ["qf", "rank-normal", "{flat}"],
    ["qf", "well-suited", "Q0_2.txt", "AK3.txt"],
    ["qf", "well-suited", "QHEX.txt", "AK3.txt"],
    ["qf", "sum", "1", "Q0_2.txt", "AK3.txt", "Q0_2.txt", "AK3.txt"],
    ["qf", "show", "q5"],
    ["qf", "show", "q0", "--g", "3"],
    ["qf", "h-value", "Q5.txt"],
    ["qf", "h-value", "--vector", "1,-1,0,0,0"],
    ["cone", "of-matrix", "AK3.txt"],
    ["cone", "member", "QHEX.txt", "{cone}"],
    ["cone", "member", "Q0_2.txt", "{cone}"],
    ["cone", "face", "{sub}", "{cone}"],
    ["cone", "face", "{cone}", "{sub}"],
    ["cone", "support", "{cone}", "--zero", "0,2"],
    ["cone", "delete", "{cone}", "--indices", "1"],
    ["cone", "conjugate", "{h}", "{cone}"],
    ["cone", "principal-contains", "QHEX.txt"],
    ["cone", "principal-contains", "Q5.txt"],
    ["delone", "QHEX.txt"],
    ["delone", "QHEX.txt", "--against", "I2.txt", "--window", "3"],
    ["dicing", "AK3.txt"],
    ["dicing-check", "AK3.txt", "--samples", "2"],
    ["vor", "I2.txt", "--radius", "2"],
    ["zonotope-check", "AK3.txt", "--radius", "2"],
    ["verify", "r10"],
    ["verify", "principal", "--g", "2", "--samples", "5"],
    ["verify", "taxonomy-g2", "--samples", "1", "--seed", "7"],
    ["verify", "seymour", "--samples", "5"],
    ["verify", "dicings", "--samples", "1"],
]

TRANSCRIPT_SHA256 = "ebd4763644737efa67f09e4498ccdc152bfbfca09f319a4a0825f111c2d6180f"


def _transcript(capsys, tmp_path) -> str:
    files = {"flat": tmp_path / "flat.txt", "nontu": tmp_path / "nontu.txt",
             "cone": tmp_path / "cone.json", "sub": tmp_path / "sub.json",
             "h": tmp_path / "h.txt"}
    files["flat"].write_text("2 2\n1 1\n1 1\n")
    files["nontu"].write_text("2 2\n1 1\n1 -1\n")
    files["cone"].write_text('{"g": 2, "generators": [[1, 0], [0, 1], [1, -1]], '
                             '"simplicial": true}')
    files["sub"].write_text('{"g": 2, "generators": [[1, 0], [0, 1]], "simplicial": true}')
    files["h"].write_text("2 2\n1 1\n0 1\n")
    parts = []
    for path in HELP_PATHS:
        with pytest.raises(SystemExit) as exc:
            run(path + ["--help"])
        parts.append(f"$ {' '.join(path)} --help\nexit {exc.value.code}\n"
                     + capsys.readouterr().out)
    for argv in INVOCATIONS:
        argv = [a.format(**files) for a in argv]
        for fmt in ("text", "json"):
            code, out, _ = _cap(capsys, ["--format", fmt] + argv)
            out = re.sub(r"(\(seed \d+, )[0-9.]+s\)", r"\1<wall>s)", out)
            parts.append(f"$ --format {fmt} {' '.join(argv[:2])}\nexit {code}\n{out}")
    return "".join(parts)


def test_help_and_text_transcript_is_pinned(capsys, monkeypatch, tmp_path):
    if sys.version_info[:2] != (3, 11):
        pytest.skip("argparse's help layout differs between Python minor versions; "
                    "the digest was recorded with Python 3.11")
    monkeypatch.delenv("CONELAB_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    text = _transcript(capsys, tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSCRIPT_SHA256
