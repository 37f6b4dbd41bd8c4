import json

import pytest

from conelab import verify
from conelab.exact import IntMatrix, RatMatrix
from conelab.fixtures import load_int_matrix
from conelab.verify import (
    verify_dicings,
    verify_principal,
    verify_r10,
    verify_seymour_pipeline,
    verify_taxonomy_g2,
)


def test_r10_passes_with_five_rows():
    rep = verify_r10()
    assert rep.status == "pass"
    assert len(rep.evidence) == 5
    assert all(row.ok for row in rep.evidence)


def test_r10_fault_injection_tu_row(monkeypatch):
    bad = [list(row) for row in load_int_matrix("A10.txt").data]
    bad[0][5] = -bad[0][5]  # one sign flip creates a |det| = 2 submatrix
    real = load_int_matrix
    monkeypatch.setattr(verify.fixtures, "load_int_matrix",
                        lambda name: IntMatrix(bad) if name == "A10.txt" else real(name))
    rep = verify_r10()
    assert rep.status == "fail"
    assert not rep.evidence[0].ok  # fails at the total unimodularity row


def test_r10_fault_injection_zero_functional(monkeypatch):
    monkeypatch.setattr(verify, "h_functional_matrix", lambda: RatMatrix([[0] * 5] * 5))
    rep = verify_r10()
    assert rep.status == "fail"
    # the functional-values row and the strict-negativity side of the face
    # row both break
    assert not rep.evidence[3].ok
    assert not rep.evidence[4].ok
    # everything unrelated still passes
    assert rep.evidence[0].ok and rep.evidence[1].ok and rep.evidence[2].ok


@pytest.mark.parametrize("g", [2, 3, 4])
def test_principal_scenario(g):
    rep = verify_principal(g, samples=30)
    assert rep.status == "pass", rep.to_text()


def test_principal_rejects_bad_dimension():
    with pytest.raises(ValueError):
        verify_principal(7)


def test_taxonomy_scenario():
    rep = verify_taxonomy_g2(samples=3)
    assert rep.status == "pass", rep.to_text()
    assert len(rep.evidence) == 4


def test_seymour_scenario():
    rep = verify_seymour_pipeline(samples=100)
    assert rep.status == "pass", rep.to_text()


def test_dicings_scenario_small():
    rep = verify_dicings(samples=1)
    assert rep.status == "pass", rep.to_text()


def test_reports_are_deterministic_given_seed():
    a = verify_principal(2, samples=20, seed=7).to_json_dict()
    b = verify_principal(2, samples=20, seed=7).to_json_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b
    assert a["seed"] == 7


def test_report_json_shape():
    rep = verify_r10()
    d = rep.to_json_dict()
    assert set(d) == {"scenario", "status", "seed", "wall_time_s", "evidence"}
    for row in d["evidence"]:
        assert set(row) == {"claim", "computed", "expected", "provenance", "ok"}
    json.dumps(d)  # serializable
    text = rep.to_text()
    assert "scenario: r10" in text and "[pass]" in text
