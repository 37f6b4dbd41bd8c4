"""The benchmark's own test: work counts repeat exactly, and the trace adds up.

Runs every workload twice as separate processes (so with different string
hash seeds), each time one untraced and one traced pass, and asserts that
the work counts are identical between the two runs.  Not part of the
package's test suite; run it with

    python3 -m pytest -q perfbench/test_repeat.py

It takes about two minutes on a 2-CPU machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("interior-dicing", "perfect-voronoi", "boundary-dicing")
SEED = 5


def traced_run(workload: str) -> dict:
    # --seconds 0 still makes one untraced and one traced pass
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_trace_adds_up(workload):
    first, second = traced_run(workload), traced_run(workload)
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts, "no work counts reported"
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    for key in ("attempted", "failed", "correct"):
        assert first[key] == second[key]
    assert first["correct"]

    m = {k: v["value"] for k, v in first["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert layers + m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert m["trace.uncovered_s"] >= 0

    if workload != "boundary-dicing":
        assert first["failed"] == 0
    if workload == "perfect-voronoi":
        assert m["delone.delone_subdivision.calls"] == 0
