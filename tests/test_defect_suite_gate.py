"""The defect-suite benchmark's correctness gate, inside the tier-1 suite.

perfbench/run.py rejects a defect-suite-128 run when an instance raises or
does not pass, or when an integer skeleton (defect dim, bound, witness
count) differs from perfbench/reference.json.  This test runs one pass of
the benchmark's own workload code on seed 0 and applies both checks, so a
library change that would fail them fails here first.  The benchmark's
third check, equal output digests across passes, would double the cost and
is left to the benchmark.  The test reads perfbench/ and writes nothing
there.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up by name while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_defect_suite_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    workload = workloads.DefectSuiteWorkload(0, tmp_path)
    result = workload.run_pass()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    failing = [
        s.scenario_id for s, ok in zip(workload.scenarios, result.verdicts) if not ok
    ]
    assert len(result.verdicts) == workloads.DEFECT_SUITE_SIZE
    assert not failing
    assert result.skeletons == reference["defect-suite-128"]
