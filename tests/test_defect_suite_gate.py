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

import json

from conftest import PERFBENCH, load_perfbench_workloads


def test_defect_suite_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = load_perfbench_workloads(monkeypatch)
    workload = workloads.DefectSuiteWorkload(0, tmp_path)
    result = workload.run_pass()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    failing = [
        s.scenario_id for s, ok in zip(workload.scenarios, result.verdicts) if not ok
    ]
    assert len(result.verdicts) == workloads.DEFECT_SUITE_SIZE
    assert not failing
    assert result.skeletons == reference["defect-suite-128"]
