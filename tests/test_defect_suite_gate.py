"""The defect-suite benchmark's correctness gate, inside the tier-1 suite.

perfbench/run.py rejects a defect-suite-128 run when an instance raises or
does not pass, when an integer skeleton (defect dim, bound, witness count)
differs from perfbench/reference.json, or when the output digests of two
passes differ.  This test runs the benchmark's own workload code on seeds
0 to 9 and applies the first two checks; on seed 0 it runs a second pass
and applies the third.  The reference skeletons do not depend on the seed,
so a change that drifts on one seed only fails here.  A library change
that would fail the benchmark's gate fails here first.  The test reads
perfbench/ and writes nothing there.
"""

import json

import pytest

from conftest import PERFBENCH, load_perfbench_workloads


def _gated_pass(monkeypatch, tmp_path, seed):
    """One benchmark pass on `seed`, checked as perfbench/run.py checks it."""
    workloads = load_perfbench_workloads(monkeypatch)
    workload = workloads.DefectSuiteWorkload(seed, tmp_path)
    result = workload.run_pass()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    failing = [
        s.scenario_id for s, ok in zip(workload.scenarios, result.verdicts) if not ok
    ]
    assert len(result.verdicts) == workloads.DEFECT_SUITE_SIZE
    assert not failing
    assert result.skeletons == reference["defect-suite-128"]
    return workload, result


def test_defect_suite_passes_the_benchmark_gate(monkeypatch, tmp_path):
    workload, result = _gated_pass(monkeypatch, tmp_path, 0)
    # nothing kept across calls may change the output bytes
    assert workload.run_pass().digest == result.digest


@pytest.mark.parametrize("seed", range(1, 10))
def test_defect_suite_passes_the_benchmark_gate_on_other_seeds(monkeypatch, tmp_path, seed):
    _gated_pass(monkeypatch, tmp_path, seed)
