"""A tier-1 slice of the run-512 benchmark gate, and the benchmark's BLAS pin.

perfbench/run.py rejects a run-512 pass when a scenario fails or when an
integer skeleton (kernel dim at N and 2N, defect dim, bound, witness count)
differs from perfbench/reference.json.  This test runs four of its twelve
scenarios through runner.run_scenario with the 2N stability audit: the
zero symbol's cofinite kernel (254 witnesses), an inner symbol (its
windows have no zero rows), an invertible symbol (its 2N window has only
515 nonzero rows) and a conjugate-inner finite kernel with defect 2.  A
strict xfail pins a suite scenario that, moved to N = 64, passes its
checks on a window kernel that lost a direction.  The tests read
perfbench/ and write nothing there.
"""

import dataclasses
import json
import os

import pytest

from conftest import BLAS_THREAD_VARS, PERFBENCH, load_perfbench_workloads
from neartoep import runner
from neartoep.errors import InputError

SCENARIO_IDS = {
    0: "000-zero-r1-d3-z0",
    1: "001-inner-r1-d3-z0",
    2: "002-invertible-r1-d3-z0",
    3: "003-conj_inner-r1-d3-z0",
}


@pytest.mark.parametrize("index", sorted(SCENARIO_IDS))
def test_run_suite_scenario_matches_the_benchmark_reference(monkeypatch, index):
    workloads = load_perfbench_workloads(monkeypatch)
    scenario = workloads.run_suite(0)[index]
    assert scenario.scenario_id == SCENARIO_IDS[index]
    report = runner.run_scenario(scenario, stabilize=True)
    details = {o.check: o.details for o in report.outcomes}
    # the skeleton RunSuiteWorkload.run_pass builds for this scenario
    skeleton = workloads._skeleton(
        kernel_dim=details["kernel"]["kernel_dim"],
        defect_dim=details["defect"]["defect_dim"],
        bound=details["defect"]["bound_from_theorem"],
        passed=report.passed,
        witnesses=details["witness"]["entries"],
        kernel_dim_doubled=report.stability["kernel_dim_doubled"],
    )
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert report.passed
    assert skeleton == reference["run-512"][index]
    assert report.stability["defect_dim_doubled"] == skeleton["defect_dim"]


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="ROADMAP items 1(b) and 9: at N = 64 the SVD kernel has dim 2 where "
    "structured_kernel has dim 3 with a window tail of 7.1e-6; the kernel, "
    "defect and witness checks pass on the SVD kernel and only the 2N audit "
    "fails the scenario, where item 9 asks for exit 2 with a named reason",
)
def test_window_that_truncates_a_kernel_direction_is_rejected_at_n64(monkeypatch):
    workloads = load_perfbench_workloads(monkeypatch)
    scenario = workloads.run_suite(3)[11]
    assert scenario.scenario_id == "011-conj_inner-r3-d3-z2"
    with pytest.raises(InputError):
        runner.run_scenario(dataclasses.replace(scenario, truncation=64), stabilize=False)


def test_blas_threads_are_pinned_as_in_the_benchmark():
    assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == dict.fromkeys(
        BLAS_THREAD_VARS, "1"
    )
