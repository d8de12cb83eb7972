"""A tier-1 slice of the run-512 benchmark gate, and the benchmark's BLAS pin.

perfbench/run.py rejects a run-512 pass when a scenario fails or when an
integer skeleton (kernel dim at N and 2N, defect dim, bound, witness count)
differs from perfbench/reference.json.  This test runs four of its twelve
scenarios through runner.run_scenario with the 2N stability audit: the
zero symbol's cofinite kernel (254 witnesses), an inner symbol (its
windows have no zero rows), an invertible symbol (its 2N window has only
515 nonzero rows) and a conjugate-inner finite kernel with defect 2.  A
suite scenario whose kernel, moved to N = 64, reaches past the window
fails its kernel and witness checks, and a strict xfail pins the named
exit 2 it should get instead.  A pin holds the whole suite's shapes at
N = 128 to the thin side: a complete QR only for the zero symbol's kernel
frame, and no np.convolve of two factors that the FFT should multiply.
The tests read perfbench/ and write nothing there.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import BLAS_THREAD_VARS, PERFBENCH, linalg_calls, load_perfbench_workloads
from neartoep import cli, runner, series
from neartoep.defects import WITNESS_KERNEL_TOL
from neartoep.errors import InputError
from neartoep.operators import ZeroSymbol

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


def _run_suite_scenario_at_n64(monkeypatch):
    workloads = load_perfbench_workloads(monkeypatch)
    scenario = workloads.run_suite(3)[11]
    assert scenario.scenario_id == "011-conj_inner-r3-d3-z2"
    return dataclasses.replace(scenario, truncation=64)


def test_window_that_truncates_a_kernel_direction_fails_its_checks_at_n64(
    monkeypatch, tmp_path
):
    # At N = 64 the kernel has dim 3 with a window tail of 7.1e-6 (a window
    # SVD found dim 2, and the checks passed on it).  The kernel check fails
    # on the tail, also when it is the only check, and the witness check on
    # the window cut's kernel residuals: exit 1, not 2.
    scenario = _run_suite_scenario_at_n64(monkeypatch)
    outcomes = {
        o.check: o for o in runner.run_scenario(scenario, stabilize=False).outcomes
    }
    kernel, witness = outcomes["kernel"], outcomes["witness"]
    assert kernel.details["kernel_dim"] == 3
    assert kernel.details["window_tail"] > 1e-6
    assert not kernel.passed and not witness.passed
    assert witness.details["max_kernel_residual"] >= WITNESS_KERNEL_TOL
    alone = dataclasses.replace(scenario, checks=("kernel",))
    assert not runner.run_scenario(alone, stabilize=False).passed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(alone.to_json_dict()), encoding="utf-8")
    assert cli.main(["kernel", str(path)]) == cli.EXIT_VERIFICATION_FAILED


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="ROADMAP item 9: at N = 64 the kernel reaches 7.1e-6 past the "
    "window; the kernel and witness checks fail the scenario (exit 1), "
    "where item 9 asks for exit 2 with a reason that names the window",
)
def test_window_that_truncates_a_kernel_direction_is_rejected_at_n64(monkeypatch):
    with pytest.raises(InputError):
        runner.run_scenario(_run_suite_scenario_at_n64(monkeypatch), stabilize=False)


def test_run_suite_takes_complete_qrs_only_for_zero_symbol_frames_and_no_long_convolution(
    monkeypatch,
):
    workloads = load_perfbench_workloads(monkeypatch)
    scenarios = [
        workloads.scenario(0, i, workloads.run_suite_shape(i), 128, workloads.RUN_SUITE_CHECKS)
        for i in range(3 * len(workloads.FAMILIES))
    ]
    qr_calls = linalg_calls(monkeypatch, "qr")
    convolve_calls = []
    convolve = np.convolve

    def recorded(a, v, *args, **kwargs):
        convolve_calls.append((np.size(a), np.size(v)))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", recorded)
    report = runner.run_suite(scenarios, stabilize=True)
    assert all(s.passed for s in report.scenarios)
    complete = [
        args[0].shape for args, kwargs in qr_calls
        if kwargs.get("mode", args[1] if len(args) > 1 else "reduced") == "complete"
    ]
    # one per zero-symbol kernel frame at N, each from the rank-wide
    # complement (rank 1..3); the 2N audit builds none
    zero_ranks = [
        s.perturbation.rank_bound for s in scenarios if isinstance(s.symbol, ZeroSymbol)
    ]
    assert complete == [(64, rank) for rank in zero_ranks]
    assert convolve_calls
    assert all(min(sizes) < series.FFT_MIN_SUPPORT for sizes in convolve_calls)


def test_blas_threads_are_pinned_as_in_the_benchmark():
    assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == dict.fromkeys(
        BLAS_THREAD_VARS, "1"
    )
