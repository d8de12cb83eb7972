"""Tests of the benchmark's own machinery (not of the library).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from neartoep import cli, runner  # noqa: E402
from tracer import Tracer  # noqa: E402

SUITES = (workloads.defect_suite, workloads.run_suite)


@pytest.mark.parametrize("make", SUITES)
def test_same_seed_same_bytes_and_new_seed_new_bytes(make):
    first = workloads.suite_json(make(7))
    assert workloads.suite_json(make(7)) == first
    assert workloads.suite_json(make(8)) != first


@pytest.mark.parametrize("make", SUITES)
def test_generated_scenarios_load_and_run_without_input_errors(make, tmp_path):
    text = workloads.suite_json(make(3))
    scenarios = runner.scenarios_from_json(json.loads(text))
    assert [s.to_json_dict() for s in scenarios] == json.loads(text)["scenarios"]
    for s in scenarios:
        assert s.truncation >= runner.required_truncation(s.symbol, s.perturbation)
    path = tmp_path / "suite.json"
    path.write_text(text, encoding="utf-8")
    # A reduced truncation (still above the headroom floor) keeps this fast;
    # the schema and invariant checks behind exit 2 do not depend on it.
    code = cli.main(["run", str(path), "--truncation", "64", "--no-stabilize",
                     "--json-out", str(tmp_path / "out.json")])
    assert code != cli.EXIT_INPUT_ERROR


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    tracer = Tracer("synthetic", clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()  # 1.0 .. 4.0
        inner()  # 5.0 .. 7.0

    tracer.wrap("outer", body)()  # 0.0 .. 10.0
    outer, child = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.incl_s, outer.self_s) == (1, 10.0, 5.0)
    assert (child.calls, child.incl_s, child.self_s) == (2, 5.0, 5.0)
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["inner"][2] == by_name["outer"][1]  # parent id
    assert by_name["outer"][2] is None


def test_tracer_restores_every_binding():
    package = {k: m for k, m in sys.modules.items()
               if m is not None and (k == "neartoep" or k.startswith("neartoep."))}
    before = {(k, attr): value for k, m in package.items() for attr, value in vars(m).items()}
    original = sys.modules["neartoep.subspaces"].kernel_subspace
    tracer, _ = layers.traced("restore-check")
    with tracer:
        for consumer in ("neartoep.subspaces", "neartoep.defects", "neartoep.runner",
                         "neartoep.cgp", "neartoep.cli", "neartoep"):
            assert sys.modules[consumer].kernel_subspace is not original
    after = {(k, attr): value for k, m in package.items() for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_file_names_every_reported_metric():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
