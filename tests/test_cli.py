"""Command-line behavior: exit codes, diagnostics, reproducible reports."""

import json
import math

import numpy as np
import pytest

from conftest import count_calls
from neartoep import subspaces
from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.cli import main
from neartoep.errors import HeadroomError, InputError
from neartoep.operators import ConjInnerSymbol, InnerSymbol, PerturbationSpec, ZeroSymbol
from neartoep.runner import (
    Scenario,
    Tolerances,
    run_scenario,
    run_suite,
    scenarios_from_json,
)
from neartoep.series import AnalyticSeries, inner_product, multiply_analytic

N = 64
INNER = 24


def basic_scenario_dict(scenario_id="demo", seed=3):
    return {
        "scenario_id": scenario_id,
        "truncation": N,
        "inner_truncation": INNER,
        "seed": seed,
        "symbol": {
            "tag": "inner",
            "product": BlaschkeProduct.from_points([0.3]).to_json_dict(),
        },
        "perturbation": {
            "terms": [
                {
                    "u": {
                        "truncation": 4,
                        "coeffs": [
                            [1 / math.sqrt(2), 0],
                            [1 / math.sqrt(2), 0],
                            [0, 0],
                            [0, 0],
                        ],
                    },
                    "v": {
                        "truncation": 4,
                        "coeffs": [[0, 0], [0.5, 0], [0, 0], [0, 0]],
                    },
                }
            ]
        },
        "checks": ["kernel", "defect", "witness", "cgp"],
    }


def failing_scenario_dict():
    # vanishing-selector branch: representation check fails by construction
    n = N
    th = BlaschkeProduct(z_power=3)
    th_exp = blaschke_expand(th, n)
    s = AnalyticSeries.from_coeffs([0.0, 1.0, 0.5], n)
    v = 2.0 * s
    kappa = np.conj(-1.0 / complex(inner_product(v, s)))
    u_theta = kappa * multiply_analytic(th_exp, s)
    u1 = s * (np.sqrt(1.0 - u_theta.norm() ** 2) / s.norm())
    pert = PerturbationSpec(((u1 + u_theta, v),))
    scenario = Scenario(
        symbol=ConjInnerSymbol(th),
        perturbation=pert,
        scenario_id="gap",
        truncation=n,
        inner_truncation=INNER,
        checks=("cgp",),
    )
    return scenario.to_json_dict()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_scenario_round_trip_preserves_semantics():
    data = basic_scenario_dict()
    scenario = scenarios_from_json(data)[0]
    again = Scenario.from_json_dict(scenario.to_json_dict())
    assert again.scenario_id == scenario.scenario_id
    assert again.checks == scenario.checks
    assert again.tolerances == scenario.tolerances
    assert isinstance(again.symbol, InnerSymbol)


def test_scenario_schema_violations():
    data = basic_scenario_dict()
    data["mystery"] = 1
    with pytest.raises(InputError):
        scenarios_from_json(data)
    with pytest.raises(InputError):
        scenarios_from_json({"scenarios": []})
    missing = basic_scenario_dict()
    del missing["symbol"]
    with pytest.raises(InputError):
        scenarios_from_json(missing)
    bad_tol = basic_scenario_dict()
    bad_tol["tolerances"] = {"rank": 2.0}
    with pytest.raises(InputError):
        scenarios_from_json(bad_tol)
    with pytest.raises(InputError):
        Tolerances(membership=-1e-9)


def test_headroom_rule_names_headroom():
    data = basic_scenario_dict()
    data["truncation"] = 6
    with pytest.raises(HeadroomError, match="headroom"):
        scenarios_from_json(data)


def test_run_scenario_without_stabilization():
    scenario = scenarios_from_json(basic_scenario_dict())[0]
    report = run_scenario(scenario, stabilize=False)
    assert report.stability is None
    assert report.passed
    payload = report.to_json_dict()
    assert "elapsed" not in json.dumps(payload)


@pytest.mark.parametrize(
    "checks",
    [["kernel"], ["kernel", "defect", "witness"]],
    ids=["kernel", "kernel-defect-witness"],
)
def test_kernel_check_and_stability_audit_share_one_instance(monkeypatch, checks):
    data = basic_scenario_dict()
    data["checks"] = checks
    scenario = scenarios_from_json(data)[0]
    calls = count_calls(monkeypatch, subspaces, "kernel_subspace")
    report = run_scenario(scenario, stabilize=True)
    assert report.passed
    assert [args[0].truncation for args, _ in calls] == [N, 2 * N]


def test_run_suite_rejects_duplicate_ids():
    scenario = scenarios_from_json(basic_scenario_dict())[0]
    with pytest.raises(InputError, match="duplicate"):
        run_suite([scenario, scenario])


def test_cli_run_passes_and_report_is_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "scenario.json", basic_scenario_dict())
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    assert main(["run", path, "--json-out", str(out1)]) == 0
    assert main(["run", path, "--json-out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "0 failing" in stdout
    payload = json.loads(out1.read_text())
    assert payload["passed"] is True
    assert payload["scenarios"][0]["stability"]["stable_at_double"] is True
    checks = [o["check"] for o in payload["scenarios"][0]["outcomes"]]
    assert checks == ["kernel", "defect", "witness", "cgp"]


def test_cli_run_seed_override_changes_nothing_structural(tmp_path):
    path = write(tmp_path, "scenario.json", basic_scenario_dict())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", path, "--seed", "11", "--json-out", str(out1)]) == 0
    assert main(["run", path, "--seed", "11", "--json-out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_run_verification_failure_exits_one(tmp_path, capsys):
    path = write(tmp_path, "gap.json", failing_scenario_dict())
    assert main(["run", path, "--no-stabilize"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_suite_file_runs_every_scenario(tmp_path, capsys):
    suite = {
        "scenarios": [
            basic_scenario_dict("first"),
            basic_scenario_dict("second", seed=9),
        ]
    }
    path = write(tmp_path, "suite.json", suite)
    assert main(["run", path, "--no-stabilize"]) == 0
    out = capsys.readouterr().out
    assert "first" in out and "second" in out and "2 scenarios" in out


def test_cli_exit_two_on_schema_and_invariant_errors(tmp_path, capsys):
    bad_u = basic_scenario_dict()
    bad_u["perturbation"]["terms"][0]["u"]["coeffs"] = [
        [1, 0], [1, 0], [0, 0], [0, 0]
    ]
    path = write(tmp_path, "bad_u.json", bad_u)
    assert main(["run", path]) == 2
    assert "perturbation invariant" in capsys.readouterr().err

    low = basic_scenario_dict()
    low["truncation"] = 6
    path = write(tmp_path, "low.json", low)
    assert main(["run", path]) == 2
    assert "headroom" in capsys.readouterr().err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["run", str(garbled)]) == 2
    assert "JSON" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_defect_command(tmp_path, capsys):
    path = write(tmp_path, "scenario.json", basic_scenario_dict())
    out = tmp_path / "defect.json"
    assert main(["defect", path, "--json-out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "defect dim" in stdout and "PASS" in stdout
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["defect"]["defect_dim"] <= payload["defect"]["bound_from_theorem"]


def test_cli_kernel_command(tmp_path, capsys):
    path = write(tmp_path, "scenario.json", basic_scenario_dict())
    out = tmp_path / "kernel.json"
    assert main(["kernel", path, "--json-out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "kernel dim" in stdout
    payload = json.loads(out.read_text())
    run_out = tmp_path / "run.json"
    assert main(["run", path, "--no-stabilize", "--json-out", str(run_out)]) == 0
    outcomes = json.loads(run_out.read_text())["scenarios"][0]["outcomes"]
    run_kernel = next(o["details"] for o in outcomes if o["check"] == "kernel")
    assert payload["kernel"]["dim"] == len(payload["kernel"]["frame"])
    assert payload["kernel"]["dim"] == run_kernel["kernel_dim"]
    assert payload["column_cap"] == N // 2
    assert payload["ambiguous_singular_values"] == []


def test_cli_single_scenario_commands_reject_suites(tmp_path, capsys):
    suite = {"scenarios": [basic_scenario_dict("a"), basic_scenario_dict("b")]}
    path = write(tmp_path, "suite.json", suite)
    assert main(["defect", path]) == 2
    assert "exactly one scenario" in capsys.readouterr().err


def test_cli_verify_paper_default_passes(tmp_path, capsys):
    out = tmp_path / "catalogue.json"
    assert main(["verify-paper", "--json-out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "0 failing" in stdout
    payload = json.loads(out.read_text())
    assert payload["passed"] is True and len(payload["rows"]) == 28


def test_cli_verify_paper_low_resolution_fails_cleanly(capsys):
    # at this resolution one reproducing-kernel row genuinely lacks tail room
    code = main(["verify-paper", "--truncation", "64", "--inner-truncation", "24"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED: rep-annihilator-kernel-direction" in captured.err


def test_cli_report_is_single_line_sorted_json(tmp_path, capsys):
    # The writer's format is pinned: a switch back to indented output must
    # be made on purpose.
    out = tmp_path / "catalogue.json"
    main(["verify-paper", "--truncation", "64", "--json-out", str(out)])
    raw = out.read_bytes()
    redumped = json.dumps(json.loads(raw), sort_keys=True) + "\n"
    assert redumped.encode("utf-8") == raw
