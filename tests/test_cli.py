"""Command-line behavior: exit codes, diagnostics, reproducible reports."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    count_calls,
    disk_invertible_poly,
    linalg_calls,
    seeded_perturbation,
    svd_kernel,
)
from neartoep import defects, subspaces
from neartoep.blaschke import BlaschkeProduct, blaschke_expand
from neartoep.cli import main
from neartoep.defects import WITNESS_KERNEL_TOL, Instance
from neartoep.errors import HeadroomError, InputError
from neartoep.operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    ZeroSymbol,
)
from neartoep.runner import (
    Scenario,
    kernel_outcome,
    kernel_profile,
    run_scenario,
    run_suite,
    scenarios_from_json,
    stability_summary,
)
from neartoep.series import AnalyticSeries, inner_product, multiply_analytic

N = 64


def basic_scenario_dict(scenario_id="demo", seed=3):
    return {
        "scenario_id": scenario_id,
        "truncation": N,
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
    [["kernel"], ["kernel", "defect", "witness"], ["kernel", "defect", "witness", "cgp"]],
    ids=["kernel", "kernel-defect-witness", "kernel-defect-witness-cgp"],
)
def test_kernel_check_and_stability_audit_share_one_instance(monkeypatch, checks):
    data = basic_scenario_dict()
    data["checks"] = checks
    scenario = scenarios_from_json(data)[0]
    kernels = count_calls(monkeypatch, subspaces, "kernel_subspace")
    models = count_calls(monkeypatch, defects, "model_space")
    report = run_scenario(scenario, stabilize=True)
    assert report.passed
    # The scenario's symbol is inner: every check and the 2N audit read the
    # structured kernel, which builds K_theta once per truncation, so one
    # Instance serves each truncation.  No kernel comes from a window SVD.
    assert [args[1] for args, _ in models] == [N, 2 * N]
    assert kernels == []


def test_doubled_audit_of_a_conj_inner_instance_svds_only_small_systems(monkeypatch):
    theta = BlaschkeProduct.from_points([0.3, -0.4j], z_power=1)
    pert = seeded_perturbation(np.random.default_rng(404), N, rank=2, max_degree=6)
    inst = Instance(ConjInnerSymbol(theta), pert, N)
    kernel_profile(inst)  # the N side, whose kernel the checks measure
    calls = linalg_calls(monkeypatch, "svd")
    assert stability_summary(inst)["stable_at_double"]
    widths = [args[0].shape[1] for args, _ in calls]
    # An SVD of the 2N window would be N columns wide.
    assert widths and max(widths) <= pert.rank_bound + theta.degree()


def test_doubled_audit_of_a_zero_symbol_instance_svds_only_r_wide_blocks(monkeypatch):
    pert = seeded_perturbation(np.random.default_rng(101), N, rank=2, max_degree=6)
    inst = Instance(ZeroSymbol(), pert, N)
    kernel_profile(inst)  # the N side, whose kernel the checks measure
    calls = linalg_calls(monkeypatch, "svd")
    assert stability_summary(inst)["stable_at_double"]
    widths = [args[0].shape[1] for args, _ in calls]
    # An SVD of the 2N window would be N columns wide.
    assert widths and max(widths) <= pert.rank_bound
    # Nor is the 2N operator, kernel frame or vanishing frame built.
    assert not {"operator", "structured_kernel", "vanishing"} & set(inst.doubled.__dict__)


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


# `neartoep run` in a fresh interpreter where every import of scipy fails.
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
import neartoep
from neartoep import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_run_needs_no_scipy(tmp_path):
    rng = np.random.default_rng(64)
    symbols = (
        ZeroSymbol(),
        InnerSymbol(BlaschkeProduct.from_points([0.3, -0.2j])),
        InvertibleProductSymbol(disk_invertible_poly(rng, N), disk_invertible_poly(rng, N)),
        ConjInnerSymbol(BlaschkeProduct.from_points([0.4], z_power=1)),
    )
    suite = {
        "scenarios": [
            Scenario(
                sym, seeded_perturbation(rng, N, 1, 3), sym.tag, N,
                checks=("kernel", "defect", "witness"),
            ).to_json_dict()
            for sym in symbols
        ]
    }
    path = write(tmp_path, "suite.json", suite)
    isolated = tmp_path / "isolated.json"
    in_process = tmp_path / "in_process.json"
    src = Path(subspaces.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, "run", path, "--json-out", str(isolated)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert main(["run", path, "--json-out", str(in_process)]) == 0
    assert isolated.read_bytes() == in_process.read_bytes()


def test_cli_run_seed_override_changes_nothing_structural(tmp_path):
    path = write(tmp_path, "scenario.json", basic_scenario_dict())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", path, "--json-out", str(out1)]) == 0
    assert main(["run", path, "--json-out", str(out2)]) == 0
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

    # a malformed symbol object, or an integer field that is not a JSON
    # integer, is a schema error that names the field
    for name, edit, field in SYMBOL_SCHEMA_ERRORS:
        data = basic_scenario_dict()
        edit(data)
        path = write(tmp_path, f"{name}.json", data)
        assert main(["run", path]) == 2, name
        assert repr(field) in capsys.readouterr().err, name


def _set_symbol(data, symbol):
    data["symbol"] = symbol


def _set_product(data, key, value):
    data["symbol"]["product"][key] = value


def _set_multiplicity(data, value):
    data["symbol"]["product"]["zeros"][0]["multiplicity"] = value


def _set_u_truncation(data, value):
    data["perturbation"]["terms"][0]["u"]["truncation"] = value


def _trig_series(coeffs_from):
    return {"truncation": 1, "coeffs_from": coeffs_from, "coeffs": [[1, 0], [0, 0], [0, 0]]}


SYMBOL_SCHEMA_ERRORS = [
    ("no-product", lambda d: d["symbol"].pop("product"), "product"),
    ("product-list", lambda d: _set_symbol(d, {"tag": "inner", "product": [0.3, 1]}), "product"),
    (
        "no-f2",
        lambda d: _set_symbol(
            d, {"tag": "invertible_product", "f1": {"truncation": 1, "coeffs": [[1, 0]]}}
        ),
        "f2",
    ),
    ("no-series", lambda d: _set_symbol(d, {"tag": "trig_poly"}), "series"),
    ("z-power-float", lambda d: _set_product(d, "z_power", 1.9), "z_power"),
    ("z-power-bool", lambda d: _set_product(d, "z_power", True), "z_power"),
    ("multiplicity-float", lambda d: _set_multiplicity(d, 1.5), "multiplicity"),
    ("multiplicity-string", lambda d: _set_multiplicity(d, "2"), "multiplicity"),
    # 4.5 and "4" would both be read as the 4 coefficients the series holds
    ("truncation-float", lambda d: _set_u_truncation(d, 4.5), "truncation"),
    ("truncation-string", lambda d: _set_u_truncation(d, "4"), "truncation"),
    (
        "coeffs-from-float",
        lambda d: _set_symbol(d, {"tag": "trig_poly", "series": _trig_series(-1.0)}),
        "coeffs_from",
    ),
]


def test_cli_defect_command(tmp_path, capsys):
    path = write(tmp_path, "scenario.json", basic_scenario_dict())
    out = tmp_path / "defect.json"
    assert main(["defect", path, "--json-out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "defect dim" in stdout and "PASS" in stdout
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["defect"]["defect_dim"] <= payload["defect"]["bound_from_theorem"]


def annihilator_scenario_dict():
    # zero symbol: the kernel is cofinite, so the defect check judges many witnesses
    data = basic_scenario_dict("annihilator")
    data["symbol"] = {"tag": "zero"}
    return data


def test_cli_defect_exits_one_when_a_witness_fails(tmp_path, capsys, monkeypatch):
    # Offset witnesses leave S*h + w outside the kernel; the defect
    # prediction itself does not read them and still passes.
    original = defects._witnesses

    def offset(inst, hs):
        return original(inst, hs) + 1e-3

    monkeypatch.setattr(defects, "_witnesses", offset)
    path = write(tmp_path, "scenario.json", annihilator_scenario_dict())
    out = tmp_path / "defect.json"
    assert main(["defect", path, "--json-out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    assert payload["defect"]["contained_in_theorem_space"] is True
    assert payload["witness"]["entries"] > 0
    assert payload["witness"]["max_membership_residual"] > 1e-8


WITNESS_JSON_KEYS = {
    "entries", "max_membership_residual", "max_w_in_space_residual", "max_kernel_residual",
    "per_entry_residuals",
}


def test_witness_record_has_one_json_form(tmp_path, capsys):
    path = write(tmp_path, "scenario.json", annihilator_scenario_dict())
    defect_out, run_out = tmp_path / "defect.json", tmp_path / "run.json"
    assert main(["defect", path, "--json-out", str(defect_out)]) == 0
    assert main(["run", path, "--no-stabilize", "--json-out", str(run_out)]) == 0
    witness = json.loads(defect_out.read_text())["witness"]
    outcomes = json.loads(run_out.read_text())["scenarios"][0]["outcomes"]
    assert witness == next(o["details"] for o in outcomes if o["check"] == "witness")
    assert set(witness) == WITNESS_JSON_KEYS
    assert witness["entries"] == len(witness["per_entry_residuals"]) > 0
    paper_out = tmp_path / "catalogue.json"
    main(["verify-paper", "--truncation", "64", "--json-out", str(paper_out)])
    rows = json.loads(paper_out.read_text())["rows"]
    defect_rows = [r for r in rows if "defect" in r["details"]]
    assert {r["row_id"] for r in rows if r["row_id"].startswith("defect-")} < {
        r["row_id"] for r in defect_rows
    }
    for row in defect_rows:
        assert set(row["details"]["witness"]) == WITNESS_JSON_KEYS, row["row_id"]


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
    assert payload["window_tail"] == run_kernel["window_tail"] < WITNESS_KERNEL_TOL


def trig_scenario_dict():
    # g = conj(z)^4 + 0.3i conj(z)^5 with the rank-one README perturbation
    data = basic_scenario_dict("trig-demo")
    coeffs = [[0.0, 0.0] for _ in range(11)]
    coeffs[5 - 4], coeffs[5 - 5] = [1.0, 0.0], [0.0, 0.3]
    data["symbol"] = {
        "tag": "trig_poly",
        "series": {"truncation": 5, "coeffs_from": -5, "coeffs": coeffs},
    }
    data["checks"] = ["kernel"]
    return data


def test_cli_kernel_and_run_on_a_trig_poly_scenario(tmp_path, capsys):
    data = trig_scenario_dict()
    path = write(tmp_path, "trig.json", data)
    out, run_out = tmp_path / "kernel.json", tmp_path / "run.json"
    assert main(["kernel", path, "--json-out", str(out)]) == 0
    assert main(["run", path, "--json-out", str(run_out)]) == 0
    capsys.readouterr()
    kernel = json.loads(out.read_text())["kernel"]
    assert kernel["dim"] == 4
    frame = np.array([[complex(re, im) for re, im in col] for col in kernel["frame"]]).T
    reference = svd_kernel(scenarios_from_json(data)[0].instance())
    assert reference.dim == 4
    # every principal angle between the two spans is zero
    cosines = np.linalg.svd(frame.conj().T @ reference.frame, compute_uv=False)
    assert np.all(np.abs(cosines - 1.0) <= 1e-12)
    report = json.loads(run_out.read_text())["scenarios"][0]
    assert report["passed"] and report["stability"]["kernel_dim_doubled"] == 4
    assert report["outcomes"][0]["details"]["kernel_dim"] == 4


@pytest.mark.parametrize(
    "v_norms, flagged",
    [((1e4, 2e-5), True), ((1e-3, 5e-9), False)],
    ids=["large-scale", "small-scale"],
)
def test_kernel_check_ambiguity_band_is_relative_to_the_largest_singular_value(
    v_norms, flagged
):
    # R = v1 <., 1> + v2 <., z>: its window singular values are |v1| and |v2|.
    # The band [rank_tol s0, 1e3 rank_tol s0) sits just above the rank cut
    # rank_tol s0; an absolute band [rank_tol, 1e3 rank_tol) would miss
    # 2e-5 beside s0 = 1e4 and flag 5e-9 beside s0 = 1e-3.
    pert = PerturbationSpec((
        (AnalyticSeries.monomial(0, N), AnalyticSeries.monomial(2, N, v_norms[0])),
        (AnalyticSeries.monomial(1, N), AnalyticSeries.monomial(3, N, v_norms[1])),
    ))
    outcome = kernel_outcome(Instance(ZeroSymbol(), pert, N))
    ambiguous = outcome.details["ambiguous_singular_values"]
    assert ambiguous == ([pytest.approx(v_norms[1])] if flagged else [])
    assert outcome.passed is not flagged
    assert outcome.details["kernel_dim"] == N // 2 - 2


@pytest.mark.parametrize("command", ["run", "kernel", "defect"])
def test_cli_rejects_a_scenario_with_an_inner_truncation(tmp_path, capsys, command):
    # The moment depth is the constant cgp.MOMENT_DEPTH, not a scenario field.
    data = basic_scenario_dict()
    data["inner_truncation"] = 48
    path = write(tmp_path, "scenario.json", data)
    assert main([command, path]) == 2
    assert "inner_truncation" in capsys.readouterr().err


@pytest.mark.parametrize("as_suite_entry", [False, True], ids=["scenario", "suite-entry"])
def test_cli_rejects_a_scenario_with_tolerances(tmp_path, capsys, as_suite_entry):
    # Every verdict threshold is a module constant, not a scenario field.
    data = basic_scenario_dict()
    data["tolerances"] = {"rank": 1e-9}
    path = write(tmp_path, "scenario.json", {"scenarios": [data]} if as_suite_entry else data)
    assert main(["run", path]) == 2
    assert "tolerances" in capsys.readouterr().err


def test_cli_verify_paper_has_no_moment_depth_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--inner-truncation", "24"])
    assert exc.value.code == 2
    assert "--inner-truncation" in capsys.readouterr().err


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
    code = main(["verify-paper", "--truncation", "64"])
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
