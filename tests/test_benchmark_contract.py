"""The library surface that the benchmark in perfbench/ wraps and calls.

The benchmark is frozen and lives outside the tier-1 suite, so a rename or
signature change in the library would only show when the benchmark runs.
These tests read the benchmark's sources and check every name and call
form it relies on against the library.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from neartoep import cgp, defects, runner, subspaces
from neartoep.operators import PerturbationSpec, ZeroSymbol
from neartoep.series import AnalyticSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _layer_table(table):
    """The literal value of a module-level assignment in perfbench/layers.py."""
    for node in _tree("layers.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == table for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/layers.py defines no {table}")


@pytest.mark.parametrize("table", ["FULL", "HOT"])
def test_every_traced_function_exists(table):
    for module_name, names in _layer_table(table).items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


@pytest.mark.parametrize("source", ["layers.py", "workloads.py", "sweep.py"])
def test_every_imported_library_name_exists(source):
    modules = {}
    for node in ast.walk(_tree(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("neartoep"):
            package = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(package, alias.name), f"{node.module}.{alias.name}"
                value = getattr(package, alias.name)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(_tree(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"


def _bind(fn, *args, **kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def test_call_forms_the_benchmark_uses_still_bind():
    # The per-layer observers read these parameters by name.
    args = _bind(subspaces.kernel_subspace, "op", 1e-9, column_cap=8)
    assert {"op", "rank_tol", "column_cap"} <= set(args)
    args = _bind(defects.model_space, "theta", 16, 1e-9)
    assert {"theta", "truncation", "rank_tol"} <= set(args)
    # perfbench/workloads.py: the defect suite's call.
    _bind(
        defects.verify_defect_theorem, "sym", "pert", 128,
        rank_tol=1e-9, containment_tol=1e-7, witness_tol=1e-8,
    )
    # perfbench/sweep.py: the raw three-argument forms.
    _bind(defects.verify_defect_theorem, "sym", "pert", 128)
    _bind(cgp.verify_corollary, "sym", "pert", 128)
    # The corollary observer counts the report's kernel columns.
    assert "kernel_dim" in cgp.RepresentationReport.__dataclass_fields__


def test_the_scenario_surface_the_benchmark_reads():
    # perfbench/workloads.py builds scenarios with these keywords and passes
    # their tolerances to verify_defect_theorem; a missing attribute would
    # count every defect-suite instance as failed.
    pert = PerturbationSpec(
        ((AnalyticSeries.monomial(0, 16), AnalyticSeries.monomial(1, 16)),)
    )
    s = runner.Scenario(
        symbol=ZeroSymbol(), perturbation=pert, scenario_id="000-zero",
        truncation=16, checks=("defect", "witness"), seed=0,
    )
    defaults = _bind(defects.verify_defect_theorem, "sym", "pert", 16)
    assert s.tolerances.rank == defaults["rank_tol"]
    assert s.tolerances.membership == defaults["witness_tol"]
    assert runner.CONTAINMENT_TOL == defaults["containment_tol"]
