"""Scenario descriptions and the verification driver behind the CLI.

A scenario bundles a symbol, a finite-rank perturbation, a truncation
order, and a set of checks.  Everything round-trips through JSON so runs
are scriptable, and reports contain no wall-clock data so a fixed
scenario and seed always serializes to identical bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cgp import DEFAULT_INNER_TRUNCATION, verify_corollary
from .defects import Instance, WitnessReport, check_defect_theorem
from .errors import HeadroomError, InputError
from .operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    Symbol,
    TrigPolySymbol,
    symbol_from_json,
)
from .series import COEFF_TRIM_TOL
from .subspaces import DefectReport

VALID_CHECKS = ("kernel", "defect", "witness", "cgp")
DEFAULT_TRUNCATION = 128
HEADROOM_MARGIN = 8
CONTAINMENT_TOL = 1e-7
# Singular values inside [rank_tol, rank_tol * band) make the kernel/range
# split genuinely ambiguous at the working precision.
AMBIGUITY_BAND = 1e3
SINGULAR_TAIL_LEN = 6


def max_input_degree(sym: Symbol, pert: PerturbationSpec) -> int:
    """Largest polynomial degree among the symbol data and the u_i, v_i."""
    degs = [0]
    for u, v in pert.terms:
        degs.append(u.degree())
        degs.append(v.degree())
    if isinstance(sym, TrigPolySymbol):
        n = sym.series.truncation
        idx = np.nonzero(np.abs(sym.series.coeffs) > COEFF_TRIM_TOL)[0]
        if idx.size:
            degs.append(int(np.max(np.abs(idx - n))))
    elif isinstance(sym, (InnerSymbol, ConjInnerSymbol)):
        degs.append(sym.product.degree())
    elif isinstance(sym, InvertibleProductSymbol):
        degs.append(sym.f1.degree())
        degs.append(sym.f2.degree())
    return max(degs)


def required_truncation(sym: Symbol, pert: PerturbationSpec) -> int:
    return 2 * max_input_degree(sym, pert) + HEADROOM_MARGIN


def _as_int(data: dict, key: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"scenario field {key!r} must be an integer")
    return value


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every check."""

    rank: float = 1e-9
    membership: float = 1e-8
    constraint: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank", "membership", "constraint"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 < float(value) < 1.0:
                raise InputError(f"tolerance {name!r} must lie in (0, 1)")
            object.__setattr__(self, name, float(value))

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "membership": self.membership,
            "constraint": self.constraint,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tolerances":
        if not isinstance(data, dict):
            raise InputError("tolerances must be a JSON object")
        unknown = set(data) - {"rank", "membership", "constraint"}
        if unknown:
            raise InputError(f"unknown tolerance fields: {sorted(unknown)}")
        base = cls()
        return cls(
            rank=data.get("rank", base.rank),
            membership=data.get("membership", base.membership),
            constraint=data.get("constraint", base.constraint),
        )


@dataclass(frozen=True)
class Scenario:
    """One verification job: operator data plus the checks to run on it."""

    symbol: Symbol
    perturbation: PerturbationSpec
    scenario_id: str = "scenario"
    truncation: int = DEFAULT_TRUNCATION
    inner_truncation: int = DEFAULT_INNER_TRUNCATION
    tolerances: Tolerances = field(default_factory=Tolerances)
    checks: tuple[str, ...] = VALID_CHECKS
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.scenario_id, str) or not self.scenario_id:
            raise InputError("scenario_id must be a nonempty string")
        requested = tuple(self.checks)
        bad = sorted(set(requested) - set(VALID_CHECKS))
        if bad:
            raise InputError(f"unknown checks {bad}; valid names: {list(VALID_CHECKS)}")
        if not requested:
            raise InputError("scenario requests no checks")
        # Canonical execution order regardless of input order.
        ordered = tuple(c for c in VALID_CHECKS if c in set(requested))
        object.__setattr__(self, "checks", ordered)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InputError("seed must be an integer")
        for name in ("truncation", "inner_truncation"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise InputError(f"{name} must be a positive integer")
        # Oversized coefficient windows are clamped downstream, so only the
        # truncation itself carries a hard floor.
        floor = required_truncation(self.symbol, self.perturbation)
        if self.truncation < floor:
            raise HeadroomError(
                f"truncation {self.truncation} is below the headroom floor "
                f"{floor} (twice the largest input degree plus {HEADROOM_MARGIN})"
            )

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "truncation": self.truncation,
            "inner_truncation": self.inner_truncation,
            "seed": self.seed,
            "tolerances": self.tolerances.to_json_dict(),
            "symbol": self.symbol.to_json_dict(),
            "perturbation": self.perturbation.to_json_dict(),
            "checks": list(self.checks),
        }

    def instance(self) -> Instance:
        """The scenario's operator data at its truncation and rank tolerance."""
        return Instance(
            self.symbol, self.perturbation, self.truncation, self.tolerances.rank
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise InputError("scenario must be a JSON object")
        known = {
            "scenario_id",
            "truncation",
            "inner_truncation",
            "seed",
            "tolerances",
            "symbol",
            "perturbation",
            "checks",
        }
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown scenario fields: {sorted(unknown)}")
        for key in ("symbol", "perturbation"):
            if key not in data:
                raise InputError(f"scenario needs a {key!r} field")
        checks = data.get("checks", list(VALID_CHECKS))
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise InputError("checks must be a list of strings")
        return cls(
            symbol=symbol_from_json(data["symbol"]),
            perturbation=PerturbationSpec.from_json_dict(data["perturbation"]),
            scenario_id=data.get("scenario_id", "scenario"),
            truncation=_as_int(data, "truncation", DEFAULT_TRUNCATION),
            inner_truncation=_as_int(
                data, "inner_truncation", DEFAULT_INNER_TRUNCATION
            ),
            tolerances=Tolerances.from_json_dict(data.get("tolerances", {})),
            checks=tuple(checks),
            seed=_as_int(data, "seed", 0),
        )


def scenarios_from_json(data) -> list[Scenario]:
    """One scenario object, or {"scenarios": [...]} for a whole suite."""
    if isinstance(data, dict) and "scenarios" in data:
        unknown = set(data) - {"scenarios"}
        if unknown:
            raise InputError(f"unknown suite fields: {sorted(unknown)}")
        entries = data["scenarios"]
        if not isinstance(entries, list) or not entries:
            raise InputError("'scenarios' must be a nonempty list")
        return [Scenario.from_json_dict(entry) for entry in entries]
    return [Scenario.from_json_dict(data)]


def kernel_profile(inst: Instance) -> tuple[int, int, int]:
    """(kernel dim, column cap, defect dim) at the instance's truncation."""
    return inst.kernel.dim, inst.column_cap, inst.defect.defect_dim


def stability_summary(inst: Instance) -> dict:
    """Kernel and defect dimensions at the working order and at its double.

    Finite kernels must repeat their dimension; annihilator-style symbols
    have cofinite kernels, for which the codimension inside the scan
    window is the stable quantity instead.
    """
    d1, c1, f1 = kernel_profile(inst)
    d2, c2, f2 = kernel_profile(inst.doubled)
    stable = (d1 == d2 or c1 - d1 == c2 - d2) and f1 == f2
    return {
        "kernel_dim": d1,
        "kernel_dim_doubled": d2,
        "kernel_codim": c1 - d1,
        "kernel_codim_doubled": c2 - d2,
        "defect_dim": f1,
        "defect_dim_doubled": f2,
        "stable_at_double": stable,
    }


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    passed: bool
    details: dict

    def to_json_dict(self) -> dict:
        return {"check": self.check, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class ScenarioReport:
    """Per-scenario outcomes; wall-clock time stays out of the JSON form."""

    scenario_id: str
    truncation: int
    outcomes: tuple[CheckOutcome, ...]
    stability: dict | None
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        ok = all(outcome.passed for outcome in self.outcomes)
        if self.stability is not None:
            ok = ok and bool(self.stability["stable_at_double"])
        return ok

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "truncation": self.truncation,
            "passed": self.passed,
            "stability": self.stability,
            "outcomes": [outcome.to_json_dict() for outcome in self.outcomes],
        }


@dataclass(frozen=True)
class SuiteReport:
    scenarios: tuple[ScenarioReport, ...]

    def __post_init__(self) -> None:
        ids = [r.scenario_id for r in self.scenarios]
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise InputError(f"duplicate scenario ids: {dupes}")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.scenarios)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "scenario_count": len(self.scenarios),
            "scenarios": [r.to_json_dict() for r in self.scenarios],
        }


def kernel_outcome(inst: Instance) -> CheckOutcome:
    """The kernel check: fails when a singular value sits near the rank threshold."""
    m = inst.kernel
    svals = sorted(m.svals)
    rank_tol = inst.rank_tol
    ambiguous = [s for s in svals if rank_tol <= s < rank_tol * AMBIGUITY_BAND]
    details = {
        "kernel_dim": m.dim,
        "kernel_codim": inst.column_cap - m.dim,
        "column_cap": inst.column_cap,
        "defect_dim": inst.defect.defect_dim,
        "smallest_singular_values": [float(s) for s in svals[:SINGULAR_TAIL_LEN]],
        "ambiguous_singular_values": [float(s) for s in ambiguous],
    }
    return CheckOutcome("kernel", not ambiguous, details)


def scenario_defects(
    scenario: Scenario, inst: Instance
) -> tuple[DefectReport, WitnessReport]:
    """The defect theorem check on the scenario's instance, at its tolerances."""
    return check_defect_theorem(
        inst,
        containment_tol=CONTAINMENT_TOL,
        witness_tol=scenario.tolerances.membership,
    )


def run_scenario(scenario: Scenario, stabilize: bool = True) -> ScenarioReport:
    """Execute the requested checks; stabilize re-runs dimensions at 2N."""
    start = time.perf_counter()
    tol = scenario.tolerances
    inst = scenario.instance()
    if {"defect", "witness"} & set(scenario.checks):
        report, witness = scenario_defects(scenario, inst)
    outcomes = []
    for check in scenario.checks:
        if check == "kernel":
            outcomes.append(kernel_outcome(inst))
        elif check == "defect":
            outcomes.append(CheckOutcome("defect", report.passed, report.to_json_dict()))
        elif check == "witness":
            details = {
                "entries": len(witness.entries),
                "max_membership_residual": witness.max_membership_residual,
                "max_w_in_space_residual": witness.max_w_in_space_residual,
                "per_entry_residuals": [
                    [e.membership_residual, e.w_in_space_residual]
                    for e in witness.entries
                ],
            }
            outcomes.append(
                CheckOutcome("witness", witness.passed(tol.membership), details)
            )
        else:
            rep = verify_corollary(
                scenario.symbol,
                scenario.perturbation,
                scenario.truncation,
                scenario.inner_truncation,
                rank_tol=tol.rank,
                membership_tol=tol.membership,
                constraint_tol=tol.constraint,
                seed=scenario.seed,
            )
            outcomes.append(CheckOutcome("cgp", rep.passed, rep.to_json_dict()))
    stability = stability_summary(inst) if stabilize else None
    return ScenarioReport(
        scenario_id=scenario.scenario_id,
        truncation=scenario.truncation,
        outcomes=tuple(outcomes),
        stability=stability,
        elapsed_seconds=time.perf_counter() - start,
    )


def run_suite(scenarios: Sequence[Scenario], stabilize: bool = True) -> SuiteReport:
    if not scenarios:
        raise InputError("suite holds no scenarios")
    ids = [s.scenario_id for s in scenarios]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        raise InputError(f"duplicate scenario ids: {dupes}")
    return SuiteReport(
        tuple(run_scenario(s, stabilize=stabilize) for s in scenarios)
    )
