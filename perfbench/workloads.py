"""Seeded inputs for the benchmark workloads.

Every instance has a fixed *shape* chosen by its index: symbol family,
perturbation rank, Blaschke degree and power of z, and the degrees of the
invertible factors.  The seed draws only the continuous data (zeros,
coefficients).  For generic draws the integer outcome of each check
(kernel dim, defect dim, theorem bound) is then a function of the shape
alone, which is what lets one recorded reference skeleton gate every seed.

The draws keep the invariants of the test builders: orthonormal u_i,
pairwise orthogonal nonzero v_i, polynomial data of degree at most 8,
Blaschke zeros of modulus at most 0.7, and invertible factors 1 + tail
with tail mass below 1 (zero-free on the closed disk).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from neartoep import catalogue, cli, defects, runner
from neartoep.blaschke import BlaschkeProduct
from neartoep.operators import (
    ConjInnerSymbol,
    InnerSymbol,
    InvertibleProductSymbol,
    PerturbationSpec,
    ZeroSymbol,
)
from neartoep.runner import Scenario
from neartoep.series import AnalyticSeries

FAMILIES = ("zero", "inner", "invertible", "conj_inner")
MAX_DATA_DEGREE = 8
MAX_MODULUS = 0.7
NORM_FLOOR = 1e-3

DEFECT_SUITE_SIZE = 200
DEFECT_SUITE_TRUNCATION = 128
RUN_SUITE_TRUNCATION = 512
RUN_SUITE_CHECKS = ("kernel", "defect", "witness")


def _poly(rng, truncation, degree):
    arr = np.zeros(truncation, dtype=np.complex128)
    arr[: degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return arr


def _gram_schmidt(columns, normalize):
    out = []
    for arr in columns:
        arr = arr.copy()
        for prev in out:
            arr -= prev * np.vdot(prev, arr) / np.vdot(prev, prev)
        if np.linalg.norm(arr) < NORM_FLOOR:
            return None
        if normalize:
            arr /= np.linalg.norm(arr)
        out.append(arr)
    return out


def _perturbation(rng, truncation, rank):
    while True:
        us = _gram_schmidt([_poly(rng, truncation, MAX_DATA_DEGREE) for _ in range(rank)], True)
        vs = _gram_schmidt([_poly(rng, truncation, MAX_DATA_DEGREE) for _ in range(rank)], False)
        if us is not None and vs is not None:
            return PerturbationSpec(
                tuple(
                    (AnalyticSeries(u, truncation), AnalyticSeries(v, truncation))
                    for u, v in zip(us, vs)
                )
            )


def _blaschke(rng, degree, z_power):
    points = []
    for _ in range(degree - z_power):
        radius = MAX_MODULUS * np.sqrt(rng.uniform(0.05, 1.0))
        points.append(radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return BlaschkeProduct.from_points(points, z_power=z_power)


def _invertible_poly(rng, truncation, degree):
    tail = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    tail *= 0.8 / max(1.0, np.abs(tail).sum() * 1.25)
    arr = np.zeros(truncation, dtype=np.complex128)
    arr[0] = 1.0
    arr[1 : degree + 1] = tail
    return AnalyticSeries(arr, truncation)


def _symbol(rng, family, truncation, degree, z_power):
    if family == "zero":
        return ZeroSymbol()
    if family == "inner":
        return InnerSymbol(_blaschke(rng, degree, z_power))
    if family == "invertible":
        return InvertibleProductSymbol(
            _invertible_poly(rng, truncation, degree),
            _invertible_poly(rng, truncation, 4 - degree),
        )
    return ConjInnerSymbol(_blaschke(rng, degree, z_power))


def defect_suite_shape(index):
    """(family, rank, degree, z_power) of defect-suite instance `index`.

    Families cycle fastest and ranks next, as in acceptance criterion 2;
    the (rank, degree) pairs then cover all nine combinations and the
    power of z walks through 0..degree.
    """
    k = index // len(FAMILIES)
    degree = (k // 3) % 3 + 1
    return FAMILIES[index % len(FAMILIES)], k % 3 + 1, degree, (k // 9) % (degree + 1)


def run_suite_shape(index):
    """(family, rank, degree, z_power) of run-suite scenario `index`: degree-3
    symbol data throughout, with the power of z growing with the rank."""
    rank = index // len(FAMILIES) + 1
    return FAMILIES[index % len(FAMILIES)], rank, 3, rank - 1


def scenario(seed, index, shape, truncation, checks):
    family, rank, degree, z_power = shape
    rng = np.random.default_rng([seed, index])
    sym = _symbol(rng, family, truncation, degree, z_power)
    pert = _perturbation(rng, truncation, rank)
    return Scenario(
        symbol=sym,
        perturbation=pert,
        scenario_id=f"{index:03d}-{family}-r{rank}-d{degree}-z{z_power}",
        truncation=truncation,
        checks=checks,
        seed=seed,
    )


def defect_suite(seed):
    """The 200 defect-theorem instances at N = 128 as scenarios."""
    return [
        scenario(seed, i, defect_suite_shape(i), DEFECT_SUITE_TRUNCATION, ("defect", "witness"))
        for i in range(DEFECT_SUITE_SIZE)
    ]


def run_suite(seed):
    """The 12 scenarios (4 families x ranks 1..3) at N = 512."""
    return [
        scenario(seed, i, run_suite_shape(i), RUN_SUITE_TRUNCATION, RUN_SUITE_CHECKS)
        for i in range(3 * len(FAMILIES))
    ]


def suite_json(scenarios):
    """The scenario-file text the CLI reads, byte-stable for a fixed suite."""
    payload = {"scenarios": [s.to_json_dict() for s in scenarios]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------ pass runners


@dataclass
class PassResult:
    """What one timed pass produced.  verdicts and skeletons have one entry
    per instance; digest fingerprints the pass's output bytes."""

    seconds: float
    instance_seconds: list
    verdicts: list
    skeletons: list
    digest: str
    json_out_bytes: int = 0


def _skeleton(kernel_dim=None, defect_dim=None, bound=None, branch=None, passed=None,
              **extra):
    return {"kernel_dim": kernel_dim, "defect_dim": defect_dim, "bound": bound,
            "branch": branch, "passed": passed, **extra}


def timed_cli(argv, json_out):
    """Wall time of cli.main(argv), and whether it wrote its report.

    The CLI's own lines are swallowed so the benchmark's standard output
    stays parseable.  A raise or an input-error exit is a failed pass, not
    an aborted run; verification failures (exit 1) show in the report.
    """
    json_out.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:
        code = None
    elapsed = time.perf_counter() - start
    return elapsed, code in (cli.EXIT_OK, cli.EXIT_VERIFICATION_FAILED) and json_out.exists()


@contextlib.contextmanager
def _capture(module, name):
    """Rebind module.name to a wrapper that keeps every return value."""
    original = getattr(module, name)
    seen = []

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(module, name, keep)
    try:
        yield seen
    finally:
        setattr(module, name, original)


class PaperWorkload:
    """`neartoep verify-paper --truncation 256`: the 28 frozen catalogue rows,
    so the seed does not change the input.  One verify-paper invocation is
    one instance; each row is one verdict."""

    name = "paper-256"
    truncation = 256

    def __init__(self, seed, workdir):
        self.out = Path(workdir) / "verify-paper.json"
        self.rows = len(catalogue.catalogue_ids())

    def run_pass(self):
        argv = ["verify-paper", "--truncation", str(self.truncation),
                "--json-out", str(self.out)]
        elapsed, ok = timed_cli(argv, self.out)
        if not ok:
            return PassResult(elapsed, [elapsed], [False] * self.rows, [], "failed")
        raw = self.out.read_bytes()
        rows = json.loads(raw)["rows"]
        skeletons = []
        for row in rows:
            details = row["details"]
            rep = details.get("representation", {})
            dfc = details.get("defect", {})
            stab = details.get("stability", {})
            skeletons.append(_skeleton(
                kernel_dim=rep.get("kernel_dim", stab.get("kernel_dim")),
                defect_dim=dfc.get("defect_dim", stab.get("defect_dim")),
                bound=dfc.get("bound_from_theorem"),
                branch=rep.get("branch"),
                passed=row["passed"],
                row=row["row_id"],
            ))
        return PassResult(
            elapsed, [elapsed], [row["passed"] for row in rows], skeletons,
            hashlib.sha256(raw).hexdigest(), len(raw),
        )


class DefectSuiteWorkload:
    """200 seeded `verify_defect_theorem` calls at N = 128, each timed.  An
    instance passes as the runner's defect and witness checks define it."""

    name = "defect-suite-128"

    def __init__(self, seed, workdir):
        self.scenarios = defect_suite(seed)

    def run_pass(self):
        times, outcomes = [], []
        start = time.perf_counter()
        for s in self.scenarios:
            t0 = time.perf_counter()
            try:
                outcome = defects.verify_defect_theorem(
                    s.symbol, s.perturbation, s.truncation,
                    rank_tol=s.tolerances.rank,
                    containment_tol=runner.CONTAINMENT_TOL,
                    witness_tol=s.tolerances.membership,
                )
            except Exception:  # counted as a failed instance
                outcome = None
            times.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        elapsed = time.perf_counter() - start
        verdicts, skeletons = [], []
        digest = hashlib.sha256()
        for s, outcome in zip(self.scenarios, outcomes):
            if outcome is None:
                verdicts.append(False)
                skeletons.append(None)
                continue
            report, witness = outcome
            tol = s.tolerances.membership
            passed = (
                report.defect_dim <= report.bound_from_theorem
                and bool(report.contained_in_theorem_space)
                and witness.max_membership_residual < tol
                and witness.max_w_in_space_residual < tol
            )
            verdicts.append(passed)
            skeletons.append(_skeleton(
                defect_dim=report.defect_dim, bound=report.bound_from_theorem,
                passed=passed, witnesses=len(witness.entries),
            ))
            digest.update(json.dumps([
                report.to_json_dict(),
                witness.max_membership_residual,
                witness.max_w_in_space_residual,
            ]).encode())
        return PassResult(elapsed, times, verdicts, skeletons, digest.hexdigest())


class RunSuiteWorkload:
    """`neartoep run <suite> --json-out` with stabilization on: 12 seeded
    scenarios at N = 512.  Instance time is ScenarioReport.elapsed_seconds."""

    name = "run-512"

    def __init__(self, seed, workdir):
        text = suite_json(run_suite(seed))
        self.suite = Path(workdir) / "suite.json"
        self.suite.write_text(text, encoding="utf-8")
        # The file must load through the library's own schema check, which
        # also enforces the headroom floor (a violation would be exit 2).
        self.count = len(runner.scenarios_from_json(json.loads(text)))
        self.out = Path(workdir) / "run.json"

    def run_pass(self):
        argv = ["run", str(self.suite), "--json-out", str(self.out)]
        with _capture(cli, "run_suite") as suites:
            elapsed, ok = timed_cli(argv, self.out)
        if not ok:
            return PassResult(elapsed, [elapsed], [False] * self.count, [], "failed")
        raw = self.out.read_bytes()
        reports = suites[0].scenarios
        skeletons = []
        for report in reports:
            details = {o.check: o.details for o in report.outcomes}
            stab = report.stability or {}
            skeletons.append(_skeleton(
                kernel_dim=details["kernel"]["kernel_dim"],
                defect_dim=details["defect"]["defect_dim"],
                bound=details["defect"]["bound_from_theorem"],
                passed=report.passed,
                witnesses=details["witness"]["entries"],
                kernel_dim_doubled=stab.get("kernel_dim_doubled"),
            ))
        return PassResult(
            elapsed, [r.elapsed_seconds for r in reports],
            [r.passed for r in reports], skeletons,
            hashlib.sha256(raw).hexdigest(), len(raw),
        )


WORKLOADS = {w.name: w for w in (PaperWorkload, DefectSuiteWorkload, RunSuiteWorkload)}
