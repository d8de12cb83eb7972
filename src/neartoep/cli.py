"""Command-line front end for scenario runs and the built-in catalogue.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad input
(unreadable file, malformed JSON, schema or invariant violations).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .catalogue import run_catalogue
from .defects import check_defect_theorem
from .errors import InputError
from .runner import (
    DEFAULT_TRUNCATION,
    Scenario,
    kernel_outcome,
    run_suite,
    scenarios_from_json,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load_scenarios(path: str, args: argparse.Namespace) -> list[Scenario]:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc
    scenarios = scenarios_from_json(data)
    if getattr(args, "truncation", None) is not None:
        scenarios = [dataclasses.replace(s, truncation=args.truncation) for s in scenarios]
    return scenarios


def _single_scenario(path: str, args: argparse.Namespace) -> Scenario:
    scenarios = _load_scenarios(path, args)
    if len(scenarios) != 1:
        raise InputError(
            f"this command expects exactly one scenario, file holds {len(scenarios)}"
        )
    return scenarios[0]


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = _load_scenarios(args.scenario_file, args)
    suite = run_suite(scenarios, stabilize=args.stabilize)
    for report in suite.scenarios:
        verdict = "PASS" if report.passed else "FAIL"
        checks = ", ".join(
            f"{o.check} {'ok' if o.passed else 'FAILED'}" for o in report.outcomes
        )
        line = f"scenario {report.scenario_id}: {verdict} ({checks})"
        if report.stability is not None:
            stable = "yes" if report.stability["stable_at_double"] else "NO"
            line += f" [stable at 2N: {stable}]"
        print(f"{line} [{report.elapsed_seconds:.2f}s]")
    failing = sum(1 for r in suite.scenarios if not r.passed)
    print(f"{len(suite.scenarios)} scenarios, {failing} failing")
    if args.json_out:
        _write_json(args.json_out, suite.to_json_dict())
    return EXIT_OK if suite.passed else EXIT_VERIFICATION_FAILED


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    rows = run_catalogue(args.truncation)
    width = max(len(r.row_id) for r in rows)
    for row in rows:
        verdict = "PASS" if row.passed else "FAIL"
        print(f"{row.row_id:<{width}}  {verdict}  {row.claim}")
    failing = [r.row_id for r in rows if not r.passed]
    elapsed = time.perf_counter() - start
    print(f"{len(rows)} rows, {len(failing)} failing ({elapsed:.1f}s)")
    for row_id in failing:
        print(f"FAILED: {row_id}", file=sys.stderr)
    if args.json_out:
        _write_json(
            args.json_out,
            {
                "truncation": args.truncation,
                "passed": not failing,
                "rows": [r.to_json_dict() for r in rows],
            },
        )
    return EXIT_OK if not failing else EXIT_VERIFICATION_FAILED


def _cmd_defect(args: argparse.Namespace) -> int:
    scenario = _single_scenario(args.scenario_file, args)
    report, witness = check_defect_theorem(scenario.instance())
    ok = report.passed and witness.passed
    contained = "contained" if report.contained_in_theorem_space else "NOT contained"
    print(
        f"scenario {scenario.scenario_id}: defect dim {report.defect_dim}, "
        f"bound {report.bound_from_theorem}, {contained} "
        f"(worst outside {report.max_residual_outside_theorem_space:.2e})"
    )
    print(
        f"witnesses: {len(witness.entries)} entries, "
        f"max membership {witness.max_membership_residual:.2e}, "
        f"max w-in-space {witness.max_w_in_space_residual:.2e}"
    )
    print("PASS" if ok else "FAIL")
    if args.json_out:
        _write_json(
            args.json_out,
            {
                "scenario_id": scenario.scenario_id,
                "passed": ok,
                "defect": report.to_json_dict(),
                "witness": witness.to_json_dict(),
            },
        )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_kernel(args: argparse.Namespace) -> int:
    scenario = _single_scenario(args.scenario_file, args)
    inst = scenario.instance()
    outcome = kernel_outcome(inst)
    details = outcome.details
    tail = ", ".join(f"{s:.2e}" for s in details["smallest_singular_values"])
    print(
        f"scenario {scenario.scenario_id}: kernel dim {details['kernel_dim']} "
        f"(cap {details['column_cap']}, codim {details['kernel_codim']}), "
        f"defect dim {details['defect_dim']}"
    )
    print(f"smallest singular values: {tail}")
    ambiguous = details["ambiguous_singular_values"]
    if ambiguous:
        print(
            "ambiguous singular values near the rank threshold: "
            + ", ".join(f"{s:.2e}" for s in ambiguous)
        )
    if args.json_out:
        _write_json(
            args.json_out,
            {
                "scenario_id": scenario.scenario_id,
                "column_cap": details["column_cap"],
                "defect_dim": details["defect_dim"],
                "ambiguous_singular_values": ambiguous,
                "kernel": inst.kernel.to_json_dict(),
            },
        )
    return EXIT_OK if outcome.passed else EXIT_VERIFICATION_FAILED


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scenario_file", help="path to a scenario or suite JSON file")
    sub.add_argument(
        "--truncation", type=int, default=None,
        help="override the truncation order of every scenario in the file",
    )
    sub.add_argument("--json-out", default=None, help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neartoep",
        description="Kernel, defect, and representation checks for "
        "finite-rank perturbations of truncated Toeplitz operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every check requested by a scenario file")
    _add_common_flags(p_run)
    p_run.add_argument(
        "--stabilize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="re-run kernel/defect dimensions at twice the truncation",
    )
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify-paper", help="run the built-in catalogue of frozen instances"
    )
    p_verify.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    p_verify.add_argument("--json-out", default=None)
    p_verify.set_defaults(func=_cmd_verify_paper)

    p_defect = sub.add_parser(
        "defect", help="defect-space report for a single scenario"
    )
    _add_common_flags(p_defect)
    p_defect.set_defaults(func=_cmd_defect)

    p_kernel = sub.add_parser(
        "kernel", help="numerical kernel dump for a single scenario"
    )
    _add_common_flags(p_kernel)
    p_kernel.set_defaults(func=_cmd_kernel)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
