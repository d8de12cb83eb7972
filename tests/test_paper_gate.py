"""The paper-256 benchmark's correctness gate, inside the tier-1 suite.

perfbench/run.py rejects a paper-256 pass when a catalogue row does not
pass or when an integer skeleton (kernel dim, defect dim, bound, cgp
branch) differs from perfbench/reference.json.  This test runs the
benchmark's own workload code for one pass of `verify-paper --truncation
256` and applies both checks.  It also counts the kernel SVDs: every
row's symbol is one of the four defect families, whose kernels are solved
from the operator's structure, and it reads the report for two margins: every
reverse-fit tuple meets its clauses at round-off, and the known-gap row's
forward residual stays at its full size.  The test reads perfbench/ and
writes nothing there.
"""

import json

from conftest import PERFBENCH, count_calls, load_perfbench_workloads
from neartoep import subspaces

# 27 of the 28 rows build one Instance, and the closed-form remark row
# builds none.  No row takes a window SVD: at N = 256 and in the 2N audit
# the 8 zero-symbol rows read their r-wide window complement and the
# others their structured kernel.
KERNEL_SUBSPACE_CALLS = 0


def test_paper_rows_pass_the_benchmark_gate(monkeypatch, tmp_path):
    workloads = load_perfbench_workloads(monkeypatch)
    calls = count_calls(monkeypatch, subspaces, "kernel_subspace")
    result = workloads.PaperWorkload(0, tmp_path).run_pass()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert result.verdicts and all(result.verdicts)
    assert result.skeletons == reference["paper-256"]
    assert len(calls) == KERNEL_SUBSPACE_CALLS
    rows = json.loads((tmp_path / "verify-paper.json").read_text(encoding="utf-8"))["rows"]
    reps = {r["row_id"]: r["details"]["representation"]
            for r in rows if "representation" in r["details"]}
    assert all(rep["constraint_max_violation"] < 1e-12 for rep in reps.values())
    assert reps["rep-conj-inner-orthogonal-split-known-gap"]["forward_max_residual"] > 0.99
