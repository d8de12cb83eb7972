"""One-shot scaling sweep in the truncation order N.

Times three stages at growing N, untraced for the wall time and traced for
the per-layer split, fits the exponent p of t ~ N^p by least squares on
log-log axes, and compares each wall time with the baseline the project
roadmap recorded on a 2-core box (OpenBLAS, one thread):

* the conjugate-Blaschke rank-3 defect check (verify_defect_theorem),
* the zero-symbol rank-1 representation check (verify_corollary),
* `neartoep verify-paper`.

A baseline counts as reproduced when the measured time lies within 25 %
of it, the widest regression bound the benchmark allows any metric.
Run it with ``python3 perfbench/run.py --sweep``; it takes a few minutes.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import layers
import workloads
from neartoep import cgp, defects

BASELINE_BAND = 0.25

STAGES = {
    "conj-inner rank-3 defect check": {
        "sizes": (128, 256, 512, 1024),
        "baseline_s": (0.06, 0.25, 2.07, 16.4),
        "shape": ("conj_inner", 3, 3, 0),
        "layers": ("subspaces.kernel_subspace", "defects.model_space",
                   "defects.theorem_defect_space", "defects.defect_witness"),
    },
    "zero-symbol rank-1 verify_corollary": {
        "sizes": (128, 256, 512),
        "baseline_s": (0.46, 3.6, 45.8),
        "shape": ("zero", 1, 3, 0),
        "layers": ("subspaces.kernel_subspace", "cgp.build_cgp_frame",
                   "cgp.verify_corollary"),
    },
    "verify-paper": {
        "sizes": (128, 256),
        "baseline_s": (2.8, 18.4),
        "shape": None,
        "layers": ("cgp.verify_corollary", "runner.stability_summary"),
    },
}


def fitted_exponent(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _stage_call(stage, n, workdir):
    """A zero-argument callable that runs one stage once at truncation n."""
    shape = STAGES[stage]["shape"]
    if shape is None:
        out = Path(workdir) / "verify-paper.json"
        argv = ["verify-paper", "--truncation", str(n), "--json-out", str(out)]
        return lambda: workloads.timed_cli(argv, out)
    s = workloads.scenario(0, 0, shape, n, ("defect",))
    if shape[0] == "zero":
        return lambda: cgp.verify_corollary(s.symbol, s.perturbation, n)
    return lambda: defects.verify_defect_theorem(s.symbol, s.perturbation, n)


def main(workdir):
    """Run every stage at every size; print the table and one JSON line."""
    summary = {}
    for stage, spec in STAGES.items():
        walls, split = [], {name: [] for name in spec["layers"]}
        for n in spec["sizes"]:
            call = _stage_call(stage, n, workdir)
            start = time.perf_counter()
            call()
            walls.append(time.perf_counter() - start)
            tracer, _ = layers.traced(f"sweep/{stage}/N{n}")
            with tracer:
                call()
            for name in spec["layers"]:
                stat = tracer.stats.get(name)
                split[name].append(stat.incl_s if stat is not None else 0.0)
            print(f"{stage} N={n}: {walls[-1]:.3f} s", flush=True)
        rows = []
        for n, wall, base in zip(spec["sizes"], walls, spec["baseline_s"]):
            ratio = wall / base
            rows.append({"N": n, "seconds": wall, "baseline_s": base, "ratio": ratio,
                         "reproduced": abs(ratio - 1.0) <= BASELINE_BAND})
        exponents = {"wall": fitted_exponent(spec["sizes"], walls)}
        for name, times in split.items():
            if min(times) > 0.0:
                exponents[f"{name}.incl_s"] = fitted_exponent(spec["sizes"], times)
        summary[stage] = {"rows": rows, "exponent_in_N": exponents, "layer_incl_s": split}
        print(f"== {stage}")
        for row in rows:
            verdict = "reproduced" if row["reproduced"] else "NOT reproduced"
            print(f"  N={row['N']:>5}  {row['seconds']:8.3f} s  baseline "
                  f"{row['baseline_s']:6.2f} s  ratio {row['ratio']:.2f}  {verdict}")
        for name, p in exponents.items():
            print(f"  exponent in N, {name}: {p:.2f}")
    print(json.dumps({"sweep": summary}))
    return 0
