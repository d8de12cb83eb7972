#!/usr/bin/env python3
"""Benchmark of the neartoep verification workbench.

Run from the repository root:

    python3 perfbench/run.py --workload paper-256 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, every metric
    python3 perfbench/run.py --sweep           # one-shot scaling sweep in N

A run repeats timed passes over the workload until --seconds have passed
(at least two passes, so the report bytes can be compared), and measures
set-up time in separate child processes before and after them.  Every pass is checked:
each instance must pass, its integer skeleton must match
perfbench/reference.json, and the output bytes must agree across passes.
With --trace 1 the run alternates untraced and traced passes and reports
per-layer metrics instead of end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# BLAS threads are pinned before anything can import numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # run scratch and span files, inside the checkout
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("paper-256", "defect-suite-128", "run-512")
# Set-up samples per run, half taken before the passes and half after, so
# that the machine's drift over the run shows in both halves of the median.
SETUP_REPEATS = 6
MIN_PASSES = 2
# Instance latency quantiles are printed but not gated: on defect-suite-128
# the median falls in the gap between the fast half of the instances
# (inner, invertible) and the slow half (zero, conj-inner), so it jumps
# between the two clusters from run to run.
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s"}


def _require_source():
    """Put the checkout's library on the path; refuse to run without it."""
    if not (SRC / "neartoep" / "__init__.py").is_file():
        sys.exit(f"error: no neartoep package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                line.split(":", 1)[1].strip() for line in info if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _setup_samples(workload, seed, count):
    """Wall times of `count` fresh processes that import the library, build
    the workload's inputs and exit: the cost a user pays before the first
    pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _p90_if_resolved(values):
    """p90, or None unless at least ten samples lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90 if sum(v > p90 for v in values) >= 10 else None


def _check(passes, reference):
    """(correct, attempted, failed, problems) over every pass of a run."""
    problems = []
    attempted = sum(len(p.verdicts) for p in passes)
    failed = sum(not v for p in passes for v in p.verdicts)
    if failed:
        problems.append(f"{failed} of {attempted} instances did not pass")
    for index, p in enumerate(passes):
        if p.skeletons != reference:
            problems.append(f"pass {index}: skeletons differ from the reference")
    if len({p.digest for p in passes}) != 1:
        problems.append("output bytes differ between passes")
    return not problems, attempted, failed, problems


def _run(args):
    _require_source()
    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        import workloads

        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
        return 0

    if not args.trace:
        setup_samples = _setup_samples(args.workload, args.seed, SETUP_REPEATS // 2)

    import layers
    import workloads

    env = _environment()
    print(f"environment {json.dumps(env, sort_keys=True)}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)

    plain, traced = [], []
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        start = time.perf_counter()
        tracers = []
        while (len(plain) + len(traced) < MIN_PASSES
               or time.perf_counter() - start < args.seconds):
            if args.trace and len(traced) < len(plain):
                run_id = f"{args.workload}/seed{args.seed}/pass{len(plain) + len(traced)}"
                tracer, extras = layers.traced(run_id)
                with tracer:
                    result = workload.run_pass()
                traced.append((result, layers.layer_values(tracer, extras, result.json_out_bytes)))
                tracers.append(tracer)
            else:
                plain.append(workload.run_pass())
    if not args.trace:
        setup_samples += _setup_samples(args.workload, args.seed,
                                        SETUP_REPEATS - len(setup_samples))
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    passes = plain + [r for r, _ in traced]
    correct, attempted, failed, problems = _check(passes, reference)
    for problem in problems:
        print(f"check failed: {problem}")

    pass_times = [p.seconds for p in plain]
    instance_times = [t for p in plain for t in p.instance_seconds]
    q1, median, q3 = _quartiles(pass_times)
    print(f"pass_s: median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
          f"{len(pass_times)} untraced passes")
    p90 = _p90_if_resolved(instance_times)
    print(f"instance_s_p50: {statistics.median(instance_times):.6f} s over "
          f"{len(instance_times)} instances")
    print("instance_s_p90: " + (f"{p90:.6f} s" if p90 is not None else
                                "not reported (fewer than 10 samples beyond it)"))
    print(f"failed_fraction: {failed / attempted:.4f} ({failed} of {attempted})")

    if args.trace:
        units = layers.metric_units()
        values = {
            name: statistics.median(v[name] for _, v in traced)
            for name in units if name in traced[0][1]
        }
        values["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["trace.overhead_s"] = (
            statistics.median(r.seconds for r, _ in traced) - median
        )
        print(f"trace.overhead_s compares {len(traced)} traced with {len(plain)} "
              "untraced passes" + ("; from a single traced pass it is within the "
                                   "machine's drift and can come out negative"
                                   if len(traced) == 1 else ""))
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"environment": env}) + "\n")
        for tracer in tracers:
            tracer.write_spans(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": statistics.median(setup_samples), "pass_s": median}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="", flush=True)
            lines = done.stdout.strip().splitlines()
            ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print("all workloads correct" if ok else "some workload failed its checks")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sweep", action="store_true",
                        help="time the scaling sweep in N instead of a workload")
    args = parser.parse_args(argv)
    if args.sweep:
        _require_source()
        WORK.mkdir(exist_ok=True)
        import sweep

        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            return sweep.main(workdir)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
