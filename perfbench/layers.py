"""Which neartoep functions the traced run wraps, and the per-layer metrics.

Every metric here is reported on every workload; a layer a workload never
reaches reports zero calls and zero time, which is itself the prediction
for that workload.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys

from tracer import Tracer

# Public entry points of each layer; calls, inclusive and self time.
FULL = {
    "neartoep.operators": ("symbol_fourier", "toeplitz_matrix", "perturbed_matrix", "apply"),
    "neartoep.subspaces": (
        "kernel_subspace", "minimal_defect", "vanish_at_zero", "span", "contains",
        "principal_angles",
    ),
    "neartoep.defects": (
        "model_space", "lambda_set", "theorem_defect_space", "theorem_defect_bound",
        "defect_witness", "verify_defect_theorem",
    ),
    "neartoep.cgp": ("build_cgp_frame", "verify_corollary"),
    "neartoep.runner": ("run_scenario", "stability_summary", "kernel_profile"),
    "neartoep.catalogue": ("run_catalogue",),
    "neartoep.cli": ("main",),
}
# Helpers called tens of thousands of times per pass: calls and self time.
HOT = {
    "neartoep.series": (
        "multiply", "multiply_analytic", "riesz_project", "embed", "backshift",
        "inner_product", "taylor_invert",
    ),
    "neartoep.blaschke": ("blaschke_expand",),
}

EXTRA_UNITS = {
    "subspaces.kernel_subspace.svd_gflop_computed": "Gflop",
    "subspaces.kernel_subspace.repeat_ratio": "ratio",
    "defects.model_space.repeat_ratio": "ratio",
    "cgp.verify_corollary.kernel_columns": "count",
    "cli.json_out_bytes": "B",
    "process.peak_rss_mb": "MB",
    "trace.overhead_s": "s",
}


def _label(module_name, fn_name):
    """Metric prefix of a function: its module's last name part, then its name."""
    return f"{module_name.rsplit('.', 1)[-1]}.{fn_name}"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module_name, names in FULL.items():
        for fn_name in names:
            label = _label(module_name, fn_name)
            units[f"{label}.calls"] = "count"
            units[f"{label}.incl_s"] = "s"
            units[f"{label}.self_s"] = "s"
    for module_name, names in HOT.items():
        for fn_name in names:
            label = _label(module_name, fn_name)
            units[f"{label}.calls"] = "count"
            units[f"{label}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


def svd_gflop(rows, cols):
    """Flops of a full complex SVD (U, S and V) of a rows x cols matrix.

    Golub and Van Loan's Golub-Reinsch count 4m^2n + 8mn^2 + 9n^3 for
    m >= n real flops, times 4 for complex arithmetic.  Computed from the
    shape, not measured.
    """
    m, n = max(rows, cols), min(rows, cols)
    return 4.0 * (4 * m * m * n + 8 * m * n * n + 9 * n**3) / 1e9


def _binder(fn):
    """Maps a call's (args, kwargs) to fn's parameters, defaults filled in."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Extras:
    """Counters the observers fill during one traced pass."""

    def __init__(self):
        self.svd_gflop = 0.0
        self.kernel_keys = set()
        self.model_keys = set()
        self.kernel_columns = 0

    def observers(self):
        kernel_args = _binder(sys.modules["neartoep.subspaces"].kernel_subspace)
        model_args = _binder(sys.modules["neartoep.defects"].model_space)

        def on_kernel(args, kwargs, _result):
            a = kernel_args(args, kwargs)
            entries = a["op"].entries
            cap = entries.shape[1] if a["column_cap"] is None else int(a["column_cap"])
            block = entries[:, :cap]
            self.svd_gflop += svd_gflop(*block.shape)
            digest = hashlib.blake2b(block.tobytes(), digest_size=16)
            self.kernel_keys.add((digest.hexdigest(), cap, a["rank_tol"]))

        def on_model(args, kwargs, _result):
            a = model_args(args, kwargs)
            theta = json.dumps(a["theta"].to_json_dict(), sort_keys=True)
            self.model_keys.add((theta, a["truncation"], a["rank_tol"]))

        def on_corollary(_args, _kwargs, result):
            self.kernel_columns += result.kernel_dim

        return {
            ("neartoep.subspaces", "kernel_subspace"): on_kernel,
            ("neartoep.defects", "model_space"): on_model,
            ("neartoep.cgp", "verify_corollary"): on_corollary,
        }


def traced(run_id):
    """A Tracer installed on every layer target, plus its Extras.  Use the
    tracer as a context manager so the bindings are restored afterwards."""
    extras = Extras()
    observers = extras.observers()
    targets = [
        (_label(module_name, fn_name), module_name, fn_name, False,
         observers.get((module_name, fn_name)))
        for module_name, names in FULL.items() for fn_name in names
    ] + [
        (_label(module_name, fn_name), module_name, fn_name, True, None)
        for module_name, names in HOT.items() for fn_name in names
    ]
    tracer = Tracer(run_id)
    tracer.install(targets)
    return tracer, extras


def layer_values(tracer, extras, json_out_bytes):
    """Per-layer metric values of one traced pass (all but the process and
    overhead extras, which the caller adds)."""
    values = {}
    for name in metric_units():
        label, _, field = name.rpartition(".")
        stat = tracer.stats.get(label)
        if field in ("calls", "incl_s", "self_s"):
            values[name] = getattr(stat, field) if stat is not None else 0
    kernel_calls = values["subspaces.kernel_subspace.calls"]
    model_calls = values["defects.model_space.calls"]
    values["subspaces.kernel_subspace.svd_gflop_computed"] = extras.svd_gflop
    values["subspaces.kernel_subspace.repeat_ratio"] = (
        kernel_calls / len(extras.kernel_keys) if extras.kernel_keys else 0.0
    )
    values["defects.model_space.repeat_ratio"] = (
        model_calls / len(extras.model_keys) if extras.model_keys else 0.0
    )
    values["cgp.verify_corollary.kernel_columns"] = extras.kernel_columns
    values["cli.json_out_bytes"] = json_out_bytes
    return values
