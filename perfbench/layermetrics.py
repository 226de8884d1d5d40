"""Per-layer metrics, named ``<layer>.<function>.<stat>``, from traced passes.

Times are medians over the traced passes of a run. Counts must be the same
in every traced pass; a difference is reported as a problem.
"""

from __future__ import annotations

import statistics

from layertrace import LAYERS

SELF_S = [
    "cloner.apply_cloner", "cloner.apply_cloner_dicke",
    "linalg.hermitize", "linalg.kron_power", "linalg.tensor_product",
    "linalg.partial_trace", "linalg.bloch_of", "linalg.haar_random_pure_batch",
    "estimator.sample_candidates", "estimator.estimation_fidelity_exact",
    "estimator.povm_completeness_residual", "estimator.measure_and_prepare_channel",
    "symspace.is_symmetric_support", "symspace.pseudo_mixture_decompose",
    "symspace.embed_dicke", "symspace.project_dicke", "symspace.tensor_power_dicke",
]
BUSY_S = ["cloner.measure_shrinking", "cli._emit"]
CALLS = ["cloner.apply_cloner", "cloner.apply_cloner_dicke",
         "symspace.is_symmetric_support", "bounds.eta_opt"]
CACHES = ["symspace.symmetrizer", "symspace.dicke_basis", "estimator.sphere_quadrature"]

# metric -> (unit, better); the per_layer list of BENCHMARK.json
UNITS = {
    **{f"{f}.calls": ("count", "lower") for f in CALLS},
    **{f"{f}.self_s": ("s", "lower") for f in SELF_S},
    **{f"{f}.busy_s": ("s", "lower") for f in BUSY_S},
    **{f"{f}.cache_misses": ("count", "lower") for f in CACHES},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "cloner.apply_cloner.flops_computed": ("flop", "lower"),
    "cloner.apply_cloner.per_measure": ("ratio", "lower"),
    "linalg.haar_random_pure_batch.rows": ("count", "lower"),
    "estimator.mc.used_ratio": ("ratio", "higher"),
    "symspace.is_symmetric_support.max_dim": ("dim", "lower"),
    "symspace.pseudo_mixture_decompose.failed": ("count", "lower"),
    "cli.checks.worst_margin": ("ratio", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Metrics from `passes`, a list of (pass_stats, failed, arg_counts, outcome)
    for each traced pass; returns (metrics, problems)."""
    index = {name: i for i, name in enumerate(tracer.names)}
    problems = []

    counts = [(list(s["calls"]), failed, arg_counts) for s, failed, arg_counts, _ in passes]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")
    calls, failed, arg_counts = counts[0]

    def median_of(stat, names):
        return statistics.median(sum(s[stat][index[n]] for n in names) for s, *_ in passes)

    def arg_count(name):
        return arg_counts[index[name]] or 0

    out = {}
    for f in CALLS:
        out[f"{f}.calls"] = int(calls[index[f]])
    for f in SELF_S:
        out[f"{f}.self_s"] = median_of("self_s", [f])
    for f in BUSY_S:
        out[f"{f}.busy_s"] = median_of("busy_s", [f])
    for f in CACHES:
        out[f"{f}.cache_misses"] = tracer.original(f).cache_info().misses
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median_of(
            "self_s", [n for n in tracer.names if n.startswith(layer + ".")])
    out["cloner.apply_cloner.flops_computed"] = arg_count("cloner.apply_cloner")
    out["cloner.apply_cloner.per_measure"] = _ratio(
        calls[index["cloner.apply_cloner"]], calls[index["cloner.measure_shrinking"]])
    out["linalg.haar_random_pure_batch.rows"] = arg_count("linalg.haar_random_pure_batch")
    out["estimator.mc.used_ratio"] = _ratio(arg_count("estimator.sample_candidates"),
                                            arg_count("linalg.haar_random_pure_batch"))
    out["symspace.is_symmetric_support.max_dim"] = arg_count("symspace.is_symmetric_support")
    out["symspace.pseudo_mixture_decompose.failed"] = failed[index["symspace.pseudo_mixture_decompose"]]
    out["cli.checks.worst_margin"] = max(o.worst_margin for *_, o in passes)
    return out, problems
