"""One benchmark process: set up a workload, run its passes, print the result.

Usage: python3 perfbench/child.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set up and exit), ``measure`` (a first and one warm
pass, untraced) or ``trace`` (a first pass, then untraced and traced passes
while they fit in SECONDS). The process prints ``{"ready": true}``
once imports are done and inputs are generated, then, unless MODE is
``setup``, one JSON line with its measurements. `run.py` starts it with
src/ on PYTHONPATH and BLAS pinned to one thread.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

# Imports are part of set-up time.
import numpy as np

import qclone
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"


def _say(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _timed(run_pass, inputs):
    start = time.perf_counter()
    outcome = run_pass(inputs)
    return time.perf_counter() - start, outcome


def _measure(run_pass, inputs):
    """A first pass and one warm pass; `run.py` starts several such processes."""
    first_s, first = _timed(run_pass, inputs)
    warm_s, warm = _timed(run_pass, inputs)
    return {"first_pass_s": first_s, "pass_s": [warm_s],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}, [first, warm]


def _trace(run_pass, inputs, seconds, workload, seed):
    """First pass untraced, then untraced and traced passes in turn."""
    # Imported here so that untraced set-up time does not include the tracer.
    from layertrace import LayerTrace
    from layermetrics import layer_metrics

    tracer = LayerTrace()
    started = time.perf_counter()
    first_s, first = _timed(run_pass, inputs)
    plain, traced, outcomes, stats = [], [], [first], []
    problems = []
    # Another untraced/traced pair while it fits in the window; at least one.
    while not traced or time.perf_counter() - started + 2 * statistics.median(plain) <= seconds:
        elapsed, outcome = _timed(run_pass, inputs)
        plain.append(elapsed)
        outcomes.append(outcome)
        tracer.reset()
        tracer.install()
        try:
            missed = tracer.unwrapped_attributes()
            if missed:
                problems.append(f"unwrapped after install: {missed}")
            elapsed, outcome = _timed(run_pass, inputs)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        outcomes.append(outcome)
        stats.append((tracer.pass_stats(), list(tracer.failed), list(tracer.arg_counts), outcome))
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_DIR / f"spans-{workload}-seed{seed}.tsv")
    metrics, count_problems = layer_metrics(tracer, stats)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    result = {"layers": metrics, "pass_s": plain, "traced_pass_s": traced}
    return result, outcomes, problems + count_problems


def main():
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    src = (ROOT / "src").resolve()
    if Path(qclone.__file__).resolve().parent.parent != src:
        sys.exit(f"qclone imported from {qclone.__file__}, not from {src}")
    setup, run_pass = WORKLOADS[workload]
    inputs = setup(seed)
    _say({"ready": True})
    if mode == "setup":
        return
    if mode == "trace":
        result, outcomes, problems = _trace(run_pass, inputs, seconds, workload, seed)
    else:
        result, outcomes = _measure(run_pass, inputs)
        problems = []
    digests = sorted({o.digest for o in outcomes})
    if len(digests) != 1:
        problems.append(f"report bytes differ between passes: {digests}")
    for o in outcomes:
        problems.extend(o.problems)
    result.update({
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "passes": len(outcomes),
        "checks_per_pass": outcomes[0].attempted,
        "failed_per_pass": outcomes[0].failed,
        "worst_margin": max(o.worst_margin for o in outcomes),
        "digest": digests[0],
        "errors": sorted({e for o in outcomes for e in o.errors}),
        "problems": sorted(set(problems)),
        "numpy": np.__version__,
        "blas": _blas(),
    })
    _say(result)


if __name__ == "__main__":
    main()
