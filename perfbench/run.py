"""qclone benchmark: one run of one workload, driven from outside the package.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 26 --trace 0

Run it from the repository root. Each run starts fresh child processes
(perfbench/child.py) with src/ on PYTHONPATH and BLAS pinned to one thread,
so no lru cache survives from one run to the next:

- with ``--trace 0``, SETUP_REPS children that only set up, then children
  that each run a first and one warm pass, while the next one fits in
  ``--seconds`` (at least MIN_MEASURING); prints the end-to-end metrics of
  BENCHMARK.json, each a median over the children or passes;
- with ``--trace 1``, one child that alternates untraced and traced passes;
  prints the per-layer metrics of BENCHMARK.json.

The last line of standard output is the result,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the details: the environment, sample counts, the
sha256 of the pass's report bytes, raised errors and any problem found.
Exits 1 without a result when the program cannot be run or a child fails.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qclone"
WORKLOADS = ("verify-grid", "clone-dicke", "estimate", "decompose")
DEFAULT_SEED = 1
SETUP_REPS = 3          # set-up-only children per untraced run
MIN_MEASURING = 2       # measuring children per untraced run, at least
CHILD_DEADLINE_S = 170  # a run must end within 180 s
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_pass_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "checks_passed_frac": "frac",
}


class RunError(Exception):
    """The program could not be run; no result is printed."""


def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 32:
        raise argparse.ArgumentTypeError("seed must be in 0..2^32-1")
    return value


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(workload, seed, seconds, mode, deadline):
    """Start one child; returns (seconds until it was set up, its result or None)."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(seconds), mode]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.strip():
        raise RunError(f"{mode} child for {workload} exited with code {proc.returncode}")
    if json.loads(ready) != {"ready": True}:
        raise RunError(f"unexpected first line from child: {ready!r}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _git_commit():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def _environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_qclone_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                for p in sorted(PACKAGE.glob("*.py"))),
    }


def _declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them for this kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _measure(workload, seed, seconds, deadline):
    """Set-up-only children, then measuring children while the next one fits
    in the window (at least MIN_MEASURING); returns merged child results."""
    setups = [_run_child(workload, seed, seconds, "setup", deadline)[0]
              for _ in range(SETUP_REPS)]
    results, durations = [], []
    started = time.perf_counter()
    while (len(results) < MIN_MEASURING
           or time.perf_counter() - started + statistics.median(durations) <= seconds):
        child_start = time.perf_counter()
        setup_s, result = _run_child(workload, seed, seconds, "measure", deadline)
        durations.append(time.perf_counter() - child_start)
        setups.append(setup_s)
        results.append(result)
    return {**_merge(results), "setup_s": setups}


def _merge(results):
    """Counts summed, lists joined; report bytes must agree across processes."""
    digests = sorted({r["digest"] for r in results})
    problems = sorted({p for r in results for p in r["problems"]})
    if len(digests) != 1:
        problems.append(f"report bytes differ between processes: {digests}")
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "passes": sum(r["passes"] for r in results),
        "processes": len(results),
        "checks_per_pass": results[0]["checks_per_pass"],
        "failed_per_pass": results[0]["failed_per_pass"],
        "worst_margin": max(r["worst_margin"] for r in results),
        "digest": digests[0],
        "first_pass_s": [r["first_pass_s"] for r in results],
        "pass_s": [t for r in results for t in r["pass_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "errors": sorted({e for r in results for e in r["errors"]}),
        "problems": problems,
        "numpy": results[0]["numpy"],
        "blas": results[0]["blas"],
    }


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + CHILD_DEADLINE_S
    if not (PACKAGE / "__init__.py").is_file():
        raise RunError(f"no qclone package at {PACKAGE}")
    if trace:
        from layermetrics import UNITS
        units = {name: unit for name, (unit, _) in UNITS.items()}
        _, result = _run_child(workload, seed, seconds, "trace", deadline)
        result["processes"] = 1
        metrics = result["layers"]
        samples = {"pass_s": len(result["pass_s"]), "traced_pass_s": len(result["traced_pass_s"])}
    else:
        units = END_TO_END_UNITS
        result = _measure(workload, seed, seconds, deadline)
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "first_pass_s": statistics.median(result["first_pass_s"]),
            "pass_s": statistics.median(result["pass_s"]),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"]),
            "checks_passed_frac": 1 - result["failed"] / result["attempted"],
        }
        samples = {name: len(result[name]) for name in ("setup_s", "first_pass_s", "pass_s",
                                                          "peak_rss_mb")}
        samples["checks_passed_frac"] = result["attempted"]
    if units != _declared("per_layer" if trace else "end_to_end"):
        raise RunError("metric names or units differ from BENCHMARK.json")
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "samples": samples,
        "report_sha256": result["digest"],
        "processes": result["processes"],
        "passes": result["passes"],
        "checks_per_pass": result["checks_per_pass"],
        "failed_per_pass": result["failed_per_pass"],
        "worst_margin": result["worst_margin"],
        "first_pass_s_all": result.get("first_pass_s"),
        "pass_s_all": result["pass_s"],
        "traced_pass_s_all": result.get("traced_pass_s"),
        "errors": result["errors"],
        "problems": result["problems"],
        "environment": {**_environment(), "numpy": result["numpy"], "blas": result["blas"]},
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
