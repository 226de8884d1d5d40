"""Command-line driver: it draws the verification grid, turns the measurements of
`cloner`, `estimator` and `bounds` into report rows, and emits them.

Subcommands:
    bounds      exact ledger values and identity checks for (n, m, l)
    clone       run the cloning channel and certify universality for (n, m)
    estimate    exact-quadrature and Monte Carlo estimation for m copies
    concat      chain-multiplicativity check for (n, m, l)
    verify-all  the full verification grid; exit 0 iff every check passes

All randomness flows from --seed, so identical invocations produce
byte-identical reports (timing goes to stderr, never into the report).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import bounds as bd
from .cloner import (CloneChannel, apply_cloner_dicke, certify_cells, certify_universality,
                     measure_chains, measure_inputs)
from .estimator import (
    estimate_monte_carlo,
    estimation_fidelity_exact,
    measure_and_prepare_dicke,
    povm_completeness_residual,
    verify_statement_b,
)
from .linalg import LIMITS, _integer_in, bloch_of, haar_random_pure, hermitize, rng_from_seed
from .symspace import pseudo_mixture_decompose_dicke, random_symmetric_dicke, tensor_power_dicke

DEFAULT_TOL = 1e-9


def _fmt(x):
    """Floats at 12 significant digits for CSV cells."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def _ratio(x):
    """p/q of a Fraction, "1/1" included (str gives "1")."""
    return f"{x.numerator}/{x.denominator}"


def _row(name, expected, actual, err, tol, n, m, l):
    """One report row; it passes iff err < tol (a NaN error fails)."""
    return {"name": name, "n": n, "m": m, "l": l, "expected": expected, "actual": actual,
            "abs_error": err, "tolerance": tol, "pass": bool(err < tol)}


def _check(name, expected, actual, tol, n=None, m=None, l=None):
    value = float(expected)
    text = _ratio(expected) if isinstance(expected, Fraction) else _fmt(value)
    return _row(name, text, float(actual), abs(float(actual) - value), tol, n, m, l)


def _flag(name, holds, n=None, m=None, l=None):
    return _row(name, "true", 1.0 if holds else 0.0, 0.0 if holds else 1.0, 0.5, n, m, l)


# ---------------------------------------------------------------- subcommands

def run_bounds(n, m, l):
    l = l if l is not None else m
    rep = bd.check_identities(n, m, l)
    checks = [
        _check("eta_opt", rep.eta_opt, float(rep.eta_opt), 1e-15, n=n, m=m),
        _check("fidelity_opt", rep.fidelity_opt, float(rep.fidelity_opt), 1e-15, n=n, m=m),
        _check("eta_meas_opt", rep.eta_meas_opt, float(rep.eta_meas_opt), 1e-15, m=m),
        _check("fidelity_meas_opt", rep.fidelity_meas_opt, float(rep.fidelity_meas_opt), 1e-15, m=m),
    ]
    for name, holds, _slack in rep.inequality_checks:
        checks.append(_flag(name, holds, n=n, m=m, l=l))
    results = {
        "eta_opt": _ratio(rep.eta_opt),
        "eta_opt_float": float(rep.eta_opt),
        "fidelity_opt": _ratio(rep.fidelity_opt),
        "fidelity_opt_float": float(rep.fidelity_opt),
        "eta_meas_opt": _ratio(rep.eta_meas_opt),
        "fidelity_meas_opt": _ratio(rep.fidelity_meas_opt),
    }
    return results, checks


def run_clone(n, m, samples, seed, tol):
    rep = certify_universality(CloneChannel(n, m), samples, seed)
    return _clone_report(rep, samples, seed, tol)


def _clone_report(rep, samples, seed, tol):
    """(results, checks) of one certified clone cell."""
    n, m, exact = rep.n_in, rep.m_out, bd.eta_opt(rep.n_in, rep.m_out)
    # The outputs are Dicke coordinates: symmetric by construction, so the residual is 0.
    checks = [
        _check("clone-eta", exact, rep.eta_measured, tol, n=n, m=m),
        _check("clone-fidelity", bd.fidelity_opt(n, m), rep.fidelity_measured, tol, n=n, m=m),
        _check("universality-spread", 0.0, rep.universality_spread, tol, n=n, m=m),
        _check("output-symmetric-residual", 0.0, 0.0, 1e-11, n=n, m=m),
    ]
    results = {
        "n": n, "m": m, "samples": samples, "seed": seed,
        "eta_measured": rep.eta_measured,
        "eta_predicted": _ratio(exact),
        "fidelity_measured": rep.fidelity_measured,
        "universality_spread": rep.universality_spread,
        "output_symmetric_residual": 0.0,
    }
    return results, checks


def run_estimate(m, shots, seed, tol):
    psi = haar_random_pure(rng_from_seed(seed))
    exact, predicted = estimation_fidelity_exact(m, psi), bd.fidelity_meas_opt(m)
    checks = [
        _check("estimate-fidelity-exact", predicted, exact.fidelity_measured, tol, m=m),
        _check("povm-completeness", 0.0, povm_completeness_residual(m), 1e-10, m=m),
    ]
    results = {
        "m": m, "seed": seed,
        "fidelity_exact": exact.fidelity_measured,
        "fidelity_predicted": _ratio(predicted),
        "eta_exact": exact.eta_measured,
        "quadrature_order": exact.quadrature_order,
    }
    if shots:
        mc = estimate_monte_carlo(m, psi, shots, seed)
        band = max(4 * mc.statistical_error, 1e-12)
        checks.append(_check("estimate-fidelity-mc", predicted, mc.fidelity_measured, band, m=m))
        results.update({
            "fidelity_mc": mc.fidelity_measured,
            "mc_shots": shots,
            "mc_statistical_error": mc.statistical_error,
        })
    return results, checks


def run_concat(n, m, l, seed, tol):
    """Chain multiplicativity for one (n, m, l): the batch of one."""
    return run_concat_chains([(n, m, l, seed)], tol)[0]


def run_concat_chains(chains, tol):
    """(results, checks) of each chain (n, m, l, seed), in chain order, from the
    shrinking factors of `cloner.measure_chains`."""
    reports = []
    for (n, m, l, seed), (e1, direct, e2) in zip(chains, measure_chains(chains)):
        chain, exact = e1 * e2, bd.eta_opt(n, l)
        checks = [
            _check("concat-chain-eta", exact, chain, tol, n=n, m=m, l=l),
            _check("concat-direct-eta", exact, direct, tol, n=n, m=m, l=l),
            _check("concat-product-vs-direct", direct, chain, tol, n=n, m=m, l=l),
        ]
        results = {
            "n": n, "m": m, "l": l, "seed": seed,
            "eta_stage1": e1, "eta_stage2": e2,
            "eta_chain": chain, "eta_direct": direct,
            "eta_exact": _ratio(exact),
        }
        reports.append((results, checks))
    return reports


def _ledger_grid_checks():
    """Exact ledger grid: all chains up to 50, plus monotonicity, over the values
    eta_opt(n, m) = p/q, 1 <= n <= m <= 51, compared by integer cross-multiplication
    in int64: one upper-triangular (m, l) block of chains per n."""
    p, q = np.zeros((2, 52, 52), np.int64)
    for n in range(1, 52):
        for m in range(n, 52):
            p[n, m], q[n, m] = bd.eta_opt(n, m).as_integer_ratio()
    if int(max(p.max(), q.max())) ** 3 >= 2 ** 63:   # every product below has three factors
        raise OverflowError("ledger grid products exceed int64")
    bad = total = 0
    for n in range(1, 51):
        k, upper = slice(n, 51), np.triu(np.ones((51 - n, 51 - n), bool))
        # p1 p2 q3 == p3 q1 q2 for eta(n, m) eta(m, l) == eta(n, l), m rows and l columns
        bad += np.count_nonzero((p[n, k, None] * p[k, k] * q[n, k]
                                 != q[n, k, None] * q[k, k] * p[n, k]) & upper)
        total += np.count_nonzero(upper)
    upper = np.triu(np.ones((50, 50), bool))
    down_m = p[1:51, 2:52] * q[1:51, 1:51] < p[1:51, 1:51] * q[1:51, 2:52]  # eta(n, m+1) < eta(n, m)
    up_n = p[1:50, 2:51] * q[2:51, 2:51] < p[2:51, 2:51] * q[1:50, 2:51]    # eta(n, m) < eta(n+1, m)
    mono = bool(np.all(down_m, where=upper) and np.all(up_n, where=upper[1:, 1:]))
    return [_flag(f"ledger-chain-identity-grid-50 ({total} triples)", bad == 0),
            _flag("ledger-monotonicity-grid-50", mono)]


def clone_cells(seed):
    """The verify-all cloning grid N <= 4, M <= 8: (n, m, clone seed, sanity seed)."""
    return [(n, m, seed + 31 * n + m, seed + 997 + 31 * n + m)
            for n in range(1, 5) for m in range(n, 9)]


def concat_chains(seed):
    """The verify-all concatenation chains, N <= 4, L <= 8: (n, m, l, seed)."""
    return [(n, m, l, seed + 7 * n + 5 * m + l)
            for n in range(1, 5) for m in range(n, 9) for l in range(m, 9)]


def run_verify_all(seed, samples, tol):
    samples = _integer_in(samples, 2, math.inf, "need at least 2 samples")
    _integer_in(samples, 2, LIMITS["shots"][0] // 200, "samples must be at most {hi}: Monte Carlo "
                f"cells draw 200 shots per sample, at most {LIMITS['shots'][0]}")
    checks = _ledger_grid_checks()
    cells = clone_cells(seed)
    channels = [(CloneChannel(n, m), clone_seed) for n, m, clone_seed, _ in cells]
    for rep, (n, m, clone_seed, sanity_seed) in zip(certify_cells(channels, samples), cells):
        checks.extend(_clone_report(rep, samples, clone_seed, tol)[1])
        checks.extend(_sanity_checks(n, m, sanity_seed))
    for _, cs in run_concat_chains(concat_chains(seed), tol):
        checks.extend(cs)

    # Estimation: exact M <= 5, Monte Carlo M <= 3.
    for m in range(1, 6):
        shots = samples * 200 if m <= 3 else 0
        _, cs = run_estimate(m, shots, seed + 100 + m, 1e-8)
        checks.extend(cs)

    # Composition of cloning with measure-and-prepare, M <= 2, L <= 6.
    for m in (1, 2):
        for l in range(m, 7):
            composed = verify_statement_b(m, l, haar_random_pure(rng_from_seed(seed + 13 * m + l)))
            checks.append(_check("composition-fidelity",
                                 float((1 + bd.eta_opt(m, l) * bd.eta_meas_opt(l)) / 2),
                                 composed, 1e-8, m=m, l=l))
            checks.append(_check("composition-l-independence", float(bd.fidelity_meas_opt(m)),
                                 composed, 1e-8, m=m, l=l))

    # Mixed symmetric inputs: cloner and measurement both scale linearly; one tail.
    rng = rng_from_seed(seed + 777)
    mixed = [(CloneChannel(n, n + 2), random_symmetric_dicke(n, rng, min_bloch=0.1))
             for n in (1, 2, 3)]
    q_in, etas, _ = measure_inputs(mixed)
    for (ch, coords), q, eta in zip(mixed, q_in, etas):
        n, m = ch.n_in, ch.m_out
        checks.append(_check("mixed-input-clone-eta", bd.eta_opt(n, m), eta, tol, n=n, m=m))
        rho_bar = measure_and_prepare_dicke(coords)
        scale = np.linalg.norm(bloch_of(rho_bar)) / np.linalg.norm(bloch_of(q))
        checks.append(_check("mixed-input-measurement-eta", bd.eta_meas_opt(n),
                             scale, tol, m=n))

    # Pseudo-mixture decompositions.
    rng = rng_from_seed(seed + 888)
    saw_negative = False
    worst_residual = 0.0
    worst_sum = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(5):
            pm = pseudo_mixture_decompose_dicke(random_symmetric_dicke(n, rng))
            worst_residual = max(worst_residual, pm.residual)
            worst_sum = max(worst_sum, abs(float(pm.weights.sum()) - 1.0))
            saw_negative = saw_negative or pm.min_weight < 0
    checks.append(_check("pseudo-mixture-residual", 0.0, worst_residual, 1e-9))
    checks.append(_check("pseudo-mixture-weight-sum", 0.0, worst_sum, 1e-10))
    checks.append(_flag("pseudo-mixture-negative-weight-observed", saw_negative))

    results = {
        "seed": seed,
        "samples": samples,
        "n_checks": len(checks),
        "n_failed": sum(1 for c in checks if not c["pass"]),
    }
    return results, checks


def _sanity_checks(n, m, seed):
    """Trace and positivity of the Dicke engine's (M+1)x(M+1) output for
    |psi><psi|^⊗N. Its 2^M embedding has the eigenvalues of out and zeros, so
    eigvalsh(out)[0] >= -1e-10 is the dense verdict. The symmetric residual
    and the spread of the M qubit reductions are 0 by construction, like
    output-symmetric-residual; the tests measure both on the embedding."""
    v = tensor_power_dicke(haar_random_pure(rng_from_seed(seed)), n)
    out = hermitize(apply_cloner_dicke(CloneChannel(n, m), np.outer(v, v.conj())))
    return [
        _check("sanity-trace", 1.0, float(out.trace().real), 1e-12, n=n, m=m),
        _flag("sanity-min-eigenvalue", np.linalg.eigvalsh(out)[0] >= -1e-10, n=n, m=m),
        _check("sanity-symmetric-residual", 0.0, 0.0, 1e-11, n=n, m=m),
        _check("sanity-reductions-identical", 0.0, 0.0, 1e-11, n=n, m=m),
    ]


# ------------------------------------------------------------------- emission

def _emit_json(report, stream):
    stream.write(json.dumps(report, indent=2) + "\n")


def _emit_csv(report, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "m", "l", "quantity", "expected", "actual", "abs_error", "pass"])
    for c in report["checks"]:
        writer.writerow([
            _fmt(c["n"]), _fmt(c["m"]), _fmt(c["l"]), c["name"],
            c["expected"], _fmt(c["actual"]), _fmt(c["abs_error"]),
            "true" if c["pass"] else "false",
        ])


def _emit_table(report, stream):
    use_color = stream.isatty() and not os.environ.get("NO_COLOR")
    ok, bad = ("\x1b[32mpass\x1b[0m", "\x1b[31mFAIL\x1b[0m") if use_color else ("pass", "FAIL")
    rows = [("check", "params", "expected", "actual", "status")]
    for c in report["checks"]:
        params = ",".join(f"{k}={c[k]}" for k in ("n", "m", "l") if c[k] is not None)
        rows.append((c["name"], params, c["expected"], _fmt(c["actual"]),
                     ok if c["pass"] else bad))
    widths = [max(len(str(r[i])) for r in rows) for i in range(4)]
    for r in rows:
        stream.write("  ".join(str(r[i]).ljust(widths[i]) for i in range(4)) + "  " + r[4] + "\n")


def _emit(report, fmt, path):
    write = {"json": _emit_json, "csv": _emit_csv}.get(fmt, _emit_table)
    try:
        if path:
            with open(path, "w", encoding="utf-8") as f:
                write(report, f)
        else:
            write(report, sys.stdout)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        raise SystemExit(3)


# ----------------------------------------------------------------- entrypoint

def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed must be in 0..2^64-1, got {text}")
    return value


def _samples(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"samples must be at least 2, got {text}")
    return value


def _shots(text):
    value, hi = int(text), LIMITS["shots"][0]
    if not (value == 0 or 2 <= value <= hi):
        raise argparse.ArgumentTypeError(f"shots must be 0 (skip) or in 2..{hi}, got {text}")
    return value


def _tolerance(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Universal qubit cloning and state estimation verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = ("--seed", dict(type=_seed, default=1, help="64-bit RNG seed, 0..2^64-1"))
    samples = ("--samples", dict(type=_samples, default=50,
                                 help="random inputs per cell, at least 2"))
    tol = ("--tol", dict(type=_tolerance, default=DEFAULT_TOL,
                         help="tolerance for physics checks, finite and > 0"))

    def common(p, default_format, *options):
        """The options the command reads, then --format and --output."""
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=["json", "csv", "table"],
                       default=default_format, dest="output_format")
        p.add_argument("--output", type=str, default=None, help="write report to file")

    p = sub.add_parser("bounds", help="exact ledger values and identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    common(p, "table")

    p = sub.add_parser("clone", help="run and certify the n->m cloner")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p, "json", seed, samples, tol)

    p = sub.add_parser("estimate", help="estimation on m copies, exact + MC")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--shots", type=_shots, default=10000,
                   help=f"MC shots: 0 (skip) or 2..{LIMITS['shots'][0]}")
    common(p, "json", seed, tol)

    p = sub.add_parser("concat", help="chain multiplicativity for (n, m, l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    common(p, "json", seed, tol)

    p = sub.add_parser("verify-all", help="full verification grid")
    common(p, "json", seed, samples, tol)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.command == "bounds":
            results, checks = run_bounds(args.n, args.m, args.l)
        elif args.command == "clone":
            results, checks = run_clone(args.n, args.m, args.samples, args.seed, args.tol)
        elif args.command == "estimate":
            results, checks = run_estimate(args.m, args.shots, args.seed, args.tol)
        elif args.command == "concat":
            results, checks = run_concat(args.n, args.m, args.l, args.seed, args.tol)
        else:
            results, checks = run_verify_all(args.seed, args.samples, args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:   # a physics guard (trace, rotation, residual, draw) tripped
        print(f"error: {exc}", file=sys.stderr)
        return 1

    config = {k: getattr(args, k, None)
              for k in ("command", "n", "m", "l", "samples", "seed", "tol", "output_format")}
    report = {"config": config, "results": results, "checks": checks}
    _emit(report, args.output_format, args.output)

    elapsed = time.monotonic() - t0
    failed = [c for c in checks if not c["pass"]]
    print(f"{args.command}: {len(checks) - len(failed)}/{len(checks)} checks passed "
          f"in {elapsed:.2f}s", file=sys.stderr)
    for c in failed:
        print(f"  FAIL {c['name']} expected={c['expected']} actual={_fmt(c['actual'])}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
