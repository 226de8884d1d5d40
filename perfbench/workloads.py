"""The four benchmark workloads and the checks that their outputs are right.

Each workload is a pair of functions:

    setup(seed) -> inputs       imports done, inputs generated from the seed
    run_pass(inputs) -> Outcome one full pass over the inputs, checked

The program only ever sees the generated inputs. Calls into qclone go
through module attributes (``cli.main``, ``symspace.pseudo_mixture_decompose``)
so that the traced run, which rebinds those attributes, sees every call.

Two kinds of bad result are kept apart:

- ``failed``: an operation raised, or a check the program made reports
  ``pass: false`` consistently with its own numbers. This is the program
  telling the truth about a result it could not certify.
- ``problems``: an output is malformed or wrong, e.g. a check marked as
  passing whose recomputed error exceeds its tolerance, an expected value
  that is not the paper's closed form, or report bytes that change from
  one pass to the next. Any problem makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import qclone.cli as cli
import qclone.estimator as estimator
import qclone.symspace as symspace


@dataclass
class Outcome:
    """Result of one pass: report digest, check counts and numerical headroom."""

    digest: str
    attempted: int = 0
    failed: int = 0
    worst_margin: float = 0.0            # largest abs_error / tolerance
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # raised operations, as text


def _fail(out, hasher, what, exc):
    """Count an operation that raised as one failed op; the pass goes on."""
    out.failed += 1
    out.errors.append(f"{what}: {exc!r}")
    hasher.update(repr(exc).encode())


# ------------------------------------------------------------ closed forms

def _eta(n, m):
    return Fraction(n * (m + 2), m * (n + 2))


def _fid(n, m):
    return (1 + _eta(n, m)) / 2


def _fid_meas(m):
    return Fraction(m + 1, m + 2)


# check name -> expected value from the paper's formulas, given (n, m, l)
CLOSED_FORMS = {
    "clone-eta": lambda n, m, l: _eta(n, m),
    "clone-fidelity": lambda n, m, l: _fid(n, m),
    "concat-chain-eta": lambda n, m, l: _eta(n, l),
    "concat-direct-eta": lambda n, m, l: _eta(n, l),
    "mixed-input-clone-eta": lambda n, m, l: _eta(n, m),
    "mixed-input-measurement-eta": lambda n, m, l: Fraction(m, m + 2),
    "estimate-fidelity-exact": lambda n, m, l: _fid_meas(m),
    "estimate-fidelity-mc": lambda n, m, l: _fid_meas(m),
    "composition-fidelity": lambda n, m, l: _fid_meas(m),
    "composition-l-independence": lambda n, m, l: _fid_meas(m),
}

# Reports print float-valued expectations at 12 significant digits.
REPR_SLACK = 1e-11


def _check_report(text, rc, out):
    """Validate one CLI JSON report and add its checks to `out`."""
    try:
        report = json.loads(text)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        out.problems.append(f"unparsable report: {exc!r}")
        return
    n_bad = 0
    for c in checks:
        label = f"{c.get('name')} n={c.get('n')} m={c.get('m')} l={c.get('l')}"
        try:
            expected, actual = c["expected"], float(c["actual"])
            err, tol, passed = float(c["abs_error"]), float(c["tolerance"]), c["pass"]
            exp_val = 1.0 if expected == "true" else float(Fraction(expected))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            out.problems.append(f"malformed check {label}: {exc!r}")
            continue
        if expected == "true":
            consistent = passed == (actual == 1.0) and err == (0.0 if passed else 1.0)
        else:
            recomputed = abs(actual - exp_val)
            close = (math.isclose(recomputed, err, rel_tol=0,
                                  abs_tol=REPR_SLACK * max(1.0, abs(exp_val)))
                     or (math.isnan(recomputed) and math.isnan(err)))
            consistent = close and passed == (err < tol)
            form = CLOSED_FORMS.get(c["name"])
            if form is not None:
                truth = form(c["n"], c["m"], c["l"])
                if "/" in expected:
                    agrees = Fraction(expected) == truth
                else:
                    agrees = abs(exp_val - float(truth)) <= REPR_SLACK
                if not agrees:
                    out.problems.append(f"{label}: expected {expected}, closed form {truth}")
        if not consistent:
            out.problems.append(f"{label}: pass={passed} disagrees with its numbers")
        if not passed:
            n_bad += 1
        out.worst_margin = max(out.worst_margin, err / tol)
    out.attempted += len(checks)
    out.failed += n_bad
    if rc != (1 if n_bad else 0):
        out.problems.append(f"exit code {rc} with {n_bad} failed checks")
    results = report.get("results", {})
    if "n_checks" in results and (results["n_checks"], results["n_failed"]) != (len(checks), n_bad):
        out.problems.append("results.n_checks/n_failed disagree with the check list")


def _run_cli(argv, out, hasher):
    """One in-process CLI invocation; a raised error counts as one failed op."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        out.attempted += 1
        _fail(out, hasher, " ".join(argv), exc)
        return
    text = stdout.getvalue()
    hasher.update(text.encode())
    _check_report(text, rc, out)


def _cli_pass(argvs):
    hasher = hashlib.sha256()
    out = Outcome(digest="")
    for argv in argvs:
        _run_cli(argv, out, hasher)
    out.digest = hasher.hexdigest()
    return out


# ------------------------------------------------------- CLI workloads

def setup_verify_grid(seed):
    return [["verify-all", "--seed", str(seed)]]


CLONE_NS = (1, 2, 4, 6)
CLONE_MS = (16, 24, 32, 40, 48, 60)   # all above the full-space limit of 12


def setup_clone_dicke(seed):
    return [["clone", "--n", str(n), "--m", str(m), "--samples", "100",
             "--seed", str(seed + 31 * n + m)]
            for n in CLONE_NS for m in CLONE_MS]


def setup_estimate(seed):
    return [["estimate", "--m", str(m), "--shots", "100000" if m <= 12 else "0",
             "--seed", str(seed + m)]
            for m in range(1, 21)]


# ------------------------------------------------------- decompose workload

DECOMPOSE_SIZES = ((8, 4), (10, 4), (11, 2))   # (qubits, inputs)
MEASURE_N = 10          # these inputs also go through measure_and_prepare_channel
RESIDUAL_TOL = 1e-9     # pseudo_mixture_decompose's own reconstruction tolerance
WEIGHT_SUM_TOL = 1e-10  # and its weight-sum tolerance
MEASURE_TOL = 1e-9


def _dicke_power(states, n):
    """Dicke coefficients of |psi>^n for each row psi, shape (len, n+1)."""
    k = np.arange(n + 1)
    binom = np.sqrt([math.comb(n, j) for j in k])
    a, b = states[:, :1], states[:, 1:]
    return binom * a ** (n - k) * b ** k


def _reduced_bloch(coords):
    """Bloch vector of one qubit of a symmetric state given in Dicke coordinates."""
    n = coords.shape[0] - 1
    k = np.arange(n + 1)
    diag = np.diagonal(coords).real
    p01 = np.sum(np.diagonal(coords, 1) * np.sqrt((k[:-1] + 1) * (n - k[:-1]))) / n
    return np.array([2 * p01.real, -2 * p01.imag, np.sum(diag * (n - 2 * k)) / n])


def _bloch(rho):
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def setup_decompose(seed):
    """Random full-rank symmetric densities: Ginibre in Dicke coordinates,
    embedded into the 2^n space before timing starts."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    inputs = []
    for n, count in DECOMPOSE_SIZES:
        for _ in range(count):
            g = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
            coords = g @ g.conj().T
            coords /= coords.trace()
            inputs.append((n, coords, symspace.embed_dicke(coords)))
    return inputs


def decompose_pass(inputs):
    hasher = hashlib.sha256()
    out = Outcome(digest="")
    for n, coords, rho in inputs:
        out.attempted += 1
        try:
            pm = symspace.pseudo_mixture_decompose(rho)
        except Exception as exc:
            _fail(out, hasher, f"pseudo_mixture_decompose n={n}", exc)
        else:
            hasher.update(pm.weights.tobytes())
            vecs = _dicke_power(np.asarray(pm.states), n)
            recon = np.einsum("i,ij,ik->jk", pm.weights, vecs, vecs.conj())
            err = float(np.max(np.abs(recon - coords)))
            sum_err = abs(float(np.sum(pm.weights)) - 1.0)
            # The program measures its residual against its own projection of
            # the input, which differs from `coords` by rounding only.
            if err >= RESIDUAL_TOL + 1e-12 or sum_err > WEIGHT_SUM_TOL:
                out.problems.append(f"decomposition n={n} accepted with error {err:.3e}, "
                                    f"weight-sum error {sum_err:.3e}")
            out.worst_margin = max(out.worst_margin, err / RESIDUAL_TOL,
                                   sum_err / WEIGHT_SUM_TOL)
        if n != MEASURE_N:
            continue
        out.attempted += 1
        try:
            rho_bar = estimator.measure_and_prepare_channel(n, rho)
        except Exception as exc:
            _fail(out, hasher, f"measure_and_prepare_channel n={n}", exc)
            continue
        hasher.update(np.asarray(rho_bar).tobytes())
        err = float(np.max(np.abs(_bloch(rho_bar) - n / (n + 2) * _reduced_bloch(coords))))
        if err >= MEASURE_TOL:
            out.problems.append(f"measure-and-prepare n={n} shrinks by the wrong factor "
                                f"(error {err:.3e})")
        out.worst_margin = max(out.worst_margin, err / MEASURE_TOL)
    out.digest = hasher.hexdigest()
    return out


WORKLOADS = {
    "verify-grid": (setup_verify_grid, _cli_pass),
    "clone-dicke": (setup_clone_dicke, _cli_pass),
    "estimate": (setup_estimate, _cli_pass),
    "decompose": (setup_decompose, decompose_pass),
}
