"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on success; failures surface through pytest as usual).
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclone
from qclone.bounds import eta_meas_opt, eta_opt, fidelity_meas_opt, fidelity_opt
from qclone.cloner import (
    CloneChannel,
    apply_cloner,
    certify_universality,
    measure_shrinking,
)
from qclone.estimator import (
    estimate_monte_carlo,
    estimation_fidelity_exact,
    measure_and_prepare_channel,
    verify_statement_b,
)
from qclone.linalg import (
    bloch_of,
    haar_random_pure,
    partial_trace,
    rng_from_seed,
)
from qclone.symspace import (
    project_dicke,
    pseudo_mixture_decompose,
    random_symmetric_density,
    symmetrizer,
)

from oracle import min_eigenvalue, tensor_power_input

GRID = [(n, m) for n in range(1, 5) for m in range(n, 9)]


def announce(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def grid_reports():
    return {(n, m): certify_universality(CloneChannel(n, m), 50, seed=1000 + 31 * n + m)
            for n, m in GRID}


@announce("criterion 1: shrinking-factor grid (26 pairs, 50 Haar inputs, 1e-9)")
def test_criterion_1_shrinking_factor_grid(grid_reports):
    assert len(GRID) == 26
    for (n, m), rep in grid_reports.items():
        assert abs(rep.eta_measured - float(eta_opt(n, m))) < 1e-9, (n, m)
        assert rep.universality_spread < 1e-9, (n, m)


@announce("criterion 2: fidelity grid matches exact ledger (1e-9)")
def test_criterion_2_fidelity_values(grid_reports):
    assert abs(grid_reports[(1, 2)].fidelity_measured - 5 / 6) < 1e-9
    for (n, m), rep in grid_reports.items():
        assert abs(rep.fidelity_measured - float(fidelity_opt(n, m))) < 1e-9, (n, m)


@announce("criterion 3: estimation fidelity, exact M=1..5 (1e-8) and MC M=1..3 (4 SE)")
def test_criterion_3_estimation_fidelity():
    for m in range(1, 6):
        psi = haar_random_pure(rng_from_seed(2000 + m))
        rep = estimation_fidelity_exact(m, psi)
        assert abs(rep.fidelity_measured - (m + 1) / (m + 2)) < 1e-8, m
    for m in range(1, 4):
        psi = haar_random_pure(rng_from_seed(2100 + m))
        rep = estimate_monte_carlo(m, psi, 100_000, seed=2200 + m)
        assert abs(rep.fidelity_measured - (m + 1) / (m + 2)) < 4 * rep.statistical_error, m


@announce("criterion 4: concatenation multiplicativity (L<=7 simulated, L<=50 exact)")
def test_criterion_4_concatenation():
    for n in range(1, 8):
        for m in range(n, 8):
            for l in range(m, 8):
                psi = haar_random_pure(rng_from_seed(3000 + 49 * n + 7 * m + l))
                rho_n = tensor_power_input(psi, n)
                eta1 = measure_shrinking(CloneChannel(n, m), rho_n).eta_measured
                mid = apply_cloner(CloneChannel(n, m), rho_n)
                eta2 = measure_shrinking(CloneChannel(m, l), mid).eta_measured
                direct = measure_shrinking(CloneChannel(n, l), rho_n).eta_measured
                assert abs(eta1 * eta2 - direct) < 1e-9, (n, m, l)
                assert abs(direct - float(eta_opt(n, l))) < 1e-9, (n, m, l)
    for n in range(1, 51):
        for m in range(n, 51):
            for l in range(m, 51):
                assert eta_opt(n, m) * eta_opt(m, l) == eta_opt(n, l)


@announce("criterion 5: cloner + measure-and-prepare composition telescopes (1e-8)")
def test_criterion_5_statement_b_composition():
    for m in (1, 2):
        for l in range(m, 7):
            psi = haar_random_pure(rng_from_seed(4000 + 11 * m + l))
            composed = verify_statement_b(m, l, psi)
            assert abs(composed - float((1 + eta_opt(m, l) * eta_meas_opt(l)) / 2)) < 1e-8, (m, l)
            assert abs(composed - float(fidelity_meas_opt(m))) < 1e-8, (m, l)


@announce("criterion 6: mixed/entangled symmetric inputs scale linearly (1e-9)")
def test_criterion_6_mixed_symmetric_inputs():
    rng = rng_from_seed(5000)
    cases = [(n, m) for n in (1, 2, 3) for m in range(n, 9)]
    count = 0
    while count < 50:
        n, m = cases[count % len(cases)]
        rho_n = random_symmetric_density(n, rng, min_bloch=0.1)
        s_in = bloch_of(partial_trace(rho_n, {0}, n) if n > 1 else rho_n)
        out = apply_cloner(CloneChannel(n, m), rho_n)
        s_out = bloch_of(partial_trace(out, {0}, m) if m > 1 else out)
        assert np.max(np.abs(s_out - float(eta_opt(n, m)) * s_in)) < 1e-9, (n, m)
        count += 1
    for m in (1, 2, 3):
        rho_m = random_symmetric_density(m, rng, min_bloch=0.1)
        s_in = bloch_of(partial_trace(rho_m, {0}, m) if m > 1 else rho_m)
        s_bar = bloch_of(measure_and_prepare_channel(m, rho_m))
        assert np.max(np.abs(s_bar - float(eta_meas_opt(m)) * s_in)) < 1e-9, m


@announce("criterion 7: channel sanity (trace 1e-12, PSD -1e-10, support 1e-11, reductions 1e-11)")
def test_criterion_7_channel_sanity():
    rng = rng_from_seed(6000)
    for n, m in GRID:
        for rho_n in (tensor_power_input(haar_random_pure(rng), n),
                      random_symmetric_density(n, rng)):
            out = apply_cloner(CloneChannel(n, m), rho_n)
            assert abs(out.trace() - 1) < 1e-12, (n, m)
            assert min_eigenvalue(out) >= -1e-10, (n, m)
            comp = np.eye(2 ** m) - symmetrizer(m)
            assert np.max(np.abs(comp @ out)) < 1e-11, (n, m)
            reductions = ([partial_trace(out, {q}, m) for q in range(m)]
                          if m > 1 else [out])
            for r in reductions[1:]:
                assert np.max(np.abs(r - reductions[0])) < 1e-11, (n, m)


@announce("criterion 8: pseudo-mixtures (residual 1e-9, weight sum 1e-10, negatives observed)")
def test_criterion_8_pseudo_mixture():
    rng = rng_from_seed(7000)
    saw_negative = False
    for i in range(50):
        n = 1 + i % 4
        rho = random_symmetric_density(n, rng)
        pm = pseudo_mixture_decompose(rho)
        target = project_dicke(rho, n)
        assert np.max(np.abs(pm.reconstruct_dicke() - target)) < 1e-9, n
        assert abs(pm.weights.sum() - 1) < 1e-10, n
        saw_negative = saw_negative or pm.min_weight < 0
    assert saw_negative


# sha256 of the JSON list of every check's (name, n, m, l, expected, tolerance, pass)
# in a seed-1 verify-all report; it changes when a check is added, dropped, renamed,
# moved, re-toleranced or flips.
CHECK_INVENTORY_SHA256 = "fcc443eced4855911989d78648990390b17c7f9b54f839599b4b4e8f3a1a11b2"
INVENTORY_KEYS = ("name", "n", "m", "l", "expected", "tolerance", "pass")


@announce("criterion 9: verify-all --seed 1 is byte-identical across runs, 554 checks pinned")
def test_criterion_9_determinism(tmp_path):
    # the child imports the same qclone as this process, installed or not
    src = str(Path(qclone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qclone.cli", "verify-all", "--seed", "1",
             "--output", str(path)],
            capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert (report["results"]["n_checks"], report["results"]["n_failed"]) == (554, 0)
    rows = [[c[k] for k in INVENTORY_KEYS] for c in report["checks"]]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CHECK_INVENTORY_SHA256
