"""The limits table and the count check at the library boundary.

A plain seeded sweep calls each public entry with counts of every kind
(floats, NaN, a bool, negatives, numpy integers) and at each limit of
`linalg.LIMITS` and one past it; every call must return or raise
ValueError. A second sweep does the same for the shapes of Dicke
coordinates, and the README's limits table must read the table's values.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from qclone import bounds, cli, cloner, estimator, linalg, symspace
from qclone.cloner import CloneChannel
from qclone.linalg import LIMITS, rng_from_seed

README = Path(__file__).resolve().parents[1] / "README.md"
KET0 = np.array([1, 0], dtype=complex)
RHO1 = np.diag([0.75, 0.25]).astype(complex)   # one qubit, Bloch length 1/2
REFUSED = (2.5, math.nan, True, 3.0)           # never a count, not even a cached one


def limit(name):
    return LIMITS[name][0]


# entry -> (call on one count k, the largest accepted k or None, whether the
# sweep runs that largest k; it does not where the call would hold 268 MB or
# more, or take a second or more)
COUNT_ENTRIES = {
    "linalg.haar_random_pure_batch": (
        lambda k: linalg.haar_random_pure_batch(rng_from_seed(1), k), None, True),
    "linalg.partial_trace keep": (lambda k: linalg.partial_trace(np.eye(4) / 4, [k]), 1, True),
    "symspace.dicke_basis": (symspace.dicke_basis, limit("full_space"), True),
    "symspace.symmetrizer": (symspace.symmetrizer, limit("full_space"), False),
    "symspace.project_dicke": (
        lambda k: symspace.project_dicke(RHO1, k), limit("full_space"), False),
    "symspace.symmetric_coords": (
        lambda k: symspace.symmetric_coords(RHO1, k), limit("full_space"), False),
    "symspace.random_symmetric_density": (
        lambda k: symspace.random_symmetric_density(k, rng_from_seed(2)),
        limit("full_space"), False),
    "symspace.random_symmetric_dicke": (
        lambda k: symspace.random_symmetric_dicke(k, rng_from_seed(3)),
        limit("pseudo_mixture"), True),
    "symspace.tensor_power_dicke": (lambda k: symspace.tensor_power_dicke(KET0, k), None, True),
    "cloner.CloneChannel n_in": (lambda k: CloneChannel(k, limit("dicke")), limit("dicke"), True),
    "cloner.CloneChannel m_out": (lambda k: CloneChannel(1, k), limit("dicke"), True),
    "cloner.apply_cloner": (
        lambda k: cloner.apply_cloner(CloneChannel(1, k), RHO1), limit("full_space"), False),
    "cloner.apply_cloner_dicke": (
        lambda k: cloner.apply_cloner_dicke(CloneChannel(1, k), RHO1), limit("dicke"), True),
    "cloner.certify_universality m_out": (
        lambda k: cloner.certify_universality(CloneChannel(1, k), 2, 4), limit("dicke"), True),
    "cloner.certify_universality samples": (
        lambda k: cloner.certify_universality(CloneChannel(1, 2), k, 4), limit("samples"), False),
    "estimator.sphere_quadrature": (estimator.sphere_quadrature, limit("dicke"), True),
    "estimator.povm_completeness_residual": (
        estimator.povm_completeness_residual, limit("dicke"), True),
    "estimator.measure_and_prepare_channel": (
        lambda k: estimator.measure_and_prepare_channel(k, RHO1), limit("full_space"), False),
    "estimator.estimation_fidelity_exact": (
        lambda k: estimator.estimation_fidelity_exact(k, KET0), limit("dicke"), True),
    "estimator.estimate_monte_carlo copies": (
        lambda k: estimator.estimate_monte_carlo(k, KET0, 100, 5), limit("dicke"), True),
    "estimator.estimate_monte_carlo shots": (
        lambda k: estimator.estimate_monte_carlo(2, KET0, k, 5), limit("shots"), True),
    "estimator.sample_candidates copies": (
        lambda k: estimator.sample_candidates(k, KET0, 100, rng_from_seed(6)),
        limit("dicke"), True),
    "estimator.sample_candidates shots": (
        lambda k: estimator.sample_candidates(2, KET0, k, rng_from_seed(6)),
        limit("shots"), False),
    "estimator.verify_statement_b": (
        lambda k: estimator.verify_statement_b(1, k, KET0), limit("dicke"), True),
    "bounds.eta_opt n": (lambda k: bounds.eta_opt(k, 10 ** 6), None, True),
    "bounds.eta_opt m": (lambda k: bounds.eta_opt(1, k), None, True),
    "bounds.fidelity_opt n": (lambda k: bounds.fidelity_opt(k, 10 ** 6), None, True),
    "bounds.fidelity_opt m": (lambda k: bounds.fidelity_opt(1, k), None, True),
    "bounds.eta_meas_opt": (bounds.eta_meas_opt, None, True),
    "bounds.fidelity_meas_opt": (bounds.fidelity_meas_opt, None, True),
    "bounds.check_identities n": (lambda k: bounds.check_identities(k, 10, 20), None, True),
    "bounds.check_identities m": (lambda k: bounds.check_identities(1, k, 10 ** 6), None, True),
    "bounds.check_identities l": (lambda k: bounds.check_identities(1, 2, k), None, True),
    "cli.run_verify_all samples": (
        lambda k: cli.run_verify_all(7, k, 1e-9), limit("shots") // 200, False),
    "cli.run_estimate": (lambda k: cli.run_estimate(k, 0, 8, 1e-9), limit("dicke"), True),
    "cli.run_concat": (lambda k: cli.run_concat(1, 2, k, 9, 1e-9), limit("dicke"), True),
}


def _outcome(call, value):
    """'ok' or 'refused'; any other exception fails the sweep."""
    try:
        call(value)
    except ValueError:
        return "refused"
    return "ok"


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_sweep(entry):
    call, hi, run_limit = COUNT_ENTRIES[entry]
    # equal numpy integers first: a cache keyed without types would answer True and 3.0
    for value in [np.int64(1), np.int64(3), *REFUSED, -1, 0, np.int64(2), np.int64(-1)]:
        got = _outcome(call, value)
        if any(value is v for v in REFUSED):
            assert got == "refused", (entry, value)
    if hi is not None:
        if run_limit:
            assert _outcome(call, hi) == _outcome(call, np.int64(hi)) == "ok", entry
        assert _outcome(call, hi + 1) == _outcome(call, np.int64(hi + 1)) == "refused", entry


def _coords(shape):
    """A unit-trace Hermitian operator of a square shape, batched; ones otherwise."""
    if len(shape) >= 2 and shape[-1] == shape[-2] and shape[-1] > 0:
        return np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape)
    return np.ones(shape)


# entry -> (call on Dicke coordinates, its LIMITS entry, whether it takes one
# batch axis, whether the sweep runs it at the limit)
COORD_ENTRIES = {
    "symspace.embed_dicke": (symspace.embed_dicke, "full_space", False, False),
    "symspace.reduced_qubit_from_dicke": (symspace.reduced_qubit_from_dicke, "dicke", True, True),
    "symspace.pseudo_mixture_decompose_dicke": (
        symspace.pseudo_mixture_decompose_dicke, "pseudo_mixture", False, True),
    "estimator.measure_and_prepare_dicke": (
        estimator.measure_and_prepare_dicke, "dicke", False, True),
}


@pytest.mark.parametrize("entry", COORD_ENTRIES)
def test_coordinate_shape_sweep(entry):
    call, name, batch, run_limit = COORD_ENTRIES[entry]
    hi = limit(name)
    for shape in [(), (3,), (2, 3), (3, 2), (1, 1), (0, 0), (2, 2, 3, 3), (hi + 2, hi + 2)]:
        assert _outcome(call, _coords(shape)) == "refused", (entry, shape)
    for shape, index, bad in [((3, 3), (0, 0), math.nan), ((3, 3), (0, 1), math.inf),
                              ((2, 3, 3), (1, 2, 1), complex(0, math.nan))]:
        coords = np.array(_coords(shape), dtype=complex)
        coords[index] = bad
        assert _outcome(call, coords) == "refused", (entry, shape, bad)
    assert _outcome(call, _coords((2, 3, 3))) == ("ok" if batch else "refused"), entry
    assert _outcome(call, _coords((2, 2))) == "ok", entry
    if run_limit:
        assert _outcome(call, _coords((hi + 1, hi + 1))) == "ok", entry


@pytest.mark.parametrize("entry", ["symspace.reduced_qubit_from_dicke",
                                   "estimator.measure_and_prepare_dicke"])
def test_coordinate_refusal_names_no_channel(entry):
    # coordinates one past the limit have no m_out: the table's wording names n
    call, hi = COORD_ENTRIES[entry][0], limit("dicke")
    with pytest.raises(ValueError) as refusal:
        call(_coords((hi + 2, hi + 2)))
    assert str(refusal.value) == f"n must be an integer in 1..{hi} for Dicke coordinates, got {hi + 1}"


STATE_ENTRIES = {
    "estimator.sample_candidates": lambda psi: estimator.sample_candidates(3, psi, 4, rng_from_seed(11)),
    "estimator.estimation_fidelity_exact": lambda psi: estimator.estimation_fidelity_exact(3, psi),
    "estimator.estimate_monte_carlo": lambda psi: estimator.estimate_monte_carlo(3, psi, 4, 12),
    "estimator.verify_statement_b": lambda psi: estimator.verify_statement_b(1, 3, psi),
}


@pytest.mark.parametrize("entry", STATE_ENTRIES)
def test_non_finite_states_refused(entry):
    # a NaN norm compares False with everything, so the unit check must not pass it
    for psi in ([math.nan, 0], [1, math.nan], [complex(0, math.nan), 0], [math.inf, 0],
                [1, math.inf]):
        with pytest.raises(ValueError, match="psi must be a unit 2-vector"):
            STATE_ENTRIES[entry](psi)


def test_full_space_limit_refused_before_building():
    # one qubit past the limit is refused before any 2^n operator is built
    n = limit("full_space") + 1
    with pytest.raises(ValueError, match=f"for a 2\\^n operator, got {n}$"):
        symspace.random_symmetric_density(n, rng_from_seed(10))


def test_check_identities_names_l():
    with pytest.raises(ValueError, match="^l must be an integer >= 1, got 2.5$"):
        bounds.check_identities(1, 2, 2.5)


def test_partial_trace_refuses_fractional_qubit():
    with pytest.raises(ValueError, match="keep entries must be integers in 0..1, got 0.5"):
        linalg.partial_trace(np.eye(4) / 4, [0.5])


@pytest.mark.parametrize("argv,message", [
    (["estimate", "--m", str(limit("dicke") + 1)], "m must be an integer in 1..60, got 61"),
    (["clone", "--n", "1", "--m", str(limit("dicke") + 1)], "dicke path limited to m_out <= 60"),
    (["verify-all", "--samples", str(limit("shots") // 200 + 1)],
     "need at least 2 samples and at most 50000, got 50001: Monte Carlo cells draw 200 "
     "shots per sample, at most 10000000"),
    (["clone", "--n", "1", "--m", "2", "--samples", str(limit("samples") + 1)],
     "need at least 2 samples and at most 1000000, got 1000001"),
])
def test_cli_refuses_one_past_each_limit(capsys, argv, message):
    # the table carries the wording the CLI has always printed
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_readme_limits_match_table():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Limits\n"):]
    section = section[:section.index("\n## ", 1)]
    rows = re.findall(r"^\| `(\w+)` \| ([\d,]+) \|", section, re.MULTILINE)
    assert {name: int(value.replace(",", "")) for name, value in rows} == \
        {name: hi for name, (hi, _) in LIMITS.items()}
