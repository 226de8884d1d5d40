"""Optimal universal state estimation on M identical copies.

The measurement is the continuous covariant family over pure states,

    P_phi = (M+1) |phi><phi|^⊗M dμ(phi) ,

complete on the symmetric subspace. Averages over the Bloch sphere are
trigonometric polynomials of known degree, so a Gauss-Legendre grid in
cos(theta) (`_polar_rule`, refined and computed once per M) times a uniform
grid in azimuth integrates them exactly; no sampling error enters the exact
path. The azimuth sum is exact in closed form, so `measure_and_prepare_dicke`
is the band kernel `symspace._band_qubit` with a map summed over the polar
nodes alone (`_estimation_map`). Exact estimation applies it to the band of
|psi><psi|^⊗M and reads F = <psi|rho_bar|psi>; Statement B to the M→L
cloner's output band (`cloner._output_band`), so no whole output is formed.

The Monte Carlo path draws outcomes exactly instead: under the Haar measure
the overlap u = |<phi|psi>|^2 is uniform on [0, 1] and the azimuth of phi
about psi is uniform and independent of it, so the outcome density
(M+1) u^M is sampled by inverting its distribution function, with no
rejection; the azimuth phase is a table entry times a short series. The
estimate reads the drawn overlap u and azimuth phase and never forms the
outcome states; `sample_candidates` forms them from the same draws, as the
explicit outcome sampler and the tests' oracle. Both paths take the copy
count M within `linalg.LIMITS["dicke"]`, the limit of the measure-and-prepare
map that exact estimation reads; the Monte Carlo path draws shots within
`LIMITS["shots"]`. It streams them in chunks of BLOCK_ENTRIES // 2
shots from one generator into one set of work arrays and keeps running
sums, so its memory does not grow with the shot count and the shot limit is
a time limit (see the table).

Estimating on M copies and preparing the candidate realizes cloning to
arbitrarily many copies; its single-qubit output is exactly the
reconstruction operator rho_bar, which shrinks the input Bloch vector by
M/(M+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    PHYS_TOL,
    _integer_in,
    hermitize,
    pure_fidelity,
    rng_from_seed,
)
from .symspace import (BLOCK_ENTRIES, _band, _band_qubit, _dicke_coords, _frozen, _pure_band,
                       symmetric_coords, tensor_power_dicke)
from .cloner import CloneChannel, _output_band

_PHASE_STEPS = 256    # e^(2 pi i x) = _PHASES[j] e^(i theta), j = floor(256 x)
_PHASES = np.exp(2j * np.pi * np.arange(_PHASE_STEPS) / _PHASE_STEPS)   # 4 KiB
_PHASES.flags.writeable = False
_COPIES = "m must be an integer in {lo}..{hi}, got {value}"   # the copy count M


@dataclass(frozen=True)
class EstimationReport:
    m_copies: int
    fidelity_measured: float
    eta_measured: float
    rho_bar: np.ndarray            # 1-qubit reconstruction operator
    quadrature_order: int | None   # None on the Monte Carlo path
    statistical_error: float


def _legendre(k, x):
    """P_k(x) and P_k'(x) by the three-term recurrence, for x inside (-1, 1)."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, k):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, k * (x * p1 - p0) / (x * x - 1)


def _grid(m):
    """Polar nodes and azimuths of the sphere rule at M = m copies."""
    return (2 * m + 4 + 1) // 2 + 2, 2 * m + 5


@lru_cache(maxsize=None)
def _polar_rule(m):
    """Read-only cos(theta/2), sin(theta/2) and weights (summing to 1) of the
    polar Gauss-Legendre rule in cos(theta) shared by `sphere_quadrature(m)` and
    `_estimation_map(m)`, computed once per M.

    `leggauss`'s weights alone put the completeness diagonal of
    `_estimation_map` off by up to 1.36e-13 for M <= 60. Its nodes are refined
    by two Newton steps on the Legendre recurrence (Golub and Welsch, Math.
    Comp. 23, 221 (1969)) and antisymmetrised, the weights set to
    2/((1-x^2) P_k'(x)^2) and symmetrised: the map is then within 6.7e-15 of
    its exact values for every M <= 60.
    """
    k = _grid(m)[0]
    x = np.polynomial.legendre.leggauss(k)[0]
    for _ in range(2):
        p, dp = _legendre(k, x)
        x = x - p / dp
    x = (x - x[::-1]) / 2
    dp = _legendre(k, x)[1]
    w = 2 / ((1 - x * x) * dp * dp)
    thetas = np.arccos(x)
    return tuple(_frozen(a) for a in (np.cos(thetas / 2), np.sin(thetas / 2), (w + w[::-1]) / 4))


@lru_cache(maxsize=None, typed=True)
def sphere_quadrature(m):
    """Nodes and weights exact for the degree arising at M = m copies.

    Returns (states, weights): states[i] is a pure qubit state, weights sum
    to 1 and integrate any Bloch-sphere polynomial of the relevant degree
    exactly against the Haar measure: the polar rule times `_grid`'s azimuths.
    """
    m = _integer_in(m, 1, "dicke")
    c, s, w = _polar_rule(m)
    n_azim = _grid(m)[1]
    phis = 2 * np.pi * np.arange(n_azim) / n_azim
    amp0 = np.broadcast_to(c[:, None], (len(c), n_azim))
    amp1 = s[:, None] * np.exp(1j * phis)[None, :]
    states = np.stack([amp0.ravel(), amp1.ravel()], axis=1)
    weights = np.repeat(w / n_azim, n_azim)
    states.flags.writeable = False
    weights.flags.writeable = False
    return states, weights


@lru_cache(maxsize=None)
def _estimation_map(m):
    """Read-only band map of measure-and-prepare on M copies to one qubit. The
    azimuths of `sphere_quadrature` (`_grid`) average e^(i(l-k-d)phi), d = 0, 1, to
    [l = k+d] exactly, so only the polar nodes (c_j, s_j) with weights w_j remain;
    with v_j the Dicke coefficients of (c_j, s_j)^⊗M, d[k] = (M+1) Σ_j w_j v_jk²
    (c_j², s_j²) and u[k] = (M+1) Σ_j w_j v_jk v_j,k+1 c_j s_j."""
    c, s, w = _polar_rule(m)
    vecs = tensor_power_dicke(np.stack((c, s), axis=-1), m).real   # (nodes, M+1)
    d = (m + 1) * ((w[:, None] * vecs * vecs).T @ np.stack((c * c, s * s), axis=-1))
    u = (m + 1) * ((w * c * s) @ (vecs[:, :-1] * vecs[:, 1:]))
    return _frozen(d), _frozen(u[:, None])


@lru_cache(maxsize=None, typed=True)
def quadrature_powers(m):
    """Read-only Dicke coefficients of |phi_i>^⊗m, one row per node phi_i
    of `sphere_quadrature(m)`."""
    states, _ = sphere_quadrature(m)
    vecs = tensor_power_dicke(states, m)
    vecs.flags.writeable = False
    return vecs


def povm_completeness_residual(m):
    """Max-entry deviation of ∫ (M+1)|phi^⊗M><phi^⊗M| dμ from the identity
    on the symmetric subspace (in Dicke coordinates)."""
    m = _integer_in(m, 1, "dicke")
    _, weights = sphere_quadrature(m)
    vecs = quadrature_powers(m)
    acc = (m + 1) * ((vecs.T * weights) @ vecs.conj())
    return float(np.max(np.abs(acc - np.eye(m + 1))))


def estimation_fidelity_exact(m, psi):
    """Exact-quadrature estimation fidelity for M copies of the pure state
    psi: measure-and-prepare on the band of |psi><psi|^⊗M, F = <psi|rho_bar|psi>."""
    m = _integer_in(m, 1, "dicke", _COPIES)
    psi = _unit_qubit(psi)
    rho_bar = hermitize(_band_qubit(_pure_band(tensor_power_dicke(psi, m)), _estimation_map(m)))
    fid = pure_fidelity(psi, rho_bar)
    return EstimationReport(m, fid, 2 * fid - 1, rho_bar, math.prod(_grid(m)), 0.0)


def _unit_qubit(psi):
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,) or not abs(np.linalg.norm(psi) - 1) <= PHYS_TOL:   # NaN fails
        raise ValueError(f"psi must be a unit 2-vector, got {psi}")
    return psi


def _scratch(k):
    """Draws, overlaps, phases, table indices and a float array for k shots."""
    return np.empty((k, 2)), np.empty(k), np.empty(k, complex), np.empty(k, np.intp), np.empty(k)


def _draw(m, k, rng, scratch=None):
    """k outcomes of the covariant measurement on M copies, as the overlap
    u = |<phi|psi>|^2 and the phase e^(i chi) of phi's psi_perp component.

    The outcome density against the Haar measure is (M+1) u^M. Under Haar,
    u is uniform on [0, 1] and the azimuth chi of phi about psi is uniform and
    independent of u, so u = U^(1/(M+1)) and chi = 2 pi x for uniform U, x are
    exact draws. As x is a multiple of 2^-53, t = 256 x and j = floor(t) are
    exact, and e^(i chi) = _PHASES[j] e^(i theta), theta = 2 pi (t - j) / 256 <
    0.0245, by cosine and sine series to theta^6 (error below 4e-18). The draw
    fills views of `scratch` (`_scratch` of k or more shots) or of its own.
    """
    x, u, phase, j, t = (a[:k] for a in scratch or _scratch(k))
    rng.random(out=x)
    np.power(x[:, 0], 1 / (m + 1), out=u)
    th2, poly = phase.view(float)[:k], phase.view(float)[k:]   # free until the table lookup
    np.multiply(x[:, 1], _PHASE_STEPS, out=t)
    np.floor(t, out=th2)
    np.copyto(j, th2, casting="unsafe")
    t -= th2
    t *= 2 * np.pi / _PHASE_STEPS                    # theta
    np.square(t, out=th2)
    for col, (c6, c4, c2) in enumerate([(-1 / 720, 1 / 24, -1 / 2), (-1 / 5040, 1 / 120, -1 / 6)]):
        np.multiply(th2, c6, out=poly)               # Horner's rule in theta^2
        for c in (c4, c2):
            poly += c
            poly *= th2
        np.add(poly, 1, out=x[:, col])               # cos theta, then sin(theta) / theta
    x[:, 1] *= t
    np.take(_PHASES, j, out=phase, mode="clip")      # j is in 0..255
    phase *= x.view(complex)[:, 0]
    return u, phase


def sample_candidates(m, psi, n_shots, rng):
    """Draw n_shots outcomes phi of the covariant measurement on |psi>^⊗M,
    phi = sqrt(u) psi + sqrt(1-u) e^(i chi) psi_perp, psi_perp = (-psi1*, psi0*),
    with (u, e^(i chi)) from `_draw`, chunk by chunk into one scratch set."""
    m, n_shots = _integer_in(m, 1, "dicke", _COPIES), _integer_in(n_shots, 1, "shots")
    psi = _unit_qubit(psi)
    perp = np.array([-psi[1].conj(), psi[0].conj()])
    chunk = BLOCK_ENTRIES // 2
    scratch = _scratch(min(chunk, n_shots))
    out = np.empty((n_shots, 2), complex)
    for start in range(0, n_shots, chunk):
        u, phase = _draw(m, min(chunk, n_shots - start), rng, scratch)
        block = out[start:start + len(u)]
        np.multiply(np.sqrt(u)[:, None], psi, out=block)
        block += (np.sqrt(1 - u) * phase)[:, None] * perp
    return out


def estimate_monte_carlo(m, psi, n_shots, seed):
    """Simulated measurement: n_shots outcome draws, empirical fidelity.

    Reads the drawn overlaps u of `_draw` and never forms the candidates phi.
    Shots are drawn in chunks of BLOCK_ENTRIES // 2 from one generator, which
    continues the stream of a single draw. The overlaps' count, mean and
    centred sum of squares are merged chunk by chunk (Chan, Golub and
    LeVeque), so up to one chunk the fidelity and its standard error equal
    `u.mean()` and `u.std(ddof=1) / sqrt(n)` bit for bit. In the basis
    (psi, psi_perp) the mean of phi phi^† is [[F, W*/n], [W/n, 1-F]], with F
    the fidelity and W the sum of sqrt(u(1-u)) e^(i chi).
    """
    m, n_shots = _integer_in(m, 1, "dicke", _COPIES), _integer_in(n_shots, 1, "shots")
    psi = _unit_qubit(psi)
    rng = rng_from_seed(seed)
    chunk = BLOCK_ENTRIES // 2
    scratch = _scratch(min(chunk, n_shots))
    fid, sq, w = 0.0, 0.0, 0j   # running mean, centred sum of squares and W of `start` shots
    for start in range(0, n_shots, chunk):
        u, phase = _draw(m, min(chunk, n_shots - start), rng, scratch)
        k, mean = len(u), u.mean()
        a, delta = np.subtract(u, mean, out=scratch[-1][:k]), mean - fid
        total = start + k
        fid = float(fid + delta * (k / total))
        sq = float(sq + np.sum(np.square(a, out=a)) + delta * delta * (start * k / total))
        np.multiply(u, np.subtract(1, u, out=a), out=a)
        w += complex(*(np.sqrt(a, out=a) @ phase.view(float).reshape(-1, 2)))   # a stays real
    se = math.sqrt(sq / (n_shots - 1)) / math.sqrt(n_shots) if n_shots > 1 else 0.0
    basis = np.stack([psi, [-psi[1].conj(), psi[0].conj()]], axis=1)
    rho_bar = basis @ np.array([[fid, w.conjugate() / n_shots],
                                [w / n_shots, 1 - fid]]) @ basis.conj().T
    return EstimationReport(m, fid, 2 * fid - 1, hermitize(rho_bar), None, se)


def measure_and_prepare_channel(m, rho_m):
    """rho_bar = ∫ dμ(phi) Tr(P_phi rho_M) |phi><phi| by exact quadrature.

    The single-qubit output of measuring M copies and preparing candidates;
    scales the reduced input Bloch vector by M/(M+2).
    """
    return measure_and_prepare_dicke(symmetric_coords(rho_m, m))


def measure_and_prepare_dicke(coords):
    """`measure_and_prepare_channel` on the Dicke coordinates (M+1)x(M+1)
    of an M-copy input: the band map `_estimation_map(M)` on the input's
    diagonal and superdiagonal."""
    coords, m = _dicke_coords(coords, "dicke")
    return hermitize(_band_qubit(_band(coords), _estimation_map(m)))


def verify_statement_b(m, l, psi=None):
    """Clone M→L, then measure-and-prepare on the L clones: the composed
    fidelity <psi|rho_bar|psi> as a float, psi = |0> by default. Statement B
    says it equals (1 + eta_opt(M, L) eta_meas_opt(L)) / 2, which telescopes
    to fidelity_meas_opt(M) for every L within LIMITS["dicke"] (`qclone.bounds`)."""
    ch = CloneChannel(m, l)
    psi = _unit_qubit([1, 0] if psi is None else psi)
    out = _output_band(ch, _pure_band(tensor_power_dicke(psi, m)))
    return pure_fidelity(psi, hermitize(_band_qubit(out, _estimation_map(l))))

