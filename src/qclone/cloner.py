"""Universal N→M qubit cloning channel and its certification.

The channel is the symmetrization construction

    rho_N  ->  (N+1)/(M+1) * S_M (rho_N ⊗ 1^⊗(M-N)) S_M ,

trace-preserving on symmetric inputs. It scales the Bloch vector of the
single-qubit reduction by N(M+2)/(M(N+2)) without rotating it; saturation
of that optimum is verified by the test suite, not assumed here.

The measured shrinking factor and fidelity come from the Dicke-coordinate
engine for every M ≤ 60: it works directly on the (N+1)- and (M+1)-dim
coordinate spaces. The full 2^M-space path (M ≤ 12) is the independent
oracle behind the symmetric-support residual, the CLI sanity checks, the
first stage of concatenation and the cloning/measure-and-prepare
composition (statement B). Neither path forms the dense symmetrizer: with
V the Dicke isometry, the full-space path contracts rho against V to get
V†(rho ⊗ 1)V and returns (N+1)/(M+1) V (...) V†, and the input support
check costs O(4^N N) instead of O(8^N). The two paths agree within 1e-10
where both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .linalg import (
    DegenerateInputError,
    PSD_TOL,
    bloch_of,
    haar_random_pure,
    hermitize,
    partial_trace,
    pure_fidelity,
    rng_from_seed,
)
from .symspace import (
    dicke_basis,
    embed_dicke,
    is_symmetric_support,
    project_dicke,
    tensor_power_dicke,
)

FULL_SPACE_MAX = 12
DICKE_MAX = 60
MIN_BLOCH_LENGTH = 1e-6


@dataclass(frozen=True)
class CloneChannel:
    """Descriptor of the universal cloner taking n_in originals to m_out clones."""

    n_in: int
    m_out: int

    def __post_init__(self):
        if self.n_in < 1:
            raise ValueError(f"n_in must be positive, got {self.n_in}")
        if self.m_out < self.n_in:
            raise ValueError(f"m_out={self.m_out} must be >= n_in={self.n_in}")

    @property
    def eta_predicted(self):
        n, m = self.n_in, self.m_out
        return n * (m + 2) / (m * (n + 2))


@dataclass(frozen=True)
class CloneReport:
    n_in: int
    m_out: int
    eta_measured: float
    eta_predicted: float
    fidelity_measured: float
    universality_spread: float
    output_symmetric_residual: float


def _check_input(ch, rho_n):
    rho_n = np.asarray(rho_n, dtype=complex)
    if rho_n.shape != (2 ** ch.n_in,) * 2:
        raise ValueError(
            f"input shape {rho_n.shape} does not match n_in={ch.n_in}")
    if not is_symmetric_support(rho_n, tol=PSD_TOL):
        raise ValueError("cloner input must be supported on the symmetric subspace")
    return rho_n


def apply_cloner(ch, rho_n):
    """Full-space channel application; returns the 2^M-dim output operator."""
    return _apply_full(ch, _check_input(ch, rho_n))


def _apply_full(ch, rho_n):
    """`apply_cloner` on an input `_check_input` has already accepted."""
    n, m = ch.n_in, ch.m_out
    if m > FULL_SPACE_MAX:
        raise ValueError(f"full-space path limited to m_out <= {FULL_SPACE_MAX}; "
                         "use apply_cloner_dicke")
    if m == n:
        return rho_n.copy()
    # Row index of V is (input qubits, blank qubits), so V†(rho ⊗ 1)V
    # contracts rho against V split as (2^N, 2^(M-N), M+1).
    v = dicke_basis(m)
    coords = v.conj().T @ (rho_n @ v.reshape(2 ** n, -1)).reshape(2 ** m, m + 1)
    out = hermitize(v @ ((n + 1) / (m + 1) * coords) @ v.conj().T)
    tr = out.trace().real
    if abs(tr - 1) > 1e-10:
        raise RuntimeError(f"channel output trace {tr}, expected 1")
    return out


@lru_cache(maxsize=None)
def _dicke_table(n, m):
    """Read-only coefficients k[w, a, b] = (C(M-N,w) amp[w,a]) amp[w,b], with
    amp[w, a] = sqrt(C(N,a) / C(M,a+w)), and the flat index (a+w)(M+1) + b+w
    of out[a+w, b+w] that each term lands on, in (w, a, b) order."""
    ws = range(m - n + 1)
    amp = np.array([[sqrt(comb(n, a) / comb(m, a + w)) for a in range(n + 1)]
                    for w in ws])
    cw = np.array([float(comb(m - n, w)) for w in ws])
    k = (cw[:, None] * amp)[:, :, None] * amp[:, None, :]
    rows = np.arange(m - n + 1)[:, None] + np.arange(n + 1)[None, :]  # a + w
    flat = (rows[:, :, None] * (m + 1) + rows[:, None, :]).ravel()
    for arr in (k, flat):
        arr.flags.writeable = False
    return k, flat


def apply_cloner_dicke(ch, coords_n):
    """Channel in Dicke coordinates: (N+1)x(N+1) in, (M+1)x(M+1) out.

    Matrix elements follow from <D^M_j | (|D^N_a> ⊗ |x>) being nonzero only
    for wt(x) = j - a, so the identity on the blanks contributes one binomial
    factor per excess weight w: out = (N+1)/(M+1) Σ_w C(M-N,w) A_w ρ A_wᵀ.
    The coefficients come from the cached `_dicke_table(N, M)`; one
    scatter-add (`np.add.at`, increasing w) sums the terms into the output.
    """
    coords_n = np.asarray(coords_n, dtype=complex)
    n, m = ch.n_in, ch.m_out
    if coords_n.shape != (n + 1, n + 1):
        raise ValueError(f"coords shape {coords_n.shape} does not match n_in={n}")
    if m > DICKE_MAX:
        raise ValueError(f"dicke path limited to m_out <= {DICKE_MAX}")
    k, flat = _dicke_table(n, m)
    out = np.zeros((m + 1) ** 2, dtype=complex)
    np.add.at(out, flat, (k * coords_n).ravel())
    return out.reshape(m + 1, m + 1) * (n + 1) / (m + 1)


def reduced_qubit_from_dicke(coords):
    """Single-qubit reduction of a symmetric m-qubit state in Dicke coords."""
    coords = np.asarray(coords, dtype=complex)
    m = coords.shape[0] - 1
    if m < 1:
        raise ValueError("need at least one qubit")
    ks = np.arange(m + 1)
    diag = np.diagonal(coords)
    p00 = np.sum(diag * (m - ks)) / m
    p11 = np.sum(diag * ks) / m
    off = np.diagonal(coords, offset=1)  # coords[k, k+1]
    p01 = np.sum(off * np.sqrt((ks[:-1] + 1) * (m - ks[:-1]))) / m
    return np.array([[p00, p01], [np.conj(p01), p11]])


def _output_reduced_qubit(ch, rho_n):
    """One output clone's density operator, through Dicke coordinates.

    The test suite pins this path against the full-space oracle for M ≤ 12.
    """
    coords = project_dicke(np.asarray(rho_n, dtype=complex), ch.n_in)
    return reduced_qubit_from_dicke(apply_cloner_dicke(ch, coords))


def measure_shrinking(ch, rho_n):
    """Bloch-length ratio between one output clone and the reduced input.

    Requires a non-degenerate reduced input (Bloch length >= 1e-6) and
    asserts the output Bloch vector is parallel to the input one.
    """
    rho_n = _check_input(ch, rho_n)
    reduced_in = partial_trace(rho_n, {0}, ch.n_in) if ch.n_in > 1 else rho_n
    s_in = bloch_of(reduced_in)
    len_in = np.linalg.norm(s_in)
    if len_in < MIN_BLOCH_LENGTH:
        raise DegenerateInputError(
            f"reduced input Bloch length {len_in:.2e} below {MIN_BLOCH_LENGTH:.0e}; "
            "shrinking factor undefined")
    out_qubit = _output_reduced_qubit(ch, rho_n)
    s_out = bloch_of(hermitize(out_qubit))
    len_out = np.linalg.norm(s_out)
    eta = len_out / len_in
    # Angle via the perpendicular residual; arccos of the normalized dot
    # product cannot resolve angles below ~1e-8.
    unit_in = s_in / len_in
    perp = s_out - np.dot(s_out, unit_in) * unit_in
    angle = np.arcsin(np.clip(np.linalg.norm(perp) / len_out, 0.0, 1.0))
    if angle > 1e-9:
        raise RuntimeError(f"output Bloch vector rotated by {angle:.3e} rad")
    psi_dir = _direction_state(s_in)
    return CloneReport(
        n_in=ch.n_in,
        m_out=ch.m_out,
        eta_measured=float(eta),
        eta_predicted=ch.eta_predicted,
        fidelity_measured=pure_fidelity(psi_dir, out_qubit),
        universality_spread=0.0,
        output_symmetric_residual=_symmetric_residual(ch, rho_n),
    )


def _direction_state(s):
    x, y, z = s / np.linalg.norm(s)
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _symmetric_residual(ch, rho_n):
    """max |out - V V† out| of the full-space output, the part of it outside
    the symmetric subspace."""
    if ch.m_out > FULL_SPACE_MAX:
        return 0.0  # dicke path output is symmetric by construction
    out = _apply_full(ch, rho_n)
    v = dicke_basis(ch.m_out)
    return float(np.max(np.abs(out - v @ (v.conj().T @ out))))


def certify_universality(ch, n_samples, seed):
    """Apply the channel to Haar-random tensor-power inputs; the measured
    shrinking factor must not depend on the input state."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = rng_from_seed(seed)
    etas = []
    fids = []
    residual = 0.0
    for _ in range(n_samples):
        rho_n = tensor_power_input(haar_random_pure(rng), ch.n_in)
        rep = measure_shrinking(ch, rho_n)
        etas.append(rep.eta_measured)
        fids.append(rep.fidelity_measured)
        residual = max(residual, rep.output_symmetric_residual)
    etas = np.array(etas)
    return CloneReport(
        n_in=ch.n_in,
        m_out=ch.m_out,
        eta_measured=float(etas.mean()),
        eta_predicted=ch.eta_predicted,
        fidelity_measured=float(np.mean(fids)),
        universality_spread=float(etas.max() - etas.min()),
        output_symmetric_residual=residual,
    )


def concat_channels(first, second, rho_n):
    """Apply first (N→M) then second (M→L); full-space path."""
    if first.m_out != second.n_in:
        raise ValueError(
            f"cannot chain {first.n_in}->{first.m_out} with {second.n_in}->{second.m_out}")
    return apply_cloner(second, apply_cloner(first, rho_n))


def tensor_power_input(psi, n):
    """|psi><psi|^⊗n as a full-space operator, built through Dicke coords."""
    v = tensor_power_dicke(psi, n)
    return embed_dicke(np.outer(v, v.conj()))
