"""Dense complex linear algebra and single-qubit Bloch geometry.

Conventions used throughout the package:

- qubit 0 is the leftmost (most significant) tensor factor, so the
  computational basis index of |b0 b1 ... b(n-1)> is the integer with
  b0 as its top bit;
- density operators are plain complex numpy arrays of shape (2^n, 2^n);
- randomness always flows through an explicit numpy Generator built from
  a counter-based Philox stream (see rng_from_seed), never global state.
"""

from __future__ import annotations

import numbers
from math import inf

import numpy as np

# Tolerance tiers: structural identities, eigenvalue positivity, physics.
STRUCT_TOL = 1e-12
PSD_TOL = 1e-10
PHYS_TOL = 1e-9

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class DegenerateInputError(ValueError):
    """Raised when a shrinking factor is requested for a maximally mixed
    (zero Bloch length) reduced input, where the ratio is undefined."""


# Every size limit of the package: the largest accepted value and the refusal
# of any other value ({value}, {lo} and {hi} are filled in), with the
# measurement that set it (2-core guest, one BLAS thread).
LIMITS = {
    # qubits of a 2^n operator: at the limit random_symmetric_density takes
    # 0.21 s and 294 MB; one qubit more peaked at 1,066 MB, two ask for 4 GiB.
    "full_space": (12, "n must be an integer in {lo}..{hi} for a 2^n operator, got {value}"),
    # qubits in Dicke coordinates: clones of the channel (each CloneChannel
    # refuses more, in its own wording) and copies of measure-and-prepare and of
    # exact and Monte Carlo estimation (in the estimator's wording, "m must be
    # ..."); verify_statement_b drives the channel and the map to the limit, and
    # the estimation map is within 1e-14 of its exact values at every M
    # (test_matches_exact_twin).
    "dicke": (60, "n must be an integer in {lo}..{hi} for Dicke coordinates, got {value}"),
    # qubits of a pseudo-mixture: the range test_coordinate_core_sweep measures.
    "pseudo_mixture": (14, "pseudo-mixture n must be an integer in {lo}..{hi}, got {value}"),
    # Monte Carlo shots, streamed, so a time limit: 0.26 to 0.33 s in 36 MB
    # max RSS, with a 0.92 MB tracemalloc peak.
    "shots": (10 ** 7, "n_shots must be in {lo}..{hi}, got {value}"),
    # certification samples, streamed, so a time limit: 0.9 s at (N, M) = (1, 2),
    # 1.4 s at (6, 60) and 8.5 to 9.9 s at (60, 60), each within 41 MB max RSS.
    "samples": (10 ** 6, "need at least {lo} samples and at most {hi}, got {value}"),
}


def _integer_in(value, lo, hi, message=None):
    """value as an int, if it is an integer (not a bool) in lo..hi; else
    ValueError(message.format(value=value, lo=lo, hi=hi)). A name hi is a
    LIMITS entry: its largest value, and its message unless one is given."""
    if type(hi) is str:
        hi, limit_message = LIMITS[hi]
        message = message or limit_message
    if type(value) is int or (type(value) is not bool and isinstance(value, numbers.Integral)):
        if lo <= value <= hi:
            return int(value)
    raise ValueError(message.format(value=value, lo=lo, hi=hi))


def rng_from_seed(seed):
    """Deterministic generator from a seed reduced modulo 2^64 (Philox,
    counter-based); derived seeds such as seed + offset never overflow."""
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) % 2 ** 64)))


def n_qubits_of(mat):
    """n of a 2^n x 2^n operator, n >= 1; ValueError for any other shape."""
    dim = mat.shape[0] if mat.ndim == 2 else 0
    if mat.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"matrix shape {mat.shape} is not 2^n x 2^n")
    return dim.bit_length() - 1


def tensor_product(*ops):
    """Kronecker product; leftmost argument is qubit 0 (most significant)."""
    if not ops:
        raise ValueError("need at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def kron_power(op, k):
    """op ⊗ op ⊗ ... (k factors); k = 0 gives the 1x1 identity."""
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, op)
    return out


def partial_trace(rho, keep, n=None):
    """Reduced density operator on the qubits listed in `keep`.

    `keep` is any nonempty subset of {0..n-1}; the remaining qubits are
    traced out. Output qubit order follows the sorted kept indices.
    """
    rho = np.asarray(rho, dtype=complex)
    if n is None:
        n = n_qubits_of(rho)
    message = "keep entries must be integers in {lo}..{hi}, got {value}"
    keep = sorted(set(_integer_in(q, 0, n - 1, message) for q in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    t = rho.reshape((2,) * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    # Trace highest-index qubits first so lower axis numbers stay valid.
    n_cur = n
    for q in reversed(traced):
        t = np.trace(t, axis1=q, axis2=q + n_cur)
        n_cur -= 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def hermitize(rho):
    """Symmetrize floating-point drift; asserts the drift was below PSD_TOL (a
    NaN drift is not). Leading axes are a batch: each trailing square matrix is
    symmetrized."""
    rho = np.asarray(rho, dtype=complex)
    adj = rho.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(rho - adj))
    if not dev < PSD_TOL:
        raise ValueError(f"Hermiticity deviation {dev:.3e} exceeds {PSD_TOL:.0e}")
    return (rho + adj) / 2


def min_eigenvalue(rho):
    rho = np.asarray(rho, dtype=complex)
    return float(np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2).min())


def bloch_of(rho):
    """Bloch vector (Tr ρσx, Tr ρσy, Tr ρσz) of a single-qubit operator;
    shape (..., 2, 2) gives one vector per operator, shape (..., 3)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho.shape}")
    r01, r10 = rho[..., 0, 1], rho[..., 1, 0]
    comps = np.stack((r01 + r10, 1j * (r01 - r10), rho[..., 0, 0] - rho[..., 1, 1]), axis=-1)
    if np.max(np.abs(comps.imag)) > STRUCT_TOL:
        raise ValueError("Bloch components have non-negligible imaginary part")
    return comps.real


def state_from_bloch(s):
    """ρ = (1 + s·σ)/2 for |s| ≤ 1."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if np.linalg.norm(s) > 1 + STRUCT_TOL:
        raise ValueError(f"Bloch vector length {np.linalg.norm(s)} exceeds 1")
    return (ID2 + s[0] * PAULI_X + s[1] * PAULI_Y + s[2] * PAULI_Z) / 2


def haar_random_pure(rng):
    """Haar-uniform pure qubit state: two complex Gaussians, normalized."""
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return amps / np.linalg.norm(amps)


def haar_random_pure_batch(rng, count):
    """count Haar-uniform pure states, shape (count, 2): the same draws as
    count successive calls of haar_random_pure."""
    count = _integer_in(count, 0, inf, "count must be an integer >= {lo}, got {value}")
    x = rng.standard_normal((count, 2, 2))
    amps = x[:, 0] + 1j * x[:, 1]
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def pure_fidelity(psi, rho):
    """F = <psi| rho |psi> for a single-qubit rho, as a float; psi of shape
    (..., 2) and rho of shape (..., 2, 2) give an array of one F per pair."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    val = (psi.conj()[..., None, :] @ rho @ psi[..., :, None])[..., 0, 0]
    imag = np.max(np.abs(val.imag))
    if imag > PHYS_TOL:
        raise ValueError(f"fidelity has imaginary part {imag:.3e}")
    return float(val.real) if val.ndim == 0 else val.real
