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

import numpy as np

# Tolerance tiers: structural identities, eigenvalue positivity, physics.
STRUCT_TOL = 1e-12
PSD_TOL = 1e-10
PHYS_TOL = 1e-9

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


class DegenerateInputError(ValueError):
    """Raised when a shrinking factor is requested for a maximally mixed
    (zero Bloch length) reduced input, where the ratio is undefined."""


def rng_from_seed(seed):
    """Deterministic generator from a seed reduced modulo 2^64 (Philox,
    counter-based); derived seeds such as seed + offset never overflow."""
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) % 2 ** 64)))


def n_qubits_of(mat):
    dim = mat.shape[0]
    n = int(round(np.log2(dim)))
    if mat.shape != (dim, dim) or 2 ** n != dim:
        raise ValueError(f"matrix shape {mat.shape} is not 2^n x 2^n")
    return n


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


def pure_projector(psi):
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def partial_trace(rho, keep, n=None):
    """Reduced density operator on the qubits listed in `keep`.

    `keep` is any nonempty subset of {0..n-1}; the remaining qubits are
    traced out. Output qubit order follows the sorted kept indices.
    """
    rho = np.asarray(rho, dtype=complex)
    if n is None:
        n = n_qubits_of(rho)
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} out of range for {n} qubits")
    t = rho.reshape((2,) * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    # Trace highest-index qubits first so lower axis numbers stay valid.
    n_cur = n
    for q in reversed(traced):
        t = np.trace(t, axis1=q, axis2=q + n_cur)
        n_cur -= 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def hermitize(rho, tol=PSD_TOL):
    """Symmetrize floating-point drift; asserts the drift was small."""
    rho = np.asarray(rho, dtype=complex)
    adj = rho.conj().T
    dev = np.max(np.abs(rho - adj))
    if dev >= tol:
        raise ValueError(f"Hermiticity deviation {dev:.3e} exceeds {tol:.0e}")
    return (rho + adj) / 2


def min_eigenvalue(rho):
    return float(np.linalg.eigvalsh(hermitize(np.asarray(rho, dtype=complex), tol=np.inf)).min())


def bloch_of(rho):
    """Bloch vector (Tr ρσx, Tr ρσy, Tr ρσz) of a single-qubit operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho.shape}")
    comps = np.array([np.trace(p @ rho) for p in PAULIS])
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
    """count Haar-uniform pure states, shape (count, 2)."""
    amps = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def pure_fidelity(psi, rho):
    """F = <psi| rho |psi> for a single-qubit rho."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    val = psi.conj() @ rho @ psi
    if abs(val.imag) > PHYS_TOL:
        raise ValueError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(val.real)
