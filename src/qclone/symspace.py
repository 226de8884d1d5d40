"""Symmetric-subspace machinery for n-qubit states.

The symmetric subspace of n qubits is (n+1)-dimensional and spanned by the
Dicke states |D_k>, the normalized equal superpositions of all computational
strings with k ones. `dicke_basis` returns the isometry V into the full
2^n space; `project_dicke`/`embed_dicke` move operators between the
(n+1)-dimensional coordinate space and the full space.

`pseudo_mixture_decompose` writes any symmetric density operator as a
signed combination of identical tensor-power pure projectors with weights
summing to one; weights may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .linalg import STRUCT_TOL, PSD_TOL, PHYS_TOL, bloch_of, partial_trace

MAX_QUBITS = 14


def _check_n(n):
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def dicke_basis(n):
    """Isometry V of shape (2^n, n+1); column k is the Dicke state |D_k>."""
    _check_n(n)
    dim = 2 ** n
    ones = np.array([bin(i).count("1") for i in range(dim)])
    v = np.zeros((dim, n + 1), dtype=complex)
    for k in range(n + 1):
        v[ones == k, k] = 1.0 / sqrt(comb(n, k))
    return _frozen(v)


@lru_cache(maxsize=None)
def symmetrizer(n):
    """Projector onto the symmetric subspace, S = V V†."""
    v = dicke_basis(n)
    return _frozen(v @ v.conj().T)


def project_dicke(op, n=None):
    """V† op V: full-space operator to (n+1)-dim Dicke coordinates."""
    op = np.asarray(op, dtype=complex)
    if n is None:
        n = int(round(np.log2(op.shape[0])))
    v = dicke_basis(n)
    if op.shape != (2 ** n, 2 ** n):
        raise ValueError(f"operator shape {op.shape} does not match n={n}")
    return v.conj().T @ op @ v


def embed_dicke(coords):
    """V coords V†: Dicke-coordinate operator into the full 2^n space."""
    coords = np.asarray(coords, dtype=complex)
    n = coords.shape[0] - 1
    if coords.shape != (n + 1, n + 1) or n < 1:
        raise ValueError(f"coords must be square (n+1)x(n+1), got {coords.shape}")
    v = dicke_basis(n)
    return v @ coords @ v.conj().T


def is_symmetric_support(rho, tol=PSD_TOL):
    """True iff rho lives entirely on the symmetric subspace.

    Compares rho with V V† rho and rho V V† through the (2^n, n+1) isometry,
    O(4^n n) work; the dense 2^n symmetrizer is never formed.
    """
    rho = np.asarray(rho, dtype=complex)
    n = int(round(np.log2(rho.shape[0])))
    v = dicke_basis(n)
    return bool(np.max(np.abs(rho - v @ (v.conj().T @ rho))) < tol
                and np.max(np.abs(rho - (rho @ v) @ v.conj().T)) < tol)


def tensor_power_dicke(psi, n):
    """Dicke coefficients of |psi>^⊗n: c_k = sqrt(C(n,k)) a^(n-k) b^k."""
    a, b = complex(psi[0]), complex(psi[1])
    return np.array([sqrt(comb(n, k)) * a ** (n - k) * b ** k for k in range(n + 1)])


@dataclass(frozen=True)
class PseudoMixture:
    """Signed decomposition rho = Σ_i weight_i |psi_i><psi_i|^⊗n."""

    n_qubits: int
    weights: np.ndarray        # (m,) real, sums to 1, may be negative
    states: np.ndarray         # (m, 2) pure qubit states
    residual: float            # max-entry reconstruction error

    @property
    def min_weight(self):
        return float(self.weights.min())

    def reconstruct_dicke(self):
        out = np.zeros((self.n_qubits + 1,) * 2, dtype=complex)
        for w, psi in zip(self.weights, self.states):
            v = tensor_power_dicke(psi, self.n_qubits)
            out += w * np.outer(v, v.conj())
        return out


def _frame_states(n):
    """(n+1)^2 pure states on staggered polar rings, avoiding the poles.

    The staggering between rings keeps the tensor-power projectors linearly
    independent (aligned azimuth grids are degenerate for small n).
    """
    states = []
    for a in range(n + 1):
        theta = np.pi * (a + 1) / (n + 2)
        for b in range(n + 1):
            phi = 2 * np.pi * (b + a / (n + 1)) / (n + 1)
            states.append([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return np.array(states)


def pseudo_mixture_decompose(rho_n, tol=PHYS_TOL):
    """Decompose a symmetric-support density operator over the fixed frame.

    Solves a real least-squares system on the Dicke-coordinate operator
    space; the residual is asserted below `tol` and the weight sum below
    1e-10 of unity.
    """
    rho_n = np.asarray(rho_n, dtype=complex)
    n = int(round(np.log2(rho_n.shape[0])))
    if not is_symmetric_support(rho_n):
        raise ValueError("input has weight outside the symmetric subspace")
    target = project_dicke(rho_n, n)
    states = _frame_states(n)
    vecs = np.array([tensor_power_dicke(psi, n) for psi in states])
    projs = np.einsum("ij,ik->ijk", vecs, vecs.conj()).reshape(len(states), -1)
    a = np.concatenate([projs.real, projs.imag], axis=1).T
    b = np.concatenate([target.reshape(-1).real, target.reshape(-1).imag])
    weights, *_ = np.linalg.lstsq(a, b, rcond=None)
    recon = (weights @ projs).reshape(target.shape)
    residual = float(np.max(np.abs(recon - target)))
    if residual >= tol:
        raise RuntimeError(f"frame reconstruction residual {residual:.3e} >= {tol:.0e}")
    total = float(weights.sum())
    if abs(total - 1) > 1e-10:
        raise RuntimeError(f"pseudo-mixture weights sum to {total}, expected 1")
    return PseudoMixture(n_qubits=n, weights=weights, states=states, residual=residual)


def random_symmetric_density(n, rng, min_bloch=0.0, max_tries=1000):
    """Random full-rank density operator supported on the symmetric subspace.

    Ginibre construction in Dicke coordinates; optionally resamples until
    the single-qubit reduction's Bloch length reaches `min_bloch`.
    """
    _check_n(n)
    for _ in range(max_tries):
        g = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        coords = g @ g.conj().T
        coords /= coords.trace()
        rho = embed_dicke(coords)
        if min_bloch <= 0:
            return rho
        if np.linalg.norm(bloch_of(partial_trace(rho, {0}, n))) >= min_bloch:
            return rho
    raise RuntimeError(f"no sample with Bloch length >= {min_bloch} in {max_tries} tries")
