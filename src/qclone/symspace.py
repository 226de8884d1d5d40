"""Symmetric-subspace machinery for n-qubit states.

The symmetric subspace of n qubits is (n+1)-dimensional and spanned by the
Dicke states |D_k>, the normalized equal superpositions of all computational
strings with k ones. `dicke_basis` returns the isometry V into the full
2^n space; `project_dicke`/`embed_dicke` move operators between the
(n+1)-dimensional coordinate space and the full space.

Row i of V has a single nonzero, C(n, popcount i)^(-1/2), so the Dicke
coordinates c = V†ρV are popcount-class sums and S ρ S = V c V†, S = V V†,
is constant on each class block. `symmetric_coords` projects a full-space
input and checks its support in one pass over ρ: it accepts iff
max|ρ - SρS| < tol/2, which puts both max|ρ - Sρ| and max|ρ - ρS| below
tol; for a C-contiguous complex128 ρ it allocates no 2^n x 2^n temporary.
`is_symmetric_support` is the same pass's verdict.

`pseudo_mixture_decompose` writes any symmetric density operator as a
signed combination of identical tensor-power pure projectors with weights
summing to one; weights may be negative. The projectors sit at the nodes
of the exact spherical design `estimator.sphere_quadrature(n)`, and the
weights come from its canonical dual frame.

Production works on Dicke coordinates alone; each full-space adapter is
`symmetric_coords` followed by a coordinate core, or the embedding of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .linalg import PSD_TOL, PHYS_TOL, bloch_of, n_qubits_of

MAX_QUBITS = 14
BLOCK_ENTRIES = 2 ** 15   # complex entries (512 KiB) per block of the support pass


def _check_n(n):
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    return n


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
        n = n_qubits_of(op)
    v = dicke_basis(n)
    if op.shape != (2 ** n, 2 ** n):
        raise ValueError(f"operator shape {op.shape} does not match n={n}")
    return v.conj().T @ op @ v


def embed_dicke(coords):
    """V coords V†: Dicke-coordinate operator into the full 2^n space."""
    coords = np.asarray(coords, dtype=complex)
    n = coords.shape[0] - 1 if coords.ndim == 2 else 0
    if coords.shape != (n + 1, n + 1) or n < 1:
        raise ValueError(f"coords must be square (n+1)x(n+1), got {coords.shape}")
    v = dicke_basis(n)
    return v @ coords @ v.conj().T


def symmetric_residual(op):
    """max |op - S op S| with S = V V†, the residual of `_support_pass`; the
    dense symmetrizer is never formed."""
    return _support_pass(op)[0]


@lru_cache(maxsize=None)
def _popcount_classes(n):
    """Read-only popcount k(i) of each basis index, the real class indicator
    E[i, k] = [popcount i == k], E ⊗ 1_2 for the interleaved real view of a
    complex operator, and 1 / C(n, k)."""
    idx = np.arange(2 ** n)
    ones = sum((idx >> q) & 1 for q in range(n))
    ind = (ones[:, None] == np.arange(n + 1)).astype(float)
    ind2 = np.kron(ind, np.eye(2))
    inv_binom = np.array([1.0 / comb(n, k) for k in range(n + 1)])
    return tuple(_frozen(arr) for arr in (ones, ind, ind2, inv_binom))


def _support_pass(rho):
    """(max|R|, c) of a 2^n x 2^n operator: c = V†ρV and R = ρ - V c V†.

    Row i of V has one nonzero, C(n, k)^(-1/2) at k = popcount i, so c is
    the class sums (Eᵀρ)E, two real BLAS products on the float view of ρ,
    and row i of V c V† is row k of the (n+1) x 2^n table
    (V c V†)[i, j] = c[k, l] / sqrt(C(n,k) C(n,l)), l = popcount j. R is
    taken in row blocks of BLOCK_ENTRIES entries. For a C-contiguous
    complex128 ρ no array of the size of ρ is allocated; any other input
    (real, complex64, a transpose or Fortran order) is first copied.

    With S = VV†, (1 - S)V = 0 gives ρ - Sρ = (1 - S)R and ρ - ρS = R(1 - S);
    1 - S subtracts a popcount-class mean, so each one-sided residual is at
    most 2 max|R|, and max|R| < tol/2 puts both below tol.
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    n = _check_n(n_qubits_of(rho))
    d = rho.shape[0]
    ones, ind, ind2, inv_binom = _popcount_classes(n)
    row_sums = (ind.T @ rho.view(float)).view(complex)    # (n+1, d)
    scale = np.sqrt(inv_binom)
    coords = scale[:, None] * (row_sums.view(float) @ ind2).view(complex) * scale[None, :]
    table = (scale[:, None] * coords * scale[None, :])[:, ones]   # row k: VcV† on class k
    resid = 0.0   # np.maximum keeps a NaN entry, so it is never accepted
    rows = max(1, BLOCK_ENTRIES // d)
    for i in range(0, d, rows):
        resid = np.maximum(resid, np.max(np.abs(rho[i:i + rows] - table[ones[i:i + rows]])))
    return float(resid), coords


def is_symmetric_support(rho, tol=PSD_TOL):
    """True iff rho lives entirely on the symmetric subspace:
    max|rho - S rho S| < tol/2, which puts both max|rho - S rho| and
    max|rho - rho S| below tol (see `_support_pass`)."""
    return bool(_support_pass(rho)[0] < tol / 2)


def symmetric_coords(rho, n=None):
    """V† rho V of an operator on the symmetric subspace; raises ValueError
    unless max|rho - S rho S| < PSD_TOL/2 (`is_symmetric_support(rho)`,
    both one-sided residuals below PSD_TOL) or when, given n, rho is not
    2^n x 2^n."""
    if n is not None and np.shape(rho) != (2 ** n, 2 ** n):
        raise ValueError(f"input shape {np.shape(rho)} does not match n={n}")
    resid, coords = _support_pass(rho)
    if not resid < PSD_TOL / 2:
        raise ValueError("input has weight outside the symmetric subspace")
    return coords


def tensor_power_dicke(psi, n):
    """Dicke coefficients c_k = sqrt(C(n,k)) a^(n-k) b^k of |psi>^⊗n; a batch
    psi (..., 2) gives (..., n+1), each row equal to its batch of one."""
    psi = np.asarray(psi, dtype=complex)
    ks = np.arange(n + 1)
    if comb(n, n // 2) > float(np.finfo(float).max):
        raise ValueError(f"tensor power n={n} too large: C(n, n/2) overflows a float")
    binom = np.array([sqrt(comb(n, k)) for k in range(n + 1)])
    return binom * psi[..., :1] ** (n - ks) * psi[..., 1:] ** ks


def reduced_qubit_from_dicke(coords):
    """Single-qubit reduction of a symmetric m-qubit state in Dicke coords;
    leading axes are a batch, (..., m+1, m+1) -> (..., 2, 2)."""
    coords = np.asarray(coords, dtype=complex)
    m = coords.shape[-1] - 1
    if m < 1:
        raise ValueError("need at least one qubit")
    ks = np.arange(m + 1)
    diag = np.diagonal(coords, axis1=-2, axis2=-1)
    p00 = np.sum(diag * (m - ks), axis=-1) / m
    p11 = np.sum(diag * ks, axis=-1) / m
    off = np.diagonal(coords, offset=1, axis1=-2, axis2=-1)  # coords[k, k+1]
    p01 = np.sum(off * np.sqrt((ks[:-1] + 1) * (m - ks[:-1])), axis=-1) / m
    return np.stack((np.stack((p00, p01), axis=-1),
                     np.stack((np.conj(p01), p11), axis=-1)), axis=-2)


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
        vecs = tensor_power_dicke(self.states, self.n_qubits)
        return (self.weights * vecs.T) @ vecs.conj()


def pseudo_mixture_decompose(rho_n, tol=PHYS_TOL):
    """Decompose a symmetric-support density operator over the fixed frame.

    The residual is asserted below `tol` and the weight sum below 1e-10 of
    unity.
    """
    return pseudo_mixture_decompose_dicke(symmetric_coords(rho_n), tol)


def pseudo_mixture_decompose_dicke(target, tol=PHYS_TOL):
    """`pseudo_mixture_decompose` on Dicke coordinates.

    The frame is P_i = |phi_i><phi_i|^⊗n at the nodes phi_i, weights q_i of
    `sphere_quadrature(n)`, exact to Bloch degree 2n, so the frame operator
    G = Σ q_i vec(P_i) vec(P_i)† is the continuous one. Its canonical dual
    frame gives w_i = q_i Re<P_i, G⁻¹ vec(rho)>; one refinement step solves
    again for the reconstruction residual.
    """
    # imported here because estimator imports this module
    from .estimator import quadrature_powers, sphere_quadrature

    n = target.shape[0] - 1
    states, q = sphere_quadrature(n)
    vecs = quadrature_powers(n)
    projs = np.einsum("ij,ik->ijk", vecs, vecs.conj()).reshape(len(states), -1)
    frame_op = (projs.T * q) @ projs.conj()
    b = target.reshape(-1)
    weights = q * (projs.conj() @ np.linalg.solve(frame_op, b)).real
    weights += q * (projs.conj() @ np.linalg.solve(frame_op, b - weights @ projs)).real
    recon = (weights @ projs).reshape(target.shape)
    residual = float(np.max(np.abs(recon - target)))
    if residual >= tol:
        raise RuntimeError(f"frame reconstruction residual {residual:.3e} >= {tol:.0e}")
    total = float(weights.sum())
    if abs(total - 1) > 1e-10:
        raise RuntimeError(f"pseudo-mixture weights sum to {total}, expected 1")
    return PseudoMixture(n_qubits=n, weights=weights, states=states, residual=residual)


def random_symmetric_dicke(n, rng, min_bloch=0.0):
    """Dicke coordinates of a random full-rank density operator supported on
    the symmetric subspace (Ginibre construction); optionally resamples
    until the single-qubit reduction's Bloch length reaches `min_bloch`."""
    _check_n(n)
    for _ in range(1000):
        g = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        coords = g @ g.conj().T
        coords /= coords.trace()
        if min_bloch <= 0 or np.linalg.norm(bloch_of(reduced_qubit_from_dicke(coords))) >= min_bloch:
            return coords
    raise RuntimeError(f"no sample with Bloch length >= {min_bloch} in 1000 tries")


def random_symmetric_density(n, rng, min_bloch=0.0):
    """`random_symmetric_dicke` embedded in the full 2^n space."""
    return embed_dicke(random_symmetric_dicke(n, rng, min_bloch))
