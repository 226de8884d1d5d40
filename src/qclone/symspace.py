"""Symmetric-subspace machinery for n-qubit states.

The symmetric subspace of n qubits is (n+1)-dimensional and spanned by the
Dicke states |D_k>, the normalized equal superpositions of all computational
strings with k ones. `dicke_basis` returns the isometry V into the full
2^n space; `project_dicke`/`embed_dicke` move operators between the
(n+1)-dimensional coordinate space and the full space.

Row i of V has a single nonzero, sqrt(1/C(n, popcount i)), so the Dicke
coordinates c = V†ρV are popcount-class sums and S ρ S = V c V†, S = V V†,
is constant on each class block, a table `embed_dicke` gathers without V.
`symmetric_coords` projects a full-space input and checks its support in one
pass over ρ: it accepts iff max|ρ - SρS| < tol/2, which puts both max|ρ - Sρ|
and max|ρ - ρS| below tol; for a C-contiguous complex128 ρ it allocates no
2^n x 2^n temporary. `is_symmetric_support` is the same pass's verdict.

One qubit of a symmetric state, or of the output of a channel that commutes
with rotations about z, reads only the diagonal and superdiagonal (the
"band") of its Dicke coordinates, and such a channel maps bands to bands, so
the band is what passes between stages. Only `_band` (of coordinates) and
`_pure_band` (of a tensor power) read one. `_apply_band` applies a band map,
and composes two; `_band_qubit` is that call with a one-qubit target, through
a cached read-only map: `_reduction` (the reduction), `cloner._transfer` (one
clone) or `estimator._estimation_map` (measure-and-prepare).

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
from math import comb, inf, sqrt

import numpy as np

from .linalg import PSD_TOL, PHYS_TOL, _integer_in, bloch_of, n_qubits_of

BLOCK_ENTRIES = 2 ** 15   # complex entries (512 KiB) per block of the support pass


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None, typed=True)
def dicke_basis(n):
    """Isometry V of shape (2^n, n+1); column k is the Dicke state |D_k>."""
    n = _integer_in(n, 1, "full_space")
    ones, _, _, scale = _popcount_classes(n)
    v = np.zeros((2 ** n, n + 1), dtype=complex)
    v[np.arange(2 ** n), ones] = scale[ones]
    return _frozen(v)


@lru_cache(maxsize=None, typed=True)
def symmetrizer(n):
    """Projector onto the symmetric subspace, S = V V†."""
    v = dicke_basis(n)
    return _frozen(v @ v.conj().T)


def _dicke_coords(coords, limit, batch=False):
    """(coords, n) of Dicke coordinates: complex and finite, (n+1)x(n+1) in the
    last two axes with n in 1..LIMITS[limit], after one leading batch axis if
    `batch`."""
    coords = np.asarray(coords, dtype=complex)
    n = coords.shape[-1] - 1 if coords.ndim >= 2 else 0
    if coords.shape[-2:] != (n + 1, n + 1) or n < 1 or coords.ndim > 2 + batch:
        raise ValueError(f"Dicke coordinates must be (n+1)x(n+1), n >= 1, got {coords.shape}")
    n = _integer_in(n, 1, limit)
    if not np.isfinite(coords).all():
        raise ValueError("Dicke coordinates must be finite")
    return coords, n


def project_dicke(op, n=None):
    """V† op V: full-space operator to (n+1)-dim Dicke coordinates, by two dense
    products with the isometry. No production path calls it: it is the dense
    oracle that the tests hold `_support_pass`'s class-sum coordinates against,
    so it does not share their arithmetic."""
    op = np.asarray(op, dtype=complex)
    if n is None:
        n = n_qubits_of(op)
    v = dicke_basis(n)
    if op.shape != (2 ** n, 2 ** n):
        raise ValueError(f"operator shape {op.shape} does not match n={n}")
    return v.conj().T @ op @ v


def embed_dicke(coords):
    """V coords V†: Dicke-coordinate operator into the full 2^n space."""
    coords, n = _dicke_coords(coords, "full_space")
    ones, _, _, scale = _popcount_classes(n)
    return (scale[:, None] * coords * scale)[:, ones][ones]


@lru_cache(maxsize=None)
def _popcount_classes(n):
    """Read-only popcount k(i) of each basis index, the real class indicator
    E[i, k] = [popcount i == k], E ⊗ 1_2 for the interleaved real view of a
    complex operator, and sqrt(1 / C(n, k)), the nonzero of a class-k row of V."""
    idx = np.arange(2 ** n)
    ones = sum((idx >> q) & 1 for q in range(n))
    ind = (ones[:, None] == np.arange(n + 1)).astype(float)
    ind2 = np.kron(ind, np.eye(2))
    scale = np.sqrt([1.0 / comb(n, k) for k in range(n + 1)])
    return tuple(_frozen(arr) for arr in (ones, ind, ind2, scale))


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
    n = _integer_in(n_qubits_of(rho), 1, "full_space")
    d = rho.shape[0]
    ones, ind, ind2, scale = _popcount_classes(n)
    row_sums = (ind.T @ rho.view(float)).view(complex)    # (n+1, d)
    coords = scale[:, None] * (row_sums.view(float) @ ind2).view(complex) * scale[None, :]
    table = (scale[:, None] * coords * scale[None, :])[:, ones]   # row k: VcV† on class k
    resid = 0.0   # np.maximum keeps a NaN entry, so it is never accepted
    rows = max(1, BLOCK_ENTRIES // d)
    for i in range(0, d, rows):
        resid = np.maximum(resid, np.max(np.abs(rho[i:i + rows] - table[ones[i:i + rows]])))
    return float(resid), coords


def is_symmetric_support(rho):
    """True iff rho lives entirely on the symmetric subspace:
    max|rho - S rho S| < PSD_TOL/2, which puts both max|rho - S rho| and
    max|rho - rho S| below PSD_TOL (see `_support_pass`)."""
    return bool(_support_pass(rho)[0] < PSD_TOL / 2)


def symmetric_coords(rho, n=None):
    """V† rho V of an operator on the symmetric subspace; raises ValueError
    unless max|rho - S rho S| < PSD_TOL/2 (`is_symmetric_support(rho)`,
    both one-sided residuals below PSD_TOL) or when, given n, rho is not
    2^n x 2^n."""
    if n is not None and np.shape(rho) != (2 ** _integer_in(n, 1, "full_space"),) * 2:
        raise ValueError(f"input shape {np.shape(rho)} does not match n={n}")
    resid, coords = _support_pass(rho)
    if not resid < PSD_TOL / 2:
        raise ValueError("input has weight outside the symmetric subspace")
    return coords


def tensor_power_dicke(psi, n):
    """Dicke coefficients c_k = sqrt(C(n,k)) a^(n-k) b^k of |psi>^⊗n; a batch
    psi (..., 2) gives (..., n+1), each row equal to its batch of one."""
    psi = np.asarray(psi, dtype=complex)
    n = _integer_in(n, 0, inf, "n must be an integer >= {lo}, got {value}")
    ks = np.arange(n + 1)
    if comb(n, n // 2) > float(np.finfo(float).max):
        raise ValueError(f"tensor power n={n} too large: C(n, n/2) overflows a float")
    binom = np.array([sqrt(comb(n, k)) for k in range(n + 1)])
    return binom * psi[..., :1] ** (n - ks) * psi[..., 1:] ** ks


def _band(coords):
    """The band (diagonal (..., n+1), superdiagonal (..., n)) of coordinates (..., n+1, n+1)."""
    return np.diagonal(coords, axis1=-2, axis2=-1), np.diagonal(coords, 1, axis1=-2, axis2=-1)


def _pure_band(vecs):
    """The band of |v><v| for Dicke coefficients v (..., n+1), by the same float
    operations as the entries of the outer product."""
    return vecs * vecs.conj(), vecs[..., :-1] * vecs[..., 1:].conj()


def _apply_band(band, band_map):
    """A band map (d (n+1, k+1), u (n, k)) on bands (..., n+1), (..., n), with per-row sums,
    so each row of a batch equals its batch of one bit for bit. A map is a batch of
    bands, so `_apply_band(map_1, map_2)` is map_1 followed by map_2."""
    return tuple(np.sum(x[..., None] * t, axis=-2) for x, t in zip(band, band_map))


@lru_cache(maxsize=None)
def _reduction(m):
    """Read-only band map of the reduction of m qubits to one: diagonal entry k
    weighs ((m-k)/m, k/m) in (p00, p11), superdiagonal entry k sqrt((k+1)(m-k))/m in p01."""
    k = np.arange(m + 1)
    d = np.stack(((m - k) / m, k / m), axis=-1)
    return _frozen(d), _frozen(np.sqrt((k[:-1] + 1) * (m - k[:-1]))[:, None] / m)


def _band_qubit(band, band_map):
    """The qubits (..., 2, 2) of bands under a band map to one qubit."""
    diag, off = _apply_band(band, band_map)
    qubit = np.stack((diag[..., 0], off[..., 0], off[..., 0].conj(), diag[..., 1]), axis=-1)
    return qubit.reshape(off.shape[:-1] + (2, 2))


def reduced_qubit_from_dicke(coords):
    """Single-qubit reduction of a symmetric m-qubit state in Dicke coords;
    a leading axis is a batch, (s, m+1, m+1) -> (s, 2, 2)."""
    coords, m = _dicke_coords(coords, "dicke", batch=True)
    return _band_qubit(_band(coords), _reduction(m))


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


def pseudo_mixture_decompose(rho_n):
    """Decompose a symmetric-support density operator over the fixed frame.

    The residual is asserted below PHYS_TOL and the weight sum below 1e-10 of
    unity.
    """
    return pseudo_mixture_decompose_dicke(symmetric_coords(rho_n))


def pseudo_mixture_decompose_dicke(target):
    """`pseudo_mixture_decompose` on Dicke coordinates.

    The frame is P_i = |phi_i><phi_i|^⊗n at the nodes phi_i, weights q_i of
    `sphere_quadrature(n)`, exact to Bloch degree 2n, so the frame operator
    G = Σ q_i vec(P_i) vec(P_i)† is the continuous one. Its canonical dual
    frame gives w_i = q_i Re<P_i, G⁻¹ vec(rho)>; one refinement step solves
    again for the reconstruction residual.
    """
    # imported here because estimator imports this module
    from .estimator import quadrature_powers, sphere_quadrature

    target, n = _dicke_coords(target, "pseudo_mixture")
    states, q = sphere_quadrature(n)
    vecs = quadrature_powers(n)
    projs = np.einsum("ij,ik->ijk", vecs, vecs.conj()).reshape(len(states), -1)
    frame_op = (projs.T * q) @ projs.conj()
    b = target.reshape(-1)
    weights = q * (projs.conj() @ np.linalg.solve(frame_op, b)).real
    weights += q * (projs.conj() @ np.linalg.solve(frame_op, b - weights @ projs)).real
    recon = (weights @ projs).reshape(target.shape)
    residual = float(np.max(np.abs(recon - target)))
    if not residual < PHYS_TOL:   # a NaN residual fails too
        raise RuntimeError(f"frame reconstruction residual {residual:.3e} >= {PHYS_TOL:.0e}")
    total = float(weights.sum())
    if abs(total - 1) > 1e-10:
        raise RuntimeError(f"pseudo-mixture weights sum to {total}, expected 1")
    return PseudoMixture(n_qubits=n, weights=weights, states=states, residual=residual)


def random_symmetric_dicke(n, rng, min_bloch=0.0):
    """Dicke coordinates of a random full-rank density operator supported on
    the symmetric subspace (Ginibre construction); optionally resamples
    until the single-qubit reduction's Bloch length reaches `min_bloch`."""
    n = _integer_in(n, 1, "pseudo_mixture")
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
