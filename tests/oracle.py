"""Helpers only the tests read: Pauli matrices, states from Bloch vectors, a
least eigenvalue and full-space tensor-power inputs. No code of the package
calls them, so they live beside the tests rather than in `qclone`."""

import numpy as np

from qclone.linalg import STRUCT_TOL
from qclone.symspace import embed_dicke, tensor_power_dicke

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def min_eigenvalue(rho):
    """Least eigenvalue of the Hermitian part of rho, as a float."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2).min())


def state_from_bloch(s):
    """ρ = (1 + s·σ)/2 for |s| ≤ 1."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if np.linalg.norm(s) > 1 + STRUCT_TOL:
        raise ValueError(f"Bloch vector length {np.linalg.norm(s)} exceeds 1")
    return (ID2 + s[0] * PAULI_X + s[1] * PAULI_Y + s[2] * PAULI_Z) / 2


def tensor_power_input(psi, n):
    """|psi><psi|^⊗n as a full-space operator, built through Dicke coords."""
    v = tensor_power_dicke(psi, n)
    return embed_dicke(np.outer(v, v.conj()))
