import numpy as np
import pytest

from qclone.linalg import haar_random_pure, kron_power, rng_from_seed
from qclone.symspace import (
    dicke_basis,
    embed_dicke,
    is_symmetric_support,
    project_dicke,
    pseudo_mixture_decompose,
    random_symmetric_density,
    symmetrizer,
    symmetrizer_by_permutation,
    tensor_power_dicke,
)

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


class TestDickeBasis:
    def test_n1_is_computational(self):
        v = dicke_basis(1)
        assert np.allclose(v, np.eye(2))

    def test_n2_one_excitation(self):
        v = dicke_basis(2)
        expected = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert np.allclose(v[:, 1], expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_orthonormal(self, n):
        v = dicke_basis(n)
        gram = v.conj().T @ v
        assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-12

    def test_transposition_invariance(self):
        # swap qubits 0 and 1 of the n=3 basis; each vector must be fixed
        v = dicke_basis(3)
        idx = np.arange(8)
        swapped = ((idx & 0b100) >> 1) | ((idx & 0b010) << 1) | (idx & 0b001)
        assert np.max(np.abs(v[swapped, :] - v)) < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            dicke_basis(0)
        with pytest.raises(ValueError):
            dicke_basis(15)


class TestSymmetrizer:
    def test_n1_identity(self):
        assert np.allclose(symmetrizer(1), np.eye(2))

    def test_n2_complement_of_singlet(self):
        expected = np.eye(4) - np.outer(SINGLET, SINGLET.conj())
        assert np.max(np.abs(symmetrizer(2) - expected)) < 1e-12
        assert np.linalg.matrix_rank(symmetrizer(2)) == 3

    def test_rank_is_trace(self):
        assert abs(symmetrizer(5).trace() - 6) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_idempotent_hermitian(self, n):
        s = symmetrizer(n)
        assert np.max(np.abs(s @ s - s)) < 1e-12
        assert np.max(np.abs(s - s.conj().T)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_permutation_average(self, n):
        assert np.max(np.abs(symmetrizer(n) - symmetrizer_by_permutation(n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_fixes_tensor_powers(self, n):
        rng = rng_from_seed(100 + n)
        for _ in range(5):
            psi = haar_random_pure(rng)
            power = kron_power(psi.reshape(2, 1), n).ravel()
            assert np.max(np.abs(symmetrizer(n) @ power - power)) < 1e-12


class TestSymmetricSupport:
    def test_tensor_power(self):
        ket000 = np.zeros(8, dtype=complex)
        ket000[0] = 1
        assert is_symmetric_support(np.outer(ket000, ket000))

    def test_singlet_rejected(self):
        assert not is_symmetric_support(np.outer(SINGLET, SINGLET.conj()))

    def test_normalized_projector(self):
        assert is_symmetric_support(symmetrizer(2) / 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_complement_oracle(self, n):
        rng = rng_from_seed(500 + n)
        comp = np.eye(2 ** n) - symmetrizer(n)

        def oracle(rho):
            return bool(np.max(np.abs(comp @ rho)) < 1e-10 and np.max(np.abs(rho @ comp)) < 1e-10)

        symmetric = random_symmetric_density(n, rng)
        g = rng.standard_normal((2 ** n,) * 2) + 1j * rng.standard_normal((2 ** n,) * 2)
        # every one-qubit operator is symmetric, so only n >= 2 can be rejected
        cases = [(symmetric, True), (symmetric + 1e-9 * (g + g.conj().T), n == 1)]
        if n >= 2:
            singlet = np.kron(np.outer(SINGLET, SINGLET.conj()), np.eye(2 ** (n - 2)) / 2 ** (n - 2))
            cases.append((0.9 * symmetric + 0.1 * singlet, False))
        for rho, expected in cases:
            assert is_symmetric_support(rho) == oracle(rho) == expected


class TestDickeEmbedding:
    def test_n1(self):
        assert np.allclose(embed_dicke(np.eye(2) / 2), np.eye(2) / 2)

    def test_n2_ground(self):
        full = embed_dicke(np.diag([1.0, 0, 0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(full, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n):
        rng = rng_from_seed(n)
        x = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        x = x + x.conj().T
        assert np.max(np.abs(project_dicke(embed_dicke(x), n) - x)) < 1e-12

    def test_embed_output_is_symmetric(self):
        rho = random_symmetric_density(3, rng_from_seed(3))
        assert is_symmetric_support(rho)

    def test_tensor_power_dicke_matches_full(self):
        psi = haar_random_pure(rng_from_seed(8))
        full = kron_power(psi.reshape(2, 1), 3).ravel()
        coords = tensor_power_dicke(psi, 3)
        assert np.max(np.abs(dicke_basis(3) @ coords - full)) < 1e-12


class TestPseudoMixture:
    def test_n1_maximally_mixed(self):
        pm = pseudo_mixture_decompose(np.eye(2, dtype=complex) / 2)
        assert abs(pm.weights.sum() - 1) < 1e-10
        assert pm.residual < 1e-12

    def test_n1_pure_state(self):
        psi = haar_random_pure(rng_from_seed(2))
        pm = pseudo_mixture_decompose(np.outer(psi, psi.conj()))
        assert pm.residual < 1e-12
        assert abs(pm.weights.sum() - 1) < 1e-10

    def test_n2_dicke_projector_has_negative_weight(self):
        d1 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        pm = pseudo_mixture_decompose(np.outer(d1, d1.conj()))
        assert pm.min_weight < 0
        assert pm.residual < 1e-9
        assert abs(pm.weights.sum() - 1) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstruction_identity(self, n):
        rng = rng_from_seed(300 + n)
        for _ in range(13):
            rho = random_symmetric_density(n, rng)
            pm = pseudo_mixture_decompose(rho)
            target = project_dicke(rho, n)
            assert np.max(np.abs(pm.reconstruct_dicke() - target)) < 1e-9
            assert abs(pm.weights.sum() - 1) < 1e-10

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            pseudo_mixture_decompose(np.outer(SINGLET, SINGLET.conj()))


def test_random_symmetric_density_min_bloch():
    from qclone.linalg import bloch_of, partial_trace
    rho = random_symmetric_density(3, rng_from_seed(77), min_bloch=0.1)
    assert np.linalg.norm(bloch_of(partial_trace(rho, {0}, 3))) >= 0.1
