import itertools
import tracemalloc
from math import comb, factorial, sqrt

import numpy as np
import pytest

from qclone import symspace
from qclone.linalg import PSD_TOL, haar_random_pure, kron_power, rng_from_seed
from qclone.symspace import (
    _support_pass,
    dicke_basis,
    embed_dicke,
    is_symmetric_support,
    project_dicke,
    pseudo_mixture_decompose,
    pseudo_mixture_decompose_dicke,
    random_symmetric_density,
    random_symmetric_dicke,
    symmetric_coords,
    symmetric_residual,
    symmetrizer,
    tensor_power_dicke,
)

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def ginibre_coords(rng, n):
    """Random full-rank density operator in Dicke coordinates."""
    g = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
    coords = g @ g.conj().T
    return coords / coords.trace()


def scalar_tensor_power_dicke(psi, n):
    """Reference Dicke coefficients of |psi>^⊗n from Python complex scalars."""
    a, b = complex(psi[0]), complex(psi[1])
    return np.array([sqrt(comb(n, k)) * a ** (n - k) * b ** k for k in range(n + 1)])


def generic_density(rng, n):
    """Random rank-3 density operator on the full 2^n space."""
    a = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
    rho = a @ a.conj().T
    return rho / rho.trace()


def symmetrizer_by_permutation(n):
    """Independent construction S = (1/n!) Σ_π P_π, for cross-checking."""
    dim = 2 ** n
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(dim)[:, None] >> shifts[None, :]) & 1
    s = np.zeros((dim, dim))
    cols = np.arange(dim)
    for perm in itertools.permutations(range(n)):
        target = bits[:, list(perm)] @ (1 << shifts)
        s[target, cols] += 1.0
    return s.astype(complex) / factorial(n)


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
            # |sym><anti|: columns on the symmetric subspace, rows off it, so
            # only the right half, rho VV† = rho, rejects it
            anti = np.kron(SINGLET, np.eye(2 ** (n - 2))[0])
            lopsided = symmetric + 0.1 * np.outer(dicke_basis(n)[:, 0], anti)
            assert np.max(np.abs(comp @ lopsided)) < 1e-10
            cases.append((lopsided, False))
        for rho, expected in cases:
            assert is_symmetric_support(rho) == oracle(rho) == expected


class TestSupportPass:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_projection_matches_dense(self, n):
        rng = rng_from_seed(600 + n)
        for rho in (embed_dicke(ginibre_coords(rng, n)), generic_density(rng, n)):
            *_, coords = _support_pass(rho)
            assert np.max(np.abs(coords - project_dicke(rho, n))) < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_residuals_match_dense(self, n):
        rng = rng_from_seed(700 + n)
        s = symmetrizer(n)
        x = rng.standard_normal((2 ** n,) * 2) + 1j * rng.standard_normal((2 ** n,) * 2)
        resid, _ = _support_pass(x)
        assert symmetric_residual(x) == resid
        assert abs(resid - np.max(np.abs(x - s @ x @ s))) < 1e-13

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_block_size_does_not_matter(self, n, monkeypatch):
        # rows per block: 1, 3 (does not divide 2^n) and more than 2^n
        rng = rng_from_seed(800 + n)
        rho = 0.5 * embed_dicke(ginibre_coords(rng, n)) + 0.5 * generic_density(rng, n)
        resid, coords = _support_pass(rho)
        d = 2 ** n
        for entries in (1, 3 * d, (d + 5) * d):
            monkeypatch.setattr(symspace, "BLOCK_ENTRIES", entries)
            other_resid, other_coords = _support_pass(rho)
            assert other_resid == resid
            assert symmetric_residual(rho) == resid
            assert np.array_equal(other_coords, coords)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_acceptance_implies_one_sided_residuals(self, n):
        # accepting max|R| < tol/2 bounds both one-sided residuals by tol,
        # so nothing is accepted that fails the one-sided test
        rng = rng_from_seed(820 + n)
        comp = np.eye(2 ** n) - symmetrizer(n)
        accepted = 0
        for _ in range(30):
            g = rng.standard_normal((2 ** n,) * 2) + 1j * rng.standard_normal((2 ** n,) * 2)
            rho = random_symmetric_density(n, rng) + 10 ** rng.uniform(-12, -8) * g
            if not is_symmetric_support(rho):
                with pytest.raises(ValueError):
                    symmetric_coords(rho)
                continue
            symmetric_coords(rho)
            accepted += 1
            assert np.max(np.abs(comp @ rho)) < PSD_TOL
            assert np.max(np.abs(rho @ comp)) < PSD_TOL
        assert 0 < accepted < 30

    def test_rejects_just_above_half_tol(self):
        # a singlet admixture that puts max|R| just above tol/2 is rejected,
        # though both one-sided residuals stay below tol
        eps = 0.51 * PSD_TOL
        rho = np.outer(SINGLET, SINGLET.conj())
        rho *= eps / np.max(np.abs(rho - symmetrizer(2) @ rho @ symmetrizer(2)))
        rho += np.diag([1.0, 0, 0, 0])
        resid, _ = _support_pass(rho)
        assert PSD_TOL / 2 < resid < 0.52 * PSD_TOL
        comp = np.eye(4) - symmetrizer(2)
        assert max(np.max(np.abs(comp @ rho)), np.max(np.abs(rho @ comp))) < PSD_TOL
        assert not is_symmetric_support(rho)
        with pytest.raises(ValueError):
            symmetric_coords(rho)
        assert is_symmetric_support(rho, tol=2.1 * resid)

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_nan_and_inf(self, n):
        d = 2 ** n
        nan_off, inf_diag = np.eye(d, dtype=complex) / d, np.eye(d, dtype=complex) / d
        nan_off[0, d - 1] = np.nan
        inf_diag[d - 1, d - 1] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            for rho in (nan_off, inf_diag):
                with pytest.raises(ValueError):
                    symmetric_coords(rho)
                assert is_symmetric_support(rho) is False
                assert not np.isfinite(symmetric_residual(rho))

    def test_contiguous_input_is_not_copied(self):
        # a C-contiguous complex128 input is read in place: the pass's peak
        # allocation stays far below one 2^n x 2^n array, while a transposed
        # view has to be copied first
        rho = embed_dicke(ginibre_coords(rng_from_seed(850), 10))
        _support_pass(rho)   # fill the per-n caches outside the measurement
        peaks = []
        for op in (rho, rho.T):
            tracemalloc.start()
            try:
                _support_pass(op)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < rho.nbytes / 4
        assert peaks[1] >= rho.nbytes

    @pytest.mark.parametrize("shape", [(4, 8), (3, 3), (6, 6), (1, 1), (4,), (2, 2, 2), ()])
    def test_rejects_bad_shapes(self, shape):
        op = np.zeros(shape, dtype=complex)
        for check in (_support_pass, is_symmetric_support, symmetric_coords, symmetric_residual):
            with pytest.raises(ValueError):
                check(op)

    @pytest.mark.parametrize("shape", [(0, 0), (), (4,), (2, 2, 2)])
    def test_dicke_maps_reject_bad_shapes(self, shape):
        op = np.zeros(shape, dtype=complex)
        for move in (project_dicke, embed_dicke):
            with pytest.raises(ValueError):
                move(op)

    def test_symmetric_coords_rejects_outside_weight(self):
        with pytest.raises(ValueError):
            symmetric_coords(np.outer(SINGLET, SINGLET.conj()))


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

    @pytest.mark.parametrize("n", [1, 2, 7, 14, 60])
    def test_tensor_power_dicke_batch(self, n):
        rng = rng_from_seed(1200 + n)
        psis = np.array([haar_random_pure(rng) for _ in range(50)])
        batch = tensor_power_dicke(psis, n)
        assert batch.shape == (50, n + 1)
        assert np.array_equal(tensor_power_dicke(psis.reshape(5, 10, 2), n).reshape(50, -1), batch)
        for psi, row in zip(psis, batch):
            assert np.array_equal(row, tensor_power_dicke(psi, n))
            assert np.max(np.abs(row - scalar_tensor_power_dicke(psi, n))) <= 2e-16

    @pytest.mark.parametrize("n", [1030, 1100])
    def test_tensor_power_dicke_rejects_float_overflow(self, n):
        # C(n, n/2) exceeds the largest float from n = 1030 on
        with pytest.raises(ValueError, match=f"n={n}"):
            tensor_power_dicke([1, 0], n)

    def test_tensor_power_dicke_largest_accepted_n(self):
        c = tensor_power_dicke([0.6, 0.8], 1029)
        assert np.all(np.isfinite(c))
        assert abs(np.linalg.norm(c) - 1) < 1e-12


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decompose_workload_n11(self, seed):
        # the inputs of perfbench's decompose workload: Ginibre in Dicke
        # coordinates from Philox(key=seed), drawn for (qubits, count) in
        # this order; at n = 11 a least-squares frame failed its weight sum
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        for n, count in ((8, 4), (10, 4), (11, 2)):
            for _ in range(count):
                coords = ginibre_coords(rng, n)
                if n == 11:
                    pm = pseudo_mixture_decompose(embed_dicke(coords))
                    assert np.max(np.abs(pm.reconstruct_dicke() - coords)) < 1e-9
                    assert abs(pm.weights.sum() - 1) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 15))
    def test_coordinate_core_sweep(self, n):
        rng = rng_from_seed(900 + n)
        for _ in range(20):
            pm = pseudo_mixture_decompose_dicke(ginibre_coords(rng, n))
            assert pm.residual < 1e-9
            assert abs(pm.weights.sum() - 1) <= 1e-10


def test_random_symmetric_density_min_bloch():
    from qclone.linalg import bloch_of, partial_trace
    rho = random_symmetric_density(3, rng_from_seed(77), min_bloch=0.1)
    assert np.linalg.norm(bloch_of(partial_trace(rho, {0}, 3))) >= 0.1


@pytest.mark.parametrize("n,min_bloch", [(1, 0.0), (2, 0.1), (3, 0.1), (4, 0.3), (8, 0.0)])
def test_random_symmetric_density_embeds_dicke_draw(n, min_bloch):
    # the same Ginibre draws, the same acceptances and the same stream after
    for seed in (1, 2, 3):
        rng_full, rng_dicke = rng_from_seed(seed), rng_from_seed(seed)
        rho = random_symmetric_density(n, rng_full, min_bloch)
        assert np.array_equal(rho, embed_dicke(random_symmetric_dicke(n, rng_dicke, min_bloch)))
        assert rng_full.random() == rng_dicke.random()
