import numpy as np
import pytest

from qclone.linalg import (
    DegenerateInputError,
    bloch_of,
    haar_random_pure,
    haar_random_pure_batch,
    hermitize,
    partial_trace,
    pure_fidelity,
    rng_from_seed,
    tensor_product,
)

from oracle import ID2, PAULI_X, PAULI_Z, state_from_bloch

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def proj(psi):
    return np.outer(psi, np.conj(psi))


class TestTensorProduct:
    def test_identity(self):
        assert np.allclose(tensor_product(ID2, ID2), np.eye(4))

    def test_projector_00(self):
        p = tensor_product(proj(KET0), proj(KET0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(p, expected)

    def test_zz_eigenvalue_on_01(self):
        # direct 4x4 multiplication oracle: sigma_z x sigma_z |01> = -|01>
        zz = tensor_product(PAULI_Z, PAULI_Z)
        ket01 = np.kron(KET0, KET1)
        assert np.allclose(zz @ ket01, -ket01)

    def test_associative(self):
        a, b, c = PAULI_X, PAULI_Z, proj(KET1)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.allclose(left, right)


class TestPartialTrace:
    def test_bell_state_reduces_to_mixed(self):
        bell = (np.kron(KET0, KET1) + np.kron(KET1, KET0)) / np.sqrt(2)
        for q in (0, 1):
            assert np.allclose(partial_trace(proj(bell), {q}), ID2 / 2, atol=1e-12)

    def test_product_state(self):
        rho = tensor_product(proj(KET0), proj(KET1))
        assert np.allclose(partial_trace(rho, {0}), proj(KET0), atol=1e-12)
        assert np.allclose(partial_trace(rho, {1}), proj(KET1), atol=1e-12)

    def test_dicke_one_excitation(self):
        d1 = (np.kron(KET0, KET1) + np.kron(KET1, KET0)) / np.sqrt(2)
        reduced = partial_trace(proj(d1), {0})
        assert np.allclose(reduced, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserved_and_hermitian(self):
        rng = rng_from_seed(11)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = g @ g.conj().T
        rho /= rho.trace()
        red = partial_trace(rho, {1}, 3)
        assert abs(red.trace() - 1) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) < 1e-12

    def test_trace_of_tensor_factor(self):
        a = proj(haar_random_pure(rng_from_seed(5)))
        b = ID2 / 2
        assert np.allclose(partial_trace(tensor_product(a, b), {0}), a, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, {2})


class TestBloch:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_of(ID2 / 2), [0, 0, 0], atol=1e-12)

    def test_ket0(self):
        assert np.allclose(bloch_of(proj(KET0)), [0, 0, 1], atol=1e-12)

    def test_partial_z(self):
        rho = (ID2 + (2 / 3) * PAULI_Z) / 2
        assert np.allclose(bloch_of(rho), [0, 0, 2 / 3], atol=1e-12)

    def test_state_from_bloch_values(self):
        assert np.allclose(state_from_bloch([0, 0, 0]), ID2 / 2)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(state_from_bloch([1, 0, 0]), proj(plus))
        assert np.allclose(state_from_bloch([0, 0, 2 / 3]), np.diag([5 / 6, 1 / 6]))

    def test_round_trip_on_unit_ball(self):
        rng = rng_from_seed(17)
        for _ in range(100):
            s = rng.uniform(-1, 1, 3)
            if np.linalg.norm(s) > 1:
                s /= np.linalg.norm(s) * 1.01
            assert np.allclose(bloch_of(state_from_bloch(s)), s, atol=1e-12)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            state_from_bloch([1.1, 0, 0])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            bloch_of(np.eye(4) / 4)


class TestHaarSampling:
    def test_deterministic(self):
        a = haar_random_pure(rng_from_seed(42))
        b = haar_random_pure(rng_from_seed(42))
        assert np.array_equal(a, b)

    def test_seed_reduced_modulo_2_64(self):
        # derived seeds such as seed + 997 + 31n + m may pass 2^64 - 1
        assert np.array_equal(haar_random_pure(rng_from_seed(2 ** 64 + 5)),
                              haar_random_pure(rng_from_seed(5)))

    def test_batch_is_successive_single_draws(self):
        rng = rng_from_seed(3)
        singles = np.array([haar_random_pure(rng) for _ in range(50)])
        assert np.array_equal(haar_random_pure_batch(rng_from_seed(3), 50), singles)

    def test_normalized(self):
        psis = haar_random_pure_batch(rng_from_seed(1), 1000)
        assert np.allclose(np.linalg.norm(psis, axis=1), 1, atol=1e-12)

    def test_uniform_sphere_moments(self):
        # 1e5 samples: mean Bloch vector -> 0 and <z^2> -> 1/3, both to 3 sigma.
        n = 100_000
        psis = haar_random_pure_batch(rng_from_seed(7), n)
        z = np.abs(psis[:, 0]) ** 2 - np.abs(psis[:, 1]) ** 2
        x = 2 * (psis[:, 0].conj() * psis[:, 1]).real
        y = 2 * (psis[:, 0].conj() * psis[:, 1]).imag
        sigma = 3 / np.sqrt(3 * n)  # component std is 1/sqrt(3)
        for comp in (x, y, z):
            assert abs(comp.mean()) < 3 * sigma + 1e-9
        z2_sigma = np.std(z ** 2) / np.sqrt(n)
        assert abs((z ** 2).mean() - 1 / 3) < 3 * z2_sigma

    def test_unitary_invariance(self):
        # rotating every sample by a fixed unitary must not move the mean.
        n = 50_000
        psis = haar_random_pure_batch(rng_from_seed(9), n)
        u = np.linalg.qr(rng_from_seed(10).standard_normal((2, 2))
                         + 1j * rng_from_seed(10).standard_normal((2, 2)))[0]
        rotated = psis @ u.T
        z_rot = np.abs(rotated[:, 0]) ** 2 - np.abs(rotated[:, 1]) ** 2
        assert abs(z_rot.mean()) < 4 / np.sqrt(3 * n)


class TestFidelity:
    def test_perfect(self):
        assert pure_fidelity(KET0, proj(KET0)) == pytest.approx(1.0)

    def test_mixed(self):
        assert pure_fidelity(KET0, ID2 / 2) == pytest.approx(0.5)

    def test_shrunk(self):
        rho = (ID2 + (2 / 3) * PAULI_Z) / 2
        assert pure_fidelity(KET0, rho) == pytest.approx(5 / 6)

    @pytest.mark.parametrize("eta", [0.0, 1 / 3, 2 / 3, 1.0])
    def test_shrinking_relation(self, eta):
        # F((1 + eta s.sigma)/2) = (1 + eta)/2 for the state's own direction
        rng = rng_from_seed(23)
        for _ in range(100):
            psi = haar_random_pure(rng)
            s = bloch_of(proj(psi))
            rho = state_from_bloch(eta * s)
            assert abs(pure_fidelity(psi, rho) - (1 + eta) / 2) < 1e-12


def test_hermitize_bounds_drift():
    rho = np.array([[0.5, 0.1 + 1e-12j], [0.1, 0.5]])
    fixed = hermitize(rho)
    assert np.max(np.abs(fixed - fixed.conj().T)) == 0
    with pytest.raises(ValueError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="deviation nan"):   # a NaN drift is not small
        hermitize(np.array([[0.5, np.nan], [0.0, 0.5]]))


def test_degenerate_error_is_value_error():
    assert issubclass(DegenerateInputError, ValueError)


def test_batched_forms_match_single_operators():
    rng = rng_from_seed(31)
    psis = haar_random_pure_batch(rng, 6)
    rhos = np.array([state_from_bloch(0.9 * bloch_of(proj(p)))
                     for p in haar_random_pure_batch(rng, 6)])
    rhos[:, 0, 1] += 1e-13   # drift for hermitize to remove
    assert np.array_equal(hermitize(rhos), [hermitize(r) for r in rhos])
    assert np.array_equal(bloch_of(rhos), [bloch_of(r) for r in rhos])
    assert np.array_equal(pure_fidelity(psis, rhos),
                          [pure_fidelity(p, r) for p, r in zip(psis, rhos)])
    assert isinstance(pure_fidelity(psis[0], rhos[0]), float)


def test_batched_guards_check_every_operator():
    rhos = np.array([ID2 / 2] * 4, dtype=complex)
    rhos[2, 0, 1] = 1e-6     # one operator far from Hermitian
    with pytest.raises(ValueError):
        hermitize(rhos)
    with pytest.raises(ValueError):
        bloch_of(rhos)
    with pytest.raises(ValueError):
        pure_fidelity(np.array([[1, 1j]] * 4) / np.sqrt(2), rhos)
