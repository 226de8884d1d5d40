from math import comb, sqrt

import numpy as np
import pytest

from qclone.bounds import eta_opt
from qclone.cloner import (
    CloneChannel,
    _dicke_table,
    apply_cloner,
    apply_cloner_dicke,
    certify_universality,
    concat_channels,
    measure_shrinking,
    reduced_qubit_from_dicke,
    tensor_power_input,
)
from qclone.linalg import (
    DegenerateInputError,
    bloch_of,
    min_eigenvalue,
    partial_trace,
    rng_from_seed,
    haar_random_pure,
    state_from_bloch,
)
from qclone.symspace import (
    embed_dicke,
    is_symmetric_support,
    project_dicke,
    random_symmetric_density,
    symmetrizer,
)

KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def dense_cloner(n, m, rho_n):
    """Reference channel (N+1)/(M+1) S_M (rho ⊗ 1) S_M with the dense symmetrizer."""
    s = symmetrizer(m)
    return (n + 1) / (m + 1) * (s @ np.kron(rho_n, np.eye(2 ** (m - n))) @ s)


def loop_dicke_cloner(n, m, coords_n):
    """Reference Dicke-coordinate channel as an explicit loop over (w, a, b)."""
    amp = np.zeros((n + 1, m + 1))  # amp[a, a+w] = sqrt(C(N,a) / C(M,a+w))
    out = np.zeros((m + 1, m + 1), dtype=complex)
    for w in range(m - n + 1):
        cw = comb(m - n, w)
        for a in range(n + 1):
            amp[a, a + w] = sqrt(comb(n, a) / comb(m, a + w))
        for a in range(n + 1):
            for b in range(n + 1):
                out[a + w, b + w] += cw * amp[a, a + w] * amp[b, b + w] * coords_n[a, b]
    return out * (n + 1) / (m + 1)


class TestChannelDescriptor:
    def test_rejects_shrinking_direction(self):
        with pytest.raises(ValueError):
            CloneChannel(3, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CloneChannel(0, 2)


class TestApplyCloner:
    def test_identity_when_m_equals_n(self):
        rho = tensor_power_input(PLUS, 2)
        out = apply_cloner(CloneChannel(2, 2), rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_one_to_two_on_ket0(self):
        # brute-force 4x4 oracle: reduction diag(5/6, 1/6), Bloch z = 2/3
        out = apply_cloner(CloneChannel(1, 2), np.outer(KET0, KET0))
        reduced = partial_trace(out, {0}, 2)
        assert np.allclose(reduced, np.diag([5 / 6, 1 / 6]), atol=1e-12)
        assert abs(bloch_of(reduced)[2] - 2 / 3) < 1e-12

    def test_one_to_three_on_plus(self):
        # brute-force 8x8 oracle: reduced Bloch x = (1/3)(5/3) = 5/9
        out = apply_cloner(CloneChannel(1, 3), np.outer(PLUS, PLUS.conj()))
        assert abs(bloch_of(partial_trace(out, {1}, 3))[0] - 5 / 9) < 1e-12

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(n, 9)])
    def test_matches_dense_symmetrizer_oracle(self, n, m):
        rng = rng_from_seed(700 + 10 * n + m)
        for rho_n in (tensor_power_input(haar_random_pure(rng), n),
                      random_symmetric_density(n, rng)):
            out = apply_cloner(CloneChannel(n, m), rho_n)
            assert np.max(np.abs(out - dense_cloner(n, m, rho_n))) < 1e-12

    def test_rejects_non_symmetric_input(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        with pytest.raises(ValueError):
            apply_cloner(CloneChannel(2, 3), np.outer(singlet, singlet.conj()))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            apply_cloner(CloneChannel(2, 3), np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("n,m", [(1, 2), (1, 4), (2, 5), (3, 6)])
    def test_sanity_on_random_inputs(self, n, m):
        rng = rng_from_seed(10 * n + m)
        for rho_n in (tensor_power_input(haar_random_pure(rng), n),
                      random_symmetric_density(n, rng)):
            out = apply_cloner(CloneChannel(n, m), rho_n)
            assert abs(out.trace() - 1) < 1e-12
            assert min_eigenvalue(out) >= -1e-10
            comp = np.eye(2 ** m) - symmetrizer(m)
            assert np.max(np.abs(comp @ out)) < 1e-11
            reductions = [partial_trace(out, {q}, m) for q in range(m)]
            for r in reductions[1:]:
                assert np.max(np.abs(r - reductions[0])) < 1e-11


class TestDickePath:
    @pytest.mark.parametrize("n,m", [(1, 2), (1, 5), (2, 4), (3, 8), (4, 12)])
    def test_agrees_with_full_space(self, n, m):
        rng = rng_from_seed(n + 100 * m)
        rho_n = random_symmetric_density(n, rng)
        full = apply_cloner(CloneChannel(n, m), rho_n)
        fast = apply_cloner_dicke(CloneChannel(n, m), project_dicke(rho_n, n))
        assert np.max(np.abs(project_dicke(full, m) - fast)) < 1e-10
        assert np.max(np.abs(embed_dicke(fast) - full)) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_loop_oracle(self, n):
        rng = rng_from_seed(900 + n)
        for m in [*range(n, 13), 16, 32, 60]:
            g = rng.standard_normal((n + 1,) * 2) + 1j * rng.standard_normal((n + 1,) * 2)
            coords = g @ g.conj().T
            coords /= coords.trace()
            fast = apply_cloner_dicke(CloneChannel(n, m), coords)
            assert np.max(np.abs(fast - loop_dicke_cloner(n, m, coords))) <= 1e-15

    def test_table_is_read_only(self):
        k, flat = _dicke_table(3, 10)
        assert k.shape == (8, 4, 4) and flat.shape == (8 * 4 * 4,)
        for arr in (k, flat):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_reduction_from_dicke_coords(self):
        rng = rng_from_seed(6)
        rho = random_symmetric_density(4, rng)
        fast = reduced_qubit_from_dicke(project_dicke(rho, 4))
        assert np.max(np.abs(fast - partial_trace(rho, {2}, 4))) < 1e-12

    def test_large_m_eta(self):
        # beyond the full-space bound: M = 40 through Dicke coordinates
        ch = CloneChannel(2, 40)
        psi = haar_random_pure(rng_from_seed(12))
        rep = measure_shrinking(ch, tensor_power_input(psi, 2))
        assert abs(rep.eta_measured - float(eta_opt(2, 40))) < 1e-9


class TestMeasureShrinking:
    def test_one_to_two(self):
        rep = measure_shrinking(CloneChannel(1, 2), np.outer(KET0, KET0))
        assert abs(rep.eta_measured - 2 / 3) < 1e-9
        assert abs(rep.fidelity_measured - 5 / 6) < 1e-9

    def test_independent_of_input_length(self):
        rho = state_from_bloch([0, 0, 0.5])
        rep = measure_shrinking(CloneChannel(1, 2), rho)
        assert abs(rep.eta_measured - 2 / 3) < 1e-9

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            measure_shrinking(CloneChannel(1, 2), np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (2, 6), (3, 7)])
    def test_mixed_symmetric_inputs_shrink_linearly(self, n, m):
        rng = rng_from_seed(40 + n + m)
        eta = float(eta_opt(n, m))
        for _ in range(10):
            rho_n = random_symmetric_density(n, rng, min_bloch=0.1)
            s_in = bloch_of(partial_trace(rho_n, {0}, n) if n > 1 else rho_n)
            out = apply_cloner(CloneChannel(n, m), rho_n)
            s_out = bloch_of(partial_trace(out, {0}, m))
            assert np.max(np.abs(s_out - eta * s_in)) < 1e-9


class TestUniversality:
    @pytest.mark.parametrize("n,m,expected", [(1, 2, 2 / 3), (2, 4, 3 / 4)])
    def test_spread_and_value(self, n, m, expected):
        rep = certify_universality(CloneChannel(n, m), 50, seed=5)
        assert rep.universality_spread < 1e-9
        assert abs(rep.eta_measured - expected) < 1e-9

    def test_trivial_channel(self):
        rep = certify_universality(CloneChannel(3, 3), 10, seed=6)
        assert abs(rep.eta_measured - 1) < 1e-12
        assert rep.universality_spread < 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            certify_universality(CloneChannel(1, 2), 1, seed=0)

    def test_seeded_reproducibility(self):
        a = certify_universality(CloneChannel(1, 3), 20, seed=9)
        b = certify_universality(CloneChannel(1, 3), 20, seed=9)
        assert a == b


class TestConcatenation:
    def test_1_2_4_equals_direct(self):
        rho = np.outer(KET0, KET0)
        out_chain = concat_channels(CloneChannel(1, 2), CloneChannel(2, 4), rho)
        out_direct = apply_cloner(CloneChannel(1, 4), rho)
        z_chain = bloch_of(partial_trace(out_chain, {0}, 4))[2]
        z_direct = bloch_of(partial_trace(out_direct, {0}, 4))[2]
        assert abs(z_chain - 0.5) < 1e-9
        assert abs(z_direct - 0.5) < 1e-9

    def test_identity_chain(self):
        rho = tensor_power_input(PLUS, 2)
        out = concat_channels(CloneChannel(2, 2), CloneChannel(2, 2), rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_1_3_5_both_paths(self):
        psi = haar_random_pure(rng_from_seed(14))
        rho = np.outer(psi, psi.conj())
        chained = concat_channels(CloneChannel(1, 3), CloneChannel(3, 5), rho)
        direct = apply_cloner(CloneChannel(1, 5), rho)
        s_c = bloch_of(partial_trace(chained, {0}, 5))
        s_d = bloch_of(partial_trace(direct, {0}, 5))
        assert np.max(np.abs(s_c - s_d)) < 1e-9
        assert abs(np.linalg.norm(s_c) - 7 / 15) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            concat_channels(CloneChannel(1, 2), CloneChannel(3, 4),
                            np.outer(KET0, KET0))

    @pytest.mark.parametrize("n,m,l", [(1, 2, 3), (1, 3, 6), (2, 3, 5), (2, 4, 7)])
    def test_stagewise_product(self, n, m, l):
        psi = haar_random_pure(rng_from_seed(50 + n + m + l))
        rho_n = tensor_power_input(psi, n)
        eta1 = measure_shrinking(CloneChannel(n, m), rho_n).eta_measured
        mid = apply_cloner(CloneChannel(n, m), rho_n)
        eta2 = measure_shrinking(CloneChannel(m, l), mid).eta_measured
        eta_direct = measure_shrinking(CloneChannel(n, l), rho_n).eta_measured
        assert abs(eta1 * eta2 - eta_direct) < 1e-9
        assert abs(eta_direct - float(eta_opt(n, l))) < 1e-9
