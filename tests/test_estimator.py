import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qclone.bounds import eta_meas_opt, eta_opt, fidelity_meas_opt
from qclone.cloner import CloneChannel, apply_cloner
from qclone.estimator import (
    _draw,
    _estimation_map,
    _polar_rule,
    _scratch,
    estimate_monte_carlo,
    estimation_fidelity_exact,
    measure_and_prepare_channel,
    measure_and_prepare_dicke,
    povm_completeness_residual,
    quadrature_powers,
    sample_candidates,
    sphere_quadrature,
    verify_statement_b,
)
from qclone.linalg import (LIMITS, bloch_of, haar_random_pure, hermitize, partial_trace,
                           pure_fidelity, rng_from_seed)
from qclone.symspace import BLOCK_ENTRIES, random_symmetric_density, symmetrizer, tensor_power_dicke

from oracle import tensor_power_input

KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
CHUNK = BLOCK_ENTRIES // 2   # shots per chunk of estimate_monte_carlo
BAD_COPIES = (0, -1, 61, 2.5, 3.0)


class TestQuadrature:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_povm_completeness(self, m):
        assert povm_completeness_residual(m) < 1e-10

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_node_doubling_stability(self, m):
        # quadrature exact for the integrand degree: a denser grid must agree
        psi = haar_random_pure(rng_from_seed(m))
        coarse = estimation_fidelity_exact(m, psi).fidelity_measured
        states, weights = sphere_quadrature(2 * m + 3)
        overlap2 = np.abs(states @ psi.conj()) ** 2
        fine = math.fsum((m + 1) * weights * overlap2 ** (m + 1))
        assert abs(coarse - fine) < 1e-12

    def test_weights_normalized(self):
        _, weights = sphere_quadrature(4)
        assert abs(math.fsum(weights) - 1) < 1e-13

    @pytest.mark.parametrize("m", [1, 2, 17, 60])
    def test_polar_rule_is_symmetric(self, m):
        # nodes x and -x (theta and pi - theta swap cos and sin of theta/2),
        # equal weights at both, summing to 1; read-only arrays
        c, s, w = _polar_rule(m)
        assert len(w) == m + 4
        assert np.max(np.abs(c - s[::-1])) <= 2.3e-16
        assert np.array_equal(w, w[::-1]) and abs(math.fsum(w) - 1) <= 1e-15
        for arr in (c, s, w):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("m", [3, 60])
    def test_polar_rule_computed_once(self, m):
        # the quadrature and the band map share one rule per M
        for cached in (_polar_rule, sphere_quadrature, quadrature_powers, _estimation_map):
            cached.cache_clear()
        estimation_fidelity_exact(m, KET0)
        povm_completeness_residual(m)
        info = _polar_rule.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_exact_estimation_builds_no_sphere_rule(self):
        # quadrature_order is the sphere rule's size, counted off the polar rule
        sphere_quadrature.cache_clear()
        for m in range(1, LIMITS["dicke"][0] + 1):
            cached = sphere_quadrature.cache_info().currsize
            order = estimation_fidelity_exact(m, KET0).quadrature_order
            assert sphere_quadrature.cache_info().currsize == cached
            assert order == len(sphere_quadrature(m)[1])

    @pytest.mark.parametrize("m", [1, 7, 20])
    def test_node_powers_cached_bit_equal(self, m):
        states, _ = sphere_quadrature(m)
        vecs = quadrature_powers(m)
        assert vecs is quadrature_powers(m)
        assert not vecs.flags.writeable
        assert np.array_equal(vecs, [tensor_power_dicke(psi, m) for psi in states])


class TestExactEstimation:
    def test_m1(self):
        rep = estimation_fidelity_exact(1, KET0)
        assert abs(rep.fidelity_measured - 2 / 3) < 1e-10
        assert abs(rep.eta_measured - 1 / 3) < 1e-10

    def test_m3(self):
        rep = estimation_fidelity_exact(3, PLUS)
        assert abs(rep.fidelity_measured - 4 / 5) < 1e-10

    @pytest.mark.parametrize("m", range(1, 9))
    def test_closed_form_grid(self, m):
        rep = estimation_fidelity_exact(m, haar_random_pure(rng_from_seed(m)))
        assert abs(rep.fidelity_measured - (m + 1) / (m + 2)) < 1e-10

    def test_universality(self):
        rng = rng_from_seed(77)
        vals = [estimation_fidelity_exact(5, haar_random_pure(rng)).fidelity_measured
                for _ in range(20)]
        assert max(vals) - min(vals) < 1e-10

    def test_rho_bar_structure(self):
        # reconstruction shrinks the input Bloch vector by M/(M+2)
        m = 4
        psi = haar_random_pure(rng_from_seed(4))
        rep = estimation_fidelity_exact(m, psi)
        s_psi = bloch_of(np.outer(psi, psi.conj()))
        assert np.max(np.abs(bloch_of(rep.rho_bar) - (m / (m + 2)) * s_psi)) < 1e-10

    @pytest.mark.parametrize("m", range(1, LIMITS["dicke"][0] + 1))
    def test_matches_overlap_sum_oracle(self, m):
        # the overlap sum F = Σ_i (M+1) q_i |<phi_i|psi>|^(2(M+1)), summed with
        # fsum, and the probability-weighted node projectors for rho_bar
        rng = rng_from_seed(600 + m)
        states, weights = sphere_quadrature(m)
        for _ in range(20):
            psi = haar_random_pure(rng)
            rep = estimation_fidelity_exact(m, psi)
            overlap2 = np.abs(states @ psi.conj()) ** 2
            fid = math.fsum((m + 1) * weights * overlap2 ** (m + 1))
            probs = (m + 1) * weights * overlap2 ** m
            rho_bar = np.einsum("i,ij,ik->jk", probs, states, states.conj())
            assert abs(rep.fidelity_measured - fid) <= 1e-14
            assert abs(rep.eta_measured - (2 * fid - 1)) <= 2e-14
            assert np.max(np.abs(rep.rho_bar - rho_bar)) <= 1e-14
            assert rep.quadrature_order == len(weights)

    @pytest.mark.parametrize("m", range(1, LIMITS["dicke"][0] + 1))
    def test_matches_closed_form_operator(self, m):
        # rho_bar = (1 + M |psi><psi|) / (M+2); the worst case over M <= 60 is
        # 2.4e-14 (M = 56), and 7.8e-14 (M = 53) with numpy's leggauss weights
        rng = rng_from_seed(600 + m)
        for _ in range(20):
            psi = haar_random_pure(rng)
            exact = (np.eye(2) + m * np.outer(psi, psi.conj())) / (m + 2)
            assert np.max(np.abs(estimation_fidelity_exact(m, psi).rho_bar - exact)) <= 3e-14

    def test_range_check(self):
        for m in BAD_COPIES:
            with pytest.raises(ValueError, match="m must be an integer"):
                estimation_fidelity_exact(m, KET0)


class TestMonteCarlo:
    @pytest.mark.parametrize("m,expected", [(1, 2 / 3), (3, 4 / 5)])
    def test_matches_closed_form(self, m, expected):
        rep = estimate_monte_carlo(m, haar_random_pure(rng_from_seed(m)), 100_000, seed=m)
        assert abs(rep.fidelity_measured - expected) < 4 * rep.statistical_error

    def test_rho_bar_direction_and_length(self):
        m = 2
        psi = haar_random_pure(rng_from_seed(21))
        rep = estimate_monte_carlo(m, psi, 100_000, seed=22)
        s_psi = bloch_of(np.outer(psi, psi.conj()))
        s_bar = bloch_of(rep.rho_bar)
        # direction parallel and length M/(M+2), to sampling accuracy
        cos = np.dot(s_psi, s_bar) / np.linalg.norm(s_bar)
        assert cos > 0.99
        assert abs(np.linalg.norm(s_bar) - m / (m + 2)) < 0.01

    def test_reproducible(self):
        a = estimate_monte_carlo(2, KET0, 1000, seed=5)
        b = estimate_monte_carlo(2, KET0, 1000, seed=5)
        assert a.fidelity_measured == b.fidelity_measured

    def test_candidate_density(self):
        # outcomes concentrate about the input: mean overlap = F(M)
        m = 6
        cands = sample_candidates(m, KET0, 20_000, rng_from_seed(31))
        mean_overlap = np.mean(np.abs(cands @ KET0.conj()) ** 2)
        assert abs(mean_overlap - (m + 1) / (m + 2)) < 0.01

    def test_exact_vs_mc_over_seeds(self):
        m = 2
        psi = haar_random_pure(rng_from_seed(64))
        exact = estimation_fidelity_exact(m, psi).fidelity_measured
        misses = 0
        for seed in range(20):
            rep = estimate_monte_carlo(m, psi, 20_000, seed=seed)
            if abs(rep.fidelity_measured - exact) >= 4 * rep.statistical_error:
                misses += 1
        assert misses == 0

    @pytest.mark.parametrize("m", [*range(13, 21), 60])
    def test_band_above_twelve_copies(self, m):
        rep = estimate_monte_carlo(m, haar_random_pure(rng_from_seed(m)), 100_000, seed=m)
        assert abs(rep.fidelity_measured - (m + 1) / (m + 2)) < 4 * rep.statistical_error

    def test_range_check(self):
        for m in BAD_COPIES:
            with pytest.raises(ValueError, match="m must be an integer"):
                estimate_monte_carlo(m, KET0, 100, seed=1)
            with pytest.raises(ValueError, match="m must be an integer"):
                sample_candidates(m, KET0, 100, rng_from_seed(1))

    def test_numpy_integer_copy_count(self):
        m = np.int64(3)
        exact = estimation_fidelity_exact(m, KET0)
        assert exact.fidelity_measured == estimation_fidelity_exact(3, KET0).fidelity_measured
        rep = estimate_monte_carlo(m, KET0, 100, seed=1)
        assert rep.m_copies == 3 and type(rep.m_copies) is int
        assert rep.fidelity_measured == estimate_monte_carlo(3, KET0, 100, seed=1).fidelity_measured
        a = sample_candidates(m, KET0, 100, rng_from_seed(1))
        assert a.tobytes() == sample_candidates(3, KET0, 100, rng_from_seed(1)).tobytes()


class TestExactSampler:
    """The overlap u = |<phi|psi>|^2 of a draw has density (M+1) u^M on [0, 1]
    and the azimuth of phi about psi is uniform, independent of u."""

    SHOTS = 100_000

    @staticmethod
    def draws(m, shots, seed):
        psi = haar_random_pure(rng_from_seed(1000 + m))
        return psi, sample_candidates(m, psi, shots, rng_from_seed(seed))

    @pytest.mark.parametrize("m", [1, 3, 12, 20])
    def test_unit_norm(self, m):
        _, phi = self.draws(m, self.SHOTS, seed=10 + m)
        assert phi.shape == (self.SHOTS, 2)
        assert np.max(np.abs(np.linalg.norm(phi, axis=1) - 1)) <= 1e-15

    @pytest.mark.parametrize("m", [1, 3, 12, 20])
    def test_overlap_moments(self, m):
        # E[u^k] = (M+1)/(M+1+k); each mean within 4 of its exact standard errors
        psi, phi = self.draws(m, self.SHOTS, seed=20 + m)
        u = np.abs(phi @ psi.conj()) ** 2
        for k in (1, 2):
            mean, second = (m + 1) / (m + 1 + k), (m + 1) / (m + 1 + 2 * k)
            se = math.sqrt((second - mean ** 2) / self.SHOTS)
            assert abs(np.mean(u ** k) - mean) < 4 * se, k

    @pytest.mark.parametrize("m", [1, 3, 12, 20])
    def test_overlap_distribution(self, m):
        # Kolmogorov-Smirnov: u^(M+1) is uniform, at the 1% level
        psi, phi = self.draws(m, self.SHOTS, seed=30 + m)
        x = np.sort(np.abs(phi @ psi.conj()) ** (2 * (m + 1)))
        n = len(x)
        ks = max(np.max(np.arange(1, n + 1) / n - x), np.max(x - np.arange(n) / n))
        assert ks < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("m", [1, 3, 12, 20])
    def test_azimuth_uniform(self, m):
        # the relative phase of the psi_perp and psi components, e^(i chi)
        psi, phi = self.draws(m, self.SHOTS, seed=40 + m)
        perp = np.array([-psi[1].conj(), psi[0].conj()])
        rel = (phi @ perp.conj()) * (phi @ psi.conj()).conj()
        assert abs(np.mean(rel / np.abs(rel))) < 4 / math.sqrt(self.SHOTS)

    def test_same_seed_same_bytes(self):
        a = self.draws(7, 1000, seed=50)[1]
        b = self.draws(7, 1000, seed=50)[1]
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("psi", [[1, 1], [1 + 1e-8, 0], [1, 0, 0], [[1, 0]]])
    def test_rejects_non_unit_input(self, psi):
        with pytest.raises(ValueError):
            sample_candidates(2, psi, 10, rng_from_seed(1))
        with pytest.raises(ValueError):
            estimate_monte_carlo(2, psi, 10, seed=1)
        with pytest.raises(ValueError, match="unit 2-vector"):
            estimation_fidelity_exact(2, psi)
        with pytest.raises(ValueError, match="unit 2-vector"):
            verify_statement_b(1, 3, psi)

    @pytest.mark.parametrize("shots", [0, LIMITS["shots"][0] + 1, 2.5, 3.0, math.nan, -1, True])
    def test_rejects_shot_count_outside_range(self, shots):
        with pytest.raises(ValueError, match="n_shots"):
            estimate_monte_carlo(2, KET0, shots, seed=1)
        with pytest.raises(ValueError, match="n_shots"):
            sample_candidates(2, KET0, shots, rng_from_seed(1))

    def test_numpy_integer_shot_count(self):
        rep, ref = (estimate_monte_carlo(2, KET0, k, seed=1) for k in (np.int64(5), 5))
        assert (rep.fidelity_measured, rep.statistical_error) == (ref.fidelity_measured,
                                                                  ref.statistical_error)
        assert rep.rho_bar.tobytes() == ref.rho_bar.tobytes()
        a, b = (sample_candidates(2, KET0, k, rng_from_seed(1)) for k in (np.int64(5), 5))
        assert a.tobytes() == b.tobytes()


class TestPhaseKernel:
    """The azimuth phase of `_draw` is a table entry times a short series; the
    overlap u is the raw stream's first column to the power 1/(M+1)."""

    class Fixed:
        """A generator stand-in that fills the draw buffer with given values."""

        def __init__(self, x):
            self.x = x

        def random(self, out):
            out[...] = self.x

    def test_matches_complex_exponential(self):
        tiny = 2.0 ** -53
        table = np.arange(256) / 256
        edges = np.concatenate([table, table + tiny, table[1:] - tiny, [0.0, 1 - tiny]])
        x = np.concatenate([rng_from_seed(90).random(10 ** 6), edges])
        _, phase = _draw(5, len(x), self.Fixed(np.stack([x, x], axis=1)), _scratch(len(x)))
        assert np.max(np.abs(phase - np.exp(2j * np.pi * x))) <= 2e-15
        assert np.max(np.abs(np.abs(phase) - 1)) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 7, 20])
    def test_overlap_is_the_raw_power(self, m):
        x = rng_from_seed(91 + m).random((CHUNK + 7, 2))
        u, _ = _draw(m, CHUNK + 7, rng_from_seed(91 + m), _scratch(CHUNK + 7))
        assert np.array_equal(u, x[:, 0] ** (1 / (m + 1)))

    def test_scratch_draw_allocates_nothing(self):
        # a draw into a longer scratch set equals a fresh draw and allocates no array
        rng, scratch = rng_from_seed(92), _scratch(CHUNK)
        _draw(3, CHUNK - 9, rng, scratch)
        tracemalloc.start()
        try:
            u, phase = _draw(3, CHUNK - 9, rng, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096
        fresh = rng_from_seed(92)
        _draw(3, CHUNK - 9, fresh, _scratch(CHUNK - 9))
        u2, phase2 = _draw(3, CHUNK - 9, fresh, _scratch(CHUNK - 9))
        assert u.tobytes() == u2.tobytes() and phase.tobytes() == phase2.tobytes()


class TestStream:
    """Shots are drawn in chunks of BLOCK_ENTRIES // 2 with running sums; the
    oracle takes the same statistics of all draws from one `_draw` call."""

    @staticmethod
    def oracle(m, psi, n_shots, seed):
        u, phase = _draw(m, n_shots, rng_from_seed(seed), _scratch(n_shots))
        fid, w = u.mean(), complex(*(np.sqrt(u * (1 - u)) @ phase.view(float).reshape(-1, 2)))
        basis = np.stack([psi, [-psi[1].conj(), psi[0].conj()]], axis=1)
        rho_bar = basis @ np.array([[fid, w.conjugate() / n_shots],
                                    [w / n_shots, 1 - fid]]) @ basis.conj().T
        return float(fid), float(u.std(ddof=1) / np.sqrt(n_shots)), hermitize(rho_bar)

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_matches_one_draw(self, n):
        # bit-equal within one chunk; beyond it only the summation order moves
        psi = haar_random_pure(rng_from_seed(n))
        rep = estimate_monte_carlo(4, psi, n, seed=72)
        fid, se, rho_bar = self.oracle(4, psi, n, 72)
        bound = 0.0 if n <= CHUNK else 1e-15
        assert abs(rep.fidelity_measured - fid) <= bound
        assert abs(rep.statistical_error - se) <= bound
        assert np.max(np.abs(rep.rho_bar - rho_bar)) <= bound

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("m", [1, 4, 12, 20])
    def test_matches_candidate_formulas(self, m, n):
        # the overlap statistics equal those of the explicit outcomes phi
        psi = haar_random_pure(rng_from_seed(m + n))
        rep = estimate_monte_carlo(m, psi, n, seed=73)
        cands = sample_candidates(m, psi, n, rng_from_seed(73))
        fids = np.abs(cands @ psi.conj()) ** 2
        assert abs(rep.fidelity_measured - fids.mean()) <= 1e-15
        assert abs(rep.statistical_error - fids.std(ddof=1) / np.sqrt(n)) <= 1e-15
        assert np.max(np.abs(rep.rho_bar - cands.T @ cands.conj() / n)) <= 1e-15

    @pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("m", [1, 4, 12, 20])
    def test_matches_raw_stream(self, m, n):
        # an oracle that shares no code with `_draw`: the phase kernel cannot move F or its SE
        u = rng_from_seed(74).random((n, 2))[:, 0] ** (1 / (m + 1))
        rep = estimate_monte_carlo(m, KET0, n, seed=74)
        bound = 0.0 if n <= CHUNK else 1e-15
        assert abs(rep.fidelity_measured - u.mean()) <= bound
        assert abs(rep.statistical_error - u.std(ddof=1) / np.sqrt(n)) <= bound

    def test_chunked_draws_continue_the_stream(self):
        psi = haar_random_pure(rng_from_seed(75))
        rng = rng_from_seed(76)
        parts = [sample_candidates(5, psi, k, rng) for k in (CHUNK,) * 3 + (848,)]
        whole = sample_candidates(5, psi, 3 * CHUNK + 848, rng_from_seed(76))
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 7 * CHUNK - 5])
    def test_candidates_match_one_draw(self, n):
        # chunk by chunk, the candidates of one `_draw` call over all shots
        psi = haar_random_pure(rng_from_seed(79))
        u, phase = _draw(6, n, rng_from_seed(80), _scratch(n))
        perp = np.array([-psi[1].conj(), psi[0].conj()])
        whole = np.sqrt(u)[:, None] * psi + (np.sqrt(1 - u) * phase)[:, None] * perp
        assert np.array_equal(sample_candidates(6, psi, n, rng_from_seed(80)), whole)

    @pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
    def test_candidate_memory_is_the_output(self, n):
        # the (n, 2) output, 32 B per shot, and one chunk's work arrays
        psi = haar_random_pure(rng_from_seed(81))
        sample_candidates(3, psi, 10, rng_from_seed(82))
        tracemalloc.start()
        try:
            sample_candidates(3, psi, n, rng_from_seed(82))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n + 3e6

    @staticmethod
    def peak(n_shots):
        psi = haar_random_pure(rng_from_seed(77))
        estimate_monte_carlo(3, psi, 10, seed=78)
        tracemalloc.start()
        try:
            estimate_monte_carlo(3, psi, n_shots, seed=78)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_shots(self):
        # all 10^6 shots at once would peak near 104 MB; one set of work
        # arrays for a chunk of 16,384 shots is 0.92 MB, and W takes no copy of it
        assert self.peak(10 ** 6) < 1.0e6

    def test_memory_is_one_chunk_set(self):
        assert self.peak(10 ** 6) <= self.peak(2 * CHUNK) + 65536


class TestMeasureAndPrepare:
    def test_m1_ket0(self):
        out = measure_and_prepare_channel(1, np.outer(KET0, KET0))
        assert np.max(np.abs(out - np.diag([2 / 3, 1 / 3]))) < 1e-10

    def test_maximally_mixed_symmetric(self):
        m = 3
        rho = symmetrizer(m) / (m + 1)
        out = measure_and_prepare_channel(m, rho)
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-10

    def test_m2_plus(self):
        out = measure_and_prepare_channel(2, tensor_power_input(PLUS, 2))
        assert abs(bloch_of(out)[0] - 0.5) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_tensor_power_shrinking(self, m):
        psi = haar_random_pure(rng_from_seed(m + 200))
        out = measure_and_prepare_channel(m, tensor_power_input(psi, m))
        s_psi = bloch_of(np.outer(psi, psi.conj()))
        assert np.max(np.abs(bloch_of(out) - (m / (m + 2)) * s_psi)) < 1e-10

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mixed_symmetric_inputs(self, m):
        rng = rng_from_seed(m + 400)
        for _ in range(5):
            rho_m = random_symmetric_density(m, rng)
            s_in = bloch_of(partial_trace(rho_m, {0}, m))
            out = measure_and_prepare_channel(m, rho_m)
            assert np.max(np.abs(bloch_of(out) - (m / (m + 2)) * s_in)) < 1e-9

    @pytest.mark.parametrize("m", [*range(1, 21), 60])
    def test_matches_einsum_oracle(self, m):
        # the three-operand einsum over the nodes, on random mixed inputs. The
        # bound is the oracle's own rounding: against the same sums in extended
        # precision the einsum errs by up to 1.1e-15 at M = 60, the kernel by 3.1e-16
        rng = rng_from_seed(700 + m)
        states, weights = sphere_quadrature(m)
        vecs = quadrature_powers(m)
        for _ in range(5):
            g = rng.standard_normal((m + 1, m + 1)) + 1j * rng.standard_normal((m + 1, m + 1))
            coords = g @ g.conj().T
            coords /= coords.trace()
            probs = (m + 1) * weights * np.einsum("ij,jk,ik->i", vecs.conj(), coords, vecs).real
            oracle = hermitize(np.einsum("i,ij,ik->jk", probs, states, states.conj()))
            assert np.max(np.abs(measure_and_prepare_dicke(coords) - oracle)) <= 2e-15

    @pytest.mark.parametrize("m", range(1, LIMITS["dicke"][0] + 1))
    def test_matches_exact_twin(self, m):
        # d[k] = ((M-k+1), (k+1)) / (M+2) and u[k] = sqrt((k+1)(M-k)) / (M+2),
        # each the float nearest an exact ratio (u through the float nearest u²).
        # numpy's leggauss weights alone put the map off by up to 1.36e-13
        t_diag, t_off = _estimation_map(m)
        exact_diag = [[float(Fraction(m - k + 1, m + 2)), float(Fraction(k + 1, m + 2))]
                      for k in range(m + 1)]
        exact_off = [[math.sqrt(Fraction((k + 1) * (m - k), (m + 2) ** 2))] for k in range(m)]
        assert np.max(np.abs(t_diag - exact_diag)) <= 1e-14
        assert np.max(np.abs(t_off - exact_off)) <= 1e-14

    def test_map_is_read_only(self):
        # the cached band map is shared by every call on M copies
        t_diag, t_off = _estimation_map(9)
        assert t_diag.shape == (10, 2) and t_off.shape == (9, 1)
        assert _estimation_map(9)[0] is t_diag
        for arr in (t_diag, t_off):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_warm_memory_is_the_band(self):
        # the band map is O(M) per call; the node products over the 2-D design
        # peaked at 15.7 MB at M = 60
        m = 60
        coords = np.eye(m + 1, dtype=complex) / (m + 1)
        measure_and_prepare_dicke(coords)
        tracemalloc.start()
        try:
            measure_and_prepare_dicke(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6

    def test_rejects_non_symmetric(self):
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        with pytest.raises(ValueError):
            measure_and_prepare_channel(2, np.outer(singlet, singlet.conj()))


def composition_opt(m, l):
    """Statement B's composed fidelity from the ledger, (1 + eta(M,L) eta_meas(L)) / 2."""
    return (1 + eta_opt(m, l) * eta_meas_opt(l)) / 2


class TestStatementB:
    def test_m1_l2(self):
        composed = verify_statement_b(1, 2, KET0)
        assert type(composed) is float
        assert abs(composed - float(composition_opt(1, 2))) < 1e-8
        assert composition_opt(1, 2) == fidelity_meas_opt(1) == Fraction(2, 3)

    def test_identity_first_stage(self):
        composed = verify_statement_b(2, 2, KET0)
        assert abs(composed - float(fidelity_meas_opt(2))) < 1e-8

    @pytest.mark.parametrize("l", [2, 4, 6, 8, 11, 30, 60])
    def test_telescoping_l_independence(self, l):
        composed = verify_statement_b(1, l, haar_random_pure(rng_from_seed(l)))
        assert abs(composed - float(fidelity_meas_opt(1))) < 1e-8

    def test_bounds(self):
        with pytest.raises(ValueError):
            verify_statement_b(3, 2, KET0)
        with pytest.raises(ValueError):
            verify_statement_b(1, 61, KET0)

    def test_sixty_to_sixty(self):
        composed = verify_statement_b(60, 60, haar_random_pure(rng_from_seed(60)))
        assert abs(composed - float(fidelity_meas_opt(60))) < 1e-8
        assert abs(composed - float(composition_opt(60, 60))) < 1e-8


def test_composition_matches_manual_pipeline():
    # independent reconstruction of verify_statement_b from raw pieces
    psi = haar_random_pure(rng_from_seed(500))
    rho1 = tensor_power_input(psi, 1)
    rho3 = apply_cloner(CloneChannel(1, 3), rho1)
    rho_bar = measure_and_prepare_channel(3, rho3)
    assert abs(pure_fidelity(psi, rho_bar) - verify_statement_b(1, 3, psi)) < 1e-12
