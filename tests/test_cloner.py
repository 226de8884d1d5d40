import tracemalloc
from fractions import Fraction
from math import comb, factorial, nan, sqrt

import numpy as np
import pytest

from qclone import cloner, symspace
from qclone.bounds import eta_opt
from qclone.cli import main
from qclone.cloner import (
    CloneChannel,
    _chunk_size,
    _transfer,
    apply_cloner,
    apply_cloner_dicke,
    certify_universality,
    measure_inputs,
    measure_shrinking,
)
from qclone.linalg import (
    LIMITS,
    DegenerateInputError,
    bloch_of,
    hermitize,
    partial_trace,
    pure_fidelity,
    rng_from_seed,
    haar_random_pure,
)
from qclone.symspace import (
    dicke_basis,
    project_dicke,
    random_symmetric_density,
    reduced_qubit_from_dicke,
    symmetric_coords,
    symmetrizer,
    tensor_power_dicke,
)

from oracle import min_eigenvalue, state_from_bloch, tensor_power_input

KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def dense_cloner(n, m, rho_n):
    """Reference channel (N+1)/(M+1) S_M (rho ⊗ 1) S_M with the dense symmetrizer."""
    s = symmetrizer(m)
    return (n + 1) / (m + 1) * (s @ np.kron(rho_n, np.eye(2 ** (m - n))) @ s)


def dense_apply_full(ch, rho_n):
    """Reference full-space output V·T·V†, T = (N+1)/(M+1) V†(rho ⊗ 1)V, as
    two dense products, then hermitize."""
    n, m = ch.n_in, ch.m_out
    if m == n:
        return rho_n.copy()
    v = dicke_basis(m)
    coords = v.conj().T @ (rho_n @ v.reshape(2 ** n, -1)).reshape(2 ** m, m + 1)
    out = hermitize(v @ ((n + 1) / (m + 1) * coords) @ v.conj().T)
    assert abs(out.trace().real - 1) <= 1e-10
    return out


def pure_and_mixed_inputs(rng, n):
    """One Haar tensor-power input and one random mixed symmetric input."""
    return (tensor_power_input(haar_random_pure(rng), n), random_symmetric_density(n, rng))


def loop_dicke_cloner(n, m, coords_n):
    """Reference Dicke-coordinate channel as an explicit loop over (w, a, b)."""
    f = np.zeros((n + 1, m + 1))  # f[a, a+w]² = (N+1) C(M-N,w) C(N,a) / ((M+1) C(M,a+w))
    out = np.zeros((m + 1, m + 1), dtype=complex)
    for w in range(m - n + 1):
        for a in range(n + 1):
            f[a, a + w] = sqrt((n + 1) * comb(m - n, w) * comb(n, a) / ((m + 1) * comb(m, a + w)))
        for a in range(n + 1):
            for b in range(n + 1):
                out[a + w, b + w] += f[a, a + w] * f[b, b + w] * coords_n[a, b]
    return out


def matrix_units(n):
    """The 2N+1 units E_aa, then E_{a,a+1}, as a batch (2N+1, N+1, N+1)."""
    units = np.zeros((2 * n + 1, n + 1, n + 1), dtype=complex)
    a = np.arange(n + 1)
    units[a, a, a] = 1
    units[n + 1 + a[:-1], a[:-1], a[:-1] + 1] = 1
    return units


def certification_peaks(ch, sample_counts):
    """Warm tracemalloc peak of `certify_universality` at each sample count."""
    certify_universality(ch, 2, seed=3)   # fill the map cache outside the measurement
    peaks = []
    for samples in sample_counts:
        tracemalloc.start()
        try:
            certify_universality(ch, samples, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def loop_measure(ch, coords):
    """Reference certification of one input, given as Dicke coordinates:
    (shrinking factor, direction-state fidelity)."""
    s_in = bloch_of(reduced_qubit_from_dicke(coords))
    len_in = np.linalg.norm(s_in)
    out_qubit = reduced_qubit_from_dicke(apply_cloner_dicke(ch, coords))
    s_out = bloch_of(hermitize(out_qubit))
    x, y, z = s_in / len_in
    theta, phi = np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)
    psi_dir = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return np.linalg.norm(s_out) / len_in, pure_fidelity(psi_dir, out_qubit)


def loop_certify(ch, n_samples, seed):
    """Reference `certify_universality`: one Haar draw and one `loop_measure`
    per sample; (eta mean, fidelity mean, eta spread)."""
    rng = rng_from_seed(seed)
    rows = []
    for _ in range(n_samples):
        c = tensor_power_dicke(haar_random_pure(rng), ch.n_in)
        rows.append(loop_measure(ch, np.outer(c, c.conj())))
    etas, fids = np.array(rows).T
    return etas.mean(), fids.mean(), etas.max() - etas.min()


class TestChannelDescriptor:
    def test_rejects_shrinking_direction(self):
        with pytest.raises(ValueError):
            CloneChannel(3, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CloneChannel(0, 2)

    @pytest.mark.parametrize("bad", [2.5, 3.0, nan, True, -1])
    def test_rejects_non_integer_counts(self, bad):
        with pytest.raises(ValueError, match="n_in must be a positive integer"):
            CloneChannel(bad, 4)
        with pytest.raises(ValueError, match="m_out=.* must be an integer >= n_in=1"):
            CloneChannel(1, bad)

    def test_numpy_integer_counts_are_stored_as_ints(self):
        ch = CloneChannel(np.int64(2), np.int64(3))
        assert ch == CloneChannel(2, 3) and hash(ch) == hash(CloneChannel(2, 3))
        assert type(ch.n_in) is int and type(ch.m_out) is int
        assert certify_universality(ch, 5, 1) == certify_universality(CloneChannel(2, 3), 5, 1)


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

    @pytest.mark.parametrize("n", range(1, 5))
    def test_gather_equals_dense_route(self, n):
        # the embedded Dicke output against the two-product full-space route
        rng = rng_from_seed(720 + n)
        for m in range(n, 11):
            ch = CloneChannel(n, m)
            for rho_n in pure_and_mixed_inputs(rng, n):
                out = apply_cloner(ch, rho_n)
                assert np.max(np.abs(out - dense_apply_full(ch, rho_n))) <= 1e-12

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
        # V has one nonzero, c_k = C(M,k)^(-1/2), in each row of class k, so the
        # full-space output V T V† is the class table T̃[k, l] = c_k T[k, l] c_l
        # with T = (N+1)/(M+1) V†(rho ⊗ 1)V: embed(fast) - full reads
        # c_k fast c_l - T̃, and project(full) - fast reads T̃ / (c_k c_l) - fast
        rng = rng_from_seed(n + 100 * m)
        rho_n = random_symmetric_density(n, rng)
        v = dicke_basis(m)
        coords = v.conj().T @ (rho_n @ v.reshape(2 ** n, -1)).reshape(2 ** m, m + 1)
        c = 1 / np.sqrt([comb(m, k) for k in range(m + 1)])
        table = c[:, None] * ((n + 1) / (m + 1) * coords) * c
        fast = apply_cloner_dicke(CloneChannel(n, m), project_dicke(rho_n, n))
        assert np.max(np.abs(c[:, None] * fast * c - table)) < 1e-10
        assert np.max(np.abs(table / (c[:, None] * c) - fast)) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_loop_oracle(self, n):
        rng = rng_from_seed(900 + n)
        for m in [*range(n, 13), 16, 32, 60]:
            g = rng.standard_normal((n + 1,) * 2) + 1j * rng.standard_normal((n + 1,) * 2)
            coords = g @ g.conj().T
            coords /= coords.trace()
            fast = apply_cloner_dicke(CloneChannel(n, m), coords)
            assert np.array_equal(fast, loop_dicke_cloner(n, m, coords))

    def test_amplitudes_match_per_entry_binomials(self):
        # one correctly rounded int ratio per entry, from binomial rows, is the
        # square root of the exact Fraction bit for bit on every cell
        for m in range(1, LIMITS["dicke"][0] + 1):
            for n in range(1, m + 1):
                want = np.array([[sqrt(Fraction((n + 1) * comb(m - n, w) * comb(n, a),
                                                (m + 1) * comb(m, a + w)))
                                  for a in range(n + 1)] for w in range(m - n + 1)])
                got = cloner._amplitudes(n, m)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape, (n, m)

    def test_amplitudes_do_not_overflow(self):
        # past C(M-N, w) ~ 1e308 every entry stays a ratio at most 1, and the
        # squares over w sum to the trace, 1, for each input level a
        f = cloner._amplitudes(7, 1040)
        assert f.shape == (1034, 8) and np.isfinite(f).all() and f.max() <= 1
        assert np.max(np.abs((f * f).sum(axis=0) - 1)) <= 1e-14

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 7), (6, 60)])
    def test_batch_matches_single_inputs(self, n, m):
        rng = rng_from_seed(950 + n + m)
        g = rng.standard_normal((5, n + 1, n + 1)) + 1j * rng.standard_normal((5, n + 1, n + 1))
        coords = g @ g.conj().swapaxes(1, 2)
        ch = CloneChannel(n, m)
        out = apply_cloner_dicke(ch, coords)
        assert out.shape == (5, m + 1, m + 1)
        reduced = reduced_qubit_from_dicke(out)
        for i in range(5):
            assert np.array_equal(out[i], apply_cloner_dicke(ch, coords[i]))
            assert np.array_equal(reduced[i], reduced_qubit_from_dicke(out[i]))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 7), (6, 60)])
    def test_output_qubit_batch_matches_single_inputs(self, n, m):
        # band maps sum per row, so a batch row is its batch of one
        rng = rng_from_seed(960 + n + m)
        g = rng.standard_normal((5, n + 1, n + 1)) + 1j * rng.standard_normal((5, n + 1, n + 1))
        coords = g @ g.conj().swapaxes(1, 2)
        ch = CloneChannel(n, m)
        qubits = cloner._output_qubit(ch, symspace._band(coords))
        diag, off = cloner._output_band(ch, symspace._band(coords))
        assert qubits.shape == (5, 2, 2) and diag.shape == (5, m + 1) and off.shape == (5, m)
        for i in range(5):
            assert np.array_equal(qubits[i], cloner._output_qubit(ch, symspace._band(coords[i])))
            one_diag, one_off = cloner._output_band(ch, symspace._band(coords[i]))
            assert np.array_equal(diag[i], one_diag) and np.array_equal(off[i], one_off)

    def test_rejects_non_finite_coordinates(self):
        # a NaN or an infinity is refused, not measured as a NaN shrinking factor
        for bad in (nan, np.inf, complex(0, nan)):
            coords = np.eye(3, dtype=complex) / 3
            coords[0, 1] = bad
            for call in (lambda c: measure_inputs([(CloneChannel(2, 4), c)]),
                         lambda c: apply_cloner_dicke(CloneChannel(2, 4), c)):
                with pytest.raises(ValueError, match="must be finite"):
                    call(coords)

    def test_trace_guard_fails_on_nan(self):
        with pytest.raises(RuntimeError, match="differs from input trace by nan"):
            cloner._check_trace(np.array([1.0, nan]), np.ones(2))

    def test_rejects_bad_batch_shapes(self):
        for shape in [(4, 4), (2, 2, 3, 3), (3,), (2, 2, 2)]:
            with pytest.raises(ValueError):
                apply_cloner_dicke(CloneChannel(2, 4), np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("call", [
        apply_cloner_dicke,
        lambda ch, coords: measure_inputs([(ch, coords)]),
        lambda ch, coords: measure_inputs([(CloneChannel(1, 3), np.eye(2) / 2), (ch, coords)]),
    ], ids=["apply_cloner_dicke", "measure_inputs-one", "measure_inputs"])
    def test_coordinates_must_match_the_channel(self, call):
        # every channel entry names n_in, for one input and for a batch
        for coords in (np.eye(4) / 4, np.eye(2) / 2, np.broadcast_to(np.eye(4) / 4, (2, 4, 4))):
            with pytest.raises(ValueError, match=r"coords shape \(.*\) does not match n_in=2"):
                call(CloneChannel(2, 4), coords)

    def test_table_is_read_only(self):
        # the cached transfer map is shared by every caller of a cell
        t_diag, t_off = _transfer(3, 10)
        assert t_diag.shape == (4, 2) and t_off.shape == (3, 1)
        for arr in (t_diag, t_off):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_engine_memory_is_per_call(self):
        # the engine keeps nothing between calls: its peak is one output and
        # one shifted block, not an (M-N+1)(N+1)² table per cell
        tracemalloc.start()
        try:
            for m in (40, 60):
                for n in range(1, m + 1):
                    apply_cloner_dicke(CloneChannel(n, m), np.eye(n + 1) / (n + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

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

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 5), (3, 10), (4, 30)])
    def test_matches_loop_oracle(self, n, m):
        # pure and mixed inputs, each the batch of one of the certification core
        ch = CloneChannel(n, m)
        rng = rng_from_seed(60 + n + m)
        for rho_n in (tensor_power_input(haar_random_pure(rng), n),
                      random_symmetric_density(n, rng, min_bloch=0.1)):
            rep = measure_shrinking(ch, rho_n)
            eta, fid = loop_measure(ch, symmetric_coords(rho_n))
            assert abs(rep.eta_measured - eta) <= 1e-14
            assert abs(rep.fidelity_measured - fid) <= 1e-14
            assert rep.universality_spread == 0.0

    def test_batch_guards_each_input(self):
        # one bad input among good ones fails the whole batch
        ch = CloneChannel(2, 5)
        good = symmetric_coords(tensor_power_input(PLUS, 2))
        mixed = np.eye(3, dtype=complex) / 3
        with pytest.raises(DegenerateInputError):
            measure_inputs([(ch, np.stack([good, mixed, good]))])
        skew = good.copy()
        skew[1, 1] += 1e-6j
        with pytest.raises(ValueError):
            measure_inputs([(ch, np.stack([good, good, skew]))])

    def test_trace_guard(self, monkeypatch):
        # the channel factor off by 1e-6 at M = 16 moves the diagonal
        # coefficient f[0, 1]² and breaks trace preservation
        amplitudes = cloner._amplitudes

        def perturbed(n, m):
            f = amplitudes(n, m)
            f[0, 1] += 1e-6
            return f

        ch = CloneChannel(2, 16)
        coords = symmetric_coords(tensor_power_input(PLUS, 2))
        measure_inputs([(ch, np.stack([coords, coords]))])
        # the cached transfer map is formed from the channel factor: drop it on
        # both sides so the perturbed (2, 16) map neither is missed nor outlives the test
        _transfer.cache_clear()
        monkeypatch.setattr(cloner, "_amplitudes", perturbed)
        try:
            with pytest.raises(RuntimeError, match="trace"):
                measure_inputs([(ch, np.stack([coords, coords]))])
        finally:
            _transfer.cache_clear()

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
        for samples in (1, 2.5, 3.0, nan):
            with pytest.raises(ValueError, match="need at least 2 samples"):
                certify_universality(CloneChannel(1, 2), samples, seed=0)

    def test_numpy_integer_sample_count(self):
        rep = certify_universality(CloneChannel(1, 2), np.int64(5), seed=0)
        assert rep == certify_universality(CloneChannel(1, 2), 5, seed=0)

    def test_seeded_reproducibility(self):
        a = certify_universality(CloneChannel(1, 3), 20, seed=9)
        b = certify_universality(CloneChannel(1, 3), 20, seed=9)
        assert a == b

    @pytest.mark.parametrize("n,m,samples", [(1, 2, 20), (2, 8, 20), (4, 12, 20),
                                             (3, 16, 20), (6, 40, 20)])
    def test_matches_full_space_route(self, n, m, samples):
        # The same psi sequence, embedded in the 2^N space and measured there.
        ch = CloneChannel(n, m)
        rng = rng_from_seed(11)
        reps = [measure_shrinking(ch, tensor_power_input(haar_random_pure(rng), n))
                for _ in range(samples)]
        etas = np.array([r.eta_measured for r in reps])
        rep = certify_universality(ch, samples, seed=11)
        assert abs(rep.eta_measured - etas.mean()) < 1e-14
        assert abs(rep.fidelity_measured - np.mean([r.fidelity_measured for r in reps])) < 1e-14
        assert abs(rep.universality_spread - (etas.max() - etas.min())) < 1e-14

    @pytest.mark.parametrize("n,m,samples,chunk", [(6, 60, 50, 8), (1, 16, 300, 113),
                                                   (2, 8, 20, 404), (3, 10, 5, 256)])
    def test_matches_loop_oracle(self, n, m, samples, chunk, monkeypatch):
        # sample counts that cross several chunk boundaries, and single chunks;
        # the block is shrunk so that small sample counts span several chunks
        monkeypatch.setattr(cloner, "BLOCK_ENTRIES", chunk * (2 * n + 1))
        ch = CloneChannel(n, m)
        assert _chunk_size(ch) == chunk
        rep = certify_universality(ch, samples, seed=21)
        eta, fid, spread = loop_certify(ch, samples, seed=21)
        assert abs(rep.eta_measured - eta) <= 1e-14
        assert abs(rep.fidelity_measured - fid) <= 1e-14
        assert abs(rep.universality_spread - spread) <= 1e-14

    def test_certifies_without_full_space_at_m12(self, monkeypatch):
        # certification never forms a 2^N or 2^M operator (a 4096 x 4096 output is 268 MB)
        def full_space(*args):
            raise AssertionError("certification left Dicke coordinates")

        monkeypatch.setattr(cloner, "embed_dicke", full_space)
        monkeypatch.setattr(symspace, "dicke_basis", full_space)
        tracemalloc.start()
        try:
            rep = certify_universality(CloneChannel(3, 12), 50, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert abs(rep.eta_measured - float(eta_opt(3, 12))) < 1e-9

    def test_memory_does_not_grow_with_samples(self):
        ch = CloneChannel(6, 60)
        assert _chunk_size(ch) < 5670
        peaks = certification_peaks(ch, (5670, 56700))   # both span more than two chunks
        assert peaks[1] <= peaks[0] * 1.01

    def test_memory_is_one_chunk_at_the_dicke_edge(self):
        # a chunk's bands are released before the next chunk is drawn, so ten
        # chunks peak where one does
        ch = CloneChannel(60, 60)
        peaks = certification_peaks(ch, (_chunk_size(ch), 10 * _chunk_size(ch)))
        assert peaks[1] <= peaks[0] * 1.01


class TestCertifyCells:
    CELLS = [(CloneChannel(2, 3), 5), (CloneChannel(6, 60), 6), (CloneChannel(4, 8), 7)]

    @pytest.mark.parametrize("samples", [9000, 700, 50])
    def test_each_report_is_its_own_certification(self, samples):
        # mixed N, with sample counts that cross the chunks of (2, 3) (6553),
        # (6, 60) (2520) and (4, 8) (3640), and counts whose chunks share one tail
        reports = cloner.certify_cells(self.CELLS, samples)
        assert reports == [certify_universality(ch, samples, seed) for ch, seed in self.CELLS]

    def test_tail_stays_within_the_chunk_that_opened_it(self, monkeypatch):
        # the first (6, 60) chunk joins the tail that (2, 3) opened, the next cannot
        # join the 2520 rows its own chunk opened, and a due tail runs before the
        # next chunk is drawn: each tail holds exactly the rows drawn since the one
        # before it
        tails, drawn, shrinking, draw = [], [0], cloner._shrinking, cloner._haar_tensor_powers

        def tail(q_in, q_out):
            tails.append((len(q_in), drawn[0]))
            drawn[0] = 0
            return shrinking(q_in, q_out)

        def counting_draw(rng, count, n):
            drawn[0] += count
            return draw(rng, count, n)

        monkeypatch.setattr(cloner, "_shrinking", tail)
        monkeypatch.setattr(cloner, "_haar_tensor_powers", counting_draw)
        cloner.certify_cells(self.CELLS, 9000)
        sizes = [6553, 2447 + 2520, 2520, 2520, 1440, 3640, 3640, 1720]
        assert tails == [(size, size) for size in sizes]

    def test_refuses_before_drawing(self, monkeypatch):
        monkeypatch.setattr(cloner, "_haar_tensor_powers", None)
        with pytest.raises(ValueError, match="need at least 2 samples"):
            cloner.certify_cells(self.CELLS, 1)
        with pytest.raises(ValueError, match="dicke path limited"):
            cloner.certify_cells(self.CELLS + [(CloneChannel(1, 61), 1)], 2)


class TestTransfer:
    def test_exact_certificate(self):
        # The map is the paper's, in integers, on the whole triangle: τ_a = 1,
        # p11(E_aa) = 1/2 + η(a/N − 1/2) and p01(E_{a,a+1}) = η √((a+1)(N−a))/N,
        # η = N(M+2)/(M(N+2)). The square roots cancel in the last ratio. With
        # C(N,a)/C(M,j) = C(N,a) j!(M−j)!/M!, every sum over w shares the
        # denominator (M+1)!, and each identity is one cross-multiplication.
        fact = [factorial(i) for i in range(LIMITS["dicke"][0] + 2)]
        for m in range(1, LIMITS["dicke"][0] + 1):
            split = [fact[j] * fact[m - j] for j in range(m + 1)]   # j!(M−j)!
            for n in range(1, m + 1):
                cw = [comb(m - n, w) for w in range(m - n + 1)]
                for a in range(n + 1):
                    lead = (n + 1) * comb(n, a)
                    terms = [c * split[a + w] for w, c in enumerate(cw)]
                    # τ_a = lead Σ terms / (M+1)!
                    assert lead * sum(terms) == fact[m + 1]
                    # p11 = lead Σ terms·j / (M (M+1)!) = (M(N+2) + (M+2)(2a−N)) / (2M(N+2))
                    s1 = sum(t * (a + w) for w, t in enumerate(terms))
                    assert 2 * (n + 2) * lead * s1 == \
                        (m * (n + 2) + (m + 2) * (2 * a - n)) * fact[m + 1]
                    if a < n:
                        # p01 / (√((a+1)(N−a))/N) = lead N Σ terms·(j+1) / (M (a+1) (M+1)!) = η
                        s2 = sum(t * (a + w + 1) for w, t in enumerate(terms))
                        assert (n + 2) * lead * s2 == (m + 2) * (a + 1) * fact[m + 1]

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 60), (4, 12), (6, 60), (30, 60), (60, 60)])
    def test_matches_engine_on_matrix_units(self, n, m):
        # the whole-output engine stays the reference: its reduction and trace
        # on the 2N+1 units E_aa and E_{a,a+1}
        t_diag, t_off = _transfer(n, m)
        assert t_diag.shape == (n + 1, 2) and t_off.shape == (n, 1)
        units = matrix_units(n)
        out = apply_cloner_dicke(CloneChannel(n, m), units)
        reduced = reduced_qubit_from_dicke(out)
        trace = np.trace(out, axis1=-2, axis2=-1)
        assert np.max(np.abs(reduced[:n + 1, 0, 0] - t_diag[:, 0])) <= 1e-15
        assert np.max(np.abs(reduced[:n + 1, 1, 1] - t_diag[:, 1])) <= 1e-15
        assert np.max(np.abs(trace[:n + 1] - t_diag.sum(axis=-1))) <= 1e-15
        assert np.max(np.abs(reduced[n + 1:, 0, 1] - t_off[:, 0])) <= 1e-15
        # and the closed forms of the exact certificate, in floats
        eta, a = float(eta_opt(n, m)), np.arange(n + 1)
        assert np.max(np.abs(t_diag.sum(axis=-1) - 1)) <= 1e-14
        assert np.max(np.abs(t_diag[:, 1] - (0.5 + eta * (a / n - 0.5)))) <= 1e-14
        assert np.max(np.abs(t_off[:, 0] - eta * np.sqrt((a[:-1] + 1) * (n - a[:-1])) / n)) <= 1e-14

    @pytest.mark.parametrize("n,m", [(n, m) for m in range(1, 21) for n in range(1, m + 1)]
                             + [(1, 60), (6, 60), (30, 60), (59, 60), (60, 60)])
    def test_output_band_matches_engine_on_matrix_units(self, n, m):
        # the band map is the band of the engine's whole output bit for bit:
        # both read the one factor f, d = f[w,a]² and u = f[w,a] f[w,a+1]
        units = matrix_units(n)
        ch = CloneChannel(n, m)
        engine = symspace._band(apply_cloner_dicke(ch, units))
        for got, want in zip(cloner._output_band(ch, symspace._band(units)), engine, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_band_maps_compose(self):
        # the paper's concatenation at channel level: N→M then M→L is N→L
        cells = [(n, m, l) for n in range(1, 9) for m in range(n, 13) for l in range(m, 13)]
        for n, m, l in cells + [(1, 30, 60), (6, 30, 60), (60, 60, 60)]:
            chain = symspace._apply_band(cloner._band_map(n, m), cloner._band_map(m, l))
            for got, want in zip(chain, cloner._band_map(n, l), strict=True):
                assert got.shape == want.shape and np.max(np.abs(got - want)) <= 5e-16, (n, m, l)

    def test_map_is_bit_equal_to_table_slices(self):
        # the map equals, bit for bit, the band map read off the whole table
        # k[w, a, b] = f[w,a] f[w,b] (entry (a, b) goes to (a+w, b+w))
        # followed by the reduction's map, with per-row sums
        cells = [(n, m) for m in range(1, 21) for n in range(1, m + 1)]
        for n, m in cells + [(4, 40), (6, 60), (30, 60), (59, 60), (60, 60)]:
            f = cloner._amplitudes(n, m)
            k = f[:, :, None] * f[:, None, :]
            d, u = np.zeros((n + 1, m + 1)), np.zeros((n, m))
            for w in range(m - n + 1):
                for a in range(n + 1):
                    d[a, a + w] = k[w, a, a]
                    if a < n:
                        u[a, a + w] = k[w, a, a + 1]
            red_diag, red_off = symspace._reduction(m)
            t_diag = np.sum(d[:, :, None] * red_diag, axis=1)
            t_off = np.sum(u[:, :, None] * red_off, axis=1)
            got_diag, got_off = _transfer(n, m)
            assert got_diag.tobytes() == t_diag.tobytes() and got_diag.shape == t_diag.shape
            assert got_off.tobytes() == t_off.tobytes() and got_off.shape == t_off.shape

    def test_certification_caches_no_table(self, capsys):
        # the map is the cloner's only cache: neither certification nor the
        # whole-output engine keeps an (M-N+1)(N+1)² table per cell
        caches = [name for name, obj in vars(cloner).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == cloner.__name__]
        assert caches == ["_transfer"]
        _transfer.cache_clear()
        for n, m in [(1, 2), (3, 10), (6, 60), (30, 60)]:
            certify_universality(CloneChannel(n, m), 5, n + m)
        measure_shrinking(CloneChannel(2, 40), tensor_power_input(PLUS, 2))
        assert main(["clone", "--n", "4", "--m", "50", "--samples", "3"]) == 0
        capsys.readouterr()
        assert _transfer.cache_info().currsize == 6
        apply_cloner_dicke(CloneChannel(3, 10), np.eye(4) / 4)
        assert _transfer.cache_info().currsize == 6

    def test_chunk_holds_inputs_only(self):
        # samples per chunk depend on N alone: each input is a band of 2N+1
        # entries, and each output one qubit
        for m in (6, 16, 60):
            assert _chunk_size(CloneChannel(6, m)) == symspace.BLOCK_ENTRIES // 13 == 2520
        assert _chunk_size(CloneChannel(1, 16)) == 10922
        assert _chunk_size(CloneChannel(60, 60)) == 270


class TestTensorPowerInput:
    @pytest.mark.parametrize("n", [1030, 1100])
    def test_rejects_float_overflow(self, n):
        with pytest.raises(ValueError, match=f"n={n}"):
            tensor_power_input(KET0, n)


class TestConcatenation:
    def test_1_2_4_equals_direct(self):
        rho = np.outer(KET0, KET0)
        out_chain = apply_cloner(CloneChannel(2, 4), apply_cloner(CloneChannel(1, 2), rho))
        out_direct = apply_cloner(CloneChannel(1, 4), rho)
        z_chain = bloch_of(partial_trace(out_chain, {0}, 4))[2]
        z_direct = bloch_of(partial_trace(out_direct, {0}, 4))[2]
        assert abs(z_chain - 0.5) < 1e-9
        assert abs(z_direct - 0.5) < 1e-9

    def test_identity_chain(self):
        rho = tensor_power_input(PLUS, 2)
        out = apply_cloner(CloneChannel(2, 2), apply_cloner(CloneChannel(2, 2), rho))
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_1_3_5_both_paths(self):
        psi = haar_random_pure(rng_from_seed(14))
        rho = np.outer(psi, psi.conj())
        chained = apply_cloner(CloneChannel(3, 5), apply_cloner(CloneChannel(1, 3), rho))
        direct = apply_cloner(CloneChannel(1, 5), rho)
        s_c = bloch_of(partial_trace(chained, {0}, 5))
        s_d = bloch_of(partial_trace(direct, {0}, 5))
        assert np.max(np.abs(s_c - s_d)) < 1e-9
        assert abs(np.linalg.norm(s_c) - 7 / 15) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_cloner(CloneChannel(3, 4),
                         apply_cloner(CloneChannel(1, 2), np.outer(KET0, KET0)))

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
