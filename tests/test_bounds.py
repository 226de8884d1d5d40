import math
from fractions import Fraction

import numpy as np
import pytest

from qclone.bounds import (
    check_identities,
    eta_meas_opt,
    eta_opt,
    fidelity_meas_opt,
    fidelity_opt,
)


class TestEtaOpt:
    def test_values(self):
        assert eta_opt(1, 2) == Fraction(2, 3)
        assert eta_opt(3, 7) == Fraction(27, 35)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_diagonal_is_one(self, n):
        assert eta_opt(n, n) == 1

    def test_rejects_m_below_n(self):
        with pytest.raises(ValueError):
            eta_opt(3, 2)

    def test_monotonicity_grid(self):
        for n in range(1, 51):
            for m in range(n, 50):
                assert eta_opt(n, m) > eta_opt(n, m + 1)
        for m in range(2, 51):
            for n in range(1, m):
                assert eta_opt(n, m) < eta_opt(n + 1, m)


class TestFidelityOpt:
    def test_values(self):
        assert fidelity_opt(1, 2) == Fraction(5, 6)
        assert fidelity_opt(2, 6) == Fraction(5, 6)
        assert fidelity_opt(4, 4) == 1

    def test_bloch_relation_everywhere(self):
        for n in range(1, 51):
            for m in range(n, 51):
                assert fidelity_opt(n, m) == (1 + eta_opt(n, m)) / 2

    def test_rejects_m_below_n(self):
        with pytest.raises(ValueError):
            fidelity_opt(2, 1)


class TestMeasurementLedger:
    def test_values(self):
        assert eta_meas_opt(1) == Fraction(1, 3)
        assert eta_meas_opt(2) == Fraction(1, 2)
        assert fidelity_meas_opt(1) == Fraction(2, 3)
        assert fidelity_meas_opt(5) == Fraction(6, 7)

    def test_limits(self):
        assert eta_meas_opt(10 ** 6) < 1
        assert fidelity_meas_opt(10 ** 9) > 1 - Fraction(1, 10 ** 8)

    def test_relation(self):
        for m in range(1, 100):
            assert fidelity_meas_opt(m) == (1 + eta_meas_opt(m)) / 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eta_meas_opt(0)
        with pytest.raises(ValueError):
            fidelity_meas_opt(0)

    def test_measurement_never_beats_finite_cloning(self):
        for m in (1, 2, 5, 20, 1000, 10 ** 6):
            for l in (m, 2 * m, 10 * m, 10 ** 6 * m):
                assert eta_opt(m, l) >= eta_meas_opt(m)
                if l < 10 ** 6 * m:
                    assert eta_opt(m, l) > eta_meas_opt(m)


class TestIntegerCounts:
    @pytest.mark.parametrize("bad", [2.5, 3.0, math.nan, True, -1])
    def test_rejects_non_integer_counts(self, bad):
        calls = [lambda: eta_opt(bad, 4), lambda: eta_opt(1, bad),
                 lambda: fidelity_opt(bad, 4), lambda: fidelity_opt(1, bad),
                 lambda: eta_meas_opt(bad), lambda: fidelity_meas_opt(bad)]
        for call in calls:
            with pytest.raises(ValueError, match="must be an integer >= 1, got"):
                call()

    def test_numpy_integer_counts(self):
        n, m = np.int64(2), np.int64(3)
        for got, want in [(eta_opt(n, m), eta_opt(2, 3)), (fidelity_opt(n, m), fidelity_opt(2, 3)),
                          (eta_meas_opt(m), eta_meas_opt(3)),
                          (fidelity_meas_opt(m), fidelity_meas_opt(3))]:
            assert got == want and type(got.numerator) is int and type(got.denominator) is int


class TestCheckIdentities:
    def test_example_chain(self):
        rep = check_identities(1, 2, 4)
        assert rep.all_hold
        assert rep.eta_opt == Fraction(2, 3)

    def test_trivial_chain(self):
        rep = check_identities(3, 3, 3)
        assert rep.all_hold
        assert rep.eta_opt == 1

    def test_regression_2_3_6(self):
        # both sides evaluated exactly; would catch a transcription slip
        rep = check_identities(2, 3, 6)
        assert rep.all_hold
        assert eta_opt(2, 3) * eta_opt(3, 6) == eta_opt(2, 6) == Fraction(2, 3)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            check_identities(2, 1, 3)

    @pytest.mark.parametrize("m,gaps", [(1, (10 ** 3, 10 ** 6)), (1000, (10 ** 3, 10 ** 6)),
                                        (1001, (2000, 2 * 10 ** 6)),
                                        (10 ** 7, (10 ** 7, 10 ** 10))])
    def test_finite_gap_scales_with_m(self, m, gaps):
        # the gap is taken at L = 10^3 ceil(m/10^3) and 10^6 ceil(m/10^3), never below m
        rep = check_identities(1, m, m)
        assert rep.all_hold
        names = [name for name, _, _ in rep.inequality_checks if name.startswith("finite")]
        assert names == [f"finite-clone-gap-L={big_l}" for big_l in gaps]

    def test_exhaustive_chain_grid_50(self):
        for n in range(1, 51):
            for m in range(n, 51):
                for l in range(m, 51):
                    assert eta_opt(n, m) * eta_opt(m, l) == eta_opt(n, l)


class TestCrossCheck:
    def test_against_simulator(self):
        from qclone.cloner import CloneChannel, measure_shrinking
        from qclone.linalg import haar_random_pure, rng_from_seed

        from oracle import tensor_power_input
        psi = haar_random_pure(rng_from_seed(3))
        rep = measure_shrinking(CloneChannel(2, 5), tensor_power_input(psi, 2))
        assert abs(rep.eta_measured - float(Fraction(7, 10))) < 1e-9
