import math

import numpy as np
import pytest

from qtransfer import channel, qubitpur
from qtransfer.qmath import BlochAngles
from mp_oracles import mp_average_fidelity, multiplicities


class TestMixtureCoefficients:
    @pytest.mark.parametrize("lam0,expected", [(1.0, (1.0, 0.0)), (0.25, (0.5, 0.5)),
                                               (0.7, (0.8, 0.2))])
    def test_values(self, lam0, expected):
        # The block distribution is built on the channel's mixture: two
        # copies leave nothing behind with probability c1 * c0.
        assert channel.mixture_weights(lam0) == pytest.approx(expected, abs=1e-15)
        assert qubitpur.outcome_distribution(2, lam0).probs[0] == pytest.approx(
            expected[0] * expected[1], abs=1e-15)


class TestMultiplicity:
    def test_full_block_is_unique(self):
        for n in (1, 4, 7):
            assert qubitpur.multiplicity(n, n) == 1

    def test_small_cases(self):
        assert qubitpur.multiplicity(4, 2) == 3
        assert qubitpur.multiplicity(4, 0) == 2

    def test_dimension_sum_covers_the_space(self):
        for n in range(1, 21):
            total = sum(qubitpur.multiplicity(n, m) * (m + 1)
                        for m in range(n % 2, n + 1, 2))
            assert total == 2 ** n

    def test_matches_the_oracle_side_count(self):
        for n in range(1, 41):
            assert multiplicities(n) == {m: qubitpur.multiplicity(n, m)
                                         for m in range(n % 2, n + 1, 2)}, n

    def test_rejects_bad_block_sizes(self):
        with pytest.raises(ValueError):
            qubitpur.multiplicity(4, 3)
        with pytest.raises(ValueError):
            qubitpur.multiplicity(4, 6)
        with pytest.raises(ValueError):
            qubitpur.multiplicity(4, -2)


class TestOutcomeDistribution:
    def test_single_copy(self):
        dist = qubitpur.outcome_distribution(1, 0.6)
        assert set(dist.probs) == {1}
        assert dist.probs[1] == pytest.approx(1.0, abs=1e-15)

    def test_two_copies_generic(self):
        dist = qubitpur.outcome_distribution(2, 0.7)
        assert dist.probs[0] == pytest.approx(0.16, abs=1e-15)
        assert dist.probs[2] == pytest.approx(0.84, abs=1e-15)

    def test_two_copies_at_degenerate_point(self):
        dist = qubitpur.outcome_distribution(2, 0.25)
        assert dist.probs[0] == pytest.approx(0.25, abs=1e-15)
        assert dist.probs[2] == pytest.approx(0.75, abs=1e-15)

    def test_normalization_on_grid(self):
        for n in range(1, 21):
            for lam0 in np.linspace(0.0, 1.0, 20):
                dist = qubitpur.outcome_distribution(n, float(lam0))
                assert abs(math.fsum(dist.probs.values()) - 1.0) < 1e-12

    def test_parity_of_keys(self):
        assert set(qubitpur.outcome_distribution(5, 0.5).probs) == {1, 3, 5}
        assert set(qubitpur.outcome_distribution(6, 0.5).probs) == {0, 2, 4, 6}


class TestSingleQubitFidelity:
    def test_empty_block_is_a_coin_flip(self):
        for lam0 in (0.3, 0.7, 1.0):
            assert qubitpur.single_qubit_fidelity(0, lam0) == 0.5

    def test_single_copy_equals_channel_fidelity(self):
        for lam0 in np.linspace(0.0, 1.0, 11):
            lam0 = float(lam0)
            assert qubitpur.single_qubit_fidelity(1, lam0) == pytest.approx(
                channel.single_shot_fidelity(lam0), abs=1e-15)

    def test_generic_value(self):
        assert qubitpur.single_qubit_fidelity(2, 0.7) == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_degenerate_point_limit(self):
        for m in (*range(1, 7), 600, 1100, 4096):
            assert qubitpur.single_qubit_fidelity(m, 0.25) == 0.5

    def test_matches_direct_ratio_away_from_degenerate_point(self):
        # Independent evaluation through the ratio form, valid when c1 != c0.
        for lam0 in (0.4, 0.7, 0.95):
            c1 = (1 + 2 * lam0) / 3
            c0 = 2 * (1 - lam0) / 3
            for m in range(1, 8):
                direct = ((m + 1) * c1 ** (m + 1) / (c1 ** (m + 1) - c0 ** (m + 1))
                          - c1 / (c1 - c0)) / m
                assert qubitpur.single_qubit_fidelity(m, lam0) == pytest.approx(direct,
                                                                                abs=1e-10)

    def test_matches_quadratic_double_sum(self):
        # The O(m^2) evaluation the recurrence replaced: c1 sum_k c1^k S_(m-1-k) / (m S_m)
        # with every homogeneous geometric sum S_j summed term by term.
        def split_sum(c1, c0, order):
            return math.fsum(c1 ** k * c0 ** (order - k) for k in range(order + 1))

        for lam0 in (0.25, 0.2500001, 0.3, 0.625, 0.8, 0.999, 1.0):
            c1, c0 = channel.mixture_weights(lam0)
            for m in range(1, 61):
                numerator = math.fsum(c1 ** k * split_sum(c1, c0, m - 1 - k) for k in range(m))
                oracle = c1 * numerator / (m * split_sum(c1, c0, m))
                assert qubitpur.single_qubit_fidelity(m, lam0) == pytest.approx(
                    oracle, rel=1e-14, abs=0.0), (lam0, m)

    def test_blocks_beat_the_raw_channel(self):
        for lam0 in np.linspace(0.26, 0.99, 15):
            lam0 = float(lam0)
            base = channel.single_shot_fidelity(lam0)
            for m in (2, 3, 4, 6):
                assert qubitpur.single_qubit_fidelity(m, lam0) > base


class TestAverageFidelity:
    def test_small_supplies_cannot_help(self):
        for lam0 in np.linspace(0.25, 1.0, 16):
            lam0 = float(lam0)
            base = (1 + 2 * lam0) / 3
            assert abs(qubitpur.average_fidelity(1, lam0).expected_fidelity - base) < 1e-12
            assert abs(qubitpur.average_fidelity(2, lam0).expected_fidelity - base) < 1e-12

    def test_two_copy_hand_evaluation(self):
        result = qubitpur.average_fidelity(2, 0.7)
        assert result.expected_fidelity == pytest.approx(0.16 * 0.5 + 0.84 * 6.0 / 7.0,
                                                         abs=1e-12)

    def test_monotone_in_supply(self):
        for lam0 in (0.5, 0.7, 0.9):
            values = [qubitpur.average_fidelity(n, lam0).expected_fidelity
                      for n in range(2, 21)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1035, 2049, 4096])
    def test_large_supply_matches_multiprecision_oracle(self, n):
        for lam0 in (0.2500001, 0.3, 0.625, 0.8, 0.999):
            value = qubitpur.average_fidelity(n, lam0).expected_fidelity
            assert abs(value - mp_average_fidelity(n, lam0)) <= 1e-12, (n, lam0)

    def test_perfect_channel_keeps_every_copy(self):
        result = qubitpur.average_fidelity(4096, 1.0)
        assert result.expected_fidelity == 1.0
        assert result.distribution.probs[4096] == 1.0
        assert all(p == 0.0 for m, p in result.distribution.probs.items() if m != 4096)

    def test_never_above_one(self):
        # The block probabilities here sum one ulp over 1.
        assert qubitpur.average_fidelity(3, 1 - 1e-16).expected_fidelity == 1.0

    def test_result_carries_consistent_parts(self):
        result = qubitpur.average_fidelity(5, 0.7)
        recomputed = math.fsum(p * qubitpur.single_qubit_fidelity(m, 0.7)
                               for m, p in result.distribution.probs.items())
        assert result.expected_fidelity == pytest.approx(recomputed, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qubitpur.average_fidelity(0, 0.5)
        with pytest.raises(ValueError):
            qubitpur.average_fidelity(3, 0.2)


# The crossing prescan's points and the grid of `sweep --grid 40`.
PRESCAN_GRID = np.linspace(0.25, 1.0, 64)
SWEEP_GRID = np.linspace(0.25, 1.0, 42)[1:-1]


class TestAverageFidelityGrid:
    @pytest.mark.parametrize("grid", [PRESCAN_GRID, SWEEP_GRID], ids=["prescan", "sweep"])
    def test_equals_single_point_evaluator(self, grid):
        # 513 and up pass the recurrence's first renormalization, at m = 512.
        for n in [*range(1, 61), 513, 1100, 4096]:
            values = qubitpur.average_fidelity_grid(n, grid).tolist()
            expected = [qubitpur.average_fidelity(n, float(lam)).expected_fidelity for lam in grid]
            assert values == expected, n

    def test_endpoints_and_clamp(self):
        for n in (1, 2, 3, 64, 4096):
            assert qubitpur.average_fidelity_grid(n, [0.25, 1.0]).tolist() == [0.5, 1.0]
        assert qubitpur.average_fidelity_grid(3, [1 - 1e-16]).tolist() == [1.0]

    @pytest.mark.parametrize("bad", [math.nan, 0.2, 1.1])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="lambda must lie in"):
            qubitpur.average_fidelity_grid(5, [0.5, bad])
        with pytest.raises(ValueError):
            qubitpur.average_fidelity_grid(0, [0.5])


class TestSpinProjectorOracle:
    def test_single_copy(self):
        dist = qubitpur.spin_projector_oracle(1, 0.6)
        assert dist.probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_two_copies(self):
        dist = qubitpur.spin_projector_oracle(2, 0.7)
        assert dist.probs[0] == pytest.approx(0.16, abs=1e-12)
        assert dist.probs[2] == pytest.approx(0.84, abs=1e-12)

    def test_matches_closed_form(self):
        closed = qubitpur.outcome_distribution(4, 0.8)
        oracle = qubitpur.spin_projector_oracle(4, 0.8)
        for m in closed.probs:
            assert abs(oracle.probs[m] - closed.probs[m]) < 1e-10

    def test_independent_of_probe_state(self):
        first = qubitpur.spin_projector_oracle(3, 0.6, angles=BlochAngles(0.4, 1.0))
        second = qubitpur.spin_projector_oracle(3, 0.6, angles=BlochAngles(2.6, 5.5))
        for m in first.probs:
            assert abs(first.probs[m] - second.probs[m]) < 1e-12

    def test_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            qubitpur.spin_projector_oracle(9, 0.5)


class TestQuadratureOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_closed_form(self, m):
        for lam0 in (0.3, 0.7):
            value = qubitpur.reduced_state_quadrature_oracle(m, lam0)
            assert abs(value - qubitpur.single_qubit_fidelity(m, lam0)) < 1e-6

    def test_independent_of_probe_state(self):
        a = qubitpur.reduced_state_quadrature_oracle(2, 0.6, angles=BlochAngles(0.3, 0.2))
        b = qubitpur.reduced_state_quadrature_oracle(2, 0.6, angles=BlochAngles(2.0, 4.0))
        assert abs(a - b) < 1e-12

    def test_independent_of_the_closed_form_sums(self, monkeypatch):
        expected = qubitpur.reduced_state_quadrature_oracle(3, 0.7)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not use the evaluator's sums")

        monkeypatch.setattr(qubitpur, "_block_sums", refuse)
        assert abs(qubitpur.reduced_state_quadrature_oracle(3, 0.7) - expected) <= 1e-12

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            qubitpur.reduced_state_quadrature_oracle(5, 0.6)
