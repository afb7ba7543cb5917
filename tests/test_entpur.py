import gc
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qtransfer import channel, entpur
from qtransfer.entpur import EntPurResult
from mp_oracles import mp_ent_pur


class TestStepClosedForms:
    @pytest.mark.parametrize("lam,expected", [(1.0, 1.0), (0.25, 0.5), (0.5, 5.0 / 9.0)])
    def test_pass_probability(self, lam, expected):
        assert entpur.pass_probability(lam) == pytest.approx(expected, abs=1e-15)

    def test_purify_generic_value(self):
        assert entpur.purify_lambda(0.7) == pytest.approx(4.5 / 6.12, abs=1e-15)

    def test_fixed_points(self):
        assert entpur.purify_lambda(0.25) == 0.25  # 1.125 / 4.5
        assert abs(entpur.purify_lambda(0.5) - 0.5) < 1e-14
        assert abs(entpur.purify_lambda(1.0) - 1.0) < 1e-14
        # A maximally mixed pair stays one, so every run at 1/4 ends at 1/2.
        for n in range(1, 41):
            assert entpur.expected_fidelity_dp(n, 0.25).expected_fidelity == 0.5, n

    def test_strict_gain_only_above_one_half(self):
        # Within the protocol range [1/4, 1]; below 1/4 the map improves too.
        for lam in np.linspace(0.5, 1.0, 102)[1:-1]:
            assert entpur.purify_lambda(float(lam)) > lam
        for lam in np.linspace(0.25, 0.5, 40)[1:-1]:
            assert entpur.purify_lambda(float(lam)) < lam
        for lam in np.linspace(0.0, 0.25, 40)[:-1]:
            assert entpur.purify_lambda(float(lam)) > lam
        assert entpur.purify_lambda(0.1) == pytest.approx(0.1923, abs=1e-4)

    def test_purified_weights_ideal_pair(self):
        bd, p_pass = entpur.purified_bell_diagonal(1.0)
        assert p_pass == pytest.approx(1.0, abs=1e-15)
        assert bd.weights() == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_purified_weights_generic(self):
        lam = 0.7
        bd, p_pass = entpur.purified_bell_diagonal(lam)
        assert p_pass == pytest.approx(6.12 / 9.0, abs=1e-15)
        assert bd.w_phi_plus == pytest.approx((10 * lam**2 - 2 * lam + 1) / (9 * p_pass),
                                              abs=1e-15)
        assert math.fsum(bd.weights()) == pytest.approx(1.0, abs=1e-12)

    def test_twirled_weight_equals_purify(self):
        for lam in np.linspace(0.0, 1.0, 21):
            bd, _ = entpur.purified_bell_diagonal(float(lam))
            assert abs(bd.w_phi_plus - entpur.purify_lambda(float(lam))) < 1e-12


class TestOutcomeProbability:
    def test_certain_success(self):
        assert entpur.outcome_probabilities(1, 1.0) == [0.0, 1.0]
        assert entpur.outcome_probabilities(4, 1.0) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_fair_binomial_at_critical_point(self):
        # pass probability is exactly 1/2 at lam = 1/4
        probs = entpur.outcome_probabilities(2, 0.25)
        assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_generic_binomial_term(self):
        p = entpur.pass_probability(0.8)
        expected = 4 * p**3 * (1 - p)
        assert entpur.outcome_probabilities(4, 0.8)[3] == pytest.approx(expected, abs=1e-15)

    def test_row_is_accurate_and_normalized(self):
        # Against the exact binomial terms of the float p: every entry above
        # 1e-300 within 16 ulps, and the row sums to 1 within 4 ulps of 1.
        for lam in (0.25, 0.5, 0.8, 0.999):
            p = Fraction(entpur.pass_probability(lam))
            for pairs in range(1, 61):
                row = entpur.outcome_probabilities(pairs, lam)
                for j, weight in enumerate(row):
                    exact = math.comb(pairs, j) * p ** j * (1 - p) ** (pairs - j)
                    if exact > Fraction(1, 10 ** 300):
                        error = abs(Fraction(weight) - exact) / Fraction(math.ulp(float(exact)))
                        assert error <= 16, (pairs, lam, j)
                assert abs(math.fsum(row) - 1.0) <= 4 * math.ulp(1.0), (pairs, lam)

    def test_large_supply_is_finite_and_normalized(self):
        for pairs in (3000, 20_000):
            probs = entpur.outcome_probabilities(pairs, 0.8)
            assert len(probs) == pairs + 1
            assert all(math.isfinite(p) and p >= 0.0 for p in probs)
            assert abs(math.fsum(probs) - 1.0) < 1e-12

    def test_grid_rows_equal_the_scalar_row(self):
        # One recurrence, two renderings: each column takes the scalar's steps,
        # also alone, where numpy would sum a single column pairwise.
        p = np.array([entpur.pass_probability(lam) for lam in (0.25, 0.5, 0.8, 0.999, 1.0)])
        for pairs in [*range(1, 61), 3000, 20_000]:
            rows = entpur._binomial_rows(pairs, p)
            for i, p_pass in enumerate(p.tolist()):
                expected = entpur._binomial_row(pairs, p_pass)
                assert rows[:, i].tolist() == expected, (pairs, p_pass)
                assert entpur._binomial_rows(pairs, p[i:i + 1])[:, 0].tolist() == expected

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            entpur.outcome_probabilities(0, 0.5)


class TestStepOracle:
    def test_matches_closed_form_on_grid(self):
        for lam in np.linspace(0.0, 1.0, 21):
            lam = float(lam)
            bd_oracle, p_oracle = entpur.step_oracle(lam)
            bd_closed, p_closed = entpur.purified_bell_diagonal(lam)
            assert abs(p_oracle - p_closed) < 1e-12
            for a, b in zip(bd_oracle.weights(), bd_closed.weights()):
                assert abs(a - b) < 1e-12

    def test_completely_mixed_is_a_fixed_point(self):
        bd, p_pass = entpur.step_oracle(0.25)
        assert p_pass == pytest.approx(0.5, abs=1e-12)
        assert bd.weights() == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-12)


def two_path_values(lam0):
    """Hand evaluation of the only two outcome paths of a 2-pair run."""
    p = (8 * lam0**2 - 4 * lam0 + 5) / 9
    lam1 = (10 * lam0**2 - 2 * lam0 + 1) / (8 * lam0**2 - 4 * lam0 + 5)
    win = (2 * lam1 + 1) / 3
    return p, win


class TestRunExpectation:
    def test_single_pair_is_direct_teleportation(self):
        for lam0 in (0.25, 0.5, 0.8, 1.0):
            result = entpur.expected_fidelity_dp(1, lam0)
            assert result.path_count == 1
            assert abs(result.expected_fidelity - channel.single_shot_fidelity(lam0)) < 1e-15

    def test_two_pairs_hand_evaluated(self):
        p, win = two_path_values(0.8)
        expected = p * win + (1 - p) * 0.5
        assert entpur.expected_fidelity_dp(2, 0.8).expected_fidelity == pytest.approx(
            expected, abs=1e-12)

    def test_three_pairs_hand_evaluated(self):
        # The stored pair rescues the failure branch at the initial quality.
        p, win = two_path_values(0.8)
        expected = p * win + (1 - p) * (2 * 0.8 + 1) / 3
        assert entpur.expected_fidelity_dp(3, 0.8).expected_fidelity == pytest.approx(
            expected, abs=1e-12)

    def test_path_weights_sum_to_one(self):
        for n in (1, 2, 5, 8, 12):
            for lam0 in (0.3, 0.55, 0.8):
                paths = entpur.enumerate_paths(n, lam0)
                assert abs(math.fsum(p for p, _ in paths) - 1.0) < 1e-12
                assert all(0.5 <= fid <= 1.0 + 1e-12 for _, fid in paths)

    def test_matches_path_enumeration(self):
        for n in range(1, 41):
            for lam0 in (0.26, 0.5, 0.8, 0.999):
                paths = entpur.enumerate_paths(n, lam0)
                result = entpur.expected_fidelity_dp(n, lam0)
                assert abs(result.expected_fidelity
                           - math.fsum(p * fid for p, fid in paths)) <= 1e-14, (n, lam0)
                assert result.path_count == len(paths), (n, lam0)
            assert entpur.path_count(n) == len(paths), n
        assert entpur.path_count(193) == 169396  # quoted in the module docstring

    # Two points whose 12-digit printout an error of an ulp or two flips, the
    # worst of 40 random points at N <= 300 (3.8 ulps), and three points
    # where rows summing to 1 only within N ulps put the value 5 to 10 ulps off.
    @pytest.mark.parametrize("n,lam0", [(12, 0.7418032786885246), (64, 0.72560975609756095),
                                        (95, 0.9573), (255, 0.6491), (300, 0.6718),
                                        (300, 0.9334)])
    def test_within_four_ulps_of_multiprecision_oracle(self, n, lam0):
        value = entpur.expected_fidelity_dp(n, lam0).expected_fidelity
        with mpmath.workdps(40):
            exact = mp_ent_pur(n, mpmath.mpf(lam0))
            assert abs(value - exact) <= 4 * math.ulp(value), (n, lam0)

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            entpur.expected_fidelity_dp(193, 0.8)
            assert gc.collect() == 0
            entpur.enumerate_paths(12, 0.8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bounds(self):
        for n in range(1, 34):
            for lam0 in np.linspace(0.26, 0.99, 8):
                value = entpur.expected_fidelity_dp(n, float(lam0)).expected_fidelity
                assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12

    def test_odd_supplies_beat_adjacent_even_ones(self):
        for lam0 in (0.7, 0.9):
            fid = [entpur.expected_fidelity_dp(n, lam0).expected_fidelity
                   for n in range(1, 12)]
            for k in (1, 2, 3, 4):
                assert fid[2 * k] > fid[2 * k - 1]
                assert fid[2 * k] > fid[2 * k + 1]

    def test_no_gain_from_separable_pairs(self):
        for lam0 in (0.3, 0.45):
            single = entpur.expected_fidelity_dp(1, lam0).expected_fidelity
            for n in range(2, 12):
                assert single >= entpur.expected_fidelity_dp(n, lam0).expected_fidelity

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            entpur.expected_fidelity_dp(0, 0.8)
        with pytest.raises(ValueError):
            entpur.expected_fidelity_dp(3, 0.2)

    def test_result_range_is_enforced(self):
        with pytest.raises(ValueError):
            EntPurResult(expected_fidelity=0.3, path_count=1)


# The crossing prescan's points and the grid of `sweep --grid 40`.
PRESCAN_GRID = np.linspace(0.25, 1.0, 64)
SWEEP_GRID = np.linspace(0.25, 1.0, 42)[1:-1]


class TestExpectedFidelityGrid:
    @pytest.mark.parametrize("grid", [PRESCAN_GRID, SWEEP_GRID], ids=["prescan", "sweep"])
    def test_agrees_with_single_point_evaluator(self, grid):
        # Every column takes the single-point evaluator's steps in its order.
        for n in range(1, 61):
            values = entpur.expected_fidelity_grid(n, grid)
            for lam, value in zip(grid, values):
                expected = entpur.expected_fidelity_dp(n, float(lam)).expected_fidelity
                assert value == expected, (n, lam)

    def test_exact_at_anchor_points(self):
        # At 1/4 every branch ends at fidelity 1/2, at 1 the binomial row is
        # exact, and at 1/2 an odd run always keeps a stored pair, which the
        # anchoring holds on the fixed point 2/3. An even run at 1/2 can end
        # with no pair, so its value carries rounding like any other.
        for n in range(1, 61):
            values = entpur.expected_fidelity_grid(n, [0.25, 0.5, 1.0]).tolist()
            expected = [entpur.expected_fidelity_dp(n, lam).expected_fidelity
                        for lam in (0.25, 0.5, 1.0)]
            assert values == expected, n
            assert values[0] == 0.5 and values[2] == 1.0, n
            if n % 2 == 1:
                assert values[1] == 2.0 / 3.0, n

    @pytest.mark.parametrize("bad", [math.nan, 0.2, 1.1])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="lambda must lie in"):
            entpur.expected_fidelity_grid(5, [0.5, bad])
        with pytest.raises(ValueError):
            entpur.expected_fidelity_grid(0, [0.5])


class TestMonteCarlo:
    def test_perfect_channel_has_no_spread(self):
        result = entpur.mc_simulate(7, 1.0, 2000, seed=0)
        assert result.mc_estimate == 1.0
        assert result.mc_stderr == 0.0

    def test_single_pair_has_no_randomness(self):
        result = entpur.mc_simulate(1, 0.7, 2000, seed=0)
        assert result.mc_estimate == channel.single_shot_fidelity(0.7)
        assert result.mc_stderr == 0.0

    def test_reproducible_for_fixed_seed(self):
        a = entpur.mc_simulate(9, 0.8, 50_000, seed=42)
        b = entpur.mc_simulate(9, 0.8, 50_000, seed=42)
        assert a.mc_estimate == b.mc_estimate
        assert a.mc_stderr == b.mc_stderr
        c = entpur.mc_simulate(9, 0.8, 50_000, seed=43)
        assert c.mc_estimate != a.mc_estimate

    def test_agrees_with_exact_expectation(self):
        result = entpur.mc_simulate(9, 0.8, 200_000, seed=5)
        assert result.mc_stderr > 0.0
        assert abs(result.mc_estimate - result.expected_fidelity) <= 5.0 * result.mc_stderr

    def test_carries_run_metadata(self):
        result = entpur.mc_simulate(5, 0.7, 100, seed=9)
        assert result.samples == 100
        assert result.path_count == entpur.expected_fidelity_dp(5, 0.7).path_count

    @pytest.mark.parametrize("args,expected", [
        ((12, 0.9997966112061726, 100_000, 1915297984), (0.9999598057730906, 5.315408600977154e-10)),
        ((29, 0.6, 100_000, 3), (0.7699415507730316, 5.581928905746076e-05)),
    ])
    def test_sample_stream_is_pinned(self, args, expected):
        result = entpur.mc_simulate(*args)
        assert (result.mc_estimate, result.mc_stderr) == expected

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            entpur.mc_simulate(5, 0.7, 0, seed=0)
