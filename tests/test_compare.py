import mpmath
import numpy as np
import pytest

from qtransfer import compare, entpur, qubitpur
from qtransfer.compare import AmbiguousCrossingError, CrossingResult
from test_qubitpur import _mp_qubit_pur


def _mp_ent_pur(n, lam):
    """Expected terminal fidelity of the run on n pairs, in mpmath at the working precision.

    A memoized DP over the walk state (pair count, round, round of the
    stored pair): an odd count stores a pair, an empty count falls back on
    the stored pair (or on 1/2), and j survivors of count/2 attempts move
    to (j, round + 1, stored) with binomial weight.
    """
    lams = [lam]

    def lam_at(rnd):
        while len(lams) <= rnd:
            x = lams[-1]
            lams.append((10 * x * x - 2 * x + 1) / (8 * x * x - 4 * x + 5))
        return lams[rnd]

    memo = {}

    def value(count, rnd, stored):
        if count % 2:
            count, stored = count - 1, rnd
        fallback = (2 * lam_at(stored) + 1) / 3 if stored >= 0 else mpmath.mpf(1) / 2
        if count == 0:
            return fallback
        if (count, rnd, stored) not in memo:
            x = lam_at(rnd)
            p, pairs = (8 * x * x - 4 * x + 5) / 9, count // 2
            memo[count, rnd, stored] = mpmath.fsum(
                mpmath.binomial(pairs, j) * p ** j * (1 - p) ** (pairs - j)
                * (fallback if j == 0 else value(j, rnd + 1, stored))
                for j in range(pairs + 1))
        return memo[count, rnd, stored]

    return value(n, 0, -1)


class TestEffectiveFidelity:
    def test_even_supplies_drop_one_pair(self):
        for lam0 in (0.6, 0.8):
            assert compare.effective_entpur_fidelity(2, lam0) == pytest.approx(
                (1 + 2 * lam0) / 3, abs=1e-14)
            assert compare.effective_entpur_fidelity(10, lam0) == pytest.approx(
                entpur.expected_fidelity_dp(9, lam0).expected_fidelity, abs=1e-15)

    def test_odd_supplies_pass_through(self):
        assert compare.effective_entpur_fidelity(9, 0.8) == pytest.approx(
            entpur.expected_fidelity_dp(9, 0.8).expected_fidelity, abs=1e-15)


class TestSweep:
    def test_row_count_and_ordering(self):
        grid = [0.4, 0.3, 0.6]
        rows = compare.sweep({"qubit_pur", "estimation", "ent_pur"}, [3, 1], grid)
        assert len(rows) == 3 * 2 * 3
        keys = [(r.method, r.n, r.lambda0) for r in rows]
        assert keys == sorted(keys)

    def test_order_is_input_order_independent(self):
        a = compare.sweep(["ent_pur", "qubit_pur"], [5, 3], [0.5, 0.7])
        b = compare.sweep(["qubit_pur", "ent_pur"], [3, 5], [0.7, 0.5])
        assert a == b

    def test_estimation_rows_are_constant(self):
        rows = compare.sweep(["estimation"], [9], list(np.linspace(0.3, 0.9, 10)))
        for row in rows:
            assert row.fidelity == 10 / 11

    def test_small_supply_identity_rows(self):
        rows = compare.sweep(["qubit_pur"], [2], [0.3, 0.5, 0.8])
        for row in rows:
            assert row.fidelity == pytest.approx((1 + 2 * row.lambda0) / 3, abs=1e-12)

    def test_purification_dominance_at_n9(self):
        grid = list(np.linspace(0.26, 0.99, 50))
        by_method = {m: compare.sweep([m], [9], grid) for m in ("ent_pur", "qubit_pur")}
        for ent_row, qubit_row in zip(by_method["ent_pur"], by_method["qubit_pur"]):
            assert qubit_row.fidelity >= ent_row.fidelity - 1e-12

    def test_collective_purification_dominates_for_odd_supplies(self):
        grid = np.linspace(0.26, 0.99, 50)
        for n in (3, 5, 7, 9, 15, 31):
            for lam0 in grid:
                lam0 = float(lam0)
                assert (qubitpur.average_fidelity(n, lam0).expected_fidelity
                        >= compare.effective_entpur_fidelity(n, lam0) - 1e-12)

    def test_strictly_increasing_in_channel_quality(self):
        grid = list(np.linspace(0.52, 0.98, 30))
        for method in ("ent_pur", "qubit_pur"):
            rows = compare.sweep([method], [9], grid)
            values = [r.fidelity for r in rows]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            compare.sweep([], [9], [0.5])
        with pytest.raises(ValueError):
            compare.sweep(["qubit_pur"], [], [0.5])
        with pytest.raises(ValueError):
            compare.sweep(["qubit_pur"], [9], [])
        with pytest.raises(ValueError):
            compare.sweep(["teleport_twice"], [9], [0.5])
        with pytest.raises(ValueError):
            compare.sweep(["qubit_pur"], [9], [0.25])
        with pytest.raises(ValueError):
            compare.sweep(["qubit_pur"], [9], [1.0])


class TestCrossingPoints:
    def test_single_resource_anchor(self):
        result = compare.crossing_points(1)
        assert result.lambda_1 == pytest.approx(0.5, abs=1e-9)
        assert result.lambda_2 == pytest.approx(0.5, abs=1e-9)

    def test_two_resources_coincide(self):
        result = compare.crossing_points(2)
        assert result.lambda_1 == pytest.approx(result.lambda_2, abs=1e-9)
        assert result.lambda_1 == pytest.approx(0.625, abs=1e-9)

    def test_ordering_for_larger_supplies(self):
        for n in (3, 9, 15):
            result = compare.crossing_points(n)
            assert result.lambda_2 <= result.lambda_1
            assert 0.25 < result.lambda_2 < result.lambda_1 < 1.0

    def test_collective_crossing_band_for_larger_supplies(self):
        for n in (7, 12, 21, 31):
            result = compare.crossing_points(n)
            assert 0.6 <= result.lambda_2 <= 0.65

    def test_collective_crossing_approaches_five_eighths(self):
        # lambda_2 tends to 5/8 from above; the gap about halves each time N
        # doubles (0.0117, 0.0059, 0.0029 at N = 33, 65, 129).
        gaps = [compare.crossing_points(n).lambda_2 - 0.625 for n in (33, 65, 129)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert all(0.4 < b / a < 0.6 for a, b in zip(gaps, gaps[1:]))

    def test_prescan_signs_match_single_point_evaluators(self):
        # The root finder starts from the prescan's gaps as single-point values.
        lambdas = np.linspace(0.25, 1.0, 64)
        for n in range(1, 41):
            baseline = (n + 1) / (n + 2)
            odd_n = n if n % 2 == 1 else n - 1
            grids = {"ent_pur": entpur.expected_fidelity_grid(odd_n, lambdas),
                     "qubit_pur": qubitpur.average_fidelity_grid(n, lambdas)}
            scalars = {
                "ent_pur": [compare.effective_entpur_fidelity(n, float(lam)) for lam in lambdas],
                "qubit_pur": [qubitpur.average_fidelity(n, float(lam)).expected_fidelity
                              for lam in lambdas]}
            for method, values in grids.items():
                assert values.tolist() == scalars[method], (n, method)

    def test_rejects_empty_supply(self):
        with pytest.raises(ValueError):
            compare.crossing_points(0)

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            CrossingResult(n=5, lambda_1=0.5, lambda_2=0.8, tolerance=1e-10)
        with pytest.raises(ValueError):
            CrossingResult(n=5, lambda_1=1.2, lambda_2=None, tolerance=1e-10)

    def test_multiple_sign_changes_are_reported(self, monkeypatch):
        def oscillating(n, lam0s):
            return 0.75 + 0.2 * np.sin(40.0 * np.asarray(lam0s))

        # The prescan evaluates each strategy once per N over its whole grid.
        for method, module, grid_evaluator in (("qubit_pur", qubitpur, "average_fidelity_grid"),
                                               ("ent_pur", entpur, "expected_fidelity_grid")):
            with monkeypatch.context() as patch:
                patch.setattr(module, grid_evaluator, oscillating)
                with pytest.raises(AmbiguousCrossingError) as err:
                    compare.crossing_points(3)
            assert err.value.n == 3
            assert err.value.method == method


class TestCrossingAccuracyAndWork:
    # Largest distance of a float root from its 30-digit mpmath root at
    # N <= 40 is 1.3e-14, from rounding in the float evaluators; a root this
    # close to a 12-digit rounding boundary may print either neighbour.
    NOISE = 2e-14
    NEAR_ROUNDING_BOUNDARY = {(30, "lambda_2")}  # 0.63780903917150088...

    def test_printed_digits_match_multiprecision_roots(self):
        for n in range(3, 41):
            result = compare.crossing_points(n)
            odd_n = n if n % 2 else n - 1
            with mpmath.workdps(30):
                baseline = mpmath.mpf(n + 1) / (n + 2)
                for name, fidelity, supply in (("lambda_1", _mp_ent_pur, odd_n),
                                               ("lambda_2", _mp_qubit_pur, n)):
                    value = getattr(result, name)
                    root = mpmath.findroot(lambda x: fidelity(supply, x) - baseline,
                                           mpmath.mpf(value))
                    assert abs(value - root) <= self.NOISE, (n, name)
                    to_boundary = abs(root * 10 ** 12 % 1 - 0.5) * 1e-12
                    if (n, name) in self.NEAR_ROUNDING_BOUNDARY:
                        assert to_boundary <= self.NOISE, (n, name)
                    else:
                        assert float(format(value, ".12g")) == float(mpmath.nstr(root, 12)), \
                            (n, name, value, root)

    def test_fewer_evaluations_than_bisection(self, monkeypatch):
        calls = []
        for module, name in ((entpur, "expected_fidelity_dp"), (qubitpur, "average_fidelity")):
            def counted(*args, _evaluate=getattr(module, name), _name=name):
                calls.append(_name)
                return _evaluate(*args)
            monkeypatch.setattr(module, name, counted)
        xs = compare._PRESCAN_LAMBDAS
        per_root = []
        for n in range(3, 41):
            calls.clear()
            result = compare.crossing_points(n)
            for name, root in (("expected_fidelity_dp", result.lambda_1),
                               ("average_fidelity", result.lambda_2)):
                i = int(np.searchsorted(xs, root))
                lo, hi = float(xs[i - 1]), float(xs[i])
                bisection_steps = 0
                while lo < 0.5 * (lo + hi) < hi:
                    lo, bisection_steps = 0.5 * (lo + hi), bisection_steps + 1
                per_root.append(calls.count(name))
                assert per_root[-1] <= bisection_steps, (n, name)
        assert sum(per_root) / len(per_root) <= 10.0

    def test_tolerance_reports_the_final_bracket(self):
        result = compare.crossing_points(9)
        assert result.tolerance <= 2.0 * np.spacing(result.lambda_1)


class TestRecommend:
    def test_good_channel_prefers_collective_purification(self):
        assert compare.recommend(9, 0.9) == "qubit_pur"
        assert qubitpur.average_fidelity(9, 0.9).expected_fidelity > 10 / 11

    def test_bad_channel_prefers_estimation(self):
        assert compare.recommend(9, 0.3) == "estimation"
        assert qubitpur.average_fidelity(9, 0.3).expected_fidelity < 10 / 11

    def test_tie_goes_to_estimation(self):
        # both strategies give exactly 2/3 here
        assert compare.recommend(1, 0.5) == "estimation"

    def test_matches_crossing_point(self):
        result = compare.crossing_points(9)
        assert compare.recommend(9, result.lambda_2 + 0.01) == "qubit_pur"
        assert compare.recommend(9, result.lambda_2 - 0.01) == "estimation"

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            compare.recommend(9, 0.25)
