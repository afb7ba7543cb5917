import math

import mpmath
import numpy as np
import pytest

from qtransfer import compare, entpur, estimate, qubitpur
from qtransfer.compare import AmbiguousCrossingError, CrossingResult
from mp_oracles import mp_ent_pur, mp_qubit_pur


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
        # sorted() can leave a NaN anywhere in the grid, not only at its ends.
        for bad in (0.2, 1.1, float("nan")):
            for method in compare.METHOD_NAMES:
                for grid in ([bad], [0.5, bad]):
                    with pytest.raises(ValueError, match="lambda must lie in"):
                        compare.sweep([method], [3], grid)

    def test_closed_domain_ends_are_exact(self):
        rows = compare.sweep(compare.METHOD_NAMES, range(1, 9), [0.25, 1.0])
        assert len(rows) == 3 * 8 * 2
        for row in rows:
            if row.method == "estimation":
                assert row.fidelity == (row.n + 1) / (row.n + 2)
            else:
                assert row.fidelity == (0.5 if row.lambda0 == 0.25 else 1.0), row


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

    def test_every_supply_has_a_bracket(self):
        # Both fidelities run from 1/2 to 1 over [1/4, 1], while the baseline
        # lies strictly between, so gap(1/4) < 0 < gap(1) at every N and the
        # prescan always sees a sign change.
        for n in [*range(1, 101), 513]:
            assert entpur.expected_fidelity_grid(n, [0.25, 1.0]).tolist() == [0.5, 1.0], n
            assert qubitpur.average_fidelity_grid(n, [0.25, 1.0]).tolist() == [0.5, 1.0], n

    def test_rejects_empty_supply(self):
        with pytest.raises(ValueError):
            compare.crossing_points(0)

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            CrossingResult(n=5, lambda_1=0.5, lambda_2=0.8)
        with pytest.raises(ValueError):
            CrossingResult(n=5, lambda_1=0.6, lambda_2=math.nextafter(0.6, 1.0))
        with pytest.raises(ValueError):
            CrossingResult(n=5, lambda_1=1.2, lambda_2=None)
        CrossingResult(n=2, lambda_1=0.6, lambda_2=0.7)

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
                for name, fidelity, supply in (("lambda_1", mp_ent_pur, odd_n),
                                               ("lambda_2", mp_qubit_pur, n)):
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

    def test_roots_are_resolved_to_a_float_neighbour(self):
        for n in (3, 9, 40):
            result = compare.crossing_points(n)
            baseline = estimate.estimation_fidelity(n)
            for root, gap in (
                    (result.lambda_1,
                     lambda lam: compare.effective_entpur_fidelity(n, lam) - baseline),
                    (result.lambda_2,
                     lambda lam: qubitpur.average_fidelity(n, lam).expected_fidelity - baseline)):
                at_root = gap(root)
                neighbours = (math.nextafter(root, 0.0), math.nextafter(root, 1.0))
                assert any(at_root * gap(x) <= 0.0 for x in neighbours), (n, root)


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
        for lam0 in (0.2, 1.1, float("nan")):
            with pytest.raises(ValueError, match="lambda must lie in"):
                compare.recommend(9, lam0)

    def test_closed_domain_ends(self):
        for n in range(1, 21):
            assert compare.recommend(n, 0.25) == "estimation"
            assert compare.recommend(n, 1.0) == "qubit_pur"
