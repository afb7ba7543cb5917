"""One supply check for every public entry point that takes a number of pairs or copies."""

import numpy as np
import pytest

from qtransfer import compare, entpur, estimate, qmath, qubitpur

ENTRY_POINTS = {
    "entpur.enumerate_paths": lambda n: entpur.enumerate_paths(n, 0.7),
    "entpur.expected_fidelity_dp": lambda n: entpur.expected_fidelity_dp(n, 0.7),
    "entpur.expected_fidelity_grid": lambda n: entpur.expected_fidelity_grid(n, [0.6, 0.7]),
    "entpur.mc_simulate": lambda n: entpur.mc_simulate(n, 0.7, 100, 5),
    "entpur.path_count": entpur.path_count,
    "entpur.outcome_probabilities": lambda n: entpur.outcome_probabilities(n, 0.7),
    "qubitpur.multiplicity": lambda n: qubitpur.multiplicity(n, 1),
    "qubitpur.outcome_distribution": lambda n: qubitpur.outcome_distribution(n, 0.7),
    "qubitpur.average_fidelity": lambda n: qubitpur.average_fidelity(n, 0.7),
    "qubitpur.average_fidelity_grid": lambda n: qubitpur.average_fidelity_grid(n, [0.6, 0.7]),
    "estimate.estimation_fidelity": estimate.estimation_fidelity,
    "compare.sweep": lambda n: compare.sweep(compare.METHOD_NAMES, [n], [0.6]),
    "compare.crossing_points": compare.crossing_points,
    "compare.effective_entpur_fidelity": lambda n: compare.effective_entpur_fidelity(n, 0.7),
    "compare.recommend": lambda n: compare.recommend(n, 0.7),
}


@pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, "3", None])
def test_require_supply_rejects(bad):
    with pytest.raises(ValueError, match=f"the supply must be a positive integer, got {bad}"):
        qmath.require_supply(bad)


@pytest.mark.parametrize("n", [1, 3, np.int64(3), np.uint8(3)])
def test_require_supply_returns_an_int(n):
    assert type(qmath.require_supply(n)) is int
    assert qmath.require_supply(n) == n


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0])
def test_entry_point_rejects_a_bad_supply(name, bad):
    with pytest.raises(ValueError, match="the supply must be a positive integer"):
        ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_numpy_integer_supply_equals_int(name):
    first, second = ENTRY_POINTS[name](3), ENTRY_POINTS[name](np.int64(3))
    if isinstance(first, np.ndarray):
        assert first.tolist() == second.tolist()
    else:
        assert first == second


def test_numpy_integer_reaches_the_big_integer_recurrence_as_an_int():
    assert (qubitpur.average_fidelity(np.int64(100), 0.7)
            == qubitpur.average_fidelity(100, 0.7))
    assert type(estimate.estimation_fidelity(np.int64(3))) is float
    assert estimate.estimation_fidelity(np.int64(3)) == 0.8


def test_sweep_does_not_truncate():
    with pytest.raises(ValueError, match="got 2.7"):
        compare.sweep(["estimation"], [2.7], [0.5])
